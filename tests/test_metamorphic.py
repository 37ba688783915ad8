"""Metamorphic relations of the interpolation pipeline: transforms of the
snapshots that leave every subspace, angle and distance unchanged in exact
arithmetic must move interpolate's frame, its theta_1 and check-c3's table
by rounding only.

lambda -> -lambda is not among them: a target midway between two nodes then
picks the other one as its nearest reference, and the frame moves with the
reference (the method's reference dependence, not rounding).
"""

import numpy as np
import pytest

from gpmor import SnapshotMatrix, cli
from gpmor.fileio import read_frame, read_json, read_snapshot, write_snapshot_bin

TOL = 1e-13
TARGET = 2.5
MODES = "1,2,3,4"


def _relations():
    """name: (transform of one snapshot's (data, lambda, index), target
    shift, the row order the transform applies or None)."""
    rng = np.random.default_rng(0)
    rows = rng.permutation(300)
    cols = [rng.permutation(40) for _ in range(5)]
    return {
        "row-permutation": (lambda data, lam, i: (data[rows], lam), 0.0, rows),
        "column-permutation": (lambda data, lam, i: (data[:, cols[i]], lam), 0.0, None),
        "scale-1e200": (lambda data, lam, i: (data * 1e200, lam), 0.0, None),
        "scale-1e-300": (lambda data, lam, i: (data * 1e-300, lam), 0.0, None),
        "shift-1e6": (lambda data, lam, i: (data, lam + 1e6), 1e6, None),
    }


RELATIONS = _relations()


def _outputs(tmp_path, files, shift):
    """(frame, theta_1, C3 table) of the pipeline on `files` at TARGET + shift."""
    target = f"--target={TARGET + shift!r}"
    out = tmp_path / "interp"
    assert cli.main(["--out", str(out), "--quiet", "interpolate", *map(str, files), "--mode", "4",
                     target]) == 0
    frame = read_frame(out / "interpolated.gpf").frame
    theta = read_json(out / "interpolation_report.json")["c2"]["theta_max"]
    out = tmp_path / "c3"
    assert cli.main(["--out", str(out), "--quiet", "check-c3", *map(str, files), "--modes", MODES,
                     target]) in (0, 12)
    table = np.loadtxt(out / "c3_table.csv", delimiter=",", comments="#")
    return frame, theta, table


@pytest.fixture(scope="module")
def family(tmp_path_factory):
    """The nonnested family's snapshot files and the pipeline's outputs on them."""
    tmp = tmp_path_factory.mktemp("family")
    assert cli.main(["--out", str(tmp / "fam"), "--quiet", "--seed", "3", "synth", "--kind",
                     "nonnested", "--n", "300", "--nt", "40", "--modes", "4",
                     "--params=0,1,2,3,4"]) == 0
    files = sorted((tmp / "fam").glob("snapshot_*.gpm"))
    return files, _outputs(tmp, files, 0.0)


@pytest.mark.parametrize("name", RELATIONS)
def test_relation_moves_outputs_by_rounding_only(tmp_path, family, name):
    files, (frame, theta, table) = family
    transform, shift, rows = RELATIONS[name]
    moved = []
    for i, path in enumerate(files):
        s = read_snapshot(path)
        data, lam = transform(np.array(s.data), s.param, i)
        moved.append(tmp_path / path.name)
        write_snapshot_bin(moved[-1], SnapshotMatrix(data=data, param=lam))
    got_frame, got_theta, got_table = _outputs(tmp_path, moved, shift)
    if rows is not None:
        got_frame = got_frame[np.argsort(rows)]
    # sine of the largest principal angle between the two frames
    assert np.linalg.norm(got_frame - frame @ (frame.T @ got_frame), 2) <= TOL
    assert abs(got_theta - theta) <= TOL
    assert got_table.shape == table.shape
    assert np.max(np.abs(got_table - table)) <= TOL

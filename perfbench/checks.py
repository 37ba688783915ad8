"""Output checks of one pass. Each check reads what a call wrote and compares it
with an analytic value or an independent recomputation; file formats are
parsed here with numpy, not with gpmor's readers.
"""

import json
import math
import struct

import numpy as np

from .workloads import EXIT_C3, EXIT_OK, HOLDOUT_GAIN, HOLDOUT_TOL, NODE_LIFT_TOL

# The CLI's documented check-c3 default and C2 margin.
C3_THRESHOLD = 100.0
C2_MARGIN = 1e-12
ORTHO_TOL = 1e-10
# theta_1 at a node from the sweep vs the largest principal angle from the POD
# bases: arccos loses about 1e-8 near zero angle.
NODE_THETA_TOL = 1e-6


class CheckFailed(Exception):
    pass


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def read_frame(path):
    raw = path.read_bytes()
    require(raw[:4] == b"GPF1", f"{path.name}: not a GPF1 frame")
    n, p = struct.unpack_from("<QQ", raw, 4)
    return np.frombuffer(raw[20:], dtype="<f8").reshape((n, p), order="F")


def read_snapshot(path):
    """(data, lambda) of a GPM1 or CSV snapshot file."""
    raw = path.read_bytes()
    if raw[:4] == b"GPM1":
        n, n_t, lam = struct.unpack_from("<QQd", raw, 4)
        return np.frombuffer(raw[28:], dtype="<f8").reshape((n, n_t), order="F"), lam
    header, rows = read_csv(path)
    return rows, float(header.split("lambda=")[1].split()[0])


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0] if lines and lines[0].startswith("#") else ""
    rows = [[float(x) for x in line.split(",")] for line in lines if line and not line.startswith("#")]
    return header, np.array(rows)


def check_orthonormal(frame, shape, what):
    require(frame.shape == shape, f"{what}: shape {frame.shape}, expected {shape}")
    drift = np.max(np.abs(frame.T @ frame - np.eye(shape[1])))
    require(drift < ORTHO_TOL, f"{what}: not orthonormal (drift {drift:.2e})")


def lebesgue(nodes, x):
    """sum_i |l_i(x)| of the Lagrange basis on `nodes`: the factor by which
    errors at the nodes can grow in the interpolant at each x."""
    nodes = np.asarray(nodes, dtype=float)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    total = np.zeros(x.shape)
    for i, node in enumerate(nodes):
        others = np.delete(nodes, i)
        total += np.abs(np.prod((x[:, None] - others) / (node - others), axis=1))
    return total


def max_principal_angle(a, b):
    sv = np.linalg.svd(a.T @ b, compute_uv=False)
    return float(np.arccos(np.clip(sv[-1], 0.0, 1.0)))


class PassChecks:
    """Checks of one pass; `values` collects holdout_err and crossing_err."""

    def __init__(self, workload, inputs, pass_dir, exits):
        self.wl = workload
        self.fam = workload.family
        self.inputs = inputs
        self.pass_dir = pass_dir
        self.exits = exits
        self.values = {}

    def out(self, call):
        return self.pass_dir / call.label

    def pod_basis(self, file_name):
        """Basis the pass's `pod` call wrote for one snapshot file."""
        return read_frame(self.pass_dir / "pod" / f"basis_{file_name.rsplit('.', 1)[0]}.gpf")

    def run(self, record):
        """Run every check of every call, reporting each through record(ok, message)."""
        for call in self.wl.calls:
            got = self.exits.get(call.label)
            if call.expect is None:
                ok = got in (EXIT_OK, EXIT_C3)
                record(ok, f"{call.label}: exit {got}, expected 0 or 12 as its C3 table decides")
            else:
                record(got == call.expect, f"{call.label}: exit {got}, expected {call.expect}")
            for name in call.checks:
                try:
                    getattr(self, "check_" + name)(call)
                    record(True, "")
                except CheckFailed as exc:
                    record(False, f"{call.label}: {name} check: {exc}")
                except Exception as exc:  # a crash in a check is a failed check, not a dead run
                    record(False, f"{call.label}: {name} check raised {type(exc).__name__}: {exc}")

    # -- per-call checks -------------------------------------------------------

    def check_pod(self, call):
        summary = json.loads((self.out(call) / "pod_summary.json").read_text())
        entries = summary["inputs"]
        require(len(entries) == len(self.fam.train), f"{len(entries)} summary entries")
        for entry, lam, name in zip(entries, self.fam.train, self.fam.file_names()):
            require(entry["param"] == lam, f"{name}: param {entry['param']} != {lam}")
            require(entry["uniqueness"] is True, f"{name}: POD subspace flagged non-unique")
            check_orthonormal(self.pod_basis(name), (self.fam.n, self.fam.modes), name)

    def check_interpolate(self, call):
        out = self.out(call)
        report = json.loads((out / "interpolation_report.json").read_text())
        target = float(next(a for a in call.argv if a.startswith("--target=")).split("=")[1])
        meta = report["meta"]
        require(meta["target"] == target, f"report target {meta['target']}")
        require(report["c1"]["ok"], "C1 failed")
        stable = self.exits[call.label] == EXIT_OK
        require(report["c2"]["ok"] == stable, "C2 verdict disagrees with the exit code")
        theta = report["c2"]["theta_max"]
        if self.fam.kind in ("rotation", "crossing"):
            analytic = self.fam.rate * abs(target - self.fam.train[meta["reference_index"]])
            tol = NODE_LIFT_TOL * lebesgue(self.fam.train, target)[0]
            require(abs(theta - analytic) <= tol, f"theta_max {theta} vs analytic {analytic} (tolerance {tol:.2e})")
        require(stable == (theta < math.pi / 2 - C2_MARGIN), f"theta_max {theta} vs the C2 verdict")
        if stable:
            check_orthonormal(read_frame(out / "interpolated.gpf"), (self.fam.n, self.fam.modes),
                              "interpolated.gpf")

    def check_holdout(self, call):
        # The error uses the library's own reduced_model and frobenius_error.
        from gpmor import grassmann, metrics, snapshots

        data, lam = read_snapshot(self.inputs / self.fam.file_names()[-1])
        require(lam == self.fam.holdout, f"held-out file has lambda {lam}")
        held = snapshots.SnapshotMatrix(data=data, param=lam)

        def error(frame):
            approx = snapshots.reduced_model(held, grassmann.GrassmannPoint(frame))
            return metrics.frobenius_error(snapshots.SnapshotMatrix(data=approx, param=lam), held)

        err = error(read_frame(self.out(call) / "interpolated.gpf"))
        self.values["holdout_err"] = err
        gap = min(abs(x - lam) for x in self.fam.train)
        near = min(error(self.pod_basis(name))
                   for x, name in zip(self.fam.train, self.fam.file_names()) if abs(x - lam) == gap)
        require(err < HOLDOUT_TOL, f"holdout error {err:.3e} >= {HOLDOUT_TOL:g}")
        require(err <= HOLDOUT_GAIN * near,
                f"holdout error {err:.3e} vs {near:.3e} with the nearest node's own basis")

    def check_sweep(self, call):
        out = self.out(call)
        report = json.loads((out / "sweep_c2.json").read_text())
        _, table = read_csv(out / "sweep_c2.csv")
        grid, theta, ok = table[:, 0], table[:, 1], table[:, 2]
        lo, hi, samples = report["grid"]["lo"], report["grid"]["hi"], report["grid"]["samples"]
        step = (hi - lo) / (samples - 1)
        require(report["invalid_samples"] == 0, f"{report['invalid_samples']} invalid samples")
        require(len(grid) == samples, f"{len(grid)} rows for {samples} samples")
        unstable = theta >= math.pi / 2 - C2_MARGIN
        require(np.array_equal(ok == 0, unstable), "c2_ok column disagrees with theta_max")
        require(report["unstable_intervals"] == _runs(grid, unstable),
                "unstable_intervals disagree with the theta_max column")

        ref = report["reference_index"]
        lam_ref = self.fam.train[ref]
        bases = [self.pod_basis(name) for name in self.fam.file_names()[:-1]]
        for lam, basis in zip(self.fam.train, bases):
            hit = np.nonzero(np.abs(grid - lam) <= 1e-9 * max(1.0, abs(lam)))[0]
            if hit.size:
                expect = max_principal_angle(bases[ref], basis)
                got = theta[hit[0]]
                require(abs(got - expect) <= NODE_THETA_TOL,
                        f"theta at node {lam}: {got} vs principal angle {expect}")

        if self.fam.kind not in ("rotation", "crossing"):
            return
        excess = np.abs(theta - self.fam.rate * np.abs(grid - lam_ref)) / lebesgue(self.fam.train, grid)
        worst = int(np.argmax(excess))
        require(excess[worst] <= NODE_LIFT_TOL,
                f"theta off the analytic curve at {grid[worst]} by {excess[worst]:.2e} x Lebesgue")
        offset = math.pi / (2 * self.fam.rate)
        crossings = [x for x in (lam_ref - offset, lam_ref + offset) if lo < x < hi]
        intervals = report["unstable_intervals"]
        if not crossings:
            require(intervals == [], f"unexpected unstable intervals {intervals}")
            return
        require(len(intervals) == 2 and intervals[0][0] == lo and intervals[1][1] == hi,
                f"unstable intervals {intervals}, expected [lo, a] and [b, hi]")
        errs = [abs(intervals[0][1] - crossings[0]), abs(intervals[1][0] - crossings[1])]
        self.values["crossing_err"] = max(errs)
        require(max(errs) <= step, f"crossing endpoints off by {max(errs):.3e} > step {step:.3e}")

    def check_c3_table(self, call):
        """Recompute epsilon from c3_table.csv and hold the exit code and report to it.

        delta_min = 0 < delta_max is a ratio with a zero denominator: epsilon is
        infinite there and the verdict unstable.
        """
        out = self.out(call)
        got = self.exits[call.label]
        header, table = read_csv(out / "c3_table.csv")
        off = table[~np.eye(table.shape[0], dtype=bool)]
        dmin, dmax = float(off.min()), float(off.max())
        if dmin > 0.0:
            eps = (dmax - dmin) / dmin
        else:
            eps = 0.0 if dmax == 0.0 else math.inf
        expect = EXIT_C3 if eps >= C3_THRESHOLD else EXIT_OK
        report = json.loads((out / "c3_report.json").read_text())["c3"]
        require(got == expect, f"exit {got}, but epsilon={eps} from the table gives {expect}")
        require(math.isclose(report["epsilon"], eps, rel_tol=1e-9),
                f"reported epsilon {report['epsilon']} vs recomputed {eps}")


def _runs(grid, mask):
    """[first, last] grid value of each maximal run of True in mask."""
    runs = []
    start = None
    for i, bad in enumerate(mask):
        if bad and start is None:
            start = i
        if not bad and start is not None:
            runs.append([float(grid[start]), float(grid[i - 1])])
            start = None
    if start is not None:
        runs.append([float(grid[start]), float(grid[-1])])
    return runs

"""The frozen-record contract every gpmor record type keeps (gpmor.record)."""

import numpy as np
import pytest

from gpmor import grassmann, interpolation, metrics, snapshots, stability, synth
from gpmor.errors import DataError
from gpmor.record import Record, asdict, replace


def _frozen(a, order="C"):
    a = np.array(a, dtype=float, order=order)
    a.setflags(write=False)
    return a


def _cases():
    """{name: (record type, keyword arguments in field order)} of one valid
    record of each type. Every array argument is read-only, so each record
    built from these arguments keeps the same array objects."""
    point = grassmann.GrassmannPoint(_frozen(np.eye(4)[:, :2]))
    lift = _frozen(0.1 * np.eye(4)[:, 2:])
    velocity = grassmann.TangentVector(point, lift)
    c1 = stability.C1Record(True, (), (1.0,))
    c2 = stability.C2Record(True, 0.1)
    table = stability.DistanceTable((1, 2), _frozen([[0.0, 0.5], [0.5, 0.0]]))
    c3 = stability.C3Record(0.0, 100.0, True, table)
    spec = synth.FamilySpec(8, 6, 2, "rotation", 0.1, 3, (0.0, 1.0))
    snap = snapshots.SnapshotMatrix(_frozen(np.ones((4, 3))), 1.0)
    return {
        "GrassmannPoint": (grassmann.GrassmannPoint, {"frame": point.frame}),
        "TangentVector": (grassmann.TangentVector,
                          {"base": point, "lift": lift, "horizontal_tol": 1e-9}),
        "InjectivityCheck": (grassmann.InjectivityCheck,
                             {"cut_locus_ok": True, "radius_ok": True, "theta1": 0.1, "norm": 0.2}),
        "TrainingSet": (interpolation.TrainingSet, {"points": ((0.0, point), (1.0, point))}),
        "InterpolationResult": (interpolation.InterpolationResult, {
            "target_param": 0.5, "reference_index": 0, "c1": c1, "c2": c2, "frame": point,
            "velocity": velocity, "extrapolated": False}),
        "C2Sweep": (interpolation.C2Sweep,
                    {"grid": _frozen([0.0, 1.0]), "thetas": _frozen([0.1, 0.2]), "c1": c1}),
        "ErrorSeries": (metrics.ErrorSeries, {"per_snapshot": [0.1, 0.2], "frobenius": 0.15}),
        "SnapshotMatrix": (snapshots.SnapshotMatrix, {"data": snap.data, "param": 1.0}),
        "PodResult": (snapshots.PodResult, {"basis": point, "singular_values": _frozen([2.0, 1.0]),
                                            "mode": 2, "uniqueness_flag": False}),
        "PodFactor": (snapshots.PodFactor, {"vectors": _frozen(np.eye(4)[:, :3], "F"),
                                            "singular_values": _frozen([3.0, 2.0, 1.0]),
                                            "shape": (4, 3), "param": 1.0}),
        "C1Record": (stability.C1Record,
                     {"ok": False, "failing_indices": (1,), "min_singular_values": (1.0, 0.0)}),
        "C2Record": (stability.C2Record, {"ok": True, "theta_max": 0.1}),
        "DistanceTable": (stability.DistanceTable, {"modes": table.modes, "values": table.values}),
        "C3Record": (stability.C3Record,
                     {"epsilon": 0.0, "threshold": 100.0, "ok": True, "table": table}),
        "StabilityReport": (stability.StabilityReport,
                            {"c1": c1, "c2": c2, "c3": c3, "meta": {"target": 0.5}}),
        "FamilySpec": (synth.FamilySpec, {"n": 8, "n_t": 6, "mode_count": 2, "kind": "rotation",
                                          "rate": 0.1, "seed": 3, "params": (0.0, 1.0),
                                          "noise": 1e-6}),
        "SynthFamily": (synth.SynthFamily,
                        {"spec": spec, "snapshots": (snap,), "manifest": {"schema": "gpm/1"}}),
    }


RECORDS = sorted(_cases())


def test_every_record_type_is_covered():
    assert len(RECORDS) == 17
    assert {cls.__name__ for cls in Record.__subclasses__()} == set(RECORDS)


@pytest.mark.parametrize("name", RECORDS)
def test_record_contract(name):
    cls, kwargs = _cases()[name]
    record = cls(**kwargs)
    assert asdict(record) == {field: getattr(record, field) for field in kwargs}
    assert list(asdict(record)) == list(kwargs)
    assert cls(*kwargs.values()) == record
    values = tuple(getattr(record, field) for field in kwargs)
    try:
        expected = hash(values)
    except TypeError:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(cls(**kwargs)) == expected
    text = repr(record)
    assert text.startswith(f"{name}(") and all(f"{field}=" in text for field in kwargs)
    for field in kwargs:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.undeclared = 1
    assert tuple(getattr(record, field) for field in kwargs) == values
    with pytest.raises(TypeError):
        cls(**kwargs, undeclared=1)
    with pytest.raises(TypeError):
        cls(*kwargs.values(), None)
    first = next(iter(kwargs))
    with pytest.raises(TypeError):
        cls(*kwargs.values(), **{first: kwargs[first]})


@pytest.mark.parametrize("name", [name for name in RECORDS if name != "StabilityReport"])
def test_missing_required_field(name):
    # StabilityReport is the one record whose fields all have defaults
    cls, kwargs = _cases()[name]
    kwargs.pop(next(iter(kwargs)))
    with pytest.raises(TypeError, match="missing"):
        cls(**kwargs)


def test_defaults_and_factories():
    spec = synth.FamilySpec(8, 6, 2, "rotation", 0.1, 3, [0, 1])
    assert spec.noise == synth.DEFAULT_NOISE and spec.params == (0.0, 1.0)
    first, second = synth.SynthFamily(spec, ()), synth.SynthFamily(spec, ())
    assert first.manifest == {} and first.manifest is not second.manifest
    assert stability.StabilityReport().meta is not stability.StabilityReport().meta
    assert stability.StabilityReport() == stability.StabilityReport(None, None, None, {})


def test_replace_keeps_a_column_slice_and_reruns_post_init():
    cls, kwargs = _cases()["PodFactor"]
    factor = cls(**kwargs)
    served = replace(factor, vectors=factor.vectors[:, :2])
    # the no-copy hit path of fileio.read_pod_factor: a column slice of the
    # read-only F-ordered vectors is kept as a view
    assert served.vectors.base is factor.vectors
    assert served.vectors.shape == (4, 2) and served.singular_values is factor.singular_values
    assert replace(served, param=2).param == 2.0
    with pytest.raises(DataError):
        replace(factor, param=float("nan"))
    with pytest.raises(TypeError):
        replace(factor, undeclared=1)

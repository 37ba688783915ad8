"""Command-line front end.

Subcommands: synth, pod, interpolate, sweep-c2, check-c3, distance, metrics.
Exit codes: 0 success, 2 parameter/data/IO error, 10 C1 failure, 11 C2
failure, 12 C3 failure (first failure wins in that order).
"""

import argparse
import sys
from pathlib import Path

from . import fileio
from .errors import GpmError, ParameterError
from .fileio import fmt
from .grassmann import geometric_distance, riemannian_distance
from .interpolation import TrainingSet, c2_sweep, interpolate
from .metrics import error_series
from .snapshots import compute_pod, factor_pod, truncate_pod
from .stability import (
    EXIT_C1,
    EXIT_C2,
    DistanceTable,
    StabilityReport,
    c3_distance_table,
    check_c1,
    check_c2,
    check_c3,
    grassmann_dimension,
)
from .synth import FamilySpec, generate


def _say(args, message):
    if not args.quiet:
        print(message)


def _outdir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _factor_inputs(args, max_mode):
    """Read and factor each snapshot once, keeping only its POD factor, sorted
    by parameter; every mode up to max_mode is then a truncation."""
    return sorted((factor_pod(fileio.read_snapshot(p), max_mode) for p in args.inputs),
                  key=lambda f: f.param)


def _training_set(args, factors, mode):
    points = [(f.param, truncate_pod(f, mode).basis) for f in factors]
    return TrainingSet(points=tuple(points), reference_index=args.reference_index)


def _load_training_set(args):
    return _training_set(args, _factor_inputs(args, args.mode), args.mode)


def _parse_float_list(text):
    return [float(x) for x in text.split(",") if x.strip()]


def _parse_int_list(text):
    return [int(x) for x in text.split(",") if x.strip()]


# -- subcommand handlers -----------------------------------------------------


def cmd_synth(args):
    out = _outdir(args)
    spec = FamilySpec(
        n=args.n,
        n_t=args.nt,
        mode_count=args.modes,
        kind=args.kind,
        rate=args.rate,
        seed=args.seed,
        params=tuple(_parse_float_list(args.params)),
        noise=args.noise,
    )
    family = generate(spec)
    files = []
    for i, snap in enumerate(family.snapshots):
        if args.format in ("bin", "both"):
            path = out / f"snapshot_{i:03d}.gpm"
            fileio.write_snapshot_bin(path, snap)
            files.append(path.name)
        if args.format in ("csv", "both"):
            path = out / f"snapshot_{i:03d}.csv"
            fileio.write_snapshot_csv(path, snap)
            files.append(path.name)
    manifest = dict(family.manifest)
    manifest["files"] = files
    fileio.write_json(out / "manifest.json", manifest)
    _say(args, f"wrote {len(files)} snapshot file(s) and manifest.json to {out}")
    return 0


def cmd_pod(args):
    out = _outdir(args)
    summary = {"schema": "gpm/1", "mode": args.mode, "inputs": []}
    for path in args.inputs:
        snap = fileio.read_snapshot(path)
        pod = compute_pod(snap, args.mode)
        stem = Path(path).stem
        fileio.write_frame_bin(out / f"basis_{stem}.gpf", pod.basis)
        if args.report in ("csv", "both"):
            with open(out / f"spectrum_{stem}.csv", "w") as fh:
                fh.write("# gpm-spectrum\n")
                for i, sv in enumerate(pod.singular_values):
                    fh.write(f"{i},{fmt(sv)}\n")
        summary["inputs"].append(
            {
                "file": str(path),
                "param": snap.param,
                "n": snap.n,
                "n_t": snap.n_t,
                "uniqueness": pod.uniqueness_flag,
                "sigma_1": float(pod.singular_values[0]),
            }
        )
    if args.report in ("json", "both"):
        fileio.write_json(out / "pod_summary.json", summary)
    _say(args, f"computed mode-{args.mode} POD for {len(args.inputs)} snapshot(s) into {out}")
    return 0


def cmd_interpolate(args):
    out = _outdir(args)
    ts = _load_training_set(args)
    result = interpolate(ts, args.target)
    c1 = check_c1(ts, reference_index=result.reference_index)
    c2 = check_c2(result.velocity) if result.velocity is not None else None
    report = StabilityReport(
        c1=c1,
        c2=c2,
        meta={
            "target": result.target_param,
            "reference_index": result.reference_index,
            "mode": ts.mode,
            "n": ts.n,
            "grassmann_dimension": grassmann_dimension(ts.mode, ts.n),
            "extrapolated": result.extrapolated,
        },
    )
    if args.report in ("json", "both"):
        fileio.write_json(out / "interpolation_report.json", report.to_dict())
    if result.ok:
        fileio.write_frame_bin(out / "interpolated.gpf", result.frame)
        _say(
            args,
            f"interpolated at lambda={fmt(result.target_param)} "
            f"(theta_max={fmt(result.theta_max)}, dim={report.meta['grassmann_dimension']})",
        )
    else:
        _say(args, "interpolation unstable: " + ("C1 failed" if not result.c1_ok else "C2 failed"))
    return report.exit_code()


def cmd_sweep_c2(args):
    out = _outdir(args)
    if args.reference_index is None:
        raise ParameterError("sweep-c2 requires --reference-index")
    ts = _load_training_set(args)
    samples = c2_sweep(ts, args.lo, args.hi, args.samples)
    if args.report in ("csv", "both"):
        with open(out / "sweep_c2.csv", "w") as fh:
            fh.write("# gpm-sweep lambda,theta_max,c2_ok\n")
            for s in samples:
                fh.write(f"{fmt(s.param)},{fmt(s.theta_max)},{int(s.c2_ok)}\n")
    unstable = []
    start = None
    for s in samples:
        bad = s.valid and not s.c2_ok
        if bad and start is None:
            start = s.param
        if not bad and start is not None:
            unstable.append([start, prev])
            start = None
        prev = s.param
    if start is not None:
        unstable.append([start, samples[-1].param])
    invalid = sum(1 for s in samples if not s.valid)
    if invalid:
        _say(args, f"warning: {invalid} sample(s) invalid (C1 failure at the reference point)")
    if args.report in ("json", "both"):
        fileio.write_json(
            out / "sweep_c2.json",
            {
                "schema": "gpm/1",
                "mode": ts.mode,
                "reference_index": args.reference_index,
                "grid": {"lo": args.lo, "hi": args.hi, "samples": args.samples},
                "unstable_intervals": unstable,
                "invalid_samples": invalid,
            },
        )
    _say(args, f"swept {len(samples)} samples; {len(unstable)} unstable interval(s)")
    return 0


def cmd_check_c3(args):
    out = _outdir(args)
    if args.table is not None:
        header, values = fileio._read_matrix_csv(args.table)
        modes = tuple(range(values.shape[0]))
        if "modes=" in header:
            modes = tuple(_parse_int_list(header.split("modes=")[1].split()[0]))
        table = DistanceTable(modes=modes, values=values)
    else:
        modes = _parse_int_list(args.modes)
        if len(modes) < 2:
            raise ParameterError("check-c3 needs at least two modes")
        factors = _factor_inputs(args, max(modes))
        results = []
        for p in modes:
            ts = _training_set(args, factors, p)
            res = interpolate(ts, args.target)
            if not res.c1_ok:
                _say(args, f"C1 failure at mode p={p}")
                return EXIT_C1
            if not res.c2_ok:
                _say(args, f"C2 failure at mode p={p} (theta_max={fmt(res.theta_max)})")
                return EXIT_C2
            results.append((p, res.frame))
        table = c3_distance_table(results)
    c3 = check_c3(table, threshold=args.threshold)
    if args.report in ("csv", "both"):
        with open(out / "c3_table.csv", "w") as fh:
            fh.write("# gpm-c3-table modes=" + ",".join(str(m) for m in table.modes) + "\n")
            for row in table.values:
                fh.write(",".join(fmt(x) for x in row) + "\n")
    report = StabilityReport(c3=c3, meta={"threshold": args.threshold})
    if args.report in ("json", "both"):
        fileio.write_json(out / "c3_report.json", report.to_dict())
    _say(args, f"epsilon={fmt(c3.epsilon)} threshold={fmt(c3.threshold)} -> {'ok' if c3.ok else 'UNSTABLE'}")
    return report.exit_code()


def cmd_distance(args):
    out = _outdir(args)
    a = fileio.read_frame(args.inputs[0])
    b = fileio.read_frame(args.inputs[1])
    payload = {
        "schema": "gpm/1",
        "geometric_distance": geometric_distance(a, b),
        "dims": [[a.n, a.p], [b.n, b.p]],
    }
    if a.p == b.p:
        payload["riemannian_distance"] = riemannian_distance(a, b)
    if args.report in ("json", "both"):
        fileio.write_json(out / "distance.json", payload)
    _say(args, f"geometric distance = {fmt(payload['geometric_distance'])}")
    return 0


def cmd_metrics(args):
    out = _outdir(args)
    approx = fileio.read_snapshot(args.approx)
    reference = fileio.read_snapshot(args.reference)
    series = error_series(approx, reference)
    if args.report in ("csv", "both"):
        with open(out / "metrics.csv", "w") as fh:
            fh.write("# gpm-metrics t_index,e_l2\n")
            for i, e in enumerate(series.per_snapshot):
                fh.write(f"{i},{fmt(e)}\n")
    if args.report in ("json", "both"):
        fileio.write_json(out / "metrics.json", series.to_dict())
    _say(args, f"frobenius error = {fmt(series.frobenius)}")
    return 0


# -- parser ------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gpmor",
        description="POD basis interpolation on Grassmann manifolds with stability diagnostics",
    )
    parser.add_argument("--config", help="JSON file with default values for the options below")
    parser.add_argument("--out", default="gpm_out", help="output directory")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (synth)")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    parser.add_argument(
        "--report", choices=("json", "csv", "both"), default="both", help="report formats"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic snapshot family")
    p.add_argument("--kind", required=True, choices=("rotation", "crossing", "nested", "nonnested"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--nt", type=int, required=True)
    p.add_argument("--modes", type=int, required=True, help="number of designed modes")
    p.add_argument("--rate", type=float, default=0.1, help="radians per unit parameter")
    p.add_argument("--params", required=True, help="comma-separated parameter values")
    p.add_argument("--noise", type=float, default=1e-6)
    p.add_argument("--format", choices=("bin", "csv", "both"), default="bin")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("pod", help="compute truncated POD bases")
    p.add_argument("inputs", nargs="+", help="snapshot files")
    p.add_argument("--mode", type=int, required=True)
    p.set_defaults(func=cmd_pod)

    p = sub.add_parser("interpolate", help="interpolate POD bases at a target parameter")
    p.add_argument("inputs", nargs="+", help="snapshot files (parameters read from the files)")
    p.add_argument("--mode", type=int, required=True)
    p.add_argument("--target", type=float, required=True)
    p.add_argument("--reference-index", type=int, default=None)
    p.set_defaults(func=cmd_interpolate)

    p = sub.add_parser("sweep-c2", help="chart theta_1 over a parameter range")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--mode", type=int, required=True)
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--reference-index", type=int, required=True)
    p.set_defaults(func=cmd_sweep_c2)

    p = sub.add_parser("check-c3", help="cross-mode non-inclusion check")
    p.add_argument("inputs", nargs="*", help="snapshot files (unless --table)")
    p.add_argument("--modes", help="comma-separated mode list")
    p.add_argument("--target", type=float)
    p.add_argument("--reference-index", type=int, default=None)
    p.add_argument("--threshold", type=float, default=100.0)
    p.add_argument("--table", help="read a precomputed distance-table CSV instead")
    p.set_defaults(func=cmd_check_c3)

    p = sub.add_parser("distance", help="distances between two stored frames")
    p.add_argument("inputs", nargs=2, help="two frame files")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("metrics", help="error norms between two snapshot files")
    p.add_argument("--approx", required=True)
    p.add_argument("--reference", required=True)
    p.set_defaults(func=cmd_metrics)

    parser._command_parsers = dict(sub.choices)
    return parser


def _apply_config(parser, args):
    """Fill options still at their parser default from the --config JSON file."""
    if not args.config:
        return args
    config = fileio.read_json(args.config)
    if not isinstance(config, dict):
        raise ParameterError(f"{args.config}: config must be a JSON object")
    sub = parser._command_parsers.get(args.command)
    for key, value in config.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            continue
        defaults = {None, parser.get_default(attr)}
        if sub is not None:
            defaults.add(sub.get_default(attr))
        if getattr(args, attr) in defaults:
            setattr(args, attr, value)
    return args


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config(parser, args)
        return args.func(args)
    except GpmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

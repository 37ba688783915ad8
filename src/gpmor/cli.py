"""Command-line front end.

Subcommands: synth, pod, interpolate, sweep-c2, check-c3, distance, metrics.
Exit codes: 0 success, 2 parameter/data/IO error, 10 C1 failure, 11 C2
failure, 12 C3 failure (first failure wins in that order).
"""

import argparse
import gc
import sys
from pathlib import Path

from . import fileio
from .errors import GpmError, ParameterError
from .fileio import fmt
from .grassmann import geometric_distance, riemannian_distance
from .interpolation import c2_sweep, interpolate, training_set, walk_modes
from .metrics import error_series
from .snapshots import truncate_pod
from .stability import (
    DEFAULT_C3_THRESHOLD,
    EXIT_ERROR,
    EXIT_OK,
    StabilityReport,
    _c3_modes,
    _c3_threshold,
    c3_distance_table,
    check_c3,
    grassmann_dimension,
)
from .synth import DEFAULT_NOISE, FamilySpec, stream


def _say(args, message):
    if not args.quiet:
        print(message)


def _factors(args, p):
    """The snapshots' POD factors at mode p, sorted by parameter."""
    return sorted((fileio.read_pod_factor(path, p) for path in args.inputs), key=lambda f: f.param)


def _report(args, name, write, *payload):
    """write(path, *payload) for report `name` in the output directory, when
    --report names its suffix (json or csv) or is both."""
    if args.report in ("both", Path(name).suffix[1:]):
        write(args.out / name, *payload)


def _write_report(args, name, report):
    """Write a StabilityReport as JSON report `name` and return its exit code."""
    _report(args, name, fileio.write_json, report.to_dict())
    return report.exit_code()


def _parse_list(text, kind, option):
    """Comma-separated values of one type; a malformed item is a ParameterError."""
    try:
        return [kind(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ParameterError(f"{option}: {exc}") from None


# -- subcommand handlers -----------------------------------------------------


def cmd_synth(args):
    spec = FamilySpec(
        n=args.n,
        n_t=args.nt,
        mode_count=args.modes,
        kind=args.kind,
        rate=args.rate,
        seed=args.seed,
        params=tuple(_parse_list(args.params, float, "--params")),
        noise=args.noise,
    )
    manifest, snapshots = stream(spec)
    files = []
    for i, (lam, blocks) in enumerate(snapshots):
        # the binary name, then the CSV one; None for a format not asked for
        names = [f"snapshot_{i:03d}.{ext}" if args.format in (form, "both") else None
                 for form, ext in (("bin", "gpm"), ("csv", "csv"))]
        # each row block goes to every file before the next is built
        fileio.write_snapshot_blocks(*(name and args.out / name for name in names),
                                     (spec.n, spec.n_t), lam, blocks)
        files += filter(None, names)
    manifest["files"] = files
    fileio.write_json(args.out / "manifest.json", manifest)
    _say(args, f"wrote {len(files)} snapshot file(s) and manifest.json to {args.out}")
    return EXIT_OK


def cmd_pod(args):
    stems = [Path(path).stem for path in args.inputs]
    for i, stem in enumerate(stems):
        if stem in stems[:i]:
            raise ParameterError(f"pod inputs {args.inputs[stems.index(stem)]} and {args.inputs[i]} "
                                 f"would write the same basis_{stem}.gpf")
    summary = {"schema": "gpm/1", "mode": args.mode, "inputs": []}
    # every factor is loaded before any output is written: small allocations
    # made between loads split the heap the next snapshot reuses, and with
    # glibc a cold pod on five 4000x200 snapshots then peaked 5.7 MB higher
    factors = [fileio.read_pod_factor(path, args.mode) for path in args.inputs]
    for path, stem, factor in zip(args.inputs, stems, factors):
        pod = truncate_pod(factor, args.mode)
        fileio.write_frame_bin(args.out / f"basis_{stem}.gpf", pod.basis)
        _report(args, f"spectrum_{stem}.csv", fileio.write_csv, "# gpm-spectrum",
                enumerate(pod.singular_values.tolist()))
        summary["inputs"].append(
            {
                "file": str(path),
                "param": factor.param,
                "n": factor.shape[0],
                "n_t": factor.shape[1],
                "uniqueness": pod.uniqueness_flag,
                "sigma_1": float(pod.singular_values[0]),
            }
        )
    _report(args, "pod_summary.json", fileio.write_json, summary)
    _say(args, f"computed mode-{args.mode} POD for {len(args.inputs)} snapshot(s) into {args.out}")
    return EXIT_OK


def cmd_interpolate(args):
    ts = training_set(_factors(args, args.mode), args.mode)
    result = interpolate(ts, args.target, args.reference_index)
    report = StabilityReport(
        c1=result.c1,
        c2=result.c2,
        meta={
            "target": result.target_param,
            "reference_index": result.reference_index,
            "mode": ts.mode,
            "n": ts.n,
            "grassmann_dimension": grassmann_dimension(ts.mode, ts.n),
            "extrapolated": result.extrapolated,
        },
    )
    code = _write_report(args, "interpolation_report.json", report)
    if result.ok:
        fileio.write_frame_bin(args.out / "interpolated.gpf", result.frame)
        _say(
            args,
            f"interpolated at lambda={fmt(result.target_param)} "
            f"(theta_max={fmt(result.c2.theta_max)}, dim={report.meta['grassmann_dimension']})",
        )
    else:
        _say(args, "interpolation unstable: " + ("C1 failed" if not result.c1.ok else "C2 failed"))
    return code


def cmd_sweep_c2(args):
    ts = training_set(_factors(args, args.mode), args.mode)
    sweep = c2_sweep(ts, args.lo, args.hi, args.samples, args.reference_index)
    _report(args, "sweep_c2.csv", fileio.write_csv, "# gpm-sweep lambda,theta_max,c2_ok",
            zip(sweep.grid.tolist(), sweep.thetas.tolist(), map(int, sweep.c2_ok)))
    unstable = sweep.unstable_intervals()
    if not sweep.c1.ok:
        _say(args, f"sweep invalid: C1 failed at node(s) {list(sweep.c1.failing_indices)}")
    elif sweep.invalid_samples:
        _say(args, f"{sweep.invalid_samples} sample(s) invalid: their weights are past the bound "
                   "interpolate refuses")
    summary = {
        "schema": "gpm/1",
        "mode": ts.mode,
        "reference_index": args.reference_index,
        "grid": {"lo": args.lo, "hi": args.hi, "samples": args.samples},
        "unstable_intervals": unstable,
        "invalid_samples": sweep.invalid_samples,
        "c1": sweep.c1.to_dict(),
    }
    _report(args, "sweep_c2.json", fileio.write_json, summary)
    _say(args, f"swept {len(sweep.grid)} samples; {len(unstable)} unstable interval(s)")
    return StabilityReport(c1=sweep.c1).exit_code()


def cmd_check_c3(args):
    _c3_threshold(args.threshold)
    if args.table is not None:
        if args.inputs:
            raise ParameterError("check-c3 takes no snapshot inputs with --table")
        table = fileio.read_distance_table(args.table)
    else:
        for option in ("modes", "target"):
            if getattr(args, option) is None:
                raise ParameterError(f"check-c3 needs --{option} unless --table is given")
        modes = _parse_list(args.modes, int, "--modes")
        # judged before any snapshot is read, as the table would judge them
        _c3_modes(modes)
        results = []
        for p, res in walk_modes(_factors(args, max(modes)), args.target, modes,
                                 args.reference_index):
            if not res.ok:
                if not res.c1.ok:
                    _say(args, f"C1 failure at mode p={p}")
                else:
                    _say(args, f"C2 failure at mode p={p} (theta_max={fmt(res.c2.theta_max)})")
                report = StabilityReport(
                    c1=res.c1,
                    c2=res.c2,
                    meta={"mode": p, "target": res.target_param, "threshold": args.threshold},
                )
                return _write_report(args, "c3_report.json", report)
            results.append((p, res.frame))
        table = c3_distance_table(results)
    c3 = check_c3(table, threshold=args.threshold)
    _report(args, "c3_table.csv", fileio.write_distance_table, table)
    report = StabilityReport(c3=c3, meta={"threshold": args.threshold})
    code = _write_report(args, "c3_report.json", report)
    _say(args, f"epsilon={fmt(c3.epsilon)} threshold={fmt(c3.threshold)} -> {'ok' if c3.ok else 'UNSTABLE'}")
    return code


def cmd_distance(args):
    a = fileio.read_frame(args.inputs[0])
    b = fileio.read_frame(args.inputs[1])
    payload = {
        "schema": "gpm/1",
        "geometric_distance": geometric_distance(a, b),
        "dims": [[a.n, a.p], [b.n, b.p]],
    }
    if a.p == b.p:
        payload["riemannian_distance"] = riemannian_distance(a, b)
    _report(args, "distance.json", fileio.write_json, payload)
    _say(args, f"geometric distance = {fmt(payload['geometric_distance'])}")
    return EXIT_OK


def cmd_metrics(args):
    approx = fileio.read_snapshot(args.approx)
    reference = fileio.read_snapshot(args.reference)
    series = error_series(approx, reference)
    _report(args, "metrics.csv", fileio.write_csv, "# gpm-metrics t_index,e_l2",
            enumerate(series.per_snapshot))
    _report(args, "metrics.json", fileio.write_json, series.to_dict())
    _say(args, f"frobenius error = {fmt(series.frobenius)}")
    return EXIT_OK


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
    p.add_argument("--noise", type=float, default=DEFAULT_NOISE)
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
    p.add_argument("--threshold", type=float, default=DEFAULT_C3_THRESHOLD)
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


def _config_value(action, key, value):
    """A --config value as the command line would give it: a JSON list joins
    with commas, then the option's type and choices apply."""
    if action.nargs == 0:
        if not isinstance(value, bool):
            raise ParameterError(f"config {key!r}: expected true or false, got {value!r}")
        return value
    text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
    try:
        value = action.type(text) if action.type else text
    except ValueError as exc:
        raise ParameterError(f"config {key!r}: {exc}") from None
    if action.choices is not None and value not in action.choices:
        raise ParameterError(f"config {key!r}: {value!r} is not one of {list(action.choices)}")
    return value


def _apply_config(parser, args, argv):
    """`argv` parsed again with the --config JSON file's values as the
    defaults of their options, so an option given on the command line wins.
    A key that names no option of gpmor or any subcommand is a ParameterError."""
    if not args.config:
        return args
    config = fileio.read_json(args.config)
    if not isinstance(config, dict):
        raise ParameterError(f"{args.config}: config must be a JSON object")
    actions = {
        a.dest: a
        for p in (parser, parser._command_parsers[args.command])
        for a in p._actions
        if a.option_strings and hasattr(args, a.dest)
    }
    others = {a.dest for p in parser._command_parsers.values() for a in p._actions if a.option_strings}
    for key, value in config.items():
        dest = key.replace("-", "_")
        if dest in actions:
            actions[dest].default = _config_value(actions[dest], key, value)
        elif dest not in others:
            raise ParameterError(f"config {key!r}: gpmor has no such option")
    return parser.parse_args(argv)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config(parser, args, argv)
        args.out = Path(args.out)
        args.out.mkdir(parents=True, exist_ok=True)
        return args.func(args)
    except (GpmError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def run():
    """Entry of `gpmor` and `python -m gpmor.cli`: exit with main()'s code, the
    heap frozen so that the exit's garbage collection skips it."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()

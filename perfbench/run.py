#!/usr/bin/env python3
"""Benchmark of the gpmor CLI pipeline.

    python3 perfbench/run.py --workload tall_rotation --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the benchmark imports gpmor from
./src and writes its scratch files under ./.perfbench_work.

--trace 0 runs every subcommand the way users do: one fresh
`python -m gpmor.cli` process per call, one client in a closed loop. It
repeats the workload's pass until --seconds have gone by and prints the
end-to-end metrics as medians. --trace 1 replays the same calls in this
process through gpmor.cli.main, alternating untraced passes with passes traced
by perfbench.tracer, and prints the per-layer metrics. Both modes check every
output. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))

from perfbench import tracer as tracing  # noqa: E402
from perfbench.checks import PassChecks  # noqa: E402
from perfbench.workloads import CALL_METRICS, WORKLOADS  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("setup_peak_rss_mb", "MB"),
    ("pod_s", "s"),
    ("interpolate_s", "s"),
    ("sweep_c2_s", "s"),
    ("check_c3_s", "s"),
    ("pass_s", "s"),
    ("peak_rss_mb", "MB"),
)
# Fresh-process imports timed for cli.import_s, and the bound on one child.
IMPORT_SAMPLES = 5
CALL_TIMEOUT_S = 150
MIN_PASSES = 2


class Ledger:
    """Attempted and failed operations: calls and output checks alike."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {message}", file=sys.stderr)


def child_env(threads):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def spawn(argv, env, log):
    """Run one child to completion: (wall seconds, peak RSS in MB, exit code).

    The child's own peak RSS comes from os.wait4; RUSAGE_CHILDREN would give
    the running maximum over every child reaped so far.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=log, stderr=log, cwd=ROOT)
    timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, usage.ru_maxrss / 1024.0, proc.returncode


def cli_argv(out, argv, seed=None):
    head = ["--quiet", "--out", str(out)]
    if seed is not None:
        head = ["--seed", str(seed)] + head
    return head + list(argv)


def hash_tree(path):
    return {
        str(p.relative_to(path)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.rglob("*")) if p.is_file()
    }


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload, seed, seconds, work, threads, import_samples):
        self.wl = workload
        self.import_samples = import_samples
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.env = child_env(threads)
        self.ledger = Ledger()
        self.values = {}
        self.inputs = work / "inputs"
        self.log = open(work / "calls.log", "w")
        self.reference_outputs = None

    def close(self):
        self.log.close()

    def training_files(self):
        return [str(self.inputs / name) for name in self.wl.family.file_names()[:-1]]

    def python(self, *args):
        return [sys.executable, *args]

    def check_pass(self, pass_dir, exits):
        checks = PassChecks(self.wl, self.inputs, pass_dir, exits)
        checks.run(self.ledger.record)
        self.values.update(checks.values)
        outputs = hash_tree(pass_dir)
        if self.reference_outputs is None:
            self.reference_outputs = outputs
        else:
            self.ledger.record(outputs == self.reference_outputs,
                               f"{pass_dir.name}: reports differ from the first pass")
            shutil.rmtree(pass_dir)

    def warm_up(self):
        """Compile gpmor's bytecode and fill the file cache before any timing."""
        spawn(self.python("-c", "import gpmor.cli"), self.env, self.log)

    # -- --trace 0: one process per call -------------------------------------

    def untraced(self):
        self.warm_up()
        setup_s, setup_rss = [], []
        first = None
        for k in range(self.wl.setups):
            out = self.inputs if k == 0 else self.work / f"inputs{k}"
            t, rss, code = spawn(self.python("-m", "gpmor.cli", *cli_argv(out, self.wl.family.synth_argv(), self.seed)),
                                 self.env, self.log)
            self.ledger.record(code == 0, f"synth exit {code}")
            setup_s.append(t)
            setup_rss.append(rss)
            if k == 0:
                first = hash_tree(out)
            else:
                self.ledger.record(hash_tree(out) == first, f"set-up {k} wrote different inputs")
                shutil.rmtree(out)

        call_s = {m: [] for m in CALL_METRICS}
        pass_s, pass_rss = [], []
        start = time.perf_counter()
        while len(pass_s) < MIN_PASSES or time.perf_counter() - start < self.seconds:
            pass_dir = self.work / f"pass{len(pass_s)}"
            exits, peak = {}, 0.0
            t0 = time.perf_counter()
            for call in self.wl.calls:
                argv = cli_argv(pass_dir / call.label, [*call.argv, *self.training_files()])
                t, rss, code = spawn(self.python("-m", "gpmor.cli", *argv), self.env, self.log)
                exits[call.label] = code
                call_s[call.metric].append(t)
                peak = max(peak, rss)
            pass_s.append(time.perf_counter() - t0)
            pass_rss.append(peak)
            self.check_pass(pass_dir, exits)

        samples = {"setup_s": setup_s, "setup_peak_rss_mb": setup_rss, **call_s,
                   "pass_s": pass_s, "peak_rss_mb": pass_rss}
        (self.work / "samples.json").write_text(json.dumps(samples, indent=1) + "\n")
        metrics = {"setup_s": median(setup_s), "setup_peak_rss_mb": median(setup_rss)}
        metrics.update({m: median(v) for m, v in call_s.items()})
        metrics.update({"pass_s": median(pass_s), "peak_rss_mb": median(pass_rss)})
        print(f"passes={len(pass_s)} setups={len(setup_s)}", file=sys.stderr)
        return {name: (metrics[name], unit) for name, unit in END_TO_END}

    # -- --trace 1: in-process replay with spans ------------------------------

    def import_seconds(self):
        imports, bare = [], []
        for _ in range(self.import_samples):
            imports.append(spawn(self.python("-c", "import gpmor.cli"), self.env, self.log)[0])
            bare.append(spawn(self.python("-c", "pass"), self.env, self.log)[0])
        return median(imports) - median(bare)

    def replay(self, pass_dir, tracer=None):
        from gpmor import cli

        exits = {}
        t0 = time.perf_counter()
        for call in self.wl.calls:
            if tracer is not None:
                tracer.call = f"{pass_dir.name}:{call.label}"
            argv = cli_argv(pass_dir / call.label, [*call.argv, *self.training_files()])
            try:
                exits[call.label] = cli.main(argv)
            except Exception:  # an escaped exception is a failed call; keep measuring
                traceback.print_exc()
                exits[call.label] = None
        return time.perf_counter() - t0, exits

    def traced(self):
        self.warm_up()
        import_s = self.import_seconds()
        from gpmor import cli

        tracer = tracing.Tracer()
        t_origin = time.perf_counter()
        tracer.call = "setup"
        with tracer.installed():
            code = cli.main(cli_argv(self.inputs, self.wl.family.synth_argv(), self.seed))
        self.ledger.record(code == 0, f"synth exit {code}")
        setup_spans = tracer.take()

        plain_s, traced_s, pass_spans = [], [], []
        start = time.perf_counter()
        while len(traced_s) < MIN_PASSES or time.perf_counter() - start < self.seconds:
            pass_dir = self.work / f"pass{len(plain_s)}u"
            t, exits = self.replay(pass_dir)
            plain_s.append(t)
            self.check_pass(pass_dir, exits)

            pass_dir = self.work / f"pass{len(traced_s)}t"
            with tracer.installed():
                t, exits = self.replay(pass_dir, tracer)
                traced_s.append(t)
                tracer.call = f"{pass_dir.name}:check"
                self.check_pass(pass_dir, exits)
            pass_spans.append(tracer.take())

        tracing.write_spans(self.work / "spans.jsonl", [setup_spans, *pass_spans], t_origin)
        span_sets = [setup_spans + spans for spans in pass_spans]
        values = tracing.layer_metrics(span_sets)
        values.update({
            "cli.import_s": import_s,
            "trace.pass_s": median(traced_s),
            "trace.untraced_pass_s": median(plain_s),
            "trace.overhead_s": median(traced_s) - median(plain_s),
            "trace.spans": median(len(s) for s in span_sets),
            "check.holdout_err": self.values.get("holdout_err", 0.0),
            "check.crossing_err": self.values.get("crossing_err", 0.0),
        })
        print(f"passes={len(traced_s)} traced + {len(plain_s)} untraced", file=sys.stderr)
        return {name: (values[name], unit) for name, unit in tracing.per_layer_spec()}


def git_revision():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(args, threads, load_before):
    import numpy
    import scipy

    from gpmor import kernels

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "size": args.size,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before,
        "loadavg_after": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "child_blas_threads": threads,
        "kernel_backend": kernels.active_backend(),
        "git_revision": git_revision(),
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measuring time of one run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every workload for the smoke test")
    return ap.parse_args(argv)


def main(argv=None, workload=None):
    """Run one workload; `workload` overrides the named one (used by the smoke test)."""
    args = parse_args(argv)
    if not (SRC / "gpmor" / "cli.py").is_file():
        print(f"error: no gpmor sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    load_before = list(os.getloadavg())
    threads = len(os.sched_getaffinity(0))  # BLAS threads per child: every CPU this run may use
    sys.path.insert(0, str(SRC))

    tiny = args.size == "tiny"
    wl = workload or WORKLOADS[args.workload](tiny=tiny)
    work = ROOT / ".perfbench_work" / f"{wl.name}-trace{args.trace}-{args.size}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(wl, args.seed, args.seconds, work, threads, 1 if tiny else IMPORT_SAMPLES)
    try:
        metrics = run.traced() if args.trace else run.untraced()
    finally:
        run.close()
        shutil.rmtree(run.inputs, ignore_errors=True)

    env = environment(args, threads, load_before)
    (work / "env.json").write_text(json.dumps(env, indent=2) + "\n")
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": run.ledger.failed == 0,
        "attempted": run.ledger.attempted,
        "failed": run.ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the monotensor command line.

    python3 perfbench/run.py --workload verify_suite --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the package is imported from
``src/``.  One client calls the ``monotensor`` entry point in-process, one
operation after another (a closed loop), on inputs generated from
``--seed`` (see ``workloads.py``).  Every operation's output is checked.
The loop runs whole cycles of operations until ``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` wraps the package's public functions (``tracer.py``) for
half the time, replays the same operations untraced for the overhead
ratio, and reports the per-layer metrics.  The last line of standard
output is the result object; the lines before it record the environment
and details.  Spans and full records are written under ``.bench_out/``.
The exit code is 1 when any operation failed.
"""
from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

#: Set-up is timed this many times per run (once here, the rest in fresh
#: processes, since an import happens once per process); the median is kept.
SETUP_REPEATS = 5

LAYERS = ("cli", "reports", "words", "moments", "model", "haar", "sampling", "linalg")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="time to measure; 0 runs a single cycle (a smoke run)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up, print it and exit (used for the repeats)")
    return ap.parse_args(argv)


def pin_blas_threads():
    """At most one BLAS thread per available core, set before numpy loads."""
    cores = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if var not in os.environ or int(os.environ[var]) > cores:
            os.environ[var] = str(cores)


def setup(workload, seed, workdir):
    """Import the program and generate the first inputs; returns (workload, seconds)."""
    t0 = time.perf_counter()
    import numpy  # noqa: F401  (timed: part of the program's import)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import monotensor.cli  # noqa: F401
    from click.testing import CliRunner  # noqa: F401
    import workloads
    wl = workloads.WORKLOADS[workload](seed, workdir)
    wl.prepare()
    return wl, time.perf_counter() - t0


def repeat_setup(workload, seed):
    """Set-up times of fresh processes, each importing and generating anew."""
    times = []
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload", workload,
             "--seed", str(seed), "--seconds", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


class Reference:
    """Times the workload's speed reference, at most every REFERENCE_INTERVAL seconds."""

    def __init__(self, kind):
        import workloads
        self.fn, self.nominal = workloads.REFERENCES[kind]
        self.interval = workloads.REFERENCE_INTERVAL
        self.ends = []
        self.times = []

    def sample(self, force=False):
        """Runs the reference when due; returns the time spent."""
        t0 = time.perf_counter()
        if not force and self.ends and t0 - self.ends[-1] < self.interval:
            return 0.0
        self.fn()
        t1 = time.perf_counter()
        self.ends.append(t1)
        self.times.append(t1 - t0)
        return time.perf_counter() - t0

    def scale(self, t0, t1):
        """Nominal over median reference time, taken from the samples within
        ``interval`` * 4 of [t0, t1], or else the two around it."""
        pad = 4 * self.interval
        lo = bisect.bisect_left(self.ends, t0 - pad)
        hi = bisect.bisect_right(self.ends, t1 + pad)
        if hi - lo < 2:
            lo = max(0, bisect.bisect_right(self.ends, t0) - 1)
            hi = bisect.bisect_left(self.ends, t1) + 1
        return self.nominal / statistics.median(self.times[lo:hi])


class HaarProbe:
    """Start and end of each Haar trial, taken where mc_estimate calls word_value.

    Gives per-trial latencies without tracing; costs one clock read per
    trial, plus the speed reference when it falls due between trials (its
    time is left out of both trials).  When the program stops calling
    ``word_value`` once per trial, an invocation's trials all get its mean.
    """

    def __init__(self, haar_module, reference=None):
        self.module = haar_module
        self.original = haar_module.word_value
        self.reference = reference
        self.trials = []
        self.start = 0.0
        self.spent = 0.0

        def probe(*args, **kwargs):
            value = self.original(*args, **kwargs)
            end = time.perf_counter()
            self.trials.append((self.start, end, end - self.start))
            if self.reference is not None:
                self.spent += self.reference.sample()
            self.start = time.perf_counter()
            return value

        haar_module.word_value = probe

    def begin(self, start):
        self.trials, self.start, self.spent = [], start, 0.0

    def latencies(self, start, end, trials):
        """(start, end, seconds) of each trial, and whether they were measured."""
        if len(self.trials) != trials:
            return [(start, end, (end - start - self.spent) / trials)] * trials, False
        return self.trials, True

    def close(self):
        self.module.word_value = self.original


class Loop:
    """The closed-loop client: runs operations, times and checks them.

    ``ops`` holds (start, end, busy seconds, units) per operation and
    ``samples`` (start, end, seconds) per latency sample: one per
    operation, or one per trial on the Haar sweep.
    """

    def __init__(self, workload, tracer=None, probe=None, reference=None):
        from click.testing import CliRunner
        from monotensor import cli
        self.workload = workload
        self.runner = CliRunner()
        self.cli = cli
        self.tracer = tracer
        self.probe = probe
        self.reference = reference
        self.ops = []
        self.samples = []
        self.units = 0
        self.failed = 0
        self.wall = 0.0
        self.failures = []
        self.probe_fallbacks = 0

    def _invoke(self, args):
        tr = self.tracer
        if tr is not None and tr.active:
            rec = tr.enter("cli", "cli:" + args[0])
            t0 = tr.now()
        result = self.runner.invoke(self.cli.main, args)
        if tr is not None and tr.active:
            tr.leave(rec, t0, result.exit_code != 0)
            tr.counts["cli.calls"] += 1
        return result.exit_code, result.stdout

    def run_op(self, op):
        clock = self.tracer.now if self.tracer is not None else time.perf_counter
        if self.tracer is not None:
            self.tracer.start_op()
        if self.reference is not None:
            self.reference.sample()
        start = clock()
        if self.probe is not None:
            self.probe.begin(start)
        t_real = time.perf_counter()
        outputs = [self._invoke(args) for args in op.calls]
        end = clock()
        self.wall += time.perf_counter() - t_real
        spent = self.probe.spent if self.probe is not None else 0.0
        self.ops.append((start, end, end - start - spent, op.units))
        if self.probe is not None:
            trials, exact = self.probe.latencies(start, end, op.units)
            self.probe_fallbacks += not exact
            self.samples += trials
        else:
            self.samples.append((start, end, (end - start) / op.units))
        if self.reference is not None:
            self.reference.sample()
        self.units += op.units
        if self.tracer is not None:
            for key, seen in self.tracer.op_sets.items():
                self.tracer.counts[f"moments.distinct_{key}"] += len(seen)
            self.tracer.active = False
        try:
            reason = op.check(outputs)
        except Exception as exc:  # a malformed output is a failed operation
            reason = f"output check raised {exc!r}"
        if self.tracer is not None:
            self.tracer.active = True
        if reason is not None:
            self.failed += op.units
            if len(self.failures) < 5:
                self.failures.append(f"{op.name}: {reason}")

    def run_for(self, seconds, min_ops=0):
        """Whole cycles until ``seconds`` have passed and at least ``min_ops``
        operations ran; returns the operations run."""
        done = []
        start = time.perf_counter()
        c = 0
        while c == 0 or time.perf_counter() - start < seconds or self.units < min_ops:
            for op in self.workload.cycle(c):
                self.run_op(op)
                done.append(op)
            c += 1
        if self.reference is not None:
            self.reference.sample(force=True)
        return done

    @property
    def busy(self):
        return sum(op[2] for op in self.ops)

    def timings(self, scaled):
        """Busy seconds and latency samples, scaled by the speed reference or raw."""
        scale = self.reference.scale if scaled else (lambda t0, t1: 1.0)
        busy = sum(b * scale(t0, t1) for t0, t1, b, _ in self.ops)
        return busy, [x * scale(t0, t1) for t0, t1, x in self.samples]


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with q% of samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def environment(workload, seed):
    import numpy as np
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "monotensor")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": blas_threads(np),
        "workload": workload,
        "seed": seed,
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def blas_threads(np):
    """Thread count reported by the bundled OpenBLAS, else the pinned setting."""
    import ctypes
    import glob
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def git_commit():
    """HEAD of the checkout when it is a git work tree (None otherwise)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(git, ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def end_to_end(loop, setup_times, scaled=True):
    busy, latencies = loop.timings(scaled)
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": loop.units / busy,
        "op_p50_ms": 1e3 * percentile(latencies, 50),
        "op_p90_ms": 1e3 * percentile(latencies, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, loop, untraced_wall):
    from tracer import layer_times
    self_s, busy, by_name, errors = layer_times(tracer)
    ops = loop.units
    c = tracer.counts
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer] / ops
        m[f"{layer}.errors"] = errors[layer]
    for layer in ("words", "moments", "reports", "linalg"):
        m[f"{layer}.busy_s"] = busy[layer] / ops
    for metric, fn in (("model.build_s", "build_model"), ("model.power_s", "matrix_power"),
                       ("haar.word_value_s", "word_value"), ("haar.fit_s", "rate_check"),
                       ("sampling.gaussian_s", "complex_gaussians"),
                       ("linalg.qr_s", "qr_unitary")):
        m[metric] = by_name[fn] / ops
    for metric in ("words.mul_calls", "words.terms_out", "moments.terms_evaluated",
                   "moments.distinct_a_words", "moments.distinct_runs",
                   "model.matmul_flops_computed", "model.bytes_alloc_computed",
                   "haar.trials", "sampling.gaussians_drawn", "linalg.qr_calls",
                   "linalg.qr_flops_computed", "cli.calls", "reports.bytes_out"):
        m[metric] = c[metric] / ops
    m["words.merge_ratio"] = c["words.terms_out"] / c["words.pairs"] if c["words.pairs"] else 0.0
    m["moments.a_word_reuse"] = (c["moments.terms_evaluated"] / c["moments.distinct_a_words"]
                                 if c["moments.distinct_a_words"] else 0.0)
    m["model.max_dim"] = c["model.max_dim"]
    m["trace.overhead_ratio"] = loop.wall / untraced_wall
    m["trace.self_coverage"] = sum(self_s.values()) / loop.busy
    m["trace.ops"] = ops
    m["trace.counter_errors"] = c["trace.counter_errors"]
    return m


def run(args, bench, workdir):
    wl, setup_time = setup(args.workload, args.seed, workdir)
    from monotensor import haar

    def loop_with_probe(seconds=None, ops=(), tracer=None, min_ops=0):
        reference = Reference(wl.reference) if tracer is None and seconds is not None else None
        probe = HaarProbe(haar, reference) if args.workload == "haar_sweep" else None
        loop = Loop(wl, tracer=tracer, probe=probe, reference=reference)
        try:
            if seconds is None:
                for op in ops:
                    loop.run_op(op)
                return loop, list(ops)
            return loop, loop.run_for(seconds, min_ops)
        finally:
            if probe is not None:
                probe.close()

    if args.trace == 0:
        setup_times = [setup_time] + repeat_setup(args.workload, args.seed)
        min_ops = wl.min_ops if args.seconds > 0 else 0
        loop, _ = loop_with_probe(args.seconds, min_ops=min_ops)
        names = [m["name"] for m in bench["end_to_end"]]
        values = end_to_end(loop, setup_times)
        raw = end_to_end(loop, setup_times, scaled=False)
        detail = {"setup_samples_s": setup_times,
                  "unscaled": {k: raw[k] for k in ("ops_per_s", "op_p50_ms", "op_p90_ms")},
                  "reference": {"kind": wl.reference, "samples": len(loop.reference.times),
                                "median_s": statistics.median(loop.reference.times)}}
        loops = [loop]
    else:
        import monotensor
        from tracer import Tracer, span_dump
        tracer = Tracer()
        tracer.install(monotensor)
        try:
            tracer.active = True
            loop, ops = loop_with_probe(args.seconds / 2.0, tracer=tracer)
            tracer.active = False
        finally:
            tracer.uninstall()
        replay, _ = loop_with_probe(ops=ops)
        names = [m["name"] for m in bench["per_layer"]]
        values = per_layer(tracer, loop, replay.wall)
        detail = {"spans": len(tracer.records), "untraced_replay_s": replay.wall}
        loops = [loop, replay]
        os.makedirs(os.path.join(OUT, "trace"), exist_ok=True)
        with open(os.path.join(OUT, "trace", f"{args.workload}-seed{args.seed}.json"),
                  "w") as fh:
            json.dump(span_dump(tracer), fh)
    if sorted(values) != sorted(names):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(names)}")
    latencies = loop.timings(loop.reference is not None)[1]
    p90 = percentile(latencies, 90)
    attempted = sum(lp.units for lp in loops)
    failed = sum(lp.failed for lp in loops)
    detail.update({
        "fail_ratio": failed / attempted,
        "op_samples": len(loop.samples),
        "samples_above_p90": sum(x > p90 for x in latencies),
        "busy_s": loop.busy,
        "trial_probe_fallbacks": loop.probe_fallbacks,
        "failures": [f for lp in loops for f in lp.failures],
    })
    return values, attempted, failed, detail


def main(argv=None):
    args = parse_args(argv)
    if args.workload not in ("verify_suite", "quotient_suite", "haar_sweep", "dense_model"):
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "monotensor", "__init__.py")):
        print(f"no monotensor sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    pin_blas_threads()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        if args.setup_only:
            _, seconds = setup(args.workload, args.seed, workdir)
            print(json.dumps({"setup_s": seconds}))
            return 0
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
        values, attempted, failed, detail = run(args, bench, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = environment(args.workload, args.seed)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"env": env, "detail": detail, "result": result}, fh, indent=1)
    for reason in detail["failures"]:
        print(f"failed: {reason}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

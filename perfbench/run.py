"""Benchmark for matrel: ``check``, ``approx`` and ``reproduce``, end to end
and layer by layer.

    python3 perfbench/run.py --workload check-torus --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: set-up
time (median over fresh processes), the median op time and throughput,
and peak memory.  ``--trace 1`` measures the same workload untraced for
half the time and traced for the other half, and reports per-layer call
counts and self times per op plus the tracing overhead.  Every op's
output is checked against a stored reference digest.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full result, the
environment and (when traced) the spans are written under
``perfbench/out/``.  See ``perfbench/README.md``.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: the matrices here are at most 512 x 512 (the 2d x 2d
# block at d = 256), and a single thread keeps timings and floating-point
# results independent of how busy the other core is.  Must be set before
# numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFS = HERE / "refs.json"

ALL_CPUS = frozenset(os.sched_getaffinity(0))
SETUP_SAMPLES = 3      # fresh processes per run, this one included
MIN_OPS = 3            # measured ops per run, however long they take
TAIL_BEYOND = 10       # samples the reported tail percentile must leave above it


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("check-torus", "approx-torus",
                                 "reproduce-suite"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every workload at toy size")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# Environment and references

def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu, flags = "unknown", ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key.strip() == "model name" and cpu == "unknown":
                    cpu = value.strip()
                elif key.strip() == "flags" and not flags:
                    flags = value.strip()
    except OSError:
        pass
    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(ALL_CPUS),
        "cpu": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": BLAS_THREADS,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }
    # Reference digests hold only where floating point rounds the same way.
    key = [env[k] for k in ("cpu", "blas", "blas_config", "blas_threads",
                            "numpy", "scipy")] + [flags]
    env["fingerprint"] = hashlib.sha256(
        json.dumps(key).encode()).hexdigest()[:16]
    return env


def load_reference(env: dict, size: str, workload: str, slot: int):
    """(input digest, output digest) stored for this slot, or None when the
    references were made on another platform or are missing."""
    if not REFS.is_file():
        return None
    refs = json.loads(REFS.read_text())
    if refs.get("fingerprint") != env["fingerprint"]:
        return None
    entry = refs.get(size, {}).get(workload, {}).get(str(slot))
    return None if entry is None else (entry["input"], entry["output"])


# ---------------------------------------------------------------------------
# Checked operations

class Checker:
    """Runs ops and checks each output against the expected digest.  With
    no stored reference, the first op's digest becomes the reference."""

    def __init__(self, expected: str | None):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(problem)

    def run(self, workload):
        """Run one op; return its Outcome, or None if it raised."""
        self.attempted += 1
        try:
            outcome = workload.op()
        except Exception:  # a raising op is a failed op; the run goes on
            self.fail(traceback.format_exc(limit=3))
            return None
        if self.expected is None:
            self.expected = outcome.digest
        if outcome.problem:
            self.fail(outcome.problem)
        elif outcome.digest != self.expected:
            self.fail(f"output digest {outcome.digest[:16]} differs from "
                      f"reference {self.expected[:16]}")
        return outcome


def set_up(args, env: dict, workdir: Path):
    """Import matrel, write the inputs and make one checked warm-up op.

    Returns the workload, the checker, where the reference came from, and
    the set-up time measured from process start."""
    sys.path.insert(0, str(SRC))
    import workloads
    import matrel
    if Path(matrel.__file__).resolve().parent != SRC / "matrel":
        raise SystemExit(f"matrel was imported from {matrel.__file__}, "
                         f"not from {SRC}")
    slot = args.seed % workloads.SEED_SLOTS
    wl = workloads.WORKLOADS[args.workload](
        workloads.SIZES[args.size], slot, workdir)
    ref = load_reference(env, args.size, args.workload, slot)
    checker = Checker(None if ref is None else ref[1])
    if ref is not None and ref[0] != wl.input_digest():
        checker.problems.append("generated inputs differ from the "
                                "reference inputs")
    checker.run(wl)
    source = "first-op" if ref is None else "stored"
    return wl, checker, source, time.perf_counter() - PROCESS_START


def place(op_index: int) -> None:
    """Move this process to the next usable CPU before each op.

    Slow spells from outside the process hit one CPU at a time; spreading
    the ops over all CPUs keeps one slow CPU from setting a whole run's
    median."""
    cpus = sorted(ALL_CPUS)
    try:
        os.sched_setaffinity(0, {cpus[op_index % len(cpus)]})
    except OSError:
        pass


def unplace() -> None:
    try:
        os.sched_setaffinity(0, ALL_CPUS)
    except OSError:
        pass


def measure(checker: Checker, wl, seconds: float, min_ops: int):
    """Closed loop: one op at a time until ``seconds`` have passed and at
    least ``min_ops`` ran.  Returns per-op times and the work done."""
    times: list[float] = []
    work = 0
    attempts = 0
    deadline = time.perf_counter() + seconds
    try:
        while attempts < min_ops or time.perf_counter() < deadline:
            place(attempts)
            attempts += 1
            outcome = checker.run(wl)
            if outcome is not None:
                times.append(outcome.seconds)
                work += outcome.work
    finally:
        unplace()
    if not times:
        raise SystemExit(f"every op failed: {checker.problems}")
    return times, work


def setup_probe(args) -> dict:
    """Set-up time of one more fresh process, measured in that process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(times: list[float]):
    """The highest percentile with at least TAIL_BEYOND samples above it,
    reported only when that percentile lies above the median."""
    n = len(times)
    rank = n - TAIL_BEYOND
    if rank <= n / 2:
        return None
    return {"percentile": int(100 * rank / n),
            "value": sorted(times)[rank - 1], "samples": n}


def result_path(workload: str, seed: int, trace: int, size: str) -> Path:
    return OUT / f"result-{size}-{workload}-seed{seed}-trace{trace}.json"


def metric(value, unit):
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# Runs

def run_untraced(args, wl, checker, setup_s):
    setups = [setup_s]
    for _ in range(SETUP_SAMPLES - 1):
        probe = setup_probe(args)
        setups.append(probe["setup_s"])
        checker.attempted += probe["attempted"]
        checker.failed += probe["failed"]
        checker.problems += probe["problems"]
    times, work = measure(checker, wl, args.seconds, MIN_OPS)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "op_s_p50": metric(statistics.median(times), "s"),
        "work_per_s": metric(work / sum(times), "1/s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {"setup_samples_s": setups, "op_s": times,
              "work_unit": wl.work_unit, "work": work,
              "op_s_tail": tail(times)}
    return metrics, detail


def run_traced(args, wl, checker):
    import tracing
    plain, _ = measure(checker, wl, args.seconds / 2, 1)
    tracer = tracing.Tracer()
    tracer.install()
    traced = []
    accepted = work = 0
    try:
        deadline = time.perf_counter() + args.seconds / 2
        while not traced or time.perf_counter() < deadline:
            place(len(traced))
            tracer.op = len(traced)
            with tracer.span("bench.op"):
                outcome = checker.run(wl)
            if outcome is None:
                raise SystemExit(f"a traced op failed: {checker.problems}")
            traced.append(outcome.seconds)
            accepted += outcome.climb_accepted
            work += outcome.work
    finally:
        unplace()
        tracer.uninstall()
    table = tracer.layer_table()
    ops = sorted(table)
    calls = {op: {name: entry[0] for name, entry in table[op].items()}
             for op in ops}
    counts_repeat = all(calls[op] == calls[ops[0]] and
                        tracer.counts[op] == tracer.counts[ops[0]]
                        for op in ops)
    if not counts_repeat:
        checker.fail("per-layer call counts differ between traced ops")
    first = table[ops[0]]
    metrics = {}
    for name in tracing.LAYERS:
        metrics[f"{name}.calls"] = metric(first[name][0] if name in first
                                          else 0, "count")
        metrics[f"{name}.self_s"] = metric(statistics.median(
            table[op][name][1] / 1e9 if name in table[op] else 0.0
            for op in ops), "s")
    for key, unit in tracing.COUNTS.items():
        metrics[key] = metric(tracer.counts[ops[0]].get(key, 0), unit)
    # Only reproduce-suite climbs; there its work unit is the climb sample.
    metrics["verify.climb.accept_ratio"] = metric(accepted / work, "ratio")
    metrics["trace.overhead_s"] = metric(
        statistics.median(traced) - statistics.median(plain), "s")
    # One file per workload, replaced by each traced run: a run at full
    # size holds a few hundred thousand spans.
    spans = OUT / f"spans-{args.size}-{args.workload}.jsonl.gz"
    tracer.write(spans)
    detail = {"untraced_op_s": plain, "traced_op_s": traced,
              "traced_ops": len(ops), "counts_repeat": counts_repeat,
              "spans": str(spans.relative_to(ROOT))}
    return metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "matrel" / "__init__.py").is_file():
        print(f"error: no matrel sources under {SRC}", file=sys.stderr)
        return 2
    env = environment()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        wl, checker, source, setup_s = set_up(args, env, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s,
                              "attempted": checker.attempted,
                              "failed": checker.failed,
                              "problems": checker.problems}))
            return 0
        if args.trace:
            metrics, detail = run_traced(args, wl, checker)
        else:
            metrics, detail = run_untraced(args, wl, checker, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {"correct": checker.failed == 0,
              "attempted": checker.attempted,
              "failed": checker.failed,
              "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed,
              "size": args.size, "seconds": args.seconds,
              "trace": args.trace, "reference": source,
              "failed_ops_ratio": checker.failed / checker.attempted,
              "problems": checker.problems, "environment": env,
              **detail, **result}
    result_path(args.workload, args.seed, args.trace, args.size).write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"# {args.workload} seed {args.seed} ({args.size}), "
          f"reference {source}, environment: "
          + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# failed_ops_ratio {checker.failed}/{checker.attempted}")
    for problem in checker.problems:
        print(f"# problem: {problem.strip()}")
    if not args.trace:
        print(f"# {len(detail['op_s'])} ops, work unit {wl.work_unit}")
        if detail["op_s_tail"]:
            t = detail["op_s_tail"]
            print(f"# op_s_tail p{t['percentile']} {t['value']:.6f} s "
                  f"({t['samples']} samples)")
    for key, m in metrics.items():
        print(f"# {key} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

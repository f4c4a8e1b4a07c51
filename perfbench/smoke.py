"""Smoke test of the benchmark at toy size (d = 8, budget 50).

    python3 perfbench/smoke.py

For each workload it makes one untraced and two traced runs through
``run.py`` and asserts that every metric named in ``BENCHMARK.json`` is
emitted with its unit, that every op matched its stored reference
digest, and that the per-layer call counts and ``lapack.n3_sum`` repeat
exactly between the two traced runs.  Exits 0 when all of that holds.
"""

import json
import subprocess
import sys

import run

SECONDS = "1"


def bench(workload: str, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--size", "tiny",
           "--workload", workload, "--seed", "0", "--seconds", SECONDS,
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(run.result_path(workload, 0, trace, "tiny").read_text())
    return result, record


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(run.SRC))
    import workloads
    from matrel import verify
    problems = []
    if workloads.reproduction_seeds(0) != verify.REPRODUCTION_SEEDS:
        problems.append("seed 0 does not give REPRODUCTION_SEEDS")
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if {w["name"] for w in spec["workloads"]} != set(workloads.WORKLOADS):
        problems.append("BENCHMARK.json names other workloads")
    for workload in workloads.WORKLOADS:
        runs = [bench(workload, 0), bench(workload, 1), bench(workload, 1)]
        for (result, record), names in zip(runs, (end_to_end, per_layer,
                                                  per_layer)):
            label = f"{workload} trace {record['trace']}"
            units = {k: m["unit"] for k, m in result["metrics"].items()}
            if units != names:
                wrong = sorted(set(units.items()) ^ set(names.items()))
                problems.append(f"{label}: metrics {wrong} missing, "
                                "unexpected or in other units")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: failed ops {record['problems']}")
            if record["reference"] != "stored":
                problems.append(f"{label}: no stored reference digest")
        counts = [{k: m["value"] for k, m in result["metrics"].items()
                   if k.endswith(".calls") or k == "lapack.n3_sum"}
                  for result, _ in runs[1:]]
        if counts[0] != counts[1]:
            problems.append(f"{workload}: traced counts differ between runs")
        print(f"{workload}: checked", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

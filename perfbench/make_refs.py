"""Write the reference digests in ``perfbench/refs.json``.

    python3 perfbench/make_refs.py --size full
    python3 perfbench/make_refs.py --size tiny

For every workload and seed slot this runs one op and stores the digest
of its inputs and of its output.  Run it only at a commit whose outputs
are known to be right: the benchmark counts every later op whose output
differs as failed.  Digests are tied to the platform fingerprint (CPU,
BLAS, numpy, scipy); a size made on another platform is replaced.
"""

import argparse
import json
import shutil
import sys

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--size", choices=("full", "tiny"), required=True)
    args = parser.parse_args()
    env = run.environment()
    sys.path.insert(0, str(run.SRC))
    import workloads

    refs = json.loads(run.REFS.read_text()) if run.REFS.is_file() else {}
    if refs.get("fingerprint") != env["fingerprint"]:
        refs = {}
    refs.update(fingerprint=env["fingerprint"], environment=env)
    table = refs.setdefault(args.size, {})
    workdir = run.OUT / "refs-work"
    for name, cls in workloads.WORKLOADS.items():
        entries = table.setdefault(name, {})
        for slot in range(workloads.SEED_SLOTS):
            wl = cls(workloads.SIZES[args.size], slot, workdir)
            outcome = wl.op()
            if outcome.problem:
                print(f"{name} slot {slot}: {outcome.problem}", file=sys.stderr)
                return 1
            entries[str(slot)] = {"input": wl.input_digest(),
                                  "output": outcome.digest}
            print(f"{name} slot {slot}: {outcome.digest[:16]}", flush=True)
    shutil.rmtree(workdir, ignore_errors=True)
    run.REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

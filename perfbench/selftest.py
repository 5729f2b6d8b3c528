"""Self-test of the benchmark: references and determinism.

    python3 perfbench/selftest.py

1. Each reference in reference.py reproduces the hand-written `expect` of
   every sample in the pack manifests.
2. Determinism guard: two traced runs of each workload on seed 1, in two
   processes, report exactly the same deterministic counts.

Exits 1 on any mismatch.  Kept out of the repository's pytest suite
because it runs every workload twice.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

DETERMINISTIC = ("residual_size", "runtime.tokens", "evaluator.steps",
                 "names.fresh", "terms.subst_calls")
SEED = 1


def check_references(load_manifest):
    problems = []
    for pack in workloads.GRAMMAR_PACKS + ("signum_builder",):
        for sample in load_manifest(pack)["samples"]:
            check = workloads.sample_check(pack, sample["input"])
            code = sample.get("error", 0)
            lines = [sample["output"]] if "output" in sample else sample["expect"]
            problem = check(code, "".join(line + "\n" for line in lines))
            if problem:
                problems.append(f"reference for {pack} {sample['input']!r}: {problem}")
    return problems


def traced_counts(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=170, cwd=HERE.parent)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: exit {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload}: {result['failed']} failed requests")
    return {name: result["metrics"][name]["value"] for name in DETERMINISTIC}


def main():
    problems = check_references(run.import_langweave()["packs"].load_manifest)
    for workload in workloads.NAMES:
        first, second = traced_counts(workload, SEED), traced_counts(workload, SEED)
        print(f"{workload}: {first}")
        problems += [f"{workload}: {name} {first[name]} then {second[name]}"
                     for name in DETERMINISTIC if first[name] != second[name]]
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

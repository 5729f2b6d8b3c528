"""Scaling sweep: each grammar pack at sizes n, 2n, 4n, ... up to a time cap.

    python3 perfbench/sweep.py

Not a workload of BENCHMARK.json and not part of a benchmark run.  For each
case it times one untraced `langweave run PACK --emit value`, then repeats
it traced for the per-layer counters (unless it took longer than CAP_S).
It stops doubling after the first case slower than CAP_S or failing.  It
prints a table per pack and the exponent k of a least-squares fit
time ~ n^k, and writes everything to perfbench/out/sweep.json.

Sizes: for the minus/divide packs n is the number of `7/1` terms joined by
`-`; for assignments the number of statements; for graph the number of
edges (n/2 vertices with 1-3 edges each).
"""

import contextlib
import io
import json
import math
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

CAP_S = 5.0  # stop doubling after a case slower than this
SEED = 0
START = {"minusdiv_immediate": 100, "minusdiv_codegen": 8, "typed_minusdiv": 8,
         "assignments": 4, "graph": 6}
COUNTERS = ("evaluator.steps", "evaluator.actions", "terms.subst_calls",
            "terms.walk_visits", "names.fresh", "fragments.finalize_action_ms",
            "evaluator.invoke_ms", "residual_size")


def case(pack, n, rng):
    """The input text for one sweep case."""
    if pack in ("minusdiv_immediate", "minusdiv_codegen", "typed_minusdiv"):
        return "-".join(["7/1"] * n)
    if pack == "assignments":
        return ref.render_assignments(*workloads.assignments_program(rng, n))
    return ref.render_graph(workloads.graph_program(rng, max(3, n // 2)))


def measure(modules, argv, traced):
    out = io.StringIO()
    tracer = Tracer(modules)
    call = run.call_untraced
    if traced:
        tracer.install()
        call = tracer.call
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code, seconds = call(modules["cli"].main, argv)
    finally:
        tracer.uninstall()
    layers = run.layer_metrics(tracer.self_s, tracer.calls, tracer.counts,
                               tracer.counts["names.used_size"])
    return code, seconds, {name: layers[name][0] for name in COUNTERS}


def fit_exponent(points):
    """Least-squares slope of log(seconds) over log(n)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(s) for _, s in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx if sxx else float("nan")


def sweep(modules, pack):
    rng = random.Random(SEED)
    rows = []
    n = START[pack]
    while True:
        argv = ["run", pack, f"--expr={case(pack, n, rng)}", "--emit", "value"]
        code, seconds, _ = measure(modules, argv, traced=False)
        row = {"n": n, "exit": code if isinstance(code, int) else repr(code),
               "seconds": seconds}
        if code == 0 and seconds <= CAP_S:
            row.update(measure(modules, argv, traced=True)[2])
        rows.append(row)
        print(f"{pack:20} n={n:<6} exit={row['exit']} {seconds:9.3f}s "
              + " ".join(f"{k}={row[k]:.6g}" for k in COUNTERS if k in row), flush=True)
        if code != 0 or seconds > CAP_S:
            break
        n *= 2
    timed = [(r["n"], r["seconds"]) for r in rows if r["exit"] == 0]
    exponent = fit_exponent(timed) if len(timed) > 1 else float("nan")
    print(f"{pack:20} fitted exponent {exponent:.2f} over n={timed[0][0]}..{timed[-1][0]}")
    return {"rows": rows, "exponent": exponent}


def main():
    try:
        modules = run.import_langweave()
    except run.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = {pack: sweep(modules, pack) for pack in START}
    run.OUT.mkdir(exist_ok=True)
    (run.OUT / "sweep.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

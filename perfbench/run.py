"""langweave benchmark: closed-loop `langweave` traffic through `cli.main`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; langweave is imported from its `src/`.
One client sends the next request when the previous one returns.  The
seed fixes one pass of requests (see workloads.py); the run replays whole
passes until S seconds have passed, so every run sees the same request mix.
Every output is checked against reference.py.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, with times
rescaled to a reference host speed (see HostScale).  --trace 1
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones (per pass), the tracing overhead, and writes the spans to
perfbench/out/.  The last line of stdout is the JSON result.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (needs HERE on the path)
from tracer import Tracer  # noqa: E402

SETUP_REPEATS = 11
# The host's speed drifts by up to 1.6x within minutes, on a scale of
# seconds, which no run length averages out.  A fixed probe therefore runs
# between requests at least every PROBE_EVERY_S of measured time, and the
# end-to-end times are rescaled to the probe's reference time (its median on
# a 2-vCPU Intel Xeon host at 2.1 GHz with CPython 3.11).
PROBE_EVERY_S = 0.5
PROBE_REF_S = 0.016
MODULES = ("cli", "errors", "evaluator", "grammar", "grammar_reader", "packs", "parsegen",
           "printer", "reader", "runtime", "terms")


class SetupError(Exception):
    pass


# ---------------------------------------------------------------------------
# set-up


def forget_langweave():
    """Drop langweave from sys.modules and free the old copy, so the next
    import starts afresh and old copies do not add to peak RSS."""
    for name in [m for m in sys.modules if m == "langweave" or m.startswith("langweave.")]:
        del sys.modules[name]
    gc.collect()


def import_langweave():
    """Import langweave from the checkout's src/ and return its modules by
    short name."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        modules = {m: importlib.import_module(f"langweave.{m}") for m in MODULES}
    except ImportError as exc:
        raise SetupError(f"cannot import langweave from {SRC}: {exc}") from exc
    if not Path(modules["cli"].__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"langweave was imported from {modules['cli'].__file__}, not {SRC}")
    return modules


def prepare_languages(m, entries):
    """Read, prepare and register every language a workload uses."""
    session = m["evaluator"].Session()
    registry = m["runtime"].LanguageRegistry()
    for kind, name, *path in entries:
        if kind == "pack":
            manifest = m["packs"].load_manifest(name)
            text = m["packs"].pack_source(manifest)
            if manifest["kind"] == "script":
                m["reader"].read_core(text, session.names)
                continue
        else:
            text = Path(path[0]).read_text(encoding="utf-8")
        prepared, diagnostics = m["grammar"].prepare(
            m["grammar_reader"].read_grammar(text, session.names))
        if kind == "conflict":
            try:
                m["parsegen"].build_table(prepared)
            except m["errors"].Ll1Conflict:
                continue
            raise SetupError(f"grammar {name} was expected to have an LL(1) conflict")
        if diagnostics:
            raise SetupError(f"grammar {name}: {diagnostics}")
        registry.register(name, prepared, raw=True)


def timed_setup(entries):
    """Median of several set-ups, each a fresh import plus preparation,
    rescaled to the reference host speed; also the unscaled median."""
    scale = HostScale(every=0.0)
    for _ in range(SETUP_REPEATS):
        modules = None
        forget_langweave()
        start = perf_counter()
        modules = import_langweave()
        prepare_languages(modules, entries)
        scale.add(perf_counter() - start)
    return statistics.median(scale.finish()), statistics.median(scale.raw), modules


# ---------------------------------------------------------------------------
# host speed


def host_probe():
    """A fixed piece of pure-Python work whose duration tracks host speed."""
    table = {}
    acc = 0
    for i in range(60000):
        k = i % 997
        acc += (i * i) % 7
        table[k] = table.get(k, 0) + 1
        if i % 50 == 0:
            acc += len(f"n_{i}")
    return acc


def _probe_seconds():
    start = perf_counter()
    host_probe()
    return perf_counter() - start


class HostScale:
    """Rescales measured durations to the reference host speed.

    Durations are added in the order they are measured.  Once `every`
    seconds have been added, the probe runs; each duration measured since
    the previous probe is multiplied by PROBE_REF_S over the mean of the
    probe times before and after it."""

    def __init__(self, every):
        self.every = every
        self.raw, self.probes, self.scaled = [], [_probe_seconds()], []
        self._since = 0.0

    def add(self, seconds):
        self.raw.append(seconds)
        self._since += seconds
        if self._since >= self.every:
            self._rescale()

    def _rescale(self):
        self.probes.append(_probe_seconds())
        factor = PROBE_REF_S / ((self.probes[-2] + self.probes[-1]) / 2)
        self.scaled.extend(d * factor for d in self.raw[len(self.scaled):])
        self._since = 0.0

    def finish(self):
        if len(self.scaled) < len(self.raw):
            self._rescale()
        return self.scaled


# ---------------------------------------------------------------------------
# requests


def call_untraced(main, argv):
    start = perf_counter()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a traceback is a failed request, not a crash
        code = exc
    return code, perf_counter() - start


class Client:
    """Sends requests, checks each answer and keeps latencies."""

    def __init__(self, cli, workload):
        self.cli = cli
        self.workload = workload
        self.scale = None   # a HostScale while end-to-end times are taken
        self.first_out = {}
        self.attempted = 0
        self.failures = []

    def request(self, index, call):
        req = self.workload.requests[index]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code, latency = call(self.cli.main, list(req.argv))
        self.attempted += 1
        text = out.getvalue()
        problem = req.check(code, text)
        if problem is None and self.first_out.setdefault(index, text) != text:
            problem = "stdout differs from the first pass on the same input"
        if problem is not None:
            self.failures.append(f"{req.kind} {' '.join(req.argv)[:80]}: {problem}; "
                                 f"stderr {err.getvalue()[:200]!r}")
        if self.scale is not None:
            self.scale.add(latency)
        return latency

    def one_pass(self, call):
        return [self.request(i, call) for i in range(len(self.workload.requests))]


def rank(n, p):
    """Index of the nearest-rank p-th percentile among n sorted samples."""
    return max(1, math.ceil(p / 100 * n)) - 1


# ---------------------------------------------------------------------------
# the two kinds of run


def placement(samples, p):
    """Which request class a percentile falls in, and how many samples lie
    between it and the nearest sample of another class."""
    ordered = sorted(samples)
    at = rank(len(ordered), p)
    kind = ordered[at][1]
    lo = hi = at
    while lo > 0 and ordered[lo - 1][1] == kind:
        lo -= 1
    while hi < len(ordered) - 1 and ordered[hi + 1][1] == kind:
        hi += 1
    return kind, min(at - lo, hi - at)


def summarize(latencies, p):
    """programs_per_s, p50 and p-th percentile latency, samples beyond it."""
    ordered = sorted(latencies)
    at = rank(len(ordered), p)
    return (len(ordered) / sum(ordered), statistics.median(ordered), ordered[at],
            len(ordered) - 1 - at)


def run_untraced(client, seconds, setup_s, setup_raw):
    client.scale = HostScale(every=PROBE_EVERY_S)
    deadline = perf_counter() + seconds
    while True:
        client.one_pass(call_untraced)
        if perf_counter() >= deadline:
            break
    scale, client.scale = client.scale, None
    latencies = scale.finish()
    requests = client.workload.requests
    p = client.workload.tail_percentile
    rate, p50, tail, beyond = summarize(latencies, p)
    raw = summarize(scale.raw, p)
    print(f"# {len(latencies)} requests in {len(latencies) // len(requests)} passes; "
          f"tail is p{p:g} with {beyond} samples beyond it")
    print(f"# host probe median {statistics.median(scale.probes) * 1e3:.2f} ms, reference "
          f"{PROBE_REF_S * 1e3:g} ms; unscaled: setup_s {setup_raw:.6g}, programs_per_s "
          f"{raw[0]:.6g}, latency_p50_ms {raw[1] * 1e3:.6g}, latency_tail_ms {raw[2] * 1e3:.6g}")
    kinds = [(lat, requests[i % len(requests)].kind) for i, lat in enumerate(latencies)]
    for q in (50, p):
        kind, margin = placement(kinds, q)
        print(f"# p{q:g} falls among {kind} requests, {margin} samples from another class")
    return {
        "setup_s": (setup_s, "s"),
        "programs_per_s": (rate, "1/s"),
        "latency_p50_ms": (p50 * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


LAYERS = ("cli", "grammar_reader.read", "grammar.prepare", "parsegen.table",
          "reader.read_core", "runtime.parse", "runtime.lex", "evaluator.action",
          "evaluator.prim", "evaluator.invoke", "terms.subst", "fragments.merge",
          "fragments.finalize", "printer.print")


def _per_pass(before, after):
    return tuple(a - b for a, b in zip(after, before))


def layer_metrics(self_s, calls, counts, used_size):
    ms = {layer: self_s[layer] * 1e3 for layer in LAYERS}
    tokens, lexes = counts["runtime.tokens"], calls["runtime.lex"]
    return {
        "grammar_reader.read_ms": (ms["grammar_reader.read"], "ms"),
        "grammar.prepare_ms": (ms["grammar.prepare"], "ms"),
        "parsegen.table_ms": (ms["parsegen.table"], "ms"),
        "reader.read_core_ms": (ms["reader.read_core"], "ms"),
        "runtime.tokens": (tokens, "count"),
        "runtime.lex_calls": (lexes, "count"),
        "runtime.lex_ms": (ms["runtime.lex"], "ms"),
        "runtime.tokens_per_lex": (tokens / lexes if lexes else 0.0, "ratio"),
        "runtime.switches": (counts["runtime.switches"], "count"),
        "runtime.parse_self_ms": (ms["runtime.parse"], "ms"),
        "evaluator.actions": (calls["evaluator.action"], "count"),
        "evaluator.action_ms": (ms["evaluator.action"], "ms"),
        "evaluator.steps": (counts["evaluator.steps"], "count"),
        "evaluator.prim_evals": (calls["evaluator.prim"], "count"),
        "evaluator.prim_ms": (ms["evaluator.prim"], "ms"),
        "evaluator.invoke_ms": (ms["evaluator.invoke"], "ms"),
        "evaluator.invoke_steps": (counts["evaluator.invoke_steps"], "count"),
        "terms.subst_calls": (calls["terms.subst"], "count"),
        "terms.subst_ms": (ms["terms.subst"], "ms"),
        "terms.walk_visits": (calls["terms.walk"], "count"),
        "names.fresh": (counts["names.fresh"], "count"),
        "names.used_size": (used_size, "count"),
        "fragments.builds": (calls["fragments.build"], "count"),
        "fragments.merges": (calls["fragments.merge"], "count"),
        "fragments.merge_ms": (ms["fragments.merge"], "ms"),
        "fragments.finalize_action_ms": (counts["fragments.finalize_action_s"] * 1e3, "ms"),
        "fragments.finalize_self_ms": (ms["fragments.finalize"], "ms"),
        "printer.print_ms": (ms["printer.print"], "ms"),
        "cli.self_ms": (ms["cli"], "ms"),
        "residual_size": (counts["residual_size"], "count"),
    }


def run_traced(client, seconds, modules, spans_path):
    """Untraced and traced passes alternate, so the overhead is measured
    on the same requests under the same conditions."""
    tracer = Tracer(modules)
    plain, traced, per_pass = [], [], []
    deadline = perf_counter() + seconds
    while True:
        plain.append(sum(client.one_pass(call_untraced)))
        before = tracer.snapshot()
        tracer.install()
        try:
            traced.append(sum(client.one_pass(tracer.call)))
        finally:
            tracer.uninstall()
        per_pass.append(_per_pass(before, tracer.snapshot()))
        if perf_counter() >= deadline:
            break
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(spans_path)

    passes = [layer_metrics(*delta, tracer.counts["names.used_size"]) for delta in per_pass]
    metrics = {}
    for name, (_, unit) in passes[0].items():
        values = [p[name][0] for p in passes]
        if unit == "count" and len(set(values)) > 1:
            print(f"warning: count {name} differs between passes: {values}",
                  file=sys.stderr)
        metrics[name] = (statistics.median(values), unit)
    n = len(client.workload.requests)
    uncovered = sum(d[0]["cli"] for d in per_pass) / sum(traced)
    metrics.update({
        "trace.programs_per_s_untraced": (n / statistics.median(plain), "1/s"),
        "trace.programs_per_s_traced": (n / statistics.median(traced), "1/s"),
        "trace.overhead_pct": ((statistics.median(traced) / statistics.median(plain) - 1) * 100,
                               "%"),
        "trace.uncovered_pct": (uncovered * 100, "%"),
    })
    print(f"# {len(traced)} traced and {len(plain)} untraced passes of {n} requests; "
          f"spans in {spans_path}")
    return metrics


# ---------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        workload = workloads.build(args.workload, args.seed, import_langweave()["packs"])
        setup_s, setup_raw, modules = timed_setup(workload.setup)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    client = Client(modules["cli"], workload)
    seen = set()
    for i, req in enumerate(workload.requests):  # warm up: one request per class
        if req.kind not in seen:
            seen.add(req.kind)
            client.request(i, call_untraced)
    client.attempted = 0
    client.failures.clear()

    if args.trace:
        spans = OUT / f"spans_{args.workload}_seed{args.seed}.json"
        metrics = run_traced(client, args.seconds, modules, spans)
    else:
        metrics = run_untraced(client, args.seconds, setup_s, setup_raw)

    for problem in client.failures[:10]:
        print(f"FAILED {problem}", file=sys.stderr)
    failed = len(client.failures)
    print(f"# failed_ratio = {failed / max(client.attempted, 1):.6f} ratio "
          f"({failed} of {client.attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": client.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

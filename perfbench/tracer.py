"""Per-layer tracing from outside the program.

`Tracer.install` replaces public functions of langweave's modules with
wrappers and `uninstall` puts the originals back; nothing under `src/`
knows about it.  Every wrapped call is a frame on one stack, so a layer's
self time is its duration minus the time of the wrapped calls it made, and
the self times of one request add up to its latency.

Frequent leaf layers (lexing, primitives, substitution, fragment
operations) are only summed, because a span for each of their millions of
calls per run would cost memory and tracing overhead; the coarse ones also
keep a span
(id, layer, start, end, parent span id, request id) in memory for
`write_spans`; the root span of a request, `cli.main`, has parent 0.
"""

import json
from collections import Counter
from time import perf_counter

# (module, attribute, layer, keeps spans).  The attribute is looked up in
# the module that calls it, so each wrapper sees exactly the calls of that
# caller: evaluator.subst_body is the evaluator's top-level substitution,
# not the recursion inside terms.
TIMED = (
    ("cli", "read_grammar", "grammar_reader.read", True),
    ("cli", "prepare", "grammar.prepare", True),
    ("cli", "build_table", "parsegen.table", True),
    ("runtime", "build_table", "parsegen.table", True),
    ("cli", "read_core", "reader.read_core", True),
    ("cli", "print_core", "printer.print", True),
    ("runtime", "lex_next", "runtime.lex", False),
    ("evaluator", "eval_prim", "evaluator.prim", False),
    ("evaluator", "subst_body", "terms.subst", False),
    ("evaluator", "subst_term", "terms.subst", False),
    ("evaluator", "merge", "fragments.merge", False),
)
COUNTED = (
    ("evaluator", "child_bodies", "terms.walk"),
    ("evaluator", "build", "fragments.build"),
)
ROOT = "cli"


class Tracer:
    def __init__(self, modules):
        self.modules = modules      # short name -> module
        self.self_s = Counter()     # layer -> self seconds
        self.calls = Counter()      # layer -> calls
        self.counts = Counter()     # derived per-request counts
        self.spans = []             # (id, layer, start, end, parent id, request)
        self.stack = []             # frames: [span id, child seconds, tag]
        self.request = 0
        self._next_span = 0
        self._saved = []
        self._sessions = []
        self._parsers = []
        self._residuals = []

    # -- frames

    def _enter(self):
        self._next_span += 1
        frame = [self._next_span, 0.0, None]
        self.stack.append(frame)
        return frame

    def _leave(self, frame, layer, start, end, keep):
        self.stack.pop()
        duration = end - start
        self.self_s[layer] += duration - frame[1]
        self.calls[layer] += 1
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[1] += duration
        if keep:
            self.spans.append((frame[0], layer, start, end,
                               parent[0] if parent else 0, self.request))
        return duration

    def timed(self, fn, layer, keep):
        def wrapper(*args, **kwargs):
            frame = self._enter()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._leave(frame, layer, start, perf_counter(), keep)
        return wrapper

    def counted(self, fn, layer):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[layer] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- wrappers that also look at arguments or results

    def _action(self, fn):
        """runtime.apply_value runs one semantic action; remember whether
        evaluator.finalize_wrapper fired inside it."""
        def wrapper(*args, **kwargs):
            frame = self._enter()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                duration = self._leave(frame, "evaluator.action", start, end, True)
                if frame[2] == "finalize":
                    self.counts["fragments.finalize_action_s"] += duration
        return wrapper

    def _finalize_wrapper(self, fn):
        def wrapper(*args, **kwargs):
            for frame in self.stack:
                frame[2] = "finalize"
            return fn(*args, **kwargs)
        return wrapper

    def _invoke(self, fn):
        """cli.apply_value runs a finished function (the residual, or a
        core script) from the host; its steps are read off the session."""
        def wrapper(f, args, session):
            steps = session.steps
            frame = self._enter()
            start = perf_counter()
            try:
                return fn(f, args, session)
            finally:
                self._leave(frame, "evaluator.invoke", start, perf_counter(), True)
                self.counts["evaluator.invoke_steps"] += session.steps - steps
        return wrapper

    def _parse(self, fn):
        def wrapper(parser, *args, **kwargs):
            self._parsers.append(parser)
            frame = self._enter()
            start = perf_counter()
            try:
                outs = fn(parser, *args, **kwargs)
            finally:
                self._leave(frame, "runtime.parse", start, perf_counter(), True)
            self._residuals.extend(outs)  # a finalized fragment is a Lam
            return outs
        return wrapper

    def _session(self, cls):
        def make(*args, **kwargs):
            session = cls(*args, **kwargs)
            self._sessions.append((session, session.names.counter))
            return session
        return make

    def _finalize(self, fn):
        """cli.finalize turns a finished fragment into the residual."""
        def wrapper(*args, **kwargs):
            frame = self._enter()
            start = perf_counter()
            try:
                residual = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                duration = self._leave(frame, "fragments.finalize", start, end, True)
                self.counts["fragments.finalize_action_s"] += duration
            self._residuals.append(residual)
            return residual
        return wrapper

    def _keep_arg(self, fn):
        def wrapper(term):
            self._residuals.append(term)
            return fn(term)
        return wrapper

    # -- install / uninstall

    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        m = self.modules
        for mod, attr, layer, keep in TIMED:
            original = getattr(m[mod], attr)
            if (mod, attr) == ("cli", "print_core"):
                original = self._keep_arg(original)
            self._patch(m[mod], attr, self.timed(original, layer, keep))
        for mod, attr, layer in COUNTED:
            self._patch(m[mod], attr, self.counted(getattr(m[mod], attr), layer))
        self._patch(m["runtime"], "apply_value", self._action(m["runtime"].apply_value))
        self._patch(m["evaluator"], "finalize_wrapper",
                    self._finalize_wrapper(m["evaluator"].finalize_wrapper))
        self._patch(m["cli"], "apply_value", self._invoke(m["cli"].apply_value))
        self._patch(m["cli"], "finalize", self._finalize(m["cli"].finalize))
        self._patch(m["runtime"].Parser, "parse", self._parse(m["runtime"].Parser.parse))
        self._patch(m["cli"], "Session", self._session(m["cli"].Session))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- requests

    def call(self, main, argv):
        """One request: `main(argv)` under a root frame.  Returns the exit
        code (or the exception it raised) and its latency in seconds."""
        self.request += 1
        frame = self._enter()
        start = perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a failed request, not a crash
            code = exc
        end = perf_counter()
        latency = self._leave(frame, ROOT, start, end, True)
        self._collect()
        return code, latency

    def _collect(self):
        """Counts read off the objects a request created, after it ended."""
        c = self.counts
        for session, counter0 in self._sessions:
            c["evaluator.steps"] += session.steps
            c["names.fresh"] += session.names.counter - counter0
            c["names.used_size"] = max(c["names.used_size"], len(session.names.used))
        for parser in self._parsers:
            c["runtime.tokens"] += len(parser.consumed_spans)
            c["runtime.switches"] += sum(1 for line in parser.trace
                                         if line.startswith("switch enter"))
        # a residual printed by --emit residual is also a parse or finalize
        # result: count each term once, by the bodies it prints (every
        # printed body starts with its stage prefix '@...:')
        printer, lam = self.modules["printer"], self.modules["terms"].Lam
        unique = {id(t): t for t in self._residuals if isinstance(t, lam)}
        for residual in unique.values():
            c["residual_size"] += printer.print_core(residual).count("'@")
        self._sessions.clear()
        self._parsers.clear()
        self._residuals.clear()

    def snapshot(self):
        return (Counter(self.self_s), Counter(self.calls), Counter(self.counts))

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["id", "layer", "start_s", "end_s", "parent", "request"],
                       "spans": [[i, layer, round(s, 7), round(e, 7), p, r]
                                 for i, layer, s, e, p, r in self.spans]}, handle)

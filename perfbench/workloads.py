"""The benchmark's workloads: seeded request lists and their expected outputs.

A workload is a fixed list of `langweave` command lines (one pass) built
from the seed, plus the languages its set-up reads, prepares and registers.
Every request carries a check that compares the program's exit code and
stdout with `reference`, which never calls langweave.
"""

import random
import re
from dataclasses import dataclass
from pathlib import Path

import reference as ref

GRAMMARS = Path(__file__).resolve().parent / "grammars"

# A printed body line that starts with a quoted expression is a primitive.
_PRIM = re.compile(r"^\s*'@[^']*:' \"", re.M)


@dataclass
class Request:
    kind: str       # request class, used to place percentiles
    argv: tuple
    check: object   # (exit_code, stdout) -> None when right, else a message


@dataclass
class Workload:
    name: str
    setup: list             # ("pack", id) | ("file", name, path) | ("conflict", name, path)
    requests: list          # one pass
    tail_percentile: float  # fixed, so two commits report the same percentile


def prim_count(core_text):
    return len(_PRIM.findall(core_text))


def expect_lines(code, lines):
    def check(got_code, out):
        if got_code != code:
            return f"exit {got_code}, expected {code}"
        if out.splitlines() != lines:
            return f"stdout {out[:120]!r}, expected {lines!r}"
        return None
    return check


def expect_residual(prims, ifs=None):
    def check(got_code, out):
        if got_code != 0:
            return f"exit {got_code}, expected 0"
        if not out.startswith("(") or not out.rstrip().endswith("}"):
            return f"not a printed lambda: {out[:120]!r}"
        if prim_count(out) != prims:
            return f"{prim_count(out)} primitives in the residual, expected {prims}"
        if ifs is not None and out.count(" if ") != ifs:
            return f"{out.count(' if ')} conditionals, expected {ifs}"
        return None
    return check


def expect_contains(code, needle):
    def check(got_code, out):
        if got_code != code:
            return f"exit {got_code}, expected {code}"
        if needle not in out:
            return f"{needle!r} missing from stdout"
        return None
    return check


def run_argv(lang, text, *extra):
    return ("run", lang, f"--expr={text}") + extra


# ---------------------------------------------------------------------------
# input generators (also used by the scaling sweep)


def minusdiv_expr(rng, terms):
    """`terms` terms joined by "-"; exactly half of them are quotients, so
    the amount of work depends on the size only, not on the draw."""
    quotients = set(rng.sample(range(terms), terms // 2))
    return [[rng.randint(1, 99) for _ in range(2 if i in quotients else 1)]
            for i in range(terms)]


def stream_program(rng, statements):
    out = []
    for _ in range(statements):
        name = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz")
                       for _ in range(rng.randint(1, 6)))
        expr = [[rng.randint(1, 999) for _ in range(rng.randint(1, 2))]
                for _ in range(rng.randint(1, 4))]
        out.append((name, expr))
    return out


def assignments_program(rng, statements):
    """`statements` statements `x = a-b/c` over statements/2 names, then
    `out a-b/c`.  Names are reused: `a` and the divisor `c` are defined
    names wherever one exists, `b` is a literal, so the amount of work
    depends on the size only.  A divisor never has the value zero."""
    pool = [f"v{i}" for i in range(max(1, statements // 2))]
    env = {}

    def name_or_literal(nonzero):
        names = [n for n in env if not nonzero or env[n] != 0]
        return rng.choice(names) if names else rng.randint(1, 99)

    def expr():
        return [[name_or_literal(False)], [rng.randint(1, 99), name_or_literal(True)]]

    stmts = []
    for _ in range(statements):
        name, e = rng.choice(pool), expr()
        env[name] = ref.eval_expr(e, env)
        stmts.append((name, e))
    return stmts, expr()


def graph_program(rng, vertices):
    """`vertices` distinct heads in random order; edge counts 1, 2 and 3
    in equal shares, so the edge total is fixed by the size."""
    names = rng.sample([f"{a}{b}{c}" for a in "BCDFGHKLMNPRST" for b in "aeiou"
                        for c in "dgklmnrst"], vertices)
    counts = [1 + i % 3 for i in range(vertices)]
    rng.shuffle(counts)
    return [(head, [rng.choice(names) for _ in range(k)])
            for head, k in zip(names, counts)]


# ---------------------------------------------------------------------------
# workloads


def immediate_stream(seed, pack_root, programs=10, statements=300):
    rng = random.Random(seed)
    immediate = Path(pack_root) / "minusdiv_immediate" / "grammar.lw"
    grammars = ("--grammar", f"stream={GRAMMARS / 'stream.lw'}",
                "--grammar", f"minusdiv_immediate={immediate}")
    requests = []
    for _ in range(programs):
        prog = stream_program(rng, statements)
        text = " ".join(f"{name} << {ref.render_expr(e)};" for name, e in prog)
        requests.append(Request(
            "stream",
            ("run", "--lang", "stream", "--entry", "Prog", f"--expr={text}") + grammars,
            expect_lines(0, [str(ref.stream_total(prog))])))
    return Workload("immediate_stream",
                    [("pack", "minusdiv_immediate"),
                     ("file", "stream", str(GRAMMARS / "stream.lw"))],
                    requests, 90.0)


CODEGEN_SIZES = {"minusdiv_codegen": 28, "assignments": 13, "graph": 12}


def codegen_request(kind, rng, size):
    if kind == "minusdiv_codegen":
        e = minusdiv_expr(rng, size)
        return Request(kind, run_argv(kind, ref.render_expr(e), "--emit", "value"),
                       expect_lines(0, [str(ref.eval_expr(e))]))
    if kind == "assignments":
        stmts, out = assignments_program(rng, size)
        return Request(kind, run_argv(kind, ref.render_assignments(stmts, out),
                                      "--emit", "value"),
                       expect_lines(0, [str(ref.assignments_output(stmts, out))]))
    vertices = graph_program(rng, size)
    return Request(kind, run_argv(kind, ref.render_graph(vertices), "--emit", "value"),
                   expect_lines(0, ref.graph_lines(vertices)))


def codegen_mix(seed, per_kind=4):
    rng = random.Random(seed)
    requests = [codegen_request(kind, rng, size)
                for _ in range(per_kind) for kind, size in CODEGEN_SIZES.items()]
    return Workload("codegen_mix", [("pack", kind) for kind in CODEGEN_SIZES],
                    requests, 85.0)


def sample_check(pack, text):
    if pack in ("minusdiv_immediate", "minusdiv_codegen"):
        return expect_lines(0, [str(ref.eval_expr(ref.parse_expr(text)))])
    if pack == "typed_minusdiv":
        return expect_lines(*ref.typed_outcome(ref.parse_typed(text)))
    if pack == "assignments":
        return expect_lines(0, [str(ref.assignments_output(*ref.parse_assignments(text)))])
    if pack == "graph":
        return expect_lines(0, ref.graph_lines(ref.parse_graph(text)))
    return expect_lines(0, [str(ref.signum(int(text)))])


def _residual_check(pack, text):
    if pack == "minusdiv_immediate":   # no staging: the residual is the value
        return sample_check(pack, text)
    if pack in ("minusdiv_codegen", "typed_minusdiv"):
        expr = ref.parse_typed(text) if pack == "typed_minusdiv" else ref.parse_expr(text)
        return expect_residual(ref.operator_count(expr))
    if pack == "assignments":
        stmts, out = ref.parse_assignments(text)
        return expect_residual(sum(ref.operator_count(e) for _, e in stmts)
                               + ref.operator_count(out))
    vertices = ref.parse_graph(text)
    return expect_residual(len(vertices) + ref.graph_edge_count(vertices))


GRAMMAR_PACKS = ("assignments", "graph", "minusdiv_codegen",
                 "minusdiv_immediate", "typed_minusdiv")


def cli_short(seed, load_manifest):
    requests = []
    for pack in GRAMMAR_PACKS + ("signum_builder",):
        manifest = load_manifest(pack)
        for sample in manifest["samples"]:
            requests.append(Request(
                f"run {pack}", run_argv(pack, sample["input"], "--emit", sample["emit"]),
                sample_check(pack, sample["input"])))
        if pack == "signum_builder":
            requests.append(Request(f"residual {pack}", ("run", pack, "--emit", "residual"),
                                    expect_residual(2, ifs=2)))
            continue
        first = manifest["samples"][0]["input"]
        requests.append(Request(f"residual {pack}", run_argv(pack, first, "--emit", "residual"),
                                _residual_check(pack, first)))
        requests.append(Request(f"check {pack}", ("check", pack),
                                expect_contains(0, f"== language {pack}")))
        requests.append(Request(f"expand {pack}", ("expand", pack),
                                expect_contains(0, f"grammar {pack} {{")))
    conflict = GRAMMARS / "conflict.lw"
    requests.append(Request("check conflict", ("check", "--grammar", f"conflict={conflict}"),
                            expect_contains(1, "conflict: rule 'Value'")))
    random.Random(seed).shuffle(requests)
    setup = [("pack", p) for p in GRAMMAR_PACKS + ("signum_builder",)]
    setup.append(("conflict", "conflict", str(conflict)))
    return Workload("cli_short", setup, requests, 99.0)


def build(name, seed, packs_module):
    if name == "immediate_stream":
        return immediate_stream(seed, packs_module.PACK_ROOT)
    if name == "codegen_mix":
        return codegen_mix(seed)
    if name == "cli_short":
        return cli_short(seed, packs_module.load_manifest)
    raise KeyError(name)


NAMES = ("immediate_stream", "codegen_mix", "cli_short")

"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import itertools
import random
from pathlib import Path

import pytest

from langweave import packs
from langweave.errors import EvalExit, Ll1Conflict
from langweave.evaluator import Session, apply_value, render_value
from langweave.grammar import prepare, print_grammar
from langweave.grammar_reader import read_grammar
from langweave.printer import print_core
from langweave.prims import render_prim
from langweave.printer import _quote_render
from langweave.reader import read_core
from langweave.runtime import LanguageRegistry, Parser, lex_next
from langweave.terms import (App, Builtin, Int, Lam, PrimB, SAnd, SConst, SNot,
                             SOr, Var, alpha_eq, child_bodies, postorder,
                             stage_value)

FIXTURES = Path(__file__).parent / "fixtures"
PACKS = Path(__file__).parent.parent / "src" / "langweave" / "packs"


def _report(n, text):
    print(f"ACCEPTANCE {n:>2} PASS: {text}")


def load_language(reg, name, path, session):
    g = read_grammar(Path(path).read_text(), session.names)
    prepared, diags = prepare(g)
    assert not diags, diags
    reg.register(name, prepared)
    return prepared


def run_pack(pack_id, text, session):
    reg = LanguageRegistry()
    load_language(reg, pack_id, PACKS / pack_id / "grammar.lw", session)
    parser = Parser(reg, text, session)
    outs = parser.parse(pack_id, packs.load_manifest(pack_id)["entry"])
    return outs, parser


def count_shape(residual):
    ifs = exits = 0
    for body in postorder(residual.body):
        if isinstance(body.form, App):
            callee = body.form.callee
            if isinstance(callee, (Var, Builtin)) and callee.name == "if":
                ifs += 1
            elif isinstance(callee, Var):
                exits += 1
    return ifs, exits


# --------------------------------------------------------------------------
# 1. signum pipeline


def test_criterion_1_signum_pipeline():
    sess = Session(seed=0)
    creator = read_core((FIXTURES / "signum_script.core").read_text(), sess.names)
    residual = apply_value(creator, [], sess)[0]

    reference = read_core((FIXTURES / "signum_residual.core").read_text())
    assert alpha_eq(residual, reference)

    ifs, exits = count_shape(residual)
    assert ifs == 2, "two nested conditionals"
    assert exits == 3, "three exits"
    for body in postorder(residual.body):
        assert not stage_value(body.stage), "only function-time-staged bodies"

    for value, want in ((5, 1), (0, 0), (-3, -1)):
        assert apply_value(residual, [Int(value)], Session()) == [Int(want)]
    _report(1, "signum residual matches the reference shape; 5/0/-3 -> 1/0/-1")


# --------------------------------------------------------------------------
# 2. minus/divide code generation


def test_criterion_2_minusdiv_codegen():
    sess = Session(seed=0)
    outs, _ = run_pack("minusdiv_codegen", "1-4/2-3", sess)
    residual = outs[0]
    reference = read_core("""
    (end)'[ft]' {
      '@ft:' "4/2" (quot)'[ft2]'
      '@ft2:' "1-quot" (diff1)'[ft3]'
      '@ft3:' "diff1-3" (diff2)'[ft4]'
      '@ft4:' end diff2
    }
    """)
    assert alpha_eq(residual, reference)
    assert apply_value(residual, [], Session()) == [Int(-4)]
    _report(2, "generated code equals the reference chain; invoking gives -4")


# --------------------------------------------------------------------------
# 3. oracle equivalence, immediate vs generated


def _random_expression(rng):
    quotients = []
    for _ in range(rng.randint(1, 4)):
        quotients.append("/".join(str(rng.randint(1, 9))
                                  for _ in range(rng.randint(1, 3))))
    return "-".join(quotients)


def test_criterion_3_immediate_equals_generated():
    corpus = ["1-4/2-3", "10-4/2", "8-3-2", "9", "7/2", "6/4/2", "5-5"]
    rng = random.Random(20260810)
    corpus += [_random_expression(rng) for _ in range(100)]

    sess = Session(seed=0)
    reg = LanguageRegistry()
    load_language(reg, "imm", PACKS / "minusdiv_immediate" / "grammar.lw", sess)
    load_language(reg, "gen", PACKS / "minusdiv_codegen" / "grammar.lw", sess)

    for text in corpus:
        immediate = Parser(reg, text, sess).parse("imm", "Diff")
        generated = Parser(reg, text, sess).parse("gen", "Expr")
        invoked = apply_value(generated[0], [], sess)
        assert invoked == immediate, text
    _report(3, f"immediate value == generated-code value on {len(corpus)} inputs")


# --------------------------------------------------------------------------
# 4. associativity


def test_criterion_4_associativity_and_firing_order():
    sess = Session(seed=0)
    reg = LanguageRegistry()
    load_language(reg, "assoc", FIXTURES / "assoc.lw", sess)

    left = Parser(reg, "8-3-2", Session())
    assert left.parse("assoc", "Left") == [Int(3)]
    left_actions = [l for l in left.trace if l.startswith("action") and "(" in l
                    and "()" not in l]
    assert left_actions[0].endswith("(8, 3)")
    assert left_actions[1].endswith("(5, 2)")

    right = Parser(reg, "8-3-2", Session())
    assert right.parse("assoc", "Right") == [Int(7)]
    right_actions = [l for l in right.trace if l.startswith("action") and "(" in l
                     and "()" not in l]
    assert right_actions[0].endswith("(3, 2)")
    assert right_actions[1].endswith("(8, 1)")
    _report(4, "8-3-2 -> 3 left / 7 right; firing order source/reversed")


# --------------------------------------------------------------------------
# 5. LL(1) guarantees


def test_criterion_5_no_backtracking_and_conflict_rejection():
    sess = Session(seed=0)
    reg = LanguageRegistry()
    load_language(reg, "imm", PACKS / "minusdiv_immediate" / "grammar.lw", sess)
    load_language(reg, "graph", PACKS / "graph" / "grammar.lw", sess)

    cases = [("imm", "Diff", "1-4/2-3", True), ("imm", "Diff", "8-3-2", True),
             ("imm", "Diff", "1-", False), ("imm", "Diff", "4 5", False),
             ("graph", "Graph", "Start -> X, Y;\nX -> Y;\nY -> X, Start;\n", True),
             ("graph", "Graph", "Start -> ;", False)]
    for lang, entry, text, ok in cases:
        parser = Parser(reg, text, Session())
        try:
            parser.parse(lang, entry)
            assert ok, text
        except Exception:
            assert not ok, text
        spans = parser.consumed_spans
        assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:])), \
            "token cursor must be monotone"

    ambiguous = read_grammar(
        'grammar amb { entry A ::= "x"; A ::= "x" "y"; }')
    prepared, _ = prepare(ambiguous)
    with pytest.raises(Ll1Conflict) as err:
        LanguageRegistry().register("amb", prepared)
    assert '"x"' in str(err.value)
    _report(5, "cursor monotone on accept and reject; ambiguity rejected naming the token")


# --------------------------------------------------------------------------
# 6. default-argument completion


def test_criterion_6_default_argument_derivation_exact_and_idempotent():
    g = read_grammar((FIXTURES / "stack_lassoc.lw").read_text())
    prepared, diags = prepare(g)
    assert not diags
    text = print_grammar(prepared)
    golden = (FIXTURES / "stack_lassoc_expanded.golden").read_text()
    assert text == golden

    reread, diags2 = prepare(read_grammar(text))
    assert not diags2
    assert print_grammar(reread) == text
    _report(6, "expansion matches the recorded derivation and is idempotent")


# --------------------------------------------------------------------------
# 7. graph language


def test_criterion_7_graph_outputs_and_pass_ordering():
    sess = Session(seed=0)
    outs, _ = run_pack("graph", "Start -> X, Y;\nX -> Y;\nY -> X, Start;\n", sess)
    env_list, adjacency = apply_value(outs[0], [], Session())
    assert render_value(env_list) == '[["Start",1],["X",2],["Y",3]]'
    assert render_value(adjacency) == "[[2,3],[3],[2,1]]"

    prims = [l[5:] for l in sess.trace if l.startswith("prim ")]
    inserts = [i for i, t in enumerate(prims) if "insert(" in t]
    lookups = [i for i, t in enumerate(prims) if "lookup(" in t]
    assert inserts and lookups and max(inserts) < min(lookups)
    _report(7, "graph env and adjacency as specified; declarations precede definitions")


# --------------------------------------------------------------------------
# 8. residual purity


def _prim_texts(residual):
    texts = []

    def walk(body):
        if isinstance(body.form, PrimB):
            texts.append(render_prim(body.form.expr, _quote_render))
        for child in child_bodies(body):
            walk(child)

    walk(residual.body)
    return texts


def test_criterion_8_residual_purity():
    cases = [("minusdiv_codegen", "1-4/2-3"),
             ("assignments", "a = 9-2; b = a-3; out b-1"),
             ("graph", "Start -> X, Y;\nX -> Y;\nY -> X, Start;\n")]
    for pack_id, text in cases:
        outs, _ = run_pack(pack_id, text, Session(seed=0))
        residual = outs[0]
        for body in postorder(residual.body):
            assert not stage_value(body.stage), \
                f"{pack_id}: build-time-staged body survived"
        for prim in _prim_texts(residual):
            assert "insert(" not in prim and "lookup(" not in prim, \
                f"{pack_id}: environment operation in residual"
    _report(8, "no build-staged bodies, no environment primitives in residuals")


# --------------------------------------------------------------------------
# 9. language switching


def test_criterion_9_language_switching():
    sess = Session(seed=0)
    reg = LanguageRegistry()
    load_language(reg, "outer", FIXTURES / "lang_outer.lw", sess)
    load_language(reg, "calc", FIXTURES / "lang_calc.lw", sess)

    parser = Parser(reg, "go << 1 :: 2", sess)
    outs = parser.parse("outer", "Prog")
    assert "switch enter calc.Sum" in parser.trace

    from langweave.errors import LexFailure
    with pytest.raises(LexFailure):
        lex_next("1 :: 2", 0, reg.languages["outer"].lexer)
    with pytest.raises(LexFailure):
        lex_next("go <<", 0, reg.languages["calc"].lexer)

    residual = outs[0]
    assert isinstance(residual, Lam)
    assert apply_value(residual, [], Session()) == [Int(3)]
    assert any("1+2" in t for t in _prim_texts(residual))
    _report(9, "cross-language parse works; alphabets disjoint; one merged residual")


# --------------------------------------------------------------------------
# 10. staged type checking


def test_criterion_10_typed_mismatch():
    sess = Session(seed=0)
    with pytest.raises(EvalExit) as err:
        run_pack("typed_minusdiv", "1-#2", sess)
    assert err.value.code == 2
    assert sess.out == ["Type mismatch!"]
    prims = [l[5:] for l in sess.trace if l.startswith("prim ")]
    arithmetic = [t for t in prims
                  if t[0].isdigit() and any(op in t for op in "+-*/")]
    assert arithmetic == [], "no function-time arithmetic may run"
    _report(10, "type mismatch reported at build time, exit 2, no arithmetic ran")


# --------------------------------------------------------------------------
# 11. stage algebra and round trips


def test_criterion_11_algebra_and_round_trip():
    top, bot = SConst(True), SConst(False)
    for a, b in itertools.product((top, bot), repeat=2):
        assert stage_value(SAnd(a, b)) == (stage_value(a) and stage_value(b))
        assert stage_value(SOr(a, b)) == (stage_value(a) or stage_value(b))
    for a in (top, bot):
        assert stage_value(SNot(a)) == (not stage_value(a))

    sources = sorted(FIXTURES.glob("*.core"))
    sources.append(PACKS / "signum_builder" / "script.core")
    assert sources
    for path in sources:
        term = read_core(path.read_text())
        assert alpha_eq(term, read_core(print_core(term))), path.name
    _report(11, f"algebra exhaustive; read/print round trip on {len(sources)} sources")

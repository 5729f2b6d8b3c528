"""Bundled example languages: expected outputs and residual purity."""

import json
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langweave import evaluator, machine, packs
from langweave.errors import EvalExit, LangError
from langweave.evaluator import Session, apply_value, render_value
from langweave.grammar import prepare
from langweave.grammar_reader import read_grammar
from langweave.prims import render_prim
from langweave.printer import print_core, _quote_render
from langweave.reader import read_core
from langweave.runtime import LanguageRegistry, Parser
from langweave.terms import (TOP, App, Body, Int, Lam, PrimB, Str, TupleT, alpha_eq,
                             postorder, stage_value)

PACKS = Path(__file__).parent.parent / "src" / "langweave" / "packs"


def run_pack(pack_id, text, session=None):
    session = session or Session(seed=0)
    manifest = packs.load_manifest(pack_id)
    g = read_grammar(packs.pack_source(manifest), session.names)
    prepared, diags = prepare(g)
    assert not diags
    reg = LanguageRegistry()
    reg.register(pack_id, prepared)
    parser = Parser(reg, text, session)
    outs = parser.parse(pack_id, manifest["entry"])
    return outs, parser, session


def residual_prim_texts(term):
    """Primitive expressions of the residual, outermost (chain order) first."""
    texts = []
    def walk(body):
        if isinstance(body.form, PrimB):
            texts.append(render_prim(body.form.expr, _quote_render))
        from langweave.terms import child_bodies
        for child in child_bodies(body):
            walk(child)
    walk(term.body)
    return texts


def assert_pure_residual(term):
    """No body left staged on (nothing from the build-time chain survives)
    and no environment operations remain."""
    assert isinstance(term, Lam)
    for body in postorder(term.body):
        assert not stage_value(body.stage), "residual body still active"
    for text in residual_prim_texts(term):
        assert "insert(" not in text
        assert "lookup(" not in text
        assert "items(" not in text


def test_manifests_are_wellformed():
    assert set(packs.pack_ids()) == {
        "assignments", "graph", "minusdiv_codegen", "minusdiv_immediate",
        "signum_builder", "typed_minusdiv"}
    for pack_id in packs.pack_ids():
        manifest = packs.load_manifest(pack_id)
        assert manifest["id"] == pack_id
        assert packs.pack_source(manifest)


def test_minusdiv_immediate_values():
    outs, _, _ = run_pack("minusdiv_immediate", "10-4/2")
    assert outs == [Int(8)]


def test_minusdiv_codegen_residual_and_value():
    outs, _, sess = run_pack("minusdiv_codegen", "1-4/2-3")
    residual = outs[0]
    assert_pure_residual(residual)
    prims = residual_prim_texts(residual)
    assert len(prims) == 3
    assert prims[0] == "4/2"               # quot = 4/2
    assert prims[1].startswith("1-")       # diff1 = 1 - quot
    assert prims[2].endswith("-3")         # diff2 = diff1 - 3
    assert apply_value(residual, [], Session()) == [Int(-4)]


def test_assignments_value_and_purity():
    outs, _, _ = run_pack("assignments", "a = 9-2; b = a-3; out b-1")
    residual = outs[0]
    assert_pure_residual(residual)
    assert apply_value(residual, [], Session()) == [Int(3)]
    # the arithmetic chain is exactly the three subtractions
    prims = residual_prim_texts(residual)
    assert len(prims) == 3
    assert prims[0] == "9-2"
    assert prims[1].endswith("-3")
    assert prims[2].endswith("-1")


def test_graph_outputs_and_pass_ordering():
    text = "Start -> X, Y;\nX -> Y;\nY -> X, Start;\n"
    outs, parser, sess = run_pack("graph", text, Session(seed=0).record_trace())
    residual = outs[0]
    values = apply_value(residual, [], Session())
    assert len(values) == 2
    env_list, adjacency = values
    assert render_value(env_list) == '[["Start",1],["X",2],["Y",3]]'
    assert render_value(adjacency) == "[[2,3],[3],[2,1]]"
    assert_pure_residual(residual)

    # every declaration-side primitive fires before any definition-side one
    prim_events = [l[5:] for l in sess.trace if l.startswith("prim ")]
    insert_idx = [i for i, t in enumerate(prim_events) if "insert(" in t]
    lookup_idx = [i for i, t in enumerate(prim_events) if "lookup(" in t]
    assert insert_idx and lookup_idx
    assert max(insert_idx) < min(lookup_idx)


def test_typed_minusdiv_success():
    outs, _, _ = run_pack("typed_minusdiv", "5-2")
    assert apply_value(outs[0], [], Session()) == [Int(3)]
    outs, _, _ = run_pack("typed_minusdiv", "#6/#2")
    assert apply_value(outs[0], [], Session()) == [Int(3)]


def test_typed_minusdiv_mismatch_reports_before_any_arithmetic():
    sess = Session(seed=0).record_trace()
    with pytest.raises(EvalExit) as err:
        run_pack("typed_minusdiv", "1-#2", session=sess)
    assert err.value.code == 2
    assert sess.out == ["Type mismatch!"]
    prim_events = [l[5:] for l in sess.trace if l.startswith("prim ")]
    assert any("!=" in t for t in prim_events)       # the type check ran
    assert not any("-" in t.replace("!=", "") and t[0].isdigit()
                   for t in prim_events)             # no subtraction ever fired


def test_signum_builder_script_pack():
    sess = Session(seed=0)
    manifest = packs.load_manifest("signum_builder")
    creator = read_core(packs.pack_source(manifest), sess.names)
    residual = apply_value(creator, [], sess)[0]
    for value, want in ((5, 1), (0, 0), (-3, -1)):
        assert apply_value(residual, [Int(value)], Session()) == [Int(want)]
    assert_pure_residual(residual)


def test_manifest_samples_reproduce():
    for pack_id in packs.pack_ids():
        manifest = packs.load_manifest(pack_id)
        if manifest["kind"] != "grammar":
            continue
        for sample in manifest["samples"]:
            sess = Session(seed=0)
            if sample.get("error"):
                with pytest.raises(EvalExit):
                    run_pack(pack_id, sample["input"], session=sess)
                assert sess.out == [sample["output"]]
                continue
            outs, _, _ = run_pack(pack_id, sample["input"], session=sess)
            final = []
            for term in outs:
                if isinstance(term, Lam):
                    final.extend(apply_value(term, (), sess))
                else:
                    final.append(term)
            assert [render_value(t) for t in final] == sample["expect"], (
                pack_id, sample["input"])


def test_residuals_print_and_read_back_alpha_equal():
    # residuals keep source binder names and shadow them, so the printed
    # text must still read back to the same term
    residuals = {}
    for pack_id in packs.pack_ids():
        manifest = packs.load_manifest(pack_id)
        sample = manifest["samples"][0]
        sess = Session(seed=0)
        if manifest["kind"] == "script":
            creator = read_core(packs.pack_source(manifest), sess.names)
            outs = apply_value(creator, [], sess)
        else:
            outs, _, _ = run_pack(pack_id, sample["input"], session=sess)
        residuals.update((pack_id, t) for t in outs if isinstance(t, Lam))
    assert set(residuals) == set(packs.pack_ids()) - {"minusdiv_immediate"}
    for pack_id, residual in residuals.items():
        assert alpha_eq(read_core(print_core(residual)), residual), pack_id


def _sums(numbers, max_terms):
    """Quotients of one to three numbers, joined by '-'."""
    quotients = st.lists(numbers, min_size=1, max_size=3).map("/".join)
    return st.lists(quotients, min_size=1, max_size=max_terms).map("-".join)


_NUMBERS = st.integers(1, 99).map(str)


@st.composite
def _typed_sums(draw):
    """Integers ('7') or rationals ('#7'), mostly one type throughout so
    that most draws pass the checks."""
    kind = draw(st.sampled_from(["", "#", "", "#", "mixed"]))
    tag = st.sampled_from(["", "#"]) if kind == "mixed" else st.just(kind)
    return draw(_sums(st.tuples(tag, _NUMBERS).map("".join), 15))


@st.composite
def _assignments(draw):
    """Statements over numbers and names assigned before them, then `out`;
    now and then a name is used that nothing assigns."""
    names = "abcdef"[:draw(st.integers(0, 6))]
    text = ""
    for i in range(len(names) + 1):
        operands = st.one_of(_NUMBERS, st.sampled_from(list(names[:i]) * 8 + ["z"])) if i \
            else _NUMBERS
        value = draw(_sums(operands, 4))
        text += f"{names[i]} = {value}; " if i < len(names) else f"out {value}"
    return text


@st.composite
def _graphs(draw):
    """Vertices with one to three edges each, now and then to an undeclared
    one."""
    heads = draw(st.lists(st.sampled_from(["A", "B", "C", "D", "Start", "X", "Y"]),
                          min_size=1, max_size=8))
    targets = st.sampled_from(heads * 8 + ["Z"])
    return "".join(f"{head} -> {', '.join(draw(st.lists(targets, min_size=1, max_size=3)))};\n"
                   for head in heads)


def _declined(session, lam, args):
    return Body(TOP, App(lam, args))


def _undrained(session, body, params=()):
    return params, body


def _finalized(pack, text, by_step):
    """The residuals of parsing `text`, what a caller sees (the values they
    give when invoked, or the error raised, the step count, the `prim` lines
    and the fresh-name counter), and the calls of the `step` loop that
    takes what the machine hands back.  With `by_step`, the machine
    declines every call and the `step` loop drains everything, finalize
    shells included."""
    session = Session(seed=7).record_trace()
    residuals = []
    with mock.patch.object(evaluator, "step", wraps=evaluator.step) as drained, \
            mock.patch.object(machine, "run_chain", _declined if by_step else machine.run_chain), \
            mock.patch.object(machine, "drain", _undrained if by_step else machine.drain):
        try:
            residuals, _, _ = run_pack(pack, text, session)
            values = [render_value(v) for t in residuals for v in apply_value(t, [], session)]
        except LangError as exc:
            values = (type(exc).__name__, str(exc))
    prims = [line for line in session.trace if line.startswith("prim ")]
    return residuals, (values, session.steps, prims, session.names.counter), drained.call_count


@pytest.mark.parametrize("pack, inputs", [
    ("minusdiv_codegen", _sums(_NUMBERS, 30)),
    ("typed_minusdiv", _typed_sums()),
    ("assignments", _assignments()),
    ("graph", _graphs()),
])
@settings(max_examples=30, deadline=None, database=None)
@given(data=st.data())
def test_finalize_drain_equals_step(pack, inputs, data):
    """The environment loop runs every action and finishes each finalize
    shell in one dict per call; the `step` loop substitutes one step at a
    time from the root.  Both must build the same residual in the same
    steps, and the machine never hands anything to the `step` loop, not
    even `typed_minusdiv`'s type checks, which post-order runs after the
    rest of the chain.  The residuals print alike, fresh names included."""
    text = data.draw(inputs)
    stepped, seen, _ = _finalized(pack, text, by_step=True)
    looped, seen_looped, drained = _finalized(pack, text, by_step=False)
    assert seen_looped == seen
    assert len(looped) == len(stepped)
    assert all(map(alpha_eq, looped, stepped))
    assert [print_core(r) for r in looped] == [print_core(r) for r in stepped]
    assert drained == 0

"""Bundled example languages: expected outputs and residual purity."""

import json
from pathlib import Path

import pytest

from langweave import packs
from langweave.errors import EvalExit
from langweave.evaluator import Session, apply_value, render_value
from langweave.grammar import prepare
from langweave.grammar_reader import read_grammar
from langweave.prims import PMethod, render_prim
from langweave.printer import print_core, _quote_render
from langweave.reader import read_core
from langweave.runtime import LanguageRegistry, Parser
from langweave.terms import (Int, Lam, PrimB, Str, TupleT, alpha_eq, postorder,
                             stage_value)

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
    outs, parser, sess = run_pack("graph", text)
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
    sess = Session(seed=0)
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

"""Capture-avoiding substitution that renames a binder only on capture.

A copied binder keeps its name and shadows the mapping, unless a mapped
value has that name free; only then does it get a fresh name.  The
property test compares it with an always-rename reference, up to
alpha-equivalence, on bodies whose binder names clash on purpose.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langweave.names import FreshNames
from langweave.prims import PBin, PInt, PName, PQuote, prim_subst
from langweave.reader import read_core
from langweave.terms import (App, Body, FixB, Int, Lam, Param, PrimB, Rec,
                             SConst, SRef, Splice, StageConst, TupleT, Var,
                             alpha_eq_body, subst_body, subst_stage, subst_term)


def test_value_with_free_name_renames_the_binder_it_would_meet():
    names = FreshNames()
    lam = read_core("(x, k)'[s]'{ '@s:' k (t)'[q]'{ '@q:' f x t } }", names)
    copy = subst_body(lam.body, {"x": Var("t")}, names)
    inner = copy.form.args[0]
    (param,) = inner.params
    assert param.name != "t"
    assert inner.stage == "q"  # no mapped value has q free
    assert inner.body.form.args == (Var("t"), Var(param.name))


def _binders(body):
    """Every name a binder in `body` introduces."""
    found = []

    def term(t):
        if isinstance(t, Lam):
            found.extend(p.name for p in t.params)
            found.append(t.stage)
            walk(t.body)
        elif isinstance(t, (TupleT, Splice)):
            for item in t.items if isinstance(t, TupleT) else (t.inner,):
                term(item)

    def walk(b):
        f = b.form
        if isinstance(f, App):
            for t in (f.callee, *f.args):
                term(t)
        elif isinstance(f, PrimB):
            found.extend((*f.outs, f.cont_stage))
            walk(f.rest)
        elif isinstance(f, FixB):
            found.extend((f.stage_param, f.name))
            term(f.value)
            walk(f.rest)

    walk(body)
    return found


@pytest.mark.parametrize("src", [
    """(x, k)'[s]'{ '@s:' "x+1" (t)'[c]' '@c:' k t x }""",
    """(x, k)'[s]'{ '@s:' "x+1" (y)'[t]' '@t:' k y x }""",
    """(x, k)'[s]'{ '@s:' fix '[t]' f (j)'[r]'{ '@r:' j x } f x }""",
    """(x, k)'[s]'{ '@s:' fix '[p]' t (j)'[r]'{ '@r:' t x } t x }""",
    """(x, k)'[s]'{ '@s:' k (y)'[t]'{ '@t:' f x y } }""",
], ids=["prim out", "prim stage", "fix stage", "fix name", "lambda stage"])
def test_every_binder_kind_is_renamed_on_capture(src):
    names = FreshNames()
    lam = read_core(src, names)
    assert "t" in _binders(lam.body)
    copy = subst_body(lam.body, {"x": Var("t")}, names)
    assert "t" not in _binders(copy)
    assert alpha_eq_body(copy, _always_rename_body(lam.body, {"x": Var("t")}, FreshNames()))


def test_fix_value_is_renamed_on_capture():
    names = FreshNames()
    rec = Rec("t", read_core("(j)'[r]'{ '@r:' t x j }", names))
    copy = subst_term(rec, {"x": Var("t")}, names)
    assert copy.name != "t"
    assert copy.value.body.form.callee == Var(copy.name)
    assert copy.value.body.form.args[0] == Var("t")


def test_mapping_stops_at_an_inner_binder_of_the_same_name():
    names = FreshNames()
    lam = read_core("(x, k)'[s]'{ '@s:' k x (x)'[q]'{ '@q:' g x } }", names)
    shadowed = lam.body.form.args[1]
    copy = subst_body(lam.body, {"x": Int(1)}, names)
    assert copy.form.args[0] == Int(1)
    assert copy.form.args[1] is shadowed  # nothing left to substitute inside
    assert shadowed.params[0].name == "x" and shadowed.body.form.args == (Var("x"),)


def test_mapping_stops_at_prim_and_fix_binders():
    names = FreshNames()
    lam = read_core("""(x, k)'[s]'{
        '@s:' "x+1" (x)'[c]'
        '@c:' fix '[p]' x (j)'[r]'{ '@r:' j x }
        k x }""", names)
    copy = subst_body(lam.body, {"x": Int(5)}, names)
    assert copy.form.outs == ("x",)
    left, right = copy.form.expr.left, copy.form.expr.right
    assert isinstance(left, PQuote) and left.term == Int(5) and right == PInt(1)
    assert copy.form.rest is lam.body.form.rest  # the out `x` shadows the mapping
    fix = lam.body.form.rest
    assert subst_body(fix, {"x": Int(5)}, names) is fix  # so does the fix name


# ---------------------------------------------------------------------------
# the always-rename reference


def _always_rename_term(term, mapping, names):
    if isinstance(term, Var):
        return mapping.get(term.name, term)
    if isinstance(term, Splice):
        return Splice(_always_rename_term(term.inner, mapping, names))
    if isinstance(term, TupleT):
        return TupleT(tuple(_always_rename_term(t, mapping, names) for t in term.items))
    if isinstance(term, Lam):
        inner = dict(mapping)
        params = []
        for p in term.params:
            fresh = names.fresh(p.name)
            inner[p.name] = Var(fresh)
            params.append(Param(fresh, p.packed))
        stage = names.fresh(term.stage)
        inner[term.stage] = Var(stage)
        return Lam(params, stage, _always_rename_body(term.body, inner, names))
    return term


def _always_rename_body(body, mapping, names):
    form = body.form
    if isinstance(form, App):
        new = App(_always_rename_term(form.callee, mapping, names),
                  tuple(_always_rename_term(a, mapping, names) for a in form.args))
    elif isinstance(form, PrimB):
        inner = dict(mapping)
        outs = []
        for o in form.outs:
            outs.append(names.fresh(o))
            inner[o] = Var(outs[-1])
        cont = None
        if form.cont_stage is not None:
            cont = names.fresh(form.cont_stage)
            inner[form.cont_stage] = Var(cont)
        expr = prim_subst(form.expr, mapping,
                          lambda t: _always_rename_term(t, mapping, names))
        new = PrimB(expr, tuple(outs), cont, _always_rename_body(form.rest, inner, names))
    elif isinstance(form, FixB):
        inner = dict(mapping)
        stage = names.fresh(form.stage_param)
        inner[form.stage_param] = Var(stage)
        name = names.fresh(form.name)
        inner[form.name] = Var(name)
        new = FixB(stage, name, _always_rename_term(form.value, inner, names),
                   _always_rename_body(form.rest, inner, names))
    else:
        raise TypeError(form)
    return Body(subst_stage(body.stage, mapping), new)


# ---------------------------------------------------------------------------
# generated bodies: three names for every binder and every reference

NAMES = ("a", "b", "c")
name = st.sampled_from(NAMES)
stages = st.one_of(name.map(SRef), st.sampled_from((SConst(True), SConst(False))))
atoms = st.one_of(name.map(Var), st.integers(0, 3).map(Int))
leaf_bodies = st.builds(lambda s, f, xs: Body(s, App(f, tuple(xs))),
                        stages, name.map(Var), st.lists(atoms, max_size=2))


def _lambdas(bodies):
    return st.builds(lambda ps, s, b: Lam([Param(p) for p in ps], s, b),
                     st.lists(name, max_size=2, unique=True), name, bodies)


def _extend(bodies):
    terms = st.one_of(atoms, _lambdas(bodies),
                      st.lists(atoms, max_size=2).map(lambda xs: TupleT(tuple(xs))))
    return st.one_of(
        st.builds(lambda s, f, xs: Body(s, App(f, tuple(xs))),
                  stages, terms, st.lists(terms, max_size=2)),
        st.builds(lambda s, x, y, o, c, rest: Body(s, PrimB(PBin("+", PName(x), PName(y)),
                                                           (o,), c, rest)),
                  stages, name, name, name, st.one_of(st.none(), name), bodies),
        st.builds(lambda s, p, f, v, rest: Body(s, FixB(p, f, v, rest)),
                  stages, name, name, _lambdas(bodies), bodies),
    )


bodies = st.recursive(leaf_bodies, _extend, max_leaves=10)
values = st.one_of(atoms, st.just(StageConst(True)), _lambdas(leaf_bodies))
mappings = st.dictionaries(name, values, max_size=3)


@settings(max_examples=300, deadline=None, database=None)
@given(bodies, mappings)
def test_rename_on_capture_equals_always_rename(body, mapping):
    renamed = _always_rename_body(body, mapping, FreshNames())
    assert alpha_eq_body(subst_body(body, mapping, FreshNames()), renamed)

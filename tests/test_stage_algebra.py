"""Exhaustive checks of the two-element stage algebra and the symbolic rule."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from langweave.terms import (App, Body, Int, Lam, Param, StageConst, StageOp, Str,
                             TupleT, Var, body_info, stage_value, subst_stage)

TOP = StageConst(True)
BOT = StageConst(False)


def conj(a, b):
    return StageOp("&", (a, b))


def disj(a, b):
    return StageOp("|", (a, b))


def neg(a):
    return StageOp("!", (a,))


def test_and_or_not_truth_tables():
    for a, b in itertools.product((True, False), repeat=2):
        assert stage_value(conj(StageConst(a), StageConst(b))) == (a and b)
        assert stage_value(disj(StageConst(a), StageConst(b))) == (a or b)
    for a in (True, False):
        assert stage_value(neg(StageConst(a))) == (not a)


def test_boolean_algebra_laws_exhaustive():
    consts = (TOP, BOT)
    for a, b, c in itertools.product(consts, repeat=3):
        # associativity, commutativity, distributivity, De Morgan
        assert stage_value(conj(a, conj(b, c))) == stage_value(conj(conj(a, b), c))
        assert stage_value(disj(a, disj(b, c))) == stage_value(disj(disj(a, b), c))
        assert stage_value(conj(a, b)) == stage_value(conj(b, a))
        assert stage_value(disj(a, b)) == stage_value(disj(b, a))
        assert stage_value(conj(a, disj(b, c))) == stage_value(disj(conj(a, b), conj(a, c)))
        assert stage_value(neg(conj(a, b))) == stage_value(disj(neg(a), neg(b)))
        assert stage_value(neg(disj(a, b))) == stage_value(conj(neg(a), neg(b)))
    for a in consts:
        assert stage_value(neg(neg(a))) == stage_value(a)
        assert stage_value(conj(a, neg(a))) is False
        assert stage_value(disj(a, neg(a))) is True


def test_concrete_binding_is_top():
    assert stage_value(subst_stage(Var("v"), {"v": Int(5)})) is True
    assert stage_value(subst_stage(Var("v"), {"v": Str("hello")})) is True
    assert stage_value(subst_stage(Var("v"), {"v": TupleT((Int(1),))})) is True


def test_symbolic_binding_is_bottom():
    assert stage_value(subst_stage(Var("v"), {"v": Var("v")})) is False
    assert stage_value(subst_stage(conj(TOP, Var("v")), {"v": Var("v")})) is False


def test_post_substitution_reference_is_bottom():
    # a reference surviving substitution names a not-yet-supplied parameter
    assert stage_value(Var("anything")) is False
    assert stage_value(disj(Var("a"), TOP)) is True


# generated stage expressions over three names, and mappings of those names
# to stage constants, still-symbolic variables, integers and a lambda
_NAMES = ("a", "b", "c")
_stages = st.recursive(
    st.one_of(st.builds(StageConst, st.booleans()), st.sampled_from(_NAMES).map(Var)),
    lambda inner: st.one_of(st.builds(conj, inner, inner), st.builds(disj, inner, inner),
                            st.builds(neg, inner)),
    max_leaves=6)
_values = st.one_of(st.builds(StageConst, st.booleans()), st.sampled_from(_NAMES).map(Var),
                    st.integers(-2, 2).map(Int),
                    st.just(Lam((Param("x"),), "s", Body(Var("s"), App(Var("x"), ())))))


def _truth(expr, mapping):
    """The value of `expr` once `mapping` is supplied: a name is false when
    unmapped or mapped to a variable, a stage constant's value when mapped
    to one, and true when mapped to any other value."""
    if isinstance(expr, StageConst):
        return expr.top
    if isinstance(expr, Var):
        value = mapping.get(expr.name)
        if value is None or isinstance(value, Var):
            return False
        return value.top if isinstance(value, StageConst) else True
    if expr.op == "&":
        return _truth(expr.args[0], mapping) and _truth(expr.args[1], mapping)
    if expr.op == "|":
        return _truth(expr.args[0], mapping) or _truth(expr.args[1], mapping)
    return not _truth(expr.args[0], mapping)


def _names(expr):
    if isinstance(expr, Var):
        return {expr.name}
    return set().union(*map(_names, expr.args)) if isinstance(expr, StageOp) else set()


@settings(max_examples=300, deadline=None, database=None)
@given(_stages, st.dictionaries(st.sampled_from(_NAMES), _values, max_size=3))
def test_substituted_stage_follows_the_truth_table(expr, mapping):
    assert stage_value(subst_stage(expr, mapping)) == _truth(expr, mapping)
    assert _names(expr) <= body_info(Body(expr, App(Var("k"), ())))[0]

"""Exhaustive checks of the two-element stage algebra and the symbolic rule."""

import itertools

from langweave.terms import (SAnd, SConst, SNot, SOr, SRef, Int, Str, TupleT,
                             Var, stage_value, subst_stage)

TOP = SConst(True)
BOT = SConst(False)


def test_and_or_not_truth_tables():
    for a, b in itertools.product((True, False), repeat=2):
        assert stage_value(SAnd(SConst(a), SConst(b))) == (a and b)
        assert stage_value(SOr(SConst(a), SConst(b))) == (a or b)
    for a in (True, False):
        assert stage_value(SNot(SConst(a))) == (not a)


def test_boolean_algebra_laws_exhaustive():
    consts = (TOP, BOT)
    for a, b, c in itertools.product(consts, repeat=3):
        # associativity, commutativity, distributivity, De Morgan
        assert stage_value(SAnd(a, SAnd(b, c))) == stage_value(SAnd(SAnd(a, b), c))
        assert stage_value(SOr(a, SOr(b, c))) == stage_value(SOr(SOr(a, b), c))
        assert stage_value(SAnd(a, b)) == stage_value(SAnd(b, a))
        assert stage_value(SOr(a, b)) == stage_value(SOr(b, a))
        assert stage_value(SAnd(a, SOr(b, c))) == stage_value(SOr(SAnd(a, b), SAnd(a, c)))
        assert stage_value(SNot(SAnd(a, b))) == stage_value(SOr(SNot(a), SNot(b)))
        assert stage_value(SNot(SOr(a, b))) == stage_value(SAnd(SNot(a), SNot(b)))
    for a in consts:
        assert stage_value(SNot(SNot(a))) == stage_value(a)
        assert stage_value(SAnd(a, SNot(a))) is False
        assert stage_value(SOr(a, SNot(a))) is True


def test_concrete_binding_is_top():
    assert stage_value(subst_stage(SRef("v"), {"v": Int(5)})) is True
    assert stage_value(subst_stage(SRef("v"), {"v": Str("hello")})) is True
    assert stage_value(subst_stage(SRef("v"), {"v": TupleT((Int(1),))})) is True


def test_symbolic_binding_is_bottom():
    assert stage_value(subst_stage(SRef("v"), {"v": Var("v")})) is False
    assert stage_value(subst_stage(SAnd(TOP, SRef("v")), {"v": Var("v")})) is False


def test_post_substitution_reference_is_bottom():
    # a reference surviving substitution names a not-yet-supplied parameter
    assert stage_value(SRef("anything")) is False
    assert stage_value(SOr(SRef("a"), TOP)) is True

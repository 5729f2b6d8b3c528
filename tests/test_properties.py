"""Property checks over generated inputs."""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from langweave.cli import main
from langweave.errors import EXIT_OK
from langweave.evaluator import Session, apply_value, render_value
from langweave.prims import parse_prim
from langweave.printer import print_core
from langweave.reader import read_core
from langweave.terms import (App, Body, Bool, Builtin, FixB, Int, Lam, Param, PrimB,
                             SAnd, SConst, SNot, SOr, Splice, SRef, StageConst, Str,
                             TupleT, Var, alpha_eq)

# A quotient is one to three integers joined by '/'; divisors are nonzero.
quotients = st.tuples(
    st.integers(0, 99),
    st.lists(st.integers(1, 9), max_size=2),
).map(lambda q: "/".join(map(str, (q[0], *q[1]))))
expressions = st.lists(quotients, min_size=1, max_size=40).map("-".join)


def _stdout(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    assert code == EXIT_OK, argv
    return out.getvalue()


@settings(max_examples=25, deadline=None, database=None)
@given(expressions)
def test_immediate_equals_codegen_equals_invoked_residual(text):
    immediate = _stdout("run", "minusdiv_immediate", text)
    generated = _stdout("run", "minusdiv_codegen", text, "--emit", "value")
    session = Session()
    residual = read_core(_stdout("run", "minusdiv_codegen", text, "--emit", "residual"),
                         session.names)
    invoked = [render_value(v) for v in apply_value(residual, [], session)]
    assert immediate == generated == "".join(v + "\n" for v in invoked)


# Core terms for the print/read round trip.  Binder and variable names avoid
# the reader's keywords and builtins; a body's callee is never a string,
# which would read as a primitive expression.
_names = st.sampled_from(["a", "b", "k", "x", "y"])
_stage_names = st.sampled_from(["s", "t", "u", "a"])
_stage_exprs = st.recursive(
    st.one_of(st.builds(SConst, st.booleans()), _stage_names.map(SRef)),
    lambda inner: st.one_of(st.builds(SAnd, inner, inner), st.builds(SOr, inner, inner),
                            st.builds(SNot, inner)),
    max_leaves=4)
_prim_texts = st.recursive(
    st.one_of(_names, st.integers(0, 99).map(str), st.just("'q\"'")),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/", "==", "<="]), inner)
        .map(lambda t: "(" + "".join(t) + ")"),
        inner.map("-{}".format),
        st.lists(inner, max_size=3).map(lambda xs: "[" + ",".join(xs) + "]")),
    max_leaves=5)
_leaves = st.one_of(
    _names.map(Var), st.integers(-99, 99).map(Int),
    st.text(alphabet='ab "\\\n\'', max_size=4).map(Str), st.builds(Bool, st.booleans()),
    st.builds(StageConst, st.booleans()), st.sampled_from(["print", "if"]).map(Builtin))


@st.composite
def _params(draw):
    names = draw(st.lists(_names, max_size=3, unique=True))
    packed = draw(st.sampled_from([None, *range(len(names))]))
    return tuple(Param(n, i == packed) for i, n in enumerate(names))


def _terms(depth):
    if not depth:
        return _leaves
    inner = _terms(depth - 1)
    return st.one_of(
        _leaves, inner.map(Splice), st.lists(inner, max_size=3).map(tuple).map(TupleT),
        st.builds(Lam, _params(), _stage_names, _bodies(depth - 1)))


def _bodies(depth):
    callee = _terms(depth).filter(lambda t: not isinstance(t, Str))
    forms = [st.builds(App, callee, st.lists(_terms(depth), max_size=3).map(tuple))]
    if depth:
        forms += [
            st.builds(PrimB, _prim_texts.map(parse_prim),
                      st.lists(_names, min_size=1, max_size=2, unique=True).map(tuple),
                      _stage_names, _bodies(depth - 1)),
            st.builds(FixB, _stage_names, _names, _terms(depth - 1), _bodies(depth - 1))]
    return st.builds(Body, _stage_exprs, st.one_of(*forms))


@settings(max_examples=300, deadline=None, database=None)
@given(_terms(3))
def test_print_then_read_core_is_alpha_equal_and_reprints_identically(term):
    printed = print_core(term)
    again = read_core(printed)
    assert alpha_eq(term, again)
    assert print_core(again) == printed

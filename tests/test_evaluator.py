"""Staged evaluation: reduction order, chains, builtins, host application."""

import re
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langweave import evaluator, machine
from langweave.errors import (ArityMismatch, EvalExit, LangError, NameNotFound, PrimTypeError,
                              ReturnCalledTwice, ReturnNeverCalled,
                              StepBudgetExceeded)
from langweave.evaluator import Session, apply_value, run_term_to_normal, step
from langweave.fragments import Fragment
from langweave.prims import parse_prim, prim_subst
from langweave.printer import print_core
from langweave.reader import read_core, read_program
from langweave.terms import (App, Body, Bool, Builtin, EnvVal, FragVal, Int, Lam, Param, PrimB,
                             RetK, Splice, StageConst, Str, TupleT, Var, alpha_eq)

FIXTURES = Path(__file__).parent / "fixtures"


def rd(src, sess):
    return read_core(src, sess.names)


ENV_PROGRAM = """
(k)'[s]' {
  '@s:' newEnv (e)
  "e.insert('b',2)" (e2)
  "e2.insert('a',1)" (e3)
  "e3.lookup('b')" (v)
  "e3.items()" (items)
  k v items
}
"""

FIX_LOOP_PROGRAM = """
(k)'[s0]' {
  '@s0:' newEnv (e)
  "e.insert('start',3)" (e2)
  "e2.lookup('start')" (n0)
  fix '[y]' loop (n, j)'[s]' {
    '@s:' print n ()'[p]'
    "n>0" (pos)
    if pos ()'[t]'{ '@t:' "n-1" (m) loop m j } ()'[f]'{ '@f:' j n }
  }
  loop n0 k
}
"""

FRAGMENT_PROGRAM = """
(return)'[s0]' {
  '@s0:'
  build 1 ('ft', !args, cont)'[b]' {
    '@b:' cont 'ft' 5 !args
  } (F)
  build 1 ('ft', v, !args, cont)'[bt]' {
    '@ft:' "v+1" (w)'[ft]'
    '@bt:' cont 'ft' w !args
  } (Fincr)
  build 0 ('ft', w, end)'[bt]' { '@ft:' end w } (G)
  merge F Fincr (H)
  merge H G (H2)
  finalize H2 (P)
  '@P:' return P
}
"""


def test_beta_binds_and_stages_on():
    sess = Session()
    ident = rd("(x, k)'[s]'{ '@s:' k x }", sess)
    assert apply_value(ident, [Int(7)], sess) == [Int(7)]


def test_staging_chain_runs_in_order():
    sess = Session().record_trace()
    chain = rd("""
    (x, k)'[s1]' {
      '@s1:' "x+1" (a)'[s2]'
      '@s2:' "a+1" (b)'[s3]'
      '@s3:' "b+1" (c)'[s4]'
      '@s4:' k c
    }
    """, sess)
    out = apply_value(chain, [Int(5)], sess)
    assert out == [Int(8)]
    prims = [l[5:] for l in sess.trace if l.startswith("prim ")]
    assert prims == ["5+1", "6+1", "7+1"]


def test_diff_action_shape():
    sess = Session()
    action = rd('(l, r, return)\'[parse]\'{ "l-r" (diff) return diff }', sess)
    assert apply_value(action, [Int(7), Int(3)], sess) == [Int(4)]


def test_return_called_twice_is_an_error():
    sess = Session()
    # the argument lambda's body is active immediately and fires return
    # once; the outer body then calls it again
    prog = rd("(ret)'[p]'{ '@p:' ret ()'[q]'{ '@always:' ret 2 } }", sess)
    with pytest.raises(ReturnCalledTwice):
        apply_value(prog, [], sess)


def test_return_never_called():
    sess = Session()
    prog = rd("(ret)'[p]'{ '@never:' ret 1 }", sess)
    with pytest.raises(ReturnNeverCalled):
        apply_value(prog, [], sess)


# `fix '[y]' f v b` binds `f` in `v` and `b`, and `y` in `b` only: the `s`
# in the fix value below is the lambda's parameter, not the fix's stage
FIX_SHADOW_PROGRAM = "(s, k)'[t]'{ '@t:' fix '[s]' f (j)'[u]'{ '@u:' j s } '@s:' f k }"
FIX_RENAMED_PROGRAM = "(s, k)'[t]'{ '@t:' fix '[q]' f (j)'[u]'{ '@u:' j s } '@q:' f k }"


@pytest.mark.parametrize("src", [FIX_SHADOW_PROGRAM, FIX_RENAMED_PROGRAM],
                         ids=["shadowing", "renamed"])
def test_fix_stage_parameter_scopes_over_the_rest_only(src):
    sess = Session()
    assert apply_value(rd(src, sess), [Int(5)], sess) == [Int(5)]


def test_fix_stage_parameter_renamed_is_alpha_equal():
    assert alpha_eq(read_core(FIX_SHADOW_PROGRAM), read_core(FIX_RENAMED_PROGRAM))


def test_packed_parameter_law():
    sess = Session()
    f = rd("(a, !rest, k)'[s]'{ '@s:' k a !rest }", sess)
    out = apply_value(f, [Int(1), Int(2), Int(3), Int(4)], sess)
    assert out == [Int(1), Int(2), Int(3), Int(4)]
    # pack length equals the count of extra arguments
    sess2 = Session()
    g = rd("(a, !rest, k)'[s]'{ '@s:' k !rest }", sess2)
    assert apply_value(g, [Int(1)], sess2) == []


def test_bottom_staged_term_is_unchanged():
    sess = Session()
    t = rd("(x, k)'[s]'{ '@never:' k x }", sess)
    result = run_term_to_normal(t, sess)
    assert result is t
    assert sess.steps == 0


def test_no_active_body_means_done():
    sess = Session()
    t = rd("(x, k)'[s]'{ '@s:' k x }", sess)
    root = Body(StageConst(False), App(t, ()))
    assert step(sess, root) is False


def test_environment_builtins():
    sess = Session()
    prog = rd("""
    (k)'[s]' {
      '@s:' newEnv (e)
      "e.insert('Start',1)" (e2)
      "e2.lookup('Start')" (v)
      k v
    }
    """, sess)
    assert apply_value(prog, [], sess) == [Int(1)]


def test_lookup_empty_env_is_name_not_found():
    sess = Session()
    prog = rd("(k)'[s]'{ '@s:' newEnv (e) \"e.lookup('x')\" (v) k v }", sess)
    with pytest.raises(NameNotFound):
        apply_value(prog, [], sess)


def test_concat_and_tuples():
    sess = Session()
    prog = rd('(k)\'[s]\'{ \'@s:\' "concat([2],[3])" (t) k t }', sess)
    assert apply_value(prog, [], sess) == [TupleT((Int(2), Int(3)))]


def test_env_items_preserves_insertion_order():
    sess = Session()
    prog = rd("""
    (k)'[s]' {
      '@s:' newEnv (e)
      "e.insert('b',2)" (e2)
      "e2.insert('a',1)" (e3)
      "e3.items()" (items)
      k items
    }
    """, sess)
    out = apply_value(prog, [], sess)
    assert out == [TupleT((TupleT((Str("b"), Int(2))), TupleT((Str("a"), Int(1)))))]


def test_division_truncates_toward_zero():
    sess = Session()
    prog = rd('(a, b, k)\'[s]\'{ \'@s:\' "a/b" (q) k q }', sess)
    assert apply_value(prog, [Int(-7), Int(2)], sess) == [Int(-3)]
    sess2 = Session()
    prog2 = rd('(a, b, k)\'[s]\'{ \'@s:\' "a/b" (q) k q }', sess2)
    assert apply_value(prog2, [Int(7), Int(-2)], sess2) == [Int(-3)]


def test_division_by_zero():
    sess = Session()
    prog = rd('(k)\'[s]\'{ \'@s:\' "1/0" (q) k q }', sess)
    with pytest.raises(PrimTypeError):
        apply_value(prog, [], sess)


WAITS = "waits"
_ENV = {"e": EnvVal((("a", Int(1)),)), "i": Int(7), "s": Str("q"), "y": Bool(True),
        "t": TupleT((Int(1),)), "p": TupleT((Splice(Var("r")),)), "v": Var("sym"),
        "u": Builtin("print")}


@pytest.mark.parametrize("expr, expected", [
    # one case for each row of the quoted-expression table in core-reference.md
    ("i+2", Int(9)), ("i-9", Int(-2)), ("i*3", Int(21)),
    ("i/2", Int(3)), ("-i/2", Int(-3)), ("i/0", (PrimTypeError, "division by zero")),
    ("i==7", Bool(True)), ("s!='q'", Bool(False)), ("y==(1==1)", Bool(True)),
    ("i<8", Bool(True)), ("i<=6", Bool(False)), ("i>7", Bool(False)), ("i>=7", Bool(True)),
    ("-i", Int(-7)),
    ("[i, v]", TupleT((Int(7), Var("sym")))),
    ("concat(t, [2])", TupleT((Int(1), Int(2)))),
    ("e.insert('b', 2)", (("a", Int(1)), ("b", Int(2)))),
    ("e.insert('a', 3)", (("a", Int(3)),)),
    ("e.lookup('a')", Int(1)),
    ("e.lookup('z')", (NameNotFound, "name 'z' not present in environment")),
    ("e.items()", TupleT((TupleT((Str("a"), Int(1))),))),
    ("'it''s'", Str("it's")),
    # one case for each other error message
    ("i+u", (PrimTypeError, f"unusable operand {Builtin('print')!r}")),
    ("u+x", (PrimTypeError, f"unusable operand {Builtin('print')!r}")),
    ("-s", (PrimTypeError, "unary '-' needs an integer")),
    ("concat(t)", (PrimTypeError, "concat takes two tuples")),
    ("concat(t, i)", (PrimTypeError, "concat takes two tuples")),
    ("foo(x)", (PrimTypeError, "unknown primitive function 'foo'")),
    ("i.insert(x, 1)", (PrimTypeError, "method 'insert' needs an environment")),
    ("e.insert('a')", (PrimTypeError, "insert takes a key and a value")),
    ("e.insert(i, x)", (PrimTypeError, "insert key must be a string")),
    ("e.lookup()", (PrimTypeError, "lookup takes a key")),
    ("e.lookup(i)", (PrimTypeError, "lookup key must be a string")),
    ("e.items(i)", (PrimTypeError, "items takes no arguments")),
    ("e.bogus(x)", (PrimTypeError, "unknown environment method 'bogus'")),
    ("s==i", (PrimTypeError, f"cannot compare {Str('q')!r} and {Int(7)!r}")),
    ("t==t", (PrimTypeError, f"cannot compare {TupleT((Int(1),))!r} and {TupleT((Int(1),))!r}")),
    ("s+1", (PrimTypeError, "operator '+' needs integers")),
    ("i<s", (PrimTypeError, "operator '<' needs integers")),
    (Var("x"), (PrimTypeError, f"cannot evaluate {Var('x')!r}")),
    # an operand that is not known yet waits, unless the expression fails first
    ("x+1", WAITS), ("s+x", WAITS), ("v*2", WAITS), ("-x", WAITS), ("[i, x]", WAITS),
    ("x.lookup('a')", WAITS), ("e.lookup(x)", WAITS), ("e.insert('k', x)", WAITS),
    ("concat(p, t)", WAITS), ("concat(t, x)", WAITS),
    ("e.insert('k', v)", (("a", Int(1)), ("k", Var("sym")))),
])
def test_eval_prim_values_errors_and_waits(expr, expected):
    """`eval_prim` over a dict: each value, each error message, and where an
    operand that is not known yet makes the expression wait instead."""
    expr = parse_prim(expr) if isinstance(expr, str) else expr
    if expected == WAITS:
        with pytest.raises(evaluator._Unready):
            evaluator.eval_prim(expr, dict(_ENV))
    elif isinstance(expected, tuple) and isinstance(expected[0], type):
        with pytest.raises(expected[0]) as info:
            evaluator.eval_prim(expr, dict(_ENV))
        assert str(info.value) == expected[1]
    else:
        value = evaluator.eval_prim(expr, dict(_ENV))
        assert (value.entries if isinstance(value, EnvVal) else value) == expected


_I = [Int(i) for i in range(5)]
_XS, _YS = Splice(Var("xs")), Splice(Var("ys"))
UNREADY = "unready"


@pytest.mark.parametrize("params, args, expected", [
    # plain parameters
    ("a b", (_I[1], _I[2]), {"a": _I[1], "b": _I[2]}),
    ("", (), {}),
    ("a b", (_I[1],), (ArityMismatch, "expected 2 argument(s), got 1")),
    ("a b", (_I[1], _I[2], _I[3]), (ArityMismatch, "expected 2 argument(s), got 3")),
    # a splice of a tuple spreads its items in place
    ("a b c", (_I[1], Splice(TupleT((_I[2], _I[3])))), {"a": _I[1], "b": _I[2], "c": _I[3]}),
    ("a", (Splice(TupleT((_I[1], _I[2]))),), (ArityMismatch, "expected 1 argument(s), got 2")),
    # a splice of a name waits for its pack to be narrowed to what is missing
    ("a b c", (_I[1], _XS), ("xs", 2)),
    ("a", (_I[1], _I[2], _XS), (ArityMismatch,
                                "more arguments than parameters around a pack splice")),
    ("a b", (_XS, _YS), UNREADY),
    ("a b", (_I[1], Splice(_I[2])), UNREADY),
    # a pack takes what the fixed parameters before and after it leave
    ("a *p b", (_I[1], _I[2], _I[3], _I[4]),
     {"a": _I[1], "p": TupleT((_I[2], _I[3])), "b": _I[4]}),
    ("a *p b", (_I[1], _I[2]), {"a": _I[1], "p": TupleT(()), "b": _I[2]}),
    ("a *p", (_I[1], _XS), {"a": _I[1], "p": TupleT((_XS,))}),
    ("a *p b", (_I[1],), (ArityMismatch, "expected at least 2 argument(s), got 1")),
    ("a *p b", (_XS,), (ArityMismatch, "not enough arguments for fixed parameters")),
    # a splice in a fixed position waits
    ("a *p b", (_XS, _I[2], _I[3]), UNREADY),
    ("a *p b", (_I[1], _I[2], _XS), UNREADY),
])
def test_bind_maps_parameters_or_says_why_not(params, args, expected):
    """`_bind` on flattened arguments, as its callers call it: the dict of
    parameters, an `ArityMismatch` with its message, `_NeedsRefine` with
    the pack and the count it must be narrowed to, or a plain `_Unready`."""
    lam = Lam([Param(p.lstrip("*"), p.startswith("*")) for p in params.split()], "s", None)

    def call():
        return evaluator._bind(lam, evaluator._flatten(args))

    if expected == UNREADY:
        with pytest.raises(evaluator._Unready) as info:
            call()
        assert type(info.value) is evaluator._Unready
    elif isinstance(expected, tuple) and expected[0] is ArityMismatch:
        with pytest.raises(ArityMismatch) as info:
            call()
        assert str(info.value) == expected[1]
    elif isinstance(expected, tuple):
        with pytest.raises(evaluator._NeedsRefine) as info:
            call()
        assert (info.value.name, info.value.count) == expected
    else:
        assert call() == expected


def test_eval_prim_reads_quoted_operands_without_a_dict():
    """Substitution leaves values as quoted operands; a quoted name is
    symbolic data, and a plain name waits."""
    expr = prim_subst(parse_prim("[x+1, k]"), {"x": Int(2), "k": Var("k")}, lambda t: t)
    assert evaluator.eval_prim(expr) == TupleT((Int(3), Var("k")))
    for text in ("x+1", "[x]"):
        with pytest.raises(evaluator._Unready):
            evaluator.eval_prim(parse_prim(text))
    with pytest.raises(evaluator._Unready):
        evaluator.eval_prim(prim_subst(parse_prim("k+1"), {"k": Var("k")}, lambda t: t))


def test_if_builtin_branches():
    sess = Session()
    prog = rd("""
    (x, k)'[s]' {
      '@s:' "x>0" (pos)
      if pos ()'[t]'{ '@t:' k 1 } ()'[e]'{ '@e:' k 0 }
    }
    """, sess)
    assert apply_value(prog, [Int(5)], sess) == [Int(1)]
    sess2 = Session()
    prog2 = rd("""
    (x, k)'[s]' {
      '@s:' "x>0" (pos)
      if pos ()'[t]'{ '@t:' k 1 } ()'[e]'{ '@e:' k 0 }
    }
    """, sess2)
    assert apply_value(prog2, [Int(-5)], sess2) == [Int(0)]


def test_print_and_exit():
    sess = Session()
    prog = rd("(k)'[s]'{ '@s:' print \"boom\" ()'[t]' '@t:' exit }", sess)
    with pytest.raises(EvalExit) as err:
        apply_value(prog, [], sess)
    assert err.value.code == 2
    assert sess.out == ["boom"]


@pytest.mark.parametrize("params, out", [("print", []), ("", ["7"])])
def test_builtin_names_resolve_by_scope(params, out):
    # a parameter named `print` shadows the builtin: the active body inside
    # the uninvoked lambda waits for its value instead of printing
    sess = Session()
    prog = rd(f"(k)'[s0]'{{ '@s0:' k ({params})'[q]'{{ '@always:' print 7 "
              "()'[r]'{ '@never:' k 1 } } }", sess)
    apply_value(prog, [], sess)
    assert sess.out == out


def test_step_budget():
    sess = Session(budget=10)
    # fix-driven loop never terminates; the budget trips
    prog = read_program(
        "fix '[y]' loop (k)'[s]'{ '@s:' loop k } loop done", sess.names)
    root = prog
    with pytest.raises(StepBudgetExceeded):
        while step(sess, root):
            pass


def test_symbolic_operand_blocks_prim():
    sess = Session().record_trace()
    # the body is active but x is never supplied, so the prim must not fire
    t = rd('(x)\'[s]\'{ \'@always:\' "x+1" (y) y }', sess)
    result = run_term_to_normal(t, sess)
    prims = [l[5:] for l in sess.trace if l.startswith("prim ")]
    assert prims == []


def test_pack_refinement_targets_the_enclosing_lambda():
    """Two source lambdas pack the same name; narrowing triggered inside the
    second must rewrite that one, not the earlier lookalike."""
    sess = Session()
    prog = rd("""
    (ret)'[s0]' {
      '@s0:' ret
        (!args, k1)'[q]' { '@q:' k1 !args }
        (!args, k2)'[w]' { '@always:' (a, b, c)'[p]'{ '@p:' k2 a b c } !args }
    }
    """, sess)
    decoy, user = apply_value(prog, [], sess)
    assert any(p.packed for p in decoy.params), "sibling pack must be untouched"
    assert not any(p.packed for p in user.params)
    assert len(user.params) == 4  # three narrowed parameters plus k2


def test_pack_refinement_stops_at_a_shadowing_binder():
    """The spliced `args` is the primitive's output, not the pack: the
    splice waits for the primitive and the lambda keeps its pack."""
    sess = Session()
    prog = rd("""
    (ret)'[s0]' {
      '@s0:' ret (!args, k)'[w]' {
        '@always:' "[1,2]" (args)'[t]'
        '@always:' (a, b)'[p]'{ '@p:' k a b } !args
      }
    }
    """, sess)
    [lam] = apply_value(prog, [], sess)
    assert [(p.name, p.packed) for p in lam.params] == [("args", True), ("k", False)]
    assert lam.body.form == App(Var("k"), (Int(1), Int(2)))


# A splice of `args` that must fill the two fixed parameters of a callee.
_SPLICE_USE = "'@always:' (a, b)'[p]'{ '@p:' k a b } !args"


@pytest.mark.parametrize("inner", [
    "'@always:' k (args)'[q]'{ %s }",
    "'@always:' k ()'[args]'{ %s }",
    "'@always:' \"1\" (x)'[args]' %s",
    "'@always:' fix '[u]' args (j)'[v]'{ '@v:' j } %s",
    "'@always:' fix '[args]' f (j)'[v]'{ '@v:' j } %s",
    "'@always:' fix '[u]' args (j)'[v]'{ %s } '@never:' k",
    "'@always:' k [(args)'[q]'{ %s }]",
    "'@always:' k !(args)'[q]'{ %s }",
    "'@always:' fix '[u]' f (args)'[q]'{ %s } '@never:' k",
    # `concat` waits on the symbolic `k`, so the lambda stays in the primitive
    "'@always:' let '[s]' x (args)'[q]'{ %s } '@s:' \"concat([x],k)\" (t)'[u]' '@u:' k t",
], ids=["parameter", "stage_name", "primitive_continuation_stage", "fix_name",
        "fix_stage_parameter", "fix_name_in_its_value", "in_a_tuple", "in_a_splice",
        "in_a_fix_value", "in_a_primitive"])
def test_pack_refinement_stops_at_each_shadowing_binder(inner):
    """Each binder of `args` between the splice and the pack, found
    wherever the lambda holding the splice sits: the splice is not the
    pack's, so the lambda keeps its pack, and `run` gives what the `step`
    loop gives."""
    source = "(ret)'[s0]'{ '@s0:' ret (!args, k)'[w]'{ %s } }" % (inner % _SPLICE_USE)
    stepped, ran = Session(seed=3).record_trace(), Session(seed=3).record_trace()
    by_step = _observed(stepped, lambda: _by_step(stepped, rd(source, stepped), []))
    assert _observed(ran, lambda: apply_value(rd(source, ran), [], ran)) == by_step
    [lam] = ran.kept
    assert [(p.name, p.packed) for p in lam.params] == [("args", True), ("k", False)]


def test_pack_refinement_stops_where_no_lambda_packs_the_name():
    source = "(ret)'[s0]'{ '@s0:' ret (k)'[w]'{ %s } }" % _SPLICE_USE
    stepped, ran = Session(seed=3).record_trace(), Session(seed=3).record_trace()
    by_step = _observed(stepped, lambda: _by_step(stepped, rd(source, stepped), []))
    assert _observed(ran, lambda: apply_value(rd(source, ran), [], ran)) == by_step
    assert by_step[0] == [print_core(rd("(k)'[w]'{ %s }" % _SPLICE_USE, Session()))]


def test_determinism_same_seed_same_output():
    outputs = []
    for _ in range(2):
        sess = Session(seed=42)
        residual = apply_value(rd(FRAGMENT_PROGRAM, sess), [], sess)[0]
        outputs.append(print_core(residual))
    assert outputs[0] == outputs[1]


def test_run_twice_alpha_equivalent_results():
    src = "(x, k)'[s]'{ '@s:' \"x*2\" (y) k y }"
    s1, s2 = Session(seed=1), Session(seed=900)
    r1 = apply_value(rd(src, s1), [Int(3)], s1)
    r2 = apply_value(rd(src, s2), [Int(3)], s2)
    assert r1 == r2 == [Int(6)]


def _by_step(session, f, args):
    """`apply_value` through a `step` loop instead of `run`."""
    ret = session.new_return()
    root = Body(StageConst(True), App(f, tuple(args) + (ret,)))
    while step(session, root):
        pass
    if ret.tag not in session.returned:
        raise ReturnNeverCalled("evaluation finished without invoking return")
    return list(session.returned[ret.tag].form.args)


@pytest.mark.parametrize("src, invoke", [
    ((FIXTURES / "signum_script.core").read_text(), [Int(-3)]),
    (FRAGMENT_PROGRAM, []),
    (ENV_PROGRAM, None),
    (FIX_LOOP_PROGRAM, None),
], ids=["signum_script", "fragments", "environment", "fix_loop"])
def test_step_loop_equals_run(src, invoke):
    """`run` skips subtrees with no active body; the `step` loop walks the
    whole tree every time.  Both must execute the same bodies in order.
    A program that builds code has its result invoked the same two ways."""
    stepped, ran = Session(seed=5).record_trace(), Session(seed=5).record_trace()
    results = [_by_step(stepped, rd(src, stepped), []),
               apply_value(rd(src, ran), [], ran)]
    if invoke is not None:
        assert alpha_eq(results[0][0], results[1][0])
        results = [_by_step(stepped, results[0][0], invoke),
                   apply_value(results[1][0], invoke, ran)]

    by_step, by_run = results
    assert len(by_step) == len(by_run) > 0
    assert all(alpha_eq(a, b) for a, b in zip(by_step, by_run))
    assert stepped.out == ran.out
    assert stepped.steps == ran.steps
    prims = [[line for line in s.trace if line.startswith("prim ")]
             for s in (stepped, ran)]
    assert prims[0] == prims[1] != []


@st.composite
def _chains(draw):
    """A closed straight-line function as core text, its arguments, and
    whether `apply_value` may run it without `run`: primitives over
    parameters, earlier outputs, numbers and a string (rebinding allowed,
    `k` included; arithmetic, comparison and unary minus, so that type
    errors are drawn too), the last body a call of `k` or of another name.
    Some draws stage a later body on the lambda's own stage, which makes it
    active at the beta step, and some pass a splice of a number, which no
    parameter can take; the environment loop must decline both."""
    params = ["a", "b"][:draw(st.integers(0, 2))]
    scope, lines, stages = list(params), [], ["s"]
    for _ in range(draw(st.integers(0, 4))):
        operand = st.tuples(st.sampled_from(["", "", "-"]),
                            st.sampled_from(scope + ["0", "1", "2", "'x'"])).map("".join)
        op = st.sampled_from(["+", "-", "*", "/", "<", "==", "!=", ">="])
        expr = draw(operand) + draw(op) + draw(operand)
        out = draw(st.sampled_from(["a", "b", "c", "d", "a", "b", "c", "k"]))
        stages.append(draw(st.sampled_from(["s", "t", "u"])))
        lines.append(f'"{expr}" ({out})\'[{stages[-1]}]\'')
        scope.append(out)
    callee = draw(st.one_of(st.just("k"), st.sampled_from(scope + ["k"])))
    lines.append(" ".join([callee, *draw(st.lists(st.sampled_from(scope + ["7"]), max_size=2))]))
    chained = True
    if len(lines) > 1 and draw(st.booleans()):
        at = draw(st.integers(1, len(lines) - 1))
        chained, stages[at] = stages[at] == "s", "s"
    body = " ".join(f"'@{stage}:' {line}" for stage, line in zip(stages, lines))
    source = f"({', '.join([*params, 'k'])})'[s]'{{ {body} }}"
    arity = draw(st.sampled_from([len(params)] * 8 + [len(params) + 1, max(len(params) - 1, 0)]))
    args = draw(st.lists(st.integers(-3, 3).map(Int), min_size=arity, max_size=arity))
    spliced = bool(args) and draw(st.integers(0, 7)) == 0
    if spliced:
        args[-1] = Splice(args[-1])
    return source, args, chained and callee == "k" and "k" not in scope and not spliced


def _outcome(session, call):
    """The values returned, or the error raised, with the trace, the step
    count and the fresh-name counter."""
    try:
        result = call()
    except LangError as exc:
        result = (type(exc).__name__, str(exc))
    return result, session.trace, session.steps, session.names.counter


@settings(max_examples=400, deadline=None, database=None)
@given(_chains(), st.one_of(st.integers(0, 6), st.just(100)))
def test_environment_loop_equals_step(chain, budget):
    """`apply_value` runs a closed straight-line call in one environment;
    the `step` loop substitutes one step at a time.  Both must agree on
    everything a caller can see, with or without an exhausted budget."""
    source, args, fast = chain
    stepped, ran = (Session(seed=3, budget=budget).record_trace() for _ in range(2))
    by_step = _outcome(stepped, lambda: _by_step(stepped, rd(source, stepped), args))
    with mock.patch.object(evaluator, "run", wraps=evaluator.run) as drained:
        by_loop = _outcome(ran, lambda: apply_value(rd(source, ran), args, ran))
    assert by_loop == by_step
    if fast:
        assert not drained.called


# Fragment subjects of the code-building protocol: the first pushes
# nothing, a number pushes a value, an operator pops two and pushes their
# difference, the last pops the result into the host continuation.
_START = "(!args, cont)'[b]' { '@b:' cont !args }"
_PUSH = "('ft', !args, cont)'[b]' {{ '@b:' cont 'ft' {v} !args }}"
_MINUS = "('ft', r, l, !args, cont)'[bt]' { '@ft:' \"l-r\" (d)'[ft]' '@bt:' cont 'ft' d !args }"
_END = "('ft', v, end)'[bt]' { '@ft:' end v }"
# a subject staged on a name of the chain runs, under `run`, before the
# link that builds it
_EARLY = "('ft', !args, cont)'[b]' {{ '@{stage}:' \"{v}+1\" (w)'[q]' '@q:' cont 'ft' w !args }}"
_MUTATIONS = ("early subject", "later link staged early", "unbound name",
              "symbolic argument", "packed continuation")


@st.composite
def _builder_chains(draw):
    """A chain of links as core text, its arguments, and whether
    `apply_value` may run it without `run`.  A link is a primitive, or
    `build` with a subject lambda, `merge`, `finalize`, `newEnv` or `print`
    with a continuation lambda; the last body calls `k`, or a builtin with
    `k` as its continuation.  Half the draws build a residual by the
    protocol (start, numbers and differences, end, `finalize`) with other
    links between; the rest draw links and operands freely, so most of
    them fail with the same error both ways.  Some operands and final
    arguments are spliced tuple literals (`print ![7]`, `print ![7, 8]`,
    `newEnv ![]`, a closed subject in `![...]`, `k ![1, 2]`), which both
    ways must spread alike.

    At most one draw in three is changed so that the loop must decline or
    hand back to `run`: a subject staged on a name bound earlier in the
    chain, a later link staged on an earlier stage, an unbound name, a
    symbolic argument whose name a continuation binds, or a continuation
    lambda with a packed parameter.  The loop finishes the shell of a
    `finalize` by the protocol too; one of freely drawn links may be handed
    back, since its subject need not take the shell's arguments."""
    mutation = draw(st.sampled_from((None,) * 10 + _MUTATIONS))
    kinds = {"a": "int"}
    stages, lines = ["s"], []

    def pick(kind):
        pool = [n for n, t in kinds.items() if t == kind]
        return draw(st.sampled_from(pool if pool and draw(st.integers(0, 7)) else sorted(kinds)))

    def value():
        return draw(st.sampled_from([n for n, t in kinds.items() if t == "int"] + ["4"]))

    def binder(out, kind, packable=True):
        stages.append(f"t{len(lines)}")
        if out is not None:
            kinds[out] = kind
        packed = packable and out is not None and mutation == "packed continuation" \
            and draw(st.booleans())
        return f"({'!' if packed else ''}{out or ''})'[{stages[-1]}]'"

    def noise():
        out = f"x{len(lines)}"
        link = draw(st.sampled_from(["int", "insert", "newEnv", "print"]))
        envs = [n for n, t in kinds.items() if t == "env"]
        if link == "insert" and envs:
            env = draw(st.sampled_from(envs))
            return f"\"{env}.insert('n',{value()})\" " + binder(out, "env", False)
        if link == "newEnv":
            return f"newEnv {draw(st.sampled_from(['', '![] ']))}" + binder(out, "env")
        if link == "print":
            operand = draw(st.sampled_from(sorted(kinds) + ["![7]", "![7, 8]"]))
            return f"print {operand} " + binder(None, None)
        expr = value() + draw(st.sampled_from("+-*<")) + value()
        return f'"{expr}" ' + binder(out, "int", False)

    def build(template, arity):
        v = value()
        text = template.format(v=v) if template is _PUSH else template
        if (template is not _PUSH or v == "4") and draw(st.integers(0, 3)) == 0:
            text = f"![{text}]"  # a closed subject, spliced
        lines.append(f"build {arity} {text} " + binder(f"x{len(lines)}", "frag"))
        return f"x{len(lines) - 1}"

    protocol = draw(st.booleans())
    if protocol:
        f = build(_START, 1)
        for template in [_PUSH] + [_PUSH, _MINUS] * draw(st.integers(0, 2)) + [_END]:
            g = build(template, 0 if template is _END else 1)
            lines.append(f"merge {f} {g} " + binder(f"x{len(lines)}", "frag"))
            f = f"x{len(lines) - 1}"
            if template is not _END and draw(st.booleans()):
                lines.append(noise())
        end = draw(st.sampled_from(["finalize k", "finalize", "k"]))
        if end == "finalize":
            lines.append(f"finalize x{len(lines) - 1} " + binder(f"x{len(lines)}", "lam"))
        lines.append(f"finalize x{len(lines) - 1} k" if end == "finalize k"
                     else f"k x{len(lines) - 1}")
    else:
        for _ in range(draw(st.integers(0, 6))):
            link = draw(st.sampled_from(["noise", "build", "merge", "finalize"]))
            if link == "noise":
                lines.append(noise())
            elif link == "build":
                template, arity = draw(st.sampled_from(
                    [(_START, 1), (_PUSH, 1), (_MINUS, 1), (_END, 0)]))
                build(template, draw(st.sampled_from([arity] * 4 + [0, 2])))
            else:
                operands = " ".join(pick("frag") for _ in range(1 + (link == "merge")))
                lines.append(f"{link} {operands} "
                             + binder(f"x{len(lines)}", "frag" if link == "merge" else "lam"))
        end = draw(st.sampled_from(["k", "merge", "print"]))
        if end == "k":
            lines.append(" ".join(["k", *draw(st.lists(
                st.sampled_from(sorted(kinds) + ["7", "![1, 2]"]), max_size=2))]))
        elif end == "merge":
            lines.append(f"merge {pick('frag')} {pick('frag')} k")
        else:
            lines.append(f"print {pick('int')} k")

    builds = [i for i, line in enumerate(lines) if line.startswith("build")]
    if mutation == "early subject" and builds:
        at = draw(st.sampled_from(builds))
        early = _EARLY.format(stage=draw(st.sampled_from(["a", *stages[:at + 1]])), v=value())
        lines[at] = re.sub(r"\(.*\}", lambda _: early, lines[at])
    elif mutation == "later link staged early" and len(lines) > 1:
        at = draw(st.integers(1, len(lines) - 1))
        stages[at] = draw(st.sampled_from([st_ for st_ in stages[:at] if st_ != stages[at]]))
    elif mutation == "unbound name":
        at = draw(st.integers(0, len(lines) - 1))
        lines[at] = re.sub(r"\bx\d+\b(?!\))", "zz", lines[at], count=1)
    body = " ".join(f"'@{stage}:' {line}" for stage, line in zip(stages, lines))
    arg = Int(draw(st.integers(-3, 3)))
    if mutation == "symbolic argument":
        arg = Var(draw(st.sampled_from(["ft", "t0", "t1", "x1", "b"])))
    fast = mutation is None and (protocol or "finalize" not in body)
    return f"(a, k)'[s]'{{ {body} }}", [arg], fast


def _canon(term):
    """A value in comparable form: fragments and environments by content,
    lambdas by their printed text (names included)."""
    if isinstance(term, FragVal):
        term = term.fragment
    if isinstance(term, Fragment):
        return ("fragment", term.arity, print_core(term.subject),
                tuple(None if s is None else _canon(s) for s in term.slots))
    if isinstance(term, EnvVal):
        return ("env",) + tuple((k, _canon(v)) for k, v in term.entries)
    if isinstance(term, TupleT):
        return ("tuple",) + tuple(_canon(t) for t in term.items)
    if isinstance(term, Lam):
        return print_core(term)
    if isinstance(term, RetK):
        return ("return", term.tag)
    return term


def _observed(session, call):
    """`_outcome` with values in comparable form and the program output;
    the values themselves are kept in `session.kept`."""
    def keep():
        session.kept = call()
        return [_canon(v) for v in session.kept]
    session.kept = None
    return _outcome(session, keep) + (session.out,)


@settings(max_examples=500, deadline=None, database=None)
@given(_builder_chains(), st.one_of(st.integers(0, 40), st.just(10_000)))
def test_environment_loop_runs_builtin_chains_as_step_does(chain, budget):
    """Build-time chains (`build`, `merge`, `finalize`, `newEnv`, `print`)
    run in the environment loop; the `step` loop substitutes one step at a
    time.  Both must agree on the values, the output, the trace, the step
    count and the fresh-name counter, and so must invoking a function the
    chain returns.  `run` is called only for a draw the loop declines or
    hands back.  With no listener `apply_value` gives the same, and an
    empty trace."""
    source, args, fast = chain
    stepped, ran = (Session(seed=3, budget=budget).record_trace() for _ in range(2))
    quiet = Session(seed=3, budget=budget)
    by_step = _observed(stepped, lambda: _by_step(stepped, rd(source, stepped), args))
    with mock.patch.object(evaluator, "run", wraps=evaluator.run) as drained:
        by_loop = _observed(ran, lambda: apply_value(rd(source, ran), args, ran))
    assert by_loop == by_step
    assert _observed(quiet, lambda: apply_value(rd(source, quiet), args, quiet)) \
        == (by_loop[0], [], *by_loop[2:])
    if fast:
        assert not drained.called
    if ran.kept and isinstance(ran.kept[0], Lam):
        stepped_fn, ran_fn, quiet_fn = stepped.kept[0], ran.kept[0], quiet.kept[0]
        by_step = _observed(stepped, lambda: _by_step(stepped, stepped_fn, []))
        by_loop = _observed(ran, lambda: apply_value(ran_fn, [], ran))
        assert by_loop == by_step
        assert _observed(quiet, lambda: apply_value(quiet_fn, [], quiet)) \
            == (by_loop[0], [], *by_loop[2:])


# Subjects that take the value on top of the stack, `v`, and push one in
# its place.  `defer` runs a build-time primitive below which the call is
# on, so post-order runs the rest of the chain first; in `wake` its value
# then turns the rest on again; `rename` binds `d`, the name of the value
# `_MINUS` leaves, at build time; `branch` takes an `if`.
_SUBJECTS = {
    "defer": "('ft', v, !args, cont)'[bt]' { \"v+1\" (w)'[q]' "
             "'@ft:' \"w*2\" (d)'[ft]' '@bt:' cont 'ft' d !args }",
    "wake": "('ft', v, !args, cont)'[bt]' { \"v+1\" (w)'[q]' "
            "'@q:' \"w*2\" (d)'[ft]' '@bt:' cont 'ft' d !args }",
    "rename": "('ft', v, !args, cont)'[bt]' { '@bt:' \"3\" (d)'[q]' '@q:' cont 'ft' v !args }",
    "branch": "('ft', v, !args, cont)'[bt]' { '@bt:' \"1<2\" (c)'[q]' "
              "'@q:' if c ()'[y]'{ '@y:' cont 'ft' v !args } ()'[n]'{ '@n:' exit } }",
    "env": "('ft', v, !args, cont)'[bt]' { '@bt:' newEnv (e)'[q]' '@q:' print e ()'[r]' "
           "'@r:' cont 'ft' v !args }",
}


def _shell_source(templates, prefix=""):
    """A function of `(a, k)` that builds a fragment of each subject of
    `templates`, merges them in order and finalizes the result into `k`,
    after `prefix`, links staged on `s` whose last binds the stage `g`."""
    lines, stages, f = [], ["g" if prefix else "s"], None
    for template in templates:
        lines.append(f"build {0 if template is _END else 1} {template} (x{len(lines)})"
                     f"'[t{len(lines)}]'")
        stages.append(f"t{len(lines) - 1}")
        if f is not None:
            lines.append(f"merge {f} x{len(lines) - 1} (x{len(lines)})'[t{len(lines)}]'")
            stages.append(f"t{len(lines) - 1}")
        f = f"x{len(lines) - 1}"
    body = " ".join(f"'@{st_}:' {line}" for st_, line in zip(stages, lines + [f"finalize {f} k"]))
    return f"(a, k)'[s]'{{ {prefix}{body} }}"


@pytest.mark.parametrize("budget", [1_000_000, 25, 40])
@pytest.mark.parametrize("subjects, drained", [
    (["defer"], False), (["env"], False), (["defer", "rename"], True),
    (["wake"], True), (["branch"], True),
])
def test_finalize_shell_subjects_run_as_step_does(subjects, drained, budget):
    """The shell of a chain whose subjects run build-time code: the loop
    gives what the `step` loop gives, fresh names and trace included, and
    hands back to `run` only where post-order or a rename needs it."""
    source = _shell_source([_START, _PUSH.format(v=3), _PUSH.format(v=4),
                            *map(_SUBJECTS.get, subjects), _MINUS, _END])
    stepped, ran = (Session(seed=3, budget=budget).record_trace() for _ in range(2))
    by_step = _observed(stepped, lambda: _by_step(stepped, rd(source, stepped), [Int(1)]))
    with mock.patch.object(evaluator, "run", wraps=evaluator.run) as run:
        by_loop = _observed(ran, lambda: apply_value(rd(source, ran), [Int(1)], ran))
    assert by_loop == by_step
    if budget > 100:
        assert run.called is drained


@pytest.mark.parametrize("subject", [
    "'@bt:' print v ()'[r]' '@r:' cont 'ft' v !args",
    "'@bt:' \"v+1\" (w)'[r]' '@r:' cont 'ft' w !args",
    "'@bt:' cont 'ft' v !v",
    "'@bt:' cont !v",
    "'@bt:' v 'ft' !args",
    "'@bt:' G !args",
    "'@bt:' G 'ft' 1 2 3",
    "'@bt:' cont 'ft' (q)'[z]'{ '@bt:' q v } !args",
], ids=["symbolic_print", "symbolic_primitive", "second_narrowing", "splice_not_a_tuple",
        "callee_not_a_lambda", "fragment_without_stage", "fragment_arity",
        "value_turned_on"])
def test_finalize_shell_hands_back_to_run_as_step_does(subject):
    """A subject after the difference, whose `v` is still symbolic while
    the shell is drained, and which the environment loop cannot finish: a
    builtin or primitive waits on `v`, a second splice asks to narrow the
    shell's pack again, a splice is not a tuple yet, a callee is no lambda,
    the fragment `G` is called without a stage or with too many arguments,
    or the call would turn on a body of a lambda it passes.  The loop
    raises the error, or `run` goes on from the state the loop reached, and
    the end is the `step` loop's."""
    prefix = "'@s:' build 0 (ft2, e)'[b2]'{ '@ft2:' e 1 } (G)'[g]' "
    template = "('ft', v, !args, cont)'[bt]' { %s }" % subject
    source = _shell_source([_START, _PUSH.format(v=3), _PUSH.format(v=4), _MINUS,
                            template, _END], prefix)
    stepped, ran = Session(seed=3).record_trace(), Session(seed=3).record_trace()
    by_step = _observed(stepped, lambda: _by_step(stepped, rd(source, stepped), [Int(1)]))
    with mock.patch.object(machine, "_finish", wraps=machine._finish) as finish:
        by_loop = _observed(ran, lambda: apply_value(rd(source, ran), [Int(1)], ran))
    assert finish.called
    assert by_loop == by_step


def test_environment_loop_hands_back_an_operand_that_is_not_ready():
    """`concat` waits while a tuple holds an unresolved splice, so the loop
    hands the rest of the line back to `run`; both ways end alike."""
    source = "(a, k)'[s]'{ '@s:' \"concat(a,a)\" (r)'[t]' '@t:' k r }"
    arg = TupleT((Int(1), Splice(TupleT((Int(2),)))))
    stepped, ran = Session(seed=3).record_trace(), Session(seed=3).record_trace()
    by_step = _observed(stepped, lambda: _by_step(stepped, rd(source, stepped), [arg]))
    with mock.patch.object(evaluator, "run", wraps=evaluator.run) as drained:
        by_loop = _observed(ran, lambda: apply_value(rd(source, ran), [arg], ran))
    assert isinstance(drained.call_args.args[1].form, PrimB)  # handed back past the beta step
    assert by_loop == by_step
    assert by_loop[0][0] == "ReturnNeverCalled" and by_loop[2] == 1


@pytest.mark.parametrize("source, args, values, out", [
    ("(a, !rest, k)'[s]'{ '@s:' k a !rest }", [Int(1), Int(2), Int(3)],
     [Int(1), Int(2), Int(3)], []),
    ("(x, k)'[s]'{ '@s:' print !x k }", [TupleT((Int(4),))], [], ["4"]),
], ids=["return", "print"])
def test_environment_loop_splices_a_bound_name(source, args, values, out):
    """A splice of a name the dict binds (`k a !rest`, `print !x`) is read
    from the dict; the loop finishes the call without `run`, as the `step`
    loop does."""
    stepped, ran = Session(seed=3).record_trace(), Session(seed=3).record_trace()
    by_step = _observed(stepped, lambda: _by_step(stepped, rd(source, stepped), args))
    with mock.patch.object(evaluator, "run", wraps=evaluator.run) as drained:
        by_loop = _observed(ran, lambda: apply_value(rd(source, ran), args, ran))
    assert not drained.called
    assert by_loop == by_step
    assert ran.kept == values and ran.out == out


def test_prim_line_shows_the_values_its_outputs_replace():
    """A primitive's trace line is rendered before its outputs are bound."""
    sess = Session().record_trace()
    f = rd("(a, k)'[s]'{ '@s:' \"a+1\" (a)'[t]' '@t:' \"a*2\" (a)'[u]' '@u:' k a }", sess)
    assert apply_value(f, [Int(5)], sess) == [Int(12)]
    assert [line for line in sess.trace if line.startswith("prim ")] == ["prim 5+1", "prim 6*2"]


@pytest.mark.parametrize("source, args, steps", [
    ("(a, k)'[s]'{ '@s:' k a }", [Splice(Int(5))], 0),
    ("(k)'[s]'{ '@s:' k !5 }", [], 1),
    ("(x, k)'[s]'{ '@s:' print !x k }", [Int(4)], 1),
], ids=["parameter", "return", "builtin"])
def test_a_splice_of_a_number_waits_as_in_step(source, args, steps):
    """Neither a plain parameter, a host continuation nor a builtin takes a
    splice of a number, so the call waits for ever and the host
    continuation is never called; the loop raises nothing of its own."""
    stepped, ran = Session(), Session()
    with pytest.raises(ReturnNeverCalled):
        _by_step(stepped, rd(source, stepped), args)
    with pytest.raises(ReturnNeverCalled):
        apply_value(rd(source, ran), args, ran)
    assert stepped.steps == ran.steps == steps


def test_environment_loop_declines_a_primitive_quoting_a_bound_name():
    """The build-time `let` leaves the function-time primitive quoting the
    tuple `[y]`, whose `y` the function binds; the loop cannot read such a
    primitive from its dict, so `run` makes the call, as the `step` loop
    does."""
    source = ("(ret)'[s0]'{ '@s0:' ret (y, k)'[s]'{ '@always:' let '[w]' z y "
              "'@always:' \"[z]\" (t)'[u]' '@s:' \"t\" (r)'[v]' '@v:' k r } }")
    stepped, ran = Session(seed=3).record_trace(), Session(seed=3).record_trace()
    [by_step] = _by_step(stepped, rd(source, stepped), [])
    [by_loop] = apply_value(rd(source, ran), [], ran)
    assert not machine._chain_shape(by_loop)
    assert _observed(ran, lambda: apply_value(by_loop, [Int(5)], ran)) \
        == _observed(stepped, lambda: _by_step(stepped, by_step, [Int(5)]))
    assert ran.kept == [TupleT((Int(5),))]


def test_chain_shape_is_renewed_when_the_body_changes():
    """The loop's decision is kept on the lambda and decided again once
    its body, and so its cached pair, has changed."""
    sess = Session()
    lam = rd("(x, k)'[s]'{ '@s:' k x }", sess)
    assert machine._chain_shape(lam)
    lam.body.replace(rd("(x, k)'[s]'{ '@s:' if x k k }", sess).body)
    assert not machine._chain_shape(lam)
    assert apply_value(lam, [Bool(True)], sess) == []

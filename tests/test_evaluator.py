"""Staged evaluation: reduction order, chains, builtins, host application."""

from pathlib import Path

import pytest

from langweave.errors import (EvalExit, NameNotFound, PrimTypeError,
                              ReturnCalledTwice, ReturnNeverCalled,
                              StepBudgetExceeded)
from langweave.evaluator import Session, apply_value, run_term_to_normal, step
from langweave.printer import print_core
from langweave.reader import read_core, read_program
from langweave.terms import (App, Body, Bool, Inert, Int, SConst, Str, TupleT,
                             Var, alpha_eq, postorder)

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
    sess = Session()
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
    root = Body(SConst(False), Inert(None, (t,)))
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
    sess = Session()
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
    root = Body(SConst(True), App(f, tuple(args) + (ret,)))
    while step(session, root):
        pass
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
    stepped, ran = Session(seed=5), Session(seed=5)
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

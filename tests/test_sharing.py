"""Substitution shares closed, quiet subtrees; cached pairs stay safe.

Every `Body` and `Lam` caches (free names, holds an active body).  Sharing
and the pruned drain are sound as long as a cached pair never names fewer
free names, and never claims less activity, than the subtree has now.
"""

from pathlib import Path

import pytest

from langweave.evaluator import Session, run, step
from langweave.fragments import build
from langweave.names import FreshNames
from langweave.prims import PName, prim_leaves
from langweave.reader import read_core
from langweave.terms import (App, Body, EnvVal, FixB, FragVal, Inert, Int, Lam,
                             PrimB, Rec, SAnd, SConst, SNot, SOr, SRef, Splice,
                             StageConst, TupleT, Var, body_info, lam_info,
                             stage_value, subst_body)

FIXTURES = Path(__file__).parent / "fixtures"


def _stage_names(e):
    if isinstance(e, SRef):
        return {e.name}
    if isinstance(e, (SAnd, SOr)):
        return _stage_names(e.left) | _stage_names(e.right)
    if isinstance(e, SNot):
        return _stage_names(e.inner)
    return set()


def _parts(x):
    """(child, names it binds) pairs of a body or term, including the terms
    held in environments, fragments and fix values."""
    if isinstance(x, Body):
        f = x.form
        if isinstance(f, App):
            return [(t, ()) for t in (f.callee, *f.args)]
        if isinstance(f, Inert):
            return [(t, ()) for t in f.args]
        if isinstance(f, PrimB):
            return ([(t, ()) for t in f.expr.embedded_terms()]
                    + [(f.rest, (*f.outs, f.cont_stage))])
        if isinstance(f, FixB):  # the value keeps the stage parameter free
            return [(f.value, (f.name,)), (f.rest, (f.stage_param, f.name))]
    if isinstance(x, Lam):
        return [(x.body, (*(p.name for p in x.params), x.stage))]
    if isinstance(x, TupleT):
        return [(t, ()) for t in x.items]
    if isinstance(x, Splice):
        return [(x.inner, ())]
    if isinstance(x, Rec):
        return [(x.value, (x.name,))]
    if isinstance(x, EnvVal):
        return [(v, ()) for _, v in x.entries]
    if isinstance(x, FragVal):
        pending, parts = [x.fragment], []
        while pending:
            frag = pending.pop()
            parts.append((frag.subject, ()))
            pending.extend(s for s in frag.slots if s is not None)
        return parts
    return []


def reference_pair(x):
    """(free names, holds an active body) computed from scratch."""
    free, active = set(), False
    if isinstance(x, Var):
        free.add(x.name)
    if isinstance(x, Body):
        free |= _stage_names(x.stage)
        active = stage_value(x.stage)
        if isinstance(x.form, PrimB):
            free |= {leaf.name for leaf in prim_leaves(x.form.expr)
                     if isinstance(leaf, PName)}
    for part, bound in _parts(x):
        part_free, part_active = reference_pair(part)
        free |= part_free - set(bound)
        active = active or part_active
    return free, active


def assert_caches_safe(x, exact_activity=False, seen=None):
    """No cached pair under `x` undercounts; with `exact_activity`, none
    claims activity the subtree no longer has either."""
    seen = set() if seen is None else seen
    if id(x) in seen:
        return
    seen.add(id(x))
    cached = x.info if isinstance(x, Body) else lam_info(x) if isinstance(x, Lam) else None
    if cached is not None:
        free, active = reference_pair(x)
        assert free <= cached[0], (x, free - cached[0])
        assert cached[1] == active if exact_activity else cached[1] or not active, x
    for part, _ in _parts(x):
        assert_caches_safe(part, exact_activity, seen)


def test_substitution_shares_closed_quiet_subtrees_only():
    names = FreshNames()
    lam = read_core("""(x, k)'[s]'{ '@s:' k
        ()'[q]'{ '@never:' print 1 }
        ()'[r]'{ '@always:' print 2 }
        ()'[t]'{ '@never:' print x } }""", names)
    quiet, live, mentions_x = lam.body.form.args
    copy = subst_body(lam.body, {"x": Int(1), "s": StageConst(True)}, names)
    assert copy.form.args[0] is quiet
    assert copy.form.args[1] is not live  # holds an active body: copied
    assert copy.form.args[2] is not mentions_x
    assert copy.form.args[2].stage == "t"  # a binder nothing could capture keeps its name
    assert subst_body(quiet.body, {"x": Int(1)}, names) is quiet.body
    assert body_info(copy) == reference_pair(copy)


def test_free_names_reach_into_environments_fragments_and_fix_values():
    names = FreshNames()
    subject = read_core("(c)'[b]'{ '@b:' c z }", names)
    env = EnvVal((("k", Var("y")),))
    body = Body(SConst(False), App(Var("k"), (env, FragVal(build(0, subject)))))
    assert body_info(body) == (frozenset({"k", "y", "z"}), False)
    fix = read_core("()'[q]'{ '@q:' fix '[y]' f (j)'[s]'{ '@y:' j f } f 1 }", names)
    free, active = body_info(fix.body)
    assert free == {"q", "y"} and not active


@pytest.mark.parametrize("src", [
    (FIXTURES / "signum_script.core").read_text(),
    """(k)'[s0]' {
         '@s0:' k ()'[q]'{ '@q:' fix '[y]' f (j)'[s]'{ '@always:' j 1 } f 2 }
       }""",
    """(ret)'[s0]' {
         '@s0:' ret
           (!args, k1)'[q]' { '@q:' k1 !args }
           (!args, k2)'[w]' { '@always:' (a, b, c)'[p]'{ '@p:' k2 a b c } !args }
       }""",
    """(k)'[s0]' {
         '@s0:' (f)'[a]'{
           '@a:' newEnv (e) "e.insert('f',f)" (e2) k ()'[q]'{ '@q:' k e2 }
         } (j)'[s]'{ '@always:' j 1 }
       }""",
], ids=["signum_script", "dormant_fix", "pack_refinement", "dormant_env"])
def test_cached_pairs_never_undercount(src):
    stepped, drained = Session(), Session()
    root = Body(SConst(True), App(read_core(src, stepped.names), (stepped.new_return(),)))
    while step(stepped, root):
        assert_caches_safe(root)
    root = Body(SConst(True), App(read_core(src, drained.names), (drained.new_return(),)))
    run(drained, root)
    assert_caches_safe(root, exact_activity=True)  # quiet bodies dropped theirs

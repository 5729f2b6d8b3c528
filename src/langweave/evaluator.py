"""Staged evaluation to normal form.

The program is a tree of bodies.  A body whose stage expression is top is
active; each step executes the innermost active body that can actually make
progress (post-order, so left-to-right among ties).  A body blocked on
symbolic data (an unsubstituted variable where a concrete value is needed)
simply stays put and is reconsidered once an enclosing reduction supplies
the value.  Execution always rewrites the body cell in place:

  application   beta-substitution into the callee (implicit stage := top)
  primitive     evaluate the quoted expression, bind its outputs
  fix           bind the recursive value, continue with the rest

Since substitution avoids capture (a copied binder is renamed exactly
where a substituted value has its name free) and shares only subtrees it
cannot change, a bare `Var` in any position is precisely a symbolic value,
and a stage reference to one is bottom.  That single rule
is what makes build-time chains run inside not-yet-invoked lambdas while
function-time chains stay residual.

`run` drains the tree and skips every subtree whose cached pair (see
`terms.body_info`) says it holds no active body: nothing there can run.  A
body that ends quiescent after running something drops its pair, so the
next look recomputes it from its children's and the skip stays sharp as
build-time chains finish.
`step`, which walks the whole tree in post-order, is the reference the
drain must agree with.
"""

import sys

from .errors import (ApplyNonClosure, ArityMismatch, EvalExit, NameNotFound,
                     PrimTypeError, ReturnCalledTwice, ReturnNeverCalled,
                     StepBudgetExceeded)

# residual chains nest one level per step; recursion tracks tree depth
sys.setrecursionlimit(max(sys.getrecursionlimit(), 20000))
from .fragments import build, finalize_wrapper, merge, subject_call_args
from .names import FreshNames
from . import prims as P
from .printer import _quote_render
from .terms import (App, Body, Bool, Builtin, EnvVal, FixB, FragVal, Inert,
                    Int, Lam, Param, PrimB, Rec, RetK, SConst, Splice,
                    StageConst, Str, TupleT, Var, body_info, child_bodies,
                    postorder, stage_value, subst_body, subst_term)

BOTTOM = SConst(False)
TOP = SConst(True)

BUILTIN_NAMES = frozenset({"if", "print", "exit", "newEnv", "build", "merge", "finalize"})


class Session:
    """Shared evaluation context: fresh names, budget, output, and the
    trace (``prim``/``print`` lines here, plus the parser's own lines)."""

    def __init__(self, seed=0, budget=1_000_000):
        self.names = FreshNames(seed)
        self.budget = budget
        self.steps = 0
        self.out = []
        self.trace = []
        self.returned = {}
        self._ret_tags = 0

    def new_return(self):
        self._ret_tags += 1
        return RetK(self._ret_tags)


class _Unready(Exception):
    """A primitive operand is still symbolic; retry later."""


# ---------------------------------------------------------------------------
# primitive expression evaluation


def _strict(term):
    """A concrete value for an operand the operation must inspect."""
    if isinstance(term, Var):
        raise _Unready(term.name)
    if isinstance(term, (Int, Str, Bool, TupleT, EnvVal, StageConst, Lam, FragVal)):
        return term
    raise PrimTypeError(f"unusable operand {term!r}")


def eval_prim(expr):
    """Evaluate a quoted expression to a value term.

    Arithmetic and comparison require concrete operands; environment and
    tuple constructors accept symbolic values as data (that is how build
    time name binding stores function-time values symbolically).
    """
    if isinstance(expr, P.PInt):
        return Int(expr.value)
    if isinstance(expr, P.PStr):
        return Str(expr.value)
    if isinstance(expr, P.PName):
        raise _Unready(expr.name)
    if isinstance(expr, P.PQuote):
        return expr.term
    if isinstance(expr, P.PNeg):
        v = _strict(eval_prim(expr.inner))
        if not isinstance(v, Int):
            raise PrimTypeError("unary '-' needs an integer")
        return Int(-v.value)
    if isinstance(expr, P.PBin):
        return _eval_bin(expr)
    if isinstance(expr, P.PList):
        return TupleT(tuple(eval_prim(a) for a in expr.items))
    if isinstance(expr, P.PCall):
        if expr.fn == "concat":
            if len(expr.args) != 2:
                raise PrimTypeError("concat takes two tuples")
            a = _strict(eval_prim(expr.args[0]))
            b = _strict(eval_prim(expr.args[1]))
            if not isinstance(a, TupleT) or not isinstance(b, TupleT):
                raise PrimTypeError("concat takes two tuples")
            if any(isinstance(t, Splice) for t in a.items + b.items):
                raise _Unready("concat over an unresolved pack")
            return TupleT(a.items + b.items)
        raise PrimTypeError(f"unknown primitive function {expr.fn!r}")
    if isinstance(expr, P.PMethod):
        obj = _strict(eval_prim(expr.obj))
        if not isinstance(obj, EnvVal):
            raise PrimTypeError(f"method {expr.method!r} needs an environment")
        if expr.method == "insert":
            if len(expr.args) != 2:
                raise PrimTypeError("insert takes a key and a value")
            key = _strict(eval_prim(expr.args[0]))
            if not isinstance(key, Str):
                raise PrimTypeError("insert key must be a string")
            value = eval_prim(expr.args[1])
            return obj.insert(key.value, value)
        if expr.method == "lookup":
            if len(expr.args) != 1:
                raise PrimTypeError("lookup takes a key")
            key = _strict(eval_prim(expr.args[0]))
            if not isinstance(key, Str):
                raise PrimTypeError("lookup key must be a string")
            found = obj.lookup(key.value)
            if found is None:
                raise NameNotFound(f"name {key.value!r} not present in environment")
            return found
        if expr.method == "items":
            if expr.args:
                raise PrimTypeError("items takes no arguments")
            return TupleT(tuple(TupleT((Str(k), v)) for k, v in obj.entries))
        raise PrimTypeError(f"unknown environment method {expr.method!r}")
    raise PrimTypeError(f"cannot evaluate {expr!r}")


def _eval_bin(expr):
    op = expr.op
    lv = _strict(eval_prim(expr.left))
    rv = _strict(eval_prim(expr.right))
    if op in ("==", "!="):
        if type(lv) is not type(rv) or not isinstance(lv, (Int, Str, Bool)):
            raise PrimTypeError(f"cannot compare {lv!r} and {rv!r}")
        eq = lv.value == rv.value
        return Bool(eq if op == "==" else not eq)
    if not isinstance(lv, Int) or not isinstance(rv, Int):
        raise PrimTypeError(f"operator {op!r} needs integers")
    a, b = lv.value, rv.value
    if op == "+":
        return Int(a + b)
    if op == "-":
        return Int(a - b)
    if op == "*":
        return Int(a * b)
    if op == "/":
        if b == 0:
            raise PrimTypeError("division by zero")
        q = abs(a) // abs(b)
        return Int(q if (a >= 0) == (b >= 0) else -q)
    if op == "<":
        return Bool(a < b)
    if op == ">":
        return Bool(a > b)
    if op == "<=":
        return Bool(a <= b)
    if op == ">=":
        return Bool(a >= b)
    raise PrimTypeError(f"unknown operator {op!r}")


# ---------------------------------------------------------------------------
# argument flattening and parameter binding


def _flatten(args):
    items = []

    def splice(inner):
        if isinstance(inner, TupleT):
            for el in inner.items:
                if isinstance(el, Splice):
                    splice(el.inner)
                else:
                    items.append(("v", el))
        elif isinstance(inner, Splice):
            splice(inner.inner)
        else:
            items.append(("spl", inner))

    for a in args:
        if isinstance(a, Splice):
            splice(a.inner)
        else:
            items.append(("v", a))
    return items


class _Blocked(Exception):
    pass


class _NeedsRefine(Exception):
    def __init__(self, name, count):
        self.name = name
        self.count = count


class _RestartWalk(Exception):
    """A pack refinement rewrote an enclosing lambda, detaching the subtree
    the walk was inside; re-enter from the root."""


def _bind(lam, items):
    """Map parameters to argument terms; raises _Blocked / _NeedsRefine /
    ArityMismatch when the shape does not line up (yet)."""
    pre, pack, post = [], None, []
    for p in lam.params:
        if p.packed:
            pack = p
        elif pack is None:
            pre.append(p)
        else:
            post.append(p)

    spl_positions = [i for i, (k, _) in enumerate(items) if k == "spl"]
    mapping = {}

    if not spl_positions:
        vals = [t for _, t in items]
        if pack is None:
            if len(vals) != len(pre):
                raise ArityMismatch(
                    f"expected {len(pre)} argument(s), got {len(vals)}")
            mapping.update(zip((p.name for p in pre), vals))
        else:
            if len(vals) < len(pre) + len(post):
                raise ArityMismatch(
                    f"expected at least {len(pre) + len(post)} argument(s), got {len(vals)}")
            for p, v in zip(pre, vals[:len(pre)]):
                mapping[p.name] = v
            if post:
                for p, v in zip(post, vals[-len(post):]):
                    mapping[p.name] = v
                middle = vals[len(pre):-len(post)]
            else:
                middle = vals[len(pre):]
            mapping[pack.name] = TupleT(tuple(middle))
        return mapping

    if pack is None:
        if len(spl_positions) != 1:
            raise _Blocked()
        at = spl_positions[0]
        lead = items[:at]
        trail = items[at + 1:]
        needed = len(pre) - len(lead) - len(trail)
        if needed < 0:
            raise ArityMismatch("more arguments than parameters around a pack splice")
        target = items[at][1]
        if isinstance(target, Var):
            raise _NeedsRefine(target.name, needed)
        raise _Blocked()

    # callee has a pack: fixed parameters must be covered by plain values
    if len(items) < len(pre) + len(post):
        raise ArityMismatch("not enough arguments for fixed parameters")
    head = items[:len(pre)]
    tail = items[len(items) - len(post):] if post else []
    if any(k != "v" for k, _ in head) or any(k != "v" for k, _ in tail):
        raise _Blocked()
    for p, (_, v) in zip(pre, head):
        mapping[p.name] = v
    for p, (_, v) in zip(post, tail):
        mapping[p.name] = v
    middle = items[len(pre):len(items) - len(post)] if post else items[len(pre):]
    mapping[pack.name] = TupleT(tuple(t if k == "v" else Splice(t) for k, t in middle))
    return mapping


def _terms_of_form(form):
    if isinstance(form, App):
        return (form.callee,) + form.args
    if isinstance(form, PrimB):
        return tuple(form.expr.embedded_terms())
    if isinstance(form, FixB):
        return (form.value,)
    if isinstance(form, Inert):
        return form.args
    return ()


def _rests_of_form(form):
    if isinstance(form, (PrimB, FixB)):
        return (form.rest,)
    return ()


def _find_pack_lam(body, name, at_body):
    """The lambda packing `name` whose body encloses `at_body` (the blocked
    application): the reference is lexically bound, so the binder must be an
    enclosing lambda, never a like-named one elsewhere in the tree."""

    def in_term(term, enclosing):
        if isinstance(term, Lam):
            packs = any(p.packed and p.name == name for p in term.params)
            return in_body(term.body, term if packs else enclosing)
        if isinstance(term, TupleT):
            for el in term.items:
                found = in_term(el, enclosing)
                if found is not None:
                    return found
            return None
        if isinstance(term, Splice):
            return in_term(term.inner, enclosing)
        return None

    def in_body(b, enclosing):
        if b is at_body:
            return enclosing
        for t in _terms_of_form(b.form):
            found = in_term(t, enclosing)
            if found is not None:
                return found
        for r in _rests_of_form(b.form):
            found = in_body(r, enclosing)
            if found is not None:
                return found
        return None

    return in_body(body, None)


def _refine_pack(session, root, name, count, at_body):
    """Narrow a packed parameter to `count` plain parameters.

    Happens when a symbolic splice of that pack must supply fixed parameters
    of a callee, which pins down exactly how many arguments the owning
    lambda will receive (the finalize shell discovering its argument list).
    """
    lam = _find_pack_lam(root, name, at_body)
    if lam is None:
        return False
    fresh = [session.names.fresh("arg") for _ in range(count)]
    new_params = []
    for p in lam.params:
        if p.packed and p.name == name:
            new_params.extend(Param(f) for f in fresh)
        else:
            new_params.append(p)
    lam.params = tuple(new_params)
    lam.info = None
    mapping = {name: TupleT(tuple(Var(f) for f in fresh))}
    lam.body.replace(subst_body(lam.body, mapping, session.names))
    return True


# ---------------------------------------------------------------------------
# execution


def _beta(session, body, lam, items, stage_term=None):
    mapping = _bind(lam, items)
    mapping[lam.stage] = stage_term if stage_term is not None else StageConst(True)
    body.replace(subst_body(lam.body, mapping, session.names))


def _describe(term):
    if isinstance(term, Var):
        return term.name
    if isinstance(term, Builtin):
        return term.name
    return type(term).__name__


def _try_execute(session, root, body):
    form = body.form
    if isinstance(form, Inert):
        return False
    if isinstance(form, PrimB):
        try:
            value = eval_prim(form.expr)
        except _Unready:
            return False
        mapping = {form.outs[0]: value}
        for extra in form.outs[1:]:
            mapping[extra] = value
        if form.cont_stage is not None:
            mapping[form.cont_stage] = StageConst(True)
        session.trace.append("prim " + P.render_prim(form.expr, _quote_render))
        body.replace(subst_body(form.rest, mapping, session.names))
        return True
    if isinstance(form, FixB):
        rec = Rec(form.name, form.value)
        mapping = {form.name: rec, form.stage_param: StageConst(True)}
        body.replace(subst_body(form.rest, mapping, session.names))
        return True

    # application
    callee = form.callee
    if isinstance(callee, Var):
        if callee.name in BUILTIN_NAMES:
            callee = Builtin(callee.name)
        else:
            return False  # symbolic callee: wait for a value
    if isinstance(callee, Rec):
        unfolded = subst_term(callee.value, {callee.name: callee}, session.names)
        if not isinstance(unfolded, Lam):
            raise ApplyNonClosure("fix value is not a lambda")
        callee = unfolded

    items = _flatten(form.args)

    if isinstance(callee, Lam):
        try:
            _beta(session, body, callee, items)
        except _Blocked:
            return False
        except _NeedsRefine as need:
            if _refine_pack(session, root, need.name, need.count, body):
                raise _RestartWalk()
            return False
        return True

    if isinstance(callee, FragVal):
        if not items or items[0][0] != "v":
            return False
        sigma = items[0][1]
        subject = callee.fragment.subject
        try:
            full = items[1:] + [("v", w) for w in
                                _fragment_wrappers(session, callee.fragment)]
            _beta(session, body, subject, full, stage_term=sigma)
        except _Blocked:
            return False
        except _NeedsRefine as need:
            if _refine_pack(session, root, need.name, need.count, body):
                raise _RestartWalk()
            return False
        return True

    if isinstance(callee, RetK):
        # the host demands concrete attribute values; wait for symbolic ones
        if any(k != "v" or isinstance(t, Var) for k, t in items):
            return False
        if callee.tag in session.returned:
            raise ReturnCalledTwice("return continuation invoked twice")
        args = tuple(t for _, t in items)
        session.returned[callee.tag] = body
        body.replace(Body(BOTTOM, Inert(callee.tag, args)))
        return True

    if isinstance(callee, Builtin):
        return _do_builtin(session, body, callee.name, items)

    raise ApplyNonClosure(f"cannot apply {_describe(callee)}")


def _fragment_wrappers(session, fragment):
    return subject_call_args(fragment, session.names, ())


def _plain_values(items):
    if any(k != "v" for k, _ in items):
        raise _Blocked()
    return [t for _, t in items]


def _do_builtin(session, body, name, items):
    try:
        vals = _plain_values(items)
    except _Blocked:
        return False

    def expect(n):
        if len(vals) != n:
            raise ArityMismatch(f"builtin {name!r} takes {n} argument(s), got {len(vals)}")

    if name == "if":
        expect(3)
        cond, then_k, else_k = vals
        if isinstance(cond, Var):
            return False
        if not isinstance(cond, Bool):
            raise PrimTypeError("if condition must be a boolean")
        body.replace(Body(TOP, App(then_k if cond.value else else_k, ())))
        return True
    if name == "print":
        expect(2)
        value, k = vals
        if isinstance(value, Var):
            return False
        text = render_value(value, nested=False)
        session.out.append(text)
        session.trace.append("print " + text)
        body.replace(Body(TOP, App(k, ())))
        return True
    if name == "exit":
        if len(vals) not in (0, 1):
            raise ArityMismatch("exit takes at most one argument")
        code = 2
        if vals and isinstance(vals[0], Int):
            code = vals[0].value
        raise EvalExit(code)
    if name == "newEnv":
        expect(1)
        body.replace(Body(TOP, App(vals[0], (EnvVal(()),))))
        return True
    if name == "build":
        expect(3)
        n, subject, k = vals
        if isinstance(n, Var) or isinstance(subject, Var):
            return False
        if not isinstance(n, Int):
            raise PrimTypeError("build arity must be an integer")
        frag = build(n.value, subject)
        body.replace(Body(TOP, App(k, (FragVal(frag),))))
        return True
    if name == "merge":
        expect(3)
        f, g, k = vals
        if isinstance(f, Var) or isinstance(g, Var):
            return False
        if not isinstance(f, FragVal) or not isinstance(g, FragVal):
            raise PrimTypeError("merge takes two fragments")
        merged = merge(f.fragment, g.fragment)
        body.replace(Body(TOP, App(k, (FragVal(merged),))))
        return True
    if name == "finalize":
        expect(2)
        f, k = vals
        if isinstance(f, Var):
            return False
        if not isinstance(f, FragVal):
            raise PrimTypeError("finalize takes a fragment")
        wrapper = finalize_wrapper(f.fragment, session.names)
        body.replace(Body(TOP, App(k, (wrapper,))))
        return True
    raise ApplyNonClosure(f"unknown builtin {name!r}")


# ---------------------------------------------------------------------------
# driver


def step(session, root):
    """Execute one body; False when quiescent."""
    try:
        for body in postorder(root):
            if stage_value(body.stage) and _try_execute(session, root, body):
                _count_step(session)
                return True
        return False
    except _RestartWalk:
        _count_step(session)
        return True


def _count_step(session):
    session.steps += 1
    if session.steps > session.budget:
        raise StepBudgetExceeded(f"step budget of {session.budget} exhausted")


def _drain(session, root, body):
    """Quiesce a subtree, innermost-leftmost first.

    Equivalent to repeatedly taking the first runnable body in post-order:
    an execution rewrites only its own cell, so nothing earlier in the walk
    can change state, and the replacement is re-drained on the spot.  A
    child holding no active body has nothing runnable and is skipped.
    """
    ran = False
    while True:
        progress = False
        for child in list(child_bodies(body)):
            if body_info(child)[1] and _drain(session, root, child):
                progress = True
                ran = True
        if stage_value(body.stage) and _try_execute(session, root, body):
            _count_step(session)
            progress = True
            ran = True
            continue  # the replacement needs draining too
        if not progress:
            if ran:  # the cached pair predates the run
                body.info = None
            return ran


def run(session, root):
    while True:
        try:
            _drain(session, root, root)
            return
        except _RestartWalk:
            _count_step(session)


def apply_value(f, args, session):
    """Call a closure with a host return continuation appended; run until
    quiescent and yield the values passed to the continuation."""
    ret = session.new_return()
    root = Body(TOP, App(f, tuple(args) + (ret,)))
    run(session, root)
    if ret.tag not in session.returned:
        raise ReturnNeverCalled("evaluation finished without invoking return")
    return list(session.returned[ret.tag].form.args)


def run_term_to_normal(term, session):
    """Run every active body inside `term` to quiescence."""
    root = Body(BOTTOM, Inert(None, (term,)))
    run(session, root)
    return root.form.args[0]


# ---------------------------------------------------------------------------
# value rendering (print builtin, traces, CLI)


def render_value(term, nested=True):
    if isinstance(term, Int):
        return str(term.value)
    if isinstance(term, Str):
        return f'"{term.value}"' if nested else term.value
    if isinstance(term, Bool):
        return "true" if term.value else "false"
    if isinstance(term, TupleT):
        return "[" + ",".join(render_value(t, nested=True) for t in term.items) + "]"
    if isinstance(term, Var):
        return term.name
    if isinstance(term, StageConst):
        return "'always'" if term.top else "'never'"
    if isinstance(term, Lam):
        return "#code"
    if isinstance(term, FragVal):
        return f"#fragment/{term.fragment.arity}"
    if isinstance(term, EnvVal):
        return "#env"
    if isinstance(term, Splice):
        return "!" + render_value(term.inner)
    return "#value"

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
  host return   record the values; the call stays in the tree, staged never

Since substitution avoids capture (a copied binder is renamed exactly
where a substituted value has its name free) and shares only subtrees it
cannot change, a bare `Var` in any position is precisely a symbolic value.
A stage expression is a term too (see `terms`), and a `Var` in it reads as
bottom.  That single rule is what makes build-time chains run inside
not-yet-invoked lambdas while function-time chains stay residual.

`step`, which walks the whole tree in post-order from the root, is the
reference.  `apply_value` and `run_term_to_normal` drain through the
environment machine of `machine`, which binds names in a dict instead of
copying bodies and goes under binders to build only what stays residual;
what it cannot finish it hands back as the tree `step` would have reached,
and a `step` loop goes on from there.  `_bind` maps plain parameters to
plain values in one pass up to the first pack, then the names after the
pack and the pack's tuple; a splice where a plain value must go or a wrong
count says why the call cannot bind (yet).
"""

import sys
from operator import add, ge, gt, le, lt, mul, sub

from .errors import (ApplyNonClosure, ArityMismatch, EvalExit, NameNotFound,
                     PrimTypeError, ReturnCalledTwice, ReturnNeverCalled,
                     StepBudgetExceeded)

# the drain keeps its own stack, but the cached pairs, substitution and
# printing still recurse once per level of a term
sys.setrecursionlimit(max(sys.getrecursionlimit(), 20000))
from .fragments import build, finalize_wrapper, merge, subject_call_args
from .names import FreshNames
from . import prims as P
from .prims import BINARY, PInt, PName, POp, PQuote, PStr
from .printer import print_prim, render_value
from .terms import (BOTTOM, TOP, App, Body, Bool, Builtin, EnvVal, FixB,
                    FragVal, Int, Lam, Param, PrimB, Rec, RetK, Splice,
                    StageConst, Str, TupleT, Var, body_info, child_bodies,
                    stage_value, subst_body, subst_term, walk)


class Session:
    """Shared evaluation context: fresh names, budget, output, and the
    `listener` of events (see `trace_line`), None while nobody listens;
    `record_trace` makes the text formatter fill `trace`.  `returned` maps
    the tag of each host return continuation called to the call's body,
    and to None once `apply_value` has read its values."""

    def __init__(self, seed=0, budget=1_000_000):
        self.names = FreshNames(seed)
        self.budget = budget
        self.steps = 0
        self.out = []
        self.trace = []
        self.listener = None
        self.returned = {}
        self._ret_tags = 0

    def new_return(self):
        self._ret_tags += 1
        return RetK(self._ret_tags)

    def record_trace(self):
        """Listen with the text formatter; returns the session."""
        trace = self.trace
        self.listener = lambda kind, fields: trace.append(trace_line(kind, fields))
        return self


def trace_line(kind, fields):
    """The trace line of an event, sent as ``listener(kind, fields)`` and
    only to a listener: `token` (a consumed `runtime.Token`, with its span),
    `action` (rule, production, values), `prim` (expression, the loop's dict
    or None) before its outputs are bound, `switch enter` (language, entry),
    `switch exit` (language,) or `print` (text,)."""
    if kind == "token":
        return f"token {fields[0]} {fields[0].lexeme}".rstrip()
    if kind == "action":
        rule, production, values = fields
        return f"action {rule}#{production} ({', '.join(map(render_value, values))})"
    if kind != "prim":
        return f"{kind} {'.'.join(fields)}"
    expr, env = fields
    if env is not None:
        expr = P.prim_subst(expr, env, lambda term: env.get(term.name, term)
                            if type(term) is Var else term)
    return "prim " + print_prim(expr)


class _Unready(Exception):
    """Not ready yet: an operand is still symbolic, or arguments and
    parameters line up only once a splice has a value; retry later."""


# ---------------------------------------------------------------------------
# primitive expression evaluation


# the classes of concrete operands; the integer operators but `/`, with their results' class
_CONCRETE = frozenset((Int, Str, Bool, TupleT, EnvVal, StageConst, Lam, FragVal))
_INT_OPS = {"+": (Int, add), "-": (Int, sub), "*": (Int, mul), "<": (Bool, lt),
            ">": (Bool, gt), "<=": (Bool, le), ">=": (Bool, ge)}


def _strict(term):
    """A concrete value for an operand the operation must inspect."""
    if type(term) in _CONCRETE:
        return term
    if type(term) is Var:
        raise _Unready(term.name)
    raise PrimTypeError(f"unusable operand {render_value(term)}")


def eval_prim(expr, env=None):
    """Evaluate a quoted expression to a value term; a name, plain or
    quoted, takes its value from the dict `env`, if one is given and binds
    it, and a plain one is not ready yet otherwise.

    Arithmetic and comparison require concrete operands; environment and
    tuple constructors accept symbolic values as data (that is how build
    time name binding stores function-time values symbolically).
    """
    kind = type(expr)
    if kind is PName:
        if env is None or expr.name not in env:
            raise _Unready(expr.name)
        return env[expr.name]
    if kind is POp:
        op, args = expr.op, expr.args
        if len(args) == 2 and op in BINARY:  # a name bound in `env` is read in place
            left, right = args
            lv = env.get(left.name) if type(left) is PName and env is not None else None
            lv = _strict(eval_prim(left, env) if lv is None else lv)
            rv = env.get(right.name) if type(right) is PName and env is not None else None
            rv = _strict(eval_prim(right, env) if rv is None else rv)
            if type(lv) is Int and type(rv) is Int and op in _INT_OPS:
                kind, fn = _INT_OPS[op]
                return kind(fn(lv.value, rv.value))
            return _eval_bin(op, lv, rv)
        if op == "-":
            v = _strict(eval_prim(args[0], env))
            if type(v) is not Int:
                raise PrimTypeError("unary '-' needs an integer")
            return Int(-v.value)
        if op == "[]":
            return TupleT(tuple(eval_prim(a, env) for a in args))
        if op[0] == ".":
            obj, method, args = _strict(eval_prim(args[0], env)), op[1:], args[1:]
            if type(obj) is not EnvVal:
                raise PrimTypeError(f"method {method!r} needs an environment")
            if method == "insert":
                if len(args) != 2:
                    raise PrimTypeError("insert takes a key and a value")
                key = _strict(eval_prim(args[0], env))
                if type(key) is not Str:
                    raise PrimTypeError("insert key must be a string")
                value = eval_prim(args[1], env)
                return obj.insert(key.value, value)
            if method == "lookup":
                if len(args) != 1:
                    raise PrimTypeError("lookup takes a key")
                key = _strict(eval_prim(args[0], env))
                if type(key) is not Str:
                    raise PrimTypeError("lookup key must be a string")
                found = obj.lookup(key.value)
                if found is None:
                    raise NameNotFound(f"name {key.value!r} not present in environment")
                return found
            if method == "items":
                if args:
                    raise PrimTypeError("items takes no arguments")
                return TupleT(tuple(TupleT((Str(k), v)) for k, v in obj.entries))
            raise PrimTypeError(f"unknown environment method {method!r}")
        if op == "concat":
            if len(args) != 2:
                raise PrimTypeError("concat takes two tuples")
            a = _strict(eval_prim(args[0], env))
            b = _strict(eval_prim(args[1], env))
            if type(a) is not TupleT or type(b) is not TupleT:
                raise PrimTypeError("concat takes two tuples")
            if Splice in map(type, a.items + b.items):
                raise _Unready("concat over an unresolved pack")
            return TupleT(a.items + b.items)
        raise PrimTypeError(f"unknown primitive function {op!r}")
    if kind is PInt:
        return Int(expr.value)
    if kind is PStr:
        return Str(expr.value)
    if kind is PQuote:
        term = expr.term
        return env.get(term.name, term) if env is not None and type(term) is Var else term
    raise PrimTypeError(f"cannot evaluate {expr!r}")


def _eval_bin(op, lv, rv):
    """`lv op rv` for a binary operator of `prims.BINARY`, but for an
    operator of `_INT_OPS` over integers, which `eval_prim` applies."""
    if op in ("==", "!="):
        if type(lv) is not type(rv) or type(lv) not in (Int, Str, Bool):
            raise PrimTypeError(f"cannot compare {render_value(lv)} and {render_value(rv)}")
        eq = lv.value == rv.value
        return Bool(eq if op == "==" else not eq)
    if type(lv) is not Int or type(rv) is not Int:
        raise PrimTypeError(f"operator {op!r} needs integers")
    a, b = lv.value, rv.value
    if b == 0:  # the one operator left is `/`
        raise PrimTypeError("division by zero")
    q = abs(a) // abs(b)
    return Int(q if (a >= 0) == (b >= 0) else -q)


# ---------------------------------------------------------------------------
# argument flattening and parameter binding


def _flatten(args, items=None):
    """The argument list: every splice of a tuple spread in place, and a
    splice of anything else kept as the `Splice` term, waiting for a value."""
    if items is None and Splice not in map(type, args):
        return list(args)  # nothing spliced
    items = [] if items is None else items
    for a in args:
        if not isinstance(a, Splice):
            items.append(a)
        elif isinstance(a.inner, TupleT):
            _flatten(a.inner.items, items)
        elif isinstance(a.inner, Splice):
            _flatten((a.inner,), items)
        else:
            items.append(a)
    return items


class _NeedsRefine(_Unready):
    """Not ready until the pack `name` is narrowed to `count` parameters."""

    def __init__(self, name, count):
        self.name = name
        self.count = count


def _bind(lam, items):
    """Map parameters to argument terms; raises _Unready (_NeedsRefine when
    narrowing a pack would help) or ArityMismatch when the shape does not
    line up (yet)."""
    params, mapping = lam.params, {}
    for p, t in zip(params, items):  # plain parameters, plain values
        if p.packed or type(t) is Splice:
            break
        mapping[p.name] = t
    else:
        if len(params) == len(items):
            return mapping
    at = len(mapping)  # where the loop stopped, as the names are distinct
    if not any(p.packed for p in params[at:]):
        spliced = [t for t in items if isinstance(t, Splice)]
        if not spliced:
            raise ArityMismatch(f"expected {len(params)} argument(s), got {len(items)}")
        if len(spliced) != 1:
            raise _Unready()
        needed = len(params) - (len(items) - 1)
        if needed < 0:
            raise ArityMismatch("more arguments than parameters around a pack splice")
        if isinstance(spliced[0].inner, Var):
            raise _NeedsRefine(spliced[0].inner.name, needed)
        raise _Unready()

    # callee has a pack: fixed parameters must be covered by plain values
    fixed = len(params) - 1
    if len(items) < fixed:
        raise ArityMismatch("not enough arguments for fixed parameters"
                            if Splice in map(type, items)
                            else f"expected at least {fixed} argument(s), got {len(items)}")
    if not params[at].packed:  # a splice ahead of the pack
        raise _Unready()
    end = len(items) - fixed + at  # where the items after the pack start
    for q, t in zip(params[at + 1:], items[end:]):  # a second pack is a plain name here
        if type(t) is Splice:
            raise _Unready()
        mapping[q.name] = t
    mapping[params[at].name] = TupleT(tuple(items[at:end]))
    return mapping


def _refine_pack(session, name, count, path):
    """Narrow a packed parameter to `count` plain parameters; False when no
    lambda on `path` packs `name`.

    Happens when a symbolic splice of that pack must supply fixed parameters
    of a callee, which pins down exactly how many arguments the owning
    lambda will receive (the finalize shell discovering its argument list).
    The splice sits in the last body of `path`, the bodies from the root
    down to it, and its name is lexically bound: the owner is the nearest
    binder of `name` going out along `path`, and there is none when that
    binder is a plain parameter, a stage name, a primitive output or
    `cont_stage`, or a `fix` name or stage parameter.
    """
    for depth in range(len(path) - 1, 0, -1):
        cell, form = path[depth], path[depth - 1].form
        if isinstance(form, (PrimB, FixB)) and cell is form.rest:
            if name in ((*form.outs, form.cont_stage) if isinstance(form, PrimB)
                        else (form.name, form.stage_param)):
                return False
            continue
        if isinstance(form, FixB) and name == form.name:
            return False
        terms = ([form.callee, *form.args] if isinstance(form, App)
                 else [form.value] if isinstance(form, FixB)
                 else [*form.expr.embedded_terms()])
        lam = terms.pop()
        while not (isinstance(lam, Lam) and lam.body is cell):
            if isinstance(lam, (TupleT, Splice)):
                terms.extend(lam.items if isinstance(lam, TupleT) else (lam.inner,))
            lam = terms.pop()
        if name == lam.stage or Param(name) in lam.params:
            return False
        if Param(name, True) in lam.params:
            break
    else:
        return False
    fresh = tuple(Param(session.names.fresh("arg")) for _ in range(count))
    at = lam.params.index(Param(name, True))
    lam.params = lam.params[:at] + fresh + lam.params[at + 1:]
    lam.info = None
    mapping = {name: TupleT(tuple(Var(p.name) for p in fresh))}
    lam.body.replace(subst_body(lam.body, mapping, session.names))
    return True


# ---------------------------------------------------------------------------
# execution


def _beta(session, body, lam, items, stage_term=None):
    mapping = _bind(lam, items)
    mapping[lam.stage] = stage_term if stage_term is not None else TOP
    body.replace(subst_body(lam.body, mapping, session.names))


def _prim_step(session, form):
    """The rest of the primitive `form` with its outputs bound to the value
    of its expression, or None while the expression is not ready."""
    try:
        value = eval_prim(form.expr)
    except _Unready:
        return None
    mapping = dict.fromkeys(form.outs, value)
    mapping[form.cont_stage] = TOP
    if session.listener is not None:
        session.listener("prim", (form.expr, None))
    return subst_body(form.rest, mapping, session.names)


def _try_execute(session, body, path):
    """Execute `body`, the last of `path`, the bodies from the root down to
    it, rewriting its cell, or the body of the lambda whose pack it narrows
    (see `_refine_pack`); False while it cannot run."""
    form = body.form
    if isinstance(form, PrimB):
        rest = _prim_step(session, form)
        if rest is None:
            return False
        body.replace(rest)
        return True
    if isinstance(form, FixB):
        rec = Rec(form.name, form.value)
        mapping = {form.name: rec, form.stage_param: TOP}
        body.replace(subst_body(form.rest, mapping, session.names))
        return True

    # application
    callee = form.callee
    if isinstance(callee, Var):
        return False  # symbolic callee: wait for a value
    if isinstance(callee, Rec):
        unfolded = subst_term(callee.value, {callee.name: callee}, session.names)
        if not isinstance(unfolded, Lam):
            raise ApplyNonClosure("fix value is not a lambda")
        callee = unfolded

    items = _flatten(form.args)
    stage_term = None
    if isinstance(callee, FragVal):
        # the subject, staged by the first argument, with slot wrappers appended
        if not items or isinstance(items[0], Splice):
            return False
        stage_term = items[0]
        items = [*items[1:], *subject_call_args(callee.fragment, session.names, ())]
        callee = callee.fragment.subject

    if isinstance(callee, Lam):
        try:
            _beta(session, body, callee, items, stage_term)
        except _NeedsRefine as need:
            return _refine_pack(session, need.name, need.count, path)
        except _Unready:
            return False
        return True

    if isinstance(callee, RetK):
        # the host demands concrete attribute values; wait for symbolic ones
        if any(isinstance(t, (Splice, Var)) for t in items):
            return False
        body.replace(_return(session, callee, items))
        return True

    if isinstance(callee, Builtin):
        call = _do_builtin(session, callee.name, items)
        if call is None:
            return False
        body.replace(Body(TOP, App(*call)))
        return True

    raise ApplyNonClosure(f"cannot apply {type(callee).__name__}")


def _return(session, ret, items):
    """Record the values of a call of the host return continuation `ret`."""
    if ret.tag in session.returned:
        raise ReturnCalledTwice("return continuation invoked twice")
    session.returned[ret.tag] = done = Body(BOTTOM, App(ret, tuple(items)))
    return done


def _do_builtin(session, name, vals):
    """Run a builtin on its flattened arguments: the continuation call it
    makes as (callee, arguments), or None while an operand is symbolic."""
    if any(isinstance(t, Splice) for t in vals):
        return None

    def expect(n):
        if len(vals) != n:
            raise ArityMismatch(f"builtin {name!r} takes {n} argument(s), got {len(vals)}")

    if name == "if":
        expect(3)
        cond, then_k, else_k = vals
        if isinstance(cond, Var):
            return None
        if not isinstance(cond, Bool):
            raise PrimTypeError("if condition must be a boolean")
        return (then_k if cond.value else else_k), ()
    if name == "print":
        expect(2)
        value, k = vals
        if isinstance(value, Var):
            return None
        text = render_value(value, nested=False)
        session.out.append(text)
        if session.listener is not None:
            session.listener("print", (text,))
        return k, ()
    if name == "exit":
        if len(vals) not in (0, 1):
            raise ArityMismatch("exit takes at most one argument")
        if vals and isinstance(vals[0], Var):
            return None
        code = 2
        if vals and isinstance(vals[0], Int):
            code = vals[0].value
            if not 0 <= code <= 255:
                raise PrimTypeError(f"exit code {code} is outside 0..255")
        raise EvalExit(code)
    if name == "newEnv":
        expect(1)
        return vals[0], (EnvVal(()),)
    if name == "build":
        expect(3)
        n, subject, k = vals
        if isinstance(n, Var) or isinstance(subject, Var):
            return None
        if not isinstance(n, Int):
            raise PrimTypeError("build arity must be an integer")
        return k, (FragVal(build(n.value, subject)),)
    if name == "merge":
        expect(3)
        f, g, k = vals
        if isinstance(f, Var) or isinstance(g, Var):
            return None
        if not isinstance(f, FragVal) or not isinstance(g, FragVal):
            raise PrimTypeError("merge takes two fragments")
        return k, (FragVal(merge(f.fragment, g.fragment)),)
    expect(2)  # the one builtin left is `finalize`
    f, k = vals
    if isinstance(f, Var):
        return None
    if not isinstance(f, FragVal):
        raise PrimTypeError("finalize takes a fragment")
    return k, (finalize_wrapper(f.fragment, session.names),)


# ---------------------------------------------------------------------------
# driver


def step(session, root):
    """Execute the first runnable body in post-order; False when quiescent."""
    for path in walk(root):
        body = path[-1]
        if stage_value(body.stage) and _try_execute(session, body, path):
            _count_step(session)
            return True
    return False


def _count_step(session):
    session.steps += 1
    if session.steps > session.budget:
        raise StepBudgetExceeded(f"step budget of {session.budget} exhausted")


def apply_value(f, args, session):
    """Call a closure with a host return continuation appended; run until
    quiescent and yield the values passed to the continuation."""
    ret = session.new_return()
    rest = machine.run_chain(session, f, (*args, ret))
    if rest is not None:  # what the machine hands back, the `step` loop runs
        rest = machine.drain(session, rest)[1]
        while body_info(rest)[1] and step(session, rest):
            pass
    if ret.tag not in session.returned:
        raise ReturnNeverCalled("evaluation finished without invoking return")
    values = list(session.returned[ret.tag].form.args)
    session.returned[ret.tag] = None  # read; the tag stays, so a second call still fails
    return values


def run_term_to_normal(term, session):
    """Run every active body inside the lambda `term` to quiescence."""
    root = Body(BOTTOM, App(machine._finish(session, term), ()))
    while body_info(root)[1] and step(session, root):
        pass
    return root.form.callee


from . import machine  # noqa: E402  (it imports names defined above)

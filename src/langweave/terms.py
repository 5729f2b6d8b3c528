"""Term and body representation for the staged CPS calculus.

Terms are the argument-position values (variables, literals, lambdas,
tuples, opaque handles).  A lambda body is a mutable `Body` cell holding a
stage expression plus one of the body forms: application, primitive
expression or fix, each of which prints and reads back.  A stage
expression is a term too: `TOP` and `BOTTOM` (`always` and `never`) are the
stage constants, a stage name is a `Var`, and a `StageOp` joins stages with
`&`, `|` or `!`.  A body staged `never` never runs, since no substitution
changes a constant stage; a finished call of a host return continuation is
kept as one, so that its argument terms stay rooted in the tree.
Evaluation rewrites bodies in place; terms themselves are immutable and may
be shared freely.

Substitution shares what it cannot change.  Every `Body` and `Lam` caches
one pair, computed on first use from its children's pairs: its free names,
and whether it holds an active body (one whose stage evaluates to top),
counting bodies kept in environments, fragment subjects and `Rec` values.
A subtree whose free names miss the mapping and that holds no active body
comes back as it is: nothing in it can run, so nothing can rewrite it in
place at one site and not at another.  A binder in a copied subtree keeps
its name and shadows the mapping below it, unless some mapped value has
that name free: then, and only then, it gets a globally fresh name.  So
capture never occurs and, after any reduction, a name that still appears
as a bare `Var` is exactly a symbolic (not-yet-supplied) value.  Builtins
are `Builtin` terms, resolved by scope when read, never `Var`s.

Execution can only shrink a subtree's free names, because the free names
of environments and fragments count too, and a quiet subtree stays quiet
until a substitution copies it.  A stale cached pair is therefore a
superset and an over-estimate of activity, which is safe for both uses.
"""

from .prims import (PInt, PName, POp, PQuote, PrimExpr, PStr, normalize_prim,
                    prim_alpha_eq, prim_leaves, prim_subst)
from .records import Ident, Value

# ---------------------------------------------------------------------------
# terms


class Term:
    __slots__ = ()


class Var(Term, Value):
    __slots__ = ("name",)


class Int(Term, Value):
    __slots__ = ("value",)


class Str(Term, Value):
    __slots__ = ("value",)


class Bool(Term, Value):
    __slots__ = ("value",)


class StageConst(Term, Value):
    __slots__ = ("top",)


TOP = StageConst(True)
BOTTOM = StageConst(False)


class StageOp(Term, Value):
    """Stages joined by an operator, in stage position only: `&` or `|`
    with two operands, `!` with one."""
    __slots__ = ("op", "args")


# binding levels of the binary stage operators, read by the reader and the
# printer; both group left, and `!` binds tighter than either
STAGE_LEVELS = {"|": 1, "&": 2}


class TupleT(Term, Value):
    __slots__ = ("items",)  # elements may include Splice


class Splice(Term, Value):
    __slots__ = ("inner",)


class Param(Value):
    __slots__ = ("name", "packed")

    def __init__(self, name, packed=False):  # by hand: `packed` is passed by name
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "packed", packed)


class Lam(Term):
    """Lambda with an implicit staging parameter.  Mutable because pack
    refinement may narrow its parameter list in place (see evaluator)."""

    __slots__ = ("params", "stage", "body", "info")

    def __init__(self, params, stage, body):
        self.params = tuple(params)
        self.stage = stage
        self.body = body
        # (body info it was derived from, pair), see lam_info; the
        # environment machine may append its chain shape, which is dropped
        # with the pair
        self.info = None

    def __repr__(self):
        ps = ", ".join(("!" if p.packed else "") + p.name for p in self.params)
        return f"Lam(({ps})[{self.stage}])"


class Builtin(Term, Value):
    __slots__ = ("name",)


# the reader reads these names as `Builtin` unless a binder shadows them
BUILTIN_NAMES = frozenset({"if", "print", "exit", "newEnv", "build", "merge", "finalize"})


class EnvVal(Term, Ident):
    # entries: ((key, term), ...) insertion-ordered, persistent
    __slots__ = ("entries", "__dict__")
    info = None  # term_info's pair, once computed, is kept in the instance dict

    def insert(self, key, term):
        kept = tuple((k, v) for k, v in self.entries if k != key)
        return EnvVal(kept + ((key, term),))

    def lookup(self, key):
        for k, v in self.entries:
            if k == key:
                return v
        return None


class FragVal(Term, Ident):
    __slots__ = ("fragment",)


class RetK(Term, Ident):
    __slots__ = ("tag",)


class Rec(Term, Ident):
    __slots__ = ("name", "value")


# ---------------------------------------------------------------------------
# body forms


class Form:
    __slots__ = ()


class App(Form, Value):
    __slots__ = ("callee", "args")


class PrimB(Form, Value):
    __slots__ = ("expr",
                 "outs",        # bound names, usually one
                 "cont_stage",  # staging parameter of the continuation
                 "rest")


class FixB(Form, Value):
    __slots__ = ("stage_param", "name", "value", "rest")


class Body:
    __slots__ = ("stage", "form", "info")

    def __init__(self, stage, form):
        self.stage = stage
        self.form = form
        self.info = None  # (free names, holds an active body); see body_info

    def replace(self, other):
        self.stage = other.stage
        self.form = other.form
        self.info = other.info


# ---------------------------------------------------------------------------
# stage evaluation

def stage_value(expr):
    """Post-substitution stage evaluation: a surviving `Var` is a symbolic
    name, hence bottom."""
    if isinstance(expr, StageConst):
        return expr.top
    if isinstance(expr, Var):
        return False
    if expr.op == "!":  # the one class left is `StageOp`
        return not stage_value(expr.args[0])
    values = map(stage_value, expr.args)
    return all(values) if expr.op == "&" else any(values)


# ---------------------------------------------------------------------------
# free names and activity

# the free names of every cached pair that has none: one set, not one per pair
NO_NAMES = frozenset()


def term_info(term, names):
    """Add the free names of `term` to the set `names`; True when it holds
    an active body."""
    if isinstance(term, Var):
        names.add(term.name)
        return False
    if isinstance(term, Lam):
        free, active = lam_info(term)
    elif isinstance(term, (TupleT, Splice)):
        active = False
        for t in term.items if isinstance(term, TupleT) else (term.inner,):
            active |= term_info(t, names)
        return active
    elif isinstance(term, StageOp):  # a stage holds names, not bodies
        for t in term.args:
            term_info(t, names)
        return False
    elif isinstance(term, Rec):
        inner = set()
        active = term_info(term.value, inner)
        inner.discard(term.name)
        free = inner
    elif isinstance(term, EnvVal):
        if term.info is None:
            inner, active = set(), False
            for _, value in term.entries:
                active |= term_info(value, inner)
            object.__setattr__(term, "info", (frozenset(inner) if inner else NO_NAMES, active))
        free, active = term.info
    elif isinstance(term, FragVal):
        free, active = term.fragment._info()
    else:
        return False
    names.update(free)
    return active


def body_info(body):
    """The (free names, holds an active body) pair of a body, computed on
    first use from its children's pairs and cached.

    A fix value keeps its stage parameter among the free names: unfolding
    the fix moves the value out from under that binder."""
    if body.info is None:
        names = set()
        term_info(body.stage, names)
        active = stage_value(body.stage)
        form = body.form
        if isinstance(form, App):
            for t in (form.callee,) + form.args:
                active |= term_info(t, names)
        elif isinstance(form, PrimB):
            for leaf in prim_leaves(form.expr):
                if isinstance(leaf, PName):
                    names.add(leaf.name)
                else:
                    active |= term_info(leaf.term, names)
            free, rest_active = body_info(form.rest)
            names.update(free.difference(form.outs, (form.cont_stage,)))
            active |= rest_active
        elif isinstance(form, FixB):
            inner = set()
            active |= term_info(form.value, inner)
            inner.discard(form.name)
            free, rest_active = body_info(form.rest)
            names.update(inner, free.difference((form.stage_param, form.name)))
            active |= rest_active
        body.info = (frozenset(names) if names else NO_NAMES, active)
    return body.info


def lam_info(lam):
    """The (free names, holds an active body) pair of a lambda, cached
    with the body pair it was derived from."""
    if lam.info is None or lam.info[0] is not lam.body.info:
        derived = body_info(lam.body)
        bound = [p.name for p in lam.params]
        bound.append(lam.stage)
        lam.info = (derived, (derived[0].difference(bound) or NO_NAMES, derived[1]))
    return lam.info[1]


def set_lam_info(lam, free, active):
    """Cache on `lam` and its body the pairs `lam_info` would compute,
    given the body's free names and whether it holds an active body: for a
    lambda made from parts whose pairs are known."""
    lam.body.info = (free, active)
    bound = [p.name for p in lam.params]
    bound.append(lam.stage)
    lam.info = (lam.body.info, (free.difference(bound) or NO_NAMES, active))


def _untouched(info, mapping):
    free, active = info
    return not active and free.isdisjoint(mapping)


# ---------------------------------------------------------------------------
# substitution

def subst_stage(expr, mapping):
    """The stage `expr` with `mapping` substituted.  A value landing in
    stage position keeps its value if it is a stage constant and stays
    symbolic if it is a variable; any other concrete value is top."""
    if isinstance(expr, Var):
        value = mapping.get(expr.name, expr)
        return value if type(value) in (StageConst, Var) else TOP
    if isinstance(expr, StageOp):
        return StageOp(expr.op, tuple(subst_stage(a, mapping) for a in expr.args))
    return expr


_CLOSED = frozenset((Int, Str, Bool, StageConst, Builtin, RetK))


def mapped_free(mapping):
    """The free names of the values in `mapping`, from their cached pairs:
    the only binder names under which a copy could capture one of them."""
    free = set()
    for value in mapping.values():
        if type(value) is Var:
            free.add(value.name)
        elif type(value) not in _CLOSED:
            term_info(value, free)
    return free


def _rebind(binders, mapping, avoid, names):
    """(the names `binders` take in a copy, the mapping for their scope).

    A binder keeps its name and shadows the mapping, unless a mapped value
    has that name free (it is in `avoid`): only then does it get a fresh
    name, which the inner mapping sends the old one to.  The mapping is
    copied only when it changes."""
    inner = mapping
    new = []
    for name in binders:
        if name in avoid:
            fresh = names.fresh(name)
            if inner is mapping:
                inner = dict(mapping)
            inner[name] = Var(fresh)
            name = fresh
        elif name in inner:
            if inner is mapping:
                inner = dict(mapping)
            del inner[name]
        new.append(name)
    return new, inner


def subst_term(term, mapping, names, avoid=None):
    """`term` with `mapping` substituted.  `avoid` is `mapped_free(mapping)`
    of the top-level call, computed at the first binder when not given."""
    if isinstance(term, Var):
        return mapping.get(term.name, term)
    if isinstance(term, Lam):
        if _untouched(lam_info(term), mapping):
            return term
    elif not isinstance(term, (Splice, TupleT, Rec)):
        return term
    if avoid is None:
        avoid = mapped_free(mapping)
    if isinstance(term, Splice):
        inner = subst_term(term.inner, mapping, names, avoid)
        return term if inner is term.inner else Splice(inner)
    if isinstance(term, TupleT):
        items = tuple(subst_term(t, mapping, names, avoid) for t in term.items)
        if all(new is old for new, old in zip(items, term.items)):
            return term
        return TupleT(items)
    if isinstance(term, Lam):
        bound, inner = _rebind([p.name for p in term.params] + [term.stage],
                               mapping, avoid, names)
        params = [Param(name, p.packed) for name, p in zip(bound, term.params)]
        return Lam(params, bound[-1], subst_body(term.body, inner, names, avoid))
    (name,), inner = _rebind((term.name,), mapping, avoid, names)  # a Rec
    value = subst_term(term.value, inner, names, avoid)
    return term if value is term.value and name == term.name else Rec(name, value)


def subst_body(body, mapping, names, avoid=None):
    """A body equal to `body` with `mapping` substituted, sharing every
    subtree the mapping cannot reach; see `subst_term` for `avoid`."""
    if _untouched(body_info(body), mapping):
        return body
    form = body.form
    if avoid is None and isinstance(form, (PrimB, FixB)):
        avoid = mapped_free(mapping)
    stage = subst_stage(body.stage, mapping)
    if isinstance(form, App):
        new = App(
            subst_term(form.callee, mapping, names, avoid),
            tuple(subst_term(a, mapping, names, avoid) for a in form.args),
        )
    elif isinstance(form, PrimB):
        bound, inner = _rebind(form.outs + (form.cont_stage,), mapping, avoid, names)
        new = PrimB(
            prim_subst(form.expr, mapping, lambda t: subst_term(t, mapping, names, avoid)),
            tuple(bound[:-1]),
            bound[-1],
            subst_body(form.rest, inner, names, avoid),
        )
    else:
        # a `FixB`: the name scopes over the value and the rest, the stage
        # parameter over the rest only
        (name,), inner = _rebind((form.name,), mapping, avoid, names)
        value = subst_term(form.value, inner, names, avoid)
        (stage_param,), inner = _rebind((form.stage_param,), inner, avoid, names)
        new = FixB(stage_param, name, value, subst_body(form.rest, inner, names, avoid))
    return Body(stage, new)


# ---------------------------------------------------------------------------
# traversal

def bodies_in_term(term):
    if isinstance(term, Lam):
        yield term.body
    elif isinstance(term, TupleT):
        for t in term.items:
            yield from bodies_in_term(t)
    elif isinstance(term, Splice):
        yield from bodies_in_term(term.inner)


def child_bodies(body):
    form = body.form
    if isinstance(form, App):
        yield from bodies_in_term(form.callee)
        for a in form.args:
            yield from bodies_in_term(a)
    elif isinstance(form, PrimB):
        for t in form.expr.embedded_terms():
            yield from bodies_in_term(t)
        yield form.rest
    elif isinstance(form, FixB):
        yield from bodies_in_term(form.value)
        yield form.rest


def walk(body):
    """Post-order over the bodies reachable from `body`, on an explicit
    stack: for each body, the path from `body` down to it, a list the walk
    changes as it goes on."""
    path, pending = [body], [child_bodies(body)]
    while pending:
        for child in pending[-1]:
            path.append(child)
            pending.append(child_bodies(child))
            break
        else:
            yield path
            path.pop()
            pending.pop()


def postorder(body):
    """All bodies reachable from `body`, children before parents."""
    return (path[-1] for path in walk(body))


# ---------------------------------------------------------------------------
# alpha equivalence

def _quote_to_prim(term):
    if isinstance(term, Var):
        return PName(term.name)
    if isinstance(term, Int):  # as its rendering reads back
        return PInt(term.value) if term.value >= 0 else POp("-", (PInt(-term.value),))
    if isinstance(term, Str):
        return PStr(term.value)
    if isinstance(term, Bool):
        return POp("==", (PInt(1), PInt(1 if term.value else 0)))
    if isinstance(term, TupleT) and not any(isinstance(t, Splice) for t in term.items):
        return POp("[]", tuple(PQuote(t) for t in term.items))
    return None


def alpha_eq(a, b):
    """Structural equality of terms up to renaming of bound names."""
    return _alpha_term(a, b, {}, {})


def alpha_eq_body(a, b):
    return _alpha_body(a, b, {}, {})


def _match_name(na, nb, fwd, bwd):
    if na in fwd:
        return fwd[na] == nb and bwd.get(nb) == na
    if nb in bwd:
        return False
    return na == nb  # free names must agree literally


_UNBOUND = object()


def _bind_names(pairs, fwd, bwd):
    """Bind each name of `a` to its partner in `b` in the maps themselves;
    what they held before, for `_unbind` to restore when the scope of the
    binders is left.  A mismatch ends the whole comparison, so a scope left
    by one need not be restored."""
    saved = []
    for na, nb in pairs:
        saved.append((na, fwd.get(na, _UNBOUND), nb, bwd.get(nb, _UNBOUND)))
        fwd[na] = nb
        bwd[nb] = na
    return saved


def _unbind(saved, fwd, bwd):
    for na, old_a, nb, old_b in reversed(saved):
        if old_a is _UNBOUND:
            del fwd[na]
        else:
            fwd[na] = old_a
        if old_b is _UNBOUND:
            del bwd[nb]
        else:
            bwd[nb] = old_b


def _alpha_term(a, b, fwd, bwd):
    if type(a) is not type(b):
        return False
    if isinstance(a, Var):
        return _match_name(a.name, b.name, fwd, bwd)
    if isinstance(a, (Int, Str, Bool)):
        return a.value == b.value
    if isinstance(a, StageConst):
        return a.top == b.top
    if isinstance(a, Builtin):
        return a.name == b.name
    if isinstance(a, Splice):
        return _alpha_term(a.inner, b.inner, fwd, bwd)
    if isinstance(a, TupleT):
        return len(a.items) == len(b.items) and all(
            _alpha_term(x, y, fwd, bwd) for x, y in zip(a.items, b.items)
        )
    if isinstance(a, StageOp):  # an operator fixes the operand count
        return a.op == b.op and all(
            _alpha_term(x, y, fwd, bwd) for x, y in zip(a.args, b.args))
    if isinstance(a, Lam):
        if len(a.params) != len(b.params) or any(
                pa.packed != pb.packed for pa, pb in zip(a.params, b.params)):
            return False
        saved = _bind_names([*((pa.name, pb.name) for pa, pb in zip(a.params, b.params)),
                             (a.stage, b.stage)], fwd, bwd)
        same = _alpha_body(a.body, b.body, fwd, bwd)
        _unbind(saved, fwd, bwd)
        return same
    return a is b  # handles (EnvVal, FragVal, RetK, Rec) compare by identity


def _alpha_body(a, b, fwd, bwd):
    if not _alpha_term(a.stage, b.stage, fwd, bwd):
        return False
    fa, fb = a.form, b.form
    if type(fa) is not type(fb):
        return False
    if isinstance(fa, App):
        if len(fa.args) != len(fb.args):
            return False
        if not _alpha_term(fa.callee, fb.callee, fwd, bwd):
            return False
        return all(_alpha_term(x, y, fwd, bwd) for x, y in zip(fa.args, fb.args))
    if isinstance(fa, PrimB):
        if len(fa.outs) != len(fb.outs):
            return False
        ea = normalize_prim(fa.expr, _quote_to_prim)
        eb = normalize_prim(fb.expr, _quote_to_prim)
        if not prim_alpha_eq(ea, eb, lambda x, y: _match_name(x, y, fwd, bwd),
                             lambda x, y: _alpha_term(x, y, fwd, bwd)):
            return False
        saved = _bind_names([*zip(fa.outs, fb.outs), (fa.cont_stage, fb.cont_stage)],
                            fwd, bwd)
    else:  # a `FixB`
        saved = _bind_names([(fa.name, fb.name)], fwd, bwd)
        if not _alpha_term(fa.value, fb.value, fwd, bwd):
            return False  # a mismatch ends the comparison: no scope to undo
        saved += _bind_names([(fa.stage_param, fb.stage_param)], fwd, bwd)
    same = _alpha_body(fa.rest, fb.rest, fwd, bwd)
    _unbind(saved, fwd, bwd)
    return same

"""Term and body representation for the staged CPS calculus.

Terms are the argument-position values (variables, literals, lambdas,
tuples, opaque handles).  A lambda body is a mutable `Body` cell holding a
stage expression plus one of the body forms (application, primitive
expression, fix, or the inert result marker used by host continuations).
Evaluation rewrites bodies in place; terms themselves are immutable and
may be shared freely.

Substitution shares what it cannot change.  Every `Body` and `Lam` caches
one pair, computed on first use from its children's pairs: its free names,
and whether it holds an active body (one whose stage evaluates to top),
counting bodies kept in environments, fragment subjects and `Rec` values.
A subtree whose free names miss the mapping and that holds no active body
comes back as it is: nothing in it can run, so nothing can rewrite it in
place at one site and not at another.  Every subtree that is copied gets a
globally fresh name for each binder, so capture can never occur and, after
any reduction, a name that still appears as a bare `Var` is exactly a
symbolic (not-yet-supplied) value.

Execution can only shrink a subtree's free names, because the free names
of environments and fragments count too, and a quiet subtree stays quiet
until a substitution copies it.  A stale cached pair is therefore a
superset and an over-estimate of activity, which is safe for both uses.
"""

from dataclasses import dataclass, field

from .errors import UnboundStageName
from .prims import (PInt, PList, PName, PQuote, PrimExpr, PStr,
                    normalize_prim, prim_alpha_eq, prim_leaves, prim_subst)

# ---------------------------------------------------------------------------
# stage expressions


class StageExpr:
    __slots__ = ()


@dataclass(frozen=True)
class SConst(StageExpr):
    top: bool


@dataclass(frozen=True)
class SRef(StageExpr):
    name: str


@dataclass(frozen=True)
class SAnd(StageExpr):
    left: StageExpr
    right: StageExpr


@dataclass(frozen=True)
class SOr(StageExpr):
    left: StageExpr
    right: StageExpr


@dataclass(frozen=True)
class SNot(StageExpr):
    inner: StageExpr


TOP = SConst(True)
BOTTOM = SConst(False)


# ---------------------------------------------------------------------------
# terms


class Term:
    __slots__ = ()


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Int(Term):
    value: int


@dataclass(frozen=True)
class Str(Term):
    value: str


@dataclass(frozen=True)
class Bool(Term):
    value: bool


@dataclass(frozen=True)
class StageConst(Term):
    top: bool


@dataclass(frozen=True)
class TupleT(Term):
    items: tuple  # elements may include Splice


@dataclass(frozen=True)
class Splice(Term):
    inner: Term


@dataclass(frozen=True)
class Param:
    name: str
    packed: bool = False


class Lam(Term):
    """Lambda with an implicit staging parameter.  Mutable because pack
    refinement may narrow its parameter list in place (see evaluator)."""

    __slots__ = ("params", "stage", "body", "info")

    def __init__(self, params, stage, body):
        self.params = tuple(params)
        self.stage = stage
        self.body = body
        self.info = None  # (body info it was derived from, pair); see lam_info

    def __repr__(self):
        ps = ", ".join(("!" if p.packed else "") + p.name for p in self.params)
        return f"Lam(({ps})[{self.stage}])"


@dataclass(frozen=True)
class Builtin(Term):
    name: str


@dataclass(frozen=True, eq=False)
class EnvVal(Term):
    entries: tuple  # ((key, term), ...) insertion-ordered, persistent
    info: tuple = field(default=None, init=False, repr=False)  # see term_info

    def insert(self, key, term):
        kept = tuple((k, v) for k, v in self.entries if k != key)
        return EnvVal(kept + ((key, term),))

    def lookup(self, key):
        for k, v in self.entries:
            if k == key:
                return v
        return None


@dataclass(frozen=True, eq=False)
class FragVal(Term):
    fragment: object


@dataclass(frozen=True, eq=False)
class RetK(Term):
    tag: int


@dataclass(frozen=True, eq=False)
class Rec(Term):
    name: str
    value: Term


# ---------------------------------------------------------------------------
# body forms


class Form:
    __slots__ = ()


@dataclass(frozen=True)
class App(Form):
    callee: Term
    args: tuple


@dataclass(frozen=True)
class PrimB(Form):
    expr: PrimExpr
    outs: tuple  # bound names, usually one
    cont_stage: str  # staging parameter of the continuation; may be None
    rest: "Body"


@dataclass(frozen=True)
class FixB(Form):
    stage_param: str
    name: str
    value: Term
    rest: "Body"


@dataclass(frozen=True)
class Inert(Form):
    """Executed host-continuation site: keeps its argument terms rooted in
    the tree so nested bodies continue to evaluate, but never runs again."""

    tag: object
    args: tuple


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

    def __repr__(self):
        return f"Body({self.stage!r}, {type(self.form).__name__})"


# ---------------------------------------------------------------------------
# stage evaluation

def stage_value(expr):
    """Post-substitution stage evaluation: a surviving SRef is a symbolic
    name, hence bottom."""
    if isinstance(expr, SConst):
        return expr.top
    if isinstance(expr, SRef):
        return False
    if isinstance(expr, SAnd):
        return stage_value(expr.left) and stage_value(expr.right)
    if isinstance(expr, SOr):
        return stage_value(expr.left) or stage_value(expr.right)
    if isinstance(expr, SNot):
        return not stage_value(expr.inner)
    raise TypeError(f"not a stage expression: {expr!r}")


def eval_stage(expr, bindings):
    """Explicit-environment variant used by the public API and tests.

    A name bound to a concrete (non-symbolic) value counts as top; a name
    bound to a symbolic value is bottom; an unbound name is an error.
    """
    if isinstance(expr, SConst):
        return expr.top
    if isinstance(expr, SRef):
        if expr.name not in bindings:
            raise UnboundStageName(expr.name)
        val = bindings[expr.name]
        if isinstance(val, StageConst):
            return val.top
        if isinstance(val, SConst):
            return val.top
        if isinstance(val, Var):
            return False
        if val == "symbolic":
            return False
        return True
    if isinstance(expr, SAnd):
        return eval_stage(expr.left, bindings) and eval_stage(expr.right, bindings)
    if isinstance(expr, SOr):
        return eval_stage(expr.left, bindings) or eval_stage(expr.right, bindings)
    if isinstance(expr, SNot):
        return not eval_stage(expr.inner, bindings)
    raise TypeError(f"not a stage expression: {expr!r}")


def term_to_stage(term):
    """A term landing in stage position: stage constants keep their value,
    a still-symbolic variable stays a reference, any other concrete value
    is top."""
    if isinstance(term, StageConst):
        return SConst(term.top)
    if isinstance(term, Var):
        return SRef(term.name)
    return TOP


# ---------------------------------------------------------------------------
# free names and activity

def _stage_names(expr, names):
    if isinstance(expr, SRef):
        names.add(expr.name)
    elif isinstance(expr, (SAnd, SOr)):
        _stage_names(expr.left, names)
        _stage_names(expr.right, names)
    elif isinstance(expr, SNot):
        _stage_names(expr.inner, names)


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
            object.__setattr__(term, "info", (frozenset(inner), active))
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
        _stage_names(body.stage, names)
        active = stage_value(body.stage)
        form = body.form
        if isinstance(form, (App, Inert)):
            for t in (form.callee,) + form.args if isinstance(form, App) else form.args:
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
        body.info = (frozenset(names), active)
    return body.info


def lam_info(lam):
    """The (free names, holds an active body) pair of a lambda, cached
    with the body pair it was derived from."""
    derived = body_info(lam.body)
    if lam.info is None or lam.info[0] is not derived:
        bound = [p.name for p in lam.params]
        bound.append(lam.stage)
        lam.info = (derived, (derived[0].difference(bound), derived[1]))
    return lam.info[1]


def _untouched(info, mapping):
    free, active = info
    return not active and free.isdisjoint(mapping)


# ---------------------------------------------------------------------------
# substitution

def subst_stage(expr, mapping):
    if isinstance(expr, SConst):
        return expr
    if isinstance(expr, SRef):
        if expr.name in mapping:
            return term_to_stage(mapping[expr.name])
        return expr
    if isinstance(expr, SAnd):
        return SAnd(subst_stage(expr.left, mapping), subst_stage(expr.right, mapping))
    if isinstance(expr, SOr):
        return SOr(subst_stage(expr.left, mapping), subst_stage(expr.right, mapping))
    if isinstance(expr, SNot):
        return SNot(subst_stage(expr.inner, mapping))
    raise TypeError(f"not a stage expression: {expr!r}")


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
        binders = form.outs if form.cont_stage is None else form.outs + (form.cont_stage,)
        bound, inner = _rebind(binders, mapping, avoid, names)
        new = PrimB(
            prim_subst(form.expr, mapping, lambda t: subst_term(t, mapping, names, avoid)),
            tuple(bound[:len(form.outs)]),
            None if form.cont_stage is None else bound[-1],
            subst_body(form.rest, inner, names, avoid),
        )
    elif isinstance(form, FixB):
        (stage_param, name), inner = _rebind((form.stage_param, form.name),
                                             mapping, avoid, names)
        new = FixB(
            stage_param,
            name,
            subst_term(form.value, inner, names, avoid),
            subst_body(form.rest, inner, names, avoid),
        )
    elif isinstance(form, Inert):
        new = Inert(form.tag, tuple(subst_term(a, mapping, names, avoid) for a in form.args))
    else:
        raise TypeError(f"unknown body form: {form!r}")
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
    elif isinstance(form, Inert):
        for a in form.args:
            yield from bodies_in_term(a)


def postorder(body):
    """All bodies reachable from `body`, children before parents."""
    for child in child_bodies(body):
        yield from postorder(child)
    yield body


# ---------------------------------------------------------------------------
# alpha equivalence

def _quote_to_prim(term):
    if isinstance(term, Var):
        return PName(term.name)
    if isinstance(term, Int):
        return PInt(term.value)
    if isinstance(term, Str):
        return PStr(term.value)
    if isinstance(term, TupleT) and not any(isinstance(t, Splice) for t in term.items):
        return PList(tuple(PQuote(t) for t in term.items))
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


def _bind_name(na, nb, fwd, bwd):
    fwd = dict(fwd)
    bwd = dict(bwd)
    fwd[na] = nb
    bwd[nb] = na
    return fwd, bwd


def _alpha_stage(a, b, fwd, bwd):
    if type(a) is not type(b):
        return False
    if isinstance(a, SConst):
        return a.top == b.top
    if isinstance(a, SRef):
        return _match_name(a.name, b.name, fwd, bwd)
    if isinstance(a, (SAnd, SOr)):
        return _alpha_stage(a.left, b.left, fwd, bwd) and _alpha_stage(a.right, b.right, fwd, bwd)
    if isinstance(a, SNot):
        return _alpha_stage(a.inner, b.inner, fwd, bwd)
    return False


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
    if isinstance(a, Lam):
        if len(a.params) != len(b.params):
            return False
        for pa, pb in zip(a.params, b.params):
            if pa.packed != pb.packed:
                return False
            fwd, bwd = _bind_name(pa.name, pb.name, fwd, bwd)
        fwd, bwd = _bind_name(a.stage, b.stage, fwd, bwd)
        return _alpha_body(a.body, b.body, fwd, bwd)
    return a is b  # handles (EnvVal, FragVal, RetK, Rec) compare by identity


def _alpha_body(a, b, fwd, bwd):
    if not _alpha_stage(a.stage, b.stage, fwd, bwd):
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
        if (fa.cont_stage is None) != (fb.cont_stage is None):
            return False
        ea = normalize_prim(fa.expr, _quote_to_prim)
        eb = normalize_prim(fb.expr, _quote_to_prim)
        if not prim_alpha_eq(ea, eb, lambda x, y: _match_name(x, y, fwd, bwd),
                             lambda x, y: _alpha_term(x, y, fwd, bwd)):
            return False
        for oa, ob in zip(fa.outs, fb.outs):
            fwd, bwd = _bind_name(oa, ob, fwd, bwd)
        if fa.cont_stage is not None:
            fwd, bwd = _bind_name(fa.cont_stage, fb.cont_stage, fwd, bwd)
        return _alpha_body(fa.rest, fb.rest, fwd, bwd)
    if isinstance(fa, FixB):
        fwd, bwd = _bind_name(fa.stage_param, fb.stage_param, fwd, bwd)
        fwd, bwd = _bind_name(fa.name, fb.name, fwd, bwd)
        return _alpha_term(fa.value, fb.value, fwd, bwd) and _alpha_body(fa.rest, fb.rest, fwd, bwd)
    if isinstance(fa, Inert):
        return len(fa.args) == len(fb.args) and all(
            _alpha_term(x, y, fwd, bwd) for x, y in zip(fa.args, fb.args)
        )
    return False

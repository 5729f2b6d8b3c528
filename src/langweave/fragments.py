"""Fragment-function code building.

A fragment wraps subject code (a lambda whose trailing parameters are its
unfilled continuations) together with a slot per continuation.  Merging
substitutes the right fragment for the left fragment's first unfilled slot,
walking depth-first so nested fragments fill before later siblings.

Applying a zero-hole fragment invokes the subject with the caller's stage
argument bound to the subject's implicit staging parameter (this is how
`finalize` triggers the build-time chain) and one wrapper closure appended
per slot.  Each wrapper repacks whatever arguments the chain passes and
forwards them to the child subject, so subjects with differing parameter
shapes compose without knowing each other's layout.
"""

from .errors import (NegativeArity, NonClosureSubject, UnfilledContinuations,
                     ZeroArityLeft)
from .terms import (App, Body, FragVal, Lam, Param, SConst, Splice, SRef,
                    StageConst, Var)

HOLE = None


class Fragment:
    """Immutable; arity (the count of unfilled continuations anywhere in
    the slot tree) is fixed at construction."""

    __slots__ = ("subject", "slots", "arity")

    def __init__(self, subject, slots):
        self.subject = subject
        self.slots = tuple(slots)
        self.arity = sum(1 if s is HOLE else s.arity for s in self.slots)

    @property
    def build_stage(self):
        return self.subject.stage

    def __repr__(self):
        return f"Fragment(arity={self.arity})"


def build(arity, subject):
    if arity < 0:
        raise NegativeArity(f"fragment arity must be non-negative, got {arity}")
    if not isinstance(subject, Lam):
        raise NonClosureSubject(f"fragment subject must be a lambda, got {type(subject).__name__}")
    return Fragment(subject, (HOLE,) * arity)


def fragment_arity(fragment):
    return fragment.arity


def _fill_first(fragment, child):
    slots = list(fragment.slots)
    for i, slot in enumerate(slots):
        if slot is HOLE:
            slots[i] = child
            return Fragment(fragment.subject, tuple(slots))
        if slot.arity > 0:
            slots[i] = _fill_first(slot, child)
            return Fragment(fragment.subject, tuple(slots))
    raise ZeroArityLeft("no unfilled continuation to merge into")


def merge(left, right):
    if left.arity < 1:
        raise ZeroArityLeft("left fragment of a merge needs at least one unfilled continuation")
    return _fill_first(left, right)


def child_wrapper(fragment, names):
    """Closure standing in for a merged continuation: receives whatever the
    parent chain passes, repacks it, and invokes the child subject (with its
    own slot wrappers appended).  Invoking it stages the child's build chain
    on, which is what makes merged continuations run early and vanish from
    residual code."""
    ft = names.fresh("ft")
    ys = names.fresh("args")
    bt = names.fresh("bt")
    inner_args = (Var(ft), Splice(Var(ys))) + tuple(
        child_wrapper(s, names) for s in fragment.slots
    )
    body = Body(SRef(bt), App(fragment.subject, inner_args))
    return Lam((Param(ft), Param(ys, packed=True)), bt, body)


def subject_call_args(fragment, names, lead_args):
    """Argument list for invoking the fragment's subject directly."""
    if any(s is HOLE for s in fragment.slots):
        raise UnfilledContinuations(
            f"fragment still has {fragment.arity} unfilled continuation(s)")
    return tuple(lead_args) + tuple(child_wrapper(s, names) for s in fragment.slots)


def finalize_wrapper(fragment, names):
    """The residual shell `(!args)[ft]{ fragment TOP ft !args }`.

    Its body is staged on immediately, so the build-time chain fires as soon
    as the evaluator reaches it, while everything staged on `ft` survives
    until the wrapper itself is invoked."""
    if fragment.arity != 0:
        raise UnfilledContinuations(
            f"finalize requires arity 0, fragment has {fragment.arity}")
    ft = names.fresh("ft")
    packed = names.fresh("args")
    body = Body(SConst(True), App(FragVal(fragment),
                                  (StageConst(True), Var(ft), Splice(Var(packed)))))
    return Lam((Param(packed, packed=True),), ft, body)


def finalize(fragment, session):
    """Host-level finalize: build the wrapper and run it to normal form."""
    from .evaluator import run_term_to_normal
    wrapper = finalize_wrapper(fragment, session.names)
    return run_term_to_normal(wrapper, session)

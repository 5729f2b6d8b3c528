"""Fragment-function code building.

A fragment wraps subject code (a lambda whose trailing parameters are its
unfilled continuations) together with a slot per continuation.  Merging
fills the left fragment's first unfilled slot with the right fragment,
first in depth-first order, so nested fragments fill before later siblings.
A merge only records its two parts and takes constant time; the slot tree
is nested once, when `slots` is first read: the left spine's holes are
filled in order through one queue, which gives the same tree as filling
the first hole at every merge.

Applying a zero-hole fragment invokes the subject with the caller's stage
argument bound to the subject's implicit staging parameter (this is how
`finalize` triggers the build-time chain) and one wrapper closure appended
per slot.  Each wrapper repacks whatever arguments the chain passes and
forwards them to the child subject, so subjects with differing parameter
shapes compose without knowing each other's layout.
"""

from collections import deque

from .errors import (NegativeArity, NonClosureSubject, UnfilledContinuations,
                     ZeroArityLeft)
from .terms import (App, Body, FragVal, Lam, Param, SConst, Splice, SRef,
                    StageConst, Var, lam_info)

HOLE = None


class Fragment:
    """Immutable; arity (the count of unfilled continuations anywhere in
    the slot tree) is fixed at construction.  A merged fragment keeps its
    two parts and nests its slot tree when `slots` is first read."""

    __slots__ = ("subject", "arity", "_slots", "_parts", "_pair")

    def __init__(self, subject, slots, parts=None):
        self.subject = subject
        self._parts = parts  # (left, right) of a merge
        if parts is None:
            self._slots = tuple(slots)
            self.arity = sum(1 if s is HOLE else s.arity for s in self._slots)
        else:
            self._slots = None
            self.arity = parts[0].arity + parts[1].arity - 1
        self._pair = None

    @property
    def slots(self):
        if self._slots is None:
            _, slots = _open(self, deque())
            self._slots = tuple(_close(s) for s in slots)
        return self._slots

    def _info(self):
        """(free names, holds an active body) over the subject and every
        filled slot, cached on first use; read by `terms.term_info`."""
        if self._pair is None:
            if self._parts is not None:
                parts = [part._info() for part in self._parts]
            else:
                parts = [lam_info(self.subject)]
                parts.extend(s._info() for s in self._slots if s is not HOLE)
            self._pair = (frozenset().union(*(free for free, _ in parts)),
                          any(active for _, active in parts))
        return self._pair

    def __repr__(self):
        return f"Fragment(arity={self.arity})"


def _open(fragment, holes):
    """The slot tree of a fragment with an unfilled slot, as (subject, slot
    list) nodes; appends its unfilled slots to `holes` as (slot list,
    index), first hole first.  Subtrees with no unfilled slot are shared."""
    rights = []
    while fragment._slots is None:
        fragment, right = fragment._parts
        rights.append(right)
    slots = list(fragment._slots)
    own = deque()
    for i, slot in enumerate(slots):
        if slot is HOLE:
            own.append((slots, i))
        elif slot.arity > 0:
            slots[i] = _open(slot, own)
    for right in reversed(rights):  # the innermost merge fills first
        filled, i = own.popleft()
        if right.arity == 0:
            filled[i] = right
        else:
            inner = deque()
            filled[i] = _open(right, inner)
            own.extendleft(reversed(inner))
    holes.extend(own)
    return fragment.subject, slots


def _close(node):
    if node is HOLE or isinstance(node, Fragment):
        return node
    subject, slots = node
    return Fragment(subject, tuple(_close(s) for s in slots))


def build(arity, subject):
    if arity < 0:
        raise NegativeArity(f"fragment arity must be non-negative, got {arity}")
    if not isinstance(subject, Lam):
        raise NonClosureSubject(f"fragment subject must be a lambda, got {type(subject).__name__}")
    return Fragment(subject, (HOLE,) * arity)


def fragment_arity(fragment):
    return fragment.arity


def merge(left, right):
    if left.arity < 1:
        raise ZeroArityLeft("left fragment of a merge needs at least one unfilled continuation")
    return Fragment(left.subject, None, (left, right))


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

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
shapes compose without knowing each other's layout.  The wrappers' names
are minted by one pre-order walk of the slot tree (`wrapper_names`), which
a caller that needs only the names minted runs alone; each wrapper and its
body are made with their cached pairs, from the pairs of the subject and
of the wrappers below it.
"""

from .errors import (NegativeArity, NonClosureSubject, UnfilledContinuations,
                     ZeroArityLeft)
from .terms import (NO_NAMES, TOP, App, Body, FragVal, Lam, Param, Splice, Var, lam_info,
                    set_lam_info)

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
            self._slots = _open(self)
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
            self._pair = (frozenset().union(*(free for free, _ in parts)) or NO_NAMES,
                          any(active for _, active in parts))
        return self._pair


def _open(fragment):
    """The slots of a merged fragment, nested with an explicit stack.

    `front` holds what is still open, first hole on top: an unfilled slot,
    or a slot holding a fragment to open in its place.  Opening a fragment
    lays out its base's slots and pushes the right parts of its merges on
    `fills`, innermost first.  The next fill takes the first hole, once
    everything opened above it has been filled in turn.  Subtrees with no
    unfilled slot are shared.  Each opened node is closed into a `Fragment`
    after its children, in reverse order of opening."""
    front = [(None, 0, fragment)]  # (slot list, index, HOLE or fragment)
    fills, opened = [], []
    while front:
        slots, i, frag = front.pop()
        if frag is HOLE:
            if fills:
                right = fills[-1].pop()
                if not fills[-1]:
                    fills.pop()
                if right.arity == 0:
                    slots[i] = right
                else:
                    front.append((slots, i, right))
            continue
        rights = []
        while frag._slots is None:
            frag, right = frag._parts
            rights.append(right)
        node = list(frag._slots)
        opened.append((slots, i, frag.subject, node))
        front.extend((node, j, slot) for j, slot in reversed(list(enumerate(node)))
                     if slot is HOLE or slot.arity > 0)
        if rights:
            fills.append(rights)
    for slots, i, subject, node in reversed(opened[1:]):
        slots[i] = Fragment(subject, node)
    return tuple(opened[0][3])


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


def wrapper_names(fragment, names):
    """The fragment's slots in pre-order, each with the names of its
    wrapper (`ft`, `args`, `bt`), minted in that order.  This walk is all
    of `subject_call_args` that moves the fresh-name counter: a caller that
    needs only the counter moved, as a call that must first narrow a pack
    does, stops here."""
    if fragment.arity:
        raise UnfilledContinuations(
            f"fragment still has {fragment.arity} unfilled continuation(s)")
    order, todo = [], list(reversed(fragment.slots))
    while todo:
        slot = todo.pop()
        order.append((slot, names.fresh("ft"), names.fresh("args"), names.fresh("bt")))
        todo.extend(reversed(slot.slots))
    return order


def child_wrappers(order):
    """One closure per slot of `order` (see `wrapper_names`), standing in
    for a merged continuation: it receives whatever the parent chain
    passes, repacks it, and invokes the child subject with its own slot
    wrappers appended.  Invoking it stages the child's build chain on,
    which is what makes merged continuations run early and vanish from
    residual code.  The top-level wrappers are returned, in order.

    The closures are built in reverse pre-order, so each finds the closures
    of its children already made.  Each body and wrapper gets its cached
    pair (`set_lam_info`) as it is made, from the subject's pair and its
    children's, with no walk: the body `@bt: subject ft !args w1..wn` has
    their free names and `ft`, `args` and `bt`, and is active exactly when
    one of them is."""
    made = []
    for fragment, ft, ys, bt in reversed(order):
        free, active = lam_info(fragment.subject)
        args = [Var(ft), Splice(Var(ys))]
        for _ in fragment.slots:
            child = made.pop()
            args.append(child)
            child_free, child_active = lam_info(child)  # cached when it was made
            free = free.union(child_free) if child_free else free
            active = active or child_active
        body = Body(Var(bt), App(fragment.subject, tuple(args)))
        wrapper = Lam((Param(ft), Param(ys, packed=True)), bt, body)
        set_lam_info(wrapper, free.union((ft, ys, bt)), active)
        made.append(wrapper)
    return tuple(reversed(made))


def subject_call_args(fragment, names, lead_args):
    """Argument list for invoking the fragment's subject directly."""
    return tuple(lead_args) + child_wrappers(wrapper_names(fragment, names))


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
    body = Body(TOP, App(FragVal(fragment), (TOP, Var(ft), Splice(Var(packed)))))
    return Lam((Param(packed, packed=True),), ft, body)


def finalize(fragment, session):
    """Host-level finalize: build the wrapper and run it to normal form."""
    from .evaluator import run_term_to_normal
    wrapper = finalize_wrapper(fragment, session.names)
    return run_term_to_normal(wrapper, session)

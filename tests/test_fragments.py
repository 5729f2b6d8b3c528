"""Fragment building: arity arithmetic, merge order, finalize residuals."""

import sys
from collections import deque
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langweave import fragments
from langweave.errors import (NegativeArity, NonClosureSubject,
                              UnfilledContinuations, ZeroArityLeft)
from langweave.evaluator import Session, apply_value
from langweave.printer import print_core
from langweave.reader import read_core
from langweave.terms import (App, Body, FragVal, Int, Lam, Param, Splice, Str, Var,
                             alpha_eq, body_info, lam_info, term_info)

FIXTURES = Path(__file__).parent / "fixtures"


def rd(src, sess):
    return read_core(src, sess.names)


def _subject(sess, conts):
    params = ", ".join(["'ft'", "val", "exit"] + [f"c{i}" for i in range(conts)])
    return rd(f"({params})'[bt]' {{ '@ft:' exit val }}", sess)


def test_build_wraps_without_evaluating():
    sess = Session()
    frag = fragments.build(2, _subject(sess, 2))
    assert frag.arity == 2
    assert sess.steps == 0


def test_build_errors():
    sess = Session()
    with pytest.raises(NegativeArity):
        fragments.build(-1, _subject(sess, 0))
    with pytest.raises(NonClosureSubject):
        fragments.build(0, Int(3))


def test_arity_arithmetic():
    sess = Session()
    f = fragments.build(1, _subject(sess, 1))
    g = fragments.build(2, _subject(sess, 2))
    assert fragments.merge(f, g).arity == 2  # 1 + 2 - 1
    z = fragments.build(0, _subject(sess, 0))
    assert fragments.merge(g, z).arity == 1
    assert fragments.fragment_arity(f) == 1


def test_merge_requires_left_slot():
    sess = Session()
    z = fragments.build(0, _subject(sess, 0))
    g = fragments.build(1, _subject(sess, 1))
    with pytest.raises(ZeroArityLeft):
        fragments.merge(z, g)


def test_merge_never_mutates():
    sess = Session()
    f = fragments.build(2, _subject(sess, 2))
    g = fragments.build(0, _subject(sess, 0))
    merged = fragments.merge(f, g)
    assert f.arity == 2 and merged.arity == 1
    assert fragments.merge(f, g).arity == 1  # f reusable


def test_signum_merge_arity_sequence():
    sess = Session()
    if_pos = fragments.build(2, _subject(sess, 2))
    if_neg = fragments.build(2, _subject(sess, 2))
    fp = fragments.build(0, _subject(sess, 0))
    fz = fragments.build(0, _subject(sess, 0))
    fn = fragments.build(0, _subject(sess, 0))
    arities = []
    f = fragments.merge(if_pos, fp)
    arities.append(f.arity)
    f = fragments.merge(f, if_neg)
    arities.append(f.arity)
    f = fragments.merge(f, fn)
    arities.append(f.arity)
    f = fragments.merge(f, fz)
    arities.append(f.arity)
    assert arities == [1, 2, 1, 0]


def test_finalize_requires_arity_zero():
    sess = Session()
    f = fragments.build(1, _subject(sess, 1))
    with pytest.raises(UnfilledContinuations):
        fragments.finalize(f, sess)


def test_finalize_constant_function():
    sess = Session()
    frag = fragments.build(0, rd("('ft', exit)'[bt]' { '@ft:' exit 42 }", sess))
    residual = fragments.finalize(frag, sess)
    assert apply_value(residual, [], Session()) == [Int(42)]


def test_signum_pipeline_matches_reference_and_behaves():
    sess = Session(seed=0)
    creator = read_core((FIXTURES / "signum_script.core").read_text(), sess.names)
    residual = apply_value(creator, [], sess)[0]
    expected = read_core((FIXTURES / "signum_residual.core").read_text())
    assert alpha_eq(residual, expected)
    for value, want in ((5, 1), (0, 0), (-3, -1)):
        out = apply_value(residual, [Int(value)], Session(seed=100))
        assert out == [Int(want)]


def test_residual_contains_no_active_bodies():
    sess = Session(seed=0)
    creator = read_core((FIXTURES / "signum_script.core").read_text(), sess.names)
    residual = apply_value(creator, [], sess)[0]
    from langweave.terms import postorder, stage_value
    assert all(not stage_value(b.stage) for b in postorder(residual.body))


def test_merge_identity_fragments_behaves_like_one():
    # oracle: run both residuals on the same arguments and compare outputs
    def identity_chain(n):
        sess = Session(seed=3)
        ident = "('ft', !args, cont)'[b]' { '@b:' cont 'ft' !args }"
        frag = fragments.build(1, rd(ident, sess))
        for _ in range(n - 1):
            frag = fragments.merge(frag, fragments.build(1, rd(ident, sess)))
        fend = fragments.build(
            0, rd("('ft', a, b, c, end)'[bt]' { '@ft:' end a b c }", sess))
        return fragments.finalize(fragments.merge(frag, fend), sess)

    args = [Int(1), Int(2), Int(3)]
    single = apply_value(identity_chain(1), args, Session())
    double = apply_value(identity_chain(2), args, Session())
    assert single == double == args


def test_minusdiv_chain_reproduces_reference_listing():
    sess = Session(seed=0)
    init = fragments.build(1, rd("(!args, cont)'[b]' { '@b:' cont !args }", sess))

    def push(v):
        return fragments.build(1, rd(
            f"('ft', !args, cont)'[b]' {{ '@b:' cont 'ft' {v} !args }}", sess))

    def binop(op):
        return fragments.build(1, rd(f"""
            ('ft', r, l, !args, cont)'[bt]' {{
              '@ft:' "l{op}r" (res)'[ft]'
              '@bt:' cont 'ft' res !args
            }}""", sess))

    fend = fragments.build(0, rd("('ft', v, end)'[bt]' { '@ft:' end v }", sess))
    chain = init
    for frag in (push(1), push(4), push(2), binop("/"), binop("-"),
                 push(3), binop("-"), fend):
        chain = fragments.merge(chain, frag)
    assert chain.arity == 0

    residual = fragments.finalize(chain, sess)
    expected = read_core("""
    (end)'[ft]' {
      '@ft:' "4/2" (quot)'[ft2]'
      '@ft2:' "1-quot" (diff1)'[ft3]'
      '@ft3:' "diff1-3" (diff2)'[ft4]'
      '@ft4:' end diff2
    }
    """)
    assert alpha_eq(residual, expected)
    assert apply_value(residual, [], Session()) == [Int(-4)]


def test_fragment_surface_is_opaque():
    # the public surface exposes construction, merging, finalizing, and the
    # arity query; nothing that inspects a partner's structure
    public = {n for n in dir(fragments) if not n.startswith("_")}
    assert {"build", "merge", "finalize", "fragment_arity"} <= public
    frag_attrs = {n for n in dir(fragments.Fragment) if not n.startswith("_")}
    assert frag_attrs <= {"subject", "slots", "arity"}


# ---------------------------------------------------------------------------
# lazy nesting against eager first-hole filling


class _Eager:
    """The eager slot tree: every merge fills the first hole at once."""

    def __init__(self, subject, slots):
        self.subject = subject
        self.slots = tuple(slots)
        self.arity = sum(1 if s is None else s.arity for s in self.slots)


def _fill_first(fragment, child):
    slots = list(fragment.slots)
    for i, slot in enumerate(slots):
        if slot is None:
            slots[i] = child
            return _Eager(fragment.subject, slots)
        if slot.arity > 0:
            slots[i] = _fill_first(slot, child)
            return _Eager(fragment.subject, slots)
    raise AssertionError("no hole")


def _shape(fragment):
    """(subject identity, slot shapes); a hole is None."""
    return (id(fragment.subject),
            tuple(None if s is None else _shape(s) for s in fragment.slots))


ops = st.lists(st.one_of(
    st.tuples(st.just("build"), st.integers(0, 3)),
    st.tuples(st.just("merge"), st.integers(0, 99), st.integers(0, 99)),
    st.tuples(st.just("slots"), st.integers(0, 99)),
), min_size=1, max_size=40)


@settings(max_examples=200, deadline=None, database=None)
@given(ops)
def test_lazy_nesting_equals_eager_first_hole_filling(program):
    sess = Session()
    pool = []  # (fragment, eager model)
    for op in program:
        if op[0] == "build" or not pool:
            arity = op[1] if op[0] == "build" else 1
            subject = _subject(sess, arity)
            pool.append((fragments.build(arity, subject), _Eager(subject, (None,) * arity)))
        elif op[0] == "merge":
            (left, left_model), (right, right_model) = pool[op[1] % len(pool)], pool[op[2] % len(pool)]
            if left.arity == 0:
                with pytest.raises(ZeroArityLeft):
                    fragments.merge(left, right)
                continue
            pool.append((fragments.merge(left, right), _fill_first(left_model, right_model)))
        else:  # nest one fragment early, so later merges build on a nested spine
            fragment, model = pool[op[1] % len(pool)]
            assert _shape(fragment) == _shape(model)
    for fragment, model in pool:
        assert fragment.arity == model.arity
        assert _shape(fragment) == _shape(model)


def test_fragment_merged_twice_stays_unchanged():
    sess = Session()
    left = fragments.build(2, _subject(sess, 2))
    one = fragments.build(1, _subject(sess, 1))
    zero = fragments.build(0, _subject(sess, 0))
    first, second = fragments.merge(left, one), fragments.merge(left, zero)
    assert left.arity == 2 and left.slots == (None, None)
    assert _shape(first) == (id(left.subject), ((id(one.subject), (None,)), None))
    assert second.arity == 1 and second.slots == (zero, None)
    assert first.slots is first.slots  # nested once
    twice = fragments.merge(first, first)  # one fragment as both parts
    assert twice.arity == 3
    assert _shape(twice.slots[0].slots[0]) == _shape(first)
    assert _shape(first) == (id(left.subject), ((id(one.subject), (None,)), None))


# ---------------------------------------------------------------------------
# nesting and wrapping with explicit stacks


def _merged(shape, n, subjects):
    """A finished fragment of n merges: "left" merges each new fragment
    into the chain built so far (as the code-building packs do), "right"
    merges the chain into each new fragment, and "two holes" fills the
    first of two holes every time, then closes the holes left over."""
    build, merge = fragments.build, fragments.merge
    if shape == "left":
        chain = build(1, subjects[1])
        for _ in range(n):
            chain = merge(chain, build(1, subjects[1]))
        return merge(chain, build(0, subjects[0]))
    if shape == "right":
        chain = build(0, subjects[0])
        for _ in range(n):
            chain = merge(build(1, subjects[1]), chain)
        return merge(build(1, subjects[1]), chain)
    chain = build(2, subjects[2])
    for _ in range(n):
        chain = merge(chain, build(2, subjects[2]))
    while chain.arity:
        chain = merge(chain, build(0, subjects[0]))
    return chain


def _recursive_call_args(fragment, names):
    """`subject_call_args` as it was written with recursion: the slot tree
    nested by one call per merged fragment, and one wrapper per slot in
    pre-order, each minting `ft`, `args` and `bt`."""

    def open_(fragment, holes):
        rights = []
        while fragment._slots is None:
            fragment, right = fragment._parts
            rights.append(right)
        slots = list(fragment._slots)
        own = deque()
        for i, slot in enumerate(slots):
            if slot is None:
                own.append((slots, i))
            elif slot.arity > 0:
                slots[i] = open_(slot, own)
        for right in reversed(rights):
            filled, i = own.popleft()
            if right.arity == 0:
                filled[i] = right
            else:
                inner = deque()
                filled[i] = open_(right, inner)
                own.extendleft(reversed(inner))
        holes.extend(own)
        return fragment.subject, slots

    def opened(node):  # a fragment, or an opened (subject, slots) pair
        if not isinstance(node, fragments.Fragment):
            return node
        if node._slots is not None:
            return node.subject, node._slots
        return open_(node, deque())

    def wrapper(node):
        subject, slots = opened(node)
        ft, ys, bt = names.fresh("ft"), names.fresh("args"), names.fresh("bt")
        inner = (Var(ft), Splice(Var(ys))) + tuple(wrapper(s) for s in slots)
        return Lam((Param(ft), Param(ys, packed=True)), bt, Body(Var(bt), App(subject, inner)))

    return tuple(wrapper(s) for s in opened(fragment)[1])


@pytest.mark.parametrize("shape", ["left", "right", "two holes"])
def test_wrappers_equal_the_recursive_ones(shape):
    sess = Session()
    subjects = [_subject(sess, conts) for conts in range(3)]
    built, model = Session(seed=5), Session(seed=5)
    new = fragments.subject_call_args(_merged(shape, 6, subjects), built.names, ())
    old = _recursive_call_args(_merged(shape, 6, subjects), model.names)
    assert [print_core(w) for w in new] == [print_core(w) for w in old]
    assert all(alpha_eq(a, b) for a, b in zip(new, old))
    assert built.names.counter == model.names.counter > 5 + 3 * 6


def _reset_copy(wrapper):
    """The wrapper tree rebuilt with no cached pair on any wrapper or body."""
    subject, *args = (wrapper.body.form.callee, *wrapper.body.form.args)
    args[2:] = map(_reset_copy, args[2:])
    return Lam(wrapper.params, wrapper.stage, Body(wrapper.body.stage, App(subject, tuple(args))))


@pytest.mark.parametrize("shape", ["left", "right", "two holes"])
def test_wrappers_are_made_with_the_pairs_lam_info_computes(shape):
    """Each wrapper and its body hold, from the moment they are made, the
    pairs `lam_info` and `body_info` compute afresh, over subjects with
    free names and active bodies: with an active leaf every wrapper above
    it is active too, and with quiet leaves only the wrappers of active
    subjects are.  The wrapper's pair is derived from its body's, as
    `lam_info` keeps it."""
    sess = Session()
    quiet = [rd("('ft', val, exit)'[bt]' { '@ft:' exit val g }", sess),
             rd("('ft', val, exit, c0)'[bt]' { '@ft:' c0 'ft' val }", sess),
             rd("('ft', val, exit, c0, c1)'[bt]' { '@ft:' c1 'ft' h c0 }", sess)]
    active = [rd(print_core(s).replace("'@ft:'", "'@always:'"), sess) for s in quiet]
    pairs = set()
    for leaf_on, subjects in ((True, [active[0], *quiet[1:]]), (False, [quiet[0], *active[1:]])):
        todo = list(fragments.subject_call_args(_merged(shape, 6, subjects), sess.names, ()))
        while todo:
            wrapper = todo.pop()
            fresh = _reset_copy(wrapper)
            assert wrapper.info[0] is wrapper.body.info
            assert wrapper.body.info == body_info(fresh.body)
            assert wrapper.info[1] == lam_info(fresh)
            assert wrapper.info[1][1] or not leaf_on
            pairs.add((tuple(sorted(wrapper.info[1][0])), wrapper.info[1][1]))
            todo.extend(wrapper.body.form.args[2:])
    assert {on for _, on in pairs} == {False, True}
    assert ("g",) in {free for free, _ in pairs}


@pytest.mark.parametrize("shape", ["left", "right", "two holes"])
def test_the_naming_walk_mints_the_names_the_wrappers_take(shape):
    """`wrapper_names` moves the fresh-name counter exactly as far as
    `subject_call_args`, and names the slots in the same pre-order."""
    sess = Session()
    subjects = [_subject(sess, conts) for conts in range(3)]
    fragment = _merged(shape, 6, subjects)
    walked, built = Session(seed=5), Session(seed=5)
    order = fragments.wrapper_names(fragment, walked.names)
    wrappers = fragments.subject_call_args(fragment, built.names, ())
    assert walked.names.counter == built.names.counter == 5 + 3 * len(order)
    todo, params = list(reversed(wrappers)), []
    while todo:
        wrapper = todo.pop()
        params.append((wrapper.params[0].name, wrapper.params[1].name, wrapper.stage))
        todo.extend(reversed(wrapper.body.form.args[2:]))
    assert params == [tuple(names) for _, *names in order]
    with pytest.raises(UnfilledContinuations):
        fragments.wrapper_names(fragments.build(1, subjects[1]), walked.names)


@pytest.mark.parametrize("shape", ["left", "right"])
def test_deep_nesting_needs_no_host_recursion(shape):
    """A fragment nested 20,000 merges deep is read and wrapped under the
    interpreter's default recursion limit."""
    sess = Session()
    subjects = [_subject(sess, conts) for conts in range(2)]
    fragment = _merged(shape, 20_000, subjects)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert fragment.slots
        wrappers = fragments.subject_call_args(fragment, sess.names, ())
    finally:
        sys.setrecursionlimit(limit)
    depth, node = 0, fragment
    while node.slots:
        (node,) = node.slots
        depth += 1
    assert depth == 20_001 and node.subject is subjects[0]
    depth, (wrapper,) = 1, wrappers
    while len(wrapper.body.form.args) > 2:
        (wrapper,) = wrapper.body.form.args[2:]
        depth += 1
    assert depth == 20_001 and sess.names.counter == 3 * 20_001


def test_a_fragment_has_its_pair_from_its_parts_with_no_walk():
    """A fragment's pair is made with it, from its subject's or its two
    parts' pairs, so reading it after 30,000 merges recurses over none."""
    subject = read_core("(ft, k)[bt]{ '@ft:' k z }")
    fragment = fragments.build(1, subject)
    for _ in range(30_000):
        fragment = fragments.merge(fragment, fragments.build(1, subject))
    names = set()
    assert term_info(FragVal(fragment), names) is False
    assert names == {"z"}

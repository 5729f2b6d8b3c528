"""Staged code building, and running the code built, grow linearly with the
input.

Counts, not times, so the check is deterministic: every substitution call
(the evaluator's and the recursion inside `terms`) and every `Fragment`
constructed while `langweave run minusdiv_codegen` builds and invokes the
residual of n terms, and the substitution calls plus steps while the
residual of n `assignments` statements runs, and the bodies walked plus
steps while `typed_minusdiv` checks and runs n terms.  Doubling n may at
most about double each count.  While the code-building packs parse, no
action, the one that finalizes the program included, hands anything to
the `step` loop, and neither does any pack sample or benchmark request.
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

from langweave import cli, evaluator, packs, runtime, terms
from langweave.cli import main
from langweave.errors import EXIT_OK
from langweave.fragments import Fragment

PERFBENCH = Path(__file__).parent.parent / "perfbench"

GROWTH_PER_DOUBLING = 2.2


def _counts(monkeypatch, capsys, argv, expected):
    counts = Counter()
    subst_body, fragment_init, apply_value = terms.subst_body, Fragment.__init__, cli.apply_value

    def counted_subst(*args, **kwargs):
        counts["subst_body"] += 1
        return subst_body(*args, **kwargs)

    def counted_init(self, *args, **kwargs):
        counts["Fragment"] += 1
        fragment_init(self, *args, **kwargs)

    def counted_invoke(f, args, session):
        substs, steps = counts["subst_body"], session.steps
        try:
            return apply_value(f, args, session)
        finally:
            counts["invoke"] += counts["subst_body"] - substs + session.steps - steps

    with monkeypatch.context() as patch:
        patch.setattr(terms, "subst_body", counted_subst)
        patch.setattr(evaluator, "subst_body", counted_subst)
        patch.setattr(Fragment, "__init__", counted_init)
        patch.setattr(cli, "apply_value", counted_invoke)
        code = main(argv)
    assert code == EXIT_OK
    assert capsys.readouterr().out == expected
    return counts


def _minusdiv(n):
    return ["run", "minusdiv_codegen", "-".join(["7/1"] * n), "--emit", "value"], \
        f"{7 - 7 * (n - 1)}\n"


def _assignments(n):
    """n statements over n/2 names; from the second round on, each reads
    the value its name was given n/2 statements before."""
    values, text = {}, []
    for i in range(n):
        name = f"v{i % (n // 2)}"
        text.append(f"{name} = {name if name in values else i}-{i % 7 + 1};")
        values[name] = values.get(name, i) - (i % 7 + 1)
    return ["run", "assignments", " ".join(text) + " out v0-1"], f"{values['v0'] - 1}\n"


def test_substitution_and_fragment_counts_grow_linearly(monkeypatch, capsys):
    small, large = (_counts(monkeypatch, capsys, *_minusdiv(n)) for n in (64, 128))
    for what in ("subst_body", "Fragment"):
        assert small[what] > 0
        assert large[what] <= GROWTH_PER_DOUBLING * small[what], (what, small, large)


def test_running_a_residual_grows_linearly(monkeypatch, capsys):
    small, large = (_counts(monkeypatch, capsys, *_assignments(n))["invoke"]
                    for n in (64, 128))
    assert 0 < large <= GROWTH_PER_DOUBLING * small, (small, large)


def _graph(n):
    """n vertices in a ring, each with an edge to the next."""
    names = [f"v{i}" for i in range(n)]
    text = " ".join(f"{a} -> {b};" for a, b in zip(names, names[1:] + names[:1]))
    index = ",".join(f'["{name}",{i + 1}]' for i, name in enumerate(names))
    edges = ",".join(f"[{(i + 1) % n + 1}]" for i in range(n))
    return ["run", "graph", text, "--emit", "value"], f"[{index}]\n[{edges}]\n"


def _typed(n):
    return ["run", "typed_minusdiv", "-".join(["7/1"] * n)], f"{7 - 7 * (n - 1)}\n"


def test_typed_checks_grow_linearly(monkeypatch, capsys):
    """`typed_minusdiv` runs each type check after the rest of the chain,
    in post-order, and the machine drains the check's rest again once it
    has run.  A `step` loop walks the whole tree through `child_bodies` at
    every step, so a fallback to it would grow quadratically."""
    counts, sessions, child_bodies = Counter(), [], terms.child_bodies

    def counted_child_bodies(body):
        counts["walk"] += 1
        return child_bodies(body)

    def session(*args, **kwargs):
        sessions.append(evaluator.Session(*args, **kwargs))
        return sessions[-1]

    for name in ("evaluator", "terms"):
        monkeypatch.setattr(f"langweave.{name}.child_bodies", counted_child_bodies)
    monkeypatch.setattr(cli, "Session", session)
    for n in (64, 128):
        argv, expected = _typed(n)
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == expected
        counts[n] = counts.pop("walk") + sessions[-1].steps
    assert 0 < counts[128] <= GROWTH_PER_DOUBLING * counts[64], counts


@pytest.mark.parametrize("program", [_minusdiv, _assignments, _graph, _typed])
@pytest.mark.parametrize("n", [64, 128])
def test_only_finalizing_actions_reach_the_drain(monkeypatch, capsys, program, n):
    """Build-time actions (`build`, `merge`, `newEnv` chains) run in the
    environment loop, and now so does the `finalize` shell each program
    ends with, `typed_minusdiv`'s type checks included: not even the
    finalizing action hands anything to the `step` loop."""
    drained, in_action = [], []
    step, apply_value = evaluator.step, runtime.apply_value

    def counted_step(session, root):
        if in_action:
            drained.append(in_action[-1])
        return step(session, root)

    def counted_action(f, args, session):
        in_action.append(f)
        try:
            return apply_value(f, args, session)
        finally:
            in_action.pop()

    monkeypatch.setattr(evaluator, "step", counted_step)
    monkeypatch.setattr(runtime, "apply_value", counted_action)
    argv, expected = program(n)
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == expected
    assert drained == []


def _no_fallback(session, root):
    raise AssertionError("the machine handed a body to the step loop")


@pytest.mark.parametrize("argv, out", [
    (["run", "signum_builder", "--emit", "residual"], None),
    (["run", "signum_builder", "5", "--emit", "value"], "1\n"),
    (["run", "signum_builder", "-3", "--emit", "value"], "-1\n"),
], ids=["residual", "positive", "negative"])
def test_the_signum_script_never_reaches_the_step_loop(monkeypatch, capsys, argv, out):
    """The script's chain ends in a call staged on the name `finalize`
    binds, and its residual branches on `if`; the machine runs both."""
    monkeypatch.setattr(evaluator, "step", _no_fallback)
    assert main(argv) == EXIT_OK
    assert out is None or capsys.readouterr().out == out


def _requests():
    """Every pack sample, and one pass of each benchmark workload on seed 1."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    for pack in packs.pack_ids():
        for sample in packs.load_manifest(pack)["samples"]:
            yield workloads.Request(pack, workloads.run_argv(pack, sample["input"], "--emit",
                                                             sample["emit"]),
                                    workloads.sample_check(pack, sample["input"]))
    for name in workloads.NAMES:
        yield from workloads.build(name, 1, packs).requests


def test_no_pack_sample_or_benchmark_request_reaches_the_step_loop(monkeypatch, capsys):
    monkeypatch.setattr(evaluator, "step", _no_fallback)
    for request in _requests():
        try:
            code = main(list(request.argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert request.check(code, captured.out) is None, (request.argv, captured.err)

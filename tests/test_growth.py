"""Staged code building grows linearly with the input.

Counts, not times, so the check is deterministic: every substitution call
(the evaluator's and the recursion inside `terms`) and every `Fragment`
constructed while `langweave run minusdiv_codegen` builds and invokes the
residual of n terms.  Doubling n may at most about double each count.
"""

from collections import Counter

from langweave import evaluator, terms
from langweave.cli import main
from langweave.errors import EXIT_OK
from langweave.fragments import Fragment

GROWTH_PER_DOUBLING = 2.2


def _counts(monkeypatch, capsys, n):
    counts = Counter()
    subst_body, fragment_init = terms.subst_body, Fragment.__init__

    def counted_subst(*args, **kwargs):
        counts["subst_body"] += 1
        return subst_body(*args, **kwargs)

    def counted_init(self, *args, **kwargs):
        counts["Fragment"] += 1
        fragment_init(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(terms, "subst_body", counted_subst)
        patch.setattr(evaluator, "subst_body", counted_subst)
        patch.setattr(Fragment, "__init__", counted_init)
        code = main(["run", "minusdiv_codegen", "-".join(["7/1"] * n), "--emit", "value"])
    assert code == EXIT_OK
    assert capsys.readouterr().out == f"{7 - 7 * (n - 1)}\n"
    return counts


def test_substitution_and_fragment_counts_grow_linearly(monkeypatch, capsys):
    small, large = _counts(monkeypatch, capsys, 64), _counts(monkeypatch, capsys, 128)
    for what in ("subst_body", "Fragment"):
        assert small[what] > 0
        assert large[what] <= GROWTH_PER_DOUBLING * small[what], (what, small, large)

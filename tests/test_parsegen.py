"""LL(1) analysis against an independent brute-force derivation oracle."""

import itertools
from pathlib import Path

import pytest

from langweave.errors import Ll1Conflict
from langweave.grammar import (ActionDef, ActionUse, EpsilonUse, ForeignUse,
                               Lit, NtUse, Production, TokClass,
                               add_production, new_grammar, prepare)
from langweave.grammar_reader import read_grammar
from langweave.parsegen import (EOI, analyze, build_table, literal_tokens,
                                used_classes, validate_foreign_positions)
from langweave.reader import read_core

PACKS = Path(__file__).parent.parent / "src" / "langweave" / "packs"


def _brute_force_first(g, depth=6):
    """Enumerate leftmost expansions down to `depth` and record which token
    can start each rule, plus whether the empty expansion is reachable."""
    first = {name: set() for name in g.rules}
    nullable = {name: False for name in g.rules}

    def starts(symbols, budget):
        """Set of possible first tokens of a symbol sequence, plus epsilon
        (None) if the whole sequence can vanish."""
        if budget < 0:
            return set()
        out = {None}
        for use in symbols:
            if isinstance(use, (ActionUse, EpsilonUse)):
                continue
            if isinstance(use, Lit):
                out.discard(None)
                out.add(("lit", use.text))
                return out
            if isinstance(use, TokClass):
                out.discard(None)
                out.add(("class", use.cls))
                return out
            if isinstance(use, ForeignUse):
                out.discard(None)
                return out
            sub = set()
            for prod in g.rules[use.name].productions:
                sub |= starts(prod.body, budget - 1)
            out.discard(None)
            out |= {t for t in sub if t is not None}
            if None not in sub:
                return out
            out.add(None)
        return out

    for name, rule in g.rules.items():
        tokens = set()
        empty = False
        for prod in rule.productions:
            s = starts(prod.body, depth)
            tokens |= {t for t in s if t is not None}
            empty = empty or (None in s)
        first[name] = tokens
        nullable[name] = empty
    return first, nullable


@pytest.mark.parametrize("pack", ["minusdiv_immediate", "minusdiv_codegen",
                                  "assignments", "graph", "typed_minusdiv"])
def test_fixpoint_agrees_with_brute_force(pack):
    g = read_grammar((PACKS / pack / "grammar.lw").read_text())
    prepared, _ = prepare(g)
    a = analyze(prepared)
    bf_first, bf_nullable = _brute_force_first(prepared)
    for name in prepared.rules:
        assert a.first[name] == bf_first[name], name
        assert a.nullable[name] == bf_nullable[name], name


def test_minusdiv_reference_sets():
    g = read_grammar((PACKS / "minusdiv_codegen" / "grammar.lw").read_text())
    prepared, _ = prepare(g)
    a = analyze(prepared)
    r_diff = next(n for n in prepared.rules if n.startswith("R_")
                  and ("lit", "-") in a.first[n])
    assert a.first[r_diff] == {("lit", "-")}
    assert a.nullable[r_diff] is True
    assert a.follow[r_diff] == {EOI}
    assert a.first["Diff"] == {("class", "Integer")}


def test_single_production_and_epsilon():
    g = new_grammar("tiny")
    add_production(g, "A", (), (), (Lit("x"),), entry=True)
    prepared, _ = prepare(g)
    a = analyze(prepared)
    assert a.first["A"] == {("lit", "x")}
    assert a.nullable["A"] is False

    g2 = new_grammar("tiny2")
    add_production(g2, "A", (), (), (EpsilonUse((), ()),), entry=True)
    prepared2, _ = prepare(g2)
    assert analyze(prepared2).nullable["A"] is True


def test_first_first_conflict_names_token_and_productions():
    g = new_grammar("amb")
    add_production(g, "A", (), (), (Lit("x"),), entry=True)
    add_production(g, "A", (), (), (Lit("x"), Lit("y")))
    with pytest.raises(Ll1Conflict) as err:
        build_table(g)
    message = str(err.value)
    assert '"x"' in message
    assert "0" in message and "1" in message


def test_conflict_free_table_for_packs():
    for pack in ("minusdiv_immediate", "minusdiv_codegen", "assignments",
                 "graph", "typed_minusdiv"):
        g = read_grammar((PACKS / pack / "grammar.lw").read_text())
        prepared, _ = prepare(g)
        build_table(prepared)  # raises Ll1Conflict on any conflict


def _noop_action():
    body = read_core("(return)'[parse]'{ return 0 }")
    return ActionDef((), ("v",), body)


def test_foreign_sole_production_is_fine():
    g = new_grammar("f1")
    add_production(g, "A", (), (), (ForeignUse("other", "E", (), ()),), entry=True)
    assert validate_foreign_positions(g) == []


def test_foreign_in_alternative_is_diagnosed():
    g = new_grammar("f2")
    add_production(g, "A", (), (), (ForeignUse("other", "E", (), ()),), entry=True)
    add_production(g, "A", (), (), (Lit("x"),))
    diags = validate_foreign_positions(g)
    assert len(diags) == 1
    assert "other.E" in diags[0]


def test_foreign_behind_distinguishing_terminal_is_fine():
    g = new_grammar("f3")
    add_production(g, "A", (), (),
                   (Lit("a"), ForeignUse("other", "E", (), ())), entry=True)
    add_production(g, "A", (), (), (Lit("b"),))
    assert validate_foreign_positions(g) == []
    table = build_table(g)
    assert table.table[("A", ("lit", "a"))] == 0
    assert table.table[("A", ("lit", "b"))] == 1


def test_foreign_reachable_through_nullable_prefix_is_diagnosed():
    g = new_grammar("f4")
    add_production(g, "N", (), (), (EpsilonUse((), ()),))
    add_production(g, "N", (), (), (Lit("n"),))
    add_production(g, "A", (), (),
                   (NtUse("N", (), ()), ForeignUse("other", "E", (), ())),
                   entry=True)
    add_production(g, "A", (), (), (Lit("x"),))
    diags = validate_foreign_positions(g)
    assert len(diags) == 1


def test_action_transparency():
    """Inserting or removing actions never changes the analysis."""
    def grammar(with_actions):
        g = new_grammar("t")
        body = [Lit("x")]
        if with_actions:
            body = [ActionUse(_noop_action(), (), ("v",)), Lit("x"),
                    ActionUse(_noop_action(), (), ("w",))]
        add_production(g, "A", (), (), tuple(body), entry=True)
        add_production(g, "A", (), (), (Lit("y"),))
        return g

    a1 = analyze(grammar(False))
    a2 = analyze(grammar(True))
    assert a1.first == a2.first
    assert a1.nullable == a2.nullable
    assert a1.follow == a2.follow
    t1 = build_table(grammar(False))
    t2 = build_table(grammar(True))
    assert t1.table == t2.table


def test_alphabet_collection():
    g = read_grammar((PACKS / "graph" / "grammar.lw").read_text())
    prepared, _ = prepare(g)
    assert literal_tokens(prepared) == {"->", ",", ";"}
    assert used_classes(prepared) == {"Identifier"}

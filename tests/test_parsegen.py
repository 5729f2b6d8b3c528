"""LL(1) analysis against an independent brute-force derivation oracle."""

import itertools
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from langweave.errors import LangError, Ll1Conflict
from langweave.evaluator import Session
from langweave.grammar import (ActionDef, ActionUse, EpsilonUse, ForeignUse,
                               Lit, NtUse, Production, TokClass,
                               add_production, new_grammar, prepare)
from langweave.grammar_reader import read_grammar
from langweave.parsegen import (EOI, analyze, build_table, literal_tokens,
                                used_classes, validate_foreign_positions)
from langweave.reader import read_core
from langweave.runtime import LanguageRegistry, Parser

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


# Small grammars over the tokens a, b, c: three rules, each with one to
# three productions of up to three symbols; S is the entry rule.
_RULES = "SAB"
_grammars = st.fixed_dictionaries({rule: st.lists(
    st.lists(st.sampled_from(["a", "b", "c"] * 2 + [*_RULES]), max_size=3).map(tuple),
    min_size=1, max_size=3, unique=True) for rule in _RULES})


def _grammar_text(rules):
    def use(symbol):
        return symbol if symbol in rules else f'"{symbol}"'
    return "grammar g {\n" + "".join(
        f"  {'entry ' if rule == 'S' else ''}{rule} ::= {' '.join(map(use, body)) or 'epsilon'};\n"
        for rule, productions in rules.items() for body in productions) + "}\n"


def _derivable(rules, longest):
    """The strings of up to `longest` tokens that S derives: the least sets
    of such strings, one per rule, closed under the productions."""
    strings = {rule: set() for rule in rules}
    grown = True
    while grown:
        grown = False
        for rule, productions in rules.items():
            for body in productions:
                derived = {()}
                for symbol in body:
                    parts = strings[symbol] if symbol in rules else {(symbol,)}
                    derived = {s + p for s in derived for p in parts
                               if len(s) + len(p) <= longest}
                if not derived <= strings[rule]:
                    strings[rule] |= derived
                    grown = True
    return strings["S"]


def _left_recursive(rules):
    """The rules that derive a sentential form starting with themselves."""
    nullable, grown = set(), True
    while grown:
        grown = False
        for rule, productions in rules.items():
            if rule not in nullable and any(set(body) <= nullable for body in productions):
                nullable.add(rule)
                grown = True
    leads = {rule: set() for rule in rules}
    for rule, productions in rules.items():
        for body in productions:
            for symbol in body:
                if symbol not in rules:
                    break
                leads[rule].add(symbol)
                if symbol not in nullable:
                    break
    for _ in rules:
        for rule in rules:
            leads[rule] |= {far for near in leads[rule] for far in leads[near]}
    return [rule for rule in rules if rule in leads[rule]]


@settings(max_examples=100, deadline=None, database=None)
@given(_grammars)
def test_ll1_parser_accepts_what_brute_force_derives(rules):
    """The LL(1) parser of a grammar that tables without conflict accepts
    exactly the strings of up to four tokens that S derives.  Tabling
    names each left-recursive rule, and so never lets the parser run on
    one, where it would push frames without end."""
    prepared, diagnostics = prepare(read_grammar(_grammar_text(rules)))
    assert not diagnostics
    registry = LanguageRegistry()
    try:
        registry.register("g", prepared)
    except Ll1Conflict as conflict:
        named = [d for d in conflict.diagnostics if d.endswith("is left-recursive")]
        assert named == [f"rule {rule!r} is left-recursive" for rule in _left_recursive(rules)]
        assume(False)
    assert not _left_recursive(rules)
    accepted = set()
    for words in itertools.chain.from_iterable(
            itertools.product("abc", repeat=n) for n in range(5)):
        try:
            Parser(registry, " ".join(words), Session()).parse("g", "S")
        except LangError:
            continue
        accepted.add(words)
    assert accepted == _derivable(rules, 4)

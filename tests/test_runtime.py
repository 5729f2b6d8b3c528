"""Lexing, predictive parsing, attribute flow, and language switching."""

from pathlib import Path

import pytest

from langweave.errors import (GrammarError, LexFailure, Ll1Conflict,
                              UnexpectedToken, UnknownEntry)
from langweave.evaluator import Session, apply_value, render_value
from langweave.grammar import prepare
from langweave.grammar_reader import read_grammar
from langweave.parsegen import EOI
from langweave.printer import print_core
from langweave.reader import read_core
from langweave.runtime import (LanguageRegistry, LexerDef, Parser, lex_next,
                               lexer_for, parse)
from langweave.terms import Int, Str, alpha_eq

FIXTURES = Path(__file__).parent / "fixtures"
PACKS = Path(__file__).parent.parent / "src" / "langweave" / "packs"


def _registry(*packs, session=None):
    reg = LanguageRegistry()
    names = session.names if session else None
    for pack in packs:
        g = read_grammar((PACKS / pack / "grammar.lw").read_text(), names)
        prepared, diags = prepare(g)
        assert not diags
        reg.register(pack, prepared)
    return reg


# ---------------------------------------------------------------------------
# lexing


def _tokens(text, lexdef):
    pos, out = 0, []
    while True:
        tok = lex_next(text, pos, lexdef)
        if tok.key == EOI:
            return out
        out.append(tok)
        pos = tok.span[1]


def test_lex_minusdiv_expression():
    lexdef = LexerDef(("-", "/"), frozenset({"Integer"}))
    toks = _tokens("1-4/2-3", lexdef)
    assert [(t.key, t.lexeme) for t in toks] == [
        (("class", "Integer"), "1"), (("lit", "-"), "-"),
        (("class", "Integer"), "4"), (("lit", "/"), "/"),
        (("class", "Integer"), "2"), (("lit", "-"), "-"),
        (("class", "Integer"), "3")]
    # the lexer does not absorb a leading minus: "1-4" stays two operands
    assert toks[0].value == Int(1)


def test_lex_graph_line():
    lexdef = LexerDef(("->", ",", ";"), frozenset({"Identifier"}))
    toks = _tokens("Start -> X, Y;", lexdef)
    assert [t.lexeme for t in toks] == ["Start", "->", "X", ",", "Y", ";"]
    assert toks[0].key == ("class", "Identifier")
    assert toks[1].key == ("lit", "->")


def test_lex_empty_input_is_end_of_input():
    tok = lex_next("", 0, LexerDef((), frozenset()))
    assert tok.key == EOI
    assert tok.span == (0, 0)


def test_lex_longest_match_and_literal_tie_break():
    lexdef = LexerDef(("out",), frozenset({"Identifier"}))
    assert lex_next("out", 0, lexdef).key == ("lit", "out")
    assert lex_next("output", 0, lexdef).key == ("class", "Identifier")


def test_lex_string_class_and_comments():
    lexdef = LexerDef((), frozenset({"String"}))
    tok = lex_next('  // comment\n "hi\\"x"', 0, lexdef)
    assert tok.key == ("class", "String")
    assert tok.value == Str('hi"x')


def test_lex_failure_reports_offset():
    with pytest.raises(LexFailure) as err:
        lex_next("  %", 0, LexerDef((), frozenset({"Integer"})))
    assert err.value.offset == 2


# ---------------------------------------------------------------------------
# parsing


def test_immediate_parse_value():
    reg = _registry("minusdiv_immediate")
    assert parse(reg, "minusdiv_immediate", "Diff", "10-4/2",
                 session=Session()) == [Int(8)]


def test_codegen_parse_residual_matches_reference():
    sess = Session(seed=0)
    reg = _registry("minusdiv_codegen", session=sess)
    out = parse(reg, "minusdiv_codegen", "Expr", "1-4/2-3", session=sess)
    expected = read_core("""
    (end)'[ft]' {
      '@ft:' "4/2" (quot)'[ft2]'
      '@ft2:' "1-quot" (diff1)'[ft3]'
      '@ft3:' "diff1-3" (diff2)'[ft4]'
      '@ft4:' end diff2
    }
    """)
    assert alpha_eq(out[0], expected)
    assert apply_value(out[0], [], Session()) == [Int(-4)]


def test_unexpected_token_lists_sorted_expectations():
    reg = _registry("minusdiv_immediate")
    with pytest.raises(UnexpectedToken) as err:
        parse(reg, "minusdiv_immediate", "Diff", "4 5", session=Session())
    message = str(err.value)
    assert "expected one of" in message
    listed = message.split("expected one of:")[1].split(",")
    assert listed == sorted(listed)


def test_parse_error_is_fatal_and_monotone():
    reg = _registry("minusdiv_immediate")
    parser = Parser(reg, "1-", Session())
    with pytest.raises(UnexpectedToken):
        parser.parse("minusdiv_immediate", "Diff")
    spans = parser.consumed_spans
    assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))


def test_cursor_monotone_on_accepted_input():
    reg = _registry("minusdiv_immediate")
    parser = Parser(reg, "9-8/2-1", Session())
    parser.parse("minusdiv_immediate", "Diff")
    spans = parser.consumed_spans
    assert spans == sorted(spans)
    assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))


def test_entry_rule_enforced():
    reg = _registry("minusdiv_immediate")
    with pytest.raises(UnknownEntry):
        parse(reg, "minusdiv_immediate", "Value", "4", session=Session())


def test_rule_argument_count_checked():
    reg = _registry("minusdiv_immediate")
    from langweave.errors import ArityMismatch
    with pytest.raises(ArityMismatch):
        parse(reg, "minusdiv_immediate", "Diff", "4", args=(Int(1),),
              session=Session())


def test_register_conflicting_grammar_refused():
    src = """
    grammar amb {
      entry A ::= "x";
      A ::= "x" "y";
    }
    """
    prepared, diags = prepare(read_grammar(src))
    assert not diags
    reg = LanguageRegistry()
    with pytest.raises(Ll1Conflict):
        reg.register("amb", prepared)


def test_two_languages_parseable_in_one_session():
    reg = _registry("minusdiv_immediate", "graph")
    assert parse(reg, "minusdiv_immediate", "Diff", "9-2",
                 session=Session()) == [Int(7)]
    outs = parse(reg, "graph", "Graph", "A -> A;", session=Session(seed=1))
    env_list, adjacency = apply_value(outs[0], [], Session())
    assert render_value(adjacency) == "[[1]]"


def test_reregistering_warns_and_replaces():
    reg = _registry("minusdiv_immediate")
    g = read_grammar((PACKS / "minusdiv_immediate" / "grammar.lw").read_text())
    prepared, _ = prepare(g)
    reg.register("minusdiv_immediate", prepared)
    assert any("replacing" in w for w in reg.warnings)


def test_link_check_fails_before_parse_starts():
    src = """
    grammar loner {
      entry Top|->(v)| ::= |()->|ghost.Entry|->(v)|;
    }
    """
    prepared, diags = prepare(read_grammar(src))
    assert not diags
    reg = LanguageRegistry()
    reg.register("loner", prepared)
    parser = Parser(reg, "anything", Session())
    with pytest.raises(UnknownEntry):
        parser.parse("loner", "Top")
    assert parser.consumed_spans == []  # nothing consumed: link time, not parse time


# ---------------------------------------------------------------------------
# language switching


def _two_language_registry(session):
    reg = LanguageRegistry()
    for name, path in (("outer", "lang_outer.lw"), ("calc", "lang_calc.lw")):
        g = read_grammar((FIXTURES / path).read_text(), session.names)
        prepared, diags = prepare(g)
        assert not diags
        reg.register(name, prepared)
    return reg


def test_boundary_crossing_input_lexes_per_region():
    sess = Session(seed=0)
    reg = _two_language_registry(sess)
    parser = Parser(reg, "go << 1 :: 2", sess)
    assert parser.trace is sess.trace  # one trace channel
    outs = parser.parse("outer", "Prog")
    kinds = [line for line in parser.trace if line.startswith("token")]
    assert kinds == ["token Identifier go", 'token "<<" <<', "token Integer 1",
                     'token "::" ::', "token Integer 2"]
    assert "switch enter calc.Sum" in parser.trace
    assert "switch exit calc" in parser.trace


def test_each_alphabet_rejects_the_other():
    sess = Session()
    reg = _two_language_registry(sess)
    with pytest.raises(LexFailure):
        lex_next("1 :: 2", 0, reg.languages["outer"].lexer)
    with pytest.raises(LexFailure):
        lex_next("go <<", 0, reg.languages["calc"].lexer)


def test_fragment_through_lpi_merges_into_one_residual():
    sess = Session(seed=0)
    reg = _two_language_registry(sess)
    outs = parse(reg, "outer", "Prog", "go << 1 :: 2", session=sess)
    expected = read_core("""
    (end)'[ft]' {
      '@ft:' "1+2" (s)'[ft2]'
      '@ft2:' end s
    }
    """)
    assert alpha_eq(outs[0], expected)
    assert apply_value(outs[0], [], Session()) == [Int(3)]


def test_switch_isolation_tokens_matched_against_current_language():
    sess = Session()
    reg = _two_language_registry(sess)
    # "::" inside the outer region is not an outer token
    with pytest.raises(LexFailure):
        parse(reg, "outer", "Prog", "go :: 1 :: 2", session=sess)


def test_lookahead_not_consumed_across_switch():
    sess = Session()
    reg = _two_language_registry(sess)
    parser = Parser(reg, "go << 7 :: 2", sess)
    parser.parse("outer", "Prog")
    # every consumed span strictly advances; the lookahead token re-lexed
    # after the switch is the same region of text
    spans = parser.consumed_spans
    assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))


def test_linked_registry_shared_across_threads():
    """A registry, once linked, serves concurrent independent parses."""
    import threading
    reg = _registry("minusdiv_immediate")
    results = {}

    def work(idx, text, want):
        out = parse(reg, "minusdiv_immediate", "Diff", text, session=Session())
        results[idx] = (out, [Int(want)])

    threads = [threading.Thread(target=work, args=(i, t, w))
               for i, (t, w) in enumerate([("10-4/2", 8), ("8-3-2", 3),
                                           ("1-4/2-3", -4), ("9", 9)] * 4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(results) == 16
    for got, want in results.values():
        assert got == want


def test_inner_parse_stops_greedily_at_foreign_text():
    """An inner rule with a nullable tail must take the empty production
    when the next text belongs to the outer language (inner lexing fails)."""
    outer_src = """
    grammar outer2 {
      entry Prog|->(v)| ::= Identifier "<<" |()->|calc2.Nums|->(v)| "!";
    }
    """
    inner_src = """
    grammar calc2 {
      entry Nums|->(v)| ::= Integer|->(x)| |(x)->|Rest|->(v)|;
      |(acc)->|Rest|->(v)| ::= epsilon |(acc)->(v)| { return acc };
      |(acc)->|Rest|->(v)| ::= "::" Integer|->(y)|
          |(acc, y)->(acc2)| { "acc+y" (s) return s }
          |(acc2)->|Rest|->(v)|;
    }
    """
    sess = Session()
    reg = LanguageRegistry()
    for name, src in (("outer2", outer_src), ("calc2", inner_src)):
        prepared, diags = prepare(read_grammar(src, sess.names))
        assert not diags
        reg.register(name, prepared)
    # the inner Rest's lookahead lands on " !", unlexable under calc2
    assert parse(reg, "outer2", "Prog", "go << 1 :: 2 !",
                 session=sess) == [Int(3)]

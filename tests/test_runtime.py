"""Lexing, predictive parsing, attribute flow, and language switching."""

import functools
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langweave import runtime
from langweave.errors import (ActionError, ArityMismatch, GrammarError,
                              LexFailure, Ll1Conflict, UnexpectedToken,
                              UnknownEntry, UnknownLanguage)
from langweave.evaluator import Session, apply_value, render_value
from langweave.grammar import (ActionUse, EpsilonUse, ForeignUse, Lit, NtUse,
                               TokClass, prepare)
from langweave.grammar_reader import read_grammar
from langweave.names import FreshNames
from langweave.parsegen import EOI, build_table, token_key_str
from langweave.printer import print_core
from langweave.reader import read_core
from langweave.runtime import (LanguageRegistry, LexerDef, Parser, lex_next,
                               lexer_for, parse)
from langweave.terms import Int, Lam, Str, alpha_eq

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


def test_a_language_must_be_registered():
    reg = _registry("minusdiv_immediate")
    with pytest.raises(UnknownLanguage) as err:
        parse(reg, "minusdiv", "Diff", "4", session=Session())
    assert str(err.value) == "language 'minusdiv' is not registered"


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
    sess = Session(seed=0).record_trace()
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


_STATEMENT = """
grammar stmt {
  entry Stmt|->(v)| ::= Identifier|->(name)| "<<" |()->|minusdiv_immediate.Diff|->(v)| ";";
}
"""


def test_a_failing_look_ahead_is_lexed_once(monkeypatch):
    """Both `R` rules of `minusdiv_immediate` peek at the `;` that ends its
    text; the failure is kept like a token, so each language lexes each
    position once."""
    reg = _registry("minusdiv_immediate")
    prepared, diags = prepare(read_grammar(_STATEMENT))
    assert not diags
    reg.register("stmt", prepared)
    seen = []

    def counted(text, pos, lexdef, language=None):
        seen.append((language, pos))
        return lex_next(text, pos, lexdef, language)

    monkeypatch.setattr(runtime, "lex_next", counted)
    assert parse(reg, "stmt", "Stmt", "a << 7-4/2;", session=Session()) == [Int(5)]
    assert ("minusdiv_immediate", 10) in seen
    assert len(seen) == len(set(seen))


def test_a_stream_that_parses_computes_no_line_and_column(monkeypatch):
    """The inner language fails to lex each `;`; no message is made for it."""
    reg = _stream_registry(FreshNames())
    calls = []
    monkeypatch.setattr(runtime, "line_col", lambda *a: calls.append(a) or (0, 0))
    assert parse(reg, "stream", "Prog", "a << 7-4/2;\nb << 1;\nc << 2;",
                 session=Session()) == [Int(8)]
    assert calls == []


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


# ---------------------------------------------------------------------------
# messages that name the position and the language stack


def test_a_parse_error_inside_a_switch_names_the_language_stack():
    reg = _two_language_registry(Session())
    stack = "(language stack 'outer' > 'calc')"
    with pytest.raises(UnexpectedToken) as err:
        parse(reg, "outer", "Prog", "go << 1 :: ::", session=Session())
    assert str(err.value) == f'expected Integer, found "::" at 1:12 in language \'calc\' {stack}'
    with pytest.raises(LexFailure) as err:
        parse(reg, "outer", "Prog", "go << 1 ; 2", session=Session())
    assert str(err.value) == f"no token of language 'calc' matches '; 2' at 1:9 {stack}"
    with pytest.raises(LexFailure) as err:  # back outside the switch
        parse(reg, "outer", "Prog", "go << 1 :: 2 3", session=Session())
    assert str(err.value) == "no token of language 'outer' matches '3' at 1:14"
    with pytest.raises(UnexpectedToken) as err:  # a failed selection
        parse(_stream_registry(FreshNames()), "stream", "Prog", "a << 1 2;", session=Session())
    assert str(err.value) == (
        "in rule 'R_5': unexpected Integer at 1:8 in language 'minusdiv_immediate' "
        "(language stack 'stream' > 'minusdiv_immediate'); expected one of: \"-\", \"/\", <eoi>")


def test_a_failed_look_ahead_is_lexed_once_and_read_as_end_of_input(monkeypatch):
    """The inner language cannot lex `;`: one failure is made at each `;`,
    and selection reads it as end of input without raising anything."""
    made, raised = [], []

    class Counted(LexFailure):
        def __init__(self, msg, offset):
            super().__init__(msg, offset)
            made.append(self)

    def in_select(frame, event, arg):
        if event == "exception":
            raised.append(arg[0])
        return in_select

    def tracer(frame, event, arg):
        return in_select if frame.f_code is Parser._select.__code__ else None

    monkeypatch.setattr(runtime, "LexFailure", Counted)
    reg, before = _stream_registry(FreshNames()), sys.gettrace()
    sys.settrace(tracer)
    try:
        outs = parse(reg, "stream", "Prog", "a << 7-4/2; b << 1;", session=Session())
    finally:
        sys.settrace(before)
    assert outs == [Int(6)]
    assert [str(exc) for exc in made] == [
        f"no token of language 'minusdiv_immediate' matches {text!r} at 1:{col}"
        for text, col in (("; b << 1;", 11), (";", 19))]
    assert raised == []


def test_an_action_error_gives_the_cursor_and_the_language_stack():
    reg = _stream_registry(FreshNames())
    with pytest.raises(ActionError) as err:
        parse(reg, "stream", "Prog", "a << 1;\nb << 4/0;", session=Session())
    assert str(err.value) == (
        "action in rule 'R_5' at 2:9 in language 'minusdiv_immediate' (language stack "
        "'stream' > 'minusdiv_immediate') failed: division by zero")


# ---------------------------------------------------------------------------
# the compiled loop against the recursive parser it replaced


class _RecursiveParser(Parser):
    """The recursive parser the compiled loop replaced, kept as the reference.
    `_select`, `parse`, `parse_rule`, `_resolve` and `_bind` are copied
    verbatim; they read the LL(1) table from `lang.table`, which
    `_recursive_registry` adds.  Its `consume` also traced the token."""

    def consume(self, lang, expected_key):
        tok = super().consume(lang, expected_key)
        self.trace.append(f"token {token_key_str(tok.key)} {tok.lexeme}".rstrip())
        return tok

    def _select(self, lang, rule):
        if len(rule.productions) == 1:
            return 0
        try:
            tok_key = self.peek(lang).key
        except LexFailure:
            # the current text belongs to some other language; an inner
            # parse stops greedily as if at end of input
            tok_key = EOI
        idx = lang.table.table.get((rule.name, tok_key))
        if idx is None:
            expected = sorted(token_key_str(k)
                              for (r, k) in lang.table.table if r == rule.name)
            at = self.pos if tok_key == EOI else self.peek(lang).span[0]
            raise UnexpectedToken(
                f"in rule {rule.name!r}: unexpected {token_key_str(tok_key)} "
                f"at {self._where(lang, at)}; expected one of: " + ", ".join(expected))
        return idx

    def parse(self, lang_name, entry, args=()):
        self.registry.link_check()
        lang = self.registry.language(lang_name)
        if entry not in lang.grammar.rules:
            raise UnknownEntry(f"no rule {entry!r} in language {lang_name!r}")
        if not lang.grammar.rules[entry].is_entry:
            raise UnknownEntry(f"rule {entry!r} is not in the language "
                               f"programming interface of {lang_name!r}")
        outs = self.parse_rule(lang, entry, list(args))
        tail = self.peek(lang)
        if tail.key != EOI:
            raise UnexpectedToken(f"trailing input {tail} at {self._where(lang, tail.span[0])}")
        return outs

    def parse_rule(self, lang, rule_name, args):
        rule = lang.grammar.rules[rule_name]
        if len(args) != len(rule.ins or ()):
            raise ArityMismatch(
                f"rule {rule_name!r} takes {len(rule.ins or ())} argument(s), "
                f"got {len(args)}")
        idx = self._select(lang, rule)
        prod = rule.productions[idx]
        frame = dict(zip(rule.ins or (), args))

        for use in prod.body:
            if isinstance(use, Lit):
                self.consume(lang, ("lit", use.text))
            elif isinstance(use, TokClass):
                tok = self.consume(lang, ("class", use.cls))
                for out in use.outs:
                    frame[out] = tok.value
            elif isinstance(use, NtUse):
                values = [self._resolve(frame, n, rule_name) for n in use.ins]
                results = self.parse_rule(lang, use.name, values)
                self._bind(frame, use.outs, results, use.name)
            elif isinstance(use, ActionUse):
                values = [self._resolve(frame, n, rule_name) for n in use.ins]
                results = self._run_action(lang, rule_name, idx, use, values)
                self._bind(frame, use.outs, results, "action")
            elif isinstance(use, EpsilonUse):
                if use.outs:
                    values = [self._resolve(frame, n, rule_name) for n in use.ins]
                    self._bind(frame, use.outs, values[-len(use.outs):], "epsilon")
            elif isinstance(use, ForeignUse):
                values = [self._resolve(frame, n, rule_name) for n in use.ins]
                target = self.registry.language(use.lang)
                self.trace.append(f"switch enter {use.lang}.{use.entry}")
                results = self.parse_rule(target, use.entry, values)
                self.trace.append(f"switch exit {use.lang}")
                self._bind(frame, use.outs, results, f"{use.lang}.{use.entry}")
            else:
                raise GrammarError(f"unexpected term use {use!r}")

        return [self._resolve(frame, n, rule_name) for n in prod.outs]

    def _resolve(self, frame, name, where):
        if name not in frame:
            raise GrammarError(f"name {name!r} is unbound in rule {where!r}")
        return frame[name]

    def _bind(self, frame, outs, results, what):
        if len(outs) != len(results):
            raise ArityMismatch(
                f"{what} produced {len(results)} value(s) for {len(outs)} name(s)")
        frame.update(zip(outs, results))


class _Reference(_RecursiveParser):
    """Keeps the language of every active rule on the frame stack, so that
    error messages name the same language stack as the loop's."""

    def parse_rule(self, lang, rule_name, args):
        self._frames.append((lang,))
        try:
            return super().parse_rule(lang, rule_name, args)
        finally:
            self._frames.pop()


def _recursive_registry(reg):
    old = LanguageRegistry()
    old.languages = {name: SimpleNamespace(name=name, grammar=lang.grammar, lexer=lang.lexer,
                                           table=build_table(lang.grammar))
                     for name, lang in reg.languages.items()}
    return old


# Registered despite its diagnostics, as a caller of the API may: each
# alternative of `Tail` fails when the parse reaches it, except "ok".
_BROKEN = """
grammar broken {
  entry Top|->(v)| ::= Integer|->(x)| |(x)->|Tail|->(v)|;
  |(x)->|Tail|->(v)| ::= "unbound";
  |(x)->|Tail|->(v)| ::= "short" |(x)->|epsilon|->(y, v)|;
  |(x)->|Tail|->(v)| ::= "count" |(x)->(a, b)| { return x };
  |(x)->|Tail|->(v)| ::= "wide" |(x)->(a, b)| { return x x } |->(v)|;
  |(x)->|Tail|->(v, w)| ::= "two" |(x, x)->|epsilon|->(v, w)|;
  |(x)->|Tail|->(v)| ::= "ok" |(x)->|epsilon|->(v)|;
}
"""


# Registered despite its diagnostics too.  It exercises what registration
# compiles: calls of one-production rules into their callers (chains with
# and without inputs, one binding an input name again, one returning its
# input, one failing on an unbound name, one around a cycle, ones that
# return a name twice), calls left as calls (output or input counts that
# differ from the rule's), and last calls made tail calls or not (a list, a
# rule whose productions return different counts, a language switch).
_INLINED = """
grammar inlined {
  entry Top|->(v)| ::= "chain" Outer|->(v)|;
  Top|->(v)| ::= "args" Integer|->(x)| |(x)->|Add|->(v)|;
  Top|->(v)| ::= "same" Integer|->(x)| |(x)->|Same|->(v)|;
  Top|->(v)| ::= "rebind" Integer|->(x)| |(x)->|Rebind|->(y)|
      |(x, y)->(v)| { "x*1000+y" (v) return v };
  Top|->(v)| ::= "cycle" S |()->(v)| { "0" (v) return v };
  Top|->(v)| ::= "count" |()->|Leaf|->(v, w)|;
  Top|->(v)| ::= "arity" Integer|->(x)| |(x)->|Leaf|->(v)|;
  Top|->(v)| ::= "bad" AfterBad|->(v)|;
  Top|->(v)| ::= "list" Integer|->(t)| |(t)->|List|->(v)|;
  Top|->(v)| ::= "var" Integer|->(x)| |(x)->|Var|->(v)|;
  Top|->(v)| ::= "sw" Switch|->(v)|;
  Top|->(v)| ::= "last" |()->|minusdiv_immediate.Diff|->(v)|;
  Top|->(v)| ::= "dup" Pair|->(a, b)| |(a, b)->(v)| { "a*10+b" (v) return v };
  Top|->(v)| ::= "duptail" DupTail|->(a, b)| |(a, b)->(v)| { "a*10+b" (v) return v };
  Outer|->(v)| ::= Mid|->(v)|;
  Mid|->(w)| ::= Leaf|->(v)| |(v)->(w)| { "v+1" (w) return w };
  Leaf|->(v)| ::= Integer|->(v)|;
  |(x)->|Add|->(v)| ::= "+" Integer|->(y)| |(x, y)->|Sum|->(v)|;
  |(a, b)->|Sum|->(s)| ::= |(a, b)->(s)| { "a+b" (s) return s };
  |(x)->|Same|->(x)| ::= "same";
  |(x)->|Rebind|->(y)| ::= Integer|->(x)| |(x)->(y)| { "x+1" (y) return y };
  S ::= "x" T;
  T ::= "y" S;
  AfterBad|->(v)| ::= Bad|->(u)| "after" |(u)->(v)| { "u" (v) return v };
  Bad|->(v)| ::= "unbound";
  |(t)->|List|->(t)| ::= ";";
  |(t)->|List|->(t)| ::= "," Integer|->(n)| |(t, n)->(t)| { "t-n" (t) return t }
      |(t)->|List|->(t)|;
  |(x)->|Var|->(v)| ::= "one" |(x)->|epsilon|->(v)|;
  |(x)->|Var|->(v, w)| ::= "two" |(x, x)->|epsilon|->(v, w)|;
  Switch|->(v)| ::= |()->|minusdiv_immediate.Diff|->(v)|;
  Pair|->(a, a)| ::= |()->(a, a)| { "1" (x) "2" (y) return x y };
  DupTail|->(p, p)| ::= Choice|->(p, p)|;
  Choice|->(a, b)| ::= "c1" |()->(a, b)| { "1" (x) "2" (y) return x y };
  Choice|->(a, b)| ::= "c2" |()->(a, b)| { "3" (x) "4" (y) return x y };
}
"""


def _register(reg, names, name, text, strict=True):
    prepared, diags = prepare(read_grammar(text, names))
    assert not (strict and diags), diags
    reg.register(name, prepared)


def _stream_registry(names):
    reg = LanguageRegistry()
    _register(reg, names, "stream", (Path(__file__).parent.parent / "perfbench" / "grammars"
                                     / "stream.lw").read_text())
    _register(reg, names, "minusdiv_immediate",
              (PACKS / "minusdiv_immediate" / "grammar.lw").read_text())
    return reg


@functools.cache
def _case(name):
    """(registry, language, entry, arguments, reserved names) of a case."""
    names = FreshNames()
    if name == "stream":
        return _stream_registry(names), "stream", "Prog", (), names.used
    reg = LanguageRegistry()
    if name == "outer":
        for lang, path in (("outer", "lang_outer.lw"), ("calc", "lang_calc.lw")):
            _register(reg, names, lang, (FIXTURES / path).read_text())
        return reg, "outer", "Prog", (), names.used
    if name in ("Left", "Right", "Top"):
        path = "stack_lassoc.lw" if name == "Top" else "assoc.lw"
        _register(reg, names, "fixture", (FIXTURES / path).read_text())
        return reg, "fixture", name, (Int(5),) if name == "Top" else (), names.used
    if name == "broken":
        _register(reg, names, "broken", _BROKEN, strict=False)
        return reg, "broken", "Top", (), names.used
    if name == "inlined":
        _register(reg, names, "inlined", _INLINED, strict=False)
        _register(reg, names, "minusdiv_immediate",
                  (PACKS / "minusdiv_immediate" / "grammar.lw").read_text())
        return reg, "inlined", "Top", (), names.used
    _register(reg, names, name, (PACKS / name / "grammar.lw").read_text())
    entry = {"minusdiv_immediate": "Diff", "assignments": "Program", "graph": "Graph"}
    return reg, name, entry.get(name, "Expr"), (), names.used


_LEXEMES = {"Integer": st.sampled_from(["0", "1", "2", "7", "12"]),
            "Identifier": st.sampled_from(["a", "b", "go", "Start", "out"]),
            "String": st.just('"s"')}


def _derive(draw, reg, lang, rule, depth, out):
    """Append to `out` the tokens of a random derivation of `rule`; past a
    depth, take the alternative with the fewest calls, and deeper still, as
    on a cycle of one-production rules that never ends, stop."""
    if depth > 60:
        return
    prods = reg.languages[lang].grammar.rules[rule].productions
    if depth > 8:
        prods = sorted(prods, key=lambda p: sum(isinstance(u, (NtUse, ForeignUse))
                                                for u in p.body))[:1]
    for use in draw(st.sampled_from(prods)).body:
        if isinstance(use, Lit):
            out.append(use.text)
        elif isinstance(use, TokClass):
            out.append(draw(_LEXEMES[use.cls]))
        elif isinstance(use, NtUse):
            _derive(draw, reg, lang, use.name, depth + 1, out)
        elif isinstance(use, ForeignUse):
            _derive(draw, reg, use.lang, use.entry, depth + 1, out)


@st.composite
def _inputs(draw, reg, lang, entry):
    """A derived token list, often changed into an invalid one, joined by
    blanks, newlines or nothing."""
    tokens = []
    _derive(draw, reg, lang, entry, 0, tokens)
    alphabet = sorted({lit for known in reg.languages.values() for lit in known.lexer.literals})
    edit = draw(st.sampled_from(["keep", "keep", "drop", "insert", "stray"]))
    at = draw(st.integers(0, len(tokens)))
    if edit == "drop" and tokens:
        del tokens[min(at, len(tokens) - 1)]
    elif edit == "insert":
        tokens.insert(at, draw(st.sampled_from(alphabet + ["3", "x"])))
    elif edit == "stray":
        tokens.insert(at, draw(st.sampled_from(["%", ";", "::", "<<", "#"])))
    return draw(st.sampled_from([" ", "\n", ""])).join(tokens)


def _observed(parser_class, registry, lang, entry, args, used, text, listen=True):
    session = Session(seed=3).record_trace() if listen else Session(seed=3)
    session.names.used = set(used)
    parser = parser_class(registry, text, session)
    try:
        outs = parser.parse(lang, entry, args)
        result = [print_core(v) if isinstance(v, Lam) else render_value(v) for v in outs]
    except Exception as exc:  # the same failure is part of the same behaviour
        result = (type(exc).__name__, str(exc))
    return result, session.trace, parser.consumed_spans, session.out, session.names.counter


_CASES = ("minusdiv_immediate", "minusdiv_codegen", "typed_minusdiv", "assignments", "graph",
          "stream", "outer", "Left", "Right", "Top", "broken", "inlined")


@pytest.mark.parametrize("case", _CASES)
@settings(max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_compiled_loop_equals_the_recursive_parser(case, data):
    """Values, trace, consumed spans, printed output, fresh names and every
    error type and message agree on derived and broken inputs.  With no
    listener the loop gives the same, and an empty trace."""
    reg, lang, entry, args, used = _case(case)
    text = data.draw(_inputs(reg, lang, entry))
    new = _observed(Parser, reg, lang, entry, args, used, text)
    old = _observed(_Reference, _recursive_registry(reg), lang, entry, args, used, text)
    assert new == old
    quiet = _observed(Parser, reg, lang, entry, args, used, text, listen=False)
    assert quiet == (new[0], [], *new[2:])


@pytest.mark.parametrize("text", [
    "chain 7", "args 3 + 4", "same 5 same", "rebind 3 4", "cycle x y x y", "count 7",
    "arity 3 4", "bad unbound after", "list 10 , 1 , 2 ;", "var 3 one", "var 3 two",
    "sw 7-1/1", "last 7-2", "dup", "duptail c1", "duptail c2"])
def test_each_path_of_the_inlined_fixture_equals_the_recursive_parser(text):
    """One input down each alternative of `_INLINED`, so that none depends
    on what the derivations draw."""
    reg, lang, entry, args, used = _case("inlined")
    assert _observed(Parser, reg, lang, entry, args, used, text) == _observed(
        _Reference, _recursive_registry(reg), lang, entry, args, used, text)


@pytest.mark.parametrize("case", ["minusdiv_immediate", "minusdiv_codegen", "typed_minusdiv",
                                  "assignments", "graph", "inlined"])
def test_every_slot_past_the_inputs_is_named_by_an_operation(case):
    """A rule's padding holds only slots its operations read or write, so a
    call compiled in place reserves none for an input it reads where it is
    or for an output its last operation writes straight to the caller."""
    reg, lang = _case(case)[:2]
    for rule in reg.languages[lang].rules.values():
        named = {slot for ops in ([rule.single] if rule.single else rule.select.values())
                 for op in ops for slot in op[2] + op[3]}
        unnamed = set(range(rule.arity, rule.arity + len(rule.pad))) - named
        assert not unnamed, (rule.name, len(rule.pad), sorted(unnamed))


def test_calls_compiled_in_place_stay_few_on_a_doubling_chain():
    """Copying every call of `R1 ::= R2 R2; ... R23 ::= R24 R24` into its
    caller would take 2^23 operations; only short rules are copied."""
    rules = " ".join(f"R{i} ::= R{i + 1} R{i + 1};" for i in range(1, 24))
    reg, names = LanguageRegistry(), FreshNames()
    _register(reg, names, "g", f'grammar g {{ entry R0 ::= R1; {rules} R24 ::= "a"; }}')
    longest = max(len(rule.single) for rule in reg.languages["g"].rules.values())
    assert longest <= 2 * runtime._INLINE_MAX
    assert _observed(Parser, reg, "g", "R0", (), names.used, "a " * 40) == _observed(
        _Reference, _recursive_registry(reg), "g", "R0", (), names.used, "a " * 40)


def test_an_unbound_name_fails_when_the_parse_reaches_it():
    reg = _case("broken")[0]
    parser = Parser(reg, "4 unbound", Session())
    with pytest.raises(GrammarError, match="^name 'v' is unbound in rule 'Tail'$"):
        parser.parse("broken", "Top")
    assert len(parser.consumed_spans) == 2
    assert parse(reg, "broken", "Top", "4 ok", session=Session()) == [Int(4)]


@pytest.mark.parametrize("terms", [1000, 4000])
def test_the_frame_stack_stays_flat_on_a_right_recursive_list(terms):
    """The list rule `R ::= op elem action R` ends in a call of itself
    whose outputs it returns; that call takes the running frame, so the
    stack does not grow with the number of terms."""
    parser = Parser(_registry("minusdiv_immediate"), "-".join(["7/1"] * terms), Session())
    depths = []
    parser.session.listener = lambda kind, fields: (
        depths.append(len(parser._frames)) if kind == "token" else None)
    assert parser.parse("minusdiv_immediate", "Diff") == [Int(7 - 7 * (terms - 1))]
    assert len(depths) == 4 * terms - 1
    assert max(depths) <= 2

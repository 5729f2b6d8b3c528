"""Per-language lexing and table-driven syntax-directed execution.

Parsing never builds a tree: nonterminals are calls, token classes bind
values, actions run immediately through the evaluator, and a foreign
nonterminal swaps lexer and table wholesale until its entry rule returns.
Tokens are lexed lazily against the current language only, so text beyond
the cursor is never touched by the wrong alphabet, and the cursor is
monotone: no backtracking, ever.
"""

import re
from dataclasses import dataclass
from functools import cached_property

from .errors import (ActionError, ArityMismatch, EvalExit, GrammarError,
                     LangError, LexFailure, StepBudgetExceeded,
                     UnexpectedToken, UnknownEntry, UnknownLanguage)
from .evaluator import Session, apply_value
from .grammar import (ActionUse, EpsilonUse, ForeignUse, Lit, NtUse,
                      TokClass)
from .reader import BLANK, IDENT, STRING, ident_start, line_col
from .parsegen import EOI, build_table, literal_tokens, token_key_str, used_classes
from .printer import render_value
from .terms import Int, Str


class Token:
    __slots__ = ("key", "lexeme", "value", "span")

    def __init__(self, key, lexeme, value, span):
        self.key = key          # ("lit", text) | ("class", cls) | EOI
        self.lexeme = lexeme
        self.value = value      # term for classes, None otherwise
        self.span = span

    def __str__(self):
        return token_key_str(self.key)


_CLASS_PATTERNS = {"Identifier": IDENT, "Integer": r"\d+", "String": STRING}


@dataclass(frozen=True)
class LexerDef:
    literals: tuple  # longest first
    classes: frozenset

    @cached_property
    def pattern(self):
        """Blanks, then, at the same offset, the longest literal (as a
        look-ahead, empty if none) and the lexeme of a token class."""
        lits = "".join(re.escape(lit) + "|" for lit in self.literals)
        classes = "|".join(f"(?P<{cls}>{_CLASS_PATTERNS[cls]})" for cls in sorted(self.classes))
        return re.compile(f"{BLANK}(?=(?P<lit>{lits}))(?:{classes})?", re.S)


def lexer_for(grammar):
    lits = sorted(literal_tokens(grammar), key=lambda t: (-len(t), t))
    return LexerDef(tuple(lits), frozenset(used_classes(grammar)))


def lex_next(text, pos, lexdef, language=None):
    """Longest-match token at `pos` under the given language; literals win
    ties against classes.  An error names `language` when it is given."""
    m = lexdef.pattern.match(text, pos)
    pos, lit, cls = m.start("lit"), m["lit"], m.lastgroup
    if pos >= len(text):
        return Token(EOI, "", None, (pos, pos))
    lexeme = "" if cls == "lit" else m[cls]
    if cls == "Identifier" and not ident_start(lexeme[0]):
        lexeme = ""
    if len(lexeme) > len(lit):
        if cls == "Integer":
            value = Int(int(lexeme))
        elif cls == "String":
            value = Str(lexeme[1:-1].replace('\\"', '"').replace("\\\\", "\\"))
        else:
            value = Str(lexeme)
        return Token(("class", cls), lexeme, value, (pos, pos + len(lexeme)))
    if lit:
        return Token(("lit", lit), lit, None, (pos, pos + len(lit)))
    line, col = line_col(text, pos)
    which = "the current language" if language is None else f"language {language!r}"
    raise LexFailure(f"no token of {which} matches {text[pos:pos+10]!r} "
                     f"at {line}:{col}", pos)


# ---------------------------------------------------------------------------
# registry


@dataclass
class Language:
    name: str
    grammar: object   # prepared (expanded + completed) grammar
    table: object
    lexer: LexerDef


class LanguageRegistry:
    def __init__(self):
        self.languages = {}
        self.warnings = []

    def register(self, name, prepared, raw=True):
        """Compile a prepared (expanded and completed) grammar under
        `name`.  `raw` is ignored; it is still accepted because
        `perfbench/run.py` passes it."""
        table = build_table(prepared)
        if name in self.languages:
            self.warnings.append(f"replacing language {name!r}")
        self.languages[name] = Language(name, prepared, table, lexer_for(prepared))
        return self.languages[name]

    def language(self, name):
        if name not in self.languages:
            raise UnknownLanguage(f"language {name!r} is not registered")
        return self.languages[name]

    def link_check(self):
        """Every foreign reference must name an entry rule of a registered
        language; runs at parse start, never mid-parse."""
        problems = []
        for lang in self.languages.values():
            for ref_lang, ref_entry in lang.grammar.used_foreign():
                if ref_lang not in self.languages:
                    problems.append(
                        f"{lang.name!r} references unknown language {ref_lang!r}")
                    continue
                target = self.languages[ref_lang].grammar
                if ref_entry not in target.rules:
                    problems.append(
                        f"{lang.name!r} references unknown rule {ref_lang}.{ref_entry}")
                elif not target.rules[ref_entry].is_entry:
                    problems.append(
                        f"{ref_lang}.{ref_entry} is not an entry rule; only the "
                        "language programming interface may be called")
        if problems:
            raise UnknownEntry("; ".join(problems))


# ---------------------------------------------------------------------------
# parser


class Parser:
    def __init__(self, registry, text, session=None):
        self.registry = registry
        self.text = text
        self.session = session if session is not None else Session()
        self.pos = 0
        self.trace = self.session.trace
        self.consumed_spans = []
        self._la = {}  # (language, pos) -> Token, or (message, offset) of a LexFailure

    # -- lexing

    def peek(self, lang):
        key = (lang.name, self.pos)
        tok = self._la.get(key)
        if tok is None:
            try:
                tok = lex_next(self.text, self.pos, lang.lexer, lang.name)
            except LexFailure as exc:
                tok = (str(exc), exc.offset)
            self._la[key] = tok
        if type(tok) is tuple:  # a new exception each time, so no traceback grows
            raise LexFailure(*tok)
        return tok

    def consume(self, lang, expected_key):
        tok = self.peek(lang)
        if tok.key != expected_key:
            raise UnexpectedToken(
                f"expected {token_key_str(expected_key)}, found {tok} "
                f"at {self._where(lang, tok.span[0])}")
        assert tok.span[0] >= self.pos  # cursor monotonicity
        self.pos = tok.span[1]
        self.consumed_spans.append(tok.span)
        self.trace.append(f"token {token_key_str(tok.key)} {tok.lexeme}".rstrip())
        return tok

    def _where(self, lang, offset):
        line, col = line_col(self.text, offset)
        return f"{line}:{col} in language {lang.name!r}"

    # -- selection

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

    # -- driving

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

    def _run_action(self, lang, rule_name, prod_idx, use, values):
        rendered = ", ".join(render_value(v) for v in values)
        self.trace.append(f"action {rule_name}#{prod_idx} ({rendered})")
        try:
            results = apply_value(use.action.body, values, self.session)
        except (EvalExit, StepBudgetExceeded):
            raise
        except LangError as exc:  # a host fault is not a fault of the action
            raise ActionError(f"action in rule {rule_name!r} failed: {exc}") from exc
        if len(results) != len(use.action.outs):
            raise ActionError(
                f"action in rule {rule_name!r} returned {len(results)} value(s), "
                f"declared {len(use.action.outs)}")
        return results


def parse(registry, lang, entry, text, args=(), session=None):
    """One-shot parse; returns the entry rule's output values."""
    parser = Parser(registry, text, session)
    return parser.parse(lang, entry, args)

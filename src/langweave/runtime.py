"""Per-language lexing and table-driven syntax-directed execution.

Parsing never builds a tree: nonterminals are calls, token classes bind
values, actions run immediately through the evaluator, and a foreign
nonterminal swaps lexer and table wholesale until its entry rule returns.
Tokens are lexed lazily against the current language only, so text beyond
the cursor is never touched by the wrong alphabet, and the cursor is
monotone: no backtracking, ever.  The parser lexes one look-ahead per
language and position, a token or a failure kept as a value, which
selection reads as end of input (the text belongs to an outer language)
and a token operation takes in place when it is the token expected; only
`peek` and `consume` raise.  A language's lexer keeps one key per literal
and per class, which its tokens and its compiled operations share, so the
two are compared by identity and no key is built per token.

Registering a language compiles each production into a tuple of
operations over attribute slots numbered in advance; a use that fails
whenever the parse reaches it (an unbound name) compiles into an operation
that raises there.  A call of a short one-production rule compiles into
that rule's operations, and a last call whose outputs the production
returns into a tail call.  `Parser.parse` runs the operations in one loop
over one explicit stack of frames (language, operations, position, slot
list), so the nesting of the input never reaches the host stack; a tail
call takes the running frame, so a right-recursive list keeps it flat.
An action is a call of `apply_value`, made through this module, and every
span taken goes to `Parser.consumed_spans`.
"""

import re
from functools import cached_property
from itertools import groupby

from .errors import (ActionError, ArityMismatch, EvalExit, GrammarError,
                     LangError, LexFailure, StepBudgetExceeded,
                     UnexpectedToken, UnknownEntry, UnknownLanguage)
from .evaluator import Session, apply_value
from .grammar import (ActionUse, EpsilonUse, ForeignUse, Lit, NtUse,
                      TokClass)
from .reader import BLANK, IDENT, STRING, ident_start, line_col
from .parsegen import EOI, build_table, literal_tokens, token_key_str, used_classes
from .records import Record, Value
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


class LexerDef(Value):
    # literals longest first; `pattern` and `keys` are cached in the instance
    __slots__ = ("literals", "classes", "__dict__")

    @cached_property
    def keys(self):
        """The token key of each literal, by its text, and of each class,
        by its name: one tuple each, shared by every token and operation."""
        return ({lit: ("lit", lit) for lit in self.literals},
                {cls: ("class", cls) for cls in self.classes})

    def shared(self, key):
        """The key of `keys` equal to `key`, or `key` itself (end of input)."""
        kind, text = key
        return self.keys[0][text] if kind == "lit" else self.keys[1].get(text, key)

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
        return Token(lexdef.keys[1][cls], lexeme, value, (pos, pos + len(lexeme)))
    if lit:
        return Token(lexdef.keys[0][lit], lit, None, (pos, pos + len(lit)))

    def message():  # made only where the failure is reported
        line, col = line_col(text, pos)
        which = "the current language" if language is None else f"language {language!r}"
        return f"no token of {which} matches {text[pos:pos+10]!r} at {line}:{col}"
    raise LexFailure(message, pos)


# ---------------------------------------------------------------------------
# compiled productions

# An operation is a tuple (code, argument, in slots, out slots, name, extra);
# `_compile` shows what each code keeps in `argument`, `name` and `extra`.
TAIL, CALL, TOKEN, ACTION, PASS, RETURN, FAIL = range(7)  # a TAIL: a last CALL, run in place
_INLINE_MAX = 32  # the most operations of a rule compiled into its callers


class CompiledRule:
    """A rule's arity, output count (None if productions differ), slot padding
    past the inputs, and productions: `single` if one, else `select` by key."""
    __slots__ = ("name", "arity", "returns", "pad", "single", "select")

    def __init__(self, rule):
        self.name, self.arity, self.select = rule.name, len(rule.ins or ()), {}
        counts = {len(prod.outs) for prod in rule.productions}
        self.returns = counts.pop() if len(counts) == 1 else None


def compile_rules(grammar, table, lexer):
    """Each rule of a prepared grammar by name, compiled, with its row of the
    LL(1) table pointing at the operations of the productions; a token
    operation keeps the key `lexer` gives its tokens."""
    rules = {name: CompiledRule(rule) for name, rule in grammar.rules.items()}
    memo = {}

    def single(name):
        """The operations and slot count of a rule with one production,
        compiled once; None if it has more, or while it is being compiled."""
        rule = grammar.rules[name]
        if len(rule.productions) == 1 and name not in memo:
            memo[name] = None
            memo[name] = _compile(rule, 0, rule.productions[0], rules, single, lexer)
        return memo.get(name)

    compiled = {name: [single(name)] if len(rule.productions) == 1 else
                [_compile(rule, i, prod, rules, single, lexer)
                 for i, prod in enumerate(rule.productions)]
                for name, rule in grammar.rules.items()}
    for name, crule in rules.items():
        crule.pad = [None] * (max(size for _, size in compiled[name]) - crule.arity)
        crule.single = compiled[name][0][0] if len(compiled[name]) == 1 else None
    for (name, key), idx in table.table.items():
        rules[name].select[lexer.shared(key)] = compiled[name][idx][0]
    return rules


def _compile(rule, idx, prod, rules, single, lexer):
    """The operations of one production and the number of slots they use.
    The rule's inputs take the first slots (of two equal names the later
    one counts); a name bound again keeps its slot.  A call of a short rule
    `single` gives, with as many inputs and outputs, becomes its operations."""
    slot = {name: i for i, name in enumerate(rule.ins or ())}
    size, ops = len(rule.ins or ()), []

    def reads(names):
        for name in names:
            if name not in slot:
                raise GrammarError(f"name {name!r} is unbound in rule {rule.name!r}")
        return tuple(slot[name] for name in names)

    def binds(names):
        nonlocal size
        for name in names:
            if name not in slot:
                slot[name], size = size, size + 1
        return tuple(slot[name] for name in names)

    def splice(body, ins, outs):
        """`body` on fresh slots, an input it binds again copied first; its
        last write, or else a PASS, writes what it returns into `outs`.  A
        slot of the callee gets a fresh slot only if an operation names it."""
        written = {out for op in body for out in op[3]}
        at = {i: slot for i, slot in enumerate(ins) if i not in written}

        def to(callee_slots):
            nonlocal size
            for i in callee_slots:
                if i not in at:
                    at[i], size = size, size + 1
            return tuple([at[i] for i in callee_slots])

        ops.extend((PASS, None, (ins[i],), to((i,)), "epsilon", None) for i in sorted(written)
                   if i < len(ins))
        body, last = list(body), None
        if body[-1][0] == TAIL:  # it writes just what the rule returns
            body[-1], last = (CALL,) + body[-1][1:], len(body) - 1
        elif body[-1][0] == RETURN:  # else the FAIL of an unbound name
            returned = body.pop()[2]
            if body and body[-1][3] == returned and len(set(returned)) == len(returned):
                last = len(body) - 1
            elif outs:
                body.append((PASS, None, returned, (), "epsilon", None))
                last = len(body) - 1
        ops.extend((code, arg, to(i_s), outs if n == last else to(o_s), what, extra)
                   for n, (code, arg, i_s, o_s, what, extra) in enumerate(body))

    try:
        for use in prod.body:
            if isinstance(use, EpsilonUse) and not use.outs:
                continue
            ins = reads(getattr(use, "ins", None) or ())
            outs = binds(getattr(use, "outs", ()))
            if isinstance(use, (Lit, TokClass)):
                key = lexer.keys[0][use.text] if isinstance(use, Lit) else lexer.keys[1][use.cls]
                op = (TOKEN, key, "token", None)
            elif isinstance(use, NtUse):
                callee, body = rules[use.name], single(use.name)
                if body and len(body[0]) <= _INLINE_MAX and (
                        len(ins) == callee.arity and len(outs) == callee.returns):
                    splice(body[0], ins, outs)
                    continue
                op = (CALL, callee, use.name, None)
            elif isinstance(use, ForeignUse):  # a switch to another language
                op = (CALL, use.entry, f"{use.lang}.{use.entry}", use.lang)
            elif isinstance(use, ActionUse):
                op = (ACTION, use, "action", (rule.name, idx))
            else:  # an epsilon passes its trailing inputs through
                ins, op = ins[-len(use.outs):], (PASS, None, "epsilon", None)
            code, arg, what, extra = op
            ops.append((code, arg, ins, outs, what, extra))
        ops.append((RETURN, None, reads(prod.outs), (), None, None))
        code, arg, ins, outs, what, extra = ops[-2] if len(ops) > 1 else ops[-1]
        if code == CALL and extra is None and outs == ops[-1][2] and (
                len(set(outs)) == len(outs) == arg.returns):  # as the callee returns them
            ops[-2:] = [(TAIL, arg, ins, outs, what, extra)]
    except GrammarError as exc:  # raised again when the parse gets here
        ops.append((FAIL, None, (), (), str(exc), None))
    return tuple(ops), size


# ---------------------------------------------------------------------------
# registry


class Language(Record):
    __slots__ = ("name",
                 "grammar",   # prepared (expanded + completed) grammar
                 "lexer",
                 "rules")     # rule name -> CompiledRule


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
        lexer = lexer_for(prepared)
        self.languages[name] = Language(name, prepared, lexer,
                                        compile_rules(prepared, table, lexer))
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
        self._la = (None, -1, None)  # the last look-ahead: language, position, token
        self._frames = []  # suspended frames of the running parse, outermost first

    # -- lexing

    def _look(self, lang):
        """The look-ahead of `lang` at the cursor, lexed once per language
        and position: a token, or a failure kept as (message, offset)."""
        la = self._la
        if la[0] is not lang or la[1] != self.pos:
            try:
                tok = lex_next(self.text, self.pos, lang.lexer, lang.name)
            except LexFailure as exc:
                tok = (exc.args[0], exc.offset)
            self._la = la = (lang, self.pos, tok)
        return la[2]

    def peek(self, lang):
        """The token of `lang` at the cursor; raises a kept failure."""
        tok = self._look(lang)
        if type(tok) is tuple:  # a new exception each time, so no traceback grows
            raise LexFailure(*tok)
        return tok

    def consume(self, lang, expected_key):
        la_lang, la_pos, tok = self._la
        if la_lang is not lang or la_pos != self.pos:  # else selection looked at it
            tok = self._look(lang)
        if type(tok) is tuple:
            raise LexFailure(f"{LexFailure(*tok)}{self._stack_note(lang)}", tok[1])
        if tok.key != expected_key:
            raise UnexpectedToken(
                f"expected {token_key_str(expected_key)}, found {tok} "
                f"at {self._where(lang, tok.span[0])}")
        assert tok.span[0] >= self.pos  # cursor monotonicity
        self.pos = tok.span[1]
        self.consumed_spans.append(tok.span)
        return tok

    def _where(self, lang, offset):
        line, col = line_col(self.text, offset)
        return f"{line}:{col} in language {lang.name!r}{self._stack_note(lang)}"

    def _stack_note(self, lang):
        """The languages of the running parse, outermost first, if a switch
        has put more than one on the frame stack."""
        names = [name for name, _ in groupby([f[0].name for f in self._frames] + [lang.name])]
        return " (language stack " + " > ".join(map(repr, names)) + ")" if len(names) > 1 else ""

    # -- selection

    def _select(self, lang, rule):
        """The operations of the production of `rule` the look-ahead selects."""
        tok = self._look(lang)
        tok_key = EOI if type(tok) is tuple else tok.key  # a failure: end of input
        ops = rule.select.get(tok_key)
        if ops is None:
            expected = sorted(token_key_str(k) for k in rule.select)
            at = self.pos if tok_key == EOI else tok.span[0]
            raise UnexpectedToken(
                f"in rule {rule.name!r}: unexpected {token_key_str(tok_key)} "
                f"at {self._where(lang, at)}; expected one of: " + ", ".join(expected))
        return ops

    # -- driving

    def parse(self, lang_name, entry, args=()):
        self.registry.link_check()
        lang = self.registry.language(lang_name)
        if entry not in lang.grammar.rules:
            raise UnknownEntry(f"no rule {entry!r} in language {lang_name!r}")
        if not lang.grammar.rules[entry].is_entry:
            raise UnknownEntry(f"rule {entry!r} is not in the language "
                               f"programming interface of {lang_name!r}")
        outs = self._run(lang, lang.rules[entry], list(args))
        tail = self.peek(lang)
        if tail.key != EOI:
            raise UnexpectedToken(f"trailing input {tail} at {self._where(lang, tail.span[0])}")
        return outs

    def _run(self, lang, rule, args):
        """The parse loop: run the entry `rule` on `args` with one explicit
        stack of suspended frames (language, operations, position, slot
        list) and return its output values.  The bottom frame holds a lone
        call of the entry rule."""
        listener, stack, spans = self.session.listener, [], self.consumed_spans
        self._frames = stack
        ops, pc, slots = ((CALL, rule, tuple(range(len(args))), (), rule.name, None),), 0, args
        while True:
            code, arg, ins, outs, what, extra = ops[pc]
            pc += 1
            if code == TOKEN:  # the look-ahead, taken in place if it is the token expected
                la_lang, la_pos, tok = self._la
                if la_lang is not lang or la_pos != self.pos:
                    tok = self._look(lang)
                if type(tok) is not Token or tok.key is not arg:
                    tok = self.consume(lang, arg)  # it raises
                else:
                    span = tok.span
                    assert span[0] >= self.pos  # cursor monotonicity
                    self.pos = span[1]
                    spans.append(span)
                if listener is not None:
                    listener("token", (tok,))
                for out in outs:
                    slots[out] = tok.value
                continue
            # no comprehension, which is a call of its own, for one input or none
            values = [slots[i] for i in ins] if len(ins) > 1 else [slots[ins[0]]] if ins else []
            if code <= CALL:  # a TAIL runs the callee in place of the current frame
                if code == CALL:
                    stack.append((lang, ops, pc, slots))
                if extra is not None:  # a switch to an entry rule of another language
                    lang = self.registry.language(extra)
                    if listener is not None:
                        listener("switch enter", (extra, arg))
                    arg = lang.rules[arg]
                if len(values) != arg.arity:
                    raise ArityMismatch(f"rule {arg.name!r} takes {arg.arity} argument(s), "
                                        f"got {len(values)}")
                ops, pc, slots = arg.single or self._select(lang, arg), 0, values + arg.pad
                continue
            if code == RETURN:
                lang, ops, pc, slots = stack.pop()
                if not stack:
                    return values
                _, _, _, outs, what, extra = ops[pc - 1]
                if extra is not None and listener is not None:
                    listener("switch exit", (extra,))
            elif code == ACTION:
                values = self._run_action(lang, *extra, arg, values)
            elif code == FAIL:
                raise GrammarError(what)
            if len(outs) != len(values):
                raise ArityMismatch(f"{what} produced {len(values)} value(s) "
                                    f"for {len(outs)} name(s)")
            if len(outs) == 1:
                slots[outs[0]] = values[0]
                continue
            for out, value in zip(outs, values):
                slots[out] = value

    def _run_action(self, lang, rule_name, prod_idx, use, values):
        if self.session.listener is not None:
            self.session.listener("action", (rule_name, prod_idx, values))
        try:
            results = apply_value(use.action.body, values, self.session)
        except (EvalExit, StepBudgetExceeded):
            raise
        except LangError as exc:  # a host fault is not a fault of the action
            raise ActionError(f"action in rule {rule_name!r} at "
                              f"{self._where(lang, self.pos)} failed: {exc}") from exc
        if len(results) != len(use.action.outs):
            raise ActionError(
                f"action in rule {rule_name!r} at {self._where(lang, self.pos)} "
                f"returned {len(results)} value(s), declared {len(use.action.outs)}")
        return results


def parse(registry, lang, entry, text, args=(), session=None):
    """One-shot parse; returns the entry rule's output values."""
    parser = Parser(registry, text, session)
    return parser.parse(lang, entry, args)

"""Reader for the staged-CPS concrete syntax, and the one lexer of both
grammar files and core syntax.

`tokenize` lexes a whole text with one pattern: the core token classes and
the grammar format's punctuation, so `grammar_reader.GrammarReader`, a
subclass of `Reader`, reads a grammar file and its action bodies from one
token list.  The text between a pair of single quotes is read in place and
the quotes dropped, so the quoted style the printer writes (`'@s:'`,
`'[y]'`, `'always'`) and the bare style (`@s:`, `[y]`, `always`) make the
same tokens and take one path through the parser; a quote also ends the
token before it.  A stage expression is parsed by precedence climbing over
`terms.STAGE_LEVELS`.  All sugar is desugared on the way in:

  (x){ f x }                natural staging: fresh stage name, body staged on it
  @e: let [y] x v b         application of (x)[y]{ b } to v
  @e: f a (x)[y] b          trailing continuation: last argument is a lambda
                            whose body is the rest of the enclosing block
  "p" (x)[y] b              primitive expression binding x, then b
  !v                        splice in argument position, pack in parameter position
"""

import re

from .errors import CoreSyntaxError
from .names import FreshNames
from .prims import parse_prim
from .terms import (BUILTIN_NAMES, STAGE_LEVELS, TOP, App, Body, Bool, Builtin,
                    FixB, Int, Lam, Param, PrimB, Splice, StageConst, StageOp,
                    Str, TupleT, Var)

# Lexical classes shared by this lexer and the runtime's.  Blanks are
# whitespace (`str.isspace`) and `//` line comments.  An identifier is a
# letter or `_`, then letters, digits and `_` (`str.isalnum`); no regex
# class is `str.isalpha`, so the first character is checked after a match.
BLANK = r"\s*(?://[^\n]*\s*)*"
IDENT = r"[^\W\d]\w*"
STRING = r'"[^"\\]*(?:\\.[^"\\]*)*"'
_ESCAPES = {"n": "\n", "t": "\t"}

# No two classes start with the same character, so the order of the
# alternatives only sets how soon the commonest match: identifiers first.
_TOKEN = re.compile(BLANK + rf"""(?:
    (?P<ident>{IDENT}) | (?P<punct>::=|->|[(){{}}\[\],!@:&|<>;.=]) | (?P<quote>'(?=[^']*'))
  | (?P<string>{STRING}) | (?P<int>-?\d+) | (?P<bad>.) )?""", re.S | re.X)
_UNTERMINATED = {"'": "unterminated quote", '"': "unterminated string"}


def line_col(text, pos):
    """1-based line and column of offset `pos` in `text`."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def unescape(body):
    """The text of a string literal's body: `\\n` and `\\t` are newline
    and tab, and a backslash before any other character keeps it."""
    return re.sub(r"\\(.)", lambda m: _ESCAPES.get(m[1], m[1]), body, flags=re.S)


def ident_start(char):
    return char.isalpha() or char == "_"


def tokenize(src):
    """Tokens `(kind, text, pos)` of `src`.  A punctuation token's kind is
    its text; a string's text is its unescaped body.  The list ends with
    an `eof` token, or at the first lexical error with an `error` token
    whose text is the message."""
    toks, end = [], 0
    stop = limit = len(src)  # limit: the closing quote inside a pair of quotes
    while True:
        m = _TOKEN.match(src, end, limit)
        kind, end = m.lastgroup, m.end()
        if kind is None and limit < stop:
            end, limit = limit + 1, stop
        elif kind == "quote":
            limit = src.index("'", end, stop)
        elif kind is None:
            toks.append(("eof", "", end))
            return toks
        else:
            pos, text = m.start(kind), m[kind]
            if kind == "punct":
                kind = text
            elif kind == "string":
                text = unescape(text[1:-1])
            elif kind == "bad" or kind == "ident" and not ident_start(text[0]):
                toks.append(("error", _UNTERMINATED.get(
                    text[0], f"unexpected character {text[0]!r}"), pos))
                return toks
            toks.append((kind, text, pos))


class Reader:
    """Reads the tokens of `src`; errors are raised as `Error`.  A
    builtin's name reads as `Builtin` unless a binder of that name is in
    scope (`shadowed`)."""

    Error = CoreSyntaxError

    def __init__(self, src, names=None):
        self.src = src
        self.toks = tokenize(src)
        self.i = 0
        if self.toks[-1][0] == "error":
            self.error(self.toks[-1][1], self.toks[-1])
        self.names = names if names is not None else FreshNames()
        self.shadowed = []
        for kind, text, _ in self.toks:
            if kind == "ident":
                self.names.reserve(text)

    # -- token plumbing

    def peek(self, ahead=0):
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def at(self, kind):
        return self.toks[self.i][0] == kind

    def take(self, kind=None):
        t = self.toks[self.i]
        if kind is not None and t[0] != kind:
            self.expected(repr(kind), t)
        self.i += 1
        return t

    def error(self, msg, tok=None):
        """Raise at `tok` (the next token by default); its line and column
        are found only here."""
        raise self.Error(msg, *line_col(self.src, (tok or self.peek())[2]))

    def expected(self, what, tok):
        shown = "end of file" if tok[0] == "eof" else tok[1]
        self.error(f"expected {what}, found {shown!r}", tok)

    # -- scope

    def _scoped_body(self, names, stage):
        """`parse_body` staged on `stage`, with `names` and `stage` bound."""
        mark = len(self.shadowed)
        self.shadowed.extend(n for n in (*names, stage) if n in BUILTIN_NAMES)
        body = self.parse_body(Var(stage))
        del self.shadowed[mark:]
        return body

    # -- stage annotations

    def stage_ann(self):
        """The name of a `[y]` right after a parameter list, or a fresh one
        if none is written."""
        if self.at("[") and self.peek(1)[0] == "ident" and self.peek(2)[0] == "]":
            self.take()
            name = self.take()[1]
            self.take()
            return name
        return self.names.fresh("s")

    def try_stage_prefix(self):
        """The stage of an `@stage:` prefix; None if absent."""
        if not self.at("@"):
            return None
        self.take()
        stage = self.parse_stage()
        self.take(":")
        return stage

    def parse_stage(self, level=1):
        """A stage expression whose binary operators bind at least as tightly
        as `level`, by precedence climbing over `STAGE_LEVELS`; binary
        operators group left and `!` binds tightest."""
        kind, text, _ = t = self.take()
        if kind == "!":
            left = StageOp("!", (self.parse_stage(max(STAGE_LEVELS.values()) + 1),))
        elif kind == "(":
            left = self.parse_stage()
            self.take(")")
        elif kind == "ident":
            left = StageConst(text == "always") if text in ("always", "never") else Var(text)
        else:
            self.expected("a stage", t)
        while STAGE_LEVELS.get(self.peek()[0], 0) >= level:
            op = self.take()[0]
            left = StageOp(op, (left, self.parse_stage(STAGE_LEVELS[op] + 1)))
        return left

    # -- lists and lambdas

    def comma_list(self, close, item):
        """The items `item(items so far)` reads up to `close`, which is
        taken; a comma after an item is optional."""
        items = []
        while not self.at(close):
            items.append(item(items))
            if self.at(","):
                self.take()
        self.take(close)
        return tuple(items)

    def _param(self, params):
        packed = self.at("!")
        if packed:
            self.take()
        if not self.at("ident"):
            self.error("expected parameter name")
        _, name, _ = t = self.take()
        if any(p.name == name for p in params):
            self.error(f"duplicate parameter name {name!r}", t)
        if packed and any(p.packed for p in params):
            self.error("a lambda may pack at most one parameter", t)
        return Param(name, packed)

    def _binder(self, _):
        if not self.at("ident"):
            self.error("expected binder name")
        return self.take()[1]

    def parse_lam(self, trailing=False):
        """After '(': a lambda `(params)[y]{ body }`.  A `trailing` one, in
        argument position, may leave out the braces: its body is then the
        rest of the enclosing block."""
        params = self.comma_list(")", self._param)
        stage = self.stage_ann()
        braced = not trailing or self.at("{")
        if braced:
            self.take("{")
        body = self._scoped_body([p.name for p in params], stage)
        if braced:
            self.take("}")
        return Lam(params, stage, body)

    # -- terms

    def _name_term(self, text):
        if text == "always":
            return StageConst(True)
        if text == "never":
            return StageConst(False)
        if text == "true":
            return Bool(True)
        if text == "false":
            return Bool(False)
        if text in BUILTIN_NAMES and text not in self.shadowed:
            return Builtin(text)
        return Var(text)

    def parse_term(self):
        kind, text, _ = t = self.peek()
        if kind == "int":
            self.take()
            return Int(int(text))
        if kind == "string":
            self.take()
            return Str(text)
        if kind == "ident":
            self.take()
            return self._name_term(text)
        if kind == "!":
            self.take()
            return Splice(self.parse_term())
        if kind == "[":
            self.take()
            return TupleT(self.comma_list("]", lambda _: self.parse_term()))
        if kind == "(":
            self.take()
            return self.parse_lam()
        self.expected("a term", t)

    # -- bodies

    def parse_body(self, natural):
        """One body; `natural` is the stage used when no prefix is written."""
        explicit = self.try_stage_prefix()
        stage = explicit if explicit is not None else natural
        kind, text, _ = t = self.peek()

        if kind == "ident" and text in ("let", "fix"):
            self.take()
            sp = self.stage_ann()
            name = self.take("ident")[1]
            mark = len(self.shadowed)
            if text == "fix" and name in BUILTIN_NAMES:
                self.shadowed.append(name)  # a fix value sees its own name
            value = self.parse_term()
            del self.shadowed[mark:]
            rest = self._scoped_body((name,), sp)
            if text == "let":
                # let [y] x v b  ==  apply (x)[y]{ b } to v
                return Body(stage, App(Lam((Param(name),), sp, rest), (value,)))
            return Body(stage, FixB(sp, name, value, rest))

        if kind == "string":
            self.take()
            try:
                template, operands, named = parse_prim(text)
            except CoreSyntaxError as err:
                self.error(str(err), t)
            self.take("(")
            outs = self.comma_list(")", self._binder)
            if not outs:
                self.error("primitive expression must bind at least one name")
            # the continuation behaves like any lambda: it has an implicit
            # staging parameter which flips on when the expression fires
            cont_stage = self.stage_ann()
            rest = self._scoped_body(outs, cont_stage)
            return Body(stage, PrimB(template, operands, named, outs, cont_stage, rest))

        # application; a trailing continuation ends the block
        callee = self.parse_term()
        args = []
        while (kind := self.peek()[0]) not in ("}", "eof"):
            if kind == "(":
                self.take()
                args.append(self.parse_lam(trailing=True))
            else:
                args.append(self.parse_term())
        return Body(stage, App(callee, tuple(args)))


def read_core(text, names=None):
    """Read a single term (usually a lambda)."""
    r = Reader(text, names)
    term = r.parse_term()
    if not r.at("eof"):
        r.error("trailing input after term")
    return term


def read_program(text, names=None):
    """Read a whole program as a body; top level is always staged on."""
    r = Reader(text, names)
    body = r.parse_body(TOP)
    if not r.at("eof"):
        r.error("trailing input after program")
    return body

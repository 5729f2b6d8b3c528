"""Reader for the staged-CPS concrete syntax.

The lexer reads the text between a pair of single quotes in place and drops
the quotes, so the quoted style the printer writes (`'@s:'`, `'[y]'`,
`'always'`) and the bare style (`@s:`, `[y]`, `always`) make the same tokens
and take one path through the parser; a quote also ends the token before
it.  A stage expression is parsed by precedence climbing over
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

# Lexical classes shared by the core, grammar and runtime lexers.  Blanks
# are whitespace (`str.isspace`) and `//` line comments.  An identifier is
# a letter or `_`, then letters, digits and `_` (`str.isalnum`); no regex
# class is `str.isalpha`, so the first character is checked after a match.
BLANK = r"\s*(?://[^\n]*\s*)*"
IDENT = r"[^\W\d]\w*"
STRING = r'"[^"\\]*(?:\\.[^"\\]*)*"'
_ESCAPES = {"n": "\n", "t": "\t"}

_TOKEN = re.compile(BLANK + rf"""(?:
    (?P<quote>'(?=[^']*')) | (?P<string>{STRING}) | (?P<int>-?\d+)
  | (?P<ident>{IDENT}) | (?P<punct>[(){{}}\[\],!@:&|]) | (?P<bad>.) )?""",
                    re.S | re.X)
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


class Tok:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos

    def __repr__(self):
        return f"Tok({self.kind}, {self.text!r})"


def tokenize(src, start=0):
    """Tokens of `src` from offset `start` to its end or to the first
    unmatched '}', where the `eof` token stands.  The text between a pair
    of single quotes is lexed in place and the quotes make no token."""
    toks, depth, end = [], 0, start
    stop = limit = len(src)  # limit: the closing quote inside a pair of quotes
    while True:
        m = _TOKEN.match(src, end, limit)
        kind, end = m.lastgroup, m.end()
        if kind is None and limit < stop:
            end, limit = limit + 1, stop
            continue
        if kind == "quote":
            limit = src.index("'", end, stop)
            continue
        pos, text = (m.start(kind), m[kind]) if kind else (end, "")
        if kind is None or (text == "}" and not depth):
            toks.append(Tok("eof", "", pos))
            return toks
        if kind == "bad" or (kind == "ident" and not ident_start(text[0])):
            msg = _UNTERMINATED.get(text[0], f"unexpected character {text[0]!r}")
            raise CoreSyntaxError(msg, *line_col(src, pos))
        if kind == "punct":
            kind = text
            depth += (text == "{") - (text == "}")
        elif kind == "string":
            text = unescape(text[1:-1])
        toks.append(Tok(kind, text, pos))


class Reader:
    """Reads `src` from offset `start`; `bound` names the binders in scope
    around the text.  A builtin's name reads as `Builtin` unless a binder
    of that name is in scope."""

    def __init__(self, src, names=None, start=0, bound=()):
        self.src = src
        self.toks = tokenize(src, start)
        self.i = 0
        self.names = names if names is not None else FreshNames()
        self.shadowed = [n for n in bound if n in BUILTIN_NAMES]
        for t in self.toks:
            if t.kind == "ident":
                self.names.reserve(t.text)

    # -- token plumbing

    def peek(self, ahead=0):
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def take(self, kind=None):
        t = self.toks[self.i]
        if kind is not None and t.kind != kind:
            self.error(f"expected {kind!r}, found {t.text!r}", t)
        self.i += 1
        return t

    def error(self, msg, tok=None):
        """Raise at `tok` (the next token by default); its line and column
        are found only here."""
        raise CoreSyntaxError(msg, *line_col(self.src, (tok or self.peek()).pos))

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
        if self.peek().kind == "[" and self.peek(1).kind == "ident" and self.peek(2).kind == "]":
            self.take()
            name = self.take().text
            self.take()
            return name
        return self.names.fresh("s")

    def try_stage_prefix(self):
        """The stage of an `@stage:` prefix; None if absent."""
        if self.peek().kind != "@":
            return None
        self.take()
        stage = self.parse_stage()
        self.take(":")
        return stage

    def parse_stage(self, level=1):
        """A stage expression whose binary operators bind at least as tightly
        as `level`, by precedence climbing over `STAGE_LEVELS`; binary
        operators group left and `!` binds tightest."""
        t = self.take()
        if t.kind == "!":
            left = StageOp("!", (self.parse_stage(max(STAGE_LEVELS.values()) + 1),))
        elif t.kind == "(":
            left = self.parse_stage()
            self.take(")")
        elif t.kind == "ident":
            left = StageConst(t.text == "always") if t.text in ("always", "never") else Var(t.text)
        else:
            self.error(f"expected a stage, found {t.text!r}", t)
        while STAGE_LEVELS.get(self.peek().kind, 0) >= level:
            op = self.take().kind
            left = StageOp(op, (left, self.parse_stage(STAGE_LEVELS[op] + 1)))
        return left

    # -- parameters

    def parse_params(self):
        """After '('; returns tuple of Param."""
        params = []
        while self.peek().kind != ")":
            packed = False
            if self.peek().kind == "!":
                self.take()
                packed = True
            t = self.peek()
            if t.kind == "ident":
                self.take()
                if any(p.name == t.text for p in params):
                    self.error(f"duplicate parameter name {t.text!r}")
                if packed and any(p.packed for p in params):
                    self.error("a lambda may pack at most one parameter")
                params.append(Param(t.text, packed))
                self.names.reserve(t.text)
            else:
                self.error("expected parameter name")
            if self.peek().kind == ",":
                self.take()
        self.take(")")
        return tuple(params)

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
        t = self.peek()
        if t.kind == "int":
            self.take()
            return Int(int(t.text))
        if t.kind == "string":
            self.take()
            return Str(t.text)
        if t.kind == "ident":
            self.take()
            return self._name_term(t.text)
        if t.kind == "!":
            self.take()
            return Splice(self.parse_term())
        if t.kind == "[":
            self.take()
            items = []
            while self.peek().kind != "]":
                items.append(self.parse_term())
                if self.peek().kind == ",":
                    self.take()
            self.take("]")
            return TupleT(tuple(items))
        if t.kind == "(":
            self.take()
            params = self.parse_params()
            stage = self.stage_ann()
            self.take("{")
            body = self._scoped_body([p.name for p in params], stage)
            self.take("}")
            return Lam(params, stage, body)
        self.error(f"expected a term, found {t.text!r}")

    # -- bodies

    def parse_body(self, natural):
        """One body; `natural` is the stage used when no prefix is written."""
        explicit = self.try_stage_prefix()
        stage = explicit if explicit is not None else natural
        t = self.peek()

        if t.kind == "ident" and t.text in ("let", "fix"):
            self.take()
            sp = self.stage_ann()
            name = self.take("ident").text
            self.names.reserve(name)
            mark = len(self.shadowed)
            if t.text == "fix" and name in BUILTIN_NAMES:
                self.shadowed.append(name)  # a fix value sees its own name
            value = self.parse_term()
            del self.shadowed[mark:]
            rest = self._scoped_body((name,), sp)
            if t.text == "let":
                # let [y] x v b  ==  apply (x)[y]{ b } to v
                return Body(stage, App(Lam((Param(name),), sp, rest), (value,)))
            return Body(stage, FixB(sp, name, value, rest))

        if t.kind == "string":
            self.take()
            try:
                expr = parse_prim(t.text)
            except CoreSyntaxError as err:
                raise CoreSyntaxError(str(err), *line_col(self.src, t.pos)) from None
            self.take("(")
            outs = []
            while self.peek().kind != ")":
                o = self.peek()
                if o.kind != "ident":
                    self.error("expected binder name")
                self.take()
                outs.append(o.text)
                self.names.reserve(o.text)
                if self.peek().kind == ",":
                    self.take()
            self.take(")")
            if not outs:
                self.error("primitive expression must bind at least one name")
            # the continuation behaves like any lambda: it has an implicit
            # staging parameter which flips on when the expression fires
            cont_stage = self.stage_ann()
            rest = self._scoped_body(outs, cont_stage)
            return Body(stage, PrimB(expr, tuple(outs), cont_stage, rest))

        # application
        callee = self.parse_term()
        args = []
        while True:
            nxt = self.peek()
            if nxt.kind in ("}", "eof"):
                break
            if nxt.kind == "(":
                self.take()
                params = self.parse_params()
                sp = self.stage_ann()
                names = [p.name for p in params]
                if self.peek().kind == "{":
                    self.take()
                    body = self._scoped_body(names, sp)
                    self.take("}")
                    args.append(Lam(params, sp, body))
                    continue
                # trailing continuation: body is the rest of this block
                body = self._scoped_body(names, sp)
                args.append(Lam(params, sp, body))
                break
            args.append(self.parse_term())
        return Body(stage, App(callee, tuple(args)))


def read_core(text, names=None):
    """Read a single term (usually a lambda)."""
    r = Reader(text, names)
    term = r.parse_term()
    if r.peek().kind != "eof" or r.peek().pos < len(text):
        r.error("trailing input after term")
    return term


def read_program(text, names=None):
    """Read a whole program as a body; top level is always staged on."""
    r = Reader(text, names)
    body = r.parse_body(TOP)
    if r.peek().kind != "eof" or r.peek().pos < len(text):
        r.error("trailing input after program")
    return body

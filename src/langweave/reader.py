"""Reader for the staged-CPS concrete syntax.

Accepts both the quoted style (`'@s:'`, `'[y]'`, `'ft'`, `'always'`) and the
bare style (`@s:`, `[y]`, `ft`, `always`); the quotes are decoration.  All
sugar is desugared on the way in:

  (x){ f x }                natural staging: fresh stage name, body staged on it
  @e: let [y] x v b         application of (x)[y]{ b } to v
  @e: f a (x)[y] b          trailing continuation: last argument is a lambda
                            whose body is the rest of the enclosing block
  "p" (x)[y] b              primitive expression binding x, then b
  !v                        splice in argument position, pack in parameter position
"""

from .errors import CoreSyntaxError
from .names import FreshNames
from .prims import parse_prim
from .terms import (BUILTIN_NAMES, App, Body, Bool, Builtin, FixB, Int, Lam,
                    Param, PrimB, SAnd, SConst, SNot, SOr, Splice, SRef,
                    StageConst, Str, TupleT, Var)

_PUNCT = "(){}[],!@:&|"


class Tok:
    __slots__ = ("kind", "text", "line", "col", "pos", "end")

    def __init__(self, kind, text, line, col, pos=0, end=0):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col
        self.pos = pos
        self.end = end

    def __repr__(self):
        return f"Tok({self.kind}, {self.text!r})"


def tokenize(src, start=0):
    """Tokens of `src` from offset `start` to its end or to the first
    unmatched '}', where the `eof` token stands; lines and columns count
    from the start of `src`."""
    toks = []
    i, n = start, len(src)
    line = src.count("\n", 0, start) + 1
    col = start - src.rfind("\n", 0, start)
    depth = 0

    def advance(text):
        nonlocal line, col
        for ch in text:
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1

    while i < n:
        c = src[i]
        if c.isspace():
            advance(c)
            i += 1
            continue
        if src.startswith("//", i):
            j = src.find("\n", i)
            j = n if j < 0 else j
            advance(src[i:j])
            i = j
            continue
        start_line, start_col = line, col
        if c == "'":
            j = src.find("'", i + 1)
            if j < 0:
                raise CoreSyntaxError("unterminated quote", start_line, start_col)
            toks.append(Tok("quoted", src[i + 1:j], start_line, start_col, i, j + 1))
            advance(src[i:j + 1])
            i = j + 1
        elif c == '"':
            j = i + 1
            out = []
            while j < n and src[j] != '"':
                if src[j] == "\\" and j + 1 < n:
                    esc = src[j + 1]
                    out.append({"n": "\n", "t": "\t"}.get(esc, esc))
                    j += 2
                else:
                    out.append(src[j])
                    j += 1
            if j >= n:
                raise CoreSyntaxError("unterminated string", start_line, start_col)
            toks.append(Tok("string", "".join(out), start_line, start_col, i, j + 1))
            advance(src[i:j + 1])
            i = j + 1
        elif c.isdigit() or (c == "-" and i + 1 < n and src[i + 1].isdigit()):
            j = i + 1
            while j < n and src[j].isdigit():
                j += 1
            toks.append(Tok("int", src[i:j], start_line, start_col, i, j))
            advance(src[i:j])
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(Tok("ident", src[i:j], start_line, start_col, i, j))
            advance(src[i:j])
            i = j
        elif c in _PUNCT:
            if c == "}":
                if not depth:
                    break
                depth -= 1
            elif c == "{":
                depth += 1
            toks.append(Tok(c, c, start_line, start_col, i, i + 1))
            advance(c)
            i += 1
        else:
            raise CoreSyntaxError(f"unexpected character {c!r}", start_line, start_col)
    toks.append(Tok("eof", "", line, col, i, i))
    return toks


def _parse_stage_text(text, tok):
    """Parse the inside of a stage prefix: `a & b`, `!x | always`, ..."""
    toks = tokenize(text)
    pos = [0]

    def peek():
        return toks[pos[0]]

    def take():
        t = toks[pos[0]]
        pos[0] += 1
        return t

    def atom():
        t = take()
        if t.kind == "ident" or t.kind == "quoted":
            if t.text == "always":
                return SConst(True)
            if t.text == "never":
                return SConst(False)
            return SRef(t.text)
        if t.kind == "(":
            e = alt()
            if take().kind != ")":
                raise CoreSyntaxError("expected ')' in stage expression", tok.line, tok.col)
            return e
        if t.kind == "!":
            return SNot(atom())
        raise CoreSyntaxError(f"bad stage expression {text!r}", tok.line, tok.col)

    def conj():
        e = atom()
        while peek().kind == "&":
            take()
            e = SAnd(e, atom())
        return e

    def alt():
        e = conj()
        while peek().kind == "|":
            take()
            e = SOr(e, conj())
        return e

    expr = alt()
    if peek().kind != "eof" or peek().pos < len(text):
        raise CoreSyntaxError(f"trailing stage expression input {text!r}", tok.line, tok.col)
    return expr


class Reader:
    """Reads `src` from offset `start`; `bound` names the binders in scope
    around the text.  A builtin's name reads as `Builtin` unless a binder
    of that name is in scope."""

    def __init__(self, src, names=None, start=0, bound=()):
        self.toks = tokenize(src, start)
        self.i = 0
        self.names = names if names is not None else FreshNames()
        self.shadowed = [n for n in bound if n in BUILTIN_NAMES]
        for t in self.toks:
            if t.kind == "ident":
                self.names.reserve(t.text)
            elif t.kind == "quoted" and t.text.isidentifier():
                self.names.reserve(t.text)

    # -- token plumbing

    def peek(self, ahead=0):
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def take(self, kind=None):
        t = self.toks[self.i]
        if kind is not None and t.kind != kind:
            raise CoreSyntaxError(f"expected {kind!r}, found {t.text!r}", t.line, t.col)
        self.i += 1
        return t

    def error(self, msg):
        t = self.peek()
        raise CoreSyntaxError(msg, t.line, t.col)

    # -- scope

    def _scoped_body(self, names, stage):
        """`parse_body` staged on `stage`, with `names` and `stage` bound."""
        mark = len(self.shadowed)
        self.shadowed.extend(n for n in (*names, stage) if n in BUILTIN_NAMES)
        body = self.parse_body(SRef(stage))
        del self.shadowed[mark:]
        return body

    # -- stage annotations

    def try_stage_ann(self):
        """`'[y]'` or `[y]` right after a parameter list; None if absent."""
        t = self.peek()
        if t.kind == "quoted" and t.text.startswith("[") and t.text.endswith("]"):
            self.take()
            name = t.text[1:-1].strip()
            self.names.reserve(name)
            return name
        if t.kind == "[" and self.peek(1).kind == "ident" and self.peek(2).kind == "]":
            self.take()
            name = self.take("ident").text
            self.take("]")
            return name
        return None

    def try_stage_prefix(self):
        """`'@e:'` or `@ e... :`; None if absent."""
        t = self.peek()
        if t.kind == "quoted" and t.text.startswith("@") and t.text.endswith(":"):
            self.take()
            return _parse_stage_text(t.text[1:-1], t)
        if t.kind == "@":
            self.take()
            parts = []
            depth = 0
            while True:
                nxt = self.peek()
                if nxt.kind == "eof":
                    self.error("unterminated stage prefix")
                if nxt.kind == ":" and depth == 0:
                    self.take()
                    break
                if nxt.kind == "(":
                    depth += 1
                if nxt.kind == ")":
                    depth -= 1
                parts.append(self.take())
            text = " ".join(p.text if p.kind != "!" else "!" for p in parts)
            return _parse_stage_text(text, t)
        return None

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
            if t.kind in ("ident", "quoted"):
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
        if t.kind in ("ident", "quoted"):
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
            ann = self.try_stage_ann()
            stage = ann if ann is not None else self.names.fresh("s")
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
            ann = self.try_stage_ann()
            sp = ann if ann is not None else self.names.fresh("s")
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
                raise CoreSyntaxError(str(err), t.line, t.col) from None
            self.take("(")
            outs = []
            while self.peek().kind != ")":
                o = self.peek()
                if o.kind not in ("ident", "quoted"):
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
            ann = self.try_stage_ann()
            cont_stage = ann if ann is not None else self.names.fresh("s")
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
                ann = self.try_stage_ann()
                sp = ann if ann is not None else self.names.fresh("s")
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
    body = r.parse_body(SConst(True))
    if r.peek().kind != "eof" or r.peek().pos < len(text):
        r.error("trailing input after program")
    return body

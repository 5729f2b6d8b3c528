"""The quoted (non-CPS) expression sublanguage.

Covers exactly the forms the bundled languages need: integer/boolean/string
arithmetic and comparison, list literals, `concat`, and environment method
calls (`env.insert(k,v)`, `env.lookup(k)`, `env.items()`).  Parsing and
rendering live here; evaluation lives in the evaluator, which knows the
value domain.

Substituted operands are carried as `PQuote` nodes wrapping a term, so a
partially evaluated expression renders back to source with concrete values
inlined ("l-r" becomes "1-quot" once l is known).
"""

import re
from dataclasses import dataclass

from .errors import CoreSyntaxError

CMP_OPS = ("==", "!=", "<=", ">=", "<", ">")


class PrimExpr:
    __slots__ = ()

    def embedded_terms(self):
        return (leaf.term for leaf in prim_leaves(self) if isinstance(leaf, PQuote))


@dataclass(frozen=True)
class PInt(PrimExpr):
    value: int


@dataclass(frozen=True)
class PStr(PrimExpr):
    value: str


@dataclass(frozen=True)
class PName(PrimExpr):
    name: str


@dataclass(frozen=True, eq=False)
class PQuote(PrimExpr):
    term: object


@dataclass(frozen=True)
class PNeg(PrimExpr):
    inner: PrimExpr


@dataclass(frozen=True)
class PBin(PrimExpr):
    op: str
    left: PrimExpr
    right: PrimExpr


@dataclass(frozen=True)
class PList(PrimExpr):
    items: tuple


@dataclass(frozen=True)
class PCall(PrimExpr):
    fn: str
    args: tuple


@dataclass(frozen=True)
class PMethod(PrimExpr):
    obj: PrimExpr
    method: str
    args: tuple


def prim_leaves(expr):
    """The `PName` and `PQuote` nodes of an expression, left to right."""
    if isinstance(expr, (PName, PQuote)):
        yield expr
    elif isinstance(expr, PNeg):
        yield from prim_leaves(expr.inner)
    elif isinstance(expr, PBin):
        yield from prim_leaves(expr.left)
        yield from prim_leaves(expr.right)
    elif isinstance(expr, (PList, PCall)):
        for a in expr.items if isinstance(expr, PList) else expr.args:
            yield from prim_leaves(a)
    elif isinstance(expr, PMethod):
        yield from prim_leaves(expr.obj)
        for a in expr.args:
            yield from prim_leaves(a)


# ---------------------------------------------------------------------------
# parsing

_TOKEN = re.compile(r"""\s*(?:
    (?P<int>\d+) | (?P<name>[^\W\d]\w*) | (?P<str>'(?:[^']|'')*')
  | (?P<op>[=!<>]=|[-+*/<>()\[\],.]) | (?P<bad>.) )?""", re.S | re.X)


def _tokenize(text):
    toks = []
    end = 0
    while True:
        m = _TOKEN.match(text, end)
        kind, end = m.lastgroup, m.end()
        if kind is None:
            toks.append(("end", ""))
            return toks
        tok = m[kind]
        if kind == "bad" or (kind == "name" and not (tok[0].isalpha() or tok[0] == "_")):
            if tok[0] == "'":
                raise CoreSyntaxError(f"unterminated string in expression {text!r}")
            raise CoreSyntaxError(f"bad character {tok[0]!r} in expression {text!r}")
        toks.append((kind, tok[1:-1].replace("''", "'") if kind == "str" else tok))


class _P:
    def __init__(self, toks, text):
        self.toks = toks
        self.i = 0
        self.text = text

    def peek(self):
        return self.toks[self.i]

    def take(self, kind=None, val=None):
        k, v = self.toks[self.i]
        if (kind and k != kind) or (val and v != val):
            raise CoreSyntaxError(f"unexpected {v!r} in expression {self.text!r}")
        self.i += 1
        return v

    def at_op(self, *vals):
        k, v = self.peek()
        return k == "op" and v in vals


def parse_prim(text):
    p = _P(_tokenize(text), text)
    expr = _cmp(p)
    if p.peek()[0] != "end":
        raise CoreSyntaxError(f"trailing input in expression {text!r}")
    return expr


def _cmp(p):
    left = _add(p)
    if p.at_op(*CMP_OPS):
        op = p.take("op")
        return PBin(op, left, _add(p))
    return left


def _add(p):
    left = _mul(p)
    while p.at_op("+", "-"):
        op = p.take("op")
        left = PBin(op, left, _mul(p))
    return left


def _mul(p):
    left = _unary(p)
    while p.at_op("*", "/"):
        op = p.take("op")
        left = PBin(op, left, _unary(p))
    return left


def _unary(p):
    if p.at_op("-"):
        p.take("op")
        return PNeg(_unary(p))
    return _postfix(p)


def _postfix(p):
    expr = _atom(p)
    while p.at_op("."):
        p.take("op")
        method = p.take("name")
        p.take("op", "(")
        args = _args(p, ")")
        expr = PMethod(expr, method, tuple(args))
    return expr


def _args(p, closer):
    args = []
    if not p.at_op(closer):
        args.append(_cmp(p))
        while p.at_op(","):
            p.take("op")
            args.append(_cmp(p))
    p.take("op", closer)
    return args


def _atom(p):
    kind, val = p.peek()
    if kind == "int":
        p.take()
        return PInt(int(val))
    if kind == "str":
        p.take()
        return PStr(val)
    if kind == "name":
        p.take()
        if p.at_op("("):
            p.take("op")
            return PCall(val, tuple(_args(p, ")")))
        return PName(val)
    if p.at_op("("):
        p.take("op")
        inner = _cmp(p)
        p.take("op", ")")
        return inner
    if p.at_op("["):
        p.take("op")
        return PList(tuple(_args(p, "]")))
    raise CoreSyntaxError(f"unexpected {val!r} in expression {p.text!r}")


# ---------------------------------------------------------------------------
# substitution / rendering / comparison

def prim_map(expr, leaf):
    """`expr` with each `PName` and `PQuote` node replaced by `leaf(node)`,
    and the nodes above them rebuilt."""
    if isinstance(expr, (PName, PQuote)):
        return leaf(expr)
    if isinstance(expr, PNeg):
        return PNeg(prim_map(expr.inner, leaf))
    if isinstance(expr, PBin):
        return PBin(expr.op, prim_map(expr.left, leaf), prim_map(expr.right, leaf))
    if isinstance(expr, PList):
        return PList(tuple(prim_map(a, leaf) for a in expr.items))
    if isinstance(expr, PCall):
        return PCall(expr.fn, tuple(prim_map(a, leaf) for a in expr.args))
    if isinstance(expr, PMethod):
        return PMethod(prim_map(expr.obj, leaf), expr.method,
                       tuple(prim_map(a, leaf) for a in expr.args))
    return expr


def prim_subst(expr, mapping, term_subst):
    def leaf(node):
        if isinstance(node, PQuote):
            return PQuote(term_subst(node.term))
        return PQuote(mapping[node.name]) if node.name in mapping else node

    return prim_map(expr, leaf)


_PREC = {"atom": 4, "neg": 3, "mul": 2, "add": 1, "cmp": 0}


def render_prim(expr, quote_render, env=None):
    """Back to source text.  `quote_render` renders an embedded term, and
    the term a name has in the dict `env`, if given, in place of the name."""

    def go(e, prec):
        if isinstance(e, PInt):
            return str(e.value)
        if isinstance(e, PStr):
            return "'" + e.value.replace("'", "''") + "'"
        if isinstance(e, PName):
            return quote_render(env[e.name]) if env is not None and e.name in env else e.name
        if isinstance(e, PQuote):
            return quote_render(e.term)
        if isinstance(e, PNeg):
            s = "-" + go(e.inner, _PREC["neg"])
            return f"({s})" if prec > _PREC["neg"] else s
        if isinstance(e, PBin):
            if e.op in CMP_OPS:
                level = _PREC["cmp"]
            elif e.op in "+-":
                level = _PREC["add"]
            else:
                level = _PREC["mul"]
            # comparisons do not chain, so neither operand may be one
            left = go(e.left, level + (level == _PREC["cmp"]))
            s = f"{left}{e.op}{go(e.right, level + 1)}"
            return f"({s})" if prec > level else s
        if isinstance(e, PList):
            return "[" + ",".join(go(a, 0) for a in e.items) + "]"
        if isinstance(e, PCall):
            return e.fn + "(" + ",".join(go(a, 0) for a in e.args) + ")"
        if isinstance(e, PMethod):
            return go(e.obj, _PREC["atom"]) + "." + e.method + "(" + ",".join(go(a, 0) for a in e.args) + ")"
        raise TypeError(f"not a prim expression: {e!r}")

    return go(expr, 0)


def normalize_prim(expr, conv):
    """Fold `PQuote` nodes back into plain prim nodes where `conv` knows an
    equivalent (e.g. a quoted integer term becomes `PInt`), so partially
    evaluated expressions compare against freshly parsed ones."""
    def leaf(node):
        folded = conv(node.term) if isinstance(node, PQuote) else None
        return node if folded is None else prim_map(folded, leaf)

    return prim_map(expr, leaf)


def prim_alpha_eq(a, b, name_eq, term_eq):
    if type(a) is not type(b):
        # a substituted operand may compare against a still-named one only
        # if both are names/quotes of matching vars; keep it strict.
        return False
    if isinstance(a, PInt):
        return a.value == b.value
    if isinstance(a, PStr):
        return a.value == b.value
    if isinstance(a, PName):
        return name_eq(a.name, b.name)
    if isinstance(a, PQuote):
        return term_eq(a.term, b.term)
    if isinstance(a, PNeg):
        return prim_alpha_eq(a.inner, b.inner, name_eq, term_eq)
    if isinstance(a, PBin):
        return a.op == b.op and prim_alpha_eq(a.left, b.left, name_eq, term_eq) \
            and prim_alpha_eq(a.right, b.right, name_eq, term_eq)
    if isinstance(a, PList):
        return len(a.items) == len(b.items) and all(
            prim_alpha_eq(x, y, name_eq, term_eq) for x, y in zip(a.items, b.items))
    if isinstance(a, PCall):
        return a.fn == b.fn and len(a.args) == len(b.args) and all(
            prim_alpha_eq(x, y, name_eq, term_eq) for x, y in zip(a.args, b.args))
    if isinstance(a, PMethod):
        return a.method == b.method and prim_alpha_eq(a.obj, b.obj, name_eq, term_eq) \
            and len(a.args) == len(b.args) and all(
                prim_alpha_eq(x, y, name_eq, term_eq) for x, y in zip(a.args, b.args))
    return False

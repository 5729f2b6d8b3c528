"""The quoted (non-CPS) expression sublanguage.

Covers exactly the forms the bundled languages need: integer/boolean/string
arithmetic and comparison, list literals, `concat`, and environment method
calls (`env.insert(k,v)`, `env.lookup(k)`, `env.items()`).  Besides the
literals and names, every form is one `POp` node, and one table, `BINARY`,
gives the binary operators' levels to the parser, to `render_prim` and to
the evaluator.  Parsing and rendering live here; evaluation lives in the
evaluator, which knows the value domain.

Substituted operands are carried as `PQuote` nodes wrapping a term, so a
partially evaluated expression renders back to source with concrete values
inlined ("l-r" becomes "1-quot" once l is known).
"""

import re
from .errors import CoreSyntaxError
from .records import Ident, Value

# The binary operators and their levels, loosest first: comparisons, which
# do not chain, then `+ -`, then `* /`.  Each groups left.  Unary `-` binds
# tighter than all of them, and a method call tighter still.
BINARY = {"==": 0, "!=": 0, "<=": 0, ">=": 0, "<": 0, ">": 0,
          "+": 1, "-": 1, "*": 2, "/": 2}
_NEG, _POSTFIX = 3, 4


class PrimExpr:
    __slots__ = ()

    def embedded_terms(self):
        return (leaf.term for leaf in prim_leaves(self) if isinstance(leaf, PQuote))


class PInt(PrimExpr, Value):
    __slots__ = ("value",)


class PStr(PrimExpr, Value):
    __slots__ = ("value",)


class PName(PrimExpr, Value):
    __slots__ = ("name",)


class PQuote(PrimExpr, Ident):
    __slots__ = ("term",)


class POp(PrimExpr, Value):
    """An operator applied to its operands.  `op` is as the source writes
    it: a binary operator (see `BINARY`); `-` with one operand, negation;
    `[]`, a list; a function name; or `.` and a method name, the object
    first among the operands."""
    __slots__ = ("op", "args")


def prim_leaves(expr):
    """The `PName` and `PQuote` nodes of an expression, left to right."""
    if isinstance(expr, POp):
        for a in expr.args:
            yield from prim_leaves(a)
    elif isinstance(expr, (PName, PQuote)):
        yield expr


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
    expr = _binary(p)
    if p.peek()[0] != "end":
        raise CoreSyntaxError(f"trailing input in expression {text!r}")
    return expr


def _binary(p, level=0):
    """Operands joined by binary operators of `level` or tighter
    (precedence climbing); a comparison ends it, so comparisons do not chain."""
    left = _unary(p)
    while True:
        kind, op = p.peek()
        op_level = BINARY.get(op) if kind == "op" else None
        if op_level is None or op_level < level:
            return left
        p.take()
        left = POp(op, (left, _binary(p, op_level + 1)))
        if op_level == 0:
            return left


def _unary(p):
    if p.at_op("-"):
        p.take("op")
        return POp("-", (_unary(p),))
    return _postfix(p)


def _postfix(p):
    expr = _atom(p)
    while p.at_op("."):
        p.take("op")
        method = "." + p.take("name")
        p.take("op", "(")
        expr = POp(method, (expr, *_args(p, ")")))
    return expr


def _args(p, closer):
    args = []
    if not p.at_op(closer):
        args.append(_binary(p))
        while p.at_op(","):
            p.take("op")
            args.append(_binary(p))
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
            return POp(val, tuple(_args(p, ")")))
        return PName(val)
    if p.at_op("("):
        p.take("op")
        inner = _binary(p)
        p.take("op", ")")
        return inner
    if p.at_op("["):
        p.take("op")
        return POp("[]", tuple(_args(p, "]")))
    raise CoreSyntaxError(f"unexpected {val!r} in expression {p.text!r}")


# ---------------------------------------------------------------------------
# substitution / rendering / comparison

def prim_map(expr, leaf):
    """`expr` with each `PName` and `PQuote` node replaced by `leaf(node)`,
    and the nodes above them rebuilt."""
    if isinstance(expr, POp):
        return POp(expr.op, tuple([prim_map(a, leaf) for a in expr.args]))
    if isinstance(expr, (PName, PQuote)):
        return leaf(expr)
    return expr


def prim_subst(expr, mapping, term_subst):
    def leaf(node):
        if isinstance(node, PQuote):
            return PQuote(term_subst(node.term))
        return PQuote(mapping[node.name]) if node.name in mapping else node

    return prim_map(expr, leaf)


def render_prim(expr, quote_render):
    """Back to source text; `quote_render` renders an embedded term."""

    def go(e, prec):
        if isinstance(e, PInt):
            return str(e.value)
        if isinstance(e, PStr):
            return "'" + e.value.replace("'", "''") + "'"
        if isinstance(e, PName):
            return e.name
        if isinstance(e, PQuote):
            return quote_render(e.term)
        if not isinstance(e, POp):
            raise TypeError(f"not a prim expression: {e!r}")
        op, args = e.op, e.args
        level = BINARY.get(op) if len(args) == 2 else None
        if level is not None:
            # comparisons do not chain, so neither operand may be one
            s = go(args[0], level + (level == 0)) + op + go(args[1], level + 1)
        elif op == "-":
            level = _NEG
            s = "-" + go(args[0], _NEG)
        elif op == "[]":
            return "[" + ",".join(go(a, 0) for a in args) + "]"
        elif op[0] == ".":
            return go(args[0], _POSTFIX) + op + "(" + ",".join(go(a, 0) for a in args[1:]) + ")"
        else:
            return op + "(" + ",".join(go(a, 0) for a in args) + ")"
        return f"({s})" if prec > level else s

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
    if isinstance(a, POp):
        return a.op == b.op and len(a.args) == len(b.args) and all(
            prim_alpha_eq(x, y, name_eq, term_eq) for x, y in zip(a.args, b.args))
    if isinstance(a, (PInt, PStr)):
        return a.value == b.value
    if isinstance(a, PName):
        return name_eq(a.name, b.name)
    if isinstance(a, PQuote):
        return term_eq(a.term, b.term)
    return False

"""The quoted (non-CPS) expression sublanguage.

Covers exactly the forms the bundled languages need: integer/boolean/string
arithmetic and comparison, list literals, `concat`, and environment method
calls (`env.insert(k,v)`, `env.lookup(k)`, `env.items()`).  Besides the
holes, every form is one `POp` node, and one table, `BINARY`,
gives the binary operators' levels to the parser, to `render_prim` and to
the evaluator.  Parsing and rendering live here; evaluation lives in the
evaluator, which knows the value domain.

A primitive is an operator template over a tuple of operands.  The
template, parsed once per quoted text and shared by every copy, is a
closed tree of `POp` nodes with numbered `Hole`s; each name and each
literal of the text is a hole, and its operand is a core term (a `Var`,
`Int` or `Str`).  Substitution replaces operands as it replaces an `App`'s
arguments, and rendering fills each hole with its operand as the
expression it reads back as ("l-r" becomes "1-quot" once l is known).
`parse_prim` also numbers the holes of names: such a name waits for its
value until a substitution reaches it, while a symbolic value substituted
in is data (see `terms.PrimB`).  This module imports the term classes;
`terms` renders a template through its `render` method, and so does not
import this module.
"""

import re
from .errors import CoreSyntaxError
from .records import Value
from .terms import Bool, EnvVal, Int, Str, TupleT, Var

# The binary operators and their levels, loosest first: comparisons, which
# do not chain, then `+ -`, then `* /`.  Each groups left.  Unary `-` binds
# tighter than all of them, and a method call tighter still.
BINARY = {"==": 0, "!=": 0, "<=": 0, ">=": 0, "<": 0, ">": 0,
          "+": 1, "-": 1, "*": 2, "/": 2}
_NEG, _POSTFIX = 3, 4


class _Node(Value):
    __slots__ = ()

    def render(self, operands, marked=None):
        """`render_prim` of the template this node is the root of."""
        return render_prim(self, operands, marked)


class Hole(_Node):
    """The place of the operand numbered `index`."""
    __slots__ = ("index",)


class POp(_Node):
    """An operator applied to its operands.  `op` is as the source writes
    it: a binary operator (see `BINARY`); `-` with one operand, negation;
    `[]`, a list; a function name; or `.` and a method name, the object
    first among the operands."""
    __slots__ = ("op", "args")


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
        self.operands = []
        self.named = []

    def hole(self, term):
        """A hole for the operand `term`, numbered in reading order."""
        self.operands.append(term)
        return Hole(len(self.operands) - 1)

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
    """(template, operands, named) of a quoted expression, `named` the
    holes whose operands are the names it writes."""
    p = _P(_tokenize(text), text)
    expr = _binary(p)
    if p.peek()[0] != "end":
        raise CoreSyntaxError(f"trailing input in expression {text!r}")
    return expr, tuple(p.operands), tuple(p.named)


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
        return p.hole(Int(int(val)))
    if kind == "str":
        p.take()
        return p.hole(Str(val))
    if kind == "name":
        p.take()
        if p.at_op("("):
            p.take("op")
            return POp(val, tuple(_args(p, ")")))
        p.named.append(len(p.operands))
        return p.hole(Var(val))
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
# rendering

def render_prim(expr, operands, marked=None, prec=0):
    """Back to source text, each hole filled with its operand by
    `_quote_render`, which `marked` is passed to; `prec` is the level below
    which an operator needs parentheses."""
    if type(expr) is Hole:
        return _quote_render(operands[expr.index], prec, marked)
    op, args = expr.op, expr.args
    level = BINARY.get(op) if len(args) == 2 else None
    if level is not None:
        # comparisons do not chain, so neither operand may be one
        s = (render_prim(args[0], operands, marked, level + (level == 0)) + op
             + render_prim(args[1], operands, marked, level + 1))
    elif op == "-":
        level = _NEG
        s = "-" + render_prim(args[0], operands, marked, _NEG)
    elif op == "[]":
        return "[" + ",".join(render_prim(a, operands, marked) for a in args) + "]"
    elif op[0] == ".":
        return (render_prim(args[0], operands, marked, _POSTFIX) + op + "("
                + ",".join(render_prim(a, operands, marked) for a in args[1:]) + ")")
    else:
        return op + "(" + ",".join(render_prim(a, operands, marked) for a in args) + ")"
    return f"({s})" if prec > level else s


def _quote_render(term, prec=0, marked=None):
    """A term as the expression it reads back as (`-7`, `1==1`, `[]`),
    parenthesized at its own level below level `prec`.  Given the list
    `marked`, a term that has no such text (a name, a lambda, ...) is
    appended to it and written as its numbered mark."""
    kind = type(term)
    if kind is Int:
        s, level = str(term.value), _NEG if term.value < 0 else _POSTFIX
    elif kind is Bool:
        s, level = "1==1" if term.value else "1==0", 0
    elif kind is Str:
        return "'" + term.value.replace("'", "''") + "'"
    elif kind is TupleT:
        return "[" + ",".join(_quote_render(t, 0, marked) for t in term.items) + "]"
    elif marked is not None:
        marked.append(term)
        return f"${len(marked)}"
    else:
        return term.name if kind is Var else "#env" if kind is EnvVal else "#value"
    return f"({s})" if prec > level else s

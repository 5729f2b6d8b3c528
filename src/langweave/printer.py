"""Deterministic pretty-printer for the staged-CPS syntax.

Prints the fully explicit form (every stage annotation spelled out, every
lambda braced), so reading the output back yields an alpha-equivalent term
and re-printing it is byte-identical.
"""

from .prims import render_prim
from .terms import (STAGE_LEVELS, App, Bool, Builtin, EnvVal, FragVal, Int,
                    Lam, PrimB, Rec, RetK, Splice, StageConst, Str, TupleT, Var)

_INDENT = "  "
# the values that have no source text
_OPAQUE = {EnvVal: "#env", FragVal: "#fragment", RetK: "#return", Rec: "#rec"}


def _stage_text(expr, prec=0):
    # `&` and `|` read left-associative, so a right operand of the same
    # operator keeps its parentheses
    if isinstance(expr, StageConst):
        return "always" if expr.top else "never"
    if isinstance(expr, Var):
        return expr.name
    if expr.op == "!":
        return f"!{_stage_text(expr.args[0], max(STAGE_LEVELS.values()) + 1)}"
    level = STAGE_LEVELS[expr.op]
    left, right = expr.args
    s = f"{_stage_text(left, level)} {expr.op} {_stage_text(right, level + 1)}"
    return f"({s})" if prec > level else s


def _escape(text):
    return text.replace("\\", "\\\\").replace('"', '\\"')


def print_term(term, indent=0):
    pad = _INDENT * indent
    if isinstance(term, Var):
        return term.name
    if isinstance(term, Int):
        return str(term.value)
    if isinstance(term, Str):
        return f'"{_escape(term.value)}"'
    if isinstance(term, Bool):
        return "true" if term.value else "false"
    if isinstance(term, StageConst):
        return "'always'" if term.top else "'never'"
    if isinstance(term, Splice):
        return "!" + print_term(term.inner, indent)
    if isinstance(term, TupleT):
        return "[" + ", ".join(print_term(t, indent) for t in term.items) + "]"
    if isinstance(term, Builtin):
        return term.name
    if isinstance(term, Lam):
        params = ", ".join(("!" if p.packed else "") + p.name for p in term.params)
        head = f"({params})'[{term.stage}]'"
        body = print_body(term.body, indent + 1)
        return f"{head} {{\n{body}\n{pad}}}"
    return _OPAQUE[type(term)]


def print_prim(template, operands):
    """A primitive expression as source text, each value in it printed as
    the expression it reads back as, parenthesized as one."""
    return render_prim(template, operands)


def print_body(body, indent=0):
    pad = _INDENT * indent
    prefix = f"'@{_stage_text(body.stage)}:'"
    form = body.form
    if isinstance(form, App):
        parts = [prefix, print_term(form.callee, indent)]
        parts.extend(print_term(a, indent) for a in form.args)
        return pad + " ".join(parts)
    if isinstance(form, PrimB):
        expr = _escape(print_prim(form.template, form.operands))
        outs = ", ".join(form.outs)
        line = f"{pad}{prefix} \"{expr}\" ({outs})'[{form.cont_stage}]'"
        return line + "\n" + print_body(form.rest, indent)
    # the one form left is `FixB`
    line = (f"{pad}{prefix} fix '[{form.stage_param}]' {form.name} "
            f"{print_term(form.value, indent)}")
    return line + "\n" + print_body(form.rest, indent)


def print_core(term):
    """Public printer: term to source text."""
    return print_term(term, 0)


# ---------------------------------------------------------------------------
# value rendering (the print builtin, traces, CLI output)


def render_value(term, nested=True):
    if isinstance(term, Int):
        return str(term.value)
    if isinstance(term, Str):
        return f'"{term.value}"' if nested else term.value
    if isinstance(term, Bool):
        return "true" if term.value else "false"
    if isinstance(term, TupleT):
        return "[" + ",".join(render_value(t, nested=True) for t in term.items) + "]"
    if isinstance(term, Var):
        return term.name
    if isinstance(term, StageConst):
        return "'always'" if term.top else "'never'"
    if isinstance(term, Lam):
        return "#code"
    if isinstance(term, FragVal):
        return f"#fragment/{term.fragment.arity}"
    if isinstance(term, EnvVal):
        return "#env"
    if isinstance(term, Splice):
        return "!" + render_value(term.inner)
    return "#value"

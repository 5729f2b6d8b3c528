"""Deterministic pretty-printer for the staged-CPS syntax.

Prints the fully explicit form (every stage annotation spelled out, every
lambda braced), so reading the output back yields an alpha-equivalent term
and re-printing it is byte-identical.
"""

from .prims import render_prim
from .terms import (App, Bool, Builtin, EnvVal, FixB, FragVal, Inert, Int,
                    Lam, PrimB, Rec, RetK, SAnd, SConst, SNot, SOr, Splice,
                    SRef, StageConst, Str, TupleT, Var)

_INDENT = "  "


def _stage_text(expr, prec=0):
    # `&` and `|` read left-associative, so a right operand of the same
    # operator keeps its parentheses
    if isinstance(expr, SConst):
        return "always" if expr.top else "never"
    if isinstance(expr, SRef):
        return expr.name
    if isinstance(expr, SOr):
        s = f"{_stage_text(expr.left, 1)} | {_stage_text(expr.right, 2)}"
        return f"({s})" if prec > 1 else s
    if isinstance(expr, SAnd):
        s = f"{_stage_text(expr.left, 2)} & {_stage_text(expr.right, 3)}"
        return f"({s})" if prec > 2 else s
    if isinstance(expr, SNot):
        return f"!{_stage_text(expr.inner, 3)}"
    raise TypeError(f"not a stage expression: {expr!r}")


def _escape(text):
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _quote_render(term):
    """Render a term embedded in a primitive expression."""
    if isinstance(term, Int):
        return str(term.value)
    if isinstance(term, Var):
        return term.name
    if isinstance(term, Str):
        return f"'{term.value}'"
    if isinstance(term, Bool):
        return "1==1" if term.value else "1==0"
    if isinstance(term, TupleT):
        return "[" + ",".join(_quote_render(t) for t in term.items) + "]"
    if isinstance(term, EnvVal):
        return "#env"
    return "#value"


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
    if isinstance(term, EnvVal):
        return "#env"
    if isinstance(term, FragVal):
        return "#fragment"
    if isinstance(term, RetK):
        return "#return"
    if isinstance(term, Rec):
        return "#rec"
    raise TypeError(f"cannot print {term!r}")


def print_body(body, indent=0):
    pad = _INDENT * indent
    prefix = f"'@{_stage_text(body.stage)}:'"
    form = body.form
    if isinstance(form, App):
        parts = [prefix, print_term(form.callee, indent)]
        parts.extend(print_term(a, indent) for a in form.args)
        return pad + " ".join(parts)
    if isinstance(form, PrimB):
        expr = _escape(render_prim(form.expr, _quote_render))
        outs = ", ".join(form.outs)
        line = f'{pad}{prefix} "{expr}" ({outs})'
        if form.cont_stage is not None:
            line += f"'[{form.cont_stage}]'"
        return line + "\n" + print_body(form.rest, indent)
    if isinstance(form, FixB):
        line = (f"{pad}{prefix} fix '[{form.stage_param}]' {form.name} "
                f"{print_term(form.value, indent)}")
        return line + "\n" + print_body(form.rest, indent)
    if isinstance(form, Inert):
        parts = [f"{pad}'@never:'", "#done"]
        parts.extend(print_term(a, indent) for a in form.args)
        return " ".join(parts)
    raise TypeError(f"cannot print body form {form!r}")


def print_core(term):
    """Public printer: term to source text."""
    return print_term(term, 0)


def print_program(body):
    return print_body(body, 0)

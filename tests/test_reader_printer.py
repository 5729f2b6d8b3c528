"""Concrete syntax: reading, sugar desugaring, printing, round trips."""

from pathlib import Path

import pytest

from langweave.errors import CoreSyntaxError, LangError
from langweave.grammar import TOKEN_CLASSES, NtUse
from langweave.grammar_reader import read_grammar
from langweave.parsegen import EOI
from langweave.printer import print_core, print_program
from langweave.prims import PName, parse_prim
from langweave.reader import read_core, read_program
from langweave.runtime import LexerDef, lex_next
from langweave.terms import (BUILTIN_NAMES, App, Bool, Int, Lam, PrimB, SConst,
                             Splice, SRef, Str, TupleT, Var, alpha_eq,
                             alpha_eq_body, postorder)

FIXTURES = Path(__file__).parent / "fixtures"


def test_explicit_core_lambda():
    t = read_core("(x)'[s]'{ '@s:' f x }")
    assert isinstance(t, Lam)
    assert [p.name for p in t.params] == ["x"]
    assert t.stage == "s"
    assert isinstance(t.body.form, App)
    assert t.body.stage == SRef("s")
    assert t.body.form.callee == Var("f")
    assert t.body.form.args == (Var("x"),)


def test_natural_staging_sugar():
    explicit = read_core("(x)'[s]'{ '@s:' f x }")
    sugared = read_core("(x){ f x }")
    assert alpha_eq(explicit, sugared)


def test_prim_expression_sugar():
    t = read_core('(c, k)\'[s]\'{ "a+b" (c2) k c2 }')
    form = t.body.form
    assert isinstance(form, PrimB)
    assert form.outs == ("c2",)
    # the rest activates on the expression's continuation stage
    assert form.rest.stage == SRef(form.cont_stage)
    assert isinstance(form.rest.form, App)


def test_packed_param_and_splice():
    t = read_core("(!args, cont){ cont !args }")
    assert t.params[0].packed and t.params[0].name == "args"
    assert not t.params[1].packed
    assert t.body.form.args == (Splice(Var("args")),)
    assert "!args" in print_core(t)


def test_pack_not_required_last():
    t = read_core("('ft', l, r, !args, cont){ cont 'ft' l r !args }")
    names = [(p.name, p.packed) for p in t.params]
    assert names == [("ft", False), ("l", False), ("r", False),
                     ("args", True), ("cont", False)]


def test_negative_integer_literal():
    t = read_core("(exit){ exit -1 }")
    assert t.body.form.args == (Int(-1),)


def test_tuple_literal_and_bool():
    t = read_core("(k){ k [] [1, 2] true }")
    assert t.body.form.args == (TupleT(()), TupleT((Int(1), Int(2))), Bool(True))


def test_stage_expressions():
    t = read_core("(a, b, k)'[s]'{ '@a & b:' k 1 }")
    body = t.body
    assert stagetext(body.stage) == "a&b"
    t = read_core("(a, k)'[s]'{ '@!a | s:' k 1 }")
    assert stagetext(t.body.stage) == "!a|s"


def stagetext(e):
    from langweave.terms import SAnd, SNot, SOr
    if isinstance(e, SRef):
        return e.name
    if isinstance(e, SConst):
        return "T" if e.top else "F"
    if isinstance(e, SAnd):
        return stagetext(e.left) + "&" + stagetext(e.right)
    if isinstance(e, SOr):
        return stagetext(e.left) + "|" + stagetext(e.right)
    if isinstance(e, SNot):
        return "!" + stagetext(e.inner)
    raise AssertionError


def test_let_sugar_desugars_to_application():
    t = read_core("(k)'[s]'{ '@s:' let '[y]' x 5 k x }")
    form = t.body.form
    assert isinstance(form, App)
    assert isinstance(form.callee, Lam)
    assert form.args == (Int(5),)
    inner = form.callee
    assert [p.name for p in inner.params] == ["x"]
    assert inner.body.stage == SRef("y")


def test_trailing_continuation_sugar():
    t = read_core("(k)'[s]'{ build 2 (f){ f 1 } (out) k out }")
    args = t.body.form.args
    assert isinstance(args[-1], Lam)  # (out) continuation holds the rest
    rest = args[-1].body
    assert isinstance(rest.form, App)
    assert rest.form.callee == Var("k")


def test_quoted_and_bare_forms_agree():
    quoted = read_core("(x)'[s]'{ '@s:' f 'always' x }")
    bare = read_core("(x)[s]{ @s: f always x }")
    assert alpha_eq(quoted, bare)


def test_duplicate_and_double_pack_params_rejected():
    with pytest.raises(CoreSyntaxError):
        read_core("(x, x){ f x }")
    with pytest.raises(CoreSyntaxError):
        read_core("(!a, !b){ f a }")


@pytest.mark.parametrize("src, kinds", [
    ("(k){ if k k k }", ["Builtin"]),
    ("(if){ if 1 }", ["Var"]),
    ("(k){ let if k if 1 }", ["Var"]),
    ("(k){ fix exit (n){ exit n } exit 1 }", ["Var", "Var"]),
    ('(k){ "1" (print) print 2 }', ["Var"]),
    ("(k)[print]{ print 1 }", ["Var"]),
    ("(k){ f (print){ print 1 } (){ print 2 } }", ["Builtin", "Var"]),
])
def test_builtin_names_read_as_builtins_unless_bound(src, kinds):
    callees = [b.form.callee for b in postorder(read_core(src).body)
               if isinstance(b.form, App)]
    assert sorted(type(c).__name__ for c in callees
                  if getattr(c, "name", None) in BUILTIN_NAMES) == kinds


def test_syntax_error_carries_position():
    with pytest.raises(CoreSyntaxError) as err:
        read_core("(x){ f % }")
    assert "at 1:" in str(err.value)


def test_unterminated_string():
    with pytest.raises(CoreSyntaxError):
        read_core('(x){ "unclosed (y) f y }')


ROUND_TRIP_SOURCES = sorted(FIXTURES.glob("*.core"))


@pytest.mark.parametrize("path", ROUND_TRIP_SOURCES, ids=lambda p: p.name)
def test_round_trip_alpha_identity(path):
    term = read_core(path.read_text())
    printed = print_core(term)
    again = read_core(printed)
    assert alpha_eq(term, again)
    assert print_core(again) is not None  # printing is total on read output


def test_round_trip_program_body():
    body = read_program("f 1 2 (out)'[s]' '@s:' g out")
    printed = print_program(body)
    again = read_program(printed)
    assert alpha_eq_body(body, again)


def test_printer_deterministic():
    src = (FIXTURES / "signum_script.core").read_text()
    a = print_core(read_core(src))
    b = print_core(read_core(src))
    assert a == b


# ---------------------------------------------------------------------------
# lexical classes, pinned across the four lexers


def _runtime_token(text):
    lexdef = LexerDef((), frozenset(TOKEN_CLASSES))
    tok = lex_next(text, 0, lexdef)
    assert lex_next(text, tok.span[1], lexdef).key == EOI
    kind = {"Identifier": "ident", "Integer": "int", "String": "string"}[tok.key[1]]
    return kind, tok.value.value


def _core_token(text):
    term = read_core(text)
    if isinstance(term, Var):
        return "ident", term.name
    return ("int" if isinstance(term, Int) else "string"), term.value


def _grammar_token(text):
    (use,) = read_grammar(f"grammar g {{ entry S ::= {text}; }}").rules["S"].productions[0].body
    return ("ident", use.name) if isinstance(use, NtUse) else ("string", use.text)


def _prim_token(text):
    expr = parse_prim(text)
    return ("ident", expr.name) if isinstance(expr, PName) else ("int", expr.value)


LEXERS = {"runtime": _runtime_token, "core": _core_token, "grammar": _grammar_token,
          "prim": _prim_token}
REJECTED = None
# name: (text, the token each lexer reads from it); a lexer that is not listed
# has no such token class (primitive expressions have no "..." strings).
LEXICAL_CASES = {
    "letter": ("é", dict.fromkeys(LEXERS, ("ident", "é"))),
    "underscore": ("_x", dict.fromkeys(LEXERS, ("ident", "_x"))),
    "digit_in_name": ("x²", dict.fromkeys(LEXERS, ("ident", "x²"))),
    "decimal_digit": ("٣", {"runtime": ("int", 3), "core": ("int", 3), "grammar": REJECTED,
                            "prim": ("int", 3)}),
    "nondecimal_digit": ("²", dict.fromkeys(LEXERS, REJECTED)),
    "numeric": ("½", dict.fromkeys(LEXERS, REJECTED)),
    "no_break_space": ("\xa0x\xa0", dict.fromkeys(LEXERS, ("ident", "x"))),
    "backslash_newline": ('"a\\\nb"', {"runtime": ("string", "a\\\nb"),
                                        "core": ("string", "a\nb"),
                                        "grammar": ("string", "a\nb")}),
}


@pytest.mark.parametrize("lexer, text, expected", [
    pytest.param(lexer, text, expected, id=f"{lexer}-{case}")
    for case, (text, by_lexer) in LEXICAL_CASES.items()
    for lexer, expected in by_lexer.items()])
def test_lexical_classes_agree_across_lexers(lexer, text, expected):
    if expected is REJECTED:
        with pytest.raises(LangError):
            LEXERS[lexer](text)
    else:
        assert LEXERS[lexer](text) == expected

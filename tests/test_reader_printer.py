"""Concrete syntax: reading, sugar desugaring, printing, round trips."""

from pathlib import Path

import pytest

from langweave.errors import CoreSyntaxError, LangError, LexFailure
from langweave.grammar import TOKEN_CLASSES, NtUse
from langweave.grammar_reader import read_grammar
from langweave.parsegen import EOI
from langweave.printer import print_body, print_core
from langweave.prims import parse_prim
from langweave.reader import read_core, read_program
from langweave.runtime import LexerDef, lex_next
from langweave.names import FreshNames
from langweave.terms import (BUILTIN_NAMES, App, Bool, EnvVal, Int, Lam, PrimB, RetK, Splice,
                             StageConst, StageOp, Str, TupleT, Var, alpha_eq,
                             alpha_eq_body, postorder, subst_body)

FIXTURES = Path(__file__).parent / "fixtures"


def test_explicit_core_lambda():
    t = read_core("(x)'[s]'{ '@s:' f x }")
    assert isinstance(t, Lam)
    assert [p.name for p in t.params] == ["x"]
    assert t.stage == "s"
    assert isinstance(t.body.form, App)
    assert t.body.stage == Var("s")
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
    assert form.rest.stage == Var(form.cont_stage)
    assert isinstance(form.rest.form, App)


@pytest.mark.parametrize("text, grouped", [
    ("a-b*c", "a-(b*c)"), ("a/b+c", "(a/b)+c"), ("a-b-c", "(a-b)-c"),
    ("-a*b", "(-a)*b"), ("-a.items()", "-(a.items())"), ("a+b<c*d", "(a+b)<(c*d)"),
])
def test_prim_precedence(text, grouped):
    """Method calls bind tightest, then unary `-`, then `* /`, then `+ -`,
    then comparisons; binary operators group left."""
    assert parse_prim(text) == parse_prim(grouped)


@pytest.mark.parametrize("text", ["a<b<c", "(a==b!=c)", "[a<=b>c]"])
def test_prim_comparisons_do_not_chain(text):
    with pytest.raises(CoreSyntaxError):
        parse_prim(text)


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
    if isinstance(e, Var):
        return e.name
    if isinstance(e, StageConst):
        return "T" if e.top else "F"
    if isinstance(e, StageOp):
        return "!" + stagetext(*e.args) if e.op == "!" else e.op.join(map(stagetext, e.args))
    raise AssertionError


def test_let_sugar_desugars_to_application():
    t = read_core("(k)'[s]'{ '@s:' let '[y]' x 5 k x }")
    form = t.body.form
    assert isinstance(form, App)
    assert isinstance(form.callee, Lam)
    assert form.args == (Int(5),)
    inner = form.callee
    assert [p.name for p in inner.params] == ["x"]
    assert inner.body.stage == Var("y")


def test_trailing_continuation_sugar():
    t = read_core("(k)'[s]'{ build 2 (f){ f 1 } (out) k out }")
    args = t.body.form.args
    assert isinstance(args[-1], Lam)  # (out) continuation holds the rest
    rest = args[-1].body
    assert isinstance(rest.form, App)
    assert rest.form.callee == Var("k")


# programs whose quotes enclose more or less than one name, stage prefix or
# annotation; each reads as its text with the quotes removed, or fails as it
QUOTED_PROGRAMS = [
    "(x)'[s]'{ '@s:' f 'always' x }", "k 'a b'", "k '5'", "k ''", "k '}'", "'let' k",
    "(k)'[a b]'{ k 1 }", "'@a & (b | !c):' k", "'@s' k 1",
]


def _read_or_error(text):
    try:
        return read_program(text), None
    except CoreSyntaxError as err:
        assert err.line is not None, text
        return None, str(err).rsplit(" at ", 1)[0]


def test_quoted_and_bare_forms_agree():
    for text in QUOTED_PROGRAMS:
        body, error = _read_or_error(text)
        bare_body, bare_error = _read_or_error(text.replace("'", ""))
        assert error == bare_error, text
        if body is not None:
            assert alpha_eq_body(body, bare_body), text
            assert alpha_eq_body(read_program(print_body(body)), body), text


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


@pytest.mark.parametrize("src", ["\n\n  '@a $:' f x", "\n\n  @ a $ : f x"],
                         ids=["quoted", "bare"])
def test_lexical_error_in_stage_prefix_reports_source_position(src):
    with pytest.raises(CoreSyntaxError) as err:
        read_program(src)
    assert str(err.value) == "unexpected character '$' at 3:7"


def test_read_core_reads_one_term():
    with pytest.raises(CoreSyntaxError) as err:
        read_core("(x){ f x } y")
    assert str(err.value) == "trailing input after term at 1:12"


def test_unterminated_string():
    with pytest.raises(CoreSyntaxError):
        read_core('(x){ "unclosed (y) f y }')


def test_end_of_text_is_reported_as_end_of_file():
    with pytest.raises(CoreSyntaxError) as err:
        read_core("(x){ f x")
    assert str(err.value) == "expected '}', found 'end of file' at 1:9"


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
    printed = print_body(body)
    again = read_program(printed)
    assert alpha_eq_body(body, again)


@pytest.mark.parametrize("a, b, same", [
    # an inner binder shadows the mapped outer name, and back
    ("(x)'[s]'{ '@s:' \"1\" (x)'[t]' '@t:' f x }",
     "(y)'[s]'{ '@s:' \"1\" (z)'[t]' '@t:' f z }", True),
    ("(x)'[s]'{ '@s:' \"1\" (x)'[t]' '@t:' f x }",
     "(y)'[s]'{ '@s:' \"1\" (z)'[t]' '@t:' f y }", False),
    # after the inner lambda's scope the outer name is mapped again
    ("(x)'[s]'{ '@s:' g (x)'[t]'{ '@t:' h x } x }",
     "(y)'[s]'{ '@s:' g (z)'[t]'{ '@t:' h z } y }", True),
    ("(x)'[s]'{ '@s:' g (x)'[t]'{ '@t:' h x } x }",
     "(y)'[s]'{ '@s:' g (z)'[t]'{ '@t:' h z } z }", False),
    # a mismatch inside the inner scope
    ("(x)'[s]'{ '@s:' g (y)'[t]'{ '@t:' h x } x }",
     "(a)'[s]'{ '@s:' g (b)'[t]'{ '@t:' h b } a }", False),
    ("(x)'[s]'{ '@s:' fix '[u]' x (y)'[t]'{ '@t:' x y } '@u:' k x }",
     "(a)'[s]'{ '@s:' fix '[w]' b (c)'[t]'{ '@t:' b c } '@w:' k a }", False),
], ids=["shadow", "shadow-outer-use", "scope-left", "scope-left-inner-name",
        "inner-mismatch", "fix-scopes"])
def test_alpha_eq_binds_names_for_their_scope_only(a, b, same):
    """`alpha_eq` binds names in its maps and undoes each binding when the
    binder's scope is left; the answer is the same either way round."""
    assert alpha_eq(read_core(a), read_core(b)) is same
    assert alpha_eq(read_core(b), read_core(a)) is same


# Pairs of lambda bodies that differ in one place, one pair for each way
# `alpha_eq` can answer "not equal".
ONE_DIFFERENCE = [
    ("'@s:' k 1", "'@s:' k x"),
    ("'@s:' k 1", "'@s:' k 2"),
    ("'@s:' k \"a\"", "'@s:' k \"b\""),
    ("'@s:' k true", "'@s:' k false"),
    ("'@s:' k x", "'@s:' k y"),
    ("'@s:' k always", "'@s:' k never"),
    ("'@s:' print k", "'@s:' newEnv k"),
    ("'@s:' k !x", "'@s:' k !y"),
    ("'@s:' k [1]", "'@s:' k [1, 2]"),
    ("'@s:' k [1]", "'@s:' k [2]"),
    ("'@a & b:' k", "'@a | b:' k"),
    ("'@a & b:' k", "'@a & k:' k"),
    ("'@s:' k (x){ x }", "'@s:' k (x, y){ x }"),
    ("'@s:' k (!x){ x }", "'@s:' k (x){ x }"),
    ("'@s:' k", "'@always:' k"),
    ("'@s:' k 1", "'@s:' \"1\" (x) k x"),
    ("'@s:' k 1", "'@s:' k 1 1"),
    ("'@s:' k 1", "'@s:' x 1"),
    ("'@s:' \"[1]\" (x, y) k x", "'@s:' \"[1]\" (x) k x"),
    ("'@s:' \"1+2\" (x) k x", "'@s:' \"1-2\" (x) k x"),
    ("'@s:' \"[1]\" (x) k x", "'@s:' \"[1,1]\" (x) k x"),
    ("'@s:' \"1\" (x) k x", "'@s:' \"2\" (x) k x"),
    ("'@s:' \"'a'\" (x) k x", "'@s:' \"'b'\" (x) k x"),
    ("'@s:' \"a\" (x) k x", "'@s:' \"b\" (x) k x"),
    ("'@s:' \"1\" (x) k x", "'@s:' \"a\" (x) k x"),
    ("'@s:' fix '[u]' f (j){ j } '@u:' k f", "'@s:' fix '[u]' f (j){ k } '@u:' k f"),
]


@pytest.mark.parametrize("a, b", ONE_DIFFERENCE, ids=[
    "term_class", "integer", "string", "boolean", "free_name", "stage_constant", "builtin",
    "splice", "tuple_length", "tuple_item", "stage_operator", "stage_operand",
    "parameter_count", "packed_parameter", "body_stage", "body_form", "argument_count",
    "callee", "output_count", "primitive_operator", "primitive_operand_count",
    "primitive_integer", "primitive_string", "primitive_name", "primitive_node_class",
    "fix_value"])
def test_alpha_eq_tells_one_difference(a, b):
    a, b = (read_core(f"(k, a, b)'[s]'{{ {body} }}") for body in (a, b))
    assert alpha_eq(a, read_core(print_core(a))) and alpha_eq(b, read_core(print_core(b)))
    assert not alpha_eq(a, b) and not alpha_eq(b, a)


def test_alpha_eq_of_opaque_values_is_identity():
    """An environment, a fragment, a host continuation or a `fix` name's
    value has no text, so only the same object is equal to it; a primitive
    compares the terms it quotes."""
    env, ret = EnvVal(()), RetK(1)
    assert alpha_eq(env, env) and alpha_eq(ret, ret)
    assert not alpha_eq(env, EnvVal(())) and not alpha_eq(ret, RetK(1))
    body = read_program("\"[x]\" (y) k y")
    quoted = [subst_body(body, {"x": read_core(lam)}, FreshNames())
              for lam in ("(j){ j }", "(i){ i }", "(j){ k }")]
    assert alpha_eq_body(quoted[0], quoted[1])
    assert not alpha_eq_body(quoted[0], quoted[2])


def test_alpha_eq_reads_a_consistent_renaming_as_equal():
    a = read_core("(x, k)'[s]'{ '@s:' \"x+1\" (y)'[t]' '@t:' fix '[u]' f (j)'[v]'{ '@v:' f j } "
                  "'@u & t:' k [y, !x] (z){ z } }")
    b = read_core("(p, q)'[r]'{ '@r:' \"p+1\" (w)'[o]' '@o:' fix '[n]' g (m)'[l]'{ '@l:' g m } "
                  "'@n & o:' q [w, !p] (h){ h } }")
    assert alpha_eq(a, b) and alpha_eq(b, a)


def test_printer_deterministic():
    src = (FIXTURES / "signum_script.core").read_text()
    a = print_core(read_core(src))
    b = print_core(read_core(src))
    assert a == b


# ---------------------------------------------------------------------------
# lexical classes, pinned across the four lexers


def _runtime_token(text):
    lexdef = LexerDef((), frozenset(TOKEN_CLASSES))
    kind, value, start, end = lex_next(text, 0, lexdef)
    if kind == 0 and value is not None:  # no token: the message maker is its value
        raise LexFailure(value, start)
    assert lexdef.keys[lex_next(text, end, lexdef)[0]] == EOI
    kind = {"Identifier": "ident", "Integer": "int", "String": "string"}[lexdef.keys[kind][1]]
    return kind, value.value


def _core_token(text):
    term = read_core(text)
    if isinstance(term, Var):
        return "ident", term.name
    return ("int" if isinstance(term, Int) else "string"), term.value


def _grammar_token(text):
    (use,) = read_grammar(f"grammar g {{ entry S ::= {text}; }}").rules["S"].productions[0].body
    return ("ident", use.name) if isinstance(use, NtUse) else ("string", use.text)


def _prim_token(text):
    _, (operand,), _ = parse_prim(text)
    return ("ident", operand.name) if isinstance(operand, Var) else ("int", operand.value)


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

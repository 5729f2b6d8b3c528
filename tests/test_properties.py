"""Property checks over generated inputs."""

import contextlib
import io
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from langweave import packs
from langweave.cli import main
from langweave.errors import (EXIT_ACTION, EXIT_BUDGET, EXIT_NOINPUT, EXIT_OK, EXIT_PARSE,
                              EXIT_USAGE)
from langweave.evaluator import Session, apply_value, render_value
from langweave.grammar_reader import read_grammar
from langweave.prims import parse_prim, render_prim
from langweave.printer import print_core
from langweave.reader import STRING, read_core
from langweave.terms import (App, Body, Bool, Builtin, FixB, Int, Lam, Param, PrimB,
                             Splice, StageConst, StageOp, Str, TupleT, Var, alpha_eq,
                             still_named)

# A quotient is one to three integers joined by '/'; divisors are nonzero.
quotients = st.tuples(
    st.integers(0, 99),
    st.lists(st.integers(1, 9), max_size=2),
).map(lambda q: "/".join(map(str, (q[0], *q[1]))))
expressions = st.lists(quotients, min_size=1, max_size=40).map("-".join)


def _stdout(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    assert code == EXIT_OK, argv
    return out.getvalue()


@settings(max_examples=25, deadline=None, database=None)
@given(expressions)
def test_immediate_equals_codegen_equals_invoked_residual(text):
    immediate = _stdout("run", "minusdiv_immediate", text)
    generated = _stdout("run", "minusdiv_codegen", text, "--emit", "value")
    session = Session()
    residual = read_core(_stdout("run", "minusdiv_codegen", text, "--emit", "residual"),
                         session.names)
    invoked = [render_value(v) for v in apply_value(residual, [], session)]
    assert immediate == generated == "".join(v + "\n" for v in invoked)


# Text for any pack: its own characters, blanks, and anything else.
_any_text = st.text(st.one_of(st.sampled_from(list("0123456789-/#=;,<>: \n\"abxSt")),
                              st.characters()), max_size=40)


def _edited_samples(pack):
    """A sample input of the pack with a slice of it replaced by any text."""
    inputs = [sample["input"] for sample in packs.load_manifest(pack)["samples"]]
    return st.tuples(st.sampled_from(inputs), st.integers(0, 30), st.integers(0, 3),
                     _any_text).map(lambda t: t[0][:t[1]] + t[3] + t[0][t[1] + t[2]:])


@pytest.mark.parametrize("pack", packs.pack_ids())
@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_any_input_ends_in_a_documented_exit_code(pack, data):
    """No input text makes a pack fail inside langweave (70) or raise.
    `--expr=TEXT` keeps a text that starts with '-' from reading as an
    option."""
    text = data.draw(st.one_of(_any_text, _edited_samples(pack)))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["run", pack, f"--expr={text}"])
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_ACTION, EXIT_BUDGET)


FIXTURES = Path(__file__).parent / "fixtures"
PACK_DIR = Path(packs.__file__).parent
# Grammars to mutate: (file, the languages it switches into, entry, inputs).
_GRAMMARS = [(PACK_DIR / pack / "grammar.lw", (), manifest["entry"],
              [sample["input"] for sample in manifest["samples"]])
             for pack in packs.pack_ids()
             for manifest in [packs.load_manifest(pack)] if manifest["kind"] == "grammar"] + [
    (FIXTURES / "assoc.lw", (), "Left", ["7-2-1"]),
    (FIXTURES / "stack_lassoc.lw", (), "Top", ["8/2"]),
    (FIXTURES / "lang_calc.lw", (), "Sum", ["1 :: 2"]),
    (FIXTURES / "lang_outer.lw", (("calc", FIXTURES / "lang_calc.lw"),), "Prog", ["a << 1 :: 2"]),
    (Path(__file__).parent.parent / "perfbench" / "grammars" / "stream.lw",
     (("minusdiv_immediate", PACK_DIR / "minusdiv_immediate" / "grammar.lw"),), "Prog",
     ["a << 12-7/3; b << 4;"]),
]
# the name list of an annotation: |(names)->|, |->(names)| or |(names)->(names)|
_ANNOTATION = re.compile(r"(?<=\|\()[^()]*(?=\)->)|(?<=->\()[^()]*(?=\)\|)")


@st.composite
def _mutated(draw, text):
    """`text` with one to three annotation names changed, added or dropped."""
    pool = sorted(set(re.findall(r"\w+", " ".join(_ANNOTATION.findall(text))))) + ["q"]
    for _ in range(draw(st.integers(1, 3))):
        spans = list(_ANNOTATION.finditer(text))
        span = draw(st.sampled_from(spans))
        names = [n.strip() for n in span[0].split(",") if n.strip()]
        at = draw(st.integers(0, len(names)))
        edit = draw(st.sampled_from(["change", "add", "drop"]))
        if edit == "add" or not names:
            names.insert(at, draw(st.sampled_from(pool)))
        elif edit == "change":
            names[min(at, len(names) - 1)] = draw(st.sampled_from(pool))
        else:
            del names[min(at, len(names) - 1)]
        text = text[:span.start()] + ", ".join(names) + text[span.end():]
    return text


@pytest.mark.parametrize("path, partners, entry, inputs", _GRAMMARS,
                         ids=[path.stem if path.parent.parent == PACK_DIR else path.name
                              for path, *_ in _GRAMMARS])
@settings(max_examples=25, deadline=None, database=None)
@given(data=st.data())
def test_any_mutated_grammar_ends_in_a_documented_exit_code(tmp_path_factory, path, partners,
                                                           entry, inputs, data):
    """No change to a grammar's annotations makes `check` or `run` fail
    inside langweave (70) or raise."""
    mutated = tmp_path_factory.mktemp("mutated") / "grammar.lw"
    mutated.write_text(data.draw(_mutated(path.read_text())))
    specs = [arg for name, other in partners for arg in ("--grammar", f"{name}={other}")]
    specs += ["--grammar", f"x={mutated}"]
    text = data.draw(st.sampled_from(inputs))
    documented = (EXIT_OK, EXIT_PARSE, EXIT_ACTION, EXIT_BUDGET, EXIT_USAGE, EXIT_NOINPUT)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["check", *specs]) in documented
        assert main(["run", *specs, "x", "--entry", entry, f"--expr={text}"]) in documented


# Core terms for the print/read round trip.  Binder and variable names avoid
# the reader's keywords and builtins; a body's callee is never a string,
# which would read as a primitive expression.
NAMES = ("a", "b", "k", "x", "y")
_names = st.sampled_from(NAMES)
_stage_names = st.sampled_from(["s", "t", "u", "a"])
_stage_exprs = st.recursive(
    st.one_of(st.builds(StageConst, st.booleans()), _stage_names.map(Var)),
    lambda inner: st.one_of(st.builds(StageOp, st.just("&"), st.tuples(inner, inner)),
                            st.builds(StageOp, st.just("|"), st.tuples(inner, inner)),
                            st.builds(StageOp, st.just("!"), st.tuples(inner))),
    max_leaves=4)
# Every binary operator is drawn parenthesized, so that a looser operator
# sits inside a tighter one (`(a+b)*c`, `a-(b-c)`, `-(a+b)`); arithmetic is
# also drawn without parentheses, so that precedence decides `a-b*c` and
# `-a*b`.  Comparisons are only drawn parenthesized, since they do not
# chain.  A method's object is a name or a parenthesized expression.
_prim_texts = st.recursive(
    st.one_of(_names, st.integers(0, 99).map(str), st.just("'q\"'"), st.just("'it''s'")),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/"]), inner).map("".join),
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/", "==", "!=", "<", ">", "<=", ">="]),
                  inner)
        .map(lambda t: "(" + "".join(t) + ")"),
        inner.map("-{}".format),
        st.lists(inner, max_size=3).map(lambda xs: "[" + ",".join(xs) + "]"),
        st.tuples(inner, inner).map(lambda t: "concat({},{})".format(*t)),
        st.tuples(st.one_of(_names, inner.map("({})".format)),
                  st.sampled_from([".insert({},{})", ".lookup({})", ".items()"]), inner, inner)
        .map(lambda t: t[0] + t[1].format(t[2], t[3]))),
    max_leaves=5)
_strs = st.text(alphabet='ab "\\\n\'', max_size=4).map(Str)
_leaves = st.one_of(
    _names.map(Var), st.integers(-99, 99).map(Int), _strs, st.builds(Bool, st.booleans()),
    st.builds(StageConst, st.booleans()), st.sampled_from(["print", "if"]).map(Builtin))
# parsed primitives with a value substituted for each name, as evaluation
# leaves them; a `Var` value keeps the primitive symbolic
def _substituted(text, **values):
    """The (template, operands, named) of `text`, each name of `values` replaced."""
    template, operands, named = parse_prim(text)
    return (template, tuple(values.get(t.name, t) if isinstance(t, Var) else t
                            for t in operands), still_named(named, operands, values))


_data = st.one_of(st.integers(-99, 99).map(Int), _strs, st.builds(Bool, st.booleans()))
_prims = st.builds(
    lambda text, values: _substituted(text, **dict(zip(NAMES, values))),
    _prim_texts,
    st.lists(st.one_of(_names.map(Var), _data,
                       st.sampled_from([Int(-7), Str("it's")]),
                       st.lists(_data, max_size=2).map(tuple).map(TupleT)),
             min_size=len(NAMES), max_size=len(NAMES)))


@st.composite
def _params(draw):
    names = draw(st.lists(_names, max_size=3, unique=True))
    packed = draw(st.sampled_from([None, *range(len(names))]))
    return tuple(Param(n, i == packed) for i, n in enumerate(names))


def _terms(depth):
    if not depth:
        return _leaves
    inner = _terms(depth - 1)
    return st.one_of(
        _leaves, inner.map(Splice), st.lists(inner, max_size=3).map(tuple).map(TupleT),
        st.builds(Lam, _params(), _stage_names, _bodies(depth - 1)))


def _prim_forms(rest):
    return st.builds(lambda prim, outs, stage, rest: PrimB(*prim, outs, stage, rest), _prims,
                     st.lists(_names, min_size=1, max_size=2, unique=True).map(tuple),
                     _stage_names, rest)


def _bodies(depth):
    callee = _terms(depth).filter(lambda t: not isinstance(t, Str))
    forms = [st.builds(App, callee, st.lists(_terms(depth), max_size=3).map(tuple))]
    if depth:
        forms += [
            _prim_forms(_bodies(depth - 1)),
            st.builds(FixB, _stage_names, _names, _terms(depth - 1), _bodies(depth - 1))]
    return st.builds(Body, _stage_exprs, st.one_of(*forms))


# lambdas whose body starts with a primitive, so that half the draws print one
_prim_lams = st.builds(Lam, _params(), _stage_names,
                       st.builds(Body, _stage_exprs, _prim_forms(_bodies(1))))


@settings(max_examples=300, deadline=None, database=None)
@given(st.one_of(_terms(3), _prim_lams))
@example(Lam((Param("k"),), "s", Body(Var("s"), PrimB(
    *_substituted("[a,b,x,'it''s']", a=Str("it's"), b=Int(-7), x=Var("k")),
    ("y",), "t", Body(Var("t"), App(Var("k"), (Var("y"),)))))))
@example(Lam((Param("k"),), "s", Body(Var("s"), PrimB(
    *_substituted("[x,-y]", x=Bool(True), y=Bool(False)),
    ("y",), "t", Body(Var("t"), App(Var("k"), (Var("y"),)))))))
@example(Lam((Param("k"),), "s", Body(Var("s"), PrimB(  # the graph residual's shape
    *_substituted("concat(a,[b])", a=TupleT(()), b=Int(2)),
    ("y",), "t", Body(Var("t"), App(Var("k"), (Var("y"),)))))))
def test_print_then_read_core_is_alpha_equal_and_reprints_identically(term):
    printed = print_core(term)
    again = read_core(printed)
    assert alpha_eq(term, again)
    assert print_core(again) == printed


# a string literal, kept as it is, or a single quote outside one, dropped
_STRING_OR_QUOTE = re.compile(rf"({STRING})|'")


@settings(max_examples=300, deadline=None, database=None)
@given(st.one_of(_terms(3), _prim_lams))
def test_a_printed_term_reads_the_same_without_its_quotes(term):
    """The single quotes the printer writes around stage prefixes,
    annotations and stage constants are decoration."""
    printed = print_core(term)
    bare = _STRING_OR_QUOTE.sub(lambda m: m[1] or "", printed)
    assert alpha_eq(read_core(bare), read_core(printed))


@settings(max_examples=300, deadline=None, database=None)
@given(st.one_of(_terms(3), _prim_lams))
def test_a_printed_term_reads_the_same_inside_an_action_body(term):
    """Grammar files and core syntax share one lexer, so core text reads
    the same as an action's argument, quoted or bare."""
    printed = print_core(term)
    for text in (printed, _STRING_OR_QUOTE.sub(lambda m: m[1] or "", printed)):
        grammar = read_grammar("grammar g { entry S|->(v)| ::= |()->(v)| "
                               f"{{ '@parse:' return {text} }}; }}")
        action = grammar.rules["S"].productions[0].body[0].action
        assert alpha_eq(action.body.body.form.args[0], read_core(text))


@settings(max_examples=300, deadline=None, database=None)
@given(_prim_texts.map(parse_prim))
@example(parse_prim("a-(b-c)*-d"))
@example(parse_prim("(a+b)*c"))
@example(parse_prim("-(a+b)"))
@example(parse_prim("(a<b)==(-x.lookup('k')>=concat([y],(k).items()))"))
def test_a_rendered_primitive_parses_back_to_itself(expr):
    assert parse_prim(render_prim(*expr[:2])) == expr

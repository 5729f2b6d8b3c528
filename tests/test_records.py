"""The record classes of the calculus and the grammar model: equality,
hashing, frozen fields, defaults and reprs, which evaluation, grammar
preparation and error messages all rely on."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from langweave.grammar import (ActionDef, ActionUse, ArgTuple, EpsilonUse, ForeignUse,
                               GrammarDef, Lit, NtUse, Production, Rule, Template,
                               TemplateCall, TokClass)
from langweave.parsegen import Analysis, ParseTable
from langweave.prims import Hole, POp, parse_prim
from langweave.records import Value
from langweave.runtime import Language, LexerDef
from langweave.terms import (TOP, App, Body, Bool, Builtin, EnvVal, FixB, FragVal, Int, Lam,
                             Param, PrimB, Rec, RetK, Splice, StageConst, StageOp, Str,
                             TupleT, Var)

SRC = Path(__file__).resolve().parent.parent / "src"
BODY = Body(TOP, App(Var("k"), (Int(1),)))
LAM = Lam((Param("k"),), "s", BODY)
ACTION = ActionDef((), ("v",), LAM)

# Each value record as a maker, called twice for two equal records, and one
# of its fields.
VALUES = [
    (lambda: Var("x"), "name"),
    (lambda: Int(1), "value"),
    (lambda: Str("s"), "value"),
    (lambda: Bool(True), "value"),
    (lambda: StageConst(True), "top"),
    (lambda: StageOp("&", (Var("s"), Var("t"))), "op"),
    (lambda: TupleT((Int(1), Splice(Var("xs")))), "items"),
    (lambda: Splice(Var("xs")), "inner"),
    (lambda: Param("a", packed=True), "packed"),
    (lambda: Builtin("print"), "name"),
    (lambda: App(Var("k"), (Int(1),)), "callee"),
    (lambda: PrimB(*parse_prim("x+1"), ("y",), "s", BODY), "rest"),
    (lambda: FixB("s", "f", LAM, BODY), "value"),
    (lambda: Lit("-"), "text"),
    (lambda: TokClass("Integer", ("n",)), "outs"),
    (lambda: NtUse("A", ("x",), ("y",)), "ins"),
    (lambda: ForeignUse("calc", "Expr"), "lang"),
    (lambda: EpsilonUse((), ("v",)), "outs"),
    (lambda: TemplateCall("lassoc", (NtUse("A"), Lit("-"))), "args"),
    (lambda: ArgTuple(("a", "b")), "names"),
    (lambda: Hole(0), "index"),
    (lambda: POp("-", (Hole(0),)), "args"),
    (lambda: LexerDef(("-", "/"), frozenset({"Integer"})), "literals"),
]
# Each identity record as a maker, and one of its fields.
IDENTITIES = [
    (lambda: ActionDef((), ("v",), LAM), "body"),
    (lambda: ActionUse(ACTION), "action"),
    (lambda: EnvVal((("a", Int(1)),)), "entries"),
    (lambda: FragVal(None), "fragment"),
    (lambda: RetK(0), "tag"),
    (lambda: Rec("f", LAM), "value"),
]
# Each mutable record as a maker, and one of its fields.
MUTABLES = [
    (lambda: Production("A", (), ("v",), (Lit("-"),)), "body"),
    (lambda: Rule("A", (), []), "is_entry"),
    (lambda: Template("lassoc", ("Op",), (), [], "v"), "result"),
    (lambda: GrammarDef("g"), "rules"),
    (lambda: Analysis(), "first"),
    (lambda: ParseTable(Analysis(), {}), "table"),
    (lambda: Language("calc", None, None, {}), "rules"),
]


def _ids(makers):
    return [type(make()).__name__ for make, _ in makers]


@pytest.mark.parametrize("make, field", VALUES, ids=_ids(VALUES))
def test_value_records_compare_and_hash_by_fields_and_are_frozen(make, field):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) and len({a, b}) == 1
    if field is not None:
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(b, field))


@pytest.mark.parametrize("a, b", [
    (Int(1), Bool(True)), (Var("x"), Str("x")), (Int(0), Hole(0)), (Lit("-"), Str("-")),
    (Var("x"), Builtin("x")), (Int(1), Int(2)), (Param("a"), Param("a", packed=True)),
    (NtUse("A"), NtUse("A", (), ())), (Var("x"), ("x",)),
])
def test_value_records_of_another_type_or_field_differ(a, b):
    assert a != b and b != a and not a == b


@pytest.mark.parametrize("make, field", IDENTITIES, ids=_ids(IDENTITIES))
def test_identity_records_compare_by_identity_and_are_frozen(make, field):
    a, b = make(), make()
    assert a == a and a != b and len({a, b, a}) == 2
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))


@pytest.mark.parametrize("make, field", MUTABLES, ids=_ids(MUTABLES))
def test_mutable_records_compare_by_fields_and_stay_assignable(make, field):
    a, b = make(), make()
    assert a == b
    setattr(a, field, "changed")
    assert getattr(a, field) == "changed" and a != b
    with pytest.raises(TypeError):
        hash(a)


def test_defaults():
    assert TokClass("Integer").outs == ()
    for use in (NtUse("A"), ForeignUse("calc", "Expr"), ActionUse(ACTION), EpsilonUse()):
        assert use.ins is None and use.outs is None
    assert NtUse("A", ("x",)).outs is None
    assert Param("a").packed is False
    assert Param("a", packed=True).packed is True
    assert Param("a", True) == Param("a", packed=True)
    assert Rule("A", (), []).is_entry is False
    assert Rule("A", (), [], True).is_entry is True


def test_defaults_are_given_for_the_last_fields():
    with pytest.raises(TypeError) as err:
        class Misordered(Value, first=None):
            __slots__ = ("first", "second")
    assert str(err.value) == ("Misordered: defaults ('first',) are not its last fields "
                              "('first', 'second')")


def test_each_grammar_and_analysis_gets_its_own_dicts():
    g, h = GrammarDef("g"), GrammarDef("g")
    assert g.rules == {} and g.templates == {}
    g.rules["A"] = Rule("A", (), [])
    g.templates["t"] = None
    assert h.rules == {} and h.templates == {}
    a, b = Analysis(), Analysis()
    a.nullable["A"] = True
    a.first["A"] = set()
    a.follow["A"] = set()
    assert b.nullable == {} and b.first == {} and b.follow == {}


def test_env_info_is_a_cache_not_a_field():
    env = EnvVal(())
    assert env.info is None
    assert repr(env) == "EnvVal(entries=())"
    with pytest.raises(TypeError):
        EnvVal((), None)


def test_lexer_pattern_is_compiled_once_per_lexer():
    lexdef = LexerDef(("-",), frozenset({"Integer"}))
    assert lexdef.pattern is lexdef.pattern
    assert lexdef.pattern.match("12").group("Integer") == "12"


@pytest.mark.parametrize("record, text", [
    (Var("x"), "Var(name='x')"),
    (Int(-3), "Int(value=-3)"),
    (POp("-", (Hole(0),)), "POp(op='-', args=(Hole(index=0),))"),
    (Hole(2), "Hole(index=2)"),
    (Param("a", packed=True), "Param(name='a', packed=True)"),
    (StageOp("!", (StageConst(False),)), "StageOp(op='!', args=(StageConst(top=False),))"),
    (NtUse("A"), "NtUse(name='A', ins=None, outs=None)"),
    (EpsilonUse(), "EpsilonUse(ins=None, outs=None)"),
    (RetK(2), "RetK(tag=2)"),
    (Rule("A", ("x",), []), "Rule(name='A', ins=('x',), productions=[], is_entry=False)"),
    (GrammarDef("g"), "GrammarDef(name='g', templates={}, rules={})"),
    (TupleT((Int(1), Splice(Var("xs")))),
     "TupleT(items=(Int(value=1), Splice(inner=Var(name='xs'))))"),
])
def test_reprs_name_each_field(record, text):
    assert repr(record) == text


def test_importing_the_cli_generates_no_record_code():
    """Defining the record classes compiles nothing at import time, so the
    `dataclasses` module, which does, is never loaded by the command."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", "import langweave.cli, sys; print('dataclasses' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout == "False\n"

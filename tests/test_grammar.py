"""Grammar model: reading, templates, default arguments, validation."""

from pathlib import Path

import pytest

from langweave.errors import (EntryRuleWouldChange, GrammarError, GrammarSyntaxError,
                              UnknownSignatureQuery)
from langweave.evaluator import Session
from langweave.grammar import (ActionUse, EpsilonUse, Lit, NtUse, Production,
                               TokClass, add_production, check_signatures,
                               complete_default_args, expand_templates,
                               grammar_equal, new_grammar, prepare,
                               print_grammar)
from langweave.grammar_reader import read_grammar
from langweave.reader import read_core
from langweave.runtime import LanguageRegistry, parse
from langweave.terms import EnvVal, Int
from langweave.grammar import ActionDef

FIXTURES = Path(__file__).parent / "fixtures"
PACKS = Path(__file__).parent.parent / "src" / "langweave" / "packs"

MINUSDIV = (PACKS / "minusdiv_immediate" / "grammar.lw").read_text()


def test_read_minusdiv_structure():
    g = read_grammar(MINUSDIV)
    assert set(g.templates) == {"lassoc"}
    assert list(g.rules) == ["Diff", "Quotient", "Value"]
    assert g.rules["Diff"].is_entry
    assert not g.rules["Value"].is_entry
    # two instantiations pending
    calls = [p.body[0] for r in g.rules.values() for p in r.productions
             if p.body and type(p.body[0]).__name__ == "TemplateCall"]
    assert len(calls) == 2


def test_empty_grammar_reads_but_cannot_parse():
    g = read_grammar("grammar empty { }")
    assert not g.rules
    prepared, diags = prepare(g)
    assert not diags
    from langweave.runtime import LanguageRegistry
    from langweave.errors import UnknownEntry
    reg = LanguageRegistry()
    reg.register("empty", prepared)
    with pytest.raises(UnknownEntry):
        from langweave.runtime import parse
        parse(reg, "empty", "Start", "x")


def test_syntax_error_reports_position():
    with pytest.raises(GrammarSyntaxError):
        read_grammar("grammar g { Broken ::= }")


# One text per error site of the grammar reader, with its message and the
# position of the token it is about.
@pytest.mark.parametrize("text, message", [
    ('grammar g S ::= "x"; }', "expected '{', found 'S' at 1:11"),
    ("grammar", "expected 'ident', found 'end of file' at 1:8"),
    ('grammar "" { }', "expected 'ident', found '' at 1:9"),
    ("gramar g { }", "a grammar file starts with 'grammar <name>' at 1:1"),
    ('grammar g { S ::= "x";', "unterminated grammar (missing '}') at 1:23"),
    ("grammar g { } x", "trailing input after grammar at 1:15"),
    ("grammar g { function f<a> { S ::= a; } }",
     "grammar function 'f' has no 'return' at 1:38"),
    ("grammar g { function f<a> { alias |v| = |a:bad|; return S; } }",
     "alias query must be ':in' or ':out' at 1:44"),
    ("grammar g { function f<a> { entry S ::= a; return S; } }",
     "a template rule cannot be an entry rule at 1:29"),
    ('grammar g { |->(v)| S ::= "x"; }',
     "expected an input annotation before the rule name at 1:13"),
    ('grammar g { S ::= "x"', "unterminated production (missing ';') at 1:22"),
    ('grammar g { S ::= |->(v)| "x"; }', "unexpected output annotation at term start at 1:19"),
    ("grammar g { entry S|->(v)| ::= |()->(v)| { return 1 ",
     "unterminated action body at 1:42"),
    ('grammar g { S ::= "x" % ; }', "unexpected character '%' at 1:23"),
    ("grammar g { S ::= |()->()| { return 'x }; }", "unterminated quote at 1:37"),
], ids=["take", "take_at_end", "empty_string_is_not_end_of_file", "keyword", "grammar_end",
        "trailing", "no_return", "alias_query", "template_entry", "rule_annotation",
        "production_end", "term_annotation", "action_end", "lexical", "lexical_in_action"])
def test_every_grammar_error_is_reported_at_its_token(text, message):
    with pytest.raises(GrammarSyntaxError) as err:
        read_grammar(text)
    assert str(err.value) == message


def test_action_inputs_shadow_builtins():
    g = read_grammar('grammar g { entry S|->(v)| ::= Integer|->(n)| '
                     '|(n)->(v)| { print n return }; '
                     'T|->(v)| ::= Integer|->(print)| '
                     '|(print)->(v)| { print 1 return }; }')
    callees = [r.productions[0].body[1].action.body.body.form.callee
               for r in g.rules.values()]
    assert [type(c).__name__ for c in callees] == ["Builtin", "Var"]


def test_instantiation_generates_fresh_disjoint_names():
    g = read_grammar(MINUSDIV)
    expanded = expand_templates(g)
    fresh = [n for n in expanded.rules if n.startswith(("N_", "R_"))]
    assert len(fresh) == 4  # two instantiations, two rules each
    assert len(set(fresh)) == 4


def test_default_args_reproduce_threading_derivation():
    """The stack-threading derivation: elem uses gain (S), the instantiated
    head gains an (S) parameter, and the new element output is r_S."""
    src = """
    grammar stackdemo {
      function lassoc<elem, op, action> {
        alias |v| = |elem:out|;
        N|->(v)| ::= elem|->(v)| |(v)->|R|->(v)|;
        |(v)->|R|->(v)| ::= epsilon;
        |(v)->|R|->(v)| ::= op elem|->(r.v)| |(v,r.v)->|action|->(v)| |(v)->|R|->(v)|;
        return N;
      }
      entry |(S)->|Top|->(S)| ::= |(S)->|L|->(S)|;
      |(S)->|L|->(S)| ::= lassoc< Value, "/", |(a, b)->(o)| { return b } >;
      |(S)->|Value|->(S)| ::= Integer|->(x)| |(S, x)->(S)| { return S };
    }
    """
    prepared, diags = prepare(read_grammar(src))
    assert not diags
    n_rule = next(r for n, r in prepared.rules.items() if n.startswith("N_"))
    r_rule = next(r for n, r in prepared.rules.items() if n.startswith("R_"))
    assert n_rule.ins == ("S",)            # head parameter added
    assert r_rule.ins == ("S",)
    op_prod = r_rule.productions[1]
    elem_use = next(u for u in op_prod.body if isinstance(u, NtUse)
                    and u.name == "Value")
    assert elem_use.ins == ("S",)          # default argument inserted
    assert elem_use.outs == ("r_S",)       # prefixed name tuple
    action_use = next(u for u in op_prod.body if isinstance(u, ActionUse))
    assert action_use.ins == ("S", "r_S")  # both values passed to the action
    assert action_use.outs == ("S",)


def test_default_args_env_threading_variant():
    """Element rule with asymmetric signature (env)->(v): elem uses gain
    (env) by default, and the instantiated head gains env too.
    Oracle: the expansion written out by hand."""
    src = """
    grammar envdemo {
      function lassoc<elem, op, action> {
        alias |v| = |elem:out|;
        N|->(v)| ::= elem|->(v)| |(v)->|R|->(v)|;
        |(v)->|R|->(v)| ::= epsilon;
        |(v)->|R|->(v)| ::= op elem|->(r.v)| |(v,r.v)->|action|->(v)| |(v)->|R|->(v)|;
        return N;
      }
      entry |(env)->|Top|->(v)| ::= |(env)->|L|->(v)|;
      |(env)->|L|->(v)| ::= lassoc< Value, "-", |(a, b)->(o)| { return b } >;
      |(env)->|Value|->(v)| ::= Identifier|->(id)|
          |(env, id)->(v)| { "env.lookup(id)" (v2) return v2 };
    }
    """
    prepared, diags = prepare(read_grammar(src))
    assert not diags
    n_rule = next(r for n, r in prepared.rules.items() if n.startswith("N_"))
    r_rule = next(r for n, r in prepared.rules.items() if n.startswith("R_"))
    # hand expansion: N gains (env); R threads (v) explicitly and also needs
    # env for the recursive element use, so it gains env as well
    assert n_rule.ins == ("env",)
    assert set(r_rule.ins) == {"v", "env"}
    op_prod = r_rule.productions[1]
    elem_use = next(u for u in op_prod.body if isinstance(u, NtUse)
                    and u.name == "Value")
    assert elem_use.ins == ("env",)
    assert elem_use.outs == ("r_v",)


def test_completion_grows_the_explicit_inputs_of_a_grown_rule():
    """`R_2` grows to `(v, env)`; the uses written `|(v)->|R|` grow with it."""
    src = """
    grammar envdemo {
      function lassoc<elem, op, action> {
        alias |v| = |elem:out|;
        N|->(v)| ::= elem|->(v)| |(v)->|R|->(v)|;
        |(v)->|R|->(v)| ::= epsilon;
        |(v)->|R|->(v)| ::= op elem|->(r.v)| |(v,r.v)->|action|->(v)| |(v)->|R|->(v)|;
        return N;
      }
      entry |(env)->|Top|->(v)| ::= |(env)->|L|->(v)|;
      |(env)->|L|->(v)| ::= lassoc< Value, "-", |(a, b)->(o)| { "a-b" (d) return d } >;
      |(env)->|Value|->(v)| ::= Identifier|->(id)|
          |(env, id)->(v)| { "env.lookup(id)" (v2) return v2 };
    }
    """
    prepared, diags = prepare(read_grammar(src))
    assert not diags
    reg = LanguageRegistry()
    reg.register("envdemo", prepared)
    env = EnvVal((("a", Int(10)), ("b", Int(3))))
    assert parse(reg, "envdemo", "Top", "a-b", (env,), Session()) == [Int(7)]


def test_mark_entry_unknown_rule_errors():
    from langweave.errors import GrammarError
    from langweave.grammar import mark_entry
    g = new_grammar("g")
    with pytest.raises(GrammarError):
        mark_entry(g, "nope")
    add_production(g, "A", (), (), (Lit("x"),))
    assert mark_entry(g, "A") is g and g.entry_rules == ["A"]


def test_fully_explicit_grammar_unchanged():
    src = """
    grammar explicit {
      entry A|->(v)| ::= Integer|->(v)|;
    }
    """
    g = expand_templates(read_grammar(src))
    done = complete_default_args(g)
    again = complete_default_args(done)
    assert grammar_equal(done, again)
    assert done.rules["A"].ins == ()


ACTION = '|(n)->(v)| { return n }'


@pytest.mark.parametrize("a, b", [
    ('entry S ::= "a";', 'entry T ::= "a";'),
    ('entry S ::= "a"; |(x)->|A ::= "b";', 'entry S ::= "a"; |(y)->|A ::= "b";'),
    ('entry S ::= "a"; A ::= "b";', 'entry S ::= "a"; entry A ::= "b";'),
    ('entry S ::= "a";', 'entry S ::= "a"; S ::= "b";'),
    ("entry S|->(v)| ::= Integer|->(v)|;", "entry S|->(w)| ::= Integer|->(w)|;"),
    ('entry S ::= "a";', 'entry S ::= "a" "b";'),
    ('entry S ::= "a";', "entry S ::= Integer;"),
    (f"entry S|->(v)| ::= Integer|->(n)| {ACTION};",
     f"entry S|->(v)| ::= Integer|->(n)| {ACTION}|->(v)|;"),
    (f"entry S|->(v)| ::= Integer|->(n)| {ACTION};",
     "entry S|->(v)| ::= Integer|->(n)| |(n)->(w)| { return n };"),
    (f"entry S|->(v)| ::= Integer|->(n)| {ACTION};",
     "entry S|->(v)| ::= Integer|->(n)| |(n)->(v)| { return 1 };"),
    ('entry S ::= "a";', 'entry S ::= "b";'),
], ids=["rule_names", "rule_inputs", "entry_rule", "production_count", "outputs",
        "body_length", "use_class", "action_use_annotation", "action_declaration",
        "action_body", "literal"])
def test_grammar_equal_tells_one_difference(a, b):
    a, b = (read_grammar(f"grammar g {{ {rules} }}") for rules in (a, b))
    assert grammar_equal(a, a) and grammar_equal(b, b)
    assert not grammar_equal(a, b) and not grammar_equal(b, a)


def test_default_completion_idempotent_on_packs():
    for pack in ("minusdiv_immediate", "minusdiv_codegen", "assignments",
                 "graph", "typed_minusdiv"):
        g = read_grammar((PACKS / pack / "grammar.lw").read_text())
        once = complete_default_args(expand_templates(g))
        twice = complete_default_args(once)
        assert grammar_equal(once, twice), pack


def test_entry_rules_are_never_altered():
    src = """
    grammar bad {
      entry Top|->(v)| ::= |(S)->|Inner|->(v)|;
      |(S)->|Inner|->(v)| ::= Integer|->(v)|;
    }
    """
    with pytest.raises(EntryRuleWouldChange):
        prepare(read_grammar(src))


def test_signature_mismatch_diagnostics():
    g = new_grammar("sig")
    add_production(g, "A", ("F",), ("v",), (TokClass("Integer", ("v",)),))
    add_production(g, "A", ("G",), ("v",), (TokClass("Integer", ("v",)),))
    diags = prepare(g)[1]
    assert any("disagree on input parameters" in d for d in diags)

    g2 = new_grammar("sig2")
    add_production(g2, "A", (), ("v",), (TokClass("Integer", ("v",)),))
    add_production(g2, "A", (), ("v", "w"),
                   (TokClass("Integer", ("v",)), TokClass("Integer", ("w",))))
    diags2 = prepare(g2)[1]
    assert any("output count" in d for d in diags2)


def test_codegen_grammar_has_no_diagnostics():
    g = read_grammar((PACKS / "minusdiv_codegen" / "grammar.lw").read_text())
    prepared, diags = prepare(g)
    assert diags == []


def test_l_attribute_violation_rejected_before_parse_time():
    src = """
    grammar lviol {
      entry A|->(v)| ::= |(undefined_name)->|B|->(v)|;
      |(x)->|B|->(v)| ::= Integer|->(v)|;
    }
    """
    with pytest.raises(EntryRuleWouldChange):
        # binding 'undefined_name' would need a new entry-rule parameter
        prepare(read_grammar(src))


def test_builder_api_matches_file_reader():
    session = Session()
    file_g = read_grammar(MINUSDIV, session.names)
    file_prepared, _ = prepare(file_g)

    def action(op):
        body = read_core(
            f'(l, r, return)\'[parse]\'{{ "l{op}r" (res) return res }}',
            session.names)
        return ActionDef(("l", "r"), ("v",), body)

    g = new_grammar("minusdiv_immediate")
    for head, elem, op in (("Diff", "Quotient", "-"), ("Quotient", "Value", "/")):
        n, r = f"{head}__N", f"{head}__R"
        add_production(g, head, (), ("v",), (NtUse(n, (), ("v",)),),
                       entry=(head == "Diff"))
        add_production(g, n, (), ("v",),
                       (NtUse(elem, (), ("v",)), NtUse(r, ("v",), ("v",))))
        add_production(g, r, ("v",), ("v",), (EpsilonUse((), ()),))
        add_production(g, r, ("v",), ("v",),
                       (Lit(op), NtUse(elem, (), ("r_v",)),
                        ActionUse(action(op), ("v", "r_v"), ("v",)),
                        NtUse(r, ("v",), ("v",))))
    add_production(g, "Value", (), ("v",), (TokClass("Integer", ("v",)),))
    built_prepared, diags = prepare(g)
    assert not diags

    # same behavior on the same inputs
    from langweave.runtime import LanguageRegistry, parse
    from langweave.terms import Int
    for text, want in (("10-4/2", 8), ("1-4/2-3", -4), ("8-3-2", 3)):
        for prepared in (file_prepared, built_prepared):
            reg = LanguageRegistry()
            reg.register("m", prepared)
            assert parse(reg, "m", "Diff", text, session=Session()) == [Int(want)]


def test_print_then_reread_is_stable():
    g = read_grammar((PACKS / "minusdiv_codegen" / "grammar.lw").read_text())
    prepared, _ = prepare(g)
    text1 = print_grammar(prepared)
    reread = read_grammar(text1)
    prepared2, diags = prepare(reread)
    assert not diags
    assert print_grammar(prepared2) == text1


def test_foreign_use_requires_explicit_arguments():
    from langweave.errors import UnresolvableDefault
    src = """
    grammar f {
      entry Top|->(v)| ::= other.Entry|->(v)|;
    }
    """
    with pytest.raises(UnresolvableDefault):
        prepare(read_grammar(src))


def test_foreign_ref_recorded():
    src = """
    grammar uses {
      entry Top|->(v)| ::= |()->|other.Entry|->(v)|;
    }
    """
    g = read_grammar(src)
    prepared, diags = prepare(g)
    assert not diags
    assert prepared.used_foreign() == {("other", "Entry")}


# One row per branch of grammar-function instantiation: a grammar text and
# its prepared grammar as printed, or the error it raises.
@pytest.mark.parametrize("text, want", [
    ('''grammar g {
  function f<a> {
    S|->(v)| ::= "k" Integer|->(n)| |(n)->(m)| { return n } |()->|o.E|->(w)| Outer|->(x)|
        a|->(v)|;
    return S;
  }
  entry Top|->(v)| ::= f<Leaf>;
  Leaf|->(v)| ::= Integer|->(v)|;
  Outer|->(x)| ::= "o" Integer|->(x)|;
}''', '''grammar g {
  entry |()->|Top|->(v)| ::=
      |()->|S_1|->(v)|;
  |()->|Leaf|->(v)| ::=
      Integer|->(v)|;
  |()->|Outer|->(x)| ::=
      "o"
      Integer|->(x)|;
  |()->|S_1|->(v)| ::=
      "k"
      Integer|->(n)|
      |(n)->(m)| {
    '@parse:' return n
    }
      |()->|o.E|->(w)|
      |()->|Outer|->(x)|
      |()->|Leaf|->(v)|;
}
'''),
    ('''grammar g {
  function f<a> { S|->(v)| ::= a T a|->(v)|; T ::= a; return S; }
  entry Top|->(v)| ::= f<Integer>;
}''', '''grammar g {
  entry |()->|Top|->(v)| ::=
      |()->|S_1|->(v)|;
  |()->|S_1|->(v)| ::=
      Integer
      |()->|T_2|->()|
      Integer|->(v)|;
  |()->|T_2|->()| ::=
      Integer;
}
'''),
    ('''grammar g {
  function f<a> {
    alias |i| = |a:in|; alias |o| = |a:out|;
    |(i)->|S|->(o)| ::= "s" |(i)->|a|->(o)|;
    return S;
  }
  |(p, q)->|Top|->(r)| ::= f<R>;
  |(p, q)->|R|->(r)| ::= |(p, q)->(r)| { return p };
}''', '''grammar g {
  |(p, q)->|Top|->(r)| ::=
      |(p, q)->|S_1|->(r)|;
  |(p, q)->|R|->(r)| ::=
      |(p, q)->(r)| {
    '@parse:' return p
    };
  |(p, q)->|S_1|->(r)| ::=
      "s"
      |(p, q)->|R|->(r)|;
}
'''),
    ('''grammar g {
  function f<a> {
    alias |i| = |a:in|; alias |o| = |a:out|;
    |(i)->|S|->(o)| ::= |(i)->|a|->(o)|;
    return S;
  }
  entry Top|->(v)| ::= f<Integer>;
}''', '''grammar g {
  entry |()->|Top|->(v)| ::=
      |()->|S_1|->(v)|;
  |()->|S_1|->(v)| ::=
      Integer|->(v)|;
}
'''),
    ('''grammar g {
  function f<a> {
    alias |i| = |a:in|; alias |o| = |a:out|;
    |(i)->|S|->(o)| ::= "s" |(i)->|a|->(o)|;
    return S;
  }
  |(p)->|Top|->(q)| ::= f<|(p)->(q)| { return p }>;
}''', '''grammar g {
  |(p)->|Top|->(q)| ::=
      |(p)->|S_1|->(q)|;
  |(p)->|S_1|->(q)| ::=
      "s"
      |(p)->(q)| {
    '@parse:' return p
    };
}
'''),
    ('''grammar g {
  function f<a> { S|->(v)| ::= a|->(v)|; return S; }
  entry Top|->(v)| ::= f<Integer>;
  S_1 ::= "x";
}''', '''grammar g {
  entry |()->|Top|->(v)| ::=
      |()->|S_2|->(v)|;
  |()->|S_1|->()| ::=
      "x";
  |()->|S_2|->(v)| ::=
      Integer|->(v)|;
}
'''),
    ('grammar g { function f<a> { S ::= a; return S; } entry Top ::= f<A, B>; A ::= "a"; '
     'B ::= "b"; }', "KindMismatch: template 'f' takes 1 argument(s), got 2"),
    ('grammar g { function f<a> { alias |v| = |b:out|; S ::= a; return S; } entry Top ::= f<A>; '
     'A ::= "a"; }', "UnknownSignatureQuery: unknown template parameter 'b'"),
    ('grammar g { function f<a> { S|->(p.x)| ::= a|->(p.x)|; return S; } entry Top ::= f<A>; '
     'A|->(v)| ::= Integer|->(v)|; }', "KindMismatch: prefix applied to non-tuple name 'x'"),
    ('grammar g { function f<a> { S|->(v)| ::= a|->(v)|; return S; } entry Top ::= f<"x">; }',
     "KindMismatch: terminal argument 'x' cannot carry attributes"),
    ("grammar g { function f<a> { S ::= a; return S; } entry Top ::= f<(x, y)>; }",
     "KindMismatch: template argument 'a' cannot appear as a grammar term"),
    ('grammar g { function f<a> { S ::= a; return Q; } entry Top ::= f<"x">; }',
     "GrammarError: template 'f' returns unknown rule 'Q'"),
    ('grammar g { entry Top ::= h<"x">; }', "GrammarError: unknown grammar function 'h'"),
], ids=["body_uses", "token_class_argument", "alias_of_a_rule", "alias_of_a_token_class",
        "alias_of_an_action", "fresh_name_skips_a_rule", "argument_count",
        "alias_of_an_unknown_parameter", "prefix_on_a_non_tuple", "terminal_with_attributes",
        "tuple_as_a_term", "unknown_result", "unknown_function"])
def test_grammar_functions_expand_or_fail_as_pinned(text, want):
    try:
        prepared, diagnostics = prepare(read_grammar(text))
    except GrammarError as exc:
        got = f"{type(exc).__name__}: {exc}"
    else:
        assert diagnostics == []
        got = print_grammar(prepared)
    assert got == want


@pytest.mark.parametrize("text, message", [
    ('grammar g { function f<a> { S ::= f<a>; return S; } entry Top ::= f<"x">; }',
     "a grammar function cannot call a grammar function at 1:35"),
    ('grammar g { function f<a> { S ::= a "1"; return S; } '
     'function f<a> { S ::= a "2"; return S; } entry Top ::= f<"x">; }',
     "grammar function 'f' is defined twice at 1:63"),
    ('grammar g { function f<a, a> { S ::= a; return S; } entry Top ::= f<"x", "y">; }',
     "duplicate parameter name 'a' at 1:27"),
], ids=["call_in_a_function", "function_defined_twice", "duplicate_parameter"])
def test_grammar_function_definitions_are_checked_when_read(text, message):
    with pytest.raises(GrammarSyntaxError) as err:
        read_grammar(text)
    assert str(err.value) == message


@pytest.mark.parametrize("arg, which, kind", [
    ('"x"', "out", "a terminal literal"), ("epsilon", "in", "epsilon"),
    ("(x, y)", "out", "a name tuple")])
def test_a_signature_query_on_an_argument_without_one_names_the_parameter(arg, which, kind):
    text = (f"grammar g {{ function f<a> {{ alias |v| = |a:{which}|; S ::= \"s\"; return S; }} "
            f"entry Top ::= f<{arg}>; }}")
    with pytest.raises(UnknownSignatureQuery) as err:
        prepare(read_grammar(text))
    assert str(err.value) == (f"alias |v| = |a:{which}|: argument 'a' is {kind} "
                              "and has no signature")

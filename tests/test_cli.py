"""Command-line driver: exit codes, determinism, golden behavior."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from langweave import evaluator, packs, runtime
from langweave.cli import main
from langweave.errors import (EXIT_ACTION, EXIT_BUDGET, EXIT_INTERRUPT, EXIT_IOERR,
                              EXIT_NOINPUT, EXIT_OK, EXIT_PARSE, EXIT_SOFTWARE, EXIT_USAGE)
from langweave.reader import read_core
from langweave.terms import Bool, alpha_eq

FIXTURES = Path(__file__).parent / "fixtures"
AMBIGUOUS = 'grammar amb {\n  entry A ::= "x";\n  A ::= "x" "y";\n}\n'
GRAMMAR_PACKS = tuple(p for p in packs.pack_ids()
                      if packs.load_manifest(p)["kind"] == "grammar")
GRAMMAR_FILES = tuple(sorted(FIXTURES.glob("*.lw"))) + (
    Path(__file__).parent.parent / "perfbench" / "grammars" / "stream.lw",)
CLI_FIXTURES = FIXTURES / "cli"
# Faults of grammars that end a command with exit 1 and this one line on stderr.
GRAMMAR_FAULTS = [
    (("run", "--grammar", f"x={CLI_FIXTURES / 'one_integer.lw'}", "x", "4 5"),
     "error: trailing input Integer at 1:3 in language 'x'"),
    (("run", "--grammar", f"self={CLI_FIXTURES / 'one_integer.lw'}",
      "--grammar", f"x={CLI_FIXTURES / 'calls_own_inner.lw'}", "x", "4"),
     "error: 'x' references unknown rule self.Inner"),
    (("run", "--grammar", f"self={CLI_FIXTURES / 'calls_own_inner.lw'}", "self", "4"),
     "error: self.Inner is not an entry rule; only the language programming interface "
     "may be called"),
    (("check", "--grammar", f"x={CLI_FIXTURES / 'unknown_rule.lw'}"),
     "error: unknown rule 'Missing'"),
    (("run", "--grammar", f"x={CLI_FIXTURES / 'inputs_disagree.lw'}", "x", "4 b"),
     "conflict: rule 'R': productions disagree on input parameters: ['x'] vs ['y']"),
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_immediate_value(capsys):
    code, out, _ = run_cli(capsys, "run", "minusdiv_immediate", "10-4/2")
    assert code == EXIT_OK
    assert out == "8\n"


def test_run_codegen_residual_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "run", "minusdiv_codegen", "1-4/2-3",
                             "--emit", "residual", "--seed", "7")
    code2, out2, _ = run_cli(capsys, "run", "minusdiv_codegen", "1-4/2-3",
                             "--emit", "residual", "--seed", "7")
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    assert '"4/2"' in out1 and "'[" in out1


def test_run_codegen_value(capsys):
    code, out, _ = run_cli(capsys, "run", "minusdiv_codegen", "1-4/2-3",
                           "--emit", "value")
    assert code == EXIT_OK
    assert out == "-4\n"


def test_run_graph_pack(capsys):
    text = "Start -> X, Y;\nX -> Y;\nY -> X, Start;\n"
    code, out, _ = run_cli(capsys, "run", "graph", text)
    assert code == EXIT_OK
    assert out.splitlines() == ['[["Start",1],["X",2],["Y",3]]',
                                "[[2,3],[3],[2,1]]"]


def test_run_typed_error_exit_two(capsys):
    code, out, _ = run_cli(capsys, "run", "typed_minusdiv", "1-#2")
    assert code == EXIT_ACTION
    assert out == "Type mismatch!\n"


def test_run_parse_error_exit_one(capsys):
    code, _, err = run_cli(capsys, "run", "minusdiv_immediate", "4 5")
    assert code == EXIT_PARSE
    assert "error" in err


def test_run_step_budget_exit_three(capsys):
    code, _, err = run_cli(capsys, "run", "minusdiv_codegen", "1-2",
                           "--steps", "3")
    assert code == 3


@pytest.mark.parametrize("steps, expected, message", [
    ("-5", EXIT_USAGE, "usage error: --steps must be a non-negative count, got -5\n"),
    ("0", EXIT_BUDGET, "error: step budget of 0 exhausted\n"),
])
def test_steps_is_a_non_negative_count(capsys, steps, expected, message):
    assert run_cli(capsys, "run", "minusdiv_immediate", "1-2", "--steps", steps) == (
        expected, "", message)


def test_an_immediate_action_takes_three_steps_of_the_budget(capsys):
    """`1-2` runs one action: binding its call, its primitive, and the call
    of the host return continuation are one step each."""
    assert run_cli(capsys, "run", "minusdiv_immediate", "1-2", "--steps", "2") == (
        EXIT_BUDGET, "", "error: step budget of 2 exhausted\n")
    assert run_cli(capsys, "run", "minusdiv_immediate", "1-2", "--steps", "3") == (
        EXIT_OK, "-1\n", "")


@pytest.mark.parametrize("argv", [
    ("run", "minusdiv_codegen", "1-4/2-3", "--emit", "residual"),
    ("run", "minusdiv_immediate", "1-2"),
    ("check", "minusdiv_immediate"),
    ("expand", "minusdiv_immediate"),
])
def test_seed_is_a_non_negative_count(capsys, argv):
    """A negative seed would mint names such as `arg_-16`, which do not
    read back as identifiers."""
    assert run_cli(capsys, *argv, "--seed", "-50") == (
        EXIT_USAGE, "", "usage error: --seed must be a non-negative count, got -50\n")
    code, out, _ = run_cli(capsys, *argv, "--seed", "0")
    assert code == EXIT_OK and out
    assert run_cli(capsys, *argv) == (code, out, "")


def _depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def _run_under_recursion_limit(capsys, limit, *argv):
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        return run_cli(capsys, *argv)
    finally:
        sys.setrecursionlimit(saved)


@pytest.mark.parametrize("pack", ["minusdiv_codegen"])
def test_nesting_past_the_host_recursion_limit_exits_three(capsys, pack):
    code, out, err = _run_under_recursion_limit(
        capsys, _depth() + 400, "run", pack, "-".join(["7/1"] * 400))
    assert code == EXIT_BUDGET
    assert out == ""
    assert err.startswith("error: nesting-depth limit") and err.count("\n") == 1


def test_immediate_nesting_past_the_host_recursion_limit_succeeds(capsys):
    """The parser keeps its frames on an explicit stack, so the input that
    exhausts the lowered limit in the code-building pack parses here."""
    code, out, err = _run_under_recursion_limit(
        capsys, _depth() + 400, "run", "minusdiv_immediate", "-".join(["7/1"] * 400))
    assert (code, out, err) == (EXIT_OK, "-2786\n", "")


def test_finalize_drain_past_the_host_recursion_limit_succeeds(capsys):
    """The finalize drain keeps its frames on an explicit stack and narrows
    the shell's pack where it stands, so the typed shell of 150 terms
    finalizes under a limit its recursive drain exhausted."""
    code, out, err = _run_under_recursion_limit(
        capsys, _depth() + 2500, "run", "typed_minusdiv", "-".join(["7/1"] * 150))
    assert (code, out, err) == (EXIT_OK, "-1036\n", "")


def test_slot_wrapper_pairs_do_not_recurse_down_the_slot_tree(capsys, tmp_path):
    """Each slot wrapper's cached pair is computed as the wrapper is made,
    children first, so the 2048-term residual builds under the limit set
    at import time instead of exhausting it in the outermost wrapper's
    first pair."""
    source = tmp_path / "deep.txt"
    source.write_text("-".join(["7/1"] * 2048))
    code, out, err = run_cli(capsys, "run", "minusdiv_codegen", "--input", str(source),
                             "--emit", "value")
    assert (code, out, err) == (EXIT_OK, "-14322\n", "")


def test_immediate_parse_depth_is_not_bounded_by_the_host_stack(capsys, tmp_path):
    source = tmp_path / "deep.txt"
    source.write_text("-".join(["7/1"] * 30_000))
    code, out, err = _run_under_recursion_limit(
        capsys, 1000, "run", "minusdiv_immediate", "--input", str(source))
    assert (code, out, err) == (EXIT_OK, "-209986\n", "")


def test_recursion_error_in_an_action_is_not_an_action_error(capsys, monkeypatch):
    def too_deep(*_):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(runtime, "apply_value", too_deep)
    code, _, err = run_cli(capsys, "run", "minusdiv_immediate", "1-2")
    assert code == EXIT_BUDGET
    assert err.startswith("error: nesting-depth limit") and "action" not in err


def test_host_fault_in_an_action_is_an_internal_error(capsys, monkeypatch):
    def broken(*_):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(evaluator, "eval_prim", broken)
    code, out, err = run_cli(capsys, "run", "minusdiv_immediate", "1-2")
    assert code == EXIT_SOFTWARE
    assert out == ""
    assert err == "internal error: TypeError: unsupported operand\n"
    assert "action in rule" not in err


def test_interrupt_exits_130_with_one_line(capsys, monkeypatch):
    def interrupted(*_):
        raise KeyboardInterrupt

    monkeypatch.setattr(runtime, "apply_value", interrupted)
    assert run_cli(capsys, "run", "minusdiv_immediate", "1-2") == (EXIT_INTERRUPT, "",
                                                                   "interrupted\n")


def test_stdout_closed_early_exits_74_without_a_traceback(tmp_path):
    """The reader of stdout is gone before anything is written."""
    source = tmp_path / "terms.txt"
    source.write_text("-".join(["7/1"] * 300))
    src = str(Path(__file__).parent.parent / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen([sys.executable, "-m", "langweave.cli", "run", "minusdiv_codegen",
                             "--input", str(source), "--emit", "residual"],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (EXIT_IOERR, b"")


def test_nothing_is_rendered_without_a_listener(capsys, monkeypatch):
    """Without --trace or --emit trace no trace line is rendered: the
    renderers the trace formatter calls raise, and a stream switching into
    minusdiv_immediate, a generated function and a graph all still run.
    None of these programs calls the `print` builtin."""
    def unwanted(*_args, **_kwargs):
        raise AssertionError("a trace line was rendered")

    for name in ("print_prim", "render_value"):
        monkeypatch.setattr(evaluator, name, unwanted)
    outer = Path(__file__).parent.parent / "perfbench" / "grammars" / "stream.lw"
    immediate = Path(packs.PACK_ROOT) / "minusdiv_immediate" / "grammar.lw"
    stream = ("run", "--grammar", f"stream={outer}", "--grammar",
              f"minusdiv_immediate={immediate}", "stream", "a << 12-7/3; b << 4;")
    assert run_cli(capsys, *stream) == (EXIT_OK, "14\n", "")
    assert run_cli(capsys, "run", "minusdiv_codegen", "1-4/2-3", "--emit", "value") \
        == (EXIT_OK, "-4\n", "")
    assert run_cli(capsys, "run", "graph", "Start -> X, Y;\nX -> Y;\nY -> X, Start;") \
        == (EXIT_OK, '[["Start",1],["X",2],["Y",3]]\n[[2,3],[3],[2,1]]\n', "")


@pytest.mark.parametrize("argv, where", [
    (("run", "assignments", "--expr", "a = 1; b = a + 2; print b;"), "1:14"),
    (("run", "minusdiv_immediate", "1-\n2 3"), "2:3"),
    (("run", "graph", "A -> B;\nB -> ;"), "2:6"),
])
def test_input_errors_give_line_column_and_language(capsys, argv, where):
    code, _, err = run_cli(capsys, *argv)
    assert code == EXIT_PARSE
    assert f" {where}" in err and repr(argv[1]) in err and "offset" not in err
    assert err.count("\n") == 1


def test_an_expr_of_two_dashes_is_input_text(capsys):
    code, _, err = run_cli(capsys, "run", "graph", "--expr=--")
    assert code == EXIT_PARSE
    assert err == "error: no token of language 'graph' matches '--' at 1:1\n"


def test_fix_stage_parameter_does_not_capture_an_action_input(capsys, tmp_path):
    grammar = tmp_path / "fix.lw"
    grammar.write_text("grammar g { entry S|->(v)| ::= Integer|->(s)| |(s)->(v)| "
                       "{ fix '[s]' f (j)'[u]'{ '@u:' j s } '@s:' f return }; }\n")
    code, out, _ = run_cli(capsys, "run", "--grammar", f"g={grammar}", "g", "5")
    assert (code, out) == (EXIT_OK, "5\n")


def test_check_clean_grammar(capsys):
    code, out, _ = run_cli(capsys, "check", "minusdiv_codegen")
    assert code == EXIT_OK
    assert "nullable" in out and "first=" in out


def test_check_conflict_exit_one(capsys, tmp_path):
    bad = tmp_path / "amb.lw"
    bad.write_text(AMBIGUOUS)
    code, out, _ = run_cli(capsys, "check", "--grammar", f"amb={bad}")
    assert code == EXIT_PARSE
    assert '"x"' in out and "conflict" in out


@pytest.mark.parametrize("rules, recursive", [
    ('entry S ::= A "b"; A ::= A "a";', "A"),
    ('entry S ::= N A "b"; N ::= epsilon; A ::= S "a";', "SA"),
], ids=["direct", "through_a_nullable_prefix"])
def test_check_rejects_left_recursion(capsys, tmp_path, rules, recursive):
    """`run` on such a grammar would push parser frames without end."""
    grammar = tmp_path / "lr.lw"
    grammar.write_text(f"grammar g {{ {rules} }}\n")
    code, out, err = run_cli(capsys, "check", "--grammar", f"g={grammar}")
    assert (code, err) == (EXIT_PARSE, "")
    assert out == "== language g\n" + "".join(
        f"conflict: rule {rule!r} is left-recursive\n" for rule in recursive)


def test_check_reports_every_grammar_under_a_reused_name(capsys, tmp_path):
    bad = tmp_path / "amb.lw"
    bad.write_text(AMBIGUOUS)
    code, out, _ = run_cli(capsys, "check", "--grammar", f"a={bad}",
                           "--grammar", f"a={FIXTURES / 'lang_outer.lw'}")
    assert code == EXIT_PARSE
    assert out.count("== language a") == 2
    assert "conflict" in out


def test_expand_pack_reads_every_grammar(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "expand", "--grammar", "x=/does/not/exist.lw", "graph")
    assert exc.value.code == EXIT_NOINPUT
    bad = tmp_path / "amb.lw"
    bad.write_text(AMBIGUOUS)
    code, out, err = run_cli(capsys, "expand", "--grammar", f"c={bad}", "graph")
    assert code == EXIT_PARSE
    assert out == "" and "conflict:" in err


def test_missing_grammar_file_exit_66(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "check", "--grammar", "x=/does/not/exist.lw")
    assert exc.value.code == EXIT_NOINPUT


@pytest.mark.parametrize("argv, expected", [
    (("check", "nosuchpack"), EXIT_USAGE),
    (("expand", "nosuchpack"), EXIT_USAGE),
    (("check", "--grammar", "x={dir}"), EXIT_NOINPUT),
    (("run", "minusdiv_immediate", "--input", "{dir}"), EXIT_NOINPUT),
    (("run", "minusdiv_immediate", "--input", "{latin1}"), EXIT_NOINPUT),
    (("run", "signum_builder", "abc", "--emit", "value"), EXIT_USAGE),
    # '²' passes str.isdigit() but int() rejects it
    (("run", "minusdiv_immediate", "1-²"), EXIT_PARSE),
    *[(argv, EXIT_PARSE) for argv, _ in GRAMMAR_FAULTS],
    (("run", "signum_builder", "5", "--grammar", "x=/does/not/exist.lw"), EXIT_NOINPUT),
    # a pack id is a plain name, never a path to another pack directory
    (("check", "../packs/graph"), EXIT_USAGE),
    (("expand", "../packs/graph"), EXIT_USAGE),
])
def test_bad_input_is_one_error_line_not_a_traceback(capsys, tmp_path, argv, expected):
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(b"\xff1-2\n")
    argv = [a.format(dir=tmp_path, latin1=latin1) for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # unreadable files exit like missing ones
        code = exc.code
    err = capsys.readouterr().err
    assert code == expected
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv, message", GRAMMAR_FAULTS,
                         ids=["trailing_input", "link_unknown_rule", "link_not_entry",
                              "unknown_rule_in_use", "inputs_disagree"])
def test_grammar_faults_name_the_fault(capsys, argv, message):
    assert run_cli(capsys, *argv) == (EXIT_PARSE, "", message + "\n")


@pytest.mark.parametrize("fixture, diagnostic", [
    ("inputs_disagree", "rule 'R': productions disagree on input parameters: ['x'] vs ['y']"),
    ("too_many_inputs", "rule 'Top' production 0: rule 'R' expects 1 input(s), given 2"),
    ("too_many_outputs", "rule 'Top' production 0: rule 'R' produces 1 output(s), bound to 2"),
    ("token_class_inputs",
     "rule 'S' production 0: token class 'Integer' expects 0 input(s), given 1"),
    ("token_class_argument_inputs",
     "rule 'S_1' production 0: token class 'Integer' expects 0 input(s), given 1"),
    # completion reads no inputs off a token class, so it adds none to a rule
    ("token_class_unbound_inputs",
     "rule 'S' production 0: token class 'Integer' expects 0 input(s), given 1"),
    ("token_class_called_inputs",
     "rule 'T' production 0: token class 'Integer' expects 0 input(s), given 1"),
], ids=["inputs_disagree", "too_many_inputs", "too_many_outputs", "token_class_inputs",
        "token_class_argument_inputs", "token_class_unbound_inputs",
        "token_class_called_inputs"])
def test_check_counts_written_annotations(capsys, fixture, diagnostic):
    """Each of these grammars fails at the first parse if it is run."""
    code, out, err = run_cli(capsys, "check", "--grammar", f"x={CLI_FIXTURES / fixture}.lw")
    assert (code, out, err) == (EXIT_PARSE, f"== language x\ndiagnostic: {diagnostic}\n", "")


def test_completion_has_no_round_limit(capsys, tmp_path):
    """Completion moves `z` up this chain one rule per round: 110 rounds."""
    chain = tmp_path / "chain.lw"
    chain.write_text("grammar chain {\n  entry Top|->(v)| ::= Integer|->(z)| R1;\n"
                     + "".join(f"  R{i}|->(v)| ::= R{i + 1};\n" for i in range(1, 110))
                     + "  R110|->(v)| ::= |(z)->(v)| { return z };\n}\n")
    assert run_cli(capsys, "run", "--grammar", f"x={chain}", "x", "7") == (EXIT_OK, "7\n", "")


@pytest.mark.parametrize("fixture, code, out", [
    ("late_print", EXIT_OK, "7\n5\n"),
    ("late_exit", 4, "7\n"),
])
def test_output_printed_while_a_result_is_invoked_comes_first(capsys, fixture, code, out):
    argv = ("run", "--grammar", f"x={CLI_FIXTURES / fixture}.lw", "x", "7")
    assert run_cli(capsys, *argv) == (code, out, "")


def test_usage_errors(capsys):
    code, _, _ = run_cli(capsys, "nonsense")
    assert code == EXIT_USAGE
    code, _, err = run_cli(capsys, "run")
    assert code == EXIT_USAGE
    code, _, err = run_cli(capsys, "run", "minusdiv_immediate")
    assert code == EXIT_USAGE
    assert "input" in err


@pytest.mark.parametrize("command", ["check", "expand"])
@pytest.mark.parametrize("pack", GRAMMAR_PACKS)
def test_check_and_expand_match_goldens(capsys, pack, command):
    code, out, err = run_cli(capsys, command, pack)
    assert (code, err) == (EXIT_OK, "")
    assert out == (FIXTURES / f"{pack}_{command}.golden").read_text()


@pytest.mark.parametrize("source", GRAMMAR_PACKS + GRAMMAR_FILES,
                         ids=lambda s: getattr(s, "name", s))
def test_expand_idempotent(capsys, tmp_path, source):
    if isinstance(source, Path):
        lang, argv = "x", ["--grammar", f"x={source}", "--lang", "x"]
    else:
        lang, argv = source, [source]
    code, out1, _ = run_cli(capsys, "expand", *argv)
    assert code == EXIT_OK
    expanded = tmp_path / "expanded.lw"
    expanded.write_text(out1)
    code, out2, _ = run_cli(capsys, "expand", "--grammar", f"{lang}={expanded}",
                            "--lang", lang)
    assert code == EXIT_OK
    assert out1 == out2


@pytest.mark.parametrize("body, where", [
    ("return n %", "unexpected character '%' at 5:18"),
    ('"n+" (m) return m', "unexpected '' in expression 'n+' at 5:9"),
    ("return ²", "unexpected character '²' at 5:16"),
    ('"1+²" (m) return m', "bad character '²' in expression '1+²' at 5:9"),
    ("'@parse $:' return n", "unexpected character '$' at 5:17"),
    ("@: return n", "expected a stage, found ':' at 5:10"),
    ("(1){ return 1 } (v) return v", "expected parameter name at 5:10"),
    ('"n" (1) return n', "expected binder name at 5:14"),
    ('"n" () return n', "primitive expression must bind at least one name at 5:16"),
    ("\"'abc\" (m) return m", "unterminated string in expression \"'abc\" at 5:9"),
], ids=["core", "prim", "core_nondecimal_digit", "prim_nondecimal_digit", "quoted_stage_prefix",
        "stage", "parameter", "binder", "no_binder", "prim_unterminated_string"])
def test_action_body_errors_report_file_positions(capsys, tmp_path, body, where):
    grammar = tmp_path / "bad.lw"
    grammar.write_text("grammar g {\n  entry S|->(v)| ::=\n      Integer|->(n)|\n"
                       f"      |(n)->(v)| {{\n        {body}\n      }};\n}}\n")
    code, out, err = run_cli(capsys, "check", "--grammar", f"g={grammar}")
    assert (code, out, err) == (EXIT_PARSE, "", f"error: {where}\n")


def test_trace_emit(capsys):
    code, out, _ = run_cli(capsys, "run", "minusdiv_immediate", "8-3",
                           "--emit", "trace")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert "token Integer 8" in lines
    assert 'token "-" -' in lines
    assert any(line.startswith("action") for line in lines)


def test_trace_flag_goes_to_stderr(capsys):
    code, out, err = run_cli(capsys, "run", "minusdiv_immediate", "8-3",
                             "--trace")
    assert code == EXIT_OK
    assert out == "5\n"
    assert "token Integer 8" in err


def test_emit_trace_of_a_script_pack_invokes_nothing(capsys):
    code, out, _ = run_cli(capsys, "run", "signum_builder", "5", "--emit", "trace")
    assert code == EXIT_OK
    assert "1" not in out.splitlines()
    assert run_cli(capsys, "run", "signum_builder", "--emit", "trace")[0] == EXIT_OK


@pytest.mark.parametrize("argv, out, fired", [
    (("signum_builder", "5"), "1\n", "prim 5>0"),
    (("minusdiv_codegen", "1-2"), "-1\n", "prim 1-2"),
], ids=["script_pack", "grammar_pack"])
def test_trace_flag_covers_invoking_the_results(capsys, argv, out, fired):
    code, stdout, err = run_cli(capsys, "run", *argv, "--emit", "value", "--trace")
    assert (code, stdout) == (EXIT_OK, out)
    assert fired in err.splitlines()


def test_link_problems_keep_the_order_of_use():
    """The problems of one grammar do not depend on string hashing."""
    argv = [sys.executable, "-m", "langweave.cli", "run", "--grammar",
            f"x={CLI_FIXTURES / 'two_unknown_languages.lw'}", "x", ""]
    src = str(Path(__file__).parent.parent / "src")
    errs = set()
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(argv, env=env, capture_output=True, text=True, check=False)
        assert done.returncode == EXIT_PARSE
        errs.add(done.stderr)
    assert errs == {"error: 'x' references unknown language 'p'; "
                    "'x' references unknown language 'q'\n"}


def test_run_with_explicit_grammar_files(capsys):
    code, out, _ = run_cli(
        capsys, "run",
        "--grammar", f"outer={FIXTURES / 'lang_outer.lw'}",
        "--grammar", f"calc={FIXTURES / 'lang_calc.lw'}",
        "--lang", "outer", "--entry", "Prog",
        "--expr", "go << 1 :: 2")
    assert code == EXIT_OK
    assert out == "3\n"


def test_tuple_template_argument_splices_its_names(capsys):
    grammar = f"x={FIXTURES / 'tuple_arg.lw'}"
    code, _, err = run_cli(capsys, "check", "--grammar", grammar)
    assert (code, err) == (EXIT_OK, "")
    assert run_cli(capsys, "run", "--grammar", grammar, "x", "1 2") == (EXIT_OK, "1\n2\n", "")


QUOTING = """grammar q { entry Start|->(P)| ::= String|->(s)| |(s)->(P)| {
  build 0 ('ft', end)'[bt]' { '@ft:' "s==s" (same)'[ft]' '@ft:' end same }
    (F) finalize F return }; }
"""


def test_residual_inlining_a_quote_reads_back(capsys, tmp_path):
    """A string inlined into a primitive writes `'` as `''`, so the printed
    residual reads back and runs."""
    grammar = tmp_path / "q.lw"
    grammar.write_text(QUOTING)
    code, out, _ = run_cli(capsys, "run", "--grammar", f"q={grammar}", "q", '"it\'s"',
                           "--emit", "residual")
    assert code == EXIT_OK
    assert "\"'it''s'=='it''s'\"" in out
    session = evaluator.Session()
    assert evaluator.apply_value(read_core(out, session.names), [], session) == [Bool(True)]


def test_graph_trace_matches_golden(capsys):
    text = "Start -> X, Y;\nX -> Y;\nY -> X, Start;"
    code, out, _ = run_cli(capsys, "run", "graph", text,
                           "--emit", "trace", "--seed", "0")
    assert code == EXIT_OK
    golden = (FIXTURES / "graph_trace.golden").read_text()
    assert out == golden


def test_two_language_trace_matches_golden(capsys):
    """Tokens of both languages, the switch into `calc` and back, the
    actions, and the primitive `finalize` runs."""
    code, out, err = run_cli(
        capsys, "run",
        "--grammar", f"outer={FIXTURES / 'lang_outer.lw'}",
        "--grammar", f"calc={FIXTURES / 'lang_calc.lw'}",
        "--lang", "outer", "--entry", "Prog",
        "--expr", "go << 1 :: 2", "--trace", "--seed", "0")
    assert (code, out) == (EXIT_OK, "3\n")
    assert err == (FIXTURES / "lang_outer_trace.golden").read_text()


# The residual before substitution shared closed subtrees and before it kept
# binder names, which minted fresh names at other counter values and renamed
# every binder; the golden must stay alpha-equal to it.
MINUSDIV_RESIDUAL_UNSHARED = """\
(arg_397)'[ft_73]' {
  '@ft_73:' "4/2" (quot_398)'[ft_399]'
  '@ft_399:' "1-quot_398" (diff_400)'[ft_401]'
  '@ft_401:' "diff_400-3" (diff_402)'[ft_403]'
  '@ft_403:' arg_397 diff_402
}
"""


def test_minusdiv_residual_matches_golden(capsys):
    code, out, _ = run_cli(capsys, "run", "minusdiv_codegen", "1-4/2-3",
                           "--emit", "residual", "--seed", "0")
    assert code == EXIT_OK
    golden = (FIXTURES / "minusdiv_residual.golden").read_text()
    assert out == golden
    assert alpha_eq(read_core(out), read_core(MINUSDIV_RESIDUAL_UNSHARED))


@pytest.mark.parametrize("pack", ["assignments", "graph"])
def test_narrowed_residual_matches_golden(capsys, pack):
    """The finalize shell of these packs narrows its pack through a fragment
    call, so the golden pins the fresh names that narrowing takes."""
    sample = packs.load_manifest(pack)["samples"][0]["input"]
    code, out, _ = run_cli(capsys, "run", pack, sample, "--emit", "residual", "--seed", "0")
    assert code == EXIT_OK
    assert out == (FIXTURES / f"{pack}_residual.golden").read_text()


def test_signum_script_pack(capsys):
    code, out, _ = run_cli(capsys, "run", "signum_builder", "--emit",
                           "residual", "--seed", "3")
    assert code == EXIT_OK
    assert out.count("if ") == 2  # two nested conditionals
    code, out, _ = run_cli(capsys, "run", "signum_builder", "--expr", "0",
                           "--emit", "value")
    assert code == EXIT_OK
    assert out == "0\n"


@pytest.mark.parametrize("argv, message", [
    (("check", "--grammar", "nameless.lw"),
     "--grammar expects name=path, got 'nameless.lw'"),
    (("check",), "check needs at least one grammar (--grammar name=path or a pack id)"),
    (("expand",), "expand needs --grammar/--lang or a pack id"),
    (("expand", "--grammar", f"x={FIXTURES / 'assoc.lw'}", "--lang", "y"),
     "'y' names neither a loaded grammar nor a grammar pack"),
    (("run", "--grammar", f"x={FIXTURES / 'assoc.lw'}", "x", "1-2"),
     "run needs --entry (language has several entry rules)"),
], ids=["grammar_without_name", "check_nothing", "expand_nothing", "expand_unknown_lang",
        "run_without_entry"])
def test_usage_errors_name_the_fault(capsys, argv, message):
    assert run_cli(capsys, *argv) == (EXIT_USAGE, "", f"usage error: {message}\n")


def test_help_exits_zero(capsys):
    code, out, err = run_cli(capsys, "--help")
    assert (code, err) == (EXIT_OK, "")
    assert out.startswith("usage: langweave")


def test_stdout_closed_before_the_flush_exits_74(capsys, monkeypatch):
    """The same path as the subprocess test above, in process: the write
    end of a pipe whose read end is closed fails at `main`'s flush."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as closed:
        monkeypatch.setattr(sys, "stdout", closed)
        assert main(["run", "minusdiv_immediate", "1-2"]) == EXIT_IOERR
        monkeypatch.undo()
        closed.write("x")
        closed.flush()  # the descriptor now writes to the null device
    assert capsys.readouterr() == ("", "")


def _action_grammar(tmp_path, body):
    """`--grammar` for the language `g`, which reads an integer `n` and
    returns the value its one action `body` returns."""
    grammar = tmp_path / "g.lw"
    grammar.write_text("grammar g { entry S|->(v)| ::= Integer|->(n)| |(n)->(v)| "
                       f"{{ {body} }}; }}\n")
    return f"g={grammar}"


FAILED = "error: action in rule 'S' at 1:2 in language 'g' failed: "


@pytest.mark.parametrize("body, code, err", [
    ("exit", EXIT_ACTION, ""),
    ("exit 0", EXIT_OK, ""),
    ("exit 5", 5, ""),
    ("exit -1", EXIT_ACTION, FAILED + "exit code -1 is outside 0..255\n"),
    ("exit 256", EXIT_ACTION, FAILED + "exit code 256 is outside 0..255\n"),
    # `exit` waits while its operand is symbolic, as the other builtins do
    ("(c)[s]{ @always: exit c } 5", 5, ""),
], ids=["no_code", "zero", "five", "negative", "past_255", "symbolic_operand"])
def test_exit_ends_the_run_with_its_code(capsys, tmp_path, body, code, err):
    """A code outside 0..255 would reach the shell modulo 256, so `exit 256`
    would read as success."""
    assert run_cli(capsys, "run", "--grammar", _action_grammar(tmp_path, body), "g", "5") \
        == (code, "", err)


@pytest.mark.parametrize("body, out", [
    ("return always", "'always'\n"),
    ("return [(x){ return x }, print, return, never]", "[#code,#value,#value,'never']\n"),
    ("newEnv (e) return [e]", "[#env]\n"),
    ("build 0 (ft, k)[bt]{ @ft: k 1 } (F) return [F]", "[#fragment/0]\n"),
    ("fix f (x){ return x } return [f]", "[#value]\n"),
    # the `print` runs first, inside the lambda, while `y` is symbolic
    ("(y)[s]{ @always: print [y, !y] ()[t]{ return y } } 7", "[y,!y]\n7\n"),
    ("(a, b){ return b } !![1, 2]", "2\n"),
    # a builtin waits while an operand is symbolic or a splice is no tuple yet
    ("(y)[s]{ @always: print y ()[t]{ return y } } 7", "7\n7\n"),
    ("(x)[s]{ @always: print !x ()[t]{ return 1 } } [7]", "7\n1\n"),
    ("(c)[s]{ @always: if c ()[t]{ return 1 } ()[t]{ return 2 } } true", "1\n"),
    ("(m)[s]{ @always: build m (ft, k)[bt]{ @ft: k n } (F) finalize F (P) "
     "P (r){ return r } } 0", "5\n"),
    ("build 1 (ft, !a, k)[bt]{ @bt: k ft n !a } (F) build 0 (ft, v, e)[bt]{ @ft: e v } (G) "
     "(f)[s]{ @always: merge f G (H) finalize H (P) P (r){ return r } } F", "5\n"),
    ("build 0 (ft, k)[bt]{ @ft: k n } (F) "
     "(f)[s]{ @always: finalize f (P) P (r){ return r } } F", "5\n"),
], ids=["stage_constant", "code_and_builtins", "environment", "fragment", "fix_name",
        "symbolic", "splice_of_a_splice", "waiting_print", "waiting_splice", "waiting_if",
        "waiting_build", "waiting_merge", "waiting_finalize"])
def test_action_values_print(capsys, tmp_path, body, out):
    assert run_cli(capsys, "run", "--grammar", _action_grammar(tmp_path, body), "g", "5") \
        == (EXIT_OK, out, "")


@pytest.mark.parametrize("body, message", [
    ("exit 1 2", "exit takes at most one argument"),
    ("if n ()[t]{ return 1 } ()[t]{ return 2 }", "if condition must be a boolean"),
    ("build true (ft, k)[bt]{ @ft: k 1 } (F) return F", "build arity must be an integer"),
    ("fix f 3 f return", "fix value is not a lambda"),
    ("build 1 (ft, k)[bt]{ @ft: k 1 } (F) F always 1",
     "fragment still has 1 unfilled continuation(s)"),
    ("build 0 (ft, k)[bt]{ @ft: k 1 } (F) F", "evaluation finished without invoking return"),
    ("build 0 (ft, k)[bt]{ @ft: k 1 } (F) \"F==F\" (b) return b",
     "cannot compare #fragment/0 and #fragment/0"),
], ids=["exit_arguments", "if_condition", "build_arity", "fix_value", "open_fragment",
        "fragment_without_stage", "compare_fragments"])
def test_action_errors_exit_two(capsys, tmp_path, body, message):
    assert run_cli(capsys, "run", "--grammar", _action_grammar(tmp_path, body), "g", "5") \
        == (EXIT_ACTION, "", f"{FAILED}{message}\n")


def test_a_return_continuation_called_after_its_values_were_read_fails(capsys, tmp_path):
    """The first action returns a lambda that calls the action's return
    continuation; the second calls it, after the first action's values have
    been read."""
    grammar = tmp_path / "g.lw"
    grammar.write_text("grammar g { entry S|->(v)| ::= Integer|->(n)| |(n)->(k)| "
                       "{ return (x)'[u]'{ '@u:' return x } } "
                       "Integer|->(m)| |(k, m)->(v)| { k m }; }\n")
    assert run_cli(capsys, "run", "--grammar", f"g={grammar}", "g", "1 2") == (
        EXIT_ACTION, "", "error: action in rule 'S' at 1:4 in language 'g' failed: "
                         "return continuation invoked twice\n")


@pytest.mark.parametrize("body, residual", [
    ("newEnv (e) build 0 (ft, k)[bt]{ @ft: k e } (F) finalize F return",
     "(arg_5)'[ft_3]' {\n  '@ft_3:' arg_5 #env\n}\n"),
    ("build 0 (ft, k)[bt]{ @ft: k 1 } (G) build 0 (ft, k)[bt]{ @ft: k G return } (F) "
     "finalize F return", "(arg_5)'[ft_3]' {\n  '@ft_3:' arg_5 #fragment #return\n}\n"),
    ("fix f (x){ return x } build 0 (ft, k)[bt]{ @ft: k f } (F) finalize F return",
     "(arg_6)'[ft_4]' {\n  '@ft_4:' arg_6 #rec\n}\n"),
], ids=["environment", "fragment_and_return", "fix_name"])
def test_a_residual_prints_an_opaque_value_as_a_mark(capsys, tmp_path, body, residual):
    argv = ("run", "--grammar", _action_grammar(tmp_path, body), "g", "5",
            "--emit", "residual", "--seed", "0")
    assert run_cli(capsys, *argv) == (EXIT_OK, residual, "")


def test_a_trace_prints_a_quoted_tuple_holding_a_splice(capsys, tmp_path):
    """A tuple holding a splice has no primitive text, and neither has a
    splice; the strings and booleans in it print as the primitive
    expressions they read back as."""
    grammar = _action_grammar(tmp_path, "(t){ \"t\" (u) return u } [\"it's\", true, false, !q]")
    assert run_cli(capsys, "run", "--grammar", grammar, "g", "5", "--trace") == (
        EXIT_OK, "[\"it's\",true,false,!q]\n",
        "token Integer 5\naction S#0 (5)\nprim ['it''s',1==1,1==0,#value]\n")

"""Command-line driver: exit codes, determinism, golden behavior."""

import sys
from pathlib import Path

import pytest

from langweave import packs, runtime
from langweave.cli import main
from langweave.errors import (EXIT_ACTION, EXIT_BUDGET, EXIT_NOINPUT, EXIT_OK,
                              EXIT_PARSE, EXIT_USAGE)
from langweave.reader import read_core
from langweave.terms import alpha_eq

FIXTURES = Path(__file__).parent / "fixtures"
AMBIGUOUS = 'grammar amb {\n  entry A ::= "x";\n  A ::= "x" "y";\n}\n'
GRAMMAR_PACKS = tuple(p for p in packs.pack_ids()
                      if packs.load_manifest(p)["kind"] == "grammar")
GRAMMAR_FILES = tuple(sorted(FIXTURES.glob("*.lw"))) + (
    Path(__file__).parent.parent / "perfbench" / "grammars" / "stream.lw",)


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


def _depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@pytest.mark.parametrize("pack", ["minusdiv_immediate", "minusdiv_codegen"])
def test_nesting_past_the_host_recursion_limit_exits_three(capsys, pack):
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_depth() + 400)
    try:
        code, out, err = run_cli(capsys, "run", pack, "-".join(["7/1"] * 400))
    finally:
        sys.setrecursionlimit(limit)
    assert code == EXIT_BUDGET
    assert out == ""
    assert err.startswith("error: nesting-depth limit") and err.count("\n") == 1


def test_recursion_error_in_an_action_is_not_an_action_error(capsys, monkeypatch):
    def too_deep(*_):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(runtime, "apply_value", too_deep)
    code, _, err = run_cli(capsys, "run", "minusdiv_immediate", "1-2")
    assert code == EXIT_BUDGET
    assert err.startswith("error: nesting-depth limit") and "action" not in err


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
], ids=["core", "prim", "core_nondecimal_digit", "prim_nondecimal_digit"])
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


def test_run_with_explicit_grammar_files(capsys):
    code, out, _ = run_cli(
        capsys, "run",
        "--grammar", f"outer={FIXTURES / 'lang_outer.lw'}",
        "--grammar", f"calc={FIXTURES / 'lang_calc.lw'}",
        "--lang", "outer", "--entry", "Prog",
        "--expr", "go << 1 :: 2")
    assert code == EXIT_OK
    assert out == "3\n"


def test_graph_trace_matches_golden(capsys):
    text = "Start -> X, Y;\nX -> Y;\nY -> X, Start;"
    code, out, _ = run_cli(capsys, "run", "graph", text,
                           "--emit", "trace", "--seed", "0")
    assert code == EXIT_OK
    golden = (FIXTURES / "graph_trace.golden").read_text()
    assert out == golden


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


def test_signum_script_pack(capsys):
    code, out, _ = run_cli(capsys, "run", "signum_builder", "--emit",
                           "residual", "--seed", "3")
    assert code == EXIT_OK
    assert out.count("if ") == 2  # two nested conditionals
    code, out, _ = run_cli(capsys, "run", "signum_builder", "--expr", "0",
                           "--emit", "value")
    assert code == EXIT_OK
    assert out == "0\n"

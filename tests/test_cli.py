"""Command-line driver: exit codes, determinism, golden behavior."""

from pathlib import Path

import pytest

from langweave.cli import main
from langweave.errors import (EXIT_ACTION, EXIT_NOINPUT, EXIT_OK, EXIT_PARSE,
                              EXIT_USAGE)

FIXTURES = Path(__file__).parent / "fixtures"


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


def test_check_clean_grammar(capsys):
    code, out, _ = run_cli(capsys, "check", "minusdiv_codegen")
    assert code == EXIT_OK
    assert "nullable" in out and "first=" in out


def test_check_conflict_exit_one(capsys, tmp_path):
    bad = tmp_path / "amb.lw"
    bad.write_text('grammar amb {\n  entry A ::= "x";\n  A ::= "x" "y";\n}\n')
    code, out, _ = run_cli(capsys, "check", "--grammar", f"amb={bad}")
    assert code == EXIT_PARSE
    assert '"x"' in out and "conflict" in out


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


def test_expand_idempotent(capsys, tmp_path):
    code, out1, _ = run_cli(capsys, "expand", "minusdiv_immediate")
    assert code == EXIT_OK
    expanded = tmp_path / "expanded.lw"
    expanded.write_text(out1)
    code, out2, _ = run_cli(capsys, "expand", "--grammar",
                            f"minusdiv_immediate={expanded}",
                            "--lang", "minusdiv_immediate")
    assert code == EXIT_OK
    assert out1 == out2


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


def test_minusdiv_residual_matches_golden(capsys):
    code, out, _ = run_cli(capsys, "run", "minusdiv_codegen", "1-4/2-3",
                           "--emit", "residual", "--seed", "0")
    assert code == EXIT_OK
    golden = (FIXTURES / "minusdiv_residual.golden").read_text()
    assert out == golden


def test_signum_script_pack(capsys):
    code, out, _ = run_cli(capsys, "run", "signum_builder", "--emit",
                           "residual", "--seed", "3")
    assert code == EXIT_OK
    assert out.count("if ") == 2  # two nested conditionals
    code, out, _ = run_cli(capsys, "run", "signum_builder", "--expr", "0",
                           "--emit", "value")
    assert code == EXIT_OK
    assert out == "0\n"

"""Command-line driver.

    langweave check  --grammar name=path [...]          validate grammars
    langweave expand (--lang NAME | PACK)               show expanded grammar
    langweave run    (LANG|PACK) [INPUT] [options]      parse and emit

Bundled example languages are addressed by pack id (``langweave run
minusdiv_codegen "1-4/2-3" --emit residual``).  Stdout carries data;
diagnostics go to stderr.  Exit codes: 0 ok, 1 parse/grammar error,
2 action or type error, 3 step budget or nesting-depth limit, 64 usage,
66 missing or unreadable file, 70 internal error (a fault of langweave
itself, never of the input), 74 stdout closed early (a broken pipe),
130 interrupted (Ctrl-C).
"""

import argparse
import functools
import os
import sys

from . import packs
from .errors import (EXIT_ACTION, EXIT_BUDGET, EXIT_INTERRUPT, EXIT_IOERR,
                     EXIT_NOINPUT, EXIT_OK, EXIT_PARSE, EXIT_SOFTWARE,
                     EXIT_USAGE, ActionError, EvalError, EvalExit, LangError,
                     Ll1Conflict, StepBudgetExceeded)
from .evaluator import Session, apply_value
from .fragments import finalize
from .grammar import prepare, print_grammar
from .grammar_reader import read_grammar
from .parsegen import build_table, format_analysis, format_table
from .printer import print_core, render_value
from .reader import read_core
from .runtime import LanguageRegistry, Parser
from .terms import FragVal, Int, Lam


class _Usage(Exception):
    pass


def _read_file(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except FileNotFoundError:
        print(f"error: no such file: {path}", file=sys.stderr)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
    raise SystemExit(EXIT_NOINPUT)


def _manifest(pack_id):
    try:
        return packs.load_manifest(pack_id)
    except KeyError:
        raise _Usage(f"no bundled pack named {pack_id!r}") from None


def _load(session, specs, manifests):
    """Read and prepare every ``--grammar`` spec in argv order, then every
    grammar pack of `manifests` (script packs are skipped), yielding
    ``(name, grammar, diagnostics)``.  The order fixes fresh-name numbering;
    yielding lazily lets a registering caller fail on an earlier grammar
    before a later file is read."""
    def sources():
        for spec_item in specs:
            if "=" not in spec_item:
                raise _Usage(f"--grammar expects name=path, got {spec_item!r}")
            name, path = spec_item.split("=", 1)
            yield name, _read_file(path)
        for manifest in manifests:
            if manifest["kind"] == "grammar":
                yield manifest["id"], packs.pack_source(manifest)

    for name, text in sources():
        yield (name, *prepare(read_grammar(text, session.names)))


def _registry(loaded):
    reg = LanguageRegistry()
    for name, grammar, diagnostics in loaded:
        if diagnostics:
            raise Ll1Conflict(diagnostics)
        reg.register(name, grammar)
    return reg


def _finish(results, emit, session, invoke_args):
    """The lines `emit` asks for: the trace so far, with nothing finished,
    or the results as code (a fragment finalized first) or as values (a
    generated function invoked on `invoke_args` first)."""
    if emit == "trace":
        return session.trace
    shown = []
    for term in results:
        if isinstance(term, FragVal):
            term = finalize(term.fragment, session)
        if emit == "residual":
            shown.append(print_core(term) if isinstance(term, Lam) else render_value(term))
        elif isinstance(term, Lam):
            shown.extend(map(render_value, apply_value(term, invoke_args, session)))
        else:
            shown.append(render_value(term))
    return shown


def _parse_invoke_args(expr):
    values = []
    for chunk in (expr or "").split():
        try:
            values.append(Int(int(chunk)))
        except ValueError:
            raise _Usage(f"invoke argument {chunk!r} is not an integer") from None
    return values


def cmd_check(args):
    session = Session(seed=args.seed)
    clean = True
    loaded = list(_load(session, args.grammar or [], map(_manifest, args.packs or [])))
    if not loaded:
        raise _Usage("check needs at least one grammar (--grammar name=path or a pack id)")
    for name, grammar, diagnostics in loaded:
        print(f"== language {name}")
        if diagnostics:
            for d in diagnostics:
                print(f"diagnostic: {d}")
            clean = False
            continue
        try:
            table = build_table(grammar)
        except Ll1Conflict as conflict:
            clean = False
            for d in conflict.diagnostics:
                print(f"conflict: {d}")
            continue
        print(format_analysis(grammar, table.analysis))
        print(format_table(grammar, table))
    return EXIT_OK if clean else EXIT_PARSE


def cmd_expand(args):
    session = Session(seed=args.seed)
    specs = args.grammar or []
    name = args.lang or (args.packs[0] if args.packs else None)
    if not name:
        raise _Usage("expand needs --grammar/--lang or a pack id")
    reg = _registry(_load(session, specs, map(_manifest, [] if args.lang and specs else [name])))
    if name not in reg.languages:
        raise _Usage(f"{name!r} names neither a loaded grammar nor a grammar pack")
    print(print_grammar(reg.languages[name].grammar), end="")
    return EXIT_OK


def cmd_run(args):
    """Load every grammar, apply a script pack's creator or parse the input,
    then print the output and trace (also on exit or failure) and `emit`."""
    session = Session(seed=args.seed, budget=args.steps)
    lang = args.lang or args.positional_lang
    if not lang:
        raise _Usage("run needs a language (--lang or positional)")

    specs = args.grammar or []
    manifest = {} if lang in [s.split("=", 1)[0] for s in specs] else _manifest(lang)
    script = manifest.get("kind") == "script"
    reg = _registry(_load(session, specs, [manifest] if manifest and not script else []))
    emit = args.emit or manifest.get("default_emit", "value")
    if args.trace or emit == "trace":
        session.record_trace()
    invoke_args = _parse_invoke_args(args.input_text) if script and emit == "value" else ()
    if not script:
        entry = args.entry if args.entry is not None else manifest.get("entry")
        if entry is None:
            entries = reg.languages[lang].grammar.entry_rules
            if len(entries) != 1:
                raise _Usage("run needs --entry (language has several entry rules)")
            entry = entries[0]
        if args.input_text is None:
            raise _Usage("run needs input (positional, --expr, or --input)")

    try:
        if script:
            results = apply_value(read_core(packs.pack_source(manifest), session.names),
                                  [], session)
        else:
            results = Parser(reg, args.input_text, session).parse(lang, entry, ())
        shown = _finish(results, emit, session, invoke_args)
    finally:
        for line in session.out:
            print(line)
        if args.trace:
            for line in session.trace:
                print(line, file=sys.stderr)
    for line in shown:
        print(line)
    return EXIT_OK


@functools.cache
def _build_argparser():
    """The argument parser, built once per process: `main` may be called
    many times in one process, and parsing leaves the parser unchanged."""
    top = argparse.ArgumentParser(prog="langweave", description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--grammar", action="append", metavar="NAME=PATH",
                       help="register a grammar file under NAME (repeatable)")
        p.add_argument("--seed", type=int, default=0,
                       help="fresh-name seed (stabilizes residual output)")

    check = sub.add_parser("check", help="validate grammars, print sets and table")
    common(check)
    check.add_argument("packs", nargs="*", help="bundled pack ids to check")
    check.set_defaults(func=cmd_check)

    expand = sub.add_parser("expand", help="print the expanded grammar")
    common(expand)
    expand.add_argument("--lang", help="which loaded grammar to print")
    expand.add_argument("packs", nargs="*", help="bundled pack id to expand")
    expand.set_defaults(func=cmd_expand)

    run = sub.add_parser("run", help="parse input and emit values or residual code")
    common(run)
    run.add_argument("positional_lang", nargs="?", metavar="LANG",
                     help="language or bundled pack id")
    run.add_argument("positional_input", nargs="?", metavar="INPUT",
                     help="inline input text")
    run.add_argument("--lang", help="language name")
    run.add_argument("--entry", help="entry rule")
    run.add_argument("--expr", help="inline input text")
    run.add_argument("--input", dest="input_file", help="read input from a file")
    run.add_argument("--emit", choices=("value", "residual", "trace"))
    run.add_argument("--steps", type=int, default=1_000_000,
                     help="evaluation step budget")
    run.add_argument("--trace", action="store_true",
                     help="print the run's trace to stderr")
    run.set_defaults(func=cmd_run)
    return top


def main(argv=None):
    top = _build_argparser()
    try:
        args = top.parse_args(argv)
    except SystemExit as exit_err:
        # argparse uses code 2 for usage problems; remap per our contract
        if exit_err.code not in (0, None):
            return EXIT_USAGE
        return 0

    if args.command == "run":
        text = args.positional_input if args.positional_input is not None else args.expr
        if text == []:  # argparse before Python 3.12 drops the value of `--expr=--`
            text = "--"
        if text is None and args.input_file:
            text = _read_file(args.input_file)
        args.input_text = text

    try:
        for flag in ("seed", "steps"):
            if getattr(args, flag, 0) < 0:
                raise _Usage(f"--{flag} must be a non-negative count, got {getattr(args, flag)}")
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except _Usage as usage:
        print(f"usage error: {usage}", file=sys.stderr)
        return EXIT_USAGE
    except EvalExit as halt:
        # program-requested abort (staged type checks land here)
        return halt.code
    except StepBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except RecursionError:
        print(f"error: nesting-depth limit exceeded (host recursion limit "
              f"{sys.getrecursionlimit()})", file=sys.stderr)
        return EXIT_BUDGET
    except Ll1Conflict as exc:
        for d in exc.diagnostics:
            print(f"conflict: {d}", file=sys.stderr)
        return EXIT_PARSE
    except (ActionError, EvalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ACTION
    except LangError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BrokenPipeError:
        # as in the "Note on SIGPIPE" of `signal`: the flush at exit must not fail too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_IOERR
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPT
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())

"""Exception hierarchy shared by every layer, plus CLI exit codes."""


class LangError(Exception):
    """Base class for all workbench errors."""


# --- reading / syntax

class CoreSyntaxError(LangError):
    def __init__(self, msg, line=None, col=None):
        self.line = line
        self.col = col
        where = f" at {line}:{col}" if line is not None else ""
        super().__init__(f"{msg}{where}")


class GrammarSyntaxError(CoreSyntaxError):
    pass


# --- evaluation

class EvalError(LangError):
    pass


class ApplyNonClosure(EvalError):
    pass


class ArityMismatch(EvalError):
    pass


class PrimTypeError(EvalError):
    pass


class NameNotFound(EvalError):
    pass


class StepBudgetExceeded(EvalError):
    def __init__(self, budget):
        super().__init__(f"step budget of {budget} exhausted")


class ReturnNeverCalled(EvalError):
    pass


class ReturnCalledTwice(EvalError):
    pass


class EvalExit(LangError):
    """Raised by the `exit` builtin; aborts the whole evaluation."""

    def __init__(self, code=2):
        self.code = code
        super().__init__(f"exit({code})")


# --- fragments

class FragmentError(LangError):
    pass


class NegativeArity(FragmentError):
    pass


class NonClosureSubject(FragmentError):
    pass


class ZeroArityLeft(FragmentError):
    pass


class UnfilledContinuations(FragmentError):
    pass


# --- grammar / tables

class GrammarError(LangError):
    pass


class KindMismatch(GrammarError):
    pass


class UnknownSignatureQuery(GrammarError):
    pass


class UnresolvableDefault(GrammarError):
    pass


class EntryRuleWouldChange(GrammarError):
    pass


class Ll1Conflict(GrammarError):
    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


# --- runtime

class RuntimeFailure(LangError):
    pass


class LexFailure(RuntimeFailure):
    """No token matches at `offset`; `msg` is the message or makes it."""

    def __init__(self, msg, offset):
        self.offset = offset
        super().__init__(msg)

    def __str__(self):
        msg = self.args[0]
        return msg if isinstance(msg, str) else msg()


class UnexpectedToken(RuntimeFailure):
    pass


class UnknownLanguage(RuntimeFailure):
    pass


class UnknownEntry(RuntimeFailure):
    pass


class ActionError(RuntimeFailure):
    pass


# --- CLI exit codes (sysexits-style where conventional)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_ACTION = 2
EXIT_BUDGET = 3
EXIT_USAGE = 64
EXIT_NOINPUT = 66
EXIT_SOFTWARE = 70
EXIT_IOERR = 74
EXIT_INTERRUPT = 130

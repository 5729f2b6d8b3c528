"""Property checks over generated inputs."""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from langweave.cli import main
from langweave.errors import EXIT_OK
from langweave.evaluator import Session, apply_value, render_value
from langweave.reader import read_core

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

"""Independent reference semantics for the benchmark's output checks.

Each function is a small Python re-implementation of what one bundled
language computes.  None of them imports langweave, so a wrong answer from
the system under test can never also be the expected answer.

Expressions are kept as data, never re-parsed from text: an expression is a
list of terms joined by "-", a term is a list of atoms joined by "/", and an
atom is an int literal or an identifier (str).  Both operators associate to
the left and "/" binds tighter.
"""


def div_trunc(a, b):
    """Integer division truncated toward zero."""
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def eval_expr(expr, env=None):
    def atom(a):
        return env[a] if isinstance(a, str) else a

    def term(factors):
        value = atom(factors[0])
        for f in factors[1:]:
            value = div_trunc(value, atom(f))
        return value

    value = term(expr[0])
    for t in expr[1:]:
        value -= term(t)
    return value


def render_expr(expr):
    return "-".join("/".join(str(a) for a in term) for term in expr)


def parse_expr(text):
    """Inverse of render_expr, for the fixed sample inputs of the packs."""
    def atom(a):
        a = a.strip()
        return int(a) if a.isdigit() else a
    return [[atom(a) for a in term.split("/")] for term in text.split("-")]


def operator_count(expr):
    """Number of binary operators, i.e. primitives left in a residual."""
    return len(expr) - 1 + sum(len(term) - 1 for term in expr)


# -- stream (perfbench/grammars/stream.lw over minusdiv_immediate)

def stream_total(statements):
    """statements: [(name, expr)]; the program prints the sum of values."""
    return sum(eval_expr(expr) for _, expr in statements)


# -- assignments pack

def assignments_output(statements, out_expr):
    """statements: [(name, expr)]; later bindings replace earlier ones."""
    env = {}
    for name, expr in statements:
        env[name] = eval_expr(expr, env)
    return eval_expr(out_expr, env)


def render_assignments(statements, out_expr):
    return " ".join(f"{name} = {render_expr(expr)};" for name, expr in statements) \
        + " out " + render_expr(out_expr)


def parse_assignments(text):
    *stmts, out = text.split(";")
    statements = []
    for stmt in stmts:
        name, expr = stmt.split("=")
        statements.append((name.strip(), parse_expr(expr)))
    return statements, parse_expr(out.strip()[len("out"):])


# -- graph pack

def graph_lines(vertices):
    """vertices: [(head, [target, ...])] in declaration order; heads are
    distinct.  Returns the two printed lines: the index table and the
    adjacency tuple, rendered as langweave renders nested tuples."""
    index = {head: i + 1 for i, (head, _) in enumerate(vertices)}
    table = "[" + ",".join(f'["{head}",{index[head]}]' for head, _ in vertices) + "]"
    adjacency = "[" + ",".join(
        "[" + ",".join(str(index[t]) for t in targets) + "]"
        for _, targets in vertices) + "]"
    return [table, adjacency]


def render_graph(vertices):
    return "\n".join(f"{head} -> {', '.join(targets)};" for head, targets in vertices)


def parse_graph(text):
    vertices = []
    for decl in text.split(";"):
        if decl.strip():
            head, targets = decl.split("->")
            vertices.append((head.strip(), [t.strip() for t in targets.split(",")]))
    return vertices


def graph_edge_count(vertices):
    return sum(len(targets) for _, targets in vertices)


# -- typed_minusdiv pack

def typed_outcome(expr):
    """Atoms are (value, tag) with tag "int" or "rat".  Every operator
    requires equal operand tags; on a mismatch the program prints
    "Type mismatch!" and exits with code 2.  Returns (exit_code, lines)."""
    def term(factors):
        value, tag = factors[0]
        for v, t in factors[1:]:
            if t != tag:
                return None
            value = div_trunc(value, v)
        return value, tag

    acc = term(expr[0])
    for t in expr[1:]:
        right = term(t)
        if acc is None or right is None or right[1] != acc[1]:
            return 2, ["Type mismatch!"]
        acc = (acc[0] - right[0], acc[1])
    if acc is None:
        return 2, ["Type mismatch!"]
    return 0, [str(acc[0])]


def parse_typed(text):
    def atom(a):
        a = a.strip()
        return (int(a[1:]), "rat") if a.startswith("#") else (int(a), "int")
    return [[atom(a) for a in term.split("/")] for term in text.split("-")]


# -- signum_builder pack

def signum(x):
    return (x > 0) - (x < 0)

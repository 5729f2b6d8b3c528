"""LL(1) analysis: nullable / FIRST / FOLLOW, prediction table, and
foreign-position diagnostics.

Terminal identity: literal terminals by exact text, token classes by tag,
plus a synthetic end-of-input marker.  Actions and epsilon are transparent.
A foreign nonterminal contributes nothing to FIRST and is never nullable:
the inner language's tokens are unknowable here, so any rule that would
need a foreign FIRST set to pick between alternatives is diagnosed.

A production's left edge, its uses up to the first that is not nullable,
is walked in one place, `Analysis.left_edge`; FIRST, the prediction table,
the foreign-position check and the left-recursion check all read it.
"""


from .errors import Ll1Conflict
from .grammar import ActionUse, EpsilonUse, ForeignUse, Lit, NtUse, TokClass
from .records import Record

EOI = ("eoi", "")


def token_key_str(key):
    kind, text = key
    if kind == "lit":
        return f'"{text}"'
    if kind == "class":
        return text
    return "<eoi>"


class Analysis(Record):
    # edges: rule -> what `left_edge` gives for each production, once final
    __slots__ = ("nullable", "first", "follow", "edges")

    def __init__(self):
        self.nullable = {}
        self.first = {}
        self.follow = {}
        self.edges = {}

    def left_edge(self, uses):
        """The uses of a sequence up to and including the first terminal,
        foreign use or nonterminal that is not nullable, the FIRST set of
        the sequence, and whether it is nullable (it has no such use)."""
        first = set()
        for i, use in enumerate(uses):
            if isinstance(use, NtUse):
                first |= self.first[use.name]
                if self.nullable[use.name]:
                    continue
            elif isinstance(use, Lit):
                first.add(("lit", use.text))
            elif isinstance(use, TokClass):
                first.add(("class", use.cls))
            elif isinstance(use, (ActionUse, EpsilonUse)):
                continue
            elif not isinstance(use, ForeignUse):
                raise TypeError(f"unexpected term use {use!r}")
            return uses[:i + 1], first, False
        return uses, first, True


def analyze(g):
    """Least-fixpoint nullable/FIRST/FOLLOW over the grammar's alphabet."""
    a = Analysis()
    for name, rule in g.rules.items():
        a.nullable[name] = False
        a.first[name] = set()
        a.follow[name] = {EOI} if rule.is_entry else set()
        a.edges[name] = None  # keeps the grammar's order; filled below

    # a rule's FIRST comes from the rules it calls, which tend to come after it
    changed = True
    while changed:  # the edges of the last round, which changes nothing, are final
        changed = False
        for name, rule in reversed(g.rules.items()):
            a.edges[name] = edges = [a.left_edge(prod.body) for prod in rule.productions]
            for _, first, nullable in edges:
                if not first <= a.first[name]:
                    a.first[name] |= first
                    changed = True
                if nullable and not a.nullable[name]:
                    a.nullable[name] = True
                    changed = True

    changed = True
    while changed:
        changed = False
        for name, rule in g.rules.items():
            for prod in rule.productions:
                after = a.follow[name]  # what can come after the use, right to left
                for use in reversed(prod.body):
                    if isinstance(use, NtUse):
                        if not after <= a.follow[use.name]:
                            a.follow[use.name] |= after
                            changed = True
                        first = a.first[use.name]
                        after = after | first if a.nullable[use.name] else first
                    elif isinstance(use, (Lit, TokClass, ForeignUse)):
                        after = a.left_edge((use,))[1]  # its token; a foreign use's are unknown
    return a


class ParseTable(Record):
    # table: (rule, token-key) -> production index; a rule with one
    # production has no row (no lookahead)
    __slots__ = ("analysis", "table")


def validate_foreign_positions(g, analysis=None):
    """A foreign nonterminal must never be what production selection hinges
    on: with several alternatives, none may reach a foreign use first."""
    a = analysis if analysis is not None else analyze(g)
    diagnostics = []
    for name, edges in a.edges.items():
        for idx, (edge, _, _) in enumerate(edges if len(edges) > 1 else ()):
            if edge and isinstance(edge[-1], ForeignUse):
                diagnostics.append(
                    f"rule {name!r} production {idx}: foreign nonterminal "
                    f"{edge[-1].lang}.{edge[-1].entry} decides selection among "
                    "alternatives, but its tokens are unknown to this language")
    return diagnostics


def left_recursion(g, analysis):
    """One diagnostic for each rule that can call itself before it consumes
    a token, on which the parser would push frames without end.  A rule
    calls the nonterminals on the left edge of each of its productions."""
    calls = {name: {use.name for edge, _, _ in edges for use in edge if isinstance(use, NtUse)}
             for name, edges in analysis.edges.items()}
    diagnostics = []
    for name in g.rules:
        reached, pending = set(), [name]
        while pending:
            new = calls[pending.pop()] - reached
            reached |= new
            pending.extend(new)
        if name in reached:
            diagnostics.append(f"rule {name!r} is left-recursive")
    return diagnostics


def build_table(g):
    """Prediction table; raises Ll1Conflict if any cell is claimed twice or
    a rule is left-recursive."""
    a = analyze(g)
    conflicts = validate_foreign_positions(g, a) + left_recursion(g, a)
    table = {}
    for name, edges in a.edges.items():
        for idx, (_, first, nullable) in enumerate(edges if len(edges) > 1 else ()):
            for key in sorted(first | a.follow[name] if nullable else first):
                cell = (name, key)
                if cell in table:
                    conflicts.append(
                        f"rule {name!r}: productions {table[cell]} and {idx} "
                        f"both claim token {token_key_str(key)}")
                else:
                    table[cell] = idx
    if conflicts:
        raise Ll1Conflict(conflicts)
    return ParseTable(a, table)


def literal_tokens(g):
    return {use.text for use in g.uses() if isinstance(use, Lit)}


def used_classes(g):
    return {use.cls for use in g.uses() if isinstance(use, TokClass)}


def format_analysis(g, a):
    """Stable text rendering of the sets for the check command."""
    lines = []
    for name in sorted(g.rules):
        first = ", ".join(token_key_str(k) for k in sorted(a.first[name]))
        follow = ", ".join(token_key_str(k) for k in sorted(a.follow[name]))
        nullable = "yes" if a.nullable[name] else "no"
        lines.append(f"{name}: nullable={nullable} first={{{first}}} follow={{{follow}}}")
    return "\n".join(lines)


def format_table(g, table):
    lines = []
    for (rule, key), idx in sorted(table.table.items()):
        lines.append(f"{rule} x {token_key_str(key)} -> production {idx}")
    for name in sorted(n for n, rule in g.rules.items() if len(rule.productions) == 1):
        lines.append(f"{name} -> sole production")
    return "\n".join(lines)

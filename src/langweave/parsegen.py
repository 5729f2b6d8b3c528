"""LL(1) analysis: nullable / FIRST / FOLLOW, prediction table, and
foreign-position diagnostics.

Terminal identity: literal terminals by exact text, token classes by tag,
plus a synthetic end-of-input marker.  Actions and epsilon are transparent.
A foreign nonterminal contributes nothing to FIRST and is never nullable:
the inner language's tokens are unknowable here, so any rule that would
need a foreign FIRST set to pick between alternatives is diagnosed.
"""


from .errors import Ll1Conflict
from .grammar import ActionUse, EpsilonUse, ForeignUse, Lit, NtUse, TokClass
from .records import Record

EOI = ("eoi", "")


def _symbol(use):
    """('t', token-key) | ('n', rule) | ('foreign', lang.entry) | None."""
    if isinstance(use, Lit):
        return ("t", ("lit", use.text))
    if isinstance(use, TokClass):
        return ("t", ("class", use.cls))
    if isinstance(use, NtUse):
        return ("n", use.name)
    if isinstance(use, ForeignUse):
        return ("foreign", f"{use.lang}.{use.entry}")
    if isinstance(use, (ActionUse, EpsilonUse)):
        return None
    raise TypeError(f"unexpected term use {use!r}")


def token_key_str(key):
    kind, text = key
    if kind == "lit":
        return f'"{text}"'
    if kind == "class":
        return text
    return "<eoi>"


class Analysis(Record):
    __slots__ = ("nullable", "first", "follow")

    def __init__(self):
        self.nullable = {}
        self.first = {}
        self.follow = {}

    def seq_first(self, uses):
        """FIRST of a symbol sequence plus whether it is nullable."""
        out = set()
        for use in uses:
            sym = _symbol(use)
            if sym is None:
                continue
            kind, key = sym
            if kind == "t":
                out.add(key)
                return out, False
            if kind == "foreign":
                return out, False
            out |= self.first[key]
            if not self.nullable[key]:
                return out, False
        return out, True


def analyze(g):
    """Least-fixpoint nullable/FIRST/FOLLOW over the grammar's alphabet."""
    a = Analysis()
    for name in g.rules:
        a.nullable[name] = False
        a.first[name] = set()
        a.follow[name] = set()
    for rule in g.rules.values():
        if rule.is_entry:
            a.follow[rule.name].add(EOI)

    changed = True
    while changed:
        changed = False
        for rule in g.rules.values():
            for prod in rule.productions:
                first, nullable = a.seq_first(prod.body)
                if not first <= a.first[rule.name]:
                    a.first[rule.name] |= first
                    changed = True
                if nullable and not a.nullable[rule.name]:
                    a.nullable[rule.name] = True
                    changed = True

    changed = True
    while changed:
        changed = False
        for rule in g.rules.values():
            for prod in rule.productions:
                for i, use in enumerate(prod.body):
                    if not isinstance(use, NtUse):
                        continue
                    add, rest_nullable = a.seq_first(prod.body[i + 1:])
                    if rest_nullable:
                        add |= a.follow[rule.name]
                    if not add <= a.follow[use.name]:
                        a.follow[use.name] |= add
                        changed = True
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
    for rule in g.rules.values():
        if len(rule.productions) < 2:
            continue
        for idx, prod in enumerate(rule.productions):
            for use in prod.body:
                sym = _symbol(use)
                if sym is None:
                    continue
                kind, key = sym
                if kind == "foreign":
                    diagnostics.append(
                        f"rule {rule.name!r} production {idx}: foreign nonterminal "
                        f"{key} decides selection among alternatives, but its "
                        "tokens are unknown to this language")
                    break
                if kind == "t":
                    break
                if not a.nullable[key]:
                    break
        # nullable prefixes fall through to the next symbol, handled above
    return diagnostics


def left_recursion(g, analysis):
    """One diagnostic for each rule that can call itself before it consumes
    a token, on which the parser would push frames without end.  A rule
    calls the nonterminals on the left edge of each production, up to the
    first that is not nullable."""
    calls = {name: set() for name in g.rules}
    for rule in g.rules.values():
        for prod in rule.productions:
            for use in prod.body:
                if isinstance(use, NtUse):
                    calls[rule.name].add(use.name)
                    if not analysis.nullable[use.name]:
                        break
                elif not isinstance(use, (ActionUse, EpsilonUse)):
                    break
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
    for rule in g.rules.values():
        if len(rule.productions) == 1:
            continue
        for idx, prod in enumerate(rule.productions):
            first, nullable = a.seq_first(prod.body)
            select = set(first)
            if nullable:
                select |= a.follow[rule.name]
            for key in sorted(select):
                cell = (rule.name, key)
                if cell in table:
                    conflicts.append(
                        f"rule {rule.name!r}: productions {table[cell]} and {idx} "
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

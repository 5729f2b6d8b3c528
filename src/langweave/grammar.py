"""Attributed-grammar model.

A production is a head signature (input parameter names, output value
names) plus a sequence of term uses.  Input names of a use are arguments
resolved against names already bound to the left; outputs bind new names.
All productions of one rule share input names and output count.

Grammar abstractions (`function f<...>`) are first-order templates: each
instantiation mints fresh nonterminal names, resolves signature queries
(`|t:in|`, `|t:out|`) against the argument's declared signature, and
splices name tuples (with `p.v` creating a `p_`-prefixed copy).

Default-argument completion then fills every nonterminal/action use that
lacks explicit inputs with the target's own parameter names, growing rule
heads as needed; entry rules are never altered.
"""

from dataclasses import dataclass, field, replace

from .errors import (EntryRuleWouldChange, GrammarError, KindMismatch,
                     UnknownSignatureQuery, UnresolvableDefault)
from .printer import print_body
from .terms import Lam, alpha_eq

TOKEN_CLASSES = ("Identifier", "Integer", "String")


# ---------------------------------------------------------------------------
# term uses


@dataclass(frozen=True)
class Lit:
    text: str


@dataclass(frozen=True)
class TokClass:
    cls: str
    outs: tuple = ()


@dataclass(frozen=True)
class NtUse:
    name: str
    ins: tuple = None    # None: fill with defaults
    outs: tuple = None


@dataclass(frozen=True)
class ForeignUse:
    lang: str
    entry: str
    ins: tuple = None
    outs: tuple = None


@dataclass(frozen=True, eq=False)
class ActionDef:
    ins: tuple
    outs: tuple
    body: Lam  # (ins..., return)['parse'] lambda


@dataclass(frozen=True, eq=False)
class ActionUse:
    action: ActionDef
    ins: tuple = None
    outs: tuple = None


@dataclass(frozen=True)
class EpsilonUse:
    # with annotations this is a pass-through: outputs take the values of
    # the trailing inputs (the freshest ones)
    ins: tuple = None
    outs: tuple = None


@dataclass(frozen=True)
class TemplateCall:
    name: str
    args: tuple


# template arguments
@dataclass(frozen=True)
class ArgNt:
    name: str


@dataclass(frozen=True)
class ArgLit:
    text: str


@dataclass(frozen=True, eq=False)
class ArgAction:
    action: ActionDef


@dataclass(frozen=True)
class ArgEpsilon:
    pass


@dataclass(frozen=True)
class ArgTuple:
    names: tuple


@dataclass
class Production:
    head: str
    ins: tuple  # None while unresolved
    outs: tuple
    body: tuple


@dataclass
class Rule:
    name: str
    ins: tuple
    productions: list
    is_entry: bool = False


@dataclass
class Template:
    name: str
    params: tuple
    aliases: tuple  # (alias_name, param_name, "in"|"out")
    productions: list
    result: str


@dataclass
class GrammarDef:
    name: str
    templates: dict = field(default_factory=dict)
    rules: dict = field(default_factory=dict)  # insertion-ordered

    def add(self, prod, entry=False):
        """Append `prod` to its head's rule, creating the rule with the
        production's inputs on first use; `entry` marks it an entry rule."""
        rule = self.rules.get(prod.head)
        if rule is None:
            rule = self.rules[prod.head] = Rule(prod.head, prod.ins, [])
        rule.productions.append(prod)
        if entry:
            rule.is_entry = True

    def rule(self, name):
        if name not in self.rules:
            raise GrammarError(f"unknown rule {name!r} in grammar {self.name!r}")
        return self.rules[name]

    @property
    def entry_rules(self):
        return [r.name for r in self.rules.values() if r.is_entry]

    def used_foreign(self):
        refs = set()
        for rule in self.rules.values():
            for prod in rule.productions:
                for use in prod.body:
                    if isinstance(use, ForeignUse):
                        refs.add((use.lang, use.entry))
        return refs


# ---------------------------------------------------------------------------
# builder API


def new_grammar(name):
    return GrammarDef(name)


def add_production(g, head, ins, outs, body, entry=False):
    ins = tuple(ins) if ins is not None else None
    g.add(Production(head, ins, tuple(outs), tuple(body)), entry)
    return g


def mark_entry(g, name):
    g.rule(name).is_entry = True
    return g


# ---------------------------------------------------------------------------
# template instantiation


class _Expander:
    def __init__(self, g):
        self.g = g
        self.counter = 0
        self.out_rules = {}

    def fresh_rule(self, base):
        self.counter += 1
        name = f"{base}_{self.counter}"
        while name in self.g.rules or name in self.out_rules:
            self.counter += 1
            name = f"{base}_{self.counter}"
        return name


def _arg_signature(g, arg, which):
    if isinstance(arg, ArgNt):
        if arg.name in TOKEN_CLASSES:
            return ("v",) if which == "out" else ()
        rule = g.rule(arg.name)
        if which == "in":
            return tuple(rule.ins or ())
        outs = rule.productions[0].outs
        return tuple(outs)
    if isinstance(arg, ArgAction):
        return tuple(arg.action.ins if which == "in" else arg.action.outs)
    raise UnknownSignatureQuery(
        f"signature query on a {type(arg).__name__} template argument")


def _resolve_names(names, aliases):
    if names is None:
        return None
    out = []
    for n in names:
        if "." in n:
            prefix, base = n.split(".", 1)
            if base not in aliases:
                raise KindMismatch(f"prefix applied to non-tuple name {base!r}")
            out.extend(f"{prefix}_{x}" for x in aliases[base])
        elif n in aliases:
            out.extend(aliases[n])
        else:
            out.append(n)
    return tuple(out)


def instantiate(g, template, args, expander):
    """Expand one template call; returns (new productions, result rule name)."""
    if len(args) != len(template.params):
        raise KindMismatch(
            f"template {template.name!r} takes {len(template.params)} argument(s), "
            f"got {len(args)}")
    bind = dict(zip(template.params, args))

    aliases = {}
    for alias_name, param, which in template.aliases:
        if param not in bind:
            raise UnknownSignatureQuery(f"unknown template parameter {param!r}")
        aliases[alias_name] = _arg_signature(g, bind[param], which)

    head_map = {}
    for prod in template.productions:
        head_map.setdefault(prod.head, expander.fresh_rule(prod.head))

    def convert(use):
        ins = _resolve_names(use.ins, aliases) if hasattr(use, "ins") else None
        outs = _resolve_names(use.outs, aliases) if hasattr(use, "outs") else None
        if isinstance(use, NtUse):
            if use.name in bind:
                arg = bind[use.name]
                if isinstance(arg, ArgNt):
                    if arg.name in TOKEN_CLASSES:
                        return TokClass(arg.name, outs or ())
                    return NtUse(arg.name, ins, outs)
                if isinstance(arg, ArgLit):
                    if ins or outs:
                        raise KindMismatch(
                            f"terminal argument {arg.text!r} cannot carry attributes")
                    return Lit(arg.text)
                if isinstance(arg, ArgAction):
                    return ActionUse(arg.action, ins, outs)
                if isinstance(arg, ArgEpsilon):
                    return EpsilonUse(ins, outs)
                raise KindMismatch(
                    f"template argument {use.name!r} cannot appear as a grammar term")
            if use.name in head_map:
                return NtUse(head_map[use.name], ins, outs)
            return NtUse(use.name, ins, outs)
        if isinstance(use, TokClass):
            return TokClass(use.cls, outs or ())
        if isinstance(use, Lit):
            return use
        if isinstance(use, ActionUse):
            return ActionUse(use.action, ins, outs)
        if isinstance(use, EpsilonUse):
            return EpsilonUse(ins, outs)
        if isinstance(use, ForeignUse):
            return ForeignUse(use.lang, use.entry, ins, outs)
        raise GrammarError(f"unexpected term in template body: {use!r}")

    new_prods = []
    for prod in template.productions:
        new_prods.append(Production(
            head_map[prod.head],
            _resolve_names(prod.ins, aliases),
            _resolve_names(prod.outs, aliases) or (),
            tuple(convert(u) for u in prod.body),
        ))
    if template.result not in head_map:
        raise GrammarError(
            f"template {template.name!r} returns unknown rule {template.result!r}")
    return new_prods, head_map[template.result]


def expand_templates(g):
    """Replace every template call with freshly instantiated rules."""
    expander = _Expander(g)
    out = GrammarDef(g.name)
    pending = []
    for rule in g.rules.values():
        for prod in rule.productions:
            calls = [u for u in prod.body if isinstance(u, TemplateCall)]
            if calls:
                if len(prod.body) != 1:
                    raise GrammarError(
                        "a template call must be the entire production body")
                call = calls[0]
                if call.name not in g.templates:
                    raise GrammarError(f"unknown grammar function {call.name!r}")
                new_prods, result = instantiate(g, g.templates[call.name],
                                                call.args, expander)
                pending.extend(new_prods)
                prod = Production(prod.head, prod.ins, prod.outs,
                                  (NtUse(result, None, None),))
            out.add(prod, rule.is_entry)
    for prod in pending:
        out.add(prod)
    return out


# ---------------------------------------------------------------------------
# default arguments


def _signature(use, rules):
    """The use's (ins, outs), a missing list filled from its target: a
    rule's parameter names and first production's outputs, or an action's
    declared lists."""
    ins, outs = getattr(use, "ins", ()), getattr(use, "outs", ())
    if isinstance(use, NtUse):
        if use.name not in rules:
            raise GrammarError(f"unknown rule {use.name!r}")
        rule = rules[use.name]
        target = rule.ins, rule.productions[0].outs
    elif isinstance(use, ActionUse):
        target = tuple(use.action.ins), tuple(use.action.outs)
    elif isinstance(use, ForeignUse) and ins is None:
        raise UnresolvableDefault(
            f"foreign use {use.lang}.{use.entry} needs explicit arguments; "
            "defaults cannot cross languages")
    else:
        target = (), ()
    return (target[0] if ins is None else ins,
            target[1] if outs is None else outs)


def complete_default_args(g):
    """Fill missing use arguments with the target's parameter names and grow
    non-entry rule heads so every argument resolves; idempotent."""
    rules = {}
    for rule in g.rules.values():
        rules[rule.name] = Rule(rule.name, tuple(rule.ins or ()),
                                list(rule.productions), rule.is_entry)

    changed = True
    iterations = 0
    while changed:
        changed = False
        iterations += 1
        if iterations > 100:
            raise GrammarError("default-argument completion did not converge")
        for rule in rules.values():
            for prod in rule.productions:
                defined = list(rule.ins)
                for use in prod.body:
                    ins, outs = _signature(use, rules)
                    for name in ins:
                        if name not in defined:
                            if rule.is_entry:
                                raise EntryRuleWouldChange(
                                    f"entry rule {rule.name!r} would need a new "
                                    f"input parameter {name!r}")
                            rule.ins = rule.ins + (name,)
                            defined.append(name)
                            changed = True
                    defined.extend(outs)

    out = GrammarDef(g.name)
    for rule in rules.values():
        for prod in rule.productions:
            body = []
            for use in prod.body:
                if isinstance(use, (NtUse, ActionUse, EpsilonUse, ForeignUse)):
                    ins, outs = _signature(use, rules)
                    if (ins, outs) != (use.ins, use.outs):
                        use = replace(use, ins=ins, outs=outs)
                body.append(use)
            out.add(Production(rule.name, rule.ins, prod.outs, tuple(body)),
                    rule.is_entry)
    return out


# ---------------------------------------------------------------------------
# validation


def check_signatures(g):
    """Diagnostics, empty iff all productions of each rule agree on input
    names and output count and term uses are well-formed."""
    diagnostics = []
    for rule in g.rules.values():
        sigs = {tuple(p.ins or ()) for p in rule.productions}
        if len(sigs) > 1:
            diagnostics.append(
                f"rule {rule.name!r}: productions disagree on input parameters: "
                + " vs ".join(str(list(s)) for s in sorted(sigs)))
        outs = {len(p.outs) for p in rule.productions}
        if len(outs) > 1:
            diagnostics.append(
                f"rule {rule.name!r}: productions disagree on output count: "
                + "/".join(str(n) for n in sorted(outs)))
        for idx, prod in enumerate(rule.productions):
            for use in prod.body:
                if isinstance(use, ActionUse):
                    if use.ins is not None and len(use.ins) != len(use.action.ins):
                        diagnostics.append(
                            f"rule {rule.name!r} production {idx}: action expects "
                            f"{len(use.action.ins)} input(s), given {len(use.ins)}")
                    if use.outs is not None and len(use.outs) != len(use.action.outs):
                        diagnostics.append(
                            f"rule {rule.name!r} production {idx}: action produces "
                            f"{len(use.action.outs)} output(s), bound to {len(use.outs)}")
                outs_list = getattr(use, "outs", None) or ()
                if len(set(outs_list)) != len(outs_list):
                    diagnostics.append(
                        f"rule {rule.name!r} production {idx}: duplicate output names")
                if isinstance(use, EpsilonUse) and use.outs:
                    if len(use.ins or ()) < len(use.outs):
                        diagnostics.append(
                            f"rule {rule.name!r} production {idx}: pass-through epsilon "
                            "needs at least as many inputs as outputs")
    return diagnostics


def check_l_attributed(g):
    """Every argument name must be defined earlier on the left-to-right
    path; every production output must be bound by its end."""
    diagnostics = []
    for rule in g.rules.values():
        for idx, prod in enumerate(rule.productions):
            defined = set(prod.ins or ())
            for use in prod.body:
                for name in getattr(use, "ins", None) or ():
                    if name not in defined:
                        diagnostics.append(
                            f"rule {rule.name!r} production {idx}: argument {name!r} "
                            "is not defined to its left")
                defined.update(getattr(use, "outs", None) or ())
            for name in prod.outs:
                if name not in defined:
                    diagnostics.append(
                        f"rule {rule.name!r} production {idx}: output {name!r} "
                        "is never bound")
    return diagnostics


def validate(g):
    return check_signatures(g) + check_l_attributed(g)


def prepare(g):
    """Full pipeline: expand templates, complete defaults, validate."""
    expanded = expand_templates(g)
    completed = complete_default_args(expanded)
    diagnostics = validate(completed)
    return completed, diagnostics


# ---------------------------------------------------------------------------
# structural equality and printing


def grammar_equal(a, b):
    if a.rules.keys() != b.rules.keys():
        return False
    for name in a.rules:
        ra, rb = a.rules[name], b.rules[name]
        if (ra.ins or ()) != (rb.ins or ()) or ra.is_entry != rb.is_entry:
            return False
        if len(ra.productions) != len(rb.productions):
            return False
        for pa, pb in zip(ra.productions, rb.productions):
            if pa.outs != pb.outs or len(pa.body) != len(pb.body):
                return False
            for ua, ub in zip(pa.body, pb.body):
                if type(ua) is not type(ub):
                    return False
                if isinstance(ua, ActionUse):
                    if (ua.ins, ua.outs) != (ub.ins, ub.outs):
                        return False
                    if (ua.action.ins, ua.action.outs) != (ub.action.ins, ub.action.outs):
                        return False
                    if not alpha_eq(ua.action.body, ub.action.body):
                        return False
                elif ua != ub:
                    return False
    return True


def _ann_in(names):
    return f"|({', '.join(names)})->|" if names is not None else ""


def _ann_out(names):
    return f"|->({', '.join(names)})|" if names is not None else ""


def _print_use(use):
    if isinstance(use, Lit):
        return f'"{use.text}"'
    if isinstance(use, TokClass):
        out = _ann_out(use.outs) if use.outs else ""
        return f"{use.cls}{out}"
    if isinstance(use, NtUse):
        return f"{_ann_in(use.ins)}{use.name}{_ann_out(use.outs)}"
    if isinstance(use, ForeignUse):
        return f"{_ann_in(use.ins)}{use.lang}.{use.entry}{_ann_out(use.outs)}"
    if isinstance(use, EpsilonUse):
        if use.ins or use.outs:
            return f"{_ann_in(use.ins)}epsilon{_ann_out(use.outs)}"
        return "epsilon"
    if isinstance(use, ActionUse):
        decl = f"|({', '.join(use.action.ins)})->({', '.join(use.action.outs)})|"
        body = print_body(use.action.body.body, 2)
        pre = ""
        if use.ins is not None and tuple(use.ins) != tuple(use.action.ins):
            pre = _ann_in(use.ins)
        post = ""
        if use.outs is not None and tuple(use.outs) != tuple(use.action.outs):
            post = _ann_out(use.outs)
        return f"{pre}{decl} {{\n{body}\n    }}{post}"
    raise GrammarError(f"cannot print {use!r}")


def print_grammar(g):
    lines = [f"grammar {g.name} {{"]
    for rule in g.rules.values():
        for prod in rule.productions:
            head = ""
            if rule.is_entry:
                head += "entry "
            if prod.ins is not None:
                head += _ann_in(prod.ins)
            head += rule.name
            head += _ann_out(prod.outs)
            uses = "\n      ".join(_print_use(u) for u in prod.body)
            lines.append(f"  {head} ::=\n      {uses};")
    lines.append("}")
    return "\n".join(lines) + "\n"

"""Attributed-grammar model.

A production is a head signature (input parameter names, output value
names) plus a sequence of term uses.  Input names of a use are arguments
resolved against names already bound to the left; outputs bind new names.
All productions of one rule share input names and output count.

Grammar abstractions (`function f<...>`) are first-order templates whose
arguments are the term uses they stand for (a rule, token class, literal,
action or epsilon use without annotations), or tuples of names.  Each
instantiation mints fresh nonterminal names, puts each argument in place of
its parameter with the annotations written there, resolves signature
queries (`|t:in|`, `|t:out|`) against the argument's declared signature,
and splices name tuples (with `p.v` creating a `p_`-prefixed copy).

Default-argument completion then fills every nonterminal/action use that
lacks explicit inputs with the target's own parameter names, growing rule
heads as needed; entry rules are never altered.
"""

from itertools import count

from .errors import (EntryRuleWouldChange, GrammarError, KindMismatch,
                     UnknownSignatureQuery, UnresolvableDefault)
from .printer import print_body
from .records import Ident, Record, Value, replace
from .terms import alpha_eq

TOKEN_CLASSES = ("Identifier", "Integer", "String")


# ---------------------------------------------------------------------------
# term uses


class Lit(Value):
    __slots__ = ("text",)


class TokClass(Value, outs=(), ins=None):
    __slots__ = ("cls", "outs", "ins")  # ins: None, or as written, to be reported


class NtUse(Value, ins=None, outs=None):
    __slots__ = ("name", "ins", "outs")  # ins None: fill with defaults


class ForeignUse(Value, ins=None, outs=None):
    __slots__ = ("lang", "entry", "ins", "outs")


class ActionDef(Ident):
    __slots__ = ("ins", "outs", "body")  # body: the (ins..., return)['parse'] lambda


class ActionUse(Ident, ins=None, outs=None):
    __slots__ = ("action", "ins", "outs")


class EpsilonUse(Value, ins=None, outs=None):
    # with annotations this is a pass-through: outputs take the values of
    # the trailing inputs (the freshest ones)
    __slots__ = ("ins", "outs")


class TemplateCall(Value):
    __slots__ = ("name", "args")


# a template argument is the use it stands for, or else a tuple of names
class ArgTuple(Value):
    __slots__ = ("names",)


class Production(Record):
    __slots__ = ("head", "ins", "outs", "body")  # ins None while unresolved


class Rule(Record, is_entry=False):
    __slots__ = ("name", "ins", "productions", "is_entry")


class Template(Record):
    # aliases: (alias_name, param_name, "in"|"out")
    __slots__ = ("name", "params", "aliases", "productions", "result")


class GrammarDef(Record):
    __slots__ = ("name", "templates", "rules")  # rules insertion-ordered

    def __init__(self, name):
        self.name = name
        self.templates = {}
        self.rules = {}

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

    def uses(self):
        """Every term use of every production."""
        return (use for rule in self.rules.values() for prod in rule.productions
                for use in prod.body)

    def used_foreign(self):
        """The (language, entry) pairs of the foreign uses, in order of first use."""
        return dict.fromkeys((use.lang, use.entry) for use in self.uses()
                             if isinstance(use, ForeignUse)).keys()


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


def _arg_signature(g, arg, which, alias, param):
    """The names that `alias |alias| = |param:which|` binds for the argument `arg`."""
    if isinstance(arg, TokClass):
        return ("v",) if which == "out" else ()
    if isinstance(arg, NtUse):
        rule = g.rule(arg.name)
        return tuple(rule.ins or ()) if which == "in" else tuple(rule.productions[0].outs)
    if isinstance(arg, ActionUse):
        return tuple(arg.action.ins if which == "in" else arg.action.outs)
    kind = ("a terminal literal" if isinstance(arg, Lit) else
            "epsilon" if isinstance(arg, EpsilonUse) else "a name tuple")
    raise UnknownSignatureQuery(f"alias |{alias}| = |{param}:{which}|: argument {param!r} "
                                f"is {kind} and has no signature")


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


def instantiate(g, template, args, counter):
    """Expand one template call, numbering new rules from the iterator
    `counter`; returns (new productions, result rule name)."""
    if len(args) != len(template.params):
        raise KindMismatch(
            f"template {template.name!r} takes {len(template.params)} argument(s), "
            f"got {len(args)}")
    bind = dict(zip(template.params, args))

    # a tuple argument splices its names wherever its parameter is written
    aliases = {p: arg.names for p, arg in bind.items() if isinstance(arg, ArgTuple)}
    for alias_name, param, which in template.aliases:
        if param not in bind:
            raise UnknownSignatureQuery(f"unknown template parameter {param!r}")
        aliases[alias_name] = _arg_signature(g, bind[param], which, alias_name, param)

    head_map = {}
    for prod in template.productions:  # a number for each production, so some go unused
        name = f"{prod.head}_{next(counter)}"
        while name in g.rules:
            name = f"{prod.head}_{next(counter)}"
        head_map.setdefault(prod.head, name)

    # a rule argument renames the uses of its parameter, as a template rule is renamed
    renamed = {**head_map, **{p: arg.name for p, arg in bind.items() if isinstance(arg, NtUse)}}

    def convert(use):
        """`use`, or the argument its parameter stands for, with the names
        of its annotations resolved and a rule renamed."""
        ins = _resolve_names(getattr(use, "ins", None), aliases)
        outs = _resolve_names(getattr(use, "outs", None), aliases)
        if isinstance(use, NtUse):
            arg = bind.get(use.name, use)
            if isinstance(arg, NtUse):
                return NtUse(renamed.get(use.name, use.name), ins, outs)
            if isinstance(arg, ArgTuple):
                raise KindMismatch(
                    f"template argument {use.name!r} cannot appear as a grammar term")
            if isinstance(arg, Lit) and (ins or outs):
                raise KindMismatch(f"terminal argument {arg.text!r} cannot carry attributes")
            use = arg
        if isinstance(use, Lit):
            return use
        if isinstance(use, TokClass):
            return TokClass(use.cls, outs or (), ins or None)
        # any other use keeps its first fields and takes the resolved ins and outs, its last
        return type(use)(*[getattr(use, f) for f in use._fields[:-2]], ins, outs)

    new_prods = [Production(head_map[prod.head], _resolve_names(prod.ins, aliases),
                            _resolve_names(prod.outs, aliases) or (),
                            tuple([convert(u) for u in prod.body]))
                 for prod in template.productions]
    if template.result not in head_map:
        raise GrammarError(
            f"template {template.name!r} returns unknown rule {template.result!r}")
    return new_prods, head_map[template.result]


def expand_templates(g):
    """Replace every template call with freshly instantiated rules."""
    counter = count(1)
    out = GrammarDef(g.name)
    pending = []
    for rule in g.rules.values():
        for prod in rule.productions:
            if any(isinstance(u, TemplateCall) for u in prod.body):
                (call,) = prod.body  # the reader makes a call the entire body
                if call.name not in g.templates:
                    raise GrammarError(f"unknown grammar function {call.name!r}")
                new_prods, result = instantiate(g, g.templates[call.name],
                                                call.args, counter)
                pending.extend(new_prods)
                prod = Production(prod.head, prod.ins, prod.outs,
                                  (NtUse(result, None, None),))
            out.add(prod, rule.is_entry)
    for prod in pending:
        out.add(prod)
    return out


# ---------------------------------------------------------------------------
# default arguments


def _signature(use, rules, written_ins):
    """The use's (ins, outs), a missing list filled from its target: a
    rule's parameter names and first production's outputs, or an action's
    declared lists.  Explicit inputs of a rule in `written_ins` (name ->
    number of inputs written on its head) gain the names completion added."""
    ins, outs = getattr(use, "ins", ()), getattr(use, "outs", ())
    if isinstance(use, NtUse):
        if use.name not in rules:
            raise GrammarError(f"unknown rule {use.name!r}")
        rule = rules[use.name]
        target = rule.ins, rule.productions[0].outs
        if ins is not None and use.name in written_ins:
            ins = ins + rule.ins[written_ins[use.name]:]
    elif isinstance(use, ActionUse):
        target = tuple(use.action.ins), tuple(use.action.outs)
    elif isinstance(use, TokClass):  # its written inputs are reported, not used
        return (), outs
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
    rules, written_ins = {}, {}
    for rule in g.rules.values():
        rules[rule.name] = Rule(rule.name, tuple(rule.ins or ()),
                                list(rule.productions), rule.is_entry)
        # a rule whose written input annotations disagree is reported instead
        if {p.ins for p in rule.productions if p.ins is not None} == {rule.ins}:
            written_ins[rule.name] = len(rule.ins)

    # Each round that changes something adds to some head a name drawn from
    # the grammar's finite set of names, so the loop ends without a cap.
    changed = True
    while changed:
        changed = False
        for rule in rules.values():
            for prod in rule.productions:
                defined = list(rule.ins)
                for use in prod.body:
                    ins, outs = _signature(use, rules, written_ins)
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
                    ins, outs = _signature(use, rules, written_ins)
                    if (ins, outs) != (use.ins, use.outs):
                        use = replace(use, ins=ins, outs=outs)
                body.append(use)
            out.add(Production(rule.name, rule.ins, prod.outs, tuple(body)),
                    rule.is_entry)
    return out


# ---------------------------------------------------------------------------
# validation


def check_signatures(written, g):
    """Diagnostics of an expanded grammar `written` and its completion `g`,
    empty iff the input annotations written on the productions of each rule
    agree, its productions agree on output count, the annotations written on
    a use of an action or a rule match its counts (a rule's inputs as
    written, else as completed), term uses are well-formed, and every
    production output is bound."""
    diagnostics, unbound = [], []
    for rule in g.rules.values():
        as_written = written.rules[rule.name].productions
        sigs = {p.ins for p in as_written if p.ins is not None}
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
            where, bound = f"rule {rule.name!r} production {idx}", set(prod.ins)
            for use, written_use in zip(prod.body, as_written[idx].body):
                declared = None
                if isinstance(use, ActionUse):
                    declared = "action", use.action.ins, use.action.outs
                elif isinstance(use, NtUse):
                    called = g.rules[use.name]
                    declared = (f"rule {use.name!r}", written.rules[use.name].ins or called.ins,
                                called.productions[0].outs)
                elif isinstance(use, TokClass):  # its value goes to every output
                    declared = f"token class {use.cls!r}", (), use.outs
                if declared:
                    what, want_ins, want_outs = declared
                    given_ins, given_outs = written_use.ins, written_use.outs
                    if given_ins is not None and len(given_ins) != len(want_ins):
                        diagnostics.append(f"{where}: {what} expects {len(want_ins)} "
                                           f"input(s), given {len(given_ins)}")
                    if given_outs is not None and len(given_outs) != len(want_outs):
                        diagnostics.append(f"{where}: {what} produces {len(want_outs)} "
                                           f"output(s), bound to {len(given_outs)}")
                outs_list = getattr(use, "outs", ())
                if len(set(outs_list)) != len(outs_list):
                    diagnostics.append(f"{where}: duplicate output names")
                if isinstance(use, EpsilonUse) and len(use.ins) < len(use.outs):
                    diagnostics.append(f"{where}: pass-through epsilon "
                                       "needs at least as many inputs as outputs")
                bound.update(outs_list)
            unbound.extend(f"{where}: output {name!r} is never bound"
                           for name in prod.outs if name not in bound)
    return diagnostics + unbound


def prepare(g):
    """Full pipeline: expand templates, complete defaults, check."""
    expanded = expand_templates(g)
    completed = complete_default_args(expanded)
    return completed, check_signatures(expanded, completed)


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
        return f"{_ann_in(use.ins)}{use.cls}{out}"
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

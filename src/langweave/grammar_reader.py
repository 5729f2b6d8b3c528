"""Reader for grammar definition files.

    grammar Name {
      function lassoc<elem, op, action> {
        alias |v| = |elem:out|;
        N|->(v)| ::= elem|->(v)| |(v)->|R|->(v)|;
        ...
        return N;
      }
      entry Expr|->(P)| ::= ... ;
      |(F)->|Diff|->(F)| ::= lassoc< Quotient, "-", |(F,G)->(F)| { ... } >;
    }

Action bodies between braces are core-calculus syntax; the reader switches
to the core reader at the opening brace, which reads up to the first
unmatched '}', and resumes there, the same way the runtime switches
languages at a foreign nonterminal.
"""

from .errors import GrammarSyntaxError
from .names import FreshNames
from .reader import Reader as CoreReader
from .terms import Lam, Param, SRef
from .grammar import (ActionDef, ActionUse, ArgAction, ArgEpsilon, ArgLit,
                      ArgNt, ArgTuple, EpsilonUse, ForeignUse, GrammarDef,
                      Lit, NtUse, Production, Template, TemplateCall,
                      TokClass, TOKEN_CLASSES)

_PUNCT2 = ("::=", "->")
_PUNCT1 = "{}<>(),;|.=:"


class _Scanner:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self._cache = None

    def _line_col(self, pos):
        line = self.text.count("\n", 0, pos) + 1
        col = pos - (self.text.rfind("\n", 0, pos) + 1) + 1
        return line, col

    def error(self, msg, pos=None):
        line, col = self._line_col(self.pos if pos is None else pos)
        raise GrammarSyntaxError(msg, line, col)

    def _skip(self):
        text, n = self.text, len(self.text)
        i = self.pos
        while i < n:
            if text[i].isspace():
                i += 1
            elif text.startswith("//", i):
                j = text.find("\n", i)
                i = n if j < 0 else j
            else:
                break
        self.pos = i

    def _lex(self):
        self._skip()
        text, n = self.text, len(self.text)
        i = self.pos
        if i >= n:
            return ("eof", "", i, i)
        c = text[i]
        for p in _PUNCT2:
            if text.startswith(p, i):
                return (p, p, i, i + len(p))
        if c == '"':
            j = i + 1
            out = []
            while j < n and text[j] != '"':
                if text[j] == "\\" and j + 1 < n:
                    out.append({"n": "\n", "t": "\t"}.get(text[j + 1], text[j + 1]))
                    j += 2
                else:
                    out.append(text[j])
                    j += 1
            if j >= n:
                self.error("unterminated string literal", i)
            return ("string", "".join(out), i, j + 1)
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            return ("ident", text[i:j], i, j)
        if c in _PUNCT1:
            return (c, c, i, i + 1)
        self.error(f"unexpected character {c!r}", i)

    def peek(self):
        if self._cache is None:
            self._cache = self._lex()
        return self._cache

    def take(self, kind=None):
        tok = self.peek()
        if kind is not None and tok[0] != kind:
            self.error(f"expected {kind!r}, found {tok[1] or 'end of file'!r}", tok[2])
        self._cache = None
        self.pos = tok[3]
        return tok

    def at(self, kind):
        return self.peek()[0] == kind

    def save(self):
        return (self.pos, self._cache)

    def restore(self, state):
        self.pos, self._cache = state


class GrammarReader:
    def __init__(self, text, names=None):
        self.s = _Scanner(text)
        self.names = names if names is not None else FreshNames()

    # -- small helpers

    def _dotted(self):
        name = self.s.take("ident")[1]
        while self.s.at("."):
            self.s.take()
            name += "." + self.s.take("ident")[1]
        return name

    def _name_list(self, closer=")"):
        names = []
        while not self.s.at(closer):
            names.append(self._dotted())
            if self.s.at(","):
                self.s.take()
        self.s.take(closer)
        return tuple(names)

    def _classify_bar(self):
        """At a '|': one of 'in' (|(..)->|), 'action' (|(..)->(..)|),
        'out' (|->(..)|)."""
        state = self.s.save()
        try:
            self.s.take("|")
            if self.s.at("->"):
                return "out"
            self.s.take("(")
            depth = 1
            while depth:
                tok = self.s.take()
                if tok[0] == "(":
                    depth += 1
                elif tok[0] == ")":
                    depth -= 1
                elif tok[0] == "eof":
                    self.s.error("unterminated annotation")
            self.s.take("->")
            return "in" if self.s.at("|") else "action"
        finally:
            self.s.restore(state)

    def _in_ann(self):
        self.s.take("|")
        self.s.take("(")
        names = self._name_list(")")
        self.s.take("->")
        self.s.take("|")
        return names

    def _out_ann(self):
        self.s.take("|")
        self.s.take("->")
        self.s.take("(")
        names = self._name_list(")")
        self.s.take("|")
        return names

    def _try_out_ann(self):
        if self.s.at("|") and self._classify_bar() == "out":
            return self._out_ann()
        return None

    def _action_literal(self):
        self.s.take("|")
        self.s.take("(")
        ins = self._name_list(")")
        self.s.take("->")
        self.s.take("(")
        outs = self._name_list(")")
        self.s.take("|")
        # switch to core syntax for the body, in place
        brace = self.s.take("{")
        core = CoreReader(self.s.text, self.names, brace[3], ins + ("return",))
        body = core.parse_body(SRef("parse"))
        end = core.take("eof")
        if end.pos == len(self.s.text):
            self.s.error("unterminated action body", brace[2])
        self.s.restore((end.pos, None))
        self.s.take("}")
        params = tuple(Param(n) for n in ins) + (Param("return"),)
        lam = Lam(params, "parse", body)
        return ActionDef(tuple(ins), tuple(outs), lam)

    # -- term uses

    def _term_use(self):
        if self.s.at("string"):
            return Lit(self.s.take()[1])
        ins = None
        if self.s.at("|"):
            kind = self._classify_bar()
            if kind == "in":
                ins = self._in_ann()
            elif kind == "action":
                action = self._action_literal()
                outs = self._try_out_ann()
                return ActionUse(action, None, outs)
            else:
                self.s.error("unexpected output annotation at term start")
        if self.s.at("|") and self._classify_bar() == "action":
            action = self._action_literal()
            outs = self._try_out_ann()
            return ActionUse(action, ins, outs)
        if self.s.at("ident") and self.s.peek()[1] == "epsilon":
            self.s.take()
            outs = self._try_out_ann()
            return EpsilonUse(ins, outs)
        name = self._dotted()
        outs = self._try_out_ann()
        if "." in name:
            lang, entry = name.split(".", 1)
            return ForeignUse(lang, entry, ins, outs)
        if name in TOKEN_CLASSES:
            return TokClass(name, outs or ())
        return NtUse(name, ins, outs)

    # -- template machinery

    def _template_arg(self):
        if self.s.at("string"):
            return ArgLit(self.s.take()[1])
        if self.s.at("("):
            self.s.take()
            return ArgTuple(self._name_list(")"))
        if self.s.at("|"):
            return ArgAction(self._action_literal())
        tok = self.s.take("ident")
        if tok[1] == "epsilon":
            return ArgEpsilon()
        return ArgNt(tok[1])

    def _template_call(self, name):
        self.s.take("<")
        args = []
        while not self.s.at(">"):
            args.append(self._template_arg())
            if self.s.at(","):
                self.s.take()
        self.s.take(">")
        return TemplateCall(name, tuple(args))

    def _production(self):
        entry = False
        if self.s.at("ident") and self.s.peek()[1] == "entry":
            self.s.take()
            entry = True
        ins = None
        if self.s.at("|"):
            if self._classify_bar() != "in":
                self.s.error("expected an input annotation before the rule name")
            ins = self._in_ann()
        head = self.s.take("ident")[1]
        outs = self._try_out_ann() or ()
        self.s.take("::=")

        body = []
        # template call as the entire body?
        if self.s.at("ident"):
            state = self.s.save()
            name = self.s.take("ident")[1]
            if self.s.at("<") and name != "epsilon":
                body.append(self._template_call(name))
                self.s.take(";")
                return Production(head, ins, tuple(outs), tuple(body)), entry
            self.s.restore(state)
        while not self.s.at(";"):
            if self.s.at("eof"):
                self.s.error("unterminated production (missing ';')")
            body.append(self._term_use())
        self.s.take(";")
        return Production(head, ins, tuple(outs), tuple(body)), entry

    def _function(self):
        self.s.take("ident")  # 'function'
        name = self.s.take("ident")[1]
        self.s.take("<")
        params = []
        while not self.s.at(">"):
            params.append(self.s.take("ident")[1])
            if self.s.at(","):
                self.s.take()
        self.s.take(">")
        self.s.take("{")
        aliases = []
        productions = []
        result = None
        while not self.s.at("}"):
            tok = self.s.peek()
            if tok[0] == "ident" and tok[1] == "alias":
                self.s.take()
                self.s.take("|")
                alias_name = self.s.take("ident")[1]
                self.s.take("|")
                self.s.take("=")
                self.s.take("|")
                param = self.s.take("ident")[1]
                self.s.take(":")
                which = self.s.take("ident")[1]
                if which not in ("in", "out"):
                    self.s.error("alias query must be ':in' or ':out'")
                self.s.take("|")
                self.s.take(";")
                aliases.append((alias_name, param, which))
            elif tok[0] == "ident" and tok[1] == "return":
                self.s.take()
                result = self.s.take("ident")[1]
                self.s.take(";")
            else:
                prod, entry = self._production()
                if entry:
                    self.s.error("a template rule cannot be an entry rule")
                productions.append(prod)
        self.s.take("}")
        if result is None:
            self.s.error(f"grammar function {name!r} has no 'return'")
        return Template(name, tuple(params), tuple(aliases), productions, result)

    # -- top level

    def read(self):
        kw = self.s.take("ident")
        if kw[1] != "grammar":
            self.s.error("a grammar file starts with 'grammar <name>'")
        g = GrammarDef(self.s.take("ident")[1])
        self.s.take("{")
        while not self.s.at("}"):
            tok = self.s.peek()
            if tok[0] == "eof":
                self.s.error("unterminated grammar (missing '}')")
            if tok[0] == "ident" and tok[1] == "function":
                template = self._function()
                g.templates[template.name] = template
                continue
            g.add(*self._production())
        self.s.take("}")
        if self.s.take()[0] != "eof":
            self.s.error("trailing input after grammar")
        return g


def read_grammar(text, names=None):
    return GrammarReader(text, names).read()

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

import re

from .errors import GrammarSyntaxError
from .names import FreshNames
from .reader import (BLANK, IDENT, STRING, Reader as CoreReader, ident_start,
                     line_col, unescape)
from .terms import Lam, Param, SRef
from .grammar import (ActionDef, ActionUse, ArgAction, ArgEpsilon, ArgLit,
                      ArgNt, ArgTuple, EpsilonUse, ForeignUse, GrammarDef,
                      Lit, NtUse, Production, Template, TemplateCall,
                      TokClass, TOKEN_CLASSES)

_TOKEN = re.compile(BLANK + rf"""(?:
    (?P<punct>::=|->|[{{}}<>(),;|.=:]) | (?P<string>{STRING}) | (?P<ident>{IDENT})
  | (?P<bad>.) )?""", re.S | re.X)


class _Scanner:
    """Tokens `(kind, text, start, end)`, lexed on demand, because an
    action body is core syntax that the core reader reads in place."""

    def __init__(self, text):
        self.text = text
        self.pos = 0
        self._ahead = []  # lexed tokens not yet taken, at most two

    def error(self, msg, pos=None):
        """Raise at `pos`; by default at the next token if it has been
        lexed, else at the end of the last one taken."""
        if pos is None:
            pos = self._ahead[0][2] if self._ahead else self.pos
        raise GrammarSyntaxError(msg, *line_col(self.text, pos))

    def _lex(self, pos):
        m = _TOKEN.match(self.text, pos)
        kind = m.lastgroup
        if kind is None:
            return ("eof", "", m.end(), m.end())
        start, text = m.start(kind), m[kind]
        if kind == "punct":
            return (text, text, start, m.end())
        if kind == "string":
            return ("string", unescape(text[1:-1]), start, m.end())
        if kind == "ident" and ident_start(text[0]):
            return ("ident", text, start, m.end())
        if text[0] == '"':
            self.error("unterminated string literal", start)
        self.error(f"unexpected character {text[0]!r}", start)

    def peek(self, ahead=0):
        while len(self._ahead) <= ahead:
            self._ahead.append(self._lex(self._ahead[-1][3] if self._ahead else self.pos))
        return self._ahead[ahead]

    def take(self, kind=None):
        tok = self.peek()
        if kind is not None and tok[0] != kind:
            self.error(f"expected {kind!r}, found {tok[1] or 'end of file'!r}", tok[2])
        del self._ahead[0]
        self.pos = tok[3]
        return tok

    def at(self, kind):
        return self.peek()[0] == kind

    def seek(self, pos):
        self.pos = pos
        self._ahead.clear()


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

    # -- annotations: |(ins)->| input, |->(outs)| output, |(ins)->(outs)| { body } action

    def _ins(self):
        """`|(names)->`, which starts an input annotation or an action
        literal; the next token tells them apart: `|` or `(`."""
        self.s.take("|")
        self.s.take("(")
        names = self._name_list(")")
        self.s.take("->")
        return names

    def _outs(self):
        """An output annotation `|->(names)|` if one comes next, else None."""
        if not (self.s.at("|") and self.s.peek(1)[0] == "->"):
            return None
        self.s.take("|")
        self.s.take("->")
        self.s.take("(")
        names = self._name_list(")")
        self.s.take("|")
        return names

    def _action(self, ins):
        """The rest of an action literal after `|(ins)->`: `(outs)| { body }`,
        whose body the core reader reads in place."""
        self.s.take("(")
        outs = self._name_list(")")
        self.s.take("|")
        brace = self.s.take("{")
        core = CoreReader(self.s.text, self.names, brace[3], ins + ("return",))
        body = core.parse_body(SRef("parse"))
        end = core.take("eof")
        if end.pos == len(self.s.text):
            self.s.error("unterminated action body", brace[2])
        self.s.seek(end.pos)
        self.s.take("}")
        params = tuple(Param(n) for n in ins) + (Param("return"),)
        return ActionDef(ins, outs, Lam(params, "parse", body))

    # -- term uses

    def _term_use(self):
        if self.s.at("string"):
            return Lit(self.s.take()[1])
        ins = None
        if self.s.at("|"):
            if self.s.peek(1)[0] == "->":
                self.s.error("unexpected output annotation at term start")
            names = self._ins()
            if self.s.at("("):
                return ActionUse(self._action(names), None, self._outs())
            self.s.take("|")
            ins = names
        if self.s.at("|"):
            return ActionUse(self._action(self._ins()), ins, self._outs())
        if self.s.at("ident") and self.s.peek()[1] == "epsilon":
            self.s.take()
            return EpsilonUse(ins, self._outs())
        name = self._dotted()
        outs = self._outs()
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
            return ArgAction(self._action(self._ins()))
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
            bar = self.s.peek()[2]
            ins = None if self.s.peek(1)[0] == "->" else self._ins()
            if ins is None or not self.s.at("|"):
                self.s.error("expected an input annotation before the rule name", bar)
            self.s.take()
        head = self.s.take("ident")[1]
        outs = self._outs() or ()
        self.s.take("::=")

        body = []
        # template call as the entire body?
        tok = self.s.peek()
        if tok[0] == "ident" and tok[1] != "epsilon" and self.s.peek(1)[0] == "<":
            self.s.take()
            body.append(self._template_call(tok[1]))
            self.s.take(";")
            return Production(head, ins, tuple(outs), tuple(body)), entry
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

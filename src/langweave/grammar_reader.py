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

`GrammarReader` is a `reader.Reader` over the tokens of the whole file,
which `reader.tokenize` lexes as it lexes core syntax, so an action body
between braces is read in place by the inherited `parse_body`, which stops
at the body's closing brace.  A template argument is read as the term use
it stands for, or as a tuple of names.  A function body that calls a
function, a function defined twice and a parameter named twice are
rejected as they are read.  Every error, lexical errors included, is a
`GrammarSyntaxError`.
"""

from .errors import GrammarSyntaxError
from .reader import Reader
from .terms import BUILTIN_NAMES, Lam, Param, Var
from .grammar import (ActionDef, ActionUse, ArgTuple, EpsilonUse, ForeignUse,
                      GrammarDef, Lit, NtUse, Production, Template, TemplateCall,
                      TokClass, TOKEN_CLASSES)


class GrammarReader(Reader):
    Error = GrammarSyntaxError

    # -- small helpers

    def _at_word(self, word):
        kind, text, _ = self.peek()
        return kind == "ident" and text == word

    def _dotted(self):
        name = self.take("ident")[1]
        while self.at("."):
            self.take()
            name += "." + self.take("ident")[1]
        return name

    def _name_list(self):
        """After '(': dotted names up to and including ')'."""
        return self.comma_list(")", lambda _: self._dotted())

    # -- annotations: |(ins)->| input, |->(outs)| output, |(ins)->(outs)| { body } action

    def _ins(self):
        """`|(names)->`, which starts an input annotation or an action
        literal; the next token tells them apart: `|` or `(`."""
        self.take("|")
        self.take("(")
        names = self._name_list()
        self.take("->")
        return names

    def _outs(self):
        """An output annotation `|->(names)|` if one comes next, else None."""
        if not (self.at("|") and self.peek(1)[0] == "->"):
            return None
        self.take("|")
        self.take("->")
        self.take("(")
        names = self._name_list()
        self.take("|")
        return names

    def _action(self, ins):
        """The rest of an action literal after `|(ins)->`: `(outs)| { body }`,
        whose body is core syntax staged on `parse`, with the inputs and
        `return` bound."""
        self.take("(")
        outs = self._name_list()
        self.take("|")
        brace = self.take("{")
        self.shadowed = [n for n in (*ins, "return") if n in BUILTIN_NAMES]
        body = self.parse_body(Var("parse"))
        if self.at("eof"):
            self.error("unterminated action body", brace)
        self.take("}")
        params = tuple(Param(n) for n in ins) + (Param("return"),)
        return ActionDef(ins, outs, Lam(params, "parse", body))

    # -- term uses

    def _term_use(self):
        if self.at("string"):
            return Lit(self.take()[1])
        ins = None
        if self.at("|"):
            if self.peek(1)[0] == "->":
                self.error("unexpected output annotation at term start")
            names = self._ins()
            if self.at("("):
                return ActionUse(self._action(names), None, self._outs())
            self.take("|")
            ins = names
        if self.at("|"):
            return ActionUse(self._action(self._ins()), ins, self._outs())
        if self._at_word("epsilon"):
            self.take()
            return EpsilonUse(ins, self._outs())
        name = self._dotted()
        outs = self._outs()
        if "." in name:
            lang, entry = name.split(".", 1)
            return ForeignUse(lang, entry, ins, outs)
        if name in TOKEN_CLASSES:
            return TokClass(name, outs or (), ins or None)
        return NtUse(name, ins, outs)

    # -- template machinery

    def _template_arg(self):
        """The use an argument stands for, without annotations, or a tuple."""
        if self.at("string"):
            return Lit(self.take()[1])
        if self.at("("):
            self.take()
            return ArgTuple(self._name_list())
        if self.at("|"):
            return ActionUse(self._action(self._ins()))
        name = self.take("ident")[1]
        if name == "epsilon":
            return EpsilonUse()
        return TokClass(name) if name in TOKEN_CLASSES else NtUse(name)

    def _template_call(self, name):
        self.take("<")
        return TemplateCall(name, self.comma_list(">", lambda _: self._template_arg()))

    def _template_param(self, params):
        param = self.take("ident")
        if param[1] in params:
            self.error(f"duplicate parameter name {param[1]!r}", param)
        return param[1]

    def _production(self, in_function=False):
        entry = self._at_word("entry")
        if entry:
            self.take()
        ins = None
        if self.at("|"):
            bar = self.peek()
            ins = None if self.peek(1)[0] == "->" else self._ins()
            if ins is None or not self.at("|"):
                self.error("expected an input annotation before the rule name", bar)
            self.take()
        head = self.take("ident")[1]
        outs = self._outs() or ()
        self.take("::=")
        if self.at("ident") and not self._at_word("epsilon") and self.peek(1)[0] == "<":
            call = self.take()
            if in_function:  # functions are first-order
                self.error("a grammar function cannot call a grammar function", call)
            body = [self._template_call(call[1])]  # the entire body
        else:
            body = []
            while not self.at(";"):
                if self.at("eof"):
                    self.error("unterminated production (missing ';')")
                body.append(self._term_use())
        self.take(";")
        return Production(head, ins, outs, tuple(body)), entry

    def _function(self, templates):
        self.take()  # 'function'
        tok = self.take("ident")
        name = tok[1]
        if name in templates:
            self.error(f"grammar function {name!r} is defined twice", tok)
        self.take("<")
        params = self.comma_list(">", self._template_param)
        self.take("{")
        aliases = []
        productions = []
        result = None
        while not self.at("}"):
            if self._at_word("alias"):
                self.take()
                self.take("|")
                alias_name = self.take("ident")[1]
                self.take("|")
                self.take("=")
                self.take("|")
                param = self.take("ident")[1]
                self.take(":")
                which = self.take("ident")
                if which[1] not in ("in", "out"):
                    self.error("alias query must be ':in' or ':out'", which)
                self.take("|")
                self.take(";")
                aliases.append((alias_name, param, which[1]))
            elif self._at_word("return"):
                self.take()
                result = self.take("ident")[1]
                self.take(";")
            elif self._at_word("entry"):
                self.error("a template rule cannot be an entry rule")
            else:
                productions.append(self._production(in_function=True)[0])
        close = self.take("}")
        if result is None:
            self.error(f"grammar function {name!r} has no 'return'", close)
        return Template(name, params, tuple(aliases), productions, result)

    # -- top level

    def read(self):
        keyword = self.take("ident")
        if keyword[1] != "grammar":
            self.error("a grammar file starts with 'grammar <name>'", keyword)
        g = GrammarDef(self.take("ident")[1])
        self.take("{")
        while not self.at("}"):
            if self.at("eof"):
                self.error("unterminated grammar (missing '}')")
            if self._at_word("function"):
                template = self._function(g.templates)
                g.templates[template.name] = template
            else:
                g.add(*self._production())
        self.take("}")
        if not self.at("eof"):
            self.error("trailing input after grammar")
        return g


def read_grammar(text, names=None):
    return GrammarReader(text, names).read()

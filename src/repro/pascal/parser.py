"""Recursive-descent parser for the Pascal subset.

Grammar (EBNF-ish)::

    program   = "program" ident ";" block "."
    block     = [consts] [vars] {routine} compound
    consts    = "const" {ident "=" constant ";"}
    vars      = "var" {identlist ":" type ";"}
    routine   = ("procedure" | "function") ident [params] [":" scalar]
                ";" block ";"
    type      = scalar | "array" "[" int ".." int "]" "of" scalar
    statement = assign | call | if | while | repeat | for | compound
              | write | writeln | <empty>
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import PascalSyntaxError
from repro.pascal import ast as A
from repro.pascal.lexer import Tok, Token, tokenize

# Token kinds the statement and expression parsers test on nearly
# every token, as module globals: a global read costs a fraction of
# an enum's ``Tok.X``.
_ASSIGN, _BEGIN, _COMMA, _ELSE = (
    Tok.ASSIGN, Tok.BEGIN, Tok.COMMA, Tok.ELSE)
_END, _EOF, _FALSE, _IDENT = (
    Tok.END, Tok.EOF, Tok.FALSE, Tok.IDENT)
_LBRACKET, _LPAREN, _MINUS, _NOT = (
    Tok.LBRACKET, Tok.LPAREN, Tok.MINUS, Tok.NOT)
_NUMBER, _PLUS, _RBRACKET, _RPAREN = (
    Tok.NUMBER, Tok.PLUS, Tok.RBRACKET, Tok.RPAREN)
_SEMI, _STRING, _TRUE, _UNTIL = (
    Tok.SEMI, Tok.STRING, Tok.TRUE, Tok.UNTIL)

_SCALARS = {
    "integer": A.Scalar.INTEGER,
    "shortint": A.Scalar.SHORTINT,
    "char": A.Scalar.CHAR,
    "boolean": A.Scalar.BOOLEAN,
}

_REL_OPS = {Tok.EQ: "=", Tok.NE: "<>", Tok.LT: "<", Tok.LE: "<=",
            Tok.GT: ">", Tok.GE: ">=", Tok.IN: "in"}
_ADD_OPS = {Tok.PLUS: "+", Tok.MINUS: "-", Tok.OR: "or"}
_MUL_OPS = {Tok.STAR: "*", Tok.DIV: "div", Tok.MOD: "mod", Tok.AND: "and"}

#: Built-in functions, parsed as operators when followed by ``(``.
_BUILTINS = frozenset(
    {"abs", "odd", "sqr", "max", "min", "ord", "chr", "succ", "pred"}
)


class Parser:
    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.pos = 0

    # ---- token plumbing ----------------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not _EOF:
            self.pos += 1
        return tok

    def at(self, kind: Tok) -> bool:
        return self.peek().kind is kind

    def accept(self, kind: Tok) -> Optional[Token]:
        if self.at(kind):
            return self.next()
        return None

    def expect(self, kind: Tok) -> Token:
        tok = self.peek()
        if tok.kind is not kind:
            raise PascalSyntaxError(
                f"expected {kind.value!r}, found {tok.text!r}", tok.line
            )
        return self.next()

    # ---- program structure --------------------------------------------------------

    def parse_program(self) -> A.Program:
        self.expect(Tok.PROGRAM)
        name = self.expect(Tok.IDENT).text
        if self.accept(Tok.LPAREN):  # program heading files: ignored
            while not self.accept(Tok.RPAREN):
                self.next()
        self.expect(Tok.SEMI)
        consts, variables, routines = self._declarations(allow_routines=True)
        body = self.parse_compound()
        self.expect(Tok.DOT)
        self.expect(Tok.EOF)
        return A.Program(
            name=name,
            consts=consts,
            variables=variables,
            routines=routines,
            body=body,
        )

    def _declarations(
        self, allow_routines: bool
    ) -> Tuple[List[A.ConstDecl], List[A.VarDecl], List[A.RoutineDecl]]:
        consts: List[A.ConstDecl] = []
        variables: List[A.VarDecl] = []
        routines: List[A.RoutineDecl] = []
        if self.accept(Tok.CONST):
            while self.at(Tok.IDENT):
                consts.append(self._const_decl())
        if self.accept(Tok.VAR):
            while self.at(Tok.IDENT):
                variables.extend(self._var_group())
        while allow_routines and (
            self.at(Tok.PROCEDURE) or self.at(Tok.FUNCTION)
        ):
            routines.append(self._routine())
        return consts, variables, routines

    def _const_decl(self) -> A.ConstDecl:
        name_tok = self.expect(Tok.IDENT)
        self.expect(Tok.EQ)
        tok = self.peek()
        negate = bool(self.accept(Tok.MINUS))
        if self.at(Tok.NUMBER):
            value = self.next().value or 0
            decl = A.ConstDecl(name_tok.text, -value if negate else value,
                               line=name_tok.line)
        elif not negate and self.accept(Tok.TRUE):
            decl = A.ConstDecl(name_tok.text, 1, name_tok.line, is_bool=True)
        elif not negate and self.accept(Tok.FALSE):
            decl = A.ConstDecl(name_tok.text, 0, name_tok.line, is_bool=True)
        elif not negate and self.at(Tok.STRING) and self.peek().value is not None:
            decl = A.ConstDecl(
                name_tok.text, self.next().value or 0, name_tok.line,
                is_char=True,
            )
        else:
            raise PascalSyntaxError(
                f"bad constant {tok.text!r}", tok.line
            )
        self.expect(Tok.SEMI)
        return decl

    def _var_group(self) -> List[A.VarDecl]:
        names = [self.expect(Tok.IDENT)]
        while self.accept(Tok.COMMA):
            names.append(self.expect(Tok.IDENT))
        self.expect(Tok.COLON)
        vtype = self._type()
        self.expect(Tok.SEMI)
        return [A.VarDecl(t.text, vtype, line=t.line) for t in names]

    def _type(self) -> A.PasType:
        if self.accept(Tok.ARRAY):
            self.expect(Tok.LBRACKET)
            low = self._signed_int()
            self.expect(Tok.DOTDOT)
            high = self._signed_int()
            self.expect(Tok.RBRACKET)
            self.expect(Tok.OF)
            elem = self._scalar()
            if high < low:
                raise PascalSyntaxError(
                    f"array range {low}..{high} is empty", self.peek().line
                )
            return A.ArrayType(low, high, elem)
        if self.accept(Tok.SET):
            self.expect(Tok.OF)
            line = self.peek().line
            low = self._signed_int()
            self.expect(Tok.DOTDOT)
            high = self._signed_int()
            if low != 0:
                raise PascalSyntaxError(
                    "this subset requires set ranges to start at 0", line
                )
            if not 0 < high <= 255:
                raise PascalSyntaxError(
                    f"set range 0..{high} outside 0..255", line
                )
            return A.SetType(high)
        return self._scalar()

    def _signed_int(self) -> int:
        negate = bool(self.accept(Tok.MINUS))
        value = self.expect(Tok.NUMBER).value or 0
        return -value if negate else value

    def _scalar(self) -> A.Scalar:
        tok = self.expect(Tok.IDENT)
        scalar = _SCALARS.get(tok.text)
        if scalar is None:
            raise PascalSyntaxError(f"unknown type {tok.text!r}", tok.line)
        return scalar

    def _routine(self) -> A.RoutineDecl:
        is_function = self.at(Tok.FUNCTION)
        self.next()
        name_tok = self.expect(Tok.IDENT)
        params: List[A.Param] = []
        if self.accept(Tok.LPAREN):
            while True:
                by_ref = bool(self.accept(Tok.VAR))
                names = [self.expect(Tok.IDENT)]
                while self.accept(Tok.COMMA):
                    names.append(self.expect(Tok.IDENT))
                self.expect(Tok.COLON)
                ptype = self._type()
                params.extend(
                    A.Param(t.text, ptype, by_ref=by_ref) for t in names
                )
                if not self.accept(Tok.SEMI):
                    break
            self.expect(Tok.RPAREN)
        result: Optional[A.Scalar] = None
        if is_function:
            self.expect(Tok.COLON)
            result = self._scalar()
        self.expect(Tok.SEMI)
        consts, variables, inner = self._declarations(allow_routines=False)
        assert not inner
        body = self.parse_compound()
        self.expect(Tok.SEMI)
        return A.RoutineDecl(
            name=name_tok.text,
            params=params,
            result_type=result,
            consts=consts,
            variables=variables,
            body=body,
            line=name_tok.line,
        )

    # ---- statements -------------------------------------------------------------------

    def parse_compound(self) -> A.Compound:
        begin = self.expect(_BEGIN)
        body: List[A.Stmt] = []
        tokens = self.tokens
        while tokens[self.pos].kind is not _END:
            stmt = self.parse_statement()
            if stmt is not None:
                body.append(stmt)
            if tokens[self.pos].kind is not _SEMI:
                break
            self.pos += 1
        self.expect(_END)
        return A.Compound(line=begin.line, body=body)

    def parse_statement(self) -> Optional[A.Stmt]:
        tok = self.tokens[self.pos]
        kind = tok.kind
        if kind is _IDENT:
            if tok.text in ("write", "writeln"):
                return self._write()
            if tok.text in ("read", "readln"):
                return self._read()
            return self._assign_or_call()
        parse = _STATEMENTS.get(kind)
        if parse is not None:
            return parse(self)
        if kind in (_SEMI, _END, _UNTIL, _ELSE):
            return None  # empty statement
        raise PascalSyntaxError(
            f"unexpected token {tok.text!r} at statement start", tok.line
        )

    def _if(self) -> A.If:
        line = self.expect(Tok.IF).line
        cond = self.parse_expression()
        self.expect(Tok.THEN)
        then = self.parse_statement()
        otherwise = None
        if self.accept(Tok.ELSE):
            otherwise = self.parse_statement()
        return A.If(line=line, cond=cond, then=then, otherwise=otherwise)

    def _while(self) -> A.While:
        line = self.expect(Tok.WHILE).line
        cond = self.parse_expression()
        self.expect(Tok.DO)
        return A.While(line=line, cond=cond, body=self.parse_statement())

    def _repeat(self) -> A.Repeat:
        line = self.expect(Tok.REPEAT).line
        body: List[A.Stmt] = []
        while not self.at(Tok.UNTIL):
            stmt = self.parse_statement()
            if stmt is not None:
                body.append(stmt)
            if not self.accept(Tok.SEMI):
                break
        self.expect(Tok.UNTIL)
        cond = self.parse_expression()
        return A.Repeat(line=line, body=body, cond=cond)

    def _for(self) -> A.For:
        line = self.expect(Tok.FOR).line
        var_tok = self.expect(Tok.IDENT)
        self.expect(Tok.ASSIGN)
        start = self.parse_expression()
        downto = False
        if self.accept(Tok.DOWNTO):
            downto = True
        else:
            self.expect(Tok.TO)
        stop = self.parse_expression()
        self.expect(Tok.DO)
        return A.For(
            line=line,
            var=A.VarRef(line=var_tok.line, name=var_tok.text),
            start=start,
            stop=stop,
            downto=downto,
            body=self.parse_statement(),
        )

    def _case(self) -> A.Case:
        line = self.expect(Tok.CASE).line
        selector = self.parse_expression()
        self.expect(Tok.OF)
        arms = []
        otherwise = None
        while not self.at(Tok.END):
            if self.accept(Tok.ELSE):
                otherwise = self.parse_statement()
                self.accept(Tok.SEMI)
                break
            labels = [self._case_label()]
            while self.accept(Tok.COMMA):
                labels.append(self._case_label())
            self.expect(Tok.COLON)
            stmt = self.parse_statement()
            arms.append((labels, stmt))
            if self.at(Tok.ELSE):
                continue  # 'else' may follow the last arm directly
            if not self.accept(Tok.SEMI):
                break
        self.expect(Tok.END)
        return A.Case(
            line=line, selector=selector, arms=arms, otherwise=otherwise
        )

    def _case_label(self) -> int:
        tok = self.peek()
        if tok.kind is Tok.MINUS:
            self.next()
            return -(self.expect(Tok.NUMBER).value or 0)
        if tok.kind is Tok.NUMBER:
            self.next()
            return tok.value or 0
        if tok.kind is Tok.STRING and tok.value is not None:
            self.next()
            return tok.value
        if tok.kind is Tok.TRUE:
            self.next()
            return 1
        if tok.kind is Tok.FALSE:
            self.next()
            return 0
        raise PascalSyntaxError(
            f"bad case label {tok.text!r}", tok.line
        )

    def _write(self) -> A.Write:
        tok = self.expect(Tok.IDENT)
        newline = tok.text == "writeln"
        items: List = []
        if self.accept(Tok.LPAREN):
            while True:
                if self.at(Tok.STRING) and len(self.peek().text) != 1:
                    items.append(("str", self.next().text))
                else:
                    items.append(("expr", self.parse_expression()))
                if not self.accept(Tok.COMMA):
                    break
            self.expect(Tok.RPAREN)
        return A.Write(line=tok.line, newline=newline, items=items)

    def _read(self) -> A.Read:
        tok = self.expect(Tok.IDENT)
        targets: List[A.Expr] = []
        if self.accept(Tok.LPAREN):
            while True:
                name = self.expect(Tok.IDENT)
                if self.accept(Tok.LBRACKET):
                    index = self.parse_expression()
                    self.expect(Tok.RBRACKET)
                    targets.append(
                        A.IndexRef(line=name.line, name=name.text,
                                   index=index)
                    )
                else:
                    targets.append(
                        A.VarRef(line=name.line, name=name.text)
                    )
                if not self.accept(Tok.COMMA):
                    break
            self.expect(Tok.RPAREN)
        return A.Read(line=tok.line, targets=targets)

    def _assign_or_call(self) -> A.Stmt:
        name_tok = self.expect(_IDENT)
        kind = self.tokens[self.pos].kind
        if kind is _ASSIGN:
            self.pos += 1
            value = self.parse_expression()
            return A.Assign(
                line=name_tok.line,
                target=A.VarRef(line=name_tok.line, name=name_tok.text),
                value=value,
            )
        if kind is _LBRACKET:
            self.pos += 1
            index = self.parse_expression()
            self.expect(_RBRACKET)
            self.expect(_ASSIGN)
            value = self.parse_expression()
            return A.Assign(
                line=name_tok.line,
                target=A.IndexRef(
                    line=name_tok.line, name=name_tok.text, index=index
                ),
                value=value,
            )
        args: List[A.Expr] = []
        if self.accept(_LPAREN):
            while True:
                args.append(self.parse_expression())
                if not self.accept(_COMMA):
                    break
            self.expect(_RPAREN)
        return A.ProcCall(line=name_tok.line, name=name_tok.text, args=args)

    # ---- expressions (standard Pascal precedence) ------------------------------------------

    def parse_expression(self) -> A.Expr:
        left = self._simple()
        tok = self.tokens[self.pos]
        op = _REL_OPS.get(tok.kind)
        if op is None:
            return left
        self.pos += 1
        return A.BinOp(line=tok.line, op=op, left=left, right=self._simple())

    def _simple(self) -> A.Expr:
        tok = self.tokens[self.pos]
        kind = tok.kind
        if kind is _MINUS:
            self.pos += 1
            first: A.Expr = A.UnOp(line=tok.line, op="-",
                                   operand=self._term())
        else:
            if kind is _PLUS:
                self.pos += 1
            first = self._term()
        tokens = self.tokens
        while True:
            tok = tokens[self.pos]
            op = _ADD_OPS.get(tok.kind)
            if op is None:
                return first
            self.pos += 1
            first = A.BinOp(
                line=tok.line, op=op, left=first, right=self._term()
            )

    def _term(self) -> A.Expr:
        first = self._factor()
        tokens = self.tokens
        while True:
            tok = tokens[self.pos]
            op = _MUL_OPS.get(tok.kind)
            if op is None:
                return first
            self.pos += 1
            first = A.BinOp(
                line=tok.line, op=op, left=first, right=self._factor()
            )

    def _factor(self) -> A.Expr:
        tok = self.tokens[self.pos]
        kind = tok.kind
        if kind is _IDENT:
            self.pos += 1
            kind = self.tokens[self.pos].kind
            if kind is _LPAREN and tok.text in _BUILTINS:
                return self._builtin(tok)
            if kind is _LBRACKET:
                self.pos += 1
                index = self.parse_expression()
                self.expect(_RBRACKET)
                return A.IndexRef(line=tok.line, name=tok.text, index=index)
            if kind is _LPAREN:
                self.pos += 1
                args = [self.parse_expression()]
                while self.accept(_COMMA):
                    args.append(self.parse_expression())
                self.expect(_RPAREN)
                return A.FuncCall(line=tok.line, name=tok.text, args=args)
            return A.VarRef(line=tok.line, name=tok.text)
        if kind is _NUMBER:
            self.pos += 1
            return A.IntLit(line=tok.line, value=tok.value or 0)
        if kind is _LPAREN:
            self.pos += 1
            expr = self.parse_expression()
            self.expect(_RPAREN)
            return expr
        if kind is _TRUE:
            self.pos += 1
            return A.BoolLit(line=tok.line, value=True)
        if kind is _FALSE:
            self.pos += 1
            return A.BoolLit(line=tok.line, value=False)
        if kind is _STRING and len(tok.text) == 1:
            self.pos += 1
            return A.CharLit(line=tok.line, value=tok.text)
        if kind is _NOT:
            self.pos += 1
            return A.UnOp(line=tok.line, op="not", operand=self._factor())
        if kind is _LBRACKET:
            self.pos += 1
            elements: List[A.Expr] = []
            if not self.at(_RBRACKET):
                elements.append(self.parse_expression())
                while self.accept(_COMMA):
                    elements.append(self.parse_expression())
            self.expect(_RBRACKET)
            return A.SetLit(line=tok.line, elements=elements)
        raise PascalSyntaxError(
            f"unexpected token {tok.text!r} in expression", tok.line
        )

    def _builtin(self, tok: Token) -> A.Expr:
        self.expect(Tok.LPAREN)
        args = [self.parse_expression()]
        while self.accept(Tok.COMMA):
            args.append(self.parse_expression())
        self.expect(Tok.RPAREN)
        if tok.text in ("abs", "odd", "sqr", "ord", "chr", "succ",
                        "pred"):
            if len(args) != 1:
                raise PascalSyntaxError(
                    f"{tok.text} takes one argument", tok.line
                )
            # sqr is expanded to a product by the IF generator *after*
            # call hoisting, so its operand is evaluated exactly once.
            return A.UnOp(line=tok.line, op=tok.text, operand=args[0])
        if len(args) != 2:
            raise PascalSyntaxError(f"{tok.text} takes two arguments",
                                    tok.line)
        return A.BinOp(line=tok.line, op=tok.text, left=args[0],
                       right=args[1])


#: Statement parsers by their first token (identifiers aside).
_STATEMENTS = {
    Tok.BEGIN: Parser.parse_compound,
    Tok.IF: Parser._if,
    Tok.WHILE: Parser._while,
    Tok.REPEAT: Parser._repeat,
    Tok.FOR: Parser._for,
    Tok.CASE: Parser._case,
}


def parse_source(source: str) -> A.Program:
    """Parse Pascal source into an untyped AST."""
    return Parser(source).parse_program()

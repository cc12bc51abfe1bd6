"""Recursive-descent parser for MiniC.

Struct names act as type names (typedef-style), so the paper's
``Cache *cache`` parameter style parses directly.  The annotations
``dynamicRegion``, ``key``, ``unrolled`` and ``dynamic`` are parsed
into dedicated AST forms.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from . import astnodes as ast
from .errors import ParseError
from .lexer import Token, tokenize
from .types import (
    FLOAT, INT, UINT, VOID, ArrayType, PointerType, StructType, Type,
)

#: Binary operator precedence (higher binds tighter).
_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6,
    "<": 7, "<=": 7, ">": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

_TYPE_KEYWORDS = ("int", "uint", "float", "void", "struct")

_COMPOUND_ASSIGN = {"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}

#: How deep a program may nest, in units of Python stack frames.  Each
#: link from a node to a child is charged its cost from the table
#: below.  An operand that is nested only once the operator after it is
#: seen (the left side of a binary, postfix, ``?:`` or assignment
#: operator) is charged then, to everything parsed so far in its
#: expression; a right operand, like a parenthesized expression, starts
#: a count of its own.  With the interpreter's default limit of 1,000
#: frames this leaves room for the caller's own frames, so a program
#: the parser accepts never overflows the stack in a later pass.
_MAX_DEPTH = 900

#: The cost of each nesting link, in frames: the most that the parser,
#: ``TypeChecker._stmt``/``_expr`` or ``_FunctionBuilder._stmt``/
#: ``_expr_value`` spends on it, followed by the passes that spend that
#: much.  ``tests/test_frontend_edges.py`` measures every pass against
#: this table, construct by construct.
_STATEMENT = 2    # a statement inside a statement: parser, builder
_BLOCK = 1        # a block directly in a block or a region: all
_LABEL = 1        # the statement after a label: all
_UNROLLED = 1     # ``unrolled``, on top of its loop: parser
_EXPRESSION = 3   # ``(e)``, a ``?:`` branch, the right of ``=``: all
_UNARY = 3        # the operand of ``-``, ``!`` or ``~``: checker
_CAST = 2         # a cast's operand: all
_DEREF = 2        # ``*``'s operand: all
_ADDRESS = 3      # ``&``'s operand: checker
_BINARY = 2       # an operand of a binary operator: checker, builder
_CONDITIONAL = 3  # the condition of ``?:``: builder
_ASSIGNMENT = 4   # the left side of an assignment: checker
_POSTFIX = 3      # the operand of a postfix operator: checker, builder
_INDEX = 2        # an index, on top of its expression: parser
_ARGUMENT = 1     # a call argument, on top of its expression: parser, builder


class Parser:
    """Parses a token stream into an :class:`ast.Program`."""

    def __init__(self, tokens: List[Token]):
        self._tokens = tokens
        self._pos = 0
        #: the current token, ``self._tokens[self._pos]``.
        self._tok = tokens[0]
        self._last = len(tokens) - 1
        self._struct_names: Set[str] = set()
        # Nesting (see _MAX_DEPTH): the units of the open levels, and a
        # bound on how deep the nodes parsed so far in the current
        # statement's expressions end up once every operator that nests
        # them deeper has been parsed.
        self._depth = 0
        self._high = 0

    # -- token plumbing ----------------------------------------------------

    def _peek(self, offset: int) -> Token:
        """The token ``offset`` places after the current one."""
        return self._tokens[min(self._pos + offset, self._last)]

    def _next(self) -> Token:
        tok = self._tok
        if tok.kind != "eof":
            self._pos += 1
            self._tok = self._tokens[self._pos]
        return tok

    def _check(self, kind: str, text: Optional[str] = None) -> bool:
        tok = self._tok
        return tok.kind == kind and (text is None or tok.text == text)

    def _accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        tok = self._tok
        if tok.kind == kind and (text is None or tok.text == text):
            return self._next()
        return None

    def _expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self._tok
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise ParseError(
                "expected %r, found %r" % (want, tok.text or tok.kind),
                tok.line, tok.col,
            )
        return self._next()

    # -- nesting -------------------------------------------------------------

    def _enter(self, units: int) -> None:
        """Open a nesting level; the caller subtracts ``units`` again."""
        depth = self._depth + units
        self._depth = depth
        if depth > self._high:
            self._high = depth
            if depth > _MAX_DEPTH:
                self._too_deep()

    def _wrap(self, units: int) -> None:
        """Nest what the current expression has parsed so far one level
        deeper (its operand is the left side of the operator just
        seen)."""
        self._high += units
        if self._high > _MAX_DEPTH:
            self._too_deep()

    def _too_deep(self) -> None:
        tok = self._tok
        raise ParseError("nesting too deep", tok.line, tok.col)

    # -- types -------------------------------------------------------------

    def _at_type(self) -> bool:
        tok = self._tok
        if tok.kind == "kw" and tok.text in _TYPE_KEYWORDS:
            return True
        return tok.kind == "ident" and tok.text in self._struct_names

    def _parse_base_type(self) -> Type:
        tok = self._next()
        if tok.kind == "kw":
            if tok.text == "int":
                return INT
            if tok.text == "uint":
                return UINT
            if tok.text == "float":
                return FLOAT
            if tok.text == "void":
                return VOID
            if tok.text == "struct":
                name = self._expect("ident").text
                self._struct_names.add(name)
                return StructType(name)
        if tok.kind == "ident" and tok.text in self._struct_names:
            return StructType(tok.text)
        raise ParseError("expected a type, found %r" % tok.text, tok.line, tok.col)

    def _parse_type(self) -> Type:
        base = self._parse_base_type()
        while self._accept("op", "*"):
            base = PointerType(base)
        return base

    # -- top level -----------------------------------------------------------

    def parse_program(self) -> ast.Program:
        decls: List[ast.Decl] = []
        while self._tok.kind != "eof":
            decls.append(self._parse_top_decl())
        return ast.Program(decls)

    def _parse_top_decl(self) -> ast.Decl:
        tok = self._tok
        self._high = 0
        if self._check("kw", "struct") and self._peek(2).text == "{":
            return self._parse_struct_decl()
        pure = self._accept("kw", "pure") is not None
        decl_type = self._parse_type()
        name_tok = self._expect("ident")
        if self._check("op", "("):
            return self._parse_func_decl(decl_type, name_tok, pure)
        if pure:
            raise ParseError("'pure' applies only to functions",
                             tok.line, tok.col)
        var_type, init = self._parse_declarator_tail(decl_type)
        self._expect("op", ";")
        return ast.GlobalVar(name_tok.text, var_type, init,
                             name_tok.line, name_tok.col)

    def _parse_struct_decl(self) -> ast.StructDecl:
        kw = self._expect("kw", "struct")
        name = self._expect("ident").text
        self._struct_names.add(name)
        self._expect("op", "{")
        fields: List[Tuple[str, Type]] = []
        while not self._accept("op", "}"):
            base = self._parse_type()
            fname = self._expect("ident").text
            ftype, init = self._parse_declarator_tail(base)
            if init is not None:
                raise ParseError("struct fields cannot have initializers",
                                 kw.line, kw.col)
            fields.append((fname, ftype))
            while self._accept("op", ","):
                fname = self._expect("ident").text
                ftype2, _ = self._parse_declarator_tail(base)
                fields.append((fname, ftype2))
            self._expect("op", ";")
        self._expect("op", ";")
        return ast.StructDecl(name, fields, kw.line, kw.col)

    def _parse_declarator_tail(
        self, base: Type
    ) -> Tuple[Type, Optional[ast.Expr]]:
        """Array suffixes and an optional initializer."""
        result = base
        sizes: List[int] = []
        while self._accept("op", "["):
            size_tok = self._expect("int")
            sizes.append(int(size_tok.value))  # type: ignore[arg-type]
            self._expect("op", "]")
        for size in reversed(sizes):
            result = ArrayType(result, size)
        init: Optional[ast.Expr] = None
        if self._accept("op", "="):
            init = self._parse_expr()
        return result, init

    def _parse_func_decl(self, ret_type: Type, name_tok: Token,
                         pure: bool = False) -> ast.FuncDecl:
        self._expect("op", "(")
        params: List[ast.Param] = []
        if not self._check("op", ")"):
            if self._check("kw", "void") and self._peek(1).text == ")":
                self._next()
            else:
                while True:
                    ptype = self._parse_type()
                    pname = self._expect("ident")
                    params.append(ast.Param(pname.text, ptype, pname.line))
                    if not self._accept("op", ","):
                        break
        self._expect("op", ")")
        if self._accept("op", ";"):
            return ast.FuncDecl(name_tok.text, ret_type, params, None,
                                name_tok.line, name_tok.col, pure=pure)
        body = self._parse_block()
        return ast.FuncDecl(name_tok.text, ret_type, params, body,
                            name_tok.line, name_tok.col, pure=pure)

    # -- statements ----------------------------------------------------------

    def _parse_block(self) -> ast.Block:
        """A block.  Its caller charges its frame: ``_BLOCK``, or the
        ``_STATEMENT`` of the statement the block is."""
        open_tok = self._expect("op", "{")
        stmts: List[ast.Stmt] = []
        while True:
            tok = self._tok
            if tok.kind == "op":
                if tok.text == "}":
                    break
                if tok.text == "{":
                    # Directly, not through _parse_stmt: one frame a level.
                    self._enter(_BLOCK)
                    stmts.append(self._parse_block())
                    self._depth -= _BLOCK
                    continue
            elif tok.kind == "eof":
                raise ParseError("unterminated block", open_tok.line, open_tok.col)
            stmts.append(self._parse_stmt())
        self._next()
        return ast.Block(stmts, open_tok.line, open_tok.col)

    def _parse_stmt(self) -> ast.Stmt:
        tok = self._tok
        if tok.kind == "ident" and self._peek(1).text == ":" \
                and tok.text not in self._struct_names:
            self._next()
            self._next()
            self._enter(_LABEL)
            inner = self._parse_stmt()
            self._depth -= _LABEL
            return ast.LabeledStmt(tok.text, inner, tok.line, tok.col)
        self._high = self._depth
        self._enter(_STATEMENT)
        stmt: ast.Stmt
        if tok.kind == "kw" and tok.text in self._KEYWORD_STMTS:
            stmt = self._KEYWORD_STMTS[tok.text](self)
        elif tok.kind == "op" and tok.text == "{":
            stmt = self._parse_block()
        elif tok.kind == "op" and tok.text == ";":
            self._next()
            stmt = ast.Block([], tok.line, tok.col)
        elif self._at_type() and (tok.kind == "kw" or self._is_decl_lookahead()):
            # A statement beginning with a type keyword is always a
            # declaration.  A statement beginning with a struct name is a
            # declaration only when a declarator follows (``Cache *c;``);
            # otherwise the name is an ordinary expression.
            stmt = self._parse_var_decl()
        else:
            expr = self._parse_expr()
            self._expect("op", ";")
            stmt = ast.ExprStmt(expr, tok.line, tok.col)
        self._depth -= _STATEMENT
        return stmt

    def _is_decl_lookahead(self) -> bool:
        """After an initial struct-name ident: does a declarator follow?"""
        offset = 1
        while self._peek(offset).text == "*":
            offset += 1
        return self._peek(offset).kind == "ident"

    def _parse_var_decl(self) -> ast.Stmt:
        start = self._tok
        base = self._parse_type()
        decls: List[ast.Stmt] = []
        while True:
            extra_ptr = base
            while self._accept("op", "*"):
                extra_ptr = PointerType(extra_ptr)
            name_tok = self._expect("ident")
            var_type, init = self._parse_declarator_tail(extra_ptr)
            decls.append(ast.VarDecl(name_tok.text, var_type, init,
                                     name_tok.line, name_tok.col))
            if not self._accept("op", ","):
                break
        self._expect("op", ";")
        if len(decls) == 1:
            return decls[0]
        return ast.Block(decls, start.line, start.col)

    def _parse_if(self) -> ast.Stmt:
        kw = self._expect("kw", "if")
        self._expect("op", "(")
        cond = self._parse_expr()
        self._expect("op", ")")
        then = self._parse_stmt()
        otherwise: Optional[ast.Stmt] = None
        if self._accept("kw", "else"):
            otherwise = self._parse_stmt()
        return ast.If(cond, then, otherwise, kw.line, kw.col)

    def _parse_while(self) -> ast.While:
        kw = self._expect("kw", "while")
        self._expect("op", "(")
        cond = self._parse_expr()
        self._expect("op", ")")
        body = self._parse_stmt()
        return ast.While(cond, body, kw.line, kw.col)

    def _parse_do_while(self) -> ast.Stmt:
        kw = self._expect("kw", "do")
        body = self._parse_stmt()
        self._expect("kw", "while")
        self._expect("op", "(")
        cond = self._parse_expr()
        self._expect("op", ")")
        self._expect("op", ";")
        return ast.DoWhile(body, cond, kw.line, kw.col)

    def _parse_for(self, unrolled: bool = False) -> ast.For:
        kw = self._expect("kw", "for")
        self._expect("op", "(")
        init: Optional[ast.Stmt] = None
        if not self._check("op", ";"):
            if self._at_type():
                init = self._parse_var_decl()
            else:
                expr = self._parse_expr()
                self._expect("op", ";")
                init = ast.ExprStmt(expr, kw.line, kw.col)
        else:
            self._next()
        cond: Optional[ast.Expr] = None
        if not self._check("op", ";"):
            cond = self._parse_expr()
        self._expect("op", ";")
        update: Optional[ast.Expr] = None
        if not self._check("op", ")"):
            update = self._parse_expr()
        self._expect("op", ")")
        body = self._parse_stmt()
        return ast.For(init, cond, update, body, unrolled, kw.line, kw.col)

    def _parse_unrolled(self) -> ast.Stmt:
        kw = self._expect("kw", "unrolled")
        tok = self._tok
        if tok.kind != "kw" or tok.text not in ("for", "while"):
            raise ParseError("'unrolled' must precede 'for' or 'while'",
                             tok.line, tok.col)
        self._enter(_UNROLLED)
        if tok.text == "for":
            loop = self._parse_for(unrolled=True)
        else:
            # ``unrolled while (c) s`` is ``unrolled for (; c;) s``.
            plain = self._parse_while()
            loop = ast.For(None, plain.cond, None, plain.body, True,
                           kw.line, kw.col)
        self._depth -= _UNROLLED
        return loop

    def _parse_switch(self) -> ast.Stmt:
        kw = self._expect("kw", "switch")
        self._expect("op", "(")
        expr = self._parse_expr()
        self._expect("op", ")")
        self._expect("op", "{")
        cases: List[ast.SwitchCase] = []
        while not self._accept("op", "}"):
            values: Optional[List[int]]
            case_tok = self._tok
            if self._accept("kw", "case"):
                values = []
                lit = self._parse_expr()
                values.append(self._const_int(lit))
                self._expect("op", ":")
                while self._check("kw", "case"):
                    self._next()
                    lit = self._parse_expr()
                    values.append(self._const_int(lit))
                    self._expect("op", ":")
            elif self._accept("kw", "default"):
                values = None
                self._expect("op", ":")
            else:
                raise ParseError("expected 'case' or 'default'",
                                 case_tok.line, case_tok.col)
            stmts: List[ast.Stmt] = []
            while not (self._check("kw", "case") or self._check("kw", "default")
                       or self._check("op", "}")):
                stmts.append(self._parse_stmt())
            cases.append(ast.SwitchCase(values, stmts, case_tok.line))
        return ast.Switch(expr, cases, kw.line, kw.col)

    def _const_int(self, expr: ast.Expr) -> int:
        if isinstance(expr, ast.IntLit):
            return expr.value
        if isinstance(expr, ast.Unary) and expr.op == "-" \
                and isinstance(expr.operand, ast.IntLit):
            return -expr.operand.value
        raise ParseError("case label must be an integer constant",
                         expr.line, expr.col)

    def _parse_break(self) -> ast.Stmt:
        kw = self._expect("kw", "break")
        self._expect("op", ";")
        stmt = ast.Break()
        stmt.line, stmt.col = kw.line, kw.col
        return stmt

    def _parse_continue(self) -> ast.Stmt:
        kw = self._expect("kw", "continue")
        self._expect("op", ";")
        stmt = ast.Continue()
        stmt.line, stmt.col = kw.line, kw.col
        return stmt

    def _parse_return(self) -> ast.Stmt:
        kw = self._expect("kw", "return")
        value: Optional[ast.Expr] = None
        if not self._check("op", ";"):
            value = self._parse_expr()
        self._expect("op", ";")
        return ast.Return(value, kw.line, kw.col)

    def _parse_goto(self) -> ast.Stmt:
        kw = self._expect("kw", "goto")
        label = self._expect("ident").text
        self._expect("op", ";")
        return ast.Goto(label, kw.line, kw.col)

    def _parse_dynamic_region(self) -> ast.Stmt:
        kw = self._expect("kw", "dynamicRegion")
        key_vars: List[str] = []
        if self._accept("kw", "key"):
            self._expect("op", "(")
            key_vars = self._parse_ident_list()
            self._expect("op", ")")
        self._expect("op", "(")
        const_vars = self._parse_ident_list()
        self._expect("op", ")")
        self._enter(_BLOCK)
        body = self._parse_block()
        self._depth -= _BLOCK
        return ast.DynamicRegion(const_vars, key_vars, body, kw.line, kw.col)

    def _parse_ident_list(self) -> List[str]:
        names: List[str] = []
        if self._check("ident"):
            names.append(self._next().text)
            while self._accept("op", ","):
                names.append(self._expect("ident").text)
        return names

    #: keyword -> parser of the statement it begins.
    _KEYWORD_STMTS: Dict[str, Callable[["Parser"], ast.Stmt]] = {
        "if": _parse_if,
        "while": _parse_while,
        "do": _parse_do_while,
        "for": _parse_for,
        "switch": _parse_switch,
        "break": _parse_break,
        "continue": _parse_continue,
        "return": _parse_return,
        "goto": _parse_goto,
        "unrolled": _parse_unrolled,
        "dynamicRegion": _parse_dynamic_region,
    }

    # -- expressions ---------------------------------------------------------

    def _parse_expr(self, assign: bool = True) -> ast.Expr:
        """An assignment expression; with ``assign`` false, a
        conditional expression (what may follow a ``:``)."""
        outer = self._high
        self._high = self._depth
        self._enter(_EXPRESSION)
        expr = self._parse_binary(1)
        tok = self._tok
        if tok.kind == "op" and tok.text == "?":
            self._wrap(_CONDITIONAL)
            self._next()
            then = self._parse_expr()
            self._expect("op", ":")
            otherwise = self._parse_expr(assign=False)
            expr = ast.Conditional(expr, then, otherwise, tok.line, tok.col)
            tok = self._tok
        if assign and tok.kind == "op" \
                and (tok.text == "=" or tok.text in _COMPOUND_ASSIGN):
            self._wrap(_ASSIGNMENT)
            self._next()
            rhs = self._parse_expr()
            expr = ast.Assign(expr, rhs, None if tok.text == "=" else tok.text[:-1],
                              tok.line, tok.col)
        self._depth -= _EXPRESSION
        if outer > self._high:
            self._high = outer
        return expr

    def _parse_binary(self, min_prec: int) -> ast.Expr:
        lhs = self._parse_unary()
        while True:
            tok = self._tok
            if tok.kind != "op":
                return lhs
            prec = _PRECEDENCE.get(tok.text)
            if prec is None or prec < min_prec:
                return lhs
            self._wrap(_BINARY)
            self._next()
            outer = self._high
            self._high = self._depth
            self._enter(_BINARY)
            rhs = self._parse_binary(prec + 1)
            self._depth -= _BINARY
            if outer > self._high:
                self._high = outer
            lhs = ast.Binary(tok.text, lhs, rhs, tok.line, tok.col)

    def _parse_operand(self, units: int) -> ast.Expr:
        """The operand of a prefix operator or a cast, which costs
        ``units`` (``_UNARY``, ``_CAST``, ``_DEREF`` or ``_ADDRESS``)."""
        self._enter(units)
        operand = self._parse_unary()
        self._depth -= units
        return operand

    def _parse_unary(self) -> ast.Expr:
        """Prefix operators and casts, a primary expression or a
        parenthesized one, and the postfix operators after it."""
        tok = self._tok
        if tok.kind == "op":
            text = tok.text
            if text == "-" or text == "!" or text == "~":
                self._next()
                return ast.Unary(text, self._parse_operand(_UNARY),
                                 tok.line, tok.col)
            if text == "*":
                self._next()
                return ast.Deref(self._parse_operand(_DEREF), False,
                                 tok.line, tok.col)
            if text == "&":
                self._next()
                return ast.AddrOf(self._parse_operand(_ADDRESS),
                                  tok.line, tok.col)
            if text == "(":
                self._next()
                if self._at_type():
                    target = self._parse_type()
                    self._expect("op", ")")
                    return ast.Cast(target, self._parse_operand(_CAST),
                                    tok.line, tok.col)
                expr = self._parse_expr()
                self._expect("op", ")")
                return self._parse_postfix(expr)
        elif tok.kind == "kw":
            if tok.text == "dynamic":
                self._next()
                self._expect("op", "*")
                return ast.Deref(self._parse_operand(_DEREF), True,
                                 tok.line, tok.col)
            if tok.text == "sizeof":
                self._next()
                self._expect("op", "(")
                target = self._parse_type()
                self._expect("op", ")")
                return ast.SizeOf(target, tok.line, tok.col)
        return self._parse_postfix(self._parse_primary())

    def _parse_postfix(self, expr: ast.Expr) -> ast.Expr:
        while True:
            tok = self._tok
            if tok.kind == "op":
                text = tok.text
                if text == "[":
                    self._wrap(_POSTFIX)
                    self._next()
                    index = self._parse_index()
                    expr = ast.Index(expr, index, False, tok.line, tok.col)
                elif text == "." or text == "->":
                    self._wrap(_POSTFIX)
                    self._next()
                    name = self._expect("ident").text
                    expr = ast.Field(expr, name, text == "->", False,
                                     tok.line, tok.col)
                elif text == "++" or text == "--":
                    self._wrap(_POSTFIX)
                    self._next()
                    expr = ast.IncDec(expr, text, tok.line, tok.col)
                else:
                    return expr
            elif tok.kind == "kw" and tok.text == "dynamic":
                after = self._peek(1).text
                if after == "[":
                    self._wrap(_POSTFIX)
                    self._next()
                    self._next()
                    index = self._parse_index()
                    expr = ast.Index(expr, index, True, tok.line, tok.col)
                elif after == "->":
                    self._wrap(_POSTFIX)
                    self._next()
                    self._next()
                    name = self._expect("ident").text
                    expr = ast.Field(expr, name, True, True, tok.line, tok.col)
                else:
                    return expr
            else:
                return expr

    def _parse_index(self) -> ast.Expr:
        """An index up to its ``]``."""
        self._enter(_INDEX)
        index = self._parse_expr()
        self._expect("op", "]")
        self._depth -= _INDEX
        return index

    def _parse_primary(self) -> ast.Expr:
        tok = self._next()
        if tok.kind == "ident":
            if self._tok.kind == "op" and self._tok.text == "(":
                self._next()
                args: List[ast.Expr] = []
                if not self._check("op", ")"):
                    self._enter(_ARGUMENT)
                    args.append(self._parse_expr())
                    while self._accept("op", ","):
                        args.append(self._parse_expr())
                    self._depth -= _ARGUMENT
                self._expect("op", ")")
                return ast.Call(tok.text, args, tok.line, tok.col)
            return ast.Var(tok.text, tok.line, tok.col)
        if tok.kind == "int":
            return ast.IntLit(int(tok.value), tok.line, tok.col)  # type: ignore[arg-type]
        if tok.kind == "float":
            return ast.FloatLit(float(tok.value), tok.line, tok.col)  # type: ignore[arg-type]
        raise ParseError("unexpected token %r" % (tok.text or tok.kind),
                         tok.line, tok.col)


def parse(source: str) -> ast.Program:
    """Parse MiniC source text into an AST."""
    return Parser(tokenize(source)).parse_program()

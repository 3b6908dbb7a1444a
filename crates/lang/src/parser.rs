use crate::ast::{BinOp, Expr, ExprKind, Item, Program, Stmt, StmtKind, Type, UnOp};
use crate::error::CompileError;
use crate::lexer::{Lexer, Span, Token, TokenKind};

/// How deeply statements and expressions may nest, counted together.
/// A statement inside another, an operand inside its operator, call or
/// index, and a pair of parentheses each add one level, and so does
/// each link of a left-associative chain such as `a + b + c` or
/// `a[i][j]`, because every later pass recurses once per level. The
/// parser reports deeper source as a syntax error before building it,
/// so no pass can run out of stack.
pub const MAX_NESTING: usize = 64;

/// Parses Cmm source into an AST.
///
/// # Errors
///
/// Returns the first lexical or syntax error with its source span,
/// including nesting deeper than [`MAX_NESTING`].
///
/// # Example
///
/// ```
/// let ast = bpfree_lang::parse("fn main() -> int { return 1 + 2 * 3; }").unwrap();
/// assert_eq!(ast.items.len(), 1);
/// ```
pub fn parse(source: &str) -> Result<Program, CompileError> {
    let tokens = Lexer::new(source).tokenize()?;
    Parser {
        tokens,
        pos: 0,
        depth: 0,
    }
    .program()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// The nesting level of the node being parsed: 1 for a statement
    /// of a function body.
    depth: usize,
}

impl Parser {
    /// Runs `parse` one nesting level deeper, for a child of the node
    /// being parsed; refuses to go past [`MAX_NESTING`].
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Parser) -> Result<T, CompileError>,
    ) -> Result<T, CompileError> {
        if self.depth == MAX_NESTING {
            return Err(Self::too_deep(self.peek_span()));
        }
        self.depth += 1;
        let parsed = parse(self);
        self.depth -= 1;
        parsed
    }

    /// The levels under an expression whose root moves one level down,
    /// below the chain link at `op` — refused past [`MAX_NESTING`].
    fn deepen(&self, below: usize, op: Span) -> Result<usize, CompileError> {
        if self.depth + below + 1 > MAX_NESTING {
            return Err(Self::too_deep(op));
        }
        Ok(below + 1)
    }

    fn too_deep(span: Span) -> CompileError {
        CompileError::parse(format!("nesting deeper than {MAX_NESTING} levels"), span)
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn peek2(&self) -> &TokenKind {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<Token, CompileError> {
        if self.peek() == &kind {
            Ok(self.bump())
        } else {
            Err(CompileError::parse(
                format!("expected {kind}, found {}", self.peek()),
                self.peek_span(),
            ))
        }
    }

    fn expect_ident(&mut self) -> Result<(String, Span), CompileError> {
        match self.peek().clone() {
            TokenKind::Ident(name) => {
                let span = self.peek_span();
                self.bump();
                Ok((name, span))
            }
            other => Err(CompileError::parse(
                format!("expected identifier, found {other}"),
                self.peek_span(),
            )),
        }
    }

    fn parse_type(&mut self) -> Result<Type, CompileError> {
        match self.peek() {
            TokenKind::KwInt => {
                self.bump();
                Ok(Type::Int)
            }
            TokenKind::KwFloat => {
                self.bump();
                Ok(Type::Float)
            }
            TokenKind::KwPtr => {
                self.bump();
                Ok(Type::Ptr)
            }
            other => Err(CompileError::parse(
                format!("expected type, found {other}"),
                self.peek_span(),
            )),
        }
    }

    fn is_type_token(kind: &TokenKind) -> bool {
        matches!(
            kind,
            TokenKind::KwInt | TokenKind::KwFloat | TokenKind::KwPtr
        )
    }

    fn program(mut self) -> Result<Program, CompileError> {
        let mut items = Vec::new();
        while self.peek() != &TokenKind::Eof {
            match self.peek() {
                TokenKind::KwGlobal => items.push(self.global_decl()?),
                TokenKind::KwFn => items.push(self.function()?),
                other => {
                    return Err(CompileError::parse(
                        format!("expected `global` or `fn`, found {other}"),
                        self.peek_span(),
                    ))
                }
            }
        }
        Ok(Program { items })
    }

    fn global_decl(&mut self) -> Result<Item, CompileError> {
        let start = self.peek_span();
        self.expect(TokenKind::KwGlobal)?;
        let ty = self.parse_type()?;
        let (name, _) = self.expect_ident()?;
        let size = self.array_suffix()?;
        let end = self.peek_span();
        self.expect(TokenKind::Semi)?;
        Ok(Item::Global {
            ty,
            name,
            size,
            span: start.merge(end),
        })
    }

    fn array_suffix(&mut self) -> Result<Option<i64>, CompileError> {
        if !self.eat(&TokenKind::LBracket) {
            return Ok(None);
        }
        let tok = self.bump();
        let n = match tok.kind {
            TokenKind::Int(n) if n > 0 => n,
            TokenKind::Int(n) => {
                return Err(CompileError::parse(
                    format!("array size must be positive, got {n}"),
                    tok.span,
                ))
            }
            other => {
                return Err(CompileError::parse(
                    format!("expected array size literal, found {other}"),
                    tok.span,
                ))
            }
        };
        self.expect(TokenKind::RBracket)?;
        Ok(Some(n))
    }

    fn function(&mut self) -> Result<Item, CompileError> {
        let start = self.peek_span();
        self.expect(TokenKind::KwFn)?;
        let (name, _) = self.expect_ident()?;
        self.expect(TokenKind::LParen)?;
        let mut params = Vec::new();
        if self.peek() != &TokenKind::RParen {
            loop {
                let ty = self.parse_type()?;
                let (pname, _) = self.expect_ident()?;
                params.push((ty, pname));
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(TokenKind::RParen)?;
        let ret = if self.eat(&TokenKind::Arrow) {
            Some(self.parse_type()?)
        } else {
            None
        };
        let body = self.block()?;
        let span = start.merge(self.tokens[self.pos.saturating_sub(1)].span);
        Ok(Item::Function {
            name,
            params,
            ret,
            body,
            span,
        })
    }

    fn block(&mut self) -> Result<Vec<Stmt>, CompileError> {
        self.expect(TokenKind::LBrace)?;
        let mut stmts = Vec::new();
        while self.peek() != &TokenKind::RBrace {
            if self.peek() == &TokenKind::Eof {
                return Err(CompileError::parse(
                    "unclosed block".into(),
                    self.peek_span(),
                ));
            }
            stmts.push(self.nested(Self::stmt)?);
        }
        self.expect(TokenKind::RBrace)?;
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<Stmt, CompileError> {
        let start = self.peek_span();
        match self.peek().clone() {
            t if Self::is_type_token(&t) => {
                // Declaration — but `int(` / `float(` starts a cast
                // expression, so peek past the type for an identifier.
                if matches!(self.peek2(), TokenKind::Ident(_)) {
                    let ty = self.parse_type()?;
                    let (name, _) = self.expect_ident()?;
                    let size = self.array_suffix()?;
                    let end = self.peek_span();
                    self.expect(TokenKind::Semi)?;
                    Ok(Stmt {
                        kind: StmtKind::Decl { ty, name, size },
                        span: start.merge(end),
                    })
                } else {
                    let s = self.simple_stmt()?;
                    self.expect(TokenKind::Semi)?;
                    Ok(s)
                }
            }
            TokenKind::KwIf => self.if_stmt(),
            TokenKind::KwWhile => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let cond = self.expr()?;
                self.expect(TokenKind::RParen)?;
                let body = self.block()?;
                let span = start.merge(self.prev_span());
                Ok(Stmt {
                    kind: StmtKind::While { cond, body },
                    span,
                })
            }
            TokenKind::KwDo => {
                self.bump();
                let body = self.block()?;
                self.expect(TokenKind::KwWhile)?;
                self.expect(TokenKind::LParen)?;
                let cond = self.expr()?;
                self.expect(TokenKind::RParen)?;
                let end = self.peek_span();
                self.expect(TokenKind::Semi)?;
                Ok(Stmt {
                    kind: StmtKind::DoWhile { body, cond },
                    span: start.merge(end),
                })
            }
            TokenKind::KwFor => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let init = if self.peek() == &TokenKind::Semi {
                    None
                } else {
                    Some(Box::new(self.nested(Self::simple_stmt)?))
                };
                self.expect(TokenKind::Semi)?;
                let cond = if self.peek() == &TokenKind::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(TokenKind::Semi)?;
                let step = if self.peek() == &TokenKind::RParen {
                    None
                } else {
                    Some(Box::new(self.nested(Self::simple_stmt)?))
                };
                self.expect(TokenKind::RParen)?;
                let body = self.block()?;
                let span = start.merge(self.prev_span());
                Ok(Stmt {
                    kind: StmtKind::For {
                        init,
                        cond,
                        step,
                        body,
                    },
                    span,
                })
            }
            TokenKind::KwBreak => {
                self.bump();
                let end = self.peek_span();
                self.expect(TokenKind::Semi)?;
                Ok(Stmt {
                    kind: StmtKind::Break,
                    span: start.merge(end),
                })
            }
            TokenKind::KwContinue => {
                self.bump();
                let end = self.peek_span();
                self.expect(TokenKind::Semi)?;
                Ok(Stmt {
                    kind: StmtKind::Continue,
                    span: start.merge(end),
                })
            }
            TokenKind::KwReturn => {
                self.bump();
                let value = if self.peek() == &TokenKind::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                let end = self.peek_span();
                self.expect(TokenKind::Semi)?;
                Ok(Stmt {
                    kind: StmtKind::Return(value),
                    span: start.merge(end),
                })
            }
            TokenKind::LBrace => {
                let body = self.block()?;
                let span = start.merge(self.prev_span());
                Ok(Stmt {
                    kind: StmtKind::Block(body),
                    span,
                })
            }
            _ => {
                let s = self.simple_stmt()?;
                self.expect(TokenKind::Semi)?;
                Ok(s)
            }
        }
    }

    fn prev_span(&self) -> Span {
        self.tokens[self.pos.saturating_sub(1)].span
    }

    /// Assignment or expression statement (no trailing semicolon) — used
    /// directly by `for` headers.
    fn simple_stmt(&mut self) -> Result<Stmt, CompileError> {
        let start = self.peek_span();
        let e = self.expr()?;
        if self.eat(&TokenKind::Assign) {
            match &e.kind {
                ExprKind::Var(_) | ExprKind::Index { .. } => {}
                _ => {
                    return Err(CompileError::parse(
                        "assignment target must be a variable or index expression".into(),
                        e.span,
                    ))
                }
            }
            let value = self.expr()?;
            let span = start.merge(value.span);
            Ok(Stmt {
                kind: StmtKind::Assign { target: e, value },
                span,
            })
        } else {
            let span = e.span;
            Ok(Stmt {
                kind: StmtKind::ExprStmt(e),
                span,
            })
        }
    }

    fn if_stmt(&mut self) -> Result<Stmt, CompileError> {
        let start = self.peek_span();
        self.expect(TokenKind::KwIf)?;
        self.expect(TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(TokenKind::RParen)?;
        let then_body = self.block()?;
        let else_body = if self.eat(&TokenKind::KwElse) {
            if self.peek() == &TokenKind::KwIf {
                vec![self.nested(Self::if_stmt)?]
            } else {
                self.block()?
            }
        } else {
            Vec::new()
        };
        let span = start.merge(self.prev_span());
        Ok(Stmt {
            kind: StmtKind::If {
                cond,
                then_body,
                else_body,
            },
            span,
        })
    }

    // ---- expressions: precedence climbing ----
    //
    // Each expression parser also returns how many levels lie under the
    // root of what it built, so that a chain link, which pushes the
    // whole chain so far one level down, can be checked against
    // [`MAX_NESTING`] before it is built.

    /// An expression one level below the node being parsed.
    fn expr(&mut self) -> Result<Expr, CompileError> {
        Ok(self.sub_expr()?.0)
    }

    /// [`Parser::expr`] with the levels under its root.
    fn sub_expr(&mut self) -> Result<(Expr, usize), CompileError> {
        self.nested(|p| p.binary_expr(0))
    }

    fn binop_at(&self, min_prec: u8) -> Option<(BinOp, u8)> {
        let (op, prec) = match self.peek() {
            TokenKind::PipePipe => (BinOp::LOr, 1),
            TokenKind::AmpAmp => (BinOp::LAnd, 2),
            TokenKind::Pipe => (BinOp::Or, 3),
            TokenKind::Caret => (BinOp::Xor, 4),
            TokenKind::Amp => (BinOp::And, 5),
            TokenKind::EqEq => (BinOp::Eq, 6),
            TokenKind::NotEq => (BinOp::Ne, 6),
            TokenKind::Lt => (BinOp::Lt, 7),
            TokenKind::Le => (BinOp::Le, 7),
            TokenKind::Gt => (BinOp::Gt, 7),
            TokenKind::Ge => (BinOp::Ge, 7),
            TokenKind::Shl => (BinOp::Shl, 8),
            TokenKind::Shr => (BinOp::Shr, 8),
            TokenKind::Plus => (BinOp::Add, 9),
            TokenKind::Minus => (BinOp::Sub, 9),
            TokenKind::Star => (BinOp::Mul, 10),
            TokenKind::Slash => (BinOp::Div, 10),
            TokenKind::Percent => (BinOp::Rem, 10),
            _ => return None,
        };
        (prec >= min_prec).then_some((op, prec))
    }

    fn binary_expr(&mut self, min_prec: u8) -> Result<(Expr, usize), CompileError> {
        let (mut lhs, mut below) = self.unary_expr()?;
        while let Some((op, prec)) = self.binop_at(min_prec) {
            below = self.deepen(below, self.peek_span())?;
            self.bump();
            // All binary operators are left-associative.
            let (rhs, rhs_below) = self.nested(|p| p.binary_expr(prec + 1))?;
            below = below.max(rhs_below + 1);
            let span = lhs.span.merge(rhs.span);
            lhs = Expr {
                kind: ExprKind::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                span,
            };
        }
        Ok((lhs, below))
    }

    fn unary_expr(&mut self) -> Result<(Expr, usize), CompileError> {
        let start = self.peek_span();
        let op = match self.peek() {
            TokenKind::Minus => UnOp::Neg,
            TokenKind::Bang => UnOp::Not,
            _ => return self.postfix_expr(),
        };
        self.bump();
        let (inner, below) = self.nested(Self::unary_expr)?;
        let span = start.merge(inner.span);
        let e = Expr {
            kind: ExprKind::Unary {
                op,
                expr: Box::new(inner),
            },
            span,
        };
        Ok((e, below + 1))
    }

    fn postfix_expr(&mut self) -> Result<(Expr, usize), CompileError> {
        let (mut e, mut below) = self.primary_expr()?;
        loop {
            let open = self.peek_span();
            if self.eat(&TokenKind::LBracket) {
                below = self.deepen(below, open)?;
                let (index, index_below) = self.sub_expr()?;
                below = below.max(index_below + 1);
                let end = self.peek_span();
                self.expect(TokenKind::RBracket)?;
                let span = e.span.merge(end);
                e = Expr {
                    kind: ExprKind::Index {
                        base: Box::new(e),
                        index: Box::new(index),
                    },
                    span,
                };
            } else {
                return Ok((e, below));
            }
        }
    }

    /// A primary expression. Parentheses build no node of their own but
    /// count as a level, as the parser recurses through them.
    fn primary_expr(&mut self) -> Result<(Expr, usize), CompileError> {
        let start = self.peek_span();
        let leaf = |kind| Ok((Expr { kind, span: start }, 0));
        match self.peek().clone() {
            TokenKind::Int(v) => {
                self.bump();
                leaf(ExprKind::IntLit(v))
            }
            TokenKind::Float(v) => {
                self.bump();
                leaf(ExprKind::FloatLit(v))
            }
            TokenKind::KwNull => {
                self.bump();
                leaf(ExprKind::Null)
            }
            TokenKind::LParen => {
                self.bump();
                let (inner, below) = self.sub_expr()?;
                self.expect(TokenKind::RParen)?;
                Ok((inner, below + 1))
            }
            // `int(e)` / `float(e)` casts parse as calls to the builtin
            // names `int` / `float`.
            TokenKind::KwInt | TokenKind::KwFloat => {
                let name = if self.peek() == &TokenKind::KwInt {
                    "int"
                } else {
                    "float"
                }
                .to_string();
                self.bump();
                self.expect(TokenKind::LParen)?;
                let (arg, below) = self.sub_expr()?;
                let end = self.peek_span();
                self.expect(TokenKind::RParen)?;
                let call = Expr {
                    kind: ExprKind::Call {
                        name,
                        args: vec![arg],
                    },
                    span: start.merge(end),
                };
                Ok((call, below + 1))
            }
            TokenKind::Ident(name) => {
                self.bump();
                if !self.eat(&TokenKind::LParen) {
                    return leaf(ExprKind::Var(name));
                }
                let mut args = Vec::new();
                let mut below = 0;
                if self.peek() != &TokenKind::RParen {
                    loop {
                        let (arg, arg_below) = self.sub_expr()?;
                        args.push(arg);
                        below = below.max(arg_below + 1);
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                }
                let end = self.peek_span();
                self.expect(TokenKind::RParen)?;
                let call = Expr {
                    kind: ExprKind::Call { name, args },
                    span: start.merge(end),
                };
                Ok((call, below))
            }
            other => Err(CompileError::parse(
                format!("expected expression, found {other}"),
                self.peek_span(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> Program {
        parse(src).unwrap()
    }

    fn first_fn_body(p: &Program) -> &Vec<Stmt> {
        match &p.items[0] {
            Item::Function { body, .. } => body,
            _ => panic!("expected function"),
        }
    }

    #[test]
    fn parses_globals() {
        let p = parse_ok("global int n; global float xs[10]; global ptr head;");
        assert_eq!(p.items.len(), 3);
        match &p.items[1] {
            Item::Global { ty, name, size, .. } => {
                assert_eq!(*ty, Type::Float);
                assert_eq!(name, "xs");
                assert_eq!(*size, Some(10));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn rejects_zero_sized_array() {
        assert!(parse("global int xs[0];").is_err());
    }

    #[test]
    fn parses_function_signature() {
        let p = parse_ok("fn f(int a, float b, ptr c) -> float { return b; }");
        match &p.items[0] {
            Item::Function {
                name, params, ret, ..
            } => {
                assert_eq!(name, "f");
                assert_eq!(params.len(), 3);
                assert_eq!(params[1], (Type::Float, "b".into()));
                assert_eq!(*ret, Some(Type::Float));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn precedence_mul_binds_tighter_than_add() {
        let p = parse_ok("fn f() -> int { return 1 + 2 * 3; }");
        let body = first_fn_body(&p);
        match &body[0].kind {
            StmtKind::Return(Some(e)) => match &e.kind {
                ExprKind::Binary {
                    op: BinOp::Add,
                    rhs,
                    ..
                } => {
                    assert!(matches!(rhs.kind, ExprKind::Binary { op: BinOp::Mul, .. }));
                }
                other => panic!("wrong tree: {other:?}"),
            },
            _ => panic!(),
        }
    }

    #[test]
    fn comparison_binds_tighter_than_logical() {
        let p = parse_ok("fn f(int a, int b) -> int { return a < 1 && b > 2 || a == b; }");
        let body = first_fn_body(&p);
        match &body[0].kind {
            StmtKind::Return(Some(e)) => {
                assert!(matches!(e.kind, ExprKind::Binary { op: BinOp::LOr, .. }));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn subtraction_is_left_associative() {
        let p = parse_ok("fn f() -> int { return 10 - 3 - 2; }");
        let body = first_fn_body(&p);
        match &body[0].kind {
            StmtKind::Return(Some(e)) => match &e.kind {
                ExprKind::Binary {
                    op: BinOp::Sub,
                    lhs,
                    rhs,
                } => {
                    assert!(matches!(lhs.kind, ExprKind::Binary { op: BinOp::Sub, .. }));
                    assert!(matches!(rhs.kind, ExprKind::IntLit(2)));
                }
                other => panic!("wrong tree: {other:?}"),
            },
            _ => panic!(),
        }
    }

    #[test]
    fn parses_control_flow() {
        let p = parse_ok(
            "fn f(int n) -> int {
                int i; int s;
                s = 0;
                for (i = 0; i < n; i = i + 1) {
                    if (i % 2 == 0) { s = s + i; } else { continue; }
                    while (s > 100) { s = s - 100; }
                    do { s = s + 1; } while (s < 0);
                    if (s == 77) { break; }
                }
                return s;
            }",
        );
        assert_eq!(first_fn_body(&p).len(), 5);
    }

    #[test]
    fn parses_else_if_chain() {
        let p = parse_ok(
            "fn f(int x) -> int {
                if (x < 0) { return -1; } else if (x == 0) { return 0; } else { return 1; }
            }",
        );
        match &first_fn_body(&p)[0].kind {
            StmtKind::If { else_body, .. } => {
                assert_eq!(else_body.len(), 1);
                assert!(matches!(else_body[0].kind, StmtKind::If { .. }));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_index_chains_and_calls() {
        let p = parse_ok("fn f(ptr p) -> int { return p[0][1] + g(p[2], 3); }");
        match &first_fn_body(&p)[0].kind {
            StmtKind::Return(Some(e)) => {
                assert!(matches!(e.kind, ExprKind::Binary { op: BinOp::Add, .. }));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_casts() {
        let p = parse_ok("fn f(float x) -> int { return int(x) + int(float(3)); }");
        assert_eq!(first_fn_body(&p).len(), 1);
    }

    #[test]
    fn assignment_to_rvalue_rejected() {
        assert!(parse("fn f() { 1 + 2 = 3; }").is_err());
    }

    #[test]
    fn assignment_to_index_accepted() {
        let p = parse_ok("fn f(ptr p) { p[0] = 5; }");
        match &first_fn_body(&p)[0].kind {
            StmtKind::Assign { target, .. } => {
                assert!(matches!(target.kind, ExprKind::Index { .. }));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn error_on_missing_semicolon() {
        let err = parse("fn f() { return 1 }").unwrap_err();
        assert!(err.to_string().contains("expected"));
    }

    #[test]
    fn error_on_unclosed_block() {
        assert!(parse("fn f() { return 1;").is_err());
    }

    #[test]
    fn empty_for_header_parts() {
        let p = parse_ok("fn f() { int i; for (;;) { break; } }");
        match &first_fn_body(&p)[1].kind {
            StmtKind::For {
                init, cond, step, ..
            } => {
                assert!(init.is_none() && cond.is_none() && step.is_none());
            }
            _ => panic!(),
        }
    }

    #[test]
    fn unary_operators_nest() {
        let p = parse_ok("fn f(int x) -> int { return -!x + --x; }");
        assert_eq!(first_fn_body(&p).len(), 1);
    }

    #[test]
    fn null_literal_parses() {
        let p = parse_ok("fn f(ptr p) -> int { return p == null; }");
        assert_eq!(first_fn_body(&p).len(), 1);
    }
}

//! Recursive-descent parser for Cephalo.

use crate::ast::{BinOp, Block, Expr, Stmt, TableItem, UnOp};
use crate::lexer::{Tok, Token};

/// A syntax error with the line it occurred on.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based source line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses a token stream (as produced by [`crate::lexer::lex`]) into a
/// top-level block.
///
/// # Errors
///
/// Returns the first syntax error encountered.
pub fn parse(tokens: &[Token]) -> Result<Block, ParseError> {
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let block = p.block(&[Tok::Eof])?;
    p.expect(&Tok::Eof)?;
    Ok(block)
}

/// Hard cap on parser recursion. Policies are machine-shipped strings, so
/// a hostile or buggy generator can nest arbitrarily deep; without a cap
/// the recursive-descent parser overflows the thread stack (an abort, not
/// a catchable error) long before the interpreter's own instruction
/// budget can intervene.
const MAX_DEPTH: usize = 200;

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].kind
    }

    fn line(&self) -> u32 {
        self.tokens[self.pos.min(self.tokens.len() - 1)].line
    }

    fn bump(&mut self) -> Tok {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)]
            .kind
            .clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            line: self.line(),
            message: message.into(),
        })
    }

    fn expect(&mut self, kind: &Tok) -> Result<(), ParseError> {
        if self.peek() == kind {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected {kind:?}, found {:?}", self.peek()))
        }
    }

    fn accept(&mut self, kind: &Tok) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn name(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Tok::Name(n) => Ok(n),
            other => self.err(format!("expected a name, found {other:?}")),
        }
    }

    /// Parses statements until one of `terminators` is the lookahead.
    fn block(&mut self, terminators: &[Tok]) -> Result<Block, ParseError> {
        let mut stmts = Vec::new();
        loop {
            while self.accept(&Tok::Semi) {}
            if terminators.contains(self.peek()) {
                return Ok(stmts);
            }
            stmts.push(self.statement()?);
        }
    }

    fn statement(&mut self) -> Result<Stmt, ParseError> {
        self.descend()?;
        let r = self.statement_inner();
        self.depth -= 1;
        r
    }

    /// Bumps the nesting depth, rejecting input past [`MAX_DEPTH`]. Every
    /// recursion cycle in the grammar passes through [`Self::statement`],
    /// [`Self::binary`], or [`Self::unary`], so guarding those three
    /// bounds the stack.
    fn descend(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return self.err(format!("nesting deeper than {MAX_DEPTH} levels"));
        }
        Ok(())
    }

    fn statement_inner(&mut self) -> Result<Stmt, ParseError> {
        match self.peek().clone() {
            Tok::Local => {
                self.bump();
                let name = self.name()?;
                self.expect(&Tok::Assign)?;
                let value = self.expr()?;
                Ok(Stmt::Local(name, value))
            }
            Tok::If => self.if_stmt(),
            Tok::While => {
                self.bump();
                let cond = self.expr()?;
                self.expect(&Tok::Do)?;
                let body = self.block(&[Tok::End])?;
                self.expect(&Tok::End)?;
                Ok(Stmt::While(cond, body))
            }
            Tok::Repeat => {
                self.bump();
                let body = self.block(&[Tok::Until])?;
                self.expect(&Tok::Until)?;
                let cond = self.expr()?;
                Ok(Stmt::Repeat(body, cond))
            }
            Tok::For => self.for_stmt(),
            Tok::Function => {
                self.bump();
                let name = self.name()?;
                let (params, body) = self.func_rest()?;
                Ok(Stmt::FuncDecl { name, params, body })
            }
            Tok::Return => {
                self.bump();
                let value = if matches!(
                    self.peek(),
                    Tok::End | Tok::Eof | Tok::Else | Tok::Elseif | Tok::Until | Tok::Semi
                ) {
                    None
                } else {
                    Some(self.expr()?)
                };
                Ok(Stmt::Return(value))
            }
            Tok::Break => {
                self.bump();
                Ok(Stmt::Break)
            }
            _ => self.expr_or_assign(),
        }
    }

    fn if_stmt(&mut self) -> Result<Stmt, ParseError> {
        self.expect(&Tok::If)?;
        let mut arms = Vec::new();
        let cond = self.expr()?;
        self.expect(&Tok::Then)?;
        let body = self.block(&[Tok::Elseif, Tok::Else, Tok::End])?;
        arms.push((cond, body));
        let mut else_blk = None;
        loop {
            match self.peek() {
                Tok::Elseif => {
                    self.bump();
                    let cond = self.expr()?;
                    self.expect(&Tok::Then)?;
                    let body = self.block(&[Tok::Elseif, Tok::Else, Tok::End])?;
                    arms.push((cond, body));
                }
                Tok::Else => {
                    self.bump();
                    else_blk = Some(self.block(&[Tok::End])?);
                    self.expect(&Tok::End)?;
                    break;
                }
                Tok::End => {
                    self.bump();
                    break;
                }
                other => return self.err(format!("expected elseif/else/end, found {other:?}")),
            }
        }
        Ok(Stmt::If(arms, else_blk))
    }

    fn for_stmt(&mut self) -> Result<Stmt, ParseError> {
        self.expect(&Tok::For)?;
        let first = self.name()?;
        match self.peek() {
            Tok::Assign => {
                self.bump();
                let start = self.expr()?;
                self.expect(&Tok::Comma)?;
                let stop = self.expr()?;
                let step = if self.accept(&Tok::Comma) {
                    Some(self.expr()?)
                } else {
                    None
                };
                self.expect(&Tok::Do)?;
                let body = self.block(&[Tok::End])?;
                self.expect(&Tok::End)?;
                Ok(Stmt::NumFor {
                    var: first,
                    start,
                    stop,
                    step,
                    body,
                })
            }
            Tok::Comma => {
                self.bump();
                let value = self.name()?;
                self.expect(&Tok::In)?;
                let iter = self.expr()?;
                self.expect(&Tok::Do)?;
                let body = self.block(&[Tok::End])?;
                self.expect(&Tok::End)?;
                Ok(Stmt::GenFor {
                    key: first,
                    value,
                    iter,
                    body,
                })
            }
            other => self.err(format!("expected `=` or `,` in for, found {other:?}")),
        }
    }

    fn func_rest(&mut self) -> Result<(Vec<String>, Block), ParseError> {
        self.expect(&Tok::LParen)?;
        let mut params = Vec::new();
        if !self.accept(&Tok::RParen) {
            loop {
                params.push(self.name()?);
                if !self.accept(&Tok::Comma) {
                    break;
                }
            }
            self.expect(&Tok::RParen)?;
        }
        let body = self.block(&[Tok::End])?;
        self.expect(&Tok::End)?;
        Ok((params, body))
    }

    fn expr_or_assign(&mut self) -> Result<Stmt, ParseError> {
        let e = self.expr()?;
        if self.accept(&Tok::Assign) {
            match e {
                Expr::Var(_) | Expr::Index(_, _) => {
                    let rhs = self.expr()?;
                    Ok(Stmt::Assign(e, rhs))
                }
                _ => self.err("invalid assignment target"),
            }
        } else {
            match e {
                Expr::Call(_, _) => Ok(Stmt::ExprStmt(e)),
                _ => self.err("expression statements must be calls"),
            }
        }
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.binary(0)
    }

    fn bin_op(&self) -> Option<BinOp> {
        Some(match self.peek() {
            Tok::Or => BinOp::Or,
            Tok::And => BinOp::And,
            Tok::Eq => BinOp::Eq,
            Tok::Ne => BinOp::Ne,
            Tok::Lt => BinOp::Lt,
            Tok::Le => BinOp::Le,
            Tok::Gt => BinOp::Gt,
            Tok::Ge => BinOp::Ge,
            Tok::Concat => BinOp::Concat,
            Tok::Plus => BinOp::Add,
            Tok::Minus => BinOp::Sub,
            Tok::Star => BinOp::Mul,
            Tok::Slash => BinOp::Div,
            Tok::Percent => BinOp::Mod,
            Tok::Caret => BinOp::Pow,
            _ => return None,
        })
    }

    fn binary(&mut self, min_prec: u8) -> Result<Expr, ParseError> {
        self.descend()?;
        let r = self.binary_inner(min_prec);
        self.depth -= 1;
        r
    }

    fn binary_inner(&mut self, min_prec: u8) -> Result<Expr, ParseError> {
        let mut lhs = self.unary()?;
        while let Some(op) = self.bin_op() {
            let prec = op.precedence();
            if prec < min_prec {
                break;
            }
            self.bump();
            let next_min = if op.right_assoc() { prec } else { prec + 1 };
            let rhs = self.binary(next_min)?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        self.descend()?;
        let r = self.unary_inner();
        self.depth -= 1;
        r
    }

    fn unary_inner(&mut self) -> Result<Expr, ParseError> {
        // Unary binds tighter than every binary operator except `^`.
        match self.peek() {
            Tok::Minus => {
                self.bump();
                Ok(Expr::Un(UnOp::Neg, Box::new(self.unary()?)))
            }
            Tok::Not => {
                self.bump();
                Ok(Expr::Un(UnOp::Not, Box::new(self.unary()?)))
            }
            Tok::Hash => {
                self.bump();
                Ok(Expr::Un(UnOp::Len, Box::new(self.unary()?)))
            }
            _ => self.postfix(),
        }
    }

    fn postfix(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.primary()?;
        loop {
            match self.peek() {
                Tok::Dot => {
                    self.bump();
                    let field = self.name()?;
                    let field = Expr::Str(field.into_bytes().into());
                    e = Expr::Index(Box::new(e), Box::new(field));
                }
                Tok::LBracket => {
                    self.bump();
                    let idx = self.expr()?;
                    self.expect(&Tok::RBracket)?;
                    e = Expr::Index(Box::new(e), Box::new(idx));
                }
                Tok::LParen => {
                    // Lua's classic ambiguity: `a = b` followed by a line
                    // starting with `(` must not parse as a call `b(...)`.
                    // Require the call parenthesis on the same line as the
                    // callee's last token.
                    if self.pos > 0 && self.tokens[self.pos].line != self.tokens[self.pos - 1].line
                    {
                        return Ok(e);
                    }
                    self.bump();
                    let mut args = Vec::new();
                    if !self.accept(&Tok::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if !self.accept(&Tok::Comma) {
                                break;
                            }
                        }
                        self.expect(&Tok::RParen)?;
                    }
                    e = Expr::Call(Box::new(e), args);
                }
                _ => return Ok(e),
            }
        }
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        match self.bump() {
            Tok::Nil => Ok(Expr::Nil),
            Tok::True => Ok(Expr::Bool(true)),
            Tok::False => Ok(Expr::Bool(false)),
            Tok::Num(n) => Ok(Expr::Num(n)),
            Tok::Str(s) => Ok(Expr::Str(s.into())),
            Tok::Name(n) => Ok(Expr::Var(n)),
            Tok::LParen => {
                let e = self.expr()?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            Tok::Function => {
                let (params, body) = self.func_rest()?;
                Ok(Expr::Lambda(params, body))
            }
            Tok::LBrace => self.table_lit(),
            other => self.err(format!("unexpected token {other:?} in expression")),
        }
    }

    fn table_lit(&mut self) -> Result<Expr, ParseError> {
        let mut items = Vec::new();
        if self.accept(&Tok::RBrace) {
            return Ok(Expr::TableLit(items));
        }
        loop {
            // `name = value` only counts as a named entry when followed by
            // `=`; otherwise `name` is a positional variable reference.
            let item = if let Tok::Name(n) = self.peek().clone() {
                if self.tokens.get(self.pos + 1).map(|t| &t.kind) == Some(&Tok::Assign) {
                    self.bump();
                    self.bump();
                    TableItem::Named(n, self.expr()?)
                } else {
                    TableItem::Positional(self.expr()?)
                }
            } else {
                TableItem::Positional(self.expr()?)
            };
            items.push(item);
            if !self.accept(&Tok::Comma) {
                break;
            }
            if self.peek() == &Tok::RBrace {
                break; // trailing comma
            }
        }
        self.expect(&Tok::RBrace)?;
        Ok(Expr::TableLit(items))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn p(src: &str) -> Block {
        parse(&lex(src).unwrap()).unwrap()
    }

    fn perr(src: &str) -> ParseError {
        parse(&lex(src).unwrap()).unwrap_err()
    }

    #[test]
    fn parses_local_and_assign() {
        let b = p("local x = 1\nx = x + 1");
        assert_eq!(b.len(), 2);
        assert!(matches!(&b[0], Stmt::Local(n, _) if n == "x"));
        assert!(matches!(&b[1], Stmt::Assign(Expr::Var(_), _)));
    }

    #[test]
    fn precedence_mul_over_add() {
        let b = p("x = 1 + 2 * 3");
        let Stmt::Assign(_, e) = &b[0] else { panic!() };
        assert_eq!(e.to_string(), "(1 + (2 * 3))");
    }

    #[test]
    fn concat_is_right_assoc() {
        let b = p("x = \"a\" .. \"b\" .. \"c\"");
        let Stmt::Assign(_, e) = &b[0] else { panic!() };
        assert_eq!(e.to_string(), "(\"a\" .. (\"b\" .. \"c\"))");
    }

    #[test]
    fn comparison_and_logic() {
        let b = p("x = a < b and c >= d or not e");
        let Stmt::Assign(_, e) = &b[0] else { panic!() };
        assert_eq!(e.to_string(), "(((a < b) and (c >= d)) or (not e))");
    }

    #[test]
    fn if_elseif_else() {
        let b = p("if a then x = 1 elseif b then x = 2 else x = 3 end");
        let Stmt::If(arms, else_blk) = &b[0] else {
            panic!()
        };
        assert_eq!(arms.len(), 2);
        assert!(else_blk.is_some());
    }

    #[test]
    fn numeric_for_with_step() {
        let b = p("for i = 1, 10, 2 do break end");
        assert!(matches!(&b[0], Stmt::NumFor { step: Some(_), .. }));
    }

    #[test]
    fn generic_for() {
        let b = p("for k, v in t do print(k, v) end");
        assert!(matches!(&b[0], Stmt::GenFor { .. }));
    }

    #[test]
    fn function_decl_and_call() {
        let b = p("function f(a, b) return a + b end\nf(1, 2)");
        assert!(matches!(&b[0], Stmt::FuncDecl { name, params, .. }
            if name == "f" && params.len() == 2));
        assert!(matches!(&b[1], Stmt::ExprStmt(Expr::Call(_, args)) if args.len() == 2));
    }

    #[test]
    fn table_literal_mixed() {
        let b = p("t = {1, 2, name = \"x\", nested = {}}");
        let Stmt::Assign(_, Expr::TableLit(items)) = &b[0] else {
            panic!()
        };
        assert_eq!(items.len(), 4);
    }

    #[test]
    fn table_positional_name_not_confused_with_named() {
        let b = p("t = {x, y}");
        let Stmt::Assign(_, Expr::TableLit(items)) = &b[0] else {
            panic!()
        };
        assert!(matches!(items[0], TableItem::Positional(Expr::Var(_))));
    }

    #[test]
    fn chained_postfix() {
        let b = p("x = t.a[1].b(2)(3)");
        let Stmt::Assign(_, e) = &b[0] else { panic!() };
        assert_eq!(e.to_string(), "t.a[1].b(2)(3)");
    }

    #[test]
    fn repeat_until() {
        let b = p("repeat x = x - 1 until x <= 0");
        assert!(matches!(&b[0], Stmt::Repeat(body, _) if body.len() == 1));
    }

    #[test]
    fn unary_precedence() {
        let b = p("x = -a + #b");
        let Stmt::Assign(_, e) = &b[0] else { panic!() };
        assert_eq!(e.to_string(), "((-a) + (#b))");
    }

    #[test]
    fn errors_carry_lines() {
        let e = perr("x = 1\ny = ");
        assert_eq!(e.line, 2);
    }

    #[test]
    fn rejects_bad_assignment_target() {
        assert!(perr("1 = 2").message.contains("assignment"));
        assert!(perr("f() = 2").message.contains("assignment"));
    }

    #[test]
    fn rejects_non_call_expression_statement() {
        assert!(perr("x + 1").message.contains("calls"));
    }

    #[test]
    fn lambda_expression() {
        let b = p("f = function(x) return x end");
        assert!(matches!(&b[0], Stmt::Assign(_, Expr::Lambda(p, _)) if p.len() == 1));
    }

    #[test]
    fn pow_right_assoc() {
        let b = p("x = 2 ^ 3 ^ 2");
        let Stmt::Assign(_, e) = &b[0] else { panic!() };
        assert_eq!(e.to_string(), "(2 ^ (3 ^ 2))");
    }

    #[test]
    fn trailing_comma_in_table() {
        let b = p("t = {1, 2,}");
        let Stmt::Assign(_, Expr::TableLit(items)) = &b[0] else {
            panic!()
        };
        assert_eq!(items.len(), 2);
    }
}

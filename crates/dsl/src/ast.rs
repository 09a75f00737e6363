//! Abstract syntax tree for Cephalo, plus a pretty-printer.
//!
//! The pretty-printer produces parseable source: `parse(print(ast)) == ast`,
//! an invariant enforced by property tests. The monitor service ships
//! scripts around the cluster as source text, so printability doubles as the
//! wire format.

use std::fmt;
use std::rc::Rc;

/// A sequence of statements.
pub type Block = Vec<Stmt>;

/// Statement forms.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `local name = expr`
    Local(String, Expr),
    /// `lhs = expr` where lhs is a name / field / index chain.
    Assign(Expr, Expr),
    /// An expression evaluated for side effects (function calls).
    ExprStmt(Expr),
    /// `if cond then block {elseif cond then block} [else block] end`
    If(Vec<(Expr, Block)>, Option<Block>),
    /// `while cond do block end`
    While(Expr, Block),
    /// `repeat block until cond`
    Repeat(Block, Expr),
    /// `for var = start, stop [, step] do block end`
    NumFor {
        /// Loop variable, freshly scoped per iteration.
        var: String,
        /// Initial value expression.
        start: Expr,
        /// Inclusive bound expression.
        stop: Expr,
        /// Optional step (defaults to 1).
        step: Option<Expr>,
        /// Loop body.
        body: Block,
    },
    /// `for k, v in t do block end` — iterates array part then map part.
    GenFor {
        /// Key/index variable.
        key: String,
        /// Value variable.
        value: String,
        /// Expression yielding the table to iterate.
        iter: Expr,
        /// Loop body.
        body: Block,
    },
    /// `function name(params) block end` (sugar for global assignment).
    FuncDecl {
        /// Global function name.
        name: String,
        /// Parameter names.
        params: Vec<String>,
        /// Function body.
        body: Block,
    },
    /// `return [expr]`
    Return(Option<Expr>),
    /// `break`
    Break,
}

/// Expression forms.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// `nil`
    Nil,
    /// `true` / `false`
    Bool(bool),
    /// Numeric literal.
    Num(f64),
    /// String literal: its bytes, shared with every value it evaluates to.
    Str(Rc<[u8]>),
    /// Variable reference.
    Var(String),
    /// `{ [expr, ...] [name = expr, ...] }`
    TableLit(Vec<TableItem>),
    /// `base[index]` (also `base.field` with a string index).
    Index(Box<Expr>, Box<Expr>),
    /// `f(args...)`
    Call(Box<Expr>, Vec<Expr>),
    /// Anonymous `function(params) body end`.
    Lambda(Vec<String>, Block),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Unary operation.
    Un(UnOp, Box<Expr>),
}

/// One entry in a table constructor.
#[derive(Debug, Clone, PartialEq)]
pub enum TableItem {
    /// Positional entry appended to the array part.
    Positional(Expr),
    /// `name = value` entry in the map part.
    Named(String, Expr),
}

/// Binary operators, in increasing precedence groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Or,
    And,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Concat,
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Pow,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not.
    Not,
    /// Table/string length `#`.
    Len,
}

impl BinOp {
    /// Parser precedence (higher binds tighter). `Pow` and `Concat` are
    /// right-associative.
    pub fn precedence(self) -> u8 {
        match self {
            BinOp::Or => 1,
            BinOp::And => 2,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 3,
            BinOp::Concat => 4,
            BinOp::Add | BinOp::Sub => 5,
            BinOp::Mul | BinOp::Div | BinOp::Mod => 6,
            BinOp::Pow => 8,
        }
    }

    /// Whether the operator associates to the right.
    pub fn right_assoc(self) -> bool {
        matches!(self, BinOp::Concat | BinOp::Pow)
    }

    /// Source spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Or => "or",
            BinOp::And => "and",
            BinOp::Eq => "==",
            BinOp::Ne => "~=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Concat => "..",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Pow => "^",
        }
    }
}

fn fmt_block(block: &Block, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
    for stmt in block {
        stmt.fmt_indented(f, indent)?;
    }
    Ok(())
}

impl Stmt {
    fn fmt_indented(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = "    ".repeat(indent);
        match self {
            Stmt::Local(name, e) => writeln!(f, "{pad}local {name} = {e}"),
            Stmt::Assign(lhs, rhs) => writeln!(f, "{pad}{lhs} = {rhs}"),
            Stmt::ExprStmt(e) => writeln!(f, "{pad}{e}"),
            Stmt::If(arms, else_blk) => {
                for (i, (cond, blk)) in arms.iter().enumerate() {
                    let kw = if i == 0 { "if" } else { "elseif" };
                    writeln!(f, "{pad}{kw} {cond} then")?;
                    fmt_block(blk, f, indent + 1)?;
                }
                if let Some(blk) = else_blk {
                    writeln!(f, "{pad}else")?;
                    fmt_block(blk, f, indent + 1)?;
                }
                writeln!(f, "{pad}end")
            }
            Stmt::While(cond, body) => {
                writeln!(f, "{pad}while {cond} do")?;
                fmt_block(body, f, indent + 1)?;
                writeln!(f, "{pad}end")
            }
            Stmt::Repeat(body, cond) => {
                writeln!(f, "{pad}repeat")?;
                fmt_block(body, f, indent + 1)?;
                writeln!(f, "{pad}until {cond}")
            }
            Stmt::NumFor {
                var,
                start,
                stop,
                step,
                body,
            } => {
                write!(f, "{pad}for {var} = {start}, {stop}")?;
                if let Some(s) = step {
                    write!(f, ", {s}")?;
                }
                writeln!(f, " do")?;
                fmt_block(body, f, indent + 1)?;
                writeln!(f, "{pad}end")
            }
            Stmt::GenFor {
                key,
                value,
                iter,
                body,
            } => {
                writeln!(f, "{pad}for {key}, {value} in {iter} do")?;
                fmt_block(body, f, indent + 1)?;
                writeln!(f, "{pad}end")
            }
            Stmt::FuncDecl { name, params, body } => {
                writeln!(f, "{pad}function {name}({})", params.join(", "))?;
                fmt_block(body, f, indent + 1)?;
                writeln!(f, "{pad}end")
            }
            Stmt::Return(Some(e)) => writeln!(f, "{pad}return {e}"),
            Stmt::Return(None) => writeln!(f, "{pad}return"),
            Stmt::Break => writeln!(f, "{pad}break"),
        }
    }
}

impl fmt::Display for Stmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indented(f, 0)
    }
}

/// Prints a whole block as parseable source.
pub fn print_block(block: &Block) -> String {
    struct P<'a>(&'a Block);
    impl fmt::Display for P<'_> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            fmt_block(self.0, f, 0)
        }
    }
    P(block).to_string()
}

/// A literal's bytes as source: printable ASCII as it is, the rest
/// escaped, so the printed script is text whatever the literal holds.
fn escape(s: &[u8]) -> String {
    use fmt::Write;
    let mut out = String::with_capacity(s.len() + 2);
    for &b in s {
        match b {
            b'\n' => out.push_str("\\n"),
            b'\t' => out.push_str("\\t"),
            b'\r' => out.push_str("\\r"),
            b'\\' => out.push_str("\\\\"),
            b'"' => out.push_str("\\\""),
            b' '..=b'~' => out.push(b as char),
            // Writing to a `String` cannot fail.
            _ => drop(write!(out, "\\x{b:02x}")),
        }
    }
    out
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Nil => write!(f, "nil"),
            Expr::Bool(b) => write!(f, "{b}"),
            Expr::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Expr::Str(s) => write!(f, "\"{}\"", escape(s)),
            Expr::Var(name) => write!(f, "{name}"),
            Expr::TableLit(items) => {
                write!(f, "{{")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    match item {
                        TableItem::Positional(e) => write!(f, "{e}")?,
                        TableItem::Named(k, v) => write!(f, "{k} = {v}")?,
                    }
                }
                write!(f, "}}")
            }
            Expr::Index(base, idx) => {
                if let Expr::Str(s) = idx.as_ref() {
                    if let Some(field) = std::str::from_utf8(s).ok().filter(|s| is_identifier(s)) {
                        return write!(f, "{base}.{field}");
                    }
                }
                write!(f, "{base}[{idx}]")
            }
            Expr::Call(callee, args) => {
                write!(f, "{callee}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Expr::Lambda(params, body) => {
                writeln!(f, "function({})", params.join(", "))?;
                fmt_block(body, f, 1)?;
                write!(f, "end")
            }
            // Fully parenthesize: simple and unambiguous.
            Expr::Bin(op, a, b) => write!(f, "({a} {} {b})", op.symbol()),
            Expr::Un(UnOp::Neg, e) => write!(f, "(-{e})"),
            Expr::Un(UnOp::Not, e) => write!(f, "(not {e})"),
            Expr::Un(UnOp::Len, e) => write!(f, "(#{e})"),
        }
    }
}

/// Whether `s` can be written as a bare `.field` accessor / table key.
pub fn is_identifier(s: &str) -> bool {
    !s.is_empty()
        && s.bytes()
            .next()
            .map(|b| b.is_ascii_alphabetic() || b == b'_')
            .unwrap_or(false)
        && s.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_')
        && !matches!(
            s,
            "and"
                | "break"
                | "do"
                | "else"
                | "elseif"
                | "end"
                | "false"
                | "for"
                | "function"
                | "if"
                | "in"
                | "local"
                | "nil"
                | "not"
                | "or"
                | "repeat"
                | "return"
                | "then"
                | "true"
                | "until"
                | "while"
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identifier_check() {
        assert!(is_identifier("foo_1"));
        assert!(!is_identifier("1foo"));
        assert!(!is_identifier(""));
        assert!(!is_identifier("while"));
        assert!(!is_identifier("a-b"));
    }

    #[test]
    fn display_exprs() {
        let e = Expr::Bin(
            BinOp::Add,
            Box::new(Expr::Num(1.0)),
            Box::new(Expr::Bin(
                BinOp::Mul,
                Box::new(Expr::Var("x".into())),
                Box::new(Expr::Num(2.0)),
            )),
        );
        assert_eq!(e.to_string(), "(1 + (x * 2))");
    }

    #[test]
    fn display_field_vs_index() {
        let field = Expr::Index(
            Box::new(Expr::Var("t".into())),
            Box::new(Expr::Str(b"name"[..].into())),
        );
        assert_eq!(field.to_string(), "t.name");
        let idx = Expr::Index(
            Box::new(Expr::Var("t".into())),
            Box::new(Expr::Str(b"not an id"[..].into())),
        );
        assert_eq!(idx.to_string(), "t[\"not an id\"]");
    }

    #[test]
    fn display_statements() {
        let s = Stmt::NumFor {
            var: "i".into(),
            start: Expr::Num(1.0),
            stop: Expr::Num(10.0),
            step: None,
            body: vec![Stmt::Break],
        };
        assert_eq!(s.to_string(), "for i = 1, 10 do\n    break\nend\n");
    }

    #[test]
    fn string_escaping_round_trips_visually() {
        let e = Expr::Str(b"a\"b\\c\nd"[..].into());
        assert_eq!(e.to_string(), "\"a\\\"b\\\\c\\nd\"");
        let e = Expr::Str("h\u{e9}\0\u{7f}".as_bytes().into());
        assert_eq!(e.to_string(), "\"h\\xc3\\xa9\\x00\\x7f\"");
    }
}

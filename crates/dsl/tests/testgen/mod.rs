//! Seeded random-program generator for differential testing.
//!
//! The tree-walking interpreter is the reference semantics; the bytecode
//! VM must agree with it observation-for-observation. [`generate`] builds
//! a random Cephalo program from a seed and [`check_seed`] runs it on both
//! engines, comparing: the load result (success, or the exact error
//! message), every `print` line, every tracked global (structurally, so
//! distinct table identities with equal contents compare equal), and the
//! result of calling each generated function with fixed arguments.
//!
//! Programs are constrained so a disagreement can only mean an engine bug:
//!
//! * **Fresh names, declare-before-reference.** Every `local` gets a name
//!   never used before, and expressions only reference already-declared
//!   names. This sidesteps the one intentional semantic difference between
//!   the engines (the interpreter's dynamic scope chain lets a closure
//!   observe a local declared *after* it; the compiler resolves lexically
//!   — see DESIGN §18).
//! * **Bounded work.** `while`/`repeat` loops are driven by explicit
//!   counters, numeric `for` ranges are tiny literals, function bodies are
//!   loop-free, and the call graph is acyclic (a function may only call
//!   functions declared before it). Total work stays orders of magnitude
//!   below the default instruction budget, so a budget trip cannot fire
//!   in one engine but not the other merely because their step accounting
//!   differs. (Budget/depth equivalence is tested separately, with
//!   programs built to trip both.)
//! * **Error paths stay in.** Roughly one in fifteen numeric contexts
//!   receives a "wild" expression of arbitrary type, so type errors (and
//!   their exact messages) are exercised; both engines must fail with the
//!   same message after the same observable prefix.

use std::collections::HashSet;

use mala_dsl::ast::{print_block, BinOp, Block, Expr, Stmt, TableItem, UnOp};
use mala_dsl::{Engine, Interp, Script, Table, Value, Vm};

/// Deterministic splitmix64 generator — no external crates, identical
/// sequences on every platform.
pub struct Rng(u64);

impl Rng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next raw 64-bit value. Not an `Iterator`: the stream is infinite
    /// and never yields `None`, so the trait's contract doesn't fit.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// True with probability `p`/100.
    pub fn pct(&mut self, p: u64) -> bool {
        self.below(100) < p
    }
}

/// A generated program plus everything the harness needs to observe it.
pub struct GenProgram {
    /// The program as source (via the AST pretty-printer) — for
    /// diagnostics when a divergence is found.
    pub source: String,
    /// The program AST.
    pub block: Block,
    /// Global names whose final values both engines must agree on.
    pub globals: Vec<String>,
    /// `(name, arity)` of top-level functions to call post-load.
    pub funcs: Vec<(String, usize)>,
}

/// Variable type hints used to bias generation toward programs that run
/// to completion (error paths are still injected deliberately).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Ty {
    Num,
    Str,
    Bool,
    /// A table built with the generator's "numeric shape": array entries
    /// and fields `a`/`b`/`c` all hold numbers.
    Table,
    /// A callable (user function or lambda) taking `n` numeric args and
    /// returning a number.
    Func(u8),
    /// Unknown (e.g. a generic-for key: integer or string).
    Any,
}

struct Gen {
    rng: Rng,
    /// Lexical scopes; `scopes[0]` is the top level (whose `local`s are
    /// globals in both engines).
    scopes: Vec<Vec<(String, Ty)>>,
    /// Top-level functions declared so far, callable from later code.
    funcs: Vec<(String, usize)>,
    /// Observable global names.
    tracked: Vec<String>,
    next_id: u32,
}

/// A string literal holding `bytes`.
fn lit(bytes: &[u8]) -> Expr {
    Expr::Str(bytes.into())
}

/// Generates a random program from `seed`.
pub fn generate(seed: u64) -> GenProgram {
    let mut g = Gen {
        rng: Rng::new(seed),
        scopes: vec![Vec::new()],
        funcs: Vec::new(),
        tracked: Vec::new(),
        next_id: 0,
    };
    let n = 6 + g.rng.below(10);
    let mut block = Vec::new();
    for _ in 0..n {
        g.top_stmt(&mut block);
    }
    let source = print_block(&block);
    GenProgram {
        source,
        block,
        globals: g.tracked,
        funcs: g.funcs,
    }
}

impl Gen {
    fn fresh(&mut self, prefix: &str) -> String {
        let id = self.next_id;
        self.next_id += 1;
        format!("{prefix}{id}")
    }

    fn declare(&mut self, name: &str, ty: Ty) {
        if self.scopes.len() == 1 {
            self.tracked.push(name.to_string());
        }
        self.scopes
            .last_mut()
            .expect("open scope")
            .push((name.to_string(), ty));
    }

    fn pick_var(&mut self, want: Ty) -> Option<(String, Ty)> {
        let matches: Vec<(String, Ty)> = self
            .scopes
            .iter()
            .flatten()
            .filter(|(_, t)| match want {
                Ty::Any => true,
                Ty::Func(_) => matches!(t, Ty::Func(_)),
                w => *t == w,
            })
            .cloned()
            .collect();
        if matches.is_empty() {
            return None;
        }
        let i = self.rng.below(matches.len() as u64) as usize;
        Some(matches[i].clone())
    }

    // ---- expressions -------------------------------------------------

    fn num_expr(&mut self, d: u32) -> Expr {
        // Occasional wild operand: exercises type-error paths.
        if self.rng.pct(7) {
            return self.any_expr(d.saturating_sub(1));
        }
        if d == 0 || self.rng.pct(35) {
            return self.num_leaf();
        }
        match self.rng.below(10) {
            0..=3 => {
                let op = match self.rng.below(6) {
                    0 => BinOp::Add,
                    1 => BinOp::Sub,
                    2 => BinOp::Mul,
                    3 => BinOp::Div,
                    4 => BinOp::Mod,
                    _ => BinOp::Pow,
                };
                Expr::Bin(
                    op,
                    Box::new(self.num_expr(d - 1)),
                    Box::new(self.num_expr(d - 1)),
                )
            }
            4 => {
                // A negative literal directly under `-` would print as
                // `--`, which lexes as a comment; flip it positive.
                let inner = match self.num_expr(d - 1) {
                    Expr::Num(n) if n < 0.0 => Expr::Num(-n),
                    e => e,
                };
                Expr::Un(UnOp::Neg, Box::new(inner))
            }
            5 => {
                // Length of a string or table.
                let inner = if self.rng.pct(50) {
                    self.str_expr(d - 1)
                } else {
                    self.table_expr(d - 1)
                };
                Expr::Un(UnOp::Len, Box::new(inner))
            }
            6 => {
                let f = match self.rng.below(4) {
                    0 => "floor",
                    1 => "ceil",
                    2 => "abs",
                    _ => "sqrt",
                };
                Expr::Call(
                    Box::new(Expr::Var(f.to_string())),
                    vec![self.num_expr(d - 1)],
                )
            }
            7 => {
                let f = if self.rng.pct(50) { "min" } else { "max" };
                Expr::Call(
                    Box::new(Expr::Var(f.to_string())),
                    vec![self.num_expr(d - 1), self.num_expr(d - 1)],
                )
            }
            8 => self.call_user_func(d).unwrap_or_else(|| self.num_leaf()),
            _ => self.index_read(d).unwrap_or_else(|| self.num_leaf()),
        }
    }

    fn num_leaf(&mut self) -> Expr {
        match self.rng.below(6) {
            0 | 1 => Expr::Num(self.rng.below(20) as f64),
            2 => Expr::Num(-(self.rng.below(9) as f64) - 1.0),
            3 => Expr::Num(self.rng.below(40) as f64 / 4.0),
            _ => match self.pick_var(Ty::Num) {
                Some((name, _)) => Expr::Var(name),
                None => Expr::Num(self.rng.below(10) as f64),
            },
        }
    }

    /// Reads a numeric field/entry of a numeric-shape table variable.
    fn index_read(&mut self, d: u32) -> Option<Expr> {
        let (name, _) = self.pick_var(Ty::Table)?;
        let idx = match self.rng.below(5) {
            0 => lit(b"a"),
            1 => lit(b"b"),
            2 => lit(b"c"),
            3 => Expr::Num(1.0 + self.rng.below(2) as f64),
            _ => {
                // Computed (dynamic) index, taking the non-const path.
                let inner = Expr::Num(1.0 + self.rng.below(2) as f64);
                if d > 0 {
                    Expr::Bin(
                        BinOp::Add,
                        Box::new(inner),
                        Box::new(Expr::Num(self.rng.below(2) as f64)),
                    )
                } else {
                    inner
                }
            }
        };
        Some(Expr::Index(Box::new(Expr::Var(name)), Box::new(idx)))
    }

    fn call_user_func(&mut self, d: u32) -> Option<Expr> {
        let (name, ty) = self.pick_var(Ty::Func(0))?;
        let arity = match ty {
            Ty::Func(a) => a as usize,
            _ => return None,
        };
        let args = (0..arity)
            .map(|_| self.num_expr(d.saturating_sub(1).min(1)))
            .collect();
        Some(Expr::Call(Box::new(Expr::Var(name)), args))
    }

    fn str_expr(&mut self, d: u32) -> Expr {
        if d == 0 || self.rng.pct(40) {
            return self.str_leaf();
        }
        match self.rng.below(6) {
            0 | 1 => Expr::Bin(
                BinOp::Concat,
                Box::new(self.str_expr(d - 1)),
                Box::new(if self.rng.pct(50) {
                    self.num_expr(d - 1)
                } else {
                    self.str_expr(d - 1)
                }),
            ),
            2 => Expr::Call(
                Box::new(Expr::Var("tostring".to_string())),
                vec![self.any_expr(d - 1)],
            ),
            3 => Expr::Call(
                Box::new(Expr::Var("sub".to_string())),
                vec![
                    self.str_expr(d - 1),
                    Expr::Num(1.0),
                    Expr::Num(1.0 + self.rng.below(3) as f64),
                ],
            ),
            4 => Expr::Call(
                Box::new(Expr::Var("fmt".to_string())),
                vec![self.num_expr(d - 1)],
            ),
            // A key as the zlog class builds one, 20 to 24 bytes wide:
            // computed strings on both sides of the in-place limit (22).
            _ => Expr::Call(
                Box::new(Expr::Var("zpad".to_string())),
                vec![
                    self.num_expr(d - 1),
                    Expr::Num(20.0 + self.rng.below(5) as f64),
                ],
            ),
        }
    }

    fn str_leaf(&mut self) -> Expr {
        // Text, and bytes that are not: a lone lead byte, a lone
        // continuation, 0xff, a surrogate half, NUL. The printed program
        // spells those with `\xHH` escapes. Three are 21, 22 and 23 bytes
        // long, around the longest string a computed value holds in place.
        const WORDS: [&[u8]; 14] = [
            b"osd",
            b"mds",
            b"pg",
            b"load",
            b"x:y:z",
            b"",
            "h\u{e9}llo".as_bytes(),
            b"o\xc3",
            b"\xa9:\xff",
            b"\xed\xa0\x80",
            b"a\0b",
            b"e00000000000000000005",
            b"e000000000000000000005",
            b"e0000000000000000000005",
        ];
        match self.pick_var(Ty::Str) {
            Some((name, _)) if self.rng.pct(50) => Expr::Var(name),
            _ => lit(WORDS[self.rng.below(WORDS.len() as u64) as usize]),
        }
    }

    fn bool_expr(&mut self, d: u32) -> Expr {
        if d == 0 || self.rng.pct(25) {
            return match self.pick_var(Ty::Bool) {
                Some((name, _)) if self.rng.pct(50) => Expr::Var(name),
                _ => Expr::Bool(self.rng.pct(50)),
            };
        }
        match self.rng.below(8) {
            0..=2 => {
                let op = match self.rng.below(6) {
                    0 => BinOp::Lt,
                    1 => BinOp::Le,
                    2 => BinOp::Gt,
                    3 => BinOp::Ge,
                    4 => BinOp::Eq,
                    _ => BinOp::Ne,
                };
                Expr::Bin(
                    op,
                    Box::new(self.num_expr(d - 1)),
                    Box::new(self.num_expr(d - 1)),
                )
            }
            3 => Expr::Bin(
                if self.rng.pct(50) {
                    BinOp::Eq
                } else {
                    BinOp::Ne
                },
                Box::new(self.str_expr(d - 1)),
                Box::new(self.str_expr(d - 1)),
            ),
            4 => Expr::Bin(
                if self.rng.pct(50) {
                    BinOp::And
                } else {
                    BinOp::Or
                },
                Box::new(self.bool_expr(d - 1)),
                Box::new(self.bool_expr(d - 1)),
            ),
            5 => Expr::Un(UnOp::Not, Box::new(self.bool_expr(d - 1))),
            6 => Expr::Bin(
                BinOp::Ne,
                Box::new(Expr::Call(
                    Box::new(Expr::Var("find".to_string())),
                    vec![self.str_expr(d - 1), lit(b"o")],
                )),
                Box::new(Expr::Nil),
            ),
            _ => Expr::Bin(
                BinOp::Eq,
                Box::new(Expr::Call(
                    Box::new(Expr::Var("type".to_string())),
                    vec![self.any_expr(d - 1)],
                )),
                Box::new(lit(b"number")),
            ),
        }
    }

    /// A numeric-shape table literal: short array part plus fields
    /// `a`/`b`/`c`, all numeric — so later indexing stays well-typed.
    fn table_lit(&mut self, d: u32) -> Expr {
        let mut items = Vec::new();
        let n_pos = 2 + self.rng.below(2);
        for _ in 0..n_pos {
            let e = self.num_expr(d.saturating_sub(1).min(1));
            items.push(TableItem::Positional(e));
        }
        for field in ["a", "b", "c"] {
            let e = self.num_expr(d.saturating_sub(1).min(1));
            items.push(TableItem::Named(field.to_string(), e));
        }
        Expr::TableLit(items)
    }

    fn table_expr(&mut self, d: u32) -> Expr {
        match self.pick_var(Ty::Table) {
            Some((name, _)) if self.rng.pct(70) => Expr::Var(name),
            _ => self.table_lit(d),
        }
    }

    fn any_expr(&mut self, d: u32) -> Expr {
        match self.rng.below(8) {
            0 | 1 => self.num_expr(d),
            2 | 3 => self.str_expr(d),
            4 => self.bool_expr(d),
            5 => self.table_expr(d),
            6 => Expr::Nil,
            _ => match self.pick_var(Ty::Any) {
                Some((name, _)) => Expr::Var(name),
                None => self.num_expr(d),
            },
        }
    }

    // ---- statements --------------------------------------------------

    /// Appends a top-level statement (the only place function
    /// declarations appear).
    fn top_stmt(&mut self, out: &mut Vec<Stmt>) {
        if self.rng.pct(22) && self.funcs.len() < 5 {
            let f = self.func_decl();
            out.push(f);
            return;
        }
        self.stmt_into(out, 2, false, false);
    }

    /// Appends one logical statement (loops emit their bounding counter
    /// declaration alongside themselves).
    fn stmt_into(&mut self, out: &mut Vec<Stmt>, depth: u32, in_loop: bool, in_func: bool) {
        let roll = self.rng.below(100);
        let s = match roll {
            0..=17 => self.local_decl(depth),
            18..=29 => self.assign(depth),
            30..=37 => self.index_assign(depth),
            38..=46 => self.print_stmt(depth),
            47..=58 if depth > 0 => self.if_stmt(depth, in_loop, in_func),
            59..=66 if depth > 0 && !in_func => self.numfor(depth),
            67..=72 if depth > 0 && !in_func => return self.while_loop(out, depth),
            73..=77 if depth > 0 && !in_func => return self.repeat_loop(out, depth),
            78..=84 if depth > 0 && !in_func => self.genfor(depth),
            85..=90 => self.call_stmt(depth),
            91..=95 => self.lambda_decl(depth),
            _ => self.local_decl(depth),
        };
        out.push(s);
    }

    fn body(&mut self, n: u64, depth: u32, in_loop: bool, in_func: bool) -> Block {
        self.scopes.push(Vec::new());
        let mut out = Vec::new();
        for _ in 0..n {
            self.stmt_into(&mut out, depth, in_loop, in_func);
        }
        if in_loop && self.rng.pct(15) {
            out.push(Stmt::If(vec![(self.bool_expr(1), vec![Stmt::Break])], None));
        }
        self.scopes.pop();
        out
    }

    fn local_decl(&mut self, depth: u32) -> Stmt {
        let name = self.fresh("v");
        let (ty, init) = match self.rng.below(10) {
            0..=4 => (Ty::Num, self.num_expr(depth)),
            5 | 6 => (Ty::Str, self.str_expr(depth)),
            7 => (Ty::Bool, self.bool_expr(depth)),
            _ => (Ty::Table, self.table_lit(depth)),
        };
        self.declare(&name, ty);
        Stmt::Local(name, init)
    }

    fn assign(&mut self, depth: u32) -> Stmt {
        // Mostly re-assign an existing var with a same-typed value; the
        // remainder create fresh globals by assignment.
        if self.rng.pct(70) {
            if let Some((name, ty)) = self.pick_var(Ty::Any) {
                if !matches!(ty, Ty::Func(_)) {
                    let rhs = match ty {
                        Ty::Num => self.num_expr(depth),
                        Ty::Str => self.str_expr(depth),
                        Ty::Bool => self.bool_expr(depth),
                        Ty::Table => self.table_expr(depth),
                        _ => self.any_expr(depth),
                    };
                    return Stmt::Assign(Expr::Var(name), rhs);
                }
            }
        }
        let name = self.fresh("g");
        self.tracked.push(name.clone());
        // Record as a global visible from everywhere (scope 0).
        self.scopes[0].push((name.clone(), Ty::Num));
        Stmt::Assign(Expr::Var(name), self.num_expr(depth))
    }

    fn index_assign(&mut self, depth: u32) -> Stmt {
        match self.pick_var(Ty::Table) {
            Some((name, _)) => {
                let idx = match self.rng.below(4) {
                    0 => lit(b"a"),
                    1 => lit(b"b"),
                    2 => Expr::Num(1.0 + self.rng.below(3) as f64),
                    _ => Expr::Bin(
                        BinOp::Add,
                        Box::new(Expr::Num(1.0)),
                        Box::new(Expr::Num(self.rng.below(2) as f64)),
                    ),
                };
                Stmt::Assign(
                    Expr::Index(Box::new(Expr::Var(name)), Box::new(idx)),
                    self.num_expr(depth),
                )
            }
            None => self.local_decl(depth),
        }
    }

    fn print_stmt(&mut self, depth: u32) -> Stmt {
        let n_args = 1 + self.rng.below(2);
        let args = (0..n_args).map(|_| self.any_expr(depth.min(1))).collect();
        Stmt::ExprStmt(Expr::Call(Box::new(Expr::Var("print".to_string())), args))
    }

    fn if_stmt(&mut self, depth: u32, in_loop: bool, in_func: bool) -> Stmt {
        let mut arms = Vec::new();
        let n_arms = 1 + self.rng.below(2);
        for _ in 0..n_arms {
            let cond = self.bool_expr(1);
            let n = 1 + self.rng.below(2);
            let body = self.body(n, depth - 1, in_loop, in_func);
            arms.push((cond, body));
        }
        let else_blk = if self.rng.pct(50) {
            let n = 1 + self.rng.below(2);
            Some(self.body(n, depth - 1, in_loop, in_func))
        } else {
            None
        };
        Stmt::If(arms, else_blk)
    }

    fn numfor(&mut self, depth: u32) -> Stmt {
        let var = self.fresh("v");
        let (start, stop, step) = if self.rng.pct(25) {
            // Descending with explicit step.
            let start = 1 + self.rng.below(4) as i64;
            (start, start - self.rng.below(4) as i64, Some(-1.0))
        } else {
            let start = self.rng.below(3) as i64;
            (start, start + self.rng.below(4) as i64, None)
        };
        self.scopes.push(Vec::new());
        self.declare(&var, Ty::Num);
        let n = 1 + self.rng.below(2);
        let body = self.body(n, depth - 1, true, false);
        self.scopes.pop();
        Stmt::NumFor {
            var,
            start: Expr::Num(start as f64),
            stop: Expr::Num(stop as f64),
            step: step.map(Expr::Num),
            body,
        }
    }

    fn while_loop(&mut self, out: &mut Vec<Stmt>, depth: u32) {
        // Counter-bounded: `local c = 0 while c < K do c = c + 1 ... end`.
        // The counter is deliberately NOT registered in the scope tracker,
        // so no generated statement can reassign it and unbound the loop.
        let c = self.fresh("v");
        out.push(Stmt::Local(c.clone(), Expr::Num(0.0)));
        let k = 1.0 + self.rng.below(3) as f64;
        let mut body = vec![Stmt::Assign(
            Expr::Var(c.clone()),
            Expr::Bin(
                BinOp::Add,
                Box::new(Expr::Var(c.clone())),
                Box::new(Expr::Num(1.0)),
            ),
        )];
        let n = 1 + self.rng.below(2);
        body.extend(self.body(n, depth - 1, true, false));
        out.push(Stmt::While(
            Expr::Bin(
                BinOp::Lt,
                Box::new(Expr::Var(c.clone())),
                Box::new(Expr::Num(k)),
            ),
            body,
        ));
    }

    fn repeat_loop(&mut self, out: &mut Vec<Stmt>, depth: u32) {
        let c = self.fresh("v");
        out.push(Stmt::Local(c.clone(), Expr::Num(0.0)));
        let k = 1.0 + self.rng.below(3) as f64;
        let mut body = vec![Stmt::Assign(
            Expr::Var(c.clone()),
            Expr::Bin(
                BinOp::Add,
                Box::new(Expr::Var(c.clone())),
                Box::new(Expr::Num(1.0)),
            ),
        )];
        let n = 1 + self.rng.below(2);
        body.extend(self.body(n, depth - 1, true, false));
        out.push(Stmt::Repeat(
            body,
            Expr::Bin(BinOp::Ge, Box::new(Expr::Var(c)), Box::new(Expr::Num(k))),
        ));
    }

    fn genfor(&mut self, depth: u32) -> Stmt {
        let key = self.fresh("v");
        let value = self.fresh("v");
        let iter = self.table_expr(1);
        self.scopes.push(Vec::new());
        self.declare(&key, Ty::Any);
        self.declare(&value, Ty::Num);
        let n = 1 + self.rng.below(2);
        let body = self.body(n, depth - 1, true, false);
        self.scopes.pop();
        Stmt::GenFor {
            key,
            value,
            iter,
            body,
        }
    }

    fn call_stmt(&mut self, depth: u32) -> Stmt {
        match self.call_user_func(depth) {
            Some(call) => Stmt::ExprStmt(call),
            None => self.print_stmt(depth),
        }
    }

    /// `local lN = function(p...) ... return <num> end`, later callable —
    /// the lambda captures whatever locals are visible where it appears,
    /// exercising upvalue plumbing.
    fn lambda_decl(&mut self, depth: u32) -> Stmt {
        let name = self.fresh("l");
        let arity = self.rng.below(3) as usize;
        let params: Vec<String> = (0..arity).map(|_| self.fresh("p")).collect();
        self.scopes.push(Vec::new());
        for p in &params {
            let p = p.clone();
            self.declare(&p, Ty::Num);
        }
        let mut body = Vec::new();
        let n = self.rng.below(3);
        for _ in 0..n {
            self.stmt_into(&mut body, depth.min(1), false, true);
        }
        let ret = self.num_expr(1);
        body.push(Stmt::Return(Some(ret)));
        self.scopes.pop();
        self.declare(&name, Ty::Func(arity as u8));
        Stmt::Local(name, Expr::Lambda(params, body))
    }

    /// `function fN(p...) ... return <num> end` at the top level; the
    /// function can call any function declared before it (acyclic call
    /// graph — no unbounded recursion by construction).
    fn func_decl(&mut self) -> Stmt {
        let name = self.fresh("f");
        let arity = self.rng.below(4) as usize;
        let params: Vec<String> = (0..arity).map(|_| self.fresh("p")).collect();
        self.scopes.push(Vec::new());
        for p in &params {
            let p = p.clone();
            self.declare(&p, Ty::Num);
        }
        let n = 1 + self.rng.below(4);
        let mut body = Vec::new();
        for _ in 0..n {
            self.stmt_into(&mut body, 1, false, true);
        }
        let ret = self.num_expr(2);
        body.push(Stmt::Return(Some(ret)));
        self.scopes.pop();
        self.declare(&name, Ty::Func(arity as u8));
        self.funcs.push((name.clone(), arity));
        Stmt::FuncDecl { name, params, body }
    }
}

// ---- differential check ----------------------------------------------

/// A disagreement between the two engines for one seed.
#[derive(Debug)]
pub struct Divergence {
    /// The seed that produced the program.
    pub seed: u64,
    /// The program source.
    pub source: String,
    /// What differed.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "seed {}: {}\n--- program ---\n{}",
            self.seed, self.detail, self.source
        )
    }
}

/// Structural equivalence across engines: numbers compare bitwise-NaN-
/// aware, tables compare by contents (cycle-guarded), and any function
/// compares equal to any function (tree-walker `Func` vs VM `Closure`).
pub fn equivalent(a: &Value, b: &Value) -> bool {
    fn go(a: &Value, b: &Value, seen: &mut HashSet<(usize, usize)>) -> bool {
        match (a, b) {
            (Value::Nil, Value::Nil) => true,
            (Value::Bool(x), Value::Bool(y)) => x == y,
            (Value::Num(x), Value::Num(y)) => x == y || (x.is_nan() && y.is_nan()),
            (Value::Str(x), Value::Str(y)) => x == y,
            (
                Value::Func(_) | Value::Closure(_) | Value::Native(_),
                Value::Func(_) | Value::Closure(_) | Value::Native(_),
            ) => true,
            (Value::Table(x), Value::Table(y)) => {
                let pair = (Rc_addr(x), Rc_addr(y));
                if !seen.insert(pair) {
                    // Already comparing this pair further up the stack:
                    // assume equal to terminate on cyclic structures.
                    return true;
                }
                let (tx, ty) = (x.borrow(), y.borrow());
                let ex: Vec<_> = tx.iter().collect();
                let ey: Vec<_> = ty.iter().collect();
                if ex.len() != ey.len() {
                    return false;
                }
                ex.iter()
                    .zip(ey.iter())
                    .all(|((ka, va), (kb, vb))| ka == kb && go(va, vb, seen))
            }
            _ => false,
        }
    }
    #[allow(non_snake_case)]
    fn Rc_addr<T>(rc: &std::rc::Rc<std::cell::RefCell<T>>) -> usize {
        std::rc::Rc::as_ptr(rc) as usize
    }
    go(a, b, &mut HashSet::new())
}

/// Runs the program for `seed` on both engines and compares every
/// observation.
///
/// # Errors
///
/// Returns the first [`Divergence`] found, with the program source.
pub fn check_seed(seed: u64) -> Result<(), Divergence> {
    let prog = generate(seed);
    let fail = |detail: String| Divergence {
        seed,
        source: prog.source.clone(),
        detail,
    };

    let script = Script {
        block: prog.block.clone(),
        source: prog.source.clone(),
    };
    let mut interp = Interp::new();
    let mut vm = Vm::new();
    let ri = interp.load(&script);
    let rv = vm.load(&script);
    match (&ri, &rv) {
        (Ok(()), Ok(())) => {}
        (Err(a), Err(b)) => {
            if a.message != b.message {
                return Err(fail(format!(
                    "load errors differ: interp=`{}` vm=`{}`",
                    a.message, b.message
                )));
            }
        }
        (a, b) => {
            return Err(fail(format!(
                "load results differ: interp={:?} vm={:?}",
                a.as_ref().map(|()| "ok").map_err(|e| &e.message),
                b.as_ref().map(|()| "ok").map_err(|e| &e.message),
            )));
        }
    }
    let oi = interp.take_output();
    let ov = vm.take_output();
    if oi != ov {
        return Err(fail(format!(
            "load output differs:\ninterp: {oi:?}\nvm:     {ov:?}"
        )));
    }
    for name in &prog.globals {
        let a = interp.global(name);
        let b = vm.global(name);
        if !equivalent(&a, &b) {
            return Err(fail(format!(
                "global `{name}` differs after load: interp={} vm={}",
                a.display(),
                b.display()
            )));
        }
    }

    // Only exercise calls if the load completed on both engines.
    if ri.is_ok() {
        for (fname, arity) in &prog.funcs {
            let args: Vec<Value> = (0..*arity).map(|i| Value::from(i as f64 + 1.0)).collect();
            let ci = interp.call(fname, &args, &mut ());
            let cv = vm.call(fname, &args, &mut ());
            match (&ci, &cv) {
                (Ok(a), Ok(b)) => {
                    if !equivalent(a, b) {
                        return Err(fail(format!(
                            "call `{fname}` results differ: interp={} vm={}",
                            a.display(),
                            b.display()
                        )));
                    }
                }
                (Err(a), Err(b)) => {
                    if a.message != b.message {
                        return Err(fail(format!(
                            "call `{fname}` errors differ: interp=`{}` vm=`{}`",
                            a.message, b.message
                        )));
                    }
                }
                (a, b) => {
                    return Err(fail(format!(
                        "call `{fname}` outcomes differ: interp ok={} vm ok={}",
                        a.is_ok(),
                        b.is_ok()
                    )));
                }
            }
            let oi = interp.take_output();
            let ov = vm.take_output();
            if oi != ov {
                return Err(fail(format!(
                    "call `{fname}` output differs:\ninterp: {oi:?}\nvm:     {ov:?}"
                )));
            }
            for name in &prog.globals {
                let a = interp.global(name);
                let b = vm.global(name);
                if !equivalent(&a, &b) {
                    return Err(fail(format!(
                        "global `{name}` differs after calling `{fname}`: interp={} vm={}",
                        a.display(),
                        b.display()
                    )));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate(42);
        let b = generate(42);
        assert_eq!(a.source, b.source);
        assert_eq!(a.globals, b.globals);
        let c = generate(43);
        assert_ne!(a.source, c.source);
    }

    #[test]
    fn generated_source_is_parseable() {
        for seed in 0..50 {
            let prog = generate(seed);
            Script::compile(&prog.source)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{}", prog.source));
        }
    }

    #[test]
    fn equivalence_rules() {
        assert!(equivalent(&Value::Num(f64::NAN), &Value::Num(f64::NAN)));
        assert!(!equivalent(&Value::Num(1.0), &Value::Num(2.0)));
        let mut ta = Table::new();
        ta.push(Value::from(1.0));
        ta.set_str("k", Value::str("v"));
        let mut tb = Table::new();
        tb.push(Value::from(1.0));
        tb.set_str("k", Value::str("v"));
        assert!(equivalent(&Value::from_table(ta), &Value::from_table(tb)));
        let tc = Value::table();
        assert!(!equivalent(&tc, &Value::from(1.0)));
    }

    #[test]
    fn smoke_first_hundred_seeds() {
        for seed in 0..100 {
            if let Err(d) = check_seed(seed) {
                panic!("divergence: {d}");
            }
        }
    }
}

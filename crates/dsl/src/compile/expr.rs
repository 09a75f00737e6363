//! Expressions: operands, destinations and conditions.

use std::rc::Rc;

use super::{CompileError, Compiler, Op, Rk, VarRef, NO_JUMP};
use crate::ast::{BinOp, Block, Expr, TableItem, UnOp};
use crate::value::{Key, Str, Value};

impl Compiler {
    /// One numeric-`for` bound into the next slot, checked to be a number.
    pub(super) fn mark_num(&mut self, e: &Expr) -> Result<u16, CompileError> {
        let slot = self.alloc()?;
        self.expr_to(e, slot)?;
        self.emit(Op::CheckNum { src: slot })?;
        Ok(slot)
    }

    /// Compiles a nested function body into a child proto of the current
    /// function; returns its index for [`Op::Closure`].
    pub(super) fn function(
        &mut self,
        name: &str,
        params: &[String],
        body: &Block,
    ) -> Result<u16, CompileError> {
        self.push_func(name, params, body)?;
        self.block(body)?;
        let proto = self.pop_func()?;
        let protos = &mut self.fs().proto.protos;
        let idx = Self::pool_idx(protos.len(), 1 << 16, "nested functions")?;
        protos.push(proto);
        Ok(idx)
    }

    /// The operand `e` already is, if it is one: a literal is a constant,
    /// a plain local is its slot, and neither needs an instruction.
    fn leaf(&mut self, e: &Expr) -> Result<Option<Rk>, CompileError> {
        Ok(Some(match e {
            Expr::Nil => self.konst(Value::Nil)?,
            Expr::Bool(b) => self.konst(Value::Bool(*b))?,
            Expr::Num(n) => self.konst(Value::Num(*n))?,
            Expr::Str(s) => self.konst(Value::Str(Str::Heap(Rc::clone(s))))?,
            Expr::Var(name) => match self.resolve(name) {
                VarRef::Plain(slot) => Rk(slot),
                _ => return Ok(None),
            },
            _ => return Ok(None),
        }))
    }

    fn move_to(&mut self, dst: u16, from: u16) -> Result<(), CompileError> {
        if dst != from {
            let src = Rk(from);
            self.emit(Op::Move { dst, src })?;
        }
        Ok(())
    }

    /// `e` as an operand: itself if it is a leaf, else computed into the
    /// fresh slot `dst`.
    fn operand_in(&mut self, e: &Expr, dst: u16) -> Result<Rk, CompileError> {
        if let Some(rk) = self.leaf(e)? {
            return Ok(rk);
        }
        self.expr_to(e, dst)?;
        Ok(Rk(dst))
    }

    /// `e` as an operand, computed into a new temporary if it is no leaf.
    /// The temporary stays taken: the caller restores `free`.
    pub(super) fn operand(&mut self, e: &Expr) -> Result<Rk, CompileError> {
        if let Some(rk) = self.leaf(e)? {
            return Ok(rk);
        }
        let tmp = self.alloc()?;
        self.expr_to(e, tmp)?;
        Ok(Rk(tmp))
    }

    /// Compiles `e` so that its value ends in `dst`, a slot `e` cannot
    /// read (a new local's, a temporary): it serves as the first temporary.
    pub(super) fn expr_to(&mut self, e: &Expr, dst: u16) -> Result<(), CompileError> {
        self.expr_via(e, dst, dst)
    }

    /// Compiles `e` so that its value ends in `dst`. `tmp` is a slot `e`
    /// cannot read and is written freely while `e` is evaluated; `dst` is
    /// written by the last instruction alone, which has read its operands
    /// by then — so `dst` may be a local `e` reads (`x = x + 1` is one
    /// instruction, `x = {x}` builds in `tmp` and moves). Subexpressions
    /// take further temporaries above `free`, released on return.
    pub(super) fn expr_via(&mut self, e: &Expr, dst: u16, tmp: u16) -> Result<(), CompileError> {
        if let Some(src) = self.leaf(e)? {
            if src != Rk(dst) {
                self.emit(Op::Move { dst, src })?;
            }
            return Ok(());
        }
        let mark = self.fs().free;
        match e {
            Expr::Var(name) => {
                let op = match self.resolve(name) {
                    VarRef::Boxed(b) => Op::LoadBox { dst, b },
                    VarRef::Upval(u) => Op::LoadUpval { dst, u },
                    VarRef::Global => {
                        let name = self.name_idx(name)?;
                        Op::LoadGlobal { dst, name }
                    }
                    VarRef::Plain(_) => unreachable!("a plain local is a leaf"),
                };
                self.emit(op)?;
            }
            Expr::TableLit(items) => {
                self.emit(Op::NewTable { dst: tmp })?;
                for item in items {
                    let (TableItem::Positional(e) | TableItem::Named(_, e)) = item;
                    let src = self.operand(e)?;
                    let table = tmp;
                    let op = match item {
                        TableItem::Positional(_) => Op::TablePush { table, src },
                        TableItem::Named(k, _) => {
                            let key = self.key_idx(Key::Str(Str::new(k.as_bytes())))?;
                            Op::TableSetConst { table, key, src }
                        }
                    };
                    self.emit(op)?;
                    self.fs().free = mark;
                }
                self.move_to(dst, tmp)?;
            }
            Expr::Index(base, idx) => {
                let base = self.operand_in(base, tmp)?;
                match const_key(idx) {
                    Some(k) => {
                        let key = self.key_idx(k)?;
                        self.emit(Op::GetConst { dst, base, key })?;
                    }
                    None => {
                        let idx = self.operand(idx)?;
                        self.emit(Op::GetIndex { dst, base, idx })?;
                    }
                }
            }
            Expr::Call(callee, args) => {
                // Callee and arguments go to consecutive slots at the top
                // of the frame — `tmp` itself when it is the top — which
                // the callee's frame then overlays.
                let at = if tmp + 1 == mark { tmp } else { self.alloc()? };
                self.expr_to(callee, at)?;
                for a in args {
                    let slot = self.alloc()?;
                    self.expr_to(a, slot)?;
                }
                // `alloc` has bounded the count.
                let argc = args.len() as u16;
                self.emit(Op::Call { at, argc })?;
                self.move_to(dst, at)?;
            }
            Expr::Lambda(params, body) => {
                let proto = self.function("<anonymous>", params, body)?;
                self.emit(Op::Closure { dst, proto })?;
            }
            Expr::Bin(op @ (BinOp::And | BinOp::Or), a, b) => {
                // As a value: the lhs, unless it leaves the rhs to decide.
                self.expr_to(a, tmp)?;
                let src = Rk(tmp);
                let (want, to) = (*op == BinOp::Or, NO_JUMP);
                let decided = self.emit(Op::JumpIf { src, want, to })?;
                self.expr_to(b, tmp)?;
                self.patch(decided);
                self.move_to(dst, tmp)?;
            }
            Expr::Bin(BinOp::Concat, first, rest) => {
                // `..` is right-associative, so a chain is the right spine
                // of the tree: every operand gets the next slot, then all
                // are joined once.
                let first_slot = self.alloc()?;
                self.expr_to(first, first_slot)?;
                let mut rest = rest;
                while let Expr::Bin(BinOp::Concat, next, tail) = &**rest {
                    let slot = self.alloc()?;
                    self.expr_to(next, slot)?;
                    rest = tail;
                }
                let last = self.alloc()?;
                self.expr_to(rest, last)?;
                self.emit(Op::Concat {
                    dst,
                    first: first_slot,
                    n: last - first_slot + 1,
                })?;
            }
            Expr::Bin(op, a, b) => {
                let a = self.operand_in(a, tmp)?;
                let b = self.operand(b)?;
                // `a > b` is "not `a <= b`": the operands (and so the error
                // an unordered pair raises) stay where they are.
                let want = !matches!(op, BinOp::Ne | BinOp::Gt | BinOp::Ge);
                self.emit(match op {
                    BinOp::Add => Op::Add { dst, a, b },
                    BinOp::Sub => Op::Sub { dst, a, b },
                    BinOp::Mul => Op::Mul { dst, a, b },
                    BinOp::Div => Op::Div { dst, a, b },
                    BinOp::Mod => Op::Mod { dst, a, b },
                    BinOp::Pow => Op::Pow { dst, a, b },
                    BinOp::Eq | BinOp::Ne => Op::Eq { dst, a, b, want },
                    BinOp::Lt | BinOp::Ge => Op::Lt { dst, a, b, want },
                    BinOp::Le | BinOp::Gt => Op::Le { dst, a, b, want },
                    BinOp::And | BinOp::Or | BinOp::Concat => unreachable!("handled above"),
                })?;
            }
            Expr::Un(op, x) => {
                let src = self.operand_in(x, tmp)?;
                self.emit(match op {
                    UnOp::Neg => Op::Neg { dst, src },
                    UnOp::Not => Op::Not { dst, src },
                    UnOp::Len => Op::Len { dst, src },
                })?;
            }
            _ => unreachable!("a literal is a leaf"),
        }
        self.fs().free = mark;
        Ok(())
    }

    /// Compiles `e` as a condition: code that jumps when `e`'s truthiness
    /// is `want` and falls through when it is not. Returns the list `sites`
    /// ([`NO_JUMP`]) with those jumps added, for the caller to patch. `and`
    /// / `or` / `not` become control flow: no boolean is built.
    pub(super) fn cond(&mut self, e: &Expr, want: bool, sites: u16) -> Result<u16, CompileError> {
        let mark = self.fs().free;
        let to = sites;
        let jump = match e {
            Expr::Nil | Expr::Bool(_) | Expr::Num(_) | Expr::Str(_) => {
                if matches!(e, Expr::Nil | Expr::Bool(false)) == want {
                    return Ok(sites);
                }
                Op::Jump(to)
            }
            Expr::Un(UnOp::Not, x) => return self.cond(x, !want, sites),
            Expr::Bin(op @ (BinOp::And | BinOp::Or), a, b) => {
                // `or` is decided by a truthy lhs, `and` by a falsey one.
                let decided_by = *op == BinOp::Or;
                if want == decided_by {
                    let sites = self.cond(a, want, sites)?;
                    return self.cond(b, want, sites);
                }
                let decided = self.cond(a, decided_by, NO_JUMP)?;
                let sites = self.cond(b, want, sites)?;
                self.patch(decided);
                return Ok(sites);
            }
            Expr::Bin(
                op @ (BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge),
                a,
                b,
            ) => {
                let (a, b) = (self.operand(a)?, self.operand(b)?);
                let want = want != matches!(op, BinOp::Ne | BinOp::Gt | BinOp::Ge);
                match op {
                    BinOp::Eq | BinOp::Ne => Op::JumpEq { a, b, want, to },
                    BinOp::Lt | BinOp::Ge => Op::JumpLt { a, b, want, to },
                    _ => Op::JumpLe { a, b, want, to },
                }
            }
            _ => {
                let src = self.operand(e)?;
                Op::JumpIf { src, want, to }
            }
        };
        self.fs().free = mark;
        self.emit(jump)
    }
}

/// A compile-time constant table key, if `idx` is one. Non-integer
/// numeric literals return `None` so the "non-integer table key" error
/// still fires at runtime, at the same execution point as the
/// interpreter's.
pub(super) fn const_key(idx: &Expr) -> Option<Key> {
    match idx {
        Expr::Str(s) => Some(Key::Str(Str::Heap(Rc::clone(s)))),
        Expr::Num(n) if n.fract() == 0.0 => Some(Key::Int(*n as i64)),
        _ => None,
    }
}

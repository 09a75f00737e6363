//! Statements: blocks, loops and their `break`s.

use super::expr::const_key;
use super::{CompileError, Compiler, LoopCtx, Op, Rk, VarRef, NO_JUMP};
use crate::ast::{Block, Expr, Stmt};

impl Compiler {
    pub(super) fn block(&mut self, block: &Block) -> Result<(), CompileError> {
        for stmt in block {
            self.stmt(stmt)?;
        }
        Ok(())
    }

    fn scoped_block(&mut self, block: &Block) -> Result<(), CompileError> {
        self.begin_scope();
        self.block(block)?;
        self.end_scope();
        Ok(())
    }

    fn begin_loop(&mut self, genfor: bool) {
        let breaks = NO_JUMP;
        self.fs().loops.push(LoopCtx { breaks, genfor });
    }

    /// The loop's end: its `break`s land here.
    fn end_loop(&mut self) {
        let breaks = self.fs().loops.pop().expect("loop ctx").breaks;
        self.patch(breaks);
    }

    /// One statement. Every temporary it takes is free again at its end.
    fn stmt(&mut self, stmt: &Stmt) -> Result<(), CompileError> {
        let mark = self.fs().free;
        match stmt {
            Stmt::Local(name, e) => {
                if self.at_top_level() {
                    let src = self.operand(e)?;
                    let name = self.name_idx(name)?;
                    self.emit(Op::StoreGlobal { name, src })?;
                } else if self.fs().captured.contains(name) {
                    let src = self.operand(e)?;
                    self.bind_box(name, src)?;
                } else {
                    // The name is bound after its initialiser is compiled
                    // (`local x = x` reads the outer `x`), and keeps its
                    // slot until the scope ends.
                    let slot = self.alloc()?;
                    self.expr_to(e, slot)?;
                    self.bind(name, VarRef::Plain(slot));
                    return Ok(());
                }
            }
            Stmt::Assign(Expr::Var(name), rhs) => match self.resolve(name) {
                // `rhs` may read the local it is assigned to.
                VarRef::Plain(slot) => {
                    let tmp = self.alloc()?;
                    self.expr_via(rhs, slot, tmp)?;
                }
                var => {
                    let src = self.operand(rhs)?;
                    let op = match var {
                        VarRef::Boxed(b) => Op::StoreBox { b, src },
                        VarRef::Upval(u) => Op::StoreUpval { u, src },
                        _ => Op::StoreGlobal {
                            name: self.name_idx(name)?,
                            src,
                        },
                    };
                    self.emit(op)?;
                }
            },
            Stmt::Assign(Expr::Index(base, idx), rhs) => {
                // RHS first, matching the interpreter's evaluation order.
                let src = self.operand(rhs)?;
                let base = self.operand(base)?;
                match const_key(idx) {
                    Some(k) => {
                        let key = self.key_idx(k)?;
                        self.emit(Op::SetConst { base, key, src })?;
                    }
                    None => {
                        let idx = self.operand(idx)?;
                        self.emit(Op::SetIndex { base, idx, src })?;
                    }
                }
            }
            Stmt::Assign(..) => {
                return Err(CompileError {
                    message: "invalid assignment target".to_string(),
                })
            }
            Stmt::ExprStmt(e) => {
                self.operand(e)?;
            }
            Stmt::If(arms, else_blk) => {
                let mut ends = NO_JUMP;
                for (i, (cond, body)) in arms.iter().enumerate() {
                    let skip = self.cond(cond, false, NO_JUMP)?;
                    self.scoped_block(body)?;
                    if else_blk.is_some() || i + 1 < arms.len() {
                        ends = self.emit(Op::Jump(ends))?;
                    }
                    self.patch(skip);
                }
                if let Some(body) = else_blk {
                    self.scoped_block(body)?;
                }
                self.patch(ends);
            }
            Stmt::While(cond, body) => {
                let head = self.here();
                let exit = self.cond(cond, false, NO_JUMP)?;
                self.begin_loop(false);
                self.scoped_block(body)?;
                self.emit(Op::Jump(head))?;
                self.patch(exit);
                self.end_loop();
            }
            Stmt::Repeat(body, cond) => {
                let head = self.here();
                self.begin_loop(false);
                // The until-condition sees the body's scope, so the scope
                // stays open across it (the interpreter evaluates the
                // condition in the iteration's child scope).
                self.begin_scope();
                self.block(body)?;
                let again = self.cond(cond, false, NO_JUMP)?;
                self.patch_to(again, head);
                self.end_scope();
                self.end_loop();
            }
            Stmt::NumFor {
                var,
                start,
                stop,
                step,
                body,
            } => {
                // Four hidden slots spanning the loop: the control triple
                // (value, stop, step), then the copy of the value the body
                // sees. Bounds are evaluated and number-checked one at a
                // time, exactly as the interpreter interleaves eval + check
                // (a default step is checked too: one step per loop entry).
                let ctl = self.mark_num(start)?;
                self.mark_num(stop)?;
                self.mark_num(step.as_ref().unwrap_or(&Expr::Num(1.0)))?;
                let seen = self.alloc()?;
                let prep = self.emit(Op::ForPrep {
                    slot: ctl,
                    to: NO_JUMP,
                })?;
                let to = self.here();
                self.begin_loop(false);
                self.begin_scope();
                self.bind_slot(var, seen)?;
                self.block(body)?;
                self.end_scope();
                self.emit(Op::ForLoop { slot: ctl, to })?;
                self.patch(prep);
                self.end_loop();
            }
            Stmt::GenFor {
                key,
                value,
                iter,
                body,
            } => {
                let src = self.operand(iter)?;
                self.emit(Op::IterNew { src })?;
                self.fs().free = mark;
                let dst = self.alloc()?;
                self.alloc()?;
                let head = self.here();
                let exit = self.emit(Op::IterNext { dst, to: NO_JUMP })?;
                self.begin_loop(true);
                self.begin_scope();
                self.bind_slot(key, dst)?;
                self.bind_slot(value, dst + 1)?;
                self.block(body)?;
                self.end_scope();
                self.emit(Op::Jump(head))?;
                self.patch(exit);
                self.end_loop();
            }
            Stmt::FuncDecl { name, params, body } => {
                let dst = self.alloc()?;
                let proto = self.function(name, params, body)?;
                self.emit(Op::Closure { dst, proto })?;
                let name = self.name_idx(name)?;
                let src = Rk(dst);
                self.emit(Op::StoreGlobal { name, src })?;
            }
            Stmt::Return(Some(e)) => {
                let src = self.operand(e)?;
                self.emit(Op::Ret { src })?;
            }
            Stmt::Return(None) => self.ret_nil()?,
            // `break` without an enclosing loop unwinds the whole call,
            // yielding nil — the interpreter's Flow::Break is absorbed by
            // call_value the same way.
            Stmt::Break => match self.fs().loops.last().map(|ctx| ctx.genfor) {
                Some(genfor) => {
                    if genfor {
                        self.emit(Op::IterDrop)?;
                    }
                    let earlier = self.fs().loops.last().expect("loop ctx").breaks;
                    let j = self.emit(Op::Jump(earlier))?;
                    self.fs().loops.last_mut().expect("loop ctx").breaks = j;
                }
                None => self.ret_nil()?,
            },
        }
        self.fs().free = mark;
        Ok(())
    }
}

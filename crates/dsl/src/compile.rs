//! Bytecode compiler for Cephalo: lowers the AST to compact stack-machine
//! chunks executed by [`crate::vm::Vm`].
//!
//! The tree-walking interpreter ([`crate::interp::Interp`]) remains the
//! reference semantics; the compiler/VM pair exists because per-op policy
//! evaluation (Mantle ticks, object-class calls) is a hot path. Lowering
//! decisions that matter for equivalence:
//!
//! * **Locals are frame slots.** Every `local` resolves at compile time to
//!   a slot index in the enclosing function's frame; reads and writes are
//!   array indexing instead of hash lookups along a scope chain.
//! * **Captured locals are boxed.** A conservative pre-pass collects every
//!   name referenced inside nested function literals; locals with those
//!   names get `Rc<RefCell<Value>>` box slots so closures share the same
//!   storage the interpreter's `Rc<Scope>` chain provides. Re-executing a
//!   declaration (each loop iteration) allocates a fresh box, matching the
//!   interpreter's fresh per-iteration scopes.
//! * **Constant keys are pre-built.** `t.field` and `t[3]` compile to
//!   [`Op::GetConst`]/[`Op::SetConst`] with a [`Key`] from the proto's key
//!   pool — no per-access key conversion or string allocation.
//! * **Top-level `local` is a global.** The interpreter executes the top
//!   level directly in the root (global) scope, so a top-level `local`
//!   declares a global; the compiler emits [`Op::StoreGlobal`] there.
//!
//! One deliberate semantic difference from the tree-walker, documented in
//! DESIGN §18: the compiler resolves names *lexically*, so a function
//! literal referencing a local declared **later** in an enclosing block
//! sees a global, where the interpreter's dynamic scope-chain lookup would
//! see the local once it is declared. This matches Lua's actual scoping
//! rules; the differential generator ([`crate::testgen`]) only emits
//! references to already-declared names.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::rc::Rc;

use crate::ast::{BinOp, Block, Expr, Stmt, TableItem, UnOp};
use crate::value::{Key, Value};
use crate::Script;

/// A compile-time error (e.g. invalid assignment target, pool overflow).
#[derive(Debug, Clone, PartialEq)]
pub struct CompileError {
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "compile error: {}", self.message)
    }
}

impl std::error::Error for CompileError {}

/// One bytecode instruction. Operands index the current proto's pools.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Push `consts[i]`.
    Const(u16),
    /// Push `nil`.
    Nil,
    /// Push `true`.
    True,
    /// Push `false`.
    False,
    /// Discard the top of stack.
    Pop,
    /// Push a copy of plain local slot `i`.
    LoadLocal(u16),
    /// Pop into plain local slot `i`.
    StoreLocal(u16),
    /// Push a copy of the value in box slot `i`.
    LoadBox(u16),
    /// Pop into the existing box in slot `i`.
    StoreBox(u16),
    /// Pop a value and bind a *fresh* box in slot `i` (a declaration).
    NewBox(u16),
    /// Push a copy of the closure's upvalue `i`.
    LoadUpval(u16),
    /// Pop into the closure's upvalue `i`.
    StoreUpval(u16),
    /// Push the global named `names[i]` (`nil` if unset).
    LoadGlobal(u16),
    /// Pop into the global named `names[i]`.
    StoreGlobal(u16),
    /// Push a fresh empty table.
    NewTable,
    /// Pop a value, append it to the table now on top (table stays).
    TablePush,
    /// Pop a value, set `table[keys[i]]` on the table now on top.
    TableSetConst(u16),
    /// Pop index then base; push `base[index]`.
    GetIndex,
    /// Pop base; push `base[keys[i]]`.
    GetConst(u16),
    /// Stack `[value, base, index]` (index on top): pop all three and
    /// perform `base[index] = value`. Matches the interpreter's
    /// rhs-before-lhs evaluation order.
    SetIndex,
    /// Stack `[value, base]`: pop both, `base[keys[i]] = value`.
    SetConst(u16),
    /// Arithmetic / comparison: pop rhs then lhs, push result.
    Add,
    /// See [`Op::Add`].
    Sub,
    /// See [`Op::Add`].
    Mul,
    /// See [`Op::Add`].
    Div,
    /// Floor-mod with the sign of the divisor (Lua semantics).
    Mod,
    /// See [`Op::Add`].
    Pow,
    /// A whole `..` chain: pop its `n` operands (pushed in source order),
    /// push their concatenation with number/bool/nil coercion, built once.
    Concat(u16),
    /// Structural/identity equality (the `Value` ABI's `==`).
    Eq,
    /// Negation of [`Op::Eq`].
    Ne,
    /// See [`Op::Add`].
    Lt,
    /// See [`Op::Add`].
    Le,
    /// See [`Op::Add`].
    Gt,
    /// See [`Op::Add`].
    Ge,
    /// Pop a number, push its negation.
    Neg,
    /// Pop a value, push `not truthy`.
    Not,
    /// Pop a table/string, push its length.
    Len,
    /// Error unless the top of stack is a number (numeric-`for` bounds).
    CheckNum,
    /// Unconditional jump to instruction `target`.
    Jump(u32),
    /// Pop; jump if the value was falsey.
    JumpIfFalse(u32),
    /// `and`: if top is falsey jump *keeping* it, else pop and continue.
    JumpIfFalsePeek(u32),
    /// `or`: if top is truthy jump *keeping* it, else pop and continue.
    JumpIfTruePeek(u32),
    /// Pop step, stop, start (all pre-checked numbers); reject a zero
    /// step; store the control triple at plain slots `[slot, slot+2]`;
    /// jump to `exit` if the range is empty.
    ForPrep {
        /// First of three consecutive control slots (i, stop, step).
        slot: u16,
        /// Jump target when the loop body never runs.
        exit: u32,
    },
    /// Advance the control variable by step; jump to `back` (the body
    /// head) while still in range.
    ForLoop {
        /// First control slot, as in [`Op::ForPrep`].
        slot: u16,
        /// Body-head target for the next iteration.
        back: u32,
    },
    /// Pop a table; push a snapshot iterator onto the iterator stack.
    IterNew,
    /// Push the next key and value of the top iterator; on exhaustion,
    /// pop the iterator and jump to `target`.
    IterNext(u32),
    /// Pop the top iterator (breaking out of a generic `for`).
    IterDrop,
    /// Pop `n` arguments and the callee beneath them; invoke it.
    Call(u16),
    /// Pop the return value and tear down the current frame.
    Ret,
    /// Return `nil` from the current function.
    RetNil,
    /// Instantiate child proto `i`, capturing its upvalues; push it.
    Closure(u16),
}

/// How a closure obtains one upvalue when instantiated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpvalDesc {
    /// Share the creating frame's box slot `i`.
    ParentBox(u16),
    /// Share the creating closure's own upvalue `i`.
    ParentUpval(u16),
}

/// A compiled function body: code plus its pools and child protos.
#[derive(Debug)]
pub struct Proto {
    /// Diagnostic name (`<main>`, the declared name, or `<anonymous>`).
    pub name: String,
    /// Parameter names (arity = `params.len()`), kept for display parity
    /// with the interpreter's `<function f(a, b)>` formatting.
    pub params: Vec<String>,
    /// Plain local slots the frame needs (parameters occupy the first).
    pub n_slots: u16,
    /// Box slots the frame needs (captured locals).
    pub n_boxes: u16,
    /// Push-able constants (numbers and strings).
    pub consts: Vec<Value>,
    /// Pre-built table keys for const-key indexing.
    pub keys: Vec<Key>,
    /// Interned global names.
    pub names: Vec<Rc<str>>,
    /// The instruction stream.
    pub code: Vec<Op>,
    /// Upvalue capture plan, indexed by `LoadUpval`/`StoreUpval`.
    pub upvals: Vec<UpvalDesc>,
    /// Child protos, indexed by [`Op::Closure`].
    pub protos: Vec<Rc<Proto>>,
}

/// A fully compiled script.
#[derive(Debug, Clone)]
pub struct Chunk {
    /// The top-level proto (children hang off it).
    pub main: Rc<Proto>,
}

/// Compiles a parsed script to bytecode.
///
/// # Errors
///
/// Fails on constructs with no runtime meaning (assignment to a
/// non-lvalue) or pool overflow (≥ 2¹⁶ constants in one function).
pub fn compile(script: &Script) -> Result<Chunk, CompileError> {
    compile_block(&script.block)
}

/// Compiles a bare block as a top-level chunk (used by tests/tools).
///
/// # Errors
///
/// See [`compile`].
pub fn compile_block(block: &Block) -> Result<Chunk, CompileError> {
    let mut c = Compiler { funcs: Vec::new() };
    c.push_func("<main>", &[], block);
    c.block(block)?;
    c.emit(Op::RetNil);
    let fs = c.funcs.pop().expect("main function state");
    Ok(Chunk {
        main: Rc::new(fs.proto),
    })
}

/// Where a name resolves.
enum VarRef {
    Plain(u16),
    Boxed(u16),
    Upval(u16),
    Global,
}

#[derive(Clone, Copy)]
enum SlotRef {
    Plain(u16),
    Boxed(u16),
}

struct LocalVar {
    name: String,
    slot: SlotRef,
}

struct LoopCtx {
    /// Jump sites to patch to the loop's end.
    breaks: Vec<usize>,
    /// Whether `break` must also pop a snapshot iterator.
    genfor: bool,
}

struct FuncState {
    proto: Proto,
    /// Open block scopes, innermost last.
    scopes: Vec<Vec<LocalVar>>,
    /// Plain-slot watermarks saved at scope entry (slots are reused).
    marks: Vec<u16>,
    next_slot: u16,
    /// Names captured by nested function literals (conservative).
    captured: HashSet<String>,
    /// Names of upvalues already added, parallel to `proto.upvals`.
    upval_names: Vec<String>,
    loops: Vec<LoopCtx>,
}

struct Compiler {
    funcs: Vec<FuncState>,
}

impl Compiler {
    fn push_func(&mut self, name: &str, params: &[String], body: &Block) {
        let captured = captured_names(body);
        let mut fs = FuncState {
            proto: Proto {
                name: name.to_string(),
                params: params.to_vec(),
                n_slots: 0,
                n_boxes: 0,
                consts: Vec::new(),
                keys: Vec::new(),
                names: Vec::new(),
                code: Vec::new(),
                upvals: Vec::new(),
                protos: Vec::new(),
            },
            scopes: vec![Vec::new()],
            marks: vec![0],
            next_slot: 0,
            captured,
            upval_names: Vec::new(),
            loops: Vec::new(),
        };
        // Parameters always land in the first plain slots (the VM copies
        // call arguments there). A captured parameter additionally gets a
        // box, filled by a prologue emitted below.
        let mut prologue = Vec::new();
        for (i, p) in params.iter().enumerate() {
            let slot = i as u16;
            if fs.captured.contains(p) {
                let b = fs.proto.n_boxes;
                fs.proto.n_boxes += 1;
                prologue.push((slot, b));
                fs.scopes[0].push(LocalVar {
                    name: p.clone(),
                    slot: SlotRef::Boxed(b),
                });
            } else {
                fs.scopes[0].push(LocalVar {
                    name: p.clone(),
                    slot: SlotRef::Plain(slot),
                });
            }
        }
        fs.next_slot = params.len() as u16;
        fs.proto.n_slots = fs.next_slot;
        for (slot, b) in prologue {
            fs.proto.code.push(Op::LoadLocal(slot));
            fs.proto.code.push(Op::NewBox(b));
        }
        self.funcs.push(fs);
    }

    fn fs(&mut self) -> &mut FuncState {
        self.funcs.last_mut().expect("at least the main function")
    }

    fn emit(&mut self, op: Op) -> usize {
        let code = &mut self.fs().proto.code;
        code.push(op);
        code.len() - 1
    }

    fn here(&mut self) -> u32 {
        self.fs().proto.code.len() as u32
    }

    /// Re-points the jump at `at` to the current instruction.
    fn patch(&mut self, at: usize) {
        let target = self.here();
        let code = &mut self.fs().proto.code;
        code[at] = match code[at] {
            Op::Jump(_) => Op::Jump(target),
            Op::JumpIfFalse(_) => Op::JumpIfFalse(target),
            Op::JumpIfFalsePeek(_) => Op::JumpIfFalsePeek(target),
            Op::JumpIfTruePeek(_) => Op::JumpIfTruePeek(target),
            Op::IterNext(_) => Op::IterNext(target),
            Op::ForPrep { slot, .. } => Op::ForPrep { slot, exit: target },
            other => unreachable!("patching non-jump {other:?}"),
        };
    }

    fn pool_idx(len: usize, what: &str) -> Result<u16, CompileError> {
        u16::try_from(len).map_err(|_| CompileError {
            message: format!("too many {what} in one function"),
        })
    }

    fn const_idx(&mut self, v: Value) -> Result<u16, CompileError> {
        let consts = &mut self.fs().proto.consts;
        for (i, c) in consts.iter().enumerate() {
            let same = match (c, &v) {
                (Value::Num(a), Value::Num(b)) => a.to_bits() == b.to_bits(),
                (Value::Str(a), Value::Str(b)) => a == b,
                _ => false,
            };
            if same {
                return Ok(i as u16);
            }
        }
        let idx = Self::pool_idx(consts.len(), "constants")?;
        consts.push(v);
        Ok(idx)
    }

    fn key_idx(&mut self, k: Key) -> Result<u16, CompileError> {
        let keys = &mut self.fs().proto.keys;
        if let Some(i) = keys.iter().position(|x| *x == k) {
            return Ok(i as u16);
        }
        let idx = Self::pool_idx(keys.len(), "keys")?;
        keys.push(k);
        Ok(idx)
    }

    fn name_idx(&mut self, name: &str) -> Result<u16, CompileError> {
        let names = &mut self.fs().proto.names;
        if let Some(i) = names.iter().position(|x| &**x == name) {
            return Ok(i as u16);
        }
        let idx = Self::pool_idx(names.len(), "global names")?;
        names.push(Rc::from(name));
        Ok(idx)
    }

    fn begin_scope(&mut self) {
        let fs = self.fs();
        let mark = fs.next_slot;
        fs.scopes.push(Vec::new());
        fs.marks.push(mark);
    }

    fn end_scope(&mut self) {
        let fs = self.fs();
        fs.scopes.pop();
        fs.next_slot = fs.marks.pop().expect("scope mark");
    }

    /// Allocates a slot for a new local and registers the name.
    fn declare_local(&mut self, name: &str) -> SlotRef {
        let fs = self.fs();
        let slot = if fs.captured.contains(name) {
            let b = fs.proto.n_boxes;
            fs.proto.n_boxes += 1;
            SlotRef::Boxed(b)
        } else {
            let s = fs.next_slot;
            fs.next_slot += 1;
            fs.proto.n_slots = fs.proto.n_slots.max(fs.next_slot);
            SlotRef::Plain(s)
        };
        fs.scopes.last_mut().expect("open scope").push(LocalVar {
            name: name.to_string(),
            slot,
        });
        slot
    }

    /// Whether the current position is the main proto's outermost scope,
    /// where `local` declares a global (the interpreter runs the top
    /// level directly in the root scope).
    fn at_top_level(&mut self) -> bool {
        self.funcs.len() == 1 && self.fs().scopes.len() == 1
    }

    fn find_local(fs: &FuncState, name: &str) -> Option<SlotRef> {
        for scope in fs.scopes.iter().rev() {
            for var in scope.iter().rev() {
                if var.name == name {
                    return Some(var.slot);
                }
            }
        }
        None
    }

    fn add_upval(&mut self, fi: usize, desc: UpvalDesc, name: &str) -> u16 {
        let fs = &mut self.funcs[fi];
        if let Some(i) = fs.upval_names.iter().position(|n| n == name) {
            return i as u16;
        }
        fs.proto.upvals.push(desc);
        fs.upval_names.push(name.to_string());
        (fs.proto.upvals.len() - 1) as u16
    }

    /// Resolves `name` in function `fi` to an upvalue, chaining through
    /// intermediate functions, or `None` if it is not a captured local of
    /// any enclosing function.
    fn resolve_upval(&mut self, fi: usize, name: &str) -> Option<u16> {
        if fi == 0 {
            return None;
        }
        let parent = fi - 1;
        match Self::find_local(&self.funcs[parent], name) {
            Some(SlotRef::Boxed(b)) => Some(self.add_upval(fi, UpvalDesc::ParentBox(b), name)),
            // A plain (unboxed) local cannot be referenced from a nested
            // function: the capture pre-pass boxes every such name.
            Some(SlotRef::Plain(_)) => None,
            None => {
                let up = self.resolve_upval(parent, name)?;
                Some(self.add_upval(fi, UpvalDesc::ParentUpval(up), name))
            }
        }
    }

    fn resolve(&mut self, name: &str) -> VarRef {
        let fi = self.funcs.len() - 1;
        match Self::find_local(&self.funcs[fi], name) {
            Some(SlotRef::Plain(s)) => VarRef::Plain(s),
            Some(SlotRef::Boxed(b)) => VarRef::Boxed(b),
            None => match self.resolve_upval(fi, name) {
                Some(u) => VarRef::Upval(u),
                None => VarRef::Global,
            },
        }
    }

    fn store_var(&mut self, name: &str) -> Result<(), CompileError> {
        match self.resolve(name) {
            VarRef::Plain(s) => {
                self.emit(Op::StoreLocal(s));
            }
            VarRef::Boxed(b) => {
                self.emit(Op::StoreBox(b));
            }
            VarRef::Upval(u) => {
                self.emit(Op::StoreUpval(u));
            }
            VarRef::Global => {
                let i = self.name_idx(name)?;
                self.emit(Op::StoreGlobal(i));
            }
        }
        Ok(())
    }

    fn block(&mut self, block: &Block) -> Result<(), CompileError> {
        for stmt in block {
            self.stmt(stmt)?;
        }
        Ok(())
    }

    fn stmt(&mut self, stmt: &Stmt) -> Result<(), CompileError> {
        match stmt {
            Stmt::Local(name, e) => {
                self.expr(e)?;
                if self.at_top_level() {
                    let i = self.name_idx(name)?;
                    self.emit(Op::StoreGlobal(i));
                } else {
                    match self.declare_local(name) {
                        SlotRef::Plain(s) => {
                            self.emit(Op::StoreLocal(s));
                        }
                        SlotRef::Boxed(b) => {
                            self.emit(Op::NewBox(b));
                        }
                    }
                }
                Ok(())
            }
            Stmt::Assign(lhs, rhs) => {
                // RHS first, matching the interpreter's evaluation order.
                self.expr(rhs)?;
                match lhs {
                    Expr::Var(name) => self.store_var(name),
                    Expr::Index(base, idx) => {
                        self.expr(base)?;
                        match const_key(idx) {
                            Some(k) => {
                                let i = self.key_idx(k)?;
                                self.emit(Op::SetConst(i));
                            }
                            None => {
                                self.expr(idx)?;
                                self.emit(Op::SetIndex);
                            }
                        }
                        Ok(())
                    }
                    _ => Err(CompileError {
                        message: "invalid assignment target".to_string(),
                    }),
                }
            }
            Stmt::ExprStmt(e) => {
                self.expr(e)?;
                self.emit(Op::Pop);
                Ok(())
            }
            Stmt::If(arms, else_blk) => {
                let mut ends = Vec::new();
                for (cond, body) in arms {
                    self.expr(cond)?;
                    let skip = self.emit(Op::JumpIfFalse(0));
                    self.begin_scope();
                    self.block(body)?;
                    self.end_scope();
                    ends.push(self.emit(Op::Jump(0)));
                    self.patch(skip);
                }
                if let Some(body) = else_blk {
                    self.begin_scope();
                    self.block(body)?;
                    self.end_scope();
                }
                for j in ends {
                    self.patch(j);
                }
                Ok(())
            }
            Stmt::While(cond, body) => {
                let head = self.here();
                self.expr(cond)?;
                let exit = self.emit(Op::JumpIfFalse(0));
                self.fs().loops.push(LoopCtx {
                    breaks: Vec::new(),
                    genfor: false,
                });
                self.begin_scope();
                self.block(body)?;
                self.end_scope();
                self.emit(Op::Jump(head));
                self.patch(exit);
                let breaks = self.fs().loops.pop().expect("loop ctx").breaks;
                for b in breaks {
                    self.patch(b);
                }
                Ok(())
            }
            Stmt::Repeat(body, cond) => {
                let head = self.here();
                self.fs().loops.push(LoopCtx {
                    breaks: Vec::new(),
                    genfor: false,
                });
                // The until-condition sees the body's scope, so the scope
                // stays open across it (the interpreter evaluates the
                // condition in the iteration's child scope).
                self.begin_scope();
                self.block(body)?;
                self.expr(cond)?;
                self.end_scope();
                self.emit(Op::JumpIfFalse(head));
                let breaks = self.fs().loops.pop().expect("loop ctx").breaks;
                for b in breaks {
                    self.patch(b);
                }
                Ok(())
            }
            Stmt::NumFor {
                var,
                start,
                stop,
                step,
                body,
            } => {
                // Bounds are evaluated and number-checked one at a time,
                // exactly as the interpreter interleaves eval + check.
                self.expr(start)?;
                self.emit(Op::CheckNum);
                self.expr(stop)?;
                self.emit(Op::CheckNum);
                match step {
                    Some(e) => {
                        self.expr(e)?;
                        self.emit(Op::CheckNum);
                    }
                    None => {
                        let one = self.const_idx(Value::Num(1.0))?;
                        self.emit(Op::Const(one));
                    }
                }
                // Three hidden control slots spanning the whole loop.
                let ctl = {
                    let fs = self.fs();
                    let s = fs.next_slot;
                    fs.next_slot += 3;
                    fs.proto.n_slots = fs.proto.n_slots.max(fs.next_slot);
                    s
                };
                let prep = self.emit(Op::ForPrep { slot: ctl, exit: 0 });
                let body_head = self.here();
                self.begin_scope();
                let vslot = self.declare_local(var);
                self.emit(Op::LoadLocal(ctl));
                match vslot {
                    SlotRef::Plain(s) => {
                        self.emit(Op::StoreLocal(s));
                    }
                    SlotRef::Boxed(b) => {
                        self.emit(Op::NewBox(b));
                    }
                }
                self.fs().loops.push(LoopCtx {
                    breaks: Vec::new(),
                    genfor: false,
                });
                self.block(body)?;
                self.end_scope();
                self.emit(Op::ForLoop {
                    slot: ctl,
                    back: body_head,
                });
                self.patch(prep);
                let breaks = self.fs().loops.pop().expect("loop ctx").breaks;
                for b in breaks {
                    self.patch(b);
                }
                // Release the control slots.
                self.fs().next_slot = ctl;
                Ok(())
            }
            Stmt::GenFor {
                key,
                value,
                iter,
                body,
            } => {
                self.expr(iter)?;
                self.emit(Op::IterNew);
                let head = self.here();
                let exit = self.emit(Op::IterNext(0));
                self.begin_scope();
                let kslot = self.declare_local(key);
                let vslot = self.declare_local(value);
                // IterNext pushes key then value: store value first.
                match vslot {
                    SlotRef::Plain(s) => {
                        self.emit(Op::StoreLocal(s));
                    }
                    SlotRef::Boxed(b) => {
                        self.emit(Op::NewBox(b));
                    }
                }
                match kslot {
                    SlotRef::Plain(s) => {
                        self.emit(Op::StoreLocal(s));
                    }
                    SlotRef::Boxed(b) => {
                        self.emit(Op::NewBox(b));
                    }
                }
                self.fs().loops.push(LoopCtx {
                    breaks: Vec::new(),
                    genfor: true,
                });
                self.block(body)?;
                self.end_scope();
                self.emit(Op::Jump(head));
                self.patch(exit);
                let breaks = self.fs().loops.pop().expect("loop ctx").breaks;
                for b in breaks {
                    self.patch(b);
                }
                Ok(())
            }
            Stmt::FuncDecl { name, params, body } => {
                let idx = self.function(name, params, body)?;
                self.emit(Op::Closure(idx));
                let i = self.name_idx(name)?;
                self.emit(Op::StoreGlobal(i));
                Ok(())
            }
            Stmt::Return(e) => {
                match e {
                    Some(e) => {
                        self.expr(e)?;
                        self.emit(Op::Ret);
                    }
                    None => {
                        self.emit(Op::RetNil);
                    }
                }
                Ok(())
            }
            Stmt::Break => {
                // `break` without an enclosing loop unwinds the whole
                // call, yielding nil — the interpreter's Flow::Break is
                // absorbed by call_value the same way.
                match self.fs().loops.last().map(|ctx| ctx.genfor) {
                    Some(genfor) => {
                        if genfor {
                            self.emit(Op::IterDrop);
                        }
                        let j = self.emit(Op::Jump(0));
                        self.fs().loops.last_mut().expect("loop ctx").breaks.push(j);
                    }
                    None => {
                        self.emit(Op::RetNil);
                    }
                }
                Ok(())
            }
        }
    }

    /// Compiles a nested function body into a child proto of the current
    /// function; returns its index for [`Op::Closure`].
    fn function(
        &mut self,
        name: &str,
        params: &[String],
        body: &Block,
    ) -> Result<u16, CompileError> {
        self.push_func(name, params, body);
        self.block(body)?;
        self.emit(Op::RetNil);
        let fs = self.funcs.pop().expect("function state");
        let protos = &mut self.fs().proto.protos;
        let idx = Self::pool_idx(protos.len(), "nested functions")?;
        protos.push(Rc::new(fs.proto));
        Ok(idx)
    }

    fn expr(&mut self, e: &Expr) -> Result<(), CompileError> {
        match e {
            Expr::Nil => {
                self.emit(Op::Nil);
            }
            Expr::Bool(true) => {
                self.emit(Op::True);
            }
            Expr::Bool(false) => {
                self.emit(Op::False);
            }
            Expr::Num(n) => {
                let i = self.const_idx(Value::Num(*n))?;
                self.emit(Op::Const(i));
            }
            Expr::Str(s) => {
                let i = self.const_idx(Value::Str(Rc::clone(s)))?;
                self.emit(Op::Const(i));
            }
            Expr::Var(name) => match self.resolve(name) {
                VarRef::Plain(s) => {
                    self.emit(Op::LoadLocal(s));
                }
                VarRef::Boxed(b) => {
                    self.emit(Op::LoadBox(b));
                }
                VarRef::Upval(u) => {
                    self.emit(Op::LoadUpval(u));
                }
                VarRef::Global => {
                    let i = self.name_idx(name)?;
                    self.emit(Op::LoadGlobal(i));
                }
            },
            Expr::TableLit(items) => {
                self.emit(Op::NewTable);
                for item in items {
                    match item {
                        TableItem::Positional(e) => {
                            self.expr(e)?;
                            self.emit(Op::TablePush);
                        }
                        TableItem::Named(k, e) => {
                            self.expr(e)?;
                            let i = self.key_idx(Key::Str(k.as_bytes().into()))?;
                            self.emit(Op::TableSetConst(i));
                        }
                    }
                }
            }
            Expr::Index(base, idx) => {
                self.expr(base)?;
                match const_key(idx) {
                    Some(k) => {
                        let i = self.key_idx(k)?;
                        self.emit(Op::GetConst(i));
                    }
                    None => {
                        self.expr(idx)?;
                        self.emit(Op::GetIndex);
                    }
                }
            }
            Expr::Call(callee, args) => {
                self.expr(callee)?;
                for a in args {
                    self.expr(a)?;
                }
                let n = u16::try_from(args.len()).map_err(|_| CompileError {
                    message: "too many call arguments".to_string(),
                })?;
                self.emit(Op::Call(n));
            }
            Expr::Lambda(params, body) => {
                let idx = self.function("<anonymous>", params, body)?;
                self.emit(Op::Closure(idx));
            }
            Expr::Bin(BinOp::And, a, b) => {
                self.expr(a)?;
                let j = self.emit(Op::JumpIfFalsePeek(0));
                self.expr(b)?;
                self.patch(j);
            }
            Expr::Bin(BinOp::Or, a, b) => {
                self.expr(a)?;
                let j = self.emit(Op::JumpIfTruePeek(0));
                self.expr(b)?;
                self.patch(j);
            }
            Expr::Bin(BinOp::Concat, first, rest) => {
                // `..` is right-associative, so a chain is the right spine
                // of the tree: every operand is pushed, then joined once.
                self.expr(first)?;
                let mut n: u16 = 2;
                let mut rest = rest;
                while let Expr::Bin(BinOp::Concat, next, tail) = &**rest {
                    self.expr(next)?;
                    n = n.checked_add(1).ok_or_else(|| CompileError {
                        message: "too many operands in one `..` chain".to_string(),
                    })?;
                    rest = tail;
                }
                self.expr(rest)?;
                self.emit(Op::Concat(n));
            }
            Expr::Bin(op, a, b) => {
                self.expr(a)?;
                self.expr(b)?;
                self.emit(match op {
                    BinOp::Add => Op::Add,
                    BinOp::Sub => Op::Sub,
                    BinOp::Mul => Op::Mul,
                    BinOp::Div => Op::Div,
                    BinOp::Mod => Op::Mod,
                    BinOp::Pow => Op::Pow,
                    BinOp::Eq => Op::Eq,
                    BinOp::Ne => Op::Ne,
                    BinOp::Lt => Op::Lt,
                    BinOp::Le => Op::Le,
                    BinOp::Gt => Op::Gt,
                    BinOp::Ge => Op::Ge,
                    BinOp::And | BinOp::Or | BinOp::Concat => unreachable!("handled above"),
                });
            }
            Expr::Un(op, e) => {
                self.expr(e)?;
                self.emit(match op {
                    UnOp::Neg => Op::Neg,
                    UnOp::Not => Op::Not,
                    UnOp::Len => Op::Len,
                });
            }
        }
        Ok(())
    }
}

/// A compile-time constant table key, if `idx` is one. Non-integer
/// numeric literals return `None` so the "non-integer table key" error
/// still fires at runtime, at the same execution point as the
/// interpreter's.
fn const_key(idx: &Expr) -> Option<Key> {
    match idx {
        Expr::Str(s) => Some(Key::Str(Rc::clone(s))),
        Expr::Num(n) if n.fract() == 0.0 => Some(Key::Int(*n as i64)),
        _ => None,
    }
}

/// Conservative capture analysis: every variable name referenced anywhere
/// inside a nested function literal of `block`. Locals with these names
/// are boxed; over-approximation (shadowed names) costs a box, never
/// correctness.
fn captured_names(block: &Block) -> HashSet<String> {
    let mut set = HashSet::new();
    for stmt in block {
        walk_stmt(stmt, false, &mut set);
    }
    set
}

fn walk_stmt(stmt: &Stmt, inside_fn: bool, set: &mut HashSet<String>) {
    match stmt {
        Stmt::Local(name, e) => {
            if inside_fn {
                set.insert(name.clone());
            }
            walk_expr(e, inside_fn, set);
        }
        Stmt::Assign(l, r) => {
            walk_expr(l, inside_fn, set);
            walk_expr(r, inside_fn, set);
        }
        Stmt::ExprStmt(e) => walk_expr(e, inside_fn, set),
        Stmt::If(arms, else_blk) => {
            for (c, b) in arms {
                walk_expr(c, inside_fn, set);
                for s in b {
                    walk_stmt(s, inside_fn, set);
                }
            }
            if let Some(b) = else_blk {
                for s in b {
                    walk_stmt(s, inside_fn, set);
                }
            }
        }
        Stmt::While(c, b) => {
            walk_expr(c, inside_fn, set);
            for s in b {
                walk_stmt(s, inside_fn, set);
            }
        }
        Stmt::Repeat(b, c) => {
            for s in b {
                walk_stmt(s, inside_fn, set);
            }
            walk_expr(c, inside_fn, set);
        }
        Stmt::NumFor {
            var,
            start,
            stop,
            step,
            body,
        } => {
            if inside_fn {
                set.insert(var.clone());
            }
            walk_expr(start, inside_fn, set);
            walk_expr(stop, inside_fn, set);
            if let Some(e) = step {
                walk_expr(e, inside_fn, set);
            }
            for s in body {
                walk_stmt(s, inside_fn, set);
            }
        }
        Stmt::GenFor {
            key,
            value,
            iter,
            body,
        } => {
            if inside_fn {
                set.insert(key.clone());
                set.insert(value.clone());
            }
            walk_expr(iter, inside_fn, set);
            for s in body {
                walk_stmt(s, inside_fn, set);
            }
        }
        Stmt::FuncDecl { params, body, .. } => {
            if inside_fn {
                for p in params {
                    set.insert(p.clone());
                }
            }
            for s in body {
                walk_stmt(s, true, set);
            }
        }
        Stmt::Return(Some(e)) => walk_expr(e, inside_fn, set),
        Stmt::Return(None) | Stmt::Break => {}
    }
}

fn walk_expr(e: &Expr, inside_fn: bool, set: &mut HashSet<String>) {
    match e {
        Expr::Var(name) => {
            if inside_fn {
                set.insert(name.clone());
            }
        }
        Expr::TableLit(items) => {
            for item in items {
                match item {
                    TableItem::Positional(e) => walk_expr(e, inside_fn, set),
                    TableItem::Named(_, e) => walk_expr(e, inside_fn, set),
                }
            }
        }
        Expr::Index(a, b) => {
            walk_expr(a, inside_fn, set);
            walk_expr(b, inside_fn, set);
        }
        Expr::Call(f, args) => {
            walk_expr(f, inside_fn, set);
            for a in args {
                walk_expr(a, inside_fn, set);
            }
        }
        Expr::Lambda(params, body) => {
            if inside_fn {
                for p in params {
                    set.insert(p.clone());
                }
            }
            for s in body {
                walk_stmt(s, true, set);
            }
        }
        Expr::Bin(_, a, b) => {
            walk_expr(a, inside_fn, set);
            walk_expr(b, inside_fn, set);
        }
        Expr::Un(_, e) => walk_expr(e, inside_fn, set),
        Expr::Nil | Expr::Bool(_) | Expr::Num(_) | Expr::Str(_) => {}
    }
}

impl Chunk {
    /// Renders the whole chunk as reviewable assembly, one section per
    /// proto (depth-first), with operand annotations. Deterministic, so
    /// codegen changes show up as golden-file diffs.
    pub fn disassemble(&self) -> String {
        let mut out = String::new();
        disasm_proto(&self.main, "main", &mut out);
        out
    }
}

fn disasm_proto(p: &Proto, path: &str, out: &mut String) {
    let _ = writeln!(out, "== {path} ({}) ==", p.params.join(", "));
    let _ = writeln!(
        out,
        "  slots={} boxes={} upvals={}",
        p.n_slots,
        p.n_boxes,
        p.upvals.len()
    );
    for (i, c) in p.consts.iter().enumerate() {
        let rendered = match c {
            Value::Str(_) => format!("{:?}", c.display()),
            other => other.display(),
        };
        let _ = writeln!(out, "  const[{i}] = {rendered}");
    }
    for (i, k) in p.keys.iter().enumerate() {
        let rendered = match k {
            Key::Int(n) => format!("[{n}]"),
            Key::Str(_) => format!(".{k}"),
        };
        let _ = writeln!(out, "  key[{i}] = {rendered}");
    }
    for (i, n) in p.names.iter().enumerate() {
        let _ = writeln!(out, "  name[{i}] = {n}");
    }
    for (i, u) in p.upvals.iter().enumerate() {
        let rendered = match u {
            UpvalDesc::ParentBox(b) => format!("parent box {b}"),
            UpvalDesc::ParentUpval(v) => format!("parent upval {v}"),
        };
        let _ = writeln!(out, "  upval[{i}] = {rendered}");
    }
    for (i, op) in p.code.iter().enumerate() {
        let note = match op {
            Op::Const(k) => {
                let c = &p.consts[*k as usize];
                match c {
                    Value::Str(_) => format!(" ; {:?}", c.display()),
                    other => format!(" ; {}", other.display()),
                }
            }
            Op::GetConst(k) | Op::SetConst(k) | Op::TableSetConst(k) => {
                match &p.keys[*k as usize] {
                    Key::Int(n) => format!(" ; [{n}]"),
                    key @ Key::Str(_) => format!(" ; .{key}"),
                }
            }
            Op::LoadGlobal(n) | Op::StoreGlobal(n) => {
                format!(" ; {}", p.names[*n as usize])
            }
            Op::Closure(c) => format!(" ; {}", p.protos[*c as usize].name),
            _ => String::new(),
        };
        let _ = writeln!(out, "  {i:4}  {op:?}{note}");
    }
    let _ = writeln!(out);
    for child in &p.protos {
        disasm_proto(child, &format!("{path}/{}", child.name), out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(src: &str) -> Chunk {
        compile(&Script::compile(src).unwrap()).unwrap()
    }

    #[test]
    fn top_level_local_compiles_to_global_store() {
        let c = chunk("local x = 1");
        assert!(c.main.code.contains(&Op::StoreGlobal(0)));
        assert_eq!(c.main.n_slots, 0);
    }

    #[test]
    fn block_local_gets_a_slot() {
        let c = chunk("if true then local x = 1 x = x + 1 end");
        assert!(c.main.code.contains(&Op::StoreLocal(0)));
        assert_eq!(c.main.n_slots, 1);
    }

    #[test]
    fn captured_local_gets_a_box() {
        let c = chunk(
            "function mk()
                local n = 0
                return function() n = n + 1 return n end
            end",
        );
        let mk = &c.main.protos[0];
        assert_eq!(mk.n_boxes, 1);
        assert!(mk.code.contains(&Op::NewBox(0)));
        let inner = &mk.protos[0];
        assert_eq!(inner.upvals, vec![UpvalDesc::ParentBox(0)]);
    }

    #[test]
    fn const_field_access_uses_key_pool() {
        let c = chunk("x = t.load + t[2]");
        assert!(c.main.code.contains(&Op::GetConst(0)));
        assert_eq!(c.main.keys[0], Key::Str(b"load"[..].into()));
        assert_eq!(c.main.keys[1], Key::Int(2));
    }

    #[test]
    fn non_integer_const_key_stays_dynamic() {
        let c = chunk("x = t[1.5]");
        assert!(c.main.code.contains(&Op::GetIndex));
        assert!(c.main.keys.is_empty());
    }

    #[test]
    fn jumps_are_patched_forward() {
        let c = chunk("if a then b = 1 else b = 2 end");
        for op in &c.main.code {
            if let Op::Jump(t) | Op::JumpIfFalse(t) = op {
                assert!((*t as usize) <= c.main.code.len());
                assert!(*t > 0, "patched jump must not target 0 here");
            }
        }
    }

    #[test]
    fn slot_reuse_across_sibling_scopes() {
        let c = chunk(
            "if a then local x = 1 print(x) end
             if b then local y = 2 print(y) end",
        );
        assert_eq!(c.main.n_slots, 1);
    }

    #[test]
    fn disassembly_names_operands() {
        let c = chunk("function f(a) return a + 1 end\nx = f(2)");
        let d = c.disassemble();
        assert!(d.contains("== main ()"), "{d}");
        assert!(d.contains("== main/f (a)"), "{d}");
        assert!(d.contains("; f"), "{d}");
    }

    #[test]
    fn concat_chain_is_one_op() {
        let concats = |src: &str| -> Vec<Op> {
            let code = &chunk(src).main.code;
            let ops = code.iter().filter(|op| matches!(op, Op::Concat(_)));
            ops.copied().collect()
        };
        assert_eq!(concats("x = a .. 1 .. b .. \"s\" .. c"), [Op::Concat(5)]);
        assert_eq!(concats("x = a .. (b .. c)"), [Op::Concat(3)]);
        // A chain on the left is an operand, joined before the outer one.
        assert_eq!(concats("x = (a .. b) .. c"), [Op::Concat(2), Op::Concat(2)]);
    }

    #[test]
    fn break_outside_loop_returns_nil() {
        let c = chunk("break");
        assert_eq!(c.main.code[0], Op::RetNil);
    }
}

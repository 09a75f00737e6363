//! Bytecode compiler for Cephalo: lowers the AST to register-addressed
//! chunks executed by [`crate::vm::Vm`].
//!
//! The tree-walking interpreter ([`crate::interp::Interp`]) remains the
//! reference semantics; the compiler/VM pair exists because per-op policy
//! evaluation (Mantle ticks, object-class calls) is a hot path. Lowering
//! decisions that matter for equivalence:
//!
//! * **Operands name slots.** A frame is a window of slots: parameters,
//!   locals and loop control, then the temporaries of the expression being
//!   evaluated (a compile-time high-water mark, Lua's `freereg`). Every
//!   expression compiles *to a destination slot*; a plain local or a
//!   literal used as an operand is an [`Rk`] and emits nothing, because
//!   instructions read their operands in place. Only a call can run
//!   between an operand's evaluation and its use, and a call cannot reach
//!   a plain local, so reading it late reads the same value.
//! * **Conditions branch.** A condition is a fused compare-and-branch,
//!   `and` / `or` / `not` control flow; a boolean is built only to be stored.
//! * **A call window is the callee's frame.** Callee and arguments go to
//!   consecutive slots at the top of the caller's frame; a script callee's
//!   frame starts at the first, a native reads them as a slice, and the
//!   result replaces the callee.
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
use crate::value::{Key, Str, Value};
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

/// An operand an instruction reads in place: a slot of the current frame
/// (`r3`) or an entry of the proto's constant pool (`k1`) — Lua's RK.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Rk(u16);

impl Rk {
    const CONST: u16 = 1 << 15;
    /// One function's slots, and its constants, each number below this.
    pub const LIMIT: usize = Rk::CONST as usize;

    /// The constant-pool index, if the operand names a constant.
    pub fn as_const(self) -> Option<usize> {
        (self.0 & Rk::CONST != 0).then_some((self.0 & !Rk::CONST) as usize)
    }

    /// The frame slot of an operand that is not a constant.
    pub fn as_slot(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Debug for Rk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.as_const() {
            Some(k) => write!(f, "k{k}"),
            None => write!(f, "r{}", self.0),
        }
    }
}

/// One bytecode instruction. `dst` and the other bare slot numbers are
/// relative to the frame's base; [`Rk`] operands are read where they are;
/// the remaining operands index the current proto's pools. Every
/// instruction reads all its operands before it writes `dst`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// `r[dst] = src` (a copy of a local, or a constant load).
    Move { dst: u16, src: Rk },
    /// `r[dst] =` the value in box `b`.
    LoadBox { dst: u16, b: u16 },
    /// Store into the existing box `b`.
    StoreBox { b: u16, src: Rk },
    /// Bind a *fresh* box holding `src` in box slot `b` (a declaration).
    NewBox { b: u16, src: Rk },
    /// `r[dst] =` the closure's upvalue `u`.
    LoadUpval { dst: u16, u: u16 },
    /// Store into the closure's upvalue `u`.
    StoreUpval { u: u16, src: Rk },
    /// `r[dst] =` the global named `names[name]` (`nil` if unset).
    LoadGlobal { dst: u16, name: u16 },
    /// Store into the global named `names[name]`.
    StoreGlobal { name: u16, src: Rk },
    /// `r[dst] =` a fresh empty table.
    NewTable { dst: u16 },
    /// Append `src` to the table literal under construction in `r[table]`.
    TablePush { table: u16, src: Rk },
    /// `r[table][keys[key]] = src` on a table literal under construction.
    TableSetConst { table: u16, key: u16, src: Rk },
    /// `r[dst] = base[idx]`.
    GetIndex { dst: u16, base: Rk, idx: Rk },
    /// `r[dst] = base[keys[key]]`.
    GetConst { dst: u16, base: Rk, key: u16 },
    /// `base[idx] = src`; the key is converted before the base's type is
    /// checked, as in the interpreter's assignment path.
    SetIndex { base: Rk, idx: Rk, src: Rk },
    /// `base[keys[key]] = src`.
    SetConst { base: Rk, key: u16, src: Rk },
    /// `r[dst] = a + b`; the other arithmetic follows the same shape.
    Add { dst: u16, a: Rk, b: Rk },
    /// See [`Op::Add`].
    Sub { dst: u16, a: Rk, b: Rk },
    /// See [`Op::Add`].
    Mul { dst: u16, a: Rk, b: Rk },
    /// See [`Op::Add`].
    Div { dst: u16, a: Rk, b: Rk },
    /// Floor-mod with the sign of the divisor (Lua semantics).
    Mod { dst: u16, a: Rk, b: Rk },
    /// See [`Op::Add`].
    Pow { dst: u16, a: Rk, b: Rk },
    /// A whole `..` chain: `r[dst] =` the concatenation of the `n` slots
    /// from `first` (its operands in source order), with
    /// number/bool/nil coercion, built once.
    Concat { dst: u16, first: u16, n: u16 },
    /// `r[dst] = ((a == b) == want)`: a comparison stored as a value. `~=`,
    /// `>` and `>=` are `==`, `<=` and `<` with `want` false (a pair that
    /// cannot be ordered is an error either way).
    Eq { dst: u16, a: Rk, b: Rk, want: bool },
    /// `r[dst] = ((a < b) == want)`.
    Lt { dst: u16, a: Rk, b: Rk, want: bool },
    /// `r[dst] = ((a <= b) == want)`.
    Le { dst: u16, a: Rk, b: Rk, want: bool },
    /// `r[dst] = -src`.
    Neg { dst: u16, src: Rk },
    /// `r[dst] = not src`.
    Not { dst: u16, src: Rk },
    /// `r[dst] = #src` (table or string length).
    Len { dst: u16, src: Rk },
    /// Error unless `r[src]` is a number (numeric-`for` bounds).
    CheckNum { src: u16 },
    /// Unconditional jump to instruction `to`.
    Jump(u16),
    /// Jump if `src`'s truthiness is `want`.
    JumpIf { src: Rk, want: bool, to: u16 },
    /// Jump if `(a == b)` is `want` (the `Value` ABI's `==`). A condition
    /// is one of these three compare-and-branch forms, [`Op::Eq`]'s
    /// comparisons without the boolean.
    JumpEq { a: Rk, b: Rk, want: bool, to: u16 },
    /// Jump if `(a < b)` is `want`.
    JumpLt { a: Rk, b: Rk, want: bool, to: u16 },
    /// Jump if `(a <= b)` is `want`.
    JumpLe { a: Rk, b: Rk, want: bool, to: u16 },
    /// Numeric `for` entry over the control slots `[slot, slot+2]`
    /// (start, stop, step: all numbers already): reject a zero step; if
    /// the range is empty jump to `to`, else copy the control value to
    /// `slot+3`, the slot the body sees.
    ForPrep { slot: u16, to: u16 },
    /// Advance the control value by step; while still in range copy it to
    /// `slot+3` and jump to `to` (the body head).
    ForLoop { slot: u16, to: u16 },
    /// Push a snapshot iterator over table `src` onto the iterator stack.
    IterNew { src: Rk },
    /// `r[dst], r[dst+1] =` the next key and value of the top iterator;
    /// on exhaustion, pop the iterator and jump to `to`.
    IterNext { dst: u16, to: u16 },
    /// Pop the top iterator (breaking out of a generic `for`).
    IterDrop,
    /// Call `r[at]` with the `argc` arguments in the slots after it. The
    /// window is the top of the caller's frame, so a script callee's frame
    /// *is* those slots (its base is `at+1`) and a native reads them as a
    /// slice; the result replaces the callee in `r[at]`.
    Call { at: u16, argc: u16 },
    /// Return `src` and tear down the current frame.
    Ret { src: Rk },
    /// `r[dst] =` child proto `proto` instantiated, its upvalues captured.
    Closure { dst: u16, proto: u16 },
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
    /// Slots the frame needs: parameters first, then locals, loop control
    /// and the high-water mark of expression temporaries.
    pub n_slots: u16,
    /// Box slots the frame needs (captured locals).
    pub n_boxes: u16,
    /// Constants an [`Rk`] operand can name (numbers, strings, booleans,
    /// `nil`).
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
/// non-lvalue) or when one function outgrows an operand: [`Rk::LIMIT`]
/// slots (locals and temporaries) or constants, 2¹⁶ − 1 instructions (a
/// jump's target is 16 bits), 2¹⁶ of anything else.
pub fn compile(script: &Script) -> Result<Chunk, CompileError> {
    let mut c = Compiler { funcs: Vec::new() };
    c.push_func("<main>", &[], &script.block)?;
    c.block(&script.block)?;
    Ok(Chunk {
        main: c.pop_func()?,
    })
}

/// Ends a list of jumps waiting for their target. Such a list is threaded
/// through the jumps themselves (each one's `to` names the one added before
/// it: Lua's trick), so the exits of a condition or the `break`s of a loop
/// are collected without allocating. No instruction's index is this.
const NO_JUMP: u16 = u16::MAX;

/// Where a name resolves.
#[derive(Clone, Copy)]
enum VarRef {
    Plain(u16),
    Boxed(u16),
    Upval(u16),
    Global,
}

struct LocalVar {
    name: String,
    slot: VarRef, // `Plain` or `Boxed`
}

struct LoopCtx {
    /// The jumps to patch to the loop's end (a list: see [`NO_JUMP`]).
    breaks: u16,
    /// Whether `break` must also pop a snapshot iterator.
    genfor: bool,
}

struct FuncState {
    proto: Proto,
    /// Open block scopes, innermost last.
    scopes: Vec<Vec<LocalVar>>,
    /// First-free-slot marks saved at scope entry (slots are reused).
    marks: Vec<u16>,
    /// The first free slot (Lua's `freereg`): locals and loop control
    /// below it, then the temporaries of the expression being compiled.
    /// `proto.n_slots` is its high-water mark.
    free: u16,
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
    fn push_func(
        &mut self,
        name: &str,
        params: &[String],
        body: &Block,
    ) -> Result<(), CompileError> {
        self.funcs.push(FuncState {
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
            free: 0,
            captured: captured_names(body),
            upval_names: Vec::new(),
            loops: Vec::new(),
        });
        // Parameters are the frame's first slots (a call's arguments are
        // already there); a captured one is copied to a box on entry.
        for p in params {
            let slot = self.alloc()?;
            self.bind_slot(p, slot)?;
        }
        Ok(())
    }

    /// The finished function: falling off its end returns nil.
    fn pop_func(&mut self) -> Result<Rc<Proto>, CompileError> {
        self.ret_nil()?;
        Ok(Rc::new(self.funcs.pop().expect("function state").proto))
    }

    fn ret_nil(&mut self) -> Result<(), CompileError> {
        let src = self.konst(Value::Nil)?;
        self.emit(Op::Ret { src })?;
        Ok(())
    }

    fn fs(&mut self) -> &mut FuncState {
        self.funcs.last_mut().expect("at least the main function")
    }

    /// Appends `op`; its index, which is what a jump list links through.
    fn emit(&mut self, op: Op) -> Result<u16, CompileError> {
        let code = &mut self.fs().proto.code;
        let at = Self::pool_idx(code.len(), NO_JUMP as usize, "instructions")?;
        code.push(op);
        Ok(at)
    }

    fn here(&mut self) -> u16 {
        self.fs().proto.code.len() as u16
    }

    /// Points every jump on `list` at instruction `to`.
    fn patch_to(&mut self, mut list: u16, to: u16) {
        while list != NO_JUMP {
            let target = match &mut self.fs().proto.code[list as usize] {
                Op::Jump(t)
                | Op::JumpIf { to: t, .. }
                | Op::JumpEq { to: t, .. }
                | Op::JumpLt { to: t, .. }
                | Op::JumpLe { to: t, .. }
                | Op::IterNext { to: t, .. }
                | Op::ForPrep { to: t, .. } => t,
                other => unreachable!("patching non-jump {other:?}"),
            };
            list = std::mem::replace(target, to);
        }
    }

    /// Points every jump on `list` at the current instruction.
    fn patch(&mut self, list: u16) {
        let to = self.here();
        self.patch_to(list, to);
    }

    /// The next index of a pool (or slot of a frame) holding `len`.
    fn pool_idx(len: usize, limit: usize, what: &str) -> Result<u16, CompileError> {
        if len < limit {
            Ok(len as u16)
        } else {
            Err(CompileError {
                message: format!("too many {what} in one function (limit {limit})"),
            })
        }
    }

    /// The index of `v` in `pool`, added if nothing there is `same`.
    fn intern<T>(
        pool: &mut Vec<T>,
        v: T,
        same: impl Fn(&T, &T) -> bool,
        limit: usize,
        what: &str,
    ) -> Result<u16, CompileError> {
        if let Some(i) = pool.iter().position(|x| same(x, &v)) {
            return Ok(i as u16);
        }
        let idx = Self::pool_idx(pool.len(), limit, what)?;
        pool.push(v);
        Ok(idx)
    }

    fn konst(&mut self, v: Value) -> Result<Rk, CompileError> {
        // By bits: `0` and `-0` are equal and are not the same constant.
        let same = |a: &Value, b: &Value| match (a, b) {
            (Value::Num(a), Value::Num(b)) => a.to_bits() == b.to_bits(),
            (a, b) => a == b,
        };
        let consts = &mut self.fs().proto.consts;
        let idx = Self::intern(consts, v, same, Rk::LIMIT, "constants")?;
        Ok(Rk(idx | Rk::CONST))
    }

    fn key_idx(&mut self, k: Key) -> Result<u16, CompileError> {
        Self::intern(&mut self.fs().proto.keys, k, Key::eq, 1 << 16, "keys")
    }

    fn name_idx(&mut self, name: &str) -> Result<u16, CompileError> {
        let names = &mut self.fs().proto.names;
        // Looked up as text: a name is made a handle only when it is new.
        if let Some(i) = names.iter().position(|x| &**x == name) {
            return Ok(i as u16);
        }
        let idx = Self::pool_idx(names.len(), 1 << 16, "global names")?;
        names.push(name.into());
        Ok(idx)
    }

    /// Takes the first free slot, for a local or a temporary. The caller
    /// gives it back by restoring `free` (a scope's end, or the end of the
    /// expression the temporary served).
    fn alloc(&mut self) -> Result<u16, CompileError> {
        let fs = self.fs();
        let slot = Self::pool_idx(
            fs.free as usize,
            Rk::LIMIT,
            "slots (locals and temporaries)",
        )?;
        fs.free += 1;
        fs.proto.n_slots = fs.proto.n_slots.max(fs.free);
        Ok(slot)
    }

    fn begin_scope(&mut self) {
        let fs = self.fs();
        let mark = fs.free;
        fs.scopes.push(Vec::new());
        fs.marks.push(mark);
    }

    fn end_scope(&mut self) {
        let fs = self.fs();
        fs.scopes.pop();
        fs.free = fs.marks.pop().expect("scope mark");
    }

    fn bind(&mut self, name: &str, slot: VarRef) {
        self.fs()
            .scopes
            .last_mut()
            .expect("open scope")
            .push(LocalVar {
                name: name.to_string(),
                slot,
            });
    }

    /// Declares a captured local: a fresh box holding `src`.
    fn bind_box(&mut self, name: &str, src: Rk) -> Result<(), CompileError> {
        let limit = u16::MAX as usize;
        let b = Self::pool_idx(self.fs().proto.n_boxes as usize, limit, "captured locals")?;
        self.fs().proto.n_boxes = b + 1;
        self.emit(Op::NewBox { b, src })?;
        self.bind(name, VarRef::Boxed(b));
        Ok(())
    }

    /// Declares the local whose value is already in `slot` (a parameter, a
    /// loop variable): the slot itself, or a box filled from it.
    fn bind_slot(&mut self, name: &str, slot: u16) -> Result<(), CompileError> {
        if self.fs().captured.contains(name) {
            return self.bind_box(name, Rk(slot));
        }
        self.bind(name, VarRef::Plain(slot));
        Ok(())
    }

    /// Whether the current position is the main proto's outermost scope,
    /// where `local` declares a global (the interpreter runs the top
    /// level directly in the root scope).
    fn at_top_level(&mut self) -> bool {
        self.funcs.len() == 1 && self.fs().scopes.len() == 1
    }

    fn find_local(fs: &FuncState, name: &str) -> Option<VarRef> {
        let innermost_first = fs.scopes.iter().rev().flat_map(|s| s.iter().rev());
        innermost_first
            .filter(|v| v.name == name)
            .map(|v| v.slot)
            .next()
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
            Some(VarRef::Boxed(b)) => Some(self.add_upval(fi, UpvalDesc::ParentBox(b), name)),
            // A plain (unboxed) local cannot be referenced from a nested
            // function: the capture pre-pass boxes every such name.
            Some(_) => None,
            None => {
                let up = self.resolve_upval(parent, name)?;
                Some(self.add_upval(fi, UpvalDesc::ParentUpval(up), name))
            }
        }
    }

    fn resolve(&mut self, name: &str) -> VarRef {
        let fi = self.funcs.len() - 1;
        Self::find_local(&self.funcs[fi], name).unwrap_or_else(|| {
            let upval = self.resolve_upval(fi, name);
            upval.map_or(VarRef::Global, VarRef::Upval)
        })
    }

    fn block(&mut self, block: &Block) -> Result<(), CompileError> {
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

    /// One numeric-`for` bound into the next slot, checked to be a number.
    fn mark_num(&mut self, e: &Expr) -> Result<u16, CompileError> {
        let slot = self.alloc()?;
        self.expr_to(e, slot)?;
        self.emit(Op::CheckNum { src: slot })?;
        Ok(slot)
    }

    /// Compiles a nested function body into a child proto of the current
    /// function; returns its index for [`Op::Closure`].
    fn function(
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
    fn operand(&mut self, e: &Expr) -> Result<Rk, CompileError> {
        if let Some(rk) = self.leaf(e)? {
            return Ok(rk);
        }
        let tmp = self.alloc()?;
        self.expr_to(e, tmp)?;
        Ok(Rk(tmp))
    }

    /// Compiles `e` so that its value ends in `dst`, a slot `e` cannot
    /// read (a new local's, a temporary): it serves as the first temporary.
    fn expr_to(&mut self, e: &Expr, dst: u16) -> Result<(), CompileError> {
        self.expr_via(e, dst, dst)
    }

    /// Compiles `e` so that its value ends in `dst`. `tmp` is a slot `e`
    /// cannot read and is written freely while `e` is evaluated; `dst` is
    /// written by the last instruction alone, which has read its operands
    /// by then — so `dst` may be a local `e` reads (`x = x + 1` is one
    /// instruction, `x = {x}` builds in `tmp` and moves). Subexpressions
    /// take further temporaries above `free`, released on return.
    fn expr_via(&mut self, e: &Expr, dst: u16, tmp: u16) -> Result<(), CompileError> {
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
    fn cond(&mut self, e: &Expr, want: bool, sites: u16) -> Result<u16, CompileError> {
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
fn const_key(idx: &Expr) -> Option<Key> {
    match idx {
        Expr::Str(s) => Some(Key::Str(Str::Heap(Rc::clone(s)))),
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
    walk_block(block, false, &mut set);
    set
}

fn walk_block(block: &Block, inside_fn: bool, set: &mut HashSet<String>) {
    for stmt in block {
        walk_stmt(stmt, inside_fn, set);
    }
}

/// Names declared inside a nested function count like names it reads.
fn note<'a>(
    names: impl IntoIterator<Item = &'a String>,
    inside_fn: bool,
    set: &mut HashSet<String>,
) {
    if inside_fn {
        set.extend(names.into_iter().cloned());
    }
}

fn walk_exprs<'a>(
    es: impl IntoIterator<Item = &'a Expr>,
    inside_fn: bool,
    set: &mut HashSet<String>,
) {
    for e in es {
        walk_expr(e, inside_fn, set);
    }
}

fn walk_stmt(stmt: &Stmt, inside_fn: bool, set: &mut HashSet<String>) {
    match stmt {
        Stmt::Local(name, e) => {
            note([name], inside_fn, set);
            walk_expr(e, inside_fn, set);
        }
        Stmt::Assign(l, r) => walk_exprs([l, r], inside_fn, set),
        Stmt::ExprStmt(e) | Stmt::Return(Some(e)) => walk_expr(e, inside_fn, set),
        Stmt::If(arms, else_blk) => {
            for (c, b) in arms {
                walk_expr(c, inside_fn, set);
                walk_block(b, inside_fn, set);
            }
            if let Some(b) = else_blk {
                walk_block(b, inside_fn, set);
            }
        }
        Stmt::While(c, b) | Stmt::Repeat(b, c) => {
            walk_expr(c, inside_fn, set);
            walk_block(b, inside_fn, set);
        }
        Stmt::NumFor {
            var,
            start,
            stop,
            step,
            body,
        } => {
            note([var], inside_fn, set);
            walk_exprs([start, stop].into_iter().chain(step), inside_fn, set);
            walk_block(body, inside_fn, set);
        }
        Stmt::GenFor {
            key,
            value,
            iter,
            body,
        } => {
            note([key, value], inside_fn, set);
            walk_expr(iter, inside_fn, set);
            walk_block(body, inside_fn, set);
        }
        Stmt::FuncDecl { params, body, .. } => {
            note(params, inside_fn, set);
            walk_block(body, true, set);
        }
        Stmt::Return(None) | Stmt::Break => {}
    }
}

fn walk_expr(e: &Expr, inside_fn: bool, set: &mut HashSet<String>) {
    match e {
        Expr::Var(name) => note([name], inside_fn, set),
        Expr::TableLit(items) => {
            for item in items {
                let (TableItem::Positional(e) | TableItem::Named(_, e)) = item;
                walk_expr(e, inside_fn, set);
            }
        }
        Expr::Index(a, b) | Expr::Bin(_, a, b) => walk_exprs([&**a, &**b], inside_fn, set),
        Expr::Call(f, args) => walk_exprs(std::iter::once(&**f).chain(args), inside_fn, set),
        Expr::Lambda(params, body) => {
            note(params, inside_fn, set);
            walk_block(body, true, set);
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
    let (slots, boxes, upvals) = (p.n_slots, p.n_boxes, p.upvals.len());
    let _ = writeln!(out, "  slots={slots} boxes={boxes} upvals={upvals}");
    let konst = |k: usize| match &p.consts[k] {
        c @ Value::Str(_) => format!("{:?}", c.display()),
        other => other.display(),
    };
    let key = |k: u16| match &p.keys[k as usize] {
        Key::Int(n) => format!("[{n}]"),
        key @ Key::Str(_) => format!(".{key}"),
    };
    for k in 0..p.consts.len() {
        let _ = writeln!(out, "  k{k} = {}", konst(k));
    }
    for k in 0..p.keys.len() {
        let _ = writeln!(out, "  key[{k}] = {}", key(k as u16));
    }
    for (i, n) in p.names.iter().enumerate() {
        let _ = writeln!(out, "  name[{i}] = {n}");
    }
    for (i, u) in p.upvals.iter().enumerate() {
        let _ = match u {
            UpvalDesc::ParentBox(b) => writeln!(out, "  upval[{i}] = parent box {b}"),
            UpvalDesc::ParentUpval(v) => writeln!(out, "  upval[{i}] = parent upval {v}"),
        };
    }
    for (i, op) in p.code.iter().enumerate() {
        let text = format!("{op:?}");
        let mut notes = Vec::new();
        match op {
            Op::GetConst { key: k, .. }
            | Op::SetConst { key: k, .. }
            | Op::TableSetConst { key: k, .. } => notes.push(key(*k)),
            Op::LoadGlobal { name, .. } | Op::StoreGlobal { name, .. } => {
                notes.push(p.names[*name as usize].to_string())
            }
            Op::Closure { proto, .. } => notes.push(p.protos[*proto as usize].name.clone()),
            _ => {}
        }
        // An `Rk` prints as `r3` or `k1`: spell out the constants.
        for word in text.split(|c: char| !c.is_ascii_alphanumeric()) {
            if let Some(k) = word.strip_prefix('k').and_then(|d| d.parse().ok()) {
                notes.push(konst(k));
            }
        }
        let _ = write!(out, "  {i:4}  {text}");
        for note in notes {
            let _ = write!(out, " ; {note}");
        }
        let _ = writeln!(out);
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

    fn r(slot: u16) -> Rk {
        Rk(slot)
    }

    fn k(idx: u16) -> Rk {
        Rk(idx | Rk::CONST)
    }

    #[test]
    fn top_level_local_compiles_to_global_store() {
        let c = chunk("local x = 1");
        let store = Op::StoreGlobal { name: 0, src: k(0) };
        assert_eq!(c.main.code[0], store);
        assert_eq!(c.main.n_slots, 0);
    }

    #[test]
    fn block_local_gets_a_slot() {
        let c = chunk("if true then local x = 1 x = x + 1 end");
        // A constant condition needs no test, a local or a literal operand
        // no load, and the sum is written where `x` lives.
        let body = [
            Op::Move { dst: 0, src: k(0) },
            Op::Add {
                dst: 0,
                a: r(0),
                b: k(0),
            },
        ];
        assert_eq!(c.main.code[..2], body);
        // `x`, and the temporary the sum was compiled towards.
        assert_eq!(c.main.n_slots, 2);
    }

    #[test]
    fn assignment_reads_the_old_value_of_its_target() {
        // Forms that write their destination early go through a temporary.
        for src in ["x = {x, x}", "x = x and y", "x = f(x)"] {
            let c = chunk(&format!("function g(x, y) {src} return x end"));
            let g = &c.main.protos[0];
            assert!(
                g.code.contains(&Op::Move { dst: 0, src: r(2) }),
                "{src}: {:?}",
                g.code
            );
        }
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
        assert_eq!(mk.code[0], Op::NewBox { b: 0, src: k(0) });
        let inner = &mk.protos[0];
        assert_eq!(inner.upvals, vec![UpvalDesc::ParentBox(0)]);
    }

    #[test]
    fn const_field_access_uses_key_pool() {
        let c = chunk("x = t.load + t[2]");
        assert!(c.main.code.contains(&Op::GetConst {
            dst: 0,
            base: r(0),
            key: 0
        }));
        assert_eq!(c.main.keys[0], Key::Str(Str::new(b"load")));
        assert_eq!(c.main.keys[1], Key::Int(2));
    }

    #[test]
    fn non_integer_const_key_stays_dynamic() {
        let c = chunk("x = t[1.5]");
        assert!(c.main.code.contains(&Op::GetIndex {
            dst: 0,
            base: r(0),
            idx: k(0)
        }));
        assert!(c.main.keys.is_empty());
    }

    #[test]
    fn jumps_are_patched_forward() {
        let c = chunk("if a then b = 1 else b = 2 end");
        let mut jumps = 0;
        for op in &c.main.code {
            if let Op::Jump(t) | Op::JumpIf { to: t, .. } = op {
                assert!((*t as usize) <= c.main.code.len());
                assert!(*t > 0, "patched jump must not target 0 here");
                jumps += 1;
            }
        }
        assert_eq!(jumps, 2);
    }

    #[test]
    fn a_condition_is_one_compare_and_branch() {
        let c = chunk("function f(pos, lo) if pos > lo and pos ~= nil then return 1 end end");
        let f = &c.main.protos[0];
        let branches = [
            Op::JumpLe {
                a: r(0),
                b: r(1),
                want: true,
                to: 3,
            },
            Op::JumpEq {
                a: r(0),
                b: k(0),
                want: true,
                to: 3,
            },
        ];
        assert_eq!(f.code[..2], branches);
        assert_eq!(f.n_slots, 2);
    }

    #[test]
    fn slot_reuse_across_sibling_scopes() {
        let c = chunk(
            "if a then local x = 1 print(x) end
             if b then local y = 2 print(y) end",
        );
        // The local, then the call window: callee and one argument.
        assert_eq!(c.main.n_slots, 3);
    }

    #[test]
    fn a_call_window_is_the_top_of_the_frame() {
        let c = chunk("function f(a) local v = g(h(a), 2) return v end");
        let f = &c.main.protos[0];
        // `v` is slot 1 and the outer window starts there; the inner call's
        // window starts in the outer one's first argument slot.
        assert!(f.code.contains(&Op::Call { at: 2, argc: 1 }));
        assert!(f.code.contains(&Op::Call { at: 1, argc: 2 }));
        assert_eq!(f.code[f.code.len() - 2], Op::Ret { src: r(1) });
        assert_eq!(f.n_slots, 4);
    }

    #[test]
    fn left_chains_reuse_one_temporary() {
        let c = chunk(&format!("function f(a) return a{} end", " + a".repeat(300)));
        assert_eq!(c.main.protos[0].n_slots, 2);
    }

    #[test]
    fn an_instruction_is_eight_bytes() {
        assert_eq!(std::mem::size_of::<Op>(), 8);
    }

    #[test]
    fn slot_overflow_is_an_error_naming_the_limit() {
        let args = vec!["1"; 70_000].join(", ");
        let script = Script::compile(&format!("f({args})")).unwrap();
        let err = compile(&script).unwrap_err();
        assert!(err.message.contains("slots"), "{err}");
        assert!(err.message.contains("32768"), "{err}");
    }

    #[test]
    fn disassembly_names_operands() {
        let c = chunk("function f(a) return a + 1 end\nx = f(2)");
        let d = c.disassemble();
        assert!(d.contains("== main ()"), "{d}");
        assert!(d.contains("== main/f (a)"), "{d}");
        assert!(d.contains("; f"), "{d}");
        assert!(d.contains("Add { dst: 1, a: r0, b: k0 } ; 1"), "{d}");
    }

    #[test]
    fn concat_chain_is_one_op() {
        let concats = |src: &str| -> Vec<u16> {
            let code = chunk(src).main.code.clone();
            let ops = code.iter().filter_map(|op| match op {
                Op::Concat { n, .. } => Some(*n),
                _ => None,
            });
            ops.collect()
        };
        assert_eq!(concats("x = a .. 1 .. b .. \"s\" .. c"), [5]);
        assert_eq!(concats("x = a .. (b .. c)"), [3]);
        // A chain on the left is an operand, joined before the outer one.
        assert_eq!(concats("x = (a .. b) .. c"), [2, 2]);
    }

    #[test]
    fn break_outside_loop_returns_nil() {
        let c = chunk("break");
        assert_eq!(c.main.code[0], Op::Ret { src: k(0) });
        assert_eq!(c.main.consts[0], Value::Nil);
    }
}

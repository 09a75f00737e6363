//! Bytecode compiler for Cephalo: lowers the AST to register-addressed
//! chunks executed by [`crate::vm::Vm`].
//!
//! The tree-walking interpreter of the dev-only `mala-dsl-oracle` crate
//! remains the reference semantics; the compiler/VM pair exists because
//! per-op policy evaluation (Mantle ticks, object-class calls) is a hot
//! path. Lowering decisions that matter for equivalence:
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
//! One deliberate semantic difference from the reference interpreter,
//! documented in DESIGN §18: the compiler resolves names *lexically*, so a
//! function literal referencing a local declared **later** in an enclosing
//! block sees a global, where the interpreter's dynamic scope-chain lookup
//! would see the local once it is declared. This matches Lua's actual
//! scoping rules; the differential generator (`tests/testgen`) only emits
//! references to already-declared names.

use std::collections::BTreeSet;
use std::rc::Rc;

use crate::ast::Block;
use crate::value::{Key, Value};
use crate::Script;

mod capture;
mod disasm;
mod expr;
mod scope;
mod stmt;

use capture::captured_names;

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
    captured: BTreeSet<String>,
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
}

#[cfg(test)]
mod tests;

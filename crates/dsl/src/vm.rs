//! Register VM executing compiled Cephalo chunks.
//!
//! The engine of every production path (object classes, Mantle policies);
//! its public surface is [`Engine`]. Semantics are defined by the
//! tree-walking interpreter, which implements the same trait; the
//! differential harness (the `differential` integration test and its
//! `testgen` program generator) holds this implementation to it.
//!
//! Layout at runtime: one shared slot array; a frame is the window
//! `stack[base .. base + n_slots]` — parameters, locals and loop control,
//! then expression temporaries — and instructions name their operands by
//! slot or constant-pool index ([`compile::Rk`]) and read them in place.
//! A call's callee and arguments are the top slots of the caller's window,
//! so the callee's frame starts at its first argument, a native reads its
//! arguments as a slice of the array, and the result replaces the callee:
//! no value is copied to be passed. A slot above the running frame may
//! hold a finished callee's value until it is overwritten or the run ends;
//! nothing reads it. Closure-captured locals live in per-frame
//! `Rc<RefCell<Value>>` boxes so nested closures share the same storage the
//! interpreter's scope chain provides; iterator state for generic `for`
//! lives on a parallel stack of table snapshots. Every executed
//! instruction costs one sandbox step; call depth is charged per
//! script-function frame (the top-level chunk frame is free, as in the
//! interpreter). The slot array and the frame stack are reusable buffers
//! owned by the [`Vm`], but [`Vm::run`] clears them on every exit —
//! including error returns — so a budget trip cannot leave poisoned state
//! behind.

use std::any::Any;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

use crate::compile::{self, Op, Proto, UpvalDesc};
use crate::runtime::{compare, concat, num_of, to_key, Engine, RtError, Sandbox};
use crate::value::{HostCtx, Key, Native, NativeFn, Value};
use crate::Script;

/// A compiled function bound to its captured upvalues.
pub struct Closure {
    /// The compiled body.
    pub proto: Rc<Proto>,
    /// Captured boxes, parallel to `proto.upvals`.
    pub upvals: Vec<Rc<RefCell<Value>>>,
    /// Global slots, parallel to `proto.names`: resolved against the
    /// owning [`Vm`]'s globals table when the closure is created, so
    /// `LoadGlobal`/`StoreGlobal` index a vector instead of hashing the
    /// name on every access.
    pub(crate) slots: Rc<[u32]>,
}

impl fmt::Debug for Closure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Matches the tree-walker's `<function name(params)>` rendering so
        // `tostring(f)` is engine-independent.
        write!(
            f,
            "<function {}({})>",
            self.proto.name,
            self.proto.params.join(", ")
        )
    }
}

struct Frame {
    closure: Rc<Closure>,
    ip: usize,
    base: usize,
    /// Box slots; `None` until the declaration's `NewBox` executes.
    boxes: Vec<Option<Rc<RefCell<Value>>>>,
    /// Iterator-stack watermark to restore on return.
    iter_base: usize,
    /// Whether this frame counted against `Sandbox::max_depth`.
    depth_counted: bool,
}

/// Multiply-xor hasher for the globals table. Global names are short
/// interned strings hashed on every `LoadGlobal`/`StoreGlobal`; SipHash's
/// fixed setup cost dominates at that key size, so the VM uses an
/// FxHash-style mix instead. Not DoS-resistant — fine for a table whose
/// keys come from compiled scripts, not network input.
#[derive(Default)]
struct FxHasher(u64);

impl std::hash::Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
        for &b in bytes {
            self.0 = (self.0.rotate_left(5) ^ u64::from(b)).wrapping_mul(SEED);
        }
    }
}

type GlobalNames = HashMap<Rc<str>, u32, std::hash::BuildHasherDefault<FxHasher>>;

/// A Cephalo bytecode VM instance: globals, natives, output buffer, and
/// sandbox accounting — the compiled counterpart of [`crate::Interp`].
///
/// Globals are slotted: `global_names` interns each name to an index into
/// `global_vals` the first time it is seen, and closures carry their
/// name→slot resolution (see [`Closure::slots`]), so steady-state global
/// access never hashes. Slots are never removed; assigning `nil` just
/// stores `nil`, which reads back the same as an unknown name.
pub struct Vm {
    global_names: GlobalNames,
    global_vals: Vec<Value>,
    sandbox: Sandbox,
    output: Vec<String>,
    steps_left: u64,
    depth: u32,
    /// Reusable slot array; always left empty between runs.
    stack_buf: Vec<Value>,
    /// Reusable frame stack; always left empty between runs.
    frames_buf: Vec<Frame>,
}

impl Default for Vm {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine for Vm {
    fn with_sandbox(sandbox: Sandbox) -> Vm {
        let mut vm = Vm {
            global_names: GlobalNames::default(),
            global_vals: Vec::new(),
            sandbox,
            output: Vec::new(),
            steps_left: 0,
            depth: 0,
            stack_buf: Vec::with_capacity(64),
            frames_buf: Vec::with_capacity(8),
        };
        crate::stdlib::install(&mut vm);
        vm
    }

    fn register(&mut self, name: &str, f: NativeFn) {
        self.set_global(
            name,
            Value::Native(Rc::new(Native {
                name: name.to_string(),
                f,
            })),
        );
    }

    fn set_global(&mut self, name: &str, v: Value) {
        let s = self.slot(name);
        self.global_vals[s as usize] = v;
    }

    fn global(&self, name: &str) -> Value {
        self.global_names
            .get(name)
            .map(|&s| self.global_vals[s as usize].clone())
            .unwrap_or(Value::Nil)
    }

    fn take_output(&mut self) -> Vec<String> {
        std::mem::take(&mut self.output)
    }

    fn has_function(&self, name: &str) -> bool {
        matches!(self.global(name), Value::Closure(_) | Value::Native { .. })
    }

    /// Compiles, then executes the top level: a compile error surfaces as
    /// a runtime error, with the message the interpreter would raise when
    /// it reached the offending statement.
    fn load_with(&mut self, script: &Script, host: &mut dyn Any) -> Result<(), RtError> {
        let chunk = compile::compile(script).map_err(|e| RtError::new(e.message))?;
        self.steps_left = self.sandbox.max_steps;
        self.depth = 0;
        let main = Rc::new(Closure {
            proto: Rc::clone(&chunk.main),
            upvals: Vec::new(),
            slots: self.resolve_slots(&chunk.main),
        });
        self.run(main, &[], host, false)?;
        Ok(())
    }

    fn call(&mut self, name: &str, args: &[Value], host: &mut dyn Any) -> Result<Value, RtError> {
        let f = self.global(name);
        if matches!(f, Value::Nil) {
            return Err(RtError::new(format!("no such function `{name}`")));
        }
        self.steps_left = self.sandbox.max_steps;
        self.depth = 0;
        match &f {
            Value::Closure(c) => self.run(Rc::clone(c), args, host, true),
            _ => self.call_value(&f, args.to_vec(), host),
        }
    }

    fn call_value(
        &mut self,
        f: &Value,
        args: Vec<Value>,
        host: &mut dyn Any,
    ) -> Result<Value, RtError> {
        match f {
            Value::Closure(c) => self.run(Rc::clone(c), &args, host, true),
            Value::Native(n) => {
                let mut ctx = HostCtx {
                    host,
                    output: &mut self.output,
                };
                (n.f)(&mut ctx, &args)
            }
            Value::Func(_) => Err(RtError::new(
                "attempt to call a tree-walker function from the bytecode VM",
            )),
            other => Err(cannot("call", other)),
        }
    }
}

impl Vm {
    /// Interns a global name, allocating a nil-valued slot on first use.
    fn slot(&mut self, name: &str) -> u32 {
        if let Some(&s) = self.global_names.get(name) {
            return s;
        }
        let s = u32::try_from(self.global_vals.len()).expect("global slot count fits u32");
        self.global_names.insert(Rc::from(name), s);
        self.global_vals.push(Value::Nil);
        s
    }

    /// Resolves a proto's global-name pool to slots for a new closure.
    fn resolve_slots(&mut self, proto: &Proto) -> Rc<[u32]> {
        proto.names.iter().map(|n| self.slot(n)).collect()
    }

    /// Pushes a call frame over the `argc` arguments already in
    /// `stack[base..]`: missing parameters read nil, extra arguments are
    /// ignored (interp rules; they sit where the frame's own locals and
    /// temporaries go, which are written before they are read).
    #[allow(clippy::too_many_arguments)]
    fn push_frame(
        &mut self,
        stack: &mut Vec<Value>,
        frames: &mut Vec<Frame>,
        iter_base: usize,
        closure: Rc<Closure>,
        base: usize,
        argc: usize,
        counted: bool,
    ) -> Result<(), RtError> {
        if counted {
            if self.depth >= self.sandbox.max_depth {
                return Err(RtError::new("call depth limit exceeded"));
            }
            self.depth += 1;
        }
        let np = closure.proto.params.len();
        let top = base + closure.proto.n_slots as usize;
        if stack.len() < top {
            stack.resize(top, Value::Nil);
        }
        stack[base + argc.min(np)..base + np].fill(Value::Nil);
        frames.push(Frame {
            boxes: vec![None; closure.proto.n_boxes as usize],
            closure,
            ip: 0,
            base,
            iter_base,
            depth_counted: counted,
        });
        Ok(())
    }

    /// Entry point around [`Vm::run_inner`]: borrows the reusable slot and
    /// frame buffers and returns them **cleared** on every exit, so an
    /// error — including a sandbox trip — cannot poison later entries.
    fn run(
        &mut self,
        closure: Rc<Closure>,
        args: &[Value],
        host: &mut dyn Any,
        counted: bool,
    ) -> Result<Value, RtError> {
        let mut stack = std::mem::take(&mut self.stack_buf);
        let mut frames = std::mem::take(&mut self.frames_buf);
        stack.extend_from_slice(args);
        // A local while the loop (inlined here) runs: counting a step is a
        // register decrement, not a load and a store through `self`.
        let mut steps = self.steps_left;
        let result = self
            .push_frame(&mut stack, &mut frames, 0, closure, 0, args.len(), counted)
            .and_then(|()| self.run_inner(&mut steps, &mut stack, &mut frames, host));
        self.steps_left = steps;
        stack.clear();
        frames.clear();
        self.stack_buf = stack;
        self.frames_buf = frames;
        result
    }

    /// The dispatch loop, over the frame [`Vm::run`] pushed. The running
    /// frame's `ip`, code, constants and window are locals, re-derived only
    /// at a frame switch, so straight-line instructions never touch the
    /// frame stack. The iterator stack is a local: an error drops it whole.
    #[inline(always)]
    fn run_inner(
        &mut self,
        steps: &mut u64,
        stack: &mut Vec<Value>,
        frames: &mut Vec<Frame>,
        host: &mut dyn Any,
    ) -> Result<Value, RtError> {
        let mut iters: Vec<std::vec::IntoIter<(Key, Value)>> = Vec::new();
        // One turn per activation of a frame (entered, or returned to): what
        // its instructions share is borrowed once, until the next switch.
        'frame: loop {
            let top = frames.last().expect("frame");
            let cl = Rc::clone(&top.closure);
            let base = top.base;
            let mut ip = top.ip;
            let code = &cl.proto.code[..];
            let consts = &cl.proto.consts[..];
            let regs = &mut stack[base..base + cl.proto.n_slots as usize];
            // An operand where it is: a constant of the running proto, or
            // a slot of the running frame.
            macro_rules! rk {
                ($x:expr) => {
                    match $x.as_const() {
                        Some(k) => &consts[k],
                        None => &regs[$x.as_slot()],
                    }
                };
            }
            macro_rules! arith {
                ($dst:expr, $a:expr, $b:expr, |$x:ident, $y:ident| $r:expr) => {{
                    let $x = num_of(rk!($a))?;
                    let $y = num_of(rk!($b))?;
                    regs[$dst as usize] = Value::Num($r);
                }};
            }
            macro_rules! jump_if {
                ($holds:expr, $want:expr, $to:expr) => {
                    if $holds == $want {
                        ip = $to as usize;
                    }
                };
            }
            loop {
                if *steps == 0 {
                    return Err(RtError::new("instruction budget exceeded"));
                }
                *steps -= 1;
                let op = code[ip];
                ip += 1;
                match op {
                    Op::Move { dst, src } => regs[dst as usize] = rk!(src).clone(),
                    Op::LoadBox { dst, b } => {
                        let v = frames.last().expect("frame").boxes[b as usize]
                            .as_ref()
                            .expect("box bound at declaration")
                            .borrow()
                            .clone();
                        regs[dst as usize] = v;
                    }
                    Op::StoreBox { b, src } => {
                        *frames.last().expect("frame").boxes[b as usize]
                            .as_ref()
                            .expect("box bound at declaration")
                            .borrow_mut() = rk!(src).clone();
                    }
                    Op::NewBox { b, src } => {
                        frames.last_mut().expect("frame").boxes[b as usize] =
                            Some(Rc::new(RefCell::new(rk!(src).clone())));
                    }
                    Op::LoadUpval { dst, u } => {
                        regs[dst as usize] = cl.upvals[u as usize].borrow().clone();
                    }
                    Op::StoreUpval { u, src } => {
                        *cl.upvals[u as usize].borrow_mut() = rk!(src).clone();
                    }
                    Op::LoadGlobal { dst, name } => {
                        regs[dst as usize] =
                            self.global_vals[cl.slots[name as usize] as usize].clone();
                    }
                    Op::StoreGlobal { name, src } => {
                        self.global_vals[cl.slots[name as usize] as usize] = rk!(src).clone();
                    }
                    Op::NewTable { dst } => regs[dst as usize] = Value::table(),
                    Op::TablePush { table, src } => match &regs[table as usize] {
                        Value::Table(t) => t.borrow_mut().push(rk!(src).clone()),
                        _ => unreachable!("table literal under construction"),
                    },
                    Op::TableSetConst { table, key, src } => match &regs[table as usize] {
                        Value::Table(t) => {
                            let key = cl.proto.keys[key as usize].clone();
                            t.borrow_mut().set(key, rk!(src).clone());
                        }
                        _ => unreachable!("table literal under construction"),
                    },
                    Op::GetIndex { dst, base: b, idx } => {
                        let v = match rk!(b) {
                            Value::Table(t) => t.borrow().get(&to_key(rk!(idx))?),
                            other => return Err(cannot("index", other)),
                        };
                        regs[dst as usize] = v;
                    }
                    Op::GetConst { dst, base: b, key } => {
                        let v = match rk!(b) {
                            Value::Table(t) => t.borrow().get(&cl.proto.keys[key as usize]),
                            other => return Err(cannot("index", other)),
                        };
                        regs[dst as usize] = v;
                    }
                    Op::SetIndex { base: b, idx, src } => {
                        // Key conversion precedes the base-type check, as
                        // in the interpreter's assignment path.
                        let key = to_key(rk!(idx))?;
                        match rk!(b) {
                            Value::Table(t) => t.borrow_mut().set(key, rk!(src).clone()),
                            other => return Err(cannot("index", other)),
                        }
                    }
                    Op::SetConst { base: b, key, src } => match rk!(b) {
                        Value::Table(t) => {
                            let key = cl.proto.keys[key as usize].clone();
                            t.borrow_mut().set(key, rk!(src).clone());
                        }
                        other => return Err(cannot("index", other)),
                    },
                    Op::Add { dst, a, b } => arith!(dst, a, b, |x, y| x + y),
                    Op::Sub { dst, a, b } => arith!(dst, a, b, |x, y| x - y),
                    Op::Mul { dst, a, b } => arith!(dst, a, b, |x, y| x * y),
                    Op::Div { dst, a, b } => arith!(dst, a, b, |x, y| x / y),
                    // Lua semantics: the result has the sign of the divisor.
                    Op::Mod { dst, a, b } => arith!(dst, a, b, |x, y| x - (x / y).floor() * y),
                    Op::Pow { dst, a, b } => arith!(dst, a, b, |x, y| x.powf(y)),
                    Op::Concat { dst, first, n } => {
                        let first = first as usize;
                        regs[dst as usize] = concat(&regs[first..first + n as usize])?;
                    }
                    Op::Eq { dst, a, b, want } => {
                        regs[dst as usize] = Value::Bool((rk!(a) == rk!(b)) == want);
                    }
                    Op::Lt { dst, a, b, want } => {
                        let holds = compare(rk!(a), rk!(b))?.is_lt();
                        regs[dst as usize] = Value::Bool(holds == want);
                    }
                    Op::Le { dst, a, b, want } => {
                        let holds = compare(rk!(a), rk!(b))?.is_le();
                        regs[dst as usize] = Value::Bool(holds == want);
                    }
                    Op::Neg { dst, src } => {
                        regs[dst as usize] = Value::Num(-num_of(rk!(src))?);
                    }
                    Op::Not { dst, src } => {
                        regs[dst as usize] = Value::Bool(!rk!(src).truthy());
                    }
                    Op::Len { dst, src } => {
                        let len = match rk!(src) {
                            Value::Table(t) => t.borrow().len(),
                            Value::Str(s) => s.len(),
                            other => return Err(cannot("get length of", other)),
                        };
                        regs[dst as usize] = Value::Num(len as f64);
                    }
                    Op::CheckNum { src } => {
                        num_of(&regs[src as usize])?;
                    }
                    Op::Jump(t) => ip = t as usize,
                    Op::JumpIf { src, want, to } => jump_if!(rk!(src).truthy(), want, to),
                    Op::JumpEq { a, b, want, to } => jump_if!((rk!(a) == rk!(b)), want, to),
                    Op::JumpLt { a, b, want, to } => {
                        jump_if!(compare(rk!(a), rk!(b))?.is_lt(), want, to)
                    }
                    Op::JumpLe { a, b, want, to } => {
                        jump_if!(compare(rk!(a), rk!(b))?.is_le(), want, to)
                    }
                    Op::ForPrep { slot, to } => {
                        // The bounds are numbers: by their form, or CheckNum.
                        let ctl = &mut regs[slot as usize..slot as usize + 4];
                        let start = ctl[0].as_num().expect("for start");
                        let stop = ctl[1].as_num().expect("for stop");
                        let step = ctl[2].as_num().expect("for step");
                        if step == 0.0 {
                            return Err(RtError::new("for loop step is zero"));
                        }
                        if (step > 0.0 && start <= stop) || (step < 0.0 && start >= stop) {
                            ctl[3] = Value::Num(start);
                        } else {
                            ip = to as usize;
                        }
                    }
                    Op::ForLoop { slot, to } => {
                        let ctl = &mut regs[slot as usize..slot as usize + 4];
                        let step = ctl[2].as_num().expect("for step");
                        let stop = ctl[1].as_num().expect("for stop");
                        let i = ctl[0].as_num().expect("for control") + step;
                        if (step > 0.0 && i <= stop) || (step < 0.0 && i >= stop) {
                            ctl[0] = Value::Num(i);
                            ctl[3] = Value::Num(i);
                            ip = to as usize;
                        }
                    }
                    Op::IterNew { src } => match rk!(src) {
                        Value::Table(t) => {
                            // Snapshot entries so the body may mutate the
                            // table, as the interpreter does.
                            let entries: Vec<(Key, Value)> = t.borrow().iter().collect();
                            iters.push(entries.into_iter());
                        }
                        other => return Err(cannot("iterate", other)),
                    },
                    Op::IterNext { dst, to } => {
                        match iters.last_mut().expect("open iterator").next() {
                            Some((k, v)) => {
                                regs[dst as usize] = match k {
                                    Key::Int(i) => Value::Num(i as f64),
                                    Key::Str(s) => Value::Str(s),
                                };
                                regs[dst as usize + 1] = v;
                            }
                            None => {
                                iters.pop();
                                ip = to as usize;
                            }
                        }
                    }
                    Op::IterDrop => {
                        iters.pop().expect("open iterator");
                    }
                    Op::Call { at, argc } => {
                        // The arguments are where they were evaluated: a
                        // script callee's frame starts at the first, a
                        // native borrows them as a slice. Neither copies.
                        let at = at as usize;
                        let args = at + 1..at + 1 + argc as usize;
                        match &regs[at] {
                            Value::Closure(c) => {
                                let c = Rc::clone(c);
                                frames.last_mut().expect("frame").ip = ip;
                                let (at, argc) = (base + args.start, args.len());
                                self.push_frame(stack, frames, iters.len(), c, at, argc, true)?;
                                continue 'frame;
                            }
                            Value::Native(nat) => {
                                let mut ctx = HostCtx {
                                    host,
                                    output: &mut self.output,
                                };
                                regs[at] = (nat.f)(&mut ctx, &regs[args])?;
                            }
                            Value::Func(_) => {
                                return Err(RtError::new(
                                    "attempt to call a tree-walker function from the bytecode VM",
                                ))
                            }
                            other => return Err(cannot("call", other)),
                        }
                    }
                    Op::Ret { src } => {
                        // The frame is dead: a slot's value is moved out.
                        let ret = match src.as_const() {
                            Some(k) => consts[k].clone(),
                            None => std::mem::take(&mut regs[src.as_slot()]),
                        };
                        let frame = frames.pop().expect("frame");
                        iters.truncate(frame.iter_base);
                        if frame.depth_counted {
                            self.depth -= 1;
                        }
                        if frames.is_empty() {
                            return Ok(ret);
                        }
                        // The result replaces the callee, one slot below
                        // the frame that computed it.
                        stack[base - 1] = ret;
                        continue 'frame;
                    }
                    Op::Closure { dst, proto } => {
                        let proto = Rc::clone(&cl.proto.protos[proto as usize]);
                        let slots = self.resolve_slots(&proto);
                        let frame = frames.last().expect("frame");
                        let upvals = proto.upvals.iter().map(|d| match d {
                            UpvalDesc::ParentBox(b) => Rc::clone(
                                frame.boxes[*b as usize]
                                    .as_ref()
                                    .expect("captured box bound before closure creation"),
                            ),
                            UpvalDesc::ParentUpval(u) => Rc::clone(&cl.upvals[*u as usize]),
                        });
                        let upvals = upvals.collect();
                        regs[dst as usize] = Value::Closure(Rc::new(Closure {
                            proto,
                            upvals,
                            slots,
                        }));
                    }
                }
            }
        }
    }
}

/// `v` is of no type that can be indexed, called, iterated or measured.
fn cannot(verb: &str, v: &Value) -> RtError {
    RtError::new(format!("attempt to {verb} a {} value", v.type_name()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vm {
        let script = Script::compile(src).unwrap();
        let mut vm = Vm::new();
        vm.load(&script).unwrap();
        vm
    }

    fn eval_global(src: &str, name: &str) -> Value {
        run(src).global(name)
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(eval_global("x = 1 + 2 * 3 - 4 / 2", "x"), Value::from(5.0));
        assert_eq!(eval_global("x = 2 ^ 10", "x"), Value::from(1024.0));
        assert_eq!(eval_global("x = 7 % 3", "x"), Value::from(1.0));
        assert_eq!(eval_global("x = -7 % 3", "x"), Value::from(2.0));
    }

    #[test]
    fn short_circuit_and_or() {
        assert_eq!(eval_global("x = nil or 5", "x"), Value::from(5.0));
        assert_eq!(
            eval_global("x = false and crash()", "x"),
            Value::from(false)
        );
        assert_eq!(eval_global("x = 1 and 2", "x"), Value::from(2.0));
    }

    #[test]
    fn control_flow_matches_interpreter() {
        let src = "
            x = 0
            while true do
                x = x + 1
                if x >= 5 then break end
            end
            y = 0 repeat y = y + 1 until y >= 3
            s = 0 for i = 1, 10 do s = s + i end
            r = 0 for i = 10, 1, -2 do r = r + i end
        ";
        let vm = run(src);
        assert_eq!(vm.global("x"), Value::from(5.0));
        assert_eq!(vm.global("y"), Value::from(3.0));
        assert_eq!(vm.global("s"), Value::from(55.0));
        assert_eq!(vm.global("r"), Value::from(30.0));
    }

    #[test]
    fn generic_for_iterates_array_then_map() {
        let src = "
            t = {10, 20, small = 1, big = 2}
            ks = \"\"
            total = 0
            for k, v in t do
                ks = ks .. k .. \";\"
                total = total + v
            end
        ";
        let vm = run(src);
        assert_eq!(vm.global("ks"), Value::str("1;2;big;small;"));
        assert_eq!(vm.global("total"), Value::from(33.0));
    }

    #[test]
    fn break_inside_generic_for_drops_iterator() {
        let src = "
            n = 0
            for k, v in {1, 2, 3, 4} do
                n = n + v
                if v >= 2 then break end
            end
            -- a second loop must start from a clean iterator stack
            m = 0
            for k, v in {5, 6} do m = m + v end
        ";
        let vm = run(src);
        assert_eq!(vm.global("n"), Value::from(3.0));
        assert_eq!(vm.global("m"), Value::from(11.0));
    }

    #[test]
    fn functions_recursion_and_closures() {
        let src = "
            function fib(n)
                if n < 2 then return n end
                return fib(n - 1) + fib(n - 2)
            end
            x = fib(15)
            function counter()
                local n = 0
                return function()
                    n = n + 1
                    return n
                end
            end
            c = counter()
            a = c()
            b = c()
        ";
        let vm = run(src);
        assert_eq!(vm.global("x"), Value::from(610.0));
        assert_eq!(vm.global("a"), Value::from(1.0));
        assert_eq!(vm.global("b"), Value::from(2.0));
    }

    #[test]
    fn two_closures_share_one_box() {
        let src = "
            function pair()
                local n = 0
                local t = {}
                t.inc = function() n = n + 1 return n end
                t.get = function() return n end
                return t
            end
            p = pair()
            a = p.inc()
            b = p.inc()
            g = p.get()
        ";
        let vm = run(src);
        assert_eq!(vm.global("a"), Value::from(1.0));
        assert_eq!(vm.global("b"), Value::from(2.0));
        assert_eq!(vm.global("g"), Value::from(2.0));
    }

    #[test]
    fn loop_iterations_get_fresh_boxes() {
        // Each iteration's captured local is a distinct box, matching the
        // interpreter's fresh per-iteration scope.
        let src = "
            fs = {}
            for i = 1, 3 do
                local v = i * 10
                insert(fs, function() return v end)
            end
            a = fs[1]()
            b = fs[2]()
            c = fs[3]()
        ";
        let vm = run(src);
        assert_eq!(vm.global("a"), Value::from(10.0));
        assert_eq!(vm.global("b"), Value::from(20.0));
        assert_eq!(vm.global("c"), Value::from(30.0));
    }

    #[test]
    fn call_entry_point_with_args() {
        let script = Script::compile("function add(a, b) return a + b end").unwrap();
        let mut vm = Vm::new();
        vm.load(&script).unwrap();
        let out = vm
            .call("add", &[Value::from(2.0), Value::from(3.0)], &mut ())
            .unwrap();
        assert_eq!(out, Value::from(5.0));
        // Missing args bind nil → type error inside; extra args dropped.
        assert!(vm.call("add", &[Value::from(1.0)], &mut ()).is_err());
        let out = vm
            .call(
                "add",
                &[Value::from(1.0), Value::from(2.0), Value::from(9.0)],
                &mut (),
            )
            .unwrap();
        assert_eq!(out, Value::from(3.0));
    }

    #[test]
    fn missing_function_errors() {
        let mut vm = Vm::new();
        let err = vm.call("nope", &[], &mut ()).unwrap_err();
        assert!(err.message.contains("no such function"));
    }

    #[test]
    fn native_function_with_host_state() {
        let mut vm = Vm::new();
        vm.register(
            "bump",
            Rc::new(|ctx, args| {
                let counter = ctx.host.downcast_mut::<u32>().expect("host is u32");
                *counter += args[0].as_num().unwrap_or(0.0) as u32;
                Ok(Value::Num(*counter as f64))
            }),
        );
        let script = Script::compile("function go() return bump(5) + bump(1) end").unwrap();
        let mut host = 10u32;
        vm.load(&script).unwrap();
        let out = vm.call("go", &[], &mut host).unwrap();
        assert_eq!(host, 16);
        assert_eq!(out, Value::from(31.0));
    }

    #[test]
    fn instruction_budget_stops_infinite_loops() {
        let script = Script::compile("while true do x = 1 end").unwrap();
        let mut vm = Vm::with_sandbox(Sandbox {
            max_steps: 10_000,
            max_depth: 16,
        });
        let err = vm.load(&script).unwrap_err();
        assert!(err.message.contains("budget"));
    }

    #[test]
    fn call_depth_limit_stops_runaway_recursion() {
        let script = Script::compile("function f() return f() end\n").unwrap();
        let mut vm = Vm::with_sandbox(Sandbox {
            max_steps: 1_000_000,
            max_depth: 32,
        });
        vm.load(&script).unwrap();
        let err = vm.call("f", &[], &mut ()).unwrap_err();
        assert!(err.message.contains("depth"));
    }

    #[test]
    fn budget_resets_between_calls() {
        let script = Script::compile(
            "function burn() local s = 0 for i = 1, 100 do s = s + i end return s end",
        )
        .unwrap();
        let mut vm = Vm::with_sandbox(Sandbox {
            max_steps: 5_000,
            max_depth: 8,
        });
        vm.load(&script).unwrap();
        for _ in 0..50 {
            vm.call("burn", &[], &mut ()).unwrap();
        }
    }

    #[test]
    fn type_errors_match_interpreter_messages() {
        let check = |src: &str, needle: &str| {
            let script = Script::compile(src).unwrap();
            let err = Vm::new().load(&script).unwrap_err();
            assert!(
                err.message.contains(needle),
                "{src}: {} !~ {needle}",
                err.message
            );
        };
        check("x = 1 + \"a\"", "expected a number");
        check("x = nil .. {}", "concatenate");
        check("x = {} < {}", "compare");
        check("x = nil[1]", "index");
        check("local f = 3 f()", "call");
        check("x = #5", "length");
        check("for i = 1, 10, 0 do break end", "step is zero");
    }

    #[test]
    fn stdlib_is_shared_with_interpreter() {
        let src = "
            a = floor(2.7) b = max(1, 9, 3) t = split(\"x:y\", \":\")
            n = #t
            print(\"hi\", 1)
        ";
        let mut vm = run(src);
        assert_eq!(vm.global("a"), Value::from(2.0));
        assert_eq!(vm.global("b"), Value::from(9.0));
        assert_eq!(vm.global("n"), Value::from(2.0));
        assert_eq!(vm.take_output(), vec!["hi\t1"]);
    }

    #[test]
    fn tables_nested_access_and_rhs_first_assignment() {
        let src = "
            t = {inner = {x = 1}}
            t.inner.x = t.inner.x + 41
            t[1] = \"first\"
            v = t.inner.x
            w = t[1]
        ";
        let vm = run(src);
        assert_eq!(vm.global("v"), Value::from(42.0));
        assert_eq!(vm.global("w"), Value::str("first"));
    }

    #[test]
    fn function_display_matches_interpreter() {
        let vm = run("function f(a, b) return a end\ns = tostring(f)");
        assert_eq!(vm.global("s"), Value::str("<function f(a, b)>"));
    }
}

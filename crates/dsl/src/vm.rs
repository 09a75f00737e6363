//! Stack VM executing compiled Cephalo chunks.
//!
//! The engine of every production path (object classes, Mantle policies);
//! its public surface is [`Engine`]. Semantics are defined by the
//! tree-walking interpreter, which implements the same trait; the
//! differential harness (the `differential` integration test and its
//! `testgen` program generator) holds this implementation to it.
//!
//! Layout at runtime: one shared operand stack; a frame's plain locals
//! live at `stack[base .. base + n_slots]`; closure-captured locals live
//! in per-frame `Rc<RefCell<Value>>` boxes so nested closures share the
//! same storage the interpreter's scope chain provides. Iterator state
//! for generic `for` lives on a parallel stack of table snapshots. Every
//! executed opcode costs one sandbox step; call depth is charged per
//! script-function frame (the top-level chunk frame is free, as in the
//! interpreter). The operand and frame stacks are reusable buffers owned
//! by the [`Vm`], but [`Vm::run`] clears them on every exit — including
//! error returns — so a budget trip cannot leave poisoned state behind:
//! the next entry point starts from an empty stack. The dispatch loop
//! keeps the active frame's `ip`/`base`/closure in locals, writing `ip`
//! back only across calls, so straight-line opcodes never touch the
//! frame stack.

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
    /// Reusable operand stack; always left empty between runs.
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
            other => Err(RtError::new(format!(
                "attempt to call a {} value",
                other.type_name()
            ))),
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

    /// Pushes a call frame whose `argc` arguments are already the top of
    /// `stack`; pads missing parameters with nil and drops extras
    /// (interp rules).
    fn push_frame(
        &mut self,
        stack: &mut Vec<Value>,
        frames: &mut Vec<Frame>,
        iter_base: usize,
        closure: Rc<Closure>,
        argc: usize,
        counted: bool,
    ) -> Result<(), RtError> {
        if counted {
            if self.depth >= self.sandbox.max_depth {
                return Err(RtError::new("call depth limit exceeded"));
            }
            self.depth += 1;
        }
        let base = stack.len() - argc;
        let np = closure.proto.params.len();
        stack.truncate(base + argc.min(np));
        stack.resize(base + closure.proto.n_slots as usize, Value::Nil);
        let boxes = vec![None; closure.proto.n_boxes as usize];
        frames.push(Frame {
            closure,
            ip: 0,
            base,
            boxes,
            iter_base,
            depth_counted: counted,
        });
        Ok(())
    }

    /// Entry point around [`Vm::run_inner`]: borrows the reusable operand
    /// and frame buffers and returns them **cleared** on every exit, so an
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
        let result = self.run_inner(&mut stack, &mut frames, closure, args, host, counted);
        stack.clear();
        frames.clear();
        self.stack_buf = stack;
        self.frames_buf = frames;
        result
    }

    /// The dispatch loop. The active frame's `ip`, `base`, and closure are
    /// cached in locals (`ip` is written back to the frame only across
    /// calls), so straight-line opcodes never touch the frame stack. The
    /// iterator stack is a local: any error return drops it whole.
    fn run_inner(
        &mut self,
        stack: &mut Vec<Value>,
        frames: &mut Vec<Frame>,
        closure: Rc<Closure>,
        args: &[Value],
        host: &mut dyn Any,
        counted: bool,
    ) -> Result<Value, RtError> {
        let mut iters: Vec<std::vec::IntoIter<(Key, Value)>> = Vec::new();
        stack.extend_from_slice(args);
        self.push_frame(stack, frames, 0, closure, args.len(), counted)?;
        let mut cl = Rc::clone(&frames.last().expect("frame").closure);
        let mut ip: usize = 0;
        let mut base: usize = frames.last().expect("frame").base;
        loop {
            if self.steps_left == 0 {
                return Err(RtError::new("instruction budget exceeded"));
            }
            self.steps_left -= 1;
            let op = cl.proto.code[ip];
            ip += 1;
            match op {
                Op::Const(i) => {
                    let v = cl.proto.consts[i as usize].clone();
                    stack.push(v);
                }
                Op::Nil => stack.push(Value::Nil),
                Op::True => stack.push(Value::Bool(true)),
                Op::False => stack.push(Value::Bool(false)),
                Op::Pop => {
                    stack.pop().expect("value to pop");
                }
                Op::LoadLocal(i) => {
                    let v = stack[base + i as usize].clone();
                    stack.push(v);
                }
                Op::StoreLocal(i) => {
                    let v = stack.pop().expect("value to store");
                    stack[base + i as usize] = v;
                }
                Op::LoadBox(i) => {
                    let v = frames.last().expect("frame").boxes[i as usize]
                        .as_ref()
                        .expect("box bound at declaration")
                        .borrow()
                        .clone();
                    stack.push(v);
                }
                Op::StoreBox(i) => {
                    let v = stack.pop().expect("value to store");
                    *frames.last().expect("frame").boxes[i as usize]
                        .as_ref()
                        .expect("box bound at declaration")
                        .borrow_mut() = v;
                }
                Op::NewBox(i) => {
                    let v = stack.pop().expect("value to box");
                    frames.last_mut().expect("frame").boxes[i as usize] =
                        Some(Rc::new(RefCell::new(v)));
                }
                Op::LoadUpval(i) => {
                    let v = cl.upvals[i as usize].borrow().clone();
                    stack.push(v);
                }
                Op::StoreUpval(i) => {
                    let v = stack.pop().expect("value to store");
                    *cl.upvals[i as usize].borrow_mut() = v;
                }
                Op::LoadGlobal(i) => {
                    let v = self.global_vals[cl.slots[i as usize] as usize].clone();
                    stack.push(v);
                }
                Op::StoreGlobal(i) => {
                    let v = stack.pop().expect("value to store");
                    self.global_vals[cl.slots[i as usize] as usize] = v;
                }
                Op::NewTable => stack.push(Value::table()),
                Op::TablePush => {
                    let v = stack.pop().expect("value to append");
                    match stack.last() {
                        Some(Value::Table(t)) => t.borrow_mut().push(v),
                        _ => unreachable!("table literal under construction"),
                    }
                }
                Op::TableSetConst(k) => {
                    let v = stack.pop().expect("value to set");
                    let key = cl.proto.keys[k as usize].clone();
                    match stack.last() {
                        Some(Value::Table(t)) => t.borrow_mut().set(key, v),
                        _ => unreachable!("table literal under construction"),
                    }
                }
                Op::GetIndex => {
                    let idx = stack.pop().expect("index");
                    let base_v = stack.pop().expect("indexed value");
                    match base_v {
                        Value::Table(t) => {
                            let key = to_key(&idx)?;
                            let v = t.borrow().get(&key);
                            stack.push(v);
                        }
                        other => {
                            return Err(RtError::new(format!(
                                "attempt to index a {} value",
                                other.type_name()
                            )))
                        }
                    }
                }
                Op::GetConst(k) => {
                    let base_v = stack.pop().expect("indexed value");
                    match base_v {
                        Value::Table(t) => {
                            let key = &cl.proto.keys[k as usize];
                            let v = t.borrow().get(key);
                            stack.push(v);
                        }
                        other => {
                            return Err(RtError::new(format!(
                                "attempt to index a {} value",
                                other.type_name()
                            )))
                        }
                    }
                }
                Op::SetIndex => {
                    let idx = stack.pop().expect("index");
                    let base_v = stack.pop().expect("indexed value");
                    let v = stack.pop().expect("assigned value");
                    // Key conversion precedes the base-type check, as in
                    // the interpreter's assignment path.
                    let key = to_key(&idx)?;
                    match base_v {
                        Value::Table(t) => t.borrow_mut().set(key, v),
                        other => {
                            return Err(RtError::new(format!(
                                "attempt to index a {} value",
                                other.type_name()
                            )))
                        }
                    }
                }
                Op::SetConst(k) => {
                    let base_v = stack.pop().expect("indexed value");
                    let v = stack.pop().expect("assigned value");
                    let key = cl.proto.keys[k as usize].clone();
                    match base_v {
                        Value::Table(t) => t.borrow_mut().set(key, v),
                        other => {
                            return Err(RtError::new(format!(
                                "attempt to index a {} value",
                                other.type_name()
                            )))
                        }
                    }
                }
                Op::Add | Op::Sub | Op::Mul | Op::Div | Op::Mod | Op::Pow => {
                    let rhs = stack.pop().expect("rhs");
                    let lhs = stack.pop().expect("lhs");
                    let x = num_of(&lhs)?;
                    let y = num_of(&rhs)?;
                    let r = match op {
                        Op::Add => x + y,
                        Op::Sub => x - y,
                        Op::Mul => x * y,
                        Op::Div => x / y,
                        // Lua semantics: result has the sign of the divisor.
                        Op::Mod => x - (x / y).floor() * y,
                        Op::Pow => x.powf(y),
                        _ => unreachable!(),
                    };
                    stack.push(Value::Num(r));
                }
                Op::Concat(n) => {
                    let at = stack.len() - n as usize;
                    let v = concat(&stack[at..])?;
                    stack.truncate(at);
                    stack.push(v);
                }
                Op::Eq | Op::Ne => {
                    let rhs = stack.pop().expect("rhs");
                    let lhs = stack.pop().expect("lhs");
                    let eq = lhs == rhs;
                    stack.push(Value::Bool(if matches!(op, Op::Eq) { eq } else { !eq }));
                }
                Op::Lt | Op::Le | Op::Gt | Op::Ge => {
                    let rhs = stack.pop().expect("rhs");
                    let lhs = stack.pop().expect("lhs");
                    let ord = compare(&lhs, &rhs)?;
                    use std::cmp::Ordering;
                    stack.push(Value::Bool(match op {
                        Op::Lt => ord == Ordering::Less,
                        Op::Le => ord != Ordering::Greater,
                        Op::Gt => ord == Ordering::Greater,
                        Op::Ge => ord != Ordering::Less,
                        _ => unreachable!(),
                    }));
                }
                Op::Neg => {
                    let v = stack.pop().expect("operand");
                    stack.push(Value::Num(-num_of(&v)?));
                }
                Op::Not => {
                    let v = stack.pop().expect("operand");
                    stack.push(Value::Bool(!v.truthy()));
                }
                Op::Len => {
                    let v = stack.pop().expect("operand");
                    match &v {
                        Value::Table(t) => stack.push(Value::Num(t.borrow().len() as f64)),
                        Value::Str(s) => stack.push(Value::Num(s.len() as f64)),
                        other => {
                            return Err(RtError::new(format!(
                                "attempt to get length of a {} value",
                                other.type_name()
                            )))
                        }
                    }
                }
                Op::CheckNum => {
                    num_of(stack.last().expect("operand"))?;
                }
                Op::Jump(t) => ip = t as usize,
                Op::JumpIfFalse(t) => {
                    let v = stack.pop().expect("condition");
                    if !v.truthy() {
                        ip = t as usize;
                    }
                }
                Op::JumpIfFalsePeek(t) => {
                    if stack.last().expect("operand").truthy() {
                        stack.pop();
                    } else {
                        ip = t as usize;
                    }
                }
                Op::JumpIfTruePeek(t) => {
                    if stack.last().expect("operand").truthy() {
                        ip = t as usize;
                    } else {
                        stack.pop();
                    }
                }
                Op::ForPrep { slot, exit } => {
                    // Operands were verified numeric by CheckNum.
                    let step = stack.pop().and_then(|v| v.as_num()).expect("for step");
                    let stop = stack.pop().and_then(|v| v.as_num()).expect("for stop");
                    let start = stack.pop().and_then(|v| v.as_num()).expect("for start");
                    if step == 0.0 {
                        return Err(RtError::new("for loop step is zero"));
                    }
                    let b = base + slot as usize;
                    stack[b] = Value::Num(start);
                    stack[b + 1] = Value::Num(stop);
                    stack[b + 2] = Value::Num(step);
                    let in_range = (step > 0.0 && start <= stop) || (step < 0.0 && start >= stop);
                    if !in_range {
                        ip = exit as usize;
                    }
                }
                Op::ForLoop { slot, back } => {
                    let b = base + slot as usize;
                    let step = stack[b + 2].as_num().expect("for step");
                    let stop = stack[b + 1].as_num().expect("for stop");
                    let i = stack[b].as_num().expect("for control") + step;
                    stack[b] = Value::Num(i);
                    if (step > 0.0 && i <= stop) || (step < 0.0 && i >= stop) {
                        ip = back as usize;
                    }
                }
                Op::IterNew => {
                    let v = stack.pop().expect("iterable");
                    match v {
                        Value::Table(t) => {
                            // Snapshot entries so the body may mutate the
                            // table, as the interpreter does.
                            let entries: Vec<(Key, Value)> = t.borrow().iter().collect();
                            iters.push(entries.into_iter());
                        }
                        other => {
                            return Err(RtError::new(format!(
                                "attempt to iterate a {} value",
                                other.type_name()
                            )))
                        }
                    }
                }
                Op::IterNext(t) => match iters.last_mut().expect("open iterator").next() {
                    Some((k, v)) => {
                        stack.push(match k {
                            Key::Int(i) => Value::Num(i as f64),
                            Key::Str(s) => Value::Str(s),
                        });
                        stack.push(v);
                    }
                    None => {
                        iters.pop();
                        ip = t as usize;
                    }
                },
                Op::IterDrop => {
                    iters.pop().expect("open iterator");
                }
                Op::Call(n) => {
                    // Remove the callee from under its arguments; the
                    // arguments stay in place and become the new frame's
                    // leading slots (no per-call argument Vec).
                    let at = stack.len() - n as usize;
                    let callee = stack.remove(at - 1);
                    match callee {
                        Value::Closure(c) => {
                            frames.last_mut().expect("frame").ip = ip;
                            self.push_frame(stack, frames, iters.len(), c, n as usize, true)?;
                            let top = frames.last().expect("frame");
                            cl = Rc::clone(&top.closure);
                            ip = 0;
                            base = top.base;
                        }
                        Value::Native(nat) => {
                            let mut ctx = HostCtx {
                                host,
                                output: &mut self.output,
                            };
                            let v = (nat.f)(&mut ctx, &stack[at - 1..])?;
                            stack.truncate(at - 1);
                            stack.push(v);
                        }
                        Value::Func(_) => {
                            return Err(RtError::new(
                                "attempt to call a tree-walker function from the bytecode VM",
                            ))
                        }
                        other => {
                            return Err(RtError::new(format!(
                                "attempt to call a {} value",
                                other.type_name()
                            )))
                        }
                    }
                }
                Op::Ret | Op::RetNil => {
                    let ret = if matches!(op, Op::Ret) {
                        stack.pop().expect("return value")
                    } else {
                        Value::Nil
                    };
                    let frame = frames.pop().expect("frame");
                    stack.truncate(frame.base);
                    iters.truncate(frame.iter_base);
                    if frame.depth_counted {
                        self.depth -= 1;
                    }
                    match frames.last() {
                        None => return Ok(ret),
                        Some(top) => {
                            cl = Rc::clone(&top.closure);
                            ip = top.ip;
                            base = top.base;
                            stack.push(ret);
                        }
                    }
                }
                Op::Closure(i) => {
                    let proto = Rc::clone(&cl.proto.protos[i as usize]);
                    let slots = self.resolve_slots(&proto);
                    let new_closure = {
                        let frame = frames.last().expect("frame");
                        let mut upvals = Vec::with_capacity(proto.upvals.len());
                        for d in &proto.upvals {
                            upvals.push(match d {
                                UpvalDesc::ParentBox(b) => Rc::clone(
                                    frame.boxes[*b as usize]
                                        .as_ref()
                                        .expect("captured box bound before closure creation"),
                                ),
                                UpvalDesc::ParentUpval(u) => Rc::clone(&cl.upvals[*u as usize]),
                            });
                        }
                        Closure {
                            proto,
                            upvals,
                            slots,
                        }
                    };
                    stack.push(Value::Closure(Rc::new(new_closure)));
                }
            }
        }
    }
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

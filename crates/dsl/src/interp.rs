//! Tree-walking interpreter with deterministic sandboxing.

use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;

use crate::ast::{BinOp, Block, Expr, Stmt, TableItem, UnOp};
use crate::value::{write_num, Function, HostCtx, Key, Native, NativeFn, Scope, Table, Value};
use crate::Script;

/// A runtime error raised during script execution.
#[derive(Debug, Clone, PartialEq)]
pub struct RtError {
    /// Human-readable description.
    pub message: String,
}

impl RtError {
    /// Builds an error from a message.
    pub fn new(message: impl Into<String>) -> RtError {
        RtError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for RtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "runtime error: {}", self.message)
    }
}

impl std::error::Error for RtError {}

/// Execution limits enforced per [`Interp::load`] / [`Interp::call`].
///
/// The paper notes that the Lua runtime's "flexibility ... allows execution
/// sandboxing in order to address security and performance concerns"; here
/// that is an instruction budget and a call-depth limit, both deterministic.
#[derive(Debug, Clone, Copy)]
pub struct Sandbox {
    /// Maximum AST evaluation steps per entry point.
    pub max_steps: u64,
    /// Maximum nested script-function call depth.
    pub max_depth: u32,
}

impl Default for Sandbox {
    fn default() -> Self {
        Sandbox {
            max_steps: 2_000_000,
            max_depth: 128,
        }
    }
}

/// Control flow signal threaded through statement execution.
enum Flow {
    Normal,
    Break,
    Return(Value),
}

/// A Cephalo interpreter instance.
///
/// One interpreter corresponds to one embedded VM inside a daemon: it owns a
/// global scope, a set of registered native functions, an output buffer for
/// `print`/`log`, and the sandbox limits.
pub struct Interp {
    globals: Rc<Scope>,
    sandbox: Sandbox,
    output: Vec<String>,
    steps_left: u64,
    depth: u32,
}

impl Default for Interp {
    fn default() -> Self {
        Self::new()
    }
}

impl Interp {
    /// Creates an interpreter with the default sandbox and standard library.
    pub fn new() -> Interp {
        Interp::with_sandbox(Sandbox::default())
    }

    /// Creates an interpreter with explicit sandbox limits.
    pub fn with_sandbox(sandbox: Sandbox) -> Interp {
        let mut interp = Interp {
            globals: Scope::root(),
            sandbox,
            output: Vec::new(),
            steps_left: 0,
            depth: 0,
        };
        crate::stdlib::install(&mut interp);
        interp
    }

    /// Registers a native function under a global name.
    pub fn register(&mut self, name: &str, f: NativeFn) {
        self.globals.declare(
            name,
            Value::Native(Rc::new(Native {
                name: name.to_string(),
                f,
            })),
        );
    }

    /// Sets a global variable.
    pub fn set_global(&mut self, name: &str, v: Value) {
        self.globals.declare(name, v);
    }

    /// Reads a global variable (`nil` if unset).
    pub fn global(&self, name: &str) -> Value {
        self.globals.get(name)
    }

    /// Lines produced by `print`/`log` since the last [`Interp::take_output`].
    pub fn take_output(&mut self) -> Vec<String> {
        std::mem::take(&mut self.output)
    }

    /// Executes a script's top level (typically declaring functions) without
    /// host state.
    ///
    /// # Errors
    ///
    /// Propagates any runtime error, including sandbox violations.
    pub fn load(&mut self, script: &Script) -> Result<(), RtError> {
        self.load_with(script, &mut ())
    }

    /// Executes a script's top level with host state available to natives.
    pub fn load_with(&mut self, script: &Script, host: &mut dyn Any) -> Result<(), RtError> {
        self.steps_left = self.sandbox.max_steps;
        self.depth = 0;
        let env = Rc::clone(&self.globals);
        self.exec_block(&script.block, &env, host)?;
        Ok(())
    }

    /// Whether a global function named `name` exists.
    pub fn has_function(&self, name: &str) -> bool {
        matches!(
            self.globals.get(name),
            Value::Func(_) | Value::Closure(_) | Value::Native { .. }
        )
    }

    /// Calls the global function `name` with `args`, giving natives access
    /// to `host`.
    ///
    /// # Errors
    ///
    /// Fails if the global is not callable or the call raises.
    pub fn call(
        &mut self,
        name: &str,
        args: &[Value],
        host: &mut dyn Any,
    ) -> Result<Value, RtError> {
        let f = self.globals.get(name);
        if matches!(f, Value::Nil) {
            return Err(RtError::new(format!("no such function `{name}`")));
        }
        self.steps_left = self.sandbox.max_steps;
        self.depth = 0;
        self.call_value(&f, args.to_vec(), host)
    }

    /// Calls an arbitrary callable value (used for callbacks stored in
    /// tables, e.g. Mantle's `when()` policies).
    pub fn call_value(
        &mut self,
        f: &Value,
        args: Vec<Value>,
        host: &mut dyn Any,
    ) -> Result<Value, RtError> {
        match f {
            Value::Func(func) => {
                if self.depth >= self.sandbox.max_depth {
                    return Err(RtError::new("call depth limit exceeded"));
                }
                self.depth += 1;
                let env = Scope::child(&func.env);
                for (i, p) in func.params.iter().enumerate() {
                    env.declare(p, args.get(i).cloned().unwrap_or(Value::Nil));
                }
                let flow = self.exec_block(&func.body, &env, host)?;
                self.depth -= 1;
                Ok(match flow {
                    Flow::Return(v) => v,
                    _ => Value::Nil,
                })
            }
            Value::Native(n) => {
                let mut ctx = HostCtx {
                    host,
                    output: &mut self.output,
                };
                (n.f)(&mut ctx, &args)
            }
            Value::Closure(_) => Err(RtError::new(
                "attempt to call a bytecode closure from the tree-walking interpreter",
            )),
            other => Err(RtError::new(format!(
                "attempt to call a {} value",
                other.type_name()
            ))),
        }
    }

    fn tick(&mut self) -> Result<(), RtError> {
        if self.steps_left == 0 {
            return Err(RtError::new("instruction budget exceeded"));
        }
        self.steps_left -= 1;
        Ok(())
    }

    fn exec_block(
        &mut self,
        block: &Block,
        env: &Rc<Scope>,
        host: &mut dyn Any,
    ) -> Result<Flow, RtError> {
        for stmt in block {
            match self.exec_stmt(stmt, env, host)? {
                Flow::Normal => {}
                flow => return Ok(flow),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(
        &mut self,
        stmt: &Stmt,
        env: &Rc<Scope>,
        host: &mut dyn Any,
    ) -> Result<Flow, RtError> {
        self.tick()?;
        match stmt {
            Stmt::Local(name, e) => {
                let v = self.eval(e, env, host)?;
                env.declare(name, v);
                Ok(Flow::Normal)
            }
            Stmt::Assign(lhs, rhs) => {
                let v = self.eval(rhs, env, host)?;
                match lhs {
                    Expr::Var(name) => env.set(name, v),
                    Expr::Index(base, idx) => {
                        let base_v = self.eval(base, env, host)?;
                        let idx_v = self.eval(idx, env, host)?;
                        let key = to_key(&idx_v)?;
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
                    _ => return Err(RtError::new("invalid assignment target")),
                }
                Ok(Flow::Normal)
            }
            Stmt::ExprStmt(e) => {
                self.eval(e, env, host)?;
                Ok(Flow::Normal)
            }
            Stmt::If(arms, else_blk) => {
                for (cond, body) in arms {
                    if self.eval(cond, env, host)?.truthy() {
                        let scope = Scope::child(env);
                        return self.exec_block(body, &scope, host);
                    }
                }
                if let Some(body) = else_blk {
                    let scope = Scope::child(env);
                    return self.exec_block(body, &scope, host);
                }
                Ok(Flow::Normal)
            }
            Stmt::While(cond, body) => {
                while self.eval(cond, env, host)?.truthy() {
                    self.tick()?;
                    let scope = Scope::child(env);
                    match self.exec_block(body, &scope, host)? {
                        Flow::Normal => {}
                        Flow::Break => break,
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Repeat(body, cond) => {
                loop {
                    self.tick()?;
                    let scope = Scope::child(env);
                    match self.exec_block(body, &scope, host)? {
                        Flow::Normal => {}
                        Flow::Break => break,
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                    if self.eval(cond, &scope, host)?.truthy() {
                        break;
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::NumFor {
                var,
                start,
                stop,
                step,
                body,
            } => {
                let start_v = self.eval_owned(start, env, host)?;
                let start = self.num(start_v)?;
                let stop_v = self.eval_owned(stop, env, host)?;
                let stop = self.num(stop_v)?;
                let step = match step {
                    Some(e) => {
                        let v = self.eval_owned(e, env, host)?;
                        self.num(v)?
                    }
                    None => 1.0,
                };
                if step == 0.0 {
                    return Err(RtError::new("for loop step is zero"));
                }
                let mut i = start;
                while (step > 0.0 && i <= stop) || (step < 0.0 && i >= stop) {
                    self.tick()?;
                    let scope = Scope::child(env);
                    scope.declare(var, Value::Num(i));
                    match self.exec_block(body, &scope, host)? {
                        Flow::Normal => {}
                        Flow::Break => break,
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                    i += step;
                }
                Ok(Flow::Normal)
            }
            Stmt::GenFor {
                key,
                value,
                iter,
                body,
            } => {
                let table = match self.eval(iter, env, host)? {
                    Value::Table(t) => t,
                    other => {
                        return Err(RtError::new(format!(
                            "attempt to iterate a {} value",
                            other.type_name()
                        )))
                    }
                };
                // Snapshot entries so the body may mutate the table.
                let entries: Vec<(Key, Value)> = table.borrow().iter().collect();
                for (k, v) in entries {
                    self.tick()?;
                    let scope = Scope::child(env);
                    let key_val = match k {
                        Key::Int(i) => Value::Num(i as f64),
                        Key::Str(s) => Value::Str(s),
                    };
                    scope.declare(key, key_val);
                    scope.declare(value, v);
                    match self.exec_block(body, &scope, host)? {
                        Flow::Normal => {}
                        Flow::Break => break,
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::FuncDecl { name, params, body } => {
                let func = Value::Func(Rc::new(Function {
                    params: params.clone(),
                    body: body.clone(),
                    env: Rc::clone(env),
                    name: name.clone(),
                }));
                // Function declarations are global, as in the paper's
                // balancer scripts (callbacks looked up by name).
                self.globals.declare(name, func);
                Ok(Flow::Normal)
            }
            Stmt::Return(e) => {
                let v = match e {
                    Some(e) => self.eval(e, env, host)?,
                    None => Value::Nil,
                };
                Ok(Flow::Return(v))
            }
            Stmt::Break => Ok(Flow::Break),
        }
    }

    fn eval_owned(
        &mut self,
        e: &Expr,
        env: &Rc<Scope>,
        host: &mut dyn Any,
    ) -> Result<Value, RtError> {
        self.eval(e, env, host)
    }

    fn num(&self, v: Value) -> Result<f64, RtError> {
        num_of(&v)
    }

    fn eval(&mut self, e: &Expr, env: &Rc<Scope>, host: &mut dyn Any) -> Result<Value, RtError> {
        self.tick()?;
        match e {
            Expr::Nil => Ok(Value::Nil),
            Expr::Bool(b) => Ok(Value::Bool(*b)),
            Expr::Num(n) => Ok(Value::Num(*n)),
            Expr::Str(s) => Ok(Value::Str(Rc::clone(s))),
            Expr::Var(name) => Ok(env.get(name)),
            Expr::TableLit(items) => {
                let mut t = Table::new();
                for item in items {
                    match item {
                        TableItem::Positional(e) => {
                            let v = self.eval(e, env, host)?;
                            t.push(v);
                        }
                        TableItem::Named(k, e) => {
                            let v = self.eval(e, env, host)?;
                            t.set_str(k, v);
                        }
                    }
                }
                Ok(Value::from_table(t))
            }
            Expr::Index(base, idx) => {
                let base_v = self.eval(base, env, host)?;
                let idx_v = self.eval(idx, env, host)?;
                match base_v {
                    Value::Table(t) => {
                        let key = to_key(&idx_v)?;
                        Ok(t.borrow().get(&key))
                    }
                    other => Err(RtError::new(format!(
                        "attempt to index a {} value",
                        other.type_name()
                    ))),
                }
            }
            Expr::Call(callee, args) => {
                let f = self.eval(callee, env, host)?;
                let mut arg_vals = Vec::with_capacity(args.len());
                for a in args {
                    arg_vals.push(self.eval(a, env, host)?);
                }
                self.call_value(&f, arg_vals, host)
            }
            Expr::Lambda(params, body) => Ok(Value::Func(Rc::new(Function {
                params: params.clone(),
                body: body.clone(),
                env: Rc::clone(env),
                name: "<anonymous>".to_string(),
            }))),
            Expr::Bin(op, a, b) => self.eval_bin(*op, a, b, env, host),
            Expr::Un(op, e) => {
                let v = self.eval(e, env, host)?;
                match op {
                    UnOp::Neg => Ok(Value::Num(-self.num(v)?)),
                    UnOp::Not => Ok(Value::Bool(!v.truthy())),
                    UnOp::Len => match &v {
                        Value::Table(t) => Ok(Value::Num(t.borrow().len() as f64)),
                        Value::Str(s) => Ok(Value::Num(s.len() as f64)),
                        other => Err(RtError::new(format!(
                            "attempt to get length of a {} value",
                            other.type_name()
                        ))),
                    },
                }
            }
        }
    }

    fn eval_bin(
        &mut self,
        op: BinOp,
        a: &Expr,
        b: &Expr,
        env: &Rc<Scope>,
        host: &mut dyn Any,
    ) -> Result<Value, RtError> {
        // Short-circuit forms first.
        match op {
            BinOp::And => {
                let lhs = self.eval(a, env, host)?;
                return if lhs.truthy() {
                    self.eval(b, env, host)
                } else {
                    Ok(lhs)
                };
            }
            BinOp::Or => {
                let lhs = self.eval(a, env, host)?;
                return if lhs.truthy() {
                    Ok(lhs)
                } else {
                    self.eval(b, env, host)
                };
            }
            _ => {}
        }
        let lhs = self.eval(a, env, host)?;
        let rhs = self.eval(b, env, host)?;
        match op {
            BinOp::Add => Ok(Value::Num(self.num(lhs)? + self.num(rhs)?)),
            BinOp::Sub => Ok(Value::Num(self.num(lhs)? - self.num(rhs)?)),
            BinOp::Mul => Ok(Value::Num(self.num(lhs)? * self.num(rhs)?)),
            BinOp::Div => Ok(Value::Num(self.num(lhs)? / self.num(rhs)?)),
            BinOp::Mod => {
                let (x, y) = (self.num(lhs)?, self.num(rhs)?);
                // Lua semantics: result has the sign of the divisor.
                Ok(Value::Num(x - (x / y).floor() * y))
            }
            BinOp::Pow => Ok(Value::Num(self.num(lhs)?.powf(self.num(rhs)?))),
            BinOp::Concat => concat(&[lhs, rhs]),
            BinOp::Eq => Ok(Value::Bool(lhs == rhs)),
            BinOp::Ne => Ok(Value::Bool(lhs != rhs)),
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                let ord = compare(&lhs, &rhs)?;
                Ok(Value::Bool(match op {
                    BinOp::Lt => ord == std::cmp::Ordering::Less,
                    BinOp::Le => ord != std::cmp::Ordering::Greater,
                    BinOp::Gt => ord == std::cmp::Ordering::Greater,
                    BinOp::Ge => ord != std::cmp::Ordering::Less,
                    _ => unreachable!(),
                }))
            }
            BinOp::And | BinOp::Or => unreachable!("handled above"),
        }
    }
}

/// Numeric view of a value, with the engines' shared error message.
/// Both the interpreter and the VM call these helpers so type errors are
/// byte-for-byte identical — a property the differential harness asserts.
pub(crate) fn num_of(v: &Value) -> Result<f64, RtError> {
    v.as_num()
        .ok_or_else(|| RtError::new(format!("expected a number, got {}", v.type_name())))
}

pub(crate) fn to_key(v: &Value) -> Result<Key, RtError> {
    match v {
        Value::Num(n) => {
            if n.fract() == 0.0 {
                Ok(Key::Int(*n as i64))
            } else {
                Err(RtError::new(format!("non-integer table key {n}")))
            }
        }
        Value::Str(s) => Ok(Key::Str(Rc::clone(s))),
        other => Err(RtError::new(format!(
            "invalid table key of type {}",
            other.type_name()
        ))),
    }
}

thread_local! {
    /// Staging buffer for [`with_scratch`], kept between calls so that
    /// building a string costs one allocation: the result's, at its exact
    /// size.
    static SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Runs `build` on the (emptied) staging buffer. `build` must not call
/// back into an engine.
pub(crate) fn with_scratch<R>(build: impl FnOnce(&mut Vec<u8>) -> R) -> R {
    SCRATCH.with_borrow_mut(|buf| {
        buf.clear();
        build(buf)
    })
}

/// Appends `v` the way `..` renders it: strings as they are, numbers,
/// booleans and `nil` by their display form. Anything else is the error.
fn push_coerced(buf: &mut Vec<u8>, v: &Value) -> Result<(), RtError> {
    match v {
        Value::Str(s) => buf.extend_from_slice(s),
        Value::Num(n) => write_num(buf, *n),
        Value::Bool(b) => buf.extend_from_slice(if *b { b"true" } else { b"false" }),
        Value::Nil => buf.extend_from_slice(b"nil"),
        other => {
            return Err(RtError::new(format!(
                "cannot concatenate a {} value",
                other.type_name()
            )))
        }
    }
    Ok(())
}

/// The coerced forms of `vals` joined left to right into one string,
/// every byte copied into the staging buffer once and out of it once.
/// Reports the leftmost value that cannot be joined.
pub(crate) fn join(vals: &[Value]) -> Result<Value, RtError> {
    with_scratch(|buf| {
        for v in vals {
            push_coerced(buf, v)?;
        }
        Ok(Value::str(buf))
    })
}

/// A whole `a .. b .. … .. z` chain, operands in source order, shared by
/// both engines so coercion and its error message are identical. `..` is
/// right-associative and the tree-walker evaluates it pair by pair, so the
/// operand it rejects first is one of the innermost (last) pair, then the
/// ones to its left from right to left; a chain reports that same operand.
pub(crate) fn concat(operands: &[Value]) -> Result<Value, RtError> {
    join(operands).map_err(|leftmost| {
        let (outer, innermost) = operands.split_at(operands.len().saturating_sub(2));
        innermost
            .iter()
            .chain(outer.iter().rev())
            .find_map(|v| push_coerced(&mut Vec::new(), v).err())
            .unwrap_or(leftmost)
    })
}

pub(crate) fn compare(a: &Value, b: &Value) -> Result<std::cmp::Ordering, RtError> {
    match (a, b) {
        (Value::Num(x), Value::Num(y)) => x
            .partial_cmp(y)
            .ok_or_else(|| RtError::new("NaN comparison")),
        (Value::Str(x), Value::Str(y)) => Ok(x.cmp(y)),
        _ => Err(RtError::new(format!(
            "cannot compare {} with {}",
            a.type_name(),
            b.type_name()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Interp {
        let script = Script::compile(src).unwrap();
        let mut interp = Interp::new();
        interp.load(&script).unwrap();
        interp
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
    fn string_concat() {
        assert_eq!(
            eval_global("x = \"a\" .. 1 .. true", "x"),
            Value::str("a1true")
        );
    }

    #[test]
    fn short_circuit_and_or() {
        // `or` returns the first truthy operand, `and` the first falsey.
        assert_eq!(eval_global("x = nil or 5", "x"), Value::from(5.0));
        assert_eq!(
            eval_global("x = false and crash()", "x"),
            Value::from(false)
        );
        assert_eq!(eval_global("x = 1 and 2", "x"), Value::from(2.0));
    }

    #[test]
    fn if_elseif_else_branches() {
        let src = "
            function classify(n)
                if n < 0 then return \"neg\"
                elseif n == 0 then return \"zero\"
                else return \"pos\" end
            end
            a = classify(-1)
            b = classify(0)
            c = classify(1)
        ";
        let interp = run(src);
        assert_eq!(interp.global("a"), Value::str("neg"));
        assert_eq!(interp.global("b"), Value::str("zero"));
        assert_eq!(interp.global("c"), Value::str("pos"));
    }

    #[test]
    fn while_and_break() {
        let src = "
            x = 0
            while true do
                x = x + 1
                if x >= 5 then break end
            end
        ";
        assert_eq!(eval_global(src, "x"), Value::from(5.0));
    }

    #[test]
    fn repeat_until() {
        assert_eq!(
            eval_global("x = 0 repeat x = x + 1 until x >= 3", "x"),
            Value::from(3.0)
        );
    }

    #[test]
    fn numeric_for_sums() {
        assert_eq!(
            eval_global("s = 0 for i = 1, 10 do s = s + i end", "s"),
            Value::from(55.0)
        );
        assert_eq!(
            eval_global("s = 0 for i = 10, 1, -2 do s = s + i end", "s"),
            Value::from(30.0)
        );
    }

    #[test]
    fn generic_for_iterates_array_then_map() {
        let src = "
            t = {10, 20, small = 1, big = 2}
            keys = \"\"
            total = 0
            for k, v in t do
                keys = keys .. k .. \";\"
                total = total + v
            end
        ";
        let interp = run(src);
        assert_eq!(interp.global("keys"), Value::str("1;2;big;small;"));
        assert_eq!(interp.global("total"), Value::from(33.0));
    }

    #[test]
    fn tables_nested_access() {
        let src = "
            t = {inner = {x = 1}}
            t.inner.x = t.inner.x + 41
            t[1] = \"first\"
            v = t.inner.x
            w = t[1]
        ";
        let interp = run(src);
        assert_eq!(interp.global("v"), Value::from(42.0));
        assert_eq!(interp.global("w"), Value::str("first"));
    }

    #[test]
    fn functions_and_recursion() {
        let src = "
            function fib(n)
                if n < 2 then return n end
                return fib(n - 1) + fib(n - 2)
            end
            x = fib(15)
        ";
        assert_eq!(eval_global(src, "x"), Value::from(610.0));
    }

    #[test]
    fn closures_capture_environment() {
        let src = "
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
        let interp = run(src);
        assert_eq!(interp.global("a"), Value::from(1.0));
        assert_eq!(interp.global("b"), Value::from(2.0));
    }

    #[test]
    fn locals_shadow_globals() {
        let src = "
            x = 1
            function f()
                local x = 2
                return x
            end
            y = f()
        ";
        let interp = run(src);
        assert_eq!(interp.global("x"), Value::from(1.0));
        assert_eq!(interp.global("y"), Value::from(2.0));
    }

    #[test]
    fn call_entry_point_with_args() {
        let script = Script::compile("function add(a, b) return a + b end").unwrap();
        let mut interp = Interp::new();
        interp.load(&script).unwrap();
        let out = interp
            .call("add", &[Value::from(2.0), Value::from(3.0)], &mut ())
            .unwrap();
        assert_eq!(out, Value::from(5.0));
    }

    #[test]
    fn missing_function_errors() {
        let mut interp = Interp::new();
        let err = interp.call("nope", &[], &mut ()).unwrap_err();
        assert!(err.message.contains("no such function"));
    }

    #[test]
    fn native_function_with_host_state() {
        let mut interp = Interp::new();
        interp.register(
            "bump",
            Rc::new(|ctx, args| {
                let counter = ctx.host.downcast_mut::<u32>().expect("host is u32");
                *counter += args[0].as_num().unwrap_or(0.0) as u32;
                Ok(Value::Num(*counter as f64))
            }),
        );
        let script = Script::compile("function go() return bump(5) + bump(1) end").unwrap();
        let mut host = 10u32;
        interp.load(&script).unwrap();
        let out = interp.call("go", &[], &mut host).unwrap();
        assert_eq!(host, 16);
        assert_eq!(out, Value::from(31.0)); // 15 + 16
    }

    #[test]
    fn instruction_budget_stops_infinite_loops() {
        let script = Script::compile("while true do x = 1 end").unwrap();
        let mut interp = Interp::with_sandbox(Sandbox {
            max_steps: 10_000,
            max_depth: 16,
        });
        let err = interp.load(&script).unwrap_err();
        assert!(err.message.contains("budget"));
    }

    #[test]
    fn call_depth_limit_stops_runaway_recursion() {
        let script = Script::compile("function f() return f() end\n").unwrap();
        let mut interp = Interp::with_sandbox(Sandbox {
            max_steps: 1_000_000,
            max_depth: 32,
        });
        interp.load(&script).unwrap();
        let err = interp.call("f", &[], &mut ()).unwrap_err();
        assert!(err.message.contains("depth"));
    }

    #[test]
    fn type_errors_are_reported() {
        let check = |src: &str, needle: &str| {
            let script = Script::compile(src).unwrap();
            let err = Interp::new().load(&script).unwrap_err();
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
    }

    #[test]
    fn length_operator() {
        assert_eq!(eval_global("x = #\"hello\"", "x"), Value::from(5.0));
        assert_eq!(eval_global("x = #{1, 2, 3}", "x"), Value::from(3.0));
    }

    #[test]
    fn lambda_values_and_higher_order() {
        let src = "
            function apply(f, x) return f(x) end
            y = apply(function(v) return v * 3 end, 7)
        ";
        assert_eq!(eval_global(src, "y"), Value::from(21.0));
    }

    #[test]
    fn budget_resets_between_calls() {
        let script = Script::compile(
            "function burn() local s = 0 for i = 1, 100 do s = s + i end return s end",
        )
        .unwrap();
        let mut interp = Interp::with_sandbox(Sandbox {
            max_steps: 5_000,
            max_depth: 8,
        });
        interp.load(&script).unwrap();
        for _ in 0..50 {
            interp.call("burn", &[], &mut ()).unwrap();
        }
    }

    #[test]
    fn for_zero_step_errors() {
        let script = Script::compile("for i = 1, 10, 0 do break end").unwrap();
        assert!(Interp::new().load(&script).is_err());
    }
}

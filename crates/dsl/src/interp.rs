//! Tree-walking interpreter with deterministic sandboxing.

use std::any::Any;
use std::rc::Rc;

use crate::ast::{BinOp, Block, Expr, Stmt, TableItem, UnOp};
use crate::runtime::{compare, concat, num_of, to_key, Engine, RtError, Sandbox};
use crate::value::{Function, HostCtx, Key, Native, NativeFn, Scope, Str, Table, Value};
use crate::Script;

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
        Engine::new()
    }
}

impl Engine for Interp {
    fn with_sandbox(sandbox: Sandbox) -> Interp {
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

    fn register(&mut self, name: &str, f: NativeFn) {
        self.globals.declare(
            name,
            Value::Native(Rc::new(Native {
                name: name.to_string(),
                f,
            })),
        );
    }

    fn set_global(&mut self, name: &str, v: Value) {
        self.globals.declare(name, v);
    }

    fn global(&self, name: &str) -> Value {
        self.globals.get(name)
    }

    fn take_output(&mut self) -> Vec<String> {
        std::mem::take(&mut self.output)
    }

    fn load_with(&mut self, script: &Script, host: &mut dyn Any) -> Result<(), RtError> {
        self.steps_left = self.sandbox.max_steps;
        self.depth = 0;
        let env = Rc::clone(&self.globals);
        self.exec_block(&script.block, &env, host)?;
        Ok(())
    }

    fn has_function(&self, name: &str) -> bool {
        matches!(
            self.globals.get(name),
            Value::Func(_) | Value::Closure(_) | Value::Native { .. }
        )
    }

    fn call(&mut self, name: &str, args: &[Value], host: &mut dyn Any) -> Result<Value, RtError> {
        let f = self.globals.get(name);
        if matches!(f, Value::Nil) {
            return Err(RtError::new(format!("no such function `{name}`")));
        }
        self.steps_left = self.sandbox.max_steps;
        self.depth = 0;
        self.call_value(&f, args.to_vec(), host)
    }

    fn call_value(
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
}

impl Interp {
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
                let start = num_of(&self.eval(start, env, host)?)?;
                let stop = num_of(&self.eval(stop, env, host)?)?;
                let step = match step {
                    Some(e) => num_of(&self.eval(e, env, host)?)?,
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

    fn eval(&mut self, e: &Expr, env: &Rc<Scope>, host: &mut dyn Any) -> Result<Value, RtError> {
        self.tick()?;
        match e {
            Expr::Nil => Ok(Value::Nil),
            Expr::Bool(b) => Ok(Value::Bool(*b)),
            Expr::Num(n) => Ok(Value::Num(*n)),
            Expr::Str(s) => Ok(Value::Str(Str::Heap(Rc::clone(s)))),
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
                    UnOp::Neg => Ok(Value::Num(-num_of(&v)?)),
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
            BinOp::Add => Ok(Value::Num(num_of(&lhs)? + num_of(&rhs)?)),
            BinOp::Sub => Ok(Value::Num(num_of(&lhs)? - num_of(&rhs)?)),
            BinOp::Mul => Ok(Value::Num(num_of(&lhs)? * num_of(&rhs)?)),
            BinOp::Div => Ok(Value::Num(num_of(&lhs)? / num_of(&rhs)?)),
            BinOp::Mod => {
                let (x, y) = (num_of(&lhs)?, num_of(&rhs)?);
                // Lua semantics: result has the sign of the divisor.
                Ok(Value::Num(x - (x / y).floor() * y))
            }
            BinOp::Pow => Ok(Value::Num(num_of(&lhs)?.powf(num_of(&rhs)?))),
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

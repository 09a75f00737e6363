//! What the two engines share: the runtime error, the sandbox limits, the
//! [`Engine`] surface both implement, and the coercion helpers that keep
//! their results and error messages byte-for-byte identical.

use std::any::Any;
use std::cell::RefCell;

use crate::value::{write_num, Key, NativeFn, Value};
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

/// Execution limits enforced per [`Engine::load`] / [`Engine::call`].
///
/// The paper notes that the Lua runtime's "flexibility ... allows execution
/// sandboxing in order to address security and performance concerns"; here
/// that is an instruction budget and a call-depth limit, both deterministic.
#[derive(Debug, Clone, Copy)]
pub struct Sandbox {
    /// Maximum evaluation steps (AST nodes or opcodes) per entry point.
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

/// One embedded Cephalo VM inside a daemon: a global scope, registered
/// native functions, an output buffer for `print`/`log`, and the sandbox
/// limits. [`crate::Vm`] is the engine of every production path; the
/// tree-walking interpreter of the dev-only `mala-dsl-oracle` crate
/// implements the same surface as the reference that tests hold it to.
/// The engine is chosen by type, never by a value.
pub trait Engine: Sized + 'static {
    /// Creates an engine with explicit sandbox limits and the standard
    /// library.
    fn with_sandbox(sandbox: Sandbox) -> Self;

    /// Creates an engine with the default sandbox and standard library.
    fn new() -> Self {
        Self::with_sandbox(Sandbox::default())
    }

    /// Registers a native function under a global name.
    fn register(&mut self, name: &str, f: NativeFn);

    /// Sets a global variable.
    fn set_global(&mut self, name: &str, v: Value);

    /// Reads a global variable (`nil` if unset).
    fn global(&self, name: &str) -> Value;

    /// Lines produced by `print`/`log` since the last take.
    fn take_output(&mut self) -> Vec<String>;

    /// Whether a global function named `name` exists.
    fn has_function(&self, name: &str) -> bool;

    /// Whether the global `name` holds a function a script defined, not a
    /// host native: what a scripted object class exports as a method.
    fn has_script_function(&self, name: &str) -> bool;

    /// Executes a script's top level (typically declaring functions) without
    /// host state.
    ///
    /// # Errors
    ///
    /// Propagates any runtime error, including sandbox violations.
    fn load(&mut self, script: &Script) -> Result<(), RtError> {
        self.load_with(script, &mut ())
    }

    /// Executes a script's top level with host state available to natives.
    ///
    /// # Errors
    ///
    /// Propagates any runtime error, including sandbox violations.
    fn load_with(&mut self, script: &Script, host: &mut dyn Any) -> Result<(), RtError>;

    /// Calls the global function `name` with `args`, giving natives access
    /// to `host`.
    ///
    /// # Errors
    ///
    /// Fails if the global is not callable or the call raises.
    fn call(&mut self, name: &str, args: &[Value], host: &mut dyn Any) -> Result<Value, RtError>;

    /// Calls an arbitrary callable value (used for callbacks stored in
    /// tables, e.g. Mantle's `when()` policies).
    ///
    /// # Errors
    ///
    /// Fails if `f` is not callable or the call raises.
    fn call_value(
        &mut self,
        f: &Value,
        args: Vec<Value>,
        host: &mut dyn Any,
    ) -> Result<Value, RtError>;
}

/// Numeric view of a value, with the engines' shared error message.
/// Both the reference interpreter and the VM call these helpers so type
/// errors are byte-for-byte identical — a property the differential
/// harness asserts.
pub fn num_of(v: &Value) -> Result<f64, RtError> {
    v.as_num()
        .ok_or_else(|| RtError::new(format!("expected a number, got {}", v.type_name())))
}

/// The table key a value indexes by: a whole number or a string.
pub fn to_key(v: &Value) -> Result<Key, RtError> {
    match v {
        Value::Num(n) => {
            if n.fract() == 0.0 {
                Ok(Key::Int(*n as i64))
            } else {
                Err(RtError::new(format!("non-integer table key {n}")))
            }
        }
        Value::Str(s) => Ok(Key::Str(s.clone())),
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
/// right-associative and the reference interpreter evaluates it pair by
/// pair, so the
/// operand it rejects first is one of the innermost (last) pair, then the
/// ones to its left from right to left; a chain reports that same operand.
pub fn concat(operands: &[Value]) -> Result<Value, RtError> {
    join(operands).map_err(|leftmost| {
        let (outer, innermost) = operands.split_at(operands.len().saturating_sub(2));
        innermost
            .iter()
            .chain(outer.iter().rev())
            .find_map(|v| push_coerced(&mut Vec::new(), v).err())
            .unwrap_or(leftmost)
    })
}

/// How `<`, `<=`, `>` and `>=` order two values: numbers, or strings
/// bytewise.
pub fn compare(a: &Value, b: &Value) -> Result<std::cmp::Ordering, RtError> {
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

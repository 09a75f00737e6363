//! Runtime values for Cephalo.

use std::any::Any;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use crate::ast::Block;
use crate::runtime::RtError;

/// A table key: Cephalo restricts keys to strings and integers, which is
/// what the paper's balancer and object-class scripts use.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Key {
    /// Integer key (numeric keys must be whole numbers).
    Int(i64),
    /// String key: the string value's own buffer, ordered bytewise.
    Str(Rc<[u8]>),
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Key::Int(i) => write!(f, "{i}"),
            Key::Str(s) => write!(f, "{}", String::from_utf8_lossy(s)),
        }
    }
}

/// A Cephalo table: a growable array part (1-based, like Lua) plus a sorted
/// map part. Iteration order is deterministic: array first, then map keys in
/// `Ord` order — determinism matters because scripts run inside a
/// deterministic simulation.
#[derive(Debug, Default, Clone)]
pub struct Table {
    arr: Vec<Value>,
    map: BTreeMap<Key, Value>,
}

impl Table {
    /// Creates an empty table.
    pub fn new() -> Table {
        Table::default()
    }

    /// Number of elements in the array part (the `#` operator).
    pub fn len(&self) -> usize {
        self.arr.len()
    }

    /// Whether both parts are empty.
    pub fn is_empty(&self) -> bool {
        self.arr.is_empty() && self.map.is_empty()
    }

    /// Appends to the array part.
    pub fn push(&mut self, v: Value) {
        self.arr.push(v);
    }

    /// Removes and returns the last array element.
    pub fn pop(&mut self) -> Option<Value> {
        self.arr.pop()
    }

    /// Reads by key; missing entries read as `nil`.
    pub fn get(&self, key: &Key) -> Value {
        if let Key::Int(i) = key {
            if *i >= 1 && (*i as usize) <= self.arr.len() {
                return self.arr[(*i - 1) as usize].clone();
            }
        }
        self.map.get(key).cloned().unwrap_or(Value::Nil)
    }

    /// Convenience string-key read.
    pub fn get_str(&self, key: &str) -> Value {
        self.get(&Key::Str(key.as_bytes().into()))
    }

    /// Writes by key. Integer writes adjacent to the array part extend it;
    /// assigning `nil` deletes map entries.
    pub fn set(&mut self, key: Key, v: Value) {
        if let Key::Int(i) = key {
            if i >= 1 && (i as usize) <= self.arr.len() {
                self.arr[(i - 1) as usize] = v;
                return;
            }
            if i as usize == self.arr.len() + 1 && !matches!(v, Value::Nil) {
                self.arr.push(v);
                // Absorb any map entries that now become contiguous.
                let mut next = self.arr.len() as i64 + 1;
                while let Some(absorbed) = self.map.remove(&Key::Int(next)) {
                    self.arr.push(absorbed);
                    next += 1;
                }
                return;
            }
        }
        if matches!(v, Value::Nil) {
            self.map.remove(&key);
        } else {
            self.map.insert(key, v);
        }
    }

    /// Convenience string-key write.
    pub fn set_str(&mut self, key: &str, v: Value) {
        self.set(Key::Str(key.as_bytes().into()), v);
    }

    /// Deterministic iteration: array entries as `(Int(i), v)` (1-based),
    /// then map entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (Key, Value)> + '_ {
        self.arr
            .iter()
            .enumerate()
            .map(|(i, v)| (Key::Int(i as i64 + 1), v.clone()))
            .chain(self.map.iter().map(|(k, v)| (k.clone(), v.clone())))
    }

    /// The array part as a slice.
    pub fn array(&self) -> &[Value] {
        &self.arr
    }

    /// Whether the table is a plain list: nothing outside the array part.
    pub fn is_list(&self) -> bool {
        self.map.is_empty()
    }
}

/// A plain list: the items become the array part, in order.
impl FromIterator<Value> for Table {
    fn from_iter<I: IntoIterator<Item = Value>>(items: I) -> Table {
        Table {
            arr: items.into_iter().collect(),
            map: BTreeMap::new(),
        }
    }
}

/// A script-defined function: parameters, body, and captured environment.
pub struct Function {
    /// Parameter names.
    pub params: Vec<String>,
    /// Function body.
    pub body: Block,
    /// Lexical environment captured at definition time.
    pub env: Rc<Scope>,
    /// Best-effort name for diagnostics.
    pub name: String,
}

impl fmt::Debug for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<function {}({})>", self.name, self.params.join(", "))
    }
}

/// Host context passed to native functions: the embedding-specific state
/// (`host`, downcast by each binding) and the interpreter's output sink.
pub struct HostCtx<'a> {
    /// Embedding-specific mutable state (e.g. OSD object handle, balancer
    /// view). Native functions downcast this to the concrete type their
    /// embedding registered them with.
    pub host: &'a mut dyn Any,
    /// Lines emitted by `print`/`log`, collected per interpreter.
    pub output: &'a mut Vec<String>,
}

/// Signature of a host-registered native function.
pub type NativeFn = Rc<dyn Fn(&mut HostCtx<'_>, &[Value]) -> Result<Value, RtError>>;

/// A named native function value.
#[derive(Clone)]
pub struct Native {
    /// Diagnostic name.
    pub name: String,
    /// The callable.
    pub f: NativeFn,
}

impl fmt::Debug for Native {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<native {}>", self.name)
    }
}

/// A lexical scope frame. Scopes form a parent chain; globals are the root.
#[derive(Debug, Default)]
pub struct Scope {
    vars: RefCell<std::collections::HashMap<String, Value>>,
    parent: Option<Rc<Scope>>,
}

impl Scope {
    /// Creates a root (global) scope.
    pub fn root() -> Rc<Scope> {
        Rc::new(Scope::default())
    }

    /// Creates a child scope of `parent`.
    pub fn child(parent: &Rc<Scope>) -> Rc<Scope> {
        Rc::new(Scope {
            vars: RefCell::new(std::collections::HashMap::new()),
            parent: Some(Rc::clone(parent)),
        })
    }

    /// Declares a variable in this frame (shadowing outer frames).
    pub fn declare(&self, name: &str, v: Value) {
        self.vars.borrow_mut().insert(name.to_string(), v);
    }

    /// Reads a variable, walking the parent chain; unknowns read as `nil`.
    pub fn get(&self, name: &str) -> Value {
        if let Some(v) = self.vars.borrow().get(name) {
            return v.clone();
        }
        match &self.parent {
            Some(p) => p.get(name),
            None => Value::Nil,
        }
    }

    /// Assigns to the nearest frame declaring `name`; if none, assigns at
    /// the root (creating a global), matching Lua semantics.
    pub fn set(&self, name: &str, v: Value) {
        if self.vars.borrow().contains_key(name) {
            self.vars.borrow_mut().insert(name.to_string(), v);
            return;
        }
        match &self.parent {
            Some(p) => p.set(name, v),
            None => {
                self.vars.borrow_mut().insert(name.to_string(), v);
            }
        }
    }
}

/// A runtime value.
#[derive(Debug, Clone, Default)]
pub enum Value {
    /// Absence of a value; falsey.
    #[default]
    Nil,
    /// Boolean; `false` is falsey.
    Bool(bool),
    /// IEEE-754 double, the only numeric type (as in Lua 5.1).
    Num(f64),
    /// Immutable byte string, as Lua's are: any bytes, counted and cut
    /// bytewise, shared by refcount. Text is a reading of it that only
    /// [`Value::display`], [`Value::as_str`] and `tonumber` take.
    Str(Rc<[u8]>),
    /// Shared mutable table.
    Table(Rc<RefCell<Table>>),
    /// Script-defined function.
    Func(Rc<Function>),
    /// Compiled script function (the bytecode VM's closure form).
    Closure(Rc<crate::vm::Closure>),
    /// Host-registered native function. Boxed behind `Rc` so the variant
    /// is pointer-sized: it keeps `Value` at 24 bytes (it would otherwise
    /// carry `Native`'s inline `String` + fat fn pointer), and cloning a
    /// native global is a refcount bump instead of a string allocation.
    Native(Rc<Native>),
}

impl Value {
    /// Builds a string value holding a copy of `s`.
    pub fn str(s: impl AsRef<[u8]>) -> Value {
        Value::Str(Rc::from(s.as_ref()))
    }

    /// Builds a fresh empty table value.
    pub fn table() -> Value {
        Value::Table(Rc::new(RefCell::new(Table::new())))
    }

    /// Wraps an existing table.
    pub fn from_table(t: Table) -> Value {
        Value::Table(Rc::new(RefCell::new(t)))
    }

    /// Lua truthiness: everything but `nil` and `false` is true.
    pub fn truthy(&self) -> bool {
        !matches!(self, Value::Nil | Value::Bool(false))
    }

    /// The type name used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Nil => "nil",
            Value::Bool(_) => "boolean",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Table(_) => "table",
            Value::Func(_) | Value::Closure(_) | Value::Native(_) => "function",
        }
    }

    /// Numeric view, if this value is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The bytes, if this value is a string.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Text view, if this value is a string that is valid UTF-8.
    pub fn as_str(&self) -> Option<&str> {
        std::str::from_utf8(self.as_bytes()?).ok()
    }

    /// Table view, if this value is a table.
    pub fn as_table(&self) -> Option<&Rc<RefCell<Table>>> {
        match self {
            Value::Table(t) => Some(t),
            _ => None,
        }
    }

    /// Converts to a display string (`print`, error text, `tostring` of a
    /// non-string). A string that is not UTF-8 shows U+FFFD where it is
    /// not: display is for people, the value keeps its bytes.
    pub fn display(&self) -> String {
        self.display_depth(8)
    }

    /// Display with a nesting budget: tables deeper than the budget
    /// render as `{...}`, so cyclic tables (`t.x = t`) cannot recurse the
    /// host stack into an abort the sandbox can't catch.
    fn display_depth(&self, depth: u32) -> String {
        match self {
            Value::Nil => "nil".to_string(),
            Value::Bool(b) => b.to_string(),
            Value::Num(n) => fmt_num(*n),
            Value::Str(s) => String::from_utf8_lossy(s).into_owned(),
            Value::Table(t) => {
                if depth == 0 {
                    return "{...}".to_string();
                }
                let t = t.borrow();
                let mut parts: Vec<String> = t
                    .array()
                    .iter()
                    .map(|v| v.display_depth(depth - 1))
                    .collect();
                for (k, v) in t.iter().skip(t.array().len()) {
                    parts.push(format!("{k} = {}", v.display_depth(depth - 1)));
                }
                format!("{{{}}}", parts.join(", "))
            }
            Value::Func(func) => format!("{func:?}"),
            Value::Closure(c) => format!("{c:?}"),
            Value::Native(n) => format!("{n:?}"),
        }
    }
}

/// Formats a number the way Lua's `tostring` does for common cases:
/// integral values print without a fractional part.
pub fn fmt_num(n: f64) -> String {
    let mut s = Vec::new();
    write_num(&mut s, n);
    String::from_utf8(s).expect("numbers print as ASCII")
}

/// Appends what [`fmt_num`] returns for `n` to `out`.
pub(crate) fn write_num(out: &mut Vec<u8>, n: f64) {
    use std::io::Write;
    // Writing to a `Vec` cannot fail.
    let _ = if n.fract() == 0.0 && n.abs() < 1e15 {
        write!(out, "{}", n as i64)
    } else {
        write!(out, "{n}")
    };
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Nil, Value::Nil) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Num(a), Value::Num(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Table(a), Value::Table(b)) => Rc::ptr_eq(a, b),
            (Value::Func(a), Value::Func(b)) => Rc::ptr_eq(a, b),
            (Value::Closure(a), Value::Closure(b)) => Rc::ptr_eq(a, b),
            (Value::Native(a), Value::Native(b)) => Rc::ptr_eq(&a.f, &b.f),
            _ => false,
        }
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Value {
        Value::Num(n)
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Value {
        Value::Num(n as f64)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_array_and_map_parts() {
        let mut t = Table::new();
        t.set(Key::Int(1), Value::from(10.0));
        t.set(Key::Int(2), Value::from(20.0));
        t.set_str("name", Value::str("x"));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(&Key::Int(1)), Value::from(10.0));
        assert_eq!(t.get_str("name"), Value::str("x"));
        assert_eq!(t.get(&Key::Int(99)), Value::Nil);
    }

    #[test]
    fn table_append_absorbs_sparse_entries() {
        let mut t = Table::new();
        t.set(Key::Int(2), Value::from(2.0)); // sparse → map
        assert_eq!(t.len(), 0);
        t.set(Key::Int(1), Value::from(1.0)); // extends array, absorbs 2
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(&Key::Int(2)), Value::from(2.0));
    }

    #[test]
    fn nil_assignment_deletes_map_entries() {
        let mut t = Table::new();
        t.set_str("k", Value::from(1.0));
        t.set_str("k", Value::Nil);
        assert_eq!(t.get_str("k"), Value::Nil);
        assert!(t.is_empty());
    }

    #[test]
    fn iteration_is_deterministic() {
        let mut t = Table::new();
        t.push(Value::from(1.0));
        t.set_str("z", Value::from(2.0));
        t.set_str("a", Value::from(3.0));
        let keys: Vec<String> = t.iter().map(|(k, _)| k.to_string()).collect();
        assert_eq!(keys, vec!["1", "a", "z"]);
    }

    #[test]
    fn truthiness() {
        assert!(!Value::Nil.truthy());
        assert!(!Value::Bool(false).truthy());
        assert!(Value::Num(0.0).truthy());
        assert!(Value::str("").truthy());
    }

    #[test]
    fn equality_by_value_and_identity() {
        assert_eq!(Value::from(1.0), Value::from(1.0));
        assert_eq!(Value::str("a"), Value::str("a"));
        let t1 = Value::table();
        let t2 = Value::table();
        assert_ne!(t1, t2);
        assert_eq!(t1, t1.clone());
        assert_ne!(Value::from(1.0), Value::str("1"));
    }

    #[test]
    fn scope_chain_lookup_and_assignment() {
        let root = Scope::root();
        root.declare("g", Value::from(1.0));
        let child = Scope::child(&root);
        assert_eq!(child.get("g"), Value::from(1.0));
        child.set("g", Value::from(2.0));
        assert_eq!(root.get("g"), Value::from(2.0));
        child.declare("g", Value::from(3.0));
        child.set("g", Value::from(4.0));
        assert_eq!(root.get("g"), Value::from(2.0));
        assert_eq!(child.get("g"), Value::from(4.0));
        // Assigning an undeclared name creates a global.
        child.set("fresh", Value::from(9.0));
        assert_eq!(root.get("fresh"), Value::from(9.0));
    }

    #[test]
    fn num_formatting() {
        assert_eq!(fmt_num(3.0), "3");
        assert_eq!(fmt_num(3.5), "3.5");
        assert_eq!(fmt_num(-2.0), "-2");
    }

    #[test]
    fn display_nested_table() {
        let mut t = Table::new();
        t.push(Value::from(1.0));
        t.set_str("k", Value::str("v"));
        assert_eq!(Value::from_table(t).display(), "{1, k = v}");
    }

    #[test]
    fn display_cyclic_table_terminates() {
        let v = Value::table();
        if let Value::Table(rc) = &v {
            rc.borrow_mut().set_str("me", v.clone());
        }
        // `t.me = t`: the display budget bottoms out instead of
        // recursing the host stack to death.
        let s = v.display();
        assert!(s.ends_with("{...}}}}}}}}}"), "{s}");
    }
}

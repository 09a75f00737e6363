//! The oracle's own forms: a script function and the scope chain it closes
//! over.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use mala_dsl::{Block, Value};

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

#[cfg(test)]
mod tests {
    use super::*;

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
}

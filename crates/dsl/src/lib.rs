//! Cephalo: the embedded scripting language of the Malacology reproduction.
//!
//! The paper embeds a Lua VM in Ceph daemons so that object interfaces and
//! load-balancer policies can be installed, versioned, and hot-swapped
//! without restarting the cluster. Binding a real Lua implementation is off
//! the table under this repository's offline-dependency policy, so Cephalo
//! is a small, Lua-flavoured language implemented from scratch: a lexer, a
//! recursive-descent parser, and a bytecode compiler whose chunks run on a
//! register VM ([`Vm`]) with deterministic sandboxing (instruction budgets and
//! call-depth limits). The VM is the one engine this crate holds, and the
//! one daemons embed. The reference semantics it is tested against is a
//! tree-walking interpreter in the dev-only `mala-dsl-oracle` crate, which
//! implements the same [`Engine`] surface: a test or the `dsl_vm`
//! experiment names it by type, and nothing selects an engine at run time.
//!
//! The feature set is the subset the paper's services actually need:
//! numbers, strings, booleans, nil, tables (array + map parts), functions
//! with closures, `if`/`while`/numeric-`for`, and host-registered native
//! functions through which scripts reach daemon state (load metrics,
//! object I/O, migration targets).
//!
//! # Examples
//!
//! ```
//! use mala_dsl::{Engine, Script, Value, Vm};
//!
//! let script = Script::compile(
//!     r#"
//!     function howmuch(load)
//!         return load / 2
//!     end
//!     "#,
//! )
//! .unwrap();
//! let mut vm = Vm::new();
//! vm.load(&script).unwrap();
//! let out = vm
//!     .call("howmuch", &[Value::from(10.0)], &mut ())
//!     .unwrap();
//! assert_eq!(out, Value::from(5.0));
//! ```

pub mod ast;
pub mod compile;
pub mod lexer;
pub mod parser;
pub mod runtime;
pub mod stdlib;
pub mod value;
pub mod vm;

pub use ast::{BinOp, Block, Expr, Stmt, UnOp};
pub use compile::{Chunk, CompileError};
pub use parser::ParseError;
pub use runtime::{Engine, RtError, Sandbox};
pub use value::{NativeFn, Str, Table, Value};
pub use vm::Vm;

/// A compiled (parsed) Cephalo script, ready to be loaded into an
/// interpreter. Compilation is pure: no side effects, no host access.
#[derive(Debug, Clone)]
pub struct Script {
    /// Top-level statements.
    pub block: Block,
}

impl Script {
    /// Parses `source` into a script.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] describing the first syntax error, with a
    /// line number.
    pub fn compile(source: &str) -> Result<Script, ParseError> {
        let tokens = lexer::lex(source).map_err(|e| ParseError {
            line: e.line,
            message: e.message,
        })?;
        let block = parser::parse(&tokens)?;
        Ok(Script { block })
    }
}

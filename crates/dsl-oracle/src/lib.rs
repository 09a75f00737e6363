//! Cephalo's reference semantics: a tree-walking interpreter ([`Interp`])
//! that runs a parsed script node by node over a chain of scopes.
//!
//! The product embeds one engine, `mala_dsl::Vm`. This crate holds the
//! second implementation of the same [`mala_dsl::Engine`] surface that the
//! VM is held to: the differential harness, the sandbox and class
//! equivalence tests, and the `dsl_vm` experiment name it by type. Only
//! `mala-bench` links it as a normal dependency; every other crate takes
//! it for its tests alone, so no daemon carries it.
//!
//! `mala_dsl::Value` has two function forms, the VM's `Closure` and the
//! host's `Native`. A function the oracle defines travels as a `Native`
//! that captures the function's body and scope and the interpreter's walk
//! state (budget, depth, sandbox), and runs the body with the host context
//! it is called with. It shows as `<function name(params)>`, as a VM
//! closure does.

mod interp;
mod runtime;
mod value;

pub use interp::Interp;

//! What one interpreter's functions share while they run: the walk state
//! (globals, sandbox, steps left, depth), and the native form a script
//! function travels in.

use std::cell::Cell;
use std::rc::Rc;

use mala_dsl::value::Native;
use mala_dsl::{NativeFn, RtError, Sandbox, Value};

use crate::value::{Function, Scope};

/// One interpreter's walk state. Every function the interpreter defines
/// holds it, so a call that reaches the function through a table, a
/// native or `Engine::call_value` is metered by the same budget and depth
/// as the entry point it runs under.
pub(crate) struct Walk {
    /// The root scope, where function declarations land.
    pub(crate) globals: Rc<Scope>,
    sandbox: Sandbox,
    steps_left: Cell<u64>,
    depth: Cell<u32>,
}

impl Walk {
    pub(crate) fn new(sandbox: Sandbox) -> Walk {
        Walk {
            globals: Scope::root(),
            sandbox,
            steps_left: Cell::new(0),
            depth: Cell::new(0),
        }
    }

    /// A whole budget and no depth: the start of an entry point.
    pub(crate) fn reset(&self) {
        self.steps_left.set(self.sandbox.max_steps);
        self.depth.set(0);
    }

    /// Spends one step of the budget.
    pub(crate) fn tick(&self) -> Result<(), RtError> {
        match self.steps_left.get() {
            0 => Err(RtError::new("instruction budget exceeded")),
            n => {
                self.steps_left.set(n - 1);
                Ok(())
            }
        }
    }

    /// Enters a function body, unless that passes the depth limit.
    pub(crate) fn enter(&self) -> Result<(), RtError> {
        if self.depth.get() >= self.sandbox.max_depth {
            return Err(RtError::new("call depth limit exceeded"));
        }
        self.depth.set(self.depth.get() + 1);
        Ok(())
    }

    /// Leaves a body that returned. A body that raised leaves its depth
    /// counted until the next entry point resets it, as the VM does.
    pub(crate) fn leave(&self) {
        self.depth.set(self.depth.get() - 1);
    }
}

/// `func` as a value: a native that runs its body on `walk` with the host
/// context it is called with, and shows as `<function name(params)>`.
pub(crate) fn closure(walk: &Rc<Walk>, func: Function) -> Value {
    let display = format!("{func:?}");
    let walk = Rc::clone(walk);
    let f: NativeFn = Rc::new(move |ctx, args| walk.call_function(&func, args, ctx));
    Value::Native(Rc::new(Native { display, f }))
}

/// Whether `v` is a function a script defined: the native [`closure`]
/// made, whose text is a function's. A host native shows `<native name>`.
pub(crate) fn is_script_function(v: &Value) -> bool {
    matches!(v, Value::Native(n) if n.display.starts_with("<function "))
}

#[cfg(test)]
mod tests {
    use mala_dsl::{Engine, Script, Vm};

    use super::*;
    use crate::Interp;

    /// Every method of [`Engine`], driven the way the daemons drive it, with
    /// a budget trip and a depth trip that leave the engine usable.
    fn conforms<E: Engine>() {
        let script = Script::compile(
            r#"
            seen = note("load")
            function pick(a, b) if a < b then return a end return b end
            function twice(f, x) return f(f(x)) end
            function spin() while true do spun = true end end
            function dive(n) return dive(n + 1) end
            print("loaded", limit)
            "#,
        )
        .unwrap();
        let mut engine = E::with_sandbox(Sandbox {
            max_steps: 10_000,
            max_depth: 16,
        });
        engine.register(
            "note",
            Rc::new(|ctx, args| {
                let notes = ctx.host.downcast_mut::<Vec<String>>().expect("host");
                notes.push(args[0].display());
                Ok(Value::from(notes.len() as f64))
            }),
        );
        engine.set_global("limit", Value::from(7.0));
        let mut notes: Vec<String> = Vec::new();
        engine.load_with(&script, &mut notes).unwrap();
        assert_eq!(notes, ["load"]);
        assert_eq!(engine.global("seen"), Value::from(1.0));
        assert_eq!(engine.global("unset"), Value::Nil);
        assert_eq!(engine.take_output(), ["loaded\t7"]);
        assert!(engine.take_output().is_empty());
        assert!(engine.has_function("pick") && engine.has_function("note"));
        assert!(!engine.has_function("limit") && !engine.has_function("nope"));
        assert!(engine.has_script_function("pick") && !engine.has_script_function("note"));
        assert!(!engine.has_script_function("limit") && !engine.has_script_function("nope"));

        let args = [Value::from(4.0), Value::from(7.0)];
        assert_eq!(engine.call("pick", &args, &mut ()), Ok(Value::from(4.0)));
        let err = engine.call("nope", &[], &mut ()).unwrap_err();
        assert_eq!(err.message, "no such function `nope`");
        let note = engine.global("note");
        let out = engine.call_value(&note, vec![Value::str("direct")], &mut notes);
        assert_eq!(out, Ok(Value::from(2.0)));
        assert_eq!(notes, ["load", "direct"]);

        let err = engine.call("spin", &[], &mut ()).unwrap_err();
        assert_eq!(err.message, "instruction budget exceeded");
        assert_eq!(engine.global("spun"), Value::from(true));
        let err = engine
            .call("dive", &[Value::from(0.0)], &mut ())
            .unwrap_err();
        assert_eq!(err.message, "call depth limit exceeded");
        // Neither trip poisons the engine, and each entry has its own budget.
        assert_eq!(engine.call("pick", &args, &mut ()), Ok(Value::from(4.0)));

        // `new` has the default sandbox: room for far more than the tiny
        // budget above.
        let mut roomy = E::new();
        let counting = Script::compile("n = 0 for i = 1, 50000 do n = n + 1 end").unwrap();
        roomy.load(&counting).unwrap();
        assert_eq!(roomy.global("n"), Value::from(50_000.0));
    }

    #[test]
    fn both_engines_conform_to_the_engine_surface() {
        conforms::<Interp>();
        conforms::<Vm>();
    }
}

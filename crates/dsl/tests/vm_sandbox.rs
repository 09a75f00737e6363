//! Sandbox equivalence: instruction budgets and call-depth limits must
//! trip in both engines, with the same error message, and a tripped VM
//! must be left in a usable (non-poisoned) state.
//!
//! The two engines meter differently — the interpreter ticks per AST
//! node, the VM per opcode — so the *point* of a trip inside a runaway
//! program differs; what must be identical is that both trip, and what
//! they report.

use std::any::type_name;

use mala_dsl::{Engine, Interp, Sandbox, Script, Value, Vm};

fn tiny(steps: u64) -> Sandbox {
    Sandbox {
        max_steps: steps,
        max_depth: 16,
    }
}

#[test]
fn infinite_loop_trips_budget_in_both_engines() {
    fn case<E: Engine>() {
        let script = Script::compile("while true do x = 1 end").unwrap();
        let mut eng = E::with_sandbox(tiny(10_000));
        let err = eng.load(&script).expect_err("must trip");
        let engine = type_name::<E>();
        assert_eq!(err.message, "instruction budget exceeded", "{engine}");
    }
    case::<Interp>();
    case::<Vm>();
}

#[test]
fn infinite_numeric_for_trips_budget_in_both_engines() {
    // A huge-but-finite numeric for: far more iterations than budget.
    fn case<E: Engine>() {
        let script = Script::compile("for i = 1, 100000000 do y = i end").unwrap();
        let mut eng = E::with_sandbox(tiny(5_000));
        let err = eng.load(&script).expect_err("must trip");
        let engine = type_name::<E>();
        assert_eq!(err.message, "instruction budget exceeded", "{engine}");
    }
    case::<Interp>();
    case::<Vm>();
}

#[test]
fn deep_recursion_trips_depth_limit_in_both_engines() {
    fn case<E: Engine>() {
        let script = Script::compile("function f(n) return f(n + 1) end").unwrap();
        let mut eng = E::with_sandbox(tiny(1_000_000));
        eng.load(&script).unwrap();
        let err = eng
            .call("f", &[Value::from(0.0)], &mut ())
            .expect_err("must trip");
        let engine = type_name::<E>();
        assert_eq!(err.message, "call depth limit exceeded", "{engine}");
    }
    case::<Interp>();
    case::<Vm>();
}

#[test]
fn budget_resets_between_calls_in_both_engines() {
    // Each call costs a few hundred ticks; with the budget reset per
    // entry point, fifty calls must all succeed even though their sum is
    // far beyond one budget.
    fn case<E: Engine>() {
        let script = Script::compile(
            "function work(n)\n  local s = 0\n  for i = 1, 40 do s = s + i end\n  return s + n\nend",
        )
        .unwrap();
        let mut eng = E::with_sandbox(tiny(1_000));
        eng.load(&script).unwrap();
        for i in 0..50 {
            let out = eng
                .call("work", &[Value::from(i as f64)], &mut ())
                .unwrap_or_else(|e| panic!("{} call {i}: {e:?}", type_name::<E>()));
            assert_eq!(out, Value::from(820.0 + i as f64));
        }
    }
    case::<Interp>();
    case::<Vm>();
}

#[test]
fn tripped_vm_is_not_poisoned() {
    // A budget trip mid-call must leave globals, output plumbing, and
    // subsequent calls fully functional (the VM keeps its run-time stacks
    // local to the dispatch loop, so an error cannot strand state).
    let script = Script::compile(
        r#"
        done = 0
        function spin()
            print("entering spin")
            while true do done = done + 1 end
        end
        function ok(a, b)
            print("ok ran")
            return a + b
        end
        "#,
    )
    .unwrap();
    let mut vm = Vm::with_sandbox(tiny(20_000));
    vm.load(&script).unwrap();
    vm.take_output();

    let err = vm.call("spin", &[], &mut ()).expect_err("must trip");
    assert_eq!(err.message, "instruction budget exceeded");
    // Output produced before the trip is still delivered.
    assert_eq!(vm.take_output(), vec!["entering spin".to_string()]);
    // The global mutated before the trip reflects the partial execution.
    assert!(vm.global("done").as_num().unwrap_or(0.0) > 0.0);

    // And the engine still works.
    let out = vm
        .call("ok", &[Value::from(2.0), Value::from(3.0)], &mut ())
        .unwrap();
    assert_eq!(out, Value::from(5.0));
    assert_eq!(vm.take_output(), vec!["ok ran".to_string()]);
}

#[test]
fn tripped_interp_matches_vm_recovery_behaviour() {
    // Parity check for the recovery path itself: after an equivalent trip
    // the interpreter also services later calls.
    let script =
        Script::compile("function spin() while true do end end function ok() return 7 end")
            .unwrap();
    let mut interp = Interp::with_sandbox(tiny(10_000));
    interp.load(&script).unwrap();
    let ei = interp.call("spin", &[], &mut ()).expect_err("trip");
    let oi = interp.call("ok", &[], &mut ()).unwrap();

    let mut vm = Vm::with_sandbox(tiny(10_000));
    vm.load(&script).unwrap();
    let ev = vm.call("spin", &[], &mut ()).expect_err("trip");
    let ov = vm.call("ok", &[], &mut ()).unwrap();

    assert_eq!(ei.message, "instruction budget exceeded");
    assert_eq!(ei.message, ev.message);
    assert_eq!(oi, Value::from(7.0));
    assert_eq!(oi, ov);
}

#[test]
fn depth_trip_then_shallow_call_succeeds() {
    fn case<E: Engine>() {
        let script = Script::compile(
            r#"
            function down(n)
                if n <= 0 then return 0 end
                return down(n - 1) + 1
            end
            "#,
        )
        .unwrap();
        let engine = type_name::<E>();
        let mut eng = E::with_sandbox(tiny(1_000_000));
        eng.load(&script).unwrap();
        // 100 nested calls exceeds max_depth=16.
        let err = eng
            .call("down", &[Value::from(100.0)], &mut ())
            .expect_err("must trip");
        assert_eq!(err.message, "call depth limit exceeded", "{engine}");
        // A shallow call right after succeeds: depth accounting unwound.
        let out = eng.call("down", &[Value::from(5.0)], &mut ()).unwrap();
        assert_eq!(out, Value::from(5.0), "{engine}");
    }
    case::<Interp>();
    case::<Vm>();
}

/// Instructions per iteration of a `read_batch`-shaped loop (the zlog
/// class's hot method: parse a position, compare it to a watermark, build
/// a key in a helper function, look it up, store the answer), pinned so a
/// codegen change that adds operand traffic back is a failing number, not
/// a profile. The stack encoding took 43.
#[test]
fn read_batch_shaped_loop_costs_23_instructions_an_iteration() {
    const BATCH: &str = r#"
        function pad(pos) return "e" .. zpad(pos, 20) end
        function batch(csv, lo)
            local ps = split(csv, ",")
            local out = {csv}
            for k = 1, #ps do
                local pos = tonumber(ps[k])
                if pos == nil then error("EINVAL: bad position") end
                local v = "T|"
                if pos > lo then
                    v = lookup(pad(pos))
                    if v == nil then v = "U|" end
                end
                out[k + 1] = v
            end
            return out
        end
    "#;
    let script = Script::compile(BATCH).unwrap();
    let run = |positions: u32, max_steps: u64| {
        let mut vm = Vm::with_sandbox(tiny(max_steps));
        vm.register("lookup", std::rc::Rc::new(|_, args| Ok(args[0].clone())));
        vm.load(&script).unwrap();
        let csv: Vec<String> = (1..=positions).map(|p| (p + 7).to_string()).collect();
        let args = [Value::str(csv.join(",")), Value::from(3.0)];
        vm.call("batch", &args, &mut ()).map(|out| {
            let out = out.as_table().expect("a list").borrow();
            assert_eq!(out.len(), positions as usize + 1);
            assert_eq!(out.array()[1], Value::str("e00000000000000000008"));
        })
    };
    // The whole call: trips one short of its count, completes at it.
    const PER_ITERATION: u64 = 23;
    const ONE: u64 = 37;
    const THIRTY_THREE: u64 = ONE + 32 * PER_ITERATION;
    for (positions, steps) in [(1, ONE), (33, THIRTY_THREE)] {
        let err = run(positions, steps - 1).expect_err("one step short");
        assert_eq!(err.message, "instruction budget exceeded", "{positions}");
        run(positions, steps).unwrap_or_else(|e| panic!("{positions} positions: {e}"));
    }
}

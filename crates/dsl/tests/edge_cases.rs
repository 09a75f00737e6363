//! Edge-case coverage for the Cephalo DSL: stdlib misuse (wrong arity,
//! wrong types), parser recursion-depth limits, and fuzz-style property
//! tests. Policy scripts arrive over the wire from the monitor, so the
//! compile/run pipeline must reject hostile input with a typed error —
//! never a panic or a stack overflow.

use mala_dsl::{compile, Engine, Interp, RtError, Script, Value, Vm};
use proptest::prelude::*;

fn run(src: &str) -> Result<Interp, RtError> {
    let script = Script::compile(src).map_err(|e| RtError::new(e.to_string()))?;
    let mut interp = Interp::new();
    interp.load(&script)?;
    Ok(interp)
}

fn run_err(src: &str) -> String {
    match run(src) {
        Ok(_) => panic!("`{src}` should have failed"),
        Err(e) => e.message,
    }
}

// ---- stdlib arity and type misuse ----

#[test]
fn missing_numeric_arguments_are_typed_errors_not_panics() {
    // Absent arguments read as nil; every numeric builtin must say which
    // argument is wrong rather than panic on the coercion.
    for (src, which) in [
        ("floor()", "argument 1"),
        ("sqrt()", "argument 1"),
        ("min()", "argument 1"),
        ("max()", "argument 1"),
        ("fmt()", "argument 1"),
        ("format_num()", "argument 1"),
        ("sub(\"abc\")", "argument 2"),
    ] {
        let msg = run_err(src);
        assert!(msg.contains(which), "`{src}` -> {msg}");
    }
}

#[test]
fn wrong_types_across_the_stdlib_name_the_offender() {
    for (src, frag) in [
        ("abs({})", "abs: argument 1 must be a number"),
        ("min(1, \"x\")", "min: argument 2 must be a number"),
        ("max(1, 2, {})", "max: argument 3 must be a number"),
        ("insert(\"s\", 1)", "insert: argument 1 must be a table"),
        ("remove(5)", "remove: argument 1 must be a table"),
        ("keys(nil)", "keys: argument 1 must be a table"),
        ("sub({}, 1)", "sub: argument 1 must be a string"),
        ("sub(\"abc\", 1, {})", "sub: argument 3 must be a number"),
        ("find(1, \"x\")", "find: argument 1 must be a string"),
        ("find(\"x\", {})", "find: argument 2 must be a string"),
        ("split(nil, \":\")", "split: argument 1 must be a string"),
        ("split(\"a:b\", 7)", "split: argument 2 must be a string"),
        (
            "format_num(1, \"two\")",
            "format_num: argument 2 must be a number",
        ),
    ] {
        let msg = run_err(src);
        assert!(msg.contains(frag), "`{src}` -> {msg}");
    }
}

#[test]
fn excess_arguments_are_ignored_like_lua() {
    let interp = run("a = floor(2.9, \"junk\", {})\nb = type(1, 2, 3)").unwrap();
    assert_eq!(interp.global("a"), Value::from(2.0));
    assert_eq!(interp.global("b"), Value::str("number"));
}

#[test]
fn tonumber_is_total_over_garbage() {
    let interp = run(concat!(
        "a = tonumber(\"abc\")\n",
        "b = tonumber(\"\")\n",
        "c = tonumber(\" 1e3 \")\n",
        "d = tonumber(true)\n",
        "e = tonumber({})\n",
        "f = tonumber(nil)\n",
        "g = tonumber(\"-2.5\")",
    ))
    .unwrap();
    assert_eq!(interp.global("a"), Value::Nil);
    assert_eq!(interp.global("b"), Value::Nil);
    assert_eq!(interp.global("c"), Value::from(1000.0));
    assert_eq!(interp.global("d"), Value::Nil);
    assert_eq!(interp.global("e"), Value::Nil);
    assert_eq!(interp.global("f"), Value::Nil);
    assert_eq!(interp.global("g"), Value::from(-2.5));
}

// ---- parser recursion-depth limits ----

#[test]
fn moderately_nested_parens_still_parse() {
    let depth = 40;
    let src = format!("x = {}1{}", "(".repeat(depth), ")".repeat(depth));
    assert!(Script::compile(&src).is_ok());
}

#[test]
fn pathological_paren_nesting_is_a_parse_error_not_a_crash() {
    let depth = 100_000;
    let src = format!("x = {}1{}", "(".repeat(depth), ")".repeat(depth));
    let err = Script::compile(&src).unwrap_err();
    assert!(err.message.contains("nesting"), "{err}");
}

#[test]
fn deep_unary_chains_hit_the_depth_limit() {
    let src = format!("x = {} true", "not ".repeat(100_000));
    let err = Script::compile(&src).unwrap_err();
    assert!(err.message.contains("nesting"), "{err}");
}

#[test]
fn deep_right_assoc_pow_chains_hit_the_depth_limit() {
    let src = format!("x = {}2", "2 ^ ".repeat(100_000));
    let err = Script::compile(&src).unwrap_err();
    assert!(err.message.contains("nesting"), "{err}");
}

#[test]
fn deep_block_nesting_hits_the_depth_limit() {
    let src = format!(
        "{}x = 1{}",
        "if true then ".repeat(100_000),
        " end".repeat(100_000)
    );
    let err = Script::compile(&src).unwrap_err();
    assert!(err.message.contains("nesting"), "{err}");
}

#[test]
fn long_flat_programs_are_not_limited() {
    // Depth limits must only bite on *nesting*: a long flat script and a
    // long left-associative chain both stay within a constant depth.
    let flat: String = (0..5_000).map(|i| format!("x{i} = {i}\n")).collect();
    assert!(Script::compile(&flat).is_ok());
    let chain = format!("x = 0{}", " + 1".repeat(5_000));
    assert!(Script::compile(&chain).is_ok());
}

// ---- register pressure and slot addressing ----

/// Loads `src` on both engines and returns the globals named, which must
/// agree; the bytecode's answer is held to the tree-walker's.
fn both(src: &str, names: &[&str]) -> Vec<Value> {
    fn globals<E: Engine>(src: &str, names: &[&str]) -> Vec<Value> {
        let script = Script::compile(src).unwrap();
        let mut engine = E::new();
        engine
            .load(&script)
            .unwrap_or_else(|e| panic!("{src}: {e}"));
        names.iter().map(|n| engine.global(n)).collect()
    }
    // Shown, not compared: a table is only ever equal to itself.
    let show = |vals: &[Value]| vals.iter().map(Value::display).collect::<Vec<_>>();
    let want = globals::<Interp>(src, names);
    assert_eq!(show(&globals::<Vm>(src, names)), show(&want), "{src}");
    want
}

#[test]
fn a_300_term_expression_needs_few_slots_and_sums_right() {
    let terms: Vec<String> = (1..=300).map(|i| format!("v * {i}")).collect();
    let src = format!(
        "function f(v) return {} end\nleft = f(2)\nright = 0{}{}",
        terms.join(" + "),
        " + (1".repeat(60),
        ")".repeat(60)
    );
    assert_eq!(both(&src, &["left"]), [Value::from(2.0 * 45_150.0)]);
    assert_eq!(both(&src, &["right"]), [Value::from(60.0)]);
    let chunk = compile::compile(&Script::compile(&src).unwrap()).unwrap();
    // A left-leaning chain reuses its destination: `v`, the sum, one term.
    assert_eq!(chunk.main.protos[0].n_slots, 3);
    // A right-leaning one holds a temporary per pending operand.
    assert!((60..70).contains(&chunk.main.n_slots));
}

#[test]
fn more_slots_than_an_operand_can_name_is_a_compile_error() {
    let limit = compile::Rk::LIMIT.to_string();
    let locals: String = (0..70_000).map(|i| format!("local a{i} = 0\n")).collect();
    let args = vec!["nil"; 70_000].join(", ");
    let captured: String = (0..70_000).map(|i| format!("local c{i} = 0\n")).collect();
    let reads: String = (0..70_000).map(|i| format!("c{i} = 1\n")).collect();
    for (what, src) in [
        ("locals", format!("function f()\n{locals}end")),
        ("temporaries", format!("print({args})")),
        (
            "parameters",
            format!("function f({}) end", vec!["p"; 70_000].join(", ")),
        ),
    ] {
        let err = compile::compile(&Script::compile(&src).unwrap()).unwrap_err();
        assert!(err.message.contains("slots"), "{what}: {err}");
        assert!(err.message.contains(&limit), "{what}: {err}");
        // The engine reports it; it does not run a wrapped slot number.
        let err = Vm::new().load(&Script::compile(&src).unwrap()).unwrap_err();
        assert!(err.message.contains("slots"), "{what}: {err}");
    }
    // Boxes are counted in a u16 of their own.
    let src = format!("function f()\n{captured}return function()\n{reads}end\nend");
    let err = compile::compile(&Script::compile(&src).unwrap()).unwrap_err();
    assert!(err.message.contains("captured locals"), "{err}");
    // Just under the limit still compiles and runs.
    let n = compile::Rk::LIMIT - 1;
    let locals: String = (0..n).map(|i| format!("local a{i} = 21\n")).collect();
    let src = format!("function f()\n{locals}return a0 + a{}\nend\nx = f()", n - 1);
    assert_eq!(both(&src, &["x"]), [Value::from(42.0)]);
}

/// A jump names its target in 16 bits, so that is as long as one function
/// gets: past it the compiler says so; it does not wrap a target.
#[test]
fn a_function_longer_than_a_jump_can_span_is_a_compile_error() {
    let long: String = (0..70_000).map(|_| "x = 1\n").collect();
    for src in [long.clone(), format!("function f()\n{long}end")] {
        let err = compile::compile(&Script::compile(&src).unwrap()).unwrap_err();
        assert!(err.message.contains("instructions"), "{err}");
        assert!(err.message.contains("65535"), "{err}");
    }
    // Just under it, a jump over the whole body still lands.
    let body: String = (0..21_800).map(|_| "x = x + 1\n").collect();
    let src = format!("x = 0\nif x == 0 then\n{body}else x = 0 - 1 end\ny = x");
    let chunk = compile::compile(&Script::compile(&src).unwrap()).unwrap();
    assert!(chunk.main.code.len() > 65_400, "{}", chunk.main.code.len());
    assert_eq!(both(&src, &["y"]), [Value::from(21_800.0)]);
}

#[test]
fn nested_call_windows_keep_their_arguments_apart() {
    let src = r#"
        function add(a, b, c) return a + b * 10 + c * 100 end
        function id(x) return x end
        function go(p)
            local q = 2
            -- An argument that calls, whose argument calls: each window
            -- opens in the slot its result is needed in.
            local r = add(id(p), add(q, id(id(3)), 0), id(add(1, 1, 1)))
            return r + add(p, q, add(0, 0, id(1)))
        end
        x = go(1)
        -- Fewer arguments than parameters read nil, more are dropped, and
        -- a window's leftovers never show through a later call.
        function count(a, b, c)
            local n = 0
            if a ~= nil then n = n + 1 end
            if b ~= nil then n = n + 1 end
            if c ~= nil then n = n + 1 end
            return n
        end
        y = count(7, 8, 9) * 100 + count(7) * 10 + count()
        z = count(1, 2, 3, 4, 5)
        s = tostring(id(max(id(1), min(id(5), id(9)))))
    "#;
    let got = both(src, &["x", "y", "z", "s"]);
    let first = 1.0 + (2.0 + 30.0) * 10.0 + 111.0 * 100.0;
    let second = 1.0 + 20.0 + 100.0 * 100.0;
    assert_eq!(got[0], Value::from(first + second));
    assert_eq!(got[1], Value::from(310.0));
    assert_eq!(got[2], Value::from(3.0));
    assert_eq!(got[3], Value::str("5"));
}

#[test]
fn a_closure_made_in_a_loop_body_keeps_that_iterations_variables() {
    let src = r#"
        fs = {}
        for i = 1, 3 do
            local twice = i * 2
            for k, v in {10, 20} do
                insert(fs, function() i = i + 1 return i * 1000 + twice * 100 + k * 10 + v / 10 end)
            end
        end
        a = fs[1]() b = fs[1]() c = fs[2]() d = fs[6]()
        n = 0
        j = 1
        while j <= 3 do
            local step = j
            fs[j] = function() n = n + step return n end
            j = j + 1
        end
        e = fs[3]() + fs[1]()
    "#;
    let got = both(src, &["a", "b", "c", "d", "e"]);
    // The loop variable is per iteration but shared by the closures that
    // iteration made; the numeric `for` does not see the body's writes.
    assert_eq!(got[0], Value::from(2211.0));
    assert_eq!(got[1], Value::from(3211.0));
    assert_eq!(got[2], Value::from(4222.0));
    assert_eq!(got[3], Value::from(4622.0));
    assert_eq!(got[4], Value::from(3.0 + 4.0));
}

#[test]
fn and_or_as_values_and_as_conditions() {
    let src = r#"
        calls = ""
        function t(tag) calls = calls .. tag return tag end
        function f(tag) calls = calls .. tag return nil end
        function pick(a, b, c)
            -- As values: the deciding operand itself, not a boolean.
            local v = a and b or c
            local w = (a or b) and (b or c)
            local n = not (a and b)
            -- As conditions: no value is built, the same operands run.
            local s = ""
            if a and b then s = s .. "1" else s = s .. "0" end
            if a or b and c then s = s .. "1" else s = s .. "0" end
            if not (a or b) or c then s = s .. "1" else s = s .. "0" end
            while a and not b do a = false s = s .. "w" end
            repeat s = s .. "r" until not a or b
            return {v, w, n, s}
        end
        r1 = pick(1, 2, 3) r2 = pick(false, 2, 3) r3 = pick(1, false, 3) r4 = pick(nil, nil, nil)
        x = t("a") and f("b") or t("c")
        if f("d") or t("e") and f("g") then y = 1 else y = 2 end
        z = f("h") and t("i")
        a = 1 a = a and a + 1
        b = nil b = b or {b}
        nb = #b
    "#;
    let show = |v: &Value| v.display();
    let got: Vec<String> = both(
        src,
        &["r1", "r2", "r3", "r4", "x", "y", "z", "calls", "a", "nb"],
    )
    .iter()
    .map(show)
    .collect();
    assert_eq!(
        got,
        [
            "{2, 2, false, 111r}",
            "{3, 2, true, 011r}",
            "{3, 3, true, 011wr}",
            "{nil, nil, true, 001r}",
            "c",
            "2",
            "nil",
            "abcdegh",
            "2",
            "1"
        ]
    );
}

/// Cephalo assigns one target at a time (`a, b = b, a` does not parse), so
/// aliasing shows up where a statement reads what it writes: the target
/// among its own operands, a swap through a temporary, an index that is
/// itself reassigned next.
#[test]
fn assignments_read_their_operands_before_they_write() {
    assert!(Script::compile("a, b = b, a").is_err());
    let src = r#"
        function go(a, b)
            local t = {10, 20, 30}
            local i = 1
            local tmp = a a = b b = tmp
            a = {a, b}
            b = b and a[1] or b
            i = t[i] / 10 + i
            t[i] = i i = t[i] + 1
            t[i] = t[i - 1] + t[i]
            a = a[1] + a[2] * (a[1] - i)
            i = -i
            i = #t + i
            return {a, b, i, t[1], t[2], t[3]}
        end
        r = go(5, 7)
    "#;
    let want = "{27, 7, 0, 10, 2, 32}";
    assert_eq!(both(src, &["r"])[0].display(), want);
}

// ---- fuzz-style properties ----

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary source text never panics the compile pipeline; it
    /// produces either a script or a typed `ParseError`.
    #[test]
    fn compile_never_panics_on_arbitrary_text(src in "[ -~\\n]{0,200}") {
        let _ = Script::compile(&src);
    }

    /// Source built from DSL token soup (far likelier to get deep into
    /// the parser than raw bytes) never panics either.
    #[test]
    fn compile_never_panics_on_token_soup(
        toks in prop::collection::vec(
            prop_oneof![
                Just("("), Just(")"), Just("{"), Just("}"), Just("["), Just("]"),
                Just("if"), Just("then"), Just("else"), Just("end"), Just("while"),
                Just("do"), Just("for"), Just("function"), Just("return"),
                Just("not"), Just("-"), Just("#"), Just("^"), Just(".."),
                Just("="), Just(","), Just("x"), Just("1"), Just("\"s\""),
            ],
            0..60,
        )
    ) {
        let src = toks.join(" ");
        let _ = Script::compile(&src);
    }

    /// Any nesting depth, balanced or not, yields Ok or a ParseError —
    /// never a stack overflow (which would abort the process).
    #[test]
    fn any_paren_depth_is_ok_or_error(depth in 0usize..4_000) {
        let src = format!("x = {}1{}", "(".repeat(depth), ")".repeat(depth));
        let _ = Script::compile(&src);
    }
}

//! Edge-case coverage for the Cephalo DSL: stdlib misuse (wrong arity,
//! wrong types), parser recursion-depth limits, and fuzz-style property
//! tests. Policy scripts arrive over the wire from the monitor, so the
//! compile/run pipeline must reject hostile input with a typed error —
//! never a panic or a stack overflow.

use mala_dsl::{Engine, Interp, RtError, Script, Value};
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

//! Differential testing: the bytecode VM against the tree-walking
//! interpreter (the reference semantics).
//!
//! [`testgen`] (a module of this test, not of the library) generates
//! random — but always-terminating — Cephalo programs and compares every observation between the engines:
//! the load result (or exact error message), all `print` output, tracked
//! globals (structural equivalence), and post-load calls to generated
//! functions. A fixed-seed smoke covers a contiguous block of seeds so CI
//! is deterministic; a proptest layer on top draws arbitrary seeds and
//! shrinks to the smallest failing one.

mod testgen;

use mala_dsl::{Engine, Interp, Script, Value, Vm};
use proptest::prelude::*;
use testgen::{check_seed, Rng};

/// Fixed-seed smoke: 1500 programs, zero tolerated divergences.
#[test]
fn fixed_seed_differential_smoke() {
    let mut checked = 0u32;
    for seed in 0..1500u64 {
        if let Err(d) = check_seed(seed) {
            panic!("engines diverged: {d}");
        }
        checked += 1;
    }
    assert_eq!(checked, 1500);
}

/// A second disjoint seed block, biased high to decorrelate from the
/// smoke block's splitmix64 streams.
#[test]
fn fixed_seed_differential_high_block() {
    for seed in (1u64 << 40)..(1u64 << 40) + 500 {
        if let Err(d) = check_seed(seed) {
            panic!("engines diverged: {d}");
        }
    }
}

/// Regression: this seed generates `v0.b = v0` (a cyclic table) and then
/// prints it. `Value::display` used to recurse the host stack into an
/// abort; it now renders nesting past a fixed budget as `{...}` — in both
/// engines identically.
#[test]
fn cyclic_table_print_seed_regression() {
    if let Err(d) = check_seed(12252461373750416180) {
        panic!("engines diverged: {d}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary seeds with shrinking: a failure here reports the
    /// smallest seed whose program diverges.
    #[test]
    fn random_seed_differential(seed in any::<u64>()) {
        if let Err(d) = check_seed(seed) {
            panic!("engines diverged: {d}");
        }
    }
}

// ---- `..` chains, `concat` and `sub`: fixed cases on both engines ----

/// `src` on one engine: the display form of global `x`, or the error
/// message.
fn eval_x<E: Engine>(src: &str) -> Result<String, String> {
    let script = Script::compile(src).unwrap_or_else(|e| panic!("`{src}`: {e}"));
    let mut engine = E::new();
    engine.load(&script).map_err(|e| e.message)?;
    Ok(engine.global("x").display())
}

/// `src` on both engines, which must agree on value and error message.
fn eval_both(src: &str) -> Result<String, String> {
    let tree = eval_x::<Interp>(src);
    let vm = eval_x::<Vm>(src);
    assert_eq!(tree, vm, "engines disagree on `{src}`");
    vm
}

/// One chain operand: its source, and what it contributes — its rendering,
/// or the type name the error reports.
type Operand = (&'static str, Result<&'static str, &'static str>);

const JOINABLE: [Operand; 10] = [
    ("\"ab\"", Ok("ab")),
    ("\"\"", Ok("")),
    ("7", Ok("7")),
    ("2.5", Ok("2.5")),
    ("(0 - 3)", Ok("-3")),
    ("1e15", Ok("1000000000000000")),
    ("true", Ok("true")),
    ("false", Ok("false")),
    ("nil", Ok("nil")),
    // A chain of its own on the left: compiled apart from the outer one.
    ("(\"p\" .. 1)", Ok("p1")),
];

const UNJOINABLE: [Operand; 2] = [("{}", Err("table")), ("print", Err("function"))];

/// Chains of 2–8 operands mixing strings, numbers, booleans and `nil`
/// with none, one or two values `..` rejects. Both engines must agree,
/// and with the model: the tree-walker joins pair by pair from the right,
/// so the operand it rejects is the first bad one among the last two,
/// else the rightmost bad one before them.
#[test]
fn concat_chains_agree_on_value_and_error() {
    let mut rng = Rng::new(0x636f_6e63_6174);
    for n in 2..=8usize {
        for case in 0..300 {
            let mut ops: Vec<Operand> = (0..n)
                .map(|_| JOINABLE[rng.below(JOINABLE.len() as u64) as usize])
                .collect();
            for _ in 0..case % 3 {
                let at = rng.below(n as u64) as usize;
                ops[at] = UNJOINABLE[rng.below(2) as usize];
            }
            let src = format!(
                "x = {}",
                ops.iter().map(|o| o.0).collect::<Vec<_>>().join(" .. ")
            );
            let (outer, innermost) = ops.split_at(n - 2);
            let rejected = innermost
                .iter()
                .chain(outer.iter().rev())
                .find_map(|o| o.1.err());
            let want = match rejected {
                Some(ty) => Err(format!("cannot concatenate a {ty} value")),
                None => Ok(ops.iter().map(|o| o.1.unwrap_or("")).collect::<String>()),
            };
            assert_eq!(eval_both(&src), want, "`{src}`");
        }
    }
}

#[test]
fn concat_chain_operands_evaluate_left_to_right_before_joining() {
    let src = "
        log = \"\"
        function t(s) log = log .. s return s end
        y = t(\"a\") .. t(\"b\") .. t(\"c\") .. t(\"d\")
        x = y .. \"/\" .. log
    ";
    assert_eq!(eval_both(src), Ok("abcd/abcd".to_string()));
}

#[test]
fn concat_builtin_joins_the_array_part() {
    for (src, want) in [
        ("x = concat({})", Ok("")),
        ("x = concat({\"a\", 1, true, 2.5})", Ok("a1true2.5")),
        ("x = concat({\"a\", \"b\", k = \"v\"})", Ok("ab")),
        ("x = concat({k = \"v\"})", Ok("")),
        (
            "t = {} insert(t, nil) insert(t, \"x\") x = concat(t)",
            Ok("nilx"),
        ),
        (
            "x = concat({\"a\", {}, print})",
            Err("cannot concatenate a table value"),
        ),
        (
            "x = concat(\"ab\")",
            Err("concat: argument 1 must be a table"),
        ),
        ("x = concat()", Err("concat: argument 1 must be a table")),
    ] {
        let want = want.map(str::to_string).map_err(str::to_string);
        assert_eq!(eval_both(src), want, "`{src}`");
    }
}

/// `sub` indexes bytes and cuts where the indices fall, inside a multi-byte
/// character too (that used to be refused: a string was text). The string
/// arrives as a global, the way a class method's input does.
#[test]
fn sub_cuts_bytes_wherever_the_indices_fall() {
    fn sub_on<E: Engine>(s: &str, script: &Script) -> Vec<u8> {
        let mut engine = E::new();
        engine.set_global("s", Value::str(s));
        engine.load(script).unwrap();
        engine.global("x").as_bytes().unwrap().to_vec()
    }
    let sub = |s: &str, args: &str| {
        let script = Script::compile(&format!("x = sub(s, {args})")).unwrap();
        let (tree, vm) = (sub_on::<Interp>(s, &script), sub_on::<Vm>(s, &script));
        assert_eq!(tree, vm, "engines disagree on sub({s:?}, {args})");
        vm
    };
    assert_eq!(sub("é", "2"), b"\xa9");
    assert_eq!(sub("éé", "1, 3"), b"\xc3\xa9\xc3");
    assert_eq!(sub("aé", "-1"), b"\xa9");
    assert_eq!(sub("éé", "1, 2"), "é".as_bytes());
    assert_eq!(sub("éé", "3"), "é".as_bytes());
    assert_eq!(sub("éé", "5"), b"");
    assert_eq!(sub("éé", "2, -9"), b"");
}

/// Strings are byte strings on both engines: `#` counts bytes, `..`,
/// `find`, `split`, `sub` and comparison work on bytes that are not UTF-8,
/// a string survives `tostring` and being a table key, and only `tonumber`,
/// `print` and error text read it as text.
#[test]
fn byte_strings_behave_alike_on_both_engines() {
    for (src, want) in [
        ("x = #\"h\u{e9}llo\"", Ok("6")),
        ("x = #\"\\xff\\x00\\xc3\"", Ok("3")),
        ("x = #(\"\\xff\" .. \"\\xc3\" .. 1)", Ok("3")),
        ("x = find(\"a\\xff|b\", \"|\")", Ok("3")),
        ("x = find(\"a\\xc3\\xa9\", \"\\xa9\")", Ok("3")),
        ("x = find(\"abc\", \"\")", Ok("1")),
        ("x = find(\"abc\", \"cd\")", Ok("nil")),
        ("x = #split(\"\\xff,\\xfe,,\", \",\")", Ok("4")),
        ("x = #split(\"\\xff,\\xfe\", \",\")[2]", Ok("1")),
        ("x = split(\"a::b\", \"::\")[2]", Ok("b")),
        ("x = #split(\"abc\", \"\")", Ok("1")),
        ("x = \"\\xff\" == sub(\"a\\xffb\", 2, 2)", Ok("true")),
        ("x = \"\\xfe\" < \"\\xff\"", Ok("true")),
        ("x = #tostring(\"\\xff\\xfe\")", Ok("2")),
        ("t = {} t[\"\\xff\"] = 7 x = t[\"\\xff\"]", Ok("7")),
        (
            "t = {} t[\"\\xff\"] = 7 for k, v in t do x = #k end",
            Ok("1"),
        ),
        ("x = #keys({k = 1})[1]", Ok("1")),
        ("x = tonumber(\" 42 \")", Ok("42")),
        ("x = tonumber(\"4\\xff\")", Ok("nil")),
        ("x = #zpad(7, 3)", Ok("3")),
        ("error(\"EINVAL: \\xff\")", Err("EINVAL: \u{fffd}")),
    ] {
        let want = want.map(str::to_string).map_err(str::to_string);
        assert_eq!(eval_both(src), want, "`{src}`");
    }
}

/// `zpad(n, 20)` builds the storage class's entry keys. It replaced a
/// scripted `pad` — kept here as the oracle — and every key must stay the
/// byte string that one built, or stored objects stop being found: small
/// and large integers, `fmt`'s float forms from 1e15 up, numbers wider
/// than the field, negatives and fractions.
#[test]
fn zpad_builds_the_keys_the_scripted_pad_built() {
    const SCRIPTED_PAD: &str = "
        function pad(pos)
            local s = fmt(pos)
            if #s < 20 then
                s = sub(\"00000000000000000000\" .. s, -20)
            end
            return \"e\" .. s
        end
    ";
    for (n, want) in [
        ("0", "e00000000000000000000"),
        ("1", "e00000000000000000001"),
        ("10", "e00000000000000000010"),
        ("100000000000000", "e00000100000000000000"),
        ("1000000000000000", "e00001000000000000000"),
        ("1e15", "e00001000000000000000"),
        ("12345678901234567890", "e12345678901234567000"),
        ("1e30", "e1000000000000000000000000000000"),
        ("(0 - 5)", "e000000000000000000-5"),
        ("2.5", "e000000000000000002.5"),
        ("(1 / 0)", "e00000000000000000inf"),
    ] {
        let old = eval_both(&format!("{SCRIPTED_PAD} x = pad({n})"));
        let new = eval_both(&format!("x = \"e\" .. zpad({n}, 20)"));
        assert_eq!(new, old, "zpad({n}, 20)");
        assert_eq!(new, Ok(want.to_string()), "zpad({n}, 20)");
    }
    for (src, want) in [
        ("x = zpad(7, 0)", Ok("7")),
        ("x = zpad(7, 1)", Ok("7")),
        ("x = zpad(7, 3)", Ok("007")),
        ("x = zpad(7, 3.9)", Ok("007")),
        ("x = #zpad(7, 64)", Ok("64")),
        (
            "x = zpad(7, 65)",
            Err("zpad: width must be between 0 and 64"),
        ),
        (
            "x = zpad(7, 0 - 1)",
            Err("zpad: width must be between 0 and 64"),
        ),
        (
            "x = zpad(7, 0 / 0)",
            Err("zpad: width must be between 0 and 64"),
        ),
        ("x = zpad(7)", Err("zpad: argument 2 must be a number")),
        (
            "x = zpad(\"7\", 3)",
            Err("zpad: argument 1 must be a number"),
        ),
    ] {
        let want = want.map(str::to_string).map_err(str::to_string);
        assert_eq!(eval_both(src), want, "`{src}`");
    }
}

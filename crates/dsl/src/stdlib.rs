//! Standard library installed into every Cephalo interpreter.
//!
//! A deliberately small, deterministic surface: no OS access, no wall-clock
//! time, no ambient randomness. Anything a policy script needs from its
//! daemon arrives through embedding-specific natives instead.

use std::rc::Rc;

use crate::runtime::{join, with_scratch, Engine, RtError};
use crate::value::{write_num, HostCtx, Key, Value};

/// The widest field `zpad` fills.
const MAX_PAD: usize = 64;

fn arg(args: &[Value], i: usize) -> &Value {
    args.get(i).unwrap_or(&Value::Nil)
}

fn bytes_arg<'a>(name: &str, args: &'a [Value], i: usize) -> Result<&'a [u8], RtError> {
    arg(args, i)
        .as_bytes()
        .ok_or_else(|| RtError::new(format!("{name}: argument {} must be a string", i + 1)))
}

fn table_arg<'a>(
    name: &str,
    args: &'a [Value],
) -> Result<&'a std::cell::RefCell<crate::value::Table>, RtError> {
    arg(args, 0)
        .as_table()
        .map(|t| &**t)
        .ok_or_else(|| RtError::new(format!("{name}: argument 1 must be a table")))
}

/// Where `needle` first occurs in `s`, as `str::find` answers for text.
fn find_bytes(s: &[u8], needle: &[u8]) -> Option<usize> {
    match needle {
        [] => Some(0),
        [b] => s.iter().position(|x| x == b),
        _ => s.windows(needle.len()).position(|w| w == needle),
    }
}

fn num_arg(name: &str, args: &[Value], i: usize) -> Result<f64, RtError> {
    arg(args, i)
        .as_num()
        .ok_or_else(|| RtError::new(format!("{name}: argument {} must be a number", i + 1)))
}

/// The number a string spells, as `tonumber` reads it. Up to 15 digits and
/// nothing else (a position, an epoch: what class methods parse per call) is
/// an integer a double holds exactly; [`parse_num_slow`] agrees on those.
fn parse_num(s: &[u8]) -> Option<f64> {
    if (1..=15).contains(&s.len()) && s.iter().all(u8::is_ascii_digit) {
        let n = s.iter().fold(0u64, |n, d| n * 10 + u64::from(d - b'0'));
        return Some(n as f64);
    }
    parse_num_slow(s)
}

fn parse_num_slow(s: &[u8]) -> Option<f64> {
    std::str::from_utf8(s).ok()?.trim().parse().ok()
}

/// `n` as `fmt` and `tostring` print it, staged so that the string is the
/// one allocation.
fn num_str(n: f64) -> Value {
    with_scratch(|buf| {
        write_num(buf, n);
        Value::str(&*buf)
    })
}

/// Installs the standard library into `interp` — the single definition
/// both engines install, so stdlib behavior cannot diverge between them.
pub fn install(interp: &mut impl Engine) {
    // print(...) — joins arguments with tabs into the output buffer.
    interp.register(
        "print",
        Rc::new(|ctx: &mut HostCtx<'_>, args: &[Value]| {
            let line = args
                .iter()
                .map(Value::display)
                .collect::<Vec<_>>()
                .join("\t");
            ctx.output.push(line);
            Ok(Value::Nil)
        }),
    );

    // tostring(v) — a string is itself, bytes and all.
    interp.register(
        "tostring",
        Rc::new(|_, args| {
            Ok(match arg(args, 0) {
                s @ Value::Str(_) => s.clone(),
                Value::Num(n) => num_str(*n),
                v => Value::str(v.display()),
            })
        }),
    );

    // tonumber(v) — nil on failure, like Lua. A number is written in text,
    // so bytes that are not text are not one.
    interp.register(
        "tonumber",
        Rc::new(|_, args| {
            Ok(match arg(args, 0) {
                Value::Num(n) => Value::Num(*n),
                Value::Str(s) => parse_num(s).map_or(Value::Nil, Value::Num),
                _ => Value::Nil,
            })
        }),
    );

    // type(v)
    interp.register(
        "type",
        Rc::new(|_, args| Ok(Value::str(arg(args, 0).type_name()))),
    );

    // error(msg) — raises a runtime error.
    interp.register(
        "error",
        Rc::new(|_, args| Err(RtError::new(arg(args, 0).display()))),
    );

    // assert(cond, [msg])
    interp.register(
        "assert",
        Rc::new(|_, args| {
            if arg(args, 0).truthy() {
                Ok(arg(args, 0).clone())
            } else {
                let msg = match arg(args, 1) {
                    Value::Nil => "assertion failed".to_string(),
                    v => v.display(),
                };
                Err(RtError::new(msg))
            }
        }),
    );

    // Math.
    macro_rules! unary_math {
        ($name:literal, $f:expr) => {
            interp.register(
                $name,
                Rc::new(|_, args| {
                    let x = num_arg($name, args, 0)?;
                    #[allow(clippy::redundant_closure_call)]
                    Ok(Value::Num(($f)(x)))
                }),
            );
        };
    }
    unary_math!("floor", |x: f64| x.floor());
    unary_math!("ceil", |x: f64| x.ceil());
    unary_math!("abs", |x: f64| x.abs());
    unary_math!("sqrt", |x: f64| x.sqrt());
    unary_math!("exp", |x: f64| x.exp());
    unary_math!("log", |x: f64| x.ln());

    interp.register(
        "min",
        Rc::new(|_, args| {
            let mut best = num_arg("min", args, 0)?;
            for (i, _) in args.iter().enumerate().skip(1) {
                best = best.min(num_arg("min", args, i)?);
            }
            Ok(Value::Num(best))
        }),
    );
    interp.register(
        "max",
        Rc::new(|_, args| {
            let mut best = num_arg("max", args, 0)?;
            for (i, _) in args.iter().enumerate().skip(1) {
                best = best.max(num_arg("max", args, i)?);
            }
            Ok(Value::Num(best))
        }),
    );

    // Tables.
    interp.register(
        "insert",
        Rc::new(|_, args| {
            table_arg("insert", args)?
                .borrow_mut()
                .push(arg(args, 1).clone());
            Ok(Value::Nil)
        }),
    );
    interp.register(
        "remove",
        Rc::new(|_, args| {
            let popped = table_arg("remove", args)?.borrow_mut().pop();
            Ok(popped.unwrap_or(Value::Nil))
        }),
    );
    interp.register(
        "keys",
        Rc::new(|_, args| {
            let mut out = crate::value::Table::new();
            for (k, _) in table_arg("keys", args)?.borrow().iter() {
                out.push(match k {
                    Key::Int(i) => Value::Num(i as f64),
                    Key::Str(s) => Value::Str(s),
                });
            }
            Ok(Value::from_table(out))
        }),
    );

    // Strings.
    interp.register(
        "sub",
        Rc::new(|_, args| {
            let s = bytes_arg("sub", args, 0)?;
            let len = s.len() as i64;
            let norm = |i: f64| -> i64 {
                let i = i as i64;
                if i < 0 {
                    (len + i + 1).max(1)
                } else {
                    i.max(1)
                }
            };
            let from = norm(num_arg("sub", args, 1)?);
            let to = match arg(args, 2) {
                Value::Nil => len,
                _ => {
                    let i = num_arg("sub", args, 2)? as i64;
                    if i < 0 {
                        len + i + 1
                    } else {
                        i.min(len)
                    }
                }
            };
            // Indices count bytes and cut wherever they fall; `from >= 1`
            // and `to <= len`, so an empty range is the only one refused.
            Ok(Value::str(
                s.get((from - 1) as usize..to.max(0) as usize)
                    .unwrap_or_default(),
            ))
        }),
    );
    // concat(list) — the array part joined with `..`'s coercions, in one
    // allocation (Lua's table.concat without a separator).
    interp.register(
        "concat",
        Rc::new(|_, args| join(table_arg("concat", args)?.borrow().array())),
    );
    interp.register(
        "find",
        Rc::new(|_, args| {
            let s = bytes_arg("find", args, 0)?;
            let needle = bytes_arg("find", args, 1)?;
            Ok(match find_bytes(s, needle) {
                Some(i) => Value::Num((i + 1) as f64), // 1-based, like Lua
                None => Value::Nil,
            })
        }),
    );
    interp.register(
        "split",
        Rc::new(|_, args| {
            let mut rest = bytes_arg("split", args, 0)?;
            let sep = bytes_arg("split", args, 1)?;
            let mut out = crate::value::Table::new();
            if sep.is_empty() {
                out.push(arg(args, 0).clone());
                return Ok(Value::from_table(out));
            }
            while let Some(at) = find_bytes(rest, sep) {
                out.push(Value::str(&rest[..at]));
                rest = &rest[at + sep.len()..];
            }
            out.push(Value::str(rest));
            Ok(Value::from_table(out))
        }),
    );
    interp.register(
        "format_num",
        Rc::new(|_, args| {
            let n = num_arg("format_num", args, 0)?;
            let digits = match arg(args, 1) {
                Value::Nil => 2.0,
                _ => num_arg("format_num", args, 1)?,
            };
            Ok(Value::str(format!("{:.*}", digits as usize, n)))
        }),
    );
    interp.register(
        "fmt",
        Rc::new(|_, args| Ok(num_str(num_arg("fmt", args, 0)?))),
    );
    // zpad(n, width) — `fmt(n)` left-padded with `0` to `width` bytes, left
    // whole when already that wide: fixed-width keys whose byte order is
    // numeric order, in one allocation.
    interp.register(
        "zpad",
        Rc::new(|_, args| {
            let n = num_arg("zpad", args, 0)?;
            let width = num_arg("zpad", args, 1)?;
            if !(0.0..=MAX_PAD as f64).contains(&width) {
                return Err(RtError::new(format!(
                    "zpad: width must be between 0 and {MAX_PAD}"
                )));
            }
            Ok(with_scratch(|buf| {
                write_num(buf, n);
                let len = buf.len();
                let missing = (width as usize).saturating_sub(len);
                buf.resize(len + missing, b'0');
                buf.copy_within(..len, missing);
                buf[..missing].fill(b'0');
                Value::str(buf)
            }))
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Interp, Script};

    fn run(src: &str) -> Interp {
        let script = Script::compile(src).unwrap();
        let mut interp = Interp::new();
        interp.load(&script).unwrap();
        interp
    }

    #[test]
    fn print_collects_output() {
        let mut interp = run("print(\"a\", 1, true)\nprint({1, k = 2})");
        assert_eq!(interp.take_output(), vec!["a\t1\ttrue", "{1, k = 2}"]);
        assert!(interp.take_output().is_empty());
    }

    #[test]
    fn tostring_tonumber_round_trip() {
        let interp = run("a = tostring(3.5)\nb = tonumber(\" 42 \")\nc = tonumber(\"nope\")");
        assert_eq!(interp.global("a"), Value::str("3.5"));
        assert_eq!(interp.global("b"), Value::from(42.0));
        assert_eq!(interp.global("c"), Value::Nil);
    }

    #[test]
    fn type_builtin() {
        let interp = run("a = type(nil)\nb = type(1)\nc = type({})\nd = type(print)");
        assert_eq!(interp.global("a"), Value::str("nil"));
        assert_eq!(interp.global("b"), Value::str("number"));
        assert_eq!(interp.global("c"), Value::str("table"));
        assert_eq!(interp.global("d"), Value::str("function"));
    }

    #[test]
    fn error_and_assert() {
        let script = Script::compile("error(\"boom\")").unwrap();
        let err = Interp::new().load(&script).unwrap_err();
        assert_eq!(err.message, "boom");

        let script = Script::compile("assert(false, \"nope\")").unwrap();
        let err = Interp::new().load(&script).unwrap_err();
        assert_eq!(err.message, "nope");

        run("assert(1 == 1)");
    }

    #[test]
    fn math_builtins() {
        let interp = run(
            "a = floor(2.7)\nb = ceil(2.1)\nc = abs(-3)\nd = sqrt(16)\ne = min(3, 1, 2)\nf = max(3, 1, 2)",
        );
        assert_eq!(interp.global("a"), Value::from(2.0));
        assert_eq!(interp.global("b"), Value::from(3.0));
        assert_eq!(interp.global("c"), Value::from(3.0));
        assert_eq!(interp.global("d"), Value::from(4.0));
        assert_eq!(interp.global("e"), Value::from(1.0));
        assert_eq!(interp.global("f"), Value::from(3.0));
    }

    #[test]
    fn table_insert_remove_keys() {
        let interp = run(
            "t = {}\ninsert(t, 5)\ninsert(t, 6)\nn = #t\nx = remove(t)\nm = #t\nt2 = {a = 1, b = 2}\nks = keys(t2)\nk1 = ks[1]",
        );
        assert_eq!(interp.global("n"), Value::from(2.0));
        assert_eq!(interp.global("x"), Value::from(6.0));
        assert_eq!(interp.global("m"), Value::from(1.0));
        assert_eq!(interp.global("k1"), Value::str("a"));
    }

    #[test]
    fn string_sub() {
        let interp = run(
            "a = sub(\"hello\", 2)\nb = sub(\"hello\", 2, 3)\nc = sub(\"hello\", -3)\nd = sub(\"hello\", 4, 2)",
        );
        assert_eq!(interp.global("a"), Value::str("ello"));
        assert_eq!(interp.global("b"), Value::str("el"));
        assert_eq!(interp.global("c"), Value::str("llo"));
        assert_eq!(interp.global("d"), Value::str(""));
    }

    #[test]
    fn format_helpers() {
        let interp =
            run("a = format_num(3.14159, 2)\nb = fmt(4)\nc = zpad(42, 5)\nd = zpad(123456, 5)");
        assert_eq!(interp.global("a"), Value::str("3.14"));
        assert_eq!(interp.global("b"), Value::str("4"));
        assert_eq!(interp.global("c"), Value::str("00042"));
        assert_eq!(interp.global("d"), Value::str("123456"));
    }

    #[test]
    fn zpad_pads_on_the_left_whatever_the_widths() {
        let interp = run(
            "a = zpad(7, 1)\nb = zpad(7, 2)\nc = zpad(123, 4)\nd = zpad(123, 9)\ne = zpad(-5, 4)\nf = zpad(0, 0)\ng = zpad(1.5, 6)",
        );
        for (name, want) in [
            ("a", "7"),
            ("b", "07"),
            ("c", "0123"),
            ("d", "000000123"),
            ("e", "00-5"),
            ("f", "0"),
            ("g", "0001.5"),
        ] {
            assert_eq!(interp.global(name), Value::str(want), "{name}");
        }
        let wide = format!("w = zpad(1, {MAX_PAD})");
        assert_eq!(
            run(&wide).global("w"),
            Value::str(format!("{:0>1$}", 1, MAX_PAD))
        );
    }

    proptest::proptest! {
        /// The integer fast path of `tonumber` answers what the general
        /// parse does, on digit strings either side of its length limit
        /// and on text that only looks like one.
        #[test]
        fn tonumber_fast_path_agrees_with_the_parse(
            digits in "[0-9]{0,20}",
            noisy in "[ 0-9.eE+-]{0,12}",
        ) {
            for s in [digits, noisy] {
                let (fast, slow) = (parse_num(s.as_bytes()), parse_num_slow(s.as_bytes()));
                proptest::prop_assert_eq!(fast.map(f64::to_bits), slow.map(f64::to_bits), "{:?}", s);
            }
        }
    }

    #[test]
    fn find_and_split() {
        let interp = run(
            "a = find(\"hello\", \"ll\")\nb = find(\"hello\", \"zz\")\nt = split(\"1:22:333\", \":\")\nn = #t\nx = t[2]\ne = split(\"abc\", \"\")",
        );
        assert_eq!(interp.global("a"), Value::from(3.0));
        assert_eq!(interp.global("b"), Value::Nil);
        assert_eq!(interp.global("n"), Value::from(3.0));
        assert_eq!(interp.global("x"), Value::str("22"));
    }

    #[test]
    fn wrong_arg_types_error() {
        for src in ["floor(\"x\")", "insert(1, 2)", "sub(1, 2)"] {
            let script = Script::compile(src).unwrap();
            assert!(Interp::new().load(&script).is_err(), "{src}");
        }
    }
}

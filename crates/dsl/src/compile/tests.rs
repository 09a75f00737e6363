use super::*;
use crate::value::Str;

fn chunk(src: &str) -> Chunk {
    compile(&Script::compile(src).unwrap()).unwrap()
}

fn r(slot: u16) -> Rk {
    Rk(slot)
}

fn k(idx: u16) -> Rk {
    Rk(idx | Rk::CONST)
}

#[test]
fn top_level_local_compiles_to_global_store() {
    let c = chunk("local x = 1");
    let store = Op::StoreGlobal { name: 0, src: k(0) };
    assert_eq!(c.main.code[0], store);
    assert_eq!(c.main.n_slots, 0);
}

#[test]
fn block_local_gets_a_slot() {
    let c = chunk("if true then local x = 1 x = x + 1 end");
    // A constant condition needs no test, a local or a literal operand
    // no load, and the sum is written where `x` lives.
    let body = [
        Op::Move { dst: 0, src: k(0) },
        Op::Add {
            dst: 0,
            a: r(0),
            b: k(0),
        },
    ];
    assert_eq!(c.main.code[..2], body);
    // `x`, and the temporary the sum was compiled towards.
    assert_eq!(c.main.n_slots, 2);
}

#[test]
fn assignment_reads_the_old_value_of_its_target() {
    // Forms that write their destination early go through a temporary.
    for src in ["x = {x, x}", "x = x and y", "x = f(x)"] {
        let c = chunk(&format!("function g(x, y) {src} return x end"));
        let g = &c.main.protos[0];
        assert!(
            g.code.contains(&Op::Move { dst: 0, src: r(2) }),
            "{src}: {:?}",
            g.code
        );
    }
}

#[test]
fn captured_local_gets_a_box() {
    let c = chunk(
        "function mk()
            local n = 0
            return function() n = n + 1 return n end
        end",
    );
    let mk = &c.main.protos[0];
    assert_eq!(mk.n_boxes, 1);
    assert_eq!(mk.code[0], Op::NewBox { b: 0, src: k(0) });
    let inner = &mk.protos[0];
    assert_eq!(inner.upvals, vec![UpvalDesc::ParentBox(0)]);
}

#[test]
fn const_field_access_uses_key_pool() {
    let c = chunk("x = t.load + t[2]");
    assert!(c.main.code.contains(&Op::GetConst {
        dst: 0,
        base: r(0),
        key: 0
    }));
    assert_eq!(c.main.keys[0], Key::Str(Str::new(b"load")));
    assert_eq!(c.main.keys[1], Key::Int(2));
}

#[test]
fn non_integer_const_key_stays_dynamic() {
    let c = chunk("x = t[1.5]");
    assert!(c.main.code.contains(&Op::GetIndex {
        dst: 0,
        base: r(0),
        idx: k(0)
    }));
    assert!(c.main.keys.is_empty());
}

#[test]
fn jumps_are_patched_forward() {
    let c = chunk("if a then b = 1 else b = 2 end");
    let mut jumps = 0;
    for op in &c.main.code {
        if let Op::Jump(t) | Op::JumpIf { to: t, .. } = op {
            assert!((*t as usize) <= c.main.code.len());
            assert!(*t > 0, "patched jump must not target 0 here");
            jumps += 1;
        }
    }
    assert_eq!(jumps, 2);
}

#[test]
fn a_condition_is_one_compare_and_branch() {
    let c = chunk("function f(pos, lo) if pos > lo and pos ~= nil then return 1 end end");
    let f = &c.main.protos[0];
    let branches = [
        Op::JumpLe {
            a: r(0),
            b: r(1),
            want: true,
            to: 3,
        },
        Op::JumpEq {
            a: r(0),
            b: k(0),
            want: true,
            to: 3,
        },
    ];
    assert_eq!(f.code[..2], branches);
    assert_eq!(f.n_slots, 2);
}

#[test]
fn slot_reuse_across_sibling_scopes() {
    let c = chunk(
        "if a then local x = 1 print(x) end
         if b then local y = 2 print(y) end",
    );
    // The local, then the call window: callee and one argument.
    assert_eq!(c.main.n_slots, 3);
}

#[test]
fn a_call_window_is_the_top_of_the_frame() {
    let c = chunk("function f(a) local v = g(h(a), 2) return v end");
    let f = &c.main.protos[0];
    // `v` is slot 1 and the outer window starts there; the inner call's
    // window starts in the outer one's first argument slot.
    assert!(f.code.contains(&Op::Call { at: 2, argc: 1 }));
    assert!(f.code.contains(&Op::Call { at: 1, argc: 2 }));
    assert_eq!(f.code[f.code.len() - 2], Op::Ret { src: r(1) });
    assert_eq!(f.n_slots, 4);
}

#[test]
fn left_chains_reuse_one_temporary() {
    let c = chunk(&format!("function f(a) return a{} end", " + a".repeat(300)));
    assert_eq!(c.main.protos[0].n_slots, 2);
}

#[test]
fn an_instruction_is_eight_bytes() {
    assert_eq!(std::mem::size_of::<Op>(), 8);
}

#[test]
fn slot_overflow_is_an_error_naming_the_limit() {
    let args = vec!["1"; 70_000].join(", ");
    let script = Script::compile(&format!("f({args})")).unwrap();
    let err = compile(&script).unwrap_err();
    assert!(err.message.contains("slots"), "{err}");
    assert!(err.message.contains("32768"), "{err}");
}

#[test]
fn disassembly_names_operands() {
    let c = chunk("function f(a) return a + 1 end\nx = f(2)");
    let d = c.disassemble();
    assert!(d.contains("== main ()"), "{d}");
    assert!(d.contains("== main/f (a)"), "{d}");
    assert!(d.contains("; f"), "{d}");
    assert!(d.contains("Add { dst: 1, a: r0, b: k0 } ; 1"), "{d}");
}

#[test]
fn concat_chain_is_one_op() {
    let concats = |src: &str| -> Vec<u16> {
        let code = chunk(src).main.code.clone();
        let ops = code.iter().filter_map(|op| match op {
            Op::Concat { n, .. } => Some(*n),
            _ => None,
        });
        ops.collect()
    };
    assert_eq!(concats("x = a .. 1 .. b .. \"s\" .. c"), [5]);
    assert_eq!(concats("x = a .. (b .. c)"), [3]);
    // A chain on the left is an operand, joined before the outer one.
    assert_eq!(concats("x = (a .. b) .. c"), [2, 2]);
}

#[test]
fn break_outside_loop_returns_nil() {
    let c = chunk("break");
    assert_eq!(c.main.code[0], Op::Ret { src: k(0) });
    assert_eq!(c.main.consts[0], Value::Nil);
}

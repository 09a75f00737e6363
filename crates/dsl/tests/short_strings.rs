//! A string a script computes is held in place when it is at most
//! `INLINE_LEN` (22) bytes long; a literal and a host buffer are shared by
//! refcount. Nothing a script or a host can observe tells the two forms
//! apart: equality, order, hashing and the bytes are the same, at and
//! around the boundary, on both engines.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

use mala_dsl::value::{Key, INLINE_LEN};
use mala_dsl::{Engine, Interp, Script, Str, Value, Vm};
use mala_sim::idmap::IdHasher;
use proptest::prelude::*;

fn hash_with<H: Hasher + Default>(v: &impl Hash) -> u64 {
    let mut h = H::default();
    v.hash(&mut h);
    h.finish()
}

/// Byte strings of 0 to 40 bytes, half of them 21 to 23 bytes long.
fn arb_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![0usize..41, 21usize..24]
        .prop_flat_map(|len| prop::collection::vec(any::<u8>(), len))
}

proptest! {
    #[test]
    fn both_forms_of_a_string_are_its_bytes(a in arb_bytes(), b in arb_bytes()) {
        let (inline_a, heap_a) = (Str::new(&a), Str::Heap(Rc::from(&a[..])));
        let (inline_b, heap_b) = (Str::new(&b), Str::Heap(Rc::from(&b[..])));
        prop_assert_eq!(matches!(inline_a, Str::Inline(_)), a.len() <= INLINE_LEN);
        prop_assert_eq!(&*inline_a, &a[..]);
        prop_assert_eq!(&*heap_a, &a[..]);
        prop_assert!(inline_a == heap_a);
        prop_assert_eq!(inline_a == heap_b, a == b);
        prop_assert_eq!(heap_a == inline_b, a == b);
        prop_assert_eq!(inline_a.cmp(&heap_b), a.cmp(&b));
        prop_assert_eq!(heap_a.cmp(&inline_b), a.cmp(&b));
        prop_assert_eq!(inline_a.cmp(&inline_b), a.cmp(&b));
        let bytes: &[u8] = &a;
        let sip = hash_with::<DefaultHasher>(&bytes);
        prop_assert_eq!(hash_with::<DefaultHasher>(&inline_a), sip);
        prop_assert_eq!(hash_with::<DefaultHasher>(&heap_a), sip);
        let id = hash_with::<IdHasher>(&bytes);
        prop_assert_eq!(hash_with::<IdHasher>(&inline_a), id);
        prop_assert_eq!(hash_with::<IdHasher>(&heap_a), id);
        let (key_inline, key_heap) = (Key::Str(inline_a.clone()), Key::Str(heap_a.clone()));
        prop_assert!(key_inline == key_heap);
        prop_assert_eq!(hash_with::<IdHasher>(&key_inline), hash_with::<IdHasher>(&key_heap));
        prop_assert!(Value::Str(inline_a) == Value::Str(heap_a));
    }
}

/// A table written under a computed key (in place) is read back under the
/// literal spelling the same bytes (shared), and the other way round; at
/// 22 bytes the computed key is still in place, at 23 it is shared.
fn computed_and_literal_keys_are_one_key<E: Engine>() {
    let script = Script::compile(
        r#"
        t = {}
        t["e" .. zpad(5, 20)] = "computed"
        by_literal = t["e00000000000000000005"]
        t["e00000000000000000006"] = "literal"
        by_computed = t["e" .. zpad(6, 20)]
        computed = "e" .. zpad(5, 20)
        literal = "e00000000000000000005"
        same = computed == literal
        before = computed < "e00000000000000000006"
        t["ab" .. zpad(7, 20)] = 22
        at22 = t["ab00000000000000000007"]
        wide22 = "ab" .. zpad(7, 20)
        t["abc" .. zpad(8, 20)] = 23
        at23 = t["abc00000000000000000008"]
        wide23 = "abc" .. zpad(8, 20)
        n = 0
        for k, v in t do n = n + 1 end
        "#,
    )
    .unwrap();
    let mut engine = E::new();
    engine.load(&script).unwrap();
    let kind = std::any::type_name::<E>();
    assert_eq!(
        engine.global("by_literal"),
        Value::str("computed"),
        "{kind}"
    );
    assert_eq!(
        engine.global("by_computed"),
        Value::str("literal"),
        "{kind}"
    );
    assert_eq!(engine.global("same"), Value::Bool(true), "{kind}");
    assert_eq!(engine.global("before"), Value::Bool(true), "{kind}");
    assert_eq!(engine.global("at22"), Value::Num(22.0), "{kind}");
    assert_eq!(engine.global("at23"), Value::Num(23.0), "{kind}");
    assert_eq!(
        engine.global("n"),
        Value::Num(4.0),
        "{kind}: one key per spelling"
    );
    for (name, inline) in [
        ("computed", true),
        ("wide22", true),
        ("wide23", false),
        ("literal", false),
    ] {
        let Value::Str(s) = engine.global(name) else {
            panic!("{kind}: {name} is not a string")
        };
        assert_eq!(matches!(s, Str::Inline(_)), inline, "{kind}: {name}");
    }
}

#[test]
fn computed_and_literal_keys_are_one_key_on_both_engines() {
    computed_and_literal_keys_are_one_key::<Interp>();
    computed_and_literal_keys_are_one_key::<Vm>();
}

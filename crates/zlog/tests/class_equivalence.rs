//! The scripted storage class against its previous source.
//!
//! `ZLOG_CLASS_SOURCE` was rewritten for cost (constant-op `pad`, a
//! list-and-`concat` `read_batch`); what it stores and answers must not
//! have moved by a byte. The previous source is frozen in
//! `fixtures/zlog_class_parent.cephalo` and both run the same random call
//! sequences, on both engines: every reply, every error (code and
//! message) and the object left behind must be identical.

use mala_dsl::EngineKind;
use mala_rados::{ClassRegistry, Object, OsdError};
use mala_zlog::{
    encode_checkpoint, encode_read_batch, encode_write_batch, ZLOG_CLASS, ZLOG_CLASS_SOURCE,
};
use proptest::prelude::*;

const PARENT_SOURCE: &str = include_str!("fixtures/zlog_class_parent.cephalo");

/// Positions as the wire carries them: a dense low range so calls collide
/// on cells (all four states D/F/T/U turn up under `read_batch`), plus
/// values that stress key padding — 20 digits, wider than the pad, a
/// fraction, a negative, an exponent.
fn position() -> impl Strategy<Value = String> {
    prop_oneof![
        12 => (0u64..24).prop_map(|p| p.to_string()),
        1 => Just("12345678901234567890".to_string()),
        1 => Just("123456789012345678901234".to_string()),
        1 => Just("1e30".to_string()),
        1 => Just("2.5".to_string()),
        1 => Just("-3".to_string()),
    ]
}

fn payload() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        Just("x".to_string()),
        Just("a|b|c".to_string()),
        Just("1|2|".to_string()),
        Just("héé|wörld".to_string()),
        "[a-z0-9|,]{0,40}",
    ]
}

fn epoch() -> impl Strategy<Value = u64> {
    0u64..4
}

/// One class call: `(method, input)`.
fn call() -> BoxedStrategy<(&'static str, String)> {
    let at = |method: &'static str| {
        (epoch(), position())
            .prop_map(move |(e, p)| (method, format!("{e}|{p}")))
            .boxed()
    };
    let write =
        (epoch(), position(), payload()).prop_map(|(e, p, d)| ("write", format!("{e}|{p}|{d}")));
    let write_batch =
        (epoch(), prop::collection::vec((0u64..24, payload()), 1..5)).prop_map(|(e, entries)| {
            let entries: Vec<(u64, &[u8])> =
                entries.iter().map(|(p, d)| (*p, d.as_bytes())).collect();
            let input = encode_write_batch(e, &entries);
            ("write_batch", String::from_utf8(input).unwrap())
        });
    let read_batch = (epoch(), prop::collection::vec(0u64..24, 1..9)).prop_map(|(e, ps)| {
        let input = encode_read_batch(e, &ps);
        ("read_batch", String::from_utf8(input).unwrap())
    });
    let read_batch_wide = (epoch(), prop::collection::vec(position(), 1..4))
        .prop_map(|(e, ps)| ("read_batch", format!("{e}|{}", ps.join(","))));
    let checkpoint = (epoch(), 0u64..40, payload()).prop_map(|(e, p, blob)| {
        let input = encode_checkpoint(e, p, blob.as_bytes());
        ("checkpoint", String::from_utf8(input).unwrap())
    });
    let bad = (
        prop_oneof![
            Just("write"),
            Just("write_batch"),
            Just("read"),
            Just("read_batch"),
            Just("fill"),
            Just("trim"),
            Just("trim_upto"),
            Just("seal"),
            Just("checkpoint"),
        ],
        prop_oneof![
            Just(String::new()),
            Just("0".to_string()),
            Just("x|1".to_string()),
            Just("0|".to_string()),
            Just("0|x".to_string()),
            Just("0|1,,2".to_string()),
            Just("0|2|".to_string()),
            Just("0|1|5|10|short".to_string()),
            // A length that ends inside a character.
            Just("0|1|5|3|éé".to_string()),
            Just("0|1|9|short".to_string()),
            "[0-9|,x]{0,12}",
        ],
    );
    prop_oneof![
        4 => write.boxed(),
        4 => write_batch.boxed(),
        3 => at("read"),
        5 => read_batch.boxed(),
        1 => read_batch_wide.boxed(),
        2 => at("fill"),
        2 => at("trim"),
        1 => at("trim_upto"),
        1 => (1u64..5).prop_map(|e| ("seal", e.to_string())).boxed(),
        1 => Just(("maxpos", String::new())).boxed(),
        1 => checkpoint.boxed(),
        1 => Just(("checkpoint_read", String::new())).boxed(),
        3 => bad.boxed(),
    ]
    .boxed()
}

fn registry(kind: EngineKind, source: &str) -> ClassRegistry {
    let mut reg = ClassRegistry::with_engine(kind);
    reg.install_scripted(ZLOG_CLASS, source, 1).unwrap();
    reg
}

/// The reply bytes, or the class error's code and message.
type Reply = Result<Vec<u8>, (i32, String)>;

fn invoke(reg: &ClassRegistry, slot: &mut Option<Object>, method: &str, input: &str) -> Reply {
    match reg.call(ZLOG_CLASS, method, slot, input.as_bytes()) {
        Ok(out) => Ok(out),
        Err(OsdError::Class(e)) => Err((e.code, e.message)),
        Err(other) => panic!("{method}({input:?}): unexpected error {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn rewritten_class_answers_and_stores_what_the_parent_did(
        calls in prop::collection::vec(call(), 1..48),
    ) {
        for kind in [EngineKind::TreeWalk, EngineKind::Bytecode] {
            let parent = registry(kind, PARENT_SOURCE);
            let current = registry(kind, ZLOG_CLASS_SOURCE);
            let (mut was, mut is) = (None, None);
            for (method, input) in &calls {
                let want = invoke(&parent, &mut was, method, input);
                let got = invoke(&current, &mut is, method, input);
                prop_assert_eq!(&got, &want, "{:?} {}({:?})", kind, method, input);
                prop_assert_eq!(&is, &was, "{:?} object after {}({:?})", kind, method, input);
            }
        }
    }
}

/// The sequences above must actually reach every cell state through
/// `read_batch`; this pins one that does, so a generator change cannot
/// quietly stop covering them.
#[test]
fn read_batch_over_all_four_cell_states_is_unchanged() {
    for kind in [EngineKind::TreeWalk, EngineKind::Bytecode] {
        let (parent, current) = (
            registry(kind, PARENT_SOURCE),
            registry(kind, ZLOG_CLASS_SOURCE),
        );
        let (mut was, mut is) = (None, None);
        for (method, input) in [
            ("write", "0|2|early"),
            ("write", "0|8|live|data"),
            ("fill", "0|12"),
            ("trim", "0|16"),
            ("trim_upto", "0|4"),
            ("read_batch", "0|2,8,12,16,20,8"),
        ] {
            let want = invoke(&parent, &mut was, method, input);
            assert_eq!(invoke(&current, &mut is, method, input), want);
        }
        let reply = invoke(&current, &mut is, "read_batch", "0|2,8,12,16,20,8").unwrap();
        assert_eq!(
            String::from_utf8(reply).unwrap(),
            "6|2|T|0|8|D|9|live|data12|F|0|16|T|0|20|U|0|8|D|9|live|data"
        );
        assert_eq!(is, was);
    }
}

//! The transaction tracker against a reference model, and the journal's
//! delta records against the live store.
//!
//! The reference is the implementation the tracker replaced: copy the
//! whole object before the transaction, apply each op straight to the
//! object, and put the copy back if one fails.

use mala_rados::{
    ClassRegistry, Journal, JournalRecord, ObjTxn, Object, ObjectId, Op, OpResult, OsdError,
    Transaction,
};
use mala_sim::IdMap;
use proptest::prelude::*;

/// A scripted class whose methods write every part of the object, fail
/// after writing, purge key ranges, and (`sneak`) write from a method
/// declared read-only.
const PROBE_CLS: &str = r#"
    __readonly = {"peek", "sneak"}

    function put(input)
        omap_set("s." .. input, input)
        xattr_set("last", input)
        data_append(input)
        return fmt(omap_len())
    end

    function boom(input)
        omap_set("s." .. input, "doomed")
        omap_del("a")
        xattr_set("last", "doomed")
        data_write(2, input)
        error("EINVAL: boom")
    end

    function purge(input)
        local n = omap_del_range("a", "c")
        omap_del("s." .. input)
        return fmt(n)
    end

    function peek(input)
        local v = omap_get("a")
        if v == nil then return "-" end
        return v
    end

    function sneak(input)
        omap_set("a", "sneaked")
        return "ok"
    end
"#;

fn registry() -> ClassRegistry {
    let mut reg = ClassRegistry::with_builtins();
    reg.install_scripted("probe", PROBE_CLS, 1).unwrap();
    reg
}

/// The replaced implementation of one op, straight on the object.
fn reference_op(
    slot: &mut Option<Object>,
    op: &Op,
    reg: &ClassRegistry,
) -> Result<OpResult, OsdError> {
    Ok(match op {
        Op::Create { exclusive } => {
            if slot.is_some() && *exclusive {
                return Err(OsdError::Exists);
            }
            slot.get_or_insert_with(Object::new);
            OpResult::Done
        }
        Op::Remove => {
            slot.take().ok_or(OsdError::NoEnt)?;
            OpResult::Done
        }
        Op::Stat => OpResult::Stat {
            size: slot.as_ref().map_or(0, |o| o.size() as u64),
            exists: slot.is_some(),
        },
        Op::Write { offset, data } => {
            slot.get_or_insert_with(Object::new).write(*offset, data);
            OpResult::Done
        }
        Op::WriteFull { data } => {
            slot.get_or_insert_with(Object::new).data = data.clone();
            OpResult::Done
        }
        Op::Append { data } => {
            slot.get_or_insert_with(Object::new).append(data);
            OpResult::Done
        }
        Op::Truncate { size } => {
            slot.get_or_insert_with(Object::new).truncate(*size);
            OpResult::Done
        }
        Op::Read { offset, len } => {
            let o = slot.as_ref().ok_or(OsdError::NoEnt)?;
            OpResult::Data(o.read(*offset, *len).to_vec())
        }
        Op::OmapGet { key } => {
            let o = slot.as_ref().ok_or(OsdError::NoEnt)?;
            OpResult::Maybe(o.omap.get(key.as_str()).cloned())
        }
        Op::OmapList { after, max } => {
            let o = slot.as_ref().ok_or(OsdError::NoEnt)?;
            OpResult::Pairs(
                o.omap
                    .iter()
                    .filter(|(k, _)| ***k > **after)
                    .take(*max)
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect(),
            )
        }
        Op::OmapSet { key, value } => {
            let o = slot.get_or_insert_with(Object::new);
            o.omap.insert(key.as_str().into(), value.as_slice().into());
            OpResult::Done
        }
        Op::OmapDel { key } => {
            slot.get_or_insert_with(Object::new)
                .omap
                .remove(key.as_str());
            OpResult::Done
        }
        Op::OmapCmpXchg { key, expect, value } => {
            let o = slot.get_or_insert_with(Object::new);
            if o.omap.get(key.as_str()).map(|held| &**held) != expect.as_deref() {
                return Err(OsdError::CmpFailed);
            }
            o.omap.insert(key.as_str().into(), value.as_slice().into());
            OpResult::Done
        }
        Op::XattrGet { key } => {
            let o = slot.as_ref().ok_or(OsdError::NoEnt)?;
            OpResult::Maybe(o.xattrs.get(key.as_str()).cloned())
        }
        Op::XattrSet { key, value } => {
            let o = slot.get_or_insert_with(Object::new);
            o.xattrs
                .insert(key.as_str().into(), value.as_slice().into());
            OpResult::Done
        }
        Op::Call {
            class,
            method,
            input,
        } => OpResult::CallOut(reg.call(class, method, slot, input)?.into()),
    })
}

/// Clone, apply, restore on error.
fn reference_txn(
    slot: &mut Option<Object>,
    txn: &Transaction,
    reg: &ClassRegistry,
) -> Result<Vec<OpResult>, OsdError> {
    let before = slot.clone();
    let result: Result<Vec<OpResult>, OsdError> =
        txn.iter().map(|op| reference_op(slot, op, reg)).collect();
    if result.is_err() {
        *slot = before;
    }
    result
}

fn key() -> impl Strategy<Value = String> {
    prop_oneof![Just("a"), Just("b"), Just("c"), Just("s.x")].prop_map(str::to_string)
}

fn bytes() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(b'a'..=b'z', 0..12)
}

fn call(class: &'static str, method: &'static str) -> impl Strategy<Value = Op> {
    prop_oneof![Just("x"), Just("y"), Just("owner-1")].prop_map(move |input| Op::Call {
        class: class.into(),
        method: method.into(),
        input: input.as_bytes().into(),
    })
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => any::<bool>().prop_map(|exclusive| Op::Create { exclusive }),
        2 => Just(Op::Remove),
        1 => Just(Op::Stat),
        3 => (0usize..40, bytes()).prop_map(|(offset, data)| Op::Write { offset, data }),
        2 => bytes().prop_map(|data| Op::WriteFull { data }),
        3 => bytes().prop_map(|data| Op::Append { data }),
        2 => (0usize..40).prop_map(|size| Op::Truncate { size }),
        1 => (0usize..40, 0usize..40).prop_map(|(offset, len)| Op::Read { offset, len }),
        1 => key().prop_map(|key| Op::OmapGet { key }),
        1 => (key(), 0usize..4).prop_map(|(after, max)| Op::OmapList { after, max }),
        4 => (key(), bytes()).prop_map(|(key, value)| Op::OmapSet { key, value }),
        2 => key().prop_map(|key| Op::OmapDel { key }),
        3 => (key(), prop::option::of(bytes()), bytes())
            .prop_map(|(key, expect, value)| Op::OmapCmpXchg { key, expect, value }),
        1 => key().prop_map(|key| Op::XattrGet { key }),
        3 => (key(), bytes()).prop_map(|(key, value)| Op::XattrSet { key, value }),
        3 => call("probe", "put"),
        2 => call("probe", "boom"),
        2 => call("probe", "purge"),
        1 => call("probe", "peek"),
        1 => call("probe", "sneak"),
        1 => call("probe", "nope"),
        2 => call("lock", "lock"),
        1 => call("lock", "unlock"),
        2 => call("refcount", "get"),
        2 => call("refcount", "put"),
        1 => call("version", "set"),
        2 => call("cls_log", "add"),
        1 => call("checksum", "compute"),
    ]
}

fn txns(count: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Transaction>> {
    prop::collection::vec(prop::collection::vec(op(), 1..6), count)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every transaction of a random sequence leaves the same results and
    /// the same object (or absence of one) as clone-and-restore, whether it
    /// commits or fails mid-way; and its journal record, applied to the
    /// state before it, gives the state after it.
    #[test]
    fn tracker_matches_clone_and_restore(sequence in txns(40..60)) {
        let reg = registry();
        let oid = ObjectId::new("p", "o");
        let mut model: Option<Object> = None;
        let mut live: Option<Object> = None;
        let (mut committed, mut failed) = (0, 0);
        for txn in &sequence {
            let journal = Journal::new();
            if let Some(before) = &live {
                journal.append(JournalRecord::PutObject(oid.clone(), before.clone()));
            }
            let expected = reference_txn(&mut model, txn, &reg);
            let mut tracked = ObjTxn::begin(live.take());
            let got = tracked.run(txn, &reg);
            if let Some(record) = tracked.journal_record(&oid) {
                journal.append(record);
            }
            live = tracked.finish();
            prop_assert_eq!(&got, &expected, "results of {:?}", txn);
            prop_assert_eq!(&live, &model, "object after {:?}", txn);
            prop_assert_eq!(journal.replay().store.get(&oid), live.as_ref(), "journal after {:?}", txn);
            if got.is_ok() { committed += 1 } else { failed += 1 }
        }
        // The property means little unless both outcomes occur.
        prop_assert!(committed > 0 && failed > 0, "{} committed, {} failed", committed, failed);
    }
}

#[test]
fn rolled_back_implicit_create_leaves_no_object() {
    let reg = registry();
    for failing in [
        Op::Create { exclusive: true },
        Op::OmapCmpXchg {
            key: "a".into(),
            expect: Some(b"x".to_vec()),
            value: b"y".to_vec(),
        },
        Op::Call {
            class: "probe".into(),
            method: "boom".into(),
            input: b"x"[..].into(),
        },
    ] {
        let txn = vec![
            Op::Append {
                data: b"abc".to_vec(),
            },
            Op::OmapSet {
                key: "a".into(),
                value: b"1".to_vec(),
            },
            failing,
        ];
        let mut tracked = ObjTxn::begin(None);
        assert!(tracked.run(&txn, &reg).is_err());
        assert!(tracked.journal_record(&ObjectId::new("p", "o")).is_none());
        assert_eq!(tracked.finish(), None);
    }
}

#[test]
fn remove_then_failing_op_restores_the_object() {
    let reg = registry();
    let mut obj = Object::new();
    obj.append(b"payload");
    obj.omap.insert("a".into(), b"1"[..].into());
    obj.xattrs.insert("x".into(), b"2"[..].into());
    let txn = vec![
        Op::Remove,
        Op::Append {
            data: b"new".to_vec(),
        },
        Op::Remove,
        Op::Remove,
    ];
    let mut tracked = ObjTxn::begin(Some(obj.clone()));
    assert_eq!(tracked.run(&txn, &reg), Err(OsdError::NoEnt));
    assert_eq!(tracked.finish(), Some(obj));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// A journal fed only what the OSD feeds it — one record per
    /// transaction that changed something — replays to the live store, and
    /// keeps doing so across compactions (delta records folded into
    /// `PutObject`s, then more deltas on top).
    #[test]
    fn journal_replay_equals_live_store(sequence in txns(12000..12100)) {
        let reg = registry();
        let journal = Journal::new();
        let mut store: IdMap<ObjectId, Object> = IdMap::default();
        for (i, txn) in sequence.iter().enumerate() {
            let oid = ObjectId::new("p", format!("o{}", i % 5));
            let mut tracked = ObjTxn::begin(store.remove(&oid));
            let _ = tracked.run(txn, &reg);
            if let Some(record) = tracked.journal_record(&oid) {
                journal.append(record);
            }
            if let Some(obj) = tracked.finish() {
                store.insert(oid, obj);
            }
            if i % 1024 == 0 {
                prop_assert_eq!(&journal.replay().store, &store, "after {} transactions", i + 1);
            }
        }
        prop_assert!(journal.compactions() >= 1, "{} appends, no compaction", journal.appends());
        prop_assert_eq!(&journal.replay().store, &store);
    }
}

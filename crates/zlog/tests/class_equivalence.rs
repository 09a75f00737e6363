//! The scripted storage class against its previous source.
//!
//! `ZLOG_CLASS_SOURCE` was rewritten for cost — a one-builtin `pad`, then
//! vectored calls that exchange host-framed lists instead of text the
//! script builds and parses, then one read and a framed checkpoint — and
//! what it stores and answers must not have moved. The previous source is
//! frozen in `fixtures/zlog_class_parent.cephalo` and both run the same
//! random call sequences, on both engines. The two speak different wire
//! formats for `write_batch` and `checkpoint` inputs and for `read_batch`
//! and `checkpoint_read` replies, so each side encodes and decodes with its
//! own helpers (the parent's live on in [`parent`]) and the comparison is
//! on what was said: every decoded reply, every error (code and message)
//! and, byte for byte, the object left behind. The parent's scalar `read`
//! is compared with a one-position `read_batch`, its `ENOENT` with `U|`;
//! its per-position `trim` has no counterpart and is never called.

use mala_dsl::{Engine, Interp, Vm};
use mala_rados::{frame, ClassRegistry, Object, OsdError};
use mala_zlog::storage::{decode_checkpoint, decode_read_batch};
use mala_zlog::{
    encode_checkpoint, encode_read_batch, encode_write_batch, ReadOutcome, ZLOG_CLASS,
    ZLOG_CLASS_SOURCE,
};
use proptest::prelude::*;

const PARENT_SOURCE: &str = include_str!("fixtures/zlog_class_parent.cephalo");

/// One `read_batch` reply entry as either format spells it: the position
/// text, the tag byte, the payload.
type Entry = (String, u8, Vec<u8>);

/// The wire helpers `mala_zlog::storage` had while the parent source was
/// the shipped one: `write_batch` took `epoch|n|` then `pos|len|payload`
/// entries, `read_batch` answered `n|` then `pos|tag|len|payload` entries,
/// `checkpoint` took `epoch|pos|len|blob` and `checkpoint_read` answered
/// `pos|len|blob`, `-1|0|` before the first checkpoint.
mod parent {
    use super::Entry;

    pub fn encode_checkpoint(epoch: u64, pos: u64, blob: &[u8]) -> Vec<u8> {
        let mut out = format!("{epoch}|{pos}|{}|", blob.len()).into_bytes();
        out.extend_from_slice(blob);
        out
    }

    pub fn decode_checkpoint(bytes: &[u8]) -> Result<Option<(u64, Vec<u8>)>, String> {
        let mut fields = bytes.splitn(3, |b| *b == b'|');
        let mut field = || -> Result<&str, String> {
            let field = fields.next().ok_or("missing field")?;
            std::str::from_utf8(field).map_err(|e| e.to_string())
        };
        let pos = field()?;
        if pos == "-1" {
            return Ok(None);
        }
        let pos = pos.parse().map_err(|_| format!("bad position {pos:?}"))?;
        let len: usize = field()?.parse().map_err(|_| "bad length")?;
        let blob = fields.next().ok_or("missing blob")?;
        if blob.len() != len {
            return Err(format!("{} blob bytes, length {len}", blob.len()));
        }
        Ok(Some((pos, blob.to_vec())))
    }

    pub fn encode_write_batch(epoch: u64, entries: &[(u64, &[u8])]) -> Vec<u8> {
        let mut out = format!("{epoch}|{}|", entries.len()).into_bytes();
        for (pos, payload) in entries {
            let text = String::from_utf8_lossy(payload);
            out.extend_from_slice(format!("{pos}|{}|", text.len()).as_bytes());
            out.extend_from_slice(text.as_bytes());
        }
        out
    }

    pub fn read_batch_entries(bytes: &[u8]) -> Result<Vec<Entry>, String> {
        fn take<'a>(rest: &mut &'a str, what: &str) -> Result<&'a str, String> {
            let (field, tail) = rest.split_once('|').ok_or(format!("missing {what}"))?;
            *rest = tail;
            Ok(field)
        }
        let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
        let mut rest = text;
        let n: usize = take(&mut rest, "count")?.parse().map_err(|_| "bad count")?;
        let mut out = Vec::new();
        for _ in 0..n {
            let pos = take(&mut rest, "position")?.to_string();
            let tag = take(&mut rest, "tag")?;
            let len: usize = take(&mut rest, "length")?
                .parse()
                .map_err(|_| "bad length")?;
            let (payload, tail) = rest
                .is_char_boundary(len)
                .then(|| rest.split_at(len))
                .ok_or("truncated payload")?;
            rest = tail;
            let [tag] = tag.as_bytes() else {
                return Err(format!("bad tag {tag:?}"));
            };
            // Non-data entries carry no bytes.
            if *tag != b'D' && len != 0 {
                return Err(format!("{len} bytes under tag {}", *tag as char));
            }
            out.push((pos, *tag, payload.as_bytes().to_vec()));
        }
        if !rest.is_empty() {
            return Err(format!("{} trailing bytes", rest.len()));
        }
        Ok(out)
    }
}

/// The current reply — the frame of `{csv, v1, …, vn}` — in [`Entry`] form.
fn read_batch_entries(bytes: &[u8]) -> Result<Vec<Entry>, String> {
    let items = frame::decode(bytes)?;
    let (csv, values) = items.split_first().ok_or("missing echo")?;
    let csv = std::str::from_utf8(csv).map_err(|e| e.to_string())?;
    let positions: Vec<&str> = csv.split(',').collect();
    if positions.len() != values.len() {
        return Err(format!(
            "{} positions, {} values",
            positions.len(),
            values.len()
        ));
    }
    positions
        .iter()
        .zip(values)
        .map(|(pos, value)| match value {
            [tag, b'|', payload @ ..] if *tag == b'D' || payload.is_empty() => {
                Ok((pos.to_string(), *tag, payload.to_vec()))
            }
            other => Err(format!("bad value {:?}", String::from_utf8_lossy(other))),
        })
        .collect()
}

/// The outcomes a client would see, when every position is a `u64`.
fn outcomes(entries: &[Entry]) -> Option<Vec<(u64, ReadOutcome)>> {
    entries
        .iter()
        .map(|(pos, tag, payload)| {
            let outcome = match tag {
                b'D' => ReadOutcome::Data(payload.clone()),
                b'F' => ReadOutcome::Filled,
                b'T' => ReadOutcome::Trimmed,
                b'U' => ReadOutcome::NotWritten,
                _ => return None,
            };
            Some((pos.parse().ok()?, outcome))
        })
        .collect()
}

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
        Just("3|1,1,1|abc".to_string()),
        Just("héé|wörld".to_string()),
        "[a-z0-9|,]{0,40}",
    ]
}

fn epoch() -> impl Strategy<Value = u64> {
    0u64..4
}

/// One class call, said once and spelled per side.
#[derive(Debug, Clone)]
enum Call {
    /// A method whose input and reply are the same bytes on both sides.
    Same(&'static str, String),
    /// `epoch|pos`: the parent's `read` and a one-position `read_batch`.
    Read(String),
    /// `read_batch`: same input, replies compared decoded.
    ReadBatch(String),
    /// `write_batch` of these entries, encoded per side.
    WriteBatch(u64, Vec<(u64, String)>),
    /// `checkpoint` of `(epoch, pos, blob)`, encoded per side.
    Checkpoint(u64, u64, String),
    /// `checkpoint_read`, replies compared decoded.
    CheckpointRead,
    /// A frame for `method` (`write_batch` or `checkpoint`) with its last
    /// `cut` bytes missing (or, for `cut == 0`, one byte too many). The
    /// parent's formats broke in other places, so this one runs on the
    /// current side only: it must be `EINVAL` and leave the object alone.
    Broken(&'static str, String, usize),
}

/// A one-entry `write_batch`: `payload` at `pos` under `epoch`.
fn write_one(epoch: u64, pos: u64, payload: &str) -> Call {
    Call::WriteBatch(epoch, vec![(pos, payload.to_string())])
}

fn call() -> BoxedStrategy<Call> {
    // `epoch|pos`, the input of every per-cell method.
    let at = || (epoch(), position()).prop_map(|(e, p)| format!("{e}|{p}"));
    let cell = |method: &'static str| at().prop_map(move |input| Call::Same(method, input));
    let read = at().prop_map(Call::Read);
    // The one-entry batch an `append` sends.
    let write = (epoch(), 0u64..24, payload()).prop_map(|(e, p, d)| write_one(e, p, &d));
    let entries = || prop::collection::vec((0u64..24, payload()), 1..5);
    let write_batch = (epoch(), entries()).prop_map(|(e, entries)| Call::WriteBatch(e, entries));
    let checkpoint =
        (epoch(), 0u64..40, payload()).prop_map(|(e, p, blob)| Call::Checkpoint(e, p, blob));
    let frame = prop_oneof![
        (epoch(), entries()).prop_map(|(e, entries)| {
            let input = encode_write_batch(e, &as_slices(&entries));
            ("write_batch", String::from_utf8(input).unwrap())
        }),
        (epoch(), 0u64..40, payload()).prop_map(|(e, p, blob)| {
            let input = encode_checkpoint(e, p, blob.as_bytes());
            ("checkpoint", String::from_utf8(input).unwrap())
        }),
    ];
    let broken =
        (frame, 0usize..64).prop_map(|((method, input), cut)| Call::Broken(method, input, cut));
    let read_batch = (epoch(), prop::collection::vec(0u64..24, 1..9)).prop_map(|(e, ps)| {
        let input = encode_read_batch(e, &ps);
        Call::ReadBatch(String::from_utf8(input).unwrap())
    });
    let read_batch_wide = (epoch(), prop::collection::vec(position(), 1..4))
        .prop_map(|(e, ps)| Call::ReadBatch(format!("{e}|{}", ps.join(","))));
    // Text inputs both sides parse alike; a bad `read` input is one a
    // `read_batch` may take (`0|1,2`), and a bad `checkpoint` is a frame.
    let bad = (
        prop_oneof![
            Just("read_batch"),
            Just("fill"),
            Just("trim_upto"),
            Just("seal"),
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
    )
        .prop_map(|(method, input)| match method {
            "read_batch" => Call::ReadBatch(input),
            _ => Call::Same(method, input),
        });
    prop_oneof![
        4 => write.boxed(),
        4 => write_batch.boxed(),
        3 => read.boxed(),
        5 => read_batch.boxed(),
        1 => read_batch_wide.boxed(),
        2 => cell("fill").boxed(),
        1 => cell("trim_upto").boxed(),
        1 => (1u64..5).prop_map(|e| Call::Same("seal", e.to_string())).boxed(),
        1 => Just(Call::Same("maxpos", String::new())).boxed(),
        1 => checkpoint.boxed(),
        1 => Just(Call::CheckpointRead).boxed(),
        3 => bad.boxed(),
        1 => broken.boxed(),
    ]
    .boxed()
}

fn registry<E: Engine>(source: &str) -> ClassRegistry<E> {
    let mut reg = ClassRegistry::for_engine();
    reg.install_scripted(ZLOG_CLASS, source, 1).unwrap();
    reg
}

/// The reply bytes, or the class error's code and message.
type Reply = Result<Vec<u8>, (i32, String)>;

fn invoke<E: Engine>(
    reg: &ClassRegistry<E>,
    slot: &mut Option<Object>,
    method: &str,
    input: &[u8],
) -> Reply {
    match reg.call(ZLOG_CLASS, method, slot, input) {
        Ok(out) => Ok(out),
        Err(OsdError::Class(e)) => Err((e.code, e.message)),
        Err(other) => panic!("{method}: unexpected error {other:?}"),
    }
}

fn as_slices(entries: &[(u64, String)]) -> Vec<(u64, &[u8])> {
    entries.iter().map(|(p, d)| (*p, d.as_bytes())).collect()
}

/// The two sides of one comparison: the frozen parent and the shipped
/// class on one engine, each with the object its calls built.
struct Pair<E> {
    parent: ClassRegistry<E>,
    current: ClassRegistry<E>,
    was: Option<Object>,
    is: Option<Object>,
}

impl<E: Engine> Pair<E> {
    fn new() -> Self {
        Pair {
            parent: registry(PARENT_SOURCE),
            current: registry(ZLOG_CLASS_SOURCE),
            was: None,
            is: None,
        }
    }

    /// Makes `call` on both sides; `Err` says how they differ.
    fn step(&mut self, call: &Call) -> Result<(), String> {
        match call {
            Call::Same(method, input) => {
                let want = invoke(&self.parent, &mut self.was, method, input.as_bytes());
                let got = invoke(&self.current, &mut self.is, method, input.as_bytes());
                if got != want {
                    return Err(format!("got {got:?}, parent {want:?}"));
                }
            }
            Call::WriteBatch(e, entries) => {
                let entries = as_slices(entries);
                let want = parent::encode_write_batch(*e, &entries);
                let want = invoke(&self.parent, &mut self.was, "write_batch", &want);
                let got = encode_write_batch(*e, &entries);
                let got = invoke(&self.current, &mut self.is, "write_batch", &got);
                if got != want {
                    return Err(format!("got {got:?}, parent {want:?}"));
                }
            }
            Call::Read(input) => {
                let want = match invoke(&self.parent, &mut self.was, "read", input.as_bytes()) {
                    Err((-2, _)) => Ok(b"U|".to_vec()),
                    other => other,
                };
                let got = invoke(&self.current, &mut self.is, "read_batch", input.as_bytes());
                let got = match got {
                    Ok(reply) => Ok(one_value(&reply, input)?),
                    Err(e) => Err(e),
                };
                if got != want {
                    return Err(format!("got {got:?}, parent {want:?}"));
                }
            }
            Call::Checkpoint(e, p, blob) => {
                let want = parent::encode_checkpoint(*e, *p, blob.as_bytes());
                let want = invoke(&self.parent, &mut self.was, "checkpoint", &want);
                let got = encode_checkpoint(*e, *p, blob.as_bytes());
                let got = invoke(&self.current, &mut self.is, "checkpoint", &got);
                if got != want {
                    return Err(format!("got {got:?}, parent {want:?}"));
                }
            }
            Call::CheckpointRead => {
                let want = invoke(&self.parent, &mut self.was, "checkpoint_read", b"")
                    .map(|reply| parent::decode_checkpoint(&reply));
                let got = invoke(&self.current, &mut self.is, "checkpoint_read", b"")
                    .map(|reply| decode_checkpoint(&reply));
                if got != want {
                    return Err(format!("got {got:?}, parent {want:?}"));
                }
            }
            Call::ReadBatch(input) => {
                let want = invoke(&self.parent, &mut self.was, "read_batch", input.as_bytes());
                let got = invoke(&self.current, &mut self.is, "read_batch", input.as_bytes());
                match (got, want) {
                    (Err(got), Err(want)) if got == want => {}
                    (Ok(got), Ok(want)) => same_read_batch(&got, &want)?,
                    (got, want) => return Err(format!("got {got:?}, parent {want:?}")),
                }
            }
            Call::Broken(method, input, cut) => {
                let mut input = input.clone();
                match cut {
                    0 => input.push('0'),
                    // Inputs are text: cut on a character.
                    _ => {
                        let mut keep = input.len().saturating_sub(*cut);
                        while !input.is_char_boundary(keep) {
                            keep -= 1;
                        }
                        input.truncate(keep);
                    }
                }
                let got = invoke(&self.current, &mut self.is, method, input.as_bytes());
                if !matches!(got, Err((-22, _))) {
                    return Err(format!("got {got:?}, not EINVAL"));
                }
            }
        }
        if self.is != self.was {
            return Err(format!("object {:?}, parent {:?}", self.is, self.was));
        }
        Ok(())
    }
}

/// The one value of a one-position `read_batch` reply to `input`, checked
/// to echo the position `input` named.
fn one_value(reply: &[u8], input: &str) -> Result<Vec<u8>, String> {
    let items = frame::decode(reply)?;
    let pos = input.split_once('|').map(|(_, pos)| pos.as_bytes());
    match items[..] {
        [echo, value] if Some(echo) == pos => Ok(value.to_vec()),
        _ => Err(format!("not a reply to {input:?}: {items:?}")),
    }
}

/// Two `read_batch` replies, one per format, that say the same thing:
/// equal tags and payloads, numerically equal positions (the parent echoed
/// `fmt(tonumber(p))`, the current class echoes `p` as it came), and the
/// client's decoder reads exactly that out of the current one.
fn same_read_batch(got: &[u8], want: &[u8]) -> Result<(), String> {
    let got_entries = read_batch_entries(got)?;
    let want_entries = parent::read_batch_entries(want)?;
    let number = |e: &Entry| e.0.trim().parse::<f64>().map_err(|e| e.to_string());
    if got_entries.len() != want_entries.len() {
        return Err(format!("got {got_entries:?}, parent {want_entries:?}"));
    }
    for (g, w) in got_entries.iter().zip(&want_entries) {
        if (number(g)?, g.1, &g.2) != (number(w)?, w.1, &w.2) {
            return Err(format!("got {g:?}, parent {w:?}"));
        }
    }
    let decoded = decode_read_batch(got).ok();
    if decoded != outcomes(&got_entries) {
        return Err(format!("client decodes {decoded:?} from {got_entries:?}"));
    }
    Ok(())
}

/// `calls` on one engine; `Err` names the engine, the call and the
/// difference.
fn replay<E: Engine>(calls: &[Call]) -> Result<(), String> {
    let mut pair = Pair::<E>::new();
    for call in calls {
        pair.step(call)
            .map_err(|diff| format!("{} {call:?}: {diff}", std::any::type_name::<E>()))?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn rewritten_class_answers_and_stores_what_the_parent_did(
        calls in prop::collection::vec(call(), 1..48),
    ) {
        for outcome in [replay::<Interp>(&calls), replay::<Vm>(&calls)] {
            prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
        }
    }
}

/// The sequences above must actually reach every cell state through
/// `read_batch`; this pins one that does, so a generator change cannot
/// quietly stop covering them — and pins the reply's bytes.
#[test]
fn read_batch_over_all_four_cell_states_is_unchanged() {
    fn case<E: Engine>() {
        let kind = std::any::type_name::<E>();
        let mut pair = Pair::<E>::new();
        for call in [
            write_one(0, 2, "early"),
            write_one(0, 8, "live|data"),
            Call::WriteBatch(0, vec![(9, "3|1,1,1|abc".into()), (10, "héé".into())]),
            Call::Same("fill", "0|12".into()),
            Call::Same("trim_upto", "0|4".into()),
            Call::ReadBatch("0|2,8,12,16,20,8,10".into()),
            Call::Read("0|2".into()),
            Call::Read("0|16".into()),
            Call::Checkpoint(0, 9, "a|b".into()),
            Call::CheckpointRead,
            Call::Broken("write_batch", "1|1|x".into(), 1),
            Call::Broken("checkpoint", "3|1,1,1|09x".into(), 0),
        ] {
            pair.step(&call)
                .unwrap_or_else(|diff| panic!("{kind} {call:?}: {diff}"));
        }
        let input = b"0|2,8,12,16,20,8,10";
        let was = invoke(&pair.parent, &mut pair.was, "read_batch", input).unwrap();
        assert_eq!(
            String::from_utf8(was).unwrap(),
            "7|2|T|0|8|D|9|live|data12|F|0|16|U|0|20|U|0|8|D|9|live|data10|D|5|héé"
        );
        let is = invoke(&pair.current, &mut pair.is, "read_batch", input).unwrap();
        assert_eq!(
            String::from_utf8(is.clone()).unwrap(),
            "8|17,2,11,2,2,2,11,7|2,8,12,16,20,8,10T|D|live|dataF|U|U|D|live|dataD|héé"
        );
        assert_eq!(
            decode_read_batch(&is).unwrap(),
            vec![
                (2, ReadOutcome::Trimmed),
                (8, ReadOutcome::Data(b"live|data".to_vec())),
                (12, ReadOutcome::Filled),
                (16, ReadOutcome::NotWritten),
                (20, ReadOutcome::NotWritten),
                (8, ReadOutcome::Data(b"live|data".to_vec())),
                (10, ReadOutcome::Data("héé".as_bytes().to_vec())),
            ]
        );
        assert_eq!(pair.is, pair.was);
    }
    case::<Interp>();
    case::<Vm>();
}

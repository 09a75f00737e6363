//! The framed list, end to end: the codec against itself, the `unframe`
//! native against the codec on both engines, and malformed frames as
//! errors — `Err` from `decode`, `EINVAL` through a class call — never a
//! panic and never an allocation the header asked for.

use mala_dsl::{Engine, Interp, Vm};
use mala_rados::{frame, ClassRegistry, OsdError};
use proptest::prelude::*;

/// `echo` answers the list it was handed (the host frames it again),
/// `count` its length, `last` its last item.
const LISTS: &str = r#"
    function echo(input) return unframe(input) end
    function count(input) return fmt(#unframe(input)) end
    function last(input)
        local items = unframe(input)
        return items[#items]
    end
"#;

/// `method(input)` on the class: the reply, or the class error's code.
type Call = Box<dyn Fn(&str, &[u8]) -> Result<Vec<u8>, i32>>;

/// The class installed on the tree-walker and on the VM.
fn engines() -> [Call; 2] {
    [caller::<Interp>(), caller::<Vm>()]
}

fn caller<E: Engine>() -> Call {
    let mut reg = ClassRegistry::<E>::for_engine();
    reg.install_scripted("lists", LISTS, 1).unwrap();
    Box::new(move |method, input| {
        reg.call("lists", method, &mut None, input)
            .map_err(|e| match e {
                OsdError::Class(ce) => ce.code,
                other => panic!("{method}: {other:?}"),
            })
    })
}

fn encode<T: AsRef<[u8]>>(items: &[T]) -> Vec<u8> {
    frame::encode(items.iter().map(AsRef::as_ref))
}

/// Arbitrary text: random bytes as the lossy conversion shows them.
fn any_text() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u8>(), 0..40)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

/// Bodies that look like headers, hold the separators, are empty, are
/// multi-byte text or are not text at all, besides arbitrary ones.
fn item() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        Just(Vec::new()),
        Just(b"|".to_vec()),
        Just(b",".to_vec()),
        Just(b"2|1,1|ab".to_vec()),
        Just("h\u{e9}llo \u{2603} w\u{f6}rld".as_bytes().to_vec()),
        Just(b"\xff\0\xc3".to_vec()),
        "[a-z0-9|,\u{e9}\u{2603}]{0,24}".prop_map(String::into_bytes),
        any_text().prop_map(String::into_bytes),
        prop::collection::vec(any::<u8>(), 0..40),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn decode_inverts_encode(
        items in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..40), 0..12),
    ) {
        let framed = encode(&items);
        let back = frame::decode(&framed).unwrap();
        prop_assert_eq!(back, items.iter().map(Vec::as_slice).collect::<Vec<_>>());
    }

    #[test]
    fn unframe_hands_the_script_what_decode_returns(
        items in prop::collection::vec(item(), 0..12),
    ) {
        let framed = encode(&items);
        let decoded = frame::decode(&framed).unwrap();
        prop_assert_eq!(&decoded, &items.iter().map(Vec::as_slice).collect::<Vec<_>>());
        for call in engines() {
            // The list comes back as the frame it came in.
            prop_assert_eq!(call("echo", &framed), Ok(framed.clone()));
            prop_assert_eq!(call("count", &framed), Ok(items.len().to_string().into_bytes()));
            let last = items.last().cloned().unwrap_or_default();
            prop_assert_eq!(call("last", &framed), Ok(last));
        }
    }

    /// Any damage to a frame's length — bytes cut off the end, bytes added
    /// — is refused on both sides.
    #[test]
    fn cut_or_padded_frames_are_refused(
        items in prop::collection::vec("[a-z|,]{0,12}", 0..8),
        cut in 1usize..40,
        junk in "[a-z0-9|,]{1,4}",
    ) {
        let framed = encode(&items);
        let short = &framed[..framed.len().saturating_sub(cut)];
        let long = [framed.as_slice(), junk.as_bytes()].concat();
        for bad in [short, long.as_slice()] {
            prop_assert!(frame::decode(bad).is_err(), "{:?}", String::from_utf8_lossy(bad));
            for call in engines() {
                prop_assert_eq!(call("echo", bad), Err(-22));
            }
        }
    }

    /// Whatever the bytes, `decode` and `unframe` answer or refuse; they do
    /// not panic, and they agree on which: the script is handed the bytes
    /// `decode` is.
    #[test]
    fn arbitrary_input_never_panics(
        input in prop_oneof![
            "[0-9]{0,3}[|x]?[0-9,]{0,8}[|]?[a-z\u{e9}|,]{0,12}".prop_map(String::into_bytes),
            any_text().prop_map(String::into_bytes),
            prop::collection::vec(any::<u8>(), 0..40),
        ],
    ) {
        let decoded = frame::decode(&input);
        for call in engines() {
            match (&decoded, call("count", &input)) {
                (Ok(items), Ok(count)) => {
                    prop_assert_eq!(items.len().to_string().into_bytes(), count);
                }
                (Err(_), Err(code)) => prop_assert_eq!(code, -22),
                (decoded, unframed) => {
                    prop_assert!(false, "decode: {:?}, unframe: {:?}", decoded, unframed)
                }
            }
        }
    }
}

#[test]
fn malformed_frames_are_einval_through_a_class_call() {
    let huge = format!("{}|1|a", usize::MAX);
    let cases: [(&[u8], &str); 8] = [
        (b"", "not a frame"),
        (b"3|1,1|ab", "count beyond the lengths listed"),
        (
            huge.as_bytes(),
            "count beyond anything the frame could hold",
        ),
        (b"1000000|1,1|ab", "count beyond the header's length"),
        (b"1|5|abc", "length past the end"),
        (b"1|1|abc", "trailing bytes"),
        (b"1|x|a", "non-numeric length"),
        (b"x|1|a", "non-numeric count"),
    ];
    for call in engines() {
        for (bad, why) in cases {
            assert_eq!(call("echo", bad), Err(-22), "{why}");
        }
    }
    for (bad, why) in cases {
        assert!(frame::decode(bad).is_err(), "{why}");
    }
    // A length that ends inside a character is no malformation: items are
    // bytes on both sides, and only text has characters to split.
    let split = "2|1,1|\u{e9}".as_bytes();
    assert_eq!(frame::decode(split).unwrap(), vec![&b"\xc3"[..], b"\xa9"]);
    for call in engines() {
        assert_eq!(call("echo", split), Ok(split.to_vec()));
        assert_eq!(call("last", split), Ok(b"\xa9".to_vec()));
    }
}

/// Input bytes that are not UTF-8 reach the script as they are, so the
/// text the script sees is the bytes the caller framed and the lengths
/// count those (they used to count a lossy decoding, which a frame over the
/// raw bytes no longer fitted).
#[test]
fn lengths_count_the_text_the_script_sees() {
    let raw: [&[u8]; 2] = [b"a\xffb", b"tail"];
    for call in engines() {
        assert_eq!(call("echo", &encode(&raw)), Ok(encode(&raw)));
        assert_eq!(call("count", &encode(&raw)), Ok(b"2".to_vec()));
        assert_eq!(call("last", &encode(&raw)), Ok(b"tail".to_vec()));
    }
}

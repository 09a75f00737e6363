//! The framed list: the one wire shape of vectored class calls.
//!
//! A list of `n` byte strings travels as `n|l1,l2,…,ln|` followed by the
//! `n` bodies back to back (`0||` when empty). The header is ASCII
//! decimal; bodies are opaque and may hold the separators. Nothing is
//! escaped and nothing is scanned for: a reader slices.
//!
//! This is the only length-prefix code on the class path. The `unframe`
//! native hands a script the list a caller framed (`mala-zlog`'s
//! `encode_write_batch`), and [`crate::ClassRegistry::call`] frames the
//! list a scripted method returned for a caller that wants flat bytes —
//! through an OSD such a reply stays the list of its items
//! ([`crate::OpResult::CallList`], DESIGN §29).

/// Frames `items` in order. The iterator is walked once to size the
/// frame, once for the lengths and once for the bodies, so encoding costs
/// one allocation, at the frame's exact size.
pub fn encode<'a>(items: impl Iterator<Item = &'a [u8]> + Clone) -> Vec<u8> {
    use std::io::Write;
    let digits = |n: usize| n.checked_ilog10().map_or(1, |d| d as usize + 1);
    // Per item: its length, a `,` or the closing `|`, its body.
    let (count, size) = items.clone().fold((0usize, 0usize), |(n, size), item| {
        (n + 1, size + digits(item.len()) + 1 + item.len())
    });
    let mut out = Vec::with_capacity(digits(count) + 1 + size.max(1));
    // Writing to a `Vec` cannot fail.
    let _ = write!(out, "{count}|");
    for (i, item) in items.clone().enumerate() {
        let _ = write!(out, "{}{}", if i == 0 { "" } else { "," }, item.len());
    }
    out.push(b'|');
    for item in items {
        out.extend_from_slice(item);
    }
    out
}

/// Splits a frame back into its items, borrowed from `bytes`.
///
/// # Errors
///
/// A malformed frame: a missing or non-numeric header field, a count the
/// frame is too short to hold (refused before anything is allocated for
/// it), a count that disagrees with the length list, a length past the
/// end, or bytes left over after the last body.
pub fn decode(bytes: &[u8]) -> Result<Vec<&[u8]>, String> {
    let (count, rest) = field(bytes).ok_or("frame: missing count")?;
    let n = number(count).ok_or("frame: bad count")?;
    let (lens, mut rest) = field(rest).ok_or("frame: missing lengths")?;
    // Every item costs at least one header byte, so a count beyond the
    // header's length is malformed: refuse it before allocating for it.
    if n > lens.len() {
        return Err(format!("frame: count {n} exceeds its header"));
    }
    let mut items = Vec::with_capacity(n);
    if !lens.is_empty() {
        for len in lens.split(|b| *b == b',') {
            let len = number(len).ok_or("frame: bad length")?;
            if len > rest.len() {
                return Err(format!("frame: length {len} runs past the end"));
            }
            let (item, tail) = rest.split_at(len);
            items.push(item);
            rest = tail;
        }
    }
    if items.len() != n {
        return Err(format!(
            "frame: {n} items announced, {} listed",
            items.len()
        ));
    }
    if !rest.is_empty() {
        return Err(format!("frame: {} trailing bytes", rest.len()));
    }
    Ok(items)
}

/// Splits the `|`-terminated field off the front of `bytes`.
fn field(bytes: &[u8]) -> Option<(&[u8], &[u8])> {
    let at = bytes.iter().position(|b| *b == b'|')?;
    Some((&bytes[..at], &bytes[at + 1..]))
}

/// A header number: ASCII digits only, no sign, no blanks, no overflow.
fn number(digits: &[u8]) -> Option<usize> {
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0usize, |n, d| {
        if !d.is_ascii_digit() {
            return None;
        }
        n.checked_mul(10)?.checked_add(usize::from(d - b'0'))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn framed(items: &[&[u8]]) -> Vec<u8> {
        encode(items.iter().copied())
    }

    #[test]
    fn header_then_bodies_back_to_back() {
        assert_eq!(framed(&[]), b"0||");
        assert_eq!(framed(&[b""]), b"1|0|");
        assert_eq!(framed(&[b"ab", b"", b"c|d,e"]), b"3|2,0,5|abc|d,e");
        let long = [7u8; 1000];
        let lists: [&[&[u8]]; 4] = [&[], &[b""], &[b"ab", b"", b"c|d,e"], &[&long, b"x"]];
        for items in lists {
            let out = framed(items);
            assert_eq!(out.capacity(), out.len(), "allocated at its size");
        }
        assert_eq!(decode(b"0||").unwrap(), Vec::<&[u8]>::new());
        assert_eq!(decode(b"1|0|").unwrap(), vec![&b""[..]]);
        assert_eq!(
            decode(b"3|2,0,5|abc|d,e").unwrap(),
            vec![&b"ab"[..], b"", b"c|d,e"]
        );
        // Bodies are opaque: not text, and free to look like a header.
        assert_eq!(
            decode(b"2|2,4|\xff\xfe1|1|").unwrap(),
            vec![&b"\xff\xfe"[..], b"1|1|"]
        );
    }

    #[test]
    fn malformed_frames_are_errors() {
        for bad in [
            &b""[..],
            b"junk",
            b"1",
            b"1|",
            b"1|3",
            b"x||",
            b"-1||",
            b"+1|1|a",
            b" 1|1|a",
            b"1|x|a",
            b"1|1,|a",
            b"1|,1|a",
            b"2|1|a",
            b"1|1,1|ab",
            b"0|0|",
            b"1||",
            // A length past the end, and bytes after the last body.
            b"1|5|abc",
            b"1|1|abc",
            b"0||x",
            // Numbers that do not fit.
            b"1|99999999999999999999999999|a",
            b"99999999999999999999999999||",
        ] {
            assert!(decode(bad).is_err(), "{:?}", String::from_utf8_lossy(bad));
        }
    }

    #[test]
    fn a_count_the_header_cannot_hold_is_refused_before_allocating() {
        // `usize::MAX` items would abort in `with_capacity` if the count
        // were believed.
        let huge = format!("{}|1|a", usize::MAX);
        assert!(decode(huge.as_bytes()).unwrap_err().contains("exceeds"));
        assert!(decode(b"1000000|1,1|ab").unwrap_err().contains("exceeds"));
    }
}

//! The committed digests of every simulated experiment's quick run
//! (`digests.txt` beside this file). The lib test that runs each entry in
//! process and the cli test that runs `mala-bench all --quick` both compare
//! against them, so tier-1 runs each entry twice and each run must replay
//! the committed one. After a change that is meant to move a quick run,
//! rewrite the file and read its diff:
//!
//! ```text
//! BLESS_QUICK=1 cargo test -p mala-bench --lib every_entry
//! ```

use std::collections::BTreeMap;

/// The file, one line per simulated entry: its name, the digest of its
/// rendering and that of its JSON body (`-` without one). Lines that
/// start with `#` are comments.
pub const PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/quick_digests/digests.txt"
);

/// FNV-1a of `text`, as 16 hex digits.
pub fn digest(text: &str) -> String {
    format!("{:016x}", mala_rados::placement::stable_hash(text))
}

/// `(rendering, JSON)` digests by entry name, as committed.
pub fn committed() -> BTreeMap<String, (String, String)> {
    let file = std::fs::read_to_string(PATH).unwrap_or_default();
    file.lines()
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [name, text, json] = fields[..] else {
                panic!("{PATH}: malformed line {line:?}");
            };
            (name.to_string(), (text.to_string(), json.to_string()))
        })
        .collect()
}

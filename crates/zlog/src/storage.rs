//! The CORFU storage interface, as a *scripted* object class.
//!
//! The paper implements ZLog's custom storage device interface as a
//! dynamically-installed Lua object class; here it is Cephalo source
//! installed through the monitor's interface map, so every OSD picks it up
//! without a restart (§4.2, §6.1.2).
//!
//! Semantics (CORFU §3):
//!
//! * Entries are write-once: a position can hold data or a junk *fill*,
//!   never be overwritten.
//! * Every mutating request carries the client's epoch; requests below the
//!   sealed epoch are rejected with `ESTALE` so stale clients refresh.
//! * `seal(epoch)` atomically installs a higher epoch and returns the
//!   maximum written position — the primitive sequencer recovery is built
//!   from.
//!
//! The methods, and one rule for their wire: an input made only of numbers
//! is text, `epoch|…`, split once; a method that carries bytes exchanges
//! **framed lists** ([`mala_rados::frame`]: `n|l1,…,ln|` then the `n`
//! bodies back to back), so payloads may hold any separator and neither
//! side searches or slices them. A method that returns a table reaches an
//! OSD client as the list of its items ([`mala_rados::OpResult::CallList`])
//! and a direct caller of the class registry as its frame.
//!
//! | method | input | reply |
//! |---|---|---|
//! | `write_batch` | frame `{epoch, pos1, payload1, …, posn, payloadn}` ([`encode_write_batch`]) | `n` |
//! | `read_batch` | `epoch\|pos,pos,…` ([`encode_read_batch`]) | list `{csv, v1, …, vn}` ([`read_outcomes`]) |
//! | `fill` | `epoch\|pos` | `ok` |
//! | `trim_upto` | `epoch\|pos` | entries purged |
//! | `checkpoint` | frame `{epoch, pos, blob}` ([`encode_checkpoint`]) | position held |
//! | `checkpoint_read` | ignored | list `{pos, blob}`, empty before the first ([`checkpoint_of`]) |
//! | `seal` | `epoch` | maximum position, `-1` if none |
//! | `maxpos` | ignored | maximum position, `-1` if none |
//!
//! `write_batch` is the one write, behind every append (an `append` is a
//! batch of one): one call carries every same-stripe position of a client
//! batch, so the whole group is admitted under one epoch check, applied in
//! one RADOS transaction, and journaled as one group-commit. Semantics are
//! all-or-nothing: any conflict (a written position, or a duplicate
//! inside the batch) rejects the whole call with `EEXIST` before anything
//! is applied, and a sealed epoch rejects it with `ESTALE`.
//!
//! `read_batch` is the one read, behind every point read and write probe
//! (a `read` is a batch of one): one epoch check for the whole vector, and
//! a value per position out — the stored value untouched (`D|<payload>`
//! data, `F|` junk fill) or the constants `T|` (trimmed) and `U|`
//! (unwritten). An unwritten position is an outcome, not an error. The
//! reply's first item echoes the request's position csv as it came;
//! [`read_outcomes`] takes positions from it, the tag from each value's
//! first byte and the payload as the bytes after `D|`. The class never
//! formats a position, measures a payload or joins a reply. Payloads are
//! bytes end to end (DESIGN §29): the script is handed the frame as it was
//! built, stores what `unframe` cut out of it, and a stored value travels
//! back as the buffer it is stored in, never a copy of it.
//!
//! `trim_upto` (`epoch|pos`) marks every position `<= pos` on this stripe
//! trimmed in O(1) state (the `trimlo` xattr) and purges their omap
//! entries for space reclaim. Reads at or below the watermark report `T`;
//! writes and fills there bounce with `EEXIST` (the cell's history is
//! gone, it can never be written again).
//!
//! `checkpoint`/`checkpoint_read` persist `(position, blob)` snapshots on a
//! *per-log checkpoint object* (not a stripe object); a checkpoint only
//! ever advances, so a stale snapshot writer cannot roll it back.

use mala_consensus::{MapUpdate, SERVICE_MAP_INTERFACES};
use mala_rados::frame;

/// The class name, as registered in the interface map.
pub const ZLOG_CLASS: &str = "zlog";

/// Cephalo source of the storage interface.
pub const ZLOG_CLASS_SOURCE: &str = r#"
-- CORFU storage interface for one stripe object.
-- Entry keys are zero-padded so omap order == position order.
-- Entry values are tagged: "D|<payload>" data, "F|" filled junk,
-- "T|" trimmed. The "trimlo" xattr is the prefix-trim watermark:
-- every position <= trimlo is trimmed, its omap entry purged.
-- Inputs made only of numbers are text, "epoch|...". Methods that carry
-- bytes exchange lists the host frames: write_batch and checkpoint read
-- their input with unframe(), read_batch and checkpoint_read return a
-- table. None builds or parses a payload.

__readonly = {"maxpos", "read_batch", "checkpoint_read"}

function pad(pos) return "e" .. zpad(pos, 20) end

function check_epoch(e)
    local sealed = tonumber(xattr_get("epoch"))
    if sealed == nil then sealed = 0 end
    if e < sealed then
        error("ESTALE: request epoch " .. fmt(e) .. " below sealed " .. fmt(sealed))
    end
end

function bump_maxpos(pos)
    local cur = tonumber(xattr_get("maxpos"))
    if cur == nil or pos > cur then
        xattr_set("maxpos", fmt(pos))
    end
end

function trim_floor()
    local lo = tonumber(xattr_get("trimlo"))
    if lo == nil then return -1 end
    return lo
end

-- The one write: the framed list {epoch, pos1, payload1, ..., posn,
-- payloadn}. All-or-nothing: every entry is validated (epoch, write-once,
-- intra-batch duplicates) before any is applied, so a rejected batch
-- leaves no residue.
function write_batch(input)
    local items = unframe(input)
    local e = tonumber(items[1])
    local n = (#items - 1) / 2
    if e == nil or n < 1 or n ~= floor(n) then
        error("EINVAL: bad write_batch input")
    end
    check_epoch(e)
    local lo = trim_floor()
    local keys = {}
    local hi = nil
    for k = 1, n do
        local pos = tonumber(items[2 * k])
        if pos == nil then error("EINVAL: bad write_batch position") end
        if pos <= lo then
            error("EEXIST: position " .. fmt(pos) .. " trimmed")
        end
        local key = pad(pos)
        if omap_get(key) ~= nil then
            error("EEXIST: position " .. fmt(pos) .. " already written")
        end
        for j = 1, k - 1 do
            if keys[j] == key then
                error("EEXIST: position " .. fmt(pos) .. " duplicated in batch")
            end
        end
        keys[k] = key
        if hi == nil or pos > hi then hi = pos end
    end
    for k = 1, n do
        omap_set(keys[k], "D|" .. items[2 * k + 1])
    end
    bump_maxpos(hi)
    return fmt(n)
end

-- The one read: "epoch|pos,pos,...". One epoch check covers the whole
-- vector. The reply is a list the host frames: the position csv as it
-- came, then one value per position — the stored value as it is
-- ("D|<payload>", "F|"), "T|" under the trim watermark, "U|" for a hole —
-- and no byte of a payload is touched here.
function read_batch(input)
    local i = find(input, "|")
    if i == nil then error("EINVAL: bad read_batch input") end
    local e = tonumber(sub(input, 1, i - 1))
    local csv = sub(input, i + 1)
    if e == nil then error("EINVAL: bad read_batch input") end
    check_epoch(e)
    local ps = split(csv, ",")
    local lo = trim_floor()
    local out = {csv}
    for k = 1, #ps do
        local pos = tonumber(ps[k])
        if pos == nil then error("EINVAL: bad read_batch position") end
        local v = "T|"
        if pos > lo then
            v = omap_get(pad(pos))
            if v == nil then v = "U|" end
        end
        out[k + 1] = v
    end
    return out
end

function fill(input)
    local parts = split(input, "|")
    local e = tonumber(parts[1])
    local pos = tonumber(parts[2])
    if e == nil or pos == nil then error("EINVAL: bad fill input") end
    check_epoch(e)
    if pos <= trim_floor() then
        error("EEXIST: position " .. fmt(pos) .. " trimmed")
    end
    local key = pad(pos)
    local cur = omap_get(key)
    if cur ~= nil then
        if sub(cur, 1, 1) == "F" then return "ok" end
        error("EEXIST: position " .. fmt(pos) .. " already written")
    end
    omap_set(key, "F|")
    bump_maxpos(pos)
    return "ok"
end

-- Prefix trim: every position <= pos on this stripe becomes trimmed in
-- one call. The watermark is O(1) state; purging the covered omap
-- entries reclaims their space. Monotone and idempotent.
function trim_upto(input)
    local parts = split(input, "|")
    local e = tonumber(parts[1])
    local pos = tonumber(parts[2])
    if e == nil or pos == nil then error("EINVAL: bad trim_upto input") end
    check_epoch(e)
    if pos > trim_floor() then
        xattr_set("trimlo", fmt(pos))
        bump_maxpos(pos)
    end
    return fmt(omap_del_range("e", pad(pos)))
end

-- Checkpoint persistence (lives on the per-log checkpoint object, not a
-- stripe object). The framed list {epoch, pos, blob}: records that blob
-- captures the log prefix [0, pos). Only ever advances — a slow writer
-- with an older snapshot cannot roll the checkpoint back. Returns the
-- position now held.
function checkpoint(input)
    local items = unframe(input)
    local e = tonumber(items[1])
    local pos = tonumber(items[2])
    if #items ~= 3 or e == nil or pos == nil then
        error("EINVAL: bad checkpoint input")
    end
    check_epoch(e)
    local cur = tonumber(xattr_get("ckpt_pos"))
    if cur ~= nil and pos <= cur then return fmt(cur) end
    xattr_set("ckpt_pos", fmt(pos))
    omap_set("ckpt", items[3])
    return fmt(pos)
end

-- Latest checkpoint as the list {pos, blob}, empty before the first one.
function checkpoint_read(input)
    local pos = xattr_get("ckpt_pos")
    if pos == nil then return {} end
    local blob = omap_get("ckpt")
    if blob == nil then blob = "" end
    return {pos, blob}
end

function seal(input)
    local e = tonumber(input)
    if e == nil then error("EINVAL: bad seal epoch") end
    local sealed = tonumber(xattr_get("epoch"))
    if sealed == nil then sealed = 0 end
    if e <= sealed then
        error("ESTALE: seal epoch " .. fmt(e) .. " not above " .. fmt(sealed))
    end
    xattr_set("epoch", fmt(e))
    local m = xattr_get("maxpos")
    if m == nil then return "-1" end
    return m
end

function maxpos(input)
    local m = xattr_get("maxpos")
    if m == nil then return "-1" end
    return m
end
"#;

/// Encodes a `write_batch` input: the framed list `{epoch, pos1,
/// payload1, …, posn, payloadn}`, payloads as they are. Entries must be
/// non-empty.
pub fn encode_write_batch(epoch: u64, entries: &[(u64, &[u8])]) -> Vec<u8> {
    use std::io::Write;
    // The epoch and the positions in decimal, back to back in one buffer;
    // each is found again by its digit count. Writing to a `Vec` cannot
    // fail.
    let mut text = Vec::with_capacity(20 * (entries.len() + 1));
    let _ = write!(text, "{epoch}");
    let epoch_len = text.len();
    for (pos, _) in entries {
        let _ = write!(text, "{pos}");
    }
    let text = &text[..];
    let cells = entries.iter().scan(epoch_len, move |at, (pos, payload)| {
        let digits = pos.checked_ilog10().map_or(1, |d| d as usize + 1);
        let pos = &text[*at..*at + digits];
        *at += digits;
        Some([pos, *payload])
    });
    frame::encode(std::iter::once(&text[..epoch_len]).chain(cells.flatten()))
}

/// Encodes a `read_batch` input: `epoch|pos,pos,...`.
pub fn encode_read_batch(epoch: u64, positions: &[u64]) -> Vec<u8> {
    use std::fmt::Write;
    let mut out = format!("{epoch}|");
    for (i, pos) in positions.iter().enumerate() {
        // Writing to a `String` cannot fail.
        let _ = write!(out, "{}{pos}", if i == 0 { "" } else { "," });
    }
    out.into_bytes()
}

/// Decodes a `read_batch` reply in its flat form: the frame of `{csv, v1,
/// …, vn}` (see [`read_outcomes`]).
pub fn decode_read_batch(bytes: &[u8]) -> Result<Vec<(u64, crate::log::ReadOutcome)>, String> {
    let items = frame::decode(bytes).map_err(|e| format!("read_batch reply: {e}"))?;
    read_outcomes(items.into_iter())
}

/// Reads a `read_batch` reply, the list `{csv, v1, …, vn}`: the request's
/// position csv echoed, then one value per position, `X|` with the tag `X`
/// one of D/F/T/U and, after `D|`, the payload. Only the csv is read as
/// text; a payload is copied out as it is, and this is the one copy made
/// of it between the omap that stores it and the reader.
pub fn read_outcomes<'a>(
    mut items: impl Iterator<Item = &'a [u8]>,
) -> Result<Vec<(u64, crate::log::ReadOutcome)>, String> {
    use crate::log::ReadOutcome;
    let csv = items.next().ok_or("read_batch reply: missing positions")?;
    let csv = std::str::from_utf8(csv).map_err(|_| "read_batch reply: bad positions")?;
    let mut out = Vec::with_capacity(items.size_hint().0);
    for field in csv.split(',') {
        let pos: u64 = field
            .parse()
            .map_err(|_| format!("read_batch reply: bad position {field:?}"))?;
        let outcome = match items.next() {
            Some([b'D', b'|', payload @ ..]) => ReadOutcome::Data(payload.to_vec()),
            Some([b'F', b'|', ..]) => ReadOutcome::Filled,
            Some([b'T', b'|', ..]) => ReadOutcome::Trimmed,
            Some([b'U', b'|', ..]) => ReadOutcome::NotWritten,
            Some([_, b'|', ..]) => return Err(format!("read_batch reply: unknown tag at {pos}")),
            Some(_) => return Err(format!("read_batch reply: value at {pos} has no tag")),
            None => return Err(format!("read_batch reply: no value for {pos}")),
        };
        out.push((pos, outcome));
    }
    if items.next().is_some() {
        return Err("read_batch reply: more values than positions".into());
    }
    Ok(out)
}

/// Encodes a `checkpoint` input: the framed list `{epoch, pos, blob}`, the
/// blob as it is.
pub fn encode_checkpoint(epoch: u64, pos: u64, blob: &[u8]) -> Vec<u8> {
    let (epoch, pos) = (epoch.to_string(), pos.to_string());
    frame::encode([epoch.as_bytes(), pos.as_bytes(), blob].into_iter())
}

/// Decodes a `checkpoint_read` reply in its flat form: the frame of `{pos,
/// blob}` (see [`checkpoint_of`]).
pub fn decode_checkpoint(bytes: &[u8]) -> Result<Option<(u64, Vec<u8>)>, String> {
    checkpoint_of(&frame::decode(bytes).map_err(|e| format!("checkpoint reply: {e}"))?)
}

/// Reads a `checkpoint_read` reply, the list `{pos, blob}`: `None` when it
/// is empty, no checkpoint having been taken yet. The position is read as
/// text, the blob is copied out as it is.
pub fn checkpoint_of(items: &[impl AsRef<[u8]>]) -> Result<Option<(u64, Vec<u8>)>, String> {
    match items {
        [] => Ok(None),
        [pos, blob] => {
            let pos = std::str::from_utf8(pos.as_ref())
                .ok()
                .and_then(|p| p.parse().ok());
            let pos = pos.ok_or("checkpoint reply: bad position")?;
            Ok(Some((pos, blob.as_ref().to_vec())))
        }
        _ => Err(format!("checkpoint reply: {} items", items.len())),
    }
}

/// The monitor update that installs (or upgrades) the class cluster-wide.
pub fn zlog_interface_update() -> MapUpdate {
    MapUpdate::set(
        SERVICE_MAP_INTERFACES,
        ZLOG_CLASS,
        ZLOG_CLASS_SOURCE.as_bytes().to_vec(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::ReadOutcome;
    use mala_dsl::{Engine, Interp, Vm};
    use mala_rados::{ClassRegistry, Object, OsdError};
    use std::any::type_name;

    fn reg() -> ClassRegistry {
        reg_on()
    }

    /// The class installed on `E`: the tree-walker in the two-engine tests.
    fn reg_on<E: Engine>() -> ClassRegistry<E> {
        let mut reg = ClassRegistry::for_engine();
        reg.install_scripted(ZLOG_CLASS, ZLOG_CLASS_SOURCE, 1)
            .unwrap();
        reg
    }

    fn call(
        reg: &ClassRegistry,
        slot: &mut Option<Object>,
        method: &str,
        input: &str,
    ) -> Result<String, i32> {
        match reg.call(ZLOG_CLASS, method, slot, input.as_bytes()) {
            Ok(out) => Ok(String::from_utf8(out).unwrap()),
            Err(OsdError::Class(e)) => Err(e.code),
            Err(other) => panic!("unexpected error: {other:?}"),
        }
    }

    /// A one-entry `write_batch`: `payload` at `pos` under `epoch`.
    fn write(
        reg: &ClassRegistry,
        slot: &mut Option<Object>,
        epoch: u64,
        pos: u64,
        payload: &str,
    ) -> Result<String, i32> {
        call(
            reg,
            slot,
            "write_batch",
            &batch_input(epoch, &[(pos, payload)]),
        )
    }

    /// What a one-position `read_batch` finds at `pos` under `epoch`.
    fn cell(
        reg: &ClassRegistry,
        slot: &mut Option<Object>,
        epoch: u64,
        pos: u64,
    ) -> Result<ReadOutcome, i32> {
        let mut cells = rb(reg, slot, epoch, &[pos])?;
        assert_eq!(cells.len(), 1, "{cells:?}");
        Ok(cells.remove(0).1)
    }

    fn data(payload: &str) -> Result<ReadOutcome, i32> {
        Ok(ReadOutcome::Data(payload.as_bytes().to_vec()))
    }

    /// The journal record of an append carries what the append touched —
    /// the entry's key and the `maxpos` xattr — however large the stripe
    /// object already is.
    #[test]
    fn journal_record_of_one_append_is_a_few_keys() {
        use mala_rados::{JournalRecord, ObjTxn, ObjectId, Op};
        let reg = reg();
        let mut slot = None;
        for first in (0..1000u64).step_by(8) {
            let payloads: Vec<(u64, &[u8])> =
                (first..first + 8).map(|p| (p, &b"payload"[..])).collect();
            reg.call(
                ZLOG_CLASS,
                "write_batch",
                &mut slot,
                &encode_write_batch(0, &payloads),
            )
            .unwrap();
        }
        assert_eq!(slot.as_ref().unwrap().omap.len(), 1000);
        let mut txn = ObjTxn::begin(slot);
        txn.run(
            &vec![Op::Call {
                class: ZLOG_CLASS.into(),
                method: "write_batch".into(),
                input: encode_write_batch(0, &[(1000, b"one more")]).into(),
            }],
            &reg,
        )
        .unwrap();
        let record = txn.journal_record(&ObjectId::new("zlogpool", "log.0"));
        let Some(JournalRecord::Delta(_, delta)) = record else {
            panic!("expected a delta record, got {record:?}");
        };
        assert!(!delta.reset && delta.data.is_none());
        assert!(delta.omap.len() + delta.xattrs.len() <= 3, "{delta:?}");
        assert_eq!(
            delta.omap,
            vec![(
                "e00000000000000001000".into(),
                Some(b"D|one more"[..].into())
            )]
        );
        assert_eq!(txn.finish().unwrap().omap.len(), 1001);
    }

    #[test]
    fn write_once_semantics() {
        let reg = reg();
        let mut slot = Some(Object::new());
        assert_eq!(write(&reg, &mut slot, 0, 5, "hello"), Ok("1".into()));
        // Same position again: EEXIST (-17).
        assert_eq!(write(&reg, &mut slot, 0, 5, "other"), Err(-17));
        assert_eq!(cell(&reg, &mut slot, 0, 5), data("hello"));
    }

    /// A hole is an outcome, not an error, on an object that holds other
    /// cells and on one that was never created.
    #[test]
    fn unwritten_reads_are_tagged_not_errors() {
        let reg = reg();
        let mut slot = None;
        assert_eq!(cell(&reg, &mut slot, 0, 3), Ok(ReadOutcome::NotWritten));
        assert_eq!(slot, None, "a read creates nothing");
        write(&reg, &mut slot, 0, 7, "x").unwrap();
        assert_eq!(cell(&reg, &mut slot, 0, 3), Ok(ReadOutcome::NotWritten));
    }

    #[test]
    fn fill_junks_unwritten_only() {
        let reg = reg();
        let mut slot = Some(Object::new());
        assert_eq!(call(&reg, &mut slot, "fill", "0|2"), Ok("ok".into()));
        assert_eq!(call(&reg, &mut slot, "fill", "0|2"), Ok("ok".into())); // idempotent
        assert_eq!(cell(&reg, &mut slot, 0, 2), Ok(ReadOutcome::Filled));
        write(&reg, &mut slot, 0, 7, "data").unwrap();
        assert_eq!(call(&reg, &mut slot, "fill", "0|7"), Err(-17));
    }

    #[test]
    fn seal_installs_epoch_and_returns_maxpos() {
        let reg = reg();
        let mut slot = Some(Object::new());
        assert_eq!(call(&reg, &mut slot, "seal", "1"), Ok("-1".into()));
        write(&reg, &mut slot, 1, 4, "a").unwrap();
        write(&reg, &mut slot, 1, 9, "b").unwrap();
        assert_eq!(call(&reg, &mut slot, "seal", "2"), Ok("9".into()));
        // Seal must be strictly monotone.
        assert_eq!(call(&reg, &mut slot, "seal", "2"), Err(-116));
        assert_eq!(call(&reg, &mut slot, "seal", "1"), Err(-116));
    }

    #[test]
    fn stale_epoch_requests_rejected_after_seal() {
        let reg = reg();
        let mut slot = Some(Object::new());
        write(&reg, &mut slot, 0, 0, "pre").unwrap();
        call(&reg, &mut slot, "seal", "3").unwrap();
        assert_eq!(write(&reg, &mut slot, 2, 1, "stale"), Err(-116));
        assert_eq!(cell(&reg, &mut slot, 2, 0), Err(-116));
        assert_eq!(call(&reg, &mut slot, "fill", "0|1"), Err(-116));
        // Current-epoch traffic flows.
        assert_eq!(write(&reg, &mut slot, 3, 1, "fresh"), Ok("1".into()));
        assert_eq!(cell(&reg, &mut slot, 3, 0), data("pre"));
    }

    #[test]
    fn maxpos_tracks_all_mutations() {
        let reg = reg();
        let mut slot = Some(Object::new());
        assert_eq!(call(&reg, &mut slot, "maxpos", ""), Ok("-1".into()));
        write(&reg, &mut slot, 0, 3, "x").unwrap();
        call(&reg, &mut slot, "fill", "0|10").unwrap();
        write(&reg, &mut slot, 0, 6, "y").unwrap();
        assert_eq!(call(&reg, &mut slot, "maxpos", ""), Ok("10".into()));
    }

    fn batch_input(epoch: u64, entries: &[(u64, &str)]) -> String {
        let entries: Vec<(u64, &[u8])> = entries.iter().map(|(p, s)| (*p, s.as_bytes())).collect();
        String::from_utf8(encode_write_batch(epoch, &entries)).unwrap()
    }

    #[test]
    fn write_batch_lands_every_entry() {
        let reg = reg();
        let mut slot = Some(Object::new());
        let input = batch_input(0, &[(0, "alpha"), (4, "with|sep"), (8, "")]);
        assert_eq!(call(&reg, &mut slot, "write_batch", &input), Ok("3".into()));
        assert_eq!(cell(&reg, &mut slot, 0, 0), data("alpha"));
        assert_eq!(cell(&reg, &mut slot, 0, 4), data("with|sep"));
        assert_eq!(cell(&reg, &mut slot, 0, 8), data(""));
    }

    #[test]
    fn write_batch_conflict_rejects_whole_batch() {
        let reg = reg();
        let mut slot = Some(Object::new());
        write(&reg, &mut slot, 0, 4, "held").unwrap();
        // One member collides with a written cell: nothing may land.
        let input = batch_input(0, &[(0, "a"), (4, "clobber"), (8, "c")]);
        assert_eq!(call(&reg, &mut slot, "write_batch", &input), Err(-17));
        let hole = Ok(ReadOutcome::NotWritten);
        assert_eq!(cell(&reg, &mut slot, 0, 0), hole);
        assert_eq!(cell(&reg, &mut slot, 0, 8), hole);
        assert_eq!(cell(&reg, &mut slot, 0, 4), data("held"));
    }

    #[test]
    fn write_batch_rejects_intra_batch_duplicates() {
        let reg = reg();
        let mut slot = Some(Object::new());
        let input = batch_input(0, &[(3, "first"), (7, "mid"), (3, "again")]);
        assert_eq!(call(&reg, &mut slot, "write_batch", &input), Err(-17));
        // All-or-nothing: the earlier members did not sneak in.
        assert_eq!(cell(&reg, &mut slot, 0, 3), Ok(ReadOutcome::NotWritten));
        assert_eq!(cell(&reg, &mut slot, 0, 7), Ok(ReadOutcome::NotWritten));
    }

    #[test]
    fn write_batch_sealed_epoch_rejects_whole_batch() {
        let reg = reg();
        let mut slot = Some(Object::new());
        call(&reg, &mut slot, "seal", "5").unwrap();
        let input = batch_input(4, &[(0, "a"), (4, "b")]);
        assert_eq!(call(&reg, &mut slot, "write_batch", &input), Err(-116));
        assert_eq!(cell(&reg, &mut slot, 5, 0), Ok(ReadOutcome::NotWritten));
        assert_eq!(cell(&reg, &mut slot, 5, 4), Ok(ReadOutcome::NotWritten));
        // The same batch at the sealed epoch is admitted.
        let input = batch_input(5, &[(0, "a"), (4, "b")]);
        assert_eq!(call(&reg, &mut slot, "write_batch", &input), Ok("2".into()));
    }

    #[test]
    fn write_batch_bumps_maxpos_to_highest_member() {
        let reg = reg();
        let mut slot = Some(Object::new());
        let input = batch_input(0, &[(12, "c"), (4, "a"), (8, "b")]);
        call(&reg, &mut slot, "write_batch", &input).unwrap();
        assert_eq!(call(&reg, &mut slot, "maxpos", ""), Ok("12".into()));
        // Seal sees the batched maximum, like any single write.
        assert_eq!(call(&reg, &mut slot, "seal", "1"), Ok("12".into()));
    }

    #[test]
    fn write_batch_bad_inputs_are_einval() {
        let reg = reg();
        let mut slot = Some(Object::new());
        for input in [
            // Not a frame, a cut one, one with bytes left over.
            "",
            "0",
            "0|1|5|10|short",
            "3|1,1,5|05sho",
            "3|1,1,2|05short",
            // A frame, but not {epoch, pos, payload, ...}: empty, epoch
            // alone, a position without its payload, a bad epoch or position.
            "0||",
            "1|1|0",
            "2|1,1|05",
            "4|1,1,1,1|05a6",
            "3|1,1,1|x5a",
            "3|1,1,1|0xa",
            "5|1,1,1,0,1|05a6",
        ] {
            assert_eq!(
                call(&reg, &mut slot, "write_batch", input),
                Err(-22),
                "{input:?}"
            );
        }
        // Nothing was applied by the truncated attempts.
        assert_eq!(call(&reg, &mut slot, "maxpos", ""), Ok("-1".into()));
    }

    /// Lengths count bytes and cut where they fall: a frame whose lengths
    /// end inside multi-byte characters is a batch like any other (it was
    /// `EINVAL` while the script's strings were text), and what is stored
    /// is the bytes that were framed.
    #[test]
    fn write_batch_lengths_cut_bytes_not_characters() {
        fn case<E: Engine>() {
            let kind = type_name::<E>();
            let reg = reg_on::<E>();
            let mut slot = Some(Object::new());
            // {0, 5, "é" and half of the next, 9, its other half}.
            let input = "5|1,1,3,1,1|05\u{e9}\u{e9}";
            let input = [&input.as_bytes()[..17], b"9", &input.as_bytes()[17..]].concat();
            let out = reg.call(ZLOG_CLASS, "write_batch", &mut slot, &input);
            assert_eq!(out.unwrap(), b"2", "{kind:?}");
            assert_eq!(
                rb(&reg, &mut slot, 0, &[5, 9]).unwrap(),
                vec![
                    (5, ReadOutcome::Data(b"\xc3\xa9\xc3".to_vec())),
                    (9, ReadOutcome::Data(b"\xa9".to_vec())),
                ],
                "{kind}"
            );
        }
        case::<Interp>();
        case::<Vm>();
    }

    #[test]
    fn bad_inputs_are_einval() {
        let reg = reg();
        let mut slot = Some(Object::new());
        for method in ["fill", "trim_upto", "checkpoint", "seal"] {
            assert_eq!(call(&reg, &mut slot, method, ""), Err(-22), "{method}");
        }
        assert_eq!(call(&reg, &mut slot, "seal", "x"), Err(-22));
    }

    #[test]
    fn read_methods_declared_readonly() {
        let reg = reg();
        use mala_rados::MethodKind;
        assert_eq!(
            reg.method_kind(ZLOG_CLASS, "read_batch"),
            Some(MethodKind::ReadOnly)
        );
        assert_eq!(
            reg.method_kind(ZLOG_CLASS, "checkpoint_read"),
            Some(MethodKind::ReadOnly)
        );
        assert_eq!(
            reg.method_kind(ZLOG_CLASS, "maxpos"),
            Some(MethodKind::ReadOnly)
        );
        assert_eq!(
            reg.method_kind(ZLOG_CLASS, "write_batch"),
            Some(MethodKind::ReadWrite)
        );
        // `write_batch` is the one write and `read_batch` the one read;
        // trimming is by prefix only.
        for gone in ["write", "read", "trim"] {
            assert_eq!(reg.method_kind(ZLOG_CLASS, gone), None, "{gone}");
        }
        assert_eq!(
            reg.method_kind(ZLOG_CLASS, "seal"),
            Some(MethodKind::ReadWrite)
        );
        assert_eq!(
            reg.method_kind(ZLOG_CLASS, "trim_upto"),
            Some(MethodKind::ReadWrite)
        );
        assert_eq!(
            reg.method_kind(ZLOG_CLASS, "checkpoint"),
            Some(MethodKind::ReadWrite)
        );
    }

    fn rb<E: Engine>(
        reg: &ClassRegistry<E>,
        slot: &mut Option<Object>,
        epoch: u64,
        positions: &[u64],
    ) -> Result<Vec<(u64, ReadOutcome)>, i32> {
        let input = encode_read_batch(epoch, positions);
        match reg.call(ZLOG_CLASS, "read_batch", slot, &input) {
            Ok(out) => Ok(decode_read_batch(&out).unwrap()),
            Err(OsdError::Class(e)) => Err(e.code),
            Err(other) => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn read_batch_spans_every_cell_state() {
        let reg = reg();
        let mut slot = Some(Object::new());
        write(&reg, &mut slot, 0, 0, "early").unwrap();
        write(&reg, &mut slot, 0, 8, "live|data").unwrap();
        call(&reg, &mut slot, "fill", "0|12").unwrap();
        call(&reg, &mut slot, "trim_upto", "0|4").unwrap();
        // One vector covering data, junk, trimmed, and unwritten positions.
        let got = rb(&reg, &mut slot, 0, &[8, 12, 0, 20]).unwrap();
        assert_eq!(
            got,
            vec![
                (8, ReadOutcome::Data(b"live|data".to_vec())),
                (12, ReadOutcome::Filled),
                (0, ReadOutcome::Trimmed),
                (20, ReadOutcome::NotWritten),
            ]
        );
    }

    #[test]
    fn read_batch_rejects_stale_epoch_wholesale() {
        let reg = reg();
        let mut slot = Some(Object::new());
        write(&reg, &mut slot, 0, 0, "x").unwrap();
        call(&reg, &mut slot, "seal", "4").unwrap();
        assert_eq!(rb(&reg, &mut slot, 3, &[0, 4]), Err(-116));
        assert!(rb(&reg, &mut slot, 4, &[0]).is_ok());
    }

    #[test]
    fn read_batch_bad_inputs_are_einval() {
        let reg = reg();
        let mut slot = Some(Object::new());
        for input in ["", "0|", "0|x", "x|1", "0|1,,2"] {
            assert_eq!(call(&reg, &mut slot, "read_batch", input), Err(-22));
        }
    }

    #[test]
    fn trim_upto_trims_prefix_and_purges_entries() {
        let reg = reg();
        let mut slot = Some(Object::new());
        for pos in [0u64, 4, 8, 12] {
            write(&reg, &mut slot, 0, pos, &format!("v{pos}")).unwrap();
        }
        // Trim everything through position 8: three entries purged.
        assert_eq!(call(&reg, &mut slot, "trim_upto", "0|8"), Ok("3".into()));
        assert_eq!(cell(&reg, &mut slot, 0, 0), Ok(ReadOutcome::Trimmed));
        assert_eq!(cell(&reg, &mut slot, 0, 8), Ok(ReadOutcome::Trimmed));
        assert_eq!(cell(&reg, &mut slot, 0, 12), data("v12"));
        // Positions under the watermark read trimmed even if never written.
        assert_eq!(cell(&reg, &mut slot, 0, 6), Ok(ReadOutcome::Trimmed));
        let got = rb(&reg, &mut slot, 0, &[4, 12]).unwrap();
        assert_eq!(
            got,
            vec![
                (4, ReadOutcome::Trimmed),
                (12, ReadOutcome::Data(b"v12".to_vec())),
            ]
        );
        // Idempotent / monotone: re-trimming a covered prefix purges nothing.
        assert_eq!(call(&reg, &mut slot, "trim_upto", "0|4"), Ok("0".into()));
        assert_eq!(cell(&reg, &mut slot, 0, 12), data("v12"));
    }

    #[test]
    fn trimmed_prefix_rejects_rewrites_and_fills() {
        let reg = reg();
        let mut slot = Some(Object::new());
        write(&reg, &mut slot, 0, 4, "x").unwrap();
        call(&reg, &mut slot, "trim_upto", "0|8").unwrap();
        assert_eq!(write(&reg, &mut slot, 0, 4, "late"), Err(-17));
        assert_eq!(write(&reg, &mut slot, 0, 8, "late"), Err(-17));
        assert_eq!(call(&reg, &mut slot, "fill", "0|0"), Err(-17));
        let input = batch_input(0, &[(8, "under"), (12, "over")]);
        assert_eq!(call(&reg, &mut slot, "write_batch", &input), Err(-17));
        assert_eq!(cell(&reg, &mut slot, 0, 12), Ok(ReadOutcome::NotWritten));
        // Writes strictly above the watermark still land.
        assert_eq!(write(&reg, &mut slot, 0, 12, "ok"), Ok("1".into()));
    }

    #[test]
    fn trim_upto_bumps_maxpos_and_respects_seal() {
        let reg = reg();
        let mut slot = Some(Object::new());
        call(&reg, &mut slot, "trim_upto", "0|20").unwrap();
        assert_eq!(call(&reg, &mut slot, "maxpos", ""), Ok("20".into()));
        call(&reg, &mut slot, "seal", "2").unwrap();
        assert_eq!(call(&reg, &mut slot, "trim_upto", "1|40"), Err(-116));
        assert_eq!(cell(&reg, &mut slot, 2, 40), Ok(ReadOutcome::NotWritten));
    }

    /// `checkpoint` with the framed `{epoch, pos, blob}`.
    fn checkpoint(
        reg: &ClassRegistry,
        slot: &mut Option<Object>,
        epoch: u64,
        pos: u64,
        blob: &str,
    ) -> Result<String, i32> {
        let input = encode_checkpoint(epoch, pos, blob.as_bytes());
        call(reg, slot, "checkpoint", &String::from_utf8(input).unwrap())
    }

    fn held_checkpoint(reg: &ClassRegistry, slot: &mut Option<Object>) -> Option<(u64, Vec<u8>)> {
        let out = call(reg, slot, "checkpoint_read", "").unwrap();
        decode_checkpoint(out.as_bytes()).unwrap()
    }

    #[test]
    fn checkpoint_is_monotone() {
        let reg = reg();
        let mut slot = Some(Object::new());
        // Before the first checkpoint the reply is the empty list.
        assert_eq!(
            call(&reg, &mut slot, "checkpoint_read", ""),
            Ok("0||".into())
        );
        assert_eq!(held_checkpoint(&reg, &mut slot), None);
        assert_eq!(
            checkpoint(&reg, &mut slot, 0, 100, "state@100"),
            Ok("100".into())
        );
        // An older snapshot cannot roll the checkpoint back.
        assert_eq!(
            checkpoint(&reg, &mut slot, 0, 60, "state@60"),
            Ok("100".into())
        );
        assert_eq!(
            held_checkpoint(&reg, &mut slot),
            Some((100, b"state@100".to_vec()))
        );
        // A newer one advances it, and blobs may contain separators.
        assert_eq!(
            checkpoint(&reg, &mut slot, 0, 250, "a|b|c"),
            Ok("250".into())
        );
        assert_eq!(
            call(&reg, &mut slot, "checkpoint_read", ""),
            Ok("2|3,5|250a|b|c".into())
        );
        assert_eq!(
            held_checkpoint(&reg, &mut slot),
            Some((250, b"a|b|c".to_vec()))
        );
    }

    #[test]
    fn checkpoint_checks_epoch_and_input() {
        let reg = reg();
        let mut slot = Some(Object::new());
        call(&reg, &mut slot, "seal", "3").unwrap();
        assert_eq!(checkpoint(&reg, &mut slot, 2, 10, "s"), Err(-116));
        for input in [
            // Not a frame, a cut one, one with bytes left over.
            "",
            "0|1|5|10|short",
            "3|1,2,5|310sho",
            "3|1,2,1|310sx",
            // A frame, but not {epoch, pos, blob}: empty, two or four
            // items, a bad epoch or position.
            "0||",
            "2|1,2|310",
            "4|1,2,1,1|310sx",
            "3|1,2,1|x10s",
            "3|1,2,1|31xs",
        ] {
            assert_eq!(
                call(&reg, &mut slot, "checkpoint", input),
                Err(-22),
                "{input:?}"
            );
        }
        assert_eq!(held_checkpoint(&reg, &mut slot), None);
    }

    #[test]
    fn checkpoint_helpers_round_trip() {
        assert_eq!(encode_checkpoint(7, 250, b"a|b"), b"3|1,3,3|7250a|b");
        assert_eq!(decode_checkpoint(b"0||"), Ok(None));
        assert_eq!(
            decode_checkpoint(b"2|2,2|12\xff|"),
            Ok(Some((12, b"\xff|".to_vec())))
        );
        for bad in [
            &b"-1|0|"[..],
            b"1|2|12",
            b"2|2,0|-1",
            b"2|1,0|x",
            b"3|1,0,0|1",
        ] {
            assert!(
                decode_checkpoint(bad).is_err(),
                "{:?}",
                String::from_utf8_lossy(bad)
            );
        }
    }

    #[test]
    fn read_batch_roundtrip_helpers() {
        assert_eq!(
            String::from_utf8(encode_read_batch(7, &[1, 33, 65])).unwrap(),
            "7|1,33,65"
        );
        // The reply is the frame of {csv, v1, .., vn}.
        let reply = b"4|5,7,2,2|1,2,3D|ab|cdU|T|";
        assert_eq!(
            decode_read_batch(reply).unwrap(),
            vec![
                (1, ReadOutcome::Data(b"ab|cd".to_vec())),
                (2, ReadOutcome::NotWritten),
                (3, ReadOutcome::Trimmed),
            ]
        );
        assert_eq!(
            decode_read_batch(b"3|3,2,2|5,6F|D|").unwrap(),
            vec![(5, ReadOutcome::Filled), (6, ReadOutcome::Data(Vec::new()))]
        );
        // Payloads are bytes: never read as text, copied as they are.
        assert_eq!(
            decode_read_batch(b"2|1,4|9D|\xff\xc3").unwrap(),
            vec![(9, ReadOutcome::Data(b"\xff\xc3".to_vec()))]
        );
        assert!(decode_read_batch(b"2|1,9|5D|short").is_err());
        assert!(decode_read_batch(b"2|1,2|5X|").is_err());
        assert!(decode_read_batch(b"junk").is_err());
        // A count the reply cannot hold is refused before allocating for it.
        assert!(decode_read_batch(b"18446744073709551615|1,2|5U|").is_err());
        // Lengths count bytes: one that ends inside a character takes its
        // first byte and leaves the rest over.
        assert!(decode_read_batch("2|1,3|5D|\u{e9}".as_bytes()).is_err());
        assert_eq!(
            decode_read_batch("2|1,4|5D|\u{e9}".as_bytes()).unwrap(),
            vec![(5, ReadOutcome::Data("\u{e9}".as_bytes().to_vec()))]
        );
    }

    /// Every way a reply can disagree with itself is the malformed reply
    /// the client re-issues the vector for, never a partial answer.
    #[test]
    fn decode_read_batch_refuses_malformed_replies() {
        for (bad, why) in [
            (&b"0||"[..], "no echo"),
            (b"1|3|1,2", "positions without values"),
            (b"2|3,2|1,2U|", "fewer values than positions"),
            (b"3|1,2,2|1U|U|", "more values than positions"),
            (b"2|0,2|U|", "empty echo"),
            (b"2|2,2|1,U|", "empty position"),
            (b"2|1,2|xU|", "non-numeric position"),
            (b"2|2,2|-1U|", "negative position"),
            (b"2|1,2|1X|", "unknown tag"),
            (b"2|1,2|1d|", "lower-case tag"),
            (b"2|1,1|1D", "one-byte value"),
            (b"2|1,0|1", "empty value"),
            (b"2|1,2|1DD", "tag without its separator"),
            (b"2|1,2|1U|U|", "trailing bytes"),
            (b"2|1,2|\xffU|", "echo that is not text"),
        ] {
            assert!(
                decode_read_batch(bad).is_err(),
                "{why}: {:?}",
                String::from_utf8_lossy(bad)
            );
        }
    }

    /// What the class answers is what `decode_read_batch` reads, and
    /// `encode_write_batch` frames what `write_batch` stores — payloads
    /// with separators, multi-byte text and bytes that are no text at all
    /// included, byte for byte, on both engines.
    #[test]
    fn batch_helpers_round_trip_through_the_class() {
        const PAYLOADS: [&[u8]; 7] = [
            b"plain",
            b"",
            b"a|b,c|",
            "h\u{e9}llo \u{2603}".as_bytes(),
            b"3|1,1,1|abc",
            b"bad \xff utf8",
            b"\xed\xa0\x80\0\xa9",
        ];
        fn case<E: Engine>() {
            let reg = reg_on::<E>();
            let mut slot = None;
            let entries: Vec<(u64, &[u8])> = PAYLOADS
                .iter()
                .enumerate()
                .map(|(i, p)| (i as u64 * 4, *p))
                .collect();
            let out = reg
                .call(
                    ZLOG_CLASS,
                    "write_batch",
                    &mut slot,
                    &encode_write_batch(0, &entries),
                )
                .unwrap();
            assert_eq!(out, b"7");
            let positions: Vec<u64> = (0..8).map(|i| i * 4).collect();
            let mut want: Vec<(u64, ReadOutcome)> = entries
                .iter()
                .map(|(pos, p)| (*pos, ReadOutcome::Data(p.to_vec())))
                .collect();
            want.push((28, ReadOutcome::NotWritten));
            assert_eq!(
                rb(&reg, &mut slot, 0, &positions).unwrap(),
                want,
                "{}",
                type_name::<E>()
            );
        }
        case::<Interp>();
        case::<Vm>();
    }

    /// Arbitrary payloads through every data-carrying method of the class,
    /// on both engines: what goes in by a one-entry or a longer
    /// `write_batch`, or by `checkpoint`, comes out of a one-position or a
    /// longer `read_batch` and out of `checkpoint_read` as the same bytes.
    mod any_payload {
        use super::*;
        use proptest::prelude::*;

        /// Bytes no text holds, the bytes the wire formats' separators are
        /// made of, and anything else.
        fn payload() -> impl Strategy<Value = Vec<u8>> {
            prop_oneof![
                Just(b"\xff".to_vec()),
                Just(b"\xa9\xa9".to_vec()),
                Just(b"\xed\xa0\x80".to_vec()),
                Just(b"ok\xc3".to_vec()),
                Just(b"|,\0|1,2|".to_vec()),
                prop::collection::vec(
                    prop_oneof![Just(b'|'), Just(b','), Just(0u8), Just(0xffu8), any::<u8>()],
                    0..48
                ),
            ]
        }

        /// One case on one engine.
        fn round_trip<E: Engine>(
            single: &[u8],
            batch: &[Vec<u8>],
            blob: &[u8],
        ) -> Result<(), TestCaseError> {
            let reg = reg_on::<E>();
            let call = |slot: &mut Option<Object>, method: &str, input: &[u8]| {
                reg.call(ZLOG_CLASS, method, slot, input)
                    .unwrap_or_else(|e| panic!("{} {method}: {e:?}", type_name::<E>()))
            };
            let mut slot = None;
            let write = encode_write_batch(0, &[(0, single)]);
            prop_assert_eq!(call(&mut slot, "write_batch", &write), b"1");
            let entries: Vec<(u64, &[u8])> = batch
                .iter()
                .enumerate()
                .map(|(i, p)| (4 + 4 * i as u64, p.as_slice()))
                .collect();
            let wrote = call(&mut slot, "write_batch", &encode_write_batch(0, &entries));
            prop_assert_eq!(wrote, batch.len().to_string().into_bytes());

            let one = decode_read_batch(&call(&mut slot, "read_batch", b"0|0")).unwrap();
            prop_assert_eq!(one, vec![(0, ReadOutcome::Data(single.to_vec()))]);
            let positions: Vec<u64> = (0..=batch.len() as u64).map(|i| 4 * i).collect();
            let reply = call(&mut slot, "read_batch", &encode_read_batch(0, &positions));
            let mut want = vec![(0, ReadOutcome::Data(single.to_vec()))];
            want.extend(
                entries
                    .iter()
                    .map(|(pos, p)| (*pos, ReadOutcome::Data(p.to_vec()))),
            );
            prop_assert_eq!(decode_read_batch(&reply).unwrap(), want);

            // The checkpoint lives on an object of its own.
            let mut ckpt = None;
            call(&mut ckpt, "checkpoint", &encode_checkpoint(0, 9, blob));
            let held = call(&mut ckpt, "checkpoint_read", b"");
            prop_assert_eq!(decode_checkpoint(&held).unwrap(), Some((9, blob.to_vec())));
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            #[test]
            fn the_class_returns_the_bytes_it_was_given(
                single in payload(),
                batch in prop::collection::vec(payload(), 1..6),
                blob in payload(),
            ) {
                round_trip::<Interp>(&single, &batch, &blob)?;
                round_trip::<Vm>(&single, &batch, &blob)?;
            }
        }
    }
}

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
mod tests;

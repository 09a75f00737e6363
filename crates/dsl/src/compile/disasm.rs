//! The disassembler behind the blessed snapshots.

use std::fmt::Write as _;

use super::{Chunk, Op, Proto, UpvalDesc};
use crate::value::{Key, Value};

impl Chunk {
    /// Renders the whole chunk as reviewable assembly, one section per
    /// proto (depth-first), with operand annotations. Deterministic, so
    /// codegen changes show up as golden-file diffs.
    pub fn disassemble(&self) -> String {
        let mut out = String::new();
        disasm_proto(&self.main, "main", &mut out);
        out
    }
}

fn disasm_proto(p: &Proto, path: &str, out: &mut String) {
    let _ = writeln!(out, "== {path} ({}) ==", p.params.join(", "));
    let (slots, boxes, upvals) = (p.n_slots, p.n_boxes, p.upvals.len());
    let _ = writeln!(out, "  slots={slots} boxes={boxes} upvals={upvals}");
    let konst = |k: usize| match &p.consts[k] {
        c @ Value::Str(_) => format!("{:?}", c.display()),
        other => other.display(),
    };
    let key = |k: u16| match &p.keys[k as usize] {
        Key::Int(n) => format!("[{n}]"),
        key @ Key::Str(_) => format!(".{key}"),
    };
    for k in 0..p.consts.len() {
        let _ = writeln!(out, "  k{k} = {}", konst(k));
    }
    for k in 0..p.keys.len() {
        let _ = writeln!(out, "  key[{k}] = {}", key(k as u16));
    }
    for (i, n) in p.names.iter().enumerate() {
        let _ = writeln!(out, "  name[{i}] = {n}");
    }
    for (i, u) in p.upvals.iter().enumerate() {
        let _ = match u {
            UpvalDesc::ParentBox(b) => writeln!(out, "  upval[{i}] = parent box {b}"),
            UpvalDesc::ParentUpval(v) => writeln!(out, "  upval[{i}] = parent upval {v}"),
        };
    }
    for (i, op) in p.code.iter().enumerate() {
        let text = format!("{op:?}");
        let mut notes = Vec::new();
        match op {
            Op::GetConst { key: k, .. }
            | Op::SetConst { key: k, .. }
            | Op::TableSetConst { key: k, .. } => notes.push(key(*k)),
            Op::LoadGlobal { name, .. } | Op::StoreGlobal { name, .. } => {
                notes.push(p.names[*name as usize].to_string())
            }
            Op::Closure { proto, .. } => notes.push(p.protos[*proto as usize].name.clone()),
            _ => {}
        }
        // An `Rk` prints as `r3` or `k1`: spell out the constants.
        for word in text.split(|c: char| !c.is_ascii_alphanumeric()) {
            if let Some(k) = word.strip_prefix('k').and_then(|d| d.parse().ok()) {
                notes.push(konst(k));
            }
        }
        let _ = write!(out, "  {i:4}  {text}");
        for note in notes {
            let _ = write!(out, " ; {note}");
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(out);
    for child in &p.protos {
        disasm_proto(child, &format!("{path}/{}", child.name), out);
    }
}

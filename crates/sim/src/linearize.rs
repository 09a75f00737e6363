//! Wing & Gong (WGL) linearizability checking over recorded histories.
//!
//! The checker searches for a *linearization*: a total order of the
//! history's operations that (a) respects real-time order — if op A's
//! response precedes op B's invocation, A orders before B — and (b) is a
//! legal run of a pluggable [`SequentialModel`]. `fail` operations are
//! excluded (they definitely did not apply); `info` operations are
//! *optional* — each one may be linearized anywhere after its invocation
//! or dropped entirely, which is exactly the possibly-applied semantics of
//! a timed-out write.
//!
//! The search memoizes (linearized-set, model-state) pairs à la Lowe, and
//! callers keep it tractable by partitioning: a shared log splits
//! per-position ([`check_shared_log`]), a keyed register store per key
//! ([`check_registers`]). On failure the checker reports the longest
//! linearizable prefix it found plus the residual *stuck window* as an
//! event timeline — the minimal counterexample to stare at.

use std::collections::BTreeMap;
use std::hash::Hash;

use crate::history::{Operation, Outcome};

/// A sequential specification the checker validates histories against.
pub trait SequentialModel {
    /// Operation type.
    type Op;
    /// Return-value type.
    type Ret;
    /// Abstract state; cloned and hashed by the memoized search.
    type State: Clone + Eq + Hash;

    /// Initial state.
    fn init(&self) -> Self::State;

    /// All states the model may enter when `op` linearizes in `state`
    /// yielding `ret` (`None` when the return is unknown — an ambiguous
    /// op that applied). Empty means `op` cannot linearize here.
    fn step(&self, state: &Self::State, op: &Self::Op, ret: Option<&Self::Ret>)
        -> Vec<Self::State>;
}

/// Search statistics from a successful check.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckStats {
    /// Partitions checked.
    pub partitions: usize,
    /// Operations checked (fail ops excluded).
    pub ops: usize,
    /// Search nodes visited across all partitions.
    pub visited: usize,
}

/// A linearizability violation: the residual window that cannot be
/// ordered against any legal sequential run.
#[derive(Debug, Clone)]
pub struct Counterexample<O, R> {
    /// Which partition failed (e.g. `pos 7`, `ino 3`).
    pub partition: String,
    /// Size of the longest linearizable subset the search found.
    pub linearized: usize,
    /// Total candidate ops in the partition.
    pub total: usize,
    /// Ops the search could linearize (the consistent prefix), in
    /// invocation order.
    pub prefix: Vec<Operation<O, R>>,
    /// Ops left over once the search was stuck, in invocation order —
    /// the minimal failing window.
    pub stuck: Vec<Operation<O, R>>,
}

impl<O: std::fmt::Debug, R: std::fmt::Debug> std::fmt::Display for Counterexample<O, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "linearizability violation in partition [{}]: only {}/{} ops linearizable",
            self.partition, self.linearized, self.total
        )?;
        if !self.prefix.is_empty() {
            writeln!(f, "  longest linearizable prefix:")?;
            for op in &self.prefix {
                writeln!(f, "    {op}")?;
            }
        }
        writeln!(f, "  stuck window (no legal linearization point):")?;
        for op in &self.stuck {
            writeln!(f, "    {op}")?;
        }
        Ok(())
    }
}

struct Entry<'a, O, R> {
    op: &'a Operation<O, R>,
    invoked: u64,
    response: u64,
    /// Ok ops must linearize; info ops are optional.
    required: bool,
    ret: Option<&'a R>,
}

/// A check outcome: stats on success, boxed counterexample on failure.
pub type CheckResult<Op, Ret> = Result<CheckStats, Box<Counterexample<Op, Ret>>>;

/// Checks one partition of a history against `model`.
///
/// `fail` ops are dropped before the search. Returns the visited-node
/// count on success; on failure, the counterexample window.
pub fn check<M: SequentialModel>(
    model: &M,
    ops: &[Operation<M::Op, M::Ret>],
    partition: &str,
) -> CheckResult<M::Op, M::Ret>
where
    M::Op: Clone + std::fmt::Debug,
    M::Ret: Clone + std::fmt::Debug,
{
    let mut entries: Vec<Entry<'_, M::Op, M::Ret>> = ops
        .iter()
        .filter_map(|op| match &op.outcome {
            Outcome::Fail { .. } => None,
            Outcome::Ok { ret, .. } => Some(Entry {
                op,
                invoked: op.invoked.as_micros(),
                response: op.response_micros(),
                required: true,
                ret: Some(ret),
            }),
            Outcome::Info { maybe, .. } => Some(Entry {
                op,
                invoked: op.invoked.as_micros(),
                response: u64::MAX,
                required: false,
                ret: maybe.as_ref(),
            }),
        })
        .collect();
    entries.sort_by_key(|e| (e.invoked, e.op.id));

    let n = entries.len();
    let required_total = entries.iter().filter(|e| e.required).count();
    let mut search = Search {
        model,
        entries: &entries,
        memo: Memo::default(),
        visited: 0,
        best: vec![false; n],
        best_count: 0,
    };
    let mut done = vec![false; n];
    let init = model.init();
    if search.dfs(&mut done, 0, required_total, &init) {
        return Ok(CheckStats {
            partitions: 1,
            ops: n,
            visited: search.visited,
        });
    }
    let mut prefix = Vec::new();
    let mut stuck = Vec::new();
    for (i, entry) in entries.iter().enumerate() {
        if search.best[i] {
            prefix.push(entry.op.clone());
        } else {
            stuck.push(entry.op.clone());
        }
    }
    Err(Box::new(Counterexample {
        partition: partition.to_string(),
        linearized: search.best_count,
        total: n,
        prefix,
        stuck,
    }))
}

// Membership only, so no order reaches a result. It keys whole model
// states on the host-timed check path, so its hasher stays std's.
#[allow(clippy::disallowed_types)]
type Memo<S> = std::collections::HashSet<(Vec<u64>, S)>;

struct Search<'a, M: SequentialModel> {
    model: &'a M,
    entries: &'a [Entry<'a, M::Op, M::Ret>],
    memo: Memo<M::State>,
    visited: usize,
    best: Vec<bool>,
    best_count: usize,
}

impl<'a, M: SequentialModel> Search<'a, M> {
    fn dfs(
        &mut self,
        done: &mut [bool],
        done_count: usize,
        required_left: usize,
        state: &M::State,
    ) -> bool {
        self.visited += 1;
        if done_count > self.best_count {
            self.best_count = done_count;
            self.best.copy_from_slice(done);
        }
        if required_left == 0 {
            // Every ok op linearized; leftover info ops simply never
            // applied.
            return true;
        }
        let key = (pack(done), state.clone());
        if !self.memo.insert(key) {
            return false;
        }
        // An op may linearize next iff no other un-linearized op responded
        // before it was invoked (real-time order).
        let min_response = self
            .entries
            .iter()
            .enumerate()
            .filter(|(i, _)| !done[*i])
            .map(|(_, e)| e.response)
            .min()
            .unwrap_or(u64::MAX);
        for i in 0..self.entries.len() {
            if done[i] || self.entries[i].invoked > min_response {
                continue;
            }
            let entry = &self.entries[i];
            for next in self.model.step(state, &entry.op.op, entry.ret) {
                done[i] = true;
                let left = required_left - usize::from(entry.required);
                if self.dfs(done, done_count + 1, left, &next) {
                    return true;
                }
                done[i] = false;
            }
        }
        false
    }
}

fn pack(done: &[bool]) -> Vec<u64> {
    let mut words = vec![0u64; done.len().div_ceil(64)];
    for (i, &d) in done.iter().enumerate() {
        if d {
            words[i / 64] |= 1 << (i % 64);
        }
    }
    words
}

// ---------------------------------------------------------------------------
// Shared-log model (ZLog / CORFU semantics)
// ---------------------------------------------------------------------------

/// Client-visible ZLog operations.
#[derive(Clone, PartialEq, Eq)]
pub enum LogOp {
    /// Append a payload (position assigned by the sequencer).
    Append {
        /// Entry payload.
        data: Vec<u8>,
    },
    /// Read one position.
    Read {
        /// Position read.
        pos: u64,
    },
    /// Junk-fill one position.
    Fill {
        /// Position filled.
        pos: u64,
    },
    /// Trim one position.
    Trim {
        /// Position trimmed.
        pos: u64,
    },
    /// Prefix trim: every position strictly below `pos` becomes trimmed
    /// (the client's `trim_to`, fanned out as per-stripe watermarks).
    TrimTo {
        /// First position left untrimmed.
        pos: u64,
    },
    /// Read the sequencer tail without advancing it.
    ReadTail,
}

impl std::fmt::Debug for LogOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogOp::Append { data } => {
                write!(f, "append({:?})", String::from_utf8_lossy(data))
            }
            LogOp::Read { pos } => write!(f, "read({pos})"),
            LogOp::Fill { pos } => write!(f, "fill({pos})"),
            LogOp::Trim { pos } => write!(f, "trim({pos})"),
            LogOp::TrimTo { pos } => write!(f, "trim_to({pos})"),
            LogOp::ReadTail => write!(f, "tail()"),
        }
    }
}

/// What a ZLog read observed, as the model sees it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LogRead {
    /// Entry data.
    Data(Vec<u8>),
    /// Junk-filled.
    Filled,
    /// Trimmed.
    Trimmed,
    /// Nothing written yet.
    NotWritten,
}

/// ZLog return values.
#[derive(Clone, PartialEq, Eq)]
pub enum LogRet {
    /// Append: assigned position.
    Pos(u64),
    /// Read outcome.
    Read(LogRead),
    /// Fill/trim acknowledgement.
    Done,
    /// Tail value.
    Tail(u64),
}

impl std::fmt::Debug for LogRet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogRet::Pos(p) => write!(f, "pos {p}"),
            LogRet::Read(LogRead::Data(d)) => {
                write!(f, "data {:?}", String::from_utf8_lossy(d))
            }
            LogRet::Read(r) => write!(f, "{r:?}"),
            LogRet::Done => write!(f, "done"),
            LogRet::Tail(t) => write!(f, "tail {t}"),
        }
    }
}

/// One log cell's abstract state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Cell {
    /// Never written.
    Unwritten,
    /// Holds an appended payload.
    Data(Vec<u8>),
    /// Junk-filled.
    Filled,
    /// Trimmed.
    Trimmed,
}

/// Sequential spec of a single write-once log cell, mirroring the
/// storage class: appends land only on unwritten cells, fills land on
/// unwritten cells and are idempotent on filled ones (but bounce off
/// data/trimmed cells), trims always succeed, reads report the cell.
#[derive(Debug, Default)]
pub struct SharedLogModel;

impl SequentialModel for SharedLogModel {
    type Op = LogOp;
    type Ret = LogRet;
    type State = Cell;

    fn init(&self) -> Cell {
        Cell::Unwritten
    }

    fn step(&self, state: &Cell, op: &LogOp, ret: Option<&LogRet>) -> Vec<Cell> {
        match op {
            LogOp::Append { data } => match state {
                Cell::Unwritten => vec![Cell::Data(data.clone())],
                _ => Vec::new(),
            },
            LogOp::Read { .. } => {
                let Some(LogRet::Read(seen)) = ret else {
                    // Unknown return: the read observed *something*
                    // consistent; reads never change state.
                    return vec![state.clone()];
                };
                let renders = match (state, seen) {
                    (Cell::Unwritten, LogRead::NotWritten) => true,
                    (Cell::Data(d), LogRead::Data(s)) => d == s,
                    (Cell::Filled, LogRead::Filled) => true,
                    (Cell::Trimmed, LogRead::Trimmed) => true,
                    _ => false,
                };
                if renders {
                    vec![state.clone()]
                } else {
                    Vec::new()
                }
            }
            LogOp::Fill { .. } => match state {
                Cell::Unwritten | Cell::Filled => vec![Cell::Filled],
                _ => Vec::new(),
            },
            // A prefix trim reaches this cell only when the partitioning
            // placed it here (cell position < trim point), where it acts
            // as a plain trim.
            LogOp::Trim { .. } | LogOp::TrimTo { .. } => vec![Cell::Trimmed],
            LogOp::ReadTail => Vec::new(),
        }
    }
}

/// Sequential spec of the tail as observed through acknowledged appends:
/// an acked append at `p` proves the sequencer passed `p`, so any later
/// tail read must return at least `p + 1`. Tail reads do not ratchet the
/// floor themselves — a failover legitimately restores the tail from the
/// sealed maxpos, below burned-but-unwritten grants.
#[derive(Debug, Default)]
pub struct LogTailModel;

impl SequentialModel for LogTailModel {
    type Op = LogOp;
    type Ret = LogRet;
    type State = u64;

    fn init(&self) -> u64 {
        0
    }

    fn step(&self, state: &u64, op: &LogOp, ret: Option<&LogRet>) -> Vec<u64> {
        match (op, ret) {
            (LogOp::Append { .. }, Some(LogRet::Pos(p))) => vec![(*state).max(p + 1)],
            (LogOp::Append { .. }, _) => Vec::new(),
            (LogOp::ReadTail, Some(LogRet::Tail(t))) => {
                if *t >= *state {
                    vec![*state]
                } else {
                    Vec::new()
                }
            }
            (LogOp::ReadTail, None) => vec![*state],
            _ => Vec::new(),
        }
    }
}

/// Partition key of a log op: the position it touches, if known.
fn log_position(op: &Operation<LogOp, LogRet>) -> Option<u64> {
    match &op.op {
        LogOp::Read { pos } | LogOp::Fill { pos } | LogOp::Trim { pos } => Some(*pos),
        LogOp::Append { .. } => match &op.outcome {
            Outcome::Ok {
                ret: LogRet::Pos(p),
                ..
            } => Some(*p),
            Outcome::Info {
                maybe: Some(LogRet::Pos(p)),
                ..
            } => Some(*p),
            _ => None,
        },
        // Spans many positions; included per-partition by the checker.
        LogOp::TrimTo { .. } => None,
        LogOp::ReadTail => None,
    }
}

/// Checks a full ZLog history: every position's ops against
/// [`SharedLogModel`], plus the tail projection (acked appends and tail
/// reads) against [`LogTailModel`]. Appends whose position is unknown
/// (ambiguous before any write was issued) constrain nothing and are
/// skipped.
pub fn check_shared_log(ops: &[Operation<LogOp, LogRet>]) -> CheckResult<LogOp, LogRet> {
    let mut by_pos: BTreeMap<u64, Vec<Operation<LogOp, LogRet>>> = BTreeMap::new();
    let mut tail: Vec<Operation<LogOp, LogRet>> = Vec::new();
    for op in ops {
        if let Some(pos) = log_position(op) {
            by_pos.entry(pos).or_default().push(op.clone());
        }
        match &op.op {
            LogOp::ReadTail => tail.push(op.clone()),
            LogOp::Append { .. } if log_position(op).is_some() => {
                tail.push(op.clone());
            }
            _ => {}
        }
    }
    // A prefix trim joins the partition of every cell it covers: a read
    // at any position below the trim point may legally observe Trimmed
    // once the trim linearizes.
    for op in ops {
        if let LogOp::TrimTo { pos } = &op.op {
            for (cell, part) in by_pos.range_mut(..*pos) {
                let _ = cell;
                part.push(op.clone());
            }
        }
    }
    let mut stats = CheckStats::default();
    for (pos, part) in &by_pos {
        let s = check(&SharedLogModel, part, &format!("pos {pos}"))?;
        stats.partitions += 1;
        stats.ops += s.ops;
        stats.visited += s.visited;
    }
    let s = check(&LogTailModel, &tail, "tail")?;
    stats.partitions += 1;
    stats.ops += s.ops;
    stats.visited += s.visited;
    Ok(stats)
}

// ---------------------------------------------------------------------------
// Keyed register model (cap-protected embedded metadata)
// ---------------------------------------------------------------------------

/// Operations on cap-protected per-inode metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegOp {
    /// Write back embedded state under a capability.
    Write {
        /// Inode key.
        key: u64,
        /// Value written.
        value: u64,
    },
    /// Observe the embedded state (e.g. at cap-grant time).
    Read {
        /// Inode key.
        key: u64,
    },
}

/// Register returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegRet {
    /// Write acknowledged.
    Written,
    /// Observed value.
    Value(u64),
}

/// Sequential spec of the embedded-state register: writes merge by
/// maximum (the MDS only moves embedded state forward), reads return the
/// current value.
#[derive(Debug, Default)]
pub struct RegisterModel;

impl SequentialModel for RegisterModel {
    type Op = RegOp;
    type Ret = RegRet;
    type State = u64;

    fn init(&self) -> u64 {
        0
    }

    fn step(&self, state: &u64, op: &RegOp, ret: Option<&RegRet>) -> Vec<u64> {
        match (op, ret) {
            (RegOp::Write { value, .. }, _) => vec![(*state).max(*value)],
            (RegOp::Read { .. }, Some(RegRet::Value(v))) => {
                if v == state {
                    vec![*state]
                } else {
                    Vec::new()
                }
            }
            (RegOp::Read { .. }, _) => vec![*state],
        }
    }
}

/// Checks a keyed register history, partitioned per key.
pub fn check_registers(ops: &[Operation<RegOp, RegRet>]) -> CheckResult<RegOp, RegRet> {
    let mut by_key: BTreeMap<u64, Vec<Operation<RegOp, RegRet>>> = BTreeMap::new();
    for op in ops {
        let key = match &op.op {
            RegOp::Write { key, .. } | RegOp::Read { key } => *key,
        };
        by_key.entry(key).or_default().push(op.clone());
    }
    let mut stats = CheckStats::default();
    for (key, part) in &by_key {
        let s = check(&RegisterModel, part, &format!("ino {key}"))?;
        stats.partitions += 1;
        stats.ops += s.ops;
        stats.visited += s.visited;
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::Recorder;
    use crate::time::SimTime;

    fn us(v: u64) -> SimTime {
        SimTime::from_micros(v)
    }

    #[test]
    fn sequential_log_history_linearizes() {
        let rec: Recorder<LogOp, LogRet> = Recorder::new();
        let a = rec.invoke(1, us(10), LogOp::Append { data: b"x".into() });
        rec.ok(a, us(20), LogRet::Pos(0));
        let r = rec.invoke(1, us(30), LogOp::Read { pos: 0 });
        rec.ok(r, us(40), LogRet::Read(LogRead::Data(b"x".into())));
        let t = rec.invoke(2, us(50), LogOp::ReadTail);
        rec.ok(t, us(60), LogRet::Tail(1));
        assert!(check_shared_log(&rec.operations()).is_ok());
    }

    #[test]
    fn duplicate_acked_position_is_caught() {
        let rec: Recorder<LogOp, LogRet> = Recorder::new();
        let a = rec.invoke(1, us(10), LogOp::Append { data: b"a".into() });
        rec.ok(a, us(20), LogRet::Pos(3));
        let b = rec.invoke(2, us(30), LogOp::Append { data: b"b".into() });
        rec.ok(b, us(40), LogRet::Pos(3));
        let err = check_shared_log(&rec.operations()).unwrap_err();
        assert_eq!(err.partition, "pos 3");
        let rendered = err.to_string();
        assert!(rendered.contains("stuck window"), "{rendered}");
    }

    #[test]
    fn read_must_observe_preceding_append() {
        let rec: Recorder<LogOp, LogRet> = Recorder::new();
        let a = rec.invoke(1, us(10), LogOp::Append { data: b"a".into() });
        rec.ok(a, us(20), LogRet::Pos(0));
        // Strictly after the append's response, yet sees nothing: stale.
        let r = rec.invoke(2, us(30), LogOp::Read { pos: 0 });
        rec.ok(r, us(40), LogRet::Read(LogRead::NotWritten));
        assert!(check_shared_log(&rec.operations()).is_err());
    }

    #[test]
    fn concurrent_read_may_miss_append() {
        let rec: Recorder<LogOp, LogRet> = Recorder::new();
        let a = rec.invoke(1, us(10), LogOp::Append { data: b"a".into() });
        let r = rec.invoke(2, us(15), LogOp::Read { pos: 0 });
        rec.ok(r, us(18), LogRet::Read(LogRead::NotWritten));
        rec.ok(a, us(20), LogRet::Pos(0));
        assert!(check_shared_log(&rec.operations()).is_ok());
    }

    #[test]
    fn info_append_is_optional_but_can_explain_reads() {
        // A timed-out append may or may not have applied; a later read of
        // its granted position can legally see either outcome.
        for seen in [LogRead::Data(b"a".to_vec()), LogRead::NotWritten] {
            let rec: Recorder<LogOp, LogRet> = Recorder::new();
            let a = rec.invoke(1, us(10), LogOp::Append { data: b"a".into() });
            rec.info(a, us(20), Some(LogRet::Pos(5)), "timeout");
            let r = rec.invoke(2, us(30), LogOp::Read { pos: 5 });
            rec.ok(r, us(40), LogRet::Read(seen));
            assert!(check_shared_log(&rec.operations()).is_ok());
        }
    }

    #[test]
    fn failed_append_must_not_be_visible() {
        let rec: Recorder<LogOp, LogRet> = Recorder::new();
        let a = rec.invoke(1, us(10), LogOp::Append { data: b"a".into() });
        rec.fail(a, us(20), "rejected");
        let r = rec.invoke(2, us(30), LogOp::Read { pos: 0 });
        rec.ok(r, us(40), LogRet::Read(LogRead::Data(b"a".into())));
        // The data appeared with no op to explain it.
        assert!(check_shared_log(&rec.operations()).is_err());
    }

    #[test]
    fn fill_semantics_match_storage_class() {
        // fill is idempotent on Filled but cannot land on Data.
        let rec: Recorder<LogOp, LogRet> = Recorder::new();
        let f1 = rec.invoke(1, us(10), LogOp::Fill { pos: 2 });
        rec.ok(f1, us(20), LogRet::Done);
        let f2 = rec.invoke(2, us(30), LogOp::Fill { pos: 2 });
        rec.ok(f2, us(40), LogRet::Done);
        let r = rec.invoke(1, us(50), LogOp::Read { pos: 2 });
        rec.ok(r, us(60), LogRet::Read(LogRead::Filled));
        assert!(check_shared_log(&rec.operations()).is_ok());

        let rec: Recorder<LogOp, LogRet> = Recorder::new();
        let a = rec.invoke(1, us(10), LogOp::Append { data: b"a".into() });
        rec.ok(a, us(20), LogRet::Pos(2));
        let f = rec.invoke(2, us(30), LogOp::Fill { pos: 2 });
        rec.ok(f, us(40), LogRet::Done); // should have been EEXIST
        assert!(check_shared_log(&rec.operations()).is_err());
    }

    #[test]
    fn trim_wins_over_data() {
        let rec: Recorder<LogOp, LogRet> = Recorder::new();
        let a = rec.invoke(1, us(10), LogOp::Append { data: b"a".into() });
        rec.ok(a, us(20), LogRet::Pos(4));
        let t = rec.invoke(2, us(30), LogOp::Trim { pos: 4 });
        rec.ok(t, us(40), LogRet::Done);
        let r = rec.invoke(1, us(50), LogOp::Read { pos: 4 });
        rec.ok(r, us(60), LogRet::Read(LogRead::Trimmed));
        assert!(check_shared_log(&rec.operations()).is_ok());
    }

    #[test]
    fn trim_to_covers_every_lower_position() {
        // One trim_to joins the history of every position below it: reads
        // after it legally see Trimmed across the whole prefix.
        let rec: Recorder<LogOp, LogRet> = Recorder::new();
        for pos in 0..3u64 {
            let a = rec.invoke(1, us(10 + pos), LogOp::Append { data: b"a".into() });
            rec.ok(a, us(20 + pos), LogRet::Pos(pos));
        }
        let t = rec.invoke(2, us(30), LogOp::TrimTo { pos: 3 });
        rec.ok(t, us(40), LogRet::Done);
        for pos in 0..3u64 {
            let r = rec.invoke(1, us(50 + pos), LogOp::Read { pos });
            rec.ok(r, us(60 + pos), LogRet::Read(LogRead::Trimmed));
        }
        assert!(check_shared_log(&rec.operations()).is_ok());

        // A position at or above the watermark is NOT covered: seeing it
        // trimmed with nothing to explain it is a violation.
        let rec: Recorder<LogOp, LogRet> = Recorder::new();
        let a = rec.invoke(1, us(10), LogOp::Append { data: b"a".into() });
        rec.ok(a, us(20), LogRet::Pos(3));
        let t = rec.invoke(2, us(30), LogOp::TrimTo { pos: 3 });
        rec.ok(t, us(40), LogRet::Done);
        let r = rec.invoke(1, us(50), LogOp::Read { pos: 3 });
        rec.ok(r, us(60), LogRet::Read(LogRead::Trimmed));
        assert!(check_shared_log(&rec.operations()).is_err());
    }

    #[test]
    fn data_read_after_completed_trim_to_is_stale() {
        let rec: Recorder<LogOp, LogRet> = Recorder::new();
        let a = rec.invoke(1, us(10), LogOp::Append { data: b"a".into() });
        rec.ok(a, us(20), LogRet::Pos(1));
        let t = rec.invoke(2, us(30), LogOp::TrimTo { pos: 4 });
        rec.ok(t, us(40), LogRet::Done);
        // Strictly after the trim's response, the data must be gone.
        let r = rec.invoke(1, us(50), LogOp::Read { pos: 1 });
        rec.ok(r, us(60), LogRet::Read(LogRead::Data(b"a".into())));
        assert!(check_shared_log(&rec.operations()).is_err());
        // Concurrent with the trim, either outcome is legal.
        let rec: Recorder<LogOp, LogRet> = Recorder::new();
        let a = rec.invoke(1, us(10), LogOp::Append { data: b"a".into() });
        rec.ok(a, us(20), LogRet::Pos(1));
        let t = rec.invoke(2, us(30), LogOp::TrimTo { pos: 4 });
        let r = rec.invoke(1, us(32), LogOp::Read { pos: 1 });
        rec.ok(r, us(38), LogRet::Read(LogRead::Data(b"a".into())));
        rec.ok(t, us(40), LogRet::Done);
        assert!(check_shared_log(&rec.operations()).is_ok());
    }

    #[test]
    fn tail_read_must_cover_acked_appends() {
        let rec: Recorder<LogOp, LogRet> = Recorder::new();
        let a = rec.invoke(1, us(10), LogOp::Append { data: b"a".into() });
        rec.ok(a, us(20), LogRet::Pos(9));
        let t = rec.invoke(2, us(30), LogOp::ReadTail);
        rec.ok(t, us(40), LogRet::Tail(4)); // below acked position 9
        let err = check_shared_log(&rec.operations()).unwrap_err();
        assert_eq!(err.partition, "tail");
    }

    #[test]
    fn tail_may_regress_after_failover_without_acked_appends() {
        // Burned-but-unwritten grants are legally reclaimed by recovery;
        // only acked appends establish a floor.
        let rec: Recorder<LogOp, LogRet> = Recorder::new();
        let t1 = rec.invoke(1, us(10), LogOp::ReadTail);
        rec.ok(t1, us(20), LogRet::Tail(50));
        let t2 = rec.invoke(1, us(30), LogOp::ReadTail);
        rec.ok(t2, us(40), LogRet::Tail(10));
        assert!(check_shared_log(&rec.operations()).is_ok());
    }

    #[test]
    fn register_rejects_stale_read() {
        let rec: Recorder<RegOp, RegRet> = Recorder::new();
        let w = rec.invoke(1, us(10), RegOp::Write { key: 7, value: 5 });
        rec.ok(w, us(20), RegRet::Written);
        let r = rec.invoke(2, us(30), RegOp::Read { key: 7 });
        rec.ok(r, us(40), RegRet::Value(0));
        let err = check_registers(&rec.operations()).unwrap_err();
        assert_eq!(err.partition, "ino 7");
    }

    #[test]
    fn register_merges_by_max() {
        let rec: Recorder<RegOp, RegRet> = Recorder::new();
        let w1 = rec.invoke(1, us(10), RegOp::Write { key: 1, value: 9 });
        rec.ok(w1, us(20), RegRet::Written);
        // A later, smaller write is absorbed without moving the value.
        let w2 = rec.invoke(2, us(30), RegOp::Write { key: 1, value: 3 });
        rec.ok(w2, us(40), RegRet::Written);
        let r = rec.invoke(1, us(50), RegOp::Read { key: 1 });
        rec.ok(r, us(60), RegRet::Value(9));
        assert!(check_registers(&rec.operations()).is_ok());
    }

    #[test]
    fn memoized_search_handles_wide_concurrency() {
        // 12 fully concurrent appends to distinct positions plus reads:
        // partitioning keeps each search tiny.
        let rec: Recorder<LogOp, LogRet> = Recorder::new();
        let mut ids = Vec::new();
        for i in 0..12u64 {
            ids.push((
                i,
                rec.invoke(
                    i,
                    us(10),
                    LogOp::Append {
                        data: format!("e{i}").into_bytes(),
                    },
                ),
            ));
        }
        for (i, id) in &ids {
            rec.ok(*id, us(100 + i), LogRet::Pos(*i));
        }
        let t = rec.invoke(99, us(200), LogOp::ReadTail);
        rec.ok(t, us(210), LogRet::Tail(12));
        let stats = check_shared_log(&rec.operations()).unwrap();
        assert_eq!(stats.partitions, 13); // 12 positions + tail
    }
}

//! Closed-loop readers driven from the wrapper's after-hook: a tailing
//! cursor reader and a point reader. Each issues its next call the moment
//! the previous one completes, checks what it was given against the
//! generated payloads, and records one latency sample per call.

use std::cell::RefCell;
use std::rc::Rc;

use mala_sim::{Context, NodeId, SimDuration};
use mala_zlog::log::ZlogOut;
use mala_zlog::{AppendResult, ReadOutcome, ZlogClient};

use crate::cluster::Cluster;
use crate::gen::{self, Gen};
use crate::hostclock;
use crate::timed::{Timed, HOOK_TOKEN};

/// What the readers of one workload saw, shared by their hooks.
#[derive(Default)]
pub struct ReadLog {
    /// Cursor-batch calls: `(issued µs, done µs, entries delivered)`.
    pub batches: Vec<(u64, u64, u32)>,
    /// Point reads: `(issued µs, done µs)`.
    pub points: Vec<(u64, u64)>,
    /// Calls that came back as errors: `(issued µs)`.
    pub failed: Vec<u64>,
    /// Calls issued and not yet completed.
    pub in_flight: Vec<u64>,
    /// Junk-filled positions delivered (holes the readers or a recovery
    /// filled; legitimate, but worth seeing).
    pub filled: u64,
    /// Entries one cursor delivered although it had already delivered the
    /// same generated payload at a lower position.
    pub duplicates: u64,
    /// Violations of contiguity or content (first few, in words).
    pub violations: Vec<String>,
    /// Set at the end of the window: finish the call in flight, issue no
    /// more.
    pub stop: bool,
}

impl ReadLog {
    fn violation(&mut self, text: String) {
        if self.violations.len() < 8 {
            self.violations.push(text);
        }
    }

    fn done(&mut self, issued: u64) {
        if let Some(i) = self.in_flight.iter().position(|t| *t == issued) {
            self.in_flight.swap_remove(i);
        }
    }
}

pub type SharedReadLog = Rc<RefCell<ReadLog>>;

/// The index `i` for which `data` is the generated payload of entry `i`
/// of `log`, if there is one.
fn generated_index(log: u32, data: &[u8], len: usize) -> Option<u64> {
    std::str::from_utf8(data)
        .ok()
        .and_then(|s| s.split_once('|'))
        .and_then(|(head, _)| head.split_once('I'))
        .and_then(|(_, idx)| idx.parse::<u64>().ok())
        .filter(|i| data == gen::payload(log, *i, len))
}

/// What a tailer does when it has caught up with the tail.
#[derive(Clone, Copy)]
pub enum AtTail {
    /// Open a fresh cursor and catch up from position 0 again.
    Restart,
    /// Poll again after this long.
    Pause(SimDuration),
}

/// Starts a closed-loop tailer on the client at `node`: `next_batch(32)`
/// calls back to back from `first_call_in` on, every delivered position
/// contiguous and, where it holds data, equal to a generated payload of
/// `log`.
pub fn start_tailer(
    cluster: &mut Cluster,
    node: NodeId,
    log: u32,
    payload_len: usize,
    at_tail: AtTail,
    first_call_in: SimDuration,
    shared: &SharedReadLog,
) {
    let shared = Rc::clone(shared);
    let mut cursor: Option<u64> = None;
    let mut expect = 0u64;
    // Generated indices this cursor has delivered.
    let mut seen: Vec<bool> = Vec::new();
    // The call in flight: `(op, issued µs)`.
    let mut call: Option<(u64, u64)> = None;
    // No call before this instant: the first call's delay, later the pause
    // at the tail. (The hook also runs on the client's own traffic.)
    let mut resume_at = (cluster.sim.now() + first_call_in).as_micros();
    let hook = move |c: &mut ZlogClient, ctx: &mut Context<'_>| {
        let now = ctx.now().as_micros();
        let mut log_state = shared.borrow_mut();
        if let Some((op, issued)) = call {
            if !c.is_done(op) {
                return;
            }
            call = None;
            log_state.done(issued);
            match c.take_result(op) {
                Some(AppendResult::Ok(ZlogOut::CursorBatch(entries))) => {
                    for (pos, outcome) in &entries {
                        if *pos != expect {
                            log_state.violation(format!(
                                "log {log}: tailer expected position {expect}, got {pos}"
                            ));
                        }
                        expect = pos + 1;
                        let index = match outcome {
                            ReadOutcome::Data(d) => generated_index(log, d, payload_len),
                            _ => None,
                        };
                        match (outcome, index) {
                            (_, Some(i)) => {
                                let i = i as usize;
                                if seen.len() <= i {
                                    seen.resize(i + 1, false);
                                }
                                log_state.duplicates +=
                                    u64::from(std::mem::replace(&mut seen[i], true));
                            }
                            (ReadOutcome::Filled, _) => log_state.filled += 1,
                            (other, _) => log_state.violation(format!(
                                "log {log}: position {pos} holds {other:?}, not a generated payload"
                            )),
                        }
                    }
                    log_state.batches.push((issued, now, entries.len() as u32));
                    if entries.is_empty() {
                        match at_tail {
                            AtTail::Restart => cursor = None,
                            AtTail::Pause(think) => {
                                resume_at = now + think.as_micros();
                                ctx.set_timer(think, HOOK_TOKEN);
                            }
                        }
                    }
                }
                _ => log_state.failed.push(issued),
            }
        }
        if log_state.stop || now < resume_at {
            return;
        }
        let id = *cursor.get_or_insert_with(|| {
            expect = 0;
            seen.clear();
            c.tail_cursor(ctx)
        });
        call = Some((c.cursor_next_batch(ctx, id, 32), now));
        log_state.in_flight.push(now);
    };
    cluster
        .sim
        .with_actor::<Timed<ZlogClient>, _>(node, move |t, ctx| {
            t.set_after(Box::new(hook));
            // The timer runs the hook, which issues the first call.
            ctx.set_timer(first_call_in, HOOK_TOKEN);
        });
}

/// Starts a closed-loop point reader on the client at `node`: `read(pos)`
/// of uniform positions below `preloaded`, which all hold data.
pub fn start_point_reader(
    cluster: &mut Cluster,
    node: NodeId,
    log: u32,
    payload_len: usize,
    preloaded: u64,
    mut gen: Gen,
    shared: &SharedReadLog,
) {
    let shared = Rc::clone(shared);
    let mut call: Option<(u64, u64, u64)> = None;
    let hook = move |c: &mut ZlogClient, ctx: &mut Context<'_>| {
        let now = ctx.now().as_micros();
        let mut log_state = shared.borrow_mut();
        if let Some((op, issued, pos)) = call {
            if !c.is_done(op) {
                return;
            }
            call = None;
            log_state.done(issued);
            match c.take_result(op) {
                Some(AppendResult::Ok(ZlogOut::Read(ReadOutcome::Data(d))))
                    if generated_index(log, &d, payload_len).is_some() =>
                {
                    log_state.points.push((issued, now));
                }
                Some(AppendResult::Ok(other)) => log_state.violation(format!(
                    "log {log}: read({pos}) returned {other:?}, not a generated payload"
                )),
                _ => log_state.failed.push(issued),
            }
        }
        if log_state.stop {
            return;
        }
        let pos = gen.below(preloaded);
        call = Some((c.read(ctx, pos), now, pos));
        log_state.in_flight.push(now);
    };
    cluster
        .sim
        .with_actor::<Timed<ZlogClient>, _>(node, move |t, ctx| {
            t.set_after(Box::new(hook));
            ctx.set_timer(SimDuration::ZERO, HOOK_TOKEN);
        });
}

/// Tells the readers to stop and runs until their calls in flight are
/// done or `cap_us` has passed.
pub fn stop_and_drain(cluster: &mut Cluster, shared: &SharedReadLog, cap_us: u64) {
    shared.borrow_mut().stop = true;
    let end = cluster.sim.now() + SimDuration::from_micros(cap_us);
    while !shared.borrow().in_flight.is_empty() && cluster.sim.now() < end {
        let next = (cluster.sim.now() + SimDuration::from_millis(10)).min(end);
        cluster.sim.run_until(next);
        hostclock::tick();
    }
}

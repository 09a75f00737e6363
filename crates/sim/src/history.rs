//! Jepsen-style operation histories with deterministic sim-clock stamps.
//!
//! Clients record every externally visible operation as an *invoke* event
//! followed by exactly one completion event:
//!
//! - **ok** — the operation completed with a known return value;
//! - **fail** — the operation definitely did not take effect (the checker
//!   may drop it from every linearization);
//! - **info** — the outcome is ambiguous (e.g. a timed-out write): it may
//!   or may not have taken effect, so the checker must treat it as
//!   optional and concurrent with everything after its invocation.
//!
//! A [`Recorder`] is a cheaply clonable handle to one per-run [`History`];
//! the sim is single-threaded, so plain `Rc<RefCell<…>>` sharing between a
//! client actor and the test harness is safe. Completed histories are
//! consumed as [`Operation`] pairs by `mala_sim::linearize`.

use std::cell::RefCell;
use std::rc::Rc;

use crate::time::SimTime;

/// One timestamped event in a history.
#[derive(Debug, Clone)]
pub struct Event<O, R> {
    /// Operation id pairing the invoke with its completion.
    pub id: u64,
    /// Logical client (usually the node id) issuing the op.
    pub client: u64,
    /// Sim-clock stamp.
    pub at: SimTime,
    /// What happened.
    pub phase: Phase<O, R>,
}

/// Event payloads.
#[derive(Debug, Clone)]
pub enum Phase<O, R> {
    /// The client issued the operation.
    Invoke(O),
    /// Known-successful completion with its return value.
    Ok(R),
    /// The operation definitely did not take effect.
    Fail(String),
    /// Ambiguous completion: possibly applied, return unknown. Carries a
    /// partial return when the client knows what the result *would* be if
    /// the op applied (e.g. the granted position of a timed-out append),
    /// which the checker uses for partitioning and model steps.
    Info(Option<R>, String),
}

/// An invoke paired with its completion, as consumed by the checker.
#[derive(Debug, Clone)]
pub struct Operation<O, R> {
    /// Operation id (stable across [`History::operations`] calls).
    pub id: u64,
    /// Logical client that issued the op.
    pub client: u64,
    /// The operation itself.
    pub op: O,
    /// Invocation time.
    pub invoked: SimTime,
    /// Completion.
    pub outcome: Outcome<R>,
}

/// Completion side of an [`Operation`].
#[derive(Debug, Clone)]
pub enum Outcome<R> {
    /// Completed with a known return at the given time.
    Ok {
        /// Return value.
        ret: R,
        /// Response time.
        at: SimTime,
    },
    /// Definitely not applied.
    Fail {
        /// Failure reason.
        reason: String,
        /// Response time.
        at: SimTime,
    },
    /// Possibly applied; still pending when the history closed, or a
    /// timeout. Conceptually the response time is "never".
    Info {
        /// Partial return, when the client knows what applying would
        /// yield (used for partitioning).
        maybe: Option<R>,
        /// Why the outcome is unknown.
        reason: String,
    },
}

impl<O, R> Operation<O, R> {
    /// Response time bounding real-time order: `u64::MAX` for info ops,
    /// which never "return" and so precede nothing.
    pub fn response_micros(&self) -> u64 {
        match &self.outcome {
            Outcome::Ok { at, .. } | Outcome::Fail { at, .. } => at.as_micros(),
            Outcome::Info { .. } => u64::MAX,
        }
    }
}

impl<O: std::fmt::Debug, R: std::fmt::Debug> std::fmt::Display for Operation<O, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inv = self.invoked.as_micros();
        match &self.outcome {
            Outcome::Ok { ret, at } => write!(
                f,
                "[{inv:>10}µs → {:>10}µs] client {:>3} op {:<4} {:?} => ok {ret:?}",
                at.as_micros(),
                self.client,
                self.id,
                self.op
            ),
            Outcome::Fail { reason, at } => write!(
                f,
                "[{inv:>10}µs → {:>10}µs] client {:>3} op {:<4} {:?} => fail ({reason})",
                at.as_micros(),
                self.client,
                self.id,
                self.op
            ),
            Outcome::Info { maybe, reason } => write!(
                f,
                "[{inv:>10}µs →       ?   ] client {:>3} op {:<4} {:?} => info {maybe:?} ({reason})",
                self.client, self.id, self.op
            ),
        }
    }
}

/// A per-run event log.
#[derive(Debug)]
pub struct History<O, R> {
    events: Vec<Event<O, R>>,
    /// The client of each invocation, by op id (ids start at 1 and are
    /// handed out in order), so a completion finds its client without
    /// searching `events`.
    clients: Vec<u64>,
}

impl<O, R> Default for History<O, R> {
    fn default() -> History<O, R> {
        History {
            events: Vec::new(),
            clients: Vec::new(),
        }
    }
}

impl<O: Clone, R: Clone> History<O, R> {
    /// Raw events in record order.
    pub fn events(&self) -> &[Event<O, R>] {
        &self.events
    }

    /// Records an invocation and returns its op id.
    pub fn invoke(&mut self, client: u64, at: SimTime, op: O) -> u64 {
        self.clients.push(client);
        let id = self.clients.len() as u64;
        self.events.push(Event {
            id,
            client,
            at,
            phase: Phase::Invoke(op),
        });
        id
    }

    fn complete(&mut self, id: u64, at: SimTime, phase: Phase<O, R>) {
        // An id this history never handed out completes as client 0.
        let client = id
            .checked_sub(1)
            .and_then(|i| self.clients.get(usize::try_from(i).ok()?))
            .map_or(0, |client| *client);
        self.events.push(Event {
            id,
            client,
            at,
            phase,
        });
    }

    /// Records a successful completion.
    pub fn ok(&mut self, id: u64, at: SimTime, ret: R) {
        self.complete(id, at, Phase::Ok(ret));
    }

    /// Records a definite failure (not applied).
    pub fn fail(&mut self, id: u64, at: SimTime, reason: impl Into<String>) {
        self.complete(id, at, Phase::Fail(reason.into()));
    }

    /// Records an ambiguous completion (possibly applied).
    pub fn info(&mut self, id: u64, at: SimTime, maybe: Option<R>, reason: impl Into<String>) {
        self.complete(id, at, Phase::Info(maybe, reason.into()));
    }

    /// Pairs invokes with completions. Invocations with no completion
    /// event (ops still in flight when the run ended) close as `info`
    /// with no partial return: they may have taken effect.
    pub fn operations(&self) -> Vec<Operation<O, R>> {
        let mut out: Vec<Operation<O, R>> = Vec::new();
        let mut index: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        for event in &self.events {
            match &event.phase {
                Phase::Invoke(op) => {
                    index.insert(event.id, out.len());
                    out.push(Operation {
                        id: event.id,
                        client: event.client,
                        op: op.clone(),
                        invoked: event.at,
                        outcome: Outcome::Info {
                            maybe: None,
                            reason: "still pending at end of run".into(),
                        },
                    });
                }
                Phase::Ok(ret) => {
                    if let Some(&i) = index.get(&event.id) {
                        out[i].outcome = Outcome::Ok {
                            ret: ret.clone(),
                            at: event.at,
                        };
                    }
                }
                Phase::Fail(reason) => {
                    if let Some(&i) = index.get(&event.id) {
                        out[i].outcome = Outcome::Fail {
                            reason: reason.clone(),
                            at: event.at,
                        };
                    }
                }
                Phase::Info(maybe, reason) => {
                    if let Some(&i) = index.get(&event.id) {
                        out[i].outcome = Outcome::Info {
                            maybe: maybe.clone(),
                            reason: reason.clone(),
                        };
                    }
                }
            }
        }
        out
    }
}

/// Clonable handle to a shared [`History`]; hand one clone to each
/// instrumented client and keep one in the harness.
#[derive(Debug)]
pub struct Recorder<O, R> {
    inner: Rc<RefCell<History<O, R>>>,
}

impl<O, R> Clone for Recorder<O, R> {
    fn clone(&self) -> Recorder<O, R> {
        Recorder {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<O: Clone, R: Clone> Default for Recorder<O, R> {
    fn default() -> Recorder<O, R> {
        Recorder::new()
    }
}

impl<O: Clone, R: Clone> Recorder<O, R> {
    /// Creates an empty shared history.
    pub fn new() -> Recorder<O, R> {
        Recorder {
            inner: Rc::new(RefCell::new(History::default())),
        }
    }

    /// Records an invocation; returns the op id to complete later.
    pub fn invoke(&self, client: u64, at: SimTime, op: O) -> u64 {
        self.inner.borrow_mut().invoke(client, at, op)
    }

    /// Records a successful completion.
    pub fn ok(&self, id: u64, at: SimTime, ret: R) {
        self.inner.borrow_mut().ok(id, at, ret);
    }

    /// Records a definite failure.
    pub fn fail(&self, id: u64, at: SimTime, reason: impl Into<String>) {
        self.inner.borrow_mut().fail(id, at, reason);
    }

    /// Records an ambiguous completion.
    pub fn info(&self, id: u64, at: SimTime, maybe: Option<R>, reason: impl Into<String>) {
        self.inner.borrow_mut().info(id, at, maybe, reason);
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.inner.borrow().events().len()
    }

    /// Whether the history is still empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the paired operations (see [`History::operations`]).
    pub fn operations(&self) -> Vec<Operation<O, R>> {
        self.inner.borrow().operations()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_invokes_with_completions() {
        let rec: Recorder<&'static str, u64> = Recorder::new();
        let a = rec.invoke(1, SimTime::from_micros(10), "append");
        let b = rec.invoke(2, SimTime::from_micros(12), "append");
        let c = rec.invoke(1, SimTime::from_micros(20), "read");
        rec.ok(a, SimTime::from_micros(15), 7);
        rec.fail(b, SimTime::from_micros(16), "rejected");
        rec.info(c, SimTime::from_micros(30), Some(9), "timeout");
        let d = rec.invoke(3, SimTime::from_micros(40), "append");
        let _ = d; // never completes

        let ops = rec.operations();
        assert_eq!(ops.len(), 4);
        assert!(matches!(ops[0].outcome, Outcome::Ok { ret: 7, .. }));
        assert!(matches!(ops[1].outcome, Outcome::Fail { .. }));
        assert!(matches!(
            ops[2].outcome,
            Outcome::Info { maybe: Some(9), .. }
        ));
        assert!(matches!(ops[3].outcome, Outcome::Info { maybe: None, .. }));
        assert_eq!(ops[0].response_micros(), 15);
        assert_eq!(ops[2].response_micros(), u64::MAX);
    }

    /// Completions land out of invocation order and from interleaved
    /// clients; each carries the client of its own invocation, and
    /// `operations()` pairs them by id as before.
    #[test]
    fn interleaved_completions_are_attributed_to_the_invoking_client() {
        let rec: Recorder<u32, u32> = Recorder::new();
        let at = SimTime::from_micros;
        let ids: Vec<u64> = (0..9u32)
            .map(|i| rec.invoke(u64::from(10 + i % 3), at(u64::from(i)), i))
            .collect();
        assert_eq!(ids, (1..=9).collect::<Vec<u64>>());
        // Newest first, one op left open, one id nobody invoked.
        for (n, id) in ids.iter().rev().skip(1).enumerate() {
            match n % 3 {
                0 => rec.ok(*id, at(100 + *id), *id as u32),
                1 => rec.fail(*id, at(100 + *id), "refused"),
                _ => rec.info(*id, at(100 + *id), None, "timeout"),
            }
        }
        rec.ok(77, at(300), 0);
        let history = rec.inner.borrow();
        let completions: Vec<(u64, u64)> = history
            .events()
            .iter()
            .filter(|e| !matches!(e.phase, Phase::Invoke(_)))
            .map(|e| (e.id, e.client))
            .collect();
        let expected: Vec<(u64, u64)> = (1..=8u64)
            .rev()
            .map(|id| (id, 10 + (id - 1) % 3))
            .chain([(77, 0)])
            .collect();
        assert_eq!(completions, expected);

        let ops = history.operations();
        assert_eq!(ops.len(), 9);
        for (i, op) in ops.iter().enumerate() {
            assert_eq!((op.id, op.op), (i as u64 + 1, i as u32));
            assert_eq!(op.client, 10 + i as u64 % 3);
            assert_eq!(op.invoked, at(i as u64));
        }
        // Completion n (0-based) went to id 8 - n.
        assert!(matches!(ops[7].outcome, Outcome::Ok { ret: 8, .. }));
        assert!(matches!(ops[6].outcome, Outcome::Fail { .. }));
        assert!(matches!(&ops[5].outcome, Outcome::Info { reason, .. } if reason == "timeout"));
        assert!(matches!(ops[4].outcome, Outcome::Ok { ret: 5, .. }));
        assert_eq!(ops[7].response_micros(), 108);
        assert!(
            matches!(&ops[8].outcome, Outcome::Info { reason, .. } if reason.contains("pending"))
        );
    }

    #[test]
    fn recorder_clones_share_one_history() {
        let rec: Recorder<u32, u32> = Recorder::new();
        let other = rec.clone();
        let id = other.invoke(5, SimTime::from_micros(1), 42);
        rec.ok(id, SimTime::from_micros(2), 43);
        assert_eq!(rec.operations().len(), 1);
        assert_eq!(other.operations().len(), 1);
    }
}

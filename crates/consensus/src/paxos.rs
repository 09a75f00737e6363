//! A pure multi-decree Paxos state machine.
//!
//! Each replica plays all three roles (proposer, acceptor, learner). The
//! implementation is *sans-I/O*: [`PaxosNode::on_message`],
//! [`PaxosNode::heartbeat`], and friends consume inputs and return the
//! messages to send,
//! so the core can be unit- and property-tested without a network, then
//! embedded in the simulated monitor daemon.
//!
//! Leadership: the replica with the lowest id among those it believes alive
//! campaigns with a [`Ballot`] ordered by `(round, id)`. Followers forward
//! client commands to the leader; a leader that stops heartbeating is
//! superseded by a higher round.

use std::collections::{BTreeMap, BTreeSet};

/// Identifies a Paxos replica within its quorum (dense, `0..n`).
pub type ReplicaId = u32;

/// A log position.
pub type Slot = u64;

/// A proposal number, totally ordered by `(round, proposer)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ballot {
    /// Monotonically increasing round.
    pub round: u64,
    /// Proposer id, breaking ties between rounds.
    pub proposer: ReplicaId,
}

impl Ballot {
    /// The null ballot, lower than every real ballot.
    pub const ZERO: Ballot = Ballot {
        round: 0,
        proposer: 0,
    };
}

/// Messages exchanged between replicas. `C` is the replicated command type.
#[derive(Debug, Clone, PartialEq)]
pub enum PaxosMsg<C> {
    /// Phase 1a: a candidate leader solicits promises.
    Prepare { ballot: Ballot },
    /// Phase 1b: promise not to accept lower ballots; carries every
    /// previously accepted `(slot, ballot, command)` at or above
    /// `first_unchosen`.
    Promise {
        ballot: Ballot,
        accepted: Vec<(Slot, Ballot, C)>,
        first_unchosen: Slot,
    },
    /// Phase 2a: the leader asks acceptors to accept `command` at `slot`.
    Accept {
        ballot: Ballot,
        slot: Slot,
        command: C,
    },
    /// Phase 2b: an acceptor accepted the proposal.
    Accepted { ballot: Ballot, slot: Slot },
    /// Phase 3 (learner shortcut): the value for `slot` is chosen.
    Chosen { slot: Slot, command: C },
    /// Rejection of a `Prepare` or `Accept` carrying the higher promised
    /// ballot, so the stale proposer can catch up its round.
    Nack { promised: Ballot },
    /// A non-leader forwards a client command to the current leader.
    Forward { command: C },
    /// Leader heartbeat; also carries the chosen-watermark so lagging
    /// replicas can request catch-up.
    Heartbeat { ballot: Ballot, chosen_up_to: Slot },
    /// A lagging replica asks a peer for chosen values starting at `from`.
    CatchupRequest { from: Slot },
    /// Catch-up reply with a range of chosen values.
    CatchupReply { chosen: Vec<(Slot, C)> },
}

/// An outbound message: destination replica and payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Outbound<C> {
    /// Destination replica.
    pub to: ReplicaId,
    /// Payload.
    pub msg: PaxosMsg<C>,
}

/// Role-specific proposer state while campaigning or leading.
#[derive(Debug, Clone)]
enum ProposerState<C> {
    /// Not the leader.
    Follower,
    /// Sent `Prepare`, collecting promises.
    Campaigning {
        promises: BTreeSet<ReplicaId>,
        /// Highest-ballot accepted value seen per slot, re-proposed on
        /// winning (the Paxos "choose the value of the highest-numbered
        /// proposal" rule).
        salvage: BTreeMap<Slot, (Ballot, C)>,
        /// Highest chosen watermark reported by any promiser; new
        /// proposals must start at or above it.
        peers_chosen: Slot,
    },
    /// Phase 1 complete for the current ballot; may propose directly.
    Leading,
}

/// Multi-decree Paxos replica.
///
/// Generic over the command type `C`; the monitor instantiates it with a
/// batch of map updates.
#[derive(Debug, Clone)]
pub struct PaxosNode<C> {
    id: ReplicaId,
    n: u32,
    /// Highest ballot promised (phase 1) — never accept below this.
    promised: Ballot,
    /// Ballot this node campaigns/leads with.
    my_ballot: Ballot,
    /// Per-slot accepted (ballot, command).
    accepted: BTreeMap<Slot, (Ballot, C)>,
    /// Chosen commands (the replicated log).
    chosen: BTreeMap<Slot, C>,
    /// Lowest slot with no chosen command (contiguous prefix watermark).
    first_unchosen: Slot,
    /// Next slot the leader will assign.
    next_slot: Slot,
    /// Quorum tallies for in-flight proposals led by this node.
    tallies: BTreeMap<Slot, BTreeSet<ReplicaId>>,
    /// Commands in flight at this leader, for re-proposal bookkeeping.
    in_flight: BTreeMap<Slot, C>,
    /// Commands waiting for leadership/phase 1.
    pending: Vec<C>,
    proposer: ProposerState<C>,
    /// Who this node believes is leader (by last heartbeat/prepare seen).
    leader_hint: Option<ReplicaId>,
}

impl<C: Clone> PaxosNode<C> {
    /// Creates replica `id` of a quorum of `n`.
    ///
    /// # Panics
    ///
    /// Panics if `id >= n` or `n == 0`.
    pub fn new(id: ReplicaId, n: u32) -> PaxosNode<C> {
        assert!(n > 0 && id < n, "replica id {id} out of range for n={n}");
        PaxosNode {
            id,
            n,
            promised: Ballot::ZERO,
            my_ballot: Ballot {
                round: 1,
                proposer: id,
            },
            accepted: BTreeMap::new(),
            chosen: BTreeMap::new(),
            first_unchosen: 0,
            next_slot: 0,
            tallies: BTreeMap::new(),
            in_flight: BTreeMap::new(),
            pending: Vec::new(),
            proposer: ProposerState::Follower,
            leader_hint: None,
        }
    }

    /// This replica's id.
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// Quorum size (majority).
    fn quorum(&self) -> usize {
        (self.n as usize / 2) + 1
    }

    /// Whether this node currently leads its ballot.
    pub fn is_leader(&self) -> bool {
        matches!(self.proposer, ProposerState::Leading)
    }

    /// The ballot this node campaigns or leads with. Safety check for
    /// harnesses: two replicas may transiently both claim leadership, but
    /// never with the same ballot.
    pub fn ballot(&self) -> Ballot {
        self.my_ballot
    }

    /// The replica this node believes is leader, if any.
    pub fn leader_hint(&self) -> Option<ReplicaId> {
        if self.is_leader() {
            Some(self.id)
        } else {
            self.leader_hint
        }
    }

    /// Chosen commands in slot order starting at `from`.
    pub fn chosen_from(&self, from: Slot) -> impl Iterator<Item = (Slot, &C)> {
        self.chosen.range(from..).map(|(s, c)| (*s, c))
    }

    /// The contiguous chosen watermark: every slot below is decided.
    pub fn first_unchosen(&self) -> Slot {
        self.first_unchosen
    }

    /// Starts (or restarts) a leadership campaign with a round higher than
    /// any ballot seen. Returns `Prepare` broadcasts.
    pub fn campaign(&mut self) -> Vec<Outbound<C>> {
        let round = self.promised.round.max(self.my_ballot.round) + 1;
        self.my_ballot = Ballot {
            round,
            proposer: self.id,
        };
        self.proposer = ProposerState::Campaigning {
            promises: BTreeSet::new(),
            salvage: BTreeMap::new(),
            peers_chosen: 0,
        };
        self.broadcast(PaxosMsg::Prepare {
            ballot: self.my_ballot,
        })
    }

    /// Submits a client command. If leading, returns `Accept` broadcasts;
    /// if following with a known leader, forwards; otherwise queues it
    /// (drained on the next leadership transition).
    pub fn submit(&mut self, command: C) -> Vec<Outbound<C>> {
        match &self.proposer {
            ProposerState::Leading => self.propose_now(command),
            _ => match self.leader_hint {
                Some(leader) if leader != self.id => {
                    vec![Outbound {
                        to: leader,
                        msg: PaxosMsg::Forward { command },
                    }]
                }
                _ => {
                    self.pending.push(command);
                    Vec::new()
                }
            },
        }
    }

    /// Leader heartbeat; callers invoke this periodically. Non-leaders
    /// return nothing. Besides the liveness beacon, the leader retransmits
    /// any in-flight `Accept`s — their originals may have been lost to a
    /// partition, and nothing else would ever resend them.
    pub fn heartbeat(&mut self) -> Vec<Outbound<C>> {
        if !self.is_leader() {
            return Vec::new();
        }
        let mut out = self.broadcast(PaxosMsg::Heartbeat {
            ballot: self.my_ballot,
            chosen_up_to: self.first_unchosen,
        });
        for (slot, command) in &self.in_flight {
            out.extend(self.broadcast(PaxosMsg::Accept {
                ballot: self.my_ballot,
                slot: *slot,
                command: command.clone(),
            }));
        }
        out
    }

    fn propose_now(&mut self, command: C) -> Vec<Outbound<C>> {
        let slot = self.next_slot;
        self.next_slot += 1;
        self.in_flight.insert(slot, command.clone());
        self.tallies.insert(slot, BTreeSet::new());
        self.broadcast(PaxosMsg::Accept {
            ballot: self.my_ballot,
            slot,
            command,
        })
    }

    fn broadcast(&self, msg: PaxosMsg<C>) -> Vec<Outbound<C>> {
        (0..self.n)
            .map(|to| Outbound {
                to,
                msg: msg.clone(),
            })
            .collect()
    }

    /// Handles a message from `from`, returning outbound messages.
    pub fn on_message(&mut self, from: ReplicaId, msg: PaxosMsg<C>) -> Vec<Outbound<C>> {
        match msg {
            PaxosMsg::Prepare { ballot } => self.on_prepare(from, ballot),
            PaxosMsg::Promise {
                ballot,
                accepted,
                first_unchosen,
            } => self.on_promise(from, ballot, accepted, first_unchosen),
            PaxosMsg::Accept {
                ballot,
                slot,
                command,
            } => self.on_accept(from, ballot, slot, command),
            PaxosMsg::Accepted { ballot, slot } => self.on_accepted(from, ballot, slot),
            PaxosMsg::Chosen { slot, command } => {
                self.learn(slot, command);
                Vec::new()
            }
            PaxosMsg::Nack { promised } => self.on_nack(promised),
            // A forwarded command is never re-forwarded: two non-leaders
            // with crossed leader hints would bounce it forever. A
            // non-leader queues it for its next leadership (or until the
            // real leader salvages it via phase 1).
            PaxosMsg::Forward { command } => {
                if self.is_leader() {
                    self.propose_now(command)
                } else {
                    self.pending.push(command);
                    Vec::new()
                }
            }
            PaxosMsg::Heartbeat {
                ballot,
                chosen_up_to,
            } => self.on_heartbeat(from, ballot, chosen_up_to),
            PaxosMsg::CatchupRequest { from: slot } => {
                let chosen: Vec<(Slot, C)> = self
                    .chosen
                    .range(slot..)
                    .map(|(s, c)| (*s, c.clone()))
                    .collect();
                vec![Outbound {
                    to: from,
                    msg: PaxosMsg::CatchupReply { chosen },
                }]
            }
            PaxosMsg::CatchupReply { chosen } => {
                for (slot, cmd) in chosen {
                    self.learn(slot, cmd);
                }
                Vec::new()
            }
        }
    }

    fn on_prepare(&mut self, from: ReplicaId, ballot: Ballot) -> Vec<Outbound<C>> {
        if ballot < self.promised {
            return vec![Outbound {
                to: from,
                msg: PaxosMsg::Nack {
                    promised: self.promised,
                },
            }];
        }
        self.promised = ballot;
        self.leader_hint = Some(from);
        if from != self.id {
            // A higher ballot supersedes any local leadership.
            self.step_down();
        }
        // The promise must carry the FULL accepted history: a slot this
        // node already chose (and moved its watermark past) may be unknown
        // to the candidate, and omitting it would let the candidate reuse
        // the slot for a different command — an agreement violation.
        let accepted: Vec<(Slot, Ballot, C)> = self
            .accepted
            .iter()
            .map(|(s, (b, c))| (*s, *b, c.clone()))
            .collect();
        vec![Outbound {
            to: from,
            msg: PaxosMsg::Promise {
                ballot,
                accepted,
                first_unchosen: self.first_unchosen,
            },
        }]
    }

    fn step_down(&mut self) {
        if !matches!(self.proposer, ProposerState::Follower) {
            self.proposer = ProposerState::Follower;
        }
        self.tallies.clear();
        // Commands this node had in flight are re-queued so they are not
        // lost (the new leader may also have salvaged them; the monitor's
        // command application is idempotent per transaction id).
        for (slot, cmd) in std::mem::take(&mut self.in_flight) {
            if !self.chosen.contains_key(&slot) {
                self.pending.push(cmd);
            }
        }
    }

    fn on_promise(
        &mut self,
        from: ReplicaId,
        ballot: Ballot,
        accepted: Vec<(Slot, Ballot, C)>,
        first_unchosen: Slot,
    ) -> Vec<Outbound<C>> {
        let quorum = self.quorum();
        let my_ballot = self.my_ballot;
        let ProposerState::Campaigning {
            promises,
            salvage,
            peers_chosen,
        } = &mut self.proposer
        else {
            return Vec::new();
        };
        if ballot != my_ballot {
            return Vec::new();
        }
        promises.insert(from);
        *peers_chosen = (*peers_chosen).max(first_unchosen);
        for (slot, b, cmd) in accepted {
            match salvage.get(&slot) {
                Some((existing, _)) if *existing >= b => {}
                _ => {
                    salvage.insert(slot, (b, cmd));
                }
            }
        }
        if promises.len() < quorum {
            return Vec::new();
        }
        // Phase 1 complete: become leader. Re-propose every salvaged value
        // at its slot — for an already-chosen slot this re-proposes the
        // chosen value, which is safe — then drain pending commands into
        // fresh slots strictly above everything any promiser has chosen.
        let peers_chosen = *peers_chosen;
        let salvage = std::mem::take(salvage);
        self.proposer = ProposerState::Leading;
        let mut out = Vec::new();
        for (slot, (_, cmd)) in salvage {
            self.next_slot = self.next_slot.max(slot + 1);
            if self.chosen.contains_key(&slot) {
                continue;
            }
            self.in_flight.insert(slot, cmd.clone());
            self.tallies.insert(slot, BTreeSet::new());
            out.extend(self.broadcast(PaxosMsg::Accept {
                ballot: self.my_ballot,
                slot,
                command: cmd,
            }));
        }
        self.next_slot = self.next_slot.max(self.first_unchosen).max(peers_chosen);
        for cmd in std::mem::take(&mut self.pending) {
            out.extend(self.propose_now(cmd));
        }
        out
    }

    fn on_accept(
        &mut self,
        from: ReplicaId,
        ballot: Ballot,
        slot: Slot,
        command: C,
    ) -> Vec<Outbound<C>> {
        if ballot < self.promised {
            return vec![Outbound {
                to: from,
                msg: PaxosMsg::Nack {
                    promised: self.promised,
                },
            }];
        }
        self.promised = ballot;
        self.leader_hint = Some(ballot.proposer);
        if ballot.proposer != self.id {
            self.step_down();
        }
        self.accepted.insert(slot, (ballot, command));
        vec![Outbound {
            to: from,
            msg: PaxosMsg::Accepted { ballot, slot },
        }]
    }

    fn on_accepted(&mut self, from: ReplicaId, ballot: Ballot, slot: Slot) -> Vec<Outbound<C>> {
        if ballot != self.my_ballot || !self.is_leader() {
            return Vec::new();
        }
        let Some(tally) = self.tallies.get_mut(&slot) else {
            return Vec::new();
        };
        tally.insert(from);
        if tally.len() < self.quorum() {
            return Vec::new();
        }
        self.tallies.remove(&slot);
        let Some(command) = self.in_flight.remove(&slot) else {
            return Vec::new();
        };
        self.learn(slot, command.clone());
        self.broadcast(PaxosMsg::Chosen { slot, command })
    }

    fn on_nack(&mut self, promised: Ballot) -> Vec<Outbound<C>> {
        if promised > self.my_ballot && !matches!(self.proposer, ProposerState::Follower) {
            // Someone holds a higher ballot: step down. The caller's
            // election timeout decides whether to campaign again.
            self.step_down();
            self.my_ballot.round = promised.round;
        }
        Vec::new()
    }

    fn on_heartbeat(
        &mut self,
        from: ReplicaId,
        ballot: Ballot,
        chosen_up_to: Slot,
    ) -> Vec<Outbound<C>> {
        if ballot < self.promised {
            return Vec::new();
        }
        self.promised = self.promised.max(ballot);
        self.leader_hint = Some(from);
        if from != self.id && !matches!(self.proposer, ProposerState::Follower) {
            self.step_down();
        }
        let mut out = Vec::new();
        // A follower with queued commands (accepted while leaderless, or
        // re-queued after stepping down) hands them to the leader now.
        if from != self.id {
            for command in std::mem::take(&mut self.pending) {
                out.push(Outbound {
                    to: from,
                    msg: PaxosMsg::Forward { command },
                });
            }
        }
        if chosen_up_to > self.first_unchosen {
            out.push(Outbound {
                to: from,
                msg: PaxosMsg::CatchupRequest {
                    from: self.first_unchosen,
                },
            });
        }
        out
    }

    fn learn(&mut self, slot: Slot, command: C) {
        self.chosen.entry(slot).or_insert(command);
        while self.chosen.contains_key(&self.first_unchosen) {
            self.first_unchosen += 1;
        }
        if self.next_slot < self.first_unchosen {
            self.next_slot = self.first_unchosen;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Node = PaxosNode<u64>;

    /// Delivers all outbound messages until quiescence, dropping any
    /// message for which `drop` returns true. Returns the number delivered.
    fn pump_filtered(
        nodes: &mut [Node],
        mut initial: Vec<(ReplicaId, Outbound<u64>)>,
        drop: impl Fn(ReplicaId, &Outbound<u64>) -> bool,
    ) -> usize {
        let mut delivered = 0;
        while let Some((from, out)) = initial.pop() {
            if drop(from, &out) {
                continue;
            }
            delivered += 1;
            let replies = nodes[out.to as usize].on_message(from, out.msg);
            let to = out.to;
            initial.extend(replies.into_iter().map(|r| (to, r)));
        }
        delivered
    }

    /// Delivers all outbound messages until quiescence.
    fn pump(nodes: &mut [Node], initial: Vec<(ReplicaId, Outbound<u64>)>) -> usize {
        pump_filtered(nodes, initial, |_, _| false)
    }

    fn cluster(n: u32) -> Vec<Node> {
        (0..n).map(|i| Node::new(i, n)).collect()
    }

    fn tag(from: ReplicaId, out: Vec<Outbound<u64>>) -> Vec<(ReplicaId, Outbound<u64>)> {
        out.into_iter().map(|o| (from, o)).collect()
    }

    #[test]
    fn single_leader_commits_commands_in_order() {
        let mut nodes = cluster(3);
        let out = nodes[0].campaign();
        pump(&mut nodes, tag(0, out));
        assert!(nodes[0].is_leader());

        for cmd in [10u64, 20, 30] {
            let out = nodes[0].submit(cmd);
            pump(&mut nodes, tag(0, out));
        }
        for node in &nodes {
            let log: Vec<u64> = node.chosen_from(0).map(|(_, c)| *c).collect();
            assert_eq!(log, vec![10, 20, 30]);
            assert_eq!(node.first_unchosen(), 3);
        }
    }

    #[test]
    fn followers_forward_to_leader() {
        let mut nodes = cluster(3);
        let out = nodes[0].campaign();
        pump(&mut nodes, tag(0, out));
        // Node 2 learned the leader from the Prepare.
        let out = nodes[2].submit(99);
        pump(&mut nodes, tag(2, out));
        assert_eq!(nodes[1].chosen_from(0).count(), 1);
    }

    #[test]
    fn higher_ballot_supersedes_leader() {
        let mut nodes = cluster(3);
        let out = nodes[0].campaign();
        pump(&mut nodes, tag(0, out));
        let out = nodes[1].campaign();
        pump(&mut nodes, tag(1, out));
        assert!(!nodes[0].is_leader());
        assert!(nodes[1].is_leader());
    }

    #[test]
    fn new_leader_salvages_accepted_values() {
        let mut nodes = cluster(3);
        let out = nodes[0].campaign();
        pump(&mut nodes, tag(0, out));
        // Leader proposes but Accepted replies are lost: value accepted at
        // a quorum of acceptors yet never chosen.
        let accepts = nodes[0].submit(7);
        for o in accepts {
            nodes[o.to as usize].on_message(0, o.msg); // drop replies
        }
        assert_eq!(nodes[2].chosen_from(0).count(), 0);
        // Node 1 campaigns and must salvage command 7 into slot 0.
        let out = nodes[1].campaign();
        pump(&mut nodes, tag(1, out));
        let log: Vec<u64> = nodes[2].chosen_from(0).map(|(_, c)| *c).collect();
        assert_eq!(log, vec![7]);
    }

    #[test]
    fn nack_makes_stale_proposer_step_down() {
        let mut nodes = cluster(3);
        let out = nodes[1].campaign();
        pump(&mut nodes, tag(1, out));
        // Node 0 campaigns with a stale view; its ballot round (2, 0) is
        // below (2, 1)? No: rounds tie at 2 but proposer 0 < 1, so node 0's
        // prepare is rejected by promised (2,1) holders... unless it wins.
        // Either way the protocol must keep a single leader.
        let out = nodes[0].campaign();
        pump(&mut nodes, tag(0, out));
        let leaders = nodes.iter().filter(|n| n.is_leader()).count();
        assert_eq!(leaders, 1);
    }

    #[test]
    fn pending_commands_drain_after_election() {
        let mut nodes = cluster(3);
        // Submit before any leader exists: queued locally.
        assert!(nodes[0].submit(5).is_empty());
        let out = nodes[0].campaign();
        pump(&mut nodes, tag(0, out));
        let log: Vec<u64> = nodes[1].chosen_from(0).map(|(_, c)| *c).collect();
        assert_eq!(log, vec![5]);
    }

    #[test]
    fn heartbeat_triggers_catchup() {
        let mut nodes = cluster(3);
        let out = nodes[0].campaign();
        pump(&mut nodes, tag(0, out));
        // Commit a command but drop everything to node 2.
        let out = nodes[0].submit(8);
        pump_filtered(&mut nodes, tag(0, out), |_, o| o.to == 2);
        assert_eq!(nodes[2].chosen_from(0).count(), 0);
        // Heartbeat reveals the gap; catch-up fills it.
        let hb = nodes[0].heartbeat();
        pump(&mut nodes, tag(0, hb));
        assert_eq!(nodes[2].chosen_from(0).count(), 1);
    }

    #[test]
    fn five_node_quorum_tolerates_two_silent() {
        let mut nodes = cluster(5);
        let out = nodes[0].campaign();
        // Drop everything to nodes 3 and 4.
        pump_filtered(&mut nodes, tag(0, out), |_, o| o.to >= 3);
        assert!(nodes[0].is_leader());
        let out = nodes[0].submit(1);
        pump_filtered(&mut nodes, tag(0, out), |_, o| o.to >= 3);
        assert_eq!(nodes[1].chosen_from(0).count(), 1);
    }

    #[test]
    fn a_promise_lists_accepted_slots_in_slot_order() {
        let mut node = Node::new(1, 3);
        let leader = Ballot {
            round: 1,
            proposer: 0,
        };
        for slot in 0..32 {
            node.on_message(
                0,
                PaxosMsg::Accept {
                    ballot: leader,
                    slot,
                    command: slot,
                },
            );
        }
        let out = node.on_message(
            2,
            PaxosMsg::Prepare {
                ballot: Ballot {
                    round: 2,
                    proposer: 2,
                },
            },
        );
        let [Outbound {
            msg: PaxosMsg::Promise { accepted, .. },
            ..
        }] = out.as_slice()
        else {
            panic!("expected one Promise, got {out:?}");
        };
        let slots: Vec<Slot> = accepted.iter().map(|(s, _, _)| *s).collect();
        assert_eq!(slots.len(), 32);
        assert!(
            slots.windows(2).all(|w| w[0] < w[1]),
            "promise slots out of order: {slots:?}"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_replica_id_panics() {
        Node::new(3, 3);
    }
}

//! Property tests for Paxos safety.
//!
//! Under arbitrary message loss, reordering, and competing campaigns:
//!
//! * **Agreement** — no two replicas choose different commands for the same
//!   slot.
//! * **Validity** — every chosen command was actually submitted.

use mala_consensus::paxos::{Outbound, PaxosNode};
use proptest::prelude::*;
use std::collections::BTreeMap;

type Node = PaxosNode<u64>;

/// A scripted action in the fuzz schedule.
#[derive(Debug, Clone)]
enum Action {
    /// Replica campaigns for leadership.
    Campaign(u32),
    /// Replica receives a client command.
    Submit(u32, u64),
    /// Deliver the i-th oldest in-flight message (mod queue length).
    Deliver(usize),
    /// Drop the i-th oldest in-flight message (mod queue length).
    Drop(usize),
    /// Replica emits a heartbeat.
    Heartbeat(u32),
}

fn arb_action(n: u32) -> impl Strategy<Value = Action> {
    prop_oneof![
        1 => (0..n).prop_map(Action::Campaign),
        3 => ((0..n), (1u64..100)).prop_map(|(r, c)| Action::Submit(r, c)),
        12 => (0usize..64).prop_map(Action::Deliver),
        3 => (0usize..64).prop_map(Action::Drop),
        1 => (0..n).prop_map(Action::Heartbeat),
    ]
}

fn run_schedule(n: u32, actions: &[Action]) -> (Vec<Node>, Vec<u64>) {
    let mut nodes: Vec<Node> = (0..n).map(|i| Node::new(i, n)).collect();
    let mut wire: Vec<(u32, Outbound<u64>)> = Vec::new();
    let mut submitted: Vec<u64> = Vec::new();
    for action in actions {
        match action {
            Action::Campaign(r) => {
                let out = nodes[*r as usize].campaign();
                wire.extend(out.into_iter().map(|o| (*r, o)));
            }
            Action::Submit(r, c) => {
                submitted.push(*c);
                let out = nodes[*r as usize].submit(*c);
                wire.extend(out.into_iter().map(|o| (*r, o)));
            }
            Action::Deliver(i) => {
                if wire.is_empty() {
                    continue;
                }
                let (from, out) = wire.remove(i % wire.len());
                let replies = nodes[out.to as usize].on_message(from, out.msg);
                let to = out.to;
                wire.extend(replies.into_iter().map(|r| (to, r)));
            }
            Action::Drop(i) => {
                if wire.is_empty() {
                    continue;
                }
                wire.remove(i % wire.len());
            }
            Action::Heartbeat(r) => {
                let out = nodes[*r as usize].heartbeat();
                wire.extend(out.into_iter().map(|o| (*r, o)));
            }
        }
    }
    // Drain the remaining wire in order, so liveness-ish checks see a
    // settled system (safety must hold at every prefix regardless).
    while let Some((from, out)) = wire.pop() {
        let replies = nodes[out.to as usize].on_message(from, out.msg);
        let to = out.to;
        wire.extend(replies.into_iter().map(|r| (to, r)));
    }
    (nodes, submitted)
}

fn check_agreement_and_validity(nodes: &[Node], submitted: &[u64]) -> Result<(), TestCaseError> {
    let mut decided: BTreeMap<u64, u64> = BTreeMap::new();
    for node in nodes {
        for (slot, cmd) in node.chosen_from(0) {
            if let Some(prev) = decided.insert(slot, *cmd) {
                prop_assert_eq!(
                    prev,
                    *cmd,
                    "disagreement at slot {}: {} vs {}",
                    slot,
                    prev,
                    cmd
                );
            }
            prop_assert!(
                submitted.contains(cmd),
                "chosen command {} was never submitted",
                cmd
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn three_replicas_agree_under_chaos(
        actions in prop::collection::vec(arb_action(3), 0..200)
    ) {
        let (nodes, submitted) = run_schedule(3, &actions);
        check_agreement_and_validity(&nodes, &submitted)?;
    }

    #[test]
    fn five_replicas_agree_under_chaos(
        actions in prop::collection::vec(arb_action(5), 0..300)
    ) {
        let (nodes, submitted) = run_schedule(5, &actions);
        check_agreement_and_validity(&nodes, &submitted)?;
    }

    #[test]
    fn lossless_single_leader_run_decides_everything(
        cmds in prop::collection::vec(1u64..1000, 1..20)
    ) {
        let mut nodes: Vec<Node> = (0..3).map(|i| Node::new(i, 3)).collect();
        let mut wire: Vec<(u32, Outbound<u64>)> = nodes[0]
            .campaign()
            .into_iter()
            .map(|o| (0, o))
            .collect();
        while let Some((from, out)) = wire.pop() {
            let replies = nodes[out.to as usize].on_message(from, out.msg);
            let to = out.to;
            wire.extend(replies.into_iter().map(|r| (to, r)));
        }
        for c in &cmds {
            let out = nodes[0].submit(*c);
            wire.extend(out.into_iter().map(|o| (0, o)));
            while let Some((from, out)) = wire.pop() {
                let replies = nodes[out.to as usize].on_message(from, out.msg);
                let to = out.to;
                wire.extend(replies.into_iter().map(|r| (to, r)));
            }
        }
        for node in &nodes {
            let log: Vec<u64> = node.chosen_from(0).map(|(_, c)| *c).collect();
            prop_assert_eq!(&log, &cmds);
        }
    }
}

//! The scheduler against a reference model.
//!
//! Random programs of sends, timers, cancels (of live, fired, already
//! cancelled and previous-incarnation handles), crashes, restarts and
//! injected messages run on [`Sim`] and on [`Model`], a few dozen lines
//! that state the scheduler's rules with the plainest structures there are:
//! one ordered map keyed `(at, seq)`, a set of cancelled timer ids that is
//! only ever added to, per-node incarnation counters. Whatever the real
//! scheduler keeps instead, every dispatch, the clock, the queue length and
//! the `sim.*` counters must come out the same.

use std::any::Any;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::rc::Rc;

use mala_sim::{
    Actor, Context, NetConfig, Network, NodeId, Sim, SimDuration, SimTime, TimerHandle,
};
use proptest::prelude::*;

/// Nodes `0..NODES` exist; [`GHOST`] never does.
const NODES: u32 = 3;
const GHOST: u32 = 9;
const LOCAL_US: u64 = 5;
const REMOTE_US: u64 = 150;
/// What every process does on start: arm this timer.
const START_TIMER: (u64, u64) = (50, 999);
/// A timer whose token is at least this makes its node message its
/// neighbour when it fires.
const CHATTY: u64 = 100;
/// The scheduler keeps events due less than this many µs ahead in its
/// calendar and the rest in its heap; the draws straddle it.
const HORIZON: u64 = 1024;

/// `(time, node, what happened)`, in dispatch order.
type Log = Vec<(u64, u32, String)>;

fn neighbour(node: u32) -> u32 {
    (node + 1) % NODES
}

#[derive(Debug, Clone)]
enum Cmd {
    Send {
        from: u32,
        to: u32,
        extra: u64,
    },
    SetTimer {
        node: u32,
        delay: u64,
        token: u64,
    },
    /// Cancels the `pick`-th handle issued so far (modulo how many there
    /// are), whatever became of its timer.
    Cancel {
        pick: usize,
    },
    Crash {
        node: u32,
    },
    Restart {
        node: u32,
    },
    Inject {
        to: u32,
    },
    Step {
        n: usize,
    },
}

/// How far ahead an event is due: mostly short, but also one µs either
/// side of the horizon and far beyond it.
fn due() -> impl Strategy<Value = u64> {
    prop_oneof![
        6 => 0u64..400,
        3 => (HORIZON - 1)..=(HORIZON + 1),
        2 => 10_000u64..1_000_000,
    ]
}

fn cmd() -> impl Strategy<Value = Cmd> {
    // Index NODES stands for the node that was never created.
    let target = (0..=NODES).prop_map(|n| if n == NODES { GHOST } else { n });
    // A send's extra delay, less a hop's latency, so that its delivery too
    // can land on either side of the horizon.
    let extra =
        (due(), 0usize..3).prop_map(|(due, hop)| due.saturating_sub([0, LOCAL_US, REMOTE_US][hop]));
    prop_oneof![
        4 => (0..NODES, target.clone(), extra).prop_map(|(from, to, extra)| Cmd::Send { from, to, extra }),
        4 => (0..NODES, due(), 0u64..200).prop_map(|(node, delay, token)| Cmd::SetTimer { node, delay, token }),
        4 => (0usize..256).prop_map(|pick| Cmd::Cancel { pick }),
        1 => (0..NODES).prop_map(|node| Cmd::Crash { node }),
        2 => (0..NODES).prop_map(|node| Cmd::Restart { node }),
        1 => target.prop_map(|to| Cmd::Inject { to }),
        4 => (1usize..6).prop_map(|n| Cmd::Step { n }),
    ]
}

// ---------------------------------------------------------------- the model

enum Ev {
    Start(u32),
    Deliver {
        from: u32,
        to: u32,
        payload: u64,
    },
    Timer {
        node: u32,
        token: u64,
        id: u64,
        incarnation: u64,
    },
}

#[derive(Default)]
struct Model {
    now: u64,
    seq: u64,
    queue: BTreeMap<(u64, u64), Ev>,
    next_timer_id: u64,
    cancelled: HashSet<u64>,
    alive: HashSet<u32>,
    incarnations: HashMap<u32, u64>,
    last_delivery: HashMap<(u32, u32), u64>,
    log: Log,
    handles: Vec<u64>,
    sent: u64,
    to_dead: u64,
    stale: u64,
    crashes: u64,
}

impl Model {
    fn push(&mut self, at: u64, ev: Ev) {
        self.queue.insert((at, self.seq), ev);
        self.seq += 1;
    }

    fn add_node(&mut self, node: u32) {
        self.alive.insert(node);
        *self.incarnations.entry(node).or_insert(0) += 1;
        self.push(self.now, Ev::Start(node));
    }

    fn send(&mut self, from: u32, to: u32, extra: u64, payload: u64) {
        let latency = if from == to { LOCAL_US } else { REMOTE_US };
        let mut at = self.now + latency + extra;
        if let Some(&prev) = self.last_delivery.get(&(from, to)) {
            if at <= prev {
                at = prev + 1;
            }
        }
        self.last_delivery.insert((from, to), at);
        self.push(at, Ev::Deliver { from, to, payload });
        self.sent += 1;
    }

    fn set_timer(&mut self, node: u32, delay: u64, token: u64) {
        let id = self.next_timer_id;
        self.next_timer_id += 1;
        let incarnation = self.incarnations[&node];
        self.push(
            self.now + delay,
            Ev::Timer {
                node,
                token,
                id,
                incarnation,
            },
        );
        self.handles.push(id);
    }

    fn step(&mut self) -> bool {
        let Some(((at, _), ev)) = self.queue.pop_first() else {
            return false;
        };
        self.now = at;
        match ev {
            Ev::Start(node) => {
                if self.dispatch(node, "start".into()) {
                    self.set_timer(node, START_TIMER.0, START_TIMER.1);
                }
            }
            Ev::Deliver { from, to, payload } => {
                self.dispatch(to, format!("msg {payload} from {from}"));
            }
            Ev::Timer {
                node,
                token,
                id,
                incarnation,
            } => {
                if self.cancelled.remove(&id) {
                    // A tombstone: it moved the clock and nothing else.
                } else if self.incarnations[&node] != incarnation {
                    self.stale += 1;
                } else if self.dispatch(node, format!("timer {token}")) && token >= CHATTY {
                    self.send(node, neighbour(node), 0, token);
                }
            }
        }
        true
    }

    fn dispatch(&mut self, node: u32, what: String) -> bool {
        if !self.alive.contains(&node) {
            self.to_dead += 1;
            return false;
        }
        self.log.push((self.now, node, what));
        true
    }
}

// ------------------------------------------------- the same program on Sim

/// State shared by every incarnation of every process, so it outlives them.
#[derive(Default)]
struct Shared {
    log: Log,
    handles: Vec<TimerHandle>,
}

struct Proc(Rc<RefCell<Shared>>);

impl Proc {
    fn record(&self, ctx: &Context<'_>, what: String) {
        let entry = (ctx.now().as_micros(), ctx.me().0, what);
        self.0.borrow_mut().log.push(entry);
    }
}

fn arm(shared: &Rc<RefCell<Shared>>, ctx: &mut Context<'_>, delay: u64, token: u64) {
    let handle = ctx.set_timer(SimDuration::from_micros(delay), token);
    shared.borrow_mut().handles.push(handle);
}

impl Actor for Proc {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.record(ctx, "start".into());
        arm(&self.0, ctx, START_TIMER.0, START_TIMER.1);
    }
    fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, msg: Box<dyn Any>) {
        let payload = msg.downcast::<u64>().expect("payloads are u64");
        self.record(ctx, format!("msg {payload} from {}", from.0));
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        self.record(ctx, format!("timer {token}"));
        if token >= CHATTY {
            ctx.send(NodeId(neighbour(ctx.me().0)), token);
        }
    }
}

fn run(program: &[Cmd]) {
    let net = Network::new(NetConfig {
        base_latency: SimDuration::from_micros(REMOTE_US),
        jitter: SimDuration::ZERO,
        local_latency: SimDuration::from_micros(LOCAL_US),
        drop_probability: 0.0,
    });
    let mut sim = Sim::with_network(1, net);
    let mut model = Model::default();
    let shared = Rc::new(RefCell::new(Shared::default()));
    for node in 0..NODES {
        sim.add_node(NodeId(node), Proc(shared.clone()));
        model.add_node(node);
    }

    for (i, cmd) in program.iter().enumerate() {
        match *cmd {
            // A harness can only borrow a process that is running; the
            // model says which are.
            Cmd::Send { from, to, extra } if model.alive.contains(&from) => {
                let payload = 10_000 + i as u64;
                sim.with_actor::<Proc, _>(NodeId(from), |_, ctx| {
                    ctx.send_after(SimDuration::from_micros(extra), NodeId(to), payload);
                });
                model.send(from, to, extra, payload);
            }
            Cmd::SetTimer { node, delay, token } if model.alive.contains(&node) => {
                sim.with_actor::<Proc, _>(NodeId(node), |p, ctx| arm(&p.0, ctx, delay, token));
                model.set_timer(node, delay, token);
            }
            Cmd::Cancel { pick } if !model.handles.is_empty() => {
                let pick = pick % model.handles.len();
                let handle = shared.borrow().handles[pick];
                // Any running process will do: a handle is not tied to
                // the context that cancels it.
                if let Some(&via) = model.alive.iter().min() {
                    sim.with_actor::<Proc, _>(NodeId(via), |_, ctx| ctx.cancel_timer(handle));
                    model.cancelled.insert(model.handles[pick]);
                }
            }
            Cmd::Crash { node } => {
                sim.crash(NodeId(node));
                model.alive.remove(&node);
                model.crashes += 1;
            }
            Cmd::Restart { node } => {
                sim.restart(NodeId(node), Proc(shared.clone()));
                model.add_node(node);
            }
            Cmd::Inject { to } => {
                let payload = 20_000 + i as u64;
                sim.inject(NodeId(to), payload);
                model.push(
                    model.now,
                    Ev::Deliver {
                        from: to,
                        to,
                        payload,
                    },
                );
            }
            Cmd::Step { n } => {
                for _ in 0..n {
                    let stepped = sim.step();
                    assert_eq!(stepped.is_some(), model.step(), "step {i}: queue emptiness");
                    if let Some(at) = stepped {
                        assert_eq!(at, SimTime(model.now), "step {i}: event time");
                    }
                }
            }
            Cmd::Send { .. } | Cmd::SetTimer { .. } | Cmd::Cancel { .. } => {}
        }
        assert_eq!(sim.queue_len(), model.queue.len(), "after {i}: {cmd:?}");
        for node in 0..NODES {
            assert_eq!(sim.is_crashed(NodeId(node)), !model.alive.contains(&node));
        }
    }

    sim.run_until_idle();
    while model.step() {}
    assert_eq!(sim.now(), SimTime(model.now), "clock after run_until_idle");
    assert_eq!(sim.queue_len(), 0);
    assert_eq!(shared.borrow().log, model.log, "dispatch log");
    assert_eq!(shared.borrow().handles.len(), model.handles.len());
    let metrics = sim.metrics();
    assert_eq!(metrics.counter("sim.messages_sent"), model.sent);
    assert_eq!(metrics.counter("sim.messages_to_dead_nodes"), model.to_dead);
    assert_eq!(metrics.counter("sim.stale_timers_dropped"), model.stale);
    assert_eq!(metrics.counter("sim.crashes"), model.crashes);
    assert_eq!(metrics.counter("sim.messages_dropped"), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn scheduler_matches_the_reference_model(program in prop::collection::vec(cmd(), 0..120)) {
        run(&program);
    }
}

/// The shape the production clients produce all day: a watchdog re-armed
/// from its own firing, cancelling the handle that just fired.
#[test]
fn rearm_and_cancel_spent_handles_matches_the_model() {
    let mut program = Vec::new();
    for round in 0..200usize {
        program.push(Cmd::SetTimer {
            node: 0,
            delay: 20,
            token: round as u64 % 7,
        });
        program.push(Cmd::Step { n: 2 });
        program.push(Cmd::Cancel { pick: round });
        program.push(Cmd::Cancel { pick: round });
    }
    run(&program);
}

/// A timer armed one horizon ahead waits in the heap; one armed later for
/// the same instant waits in the calendar. They meet at that instant, and
/// the earlier push pops first, whichever of them is cancelled: after the
/// first pop at that instant, cancelling the other one must still stop it.
/// (The calendar one cannot be the earlier push: the clock never runs
/// back, so an event pushed before another for the same instant was due
/// at least as far ahead.)
#[test]
fn a_far_and_a_near_event_at_one_instant_pop_in_push_order() {
    // Handles 0..3 are the start timers; 3 is the far timer, 4 the near one.
    const FAR: usize = 3;
    const NEAR: usize = 4;
    for (cancel_first, cancel_after) in [(None, NEAR), (Some(FAR), NEAR), (Some(NEAR), FAR)] {
        let mut program = vec![
            // The three starts, at 0.
            Cmd::Step { n: 3 },
            // Due at 1073, a horizon and 49 µs ahead.
            Cmd::SetTimer {
                node: 0,
                delay: HORIZON + 49,
                token: 1,
            },
            // Node 0's start timer: the clock moves to 50.
            Cmd::Step { n: 1 },
            // Due at 1073 too, one µs inside the horizon.
            Cmd::SetTimer {
                node: 1,
                delay: HORIZON - 1,
                token: 2,
            },
            // Due at 1074, on the horizon.
            Cmd::SetTimer {
                node: 2,
                delay: HORIZON,
                token: 3,
            },
        ];
        program.extend(cancel_first.map(|pick| Cmd::Cancel { pick }));
        // Two start timers at 50, three chatty messages at 200, then the
        // first of the two at 1073.
        program.push(Cmd::Step { n: 6 });
        program.push(Cmd::Cancel { pick: cancel_after });
        run(&program);
    }
}

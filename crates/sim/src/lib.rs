//! Deterministic discrete-event simulation runtime.
//!
//! Every distributed component in the Malacology reproduction — monitors,
//! object storage daemons (OSDs), metadata servers (MDSs) and clients — runs
//! as an [`Actor`] inside a single-threaded [`Sim`]. The simulator owns a
//! virtual clock, an ordered event queue, a configurable network latency
//! model and a seeded random number generator, so every experiment in the
//! paper can be replayed bit-for-bit.
//!
//! # Examples
//!
//! ```
//! use mala_sim::{Actor, Context, NodeId, Sim, SimDuration};
//!
//! #[derive(Debug)]
//! struct Ping(u32);
//!
//! struct Echo;
//! impl Actor for Echo {
//!     fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, msg: Box<dyn std::any::Any>) {
//!         if let Ok(ping) = msg.downcast::<Ping>() {
//!             ctx.send(from, Ping(ping.0 + 1));
//!         }
//!     }
//! }
//!
//! struct Probe(u32);
//! impl Actor for Probe {
//!     fn on_start(&mut self, ctx: &mut Context<'_>) {
//!         ctx.send(NodeId(1), Ping(41));
//!     }
//!     fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, msg: Box<dyn std::any::Any>) {
//!         self.0 = msg.downcast::<Ping>().unwrap().0;
//!     }
//! }
//!
//! let mut sim = Sim::new(7);
//! sim.add_node(NodeId(0), Probe(0));
//! sim.add_node(NodeId(1), Echo);
//! sim.run_for(SimDuration::from_secs(1));
//! assert_eq!(sim.actor::<Probe>(NodeId(0)).0, 42);
//! ```

pub mod deadlines;
pub mod disk;
pub mod history;
pub mod idmap;
pub mod linearize;
pub mod metrics;
pub mod nemesis;
pub mod net;
pub mod requests;
pub mod time;
pub mod trace;

pub mod actor;
mod queue;
mod sched;

pub use actor::{Actor, Context, TimerHandle};
pub use deadlines::Deadlines;
pub use disk::{Disk, Disks, Record};
pub use idmap::{IdMap, IdSet};
pub use metrics::{CounterName, Hist, Metrics};
pub use nemesis::{Fault, FaultSchedule, FaultTargets, Nemesis};
pub use net::{NetConfig, Network};
pub use requests::{Requests, Routes};
pub use sched::Sim;
pub use time::{SimDuration, SimTime};
pub use trace::{SpanContext, SpanId, SpanRecord, TraceId, Tracer};

/// Identifier of a simulated node (daemon or client).
///
/// Node ids are plain integers assigned by the experiment harness; they play
/// the role that host/port pairs play in a real cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

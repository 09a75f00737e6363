//! Consensus substrate: multi-decree Paxos and the monitor service.
//!
//! Ceph's monitors maintain authoritative, versioned *cluster maps* (OSD
//! map, MDS map, ...) behind a Paxos quorum; Malacology's Service Metadata
//! interface (paper §4.1) exposes that machinery as a strongly-consistent
//! key-value service for time-varying service metadata — balancer versions,
//! installed object interfaces, sequencer placements.
//!
//! This crate reproduces both layers:
//!
//! * [`paxos`] — a pure (sans-I/O) multi-decree Paxos state machine, unit-
//!   and property-tested in isolation (agreement under message loss,
//!   reordering, and competing proposers).
//! * [`monitor`] — the monitor daemon actor: batches client updates into
//!   proposals on a configurable *accumulation interval* (1 s in stock
//!   Ceph; the paper lowers it to ~222 ms on a 3-monitor quorum), proposes
//!   a zlog epoch bump and its own MDS liveness actions at once, applies
//!   chosen batches to versioned maps, and sends each subscriber the
//!   snapshot of every map a batch touched.
//! * [`follower`] — a daemon's copy of one map, kept current: the one
//!   place that subscribes, fetches, compares epochs and adopts snapshots.
//! * [`maps`] — the entry codec of the typed maps (osdmap, mdsmap, zlog
//!   epochs), each map's proposal policy and the parsed MDS map: the
//!   monitor and the daemons read and write map entries through it alone.
//!
//! The proposal interval is the experimental knob behind the paper's
//! Figure 8 (interface-propagation latency).
// Recovery and ingress paths must degrade, not abort: turn every stray
// panic site into a handled error. Test code is exempt.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod follower;
pub mod maps;
pub mod monitor;
pub mod paxos;

pub use follower::{MapFollower, MapView};
pub use maps::{SERVICE_MAP_MDS, SERVICE_MAP_OSD, SERVICE_MAP_ZLOG};
pub use monitor::{
    MapSnapshot, MapUpdate, MonConfig, MonMsg, Monitor, SERVICE_MAP_INTERFACES, SERVICE_MAP_MANTLE,
};
pub use paxos::{Ballot, PaxosMsg, PaxosNode, ReplicaId, Slot};

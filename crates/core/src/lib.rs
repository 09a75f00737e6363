//! Malacology: a programmable storage system.
//!
//! This crate is the paper's headline contribution: a storage system that
//! *exposes its internal services as composable interfaces* so new
//! higher-level services can be programmed out of code-hardened
//! subsystems instead of built from scratch. The interfaces
//! (paper §4, Table 2) are catalogued and typed in [`interfaces`]:
//!
//! | Interface | Substrate | Provides |
//! |---|---|---|
//! | Service Metadata | monitor (Paxos cluster maps) | consensus/consistency |
//! | Data I/O | OSD object classes (scripted) | transactions/atomicity |
//! | Shared Resource | MDS capabilities/leases | serialization/batching |
//! | File Type | MDS inode types | data/metadata access |
//! | Load Balancing | MDS subtree migration | migration/sampling |
//! | Durability | RADOS object store | persistence/safety |
//!
//! [`cluster`] assembles the whole simulated stack — monitors, OSDs, MDS
//! ranks, clients — into one deterministic [`mala_sim::Sim`], which is the
//! harness every example, test, and paper-figure bench drives.
//!
//! The two services the paper builds on these interfaces live in their
//! own crates: `mala-mantle` (programmable metadata load balancer) and
//! `mala-zlog` (CORFU-style shared log).
//!
//! # Examples
//!
//! ```
//! use malacology::cluster::ClusterBuilder;
//! use mala_sim::SimDuration;
//!
//! let mut cluster = ClusterBuilder::new()
//!     .monitors(1)
//!     .osds(3)
//!     .mds_ranks(1)
//!     .pool("data", 32, 2)
//!     .build(42);
//! cluster.sim.run_for(SimDuration::from_secs(1));
//! assert!(cluster.ready());
//! ```
// Serving paths must degrade, not abort: a stray panic site is a lint
// error outside tests.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod cluster;
pub mod interfaces;

pub use cluster::{Cluster, ClusterBuilder};
pub use interfaces::{InterfaceInfo, INTERFACE_CATALOG};

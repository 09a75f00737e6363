//! Simulated RADOS: the reliable, autonomous, distributed object store.
//!
//! Ceph's RADOS layer gives Malacology its Durability interface (paper
//! §4.4) and its Data I/O interface (§4.2). This crate rebuilds the pieces
//! the paper's services and experiments exercise:
//!
//! * **Objects** ([`object`]) — a byte stream plus a sorted key-value
//!   database (omap) plus extended attributes, mutated through atomic
//!   multi-op transactions ([`ops`]).
//! * **Object classes** ([`class`]) — named method groups executed on the
//!   OSD holding the object: native (Rust) classes mirroring Ceph's C++
//!   classes, and *scripted* classes written in Cephalo that can be
//!   installed cluster-wide at runtime through the monitor, reproducing the
//!   paper's dynamic Lua interfaces.
//! * **Framed lists** ([`frame`]) — the one wire shape of vectored class
//!   calls: the registry frames the list a scripted method returns, the
//!   `unframe` native hands a script the list its caller framed.
//! * **The shipped class catalog** ([`class_registry`]) — a census of
//!   classes/methods by category, regenerating the paper's Figure 2 and
//!   Table 1 statistics.
//! * **Placement** ([`placement`]) — pools, placement groups, and
//!   highest-random-weight (CRUSH-like) mapping of PGs onto OSDs.
//! * **OSD daemons** ([`osd`]) — primary-copy replication (the primary
//!   runs a transaction, its replicas apply the post-image it ships),
//!   epoch-guarded request admission, peer gossip of cluster maps (the
//!   gossip protocol lives inside the OSD actor), scrubbing, and PG
//!   recovery after failures.
//! * **Client** ([`client`]) — a librados-like client actor that maps
//!   object names to primaries and retries across map changes.
//! * **Journal** ([`journal`]) — a per-OSD write-ahead journal held
//!   outside the actor so durable state survives [`mala_sim::Sim::crash`];
//!   a restarted OSD replays it and serves exactly the writes it acked.
// Recovery and ingress paths must degrade, not abort: turn every stray
// panic site into a handled error. Test code is exempt.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod class;
pub mod class_registry;
pub mod client;
pub mod frame;
pub mod journal;
pub mod object;
pub mod ops;
pub mod osd;
pub mod osdmap;
pub mod placement;

pub use class::{ClassError, ClassRegistry, MethodKind};
pub use client::{ClientEvent, RadosClient};
pub use journal::{Journal, JournalRecord, JournalSet, JournalSnapshot};
pub use object::{DataDelta, Key, Object, ObjectDelta, ObjectId};
pub use ops::{ObjTxn, Op, OpResult, OsdError, Outcome, Transaction};
pub use osd::{Osd, OsdConfig, OsdMsg};
pub use osdmap::{OsdMapView, PoolInfo};
pub use placement::{pg_of, pg_of_id, primary_and_replicas, PgId, WEIGHT_UNIT};

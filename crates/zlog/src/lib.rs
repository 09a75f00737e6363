//! ZLog: a high-performance distributed shared log (CORFU [Balakrishnan
//! et al., NSDI '12]) built from Malacology's interfaces, as in the
//! paper's §5.2.
//!
//! The mapping onto the storage system:
//!
//! * **Sequencer** — a [`mala_mds::FileType::Sequencer`] inode: the
//!   64-bit log tail lives *in the inode* (File Type interface), and
//!   exclusive access is arbitrated by the MDS capability system (Shared
//!   Resource interface). Client machinery for both access modes lives in
//!   [`sequencer`]: cached/batched (Figs. 5–7) and round-trip
//!   (Figs. 9–12).
//! * **Storage interface** — a *scripted* object class
//!   ([`storage::ZLOG_CLASS_SOURCE`], installed cluster-wide through the
//!   Service Metadata interface) providing the write-once, random-read
//!   log-entry store with the epoch-based `seal` needed for sequencer
//!   recovery.
//! * **Recovery** — [`log::ZlogClient::recover`] asks the sequencer's
//!   authority to run the seal a promoted standby runs: bump the epoch in
//!   the monitor's service metadata, `seal` every stripe object
//!   (invalidating stale clients), and restart the sequencer past the
//!   maximum written position.
// Serving paths must degrade, not abort: a stray panic site is a lint
// error outside tests.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod kv;
pub mod log;
pub mod route;
pub mod sequencer;
pub mod storage;
mod window;

pub use kv::{decode_cmd, encode_cmd, KvCmd, KvStore};
pub use log::{
    log_read_of, AppendResult, BatchConfig, ReadConfig, ReadOutcome, ZlogClient, ZlogConfig,
};
pub use route::SeqRouter;
pub use sequencer::{SeqMode, SeqStats, SeqWorkload};
pub use storage::{
    encode_checkpoint, encode_read_batch, encode_write_batch, zlog_interface_update, ZLOG_CLASS,
    ZLOG_CLASS_SOURCE,
};

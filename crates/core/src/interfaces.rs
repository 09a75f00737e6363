//! The programmable-storage interfaces: catalog (the paper's Table 2) and
//! typed helpers for composing them.
//!
//! Each helper builds the messages/updates a harness sends into the
//! simulated cluster; none of them hide the underlying subsystem — that is
//! the point of the programmable storage approach ("expose, don't wrap").

use mala_consensus::{MapUpdate, SERVICE_MAP_INTERFACES};
use mala_mds::types::CapPolicyConfig;
use mala_rados::{Op, Transaction};

/// One row of the paper's Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterfaceInfo {
    /// Interface name.
    pub name: &'static str,
    /// Paper section defining it.
    pub section: &'static str,
    /// Example of the same abstraction in production systems.
    pub production_example: &'static str,
    /// The Ceph subsystem it exposes.
    pub ceph_example: &'static str,
    /// Functionality provided.
    pub functionality: &'static str,
}

/// The paper's Table 2, verbatim.
pub const INTERFACE_CATALOG: &[InterfaceInfo] = &[
    InterfaceInfo {
        name: "Service Metadata",
        section: "§4.1",
        production_example: "Zookeeper/Chubby coordination",
        ceph_example: "cluster state management",
        functionality: "consensus/consistency",
    },
    InterfaceInfo {
        name: "Data I/O",
        section: "§4.2",
        production_example: "Swift in situ storage/compute",
        ceph_example: "object interface classes",
        functionality: "transaction/atomicity",
    },
    InterfaceInfo {
        name: "Shared Resource",
        section: "§4.3.1",
        production_example: "MPI collective I/O, burst buffers",
        ceph_example: "POSIX metadata protocols",
        functionality: "serialization/batching",
    },
    InterfaceInfo {
        name: "File Type",
        section: "§4.3.2",
        production_example: "MPI architecture-specific code",
        ceph_example: "file striping strategy",
        functionality: "data/metadata access",
    },
    InterfaceInfo {
        name: "Load Balancing",
        section: "§4.3.3",
        production_example: "VMWare's VM migration",
        ceph_example: "migrate POSIX metadata",
        functionality: "migration/sampling",
    },
    InterfaceInfo {
        name: "Durability",
        section: "§4.4",
        production_example: "S3/Swift interfaces (RESTful API)",
        ceph_example: "object store library",
        functionality: "persistence/safety",
    },
];

/// Service Metadata interface (§4.1): strongly-consistent, versioned
/// service state through the monitor's Paxos maps.
pub mod service_metadata {
    use super::*;

    /// Update registering an arbitrary service-metadata value.
    pub fn set(map: &str, key: &str, value: impl Into<Vec<u8>>) -> MapUpdate {
        MapUpdate::set(map, key, value)
    }

    /// Update deleting a service-metadata key.
    pub fn del(map: &str, key: &str) -> MapUpdate {
        MapUpdate::del(map, key)
    }
}

/// Data I/O interface (§4.2): dynamically-installed, versioned object
/// interfaces executed where the data lives.
pub mod data_io {
    use super::*;

    /// Update installing (or upgrading) a scripted object class
    /// cluster-wide. The new version is live on every OSD without any
    /// restart — the Malacology contribution over static C++ classes.
    pub fn install_interface(class: &str, cephalo_source: &str) -> MapUpdate {
        MapUpdate::set(
            SERVICE_MAP_INTERFACES,
            class,
            cephalo_source.as_bytes().to_vec(),
        )
    }

    /// A transaction invoking `class.method` with `input`.
    pub fn call(class: &str, method: &str, input: impl AsRef<[u8]>) -> Transaction {
        vec![Op::Call {
            class: class.into(),
            method: method.into(),
            input: input.as_ref().into(),
        }]
    }
}

/// Shared Resource interface (§4.3.1): capability policies arbitrating
/// access to a contended resource.
pub mod shared_resource {
    use super::*;
    use mala_mds::types::MdsMsg;
    use mala_sim::SimDuration;

    /// Best-effort sharing (Ceph's default; recall on contention).
    pub fn best_effort() -> CapPolicyConfig {
        CapPolicyConfig::best_effort()
    }

    /// Bounded-hold sharing: a holder keeps the resource up to `hold`
    /// under contention (the paper's "delay" policy).
    pub fn delay(hold: SimDuration) -> CapPolicyConfig {
        CapPolicyConfig::delay(hold)
    }

    /// Quota sharing: yield after `ops` operations, with `backstop` as the
    /// hold-time bound (the paper's "quota" policy).
    pub fn quota(ops: u64, backstop: SimDuration) -> CapPolicyConfig {
        CapPolicyConfig::quota(ops, backstop)
    }

    /// Message applying a policy to an inode.
    pub fn apply(ino: u64, policy: CapPolicyConfig) -> MdsMsg {
        MdsMsg::SetCapPolicy { ino, policy }
    }
}

/// File Type interface (§4.3.2): domain-specific inode types.
pub mod file_type {
    use mala_mds::types::MdsMsg;
    use mala_mds::FileType;

    /// Message creating a domain-typed inode (e.g. a ZLog sequencer).
    pub fn create(reqid: u64, parent_path: &str, name: &str, ftype: FileType) -> MdsMsg {
        MdsMsg::Create {
            reqid,
            parent_path: parent_path.to_string(),
            name: name.to_string(),
            ftype,
        }
    }
}

/// Load Balancing interface (§4.3.3): programmable migration policies.
pub mod load_balancing {
    pub use mala_mantle::{policy_pointer_update, MantleBalancer};
    pub use mala_mds::{Balancer, CephFsBalancer, CephFsMode, NoBalancer};
}

/// Durability interface (§4.4): persisting policies and service state in
/// the back-end object store.
pub mod durability {
    use super::*;

    /// Transaction storing a whole policy/config blob in an object.
    pub fn put_blob(data: impl Into<Vec<u8>>) -> Transaction {
        vec![Op::WriteFull { data: data.into() }]
    }

    /// Transaction fetching a whole blob back.
    pub fn get_blob() -> Transaction {
        vec![Op::Read {
            offset: 0,
            len: usize::MAX / 2,
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_matches_table_2() {
        assert_eq!(INTERFACE_CATALOG.len(), 6);
        let names: Vec<&str> = INTERFACE_CATALOG.iter().map(|i| i.name).collect();
        assert_eq!(
            names,
            vec![
                "Service Metadata",
                "Data I/O",
                "Shared Resource",
                "File Type",
                "Load Balancing",
                "Durability"
            ]
        );
    }

    #[test]
    fn data_io_builders() {
        let up = data_io::install_interface("demo", "function f() end");
        assert_eq!(up.map, SERVICE_MAP_INTERFACES);
        assert_eq!(up.key, "demo");
        let txn = data_io::call("demo", "f", b"x");
        assert!(matches!(&txn[0], Op::Call { class, method, .. }
            if &**class == "demo" && &**method == "f"));
    }

    #[test]
    fn shared_resource_policies() {
        use mala_sim::SimDuration;
        assert_eq!(shared_resource::best_effort().max_hold, None);
        assert_eq!(
            shared_resource::delay(SimDuration::from_millis(250)).max_hold,
            Some(SimDuration::from_millis(250))
        );
        let q = shared_resource::quota(100, SimDuration::from_millis(250));
        assert_eq!(q.quota, Some(100));
    }

    #[test]
    fn durability_round_trip_ops() {
        let put = durability::put_blob(b"policy".to_vec());
        assert!(matches!(&put[0], Op::WriteFull { .. }));
        let get = durability::get_blob();
        assert!(matches!(&get[0], Op::Read { .. }));
    }
}

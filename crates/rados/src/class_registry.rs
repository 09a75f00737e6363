//! Built-in object classes and the class census behind Figure 2 / Table 1.
//!
//! The paper motivates programmable storage with the accelerating growth of
//! co-designed object classes in the Ceph tree (Fig. 2) and their breakdown
//! by category (Table 1: 11 logging, 74 metadata-management, 6 locking,
//! 4 other methods). We cannot mine the Ceph git history offline, so this
//! module carries a *catalog* reconstructed from the paper's reported
//! totals and the well-known class names in the Ceph tree of that era
//! (documented as a substitution in `DESIGN.md`). Several catalog entries
//! are also implemented as live native classes.

use std::rc::Rc;

use crate::class::{ClassError, ClassRegistry, MethodKind};

/// Table 1's interface categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Category {
    /// E.g. geographically distributing replicas.
    Logging,
    /// Snapshots, scanning extents for repair, indexes.
    MetadataManagement,
    /// Granting clients exclusive access.
    Locking,
    /// Garbage collection, reference counting.
    Other,
}

impl Category {
    /// Display name matching the paper's Table 1.
    pub fn name(self) -> &'static str {
        match self {
            Category::Logging => "Logging",
            Category::MetadataManagement => "Metadata Management",
            Category::Locking => "Locking",
            Category::Other => "Other",
        }
    }

    /// Example text matching the paper's Table 1.
    pub fn example(self) -> &'static str {
        match self {
            Category::Logging => "Geographically distribute replicas",
            Category::MetadataManagement => {
                "Snapshots in the block device OR scan extents for file system repair"
            }
            Category::Locking => "Grants clients exclusive access",
            Category::Other => "Garbage collection, reference counting",
        }
    }
}

/// One catalog entry: a co-designed object class and when it landed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassInfo {
    /// Class name (as in `cls_<name>` in the Ceph tree).
    pub name: &'static str,
    /// Year the class appeared.
    pub year: u16,
    /// Category per Table 1.
    pub category: Category,
    /// Number of methods (API end-points) the class exposes.
    pub methods: u32,
}

/// The reconstructed catalog. Method totals per category match Table 1
/// (11 / 74 / 6 / 4 = 95 total); the per-year cumulative counts follow the
/// accelerating growth of Figure 2 (from 1 class in 2010 to ~20 classes and
/// ~95 methods by 2016).
pub const CATALOG: &[ClassInfo] = &[
    ClassInfo {
        name: "rbd",
        year: 2010,
        category: Category::MetadataManagement,
        methods: 28,
    },
    ClassInfo {
        name: "lock",
        year: 2011,
        category: Category::Locking,
        methods: 6,
    },
    ClassInfo {
        name: "refcount",
        year: 2011,
        category: Category::Other,
        methods: 3,
    },
    ClassInfo {
        name: "rgw",
        year: 2012,
        category: Category::MetadataManagement,
        methods: 21,
    },
    ClassInfo {
        name: "log",
        year: 2012,
        category: Category::Logging,
        methods: 5,
    },
    ClassInfo {
        name: "version",
        year: 2013,
        category: Category::MetadataManagement,
        methods: 5,
    },
    ClassInfo {
        name: "statelog",
        year: 2013,
        category: Category::Logging,
        methods: 4,
    },
    ClassInfo {
        name: "replica_log",
        year: 2013,
        category: Category::Logging,
        methods: 2,
    },
    ClassInfo {
        name: "user",
        year: 2014,
        category: Category::MetadataManagement,
        methods: 5,
    },
    ClassInfo {
        name: "kvs",
        year: 2014,
        category: Category::MetadataManagement,
        methods: 4,
    },
    ClassInfo {
        name: "hello",
        year: 2014,
        category: Category::MetadataManagement,
        methods: 2,
    },
    ClassInfo {
        name: "gc",
        year: 2015,
        category: Category::Other,
        methods: 1,
    },
    ClassInfo {
        name: "timeindex",
        year: 2015,
        category: Category::MetadataManagement,
        methods: 3,
    },
    ClassInfo {
        name: "cephfs",
        year: 2015,
        category: Category::MetadataManagement,
        methods: 2,
    },
    ClassInfo {
        name: "numops",
        year: 2015,
        category: Category::MetadataManagement,
        methods: 1,
    },
    ClassInfo {
        name: "journal",
        year: 2016,
        category: Category::MetadataManagement,
        methods: 2,
    },
    ClassInfo {
        name: "rgw_gc",
        year: 2016,
        category: Category::MetadataManagement,
        methods: 1,
    },
    ClassInfo {
        name: "lua",
        year: 2016,
        category: Category::MetadataManagement,
        methods: 0,
    },
    ClassInfo {
        name: "zlog",
        year: 2016,
        category: Category::Logging,
        methods: 0,
    },
];

/// Cumulative `(year, classes, methods)` growth series (Figure 2).
pub fn growth_series() -> Vec<(u16, u32, u32)> {
    let mut out = Vec::new();
    for year in 2010..=2016 {
        let classes = CATALOG.iter().filter(|c| c.year <= year).count() as u32;
        let methods: u32 = CATALOG
            .iter()
            .filter(|c| c.year <= year)
            .map(|c| c.methods)
            .sum();
        out.push((year, classes, methods));
    }
    out
}

/// Method counts per category (Table 1). Returned in the paper's row order.
pub fn census_by_category() -> Vec<(Category, u32)> {
    [
        Category::Logging,
        Category::MetadataManagement,
        Category::Locking,
        Category::Other,
    ]
    .into_iter()
    .map(|cat| {
        let methods = CATALOG
            .iter()
            .filter(|c| c.category == cat)
            .map(|c| c.methods)
            .sum();
        (cat, methods)
    })
    .collect()
}

/// Installs the live built-in native classes.
///
/// These mirror real Ceph classes and double as the workload for the class
/// dispatch ablation bench:
///
/// * `lock` — cooperative exclusive locks in an xattr.
/// * `refcount` — reference counting in an xattr.
/// * `version` — object version get/set/check.
/// * `cls_log` — append/list timestamped entries in the omap.
/// * `checksum` — compute and cache a fingerprint of the byte stream.
pub fn install_builtin_classes(reg: &mut ClassRegistry) {
    // lock.lock(owner) / lock.unlock(owner) / lock.info()
    reg.register_native(
        "lock",
        "lock",
        MethodKind::ReadWrite,
        Rc::new(|ctx, input| {
            let owner = String::from_utf8_lossy(input).into_owned();
            if owner.is_empty() {
                return Err(ClassError::invalid("lock: empty owner"));
            }
            match ctx.xattr_get("lock.owner") {
                Some(cur) if **cur != *input => Err(ClassError::busy(format!(
                    "locked by {}",
                    String::from_utf8_lossy(cur)
                ))),
                _ => {
                    ctx.xattr_set("lock.owner", input.into());
                    Ok(Rc::default())
                }
            }
        }),
    );
    reg.register_native(
        "lock",
        "unlock",
        MethodKind::ReadWrite,
        Rc::new(|ctx, input| match ctx.xattr_get("lock.owner") {
            Some(cur) if **cur == *input => {
                ctx.xattr_del("lock.owner");
                Ok(Rc::default())
            }
            Some(cur) => Err(ClassError::busy(format!(
                "locked by {}",
                String::from_utf8_lossy(cur)
            ))),
            None => Err(ClassError::invalid("not locked")),
        }),
    );
    reg.register_native(
        "lock",
        "info",
        MethodKind::ReadOnly,
        Rc::new(|ctx, _| Ok(ctx.xattr_get("lock.owner").cloned().unwrap_or_default())),
    );

    // refcount.get / refcount.put / refcount.read
    reg.register_native(
        "refcount",
        "get",
        MethodKind::ReadWrite,
        Rc::new(|ctx, _| {
            let n = decimal(read_u64_xattr(ctx.xattr_get("refcount")) + 1);
            ctx.xattr_set("refcount", Rc::clone(&n));
            Ok(n)
        }),
    );
    reg.register_native(
        "refcount",
        "put",
        MethodKind::ReadWrite,
        Rc::new(|ctx, _| {
            let n = read_u64_xattr(ctx.xattr_get("refcount"));
            if n == 0 {
                return Err(ClassError::invalid("refcount underflow"));
            }
            let left = decimal(n - 1);
            if n == 1 {
                // Dropping the last reference garbage-collects the object.
                ctx.remove();
            } else {
                ctx.xattr_set("refcount", Rc::clone(&left));
            }
            Ok(left)
        }),
    );
    reg.register_native(
        "refcount",
        "read",
        MethodKind::ReadOnly,
        Rc::new(|ctx, _| Ok(decimal(read_u64_xattr(ctx.xattr_get("refcount"))))),
    );

    // version.set / version.get / version.check
    reg.register_native(
        "version",
        "set",
        MethodKind::ReadWrite,
        Rc::new(|ctx, input| {
            ctx.xattr_set("version", input.into());
            Ok(Rc::default())
        }),
    );
    reg.register_native(
        "version",
        "get",
        MethodKind::ReadOnly,
        Rc::new(|ctx, _| {
            Ok(ctx
                .xattr_get("version")
                .map_or_else(|| decimal(0), Rc::clone))
        }),
    );
    reg.register_native(
        "version",
        "check",
        MethodKind::ReadOnly,
        Rc::new(|ctx, input| {
            let cur = ctx.xattr_get("version").map_or(&b"0"[..], |v| v);
            if cur == input {
                Ok(Rc::default())
            } else {
                Err(ClassError::stale(format!(
                    "version is {}, expected {}",
                    String::from_utf8_lossy(cur),
                    String::from_utf8_lossy(input)
                )))
            }
        }),
    );

    // cls_log.add(entry) / cls_log.list(max)
    reg.register_native(
        "cls_log",
        "add",
        MethodKind::ReadWrite,
        Rc::new(|ctx, input| {
            let seq = ctx.obj().map_or(0, |o| o.omap.len()) as u64;
            ctx.omap_set(&format!("log.{seq:016}"), input.into());
            Ok(decimal(seq))
        }),
    );
    reg.register_native(
        "cls_log",
        "list",
        MethodKind::ReadOnly,
        Rc::new(|ctx, input| {
            let max: usize = String::from_utf8_lossy(input).parse().unwrap_or(usize::MAX);
            let mut out = Vec::new();
            for v in ctx.obj().iter().flat_map(|o| o.omap.values()).take(max) {
                out.extend_from_slice(v);
                out.push(b'\n');
            }
            Ok(out.into())
        }),
    );

    // checksum.compute — compute and cache a fingerprint of the data.
    reg.register_native(
        "checksum",
        "compute",
        MethodKind::ReadWrite,
        Rc::new(|ctx, _| {
            let fp = ctx
                .obj()
                .map(|o| o.fingerprint())
                .ok_or(ClassError::invalid("ENOENT: no object"))?;
            let text: Rc<[u8]> = format!("{fp:016x}").as_bytes().into();
            ctx.xattr_set("checksum", Rc::clone(&text));
            Ok(text)
        }),
    );
}

fn read_u64_xattr(v: Option<&Rc<[u8]>>) -> u64 {
    v.and_then(|b| std::str::from_utf8(b).ok()?.parse().ok())
        .unwrap_or(0)
}

/// `n` in decimal, as a stored value or a reply.
fn decimal(n: u64) -> Rc<[u8]> {
    n.to_string().as_bytes().into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::Object;

    fn reg() -> ClassRegistry {
        ClassRegistry::with_builtins()
    }

    #[test]
    fn census_matches_table_1() {
        let census = census_by_category();
        assert_eq!(census[0], (Category::Logging, 11));
        assert_eq!(census[1], (Category::MetadataManagement, 74));
        assert_eq!(census[2], (Category::Locking, 6));
        assert_eq!(census[3], (Category::Other, 4));
        let total: u32 = census.iter().map(|(_, m)| m).sum();
        assert_eq!(total, 95);
    }

    #[test]
    fn growth_series_is_monotone_and_accelerating_in_classes() {
        let series = growth_series();
        assert_eq!(series.first().unwrap(), &(2010, 1, 28));
        assert_eq!(series.last().unwrap().0, 2016);
        assert_eq!(series.last().unwrap().1, CATALOG.len() as u32);
        for w in series.windows(2) {
            assert!(w[1].1 >= w[0].1);
            assert!(w[1].2 >= w[0].2);
        }
        // Acceleration: more classes landed in 2014-2016 than 2010-2012.
        let early = series[2].1;
        let late = series[6].1 - series[3].1;
        assert!(late > early, "late {late} vs early {early}");
    }

    #[test]
    fn lock_class_grants_exclusive_access() {
        let reg = reg();
        let mut slot = Some(Object::new());
        reg.call("lock", "lock", &mut slot, b"client-a").unwrap();
        // Reentrant for the same owner.
        reg.call("lock", "lock", &mut slot, b"client-a").unwrap();
        let err = reg
            .call("lock", "lock", &mut slot, b"client-b")
            .unwrap_err();
        assert!(matches!(err, crate::ops::OsdError::Class(e) if e.code == -16));
        assert_eq!(
            reg.call("lock", "info", &mut slot, b"").unwrap(),
            b"client-a".to_vec()
        );
        // Only the owner can unlock.
        assert!(reg.call("lock", "unlock", &mut slot, b"client-b").is_err());
        reg.call("lock", "unlock", &mut slot, b"client-a").unwrap();
        reg.call("lock", "lock", &mut slot, b"client-b").unwrap();
    }

    #[test]
    fn refcount_collects_at_zero() {
        let reg = reg();
        let mut slot = Some(Object::new());
        assert_eq!(reg.call("refcount", "get", &mut slot, b"").unwrap(), b"1");
        assert_eq!(reg.call("refcount", "get", &mut slot, b"").unwrap(), b"2");
        assert_eq!(reg.call("refcount", "put", &mut slot, b"").unwrap(), b"1");
        assert_eq!(reg.call("refcount", "read", &mut slot, b"").unwrap(), b"1");
        assert_eq!(reg.call("refcount", "put", &mut slot, b"").unwrap(), b"0");
        assert!(slot.is_none(), "object garbage-collected at refcount 0");
    }

    #[test]
    fn version_check_dispatches_stale() {
        let reg = reg();
        let mut slot = Some(Object::new());
        reg.call("version", "set", &mut slot, b"5").unwrap();
        assert_eq!(reg.call("version", "get", &mut slot, b"").unwrap(), b"5");
        reg.call("version", "check", &mut slot, b"5").unwrap();
        let err = reg.call("version", "check", &mut slot, b"4").unwrap_err();
        assert!(matches!(err, crate::ops::OsdError::Class(e) if e.code == -116));
    }

    #[test]
    fn cls_log_appends_and_lists() {
        let reg = reg();
        let mut slot = Some(Object::new());
        assert_eq!(reg.call("cls_log", "add", &mut slot, b"e0").unwrap(), b"0");
        assert_eq!(reg.call("cls_log", "add", &mut slot, b"e1").unwrap(), b"1");
        let out = reg.call("cls_log", "list", &mut slot, b"10").unwrap();
        assert_eq!(out, b"e0\ne1\n".to_vec());
    }

    #[test]
    fn checksum_caches_fingerprint() {
        let reg = reg();
        let mut slot = Some(Object::new());
        slot.as_mut().unwrap().append(b"payload");
        let out = reg.call("checksum", "compute", &mut slot, b"").unwrap();
        assert_eq!(
            **slot.as_ref().unwrap().xattrs.get("checksum").unwrap(),
            *out
        );
    }
}

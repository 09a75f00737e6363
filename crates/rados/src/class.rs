//! Object interface classes: co-designed storage interfaces executed on
//! the OSD that holds the object (paper §2, §4.2).
//!
//! Two flavours coexist, as in the paper:
//!
//! * **Native classes** — Rust functions registered at build time,
//!   mirroring Ceph's statically-loaded C++ classes. A few production-style
//!   classes ship as built-ins ([`ClassRegistry::with_builtins`]): `lock`,
//!   `refcount`, `version`, and `cls_log`.
//! * **Scripted classes** — Cephalo source installed *at runtime*,
//!   versioned and propagated cluster-wide through the monitor's Service
//!   Metadata interface. These reproduce the dynamic Lua object interfaces
//!   that Malacology contributes.

use std::cell::RefCell;
use std::rc::Rc;

use mala_dsl::value::{fmt_num, HostCtx};
use mala_dsl::{Engine, Expr, RtError, Script, Stmt, Str, Table, Value, Vm};
use mala_sim::IdMap;

use crate::frame;
use crate::object::Object;
use crate::ops::{ObjTxn, OpResult, OsdError};

/// Error raised by a class method.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassError {
    /// errno-style code (negative, e.g. -22 for EINVAL).
    pub code: i32,
    /// Human-readable message.
    pub message: String,
}

impl ClassError {
    /// Builds an EINVAL-style error.
    pub fn invalid(message: impl Into<String>) -> ClassError {
        ClassError {
            code: -22,
            message: message.into(),
        }
    }

    /// Builds an EBUSY-style error (e.g. lock contention).
    pub fn busy(message: impl Into<String>) -> ClassError {
        ClassError {
            code: -16,
            message: message.into(),
        }
    }

    /// Builds an ESTALE-style error (epoch guard violations).
    pub fn stale(message: impl Into<String>) -> ClassError {
        ClassError {
            code: -116,
            message: message.into(),
        }
    }
}

/// Whether a method may mutate the object (drives replication decisions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MethodKind {
    /// Never mutates; may be served without replication.
    ReadOnly,
    /// May mutate; replicated like any write.
    ReadWrite,
}

/// A native class method: reads and mutates the object through the
/// transaction's tracker, so its writes roll back with the transaction.
type NativeMethod = Rc<dyn Fn(&mut ObjTxn, &[u8]) -> Result<Rc<[u8]>, ClassError>>;

struct ScriptedClass<E> {
    version: u64,
    /// Cached engine with the script loaded; rebuilt on reinstall.
    engine: RefCell<E>,
    /// The class's interface, fixed when it was loaded: the functions the
    /// script defined — not the host natives or the standard library its
    /// engine also holds as globals — each read-only if the script's
    /// `__readonly = {"m1", ...}` global named it, read-write otherwise.
    methods: IdMap<Box<str>, MethodKind>,
}

impl<E: Engine> ScriptedClass<E> {
    /// Runs `script`'s top level on a fresh engine (which declares the
    /// method functions) and resolves the method table, once per load.
    fn load(version: u64, script: &Script) -> Result<Self, ClassError> {
        let mut engine = E::new();
        install_object_natives(&mut engine);
        engine
            .load_with(script, &mut ObjHost::default())
            .map_err(|e| ClassError::invalid(format!("load error: {e}")))?;
        let readonly: Vec<String> = match engine.global("__readonly") {
            Value::Table(t) => t
                .borrow()
                .array()
                .iter()
                .filter_map(|v| v.as_str().map(str::to_string))
                .collect(),
            _ => Vec::new(),
        };
        let mut names = Vec::new();
        assigned_names(&script.block, &mut names);
        let methods = names
            .into_iter()
            .filter(|name| engine.has_script_function(name))
            .map(|name| {
                let kind = if readonly.iter().any(|m| m == name) {
                    MethodKind::ReadOnly
                } else {
                    MethodKind::ReadWrite
                };
                (name.into(), kind)
            })
            .collect();
        Ok(ScriptedClass {
            version,
            engine: RefCell::new(engine),
            methods,
        })
    }
}

/// Every name a statement of `block`, at any depth, assigns or declares a
/// function under: what a script can have made a global function of.
fn assigned_names<'a>(block: &'a [Stmt], out: &mut Vec<&'a str>) {
    for stmt in block {
        match stmt {
            Stmt::Assign(Expr::Var(name), _) | Stmt::Local(name, _) => out.push(name),
            Stmt::FuncDecl { name, body, .. } => {
                out.push(name);
                assigned_names(body, out);
            }
            Stmt::If(arms, else_blk) => {
                for body in arms.iter().map(|(_, body)| body).chain(else_blk) {
                    assigned_names(body, out);
                }
            }
            Stmt::While(_, body)
            | Stmt::Repeat(body, _)
            | Stmt::NumFor { body, .. }
            | Stmt::GenFor { body, .. } => assigned_names(body, out),
            _ => {}
        }
    }
}

/// What a method answered: bytes, or — a scripted method that returned a
/// table — the list of its items, each the buffer the script held.
enum Reply {
    Bytes(Rc<[u8]>),
    List(Vec<Rc<[u8]>>),
}

/// A resolved `class.method`.
enum Method<'a, E> {
    Native(&'a NativeMethod),
    Scripted(&'a ScriptedClass<E>),
}

/// The per-OSD registry of object classes. Scripted classes run on `E`:
/// the bytecode VM wherever the type is written without a parameter, which
/// is every production path. Only a test names another engine, to run a
/// class on the reference tree-walker ([`ClassRegistry::for_engine`]).
pub struct ClassRegistry<E = Vm> {
    /// class → method → implementation; nested so both lookups borrow.
    native: IdMap<String, IdMap<String, (MethodKind, NativeMethod)>>,
    scripted: IdMap<String, ScriptedClass<E>>,
}

impl ClassRegistry {
    /// An empty registry (no classes).
    pub fn new() -> ClassRegistry {
        ClassRegistry::for_engine()
    }

    /// A registry pre-loaded with the built-in native classes.
    pub fn with_builtins() -> ClassRegistry {
        let mut reg = ClassRegistry::new();
        crate::class_registry::install_builtin_classes(&mut reg);
        reg
    }
}

impl<E: Engine> ClassRegistry<E> {
    /// An empty registry whose scripted classes run on `E`.
    pub fn for_engine() -> Self {
        ClassRegistry {
            native: IdMap::default(),
            scripted: IdMap::default(),
        }
    }

    /// Registers a native method as `class.method`.
    pub fn register_native(
        &mut self,
        class: &str,
        method: &str,
        kind: MethodKind,
        f: NativeMethod,
    ) {
        self.native
            .entry(class.to_string())
            .or_default()
            .insert(method.to_string(), (kind, f));
    }

    /// Installs (or upgrades) a scripted class from Cephalo source.
    ///
    /// Installation is idempotent per version; an older version never
    /// replaces a newer one (late gossip must not roll interfaces back).
    ///
    /// # Errors
    ///
    /// Fails if the source does not compile or its top level errors.
    pub fn install_scripted(
        &mut self,
        class: &str,
        source: &str,
        version: u64,
    ) -> Result<(), ClassError> {
        if let Some(existing) = self.scripted.get(class) {
            if existing.version >= version {
                return Ok(());
            }
        }
        let script = Script::compile(source)
            .map_err(|e| ClassError::invalid(format!("compile error: {e}")))?;
        let cls = ScriptedClass::load(version, &script)?;
        self.scripted.insert(class.to_string(), cls);
        Ok(())
    }

    /// The installed version of a scripted class, if any.
    pub fn scripted_version(&self, class: &str) -> Option<u64> {
        self.scripted.get(class).map(|c| c.version)
    }

    fn resolve(&self, class: &str, method: &str) -> Option<(MethodKind, Method<'_, E>)> {
        if let Some((kind, f)) = self.native.get(class).and_then(|c| c.get(method)) {
            return Some((*kind, Method::Native(f)));
        }
        let cls = self.scripted.get(class)?;
        let kind = *cls.methods.get(method)?;
        Some((kind, Method::Scripted(cls)))
    }

    /// Whether `class.method` resolves, and if so its kind.
    pub fn method_kind(&self, class: &str, method: &str) -> Option<MethodKind> {
        self.resolve(class, method).map(|(kind, _)| kind)
    }

    /// Invokes `class.method` against `slot` with `input`, outside any
    /// transaction: whatever the method wrote before failing stays. The
    /// reply comes flat — a returned table as its frame ([`crate::frame`]).
    ///
    /// # Errors
    ///
    /// [`OsdError::NoClass`] if unresolved, or the class error.
    pub fn call(
        &self,
        class: &str,
        method: &str,
        slot: &mut Option<Object>,
        input: &[u8],
    ) -> Result<Vec<u8>, OsdError> {
        let mut txn = ObjTxn::begin(slot.take());
        let out = self.invoke(class, method, &mut txn, &input.into());
        *slot = txn.finish();
        Ok(match out? {
            Reply::Bytes(bytes) => bytes.to_vec(),
            Reply::List(items) => frame::encode(items.iter().map(|item| &**item)),
        })
    }

    /// Invokes `class.method` inside the transaction `txn`, which learns
    /// here — the one place the method is resolved — whether the call may
    /// mutate ([`ObjTxn::mutates`]). A scripted method is handed `input`
    /// itself and answers [`OpResult::CallOut`] with the string it returned
    /// (not a copy), or [`OpResult::CallList`] for a table.
    ///
    /// # Errors
    ///
    /// [`OsdError::NoClass`] if unresolved, or the class error.
    pub fn call_in(
        &self,
        class: &str,
        method: &str,
        txn: &mut ObjTxn,
        input: &Rc<[u8]>,
    ) -> Result<OpResult, OsdError> {
        Ok(match self.invoke(class, method, txn, input)? {
            Reply::Bytes(bytes) => OpResult::CallOut(bytes),
            Reply::List(items) => OpResult::CallList(items),
        })
    }

    fn invoke(
        &self,
        class: &str,
        method: &str,
        txn: &mut ObjTxn,
        input: &Rc<[u8]>,
    ) -> Result<Reply, OsdError> {
        let Some((kind, resolved)) = self.resolve(class, method) else {
            // Unknown classes are conservatively treated as mutations.
            txn.note_mutation();
            return Err(OsdError::NoClass(format!("{class}.{method}")));
        };
        if kind == MethodKind::ReadWrite {
            txn.note_mutation();
        }
        let cls = match resolved {
            Method::Native(f) => return f(txn, input).map(Reply::Bytes).map_err(OsdError::Class),
            Method::Scripted(cls) => cls,
        };
        // The host must be `'static` to travel as `&mut dyn Any`, so it
        // owns the tracker for the duration of the call.
        let mut host = ObjHost {
            txn: std::mem::take(txn),
            readonly: kind == MethodKind::ReadOnly,
        };
        let arg = Value::Str(Str::Heap(Rc::clone(input)));
        let out = cls.engine.borrow_mut().call(method, &[arg], &mut host);
        *txn = host.txn;
        Ok(match out.map_err(|e| OsdError::Class(rt_to_class(e)))? {
            Value::Nil => Reply::Bytes(Rc::default()),
            Value::Str(s) => Reply::Bytes(s.to_rc()),
            Value::Table(t) => Reply::List(list_items(&t.borrow()).map_err(OsdError::Class)?),
            other => Reply::Bytes(other.display().as_bytes().into()),
        })
    }
}

impl Default for ClassRegistry {
    fn default() -> Self {
        ClassRegistry::new()
    }
}

/// The reply for a method that returned a table: the items of its array
/// part, strings as the buffers they are and numbers as `fmt` prints them.
/// No payload is copied and no script builds wire text; anything a list
/// of byte strings cannot carry — a map part, a nested table, a boolean, a
/// function — is the method's error, not a silent rendering.
fn list_items(list: &Table) -> Result<Vec<Rc<[u8]>>, ClassError> {
    if !list.is_list() {
        return Err(ClassError::invalid("returned table has a map part"));
    }
    list.array()
        .iter()
        .map(|v| match v {
            Value::Str(s) => Ok(s.to_rc()),
            Value::Num(n) => Ok(fmt_num(*n).as_bytes().into()),
            other => Err(ClassError::invalid(format!(
                "returned list holds a {} value",
                other.type_name()
            ))),
        })
        .collect()
}

fn rt_to_class(e: RtError) -> ClassError {
    // Scripts raise `error("ESTALE: ...")` style messages; map the common
    // prefixes onto errno-style codes so callers can dispatch.
    let msg = e.message;
    let code = if msg.starts_with("ESTALE") {
        -116
    } else if msg.starts_with("EBUSY") {
        -16
    } else if msg.starts_with("EEXIST") {
        -17
    } else if msg.starts_with("ENOENT") {
        -2
    } else if msg.starts_with("EROFS") {
        -30
    } else {
        -22
    };
    ClassError { code, message: msg }
}

/// Host state given to scripted class methods. Owns the transaction's
/// tracker for the duration of the call so it can be `'static` (a
/// `dyn Any` requirement).
#[derive(Default)]
struct ObjHost {
    txn: ObjTxn,
    /// The running method was declared in `__readonly`: such a call is
    /// neither replicated nor journalled, so it must not write.
    readonly: bool,
}

fn host<'a>(ctx: &'a mut HostCtx<'_>) -> Result<&'a mut ObjHost, RtError> {
    ctx.host
        .downcast_mut::<ObjHost>()
        .ok_or_else(|| RtError::new("object natives require an object host"))
}

/// The tracker, for a native that writes: refused inside a read-only method.
fn writable<'a>(ctx: &'a mut HostCtx<'_>, name: &str) -> Result<&'a mut ObjTxn, RtError> {
    let h = host(ctx)?;
    if h.readonly {
        return Err(RtError::new(format!(
            "EROFS: {name} called from a read-only method"
        )));
    }
    Ok(&mut h.txn)
}

/// An omap or xattr key, or a class-defined name: text.
fn str_arg<'a>(name: &str, args: &'a [Value], i: usize) -> Result<&'a str, RtError> {
    args.get(i)
        .and_then(Value::as_str)
        .ok_or_else(|| RtError::new(format!("{name}: argument {} must be a string", i + 1)))
}

/// A value to store or to cut: the script's own string, whatever it holds.
fn bytes_arg<'a>(name: &str, args: &'a [Value], i: usize) -> Result<&'a Str, RtError> {
    match args.get(i) {
        Some(Value::Str(s)) => Ok(s),
        _ => Err(RtError::new(format!(
            "{name}: argument {} must be a string",
            i + 1
        ))),
    }
}

/// A stored value as the script sees it: the stored buffer itself.
fn stored(value: Option<&Rc<[u8]>>) -> Value {
    value.map_or(Value::Nil, |v| Value::Str(Str::Heap(Rc::clone(v))))
}

/// Registers the object-access natives scripted classes use.
fn install_object_natives(interp: &mut impl Engine) {
    interp.register(
        "data_size",
        Rc::new(|ctx, _args| {
            let size = host(ctx)?.txn.obj().map_or(0, Object::size);
            Ok(Value::Num(size as f64))
        }),
    );
    interp.register(
        "data_read",
        Rc::new(|ctx, args| {
            let off = args.first().and_then(Value::as_num).unwrap_or(0.0) as usize;
            let len = args.get(1).and_then(Value::as_num).unwrap_or(f64::MAX);
            let Some(o) = host(ctx)?.txn.obj() else {
                return Err(RtError::new("ENOENT: no object"));
            };
            let len = if len.is_finite() {
                len as usize
            } else {
                o.size()
            };
            Ok(Value::str(o.read(off, len)))
        }),
    );
    interp.register(
        "data_write",
        Rc::new(|ctx, args| {
            let off = args.first().and_then(Value::as_num).unwrap_or(0.0) as usize;
            let data = bytes_arg("data_write", args, 1)?;
            writable(ctx, "data_write")?.write(off, data);
            Ok(Value::Nil)
        }),
    );
    interp.register(
        "data_append",
        Rc::new(|ctx, args| {
            let data = bytes_arg("data_append", args, 0)?;
            writable(ctx, "data_append")?.append(data);
            Ok(Value::Nil)
        }),
    );
    interp.register(
        "omap_get",
        Rc::new(|ctx, args| {
            let key = str_arg("omap_get", args, 0)?;
            Ok(stored(host(ctx)?.txn.omap_get(key)))
        }),
    );
    interp.register(
        "omap_set",
        Rc::new(|ctx, args| {
            let key = str_arg("omap_set", args, 0)?;
            let val = bytes_arg("omap_set", args, 1)?;
            writable(ctx, "omap_set")?.omap_set(key, val.to_rc());
            Ok(Value::Nil)
        }),
    );
    interp.register(
        "omap_del",
        Rc::new(|ctx, args| {
            let key = str_arg("omap_del", args, 0)?;
            writable(ctx, "omap_del")?.omap_del(key);
            Ok(Value::Nil)
        }),
    );
    interp.register(
        "omap_del_range",
        Rc::new(|ctx, args| {
            let lo = str_arg("omap_del_range", args, 0)?;
            let hi = str_arg("omap_del_range", args, 1)?;
            let purged = writable(ctx, "omap_del_range")?.omap_del_range(lo, hi);
            Ok(Value::Num(purged as f64))
        }),
    );
    interp.register(
        "omap_max_key",
        Rc::new(|ctx, _args| {
            let obj = host(ctx)?.txn.obj();
            Ok(match obj.and_then(|o| o.omap.keys().next_back()) {
                Some(k) => Value::str(&**k),
                None => Value::Nil,
            })
        }),
    );
    interp.register(
        "omap_len",
        Rc::new(|ctx, _args| {
            let len = host(ctx)?.txn.obj().map_or(0, |o| o.omap.len());
            Ok(Value::Num(len as f64))
        }),
    );
    interp.register(
        "xattr_get",
        Rc::new(|ctx, args| {
            let key = str_arg("xattr_get", args, 0)?;
            Ok(stored(host(ctx)?.txn.xattr_get(key)))
        }),
    );
    interp.register(
        "xattr_set",
        Rc::new(|ctx, args| {
            let key = str_arg("xattr_set", args, 0)?;
            let val = bytes_arg("xattr_set", args, 1)?;
            writable(ctx, "xattr_set")?.xattr_set(key, val.to_rc());
            Ok(Value::Nil)
        }),
    );
    interp.register(
        "obj_exists",
        Rc::new(|ctx, _args| Ok(Value::Bool(host(ctx)?.txn.obj().is_some()))),
    );
    // unframe(s) — the items of a framed list as a table of strings, in
    // one call: the script indexes what its caller framed instead of
    // searching and slicing text.
    interp.register(
        "unframe",
        Rc::new(|_ctx, args| {
            let s = bytes_arg("unframe", args, 0)?;
            let items = frame::decode(s).map_err(|e| RtError::new(format!("EINVAL: {e}")))?;
            Ok(Value::from_table(
                items.into_iter().map(Value::str).collect(),
            ))
        }),
    );
}

#[cfg(test)]
mod tests;

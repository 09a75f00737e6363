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
use std::collections::HashMap;
use std::rc::Rc;

use mala_dsl::value::{fmt_num, HostCtx};
use mala_dsl::{Engine, Expr, RtError, Script, Stmt, Table, Value, Vm};

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
    methods: HashMap<Box<str>, MethodKind>,
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
            .filter(|name| matches!(engine.global(name), Value::Closure(_) | Value::Func(_)))
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
    native: HashMap<String, HashMap<String, (MethodKind, NativeMethod)>>,
    scripted: HashMap<String, ScriptedClass<E>>,
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
            native: HashMap::new(),
            scripted: HashMap::new(),
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
        let arg = Value::Str(Rc::clone(input));
        let out = cls.engine.borrow_mut().call(method, &[arg], &mut host);
        *txn = host.txn;
        Ok(match out.map_err(|e| OsdError::Class(rt_to_class(e)))? {
            Value::Nil => Reply::Bytes(Rc::default()),
            Value::Str(s) => Reply::Bytes(s),
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
            Value::Str(s) => Ok(Rc::clone(s)),
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

/// A value to store or to cut: the script's own buffer, whatever it holds.
fn bytes_arg<'a>(name: &str, args: &'a [Value], i: usize) -> Result<&'a Rc<[u8]>, RtError> {
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
    value.map_or(Value::Nil, |v| Value::Str(Rc::clone(v)))
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
            writable(ctx, "omap_set")?.omap_set(key, Rc::clone(val));
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
            writable(ctx, "xattr_set")?.xattr_set(key, Rc::clone(val));
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
mod tests {
    use super::*;
    use mala_dsl::Interp;
    use std::any::type_name;

    const COUNTER_CLS: &str = r#"
        __readonly = {"get"}

        function get(input)
            local v = omap_get("counter")
            if v == nil then return "0" end
            return v
        end

        function incr(input)
            local v = tonumber(omap_get("counter"))
            if v == nil then v = 0 end
            local by = tonumber(input)
            if by == nil then by = 1 end
            v = v + by
            omap_set("counter", fmt(v))
            return fmt(v)
        end
    "#;

    /// Bytes a script is given, stores, reads back and returns are the
    /// bytes it was given — not UTF-8, separators and NUL included — on
    /// both engines (they used to be decoded lossily on the way in, so
    /// `0xff` was stored as U+FFFD and the write acked).
    #[test]
    fn a_script_stores_and_returns_the_bytes_it_was_given() {
        const ECHO: &str = r#"
            __readonly = {"get", "len"}
            function put(input) omap_set("k", input) xattr_set("x", input) return input end
            function get(input) return omap_get("k") end
            function len(input) return fmt(#xattr_get("x")) end
            function lit(input)
                local s = "héllo"
                omap_set("lit", s)
                return {omap_get("lit"), fmt(#s), "\xff\x00"}
            end
        "#;
        const INPUTS: [&[u8]; 7] = [
            b"",
            b"plain|with,separators",
            "h\u{e9}llo \u{2603}".as_bytes(),
            b"\xff",
            b"ok\xc3",             // truncated two-byte sequence
            b"\xed\xa0\x80|\0,ok", // surrogate half, NUL
            b"\xa9\xa9",           // lone continuation bytes
        ];
        fn case<E: Engine>() {
            let kind = type_name::<E>();
            let mut reg = ClassRegistry::<E>::for_engine();
            reg.install_scripted("echo", ECHO, 1).unwrap();
            for bytes in INPUTS {
                let mut slot = None;
                assert_eq!(reg.call("echo", "put", &mut slot, bytes).unwrap(), bytes);
                let held = slot.as_ref().unwrap();
                assert_eq!(&*held.omap["k"], bytes, "{kind}");
                assert_eq!(&*held.xattrs["x"], bytes, "{kind}");
                assert_eq!(reg.call("echo", "get", &mut slot, b"").unwrap(), bytes);
                let len = bytes.len().to_string().into_bytes();
                assert_eq!(reg.call("echo", "len", &mut slot, b"").unwrap(), len);
            }
            // A literal is the source's bytes — `é` is two of them, it was
            // four — and comes back from the omap as it went in.
            let mut slot = None;
            let lit = reg.call("echo", "lit", &mut slot, b"").unwrap();
            assert_eq!(
                frame::decode(&lit).unwrap(),
                vec!["h\u{e9}llo".as_bytes(), b"6", b"\xff\x00"],
                "{kind}"
            );
            assert_eq!(&*slot.unwrap().omap["lit"], "h\u{e9}llo".as_bytes());
        }
        case::<Interp>();
        case::<Vm>();
    }

    /// Held once: what `omap_set` stores is the buffer the script held (a
    /// method's input is the caller's), what `omap_get` pushes on the stack
    /// is the stored buffer, and a returned string or list item is that
    /// buffer again — refcounts all the way, on both engines.
    #[test]
    fn stored_values_and_script_strings_share_one_buffer() {
        const HOLD: &str = r#"
            __readonly = {"get", "list"}
            function put(input) omap_set("k", input) xattr_set("x", input) return input end
            function get(input) return omap_get("k") end
            function list(input) return {omap_get("k"), xattr_get("x"), input} end
        "#;
        fn case<E: Engine>() {
            let kind = type_name::<E>();
            let mut reg = ClassRegistry::<E>::for_engine();
            reg.install_scripted("hold", HOLD, 1).unwrap();
            let input: Rc<[u8]> = b"payload \xff"[..].into();
            let mut txn = ObjTxn::begin(None);
            let out = reg.call_in("hold", "put", &mut txn, &input).unwrap();
            assert!(txn.mutates());
            let OpResult::CallOut(out) = out else {
                panic!("{out:?}")
            };
            assert!(Rc::ptr_eq(&out, &input), "{kind}: returned input");
            assert!(Rc::ptr_eq(txn.omap_get("k").unwrap(), &input), "{kind}");
            assert!(Rc::ptr_eq(txn.xattr_get("x").unwrap(), &input), "{kind}");

            let mut txn = ObjTxn::begin(txn.finish());
            let got = reg.call_in("hold", "get", &mut txn, &Rc::default());
            assert!(!txn.mutates());
            let Ok(OpResult::CallOut(got)) = got else {
                panic!("{got:?}")
            };
            assert!(Rc::ptr_eq(&got, &input), "{kind}: omap_get, returned");
            let arg: Rc<[u8]> = b"arg"[..].into();
            let Ok(OpResult::CallList(items)) = reg.call_in("hold", "list", &mut txn, &arg) else {
                panic!("{kind}: list")
            };
            assert_eq!(items.len(), 3);
            assert!(Rc::ptr_eq(&items[0], &input), "{kind}: list item");
            assert!(Rc::ptr_eq(&items[1], &input), "{kind}: list item");
            assert!(Rc::ptr_eq(&items[2], &arg), "{kind}: list item");
        }
        case::<Interp>();
        case::<Vm>();
    }

    #[test]
    fn scripted_class_round_trip() {
        let mut reg = ClassRegistry::new();
        reg.install_scripted("counter", COUNTER_CLS, 1).unwrap();
        let mut slot = None;
        let out = reg.call("counter", "incr", &mut slot, b"5").unwrap();
        assert_eq!(out, b"5");
        let out = reg.call("counter", "incr", &mut slot, b"3").unwrap();
        assert_eq!(out, b"8");
        let out = reg.call("counter", "get", &mut slot, b"").unwrap();
        assert_eq!(out, b"8");
        assert_eq!(&*slot.as_ref().unwrap().omap["counter"], b"8");
    }

    #[test]
    fn readonly_declaration_respected() {
        let mut reg = ClassRegistry::new();
        reg.install_scripted("counter", COUNTER_CLS, 1).unwrap();
        assert_eq!(
            reg.method_kind("counter", "get"),
            Some(MethodKind::ReadOnly)
        );
        assert_eq!(
            reg.method_kind("counter", "incr"),
            Some(MethodKind::ReadWrite)
        );
        assert_eq!(reg.method_kind("counter", "nope"), None);
        assert_eq!(reg.method_kind("nope", "get"), None);
    }

    /// A method declared read-only is neither replicated nor journalled,
    /// so a write from inside it would exist on the primary alone. Every
    /// mutating native refuses instead, on both engines.
    #[test]
    fn readonly_method_cannot_write() {
        const SNEAKY: &str = r#"
            __readonly = {"set", "xset", "del", "purge", "write", "append"}
            function set(i) omap_set("k", "v") end
            function xset(i) xattr_set("k", "v") end
            function del(i) omap_del("k") end
            function purge(i) omap_del_range("a", "z") end
            function write(i) data_write(0, "v") end
            function append(i) data_append("v") end
        "#;
        fn case<E: Engine>() {
            let kind = type_name::<E>();
            let mut reg = ClassRegistry::<E>::for_engine();
            reg.install_scripted("sneaky", SNEAKY, 1).unwrap();
            let mut before = Object::new();
            before.omap.insert("k".into(), b"old"[..].into());
            for method in ["set", "xset", "del", "purge", "write", "append"] {
                assert_eq!(
                    reg.method_kind("sneaky", method),
                    Some(MethodKind::ReadOnly)
                );
                let mut slot = Some(before.clone());
                let err = reg.call("sneaky", method, &mut slot, b"").unwrap_err();
                let OsdError::Class(ce) = err else { panic!() };
                assert_eq!(ce.code, -30, "{kind} {method}: {}", ce.message);
                assert_eq!(slot.as_ref(), Some(&before), "{kind} {method}");
                // Nor does it conjure an object out of nothing.
                let mut slot = None;
                assert!(reg.call("sneaky", method, &mut slot, b"").is_err());
                assert_eq!(slot, None, "{kind} {method}");
            }
        }
        case::<Interp>();
        case::<Vm>();
    }

    /// The read-only set is resolved when the class is loaded; a method
    /// cannot rewrite `__readonly` to change how later calls are classed.
    #[test]
    fn readonly_set_is_fixed_at_load() {
        const FLIPPER: &str = r#"
            __readonly = {"get"}
            function get(i) return "x" end
            function flip(i) __readonly = {"flip"} end
        "#;
        let mut reg = ClassRegistry::new();
        reg.install_scripted("c", FLIPPER, 1).unwrap();
        reg.call("c", "flip", &mut None, b"").unwrap();
        assert_eq!(reg.method_kind("c", "get"), Some(MethodKind::ReadOnly));
        assert_eq!(reg.method_kind("c", "flip"), Some(MethodKind::ReadWrite));
        // An upgrade loads on a fresh engine: what the old one's methods
        // did to their globals is gone with it.
        reg.install_scripted("c", FLIPPER, 2).unwrap();
        assert_eq!(reg.method_kind("c", "get"), Some(MethodKind::ReadOnly));
        assert_eq!(reg.method_kind("c", "flip"), Some(MethodKind::ReadWrite));
    }

    /// A class's methods are the functions its script defined. The host
    /// natives and the standard library are globals of the same engine,
    /// and used to resolve too: `zlog.omap_del` erased a written entry of
    /// a write-once log for whoever asked. On both engines.
    #[test]
    fn only_script_defined_functions_are_methods() {
        const LOG: &str = r#"
            __readonly = {"get"}
            local limit = 3
            function put(i) omap_set("e" .. i, "D|" .. i) return "ok" end
            function get(i) return omap_get("e" .. i) end
            helper = function(i) return "helped" end
            if limit > 2 then function late(i) return "late" end end
            alias = omap_del
            data = {}
        "#;
        fn case<E: Engine>() {
            let kind = type_name::<E>();
            let mut reg = ClassRegistry::<E>::for_engine();
            reg.install_scripted("log", LOG, 1).unwrap();
            let mut slot = None;
            reg.call("log", "put", &mut slot, b"7").unwrap();
            for native in [
                "omap_del",
                "omap_del_range",
                "omap_set",
                "data_write",
                "xattr_set",
                "error",
                "split",
                "tonumber",
                "alias",
                "data",
                "limit",
                "__readonly",
            ] {
                assert_eq!(reg.method_kind("log", native), None, "{kind} {native}");
                let mut txn = ObjTxn::begin(slot.take());
                let out = reg.call_in("log", native, &mut txn, &b"e7"[..].into());
                assert!(
                    matches!(&out, Err(OsdError::NoClass(m)) if m == &format!("log.{native}")),
                    "{kind} {native}: {out:?}"
                );
                slot = txn.finish();
                assert_eq!(reg.call("log", "get", &mut slot, b"7").unwrap(), b"D|7");
            }
            // However the script made them: a declaration, an assigned
            // function literal, a declaration under a condition.
            assert_eq!(reg.method_kind("log", "get"), Some(MethodKind::ReadOnly));
            for method in ["put", "helper", "late"] {
                let kind_of = reg.method_kind("log", method);
                assert_eq!(kind_of, Some(MethodKind::ReadWrite), "{kind} {method}");
            }
            assert_eq!(reg.call("log", "late", &mut slot, b"").unwrap(), b"late");
        }
        case::<Interp>();
        case::<Vm>();
    }

    #[test]
    fn version_upgrade_and_downgrade_protection() {
        let mut reg = ClassRegistry::new();
        reg.install_scripted("c", "function f(i) return \"v1\" end", 1)
            .unwrap();
        let mut slot = None;
        assert_eq!(reg.call("c", "f", &mut slot, b"").unwrap(), b"v1");
        // Upgrade.
        reg.install_scripted("c", "function f(i) return \"v2\" end", 2)
            .unwrap();
        assert_eq!(reg.call("c", "f", &mut slot, b"").unwrap(), b"v2");
        assert_eq!(reg.scripted_version("c"), Some(2));
        // Stale re-install is ignored.
        reg.install_scripted("c", "function f(i) return \"v1\" end", 1)
            .unwrap();
        assert_eq!(reg.call("c", "f", &mut slot, b"").unwrap(), b"v2");
    }

    #[test]
    fn compile_errors_surface() {
        let mut reg = ClassRegistry::new();
        let err = reg.install_scripted("bad", "function (", 1).unwrap_err();
        assert!(err.message.contains("compile error"));
    }

    #[test]
    fn script_errors_map_to_errno_codes() {
        let mut reg = ClassRegistry::new();
        reg.install_scripted(
            "guard",
            r#"function check(input) error("ESTALE: epoch too old") end"#,
            1,
        )
        .unwrap();
        let mut slot = None;
        let err = reg.call("guard", "check", &mut slot, b"").unwrap_err();
        let OsdError::Class(ce) = err else { panic!() };
        assert_eq!(ce.code, -116);
    }

    #[test]
    fn missing_class_or_method() {
        let reg = ClassRegistry::new();
        let mut slot = None;
        assert!(matches!(
            reg.call("nope", "m", &mut slot, b""),
            Err(OsdError::NoClass(_))
        ));
    }

    /// A registry whose type names no engine runs its classes on the VM:
    /// the constructors production code calls exist on that type alone.
    #[test]
    fn scripted_classes_default_to_bytecode_vm() {
        let _: ClassRegistry<Vm> = ClassRegistry::new();
        let _: ClassRegistry<Vm> = ClassRegistry::with_builtins();
        let _: ClassRegistry<Vm> = ClassRegistry::default();
    }

    #[test]
    fn both_engines_run_scripted_classes_identically() {
        fn case<E: Engine>() {
            let kind = type_name::<E>();
            let mut reg = ClassRegistry::<E>::for_engine();
            reg.install_scripted("counter", COUNTER_CLS, 1).unwrap();
            assert_eq!(
                reg.method_kind("counter", "get"),
                Some(MethodKind::ReadOnly),
                "{kind}"
            );
            let mut slot = None;
            assert_eq!(
                reg.call("counter", "incr", &mut slot, b"5").unwrap(),
                b"5",
                "{kind}"
            );
            assert_eq!(
                reg.call("counter", "incr", &mut slot, b"3").unwrap(),
                b"8",
                "{kind}"
            );
            assert_eq!(
                reg.call("counter", "get", &mut slot, b"").unwrap(),
                b"8",
                "{kind}"
            );
        }
        case::<Interp>();
        case::<Vm>();
    }

    /// A method that returns a table answers with the frame of its array
    /// part; what a frame cannot carry is the method's error (it used to
    /// be rendered the way `print` shows a table).
    #[test]
    fn returned_lists_are_framed_by_the_host() {
        const LISTS: &str = r#"
            function empty(i) return {} end
            function strings(i) return {"ab", "", "c|d,e", i} end
            function numbers(i) return {1, 2.5, 0 - 3, 1e15, "x"} end
            function built(i)
                local t = {}
                for k = 1, 3 do t[k] = i .. fmt(k) end
                return t
            end
            function nested(i) return {"a", {"b"}} end
            function mapped(i) return {"a", k = "v"} end
            function sparse(i) local t = {} t[2] = "b" return t end
            function flag(i) return {"a", true} end
            function hole(i) local t = {} insert(t, nil) return t end
            function func(i) return {fmt} end
        "#;
        fn case<E: Engine>() {
            let kind = type_name::<E>();
            let mut reg = ClassRegistry::<E>::for_engine();
            reg.install_scripted("lists", LISTS, 1).unwrap();
            let call = |method: &str| {
                reg.call("lists", method, &mut None, "in\u{e9}".as_bytes())
                    .map_err(|e| match e {
                        OsdError::Class(ce) => ce.code,
                        other => panic!("{kind} {method}: {other:?}"),
                    })
            };
            assert_eq!(call("empty"), Ok(b"0||".to_vec()), "{kind}");
            assert_eq!(
                call("strings"),
                Ok("4|2,0,5,4|abc|d,ein\u{e9}".as_bytes().to_vec()),
                "{kind}"
            );
            assert_eq!(
                call("numbers"),
                Ok(b"5|1,3,2,16,1|12.5-31000000000000000x".to_vec()),
                "{kind}"
            );
            let built = call("built").unwrap();
            assert_eq!(
                frame::decode(&built).unwrap(),
                vec![
                    "in\u{e9}1".as_bytes(),
                    "in\u{e9}2".as_bytes(),
                    "in\u{e9}3".as_bytes()
                ],
                "{kind}"
            );
            for method in ["nested", "mapped", "sparse", "flag", "hole", "func"] {
                assert_eq!(call(method), Err(-22), "{kind} {method}");
            }
        }
        case::<Interp>();
        case::<Vm>();
    }

    #[test]
    fn natives_read_write_all_object_parts() {
        let mut reg = ClassRegistry::new();
        reg.install_scripted(
            "full",
            r#"
            function exercise(input)
                data_append("abc")
                data_write(3, "def")
                xattr_set("epoch", "7")
                omap_set("k1", "v1")
                omap_set("k2", "v2")
                local parts = data_read(0, 6) .. "|" .. xattr_get("epoch")
                parts = parts .. "|" .. fmt(omap_len()) .. "|" .. omap_max_key()
                omap_del("k2")
                parts = parts .. "|" .. fmt(omap_len()) .. "|" .. fmt(data_size())
                if obj_exists() then parts = parts .. "|yes" end
                return parts
            end
            "#,
            1,
        )
        .unwrap();
        let mut slot = None;
        let out = reg.call("full", "exercise", &mut slot, b"").unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), "abcdef|7|2|k2|1|6|yes");
    }
}

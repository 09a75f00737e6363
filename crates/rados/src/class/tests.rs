use super::*;
use mala_dsl_oracle::Interp;
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
/// buffer again — refcounts all the way, on both engines. A short
/// string the script computes (`fmt(pos)`) is held in place until it is
/// stored; what the store holds is then one buffer, and reading it back
/// shares that buffer like any other.
#[test]
fn stored_values_and_script_strings_share_one_buffer() {
    const HOLD: &str = r#"
        __readonly = {"get", "short", "list"}
        function put(input)
            omap_set("k", input) xattr_set("x", input) xattr_set("maxpos", fmt(#input))
            return input
        end
        function get(input) return omap_get("k") end
        function short(input) return xattr_get("maxpos") end
        function list(input) return {omap_get("k"), xattr_get("x"), input, xattr_get("maxpos")} end
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
        let maxpos = Rc::clone(txn.xattr_get("maxpos").unwrap());
        assert_eq!(&*maxpos, b"9", "{kind}");

        let mut txn = ObjTxn::begin(txn.finish());
        let got = reg.call_in("hold", "get", &mut txn, &Rc::default());
        assert!(!txn.mutates());
        let Ok(OpResult::CallOut(got)) = got else {
            panic!("{got:?}")
        };
        assert!(Rc::ptr_eq(&got, &input), "{kind}: omap_get, returned");
        let Ok(OpResult::CallOut(got)) = reg.call_in("hold", "short", &mut txn, &Rc::default())
        else {
            panic!("{kind}: short")
        };
        assert!(Rc::ptr_eq(&got, &maxpos), "{kind}: xattr_get, returned");
        let arg: Rc<[u8]> = b"arg"[..].into();
        let Ok(OpResult::CallList(items)) = reg.call_in("hold", "list", &mut txn, &arg) else {
            panic!("{kind}: list")
        };
        assert_eq!(items.len(), 4);
        assert!(Rc::ptr_eq(&items[0], &input), "{kind}: list item");
        assert!(Rc::ptr_eq(&items[1], &input), "{kind}: list item");
        assert!(Rc::ptr_eq(&items[2], &arg), "{kind}: list item");
        assert!(Rc::ptr_eq(&items[3], &maxpos), "{kind}: list item");
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

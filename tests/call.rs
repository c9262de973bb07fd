//! The typed host↔guest call boundary: `TypedFunc` handles, the
//! `WasmParams`/`WasmResults` conversion layer, and host functions
//! installed into both backends.
//!
//! Host functions extend the paper's typed-interop story *down to the
//! embedder*: the same FFI type check that guards ML↔L3 linking guards a
//! Rust closure exposed to guests, and differential checking keeps
//! running across host calls via per-invocation record/replay.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use richwasm::syntax::*;
use richwasm_repro::engine::{Engine, EngineConfig, Exec, ModuleSet, PipelineErrorKind, Stage};
use richwasm_repro::{HostSig, HostVal, HostValType, WasmParams, WasmResults, WasmTy};

/// A module with `add : [i32, i32] -> [i32]` and `answer : [] -> [i32]`.
fn arith_module() -> Module {
    Module {
        funcs: vec![
            Func::Defined {
                exports: vec!["add".into()],
                ty: FunType::mono(
                    vec![Type::num(NumType::I32), Type::num(NumType::I32)],
                    vec![Type::num(NumType::I32)],
                ),
                locals: vec![],
                body: vec![
                    Instr::GetLocal(0, Qual::Unr),
                    Instr::GetLocal(1, Qual::Unr),
                    Instr::Num(NumInstr::IntBinop(NumType::I32, instr::IntBinop::Add)),
                ],
            },
            Func::Defined {
                exports: vec!["answer".into()],
                ty: FunType::mono(vec![], vec![Type::num(NumType::I32)]),
                locals: vec![],
                body: vec![Instr::i32(42)],
            },
            Func::Defined {
                exports: vec!["wide".into()],
                ty: FunType::mono(vec![Type::num(NumType::I64)], vec![Type::num(NumType::I64)]),
                locals: vec![],
                body: vec![
                    Instr::GetLocal(0, Qual::Unr),
                    Instr::Val(Value::i64(1)),
                    Instr::Num(NumInstr::IntBinop(NumType::I64, instr::IntBinop::Add)),
                ],
            },
        ],
        ..Module::default()
    }
}

/// A guest importing `host.tick : [i32] -> [i32]` and exporting
/// `main : [] -> [i32]` that returns `tick(5) + 1`.
fn host_client() -> Module {
    Module {
        funcs: vec![
            Func::Imported {
                exports: vec![],
                module: "host".into(),
                name: "tick".into(),
                ty: FunType::mono(vec![Type::num(NumType::I32)], vec![Type::num(NumType::I32)]),
            },
            Func::Defined {
                exports: vec!["main".into()],
                ty: FunType::mono(vec![], vec![Type::num(NumType::I32)]),
                locals: vec![],
                body: vec![
                    Instr::i32(5),
                    Instr::Call(0, vec![]),
                    Instr::i32(1),
                    Instr::Num(NumInstr::IntBinop(NumType::I32, instr::IntBinop::Add)),
                ],
            },
        ],
        ..Module::default()
    }
}

#[test]
fn typed_func_calls_across_all_exec_modes() {
    for exec in [Exec::Differential, Exec::Interp, Exec::Wasm] {
        let engine = Engine::with_config(EngineConfig::new().exec(exec));
        let mut inst = engine
            .instantiate(&ModuleSet::new().richwasm("m", arith_module()))
            .unwrap();
        let add = inst.get_typed_func::<(i32, i32), i32>("m", "add").unwrap();
        assert_eq!(add.call(&mut inst, (20, 22)).unwrap(), 42, "{exec:?}");
        assert_eq!(add.call(&mut inst, (-5, 3)).unwrap(), -2, "{exec:?}");

        let answer = inst.get_typed_func::<(), i32>("m", "answer").unwrap();
        assert_eq!(answer.call(&mut inst, ()).unwrap(), 42, "{exec:?}");

        let wide = inst.get_typed_func::<i64, i64>("m", "wide").unwrap();
        assert_eq!(
            wide.call(&mut inst, i64::MAX - 1).unwrap(),
            i64::MAX,
            "{exec:?}"
        );
    }
}

#[test]
fn typed_func_survives_reset_and_counts_invocations() {
    let engine = Engine::new();
    let mut inst = engine
        .instantiate(&ModuleSet::new().richwasm("m", arith_module()))
        .unwrap();
    let add = inst.get_typed_func::<(i32, i32), i32>("m", "add").unwrap();
    assert_eq!(add.call(&mut inst, (1, 2)).unwrap(), 3);
    assert_eq!(inst.invocations(), 1);
    inst.reset().unwrap();
    assert_eq!(inst.invocations(), 0);
    // The handle stays valid: instantiation is deterministic, so the
    // pre-resolved indices transfer to the fresh stores.
    assert_eq!(add.call(&mut inst, (2, 3)).unwrap(), 5);
    assert_eq!(inst.invocations(), 1);
}

#[test]
fn typed_func_signature_mismatches_rejected_at_handle_creation() {
    let engine = Engine::new();
    let inst = engine
        .instantiate(&ModuleSet::new().richwasm("m", arith_module()))
        .unwrap();

    // Wrong arity.
    let err = inst.get_typed_func::<i32, i32>("m", "add").unwrap_err();
    assert_eq!(err.stage, Stage::Execute);
    let msg = err.to_string();
    assert!(msg.contains("(i32)"), "names the Rust-side type: {msg}");
    assert!(
        msg.contains("i32^unr") || msg.contains("->"),
        "names the checked guest type: {msg}"
    );

    // Wrong width (i64 where the guest declares i32).
    let err = inst
        .get_typed_func::<(i64, i32), i32>("m", "add")
        .unwrap_err();
    assert_eq!(err.stage, Stage::Execute);
    assert!(err.to_string().contains("signature mismatch"), "{err}");

    // Wrong result type.
    let err = inst.get_typed_func::<(), i64>("m", "answer").unwrap_err();
    assert!(err.to_string().contains("results"), "{err}");

    // Wrong result arity.
    let err = inst.get_typed_func::<(), ()>("m", "answer").unwrap_err();
    assert!(err.to_string().contains("signature mismatch"), "{err}");

    // Unknown module / export.
    assert!(inst.get_typed_func::<(), i32>("ghost", "answer").is_err());
    assert!(inst.get_typed_func::<(), i32>("m", "ghost").is_err());

    // Same-width signedness interchange is allowed (no backend can
    // observe it on a bit pattern).
    let addu = inst.get_typed_func::<(u32, u32), u32>("m", "add").unwrap();
    let mut inst = inst;
    assert_eq!(addu.call(&mut inst, (u32::MAX, 3)).unwrap(), 2);
}

#[test]
fn typed_func_rejects_instances_of_other_artifacts() {
    let engine = Engine::new();
    let mut a = engine
        .instantiate(&ModuleSet::new().richwasm("m", arith_module()))
        .unwrap();
    let mut b = engine
        .instantiate(&ModuleSet::new().richwasm("m", host_client()).host_fn(
            "host",
            "tick",
            HostSig::new([HostValType::I32], [HostValType::I32]),
            |args| Ok(vec![args[0]]),
        ))
        .unwrap();
    let add = a.get_typed_func::<(i32, i32), i32>("m", "add").unwrap();
    let err = add.call(&mut b, (1, 2)).unwrap_err();
    assert!(
        err.to_string()
            .contains("used with an instance of artifact"),
        "{err}"
    );
    // …and still works on the right instance.
    assert_eq!(add.call(&mut a, (1, 2)).unwrap(), 3);
}

#[test]
fn typed_func_unit_params_erase() {
    // A guest taking `[unit, i32]` — the unit slot erases at the boundary,
    // exactly as the compiler erases it.
    let m = Module {
        funcs: vec![Func::Defined {
            exports: vec!["snd".into()],
            ty: FunType::mono(
                vec![Type::unit(), Type::num(NumType::I32)],
                vec![Type::num(NumType::I32)],
            ),
            locals: vec![],
            body: vec![Instr::GetLocal(1, Qual::Unr)],
        }],
        ..Module::default()
    };
    let engine = Engine::new();
    let mut inst = engine
        .instantiate(&ModuleSet::new().richwasm("m", m))
        .unwrap();
    let snd = inst.get_typed_func::<i32, i32>("m", "snd").unwrap();
    assert_eq!(snd.call(&mut inst, 9).unwrap(), 9);
}

#[test]
fn invocation_agreed_view_consults_both_backends() {
    // The `Invocation::i32` bug this redesign fixes: a `[unit, i32]`
    // RichWasm result used to defeat `i32()` even though the Wasm backend
    // produced a single usable `I32`. The agreed view flattens the way
    // the compiler flattens types, so both backends line up.
    let m = Module {
        funcs: vec![Func::Defined {
            exports: vec!["main".into()],
            ty: FunType::mono(vec![], vec![Type::unit(), Type::num(NumType::I32)]),
            locals: vec![],
            body: vec![Instr::Val(Value::Unit), Instr::i32(42)],
        }],
        ..Module::default()
    };
    let engine = Engine::new();
    let mut inst = engine
        .instantiate(&ModuleSet::new().richwasm("m", m))
        .unwrap();
    let run = inst.invoke_entry().unwrap();
    assert_eq!(
        run.richwasm.as_ref().unwrap().values,
        vec![Value::Unit, Value::i32(42)],
        "the raw RichWasm result keeps its unit"
    );
    assert_eq!(run.i32(), Some(42), "the agreed view erases it");
    assert_eq!(run.results(), &[HostVal::I32(42)]);
    assert_eq!(run.returned::<i32>(), Some(42));
    assert_eq!(run.returned::<u32>(), Some(42), "same-width view");
    assert_eq!(run.returned::<i64>(), None, "width mismatch");
    assert_eq!(run.returned::<(i32, i32)>(), None, "arity mismatch");
}

#[test]
fn invocation_multi_value_returned() {
    let m = Module {
        funcs: vec![Func::Defined {
            exports: vec!["pair".into()],
            ty: FunType::mono(
                vec![],
                vec![Type::num(NumType::I32), Type::num(NumType::I64)],
            ),
            locals: vec![],
            body: vec![Instr::i32(7), Instr::Val(Value::i64(-9))],
        }],
        ..Module::default()
    };
    let engine = Engine::new();
    let mut inst = engine
        .instantiate(&ModuleSet::new().richwasm("m", m))
        .unwrap();
    let run = inst.invoke("m", "pair", vec![]).unwrap();
    assert_eq!(run.returned::<(i32, i64)>(), Some((7, -9)));
    assert_eq!(run.i32(), None, "two results, no single i32");
    // And through the typed handle.
    let pair = inst.get_typed_func::<(), (i32, i64)>("m", "pair").unwrap();
    assert_eq!(pair.call(&mut inst, ()).unwrap(), (7, -9));
}

#[test]
fn host_fn_runs_under_differential_with_side_effects_once() {
    let calls = Arc::new(AtomicU32::new(0));
    let seen = calls.clone();
    let set = ModuleSet::new().richwasm("client", host_client()).host_fn(
        "host",
        "tick",
        HostSig::new([HostValType::I32], [HostValType::I32]),
        move |args| {
            seen.fetch_add(1, Ordering::SeqCst);
            let HostVal::I32(x) = args[0] else {
                return Err("expected i32".into());
            };
            Ok(vec![HostVal::I32(x * 2)])
        },
    );
    let engine = Engine::new(); // differential by default
    let mut inst = engine.instantiate(&set).unwrap();
    // tick(5)*? → 5*2 + 1 = 11, both backends agreeing.
    assert_eq!(inst.invoke_entry().unwrap().i32(), Some(11));
    assert_eq!(
        calls.load(Ordering::SeqCst),
        1,
        "record/replay: the closure ran once, not once per backend"
    );
    assert_eq!(inst.invoke_entry().unwrap().i32(), Some(11));
    assert_eq!(calls.load(Ordering::SeqCst), 2);

    // A *stateful* host stays differentially consistent: the Wasm
    // backend replays the recorded outcome instead of re-advancing the
    // state.
    let counter = Arc::new(AtomicU32::new(0));
    let c = counter.clone();
    let set = ModuleSet::new().richwasm("client", host_client()).host_fn(
        "host",
        "tick",
        HostSig::new([HostValType::I32], [HostValType::I32]),
        move |args| {
            let HostVal::I32(x) = args[0] else {
                return Err("expected i32".into());
            };
            let total = c.fetch_add(x as u32, Ordering::SeqCst) + x as u32;
            Ok(vec![HostVal::I32(total as i32)])
        },
    );
    let mut inst = engine.instantiate(&set).unwrap();
    assert_eq!(inst.invoke_entry().unwrap().i32(), Some(6)); // 5 + 1
    assert_eq!(inst.invoke_entry().unwrap().i32(), Some(11)); // 10 + 1
    assert_eq!(counter.load(Ordering::SeqCst), 10, "5 per invocation, once");
}

#[test]
fn host_fn_works_on_each_single_backend() {
    for exec in [Exec::Interp, Exec::Wasm] {
        let calls = Arc::new(AtomicU32::new(0));
        let seen = calls.clone();
        let set = ModuleSet::new().richwasm("client", host_client()).host_fn(
            "host",
            "tick",
            HostSig::new([HostValType::I32], [HostValType::I32]),
            move |args| {
                seen.fetch_add(1, Ordering::SeqCst);
                Ok(vec![args[0]])
            },
        );
        let engine = Engine::with_config(EngineConfig::new().exec(exec));
        let mut inst = engine.instantiate(&set).unwrap();
        assert_eq!(inst.invoke_entry().unwrap().i32(), Some(6), "{exec:?}");
        assert_eq!(calls.load(Ordering::SeqCst), 1, "{exec:?}");
    }
}

#[test]
fn host_fn_error_traps_on_both_backends() {
    let set = ModuleSet::new().richwasm("client", host_client()).host_fn(
        "host",
        "tick",
        HostSig::new([HostValType::I32], [HostValType::I32]),
        |_| Err("quota exceeded".into()),
    );
    let engine = Engine::new();
    let mut inst = engine.instantiate(&set).unwrap();
    let err = inst.invoke_entry().unwrap_err();
    // Both backends trapped identically, so this is an agreed dynamic
    // fault (Execute), not a differential mismatch.
    assert_eq!(err.stage, Stage::Execute, "{err}");
    assert!(
        err.to_string()
            .contains("host function error: quota exceeded"),
        "{err}"
    );
}

#[test]
fn host_fn_import_type_mismatch_is_a_link_error() {
    // The guest lies about the host signature: [i64] -> [i32] against a
    // host declaring [i32] -> [i32]. The typed linker rejects it at
    // instantiation — the same FFI check that guards guest↔guest links.
    let mut client = host_client();
    let Func::Imported { ty, .. } = &mut client.funcs[0] else {
        unreachable!()
    };
    *ty = FunType::mono(vec![Type::num(NumType::I64)], vec![Type::num(NumType::I32)]);
    let Func::Defined { body, .. } = &mut client.funcs[1] else {
        unreachable!()
    };
    body[0] = Instr::Val(Value::i64(5));

    let set = ModuleSet::new().richwasm("client", client).host_fn(
        "host",
        "tick",
        HostSig::new([HostValType::I32], [HostValType::I32]),
        |args| Ok(vec![args[0]]),
    );
    let err = Engine::new().instantiate(&set).unwrap_err();
    assert_eq!(err.stage, Stage::Instantiate);
    assert!(
        matches!(err.kind, PipelineErrorKind::Type(_)),
        "a typed link error: {err}"
    );
}

#[test]
fn host_module_name_clashes_rejected() {
    let set = ModuleSet::new()
        .richwasm("host", Module::default())
        .host_fn("host", "f", HostSig::new([], []), |_| Ok(vec![]));
    let err = Engine::new().compile(&set).unwrap_err();
    assert!(err.to_string().contains("clashes"), "{err}");

    let set = ModuleSet::new().richwasm("m", arith_module()).host_fn(
        "rw_runtime",
        "f",
        HostSig::new([], []),
        |_| Ok(vec![]),
    );
    let err = Engine::new().compile(&set).unwrap_err();
    assert!(err.to_string().contains("reserved"), "{err}");

    // Registering the same (module, name) twice would make the two
    // backends resolve to different closures — rejected up front.
    let set = ModuleSet::new()
        .richwasm("m", arith_module())
        .host_fn("h", "f", HostSig::new([], []), |_| Ok(vec![]))
        .host_fn("h", "f", HostSig::new([], []), |_| Ok(vec![]));
    let err = Engine::new().compile(&set).unwrap_err();
    assert!(err.to_string().contains("twice"), "{err}");
}

#[test]
fn cache_key_covers_host_signatures_and_closures() {
    let engine = Engine::new();
    let sig32 = HostSig::new([HostValType::I32], [HostValType::I32]);

    let set_a = ModuleSet::new().richwasm("client", host_client()).host_fn(
        "host",
        "tick",
        sig32.clone(),
        |args| Ok(vec![args[0]]),
    );
    let a = engine.compile(&set_a).unwrap();
    // The same set value (same closure Arcs) hits.
    let a2 = engine.compile(&set_a).unwrap();
    assert!(a.same_as(&a2));
    assert_eq!(engine.cache_stats().hits, 1);

    // A behaviourally different closure under the *same* signature must
    // not resurrect the cached artifact (closure identity is keyed).
    let set_b =
        ModuleSet::new()
            .richwasm("client", host_client())
            .host_fn("host", "tick", sig32, |args| {
                let HostVal::I32(x) = args[0] else {
                    return Err("expected i32".into());
                };
                Ok(vec![HostVal::I32(x + 100)])
            });
    let b = engine.compile(&set_b).unwrap();
    assert!(
        !a.same_as(&b),
        "different host behaviour, different artifact"
    );
    let mut inst = b.instantiate().unwrap();
    assert_eq!(inst.invoke_entry().unwrap().i32(), Some(106));
}

#[test]
fn entry_func_is_configurable() {
    let m = Module {
        funcs: vec![Func::Defined {
            exports: vec!["start".into()],
            ty: FunType::mono(vec![], vec![Type::num(NumType::I32)]),
            locals: vec![],
            body: vec![Instr::i32(7)],
        }],
        ..Module::default()
    };
    // Default "main" fails against a module that only exports "start"…
    let engine = Engine::new();
    let mut inst = engine
        .instantiate(&ModuleSet::new().richwasm("m", m.clone()))
        .unwrap();
    assert!(inst.invoke_entry().is_err());
    // …and the configured entry function succeeds.
    let mut inst = engine
        .instantiate(&ModuleSet::new().richwasm("m", m).entry_func("start"))
        .unwrap();
    assert_eq!(inst.invoke_entry().unwrap().i32(), Some(7));
    assert_eq!(inst.artifact().entry_func(), "start");
}

#[test]
fn cache_stats_hit_rate_and_display() {
    let engine = Engine::new();
    let set = ModuleSet::new().richwasm("m", arith_module());
    assert_eq!(engine.cache_stats().hit_rate(), 0.0, "no compiles yet");
    engine.compile(&set).unwrap();
    engine.compile(&set).unwrap();
    engine.compile(&set).unwrap();
    let stats = engine.cache_stats();
    assert_eq!(stats.hits, 2);
    assert_eq!(stats.misses, 1);
    assert!((stats.hit_rate() - 2.0 / 3.0).abs() < 1e-9);
    let shown = stats.to_string();
    assert!(
        shown.contains("2 hits") && shown.contains("1 misses") && shown.contains("66.7%"),
        "{shown}"
    );
}

// ---------------------------------------------------------------------
// Conversion-layer properties (satellite: proptest via crates/shims).
// ---------------------------------------------------------------------

proptest! {
    /// Every scalar round-trips through its boundary value.
    #[test]
    fn scalar_roundtrips(a in i32::MIN..=i32::MAX, b in u32::MIN..=u32::MAX,
                         c in i64::MIN..=i64::MAX, d in u64::MIN..=u64::MAX) {
        prop_assert_eq!(i32::from_host(a.into_host()), Some(a));
        prop_assert_eq!(u32::from_host(b.into_host()), Some(b));
        prop_assert_eq!(i64::from_host(c.into_host()), Some(c));
        prop_assert_eq!(u64::from_host(d.into_host()), Some(d));
    }

    /// Same-width signedness reinterprets bit-exactly; width mismatches
    /// are rejected.
    #[test]
    fn width_discipline(a in i32::MIN..=i32::MAX, c in i64::MIN..=i64::MAX) {
        prop_assert_eq!(u32::from_host(a.into_host()), Some(a as u32));
        prop_assert_eq!(i32::from_host(HostVal::U32(a as u32)), Some(a));
        prop_assert_eq!(u64::from_host(c.into_host()), Some(c as u64));
        // Cross-width is always rejected, in both directions.
        prop_assert_eq!(i32::from_host(HostVal::I64(c)), None);
        prop_assert_eq!(i64::from_host(HostVal::I32(a)), None);
        prop_assert_eq!(u32::from_host(HostVal::U64(c as u64)), None);
        prop_assert_eq!(u64::from_host(HostVal::U32(a as u32)), None);
        // Casts agree with the trait-level rules.
        prop_assert_eq!(HostVal::I32(a).cast(HostValType::U32), Some(HostVal::U32(a as u32)));
        prop_assert_eq!(HostVal::I32(a).cast(HostValType::I64), None);
    }

    /// Tuples round-trip through the aggregate traits, and arity
    /// mismatches are rejected.
    #[test]
    fn tuple_roundtrips(a in i32::MIN..=i32::MAX, b in u32::MIN..=u32::MAX,
                        c in i64::MIN..=i64::MAX, d in u64::MIN..=u64::MAX) {
        let mut buf = richwasm_repro::call::HostValBuf::new();
        (a, b, c, d).into_host_vals(&mut buf);
        let vals = buf.as_slice().to_vec();
        prop_assert_eq!(vals.len(), 4);
        prop_assert_eq!(
            <(i32, u32, i64, u64) as WasmParams>::valtypes(),
            vec![HostValType::I32, HostValType::U32, HostValType::I64, HostValType::U64]
        );
        prop_assert_eq!(<(i32, u32, i64, u64) as WasmResults>::from_host_vals(&vals), Some((a, b, c, d)));
        // Arity mismatches reject.
        prop_assert_eq!(<(i32, u32, i64) as WasmResults>::from_host_vals(&vals), None);
        prop_assert_eq!(<(i32, u32) as WasmResults>::from_host_vals(&vals[..2]), Some((a, b)));
        prop_assert_eq!(<i32 as WasmResults>::from_host_vals(&vals), None);
        prop_assert_eq!(<() as WasmResults>::from_host_vals(&vals), None);
        prop_assert_eq!(<() as WasmResults>::from_host_vals(&[]), Some(()));
        // Type mismatches inside a tuple reject.
        prop_assert_eq!(<(i64, u32, i64, u64) as WasmResults>::from_host_vals(&vals), None);
    }

    /// The typed handle agrees with the string-keyed path on every input
    /// (differential mode underneath both).
    #[test]
    fn typed_call_agrees_with_string_invoke(x in -1000i32..1000, y in -1000i32..1000) {
        let engine = Engine::new();
        let mut inst = engine
            .instantiate(&ModuleSet::new().richwasm("m", arith_module()))
            .unwrap();
        let add = inst.get_typed_func::<(i32, i32), i32>("m", "add").unwrap();
        let typed = add.call(&mut inst, (x, y)).unwrap();
        let stringly = inst
            .invoke("m", "add", vec![Value::i32(x), Value::i32(y)])
            .unwrap()
            .returned::<i32>()
            .unwrap();
        prop_assert_eq!(typed, stringly);
        prop_assert_eq!(typed, x.wrapping_add(y));
    }
}

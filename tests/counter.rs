//! **Experiment E2** (paper Fig. 9 / §4.2): a performance-critical
//! *linear* library (a mutable counter with its configuration, written in
//! L3) used by *garbage-collected* client logic (ML) that hides the
//! linearity behind an interface — "the GC'd portion of the program can
//! configure and use the counter without any need to reason about
//! linearity at all".
//!
//! The heap layout mirrors Fig. 9: the client state is an unrestricted
//! (GC'd) cell referencing the linear Counter, which packages mutable
//! State together with its Config (the increment step).
//!
//! The library/client modules live in `richwasm_bench::workloads`
//! (shared with the E2 bench); every scenario here compiles once through
//! an [`Engine`] and runs through [`Instance`]s of the cached artifact.

use richwasm::syntax::Value;
use richwasm_bench::workloads::{counter_client, counter_library};
use richwasm_repro::engine::{Engine, EngineConfig, Exec, Instance, ModuleSet, Stage};

fn counter_set() -> ModuleSet {
    ModuleSet::new()
        .l3("gfx", counter_library())
        .ml("app", counter_client())
}

#[test]
fn counter_scenario_typechecks_and_runs() {
    // Differential mode: the counter protocol agrees step for step
    // between the RichWasm interpreter and the lowered Wasm.
    let mut inst = Engine::new()
        .instantiate(&counter_set())
        .expect("library and client compile, type check, lower, and link");

    inst.invoke("app", "setup", vec![Value::i32(5)]).unwrap();
    for _ in 0..4 {
        inst.invoke("app", "bump", vec![Value::Unit]).unwrap();
    }
    let out = inst.invoke("app", "total", vec![Value::Unit]).unwrap();
    assert_eq!(out.i32(), Some(20), "4 bumps × step 5");
    assert_eq!(inst.invocations(), 6);
}

/// One engine, one compile, many runs: both failure-path scenarios below
/// share the cached artifact and get their own isolated instance.
fn fresh_interp_instance(engine: &Engine) -> Instance {
    engine.instantiate(&counter_set()).unwrap()
}

#[test]
fn double_setup_fails_at_runtime_not_memory() {
    // Configuring twice would overwrite (and leak) the linear counter —
    // the ref_to_lin discipline turns that into a clean runtime failure
    // (the paper's "fail at runtime" semantics for linking types, §2.2),
    // not a memory-safety violation.
    let engine = Engine::with_config(EngineConfig::new().exec(Exec::Interp));
    let mut inst = fresh_interp_instance(&engine);
    inst.invoke("app", "setup", vec![Value::i32(1)]).unwrap();
    let err = inst
        .invoke("app", "setup", vec![Value::i32(2)])
        .unwrap_err();
    assert_eq!(
        err.stage,
        Stage::Execute,
        "a dynamic failure, not a static rejection"
    );
    assert!(!err.is_static_rejection());
    assert!(err.to_string().contains("unreachable"), "{err}");

    // The failed instance is poisoned state-wise, but the artifact is
    // not: a second instance (same compile — the cache hit) starts clean.
    let mut retry = fresh_interp_instance(&engine);
    retry.invoke("app", "setup", vec![Value::i32(2)]).unwrap();
    let out = retry.invoke("app", "total", vec![Value::Unit]).unwrap();
    assert_eq!(out.i32(), Some(0), "fresh counter, no bumps yet");
    assert_eq!(engine.cache_stats().misses, 1, "compiled exactly once");
    assert_eq!(engine.cache_stats().hits, 1, "second instance was cached");
}

#[test]
fn counter_keeps_single_linear_cell() {
    // Throughout the client's life there is exactly one linear counter
    // cell (plus the option cell machinery), and `total` frees it.
    let engine = Engine::with_config(EngineConfig::new().exec(Exec::Interp));
    let mut inst = fresh_interp_instance(&engine);
    inst.invoke("app", "setup", vec![Value::i32(3)]).unwrap();
    let frees_before = inst.runtime().store.mem.frees;
    inst.invoke("app", "bump", vec![Value::Unit]).unwrap();
    let out = inst.invoke("app", "total", vec![Value::Unit]).unwrap();
    assert_eq!(out.i32(), Some(3));
    assert!(
        inst.runtime().store.mem.frees > frees_before,
        "the counter cell was freed"
    );
}

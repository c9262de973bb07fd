//! **Experiment E1** (paper Fig. 1 & Fig. 3): unsafe shared-memory
//! interoperability between a garbage-collected language (ML) and a
//! manually managed language (L3) is *statically rejected* by the
//! RichWasm type checker, while the corrected program type checks, links,
//! and runs safely — across both execution paths.
//!
//! The scenario: an ML module stashes a linear reference it receives from
//! L3 in module-level state. The buggy version *also returns* the
//! reference, so L3 frees it and later frees the stashed copy — a double
//! free. Compiled naively, RichWasm's checker rejects `stash` because it
//! duplicates a linear value (§2: "If compiled naively, RichWasm's type
//! system will first complain…").
//!
//! The stash/client modules are the shared E1 workload builders from
//! `richwasm_bench::workloads`; every path here runs through the
//! compile-once/run-many [`Engine`] API.

use richwasm::interp::Runtime;
use richwasm::TypeError;
use richwasm_bench::workloads::{lin_ref_l3, stash_client, stash_module};
use richwasm_l3::{L3Expr, L3Fun, L3Import, L3Module};
use richwasm_repro::engine::{Engine, EngineConfig, Exec, ModuleSet, PipelineErrorKind, Stage};

#[test]
fn fig1_buggy_stash_is_rejected_by_richwasm() {
    // The ML compiler itself accepts the buggy program (it does not check
    // linearity, §5) — so the frontend stage succeeds — but the RichWasm
    // type checker rejects it: `stash` duplicates the linear reference.
    let err = Engine::new()
        .compile(&ModuleSet::new().ml("ml", stash_module(true)))
        .expect_err("RichWasm must reject the duplication");
    assert_eq!(
        err.stage,
        Stage::Typecheck,
        "rejected statically, before any execution"
    );
    assert_eq!(
        err.module.as_deref(),
        Some("ml"),
        "the diagnostic names the source module"
    );
    assert!(err.is_static_rejection());
    let msg = err.to_string();
    assert!(
        msg.contains("lin") || msg.contains("unit"),
        "rejection should mention the linear slot: {msg}"
    );
}

#[test]
fn fig3_safe_version_links_and_runs() {
    // Differential mode: the safe version also agrees with its lowering.
    let mut instance = Engine::new()
        .instantiate(
            &ModuleSet::new()
                .ml("ml", stash_module(false))
                .l3("l3", stash_client())
                .entry("l3"),
        )
        .expect("safe version type checks, links, and instantiates");
    let result = instance
        .invoke_entry()
        .expect("runs and agrees on both backends");
    assert_eq!(result.i32(), Some(42));
    // No double free, no leak: the counter cell, the stash's initial
    // empty option, and the full option are each freed exactly once; the
    // only linear cell still alive is the empty option `get_stashed`
    // swapped in.
    let mem = &instance.runtime().store.mem;
    assert_eq!(mem.frees, 3, "counter + initial empty option + full option");
    assert_eq!(
        mem.lin.len(),
        1,
        "only the stash's empty-option cell remains linear-live"
    );
}

#[test]
fn double_free_attempt_traps_at_runtime_without_types() {
    // For contrast with static checking: replay the double free *with the
    // type checker disabled* — the linear memory discipline catches it
    // dynamically, like MSWasm's dynamic capabilities (§7), but only
    // *after* the fault exists.
    let l3_bad = {
        let mut c = stash_client();
        // The buggy client frees the returned reference too.
        c.imports[0].ret = lin_ref_l3();
        c.funs[0].body = L3Expr::Seq(
            Box::new(L3Expr::Free(Box::new(L3Expr::CallTop {
                name: "stash".into(),
                args: vec![L3Expr::Join(Box::new(L3Expr::New(
                    Box::new(L3Expr::Int(42)),
                    64,
                )))],
            }))),
            Box::new(L3Expr::Free(Box::new(L3Expr::CallTop {
                name: "get_stashed".into(),
                args: vec![L3Expr::Unit],
            }))),
        );
        c
    };
    // Simulate a world without RichWasm types: the interpreter alone,
    // with its per-module check off (the typed linker still runs).
    let mut rt = Runtime::new();
    rt.config.check_modules = false;
    let ml = richwasm_ml::compile_module(&stash_module(true)).expect("the ML frontend accepts it");
    let l3 = richwasm_l3::compile_module(&l3_bad).expect("the L3 frontend accepts it");
    rt.instantiate("ml", ml)
        .expect("without the checker, the faulty program links fine");
    let l3 = rt
        .instantiate("l3", l3)
        .expect("without the checker, the faulty program links fine");
    let err = rt.invoke(l3, "main", vec![]).unwrap_err();
    // Without static checking the fault still *manifests* — but only
    // dynamically, either as a memory trap or as a stuck configuration
    // (the type-safety contract is broken, so progress fails). The typed
    // pipeline rejects the same program before it can run at all.
    let msg = err.to_string();
    assert!(
        msg.contains("double free") || msg.contains("use after free") || msg.contains("stuck"),
        "the memory fault shows up only dynamically: {msg}"
    );
}

#[test]
fn lying_about_the_boundary_type_is_a_link_error() {
    // The client declares stash's parameter as an *unrestricted* i32: the
    // typed linker refuses (the FFI safety choke point). The lying import
    // is expressed directly in RichWasm — the engine accepts raw RichWasm
    // modules alongside frontend sources.
    let bad_import = richwasm::syntax::Func::Imported {
        exports: vec![],
        module: "ml".into(),
        name: "stash".into(),
        // Deliberately wrong: claims stash takes an unrestricted i32.
        ty: richwasm::syntax::FunType::mono(
            vec![richwasm::syntax::Type::num(richwasm::syntax::NumType::I32)],
            vec![richwasm::syntax::Type::unit()],
        ),
    };
    let bad_module = richwasm::syntax::Module {
        funcs: vec![bad_import],
        ..richwasm::syntax::Module::default()
    };
    let engine = Engine::with_config(EngineConfig::new().exec(Exec::Interp));
    let set = ModuleSet::new()
        .ml("ml", stash_module(false))
        .richwasm("client", bad_module);
    // Each module is fine *in isolation* — the artifact compiles…
    let artifact = engine.compile(&set).expect("modules check independently");
    // …but the boundary lie is caught the moment the modules are linked.
    let err = artifact
        .instantiate()
        .expect_err("the typed linker must reject the lie");
    assert_eq!(
        err.stage,
        Stage::Instantiate,
        "caught at link time, not check time"
    );
    assert_eq!(err.module.as_deref(), Some("client"));
    assert!(
        matches!(
            err.kind,
            PipelineErrorKind::Type(TypeError::LinkError { .. })
        ),
        "{err}"
    );
}

#[test]
fn stashing_linear_memory_in_gc_memory_is_collected_via_finalizer() {
    // §3's ownership story: if the stash cell (GC'd memory) holding the
    // linear reference becomes unreachable, the collector finalizes the
    // linear cell it owns.
    let l3 = L3Module {
        imports: vec![L3Import {
            module: "ml".into(),
            name: "stash".into(),
            params: vec![lin_ref_l3()],
            ret: richwasm_l3::L3Ty::Unit,
        }],
        funs: vec![L3Fun {
            name: "main".into(),
            export: true,
            params: vec![],
            ret: richwasm_l3::L3Ty::Int,
            body: L3Expr::Seq(
                Box::new(L3Expr::CallTop {
                    name: "stash".into(),
                    args: vec![L3Expr::Join(Box::new(L3Expr::New(
                        Box::new(L3Expr::Int(7)),
                        64,
                    )))],
                }),
                Box::new(L3Expr::Int(0)),
            ),
        }],
    };
    let engine = Engine::with_config(EngineConfig::new().exec(Exec::Interp));
    let mut instance = engine
        .instantiate(&ModuleSet::new().ml("ml", stash_module(false)).l3("l3", l3))
        .unwrap();
    instance.invoke("l3", "main", vec![]).unwrap();
    let rt = instance.runtime();
    let live_lin_before = rt.store.mem.lin.len();
    assert!(live_lin_before >= 1, "the stashed linear cell is alive");
    // The stash is still rooted through the module's global, so a GC
    // collects nothing linear.
    let stats = rt.gc();
    assert_eq!(stats.finalized_lin, 0);
    // Drop the module's root by clearing its globals (simulating the
    // client module itself becoming unreachable), then collect again.
    for inst in &mut rt.store.insts {
        inst.globals.clear();
    }
    let stats = rt.gc();
    assert!(
        stats.finalized_lin >= 1,
        "the GC finalizes linear memory it owns (paper §3): {stats:?}"
    );
}

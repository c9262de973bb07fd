//! **Experiment E5** (paper §6): the full pipeline — ML and L3 sources,
//! compiled to RichWasm, type checked, *lowered to WebAssembly*, validated
//! by our from-scratch Wasm validator, executed on our Wasm interpreter —
//! agrees with the RichWasm interpreter, and the lowered modules encode to
//! the standard binary format.
//!
//! All scenarios go through the compile-once/run-many [`Engine`] in its
//! default differential mode, so backend agreement is checked on every
//! invocation rather than hand-wired per test.

use richwasm::syntax::instr::{FloatBinop, FloatUnop};
use richwasm::syntax::{
    FunType, Func, Global, GlobalKind, Instr, Module, NumInstr, NumType, Pretype, Value,
};
use richwasm_bench::workloads;
use richwasm_l3::{L3Expr, L3Fun, L3Module, L3Op, L3Ty};
use richwasm_ml::{MlBinop, MlExpr, MlFun, MlModule, MlTy};
use richwasm_repro::engine::{
    Artifact, Engine, EngineConfig, Exec, ModuleSet, PipelineError, PipelineErrorKind, Stage,
    WasmTier,
};
use richwasm_wasm::exec::Val;

#[test]
fn ml_program_through_full_pipeline() {
    // Closures, tuples, case analysis, refs — all ML features at once.
    let var = |x: &str| Box::new(MlExpr::Var(x.into()));
    let sum = MlTy::Sum(vec![MlTy::Int, MlTy::Unit]);
    let m = MlModule {
        funs: vec![MlFun {
            name: "main".into(),
            export: true,
            tyvars: 0,
            params: vec![],
            ret: MlTy::Int,
            body: MlExpr::Let(
                "r".into(),
                Box::new(MlExpr::NewRef(Box::new(MlExpr::Int(30)))),
                Box::new(MlExpr::Let(
                    "f".into(),
                    Box::new(MlExpr::Lam {
                        param: "x".into(),
                        param_ty: MlTy::Int,
                        ret_ty: MlTy::Int,
                        body: Box::new(MlExpr::Binop(
                            MlBinop::Add,
                            Box::new(MlExpr::Deref(var("r"))),
                            var("x"),
                        )),
                    }),
                    Box::new(MlExpr::Case(
                        Box::new(MlExpr::Inj {
                            sum,
                            tag: 0,
                            e: Box::new(MlExpr::App(var("f"), Box::new(MlExpr::Int(12)))),
                        }),
                        vec![
                            ("n".into(), MlExpr::Var("n".into())),
                            ("_u".into(), MlExpr::Int(0)),
                        ],
                    )),
                )),
            ),
        }],
        ..MlModule::default()
    };
    // Differential mode: the engine's instances themselves check that the
    // RichWasm interpreter and the lowered Wasm agree.
    let mut inst = Engine::new()
        .instantiate(&ModuleSet::new().ml("m", m))
        .expect("full pipeline");
    assert_eq!(inst.invoke_entry().expect("agrees").i32(), Some(42));
}

#[test]
fn l3_program_through_full_pipeline() {
    let v = |x: &str| Box::new(L3Expr::Var(x.into()));
    let m = L3Module {
        funs: vec![L3Fun {
            name: "main".into(),
            export: true,
            params: vec![],
            ret: L3Ty::Int,
            body: L3Expr::Let(
                "p".into(),
                Box::new(L3Expr::New(Box::new(L3Expr::Int(40)), 64)),
                Box::new(L3Expr::LetPair(
                    "p2".into(),
                    "old".into(),
                    Box::new(L3Expr::Swap(v("p"), Box::new(L3Expr::Int(2)))),
                    Box::new(L3Expr::Op(
                        L3Op::Add,
                        v("old"),
                        Box::new(L3Expr::Free(v("p2"))),
                    )),
                )),
            ),
        }],
        ..L3Module::default()
    };
    let mut inst = Engine::new()
        .instantiate(&ModuleSet::new().l3("m", m))
        .expect("full pipeline");
    assert_eq!(inst.invoke_entry().expect("agrees").i32(), Some(42));
}

#[test]
fn cross_language_interop_through_wasm() {
    // The Fig. 3 safe scenario, but the whole thing lowered to Wasm: the
    // ML stash module and the L3 client share one Wasm memory managed by
    // the generated allocator runtime.
    let mut inst = Engine::new()
        .instantiate(
            &ModuleSet::new()
                .ml("ml", workloads::stash_module(false))
                .l3("l3", workloads::stash_client())
                .entry("l3"),
        )
        .expect("full pipeline");
    assert_eq!(
        inst.invoke_entry().expect("agrees").i32(),
        Some(42),
        "shared-memory interop agrees across both backends"
    );
}

/// The E1 stash scenario with the *ML* module hosting `main`: ML imports
/// the linear cell operations from an L3 library, stashes a fresh cell in
/// its GC'd state, retrieves it, and hands it back to L3 for disposal.
fn e1_ml_main_modules() -> (L3Module, MlModule) {
    use richwasm_l3::translate_ty as l3_ty;
    use richwasm_ml::MlImport;
    let lin_l3 = workloads::lin_ref_l3();
    let lin_ml = MlTy::Foreign(l3_ty(&lin_l3));
    let cells = L3Module {
        funs: vec![
            L3Fun {
                name: "make".into(),
                export: true,
                params: vec![("v".into(), L3Ty::Int)],
                ret: lin_l3.clone(),
                body: L3Expr::Join(Box::new(L3Expr::New(Box::new(L3Expr::Var("v".into())), 64))),
            },
            L3Fun {
                name: "destroy".into(),
                export: true,
                params: vec![("r".into(), lin_l3)],
                ret: L3Ty::Int,
                body: L3Expr::Free(Box::new(L3Expr::Var("r".into()))),
            },
        ],
        ..L3Module::default()
    };
    let mut ml = workloads::stash_module(false);
    ml.imports = vec![
        MlImport {
            module: "cells".into(),
            name: "make".into(),
            params: vec![MlTy::Int],
            ret: lin_ml.clone(),
        },
        MlImport {
            module: "cells".into(),
            name: "destroy".into(),
            params: vec![lin_ml],
            ret: MlTy::Int,
        },
    ];
    ml.funs.push(richwasm_ml::MlFun {
        name: "main".into(),
        export: true,
        tyvars: 0,
        params: vec![],
        ret: MlTy::Int,
        body: MlExpr::Seq(
            Box::new(MlExpr::CallTop {
                name: "stash".into(),
                tyargs: vec![],
                args: vec![MlExpr::CallTop {
                    name: "make".into(),
                    tyargs: vec![],
                    args: vec![MlExpr::Int(42)],
                }],
            }),
            Box::new(MlExpr::CallTop {
                name: "destroy".into(),
                tyargs: vec![],
                args: vec![MlExpr::CallTop {
                    name: "get_stashed".into(),
                    tyargs: vec![],
                    args: vec![MlExpr::Unit],
                }],
            }),
        ),
    });
    (cells, ml)
}

#[test]
fn pipeline_round_trip_binaries_validate_and_agree() {
    // The round-trip check: every lowered module (including the generated
    // allocator runtime) encodes to standard `.wasm` bytes, and
    // differential mode agrees on the E1 interop scenario regardless of
    // which language hosts `main`.
    //
    // ML-main ordering: L3 provides the linear cells, ML stashes and
    // drives.
    let engine = Engine::new();
    let (cells, ml) = e1_ml_main_modules();
    let artifact = engine
        .compile(&ModuleSet::new().l3("cells", cells).ml("ml", ml).entry("ml"))
        .expect("ML-main ordering compiles");
    let mut inst = artifact.instantiate().unwrap();
    assert_eq!(inst.invoke_entry().expect("agrees").i32(), Some(42));
    for (name, bytes) in artifact.wasm_binaries() {
        assert_eq!(&bytes[..4], b"\0asm", "{name} is standard Wasm");
        assert_eq!(&bytes[4..8], &[1, 0, 0, 0], "{name} has version 1");
    }

    // The Fig. 9 counter, exercised invocation by invocation.
    let counter = engine
        .compile(
            &ModuleSet::new()
                .l3("gfx", workloads::counter_library())
                .ml("app", workloads::counter_client()),
        )
        .expect("counter scenario compiles");
    assert!(!counter.wasm_binaries().is_empty(), "encode stage ran");
    for (name, bytes) in counter.wasm_binaries() {
        assert_eq!(&bytes[..4], b"\0asm", "{name} is standard Wasm");
        assert_eq!(&bytes[4..8], &[1, 0, 0, 0], "{name} has version 1");
    }
    let mut prog = counter.instantiate().unwrap();
    prog.invoke("app", "setup", vec![Value::i32(21)])
        .expect("setup agrees");
    prog.invoke("app", "bump", vec![Value::Unit])
        .expect("bump agrees");
    let total = prog
        .invoke("app", "total", vec![Value::Unit])
        .expect("total agrees");
    assert_eq!(total.i32(), Some(21));

    // L3-main ordering: ML provides the stash, the L3 client drives.
    let l3_main = engine
        .compile(
            &ModuleSet::new()
                .ml("ml", workloads::stash_module(false))
                .l3("l3", workloads::stash_client())
                .entry("l3"),
        )
        .expect("L3-main ordering compiles");
    let mut inst = l3_main.instantiate().unwrap();
    assert_eq!(inst.invoke_entry().expect("agrees").i32(), Some(42));
    assert!(
        l3_main
            .wasm_binaries()
            .iter()
            .all(|(_, b)| b.starts_with(b"\0asm")),
        "all binaries carry the Wasm magic"
    );

    // Per-stage timings cover the whole static path on the artifact,
    // each stage once; bytecode is built only for the bytecode tier.
    // The instance records only dynamic stages.
    let tree = Engine::with_config(EngineConfig::new().wasm_tier(WasmTier::Tree))
        .compile(
            &ModuleSet::new()
                .ml("ml", workloads::stash_module(false))
                .l3("l3", workloads::stash_client())
                .entry("l3"),
        )
        .expect("L3-main ordering compiles on the tree tier");
    for stage in [
        Stage::Frontend,
        Stage::Typecheck,
        Stage::Lower,
        Stage::Validate,
        Stage::Encode,
        Stage::Bytecode,
        Stage::Analyze,
    ] {
        let count = |a: &Artifact| {
            a.timings()
                .entries()
                .iter()
                .filter(|(s, _)| *s == stage)
                .count()
        };
        assert_eq!(count(&l3_main), 1, "stage {stage} timed once");
        let on_tree = usize::from(stage != Stage::Bytecode);
        assert_eq!(count(&tree), on_tree, "stage {stage} on the tree tier");
    }
    assert!(
        inst.timings().no_static_stages(),
        "instantiation re-ran a static stage: {}",
        inst.timings()
    );
}

/// RichWasm float programs whose lowered Wasm must give the spec's bits,
/// run under the default differential engine so the interpreter and the
/// Wasm backend are compared bit for bit: a conversion that must round
/// once, `abs` of a signalling NaN, `min` with a NaN, and
/// `nearest(-0.5)`.
#[test]
fn float_programs_agree_bit_for_bit_in_differential_mode() {
    let f32_main = |body: Vec<Instr>| Module {
        funcs: vec![Func::Defined {
            exports: vec!["main".into()],
            ty: FunType::mono(vec![], vec![Pretype::Num(NumType::F32).unr()]),
            locals: vec![],
            body,
        }],
        ..Module::default()
    };
    let f32c = |bits: u32| Instr::Val(Value::Num(NumType::F32, bits.into()));
    let probes = [
        (
            "f32.convert_i64_u",
            vec![
                Instr::Val(Value::Num(NumType::U64, (1 << 53) + (1 << 29) + 1)),
                Instr::Num(NumInstr::Convert(NumType::F32, NumType::U64)),
            ],
            0x5a00_0001, // 2^53 + 2^30
        ),
        (
            "f32.abs_snan",
            vec![
                f32c(0xffa0_0000),
                Instr::Num(NumInstr::FloatUnop(NumType::F32, FloatUnop::Abs)),
            ],
            0x7fa0_0000,
        ),
        (
            "f32.min_nan",
            vec![
                f32c(0x7fc0_0000),
                f32c(1f32.to_bits()),
                Instr::Num(NumInstr::FloatBinop(NumType::F32, FloatBinop::Min)),
            ],
            0x7fc0_0000,
        ),
        (
            "f32.nearest_neg_half",
            vec![
                f32c((-0.5f32).to_bits()),
                Instr::Num(NumInstr::FloatUnop(NumType::F32, FloatUnop::Nearest)),
            ],
            0x8000_0000,
        ),
    ];
    for (probe, body, want) in probes {
        let out = Engine::new()
            .instantiate(&ModuleSet::new().richwasm("m", f32_main(body)))
            .unwrap()
            .invoke_entry()
            .unwrap_or_else(|e| panic!("{probe}: {e}"));
        let richwasm = &out.richwasm.as_ref().expect("interpreter ran").values;
        assert_eq!(richwasm, &[Value::Num(NumType::F32, want)], "{probe}");
        match out.wasm.as_deref() {
            Some([Val::F32(x)]) => assert_eq!(u64::from(x.to_bits()), want, "{probe}"),
            other => panic!("{probe}: Wasm returned {other:?}"),
        }
    }
}

#[test]
fn lowered_allocator_reclaims_memory() {
    // The generated free-list allocator actually reclaims: run a loop of
    // alloc/free cycles through the lowered pipeline and check the live
    // counter returns to its baseline. Wasm-only mode: the allocator is an
    // artifact of lowering, so there is nothing to compare against.
    let v = |x: &str| Box::new(L3Expr::Var(x.into()));
    let m = L3Module {
        funs: vec![
            L3Fun {
                name: "cycle".into(),
                export: true,
                params: vec![("x".into(), L3Ty::Int)],
                ret: L3Ty::Int,
                body: L3Expr::Let(
                    "p".into(),
                    Box::new(L3Expr::New(v("x"), 64)),
                    Box::new(L3Expr::Free(v("p"))),
                ),
            },
            L3Fun {
                name: "main".into(),
                export: true,
                params: vec![],
                ret: L3Ty::Int,
                body: L3Expr::CallTop {
                    name: "cycle".into(),
                    args: vec![L3Expr::Int(42)],
                },
            },
        ],
        ..L3Module::default()
    };
    let engine = Engine::with_config(EngineConfig::new().exec(Exec::Wasm));
    let mut inst = engine
        .instantiate(&ModuleSet::new().l3("m", m))
        .expect("wasm-only build");
    for k in 0..100 {
        let out = inst.invoke("m", "cycle", vec![Value::i32(k)]).unwrap();
        assert_eq!(out.i32(), Some(k));
    }
    let live = inst.invoke("rw_runtime", "live", vec![]).unwrap();
    assert_eq!(
        live.i32(),
        Some(0),
        "every allocation was returned to the free list"
    );
    // After a reset the allocator is back at its data-segment baseline.
    inst.reset().unwrap();
    let live = inst.invoke("rw_runtime", "live", vec![]).unwrap();
    assert_eq!(live.i32(), Some(0), "reset restores the allocator state");
}

#[test]
fn polymorphic_call_chains_through_wasm() {
    // id2<a>(x) = id1<a>(x): instantiating a callee with the caller's own
    // type variable — exercises telescope composition in the checker and
    // RePad identity plans in the lowering.
    let id1 = MlFun {
        name: "id1".into(),
        export: false,
        tyvars: 1,
        params: vec![("x".into(), MlTy::Var(0))],
        ret: MlTy::Var(0),
        body: MlExpr::Var("x".into()),
    };
    let id2 = MlFun {
        name: "id2".into(),
        export: false,
        tyvars: 1,
        params: vec![("x".into(), MlTy::Var(0))],
        ret: MlTy::Var(0),
        body: MlExpr::CallTop {
            name: "id1".into(),
            tyargs: vec![MlTy::Var(0)],
            args: vec![MlExpr::Var("x".into())],
        },
    };
    let main = MlFun {
        name: "main".into(),
        export: true,
        tyvars: 0,
        params: vec![],
        ret: MlTy::Int,
        body: MlExpr::Binop(
            MlBinop::Add,
            Box::new(MlExpr::CallTop {
                name: "id2".into(),
                tyargs: vec![MlTy::Int],
                args: vec![MlExpr::Int(40)],
            }),
            Box::new(MlExpr::CallTop {
                name: "id2".into(),
                // A different instantiation of the same function: a boxed
                // tuple, projected after the round trip.
                tyargs: vec![MlTy::Int],
                args: vec![MlExpr::Int(2)],
            }),
        ),
    };
    let m = MlModule {
        funs: vec![id1, id2, main],
        ..MlModule::default()
    };
    let mut inst = Engine::new()
        .instantiate(&ModuleSet::new().ml("m", m))
        .expect("full pipeline");
    assert_eq!(inst.invoke_entry().expect("agrees").i32(), Some(42));
}

#[test]
fn a_zero_gc_period_never_collects_automatically() {
    // `auto_gc_every(0)` is "no automatic collection", not a period of
    // zero steps: on the interpreter alone and in differential mode, the
    // same steps and value as without a period.
    let set = ModuleSet::new().richwasm("m", workloads::churn(3));
    for exec in [Exec::Interp, Exec::Differential] {
        let run = |config: EngineConfig| {
            let out = Engine::with_config(config.exec(exec))
                .instantiate(&set)
                .expect("churn builds")
                .invoke_entry()
                .expect("churn runs");
            assert_eq!(out.i32(), Some(3), "{exec:?}");
            out.richwasm.expect("the interpreter ran").steps
        };
        assert_eq!(
            run(EngineConfig::new().auto_gc_every(0)),
            run(EngineConfig::new()),
            "{exec:?}"
        );
    }
    // A `.rwart` artifact carries the zero through.
    let artifact = Engine::with_config(EngineConfig::new().exec(Exec::Wasm).auto_gc_every(0))
        .compile(&set)
        .unwrap();
    let bytes = artifact
        .serialize()
        .expect("a host-free Wasm artifact serializes");
    let decoded = richwasm_repro::Artifact::deserialize(&bytes).unwrap();
    assert_eq!(decoded.config().auto_gc_every, Some(0));
    let out = decoded.instantiate().unwrap().invoke_entry().unwrap();
    assert_eq!(out.i32(), Some(3));
}

#[test]
fn gc_under_pressure_in_counter_scenario() {
    // Run the Fig. 9 counter with the collector firing every few steps:
    // results unchanged, and dead option cells get reclaimed. Interp-only:
    // the GC is a RichWasm-interpreter feature.
    let engine = Engine::with_config(EngineConfig::new().interp_only().auto_gc_every(7));
    let mut inst = engine
        .instantiate(
            &ModuleSet::new()
                .l3("gfx", workloads::counter_library())
                .ml("app", workloads::counter_client()),
        )
        .expect("counter builds");
    inst.invoke("app", "setup", vec![Value::i32(2)]).unwrap();
    for _ in 0..10 {
        inst.invoke("app", "bump", vec![Value::Unit]).unwrap();
    }
    let out = inst.invoke("app", "total", vec![Value::Unit]).unwrap();
    assert_eq!(out.i32(), Some(20));
}

/// A module whose only function type mentions an unbound type variable:
/// its declarations are ill-formed, whatever its body says.
fn ill_formed_functype() -> Module {
    Module {
        funcs: vec![Func::Defined {
            exports: vec!["main".into()],
            ty: FunType::mono(vec![Pretype::Var(0).unr()], vec![]),
            locals: vec![],
            body: vec![],
        }],
        ..Module::default()
    }
}

/// A module whose first global initialiser reads the second global.
fn init_reads_later_global() -> Module {
    let global = |init| Global {
        exports: vec![],
        kind: GlobalKind::Defined {
            mutable: false,
            ty: Pretype::Num(NumType::I32),
            init,
        },
    };
    Module {
        globals: vec![
            global(vec![Instr::GetGlobal(1)]),
            global(vec![Instr::i32(0)]),
        ],
        ..Module::default()
    }
}

/// An ML module the ML frontend rejects (an unbound variable).
fn ml_unbound_variable() -> MlModule {
    MlModule {
        funs: vec![MlFun {
            name: "main".into(),
            export: true,
            tyvars: 0,
            params: vec![],
            ret: MlTy::Int,
            body: MlExpr::Var("nowhere".into()),
        }],
        ..MlModule::default()
    }
}

#[test]
fn static_errors_are_identical_in_every_exec_mode() {
    // Where each body is checked depends on the mode (DESIGN §4), but the
    // reported error may not: it is the first frontend or full-check
    // error in source order, whichever mode compiles the set.
    let cases: Vec<(&str, ModuleSet, Stage, &str)> = vec![
        (
            "Fig. 1 buggy stash (body error)",
            ModuleSet::new().ml("ml", workloads::stash_module(true)),
            Stage::Typecheck,
            "ml",
        ),
        (
            "ill-formed function type (declarations error)",
            ModuleSet::new().richwasm("decl", ill_formed_functype()),
            Stage::Typecheck,
            "decl",
        ),
        (
            "global initialiser reads a later global",
            ModuleSet::new().richwasm("glob", init_reads_later_global()),
            Stage::Typecheck,
            "glob",
        ),
        (
            "body error in module 1, declarations error in module 2",
            ModuleSet::new()
                .ml("ml", workloads::stash_module(true))
                .richwasm("decl", ill_formed_functype())
                .entry("ml"),
            Stage::Typecheck,
            "ml",
        ),
        (
            "body error in module 1, ML frontend error in module 2",
            ModuleSet::new()
                .ml("ml", workloads::stash_module(true))
                .ml("bad", ml_unbound_variable())
                .entry("ml"),
            Stage::Typecheck,
            "ml",
        ),
    ];
    let compile_err = |exec: Exec, set: &ModuleSet| -> PipelineError {
        Engine::with_config(EngineConfig::new().exec(exec))
            .compile(set)
            .expect_err("the set is ill-typed")
    };
    for (what, set, stage, module) in &cases {
        let interp = compile_err(Exec::Interp, set);
        assert_eq!(interp.stage, *stage, "{what}: {interp}");
        assert_eq!(interp.module.as_deref(), Some(*module), "{what}: {interp}");
        let PipelineErrorKind::Type(expected) = &interp.kind else {
            panic!("{what}: expected a type error, got {interp}");
        };
        for exec in [Exec::Wasm, Exec::Differential] {
            let err = compile_err(exec, set);
            assert_eq!(err.stage, interp.stage, "{what} under {exec:?}: {err}");
            assert_eq!(err.module, interp.module, "{what} under {exec:?}: {err}");
            match &err.kind {
                PipelineErrorKind::Type(e) => assert_eq!(e, expected, "{what} under {exec:?}"),
                other => panic!("{what} under {exec:?}: expected {expected}, got {other}"),
            }
        }
    }
}

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
use richwasm::RuntimeError;
use richwasm_bench::workloads;
use richwasm_l3::{L3Expr, L3Fun, L3Module, L3Op, L3Ty};
use richwasm_ml::{MlBinop, MlExpr, MlFun, MlModule, MlTy};
use richwasm_repro::engine::{
    Analysis, Artifact, Engine, EngineConfig, Exec, ModuleSet, PipelineError, PipelineErrorKind,
    Stage, WasmTier,
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

/// A known-answer table of numeric edge cases, each row's bits taken
/// from the Wasm spec rather than from any executor: float→int
/// truncation at the edges of the target range, division traps, shift
/// counts past the width, wrap and extension, same-width signedness
/// changes, NaN results, a conversion that must round once, `abs` of a
/// signalling NaN, `min` with a NaN, and `nearest(-0.5)`. Every row runs
/// under the interpreter alone, the lowered Wasm alone, and the default
/// differential engine, and must give the table's bits or trap where the
/// table says so.
#[test]
fn numeric_known_answers_hold_in_every_exec_mode() {
    use richwasm::syntax::instr::{IntBinop, IntUnop, Sign};
    use NumType::*;
    let c = |nt: NumType, bits: u64| Instr::Val(Value::Num(nt, bits));
    let f32c = |x: f32| c(F32, x.to_bits().into());
    let f64c = |x: f64| c(F64, x.to_bits());
    let cvt = |dst, src| Instr::Num(NumInstr::Convert(dst, src));
    let ibin = |nt, op| Instr::Num(NumInstr::IntBinop(nt, op));
    let fbin = |nt, op| Instr::Num(NumInstr::FloatBinop(nt, op));
    const TRAP: Option<u64> = None;
    let two63 = 9223372036854775808.0;
    let two64 = 18446744073709551616.0;
    #[rustfmt::skip]
    let rows: Vec<(&str, NumType, Vec<Instr>, Option<u64>)> = vec![
        // float → int truncation: valid iff the truncated value fits.
        ("i32.trunc_f64_s(2^31)", I32, vec![f64c(2147483648.0), cvt(I32, F64)], TRAP),
        ("i32.trunc_f64_s(-2^31)", I32, vec![f64c(-2147483648.0), cvt(I32, F64)], Some(0x8000_0000)),
        ("i32.trunc_f32_s(2^31)", I32, vec![f32c(2147483648.0), cvt(I32, F32)], TRAP),
        ("i32.trunc_f64_u(2^32)", U32, vec![f64c(4294967296.0), cvt(U32, F64)], TRAP),
        ("i32.trunc_f64_u(2^32-0.5)", U32, vec![f64c(4294967295.5), cvt(U32, F64)], Some(0xffff_ffff)),
        ("i32.trunc_f32_u(-0.9)", U32, vec![f32c(-0.9), cvt(U32, F32)], Some(0)),
        ("i32.trunc_f64_u(-1)", U32, vec![f64c(-1.0), cvt(U32, F64)], TRAP),
        ("i64.trunc_f64_s(2^63)", I64, vec![f64c(two63), cvt(I64, F64)], TRAP),
        ("i64.trunc_f32_s(2^63)", I64, vec![f32c(two63 as f32), cvt(I64, F32)], TRAP),
        ("i64.trunc_f64_s(-2^63)", I64, vec![f64c(-two63), cvt(I64, F64)], Some(1 << 63)),
        ("i64.trunc_f64_u(2^64)", U64, vec![f64c(two64), cvt(U64, F64)], TRAP),
        ("i64.trunc_f32_u(2^64)", U64, vec![f32c(two64 as f32), cvt(U64, F32)], TRAP),
        ("i64.trunc_f64_u(-0.9)", U64, vec![f64c(-0.9), cvt(U64, F64)], Some(0)),
        ("i32.trunc_f64_s(nan)", I32, vec![f64c(f64::NAN), cvt(I32, F64)], TRAP),
        ("i64.trunc_f32_u(nan)", U64, vec![f32c(f32::NAN), cvt(U64, F32)], TRAP),
        // Division and remainder.
        ("i32.div_s(1, 0)", I32, vec![c(I32, 1), c(I32, 0), ibin(I32, IntBinop::Div(Sign::S))], TRAP),
        ("i32.div_u(1, 0)", U32, vec![c(U32, 1), c(U32, 0), ibin(U32, IntBinop::Div(Sign::U))], TRAP),
        ("i64.rem_s(1, 0)", I64, vec![c(I64, 1), c(I64, 0), ibin(I64, IntBinop::Rem(Sign::S))], TRAP),
        ("i64.rem_u(1, 0)", U64, vec![c(U64, 1), c(U64, 0), ibin(U64, IntBinop::Rem(Sign::U))], TRAP),
        ("i32.div_s(MIN, -1)", I32, vec![c(I32, 0x8000_0000), c(I32, 0xffff_ffff), ibin(I32, IntBinop::Div(Sign::S))], TRAP),
        ("i64.div_s(MIN, -1)", I64, vec![c(I64, 1 << 63), c(I64, u64::MAX), ibin(I64, IntBinop::Div(Sign::S))], TRAP),
        ("i32.rem_s(MIN, -1)", I32, vec![c(I32, 0x8000_0000), c(I32, 0xffff_ffff), ibin(I32, IntBinop::Rem(Sign::S))], Some(0)),
        ("i64.add(MAX_u, 1)", I64, vec![c(I64, u64::MAX), c(I64, 1), ibin(I64, IntBinop::Add)], Some(0)),
        // Shift and rotate counts are taken modulo the width.
        ("i32.shl(1, 33)", I32, vec![c(I32, 1), c(I32, 33), ibin(I32, IntBinop::Shl)], Some(2)),
        ("i32.shr_s(MIN, 63)", I32, vec![c(I32, 0x8000_0000), c(I32, 63), ibin(I32, IntBinop::Shr(Sign::S))], Some(0xffff_ffff)),
        ("i32.shr_u(MIN, 32)", U32, vec![c(U32, 0x8000_0000), c(U32, 32), ibin(U32, IntBinop::Shr(Sign::U))], Some(0x8000_0000)),
        ("i64.shl(1, 65)", I64, vec![c(I64, 1), c(I64, 65), ibin(I64, IntBinop::Shl)], Some(2)),
        ("i64.rotl(1, 64)", I64, vec![c(I64, 1), c(I64, 64), ibin(I64, IntBinop::Rotl)], Some(1)),
        ("i32.rotr(1, 33)", I32, vec![c(I32, 1), c(I32, 33), ibin(I32, IntBinop::Rotr)], Some(0x8000_0000)),
        ("i32.clz(0)", I32, vec![c(I32, 0), Instr::Num(NumInstr::IntUnop(I32, IntUnop::Clz))], Some(32)),
        ("i64.ctz(0)", I64, vec![c(I64, 0), Instr::Num(NumInstr::IntUnop(I64, IntUnop::Ctz))], Some(64)),
        // Wrap, and extension with the sign of the source type.
        ("i32.wrap_i64", I32, vec![c(I64, 0xffff_ffff_8000_0005), cvt(I32, I64)], Some(0x8000_0005)),
        ("i64.extend_i32_s", I64, vec![c(I32, 0xffff_ffff), cvt(I64, I32)], Some(u64::MAX)),
        ("u64.extend_i32_s", U64, vec![c(I32, 0x8000_0000), cvt(U64, I32)], Some(0xffff_ffff_8000_0000)),
        ("i64.extend_u32", I64, vec![c(U32, 0xffff_ffff), cvt(I64, U32)], Some(0xffff_ffff)),
        ("u64.extend_u32", U64, vec![c(U32, 0x8000_0000), cvt(U64, U32)], Some(0x8000_0000)),
        // Same-width signedness changes keep the bits.
        ("u32.convert_i32", U32, vec![c(I32, 0xffff_ffff), cvt(U32, I32)], Some(0xffff_ffff)),
        ("i32.convert_u32", I32, vec![c(U32, 0x8000_0000), cvt(I32, U32)], Some(0x8000_0000)),
        // Any NaN result is the positive canonical NaN.
        ("f32.add(nan, nan)", F32, vec![c(F32, 0x7fa0_0001), c(F32, 0xffc0_0002), fbin(F32, FloatBinop::Add)], Some(0x7fc0_0000)),
        ("f32.mul(nan, nan)", F32, vec![c(F32, 0xffc0_0002), c(F32, 0x7fa0_0001), fbin(F32, FloatBinop::Mul)], Some(0x7fc0_0000)),
        ("f64.add(nan, nan)", F64, vec![c(F64, 0x7ff4_0000_0000_0001), c(F64, 0xfff8_0000_0000_0002), fbin(F64, FloatBinop::Add)], Some(0x7ff8_0000_0000_0000)),
        ("f64.mul(nan, nan)", F64, vec![c(F64, 0xfff8_0000_0000_0002), c(F64, 0x7ff4_0000_0000_0001), fbin(F64, FloatBinop::Mul)], Some(0x7ff8_0000_0000_0000)),
        // Floats: round once, sign operators are bitwise, `min` of a NaN
        // is canonical, `nearest` keeps the sign of zero.
        ("f32.convert_i64_u", F32, vec![c(U64, (1 << 53) + (1 << 29) + 1), cvt(F32, U64)], Some(0x5a00_0001)),
        ("f32.abs(snan)", F32, vec![c(F32, 0xffa0_0000), Instr::Num(NumInstr::FloatUnop(F32, FloatUnop::Abs))], Some(0x7fa0_0000)),
        ("f32.min(nan, 1)", F32, vec![c(F32, 0x7fc0_0000), f32c(1.0), fbin(F32, FloatBinop::Min)], Some(0x7fc0_0000)),
        ("f32.nearest(-0.5)", F32, vec![f32c(-0.5), Instr::Num(NumInstr::FloatUnop(F32, FloatUnop::Nearest))], Some(0x8000_0000)),
    ];
    let main = |nt: NumType, body: Vec<Instr>| Module {
        funcs: vec![Func::Defined {
            exports: vec!["main".into()],
            ty: FunType::mono(vec![], vec![Pretype::Num(nt).unr()]),
            locals: vec![],
            body,
        }],
        ..Module::default()
    };
    let wasm_bits = |v: &Val| match *v {
        Val::I32(x) => u64::from(x),
        Val::I64(x) => x,
        Val::F32(x) => u64::from(x.to_bits()),
        Val::F64(x) => x.to_bits(),
    };
    let mut wrong = Vec::new();
    for exec in [Exec::Interp, Exec::Wasm, Exec::Differential] {
        let engine = Engine::with_config(EngineConfig::new().exec(exec));
        for (row, nt, body, want) in &rows {
            let set = ModuleSet::new().richwasm("m", main(*nt, body.clone()));
            let got = match engine.instantiate(&set).unwrap().invoke_entry() {
                Err(e) => match e.kind {
                    PipelineErrorKind::Runtime(RuntimeError::Trap { .. })
                    | PipelineErrorKind::Wasm(_) => None,
                    _ => Some(Err(e.to_string())),
                },
                Ok(out) => {
                    let interp = out.richwasm.map(|ir| match ir.values[..] {
                        [Value::Num(got_nt, bits)] if got_nt == *nt => Ok(bits),
                        _ => Err(format!("{:?}", ir.values)),
                    });
                    let wasm = out.wasm.map(|wr| match wr[..] {
                        [v] => Ok(wasm_bits(&v)),
                        _ => Err(format!("{wr:?}")),
                    });
                    // Each mode runs exactly its backends; a value both
                    // ran must agree (differential mode checks that too).
                    match (exec, interp, wasm) {
                        (Exec::Interp, Some(r), None) | (Exec::Wasm, None, Some(r)) => Some(r),
                        (Exec::Differential, Some(i), Some(w)) if i == w => Some(i),
                        (_, i, w) => Some(Err(format!("interp {i:?}, wasm {w:?}"))),
                    }
                }
            };
            if got != want.map(Ok) {
                wrong.push(format!(
                    "{row} under {exec:?}: want {want:x?}, got {got:x?}"
                ));
            }
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
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
    let engine = Engine::with_config(EngineConfig::new().exec(Exec::Interp).auto_gc_every(7));
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

#[test]
fn ml_tower_code_grows_linearly() {
    // `ml_tower(d + 1)` has twice `ml_tower(d)`'s source, and every one of
    // its closures sits in the shared table behind an indirect call. One
    // case per callee shape keeps each call site's code independent of the
    // table's size, so the encoded Wasm roughly doubles too; one case per
    // table entry made it grow about 3.85× per level.
    let engine = Engine::with_config(EngineConfig::new().exec(Exec::Wasm).analysis(Analysis::Off));
    let bytes = |depth: u32| -> usize {
        engine
            .compile(&ModuleSet::new().ml("tower", workloads::ml_tower(depth)))
            .expect("the tower compiles")
            .wasm_binaries()
            .iter()
            .map(|(_, b)| b.len())
            .sum()
    };
    let (six, seven) = (bytes(6), bytes(7));
    let ratio = seven as f64 / six as f64;
    assert!(
        ratio <= 2.2,
        "ml_tower(7) encodes to {seven} bytes, {ratio:.2}× ml_tower(6)'s {six}"
    );
}

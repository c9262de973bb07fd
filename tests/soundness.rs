//! **Experiment E3** (paper §4.1): type safety, made executable.
//!
//! The paper proves progress and preservation in Coq (14k spec / 52k
//! proof LoC). This reproduction tests the same statements end to end:
//!
//! * **Type preservation of compilation** (§5): every well-typed ML
//!   program compiles to a RichWasm module the checker accepts.
//! * **Progress**: well-typed configurations never get *stuck* — they
//!   step to completion or trap for a legitimate dynamic reason.
//! * **Memory safety**: every linear allocation is freed at most once and
//!   use-after-free cannot occur silently (the interpreter would trap).
//! * **Erasure correctness** (§6): the lowered Wasm agrees with the
//!   RichWasm semantics on every generated program — checked by the
//!   [`Engine`]'s differential mode.

use proptest::prelude::*;
use richwasm::error::RuntimeError;
use richwasm_ml::{MlBinop, MlExpr, MlFun, MlModule, MlTy};
use richwasm_repro::engine::{Engine, EngineConfig, Exec, ModuleSet, PipelineErrorKind, Stage};

/// A generator for *well-typed* ML expressions of type `Int`, with `vars`
/// integer variables in scope (named v0..v{vars-1}).
fn arb_int_expr(depth: u32, vars: u32) -> BoxedStrategy<MlExpr> {
    if depth == 0 {
        let mut leaves: Vec<BoxedStrategy<MlExpr>> =
            vec![(-100i32..100).prop_map(MlExpr::Int).boxed()];
        if vars > 0 {
            leaves.push((0..vars).prop_map(|i| MlExpr::Var(format!("v{i}"))).boxed());
        }
        return proptest::strategy::Union::new(leaves).boxed();
    }
    let sub = arb_int_expr(depth - 1, vars);
    let sub2 = arb_int_expr(depth - 1, vars);
    let sub3 = arb_int_expr(depth - 1, vars);
    let let_sub = arb_int_expr(depth - 1, vars + 1);
    prop_oneof![
        // Arithmetic (no division: we want trap-free programs here so any
        // trap is a soundness signal).
        (
            sub.clone(),
            sub2.clone(),
            prop_oneof![
                Just(MlBinop::Add),
                Just(MlBinop::Sub),
                Just(MlBinop::Mul),
                Just(MlBinop::Eq),
                Just(MlBinop::Lt),
            ]
        )
            .prop_map(|(a, b, op)| MlExpr::Binop(op, Box::new(a), Box::new(b))),
        // let vN = e in e' (the new variable is the highest index).
        (sub.clone(), let_sub)
            .prop_map(move |(a, b)| { MlExpr::Let(format!("v{vars}"), Box::new(a), Box::new(b)) }),
        // if e then e1 else e2
        (sub.clone(), sub2.clone(), sub3)
            .prop_map(|(c, a, b)| { MlExpr::If(Box::new(c), Box::new(a), Box::new(b)) }),
        // Tuples and projection.
        (sub.clone(), sub2.clone(), 0usize..2)
            .prop_map(|(a, b, i)| { MlExpr::Proj(i, Box::new(MlExpr::Tuple(vec![a, b]))) }),
        // References: let r = ref a in (r := b; !r)
        (sub.clone(), sub2.clone()).prop_map(move |(a, b)| {
            let r = format!("v{vars}_r");
            MlExpr::Let(
                r.clone(),
                Box::new(MlExpr::NewRef(Box::new(a))),
                Box::new(MlExpr::Seq(
                    Box::new(MlExpr::Assign(
                        Box::new(MlExpr::Var(r.clone())),
                        Box::new(b),
                    )),
                    Box::new(MlExpr::Deref(Box::new(MlExpr::Var(r)))),
                )),
            )
        }),
        // Sums: case (inj_i e) …
        (sub.clone(), sub2.clone(), 0usize..2).prop_map(|(a, b, tag)| {
            let sum = MlTy::Sum(vec![MlTy::Int, MlTy::Int]);
            MlExpr::Case(
                Box::new(MlExpr::Inj {
                    sum,
                    tag,
                    e: Box::new(a),
                }),
                vec![
                    ("x".into(), MlExpr::Var("x".into())),
                    (
                        "y".into(),
                        MlExpr::Binop(MlBinop::Add, Box::new(MlExpr::Var("y".into())), Box::new(b)),
                    ),
                ],
            )
        }),
        // Closures: (fun x -> x + captured) arg
        (sub, sub2).prop_map(move |(captured, arg)| {
            let c = format!("v{vars}_c");
            MlExpr::Let(
                c.clone(),
                Box::new(captured),
                Box::new(MlExpr::App(
                    Box::new(MlExpr::Lam {
                        param: "x".into(),
                        param_ty: MlTy::Int,
                        ret_ty: MlTy::Int,
                        body: Box::new(MlExpr::Binop(
                            MlBinop::Add,
                            Box::new(MlExpr::Var("x".into())),
                            Box::new(MlExpr::Var(c)),
                        )),
                    }),
                    Box::new(arg),
                )),
            )
        }),
    ]
    .boxed()
}

fn module_of(body: MlExpr) -> MlModule {
    MlModule {
        funs: vec![MlFun {
            name: "main".into(),
            export: true,
            tyvars: 0,
            params: vec![],
            ret: MlTy::Int,
            body,
        }],
        ..MlModule::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Type preservation + progress + memory safety, in one sweep.
    #[test]
    fn well_typed_programs_are_safe(body in arb_int_expr(3, 0)) {
        // Frontend + typecheck: the ML compiler accepts its own
        // well-typed output, and compilation is type preserving (§5) —
        // a `Typecheck`-stage failure here would falsify preservation.
        let engine = Engine::with_config(EngineConfig::new().exec(Exec::Interp));
        let mut prog = engine
            .instantiate(&ModuleSet::new().ml("m", module_of(body)))
            .expect("compilation must be type preserving");

        // Progress: the program runs to completion without getting stuck.
        match prog.invoke("m", "main", vec![]) {
            Ok(out) => {
                let values = &out.richwasm.as_ref().expect("interp ran").values;
                prop_assert_eq!(values.len(), 1);
                // Memory safety accounting: allocations and frees balance
                // against the live count.
                let mem = &prog.runtime().store.mem;
                prop_assert_eq!(
                    mem.allocs,
                    mem.frees + mem.collected + mem.finalized + mem.live() as u64
                );
            }
            Err(e) => match e.kind {
                PipelineErrorKind::Runtime(RuntimeError::Stuck { reason }) => {
                    prop_assert!(false, "progress violated: stuck at {}", reason);
                }
                PipelineErrorKind::Runtime(RuntimeError::Trap { reason }) => {
                    prop_assert!(false, "trap-free generator trapped: {}", reason);
                }
                other => prop_assert!(false, "unexpected failure: {}", other),
            },
        }
    }

    /// Erasure correctness (§6): the lowered Wasm computes the same value
    /// as the RichWasm interpreter on every generated program. The
    /// pipeline's differential mode performs the comparison itself.
    #[test]
    fn lowering_preserves_behaviour(body in arb_int_expr(3, 0)) {
        let mut inst = Engine::new()
            .instantiate(&ModuleSet::new().ml("m", module_of(body)))
            .expect("the full static pipeline succeeds");
        let result = inst.invoke_entry().expect("both backends run and agree");
        prop_assert!(result.i32().is_some(), "a single i32 result on both backends");
    }

    /// GC safety: collecting at any point during execution never breaks a
    /// running program (the collector only reclaims unreachable cells).
    #[test]
    fn gc_is_transparent(body in arb_int_expr(3, 0), every in 1u64..40) {
        let set = ModuleSet::new().ml("m", module_of(body));
        // Reference run, no GC.
        let calm = Engine::with_config(EngineConfig::new().exec(Exec::Interp));
        let r1 = calm.instantiate(&set).expect("no-GC build")
            .invoke_entry().expect("no-GC run");
        // Aggressive-GC run (a different config, hence a different engine:
        // the config is part of the artifact's identity).
        let pressured = Engine::with_config(
            EngineConfig::new().exec(Exec::Interp).auto_gc_every(every));
        let r2 = pressured.instantiate(&set).expect("GC build")
            .invoke_entry().expect("GC run must not fail");
        let v1 = r1.richwasm.expect("interp ran").values;
        let v2 = r2.richwasm.expect("interp ran").values;
        prop_assert_eq!(v1, v2);
    }
}

/// A fixed regression corpus distilled from past generator finds (kept
/// deterministic so CI failures are reproducible). Runs in differential
/// mode, so each program is also lowered, validated, and cross-checked.
#[test]
fn regression_corpus() {
    let programs = vec![
        // Nested closures capturing refs.
        MlExpr::Let(
            "r".into(),
            Box::new(MlExpr::NewRef(Box::new(MlExpr::Int(1)))),
            Box::new(MlExpr::App(
                Box::new(MlExpr::Lam {
                    param: "x".into(),
                    param_ty: MlTy::Int,
                    ret_ty: MlTy::Int,
                    body: Box::new(MlExpr::Binop(
                        MlBinop::Add,
                        Box::new(MlExpr::Deref(Box::new(MlExpr::Var("r".into())))),
                        Box::new(MlExpr::Var("x".into())),
                    )),
                }),
                Box::new(MlExpr::Deref(Box::new(MlExpr::Var("r".into())))),
            )),
        ),
        // Case over a sum of sums.
        MlExpr::Case(
            Box::new(MlExpr::Inj {
                sum: MlTy::Sum(vec![MlTy::Int, MlTy::Int]),
                tag: 1,
                e: Box::new(MlExpr::Int(21)),
            }),
            vec![
                ("a".into(), MlExpr::Var("a".into())),
                (
                    "b".into(),
                    MlExpr::Binop(
                        MlBinop::Mul,
                        Box::new(MlExpr::Var("b".into())),
                        Box::new(MlExpr::Int(2)),
                    ),
                ),
            ],
        ),
    ];
    let engine = Engine::new();
    for body in programs {
        let result = engine
            .instantiate(&ModuleSet::new().ml("m", module_of(body)))
            .unwrap()
            .invoke_entry()
            .unwrap();
        assert!(result.i32().is_some());
    }
    // The corpus must keep failing loudly if a stage is silently skipped.
    let stages = [
        Stage::Frontend,
        Stage::Typecheck,
        Stage::Lower,
        Stage::Validate,
    ];
    let artifact = engine
        .compile(&ModuleSet::new().ml("m", module_of(MlExpr::Int(7))))
        .unwrap();
    for stage in stages {
        assert!(
            artifact
                .timings()
                .entries()
                .iter()
                .any(|(s, _)| *s == stage),
            "stage {stage} must have run"
        );
    }
}

//! Shared workload builders for the benchmark harness: the paper's
//! example programs plus parametric synthetic workloads for scaling
//! studies.

use richwasm::syntax::instr::Block;
use richwasm::syntax::*;
use richwasm_l3::{translate_ty as l3_ty, L3Expr, L3Fun, L3Import, L3Module, L3Op, L3Ty};
use richwasm_ml::{MlBinop, MlExpr, MlFun, MlGlobal, MlImport, MlModule, MlTy};
use richwasm_wasm::ast as w;

/// The linear boundary type of the Fig. 3 scenario.
pub fn lin_ref_l3() -> L3Ty {
    L3Ty::Ref(Box::new(L3Ty::Int), 64)
}

/// The ML view of [`lin_ref_l3`].
pub fn lin_ref_ml() -> MlTy {
    MlTy::Foreign(l3_ty(&lin_ref_l3()))
}

/// The Fig. 1/Fig. 3 ML stash module; `buggy` duplicates the linear value.
pub fn stash_module(buggy: bool) -> MlModule {
    let var = |x: &str| Box::new(MlExpr::Var(x.into()));
    let stash_body = if buggy {
        MlExpr::Seq(
            Box::new(MlExpr::Assign(var("c"), var("r"))),
            Box::new(MlExpr::Var("r".into())),
        )
    } else {
        MlExpr::Assign(var("c"), var("r"))
    };
    MlModule {
        globals: vec![MlGlobal {
            name: "c".into(),
            ty: MlTy::RefToLin(Box::new(lin_ref_ml())),
            init: MlExpr::NewRefToLin(lin_ref_ml()),
        }],
        funs: vec![
            MlFun {
                name: "stash".into(),
                export: true,
                tyvars: 0,
                params: vec![("r".into(), lin_ref_ml())],
                ret: if buggy { lin_ref_ml() } else { MlTy::Unit },
                body: stash_body,
            },
            MlFun {
                name: "get_stashed".into(),
                export: true,
                tyvars: 0,
                params: vec![("u".into(), MlTy::Unit)],
                ret: lin_ref_ml(),
                body: MlExpr::Deref(var("c")),
            },
        ],
        ..MlModule::default()
    }
}

/// The safe L3 client of the stash module.
pub fn stash_client() -> L3Module {
    L3Module {
        imports: vec![
            L3Import {
                module: "ml".into(),
                name: "stash".into(),
                params: vec![lin_ref_l3()],
                ret: L3Ty::Unit,
            },
            L3Import {
                module: "ml".into(),
                name: "get_stashed".into(),
                params: vec![L3Ty::Unit],
                ret: lin_ref_l3(),
            },
        ],
        funs: vec![L3Fun {
            name: "main".into(),
            export: true,
            params: vec![],
            ret: L3Ty::Int,
            body: L3Expr::Seq(
                Box::new(L3Expr::CallTop {
                    name: "stash".into(),
                    args: vec![L3Expr::Join(Box::new(L3Expr::New(
                        Box::new(L3Expr::Int(42)),
                        64,
                    )))],
                }),
                Box::new(L3Expr::Free(Box::new(L3Expr::CallTop {
                    name: "get_stashed".into(),
                    args: vec![L3Expr::Unit],
                }))),
            ),
        }],
    }
}

/// A synthetic RichWasm module with `n` chained arithmetic functions —
/// the type-checking scalability workload.
pub fn arith_chain(n: usize) -> Module {
    let i32t = Type::num(NumType::I32);
    let mut funcs = Vec::new();
    for i in 0..n {
        let body = if i == 0 {
            vec![
                Instr::GetLocal(0, Qual::Unr),
                Instr::i32(1),
                Instr::Num(NumInstr::IntBinop(NumType::I32, instr::IntBinop::Add)),
            ]
        } else {
            vec![
                Instr::GetLocal(0, Qual::Unr),
                Instr::Call((i - 1) as u32, vec![]),
                Instr::GetLocal(0, Qual::Unr),
                Instr::Num(NumInstr::IntBinop(NumType::I32, instr::IntBinop::Add)),
            ]
        };
        funcs.push(Func::Defined {
            exports: if i == n - 1 {
                vec!["main".into()]
            } else {
                vec![]
            },
            ty: FunType::mono(vec![i32t.clone()], vec![i32t.clone()]),
            locals: vec![],
            body,
        });
    }
    Module {
        funcs,
        ..Module::default()
    }
}

/// A RichWasm module whose export performs `n` linear allocate/update/free
/// round trips — the allocator/linearity churn workload.
pub fn churn(n: u32) -> Module {
    let i32t = Type::num(NumType::I32);
    let lt = Instr::Num(NumInstr::IntRelop(
        NumType::I32,
        instr::IntRelop::Lt(instr::Sign::S),
    ));
    let add = Instr::Num(NumInstr::IntBinop(NumType::I32, instr::IntBinop::Add));
    Module {
        funcs: vec![Func::Defined {
            exports: vec!["main".into()],
            ty: FunType::mono(vec![], vec![i32t.clone()]),
            // local0: loop counter, local1: accumulator, local2: scratch
            locals: vec![Size::Const(32), Size::Const(32), Size::Const(32)],
            body: vec![
                Instr::i32(0),
                Instr::SetLocal(0),
                Instr::i32(0),
                Instr::SetLocal(1),
                Instr::i32(0),
                Instr::SetLocal(2),
                Instr::LoopI(
                    ArrowType::new(vec![], vec![]),
                    vec![
                        // One linear cell round trip.
                        Instr::GetLocal(1, Qual::Unr),
                        Instr::StructMalloc(vec![Size::Const(64)], Qual::Lin),
                        Instr::MemUnpack(
                            Block::new(
                                ArrowType::new(vec![], vec![]),
                                vec![instr::LocalEffect::new(2, i32t)],
                            ),
                            vec![
                                Instr::StructGet(0),
                                Instr::i32(1),
                                add.clone(),
                                Instr::SetLocal(2),
                                Instr::StructFree,
                            ],
                        ),
                        Instr::GetLocal(2, Qual::Unr),
                        Instr::SetLocal(1),
                        // Loop control.
                        Instr::GetLocal(0, Qual::Unr),
                        Instr::i32(1),
                        add,
                        Instr::TeeLocal(0),
                        Instr::i32(n as i32),
                        lt,
                        Instr::BrIf(0),
                    ],
                ),
                Instr::GetLocal(1, Qual::Unr),
            ],
        }],
        ..Module::default()
    }
}

/// A RichWasm module whose export runs a loop of `iters` iterations and
/// returns `iters`. Each iteration's body is `pad` `nop`s followed by
/// the counter update — the interpreter's per-step cost workload: with
/// the counter's steps fixed, a step should cost the same at any `pad`.
pub fn padded_loop(pad: usize, iters: u32) -> Module {
    let i32t = Type::num(NumType::I32);
    let mut body = vec![Instr::Nop; pad];
    body.extend([
        Instr::GetLocal(0, Qual::Unr),
        Instr::i32(1),
        Instr::Num(NumInstr::IntBinop(NumType::I32, instr::IntBinop::Add)),
        Instr::TeeLocal(0),
        Instr::i32(iters as i32),
        Instr::Num(NumInstr::IntRelop(
            NumType::I32,
            instr::IntRelop::Lt(instr::Sign::S),
        )),
        Instr::BrIf(0),
    ]);
    Module {
        funcs: vec![Func::Defined {
            exports: vec!["main".into()],
            ty: FunType::mono(vec![], vec![i32t]),
            locals: vec![Size::Const(32)],
            body: vec![
                Instr::i32(0),
                Instr::SetLocal(0),
                Instr::LoopI(ArrowType::new(vec![], vec![]), body),
                Instr::GetLocal(0, Qual::Unr),
            ],
        }],
        ..Module::default()
    }
}

/// The Fig. 9 counter library (L3 side).
pub fn counter_library() -> L3Module {
    let v = |x: &str| Box::new(L3Expr::Var(x.into()));
    let counter = || {
        L3Ty::Ref(
            Box::new(L3Ty::Prod(Box::new(L3Ty::Int), Box::new(L3Ty::Int))),
            128,
        )
    };
    L3Module {
        funs: vec![
            L3Fun {
                name: "make_counter".into(),
                export: true,
                params: vec![("step".into(), L3Ty::Int)],
                ret: counter(),
                body: L3Expr::Join(Box::new(L3Expr::New(
                    Box::new(L3Expr::Pair(Box::new(L3Expr::Int(0)), v("step"))),
                    128,
                ))),
            },
            L3Fun {
                name: "incr".into(),
                export: true,
                params: vec![("r".into(), counter())],
                ret: counter(),
                body: L3Expr::LetPair(
                    "p2".into(),
                    "old".into(),
                    Box::new(L3Expr::Swap(
                        Box::new(L3Expr::Split(v("r"))),
                        Box::new(L3Expr::Pair(
                            Box::new(L3Expr::Int(0)),
                            Box::new(L3Expr::Int(0)),
                        )),
                    )),
                    Box::new(L3Expr::LetPair(
                        "count".into(),
                        "step".into(),
                        v("old"),
                        Box::new(L3Expr::LetPair(
                            "p3".into(),
                            "dummy".into(),
                            Box::new(L3Expr::Swap(
                                v("p2"),
                                Box::new(L3Expr::Pair(
                                    Box::new(L3Expr::Op(L3Op::Add, v("count"), v("step"))),
                                    v("step"),
                                )),
                            )),
                            Box::new(L3Expr::Seq(v("dummy"), Box::new(L3Expr::Join(v("p3"))))),
                        )),
                    )),
                ),
            },
            L3Fun {
                name: "finish".into(),
                export: true,
                params: vec![("r".into(), counter())],
                ret: L3Ty::Int,
                body: L3Expr::LetPair(
                    "count".into(),
                    "step".into(),
                    Box::new(L3Expr::Free(v("r"))),
                    Box::new(L3Expr::Seq(v("step"), v("count"))),
                ),
            },
        ],
        ..L3Module::default()
    }
}

/// The Fig. 9 client (ML side).
pub fn counter_client() -> MlModule {
    let counter_ml = || {
        MlTy::Foreign(l3_ty(&L3Ty::Ref(
            Box::new(L3Ty::Prod(Box::new(L3Ty::Int), Box::new(L3Ty::Int))),
            128,
        )))
    };
    let var = |x: &str| Box::new(MlExpr::Var(x.into()));
    MlModule {
        imports: vec![
            MlImport {
                module: "gfx".into(),
                name: "make_counter".into(),
                params: vec![MlTy::Int],
                ret: counter_ml(),
            },
            MlImport {
                module: "gfx".into(),
                name: "incr".into(),
                params: vec![counter_ml()],
                ret: counter_ml(),
            },
            MlImport {
                module: "gfx".into(),
                name: "finish".into(),
                params: vec![counter_ml()],
                ret: MlTy::Int,
            },
        ],
        globals: vec![MlGlobal {
            name: "slot".into(),
            ty: MlTy::RefToLin(Box::new(counter_ml())),
            init: MlExpr::NewRefToLin(counter_ml()),
        }],
        funs: vec![
            MlFun {
                name: "setup".into(),
                export: true,
                tyvars: 0,
                params: vec![("step".into(), MlTy::Int)],
                ret: MlTy::Unit,
                body: MlExpr::Assign(
                    var("slot"),
                    Box::new(MlExpr::CallTop {
                        name: "make_counter".into(),
                        tyargs: vec![],
                        args: vec![MlExpr::Var("step".into())],
                    }),
                ),
            },
            MlFun {
                name: "bump".into(),
                export: true,
                tyvars: 0,
                params: vec![("u".into(), MlTy::Unit)],
                ret: MlTy::Unit,
                body: MlExpr::Assign(
                    var("slot"),
                    Box::new(MlExpr::CallTop {
                        name: "incr".into(),
                        tyargs: vec![],
                        args: vec![MlExpr::Deref(var("slot"))],
                    }),
                ),
            },
            MlFun {
                name: "total".into(),
                export: true,
                tyvars: 0,
                params: vec![("u".into(), MlTy::Unit)],
                ret: MlTy::Int,
                body: MlExpr::CallTop {
                    name: "finish".into(),
                    tyargs: vec![],
                    args: vec![MlExpr::Deref(var("slot"))],
                },
            },
        ],
    }
}

/// A synthetic ML program of `depth` (closures + refs) — the ML compiler
/// scaling workload.
pub fn ml_tower(depth: u32) -> MlModule {
    fn expr(d: u32) -> MlExpr {
        if d == 0 {
            return MlExpr::Int(1);
        }
        MlExpr::Let(
            format!("x{d}"),
            Box::new(MlExpr::NewRef(Box::new(expr(d - 1)))),
            Box::new(MlExpr::App(
                Box::new(MlExpr::Lam {
                    param: "y".into(),
                    param_ty: MlTy::Int,
                    ret_ty: MlTy::Int,
                    body: Box::new(MlExpr::Binop(
                        MlBinop::Add,
                        Box::new(MlExpr::Var("y".into())),
                        Box::new(MlExpr::Deref(Box::new(MlExpr::Var(format!("x{d}"))))),
                    )),
                }),
                Box::new(expr(d - 1)),
            )),
        )
    }
    MlModule {
        funs: vec![MlFun {
            name: "main".into(),
            export: true,
            tyvars: 0,
            params: vec![],
            ret: MlTy::Int,
            body: expr(depth),
        }],
        ..MlModule::default()
    }
}

/// Wasm modules whose branches take shapes RichWasm lowering never
/// emits, each exporting a nullary `main`, paired with the result the
/// Wasm spec gives: a branch out of a parameterised `block`, `if` and
/// `br_table` unwinds below the block's params (105), and a branch to
/// the function's own label returns (7, 8, 3).
pub fn wasm_branch_probes() -> Vec<(&'static str, w::Module, i32)> {
    use w::WInstr::*;
    fn probe(body: impl FnOnce(w::BlockType) -> Vec<w::WInstr>) -> w::Module {
        let mut m = w::Module::default();
        let main = m.intern_type(w::FuncType {
            params: vec![],
            results: vec![w::ValType::I32],
        });
        let param_block = m.intern_type(w::FuncType {
            params: vec![w::ValType::I32],
            results: vec![w::ValType::I32],
        });
        m.funcs.push(w::FuncDef {
            type_idx: main,
            locals: vec![],
            body: body(w::BlockType::Func(param_block)),
        });
        m.exports.push(w::Export {
            name: "main".into(),
            kind: w::ExportKind::Func(0),
        });
        m
    }
    let add = || IBin(w::Width::W32, w::IBinOp::Add);
    vec![
        (
            "block_param_br",
            probe(|bt| {
                vec![
                    I32Const(100),
                    I32Const(1),
                    Block(bt, vec![I32Const(5), Br(0)]),
                    add(),
                ]
            }),
            105,
        ),
        (
            "if_param_br",
            probe(|bt| {
                vec![
                    I32Const(100),
                    I32Const(1),
                    I32Const(1),
                    If(bt, vec![I32Const(5), Br(0)], vec![]),
                    add(),
                ]
            }),
            105,
        ),
        (
            "block_param_br_table",
            probe(|bt| {
                vec![
                    I32Const(100),
                    I32Const(1),
                    Block(bt, vec![I32Const(5), I32Const(0), BrTable(vec![0], 0)]),
                    add(),
                ]
            }),
            105,
        ),
        ("function_label_br", probe(|_| vec![I32Const(7), Br(0)]), 7),
        (
            "function_label_nested_br",
            probe(|_| {
                vec![Block(
                    w::BlockType::Value(w::ValType::I32),
                    vec![I32Const(8), Br(1)],
                )]
            }),
            8,
        ),
        (
            "function_label_br_if",
            probe(|_| vec![I32Const(3), I32Const(1), BrIf(0), Drop, I32Const(4)]),
            3,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use richwasm::typecheck::check_module;

    #[test]
    fn workloads_typecheck() {
        check_module(&richwasm_ml::compile_module(&stash_module(false)).unwrap()).unwrap();
        check_module(&richwasm_l3::compile_module(&stash_client()).unwrap()).unwrap();
        check_module(&arith_chain(10)).unwrap();
        check_module(&churn(5)).unwrap();
        check_module(&richwasm_l3::compile_module(&counter_library()).unwrap()).unwrap();
        check_module(&richwasm_ml::compile_module(&counter_client()).unwrap()).unwrap();
        check_module(&richwasm_ml::compile_module(&ml_tower(3)).unwrap()).unwrap();
    }

    #[test]
    fn buggy_workload_rejected() {
        let rw = richwasm_ml::compile_module(&stash_module(true)).unwrap();
        assert!(check_module(&rw).is_err());
    }

    #[test]
    fn churn_runs() {
        let mut rt = richwasm::interp::Runtime::new();
        let i = rt.instantiate("m", churn(10)).unwrap();
        let out = rt.invoke(i, "main", vec![]).unwrap();
        assert_eq!(out.values, vec![richwasm::syntax::Value::i32(10)]);
    }
}

//! Differential tests: every program is executed by the RichWasm
//! interpreter *and* compiled to Wasm and executed by the Wasm
//! interpreter — the results must agree (paper §6: compilation preserves
//! behaviour; erasure of type-level instructions costs nothing).

use richwasm::interp::Runtime;
use richwasm::syntax::instr::Block;
use richwasm::syntax::*;
use richwasm::typecheck::check_module;
use richwasm_lower::{lower_modules, LowerError};
use richwasm_wasm::ast::{ExportKind, IRelOp, ImportKind, WInstr};
use richwasm_wasm::compile::compile_module;
use richwasm_wasm::exec::{Val, WasmLinker};
use richwasm_wasm::validate_module;

fn i32t() -> Type {
    Type::num(NumType::I32)
}

/// Runs `main` (no args → one i32) on the RichWasm interpreter and on
/// both Wasm tiers: the tree-walker and the bytecode VM.
fn all_ways(m: Module) -> (i32, i32, i32) {
    // RichWasm interpreter.
    let mut rt = Runtime::new();
    let idx = rt.instantiate("m", m.clone()).expect("richwasm typecheck");
    let direct = rt.invoke(idx, "main", vec![]).expect("richwasm run");
    let Value::Num(_, bits) = direct.values[0] else {
        panic!("non-numeric result")
    };
    let rw_result = bits as u32 as i32;

    // Lowered pipeline, once per Wasm tier.
    let lowered = lower_modules(&[("m".to_string(), m)]).expect("lowering");
    let run = |bytecode: bool| {
        let mut linker = WasmLinker::new();
        let mut main_inst = 0;
        for (name, wm) in &lowered {
            validate_module(wm).expect("lowered module validates");
            let i = linker
                .instantiate(name, wm.clone())
                .expect("wasm instantiation");
            if bytecode {
                linker
                    .attach_compiled(i, &compile_module(wm))
                    .expect("attach");
            }
            if name == "m" {
                main_inst = i;
            }
        }
        let wasm_out = linker.invoke(main_inst, "main", &[]).expect("wasm run");
        let Val::I32(w) = wasm_out[0] else {
            panic!("non-i32 wasm result")
        };
        w as i32
    };
    (rw_result, run(false), run(true))
}

fn assert_agree(m: Module) -> i32 {
    let (a, tree, vm) = all_ways(m);
    assert_eq!(a, tree, "RichWasm interpreter and lowered Wasm disagree");
    assert_eq!(tree, vm, "the Wasm tree-walker and bytecode VM disagree");
    a
}

fn main_fn(ty: FunType, locals: Vec<Size>, body: Vec<Instr>) -> Module {
    Module {
        funcs: vec![Func::Defined {
            exports: vec!["main".into()],
            ty,
            locals,
            body,
        }],
        ..Module::default()
    }
}

fn add() -> Instr {
    Instr::Num(NumInstr::IntBinop(NumType::I32, instr::IntBinop::Add))
}

fn mul() -> Instr {
    Instr::Num(NumInstr::IntBinop(NumType::I32, instr::IntBinop::Mul))
}

#[test]
fn constants_and_arithmetic() {
    let m = main_fn(
        FunType::mono(vec![], vec![i32t()]),
        vec![],
        vec![Instr::i32(6), Instr::i32(7), mul()],
    );
    assert_eq!(assert_agree(m), 42);
}

#[test]
fn locals_and_i64() {
    // Exercise 64-bit slot splitting: store an i64 in a local, read it
    // back, wrap to i32.
    let m = main_fn(
        FunType::mono(vec![], vec![i32t()]),
        vec![Size::Const(64)],
        vec![
            Instr::Val(Value::i64(0x1_0000_002A)),
            Instr::SetLocal(0),
            Instr::GetLocal(0, Qual::Unr),
            Instr::Num(NumInstr::Convert(NumType::I32, NumType::I64)),
        ],
    );
    assert_eq!(assert_agree(m), 42);
}

#[test]
fn control_flow_block_br() {
    let m = main_fn(
        FunType::mono(vec![], vec![i32t()]),
        vec![],
        vec![Instr::BlockI(
            Block::new(ArrowType::new(vec![], vec![i32t()]), vec![]),
            vec![Instr::i32(42), Instr::Br(0), Instr::i32(0)],
        )],
    );
    assert_eq!(assert_agree(m), 42);
}

#[test]
fn loop_sums_one_to_ten() {
    // local0 = i, local1 = acc
    let lt = Instr::Num(NumInstr::IntRelop(
        NumType::I32,
        instr::IntRelop::Le(instr::Sign::S),
    ));
    let m = main_fn(
        FunType::mono(vec![], vec![i32t()]),
        vec![Size::Const(32), Size::Const(32)],
        vec![
            Instr::i32(1),
            Instr::SetLocal(0),
            Instr::i32(0),
            Instr::SetLocal(1),
            Instr::LoopI(
                ArrowType::new(vec![], vec![]),
                vec![
                    Instr::GetLocal(1, Qual::Unr),
                    Instr::GetLocal(0, Qual::Unr),
                    add(),
                    Instr::SetLocal(1),
                    Instr::GetLocal(0, Qual::Unr),
                    Instr::i32(1),
                    add(),
                    Instr::TeeLocal(0),
                    Instr::i32(10),
                    lt,
                    Instr::BrIf(0),
                ],
            ),
            Instr::GetLocal(1, Qual::Unr),
        ],
    );
    assert_eq!(assert_agree(m), 55);
}

#[test]
fn tuples_group_ungroup() {
    let m = main_fn(
        FunType::mono(vec![], vec![i32t()]),
        vec![],
        vec![
            Instr::i32(40),
            Instr::i32(2),
            Instr::Group(2, Qual::Unr),
            Instr::Ungroup,
            add(),
        ],
    );
    assert_eq!(assert_agree(m), 42);
}

#[test]
fn struct_roundtrip_linear_memory() {
    let m = main_fn(
        FunType::mono(vec![], vec![i32t()]),
        vec![Size::Const(32)],
        vec![
            Instr::i32(21),
            Instr::StructMalloc(vec![Size::Const(64)], Qual::Lin),
            Instr::MemUnpack(
                Block::new(
                    ArrowType::new(vec![], vec![]),
                    vec![instr::LocalEffect::new(0, i32t())],
                ),
                vec![
                    Instr::StructGet(0),
                    Instr::i32(2),
                    mul(),
                    Instr::SetLocal(0),
                    Instr::StructFree,
                ],
            ),
            Instr::GetLocal(0, Qual::Unr),
        ],
    );
    assert_eq!(assert_agree(m), 42);
}

#[test]
fn struct_strong_update() {
    // Write an i64 into a 64-bit slot that held an i32 (strong update via
    // a linear ref), then read it back.
    let m = main_fn(
        FunType::mono(vec![], vec![i32t()]),
        vec![Size::Const(64)],
        vec![
            Instr::i32(1),
            Instr::StructMalloc(vec![Size::Const(64)], Qual::Lin),
            Instr::MemUnpack(
                Block::new(
                    ArrowType::new(vec![], vec![]),
                    vec![instr::LocalEffect::new(0, Type::num(NumType::I64))],
                ),
                vec![
                    Instr::Val(Value::i64(42)),
                    Instr::StructSet(0),
                    Instr::Val(Value::Unit),
                    Instr::StructSwap(0),
                    Instr::SetLocal(0),
                    Instr::StructFree,
                ],
            ),
            Instr::GetLocal(0, Qual::Unr),
            Instr::Num(NumInstr::Convert(NumType::I32, NumType::I64)),
        ],
    );
    assert_eq!(assert_agree(m), 42);
}

#[test]
fn unrestricted_memory_struct() {
    let m = main_fn(
        FunType::mono(vec![], vec![i32t()]),
        vec![Size::Const(32)],
        vec![
            Instr::i32(42),
            Instr::StructMalloc(vec![Size::Const(32)], Qual::Unr),
            Instr::MemUnpack(
                Block::new(
                    ArrowType::new(vec![], vec![]),
                    vec![instr::LocalEffect::new(0, i32t())],
                ),
                vec![Instr::StructGet(0), Instr::SetLocal(0), Instr::Drop],
            ),
            Instr::GetLocal(0, Qual::Unr),
        ],
    );
    assert_eq!(assert_agree(m), 42);
}

#[test]
fn variant_case_unrestricted() {
    let cases = vec![i32t(), Type::unit()];
    let m = main_fn(
        FunType::mono(vec![], vec![i32t()]),
        vec![Size::Const(32)],
        vec![
            Instr::i32(42),
            Instr::VariantMalloc(0, cases.clone(), Qual::Unr),
            Instr::MemUnpack(
                Block::new(
                    ArrowType::new(vec![], vec![i32t()]),
                    vec![instr::LocalEffect::new(0, i32t())],
                ),
                vec![
                    Instr::VariantCase(
                        Qual::Unr,
                        HeapType::Variant(cases),
                        Block::new(ArrowType::new(vec![], vec![i32t()]), vec![]),
                        vec![vec![], vec![Instr::Drop, Instr::i32(-1)]],
                    ),
                    Instr::SetLocal(0),
                    Instr::Drop,
                    Instr::GetLocal(0, Qual::Unr),
                ],
            ),
        ],
    );
    assert_eq!(assert_agree(m), 42);
}

#[test]
fn variant_case_linear_frees() {
    let cases = vec![i32t(), i32t()];
    let m = main_fn(
        FunType::mono(vec![], vec![i32t()]),
        vec![],
        vec![
            Instr::i32(21),
            Instr::VariantMalloc(1, cases.clone(), Qual::Lin),
            Instr::MemUnpack(
                Block::new(ArrowType::new(vec![], vec![i32t()]), vec![]),
                vec![Instr::VariantCase(
                    Qual::Lin,
                    HeapType::Variant(cases),
                    Block::new(ArrowType::new(vec![], vec![i32t()]), vec![]),
                    vec![vec![Instr::i32(0), add()], vec![Instr::i32(2), mul()]],
                )],
            ),
        ],
    );
    assert_eq!(assert_agree(m), 42);
}

#[test]
fn arrays_end_to_end() {
    let m = main_fn(
        FunType::mono(vec![], vec![i32t()]),
        vec![Size::Const(32)],
        vec![
            Instr::i32(0),
            Instr::Val(Value::u32(8)),
            Instr::ArrayMalloc(Qual::Lin),
            Instr::MemUnpack(
                Block::new(
                    ArrowType::new(vec![], vec![]),
                    vec![instr::LocalEffect::new(0, i32t())],
                ),
                vec![
                    Instr::Val(Value::u32(3)),
                    Instr::i32(42),
                    Instr::ArraySet,
                    Instr::Val(Value::u32(3)),
                    Instr::ArrayGet,
                    Instr::SetLocal(0),
                    Instr::ArrayFree,
                ],
            ),
            Instr::GetLocal(0, Qual::Unr),
        ],
    );
    assert_eq!(assert_agree(m), 42);
}

#[test]
fn direct_call_and_imports() {
    let helper = Func::Defined {
        exports: vec!["double".into()],
        ty: FunType::mono(vec![i32t()], vec![i32t()]),
        locals: vec![],
        body: vec![Instr::GetLocal(0, Qual::Unr), Instr::i32(2), mul()],
    };
    let m = Module {
        funcs: vec![
            helper,
            Func::Defined {
                exports: vec!["main".into()],
                ty: FunType::mono(vec![], vec![i32t()]),
                locals: vec![],
                body: vec![Instr::i32(21), Instr::Call(0, vec![])],
            },
        ],
        ..Module::default()
    };
    assert_eq!(assert_agree(m), 42);
}

#[test]
fn polymorphic_call_with_padding() {
    // id : ∀ (unr ⪯ α ≲ 64). [α] → [α] — instantiated at i32, the caller
    // must pad to the slot form and unpad the result.
    let id = Func::Defined {
        exports: vec![],
        ty: FunType {
            quants: vec![Quantifier::Type {
                lower_qual: Qual::Unr,
                size: Size::Const(64),
                may_contain_caps: false,
            }],
            arrow: ArrowType::new(vec![Pretype::Var(0).unr()], vec![Pretype::Var(0).unr()]),
        },
        locals: vec![],
        body: vec![Instr::GetLocal(0, Qual::Unr)],
    };
    let m = Module {
        funcs: vec![
            id,
            Func::Defined {
                exports: vec!["main".into()],
                ty: FunType::mono(vec![], vec![i32t()]),
                locals: vec![],
                body: vec![
                    Instr::i32(42),
                    Instr::Call(0, vec![Index::Pretype(Pretype::Num(NumType::I32))]),
                ],
            },
        ],
        ..Module::default()
    };
    assert_eq!(assert_agree(m), 42);
}

#[test]
fn coderef_inst_call_indirect() {
    let double = Func::Defined {
        exports: vec![],
        ty: FunType::mono(vec![i32t()], vec![i32t()]),
        locals: vec![],
        body: vec![Instr::GetLocal(0, Qual::Unr), Instr::i32(2), mul()],
    };
    let m = Module {
        funcs: vec![
            double,
            Func::Defined {
                exports: vec!["main".into()],
                ty: FunType::mono(vec![], vec![i32t()]),
                locals: vec![],
                body: vec![
                    Instr::i32(21),
                    Instr::CodeRefI(0),
                    Instr::Inst(vec![]),
                    Instr::CallIndirect,
                ],
            },
        ],
        table: Table {
            exports: vec![],
            entries: vec![0],
        },
        ..Module::default()
    };
    assert_eq!(assert_agree(m), 42);
}

/// The lowered body of `m`'s export `name`.
fn lowered_body(m: &Module, name: &str) -> Vec<WInstr> {
    let lowered = lower_modules(&[("m".to_string(), m.clone())]).expect("lowering");
    let wm = &lowered[1].1;
    let imported = wm
        .imports
        .iter()
        .filter(|im| matches!(im.kind, ImportKind::Func(_)))
        .count();
    let fi = wm
        .exports
        .iter()
        .find_map(|e| match e.kind {
            ExportKind::Func(fi) if e.name == name => Some(fi as usize),
            _ => None,
        })
        .expect("export");
    wm.funcs[fi - imported].body.clone()
}

/// Every instruction of `body`, nested ones included, in order.
fn flat(body: &[WInstr]) -> Vec<WInstr> {
    let mut out = Vec::new();
    for i in body {
        out.push(i.clone());
        match i {
            WInstr::Block(_, b) | WInstr::Loop(_, b) => out.extend(flat(b)),
            WInstr::If(_, t, e) => {
                out.extend(flat(t));
                out.extend(flat(e));
            }
            _ => {}
        }
    }
    out
}

fn mono_fn(params: Vec<Type>, body: Vec<Instr>) -> Func {
    Func::Defined {
        exports: vec![],
        ty: FunType::mono(params, vec![i32t()]),
        locals: vec![],
        body,
    }
}

/// A module with one indirect call site, in the exported
/// `apply : [i32, coderef ([i32] → [i32])] → [i32]`. Its table holds
/// `x·2`, a two-argument entry that cannot reach the site, `third`, and
/// `x·3`, at slots 0–3. `main` returns `apply(21, slot 0)` +
/// `apply(5, slot 2 inst third_inst)` + `apply(3, slot 3)`.
fn one_site(third: Func, third_inst: Vec<Index>) -> Module {
    let scale = |k| {
        mono_fn(
            vec![i32t()],
            vec![Instr::GetLocal(0, Qual::Unr), Instr::i32(k), mul()],
        )
    };
    let f = Pretype::CodeRef(FunType::mono(vec![i32t()], vec![i32t()])).unr();
    let apply = Func::Defined {
        exports: vec!["apply".into()],
        ty: FunType::mono(vec![i32t(), f], vec![i32t()]),
        locals: vec![],
        body: vec![
            Instr::GetLocal(0, Qual::Unr),
            Instr::GetLocal(1, Qual::Unr),
            Instr::CallIndirect,
        ],
    };
    let call = |x, slot, inst| {
        vec![
            Instr::i32(x),
            Instr::CodeRefI(slot),
            Instr::Inst(inst),
            Instr::Call(4, vec![]),
        ]
    };
    let mut main = call(21, 0, vec![]);
    main.extend(call(5, 2, third_inst));
    main.push(add());
    main.extend(call(3, 3, vec![]));
    main.push(add());
    Module {
        funcs: vec![
            scale(2),
            scale(3),
            third,
            mono_fn(
                vec![i32t(), i32t()],
                vec![
                    Instr::GetLocal(0, Qual::Unr),
                    Instr::GetLocal(1, Qual::Unr),
                    add(),
                ],
            ),
            apply,
            Func::Defined {
                exports: vec!["main".into()],
                ty: FunType::mono(vec![], vec![i32t()]),
                locals: vec![],
                body: main,
            },
        ],
        table: Table {
            exports: vec![],
            entries: vec![0, 3, 2, 1],
        },
        ..Module::default()
    }
}

#[test]
fn one_callee_shape_lowers_to_one_call_indirect() {
    // Three `i32 → i32` entries share a shape.
    let m = one_site(
        mono_fn(vec![i32t()], vec![Instr::GetLocal(0, Qual::Unr)]),
        vec![],
    );
    let site = flat(&lowered_body(&m, "apply"));
    let count = |p: fn(&WInstr) -> bool| site.iter().filter(|i| p(i)).count();
    assert_eq!(count(|i| matches!(i, WInstr::CallIndirect(_))), 1);
    assert_eq!(count(|i| matches!(i, WInstr::If(..))), 0);
    assert_eq!(count(|i| matches!(i, WInstr::Unreachable)), 0);
    // Its arguments need no coercion, so they stay on the stack: the only
    // `local.set`s are the prologue's copies of `apply`'s two parameters.
    assert_eq!(count(|i| matches!(i, WInstr::LocalSet(_))), 2, "{site:?}");
    assert_eq!(assert_agree(m), 42 + 5 + 9);
}

#[test]
fn a_site_tests_only_the_minority_shape() {
    // Slot 2 holds `∀α. [α] → [i32]`, reached at α = i32, so its argument
    // is padded to α's two slots: a second shape, smaller than the
    // monomorphic one.
    let poly = Func::Defined {
        exports: vec![],
        ty: FunType {
            quants: vec![Quantifier::Type {
                lower_qual: Qual::Unr,
                size: Size::Const(64),
                may_contain_caps: false,
            }],
            arrow: ArrowType::new(vec![Pretype::Var(0).unr()], vec![i32t()]),
        },
        locals: vec![],
        body: vec![Instr::i32(100)],
    };
    let m = one_site(poly, vec![Index::Pretype(Pretype::Num(NumType::I32))]);
    let site = flat(&lowered_body(&m, "apply"));
    let tested: Vec<i32> = site
        .windows(2)
        .filter_map(|w| match w {
            [WInstr::I32Const(c), WInstr::IRel(_, IRelOp::Eq)] => Some(*c),
            _ => None,
        })
        .collect();
    assert_eq!(tested, vec![2], "only the polymorphic entry is tested");
    let count = |p: fn(&WInstr) -> bool| site.iter().filter(|i| p(i)).count();
    assert_eq!(count(|i| matches!(i, WInstr::CallIndirect(_))), 2);
    assert_eq!(count(|i| matches!(i, WInstr::If(..))), 1);
    assert_eq!(count(|i| matches!(i, WInstr::Unreachable)), 0);
    assert_eq!(assert_agree(m), 42 + 100 + 9);
}

#[test]
fn exist_pack_unpack_roundtrip() {
    let psi = HeapType::Exists(Qual::Unr, Size::Const(64), Box::new(Pretype::Var(0).unr()));
    let m = main_fn(
        FunType::mono(vec![], vec![i32t()]),
        vec![],
        vec![
            Instr::i32(42),
            Instr::ExistPack(Pretype::Num(NumType::I32), psi.clone(), Qual::Lin),
            Instr::MemUnpack(
                Block::new(ArrowType::new(vec![], vec![]), vec![]),
                vec![Instr::ExistUnpack(
                    Qual::Lin,
                    psi,
                    Block::new(ArrowType::new(vec![], vec![]), vec![]),
                    vec![Instr::Drop],
                )],
            ),
            Instr::i32(42),
        ],
    );
    assert_eq!(assert_agree(m), 42);
}

#[test]
fn cross_module_linking() {
    let provider = Module {
        funcs: vec![Func::Defined {
            exports: vec!["get21".into()],
            ty: FunType::mono(vec![], vec![i32t()]),
            locals: vec![],
            body: vec![Instr::i32(21)],
        }],
        ..Module::default()
    };
    let client = Module {
        funcs: vec![
            Func::Imported {
                exports: vec![],
                module: "provider".into(),
                name: "get21".into(),
                ty: FunType::mono(vec![], vec![i32t()]),
            },
            Func::Defined {
                exports: vec!["main".into()],
                ty: FunType::mono(vec![], vec![i32t()]),
                locals: vec![],
                body: vec![Instr::Call(0, vec![]), Instr::i32(2), mul()],
            },
        ],
        ..Module::default()
    };

    // RichWasm side.
    let mut rt = Runtime::new();
    rt.instantiate("provider", provider.clone()).unwrap();
    let c = rt.instantiate("client", client.clone()).unwrap();
    let direct = rt.invoke(c, "main", vec![]).unwrap();
    assert_eq!(direct.values, vec![Value::i32(42)]);

    // Lowered side.
    let lowered = lower_modules(&[
        ("provider".to_string(), provider),
        ("client".to_string(), client),
    ])
    .unwrap();
    let mut linker = WasmLinker::new();
    let mut client_inst = 0;
    for (name, wm) in &lowered {
        validate_module(wm).expect("validates");
        let i = linker.instantiate(name, wm.clone()).unwrap();
        if name == "client" {
            client_inst = i;
        }
    }
    assert_eq!(
        linker.invoke(client_inst, "main", &[]).unwrap(),
        vec![Val::I32(42)]
    );
}

#[test]
fn erased_instructions_cost_nothing() {
    // qualify / ref.split / ref.join / rec.fold / mem.pack compile to no
    // instructions: the lowered body of a function that only shuffles
    // ownership is the same as one that does nothing.
    let lin_i32 = Pretype::Num(NumType::I32).lin();
    let noop_shuffle = main_fn(
        FunType::mono(vec![], vec![lin_i32.clone()]),
        vec![],
        vec![
            Instr::i32(42),
            Instr::Qualify(Qual::Lin),
            Instr::Qualify(Qual::Lin),
        ],
    );
    let plain = main_fn(
        FunType::mono(vec![], vec![lin_i32]),
        vec![],
        vec![Instr::i32(42), Instr::Qualify(Qual::Lin)],
    );
    let l1 = lower_modules(&[("m".to_string(), noop_shuffle)]).unwrap();
    let l2 = lower_modules(&[("m".to_string(), plain)]).unwrap();
    assert_eq!(l1[1].1.funcs[0].body, l2[1].1.funcs[0].body);
}

#[test]
fn binary_encoding_of_lowered_module() {
    let m = main_fn(
        FunType::mono(vec![], vec![i32t()]),
        vec![Size::Const(32)],
        vec![
            Instr::i32(21),
            Instr::StructMalloc(vec![Size::Const(32)], Qual::Lin),
            Instr::MemUnpack(
                Block::new(
                    ArrowType::new(vec![], vec![]),
                    vec![instr::LocalEffect::new(0, i32t())],
                ),
                vec![Instr::StructGet(0), Instr::SetLocal(0), Instr::StructFree],
            ),
            Instr::GetLocal(0, Qual::Unr),
            Instr::i32(2),
            mul(),
        ],
    );
    let lowered = lower_modules(&[("m".to_string(), m)]).unwrap();
    for (_, wm) in &lowered {
        let bytes = richwasm_wasm::binary::encode_module(wm);
        assert_eq!(&bytes[..4], b"\0asm");
        assert!(bytes.len() > 8);
    }
}

#[test]
fn a_body_error_names_its_module_and_carries_the_checker_error() {
    // Lowering checks each body as it lowers it; a failing body comes back
    // as the checker's own error, tagged with its module's index.
    let main = |body| Module {
        funcs: vec![Func::Defined {
            exports: vec!["main".into()],
            ty: FunType::mono(vec![], vec![i32t()]),
            locals: vec![],
            body,
        }],
        ..Module::default()
    };
    let good = main(vec![Instr::i32(1)]);
    let bad = main(vec![Instr::i32(1), Instr::i32(2)]);
    let expected = check_module(&bad).unwrap_err();
    let err = lower_modules(&[("good".into(), good), ("bad".into(), bad)]).unwrap_err();
    assert_eq!(
        err,
        LowerError::TypeCheck {
            module: 1,
            error: expected
        }
    );
}

//! Differential tests for the flat-bytecode tier: every module runs
//! under both the tree-walking interpreter and the bytecode VM, and the
//! two must agree on results, trap messages, **and** fuel consumption
//! step-for-step — the property the fuzz farm's check mode pins at
//! scale.

use richwasm_wasm::ast::*;
use richwasm_wasm::compile::{compile_module, decode_compiled, encode_compiled};
use richwasm_wasm::exec::{Val, WasmLinker};

fn one_func(
    params: Vec<ValType>,
    results: Vec<ValType>,
    locals: Vec<ValType>,
    body: Vec<WInstr>,
) -> Module {
    let mut m = Module::default();
    let t = m.intern_type(FuncType { params, results });
    m.funcs.push(FuncDef {
        type_idx: t,
        locals,
        body,
    });
    m.exports.push(Export {
        name: "f".into(),
        kind: ExportKind::Func(0),
    });
    m
}

/// Instantiates `m` twice — once plain, once with the compiled module
/// attached — invokes `name` with `args` on both, and asserts the
/// outcomes (value or trap message) and step counts are identical.
/// Returns the shared outcome.
fn differential(m: &Module, name: &str, args: &[Val]) -> Result<Vec<Val>, String> {
    let compiled = compile_module(m);

    let mut tree = WasmLinker::new();
    let ti = tree.instantiate("m", m.clone()).expect("tree instantiate");
    let tree_out = tree.invoke(ti, name, args).map_err(|e| e.to_string());

    let mut vm = WasmLinker::new();
    let vi = vm.instantiate("m", m.clone()).expect("vm instantiate");
    vm.attach_compiled(vi, &compiled).expect("attach");
    let vm_out = vm.invoke(vi, name, args).map_err(|e| e.to_string());

    assert_eq!(tree_out, vm_out, "engines disagree on outcome");
    assert_eq!(
        tree.last_steps(),
        vm.last_steps(),
        "engines disagree on fuel for outcome {tree_out:?}"
    );
    tree_out
}

#[test]
fn arithmetic_agrees() {
    let m = one_func(
        vec![ValType::I32, ValType::I32],
        vec![ValType::I32],
        vec![],
        vec![
            WInstr::LocalGet(0),
            WInstr::LocalGet(1),
            WInstr::IBin(Width::W32, IBinOp::Add),
        ],
    );
    assert_eq!(
        differential(&m, "f", &[Val::I32(2), Val::I32(40)]).unwrap(),
        vec![Val::I32(42)]
    );
}

#[test]
fn factorial_loop_agrees() {
    let body = vec![
        WInstr::I32Const(1),
        WInstr::LocalSet(1),
        WInstr::Block(
            BlockType::Empty,
            vec![WInstr::Loop(
                BlockType::Empty,
                vec![
                    WInstr::LocalGet(0),
                    WInstr::ITest(Width::W32),
                    WInstr::BrIf(1),
                    WInstr::LocalGet(1),
                    WInstr::LocalGet(0),
                    WInstr::IBin(Width::W32, IBinOp::Mul),
                    WInstr::LocalSet(1),
                    WInstr::LocalGet(0),
                    WInstr::I32Const(1),
                    WInstr::IBin(Width::W32, IBinOp::Sub),
                    WInstr::LocalSet(0),
                    WInstr::Br(0),
                ],
            )],
        ),
        WInstr::LocalGet(1),
    ];
    let m = one_func(
        vec![ValType::I32],
        vec![ValType::I32],
        vec![ValType::I32],
        body,
    );
    for n in 0..10 {
        assert!(differential(&m, "f", &[Val::I32(n)]).is_ok());
    }
}

#[test]
fn if_else_and_select_agree() {
    let m = one_func(
        vec![ValType::I32],
        vec![ValType::I32],
        vec![],
        vec![
            WInstr::LocalGet(0),
            WInstr::If(
                BlockType::Value(ValType::I32),
                vec![WInstr::I32Const(10)],
                vec![WInstr::I32Const(20)],
            ),
            WInstr::I32Const(1),
            WInstr::I32Const(2),
            WInstr::LocalGet(0),
            WInstr::Select,
            WInstr::IBin(Width::W32, IBinOp::Add),
        ],
    );
    assert_eq!(
        differential(&m, "f", &[Val::I32(1)]).unwrap(),
        vec![Val::I32(11)]
    );
    assert_eq!(
        differential(&m, "f", &[Val::I32(0)]).unwrap(),
        vec![Val::I32(22)]
    );
}

#[test]
fn br_table_agrees() {
    // br_table over three outcomes through nested blocks.
    let m = one_func(
        vec![ValType::I32],
        vec![ValType::I32],
        vec![],
        vec![
            WInstr::Block(
                BlockType::Empty,
                vec![
                    WInstr::Block(
                        BlockType::Empty,
                        vec![WInstr::LocalGet(0), WInstr::BrTable(vec![0, 1], 1)],
                    ),
                    WInstr::I32Const(100),
                    WInstr::LocalSet(0),
                    WInstr::Br(0),
                ],
            ),
            WInstr::LocalGet(0),
        ],
    );
    // index 0 -> inner block end -> writes 100; index 1 or default
    // (>=2) -> outer block end -> local unchanged.
    assert_eq!(
        differential(&m, "f", &[Val::I32(0)]).unwrap(),
        vec![Val::I32(100)]
    );
    assert_eq!(
        differential(&m, "f", &[Val::I32(1)]).unwrap(),
        vec![Val::I32(1)]
    );
    assert_eq!(
        differential(&m, "f", &[Val::I32(7)]).unwrap(),
        vec![Val::I32(7)]
    );
}

#[test]
fn memory_and_globals_agree() {
    let mut m = one_func(
        vec![],
        vec![ValType::I64],
        vec![],
        vec![
            WInstr::I32Const(8),
            WInstr::I64Const(0x1122_3344_5566_7788),
            WInstr::Store(ValType::I64, 0),
            WInstr::GlobalGet(0),
            WInstr::I32Const(1),
            WInstr::IBin(Width::W32, IBinOp::Add),
            WInstr::GlobalSet(0),
            WInstr::I32Const(8),
            WInstr::Load(ValType::I64, 0),
            WInstr::GlobalGet(0),
            WInstr::I64ExtendI32(Sx::U),
            WInstr::IBin(Width::W64, IBinOp::Add),
        ],
    );
    m.memory = Some(1);
    m.globals.push(GlobalDef {
        ty: ValType::I32,
        mutable: true,
        init: WInstr::I32Const(5),
    });
    assert_eq!(
        differential(&m, "f", &[]).unwrap(),
        vec![Val::I64(0x1122_3344_5566_778E)]
    );
}

#[test]
fn calls_and_call_indirect_agree() {
    let mut m = Module::default();
    let t_i32 = m.intern_type(FuncType {
        params: vec![ValType::I32],
        results: vec![ValType::I32],
    });
    // f0: doubles via direct call to f1; f1: n + n; f2: n * 3 (via table)
    m.funcs.push(FuncDef {
        type_idx: t_i32,
        locals: vec![],
        body: vec![
            WInstr::LocalGet(0),
            WInstr::Call(1),
            WInstr::LocalGet(0),
            WInstr::I32Const(1),
            WInstr::CallIndirect(t_i32),
            WInstr::IBin(Width::W32, IBinOp::Add),
        ],
    });
    m.funcs.push(FuncDef {
        type_idx: t_i32,
        locals: vec![],
        body: vec![
            WInstr::LocalGet(0),
            WInstr::LocalGet(0),
            WInstr::IBin(Width::W32, IBinOp::Add),
        ],
    });
    m.funcs.push(FuncDef {
        type_idx: t_i32,
        locals: vec![],
        body: vec![
            WInstr::LocalGet(0),
            WInstr::I32Const(3),
            WInstr::IBin(Width::W32, IBinOp::Mul),
        ],
    });
    m.table = Some(2);
    m.elems.push(ElemSegment {
        offset: 0,
        funcs: vec![1, 2],
    });
    m.exports.push(Export {
        name: "f".into(),
        kind: ExportKind::Func(0),
    });
    // 2n + 3n = 5n
    assert_eq!(
        differential(&m, "f", &[Val::I32(7)]).unwrap(),
        vec![Val::I32(35)]
    );
    // Uninitialised table entry traps identically.
    let mut bad = m.clone();
    bad.funcs[0].body[4] = WInstr::CallIndirect(t_i32);
    bad.funcs[0].body[3] = WInstr::I32Const(5);
    let err = differential(&bad, "f", &[Val::I32(1)]).unwrap_err();
    assert!(err.contains("uninitialised table entry"), "{err}");
}

#[test]
fn float_ops_agree() {
    let m = one_func(
        vec![ValType::F64],
        vec![ValType::I32],
        vec![],
        vec![
            WInstr::LocalGet(0),
            WInstr::FUn(Width::W64, FUnOp::Nearest),
            WInstr::F32DemoteF64,
            WInstr::F64PromoteF32,
            WInstr::ITruncF(Width::W32, Width::W64, Sx::S),
        ],
    );
    for x in [0.5, 1.5, 2.5, -2.5, 3.7, 1e6] {
        assert!(differential(&m, "f", &[Val::F64(x)]).is_ok());
    }
    // Trap paths agree too (NaN and overflow).
    let err = differential(&m, "f", &[Val::F64(f64::NAN)]).unwrap_err();
    assert!(err.contains("invalid conversion"), "{err}");
    let err = differential(&m, "f", &[Val::F64(1e300)]).unwrap_err();
    assert!(err.contains("integer overflow"), "{err}");
}

#[test]
fn traps_agree() {
    let div = one_func(
        vec![],
        vec![ValType::I32],
        vec![],
        vec![
            WInstr::I32Const(1),
            WInstr::I32Const(0),
            WInstr::IBin(Width::W32, IBinOp::Div(Sx::S)),
        ],
    );
    let err = differential(&div, "f", &[]).unwrap_err();
    assert!(err.contains("divide by zero"), "{err}");

    let unr = one_func(vec![], vec![], vec![], vec![WInstr::Unreachable]);
    let err = differential(&unr, "f", &[]).unwrap_err();
    assert!(err.contains("unreachable executed"), "{err}");
}

/// `memory.grow` past the 65536-page (4 GiB) limit returns -1 and leaves
/// the memory as it was, on both tiers and at the same fuel. A delta of
/// -1 (`u32::MAX` pages) used to make both tiers try to allocate 256 TiB.
#[test]
fn memory_grow_past_the_limit_fails_on_both_tiers() {
    let body = vec![
        WInstr::I32Const(-1),
        WInstr::MemoryGrow,
        WInstr::I32Const(65536),
        WInstr::MemoryGrow,
        WInstr::I32Const(2),
        WInstr::MemoryGrow,
        WInstr::MemorySize,
    ];
    let results = vec![ValType::I32; 4];
    let mut m = one_func(vec![], results, vec![], body);
    m.memory = Some(1);
    assert_eq!(
        differential(&m, "f", &[]),
        Ok(vec![
            Val::I32(u32::MAX),
            Val::I32(u32::MAX),
            Val::I32(1),
            Val::I32(3)
        ])
    );
}

/// Fuel parity at the exact boundary: for a loop workload, find the
/// tree-walker's step count, then check both engines complete at
/// exactly that budget and trap at one less.
#[test]
fn fuel_boundary_identical() {
    let body = vec![
        WInstr::Block(
            BlockType::Empty,
            vec![WInstr::Loop(
                BlockType::Empty,
                vec![
                    WInstr::LocalGet(0),
                    WInstr::ITest(Width::W32),
                    WInstr::BrIf(1),
                    WInstr::LocalGet(0),
                    WInstr::I32Const(1),
                    WInstr::IBin(Width::W32, IBinOp::Sub),
                    WInstr::LocalSet(0),
                    WInstr::Br(0),
                ],
            )],
        ),
        WInstr::LocalGet(0),
    ];
    let m = one_func(vec![ValType::I32], vec![ValType::I32], vec![], body);
    let compiled = compile_module(&m);

    let mut tree = WasmLinker::new();
    let ti = tree.instantiate("m", m.clone()).unwrap();
    tree.invoke(ti, "f", &[Val::I32(10)]).unwrap();
    let need = tree.last_steps();

    for (attach, label) in [(false, "tree"), (true, "bytecode")] {
        let mut l = WasmLinker::new();
        let i = l.instantiate("m", m.clone()).unwrap();
        if attach {
            assert!(l.attach_compiled(i, &compiled).unwrap() > 0);
        }
        l.max_steps = need;
        l.invoke(i, "f", &[Val::I32(10)])
            .unwrap_or_else(|e| panic!("{label}: should finish at budget {need}: {e}"));
        l.max_steps = need - 1;
        let err = l.invoke(i, "f", &[Val::I32(10)]).unwrap_err();
        assert!(
            err.is_fuel_exhausted(),
            "{label}: expected fuel trap at {}, got {err}",
            need - 1
        );
    }
}

/// The compiler declines functions using parameterised blocks (the
/// tree-walker's unwind makes their stack heights dynamic); such
/// modules still execute correctly with the declining function
/// tree-walked and the rest compiled.
#[test]
fn parameterised_blocks_decline_but_interoperate() {
    let mut m = Module::default();
    let t_unary = m.intern_type(FuncType {
        params: vec![ValType::I32],
        results: vec![ValType::I32],
    });
    let t_block = m.intern_type(FuncType {
        params: vec![ValType::I32],
        results: vec![ValType::I32],
    });
    // f0 uses a branch-free parameterised block — the shape RichWasm
    // lowering emits (a scoping device) — which compiles; it calls f1.
    m.funcs.push(FuncDef {
        type_idx: t_unary,
        locals: vec![],
        body: vec![
            WInstr::LocalGet(0),
            WInstr::Block(
                BlockType::Func(t_block),
                vec![WInstr::I32Const(1), WInstr::IBin(Width::W32, IBinOp::Add)],
            ),
            WInstr::Call(1),
        ],
    });
    m.funcs.push(FuncDef {
        type_idx: t_unary,
        locals: vec![],
        body: vec![
            WInstr::LocalGet(0),
            WInstr::I32Const(10),
            WInstr::IBin(Width::W32, IBinOp::Mul),
        ],
    });
    // f2 *branches to* a parameterised block: the tree-walker's unwind
    // there is path-dependent, so this one must decline and stay
    // tree-walked — while still interoperating with compiled callees.
    m.funcs.push(FuncDef {
        type_idx: t_unary,
        locals: vec![],
        body: vec![
            WInstr::LocalGet(0),
            WInstr::Block(
                BlockType::Func(t_block),
                vec![
                    WInstr::I32Const(2),
                    WInstr::IBin(Width::W32, IBinOp::Add),
                    WInstr::Br(0),
                ],
            ),
            WInstr::Call(1),
        ],
    });
    m.exports.push(Export {
        name: "f".into(),
        kind: ExportKind::Func(0),
    });
    m.exports.push(Export {
        name: "g".into(),
        kind: ExportKind::Func(2),
    });
    let compiled = compile_module(&m);
    assert!(
        compiled.funcs[0].is_some(),
        "branch-free param block must compile"
    );
    assert!(compiled.funcs[1].is_some());
    assert!(
        compiled.funcs[2].is_none(),
        "a branch into a param block must decline"
    );
    assert_eq!(
        differential(&m, "f", &[Val::I32(4)]).unwrap(),
        vec![Val::I32(50)]
    );
    assert_eq!(
        differential(&m, "g", &[Val::I32(4)]).unwrap(),
        vec![Val::I32(60)]
    );
}

#[test]
fn codec_round_trips_byte_exact() {
    let mut m = one_func(
        vec![ValType::I32],
        vec![ValType::I32],
        vec![ValType::I64, ValType::F64],
        vec![
            WInstr::Block(
                BlockType::Empty,
                vec![
                    WInstr::LocalGet(0),
                    WInstr::BrIf(0),
                    WInstr::I32Const(1),
                    WInstr::LocalSet(0),
                ],
            ),
            WInstr::LocalGet(0),
            WInstr::F64Const(2.5),
            WInstr::FUn(Width::W64, FUnOp::Sqrt),
            WInstr::ITruncF(Width::W32, Width::W64, Sx::U),
            WInstr::IBin(Width::W32, IBinOp::Add),
        ],
    );
    m.memory = Some(1);
    let cm = compile_module(&m);
    let mut bytes = Vec::new();
    encode_compiled(&cm, &mut bytes);
    let back = decode_compiled(&bytes).expect("decode");
    let mut again = Vec::new();
    encode_compiled(&back, &mut again);
    assert_eq!(bytes, again, "encode∘decode must be byte-identical");

    // And the decoded form executes identically.
    let mut tree = WasmLinker::new();
    let ti = tree.instantiate("m", m.clone()).unwrap();
    let want = tree.invoke(ti, "f", &[Val::I32(0)]).unwrap();
    let mut vm = WasmLinker::new();
    let vi = vm.instantiate("m", m).unwrap();
    vm.attach_compiled(vi, &back).unwrap();
    assert_eq!(vm.invoke(vi, "f", &[Val::I32(0)]).unwrap(), want);
    assert_eq!(vm.last_steps(), tree.last_steps());
}

#[test]
fn decode_rejects_garbage() {
    assert!(decode_compiled(&[]).is_err());
    assert!(
        decode_compiled(&[0xFF, 0xFF, 0, 0, 0, 0]).is_err(),
        "bad version"
    );
    // Valid prefix with trailing junk is rejected too.
    let cm = compile_module(&one_func(vec![], vec![], vec![], vec![WInstr::Nop]));
    let mut bytes = Vec::new();
    encode_compiled(&cm, &mut bytes);
    bytes.push(0);
    assert!(decode_compiled(&bytes).is_err(), "trailing bytes");
}

/// Reset determinism on the VM: after mutating globals and memory,
/// `reset()` restores the baseline so a re-run reproduces the first run
/// exactly — results and fuel.
#[test]
fn reset_determinism_on_vm() {
    let mut m = one_func(
        vec![],
        vec![ValType::I32],
        vec![],
        vec![
            // g += 1; mem[0] += 2; return g + mem[0]
            WInstr::GlobalGet(0),
            WInstr::I32Const(1),
            WInstr::IBin(Width::W32, IBinOp::Add),
            WInstr::GlobalSet(0),
            WInstr::I32Const(0),
            WInstr::I32Const(0),
            WInstr::Load(ValType::I32, 0),
            WInstr::I32Const(2),
            WInstr::IBin(Width::W32, IBinOp::Add),
            WInstr::Store(ValType::I32, 0),
            WInstr::GlobalGet(0),
            WInstr::I32Const(0),
            WInstr::Load(ValType::I32, 0),
            WInstr::IBin(Width::W32, IBinOp::Add),
        ],
    );
    m.memory = Some(1);
    m.globals.push(GlobalDef {
        ty: ValType::I32,
        mutable: true,
        init: WInstr::I32Const(0),
    });
    let compiled = compile_module(&m);
    let mut l = WasmLinker::new();
    let i = l.instantiate("m", m).unwrap();
    l.attach_compiled(i, &compiled).unwrap();
    l.seal();
    let first = l.invoke(i, "f", &[]).unwrap();
    let first_steps = l.last_steps();
    let drifted = l.invoke(i, "f", &[]).unwrap();
    assert_ne!(first, drifted, "state must drift without reset");
    l.reset().unwrap();
    assert_eq!(l.invoke(i, "f", &[]).unwrap(), first);
    assert_eq!(l.last_steps(), first_steps);
}

//! Differential tests for the flat-bytecode tier: every module runs
//! under both the tree-walking interpreter and the bytecode VM, and the
//! two must agree on results, trap messages, **and** fuel consumption
//! step-for-step — the property the fuzz farm's harness pins at scale.

use richwasm_bench::workloads::{wasm_branch_probes, wasm_float_probes};
use richwasm_wasm::ast::*;
use richwasm_wasm::compile::compile_module;
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

/// A value's bit pattern, 32-bit values zero-extended: floats compare by
/// bits, so a NaN's payload and a zero's sign count.
fn bits(v: &Val) -> u64 {
    match *v {
        Val::I32(x) => x.into(),
        Val::I64(x) => x,
        Val::F32(x) => x.to_bits().into(),
        Val::F64(x) => x.to_bits(),
    }
}

/// Instantiates `m` twice — once plain, once with the compiled module
/// attached — invokes `name` with `args` on both, and asserts that every
/// function compiled and that the outcomes (typed value bits or trap
/// message) and step counts are identical. Returns the shared outcome.
fn differential(m: &Module, name: &str, args: &[Val]) -> Result<Vec<Val>, String> {
    let compiled = compile_module(m);
    assert!(
        compiled.funcs.iter().all(Option::is_some),
        "every validated function compiles"
    );

    let mut tree = WasmLinker::new();
    let ti = tree.instantiate("m", m.clone()).expect("tree instantiate");
    let tree_out = tree.invoke(ti, name, args).map_err(|e| e.to_string());

    let mut vm = WasmLinker::new();
    let vi = vm.instantiate("m", m.clone()).expect("vm instantiate");
    vm.attach_compiled(vi, &compiled).expect("attach");
    let vm_out = vm.invoke(vi, name, args).map_err(|e| e.to_string());

    let typed_bits = |out: &Result<Vec<Val>, String>| {
        out.clone()
            .map(|vs| vs.iter().map(|v| (v.ty(), bits(v))).collect::<Vec<_>>())
    };
    assert_eq!(
        typed_bits(&tree_out),
        typed_bits(&vm_out),
        "engines disagree on outcome"
    );
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

/// Parameterised blocks compile, branches into them included, and a
/// branch unwinds below the block's params on both tiers. The shared
/// probes add the `if`/`br_table` variants and branches to the function
/// label, each checked against its spec value.
#[test]
fn parameterised_blocks_and_function_label_branches_follow_the_spec() {
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
    // f2 *branches to* a parameterised block.
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
    assert_eq!(
        differential(&m, "f", &[Val::I32(4)]).unwrap(),
        vec![Val::I32(50)]
    );
    assert_eq!(
        differential(&m, "g", &[Val::I32(4)]).unwrap(),
        vec![Val::I32(60)]
    );
    for (probe, m, want) in wasm_branch_probes() {
        assert_eq!(
            differential(&m, "main", &[]),
            Ok(vec![Val::I32(want as u32)]),
            "{probe}"
        );
    }
}

/// Both tiers give the spec's bits on float operators Rust's defaults
/// get wrong: signalling NaNs through sign operators and reinterprets,
/// NaN and signed-zero `min`/`max`, `nearest(-0.5)`, and int→float
/// conversions that must round once.
#[test]
fn float_probes_give_spec_bits_on_both_tiers() {
    for (probe, m, want) in wasm_float_probes() {
        let out = differential(&m, "main", &[]).unwrap_or_else(|e| panic!("{probe}: {e}"));
        assert_eq!(out.len(), 1, "{probe}");
        assert_eq!(bits(&out[0]), want, "{probe}: got {:#x}", bits(&out[0]));
    }
}

/// A module with one function left uncompiled is refused whole: no
/// function is re-pointed, and the full compilation then attaches.
#[test]
fn attach_refuses_a_module_with_an_uncompiled_function() {
    let m = one_func(
        vec![],
        vec![ValType::I32],
        vec![],
        vec![WInstr::I32Const(5)],
    );
    let compiled = compile_module(&m);
    let mut partial = compiled.clone();
    partial.funcs[0] = None;
    let mut vm = WasmLinker::new();
    let vi = vm.instantiate("m", m).unwrap();
    assert!(vm.attach_compiled(vi, &partial).is_err());
    assert_eq!(vm.attach_compiled(vi, &compiled), Ok(1));
    assert_eq!(vm.invoke(vi, "f", &[]).unwrap(), vec![Val::I32(5)]);
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

/// One page of memory whose last four bytes a data segment fills, a
/// mutable global, three jobs that dirty state in the ways a reset must
/// undo, and the probes that observe it:
///
/// * `grow` grows memory by two pages, stores into the new ones and
///   sets the global;
/// * `edge` stores to the last byte (and last word) of page 0;
/// * `trap_mid` stores, sets the global, then traps on an
///   out-of-bounds store halfway through its store sequence;
/// * `size`, `global` and `load(addr)` read `memory.size`, the global
///   and the word at `addr`.
fn reset_probe_module() -> Module {
    let mut m = Module::default();
    let unit_i32 = m.intern_type(FuncType {
        params: vec![],
        results: vec![ValType::I32],
    });
    let unit_unit = m.intern_type(FuncType {
        params: vec![],
        results: vec![],
    });
    let i32_i32 = m.intern_type(FuncType {
        params: vec![ValType::I32],
        results: vec![ValType::I32],
    });
    let store = |addr: i32, v: i32| {
        vec![
            WInstr::I32Const(addr),
            WInstr::I32Const(v),
            WInstr::Store(ValType::I32, 0),
        ]
    };
    let set_global = |v: i32| vec![WInstr::I32Const(v), WInstr::GlobalSet(0)];
    let grow = [
        vec![WInstr::I32Const(2), WInstr::MemoryGrow],
        store(70_000, 99),
        store(3 * 65536 - 4, 98),
        set_global(1),
    ]
    .concat();
    let edge = [
        vec![
            WInstr::I32Const(65535),
            WInstr::I32Const(0x5A),
            WInstr::Store8(0),
        ],
        store(65528, -1),
        set_global(2),
    ]
    .concat();
    let trap_mid = [
        store(0, 0x11),
        store(4096, 0x22),
        set_global(3),
        store(-16, 0x33),
        store(8192, 0x44),
    ]
    .concat();
    let funcs = [
        ("grow", unit_i32, grow),
        ("edge", unit_unit, edge),
        ("trap_mid", unit_unit, trap_mid),
        ("size", unit_i32, vec![WInstr::MemorySize]),
        ("global", unit_i32, vec![WInstr::GlobalGet(0)]),
        (
            "load",
            i32_i32,
            vec![WInstr::LocalGet(0), WInstr::Load(ValType::I32, 0)],
        ),
    ];
    for (i, (name, type_idx, body)) in funcs.into_iter().enumerate() {
        m.funcs.push(FuncDef {
            type_idx,
            locals: vec![],
            body,
        });
        m.exports.push(Export {
            name: name.into(),
            kind: ExportKind::Func(i as u32),
        });
    }
    m.memory = Some(1);
    m.globals.push(GlobalDef {
        ty: ValType::I32,
        mutable: true,
        init: WInstr::I32Const(7),
    });
    m.data.push(DataSegment {
        offset: 65532,
        bytes: vec![1, 2, 3, 4],
    });
    m
}

/// A linker running [`reset_probe_module`] on the bytecode VM
/// (`bytecode`) or the tree-walker, sealed after instantiation.
fn probe_linker(bytecode: bool) -> (WasmLinker, usize) {
    let m = reset_probe_module();
    let mut l = WasmLinker::new();
    let compiled = compile_module(&m);
    let i = l.instantiate("m", m).unwrap();
    if bytecode {
        l.attach_compiled(i, &compiled).unwrap();
    }
    l.seal();
    (l, i)
}

/// Every probe's outcome (value or trap message) and `last_steps()`.
fn probe_state(l: &mut WasmLinker, i: usize) -> Vec<(Result<Vec<Val>, String>, u64)> {
    let mut calls: Vec<(&str, Vec<Val>)> = vec![("size", vec![]), ("global", vec![])];
    for addr in [0, 4096, 8192, 65528, 65532, 65533, 70_000, 3 * 65536 - 4] {
        calls.push(("load", vec![Val::I32(addr)]));
    }
    calls
        .into_iter()
        .map(|(f, args)| {
            let out = l.invoke(i, f, &args).map_err(|e| e.to_string());
            (out, l.last_steps())
        })
        .collect()
}

/// A reset linker is indistinguishable from a fresh one after jobs that
/// grow memory, write the last byte of a page, or trap halfway through a
/// sequence of stores — on both tiers, one job at a time and all at
/// once, and across repeated resets.
#[test]
fn reset_after_grow_page_edge_and_mid_store_trap_equals_fresh() {
    let jobs: [&[&str]; 4] = [
        &["grow"],
        &["edge"],
        &["trap_mid"],
        &["grow", "edge", "trap_mid", "grow"],
    ];
    let mut fresh_by_tier = Vec::new();
    for bytecode in [false, true] {
        let (mut fresh, fi) = probe_linker(bytecode);
        let want = probe_state(&mut fresh, fi);
        assert_eq!(want[0].0, Ok(vec![Val::I32(1)]), "fresh memory.size");
        assert_eq!(want[1].0, Ok(vec![Val::I32(7)]), "fresh global");

        let (mut l, i) = probe_linker(bytecode);
        for round in 0..2 {
            for seq in jobs {
                for job in seq {
                    let out = l.invoke(i, job, &[]);
                    assert_eq!(out.is_err(), *job == "trap_mid", "{job}: {out:?}");
                }
                assert_ne!(
                    probe_state(&mut l, i),
                    want,
                    "{seq:?} must leave state a reset has to undo"
                );
                l.reset().unwrap();
                assert_eq!(
                    probe_state(&mut l, i),
                    want,
                    "bytecode={bytecode}, round {round}: reset after {seq:?}"
                );
            }
        }
        fresh_by_tier.push(want);
    }
    assert_eq!(fresh_by_tier[0], fresh_by_tier[1], "tiers agree on probes");
}

//! Integration tests for the Wasm interpreter: control flow, memory,
//! tables, cross-module linking, and trap behaviour.

use richwasm_wasm::ast::*;
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

fn run(m: Module, args: &[Val]) -> Result<Vec<Val>, String> {
    let mut l = WasmLinker::new();
    let i = l.instantiate("m", m).map_err(|e| e.to_string())?;
    l.invoke(i, "f", args).map_err(|e| e.to_string())
}

#[test]
fn arithmetic() {
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
        run(m, &[Val::I32(2), Val::I32(40)]).unwrap(),
        vec![Val::I32(42)]
    );
}

#[test]
fn factorial_loop() {
    // local 1 = acc; loop while local0 > 0 { acc *= local0; local0 -= 1 }
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
    assert_eq!(run(m, &[Val::I32(5)]).unwrap(), vec![Val::I32(120)]);
}

#[test]
fn memory_load_store() {
    let mut m = one_func(
        vec![],
        vec![ValType::I64],
        vec![],
        vec![
            WInstr::I32Const(8),
            WInstr::I64Const(0x1122334455667788),
            WInstr::Store(ValType::I64, 0),
            WInstr::I32Const(8),
            WInstr::Load(ValType::I64, 0),
        ],
    );
    m.memory = Some(1);
    assert_eq!(run(m, &[]).unwrap(), vec![Val::I64(0x1122334455667788)]);
}

#[test]
fn out_of_bounds_traps() {
    let mut m = one_func(
        vec![],
        vec![ValType::I32],
        vec![],
        vec![WInstr::I32Const(70000), WInstr::Load(ValType::I32, 0)],
    );
    m.memory = Some(1);
    let err = run(m, &[]).unwrap_err();
    assert!(err.contains("out of bounds"), "{err}");
}

#[test]
fn memory_grow() {
    let mut m = one_func(
        vec![],
        vec![ValType::I32, ValType::I32],
        vec![],
        vec![WInstr::I32Const(2), WInstr::MemoryGrow, WInstr::MemorySize],
    );
    m.memory = Some(1);
    assert_eq!(run(m, &[]).unwrap(), vec![Val::I32(1), Val::I32(3)]);
}

#[test]
fn call_indirect_through_table() {
    let mut m = Module::default();
    let binop = m.intern_type(FuncType {
        params: vec![ValType::I32, ValType::I32],
        results: vec![ValType::I32],
    });
    let main_t = m.intern_type(FuncType {
        params: vec![ValType::I32],
        results: vec![ValType::I32],
    });
    // f0 = add, f1 = mul, main picks by index.
    m.funcs.push(FuncDef {
        type_idx: binop,
        locals: vec![],
        body: vec![
            WInstr::LocalGet(0),
            WInstr::LocalGet(1),
            WInstr::IBin(Width::W32, IBinOp::Add),
        ],
    });
    m.funcs.push(FuncDef {
        type_idx: binop,
        locals: vec![],
        body: vec![
            WInstr::LocalGet(0),
            WInstr::LocalGet(1),
            WInstr::IBin(Width::W32, IBinOp::Mul),
        ],
    });
    m.funcs.push(FuncDef {
        type_idx: main_t,
        locals: vec![],
        body: vec![
            WInstr::I32Const(6),
            WInstr::I32Const(7),
            WInstr::LocalGet(0),
            WInstr::CallIndirect(binop),
        ],
    });
    m.table = Some(2);
    m.elems.push(ElemSegment {
        offset: 0,
        funcs: vec![0, 1],
    });
    m.exports.push(Export {
        name: "f".into(),
        kind: ExportKind::Func(2),
    });
    let mut l = WasmLinker::new();
    let i = l.instantiate("m", m).unwrap();
    assert_eq!(
        l.invoke(i, "f", &[Val::I32(0)]).unwrap(),
        vec![Val::I32(13)]
    );
    assert_eq!(
        l.invoke(i, "f", &[Val::I32(1)]).unwrap(),
        vec![Val::I32(42)]
    );
    let err = l.invoke(i, "f", &[Val::I32(5)]).unwrap_err();
    assert!(err.0.contains("table"), "{err}");
}

#[test]
fn cross_module_import() {
    let mut provider = Module::default();
    let t = provider.intern_type(FuncType {
        params: vec![],
        results: vec![ValType::I32],
    });
    provider.funcs.push(FuncDef {
        type_idx: t,
        locals: vec![],
        body: vec![WInstr::I32Const(7)],
    });
    provider.exports.push(Export {
        name: "seven".into(),
        kind: ExportKind::Func(0),
    });

    let mut client = Module::default();
    let t7 = client.intern_type(FuncType {
        params: vec![],
        results: vec![ValType::I32],
    });
    client.imports.push(Import {
        module: "p".into(),
        name: "seven".into(),
        kind: ImportKind::Func(t7),
    });
    client.funcs.push(FuncDef {
        type_idx: t7,
        locals: vec![],
        body: vec![
            WInstr::Call(0),
            WInstr::I32Const(6),
            WInstr::IBin(Width::W32, IBinOp::Mul),
        ],
    });
    client.exports.push(Export {
        name: "f".into(),
        kind: ExportKind::Func(1),
    });

    let mut l = WasmLinker::new();
    l.instantiate("p", provider).unwrap();
    let c = l.instantiate("c", client).unwrap();
    assert_eq!(l.invoke(c, "f", &[]).unwrap(), vec![Val::I32(42)]);
}

#[test]
fn import_type_mismatch_rejected() {
    let mut provider = Module::default();
    let t = provider.intern_type(FuncType {
        params: vec![],
        results: vec![ValType::I32],
    });
    provider.funcs.push(FuncDef {
        type_idx: t,
        locals: vec![],
        body: vec![WInstr::I32Const(7)],
    });
    provider.exports.push(Export {
        name: "seven".into(),
        kind: ExportKind::Func(0),
    });

    let mut client = Module::default();
    let bad = client.intern_type(FuncType {
        params: vec![],
        results: vec![ValType::I64],
    });
    client.imports.push(Import {
        module: "p".into(),
        name: "seven".into(),
        kind: ImportKind::Func(bad),
    });

    let mut l = WasmLinker::new();
    l.instantiate("p", provider).unwrap();
    let err = l.instantiate("c", client).unwrap_err();
    assert!(err.0.contains("type mismatch"), "{err}");
}

#[test]
fn shared_memory_via_import() {
    // Module A exports its memory; module B writes through the import and
    // A reads the value back — genuine shared-memory interop at the Wasm
    // level (what RichWasm's type system makes safe one level up).
    let mut a = Module::default();
    let t = a.intern_type(FuncType {
        params: vec![],
        results: vec![ValType::I32],
    });
    a.memory = Some(1);
    a.funcs.push(FuncDef {
        type_idx: t,
        locals: vec![],
        body: vec![WInstr::I32Const(0), WInstr::Load(ValType::I32, 0)],
    });
    a.exports.push(Export {
        name: "read".into(),
        kind: ExportKind::Func(0),
    });
    a.exports.push(Export {
        name: "mem".into(),
        kind: ExportKind::Memory(0),
    });

    let mut b = Module::default();
    let t2 = b.intern_type(FuncType {
        params: vec![ValType::I32],
        results: vec![],
    });
    b.imports.push(Import {
        module: "a".into(),
        name: "mem".into(),
        kind: ImportKind::Memory(1),
    });
    b.funcs.push(FuncDef {
        type_idx: t2,
        locals: vec![],
        body: vec![
            WInstr::I32Const(0),
            WInstr::LocalGet(0),
            WInstr::Store(ValType::I32, 0),
        ],
    });
    b.exports.push(Export {
        name: "write".into(),
        kind: ExportKind::Func(0),
    });

    let mut l = WasmLinker::new();
    let ai = l.instantiate("a", a).unwrap();
    let bi = l.instantiate("b", b).unwrap();
    l.invoke(bi, "write", &[Val::I32(1234)]).unwrap();
    assert_eq!(l.invoke(ai, "read", &[]).unwrap(), vec![Val::I32(1234)]);
}

#[test]
fn multi_value_block_runs() {
    let mut m = Module::default();
    let bt = m.intern_type(FuncType {
        params: vec![],
        results: vec![ValType::I32, ValType::I32],
    });
    let ft = m.intern_type(FuncType {
        params: vec![],
        results: vec![ValType::I32],
    });
    m.funcs.push(FuncDef {
        type_idx: ft,
        locals: vec![],
        body: vec![
            WInstr::Block(
                BlockType::Func(bt),
                vec![WInstr::I32Const(40), WInstr::I32Const(2)],
            ),
            WInstr::IBin(Width::W32, IBinOp::Add),
        ],
    });
    m.exports.push(Export {
        name: "f".into(),
        kind: ExportKind::Func(0),
    });
    assert_eq!(run(m, &[]).unwrap(), vec![Val::I32(42)]);
}

#[test]
fn br_out_of_nested_blocks() {
    // block (result i32) { block {} { i32.const 9; br 1 }; i32.const 1 }
    let m = one_func(
        vec![],
        vec![ValType::I32],
        vec![],
        vec![WInstr::Block(
            BlockType::Value(ValType::I32),
            vec![
                WInstr::Block(BlockType::Empty, vec![WInstr::I32Const(9), WInstr::Br(1)]),
                WInstr::I32Const(1),
            ],
        )],
    );
    assert_eq!(run(m, &[]).unwrap(), vec![Val::I32(9)]);
}

#[test]
fn division_by_zero_traps() {
    let m = one_func(
        vec![],
        vec![ValType::I32],
        vec![],
        vec![
            WInstr::I32Const(1),
            WInstr::I32Const(0),
            WInstr::IBin(Width::W32, IBinOp::Div(Sx::S)),
        ],
    );
    let err = run(m, &[]).unwrap_err();
    assert!(err.contains("divide by zero"), "{err}");
}

#[test]
fn start_function_runs_at_instantiation() {
    let mut m = Module::default();
    let t0 = m.intern_type(FuncType::default());
    let t1 = m.intern_type(FuncType {
        params: vec![],
        results: vec![ValType::I32],
    });
    m.globals.push(GlobalDef {
        ty: ValType::I32,
        mutable: true,
        init: WInstr::I32Const(0),
    });
    m.funcs.push(FuncDef {
        type_idx: t0,
        locals: vec![],
        body: vec![WInstr::I32Const(99), WInstr::GlobalSet(0)],
    });
    m.funcs.push(FuncDef {
        type_idx: t1,
        locals: vec![],
        body: vec![WInstr::GlobalGet(0)],
    });
    m.start = Some(0);
    m.exports.push(Export {
        name: "f".into(),
        kind: ExportKind::Func(1),
    });
    assert_eq!(run(m, &[]).unwrap(), vec![Val::I32(99)]);
}

#[test]
fn recursion_with_depth_limit() {
    // f(n) = n == 0 ? 0 : f(n-1) + n  (sum 1..n)
    let mut m = Module::default();
    let t = m.intern_type(FuncType {
        params: vec![ValType::I32],
        results: vec![ValType::I32],
    });
    m.funcs.push(FuncDef {
        type_idx: t,
        locals: vec![],
        body: vec![WInstr::If(
            BlockType::Value(ValType::I32),
            vec![
                WInstr::LocalGet(0),
                WInstr::I32Const(1),
                WInstr::IBin(Width::W32, IBinOp::Sub),
                WInstr::Call(0),
                WInstr::LocalGet(0),
                WInstr::IBin(Width::W32, IBinOp::Add),
            ],
            vec![WInstr::I32Const(0)],
        )],
    });
    // Condition first.
    m.funcs[0].body.insert(0, WInstr::LocalGet(0));
    m.exports.push(Export {
        name: "f".into(),
        kind: ExportKind::Func(0),
    });
    let mut l = WasmLinker::new();
    let i = l.instantiate("m", m).unwrap();
    assert_eq!(
        l.invoke(i, "f", &[Val::I32(100)]).unwrap(),
        vec![Val::I32(5050)]
    );
    // Exhausting the call depth traps rather than overflowing the host
    // stack.
    l.max_call_depth = 64;
    let err = l.invoke(i, "f", &[Val::I32(100_000)]).unwrap_err();
    assert!(err.0.contains("call stack exhausted"), "{err}");
}

#[test]
fn seal_and_reset_restore_baseline_state() {
    // A module with a mutable global and a memory cell, both bumped by
    // each call: after reset() the store must look freshly instantiated.
    let mut m = Module::default();
    let t = m.intern_type(FuncType {
        params: vec![],
        results: vec![ValType::I32],
    });
    m.memory = Some(1);
    m.data.push(DataSegment {
        offset: 0,
        bytes: vec![7, 0, 0, 0],
    });
    m.globals.push(GlobalDef {
        ty: ValType::I32,
        mutable: true,
        init: WInstr::I32Const(10),
    });
    // f() = (global += 1; mem[0] += 1; global + mem[0])
    m.funcs.push(FuncDef {
        type_idx: t,
        locals: vec![],
        body: vec![
            WInstr::GlobalGet(0),
            WInstr::I32Const(1),
            WInstr::IBin(Width::W32, IBinOp::Add),
            WInstr::GlobalSet(0),
            WInstr::I32Const(0),
            WInstr::I32Const(0),
            WInstr::Load(ValType::I32, 0),
            WInstr::I32Const(1),
            WInstr::IBin(Width::W32, IBinOp::Add),
            WInstr::Store(ValType::I32, 0),
            WInstr::GlobalGet(0),
            WInstr::I32Const(0),
            WInstr::Load(ValType::I32, 0),
            WInstr::IBin(Width::W32, IBinOp::Add),
        ],
    });
    m.exports.push(Export {
        name: "f".into(),
        kind: ExportKind::Func(0),
    });

    let mut l = WasmLinker::new();
    // Resetting before any baseline exists is an error, not a silent no-op.
    assert!(l.reset().is_err());
    let i = l.instantiate("m", m).unwrap();
    l.seal();
    assert!(l.is_sealed());

    // First life: 11 + 8, 12 + 9, …
    assert_eq!(l.invoke(i, "f", &[]).unwrap(), vec![Val::I32(19)]);
    assert_eq!(l.invoke(i, "f", &[]).unwrap(), vec![Val::I32(21)]);

    // Reset: both the global and the data-segment byte are back.
    l.reset().unwrap();
    assert_eq!(l.invoke(i, "f", &[]).unwrap(), vec![Val::I32(19)]);
}

#[test]
fn reset_restores_the_sealed_fuel_limits() {
    let mut l = WasmLinker::new();
    l.max_steps = 1_000;
    l.instantiate("m", one_func(vec![], vec![], vec![], vec![]))
        .unwrap();
    l.seal();
    l.max_steps = 5;
    l.max_call_depth = 3;
    l.reset().unwrap();
    assert_eq!(l.max_steps, 1_000);
    assert_eq!(l.max_call_depth, WasmLinker::new().max_call_depth);
}

#[test]
fn instantiate_invalidates_stale_baseline() {
    let m1 = one_func(
        vec![],
        vec![ValType::I32],
        vec![],
        vec![WInstr::I32Const(1)],
    );
    let m2 = one_func(
        vec![],
        vec![ValType::I32],
        vec![],
        vec![WInstr::I32Const(2)],
    );
    let mut l = WasmLinker::new();
    l.instantiate("a", m1).unwrap();
    l.seal();
    // Adding a module makes the old baseline unsound (it predates the new
    // store entries), so it must be dropped until the linker is re-sealed.
    l.instantiate("b", m2).unwrap();
    assert!(!l.is_sealed());
    assert!(l.reset().is_err());
    l.seal();
    assert!(l.reset().is_ok());
}

// ---------------------------------------------------------------------
// Host functions: Rust closures exposed as importable module exports.
// ---------------------------------------------------------------------

mod host_funcs {
    use super::*;
    use richwasm_wasm::exec::WasmTrap;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    /// A module importing `host.double : [i32] -> [i32]` and exporting
    /// `f(x) = double(x) + 1`.
    fn client() -> Module {
        let mut m = Module::default();
        let t = m.intern_type(FuncType {
            params: vec![ValType::I32],
            results: vec![ValType::I32],
        });
        m.imports.push(Import {
            module: "host".into(),
            name: "double".into(),
            kind: ImportKind::Func(t),
        });
        m.funcs.push(FuncDef {
            type_idx: t,
            locals: vec![],
            body: vec![
                WInstr::LocalGet(0),
                WInstr::Call(0),
                WInstr::I32Const(1),
                WInstr::IBin(Width::W32, IBinOp::Add),
            ],
        });
        m.exports.push(Export {
            name: "f".into(),
            kind: ExportKind::Func(1),
        });
        m
    }

    #[test]
    fn host_import_resolves_and_executes() {
        let calls = Arc::new(AtomicU32::new(0));
        let seen = calls.clone();
        let mut l = WasmLinker::new();
        l.register_host_module(
            "host",
            vec![(
                "double".into(),
                FuncType {
                    params: vec![ValType::I32],
                    results: vec![ValType::I32],
                },
                Arc::new(move |args: &[Val]| {
                    seen.fetch_add(1, Ordering::SeqCst);
                    let Val::I32(x) = args[0] else {
                        return Err(WasmTrap("expected i32".into()));
                    };
                    Ok(vec![Val::I32(x.wrapping_mul(2))])
                }),
            )],
        );
        let i = l.instantiate("m", client()).unwrap();
        assert_eq!(
            l.invoke(i, "f", &[Val::I32(20)]).unwrap(),
            vec![Val::I32(41)]
        );
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        // And through the pre-resolved address path.
        let addr = l.export_func_addr(i, "f").unwrap();
        assert_eq!(
            l.invoke_addr(addr, &[Val::I32(3)]).unwrap(),
            vec![Val::I32(7)]
        );
        assert_eq!(
            l.func_type(addr).unwrap().results,
            vec![ValType::I32],
            "address resolves to the typed function"
        );
    }

    #[test]
    fn host_import_type_mismatch_rejected() {
        let mut l = WasmLinker::new();
        l.register_host_module(
            "host",
            vec![(
                "double".into(),
                FuncType {
                    params: vec![ValType::I64], // disagrees with the client
                    results: vec![ValType::I32],
                },
                Arc::new(|_: &[Val]| Ok(vec![Val::I32(0)])),
            )],
        );
        let err = l.instantiate("m", client()).unwrap_err();
        assert!(err.to_string().contains("type mismatch"), "{err}");
    }

    #[test]
    fn host_error_and_result_checks_trap() {
        let mut l = WasmLinker::new();
        l.register_host_module(
            "host",
            vec![(
                "double".into(),
                FuncType {
                    params: vec![ValType::I32],
                    results: vec![ValType::I32],
                },
                Arc::new(|args: &[Val]| {
                    let Val::I32(x) = args[0] else {
                        return Err(WasmTrap("expected i32".into()));
                    };
                    if x == 0 {
                        return Err(WasmTrap("host says no".into()));
                    }
                    // A misbehaving host: wrong result type.
                    Ok(vec![Val::I64(1)])
                }),
            )],
        );
        let i = l.instantiate("m", client()).unwrap();
        let err = l.invoke(i, "f", &[Val::I32(0)]).unwrap_err();
        assert!(err.to_string().contains("host says no"), "{err}");
        // The store re-checks host results against the declared type.
        let err = l.invoke(i, "f", &[Val::I32(1)]).unwrap_err();
        assert!(err.to_string().contains("declares"), "{err}");
    }

    #[test]
    fn host_registration_invalidates_baseline() {
        let mut l = WasmLinker::new();
        let i = l
            .instantiate("m", {
                let mut m = Module::default();
                let t = m.intern_type(FuncType {
                    params: vec![],
                    results: vec![ValType::I32],
                });
                m.funcs.push(FuncDef {
                    type_idx: t,
                    locals: vec![],
                    body: vec![WInstr::I32Const(9)],
                });
                m.exports.push(Export {
                    name: "f".into(),
                    kind: ExportKind::Func(0),
                });
                m
            })
            .unwrap();
        l.seal();
        l.register_host_module("host", vec![]);
        assert!(!l.is_sealed(), "registering hosts stales the baseline");
        l.seal();
        assert!(l.reset().is_ok());
        assert_eq!(l.invoke(i, "f", &[]).unwrap(), vec![Val::I32(9)]);
    }
}

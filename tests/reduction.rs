//! Pins the RichWasm reduction (paper Fig. 4) step for step.
//!
//! Each serving job, and E3's churn workloads, runs on a bare
//! [`Runtime`] and must take exactly the number of reduction steps and
//! return exactly the values recorded here, with and without an
//! automatic collection every 7 steps; under collection the number of
//! cells collected pins where the collections fell. Three traps must
//! report exactly the recorded reason. A change to `interp::step` that
//! merges, splits, reorders or skips a step, moves a collection, or
//! rewords a trap fails here (DESIGN.md §3).

use richwasm::error::RuntimeError;
use richwasm::interp::Runtime;
use richwasm::syntax::instr::{Block, IntBinop, NumInstr, Sign};
use richwasm::syntax::{ArrowType, FunType, Func, Instr, Module, NumType, Qual, Size, Value};
use richwasm_bench::workloads::{arith_chain, churn, ml_tower, stash_client, stash_module};

/// A runtime holding every module the four serving jobs call, linked
/// the way `Engine` links them, with an automatic collection every
/// `gc` steps when given.
fn jobs_runtime(gc: Option<u64>) -> Runtime {
    let mut rt = Runtime::new();
    rt.config.auto_gc_every = gc;
    let ml = |m| richwasm_ml::compile_module(&m).expect("ML compiles");
    rt.instantiate("churn", churn(20)).unwrap();
    rt.instantiate("arith", arith_chain(10)).unwrap();
    rt.instantiate("ml", ml(stash_module(false))).unwrap();
    let client = richwasm_l3::compile_module(&stash_client()).expect("L3 compiles");
    rt.instantiate("client", client).unwrap();
    rt.instantiate("tower", ml(ml_tower(3))).unwrap();
    rt
}

/// `(module, args, value, steps, cells collected every 7 steps)` for
/// every serving job kind.
fn serving_jobs() -> Vec<(&'static str, Vec<Value>, i32, u64, u64)> {
    vec![
        ("churn", vec![], 20, 386, 0),
        ("arith", vec![Value::i32(0)], 1, 58, 0),
        ("arith", vec![Value::i32(7)], 71, 58, 0),
        ("arith", vec![Value::i32(-1000)], -9999, 58, 0),
        ("client", vec![], 42, 61, 0),
        ("tower", vec![], 8, 338, 20),
    ]
}

/// Runs `module`'s `main` and returns its values, its steps and the
/// number of cells the collector reclaimed while it ran.
fn run_job(rt: &mut Runtime, module: &str, args: Vec<Value>) -> (Vec<Value>, u64, u64) {
    let inst = rt.instance_by_name(module).unwrap();
    let before = rt.store.mem.collected;
    let r = rt.invoke(inst, "main", args).unwrap();
    (r.values, r.steps, rt.store.mem.collected - before)
}

#[test]
fn serving_jobs_take_the_pinned_steps() {
    for gc in [None, Some(7)] {
        let mut rt = jobs_runtime(gc);
        rt.seal();
        for (module, args, value, steps, collected) in serving_jobs() {
            let collected = if gc.is_some() { collected } else { 0 };
            let got = run_job(&mut rt, module, args.clone());
            assert_eq!(
                got,
                (vec![Value::i32(value)], steps, collected),
                "{module}{args:?} with auto_gc_every {gc:?}"
            );
            rt.reset().unwrap();
        }
    }
}

#[test]
fn e3_churn_takes_the_pinned_steps() {
    for gc in [None, Some(7)] {
        for (n, steps) in [(10, 196), (100, 1906)] {
            let mut rt = Runtime::new();
            rt.config.auto_gc_every = gc;
            rt.instantiate("m", churn(n)).unwrap();
            let got = run_job(&mut rt, "m", vec![]);
            assert_eq!(
                got,
                (vec![Value::i32(n as i32)], steps, 0),
                "churn({n}) with auto_gc_every {gc:?}"
            );
        }
    }
}

/// Runs a nullary export `main` of `body`, unchecked, and returns the
/// trap reason.
fn trap_reason(locals: Vec<Size>, body: Vec<Instr>) -> String {
    let mut rt = Runtime::new();
    rt.config.check_modules = false;
    let m = Module {
        funcs: vec![Func::Defined {
            exports: vec!["main".into()],
            ty: FunType::mono(vec![], vec![]),
            locals,
            body,
        }],
        ..Module::default()
    };
    let inst = rt.instantiate("m", m).unwrap();
    match rt.invoke(inst, "main", vec![]) {
        Err(RuntimeError::Trap { reason }) => reason,
        other => panic!("expected a trap, got {other:?}"),
    }
}

fn unpack(body: Vec<Instr>) -> Instr {
    Instr::MemUnpack(Block::new(ArrowType::new(vec![], vec![]), vec![]), body)
}

#[test]
fn traps_report_the_pinned_reasons() {
    let div = Instr::Num(NumInstr::IntBinop(NumType::I32, IntBinop::Div(Sign::S)));
    assert_eq!(
        trap_reason(vec![], vec![Instr::i32(1), Instr::i32(0), div, Instr::Drop]),
        "integer divide by zero"
    );

    // Free a linear struct through one copy of its reference, then read
    // it through another.
    let uaf = vec![
        Instr::i32(7),
        Instr::StructMalloc(vec![Size::Const(64)], Qual::Lin),
        unpack(vec![
            Instr::SetLocal(0),
            Instr::GetLocal(0, Qual::Unr),
            Instr::StructFree,
            Instr::GetLocal(0, Qual::Unr),
            Instr::StructGet(0),
            Instr::Drop,
            Instr::Drop,
        ]),
    ];
    assert_eq!(
        trap_reason(vec![Size::Const(64)], uaf),
        "use after free: 0^lin"
    );

    let oob = vec![
        Instr::i32(0),
        Instr::Val(Value::u32(2)),
        Instr::ArrayMalloc(Qual::Lin),
        unpack(vec![
            Instr::Val(Value::u32(5)),
            Instr::ArrayGet,
            Instr::Drop,
            Instr::ArrayFree,
        ]),
    ];
    assert_eq!(trap_reason(vec![], oob), "array.get out of bounds (5)");
}

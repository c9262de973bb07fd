//! Golden digests of the instruction checker's output.
//!
//! Lowering reads the checker's per-instruction trace, and users read its
//! errors, so both are pinned here: an FNV-1a digest of every function
//! body's `InstrInfo` trace (its `Debug` text) or `TypeError` (its
//! `Display` text), plus the error `check_module` reports, for the
//! benchmark workloads, the frontend output of the interop pairs, and
//! hand-built bodies at binder and block edges. A change to the checker's
//! data structures must leave every digest unchanged.

use std::fmt::Write;

use richwasm::syntax::instr::{Block, LocalEffect};
use richwasm::syntax::*;
use richwasm::typecheck::{check_function_body, check_module, check_module_decls};
use richwasm_bench::workloads::{
    arith_chain, churn, counter_client, counter_library, ml_tower, stash_client, stash_module,
};

/// FNV-1a over everything written into it.
struct Fnv(u64);

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

/// Digest of the checker's output on `m`: each defined body's trace or
/// error, in declaration order, then `check_module`'s verdict.
fn digest(m: &Module) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    match check_module_decls(m) {
        Err(e) => write!(h, "decls: {e};").unwrap(),
        Ok(env) => {
            for f in &m.funcs {
                if let Func::Defined {
                    ty, locals, body, ..
                } = f
                {
                    match check_function_body(&env, ty, locals, body) {
                        Ok(trace) => write!(h, "ok: {trace:?};").unwrap(),
                        Err(e) => write!(h, "err: {e};").unwrap(),
                    }
                }
            }
        }
    }
    match check_module(m) {
        Ok(_) => write!(h, "module ok").unwrap(),
        Err(e) => write!(h, "module err: {e}").unwrap(),
    }
    h.0
}

fn ml(m: &richwasm_ml::MlModule) -> Module {
    richwasm_ml::compile_module(m).unwrap()
}

fn l3(m: &richwasm_l3::L3Module) -> Module {
    richwasm_l3::compile_module(m).unwrap()
}

fn i32t() -> Type {
    Type::num(NumType::I32)
}

fn i64t() -> Type {
    Type::num(NumType::I64)
}

fn block(results: Vec<Type>, effects: Vec<LocalEffect>) -> Block {
    Block::new(ArrowType::new(vec![], results), effects)
}

/// `mem.unpack` with no params, results or effects.
fn unpack(body: Vec<Instr>) -> Instr {
    Instr::MemUnpack(block(vec![], vec![]), body)
}

/// Pushes a fresh linear `∃ρ. ref rw ρ (struct i32@32)` package.
fn lin_cell() -> Vec<Instr> {
    vec![
        Instr::i32(7),
        Instr::StructMalloc(vec![Size::Const(32)], Qual::Lin),
    ]
}

/// An existential over one pretype: `∃α ≲ 64. α^unr`.
fn exists_psi() -> HeapType {
    HeapType::Exists(Qual::Unr, Size::Const(64), Box::new(Pretype::Var(0).unr()))
}

/// Pushes a linear cell holding a packed `i32`, and unpacks its location.
fn packed(body: Vec<Instr>) -> Vec<Instr> {
    vec![
        Instr::i32(7),
        Instr::ExistPack(Pretype::Num(NumType::I32), exists_psi(), Qual::Lin),
        unpack(body),
    ]
}

fn single(ty: FunType, locals: Vec<Size>, body: Vec<Instr>) -> Module {
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

fn unit_fn(locals: Vec<Size>, body: Vec<Instr>) -> Module {
    single(FunType::mono(vec![], vec![]), locals, body)
}

/// A function polymorphic in one location `ρ`, taking and returning
/// `ptr ρ`.
fn ptr_fn(locals: Vec<Size>, body: Vec<Instr>) -> Module {
    let ptr = Pretype::Ptr(Loc::Var(0)).unr();
    let ty = FunType {
        quants: vec![Quantifier::Loc],
        arrow: ArrowType::new(vec![ptr.clone()], vec![ptr]),
    };
    single(ty, locals, body)
}

/// Hand-built bodies at binder and block edges, well- and ill-typed.
fn edge_cases() -> Vec<(&'static str, Module)> {
    let mut cases = Vec::new();
    // A ρ-typed pointer parked in a local and left there at the end of
    // the `mem.unpack` that binds ρ.
    let mut body = lin_cell();
    body.push(unpack(vec![
        Instr::RefSplit,
        Instr::SetLocal(0),
        Instr::GetLocal(0, Qual::Unr),
        Instr::RefJoin,
        Instr::StructFree,
    ]));
    cases.push((
        "ptr_left_in_local_at_unpack_end",
        unit_fn(vec![Size::Const(32)], body),
    ));
    // The same, with the pointer cleared before the end: well typed.
    let mut body = lin_cell();
    body.push(unpack(vec![
        Instr::RefSplit,
        Instr::SetLocal(0),
        Instr::GetLocal(0, Qual::Unr),
        Instr::RefJoin,
        Instr::StructFree,
        Instr::Val(Value::Unit),
        Instr::SetLocal(0),
    ]));
    cases.push((
        "ptr_cleared_before_unpack_end",
        unit_fn(vec![Size::Const(32)], body),
    ));
    // A linear local at a `br` out of an `exist.unpack`: to the function
    // label (all locals must be unrestricted) and to the enclosing
    // `mem.unpack` (locals must match its post-state).
    for (name, depth) in [
        ("linear_local_at_br_to_function_from_exist_unpack", 2),
        ("linear_local_at_br_to_mem_unpack_from_exist_unpack", 1),
    ] {
        let body = packed(vec![Instr::ExistUnpack(
            Qual::Lin,
            exists_psi(),
            block(vec![], vec![]),
            vec![
                Instr::Drop,
                Instr::Val(Value::Unit),
                Instr::Group(1, Qual::Lin),
                Instr::SetLocal(0),
                Instr::Br(depth),
            ],
        )]);
        cases.push((name, unit_fn(vec![Size::Const(64)], body)));
    }
    // A locals mismatch at a `loop` back-edge.
    let body = vec![Instr::LoopI(
        ArrowType::new(vec![], vec![]),
        vec![Instr::Val(Value::i64(1)), Instr::SetLocal(0), Instr::Br(0)],
    )];
    cases.push((
        "loop_back_edge_locals_mismatch",
        unit_fn(vec![Size::Const(64)], body),
    ));
    // A back-edge that restores the entry locals: well typed.
    let body = vec![
        Instr::i32(0),
        Instr::SetLocal(0),
        Instr::LoopI(
            ArrowType::new(vec![], vec![]),
            vec![
                Instr::Val(Value::i64(1)),
                Instr::SetLocal(0),
                Instr::i32(2),
                Instr::SetLocal(0),
                Instr::GetLocal(0, Qual::Unr),
                Instr::BrIf(0),
            ],
        ),
    ];
    cases.push((
        "loop_back_edge_restores_locals",
        unit_fn(vec![Size::Const(64)], body),
    ));
    // A `br_if` out of two nested unpacks to an enclosing block: first
    // with a ρ-typed local, then with a linear package left on the outer
    // unpack's stack.
    for (name, q) in [
        ("br_if_out_of_nested_unpack_local", Qual::Unr),
        ("br_if_out_of_nested_unpack_drops_linear", Qual::Lin),
    ] {
        let mut inner = lin_cell();
        inner.push(unpack(vec![
            Instr::RefSplit,
            Instr::SetLocal(1),
            Instr::GetLocal(1, Qual::Unr),
            Instr::RefJoin,
            Instr::StructFree,
            Instr::GetLocal(0, Qual::Unr),
            Instr::BrIf(2),
        ]));
        inner.push(Instr::Drop);
        let body = vec![Instr::BlockI(
            block(vec![], vec![]),
            vec![
                Instr::i32(3),
                Instr::StructMalloc(vec![Size::Const(32)], q),
                Instr::MemUnpack(block(vec![], vec![]), inner),
            ],
        )];
        let ty = FunType::mono(vec![i32t()], vec![]);
        cases.push((name, single(ty, vec![Size::Const(32)], body)));
    }
    // An `if` whose arms disagree on a local.
    let body = vec![
        Instr::GetLocal(0, Qual::Unr),
        Instr::IfI(
            block(vec![], vec![LocalEffect::new(1, i64t())]),
            vec![Instr::Val(Value::i64(1)), Instr::SetLocal(1)],
            vec![Instr::Nop],
        ),
    ];
    let ty = FunType::mono(vec![i32t()], vec![]);
    cases.push((
        "if_arms_disagree_on_local",
        single(ty, vec![Size::Const(64)], body),
    ));
    // Both arms agree with the declared effect: well typed.
    let body = vec![
        Instr::GetLocal(0, Qual::Unr),
        Instr::IfI(
            block(vec![], vec![LocalEffect::new(1, i64t())]),
            vec![Instr::Val(Value::i64(1)), Instr::SetLocal(1)],
            vec![Instr::Val(Value::i64(2)), Instr::SetLocal(1)],
        ),
        Instr::GetLocal(1, Qual::Unr),
        Instr::Drop,
    ];
    let ty = FunType::mono(vec![i32t()], vec![]);
    cases.push((
        "if_arms_agree_with_effect",
        single(ty, vec![Size::Const(64)], body),
    ));
    // A `variant.case` arm that changes a local no effect declares.
    let cases_ty = vec![i32t(), i32t()];
    let body = vec![
        Instr::i32(5),
        Instr::VariantMalloc(0, cases_ty.clone(), Qual::Lin),
        unpack(vec![Instr::VariantCase(
            Qual::Lin,
            HeapType::Variant(cases_ty),
            block(vec![], vec![]),
            vec![
                vec![Instr::Drop, Instr::Val(Value::i64(1)), Instr::SetLocal(0)],
                vec![Instr::Drop],
            ],
        )]),
    ];
    cases.push((
        "variant_arm_changes_local",
        unit_fn(vec![Size::Const(64)], body),
    ));
    // Block effects on a missing slot and on a slot too small.
    for (name, effect) in [
        ("effect_on_missing_local", LocalEffect::new(5, i32t())),
        ("effect_too_big_for_slot", LocalEffect::new(0, i64t())),
    ] {
        let body = vec![Instr::BlockI(block(vec![], vec![effect]), vec![])];
        cases.push((name, unit_fn(vec![Size::Const(32)], body)));
    }
    // A `return` inside an unpack: with the right value (the return type
    // mentions the function's ρ), and with the wrong one.
    for (name, value) in [
        ("return_ptr_inside_unpack", Instr::GetLocal(0, Qual::Unr)),
        ("return_wrong_type_inside_unpack", Instr::i32(1)),
    ] {
        let mut body = lin_cell();
        body.push(unpack(vec![Instr::StructFree, value, Instr::Return]));
        body.push(Instr::GetLocal(0, Qual::Unr));
        cases.push((name, ptr_fn(vec![], body)));
    }
    // `br_table` inside an unpack to labels at two binder depths: they
    // agree when both carry `ptr ρ`, and disagree otherwise.
    for (name, inner_result) in [
        (
            "br_table_across_binder_agrees",
            Pretype::Ptr(Loc::Var(0)).unr(),
        ),
        ("br_table_across_binder_disagrees", i32t()),
    ] {
        let ptr = Pretype::Ptr(Loc::Var(0)).unr();
        let mut inner = lin_cell();
        inner.push(Instr::MemUnpack(
            block(vec![inner_result], vec![]),
            vec![
                Instr::StructFree,
                Instr::GetLocal(0, Qual::Unr),
                Instr::i32(0),
                Instr::BrTable(vec![1], 0),
            ],
        ));
        let body = vec![Instr::BlockI(block(vec![ptr], vec![]), inner)];
        cases.push((name, ptr_fn(vec![], body)));
    }
    // Overwriting a linear slot whose type mentions ρ, inside an unpack.
    let cap = Pretype::Cap(
        MemPriv::ReadWrite,
        Loc::Var(0),
        HeapType::Struct(vec![(i32t(), Size::Const(32))]),
    )
    .lin();
    let ty = FunType {
        quants: vec![Quantifier::Loc],
        arrow: ArrowType::new(vec![cap], vec![]),
    };
    let mut body = lin_cell();
    body.push(unpack(vec![
        Instr::StructFree,
        Instr::i32(1),
        Instr::SetLocal(0),
    ]));
    cases.push((
        "set_local_drops_linear_cap_inside_unpack",
        single(ty, vec![], body),
    ));
    // A ρ-typed local declared by an inner block's effect and cleared by
    // the unpack: well typed, exercising effects across a binder.
    let ptr0 = Pretype::Ptr(Loc::Var(0)).unr();
    let mut body = lin_cell();
    body.push(unpack(vec![
        Instr::RefSplit,
        Instr::BlockI(
            Block::new(
                ArrowType::new(vec![ptr0.clone()], vec![]),
                vec![LocalEffect::new(0, ptr0)],
            ),
            vec![Instr::SetLocal(0)],
        ),
        Instr::GetLocal(0, Qual::Unr),
        Instr::RefJoin,
        Instr::StructFree,
        Instr::Val(Value::Unit),
        Instr::SetLocal(0),
    ]));
    cases.push((
        "effect_declares_ptr_inside_unpack",
        unit_fn(vec![Size::Const(32)], body),
    ));
    // A `br` from an unpack to a block whose effect mentions the
    // function's ρ: the effect is read one binder deeper.
    for (name, value) in [
        (
            "br_from_unpack_meets_outer_ptr_effect",
            Instr::GetLocal(0, Qual::Unr),
        ),
        ("br_from_unpack_misses_outer_ptr_effect", Instr::i32(1)),
    ] {
        let effect = || vec![LocalEffect::new(1, Pretype::Ptr(Loc::Var(0)).unr())];
        let mut inner = lin_cell();
        inner.push(Instr::MemUnpack(
            block(vec![], effect()),
            vec![Instr::StructFree, value, Instr::SetLocal(1), Instr::Br(1)],
        ));
        let body = vec![
            Instr::BlockI(block(vec![], effect()), inner),
            Instr::GetLocal(1, Qual::Unr),
        ];
        cases.push((name, ptr_fn(vec![Size::Const(32)], body)));
    }
    // A linear value dropped at a `br` out of an `exist.unpack` body
    // whose outer frame holds it: a linear tuple sits below the package.
    let mut body = vec![Instr::Val(Value::Unit), Instr::Group(1, Qual::Lin)];
    body.extend(packed(vec![Instr::ExistUnpack(
        Qual::Lin,
        exists_psi(),
        block(vec![], vec![]),
        vec![Instr::Drop, Instr::Br(2)],
    )]));
    body.push(Instr::Ungroup);
    body.push(Instr::Drop);
    cases.push(("br_drops_linear_below_exist_unpack", unit_fn(vec![], body)));
    cases
}

/// Every pinned digest, computed from the checker before its state was
/// depth-stamped and undo-logged.
const GOLDEN: &[(&str, u64)] = &[
    ("ml_tower_2", 0xfc90ba576911e5d8),
    ("ml_tower_3", 0xfb14c89ae867c328),
    ("ml_tower_4", 0x32e235d3667494c8),
    ("ml_tower_5", 0xd84969c54699be08),
    ("ml_tower_6", 0xd3c872a5854683c8),
    ("arith_chain_5", 0x9a816cd6fea5ce84),
    ("arith_chain_100", 0x4e68aae7cc66d7ab),
    ("arith_chain_400", 0xfaead5634484e1d3),
    ("churn_200", 0x58510aa30c38339d),
    ("stash_module", 0x6c8e35689fd0ad97),
    ("stash_module_buggy", 0xc29dd2ef29dec7ac),
    ("stash_client", 0xe9720211c153553f),
    ("counter_library", 0xb8ee8f9b093a6d79),
    ("counter_client", 0x1d0a9eaf41dff406),
    ("ptr_left_in_local_at_unpack_end", 0xae92d037cdf82ef2),
    ("ptr_cleared_before_unpack_end", 0xec8e26b03c90b52c),
    (
        "linear_local_at_br_to_function_from_exist_unpack",
        0x75c954bad2449f4c,
    ),
    (
        "linear_local_at_br_to_mem_unpack_from_exist_unpack",
        0x705d2246acf6dc92,
    ),
    ("loop_back_edge_locals_mismatch", 0x8c84070b8a1c9440),
    ("loop_back_edge_restores_locals", 0x3232634c6b979ce6),
    ("br_if_out_of_nested_unpack_local", 0x063989b03b598532),
    (
        "br_if_out_of_nested_unpack_drops_linear",
        0xcb79733bb40310c2,
    ),
    ("if_arms_disagree_on_local", 0x712bac6dbaa7c98a),
    ("if_arms_agree_with_effect", 0xbfa1576b0b4bfc48),
    ("variant_arm_changes_local", 0x62de7198622354fe),
    ("effect_on_missing_local", 0x8a1e8369acdea424),
    ("effect_too_big_for_slot", 0xc2fb4d9156d21062),
    ("return_ptr_inside_unpack", 0xfcb5c01b4854032e),
    ("return_wrong_type_inside_unpack", 0x748cbdaff54538dc),
    ("br_table_across_binder_agrees", 0x5fe6bf531ebe4eb5),
    ("br_table_across_binder_disagrees", 0x7e2255a965c488e2),
    (
        "set_local_drops_linear_cap_inside_unpack",
        0x4d8a0063f9ffa1c2,
    ),
    ("effect_declares_ptr_inside_unpack", 0x12a9613e658ed98a),
    ("br_from_unpack_meets_outer_ptr_effect", 0x9e06dfc882d41f8a),
    ("br_from_unpack_misses_outer_ptr_effect", 0x6122ac5f27cbcdfe),
    ("br_drops_linear_below_exist_unpack", 0x270c5ab72d43a9e8),
];

#[test]
fn checker_output_matches_golden_digests() {
    let mut got: Vec<(String, u64)> = Vec::new();
    for d in 2..=6 {
        got.push((format!("ml_tower_{d}"), digest(&ml(&ml_tower(d)))));
    }
    for n in [5, 100, 400] {
        got.push((format!("arith_chain_{n}"), digest(&arith_chain(n))));
    }
    got.push(("churn_200".into(), digest(&churn(200))));
    got.push(("stash_module".into(), digest(&ml(&stash_module(false)))));
    got.push((
        "stash_module_buggy".into(),
        digest(&ml(&stash_module(true))),
    ));
    got.push(("stash_client".into(), digest(&l3(&stash_client()))));
    got.push(("counter_library".into(), digest(&l3(&counter_library()))));
    got.push(("counter_client".into(), digest(&ml(&counter_client()))));
    for (name, m) in edge_cases() {
        got.push((name.to_string(), digest(&m)));
    }
    let table: String = got
        .iter()
        .map(|(n, h)| format!("    (\"{n}\", {h:#018x}),\n"))
        .collect();
    let want: Vec<(String, u64)> = GOLDEN.iter().map(|(n, h)| (n.to_string(), *h)).collect();
    assert_eq!(got, want, "checker digests changed; now:\n{table}");
}

//! Integration sweep for the fuzz farm — a scaled-down version of what
//! the CI `fuzz` job runs, plus the minimizer golden test.
//!
//! The heavy sweeps (10k cases + 500 mutants) live in the CI job; these
//! tests keep the same machinery pinned under plain `cargo test`.

use richwasm::syntax::instr::Sign;
use richwasm::syntax::{Func, Instr, Module, NumType};
use richwasm::typecheck::{check_module, coverage_of_module, RuleCoverage};
use richwasm_fuzz::{
    gen_program, minimize_module, mutate, pick_tier, run_case, CaseOutcome, FuzzProgram,
    MutationKind, Rng, SourceModule,
};

/// Recursive instruction count — the same notion of size the minimizer
/// shrinks, recomputed here so the golden bound is independent of the
/// minimizer's internals.
fn instr_count(body: &[Instr]) -> usize {
    body.iter()
        .map(|i| {
            1 + match i {
                Instr::BlockI(_, b) | Instr::LoopI(_, b) | Instr::MemUnpack(_, b) => instr_count(b),
                Instr::IfI(_, t, e) => instr_count(t) + instr_count(e),
                Instr::ExistUnpack(_, _, _, b) => instr_count(b),
                Instr::VariantCase(_, _, _, arms) => arms.iter().map(|a| instr_count(a)).sum(),
                _ => 0,
            }
        })
        .sum()
}

fn module_size(m: &Module) -> usize {
    m.funcs
        .iter()
        .map(|f| match f {
            Func::Defined { body, .. } => instr_count(body),
            Func::Imported { .. } => 0,
        })
        .sum()
}

/// A moderate all-tier sweep: every generated program must pass the full
/// differential harness, and together they must exercise most of the
/// checker's typing rules.
#[test]
fn moderate_sweep_all_tiers() {
    const CASES: u64 = 300;
    let mut cov = RuleCoverage::new();
    for i in 0..CASES {
        let mut rng = Rng::for_case(0xFA51, i);
        let tier = pick_tier(&mut rng);
        let prog = gen_program(tier, &mut rng, &cov);
        for m in prog.rw_modules().into_iter().flatten() {
            coverage_of_module(&m, &mut cov);
        }
        if let CaseOutcome::Failed { kind, detail } = run_case(&prog) {
            panic!(
                "case {i} ({}) failed [{}]: {detail}\n{}",
                tier.name(),
                kind.name(),
                prog.describe()
            );
        }
    }
    // The sweep is deterministic, so this is a pin, not a flake: 300
    // cases must cover well over half the rule set.
    assert!(
        cov.covered() * 2 > cov.total(),
        "rule coverage too low: {}/{}",
        cov.covered(),
        cov.total()
    );
}

/// The bytecode-tier differential sweep: ≥1k generated programs through
/// the full harness. Host-free cases run as a three-way differential —
/// RichWasm interpreter × bytecode VM × Wasm tree-walker, with trap
/// strings and exact fuel counts compared — so any drift between the
/// two Wasm engines surfaces as a `Mismatch` here.
#[test]
fn bytecode_differential_sweep_1k() {
    const CASES: u64 = 1_000;
    let cov = RuleCoverage::new();
    let mut checked_three_way = 0u64;
    for i in 0..CASES {
        let mut rng = Rng::for_case(0xB17E_C0DE, i);
        let tier = pick_tier(&mut rng);
        let prog = gen_program(tier, &mut rng, &cov);
        if prog.hosts.is_empty() {
            checked_three_way += 1;
        }
        if let CaseOutcome::Failed { kind, detail } = run_case(&prog) {
            panic!(
                "case {i} ({}) failed [{}]: {detail}\n{}",
                tier.name(),
                kind.name(),
                prog.describe()
            );
        }
    }
    // The sweep is deterministic; most generated cases are host-free, so
    // the three-way differential must have actually run at scale.
    assert!(
        checked_three_way * 2 > CASES,
        "only {checked_three_way}/{CASES} cases ran the bytecode differential"
    );
}

/// Adversarial batch: targeted ill-typed mutants of otherwise well-typed
/// programs must all be rejected by the checker.
#[test]
fn adversarial_mutants_all_rejected() {
    let cov = RuleCoverage::new();
    let mut applied = 0u32;
    let mut attempt = 0u64;
    while applied < 60 && attempt < 1200 {
        let mut rng = Rng::for_case(0x0BAD_5EED, attempt);
        attempt += 1;
        let tier = pick_tier(&mut rng);
        let prog = gen_program(tier, &mut rng, &cov);
        let kind = MutationKind::ALL[(attempt as usize) % MutationKind::ALL.len()];
        for m in prog.rw_modules().into_iter().flatten() {
            let Some(mutant) = mutate(&m, kind) else {
                continue;
            };
            applied += 1;
            assert!(
                check_module(&mutant).is_err(),
                "checker ACCEPTED an ill-typed [{}] mutant:\n{mutant:?}",
                kind.name()
            );
            break;
        }
    }
    assert!(applied >= 60, "only {applied} mutants applied");
}

/// The minimizer golden test: a known-failing case (an injected `0/0`
/// trap inside a realistically large generated program) must shrink to a
/// reproducer no bigger than the pinned golden size — and do so
/// deterministically.
#[test]
fn minimizer_golden_injected_trap() {
    // A fixed-seed raw-tier program, with a division-by-zero spliced
    // into the front of `main` — well-typed, but traps on both backends.
    let mut rng = Rng::for_case(0x601D, 7);
    let mut prog = gen_program(richwasm_fuzz::Tier::Raw, &mut rng, &RuleCoverage::new());
    assert_eq!(prog.modules.len(), 1, "raw tier is a single module");
    let (name, SourceModule::Rw(module)) = &mut prog.modules[0] else {
        panic!("raw tier module is a RichWasm module");
    };
    let name = name.clone();
    let trap = vec![
        Instr::i32(1),
        Instr::i32(0),
        Instr::Num(richwasm::syntax::NumInstr::IntBinop(
            NumType::I32,
            richwasm::syntax::instr::IntBinop::Div(Sign::S),
        )),
        Instr::Drop,
    ];
    let injected = module
        .funcs
        .iter_mut()
        .find_map(|f| match f {
            Func::Defined { exports, body, .. } if exports.iter().any(|e| e == "main") => {
                body.splice(0..0, trap.clone());
                Some(())
            }
            _ => None,
        })
        .is_some();
    assert!(injected, "generated raw module exports main");
    let module = module.clone();
    assert!(module_size(&module) > 20, "start from a non-trivial module");

    // The failure predicate the driver uses: same failure class.
    let keep = |prog: &FuzzProgram, name: &str, cand: &Module| {
        let mut p = prog.clone();
        p.modules = vec![(name.to_string(), SourceModule::Rw(cand.clone()))];
        matches!(
            run_case(&p),
            CaseOutcome::Failed {
                kind: richwasm_fuzz::FailureKind::Trap,
                ..
            }
        )
    };
    assert!(keep(&prog, &name, &module), "injected trap must reproduce");

    let min_a = minimize_module(&module, &mut |cand| keep(&prog, &name, cand));
    let min_b = minimize_module(&module, &mut |cand| keep(&prog, &name, cand));
    assert_eq!(min_a, min_b, "minimization must be deterministic");

    // Golden bound: the trap needs the two operands and the division;
    // everything else must have been stripped.
    assert!(
        module_size(&min_a) <= 4,
        "minimized reproducer too large ({} instrs):\n{min_a}",
        module_size(&min_a)
    );
    assert!(
        keep(&prog, &name, &min_a),
        "minimized reproducer still fails the same way"
    );
}

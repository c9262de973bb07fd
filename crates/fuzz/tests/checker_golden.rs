//! Golden digest of the instruction checker's output over a seeded batch
//! of generated programs and their adversarial mutants.
//!
//! For every RichWasm module of 400 generated cases, and every mutant
//! each mutation kind makes of it, the digest takes each defined body's
//! `InstrInfo` trace (its `Debug` text) or `TypeError` (its `Display`
//! text), then `check_module`'s verdict. A change to the checker's data
//! structures must leave it unchanged.

use std::fmt::Write;

use richwasm::syntax::{Func, Module};
use richwasm::typecheck::{
    check_function_body, check_module, check_module_decls, coverage_of_module, RuleCoverage,
};
use richwasm_fuzz::{gen_program, mutate, pick_tier, MutationKind, Rng};

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

/// Feeds the checker's output on `m` into `h`; returns whether
/// `check_module` accepted it.
fn feed(h: &mut Fnv, m: &Module) -> bool {
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
        Ok(_) => {
            write!(h, "module ok;").unwrap();
            true
        }
        Err(e) => {
            write!(h, "module err: {e};").unwrap();
            false
        }
    }
}

#[test]
fn checker_output_matches_golden_digest() {
    const CASES: u64 = 400;
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut cov = RuleCoverage::new();
    let (mut modules, mut mutants, mut rejected) = (0u32, 0u32, 0u32);
    for i in 0..CASES {
        let mut rng = Rng::for_case(0x00C0_FFEE, i);
        let tier = pick_tier(&mut rng);
        let prog = gen_program(tier, &mut rng, &cov);
        for m in prog.rw_modules().into_iter().flatten() {
            coverage_of_module(&m, &mut cov);
            modules += 1;
            assert!(feed(&mut h, &m), "case {i}: generated module rejected");
            for kind in MutationKind::ALL {
                if let Some(mutant) = mutate(&m, kind) {
                    mutants += 1;
                    rejected += u32::from(!feed(&mut h, &mutant));
                }
            }
        }
    }
    assert_eq!(
        (modules, mutants, rejected, h.0),
        (415, 1318, 1318, 0xee54_ea20_53ea_1974),
        "checker digest changed"
    );
}

//! Golden static-analysis runs over the E1–E12 scenario module sets
//! (DESIGN.md §11): on every checker-accepted program the analyze stage
//! must produce **zero `Deny` findings** — the independent re-verifier
//! agrees with `validate.rs` on every lowered module — and the cached
//! fuel-cost summary must be a usable, sound lower bound for the entry
//! export.

use richwasm::syntax::Value;
use richwasm_analyze::{reverify_module, Bound, Severity};
use richwasm_bench::workloads::{
    arith_chain, churn, counter_client, counter_library, ml_tower, stash_client, stash_module,
};
use richwasm_repro::engine::{Analysis, Engine, EngineConfig, Exec, ModuleSet};

/// Every scenario module set the test-suite scenarios (E1–E12) compile,
/// under its scenario label.
fn scenario_sets() -> Vec<(&'static str, ModuleSet)> {
    vec![
        (
            "e1_interop",
            ModuleSet::new()
                .ml("ml", stash_module(false))
                .l3("l3", stash_client())
                .entry("l3"),
        ),
        (
            "e2_counter",
            ModuleSet::new()
                .l3("gfx", counter_library())
                .ml("app", counter_client())
                .entry("app"),
        ),
        ("e4_tower", ModuleSet::new().ml("tower", ml_tower(4))),
        (
            "e5_chain",
            ModuleSet::new().richwasm("chain", arith_chain(64)),
        ),
        ("e12_churn", ModuleSet::new().richwasm("m", churn(50))),
    ]
}

#[test]
fn checker_accepted_scenarios_have_zero_deny_findings() {
    let engine = Engine::new();
    for (label, set) in scenario_sets() {
        let artifact = engine.compile(&set).unwrap();
        assert!(
            !artifact.analysis().is_empty(),
            "{label}: differential compile lowers to Wasm, so analysis must run"
        );
        assert_eq!(
            artifact.analysis().len(),
            artifact.lowered_modules().len(),
            "{label}: one report per lowered module"
        );
        for (name, report) in artifact.analysis() {
            let deny: Vec<_> = report
                .diagnostics
                .iter()
                .filter(|d| d.severity == Severity::Deny)
                .collect();
            assert!(
                deny.is_empty(),
                "{label}/{name}: Deny finding on a checker-accepted module: {deny:?}"
            );
        }
    }
}

#[test]
fn reverifier_accepts_every_lowered_scenario_module() {
    let engine = Engine::new();
    for (label, set) in scenario_sets() {
        let artifact = engine.compile(&set).unwrap();
        for (name, wm) in artifact.lowered_modules() {
            reverify_module(wm).unwrap_or_else(|e| {
                panic!("{label}/{name}: independent re-verifier rejected a validated module: {e}")
            });
        }
    }
}

#[test]
fn deny_policy_compiles_every_scenario() {
    // `Analysis::Deny` is the strict gate: it must not reject any
    // checker-accepted scenario program.
    let engine = Engine::with_config(EngineConfig::new().analysis(Analysis::Deny));
    for (label, set) in scenario_sets() {
        engine
            .compile(&set)
            .unwrap_or_else(|e| panic!("{label}: Deny-level analysis rejected the build: {e}"));
    }
}

#[test]
fn cost_reports_cover_every_function_with_sound_bounds() {
    let engine = Engine::new();
    for (label, set) in scenario_sets() {
        let artifact = engine.compile(&set).unwrap();
        for ((name, report), (_, wm)) in artifact.analysis().iter().zip(artifact.lowered_modules())
        {
            assert_eq!(
                report.cost.funcs.len(),
                wm.funcs.len(),
                "{label}/{name}: one cost summary per defined function"
            );
            for fc in &report.cost.funcs {
                assert!(fc.min_steps >= 1, "{label}/{name}: every call costs a step");
                if let richwasm_analyze::Bound::Finite(max) = fc.max_steps {
                    assert!(
                        fc.min_steps <= max,
                        "{label}/{name}: min {} exceeds max {max}",
                        fc.min_steps
                    );
                }
            }
        }
    }
}

#[test]
fn entry_min_steps_is_a_true_interpreter_lower_bound() {
    // The serving-layer contract end to end: the cached static minimum
    // for churn's entry must under-approximate the metered Wasm
    // interpreter — a budget of exactly `min - 1` exhausts, and a
    // generous budget completes.
    let engine = Engine::new();
    let artifact = engine
        .compile(&ModuleSet::new().richwasm("m", churn(25)))
        .unwrap();
    let min = artifact
        .static_min_steps("m", "main")
        .expect("churn's entry has a finite static minimum");
    assert!(min > 1);
    assert!(
        artifact.static_min_steps("m", "no_such_export").is_none(),
        "unknown exports have no bound"
    );

    let run = |fuel| {
        Engine::with_config(EngineConfig::new().fuel(fuel))
            .instantiate(&ModuleSet::new().richwasm("m", churn(25)))
            .unwrap()
            .invoke_entry()
    };
    let err = run(min - 1).expect_err("a budget below the static minimum cannot complete");
    assert!(
        err.is_fuel_exhausted(),
        "expected fuel exhaustion, got: {err}"
    );

    let feasible = run(10_000_000).expect("a generous budget completes");
    assert_eq!(feasible.i32(), Some(25));
}

#[test]
fn long_chain_bounds_are_exact_and_match_the_wasm_run() {
    // arith_chain(n)'s `main` is straight-line code through n nested
    // calls: every run takes exactly 6n − 1 Wasm steps, so the static
    // minimum, the finite maximum and the metered run all coincide, and
    // the call depth is the chain length. The bytecode VM recurses
    // natively per Wasm call, and 400 unoptimised frames need more than
    // the default test-thread stack.
    std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(check_long_chains)
        .unwrap()
        .join()
        .unwrap();
}

fn check_long_chains() {
    let engine = Engine::with_config(EngineConfig::new().exec(Exec::Wasm));
    for n in [1u64, 2, 50, 137, 400] {
        let steps = 6 * n - 1;
        let set = ModuleSet::new().richwasm("c", arith_chain(n as usize));
        let artifact = engine.compile(&set).unwrap();
        assert_eq!(
            artifact.static_min_steps("c", "main"),
            Some(steps),
            "n = {n}"
        );
        let (_, report) = artifact
            .analysis()
            .iter()
            .find(|(name, _)| name == "c")
            .expect("the chain module is analyzed");
        let main = report
            .cost
            .exports
            .iter()
            .find_map(|(name, i)| (name == "main").then_some(*i))
            .expect("main is exported");
        assert_eq!(
            report.cost.func(main).map(|c| c.max_steps),
            Some(Bound::Finite(steps)),
            "n = {n}"
        );
        assert_eq!(report.cost.max_call_depth, Some(n as u32), "n = {n}");

        let mut inst = artifact.instantiate().unwrap();
        let out = inst.invoke("c", "main", vec![Value::i32(7)]).unwrap();
        assert_eq!(out.i32(), Some(7 * n as i32 + 1), "n = {n}");
        assert_eq!(inst.wasm.as_ref().unwrap().last_steps(), steps, "n = {n}");
    }
}

#[test]
fn off_policy_skips_the_stage_entirely() {
    let engine = Engine::with_config(EngineConfig::new().analysis(Analysis::Off));
    let artifact = engine
        .compile(&ModuleSet::new().richwasm("m", churn(5)))
        .unwrap();
    assert!(artifact.analysis().is_empty());
    assert!(artifact.static_min_steps("m", "main").is_none());
}

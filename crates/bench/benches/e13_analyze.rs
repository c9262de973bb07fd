//! **E13** — the cost of the `Stage::Analyze` pass: CFG construction +
//! re-verification + fuel-cost + call-graph + dead-code over every
//! lowered scenario module, measured against the cold compile that
//! produces those modules.
//!
//! Analysis rides along on every cold compile (at `Analysis::Warn`, the
//! default), so its budget is expressed *relative* to the pipeline it
//! joins. Two acceptance gates:
//!
//! * `cold_compile_over_analyze` — the analyze stage costs **≤ 30% of a
//!   cold compile** over the scenario corpus (cold/analyze ≥ 10/3). On a
//!   shared 2-vCPU container it measures 7.2–9.1×; it measured
//!   4.9–5.5× while lowering gave every indirect call one arm per table
//!   entry, since analysis time follows the lowered code's size;
//! * `analyze_flat_in_chain_length` — analysis stays linear in call
//!   depth: `4·t(arith_chain(100)) / t(arith_chain(400)) ≥ 0.5`, each
//!   `t` the median of 9 runs of `analyze_module` over every lowered
//!   module of the set. A solver that re-solves the module once per
//!   call level is quadratic on a chain and scores about 0.25; the
//!   callee-first solver scores about 1.
//!
//! Both matter because the analyzer's share depends on the program:
//! on the scenario corpus typecheck and lowering cost more, but on a
//! long call chain a quadratic analysis would outgrow them both.
//!
//! Series reported:
//!
//! * `analyze_all_modules` — `analyze_module` over every lowered
//!   scenario module (the exact Stage::Analyze work);
//! * `cold_compile` — the full static pipeline, analysis off, on a
//!   fresh engine (the baseline the 30% budget is against).

use criterion::{criterion_group, criterion_main, Criterion};
use richwasm_analyze::analyze_module;
use richwasm_bench::median_of;
use richwasm_bench::workloads::{
    arith_chain, churn, counter_client, counter_library, ml_tower, stash_client, stash_module,
};
use richwasm_repro::engine::{Analysis, Engine, EngineConfig, ModuleSet};
use richwasm_wasm::ast::Module;

fn scenario_sets() -> Vec<ModuleSet> {
    vec![
        ModuleSet::new()
            .ml("ml", stash_module(false))
            .l3("l3", stash_client())
            .entry("l3"),
        ModuleSet::new()
            .l3("gfx", counter_library())
            .ml("app", counter_client())
            .entry("app"),
        ModuleSet::new().ml("tower", ml_tower(4)),
        ModuleSet::new().richwasm("chain", arith_chain(64)),
        ModuleSet::new().richwasm("m", churn(50)),
    ]
}

/// Every lowered module of `sets`, compiled once without analysis, so
/// analyzing them is exactly the Stage::Analyze work.
fn lowered(sets: &[ModuleSet]) -> Vec<Module> {
    let off = Engine::with_config(EngineConfig::new().analysis(Analysis::Off));
    sets.iter()
        .flat_map(|set| {
            off.compile(set)
                .unwrap()
                .lowered_modules()
                .iter()
                .map(|(_, wm)| wm.clone())
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Median wall time of analyzing `modules`, in nanoseconds.
fn median_analyze_ns(samples: usize, modules: &[Module]) -> f64 {
    median_of(samples, || {
        for wm in modules {
            criterion::black_box(analyze_module(wm));
        }
    })
    .as_nanos()
    .max(1) as f64
}

fn bench(c: &mut Criterion) {
    let sets = scenario_sets();
    let modules = lowered(&sets);
    assert!(!modules.is_empty());

    let mut g = c.benchmark_group("e13_analyze");
    g.sample_size(20);
    g.bench_function("analyze_all_modules", |b| {
        b.iter(|| {
            for wm in &modules {
                criterion::black_box(analyze_module(wm));
            }
        });
    });
    g.bench_function("cold_compile", |b| {
        b.iter(|| {
            // A fresh engine per iteration: no in-memory cache hit, no
            // cache_dir, so every compile pays the full static pipeline.
            let engine = Engine::with_config(EngineConfig::new().analysis(Analysis::Off));
            for set in &sets {
                criterion::black_box(engine.compile(set).unwrap());
            }
        });
    });
    g.finish();

    let samples = 11;
    let analyze_ns = median_analyze_ns(samples, &modules);
    let cold_ns = median_of(samples, || {
        let engine = Engine::with_config(EngineConfig::new().analysis(Analysis::Off));
        for set in &sets {
            criterion::black_box(engine.compile(set).unwrap());
        }
    })
    .as_nanos()
    .max(1) as f64;

    println!(
        "e13: analyze {:.2}ms vs cold compile {:.2}ms ({:.1}% overhead)",
        analyze_ns / 1e6,
        cold_ns / 1e6,
        100.0 * analyze_ns / cold_ns
    );
    // Analysis must cost ≤ 30% of a cold compile: cold/analyze ≥ 10/3.
    criterion::acceptance(
        "e13_analyze/cold_compile_over_analyze",
        cold_ns / analyze_ns,
        10.0 / 3.0,
    );

    // Linear in call depth: a chain four times as long may cost at most
    // twice four times as much to analyze.
    let chain_ns = |n: usize| {
        median_analyze_ns(
            9,
            &lowered(&[ModuleSet::new().richwasm("chain", arith_chain(n))]),
        )
    };
    let (short_ns, long_ns) = (chain_ns(100), chain_ns(400));
    println!(
        "e13: analyze arith_chain(100) {:.2}ms, arith_chain(400) {:.2}ms",
        short_ns / 1e6,
        long_ns / 1e6
    );
    criterion::acceptance(
        "e13_analyze/analyze_flat_in_chain_length",
        4.0 * short_ns / long_ns,
        0.5,
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);

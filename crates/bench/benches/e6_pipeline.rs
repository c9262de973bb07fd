//! **E6** — the compilation driver itself, end to end.
//!
//! Series reported:
//!
//! * `e1_differential_end_to_end` — the whole five-stage path (two
//!   frontends → typecheck → lower → validate → encode → execute on both
//!   interpreters + cross-check) for the Fig. 3 interop scenario, i.e.
//!   the cost of the paper's full workflow on its headline example. A
//!   **fresh engine per iteration** keeps every compile cold — this
//!   series measures the static pipeline, not the cache (E7 measures
//!   the cache);
//! * `e1_interp_only_end_to_end` — the same scenario skipping the Wasm
//!   half, isolating the lowering pipeline's share;
//! * `counter_build_wasm_only` — frontends through binary encoding for
//!   the Fig. 9 counter (compile-time only, no execution);
//! * `differential_bump_dispatch` — per-invocation cost of the engine's
//!   differential mode (both backends + comparison) against the raw
//!   interpreter cost measured in E2.
//!
//! Two acceptance gates:
//!
//! * `interp_over_wasm_compile` — a Wasm-bound compile type checks each
//!   function body once, inside lowering, so it costs at most twice an
//!   interpreter-only compile (which checks every body but lowers
//!   nothing): t(`Exec::Interp`) / t(`Exec::Wasm`) ≥ 0.5 for a cold
//!   compile of `ml_tower(6)` with analysis off, each `t` the median of
//!   9 runs. On a shared 2-vCPU container, checking once scores
//!   0.58–0.65 now that the checker is linear; it read 0.83–0.99 while
//!   the checker rewrote its whole state at every unpack (checking was then
//!   most of both compiles). It scored 0.50–0.68 while lowering gave
//!   every indirect call one arm per table entry instead of one per
//!   callee shape, and an engine that checked every body in its
//!   `Typecheck` stage and again while lowering scored about 0.37 under
//!   that lowering.
//! * `check_linear_in_depth` — the instruction checker runs in time
//!   linear in program size: `ml_tower(d + 1)` is twice the size of
//!   `ml_tower(d)`, so 2·t(`check_module(ml_tower(6))`) /
//!   t(`check_module(ml_tower(7))`) ≥ 0.75, each `t` the median of 9
//!   runs, the two depths interleaved. A linear checker scores about 1.0
//!   (0.92–0.97 on a shared 2-vCPU container; timed one depth after the
//!   other instead, single bursts spread it over 0.62–3.30). One that
//!   shifted every stored type at each `mem.unpack`/`exist.unpack`
//!   scored 0.54–0.66.

use criterion::{criterion_group, criterion_main, Criterion};
use richwasm::syntax::Value;
use richwasm::typecheck::check_module;
use richwasm_bench::median_of;
use richwasm_bench::workloads::{
    counter_client, counter_library, ml_tower, stash_client, stash_module,
};
use richwasm_repro::engine::{Analysis, Engine, EngineConfig, Exec, ModuleSet};
use std::hint::black_box;
use std::time::Instant;

fn stash_set() -> ModuleSet {
    ModuleSet::new()
        .ml("ml", stash_module(false))
        .l3("l3", stash_client())
        .entry("l3")
}

fn counter_set() -> ModuleSet {
    ModuleSet::new()
        .l3("gfx", counter_library())
        .ml("app", counter_client())
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e6_pipeline");
    g.sample_size(15);

    g.bench_function("e1_differential_end_to_end", |b| {
        b.iter(|| {
            // Fresh engine: deliberately cold, so the full static path is
            // inside the measurement.
            let engine = Engine::new();
            let artifact = engine.compile(&stash_set()).unwrap();
            let mut inst = artifact.instantiate().unwrap();
            assert_eq!(inst.invoke_entry().unwrap().i32(), Some(42));
            artifact.timings().total()
        });
    });

    g.bench_function("e1_interp_only_end_to_end", |b| {
        b.iter(|| {
            let engine = Engine::with_config(EngineConfig::new().exec(Exec::Interp));
            let artifact = engine.compile(&stash_set()).unwrap();
            let mut inst = artifact.instantiate().unwrap();
            assert_eq!(inst.invoke_entry().unwrap().i32(), Some(42));
            artifact.timings().total()
        });
    });

    g.bench_function("counter_build_wasm_only", |b| {
        b.iter(|| {
            let engine = Engine::with_config(EngineConfig::new().exec(Exec::Wasm));
            let artifact = engine.compile(&counter_set()).unwrap();
            assert!(!artifact.wasm_binaries().is_empty());
            artifact
                .wasm_binaries()
                .iter()
                .map(|(_, bytes)| bytes.len())
                .sum::<usize>()
        });
    });

    g.bench_function("differential_bump_dispatch", |b| {
        let engine = Engine::new();
        let mut inst = engine.instantiate(&counter_set()).unwrap();
        inst.invoke("app", "setup", vec![Value::i32(1)]).unwrap();
        b.iter(|| inst.invoke("app", "bump", vec![Value::Unit]).unwrap());
    });

    g.finish();

    // The two depths are timed in interleaved rounds, alternating which
    // runs first, so a neighbour's burst on a shared machine slows both.
    let towers = [6, 7].map(|d| richwasm_ml::compile_module(&ml_tower(d)).unwrap());
    let mut times = [Vec::new(), Vec::new()];
    for round in 0..9 {
        for k in [round % 2, 1 - round % 2] {
            let t0 = Instant::now();
            black_box(check_module(&towers[k]).unwrap());
            times[k].push(t0.elapsed());
        }
    }
    let [t6, t7] = times.map(|mut ts| {
        ts.sort();
        ts[ts.len() / 2].as_nanos().max(1) as f64
    });
    println!(
        "e6: check_module: ml_tower(6) {:.2}ms, ml_tower(7) {:.2}ms",
        t6 / 1e6,
        t7 / 1e6
    );
    criterion::acceptance("e6_pipeline/check_linear_in_depth", 2.0 * t6 / t7, 0.75);

    // A fresh engine per run keeps every compile cold.
    let tower = ModuleSet::new().ml("tower", ml_tower(6));
    let cold_compile_ns = |exec: Exec| {
        median_of(9, || {
            Engine::with_config(EngineConfig::new().exec(exec).analysis(Analysis::Off))
                .compile(&tower)
                .unwrap()
        })
        .as_nanos()
        .max(1) as f64
    };
    let (interp_ns, wasm_ns) = (cold_compile_ns(Exec::Interp), cold_compile_ns(Exec::Wasm));
    println!(
        "e6: cold compile of ml_tower(6): interp-only {:.2}ms, wasm {:.2}ms",
        interp_ns / 1e6,
        wasm_ns / 1e6
    );
    criterion::acceptance(
        "e6_pipeline/interp_over_wasm_compile",
        interp_ns / wasm_ns,
        0.5,
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);

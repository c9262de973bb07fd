//! **E2** — Fig. 9: the linear-library / GC'd-client counter, end to end
//! on both backends.
//!
//! Series reported: per-`bump` cost on (a) the RichWasm small-step
//! interpreter and (b) the compiled WebAssembly running on our Wasm
//! substrate. The paper's qualitative claim — that the type machinery
//! (capabilities, qualifiers, existentials) is erased and costs nothing
//! at the Wasm level — shows up as (b) being dominated purely by the
//! allocator and arithmetic.
//!
//! Both backends are set up by one `Engine` (the counter artifact is
//! compiled once and cached; each series instantiates its own backend);
//! the timed loop then invokes the extracted interpreter directly so the
//! numbers measure execution, not driver dispatch.

use criterion::{criterion_group, criterion_main, Criterion};
use richwasm::syntax::Value;
use richwasm_bench::workloads::{counter_client, counter_library};
use richwasm_repro::engine::{Engine, EngineConfig, Exec, ModuleSet};
use richwasm_wasm::exec::Val;

fn counter_set() -> ModuleSet {
    ModuleSet::new()
        .l3("gfx", counter_library())
        .ml("app", counter_client())
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e2_counter");
    g.sample_size(20);

    g.bench_function("bump_richwasm_interp", |b| {
        let engine = Engine::with_config(EngineConfig::new().exec(Exec::Interp));
        let mut inst = engine.instantiate(&counter_set()).unwrap();
        let mut rt = inst.richwasm.take().unwrap();
        let app_i = rt.instance_by_name("app").unwrap();
        rt.invoke(app_i, "setup", vec![Value::i32(1)]).unwrap();
        b.iter(|| rt.invoke(app_i, "bump", vec![Value::Unit]).unwrap().steps);
    });

    g.bench_function("bump_lowered_wasm", |b| {
        let engine = Engine::with_config(EngineConfig::new().exec(Exec::Wasm));
        let mut inst = engine.instantiate(&counter_set()).unwrap();
        let mut linker = inst.wasm.take().unwrap();
        let app_w = linker.instance_by_name("app").unwrap();
        linker.invoke(app_w, "setup", &[Val::I32(1)]).unwrap();
        b.iter(|| linker.invoke(app_w, "bump", &[]).unwrap());
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

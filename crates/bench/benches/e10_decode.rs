//! **E10** — the economics of consuming *precompiled* modules: strict
//! binary decode (+ re-validation) versus the full static pipeline, on
//! the E1 interop workload's `.wasm` bytes.
//!
//! This is the persistent-cache path's cost model: a disk hit pays
//! decode + validate of the stored bytes; a cold compile pays frontend +
//! substructural typecheck + whole-program lowering + validate + encode.
//! The gap between the two is what `EngineConfig::cache_dir` (and
//! `Engine::load_wasm` for externally produced modules) buys.
//!
//! Series reported:
//!
//! * `decode_only` — `decode_module` over every scenario binary;
//! * `decode_validate` — the full untrusted-bytes admission path;
//! * `artifact_deserialize` — a whole serialized artifact loaded back
//!   (framing + checksum + decode + validate per module, then the
//!   bytecode rebuilt from the validated modules);
//! * `full_pipeline_cold` — the same modules from source on a fresh
//!   engine.
//!
//! The per-byte throughput of the admission path is printed, and the
//! acceptance gate requires decode+validate to beat the full pipeline by
//! ≥ 3× (in practice it is far more — the substructural check dominates).

use criterion::{criterion_group, criterion_main, Criterion};
use richwasm_bench::median_of;
use richwasm_bench::workloads::{stash_client, stash_module};
use richwasm_repro::engine::{Artifact, Engine, EngineConfig, Exec, ModuleSet};
use richwasm_wasm::decode::decode_module;
use richwasm_wasm::validate_module;

fn stash_set() -> ModuleSet {
    ModuleSet::new()
        .ml("ml", stash_module(false))
        .l3("l3", stash_client())
        .entry("l3")
}

fn wasm_config() -> EngineConfig {
    EngineConfig::new().exec(Exec::Wasm)
}

fn bench(c: &mut Criterion) {
    let engine = Engine::with_config(wasm_config());
    let artifact = engine.compile(&stash_set()).unwrap();
    let binaries: Vec<(String, Vec<u8>)> = artifact.wasm_binaries().to_vec();
    let total_bytes: usize = binaries.iter().map(|(_, b)| b.len()).sum();
    let serialized = artifact
        .serialize()
        .expect("Exec::Wasm artifact serializes");
    assert!(total_bytes > 0);

    let mut g = c.benchmark_group("e10_decode");
    g.sample_size(20);

    g.bench_function("decode_only", |b| {
        b.iter(|| {
            for (_, bytes) in &binaries {
                decode_module(bytes).unwrap();
            }
        });
    });

    g.bench_function("decode_validate", |b| {
        b.iter(|| {
            for (_, bytes) in &binaries {
                let m = decode_module(bytes).unwrap();
                validate_module(&m).unwrap();
            }
        });
    });

    g.bench_function("artifact_deserialize", |b| {
        b.iter(|| Artifact::deserialize(&serialized).unwrap());
    });

    g.bench_function("full_pipeline_cold", |b| {
        b.iter(|| {
            Engine::with_config(wasm_config())
                .compile(&stash_set())
                .unwrap()
        });
    });

    g.finish();

    // The acceptance numbers, measured directly (median-of-9, outside the
    // sampled series, so the printed figures are the gated ones).
    let decode_validate = median_of(9, || {
        for (_, bytes) in &binaries {
            let m = decode_module(bytes).unwrap();
            validate_module(&m).unwrap();
        }
    });
    let cold = median_of(9, || {
        Engine::with_config(wasm_config())
            .compile(&stash_set())
            .unwrap()
    });

    let mb_per_s = total_bytes as f64 / 1e6 / decode_validate.as_secs_f64().max(1e-12);
    println!(
        "e10_decode: {} modules, {total_bytes} bytes (E1 interop)",
        binaries.len()
    );
    println!("  decode+validate         {decode_validate:>12.2?}  ({mb_per_s:.1} MB/s)");
    println!("  full pipeline (cold)    {cold:>12.2?}");

    criterion::acceptance(
        "e10_decode/decode_validate_vs_full_pipeline",
        cold.as_nanos() as f64 / decode_validate.as_nanos().max(1) as f64,
        3.0,
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);

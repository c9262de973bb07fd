//! The benchmark's self-test: every workload at tiny size, untraced and
//! traced, twice with one seed.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::collections::BTreeMap;

use crate::{listed, run, Params, END_TO_END, PER_LAYER, WORKLOADS};

fn tiny(seed: u64, trace: bool) -> Params {
    Params {
        seed,
        seconds: 0.3,
        trace,
        tiny: true,
        trace_out: None,
    }
}

/// One untraced and one traced run: every metric, by name.
fn both(workload: &str, seed: u64) -> BTreeMap<&'static str, (f64, &'static str)> {
    let names: Vec<&str> = [END_TO_END, PER_LAYER]
        .into_iter()
        .flat_map(listed)
        .map(|(n, _)| n)
        .collect();
    let mut out = BTreeMap::new();
    for trace in [false, true] {
        let report = run(workload, &tiny(seed, trace)).expect("the workload runs");
        assert!(report.attempted > 0, "{workload}: no ops attempted");
        assert_eq!(
            report.failed, 0,
            "{workload} (trace {trace}): fail_frac must be 0"
        );
        // A figure the run measures under a name `BENCHMARK.json` does not
        // list would never be printed.
        for name in report.values.keys() {
            assert!(
                names.contains(&name.as_str()),
                "{workload}: unlisted {name}"
            );
        }
        for (name, value, unit) in report.metrics(trace) {
            assert!(value.is_finite(), "{workload}: {name} = {value}");
            out.insert(name, (value, unit));
        }
    }
    out
}

#[test]
fn benchmark_json_lists_both_sections() {
    let e2e = listed(END_TO_END);
    let layers = listed(PER_LAYER);
    for name in [
        "ops_per_s",
        "op_p50_us",
        "setup_s",
        "peak_rss_mb",
        "wasm_bytes",
    ] {
        assert!(e2e.iter().any(|(n, _)| *n == name), "{name} not end-to-end");
    }
    assert!(layers
        .iter()
        .any(|(n, u)| *n == "wasm.steps" && *u == "count"));
    assert!(e2e.iter().all(|(n, _)| !layers.iter().any(|(m, _)| m == n)));
}

#[test]
fn every_workload_runs_clean_and_repeats_its_counts() {
    for workload in WORKLOADS {
        let first = both(workload, 7);
        let second = both(workload, 7);
        assert!(first["ops_per_s"].0 > 0.0, "{workload}: no throughput");
        assert!(first["wasm_bytes"].0 > 0.0, "{workload}: no Wasm encoded");
        // The compiler and both backends are deterministic: sizes, op
        // counts and step counts repeat exactly from the seed.
        for name in ["wasm_bytes", "bytecode.ops", "wasm.steps", "interp.steps"] {
            assert_eq!(
                first[name].0, second[name].0,
                "{workload}: {name} differs between runs"
            );
        }
    }
}

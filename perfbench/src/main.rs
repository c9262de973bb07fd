//! The repository benchmark: four seeded workloads driven through the
//! public API of the engine (`Engine`, `Artifact`, `Instance`,
//! `InstancePool`) and the server (`EngineServer`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <compile|invoke_wasm|serve_wasm|serve_default> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input is built from `--seed`; every result is checked against a
//! reference computed in closed form (`oracle.rs`). With `--trace 0` the
//! run reports the end-to-end metrics; with `--trace 1` it reports the
//! per-layer metrics from a traced run, plus the tracing overhead against
//! untraced stretches alternating with the traced ones, and writes its
//! spans to `perfbench/out/trace-<workload>.jsonl`. Human-readable lines
//! come first; the last line of standard output is one JSON object.

mod compile;
mod invoke;
mod oracle;
mod rng;
#[cfg(test)]
mod selftest;
mod serve;
mod stats;
mod table;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny inputs and short phases, for the self-test.
    pub tiny: bool,
    /// Where the traced run writes its spans (none: keep them in memory).
    pub trace_out: Option<PathBuf>,
}

/// `BENCHMARK.json`: the one list of metric names and units.
const SPEC: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`
/// (`end_to_end` or `per_layer`), in order. Each section is a flat array of
/// one-line objects, so it ends at the first `]`.
pub fn listed(section: &str) -> Vec<(&'static str, &'static str)> {
    let key = format!("\"{section}\"");
    let Some(body) = SPEC.split(key.as_str()).nth(1) else {
        return Vec::new();
    };
    let body = body.split(']').next().unwrap_or("");
    body.split(r#""name": ""#)
        .skip(1)
        .filter_map(|entry| {
            let name = entry.split('"').next()?;
            let unit = entry.split(r#""unit": ""#).nth(1)?.split('"').next()?;
            Some((name, unit))
        })
        .collect()
}

/// The sections of `BENCHMARK.json`: the end-to-end metrics every workload
/// reports with `--trace 0`, and the per-layer metrics it reports with
/// `--trace 1`. The per-layer list leads with the op p99: an end-to-end
/// figure, but on a shared virtual machine the open-loop p99 tracks the
/// host's stall rate, so it is reported from the untraced part of the
/// traced run rather than bounded. A layer that is not on a workload's
/// path reads 0 there.
pub const END_TO_END: &str = "end_to_end";
pub const PER_LAYER: &str = "per_layer";

/// Set-ups per run of `invoke_wasm` and the serving workloads; `setup_s`
/// is their median (`compile`, whose set-up is longer, does fewer). A few
/// milliseconds each; the first ones of a process run cold, so enough
/// follow that the median is a warm one.
pub const SETUPS: usize = 51;

pub const WORKLOADS: &[&str] = &["compile", "invoke_wasm", "serve_wasm", "serve_default"];

/// What one run measured.
#[derive(Default)]
pub struct Report {
    /// Ops attempted and failed (trap, mismatch, wrong result, shed).
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<String, f64>,
}

impl Report {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Counts one op, failed unless `ok`.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// The metrics this run prints, by name with unit: every end-to-end
    /// metric, or with tracing every per-layer metric.
    pub fn metrics(&self, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
        listed(if trace { PER_LAYER } else { END_TO_END })
            .into_iter()
            .map(|(n, u)| (n, self.values.get(n).copied().unwrap_or(0.0), u))
            .collect()
    }
}

pub fn run(workload: &str, p: &Params) -> Result<Report, String> {
    let mut report = match workload {
        "compile" => compile::run(p)?,
        "invoke_wasm" => invoke::run(p)?,
        "serve_wasm" => serve::run(p, serve::WASM)?,
        "serve_default" => serve::run(p, serve::DEFAULT)?,
        other => return Err(format!("unknown workload `{other}`; one of {WORKLOADS:?}")),
    };
    if p.trace {
        table::run(p, &mut report)?;
    }
    report.set("peak_rss_mb", peak_rss_mb()?);
    Ok(report)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn parse_args() -> Result<(String, Params), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                flags.insert(flag.as_str(), value.as_str());
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let get = |k: &str| flags.get(k).copied().ok_or(format!("missing {k}"));
    let workload = get("--workload")?.to_string();
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    let trace_out = trace.then(|| PathBuf::from(format!("perfbench/out/trace-{workload}.jsonl")));
    Ok((
        workload,
        Params {
            seed,
            seconds,
            trace,
            tiny: false,
            trace_out,
        },
    ))
}

fn main() -> ExitCode {
    let (workload, params) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&workload, &params) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let metrics = report.metrics(params.trace);
    if let Some((name, _, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("perfbench: {workload}: metric {name} is not a finite number");
        return ExitCode::FAILURE;
    }
    let attempted = report.attempted.max(1);
    println!(
        "{workload}: {} ops attempted, {} failed, fail_frac {}",
        report.attempted,
        report.failed,
        report.failed as f64 / attempted as f64
    );
    for (name, value, unit) in &metrics {
        println!("{name} = {value} {unit}");
    }
    for (name, value) in &report.values {
        if !metrics.iter().any(|(n, _, _)| *n == name.as_str()) {
            println!(
                "({name} = {value}, reported with --trace {})",
                u8::from(!params.trace)
            );
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!(r#""{n}": {{"value": {v}, "unit": "{u}"}}"#))
        .collect();
    println!(
        r#"{{"correct": {}, "attempted": {attempted}, "failed": {}, "metrics": {{{}}}}}"#,
        report.failed == 0,
        report.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

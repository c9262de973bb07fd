//! `invoke_wasm`: a closed loop through `Instance::invoke` on one
//! `Exec::Wasm` instance. Each round runs `churn(~2000)` `main`, the Fig. 9
//! counter (`setup(step)`, `k × bump`, `total`), and `arith_chain` `main(x)`,
//! then one `Instance::reset`. The bytecode VM does most of the work;
//! reset and compile do little.

use std::collections::BTreeMap;
use std::time::Instant;

use richwasm_bench::workloads::{arith_chain, churn, counter_client, counter_library};
use richwasm_repro::engine::{Artifact, Engine, EngineConfig, Exec, ModuleSet};

use crate::compile::{bytecode_ops, encoded_bytes};
use crate::oracle::{invoke_all, replay_backends, Call, Steps};
use crate::rng::Rng;
use crate::stats::{median, pass_rate, quantile, slot_min};
use crate::trace::Tracer;
use crate::{Params, Report};

/// Rounds whose backend steps the traced run counts: a fixed prefix of
/// the seeded stream, so the count repeats exactly from the seed.
pub const CENSUS_OPS: usize = 256;

/// Compiles `set` under `Exec::Wasm` and `Exec::Interp` and times
/// `Artifact::instantiate` of each (median of five).
pub fn instantiate_probe(set: &ModuleSet, report: &mut Report) -> Result<(), String> {
    for (metric, exec) in [
        ("instantiate.wasm_us", Exec::Wasm),
        ("instantiate.interp_us", Exec::Interp),
    ] {
        let art = Engine::with_config(EngineConfig::new().exec(exec))
            .compile(set)
            .map_err(|e| e.to_string())?;
        let mut us = Vec::new();
        for _ in 0..5 {
            let t = Instant::now();
            let inst = art.instantiate().map_err(|e| e.to_string())?;
            us.push(t.elapsed().as_secs_f64() * 1e6);
            drop(inst);
        }
        report.set(metric, median(&us));
    }
    Ok(())
}

pub fn artifact_bytecode_ops(a: &Artifact) -> f64 {
    a.lowered_modules()
        .iter()
        .map(|(_, m)| bytecode_ops(&richwasm_repro::wasm::compile_module(m)))
        .sum::<usize>() as f64
}

pub fn run(p: &Params) -> Result<Report, String> {
    let mut report = Report::default();
    let mut rng = Rng::new(p.seed);
    let (churn_n, arith_n) = if p.tiny {
        (50, 5)
    } else {
        (1984 + rng.range(0, 33) as u32, 50)
    };
    let set = ModuleSet::new()
        .richwasm("churn", churn(churn_n))
        .l3("gfx", counter_library())
        .ml("client", counter_client())
        .richwasm("arith", arith_chain(arith_n as usize));
    // A short stream, passed about every 50 ms: each of its rounds gets a
    // sample in any quiet spell longer than that (`stats.rs`).
    let rounds: Vec<Vec<Call>> = (0..128)
        .map(|_| {
            let step = rng.range(1, 10) as i32;
            let k = rng.range(4, 13) as u32;
            let x = rng.range(0, 2001) as i32 - 1000;
            let mut calls = vec![Call::churn("churn", churn_n)];
            calls.extend(Call::counter("client", step, k));
            calls.push(Call::arith("arith", arith_n, x));
            calls
        })
        .collect();

    // Set-up: compile and instantiate; repeated, and the median reported.
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..crate::SETUPS {
        let t = Instant::now();
        let art = Engine::with_config(EngineConfig::new().exec(Exec::Wasm))
            .compile(&set)
            .map_err(|e| e.to_string())?;
        let inst = art.instantiate().map_err(|e| e.to_string())?;
        setups.push(t.elapsed().as_secs_f64());
        built = Some((art, inst));
    }
    let (art, mut inst) = built.expect("set-up ran");
    report.set("setup_s", median(&setups));
    report.set("wasm_bytes", encoded_bytes(&art) as f64);

    // Runs rounds for `secs` (a traced run at least `CENSUS_OPS`), adding
    // the backend steps of the first `CENSUS_OPS` replays to `steps`.
    // Every call starts at the head of the stream, so those are the same
    // rounds on every run with this seed.
    let mut loop_for = |secs: f64, tr: &mut Tracer, steps: &mut Steps, report: &mut Report| {
        let mut lat = Vec::new();
        let t0 = Instant::now();
        while t0.elapsed().as_secs_f64() < secs || (tr.on() && lat.len() < CENSUS_OPS) {
            let calls = &rounds[lat.len() % rounds.len()];
            let op = tr.next_op();
            let id = tr.begin("op", op);
            let t = Instant::now();
            let mut ok = invoke_all(&mut inst, calls, tr, op);
            ok &= tr.time("reset", op, || inst.reset()).is_ok();
            lat.push(t.elapsed().as_secs_f64() * 1e6);
            tr.end(id);
            if tr.on() {
                let mut scratch = Steps::default();
                let s = if lat.len() <= CENSUS_OPS {
                    &mut *steps
                } else {
                    &mut scratch
                };
                ok &= replay_backends(&mut inst, calls, tr, op, s);
            }
            report.op(ok);
        }
        lat
    };

    if !p.trace {
        let lat = loop_for(
            p.seconds,
            &mut Tracer::new(false),
            &mut Steps::default(),
            &mut report,
        );
        // The p99 is the whole run's: in a closed loop it is set by the
        // rounds with the most counter bumps, not by stalls.
        // The stream repeats, so each of its rounds is taken at its fastest
        // (`stats.rs`).
        let fastest = slot_min(&lat, rounds.len());
        report.set("ops_per_s", pass_rate(&fastest));
        report.set("op_p50_us", median(&fastest));
        report.set("op_p99_us", quantile(&lat, 0.99));
        println!(
            "invoke_wasm: churn({churn_n}), arith_chain({arith_n}); {} rounds, {} passes of the \
             stream; median of all {:.1} us",
            lat.len(),
            lat.len() / rounds.len(),
            median(&lat)
        );
        return Ok(report);
    }

    // Untraced and traced stretches alternate, so the tracing overhead
    // compares rounds run under the same machine conditions.
    let (mut off, mut tr) = (Tracer::new(false), Tracer::new(true));
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut steps = Steps::default();
    let t0 = Instant::now();
    while traced.is_empty() || t0.elapsed().as_secs_f64() < p.seconds {
        untraced.extend(loop_for(0.5, &mut off, &mut Steps::default(), &mut report));
        let mut scratch = Steps::default();
        let s = if traced.is_empty() {
            &mut steps
        } else {
            &mut scratch
        };
        traced.extend(loop_for(0.5, &mut tr, s, &mut report));
    }
    report.set("op_p99_us", quantile(&untraced, 0.99));
    let invoke = tr.per_op_us("engine.invoke");
    let wasm = tr.per_op_us("wasm.invoke");
    let reset = tr.per_op_us("reset");
    let reset_wasm = tr.per_op_us("reset.wasm");
    let vals = |m: &BTreeMap<u64, f64>| m.values().copied().collect::<Vec<_>>();
    let self_us: Vec<f64> = invoke.iter().map(|(o, v)| (v - wasm[o]).max(0.0)).collect();
    let reset_rest: Vec<f64> = reset
        .iter()
        .map(|(o, v)| (v - reset_wasm[o]).max(0.0))
        .collect();
    let path: Vec<f64> = invoke.keys().map(|o| invoke[o] + reset[o]).collect();
    report.set("wasm.invoke_us", median(&vals(&wasm)));
    report.set("wasm.steps", steps.wasm as f64);
    report.set("engine.invoke.self_us", median(&self_us));
    report.set("reset.wasm_us", median(&vals(&reset_wasm)));
    report.set("reset.interp_us", median(&reset_rest));
    report.set("bytecode.ops", artifact_bytecode_ops(&art));
    instantiate_probe(&set, &mut report)?;
    crate::trace::summarize(&tr, &mut report, &untraced, &traced, &path, p)?;
    Ok(report)
}

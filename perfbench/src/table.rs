//! The baseline table: compile, instantiate, invoke and reset of
//! `churn(200)` in the four configurations — `Exec::Differential` (the
//! default), `Exec::Interp`, `Exec::Wasm` on the bytecode tier and on the
//! tree-walker. Each figure is a median of repeated calls: cold compiles
//! through fresh engines, instantiations of one artifact, and invokes of
//! one instance, each followed by a reset.

use std::time::Instant;

use richwasm_bench::workloads::churn;
use richwasm_repro::engine::{Engine, EngineConfig, Exec, ModuleSet, WasmTier};

use crate::oracle::Call;
use crate::stats::median;
use crate::{Params, Report};

const CONFIGS: [(&str, Exec, WasmTier); 4] = [
    ("differential", Exec::Differential, WasmTier::Bytecode),
    ("interp", Exec::Interp, WasmTier::Bytecode),
    ("wasm", Exec::Wasm, WasmTier::Bytecode),
    ("wasm_tree", Exec::Wasm, WasmTier::Tree),
];

const PHASES: [&str; 4] = ["compile", "instantiate", "invoke", "reset"];

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

pub fn run(p: &Params, report: &mut Report) -> Result<(), String> {
    let reps = if p.tiny { 3 } else { 21 };
    let set = ModuleSet::new().richwasm("churn", churn(200));
    let call = Call::churn("churn", 200);
    println!("| config (churn(200), median of {reps}) | compile | instantiate | invoke | reset |");
    println!("|---|---|---|---|---|");
    for (label, exec, tier) in CONFIGS {
        let config = EngineConfig::new().exec(exec).wasm_tier(tier);
        let mut cols = [const { Vec::new() }; 4];
        let mut art = None;
        for _ in 0..reps {
            let t = Instant::now();
            let a = Engine::with_config(config.clone())
                .compile(&set)
                .map_err(|e| e.to_string())?;
            cols[0].push(us(t));
            art = Some(a);
        }
        let art = art.expect("at least one compile");
        for _ in 0..reps {
            let t = Instant::now();
            let inst = art.instantiate().map_err(|e| e.to_string())?;
            cols[1].push(us(t));
            drop(inst);
        }
        let mut inst = art.instantiate().map_err(|e| e.to_string())?;
        for _ in 0..reps {
            let t = Instant::now();
            let r = inst.invoke(call.module, call.func, vec![]);
            cols[2].push(us(t));
            report.op(r.is_ok_and(|inv| call.accepts(&inv)));
            let t = Instant::now();
            inst.reset().map_err(|e| e.to_string())?;
            cols[3].push(us(t));
        }
        let meds: Vec<f64> = cols.iter().map(|c| median(c)).collect();
        for (phase, v) in PHASES.into_iter().zip(&meds) {
            report.set(format!("table.{label}.{phase}_us"), *v);
        }
        println!(
            "| {label} | {:.1} us | {:.1} us | {:.1} us | {:.1} us |",
            meds[0], meds[1], meds[2], meds[3]
        );
    }
    Ok(())
}

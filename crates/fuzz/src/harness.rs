//! The per-case harness: one generated program through the full engine
//! path, with every divergence classified.
//!
//! Each case gets a **fresh** engine (no artifact-cache contamination
//! between cases) configured with `Analysis::Deny` — the `richwasm-
//! analyze` re-verifier is a second, independent judge of every lowered
//! module — and differential execution, so each invocation runs on both
//! the RichWasm tree interpreter and the lowered-Wasm interpreter and
//! the results are cross-checked. On top of the engine's own checks the
//! harness adds a binary round-trip (decode∘encode = id on every
//! emitted `.wasm`) and a determinism probe (reset + re-invoke must
//! agree with the first run).
//!
//! The engine's Wasm backend runs the flat-bytecode VM. For host-free
//! cases the harness also runs every entry invocation on a bare
//! tree-walking [`WasmLinker`] built from the artifact's lowered
//! modules, and the tree-walker must match the VM's results bit for
//! bit, its trap message, and its exact step count. Each such case is a
//! **three-way** differential (RichWasm interpreter × bytecode VM ×
//! Wasm tree-walker). Cases with host imports skip the tree-walker
//! (a second store would run the host closures again); the RichWasm
//! interpreter still cross-checks them.
//!
//! Every entry invocation that completes normally is also checked
//! against the analyzer's static fuel bounds: the bytecode VM's metered
//! steps must be at least the export's `min_steps`, and at most its
//! `max_steps` where that bound is finite. Runs that trap or exhaust
//! their fuel are exempt, because the bounds only cover normal
//! completion.

use richwasm_repro::analyze::Bound;
use richwasm_repro::engine::{
    Analysis, Artifact, Engine, EngineConfig, Instance, Invocation, PipelineError,
    PipelineErrorKind,
};
use richwasm_wasm::binary::encode_module;
use richwasm_wasm::decode_module;
use richwasm_wasm::exec::{Val, WasmLinker};

use crate::program::FuzzProgram;

/// Fuel budget per case — generous (generated loops are bounded by
/// construction, so exhaustion indicates a generator or pipeline bug,
/// which is exactly what the `FuelExhausted` class reports).
const CASE_FUEL: u64 = 50_000_000;

/// Classification of a failing case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The checker (or a frontend) rejected a generated — supposedly
    /// well-typed — program: a generator or checker bug.
    Rejected,
    /// Lowering, validation, analysis, or linking failed.
    Pipeline,
    /// An emitted binary did not survive decode∘encode.
    RoundTrip,
    /// A backend trapped at runtime (generated programs are trap-free
    /// by construction).
    Trap,
    /// The two backends disagreed — the headline soundness signal.
    Mismatch,
    /// The fuel budget ran out (generated loops are bounded; this
    /// indicates a lowering or interpreter bug, e.g. a loop that lost
    /// its exit).
    FuelExhausted,
    /// Reset + re-invoke produced a different agreed result.
    Nondeterminism,
    /// A completed run's metered steps fell outside the analyzer's
    /// static `min_steps`/`max_steps` bounds for the entry export.
    StaticBound,
}

impl FailureKind {
    /// Stable snake_case name (stats JSON keys).
    pub fn name(self) -> &'static str {
        match self {
            FailureKind::Rejected => "rejected",
            FailureKind::Pipeline => "pipeline",
            FailureKind::RoundTrip => "round_trip",
            FailureKind::Trap => "trap",
            FailureKind::Mismatch => "mismatch",
            FailureKind::FuelExhausted => "fuel_exhausted",
            FailureKind::Nondeterminism => "nondeterminism",
            FailureKind::StaticBound => "static_bound",
        }
    }

    /// All kinds, in stats order.
    pub const ALL: [FailureKind; 8] = [
        FailureKind::Rejected,
        FailureKind::Pipeline,
        FailureKind::RoundTrip,
        FailureKind::Trap,
        FailureKind::Mismatch,
        FailureKind::FuelExhausted,
        FailureKind::Nondeterminism,
        FailureKind::StaticBound,
    ];
}

/// The outcome of running one case.
#[derive(Debug)]
pub enum CaseOutcome {
    /// Both backends agreed, twice, and every static check passed.
    Ok {
        /// The agreed entry result.
        value: i32,
    },
    /// Something diverged; `detail` is human-readable.
    Failed {
        /// The failure class.
        kind: FailureKind,
        /// What exactly happened.
        detail: String,
    },
}

impl CaseOutcome {
    /// Whether the case passed.
    pub fn is_ok(&self) -> bool {
        matches!(self, CaseOutcome::Ok { .. })
    }
}

fn classify(e: &PipelineError) -> FailureKind {
    if e.is_static_rejection() {
        return FailureKind::Rejected;
    }
    if e.is_fuel_exhausted() {
        return FailureKind::FuelExhausted;
    }
    match &e.kind {
        PipelineErrorKind::Mismatch { .. } => FailureKind::Mismatch,
        PipelineErrorKind::Runtime(_) | PipelineErrorKind::Wasm(_) => FailureKind::Trap,
        _ => FailureKind::Pipeline,
    }
}

fn fail(kind: FailureKind, detail: impl Into<String>) -> CaseOutcome {
    CaseOutcome::Failed {
        kind,
        detail: detail.into(),
    }
}

/// The bytecode VM's outcome of an invocation, when it reached the
/// Wasm backend: its results, or its trap message.
fn vm_outcome(run: &Result<Invocation, PipelineError>) -> Option<Result<Vec<Val>, String>> {
    match run {
        Ok(inv) => inv.wasm.clone().map(Ok),
        Err(e) => match &e.kind {
            PipelineErrorKind::Wasm(t) => Some(Err(t.to_string())),
            _ => None,
        },
    }
}

/// Type and bit pattern of each value, so floats compare bit for bit.
fn bits(vals: &[Val]) -> Vec<(richwasm_wasm::ValType, u64)> {
    vals.iter()
        .map(|v| {
            let b = match *v {
                Val::I32(x) => u64::from(x),
                Val::I64(x) => x,
                Val::F32(x) => u64::from(x.to_bits()),
                Val::F64(x) => x.to_bits(),
            };
            (v.ty(), b)
        })
        .collect()
}

/// A sealed tree-walking store of the artifact's lowered modules, under
/// the VM's fuel limits.
fn tree_store(artifact: &Artifact, vm: &WasmLinker) -> Result<WasmLinker, String> {
    let mut tree = WasmLinker::new();
    tree.max_steps = vm.max_steps;
    tree.max_call_depth = vm.max_call_depth;
    for (name, m) in artifact.lowered_modules() {
        tree.instantiate(name, m.clone())
            .map_err(|e| format!("tree-walker failed to instantiate `{name}`: {e}"))?;
    }
    tree.seal();
    Ok(tree)
}

/// Re-runs the entry invocation `run` of a fresh or freshly reset
/// instance on the tree-walking store, restored to its baseline, and
/// returns its disagreement with the bytecode VM, if any.
fn tier_mismatch(
    artifact: &Artifact,
    inst: &Instance,
    tree: &mut WasmLinker,
    run: &Result<Invocation, PipelineError>,
) -> Option<String> {
    let vm = inst.wasm.as_ref()?;
    let vm_out = vm_outcome(run)?;
    tree.reset().expect("the tree-walking store is sealed");
    let entry = tree.instance_by_name(artifact.entry()?)?;
    let tree_out = tree
        .invoke(entry, artifact.entry_func(), &[])
        .map_err(|e| e.to_string());
    let agree = match (&vm_out, &tree_out) {
        (Ok(a), Ok(b)) => bits(a) == bits(b),
        (Err(a), Err(b)) => a == b,
        _ => false,
    };
    (!agree || vm.last_steps() != tree.last_steps()).then(|| {
        format!(
            "bytecode VM: {vm_out:?} in {} steps; tree-walker: {tree_out:?} in {} steps",
            vm.last_steps(),
            tree.last_steps()
        )
    })
}

/// Checks a completed entry run's metered Wasm steps against the
/// analyzer's static bounds for the entry export, and returns the
/// violation, if any.
fn bound_violation(artifact: &Artifact, inst: &Instance) -> Option<String> {
    let steps = inst.wasm.as_ref()?.last_steps();
    let (module, func) = (artifact.entry()?, artifact.entry_func());
    if let Some(min) = artifact.static_min_steps(module, func) {
        if steps < min {
            return Some(format!(
                "`{module}.{func}` completed in {steps} steps, below its static minimum {min}"
            ));
        }
    }
    let (_, report) = artifact.analysis().iter().find(|(n, _)| n == module)?;
    match report.cost.export(func)?.max_steps {
        Bound::Finite(max) if steps > max => Some(format!(
            "`{module}.{func}` completed in {steps} steps, above its static maximum {max}"
        )),
        _ => None,
    }
}

/// Runs one case end to end. See the module docs for the exact checks.
pub fn run_case(prog: &FuzzProgram) -> CaseOutcome {
    let mut cfg = EngineConfig::new().analysis(Analysis::Deny).fuel(CASE_FUEL);
    if let Some(n) = prog.gc_every {
        cfg = cfg.auto_gc_every(n);
    }
    let engine = Engine::with_config(cfg);

    // Static half: frontends, checker, lowering, validation, analysis.
    let artifact = match engine.compile(&prog.module_set()) {
        Ok(a) => a,
        Err(e) => return fail(classify(&e), e.to_string()),
    };

    // Binary round-trip on every emitted `.wasm`.
    for (name, bytes) in artifact.wasm_binaries() {
        match decode_module(bytes) {
            Ok(m) => {
                let re = encode_module(&m);
                if re != *bytes {
                    return fail(
                        FailureKind::RoundTrip,
                        format!(
                            "module `{name}`: re-encoded binary differs ({} vs {} bytes)",
                            re.len(),
                            bytes.len()
                        ),
                    );
                }
            }
            Err(e) => {
                return fail(
                    FailureKind::RoundTrip,
                    format!("module `{name}` failed to decode: {e}"),
                );
            }
        }
    }

    // Dynamic half: differential invocation, twice (determinism probe),
    // each checked against the tree-walker on host-free cases.
    let mut inst = match artifact.instantiate() {
        Ok(i) => i,
        Err(e) => return fail(classify(&e), e.to_string()),
    };
    let mut tree = match inst.wasm.as_ref().filter(|_| prog.hosts.is_empty()) {
        Some(vm) => match tree_store(&artifact, vm) {
            Ok(tree) => Some(tree),
            Err(detail) => return fail(FailureKind::Pipeline, detail),
        },
        None => None,
    };
    let mut invoke = |inst: &mut Instance| {
        let run = inst.invoke_entry();
        let mismatch = tree
            .as_mut()
            .and_then(|tree| tier_mismatch(&artifact, inst, tree, &run));
        if let Some(detail) = mismatch {
            return Err((FailureKind::Mismatch, detail));
        }
        let out = run.map_err(|e| (classify(&e), e.to_string()))?;
        match bound_violation(&artifact, inst) {
            Some(detail) => Err((FailureKind::StaticBound, detail)),
            None => Ok(out.i32()),
        }
    };
    let first = match invoke(&mut inst) {
        Ok(v) => v,
        Err((kind, detail)) => return fail(kind, detail),
    };
    if let Err(e) = inst.reset() {
        return fail(classify(&e), format!("reset failed: {e}"));
    }
    let second = match invoke(&mut inst) {
        Ok(v) => v,
        Err((kind, detail)) => return fail(kind, format!("re-invoke after reset: {detail}")),
    };
    if first != second {
        return fail(
            FailureKind::Nondeterminism,
            format!("first run {first:?}, after reset {second:?}"),
        );
    }
    match first {
        Some(value) => CaseOutcome::Ok { value },
        None => fail(
            FailureKind::Pipeline,
            "entry returned no agreed i32 result".to_string(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::rng::Rng;
    use richwasm::typecheck::RuleCoverage;

    /// A smoke sweep across all four tiers — every case must pass.
    /// (The heavy sweeps live in `tests/farm.rs` and the CI job.)
    #[test]
    fn small_sweep_all_tiers_pass() {
        let cov = RuleCoverage::new();
        for (i, tier) in [
            gen::Tier::Raw,
            gen::Tier::Ml,
            gen::Tier::L3,
            gen::Tier::Interop,
        ]
        .into_iter()
        .cycle()
        .take(24)
        .enumerate()
        {
            let mut rng = Rng::for_case(0x5EED, i as u64);
            let prog = gen::gen_program(tier, &mut rng, &cov);
            let outcome = run_case(&prog);
            if let CaseOutcome::Failed { kind, detail } = &outcome {
                panic!(
                    "case {i} ({}) failed [{}]: {detail}\n{}",
                    tier.name(),
                    kind.name(),
                    prog.describe()
                );
            }
        }
    }
}

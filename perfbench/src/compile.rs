//! `compile`: cold `Engine::compile` of a seeded corpus of 1–2-module
//! sets, each through a fresh `Engine::new()` so every static stage runs
//! and nothing executes on the clock.
//!
//! The corpus is stratified so that every seed draws the same mix: ML
//! towers of depth 4–7 (typecheck and lower dominate), `arith_chain` of
//! 20–400 functions, one per equal-width stratum (analyze dominates the
//! long ones), `churn`, and the two interop pairs (Fig. 1/3 stash, Fig. 9
//! counter), whose two modules go through the frontends in parallel.
//! The mix puts the median set among single-module arith chains: the
//! counter pairs, whose second thread waits whenever a neighbour holds the
//! other core, sit well below it, so their slow runs do not move it.
//! Set-up (`setup_s`) builds the corpus and compiles, instantiates and
//! checks every set once; the timed compiles must then encode to the same
//! bytes. The traced run replays each compile's stages through the layer crates'
//! public functions to split its time by layer.

use std::time::Instant;

use richwasm_bench::workloads::{
    arith_chain, churn, counter_client, counter_library, ml_tower, stash_client, stash_module,
};
use richwasm_repro::engine::{Artifact, Engine, ModuleSet};
use richwasm_repro::l3::L3Module;
use richwasm_repro::lower::{lower_modules_with_plan, LinkPlan};
use richwasm_repro::ml::MlModule;
use richwasm_repro::richwasm::syntax::{Func, Instr, Module};
use richwasm_repro::richwasm::typecheck::check_module;
use richwasm_repro::wasm::{self as w, WInstr};

use crate::oracle::Call;
use crate::rng::Rng;
use crate::stats::{median, pass_rate, quantile, slot_min};
use crate::trace::Tracer;
use crate::{Params, Report};

/// Set-ups per untraced run (a traced run does one): each builds the
/// corpus and compiles, instantiates and checks every set once, about 0.7 s
/// on a 2-core virtual machine.
const CHECK_PASSES: usize = 5;

enum Src {
    Ml(MlModule),
    L3(L3Module),
    Rich(Module),
}

struct Case {
    srcs: Vec<(&'static str, Src)>,
    set: ModuleSet,
    /// The untimed check: calls and their references.
    calls: Vec<Call>,
}

impl Case {
    fn new(srcs: Vec<(&'static str, Src)>, calls: Vec<Call>) -> Case {
        let mut set = ModuleSet::new();
        for (name, src) in &srcs {
            set = match src {
                Src::Ml(m) => set.ml(*name, m.clone()),
                Src::L3(m) => set.l3(*name, m.clone()),
                Src::Rich(m) => set.richwasm(*name, m.clone()),
            };
        }
        Case { srcs, set, calls }
    }
}

/// Draws the corpus, in a seeded order that every pass repeats.
fn corpus(seed: u64, tiny: bool) -> Vec<Case> {
    let mut rng = Rng::new(seed);
    let (towers, arith_strata, arith_lo, arith_hi, pairs, churns) = if tiny {
        (2..=3, 2, 5, 20, 1, 1)
    } else {
        (4..=7, 24, 20, 400, 4, 4)
    };
    let mut cases = Vec::new();
    for d in towers {
        cases.push(Case::new(
            vec![("tower", Src::Ml(ml_tower(d)))],
            vec![Call::tower("tower", d)],
        ));
    }
    // One draw per equal-width stratum, from a narrow band at its middle:
    // the corpus's cost profile, and so its median op, is the same for
    // every seed.
    let width = (arith_hi - arith_lo) / arith_strata;
    for s in 0..arith_strata {
        let mid = arith_lo + s * width + width / 2;
        let n = rng.range(mid - 1, mid + 2) as u32;
        let x = rng.range(0, 2001) as i32 - 1000;
        cases.push(Case::new(
            vec![("arith", Src::Rich(arith_chain(n as usize)))],
            vec![Call::arith("arith", n, x)],
        ));
    }
    for _ in 0..churns {
        let n = rng.range(50, 500) as u32;
        cases.push(Case::new(
            vec![("churn", Src::Rich(churn(n)))],
            vec![Call::churn("churn", n)],
        ));
    }
    for _ in 0..pairs {
        cases.push(Case::new(
            vec![
                ("ml", Src::Ml(stash_module(false))),
                ("client", Src::L3(stash_client())),
            ],
            vec![Call::stash("client")],
        ));
        let step = rng.range(1, 10) as i32;
        let k = rng.range(1, 8) as u32;
        cases.push(Case::new(
            vec![
                ("gfx", Src::L3(counter_library())),
                ("client", Src::Ml(counter_client())),
            ],
            Call::counter("client", step, k),
        ));
    }
    rng.shuffle(&mut cases);
    cases
}

/// Bytes of standard `.wasm` the artifact encodes.
pub fn encoded_bytes(a: &Artifact) -> usize {
    a.wasm_binaries().iter().map(|(_, b)| b.len()).sum()
}

/// Compiles, instantiates and runs one case against its references;
/// returns its encoded size.
fn check(case: &Case) -> Result<usize, String> {
    let art = Engine::new()
        .compile(&case.set)
        .map_err(|e| e.to_string())?;
    let mut inst = art.instantiate().map_err(|e| e.to_string())?;
    for c in &case.calls {
        let inv = inst
            .invoke(c.module, c.func, c.args.clone())
            .map_err(|e| e.to_string())?;
        if !c.accepts(&inv) {
            return Err(format!(
                "{}.{} returned {:?}",
                c.module,
                c.func,
                inv.results()
            ));
        }
    }
    Ok(encoded_bytes(&art))
}

/// What the traced replays count over the census pass.
#[derive(Default)]
struct Counts {
    frontend_instrs: usize,
    lower_wasm_instrs: usize,
    encode_bytes: usize,
    bytecode_ops: usize,
}

/// Replays one compile's stages through the layer crates' public
/// functions, each in its own span: frontend and typecheck per source
/// module, lowering of the whole set, then validate, encode, bytecode and
/// analyze over `Artifact::lowered_modules()`. Returns the time those
/// stages account for on the compile's blocking path (the slowest
/// module's frontend + typecheck, since `Engine::compile` runs modules in
/// parallel, plus the sequential stages), or `None` when the replay
/// disagrees with the artifact.
fn replay(
    case: &Case,
    art: &Artifact,
    tr: &mut Tracer,
    op: u64,
    counts: &mut Counts,
) -> Option<f64> {
    let mut modules = Vec::new();
    let mut envs = Vec::new();
    let mut parallel_us: f64 = 0.0;
    for (name, src) in &case.srcs {
        let t = Instant::now();
        let m = tr.time("frontend", op, || match src {
            Src::Ml(m) => richwasm_repro::ml::compile_module(m).ok(),
            Src::L3(m) => richwasm_repro::l3::compile_module(m).ok(),
            Src::Rich(m) => Some(m.clone()),
        })?;
        let env = tr.time("typecheck", op, || check_module(&m)).ok()?;
        parallel_us = parallel_us.max(t.elapsed().as_secs_f64() * 1e6);
        counts.frontend_instrs += rich_instrs(&m);
        modules.push((name.to_string(), m));
        envs.push(env);
    }
    let t = Instant::now();
    let lowered = tr
        .time("lower", op, || {
            lower_modules_with_plan(&modules, &envs, &LinkPlan::compute(&modules))
        })
        .ok()?;
    // The compiler must be deterministic: the replay lowers to exactly
    // the artifact's modules.
    if lowered.as_slice() != art.lowered_modules() {
        return None;
    }
    for (_, wm) in art.lowered_modules() {
        counts.lower_wasm_instrs += wm.funcs.iter().map(|f| wasm_instrs(&f.body)).sum::<usize>();
        tr.time("validate", op, || w::validate_module(wm)).ok()?;
        counts.encode_bytes += tr.time("encode", op, || w::binary::encode_module(wm)).len();
        let cm = tr.time("bytecode", op, || w::compile_module(wm));
        counts.bytecode_ops += bytecode_ops(&cm);
        tr.time("analyze", op, || {
            richwasm_repro::analyze::analyze_module(wm)
        });
    }
    Some(parallel_us + t.elapsed().as_secs_f64() * 1e6)
}

/// Flat bytecode ops across a compiled module's functions.
pub fn bytecode_ops(cm: &w::CompiledModule) -> usize {
    cm.funcs.iter().flatten().map(|f| f.code.len()).sum()
}

fn rich_instrs(m: &Module) -> usize {
    fn count(body: &[Instr]) -> usize {
        body.iter()
            .map(|i| {
                1 + match i {
                    Instr::BlockI(_, b) | Instr::LoopI(_, b) | Instr::MemUnpack(_, b) => count(b),
                    Instr::IfI(_, t, e) => count(t) + count(e),
                    Instr::ExistUnpack(_, _, _, b) => count(b),
                    Instr::VariantCase(_, _, _, arms) => arms.iter().map(|a| count(a)).sum(),
                    _ => 0,
                }
            })
            .sum()
    }
    m.funcs
        .iter()
        .map(|f| match f {
            Func::Defined { body, .. } => count(body),
            Func::Imported { .. } => 0,
        })
        .sum()
}

fn wasm_instrs(body: &[WInstr]) -> usize {
    body.iter()
        .map(|i| {
            1 + match i {
                WInstr::Block(_, b) | WInstr::Loop(_, b) => wasm_instrs(b),
                WInstr::If(_, t, e) => wasm_instrs(t) + wasm_instrs(e),
                _ => 0,
            }
        })
        .sum()
}

/// Latencies and counts of whole corpus passes.
#[derive(Default)]
struct Passes {
    lat_us: Vec<f64>,
    /// Engine::compile time minus the replayed stages, per op (traced).
    self_us: Vec<f64>,
    /// `Artifact::timings().total()` and the replayed stages on the
    /// blocking path, per op (traced): the cross-check of the spans against
    /// the engine's own stage timings, and the layer self times that
    /// account for the op's latency.
    timings_us: Vec<f64>,
    staged_us: Vec<f64>,
}

/// Compiles the corpus in whole passes, at least one, until `secs` have
/// gone by, appending to `out`. Every compile must encode to the bytes
/// its checked compile did; traced passes add their replays to `counts`.
fn passes(
    cases: &[Case],
    bytes: &[usize],
    secs: f64,
    tr: &mut Tracer,
    counts: &mut Counts,
    report: &mut Report,
    out: &mut Passes,
) {
    let t0 = Instant::now();
    let mut first = true;
    while first || t0.elapsed().as_secs_f64() < secs {
        first = false;
        for (case, &want) in cases.iter().zip(bytes) {
            let op = tr.next_op();
            let id = tr.begin("op", op);
            let t = Instant::now();
            let art = tr.time("engine.compile", op, || Engine::new().compile(&case.set));
            let us = t.elapsed().as_secs_f64() * 1e6;
            tr.end(id);
            out.lat_us.push(us);
            let mut ok = art.as_ref().is_ok_and(|a| encoded_bytes(a) == want);
            if let (true, Ok(a)) = (tr.on(), &art) {
                let rid = tr.begin("replay", op);
                let staged = replay(case, a, tr, op, counts);
                tr.end(rid);
                ok &= staged.is_some();
                if let Some(staged) = staged {
                    out.timings_us.push(a.timings().total().as_secs_f64() * 1e6);
                    out.staged_us.push(staged);
                    out.self_us.push((us - staged).max(0.0));
                }
            }
            report.op(ok);
        }
    }
}

/// One set-up: build the corpus, then compile, instantiate and check every
/// set once through a fresh engine. The first fixes each set's encoded
/// size, which every later compile must reproduce. Returns the corpus and
/// the seconds the set-up took.
fn set_up(p: &Params, bytes: &mut Vec<usize>, report: &mut Report) -> (Vec<Case>, f64) {
    let t = Instant::now();
    let cases = corpus(p.seed, p.tiny);
    let sizes: Vec<Result<usize, String>> = cases.iter().map(check).collect();
    let secs = t.elapsed().as_secs_f64();
    for (i, r) in sizes.iter().enumerate() {
        if let Err(e) = r {
            eprintln!("compile check failed: {e}");
        }
        report.op(r.as_ref().is_ok_and(|&n| bytes.is_empty() || bytes[i] == n));
    }
    if bytes.is_empty() {
        *bytes = sizes.into_iter().map(|r| r.unwrap_or(0)).collect();
    }
    (cases, secs)
}

pub fn run(p: &Params) -> Result<Report, String> {
    let mut report = Report::default();

    let mut bytes = Vec::new();
    let (cases, first) = set_up(p, &mut bytes, &mut report);
    let mut setups = vec![first];
    let wasm_bytes: usize = bytes.iter().sum();
    report.set("wasm_bytes", wasm_bytes as f64);
    println!(
        "compile corpus: {} sets, {wasm_bytes} bytes of encoded Wasm",
        cases.len()
    );

    if !p.trace {
        // The other set-ups are spread over the run, each after an equal
        // share of the timed passes, so that their median samples the
        // machine over the run, not over a few seconds of it.
        let mut u = Passes::default();
        let (mut off, mut counts) = (Tracer::new(false), Counts::default());
        for _ in 1..CHECK_PASSES {
            passes(
                &cases,
                &bytes,
                p.seconds / (CHECK_PASSES - 1) as f64,
                &mut off,
                &mut counts,
                &mut report,
                &mut u,
            );
            setups.push(set_up(p, &mut bytes, &mut report).1);
        }
        report.set("setup_s", median(&setups));
        // Every pass compiles the same sets in the same order, so each set
        // is taken at its fastest compile of the run (`stats.rs`): the
        // median is the median set's, and the throughput that of a pass of
        // fastest compiles. The p99 is the whole run's: in a closed loop it
        // is set by the slowest sets of the corpus (depth-7 towers), not by
        // stalls.
        let ops = u.lat_us.len();
        let fastest = slot_min(&u.lat_us, cases.len());
        report.set("ops_per_s", pass_rate(&fastest));
        report.set("op_p50_us", median(&fastest));
        report.set("op_p99_us", quantile(&u.lat_us, 0.99));
        println!(
            "compile latency: {ops} samples in {} passes; max {:.0} us, median of all {:.0} us",
            ops / cases.len(),
            quantile(&u.lat_us, 1.0),
            median(&u.lat_us)
        );
        return Ok(report);
    }

    // Untraced and traced passes alternate, so the tracing overhead
    // compares passes run under the same machine conditions. Only the
    // first traced pass is counted, so counts repeat exactly from the seed.
    let (mut u, mut t) = (Passes::default(), Passes::default());
    let (mut off, mut tr) = (Tracer::new(false), Tracer::new(true));
    let mut counts = Counts::default();
    let t0 = Instant::now();
    while t.lat_us.is_empty() || t0.elapsed().as_secs_f64() < p.seconds {
        let mut scratch = Counts::default();
        let c = if t.lat_us.is_empty() {
            &mut counts
        } else {
            &mut scratch
        };
        passes(
            &cases,
            &bytes,
            0.0,
            &mut off,
            &mut Counts::default(),
            &mut report,
            &mut u,
        );
        passes(&cases, &bytes, 0.0, &mut tr, c, &mut report, &mut t);
    }
    report.set("op_p99_us", quantile(&u.lat_us, 0.99));
    for (metric, span) in [
        ("frontend.us", "frontend"),
        ("typecheck.us", "typecheck"),
        ("lower.us", "lower"),
        ("validate.us", "validate"),
        ("encode.us", "encode"),
        ("bytecode.us", "bytecode"),
        ("analyze.us", "analyze"),
    ] {
        let v: Vec<f64> = tr.per_op_us(span).into_values().collect();
        report.set(metric, median(&v));
    }
    report.set("engine.compile.self_us", median(&t.self_us));
    report.set("frontend.instrs", counts.frontend_instrs as f64);
    report.set("lower.wasm_instrs", counts.lower_wasm_instrs as f64);
    report.set("encode.bytes", counts.encode_bytes as f64);
    report.set("bytecode.ops", counts.bytecode_ops as f64);
    println!(
        "compile stages: replayed spans {:.1} us vs Artifact::timings().total() {:.1} us \
         (medians per op; Timings files bytecode under a second `encode` entry)",
        median(&t.staged_us),
        median(&t.timings_us)
    );
    crate::trace::summarize(&tr, &mut report, &u.lat_us, &t.lat_us, &t.staged_us, p)?;
    Ok(report)
}

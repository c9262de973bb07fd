//! The `fuzz` binary: sweep driver for the differential fuzz farm.
//!
//! ```text
//! fuzz [--cases N] [--adversarial N] [--seed S] [--stats-json PATH]
//!      [--artifacts-dir DIR] [--max-failures K]
//! ```
//!
//! Every well-typed case runs through [`run_case`], which includes the
//! bytecode-vs-tree-walker differential on host-free cases.
//!
//! Seed resolution: `--seed` > `RW_FUZZ_SEED` (the proptest shim's env
//! hook) > a fixed default. The seed is always printed — pasting it
//! back via `--seed` reproduces the exact sweep, and each failing case
//! additionally names its own `(seed, index)` pair in the reproducer.
//!
//! Each adversarial mutant must be rejected by `check_module` and, with
//! the same error, by a cold `Exec::Wasm` engine compile of it alone.
//!
//! Exit status: 0 iff every well-typed case passed every check AND
//! every adversarial mutant was rejected.

use std::path::{Path, PathBuf};
use std::time::Instant;

use proptest::test_runner::env_seed;
use richwasm::syntax::Module;
use richwasm::typecheck::{check_module, coverage_of_module};
use richwasm_fuzz::{
    gen_program, minimize_module, mutate, pick_tier, run_case, CaseOutcome, CorpusStats,
    FuzzProgram, MutationKind, Rng, SourceModule,
};
use richwasm_repro::engine::{
    Analysis, Engine, EngineConfig, Exec, ModuleSet, PipelineError, PipelineErrorKind, Stage,
};

const DEFAULT_SEED: u64 = 0x5269_6368_5761_736d; // "RichWasm"

struct Args {
    cases: u64,
    adversarial: u64,
    seed: u64,
    stats_json: Option<PathBuf>,
    artifacts_dir: PathBuf,
    max_failures: u64,
}

/// Checks that `mutant` is rejected twice over: by [`check_module`], and
/// by a cold `Exec::Wasm` compile of it alone, which must report the
/// checker's exact error as a `Typecheck`-stage type error. The engine
/// leaves body checks to lowering on that path, so a body that slipped
/// past its declarations-only stage would show up here.
fn reject_mutant(engine: &Engine, mutant: &Module) -> Result<(), String> {
    let Err(expected) = check_module(mutant) else {
        return Err("ACCEPTED by the checker (soundness hole)".into());
    };
    match engine.compile(&ModuleSet::new().richwasm("mutant", mutant.clone())) {
        Err(PipelineError {
            stage: Stage::Typecheck,
            kind: PipelineErrorKind::Type(e),
            ..
        }) if e == expected => Ok(()),
        Ok(_) => Err(format!(
            "ACCEPTED by the Exec::Wasm engine, which the checker rejects with: {expected}"
        )),
        Err(e) => Err(format!(
            "the Exec::Wasm engine reported `{e}`, the checker `{expected}`"
        )),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cases: 10_000,
        adversarial: 500,
        seed: env_seed().unwrap_or(DEFAULT_SEED),
        stats_json: None,
        artifacts_dir: PathBuf::from("fuzz/artifacts"),
        max_failures: 5,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--cases" => args.cases = parse_u64(&val("--cases")?)?,
            "--adversarial" => args.adversarial = parse_u64(&val("--adversarial")?)?,
            "--seed" => args.seed = parse_u64(&val("--seed")?)?,
            "--stats-json" => args.stats_json = Some(PathBuf::from(val("--stats-json")?)),
            "--artifacts-dir" => args.artifacts_dir = PathBuf::from(val("--artifacts-dir")?),
            "--max-failures" => args.max_failures = parse_u64(&val("--max-failures")?)?,
            "--help" | "-h" => {
                println!(
                    "usage: fuzz [--cases N] [--adversarial N] [--seed S] \
                     [--stats-json PATH] [--artifacts-dir DIR] [--max-failures K]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

fn parse_u64(raw: &str) -> Result<u64, String> {
    let raw = raw.trim();
    if let Some(hex) = raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        raw.parse()
    }
    .map_err(|_| format!("not a number: `{raw}`"))
}

/// Writes a reproducer file; failures to write are themselves fatal
/// (CI must never silently lose a reproducer).
fn write_reproducer(dir: &Path, name: &str, contents: &str) {
    std::fs::create_dir_all(dir).expect("create artifacts dir");
    let path = dir.join(name);
    std::fs::write(&path, contents).expect("write reproducer");
    eprintln!("    reproducer: {}", path.display());
}

/// For failing single-raw-module cases: shrink the module while the
/// failure class is preserved, and render the result.
fn minimized_repro(prog: &FuzzProgram, kind_name: &str) -> Option<String> {
    let [(name, SourceModule::Rw(m))] = prog.modules.as_slice() else {
        return None;
    };
    let mut keep = |cand: &richwasm::syntax::Module| {
        let mut p = prog.clone();
        p.modules = vec![(name.clone(), SourceModule::Rw(cand.clone()))];
        match run_case(&p) {
            CaseOutcome::Failed { kind, .. } => kind.name() == kind_name,
            CaseOutcome::Ok { .. } => false,
        }
    };
    if !keep(m) {
        return None; // failure did not reproduce on re-run; keep original
    }
    let min = minimize_module(m, &mut keep);
    Some(format!("-- minimized module --\n{min}\n(ast) {min:?}\n"))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fuzz: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "fuzz: seed={:#x} cases={} adversarial={} (reproduce with --seed {:#x})",
        args.seed, args.cases, args.adversarial, args.seed
    );

    let t0 = Instant::now();
    let mut stats = CorpusStats::new(args.seed);
    let mut failures = 0u64;

    // ---- Well-typed sweep -------------------------------------------
    for i in 0..args.cases {
        let mut rng = Rng::for_case(args.seed, i);
        let tier = pick_tier(&mut rng);
        let prog = gen_program(tier, &mut rng, &stats.coverage);
        for m in prog.rw_modules().into_iter().flatten() {
            coverage_of_module(&m, &mut stats.coverage);
        }
        match run_case(&prog) {
            CaseOutcome::Ok { .. } => stats.record_case(tier, true, None),
            CaseOutcome::Failed { kind, detail } => {
                stats.record_case(tier, false, Some(kind));
                failures += 1;
                eprintln!(
                    "fuzz: case {i} ({}) FAILED [{}]: {detail}",
                    tier.name(),
                    kind.name()
                );
                let mut repro = format!(
                    "seed: {:#x}\ncase: {i}\ntier: {}\nfailure: {}\ndetail: {detail}\n\n{}",
                    args.seed,
                    tier.name(),
                    kind.name(),
                    prog.describe()
                );
                if let Some(min) = minimized_repro(&prog, kind.name()) {
                    repro.push('\n');
                    repro.push_str(&min);
                }
                write_reproducer(
                    &args.artifacts_dir,
                    &format!("case_{i}_{}.txt", kind.name()),
                    &repro,
                );
                if failures >= args.max_failures {
                    eprintln!("fuzz: stopping after {failures} failures (--max-failures)");
                    break;
                }
            }
        }
    }

    // ---- Adversarial sweep ------------------------------------------
    // Cycle mutation kinds over freshly generated programs until the
    // requested number of *applied* mutants is reached (some kinds
    // don't apply to some programs).
    let engine = Engine::with_config(EngineConfig::new().exec(Exec::Wasm).analysis(Analysis::Off));
    let mut applied = 0u64;
    let mut attempt = 0u64;
    while applied < args.adversarial && attempt < args.adversarial * 20 {
        let mut rng = Rng::for_case(args.seed ^ 0xADBE_EF00, attempt);
        attempt += 1;
        let tier = pick_tier(&mut rng);
        let prog = gen_program(tier, &mut rng, &stats.coverage);
        let kind = MutationKind::ALL[(attempt as usize) % MutationKind::ALL.len()];
        for m in prog.rw_modules().into_iter().flatten() {
            let Some(mutant) = mutate(&m, kind) else {
                continue;
            };
            applied += 1;
            let verdict = reject_mutant(&engine, &mutant);
            stats.record_mutant(kind, verdict.is_ok());
            if let Err(why) = verdict {
                eprintln!("fuzz: mutant {attempt} [{}] {why}", kind.name());
                write_reproducer(
                    &args.artifacts_dir,
                    &format!("mutant_{attempt}_{}.txt", kind.name()),
                    &format!(
                        "seed: {:#x}\nmutation: {}\nverdict: {why}\n\n-- mutant --\n{mutant}\n(ast) {mutant:?}\n\n{}",
                        args.seed,
                        kind.name(),
                        prog.describe()
                    ),
                );
            }
            break; // one mutant per generated program
        }
    }
    if applied < args.adversarial {
        eprintln!(
            "fuzz: WARNING only {applied}/{} adversarial mutants applied",
            args.adversarial
        );
    }

    // ---- Report ------------------------------------------------------
    stats.wall_ms = t0.elapsed().as_millis() as u64;
    println!(
        "fuzz: {}/{} cases ok, {}/{} mutants rejected, rule coverage {}/{}, {} ms",
        stats.ok,
        stats.cases,
        stats.adversarial_rejected,
        stats.adversarial_total,
        stats.coverage.covered(),
        stats.coverage.total(),
        stats.wall_ms
    );
    if let Some(path) = &args.stats_json {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).expect("create stats dir");
            }
        }
        std::fs::write(path, stats.to_json()).expect("write stats json");
        println!("fuzz: stats written to {}", path.display());
    }
    if !stats.passed() {
        eprintln!(
            "fuzz: FAILED ({} case failures, {} accepted mutants)",
            stats.failed(),
            stats.mutants_accepted()
        );
        std::process::exit(1);
    }
}

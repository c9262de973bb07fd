//! The compile-once / run-many contract of the [`Engine`] →
//! [`Artifact`] → [`Instance`] API:
//!
//! * cache hits are **content-addressed** and byte-identical to a cold
//!   compile (same `.wasm` bytes, same artifact);
//! * N invocations through one long-lived [`Instance`] agree with N
//!   runs on fresh engines in differential mode;
//! * two instances of one artifact share no mutable state;
//! * no cached or instantiated path ever re-runs a static stage
//!   (observable through [`Timings`]);
//! * [`PipelineError::source`] chains every wrapped error kind;
//! * the concurrency contract: one `Engine` + one `InstancePool` shared
//!   by many threads keep the cache counters consistent and every agreed
//!   result equal to the sequential oracle; pool recycling (checkin →
//!   `reset`) rewinds guest state, host record/replay queues, *and*
//!   stateful host closures registered with a reset hook.

use std::error::Error as _;
use std::sync::atomic::{AtomicI32, AtomicU32, Ordering};
use std::sync::Arc;

use richwasm::error::{RuntimeError, TypeError};
use richwasm::syntax::{self, instr, FunType, Instr, NumInstr, NumType, Qual, Type, Value};
use richwasm_analyze::{AnalyzeError, Diagnostic, Pass as AnalysisPass, Severity};
use richwasm_bench::workloads::{counter_client, counter_library, stash_client, stash_module};
use richwasm_l3::L3Error;
use richwasm_lower::LowerError;
use richwasm_ml::MlError;
use richwasm_repro::engine::{Engine, Job, ModuleSet, PipelineError, PipelineErrorKind, Stage};
use richwasm_repro::{HostSig, HostVal, HostValType};
use richwasm_wasm::exec::WasmTrap;
use richwasm_wasm::validate::ValidationError;

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

#[test]
fn cache_hit_returns_byte_identical_wasm() {
    // Two independent engines: two *cold* compiles must already agree
    // byte for byte (the static pipeline is deterministic, parallel
    // frontends notwithstanding).
    let a = Engine::new();
    let b = Engine::new();
    let cold_a = a.compile(&stash_set()).unwrap();
    let cold_b = b.compile(&stash_set()).unwrap();
    assert!(!cold_a.wasm_binaries().is_empty());
    assert_eq!(
        cold_a.wasm_binaries(),
        cold_b.wasm_binaries(),
        "cold compiles are deterministic"
    );
    assert_eq!(cold_a.key(), cold_b.key(), "content hash is stable");

    // A warm compile on engine `a` is a cache hit: the very same artifact
    // (pointer identity), hence trivially byte-identical `.wasm`.
    let warm = a.compile(&stash_set()).unwrap();
    assert!(warm.same_as(&cold_a), "hit returns the cached artifact");
    assert_eq!(warm.wasm_binaries(), cold_a.wasm_binaries());
    assert_eq!(a.cache_stats().misses, 1);
    assert_eq!(a.cache_stats().hits, 1);
    assert_eq!(a.cache_len(), 1);

    // Different content, different slot: the buggy stash never compiles,
    // and failures are not cached.
    let bad = ModuleSet::new().ml("ml", stash_module(true));
    assert!(a.compile(&bad).is_err());
    assert_eq!(a.cache_len(), 1, "failed compiles are not cached");
}

#[test]
fn instance_invocations_match_fresh_pipeline_runs() {
    // N invocations through ONE instance vs N runs that each compile on
    // a fresh engine, both in differential mode (so each side is
    // additionally cross-checked against its own lowering).
    const N: usize = 5;
    let engine = Engine::new();
    let mut instance = engine.instantiate(&stash_set()).unwrap();
    let through_instance: Vec<Option<i32>> = (0..N)
        .map(|_| instance.invoke_entry().expect("instance run").i32())
        .collect();

    let through_pipeline: Vec<Option<i32>> = (0..N)
        .map(|_| {
            Engine::new()
                .instantiate(&stash_set())
                .expect("fresh compile")
                .invoke_entry()
                .expect("fresh run")
                .i32()
        })
        .collect();

    assert_eq!(through_instance, through_pipeline);
    assert_eq!(instance.invocations(), N as u64);
    // The engine compiled exactly once for all N instance invocations.
    assert_eq!(engine.cache_stats().misses, 1);
    // And no invocation ever re-ran a static stage.
    assert!(instance.timings().no_static_stages());
    assert!(instance.artifact().timings().of(Stage::Frontend) > std::time::Duration::ZERO);
}

#[test]
fn instances_of_one_artifact_do_not_share_state() {
    let engine = Engine::new();
    let artifact = engine.compile(&counter_set()).unwrap();
    let mut one = artifact.instantiate().unwrap();
    let mut two = artifact.instantiate().unwrap();

    // Interleave mutations: each instance keeps its own counter.
    one.invoke("app", "setup", vec![Value::i32(5)]).unwrap();
    two.invoke("app", "setup", vec![Value::i32(3)]).unwrap();
    one.invoke("app", "bump", vec![Value::Unit]).unwrap();
    one.invoke("app", "bump", vec![Value::Unit]).unwrap();
    two.invoke("app", "bump", vec![Value::Unit]).unwrap();

    let t1 = one.invoke("app", "total", vec![Value::Unit]).unwrap();
    let t2 = two.invoke("app", "total", vec![Value::Unit]).unwrap();
    assert_eq!(t1.i32(), Some(10), "instance one: 2 bumps × step 5");
    assert_eq!(t2.i32(), Some(3), "instance two: 1 bump × step 3");
}

#[test]
fn instance_reset_restores_fresh_state() {
    let engine = Engine::new();
    let mut inst = engine.instantiate(&counter_set()).unwrap();
    inst.invoke("app", "setup", vec![Value::i32(7)]).unwrap();
    inst.invoke("app", "bump", vec![Value::Unit]).unwrap();
    assert_eq!(
        inst.invoke("app", "total", vec![Value::Unit])
            .unwrap()
            .i32(),
        Some(7)
    );

    // After reset the instance behaves like a fresh instantiation —
    // `setup` succeeds again (it would trap on a configured counter).
    inst.reset().unwrap();
    assert_eq!(inst.invocations(), 0);
    inst.invoke("app", "setup", vec![Value::i32(2)]).unwrap();
    inst.invoke("app", "bump", vec![Value::Unit]).unwrap();
    assert_eq!(
        inst.invoke("app", "total", vec![Value::Unit])
            .unwrap()
            .i32(),
        Some(2)
    );
    assert!(inst.timings().no_static_stages());
}

/// `add : [i32, i32] -> [i32]`, plus a `main` returning 7 so the set has
/// an entry for oracle runs.
fn arith_module() -> syntax::Module {
    let i32t = || Type::num(NumType::I32);
    syntax::Module {
        funcs: vec![
            syntax::Func::Defined {
                exports: vec!["add".into()],
                ty: FunType::mono(vec![i32t(), i32t()], vec![i32t()]),
                locals: vec![],
                body: vec![
                    Instr::GetLocal(0, Qual::Unr),
                    Instr::GetLocal(1, Qual::Unr),
                    Instr::Num(NumInstr::IntBinop(NumType::I32, instr::IntBinop::Add)),
                ],
            },
            syntax::Func::Defined {
                exports: vec!["main".into()],
                ty: FunType::mono(vec![], vec![i32t()]),
                locals: vec![],
                body: vec![Instr::i32(7)],
            },
        ],
        ..syntax::Module::default()
    }
}

/// A guest whose `main` calls `host.tick(0)` and returns the result.
fn ticker_module() -> syntax::Module {
    syntax::Module {
        funcs: vec![
            syntax::Func::Imported {
                exports: vec![],
                module: "host".into(),
                name: "tick".into(),
                ty: FunType::mono(vec![Type::num(NumType::I32)], vec![Type::num(NumType::I32)]),
            },
            syntax::Func::Defined {
                exports: vec!["main".into()],
                ty: FunType::mono(vec![], vec![Type::num(NumType::I32)]),
                locals: vec![],
                body: vec![Instr::i32(0), Instr::Call(0, vec![])],
            },
        ],
        ..syntax::Module::default()
    }
}

// The headline concurrency stress: many threads share ONE engine and ONE
// pool, hammering the artifact cache and the instance pool at once. The
// cache counters must stay consistent (every compile is exactly one hit
// or one miss), every compile must resolve to the same content hash, and
// every agreed result must equal the sequential oracle.
#[test]
fn threaded_stress_shared_engine_cache_and_pool() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 4;
    const POOL: usize = 3;

    let engine = Engine::new();

    // Sequential oracle, through the same engine (1 compile).
    let mut oracle_inst = engine.instantiate(&stash_set()).unwrap();
    let oracle = oracle_inst.invoke_entry().unwrap().results().to_vec();
    assert!(!oracle.is_empty());
    drop(oracle_inst);

    // Shared pool (1 more compile — a cache hit).
    let artifact = engine.compile(&stash_set()).unwrap();
    let pool = artifact.pool(POOL).unwrap();
    let expected_key = artifact.key();

    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                for _ in 0..PER_THREAD {
                    // Hammer the cache: every compile must come back as
                    // the same content-addressed artifact.
                    let a = engine.compile(&stash_set()).unwrap();
                    assert_eq!(a.key(), expected_key);
                    // Hammer the pool: checkout, invoke, compare to the
                    // oracle, checkin (drop).
                    let mut inst = pool.checkout();
                    let inv = inst.invoke_entry().unwrap();
                    assert_eq!(inv.results(), &oracle[..]);
                }
            });
        }
    });

    let stats = engine.cache_stats();
    let requests = (2 + THREADS * PER_THREAD) as u64;
    assert_eq!(
        stats.hits + stats.misses,
        requests,
        "every compile is exactly one hit or one miss: {stats:?}"
    );
    assert_eq!(stats.misses, 1, "one cold compile, all the rest cache hits");

    let pstats = pool.stats();
    assert_eq!(pstats.checkouts, (THREADS * PER_THREAD) as u64);
    assert_eq!(pstats.recycled, pstats.checkouts, "every checkin recycled");
    assert_eq!(pstats.lost, 0);
    assert_eq!(pool.idle(), POOL, "all instances returned");
}

// `InstancePool::invoke_batch` must hand back outcomes in job order —
// here every job has distinct arguments, so a transposed result is
// visible — and keep a failing job's error in its own slot.
#[test]
fn invoke_batch_preserves_job_order_with_distinct_args() {
    let set = ModuleSet::new().richwasm("m", arith_module());
    let mut jobs: Vec<Job> = (0..24)
        .map(|i| Job::new("m", "add", vec![Value::i32(i), Value::i32(2 * i)]))
        .collect();

    let pool = Engine::new().compile(&set).unwrap().pool(4).unwrap();
    let results = pool.invoke_batch(4, &jobs);
    assert_eq!(results.len(), jobs.len());
    for (i, r) in results.iter().enumerate() {
        assert_eq!(
            r.as_ref().unwrap().i32(),
            Some(3 * i as i32),
            "job {i} out of order or wrong"
        );
    }

    // Per-job failures stay per-job: an unknown export fails its slot,
    // the rest of the batch is unaffected.
    jobs[5] = Job::new("m", "nope", vec![]);
    let results = pool.invoke_batch(4, &jobs);
    let err = results[5].as_ref().unwrap_err();
    assert_eq!(err.stage, Stage::Execute, "{err}");
    assert!(
        matches!(err.kind, PipelineErrorKind::Unsupported(_)),
        "{err}"
    );
    assert_eq!(results[6].as_ref().unwrap().i32(), Some(18));
}

// In differential mode the host closure runs once per invocation (the
// RichWasm backend records, the Wasm backend replays) — and the replay
// queues are per-instance, so this stays true when a batch fans out
// across 4 worker threads.
#[test]
fn parallel_batch_keeps_host_record_replay_per_instance() {
    let calls = Arc::new(AtomicU32::new(0));
    let counted = Arc::clone(&calls);
    let set = ModuleSet::new().richwasm("m", ticker_module()).host_fn(
        "host",
        "tick",
        HostSig::new([HostValType::I32], [HostValType::I32]),
        move |_args| {
            counted.fetch_add(1, Ordering::Relaxed);
            // Pure in its *result* (so parallel results are deterministic);
            // the side effect is what the test counts.
            Ok(vec![HostVal::I32(40)])
        },
    );

    const JOBS: usize = 20;
    let engine = Engine::new();
    let artifact = engine.compile(&set).unwrap();
    let jobs: Vec<Job> = (0..JOBS).map(|_| artifact.entry_job().unwrap()).collect();
    let pool = artifact.pool(4).unwrap();
    let results = pool.invoke_batch(4, &jobs);
    for r in &results {
        assert_eq!(r.as_ref().unwrap().i32(), Some(40));
    }
    assert_eq!(
        calls.load(Ordering::Relaxed),
        JOBS as u32,
        "host closure must run exactly once per invocation — a cross-instance \
         replay mixup would double-run or skip it"
    );
}

/// A guest whose `f(x)` returns `host.double(x)`.
fn doubler_module() -> syntax::Module {
    let i32t = Type::num(NumType::I32);
    syntax::Module {
        funcs: vec![
            syntax::Func::Imported {
                exports: vec![],
                module: "host".into(),
                name: "double".into(),
                ty: FunType::mono(vec![i32t.clone()], vec![i32t.clone()]),
            },
            syntax::Func::Defined {
                exports: vec!["f".into()],
                ty: FunType::mono(vec![i32t.clone()], vec![i32t]),
                locals: vec![],
                body: vec![Instr::GetLocal(0, Qual::Unr), Instr::Call(0, vec![])],
            },
        ],
        ..syntax::Module::default()
    }
}

// A host panic fails its own job, not the batch: on both the inline
// 1-worker path and the threaded one, the other jobs' results come back,
// the panic's message is kept, and no pool instance is lost.
#[test]
fn invoke_batch_contains_a_panicking_job() {
    let set = ModuleSet::new().richwasm("m", doubler_module()).host_fn(
        "host",
        "double",
        HostSig::new([HostValType::I32], [HostValType::I32]),
        |args| match args[0] {
            HostVal::I32(7) => panic!("host refuses 7"),
            HostVal::I32(x) => Ok(vec![HostVal::I32(2 * x)]),
            _ => Err("expected i32".into()),
        },
    );
    let artifact = Engine::new().compile(&set).unwrap();
    let jobs: Vec<Job> = (0..12)
        .map(|x| Job::new("m", "f", vec![Value::i32(x)]))
        .collect();
    let pool = artifact.pool(3).unwrap();
    let outcome = |workers| -> Vec<Result<i32, String>> {
        pool.invoke_batch(workers, &jobs)
            .into_iter()
            .map(|r| match r {
                Ok(inv) => Ok(inv.i32().expect("an i32 result")),
                Err(e) => match (e.stage, e.kind) {
                    (Stage::Execute, PipelineErrorKind::Panicked(msg)) => Err(msg),
                    (stage, kind) => panic!("unexpected error at {stage}: {kind}"),
                },
            })
            .collect()
    };
    let threaded = outcome(3);
    let inline = outcome(1);
    let expected: Vec<Result<i32, String>> = (0..12)
        .map(|x| {
            if x == 7 {
                Err("host refuses 7".to_string())
            } else {
                Ok(2 * x)
            }
        })
        .collect();
    assert_eq!(threaded, expected);
    assert_eq!(inline, expected);
    assert_eq!(pool.stats().lost, 0);
    assert_eq!(pool.idle(), 3, "every instance came back to the pool");
}

// Regression (PR 4): recycling must rewind stateful host closures too.
// A counter host registered with a reset hook starts from scratch after
// `Instance::reset` — and therefore after every pool checkin.
#[test]
fn reset_rewinds_stateful_hosts_via_hook() {
    let counter = Arc::new(AtomicI32::new(0));
    let bump = Arc::clone(&counter);
    let rewind = Arc::clone(&counter);
    let set = ModuleSet::new()
        .richwasm("m", ticker_module())
        .host_fn_with_reset(
            "host",
            "tick",
            HostSig::new([HostValType::I32], [HostValType::I32]),
            move |_args| Ok(vec![HostVal::I32(bump.fetch_add(1, Ordering::SeqCst) + 1)]),
            move || rewind.store(0, Ordering::SeqCst),
        );

    let engine = Engine::new();
    let mut inst = engine.instantiate(&set).unwrap();
    assert_eq!(inst.invoke_entry().unwrap().i32(), Some(1));
    assert_eq!(inst.invoke_entry().unwrap().i32(), Some(2));

    inst.reset().unwrap();
    assert_eq!(
        inst.invoke_entry().unwrap().i32(),
        Some(1),
        "reset must rewind host state through the hook"
    );
    drop(inst);

    // The same invariant through pool recycling: capacity 1, so the
    // second checkout observes exactly what checkin left behind.
    counter.store(0, Ordering::SeqCst);
    let pool = engine.compile(&set).unwrap().pool(1).unwrap();
    {
        let mut one = pool.checkout();
        assert_eq!(one.invoke_entry().unwrap().i32(), Some(1));
        assert_eq!(one.invoke_entry().unwrap().i32(), Some(2));
    }
    let mut two = pool.checkout();
    assert_eq!(
        two.invoke_entry().unwrap().i32(),
        Some(1),
        "a recycled pooled instance must not observe the previous checkout's host state"
    );
}

#[test]
fn error_sources_chain_every_kind() {
    // `PipelineError::source()` must expose the wrapped layer error for
    // every kind that has one — the error-reporting contract downstream
    // services rely on (anyhow-style chain printing).
    let chained: Vec<(PipelineErrorKind, bool)> = vec![
        (PipelineErrorKind::Ml(MlError::Type("t".into())), true),
        (PipelineErrorKind::L3(L3Error::Linearity("l".into())), true),
        (
            PipelineErrorKind::Type(TypeError::LinkError { reason: "r".into() }),
            true,
        ),
        (
            PipelineErrorKind::Lower(LowerError::Internal("i".into())),
            true,
        ),
        (
            PipelineErrorKind::Validation(ValidationError("v".into())),
            true,
        ),
        (
            PipelineErrorKind::Runtime(RuntimeError::Trap { reason: "t".into() }),
            true,
        ),
        (PipelineErrorKind::Wasm(WasmTrap("w".into())), true),
        (
            PipelineErrorKind::Analysis(AnalyzeError {
                diagnostics: vec![Diagnostic {
                    func: 0,
                    offset: 0,
                    pass: AnalysisPass::Verify,
                    severity: Severity::Deny,
                    message: "checker disagreement".into(),
                }],
            }),
            true,
        ),
        (
            PipelineErrorKind::Decode(richwasm_wasm::decode::decode_module(b"junk").unwrap_err()),
            true,
        ),
        (PipelineErrorKind::Artifact("stale".into()), false),
        (
            PipelineErrorKind::Mismatch {
                richwasm: "a".into(),
                wasm: "b".into(),
            },
            false,
        ),
        (PipelineErrorKind::Unsupported("u".into()), false),
        (PipelineErrorKind::Panicked("p".into()), false),
    ];
    for (kind, has_source) in chained {
        let label = format!("{kind:?}");
        let err = PipelineError {
            stage: Stage::Execute,
            module: None,
            kind,
        };
        assert_eq!(
            err.source().is_some(),
            has_source,
            "source() chain for {label}"
        );
        if let Some(src) = err.source() {
            // The chained error's Display is part of the wrapper's
            // message, so chain printers do not lose information.
            assert!(
                err.to_string().contains(&src.to_string()),
                "wrapper message embeds the source: {err}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// PR 5: the decoder + persistent artifact cache.

use std::path::PathBuf;

use richwasm_bench::workloads::{arith_chain, churn, ml_tower};
use richwasm_repro::engine::{EngineConfig, Exec};
use richwasm_wasm::ast as w;
use richwasm_wasm::binary::encode_module;

/// A fresh, empty scratch directory under the system temp dir.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "richwasm_engine_test_{}_{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A standalone Wasm module (no RichWasm pedigree at all): `main`
/// returns 40 + 2 through a helper call — what an *external* producer
/// would hand `Engine::load_wasm`.
fn external_wasm_bytes() -> Vec<u8> {
    let mut m = w::Module::default();
    let t = m.intern_type(w::FuncType {
        params: vec![],
        results: vec![w::ValType::I32],
    });
    m.funcs.push(w::FuncDef {
        type_idx: t,
        locals: vec![],
        body: vec![w::WInstr::I32Const(40)],
    });
    m.funcs.push(w::FuncDef {
        type_idx: t,
        locals: vec![],
        body: vec![
            w::WInstr::Call(0),
            w::WInstr::I32Const(2),
            w::WInstr::IBin(w::Width::W32, w::IBinOp::Add),
        ],
    });
    m.exports.push(w::Export {
        name: "main".into(),
        kind: w::ExportKind::Func(1),
    });
    encode_module(&m)
}

// The differential-load pin (E1–E5): for every scenario, re-decoding the
// artifact's `.wasm` bytes through `ModuleSet::wasm_module` and running
// them Wasm-only must reproduce exactly the results the in-memory
// differential pipeline agreed on.
#[test]
fn differential_load_reproduces_agreed_results() {
    let scenarios: Vec<(&str, ModuleSet, Vec<Job>)> = vec![
        (
            "e1_interop",
            stash_set(),
            vec![Job::new("l3", "main", vec![])],
        ),
        (
            "e2_counter",
            counter_set(),
            vec![
                Job::new("app", "setup", vec![Value::i32(5)]),
                Job::new("app", "bump", vec![Value::Unit]),
                Job::new("app", "bump", vec![Value::Unit]),
                Job::new("app", "total", vec![Value::Unit]),
            ],
        ),
        (
            "e3_arith",
            ModuleSet::new().richwasm("chain", arith_chain(10)),
            vec![Job::new("chain", "main", vec![Value::i32(7)])],
        ),
        (
            "e4_compilers",
            ModuleSet::new().ml("tower", ml_tower(3)),
            vec![Job::new("tower", "main", vec![])],
        ),
        (
            "e5_lowering",
            ModuleSet::new()
                .richwasm("chain", arith_chain(6))
                .richwasm("churn", churn(5)),
            vec![
                Job::new("chain", "main", vec![Value::i32(3)]),
                Job::new("churn", "main", vec![]),
            ],
        ),
    ];

    for (label, set, jobs) in scenarios {
        // In-memory differential run: both backends must agree, and the
        // agreed scalar view is the oracle.
        let engine = Engine::new();
        let artifact = engine.compile(&set).unwrap();
        let mut inst = artifact.instantiate().unwrap();
        let oracle: Vec<Vec<HostVal>> = jobs
            .iter()
            .map(|j| {
                inst.invoke(&j.module, &j.func, j.args.clone())
                    .unwrap_or_else(|e| panic!("{label}: differential run failed: {e}"))
                    .results()
                    .to_vec()
            })
            .collect();

        // Re-enter through the decoder: the artifact's bytes, byte for
        // byte, as a wasm-only module set (same names, same order).
        let mut reloaded = ModuleSet::new();
        for (name, bytes) in artifact.wasm_binaries() {
            reloaded = reloaded.wasm_module(name, bytes.clone());
        }
        let wasm_engine = Engine::with_config(EngineConfig::new().exec(Exec::Wasm));
        let decoded_artifact = wasm_engine
            .compile(&reloaded)
            .unwrap_or_else(|e| panic!("{label}: decode-compile failed: {e}"));
        // Decoded bytes re-encode canonically: byte-identical artifact.
        assert_eq!(
            decoded_artifact.wasm_binaries(),
            artifact.wasm_binaries(),
            "{label}: re-encoded bytes diverge"
        );
        let mut winst = decoded_artifact.instantiate().unwrap();
        for (j, expect) in jobs.iter().zip(&oracle) {
            let got = winst
                .invoke(&j.module, &j.func, j.args.clone())
                .unwrap_or_else(|e| panic!("{label}: wasm-only run failed: {e}"));
            assert_eq!(
                got.results(),
                &expect[..],
                "{label}: {}/{} disagrees after decode",
                j.module,
                j.func
            );
        }
    }
}

/// A recycled differential-mode instance is indistinguishable from a
/// freshly instantiated one: jobs that allocate in both the linear and
/// the GC'd memory (the ML/L3 stash, `churn`, an ML tower) leave the
/// RichWasm store exactly as a fresh instance's after `reset`, and
/// re-running them reproduces the values and both backends' step counts.
/// The rebuild fallback (a harness linked an extra module into the
/// runtime, dropping its snapshot) keeps the same property.
#[test]
fn recycled_instance_equals_a_fresh_one_in_differential_mode() {
    let set = ModuleSet::new()
        .ml("ml", stash_module(false))
        .l3("l3", stash_client())
        .richwasm("churn", churn(20))
        .ml("tower", ml_tower(3))
        .entry("l3");
    let jobs = [("l3", "main"), ("churn", "main"), ("tower", "main")];
    // (agreed results, RichWasm steps, Wasm steps) per job.
    let run = |inst: &mut richwasm_repro::engine::Instance| {
        jobs.iter()
            .map(|(module, func)| {
                let inv = inst.invoke(module, func, vec![]).unwrap();
                let interp_steps = inv.richwasm.as_ref().unwrap().steps;
                let wasm_steps = inst.wasm.as_ref().unwrap().last_steps();
                (inv.results().to_vec(), interp_steps, wasm_steps)
            })
            .collect::<Vec<_>>()
    };

    let artifact = Engine::new().compile(&set).unwrap();
    let mut fresh = artifact.instantiate().unwrap();
    let fresh_store = fresh.runtime().store.clone();
    let fresh_config = fresh.runtime().config;
    let expected = run(&mut fresh);

    let mut inst = artifact.instantiate().unwrap();
    assert_eq!(run(&mut inst), expected);
    let mem = &inst.runtime().store.mem;
    assert!(
        mem.allocs > 0 && mem.frees > 0,
        "the jobs allocate and free"
    );
    assert!(!mem.unr.is_empty(), "the jobs leave GC'd cells behind");
    inst.runtime().config.fuel = 5;

    inst.reset().unwrap();
    assert!(inst.runtime().is_sealed());
    assert_eq!(inst.runtime().store, fresh_store);
    assert_eq!(inst.runtime().config, fresh_config);
    assert_eq!(run(&mut inst), expected);

    // Unsealed fallback: linking an extra module drops the snapshot, and
    // reset rebuilds the runtime from the artifact instead.
    inst.runtime().instantiate("extra", arith_module()).unwrap();
    assert!(!inst.runtime().is_sealed());
    inst.reset().unwrap();
    assert!(inst.runtime().is_sealed());
    assert!(inst.runtime().instance_by_name("extra").is_none());
    assert_eq!(inst.runtime().store, fresh_store);
    assert_eq!(inst.runtime().config, fresh_config);
    assert_eq!(run(&mut inst), expected);
}

/// Pool checkin restores the fuel limits a checkout set on either
/// backend to the artifact's own.
#[test]
fn pool_checkin_restores_the_artifact_fuel_limits() {
    let artifact = Engine::with_config(EngineConfig::new().fuel(50_000))
        .compile(&counter_set())
        .unwrap();
    // Capacity 1: the second checkout is the recycled first one.
    let pool = artifact.pool(1).unwrap();
    {
        let mut inst = pool.checkout();
        inst.wasm.as_mut().unwrap().max_steps = 5;
        inst.runtime().config.fuel = 5;
    }
    let mut inst = pool.checkout();
    assert_eq!(inst.wasm.as_ref().unwrap().max_steps, 50_000);
    assert_eq!(inst.runtime().config.fuel, 50_000);
    inst.invoke("app", "setup", vec![Value::i32(5)]).unwrap();
}

/// An external module asking `memory.grow` for more than the 4 GiB
/// limit gets -1 and keeps its memory, on both Wasm tiers and at equal
/// fuel, instead of aborting the process.
#[test]
fn load_wasm_memory_grow_past_the_limit_returns_minus_one() {
    use richwasm_repro::WasmTier;

    let mut m = w::Module::default();
    let t = m.intern_type(w::FuncType {
        params: vec![],
        results: vec![w::ValType::I32],
    });
    m.memory = Some(1);
    // (-1 grow) + (65536 grow) + (1 grow) + size = -1 + -1 + 1 + 2 = 1.
    let add = || w::WInstr::IBin(w::Width::W32, w::IBinOp::Add);
    m.funcs.push(w::FuncDef {
        type_idx: t,
        locals: vec![],
        body: vec![
            w::WInstr::I32Const(-1),
            w::WInstr::MemoryGrow,
            w::WInstr::I32Const(65536),
            w::WInstr::MemoryGrow,
            add(),
            w::WInstr::I32Const(1),
            w::WInstr::MemoryGrow,
            add(),
            w::WInstr::MemorySize,
            add(),
        ],
    });
    m.exports.push(w::Export {
        name: "main".into(),
        kind: w::ExportKind::Func(0),
    });
    let bytes = encode_module(&m);
    let mut steps = Vec::new();
    for tier in [WasmTier::Bytecode, WasmTier::Tree] {
        let engine = Engine::with_config(EngineConfig::new().exec(Exec::Wasm).wasm_tier(tier));
        let mut inst = engine
            .load_wasm(bytes.clone())
            .unwrap()
            .instantiate()
            .unwrap();
        assert_eq!(inst.invoke_entry().unwrap().i32(), Some(1), "{tier:?}");
        // The grow that succeeded is undone by reset.
        inst.reset().unwrap();
        assert_eq!(inst.invoke_entry().unwrap().i32(), Some(1), "{tier:?}");
        steps.push(inst.wasm.as_ref().unwrap().last_steps());
    }
    assert_eq!(steps[0], steps[1], "the tiers must agree on fuel");
}

#[test]
fn load_wasm_runs_external_modules_and_rejects_differential() {
    let bytes = external_wasm_bytes();

    let wasm_engine = Engine::with_config(EngineConfig::new().exec(Exec::Wasm));
    let artifact = wasm_engine.load_wasm(bytes.clone()).unwrap();
    let mut inst = artifact.instantiate().unwrap();
    assert_eq!(inst.invoke_entry().unwrap().i32(), Some(42));
    assert!(inst.timings().no_static_stages());

    // Differential (default) and Interp modes must reject cleanly at the
    // decode stage — no trap, no half-configured instance.
    for config in [EngineConfig::new(), EngineConfig::new().interp_only()] {
        let engine = Engine::with_config(config);
        let err = engine.load_wasm(bytes.clone()).unwrap_err();
        assert_eq!(err.stage, Stage::Decode);
        assert!(
            matches!(err.kind, PipelineErrorKind::Unsupported(_)),
            "{err}"
        );
    }

    // Corrupt bytes fail with a structured decode error naming the stage.
    let mut bad = bytes;
    let len = bad.len();
    bad.truncate(len - 3);
    let err = wasm_engine.load_wasm(bad).unwrap_err();
    assert_eq!(err.stage, Stage::Decode);
    assert!(matches!(err.kind, PipelineErrorKind::Decode(_)), "{err}");
}

// Modules without RichWasm source have only their Wasm function type to
// check arguments against — the external binary of `load_wasm` and the
// lowered modules of a deserialized artifact alike. A bad argument list
// fails before the VM runs, with the error a RichWasm export gives.
#[test]
fn wasm_only_artifacts_check_arguments_against_the_wasm_type() {
    let engine = Engine::with_config(EngineConfig::new().exec(Exec::Wasm));
    let loaded = engine.load_wasm(external_wasm_bytes()).unwrap();
    let bytes = engine
        .compile(&ModuleSet::new().richwasm("m", arith_module()))
        .unwrap()
        .serialize()
        .expect("a host-free artifact serializes");
    let decoded = richwasm_repro::Artifact::deserialize(&bytes).unwrap();

    let calls = [
        (loaded, "main", "main", vec![], vec![Value::i32(1)]),
        (
            decoded,
            "m",
            "add",
            vec![Value::i32(40), Value::i32(2)],
            vec![Value::i32(40), Value::i64(2)],
        ),
    ];
    for (artifact, module, func, good, bad) in calls {
        let mut inst = artifact.instantiate().unwrap();
        let err = inst.invoke(module, func, bad).unwrap_err();
        assert_eq!(err.stage, Stage::Execute, "{err}");
        assert!(
            matches!(err.kind, PipelineErrorKind::Unsupported(_)),
            "{err}"
        );
        let err = inst.invoke(module, "nope", vec![]).unwrap_err();
        assert!(
            matches!(err.kind, PipelineErrorKind::Unsupported(_)),
            "{err}"
        );
        assert_eq!(inst.invocations(), 0, "no backend ran");
        assert_eq!(inst.invoke(module, func, good).unwrap().i32(), Some(42));
    }
}

#[test]
fn persistent_cache_survives_engine_restart() {
    let dir = scratch_dir("disk_hit");
    let config = || EngineConfig::new().exec(Exec::Wasm).cache_dir(&dir);

    // Engine A: cold compile, written to disk.
    let a = Engine::with_config(config());
    let cold = a.compile(&stash_set()).unwrap();
    let mut cold_inst = cold.instantiate().unwrap();
    let cold_result = cold_inst.invoke_entry().unwrap().results().to_vec();
    assert_eq!(a.cache_stats().misses, 1);
    assert_eq!(a.cache_stats().disk_hits, 0);

    // Engine B — a "process restart": same directory, fresh in-memory
    // cache. The compile is a disk hit: byte-identical artifact, same
    // key, and *no static stage ran* (the acceptance invariant).
    let b = Engine::with_config(config());
    let warm = b.compile(&stash_set()).unwrap();
    let stats = b.cache_stats();
    assert_eq!(stats.disk_hits, 1, "{stats:?}");
    assert_eq!(stats.misses, 0, "{stats:?}");
    assert_eq!(stats.disk_misses, 0, "{stats:?}");
    assert_eq!(warm.key(), cold.key());
    assert_eq!(warm.wasm_binaries(), cold.wasm_binaries());
    assert!(
        warm.timings().no_static_stages(),
        "disk hit re-ran a static stage: {}",
        warm.timings()
    );
    assert_eq!(warm.entry(), cold.entry());

    // And it actually runs, agreeing with the cold artifact.
    let mut warm_inst = warm.instantiate().unwrap();
    assert_eq!(
        warm_inst.invoke_entry().unwrap().results(),
        &cold_result[..]
    );
    assert!(warm_inst.timings().no_static_stages());

    // A third engine hits the in-memory cache of B? No — fresh engine,
    // disk again; its *second* compile is the memory hit.
    let c = Engine::with_config(config());
    c.compile(&stash_set()).unwrap();
    c.compile(&stash_set()).unwrap();
    let stats = c.cache_stats();
    assert_eq!((stats.disk_hits, stats.hits, stats.misses), (1, 1, 0));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_cache_entries_fall_back_to_cold_compile() {
    let dir = scratch_dir("corrupt");
    let config = || EngineConfig::new().exec(Exec::Wasm).cache_dir(&dir);

    let a = Engine::with_config(config());
    let cold = a.compile(&stash_set()).unwrap();
    let entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(entries.len(), 1, "one hash-keyed cache file");

    // Flip bytes in the middle of the stored artifact: the checksum (or
    // the module re-validation) must reject it, the compile must fall
    // back to cold — recorded as both a disk miss and a compile miss —
    // and the entry must be rewritten intact.
    let path = &entries[0];
    let mut bytes = std::fs::read(path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    bytes[mid + 1] ^= 0xff;
    std::fs::write(path, &bytes).unwrap();

    let b = Engine::with_config(config());
    let refreshed = b.compile(&stash_set()).unwrap();
    let stats = b.cache_stats();
    assert_eq!(stats.disk_misses, 1, "{stats:?}");
    assert_eq!(stats.misses, 1, "{stats:?}");
    assert_eq!(stats.disk_hits, 0, "{stats:?}");
    assert_eq!(refreshed.wasm_binaries(), cold.wasm_binaries());

    // The rewrite healed the entry: the next fresh engine disk-hits.
    let c = Engine::with_config(config());
    c.compile(&stash_set()).unwrap();
    assert_eq!(c.cache_stats().disk_hits, 1);

    // Total garbage (wrong magic) is also just a recorded miss.
    std::fs::write(path, b"definitely not an artifact").unwrap();
    let d = Engine::with_config(config());
    d.compile(&stash_set()).unwrap();
    assert_eq!(d.cache_stats().disk_misses, 1);
    assert_eq!(d.cache_stats().misses, 1);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn artifact_serialize_round_trips_and_rejects_tampering() {
    let engine = Engine::with_config(EngineConfig::new().exec(Exec::Wasm));
    let artifact = engine.compile(&counter_set()).unwrap();
    let bytes = artifact
        .serialize()
        .expect("Exec::Wasm artifact serializes");

    let loaded = richwasm_repro::Artifact::deserialize(&bytes).unwrap();
    assert_eq!(loaded.key(), artifact.key());
    assert_eq!(loaded.entry(), artifact.entry());
    assert_eq!(loaded.entry_func(), artifact.entry_func());
    assert_eq!(loaded.wasm_binaries(), artifact.wasm_binaries());
    assert!(loaded.timings().no_static_stages());

    // The loaded artifact serves real traffic.
    let mut inst = loaded.instantiate().unwrap();
    inst.invoke("app", "setup", vec![Value::i32(4)]).unwrap();
    inst.invoke("app", "bump", vec![Value::Unit]).unwrap();
    assert_eq!(
        inst.invoke("app", "total", vec![Value::Unit])
            .unwrap()
            .i32(),
        Some(4)
    );

    // Any single-byte corruption is caught (checksum, or strict decode
    // of the embedded modules for a byte the checksum covers... the
    // checksum covers everything, so: always caught).
    for idx in [0, 7, bytes.len() / 2, bytes.len() - 1] {
        let mut bad = bytes.clone();
        bad[idx] ^= 0x01;
        assert!(
            richwasm_repro::Artifact::deserialize(&bad).is_err(),
            "corruption at byte {idx} accepted"
        );
    }
    assert!(richwasm_repro::Artifact::deserialize(&bytes[..20]).is_err());

    // Non-persistable artifacts say so instead of lying on disk:
    // differential artifacts need sources, host closures live in memory.
    let differential = Engine::new().compile(&counter_set()).unwrap();
    assert!(differential.serialize().is_none());
    let hosted = Engine::with_config(EngineConfig::new().exec(Exec::Wasm))
        .compile(&ModuleSet::new().richwasm("m", ticker_module()).host_fn(
            "host",
            "tick",
            HostSig::new([HostValType::I32], [HostValType::I32]),
            |_| Ok(vec![HostVal::I32(1)]),
        ))
        .unwrap();
    assert!(hosted.serialize().is_none());
}

// The flat-bytecode tier: `.rwart` v4 persistence (bytecode rebuilt
// on load), step-for-step agreement with the tree tier, and stale-format
// fallbacks.

/// The engine-side FNV-1a-128 the artifact checksum uses, replicated so
/// tests can re-seal deliberately tampered payloads and reach the
/// checks that run after the checksum.
fn fnv128(bytes: &[u8]) -> u128 {
    let mut h: u128 = 0x6c62272e07bb014262b821756295c58d;
    for &b in bytes {
        h ^= b as u128;
        h = h.wrapping_mul(0x0000000001000000000000000000013b);
    }
    h
}

#[test]
fn bytecode_artifact_v4_round_trips_byte_exact() {
    let engine = Engine::with_config(EngineConfig::new().exec(Exec::Wasm));
    let artifact = engine.compile(&counter_set()).unwrap();
    let bytes = artifact.serialize().expect("v4 artifact serializes");
    assert_eq!(&bytes[..6], b"RWART\x04", "v4 magic");

    // deserialize ∘ serialize is byte-identical: modules, metadata and
    // analysis reports survive the round trip exactly.
    let loaded = richwasm_repro::Artifact::deserialize(&bytes).unwrap();
    let again = loaded.serialize().expect("loaded artifact re-serializes");
    assert_eq!(bytes, again, "serialize∘deserialize∘serialize must fix");

    // And the loaded artifact executes on the bytecode tier.
    assert_eq!(
        loaded.config().wasm_tier,
        richwasm_repro::WasmTier::Bytecode
    );
    let mut inst = loaded.instantiate().unwrap();
    inst.invoke("app", "setup", vec![Value::i32(3)]).unwrap();
    inst.invoke("app", "bump", vec![Value::Unit]).unwrap();
    inst.invoke("app", "bump", vec![Value::Unit]).unwrap();
    assert_eq!(
        inst.invoke("app", "total", vec![Value::Unit])
            .unwrap()
            .i32(),
        Some(6)
    );
}

/// Rewrites a current `.rwart` file as format `version`, appending
/// `trailer` (the sections that version had and v4 dropped) and
/// re-sealing the checksum, so only the layout marks it stale.
fn restamp(bytes: &[u8], version: u8, trailer: &[u8]) -> Vec<u8> {
    let mut out = bytes[..bytes.len() - 16].to_vec();
    out[5] = version;
    out.extend_from_slice(trailer);
    let sum = fnv128(&out).to_le_bytes();
    out.extend_from_slice(&sum);
    out
}

#[test]
fn v2_cache_files_fall_back_to_a_cold_recompile() {
    let dir = scratch_dir("v2_fallback");
    let config = || EngineConfig::new().exec(Exec::Wasm).cache_dir(&dir);

    // Warm the disk cache, then rewrite the entry as an older format's
    // file: v2 (no trailing section) and v3 (an empty bytecode section,
    // a `u32` count of zero, after the analysis reports).
    let a = Engine::with_config(config());
    let artifact = a.compile(&counter_set()).unwrap();
    let path = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "rwart"))
        .expect("cache entry written");
    let current = std::fs::read(&path).unwrap();
    for (version, trailer) in [(2u8, &[][..]), (3, &0u32.to_le_bytes()[..])] {
        let stale = restamp(&current, version, trailer);
        std::fs::write(&path, &stale).unwrap();
        assert!(
            richwasm_repro::Artifact::deserialize(&stale).is_err(),
            "a v{version} file must not deserialize as v4"
        );

        // A fresh engine sees the stale file, counts a disk miss,
        // recompiles cold, still produces the identical artifact, and
        // rewrites the entry in the current format.
        let b = Engine::with_config(config());
        let recompiled = b.compile(&counter_set()).unwrap();
        let stats = b.cache_stats();
        assert_eq!(stats.disk_misses, 1, "stale v{version} file is a miss");
        assert_eq!(stats.misses, 1, "v{version}: recompiled cold");
        assert_eq!(recompiled.key(), artifact.key());
        assert_eq!(recompiled.wasm_binaries(), artifact.wasm_binaries());
        assert_eq!(
            std::fs::read(&path).unwrap(),
            current,
            "v{version} entry rewritten as v4"
        );
        let c = Engine::with_config(config());
        c.compile(&counter_set()).unwrap();
        assert_eq!(c.cache_stats().disk_hits, 1, "v{version}: rewrite hits");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// A `main` that returns `k`, as an external producer's `.wasm`.
fn constant_main(k: i32) -> Vec<u8> {
    let mut m = w::Module::default();
    let t = m.intern_type(w::FuncType {
        params: vec![],
        results: vec![w::ValType::I32],
    });
    m.funcs.push(w::FuncDef {
        type_idx: t,
        locals: vec![],
        body: vec![w::WInstr::I32Const(k)],
    });
    m.exports.push(w::Export {
        name: "main".into(),
        kind: w::ExportKind::Func(0),
    });
    encode_module(&m)
}

/// The only code a `.rwart` file carries is its validated `.wasm`
/// modules. Forge A's file with every byte after A's module that differs
/// in B's file (B's `main` returns another constant) and re-seal the
/// checksum: loading must either refuse the file or run A's module.
#[test]
fn a_loaded_artifact_runs_only_its_validated_wasm() {
    const A: i32 = 1_234_567;
    const B: i32 = 7_654_321;
    let engine = Engine::with_config(EngineConfig::new().exec(Exec::Wasm));
    let a = engine.load_wasm(constant_main(A)).unwrap();
    let b = engine.load_wasm(constant_main(B)).unwrap();
    let mut forged = a.serialize().unwrap();
    let theirs = b.serialize().unwrap();
    assert_eq!(forged.len(), theirs.len(), "A and B frame alike");

    let (_, wasm) = a.wasm_binaries().last().unwrap();
    let wasm_end = forged
        .windows(wasm.len())
        .position(|w| w == wasm.as_slice())
        .expect("A's module is in A's file")
        + wasm.len();
    let body_len = forged.len() - 16;
    let mut spliced = 0;
    for i in wasm_end..body_len {
        if forged[i] != theirs[i] {
            forged[i] = theirs[i];
            spliced += 1;
        }
    }
    let sum = fnv128(&forged[..body_len]).to_le_bytes();
    forged[body_len..].copy_from_slice(&sum);

    if let Ok(loaded) = richwasm_repro::Artifact::deserialize(&forged) {
        assert_eq!(loaded.wasm_binaries(), a.wasm_binaries());
        let mut inst = loaded.instantiate().unwrap();
        assert_eq!(
            inst.invoke_entry().unwrap().i32(),
            Some(A),
            "{spliced} spliced bytes made A's file run other code"
        );
    }
}

/// The bytecode and tree tiers agree on every result and on the step
/// count of every invocation: on the counter scenario across a reset,
/// and on external modules whose branches the lowering never emits
/// (a branch out of a parameterised block, a branch to the function
/// label), which both must run per the Wasm spec.
#[test]
fn bytecode_tier_matches_the_tree_tier_step_for_step() {
    use richwasm_bench::workloads::wasm_branch_probes;
    use richwasm_repro::{Instance, WasmTier};

    fn run(inst: &mut Instance, func: &str, arg: Value) -> (Option<i32>, u64) {
        let out = inst.invoke("app", func, vec![arg]).unwrap().i32();
        (out, inst.wasm.as_ref().unwrap().last_steps())
    }
    let engines: Vec<Engine> = [WasmTier::Bytecode, WasmTier::Tree]
        .into_iter()
        .map(|t| Engine::with_config(EngineConfig::new().exec(Exec::Wasm).wasm_tier(t)))
        .collect();
    let mut insts: Vec<Instance> = engines
        .iter()
        .map(|e| e.instantiate(&counter_set()).unwrap())
        .collect();
    for (setup, bumps) in [(5, 10), (1, 1)] {
        let traces: Vec<Vec<(Option<i32>, u64)>> = insts
            .iter_mut()
            .map(|inst| {
                let mut trace = vec![run(inst, "setup", Value::i32(setup))];
                for _ in 0..bumps {
                    trace.push(run(inst, "bump", Value::Unit));
                }
                trace.push(run(inst, "total", Value::Unit));
                // The second round starts from a reset instance.
                inst.reset().unwrap();
                trace
            })
            .collect();
        assert_eq!(traces[0], traces[1], "setup {setup}, {bumps} bumps");
        assert_eq!(traces[0].last().unwrap().0, Some(setup * bumps));
    }

    for (probe, m, want) in wasm_branch_probes() {
        let steps: Vec<u64> = engines
            .iter()
            .map(|e| {
                let artifact = e.load_wasm(encode_module(&m)).unwrap();
                let mut inst = artifact.instantiate().unwrap();
                assert_eq!(inst.invoke_entry().unwrap().i32(), Some(want), "{probe}");
                inst.wasm.as_ref().unwrap().last_steps()
            })
            .collect();
        assert_eq!(steps[0], steps[1], "{probe}: the tiers must agree on fuel");
    }

    // Tier choice is part of the fingerprint, hence the cache key.
    assert_ne!(
        engines[0].config().fingerprint(),
        engines[1].config().fingerprint(),
        "tier must contribute to the configuration fingerprint"
    );
}

/// Through `load_wasm` and on both tiers, the float probes give the
/// spec's result bits: signalling NaNs keep their payload through sign
/// operators and reinterprets, `min`/`max` order NaN and signed zeros
/// as the spec does, `nearest(-0.5)` is -0, and conversions round once.
#[test]
fn loaded_float_probes_give_spec_bits_on_both_tiers() {
    use richwasm_bench::workloads::wasm_float_probes;
    use richwasm_repro::WasmTier;
    use richwasm_wasm::exec::Val;

    for tier in [WasmTier::Bytecode, WasmTier::Tree] {
        let engine = Engine::with_config(EngineConfig::new().exec(Exec::Wasm).wasm_tier(tier));
        for (probe, m, want) in wasm_float_probes() {
            let artifact = engine.load_wasm(encode_module(&m)).unwrap();
            let out = artifact.instantiate().unwrap().invoke_entry().unwrap();
            let got = match out.wasm.as_deref() {
                Some([Val::I32(x)]) => u64::from(*x),
                Some([Val::I64(x)]) => *x,
                Some([Val::F32(x)]) => u64::from(x.to_bits()),
                Some([Val::F64(x)]) => x.to_bits(),
                other => panic!("{probe} on {tier:?}: {other:?}"),
            };
            assert_eq!(got, want, "{probe} on {tier:?}: got {got:#x}");
        }
    }
}

#[test]
fn tree_tier_still_serves_and_caches_separately() {
    use richwasm_repro::WasmTier;
    let tree = Engine::with_config(EngineConfig::new().wasm_tier(WasmTier::Tree));
    let mut inst = tree.instantiate(&counter_set()).unwrap();
    inst.invoke("app", "setup", vec![Value::i32(4)]).unwrap();
    inst.invoke("app", "bump", vec![Value::Unit]).unwrap();
    assert_eq!(
        inst.invoke("app", "total", vec![Value::Unit])
            .unwrap()
            .i32(),
        Some(4)
    );
    // Tree-tier artifacts serialize and load without building bytecode.
    let wasm_tree = Engine::with_config(
        EngineConfig::new()
            .exec(Exec::Wasm)
            .wasm_tier(WasmTier::Tree),
    );
    let artifact = wasm_tree.compile(&counter_set()).unwrap();
    let bytes = artifact.serialize().expect("tree-tier artifact serializes");
    let loaded = richwasm_repro::Artifact::deserialize(&bytes).unwrap();
    assert_eq!(loaded.config().wasm_tier, WasmTier::Tree);
    let mut inst = loaded.instantiate().unwrap();
    inst.invoke("app", "setup", vec![Value::i32(2)]).unwrap();
    inst.invoke("app", "bump", vec![Value::Unit]).unwrap();
    assert_eq!(
        inst.invoke("app", "total", vec![Value::Unit])
            .unwrap()
            .i32(),
        Some(2)
    );
}

// Pool contention must be observable: a checkout that finds the pool
// empty blocks until a checkin wakes it, and its wait shows up in
// `PoolStats`.
#[test]
fn pool_blocked_checkout_accounts_the_wait() {
    use std::sync::mpsc;
    use std::time::Duration;

    let artifact = Engine::new().compile(&stash_set()).unwrap();
    let pool = artifact.pool(1).unwrap();

    // Uncontended: immediate success, no blocked wait recorded.
    let held = pool.checkout();
    assert_eq!(pool.stats().blocked_waits, 0);

    // Contended: the only instance is out, so a second checkout blocks
    // until the checkin, and the wait is visible in the stats.
    let pool = &pool;
    std::thread::scope(|scope| {
        let (ready, about_to_block) = mpsc::channel();
        let waiter = scope.spawn(move || {
            ready.send(()).unwrap();
            let mut inst = pool.checkout();
            inst.invoke("l3", "main", vec![]).unwrap().i32()
        });
        about_to_block.recv().unwrap();
        std::thread::sleep(Duration::from_millis(30));
        drop(held);
        assert_eq!(waiter.join().unwrap(), Some(42));
    });
    let stats = pool.stats();
    assert_eq!(stats.checkouts, 2);
    assert_eq!(stats.blocked_waits, 1, "{stats}");
    assert!(
        stats.blocked_wait_time() >= Duration::from_millis(25),
        "blocked time unaccounted: {stats}"
    );
}

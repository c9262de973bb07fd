//! The serving contract of [`EngineServer`] (DESIGN.md §10):
//!
//! * every accepted job's agreed result equals the sequential oracle;
//! * admission is deny-by-default and bounded — unknown tenants are
//!   rejected, a full tenant queue sheds with `Backpressure`;
//! * fuel preemption fails the one hot job, not the server: the next
//!   job on the same (recycled) instance succeeds;
//! * a panicking host closure fails its job with `Panicked`, and the
//!   worker, the instance and the counters survive it;
//! * `drain` under concurrent submitters resolves **every** accepted
//!   ticket (zero dropped) and rejects everything after;
//! * the telemetry counters account for exactly what happened.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use richwasm::syntax::{self, NumType};
use richwasm_bench::workloads::churn;
use richwasm_repro::engine::{Artifact, Engine, Job, ModuleSet};
use richwasm_repro::server::{EngineServer, JobError, ServerConfig, SubmitError, TenantConfig};
use richwasm_repro::{HostSig, HostVal, HostValType};

fn churn_artifact(n: u32) -> Artifact {
    Engine::new()
        .compile(&ModuleSet::new().richwasm("m", churn(n)))
        .unwrap()
}

fn churn_job() -> Job {
    Job::new("m", "main", vec![])
}

#[test]
fn accepted_jobs_agree_with_the_sequential_oracle() {
    let artifact = churn_artifact(100);
    let oracle = artifact
        .instantiate()
        .unwrap()
        .invoke_entry()
        .unwrap()
        .i32();
    assert_eq!(oracle, Some(100));

    let server = EngineServer::start(
        &artifact,
        ServerConfig::new()
            .workers(2)
            .tenant("t", TenantConfig::new().queue_depth(64)),
    )
    .unwrap();
    let tickets: Vec<_> = (0..40)
        .map(|_| server.submit("t", churn_job()).expect("within queue depth"))
        .collect();
    for ticket in &tickets {
        let outcome = ticket.wait();
        assert_eq!(
            outcome.result.expect("job succeeded").i32(),
            oracle,
            "a served result diverged from the sequential oracle"
        );
        assert!(outcome.timing.service > Duration::ZERO);
    }
    server.drain();

    let stats = server.stats();
    assert_eq!(stats.completed, 40);
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.queued, 0, "drained server holds no queued jobs");
    assert_eq!(stats.in_flight, 0);
    assert!(stats.p50 > Duration::ZERO, "histogram recorded latencies");
    assert!(stats.p50 <= stats.p90 && stats.p90 <= stats.p99);
    assert!(stats.throughput > 0.0);
    // The Display impls render one coherent stats block.
    assert!(format!("{stats}").contains("completed"));
    assert!(format!("{}", server.pool_stats()).contains("checkouts"));
}

#[test]
fn unknown_tenants_are_denied_by_default() {
    let artifact = churn_artifact(10);
    let server = EngineServer::start(
        &artifact,
        ServerConfig::new()
            .workers(1)
            .tenant("known", TenantConfig::new()),
    )
    .unwrap();
    assert_eq!(
        server.submit("nobody", churn_job()).unwrap_err(),
        SubmitError::UnknownTenant
    );
    // And a server configured with no tenants at all denies everyone.
    let closed = EngineServer::start(&artifact, ServerConfig::new().workers(1)).unwrap();
    assert_eq!(
        closed.submit("known", churn_job()).unwrap_err(),
        SubmitError::UnknownTenant
    );
}

/// A guest whose `main` calls `host.hold(0)` — the host blocks until the
/// test releases `gate`, pinning the worker mid-job deterministically.
fn gated_set(gate: Arc<AtomicBool>) -> ModuleSet {
    let i32t = syntax::Type::num(NumType::I32);
    let m = syntax::Module {
        funcs: vec![
            syntax::Func::Imported {
                exports: vec![],
                module: "host".into(),
                name: "hold".into(),
                ty: syntax::FunType::mono(vec![i32t.clone()], vec![i32t.clone()]),
            },
            syntax::Func::Defined {
                exports: vec!["main".into()],
                ty: syntax::FunType::mono(vec![], vec![i32t]),
                locals: vec![],
                body: vec![syntax::Instr::i32(0), syntax::Instr::Call(0, vec![])],
            },
        ],
        ..syntax::Module::default()
    };
    ModuleSet::new().richwasm("m", m).host_fn(
        "host",
        "hold",
        HostSig::new([HostValType::I32], [HostValType::I32]),
        move |_args| {
            while !gate.load(Ordering::Acquire) {
                thread::sleep(Duration::from_millis(1));
            }
            Ok(vec![HostVal::I32(7)])
        },
    )
}

#[test]
fn full_tenant_queue_sheds_with_backpressure() {
    let gate = Arc::new(AtomicBool::new(false));
    let artifact = Engine::new()
        .compile(&gated_set(Arc::clone(&gate)))
        .unwrap();
    let server = EngineServer::start(
        &artifact,
        ServerConfig::new()
            .workers(1)
            .tenant("t", TenantConfig::new().queue_depth(2)),
    )
    .unwrap();

    // The single worker picks this job up and blocks in the host call.
    let blocked = server.submit("t", churn_job()).unwrap();
    while {
        let s = server.stats();
        s.in_flight == 0 || s.queued > 0
    } {
        thread::sleep(Duration::from_millis(1));
    }

    // Two more fill the queue to its configured depth...
    let queued_a = server.submit("t", churn_job()).unwrap();
    let queued_b = server.submit("t", churn_job()).unwrap();
    // ...and the next submission is shed, non-blockingly.
    assert_eq!(
        server.submit("t", churn_job()).unwrap_err(),
        SubmitError::Backpressure
    );
    assert_eq!(server.tenant_shed("t"), Some(1));

    // Release the gate: everything accepted completes with the host's 7.
    gate.store(true, Ordering::Release);
    for ticket in [&blocked, &queued_a, &queued_b] {
        assert_eq!(
            ticket.wait().result.expect("accepted job ran").i32(),
            Some(7)
        );
    }
    server.drain();
    let stats = server.stats();
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.shed, 1);
}

#[test]
fn fuel_preemption_fails_the_job_not_the_server() {
    // One artifact, two exports: a hog that cannot finish under the
    // budget and a quick job that comfortably can.
    let set = ModuleSet::new()
        .richwasm("hog", churn(100_000))
        .richwasm("quick", churn(10));
    let artifact = Engine::new().compile(&set).unwrap();
    let server = EngineServer::start(
        &artifact,
        ServerConfig::new()
            .workers(1)
            .job_fuel(50_000)
            .tenant("t", TenantConfig::new()),
    )
    .unwrap();

    let hog = server.submit("t", Job::new("hog", "main", vec![])).unwrap();
    let quick = server
        .submit("t", Job::new("quick", "main", vec![]))
        .unwrap();

    assert_eq!(
        hog.wait().result.expect_err("the hog must be preempted"),
        JobError::FuelExhausted
    );
    // Same worker, same (recycled) instance: the preemption did not
    // poison it.
    assert_eq!(quick.wait().result.expect("quick job ran").i32(), Some(10));
    server.drain();
}

#[test]
fn panicking_host_fails_the_job_not_the_server() {
    // `f(x)` returns `host.double(x)`; the host panics on 0.
    let i32t = syntax::Type::num(NumType::I32);
    let m = syntax::Module {
        funcs: vec![
            syntax::Func::Imported {
                exports: vec![],
                module: "host".into(),
                name: "double".into(),
                ty: syntax::FunType::mono(vec![i32t.clone()], vec![i32t.clone()]),
            },
            syntax::Func::Defined {
                exports: vec!["f".into()],
                ty: syntax::FunType::mono(vec![i32t.clone()], vec![i32t]),
                locals: vec![],
                body: vec![
                    syntax::Instr::GetLocal(0, syntax::Qual::Unr),
                    syntax::Instr::Call(0, vec![]),
                ],
            },
        ],
        ..syntax::Module::default()
    };
    let set = ModuleSet::new().richwasm("m", m).host_fn(
        "host",
        "double",
        HostSig::new([HostValType::I32], [HostValType::I32]),
        |args| match args[0] {
            HostVal::I32(0) => panic!("host refuses 0"),
            HostVal::I32(x) => Ok(vec![HostVal::I32(2 * x)]),
            _ => Err("expected i32".into()),
        },
    );
    let artifact = Engine::new().compile(&set).unwrap();
    let server = EngineServer::start(
        &artifact,
        ServerConfig::new()
            .workers(1)
            .tenant("t", TenantConfig::new()),
    )
    .unwrap();
    let job = |x| Job::new("m", "f", vec![syntax::Value::i32(x)]);

    let boom = server.submit("t", job(0)).unwrap();
    let next = server.submit("t", job(21)).unwrap();
    assert_eq!(
        boom.wait().result.expect_err("the host panicked"),
        JobError::Panicked("host refuses 0".into())
    );
    // Same worker, same (reset) instance.
    assert_eq!(next.wait().result.expect("next job ran").i32(), Some(42));
    server.drain();

    let stats = server.stats();
    assert_eq!(stats.completed, 2);
    assert_eq!((stats.queued, stats.in_flight), (0, 0));
    let pool = server.pool_stats();
    assert_eq!((pool.checkouts, pool.recycled, pool.lost), (2, 2, 0));
}

#[test]
fn drain_resolves_every_accepted_ticket_under_concurrent_submit() {
    let artifact = churn_artifact(50);
    let server = EngineServer::start(
        &artifact,
        ServerConfig::new()
            .workers(2)
            .tenant("t", TenantConfig::new().queue_depth(256)),
    )
    .unwrap();

    let accepted: Vec<_> = thread::scope(|scope| {
        let server = &server;
        let submitters: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        match server.submit("t", churn_job()) {
                            Ok(ticket) => mine.push(ticket),
                            Err(SubmitError::Backpressure) => thread::yield_now(),
                            Err(SubmitError::Draining) => break,
                            Err(e) => panic!("unexpected submit error: {e}"),
                        }
                    }
                    mine
                })
            })
            .collect();
        thread::sleep(Duration::from_millis(30));
        server.drain();
        submitters
            .into_iter()
            .flat_map(|h| h.join().expect("submitter panicked"))
            .collect()
    });

    assert!(!accepted.is_empty(), "some jobs were accepted mid-stream");
    // The acceptance criterion: zero dropped in-flight jobs — every
    // accepted ticket resolved by the time drain returned.
    for (i, ticket) in accepted.iter().enumerate() {
        assert!(ticket.is_done(), "accepted ticket {i} was dropped by drain");
    }
    let stats = server.stats();
    assert_eq!(
        stats.completed as usize,
        accepted.len(),
        "completed count != accepted count"
    );
    assert_eq!(stats.queued, 0);
    // Post-drain submissions are rejected, idempotently.
    assert_eq!(
        server.submit("t", churn_job()).unwrap_err(),
        SubmitError::Draining
    );
    server.drain();
    assert_eq!(
        server.submit("t", churn_job()).unwrap_err(),
        SubmitError::Draining
    );
}

#[test]
fn wait_timeout_and_poll_observe_completion() {
    let artifact = churn_artifact(10);
    let server = EngineServer::start(
        &artifact,
        ServerConfig::new()
            .workers(1)
            .tenant("t", TenantConfig::new()),
    )
    .unwrap();
    let ticket = server.submit("t", churn_job()).unwrap();
    let outcome = ticket
        .wait_timeout(Duration::from_secs(30))
        .expect("a 10-iteration job finishes well inside 30s");
    assert_eq!(outcome.result.unwrap().i32(), Some(10));
    assert!(ticket.is_done());
    assert!(ticket.poll().is_some(), "poll observes the same outcome");
    server.drain();
}

#[test]
fn infeasible_budget_is_rejected_before_an_instance_checkout() {
    let artifact = churn_artifact(10);
    let required = artifact
        .static_min_steps("m", "main")
        .expect("analysis cached a finite minimum for the entry");
    assert!(required > 1, "churn(10) takes more than one step");

    let server = EngineServer::start(
        &artifact,
        ServerConfig::new()
            .workers(1)
            .job_fuel(required - 1)
            .tenant("t", TenantConfig::new()),
    )
    .unwrap();
    let outcome = server.submit("t", churn_job()).unwrap().wait();
    match outcome.result {
        Err(JobError::BudgetInfeasible {
            budget,
            required: r,
        }) => {
            assert_eq!(budget, required - 1);
            assert_eq!(r, required);
        }
        other => panic!("expected BudgetInfeasible, got {other:?}"),
    }
    assert_eq!(
        server.pool_stats().checkouts,
        0,
        "a provably infeasible job must not consume a pool checkout"
    );
    assert_eq!(server.stats().completed, 1, "the ticket still resolved");
    server.drain();

    // A feasible budget on the same artifact executes normally (the
    // static minimum is a true lower bound, not an over-estimate).
    let server = EngineServer::start(
        &artifact,
        ServerConfig::new()
            .workers(1)
            .job_fuel(required * 1000)
            .tenant("t", TenantConfig::new()),
    )
    .unwrap();
    let outcome = server.submit("t", churn_job()).unwrap().wait();
    assert_eq!(outcome.result.expect("feasible job").i32(), Some(10));
    assert_eq!(server.pool_stats().checkouts, 1);
    server.drain();
}

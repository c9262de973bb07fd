//! `serve_wasm` and `serve_default`: `EngineServer` serving short,
//! self-contained jobs drawn from the seed — small `churn`, small
//! `arith_chain`, the stash interop `main`, and a small ML tower.
//!
//! Two phases, one load-generator thread, alternating in rounds that take
//! half the run each:
//!
//! 1. **Open loop.** Poisson arrivals at a fixed rate, about 25% of the
//!    saturation throughput measured on a quiet 2-core virtual machine. At
//!    40% a machine slowed 1.5× by its neighbours runs the worker at 60%
//!    load and the median latency doubles; at 25% queueing stays a small
//!    share of it. The rate is a constant, never calibrated at run time,
//!    so a capacity gain shows as lower latency rather than as a higher
//!    offered load. Each job's latency runs from its due time:
//!    (submit − due) + `JobTiming::total()`.
//! 2. **Saturation.** A closed loop holding a fixed number of tickets
//!    outstanding; its completions per second are `ops_per_s`.
//!
//! The traced run serves the open loop once, taking the server's own split
//! of each job into queueing and service, then drives the job path
//! (checkout, invoke, reset) from the benchmark thread to split service.
//!
//! `serve_wasm` serves an `Exec::Wasm` artifact, where `WasmLinker::reset`
//! (a 1 MiB copy) outweighs the few-microsecond invokes. `serve_default`
//! serves `Engine::new()`'s default `Exec::Differential`, where the
//! RichWasm interpreter, the differential compare and the runtime rebuild
//! on reset dominate; Wasm-side gains should not move it.

use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

use richwasm_bench::workloads::{arith_chain, churn, ml_tower, stash_client, stash_module};
use richwasm_repro::engine::{Artifact, Engine, EngineConfig, Exec, Job, ModuleSet};
use richwasm_repro::server::{EngineServer, JobTicket, ServerConfig, TenantConfig};

use crate::compile::encoded_bytes;
use crate::invoke::{artifact_bytecode_ops, instantiate_probe, CENSUS_OPS};
use crate::oracle::{invoke_all, replay_backends, Call, Steps};
use crate::rng::Rng;
use crate::stats::{fastest_window_p50, fastest_window_rate, max, median, quantile, windowed_p99};
use crate::trace::Tracer;
use crate::{Params, Report};

#[derive(Clone, Copy)]
pub struct Mode {
    name: &'static str,
    exec: Exec,
    /// Open-loop arrival rate, jobs per second.
    rate: f64,
}

impl Mode {
    /// Jobs per window of `secs` of arrivals.
    fn window(&self, secs: f64) -> usize {
        (self.rate * secs) as usize
    }
}

pub const WASM: Mode = Mode {
    name: "serve_wasm",
    exec: Exec::Wasm,
    rate: 5000.0,
};

pub const DEFAULT: Mode = Mode {
    name: "serve_default",
    exec: Exec::Differential,
    rate: 800.0,
};

const TENANT: &str = "bench";
/// Deep enough that the open-loop rate never sheds.
const QUEUE_DEPTH: usize = 4096;
/// Tickets outstanding in the saturation phase.
const OUTSTANDING: usize = 32;
/// Windows hold the jobs that arrive in a fixed time at the mode's
/// open-loop rate, so both modes get about as many. Saturation runs near
/// four times that rate, so its windows span about 80 ms.
const SAT_WINDOW_S: f64 = 0.33;
/// Open-loop windows of the median latency.
const P50_WINDOW_S: f64 = 0.2;
/// Share of the run given to the open loop; saturation takes the rest.
const OPEN_SHARE: f64 = 0.5;
/// Rounds of open loop then saturation in an untraced run.
const ROUNDS: usize = 4;
/// Ops per untraced or traced stretch of the traced run's direct path.
const STRETCH: usize = 200;

/// Sleeps, then spins, until `due`. A plain sleep overshoots by tens of
/// microseconds, and by milliseconds when a virtual CPU has to be woken,
/// so the generator sleeps only while more than 2 ms remain. The spin
/// yields, so a server worker the kernel wakes on the generator's core
/// runs at once instead of after a time slice.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_millis(2) {
            std::thread::sleep(left - Duration::from_millis(1));
        } else {
            std::thread::yield_now();
        }
    }
}

fn job(c: &Call) -> Job {
    Job::new(c.module, c.func, c.args.clone())
}

fn accepted(c: &Call, ticket: &JobTicket) -> (bool, richwasm_repro::server::JobOutcome) {
    let outcome = ticket.wait();
    let ok = outcome.result.as_ref().is_ok_and(|inv| c.accepts(inv));
    (ok, outcome)
}

#[derive(Default)]
struct Open {
    lat_us: Vec<f64>,
    late_us: Vec<f64>,
    /// Traced, per accepted job (µs): the submit call, queueing and
    /// service.
    submit_us: Vec<f64>,
    queued_us: Vec<f64>,
    service_us: Vec<f64>,
}

/// The open-loop phase: Poisson arrivals at `rate` for `secs`, appended
/// to `out` once every job has finished.
#[allow(clippy::too_many_arguments)]
fn open_loop(
    server: &EngineServer,
    jobs: &[Call],
    rate: f64,
    secs: f64,
    rng: &mut Rng,
    tr: &mut Tracer,
    report: &mut Report,
    out: &mut Open,
) {
    let mut offsets = Vec::new();
    let mut at = 0.0;
    loop {
        at += rng.exp(1.0 / rate);
        if at >= secs {
            break;
        }
        offsets.push(at);
    }
    let start = Instant::now() + Duration::from_millis(1);
    let mut sent = Vec::with_capacity(offsets.len());
    for (i, off) in offsets.iter().enumerate() {
        let call = &jobs[i % jobs.len()];
        let j = job(call);
        let due = start + Duration::from_secs_f64(*off);
        wait_until(due);
        let t_sub = Instant::now();
        let r = server.submit(TENANT, j);
        let t_done = Instant::now();
        sent.push((call, due, t_sub, t_done, r));
    }
    for (call, due, t_sub, t_done, r) in sent {
        let late = t_sub - due;
        out.late_us.push(late.as_secs_f64() * 1e6);
        let Ok(ticket) = r else {
            report.op(false);
            continue;
        };
        let (ok, outcome) = accepted(call, &ticket);
        report.op(ok);
        let timing = outcome.timing;
        out.lat_us.push((late + timing.total()).as_secs_f64() * 1e6);
        if tr.on() {
            let op = tr.next_op();
            // The job is queued inside `submit`, so the submit call is off
            // its blocking path: it is a root span, and what it costs the
            // generator shows as the lateness of later jobs.
            tr.record("server.submit", op, t_sub, t_done);
            let start_service = t_sub + timing.queued;
            let id = tr.begin_at("op", op, due);
            tr.record("gen.late", op, due, t_sub);
            tr.record("server.queued", op, t_sub, start_service);
            tr.record(
                "server.service",
                op,
                start_service,
                start_service + timing.service,
            );
            tr.end_at(id, start_service + timing.service);
            out.submit_us.push((t_done - t_sub).as_secs_f64() * 1e6);
            out.queued_us.push(timing.queued.as_secs_f64() * 1e6);
            out.service_us.push(timing.service.as_secs_f64() * 1e6);
        }
    }
}

/// The saturation phase: `OUTSTANDING` tickets in flight for `secs`,
/// topped up half at a time. A tenant's queue is FIFO, so waiting on the
/// last ticket of the older half first puts the generator to sleep once per
/// `OUTSTANDING / 2` jobs rather than once per job, and it takes little
/// time from the workers. Appends each completion's time to `ends`, in
/// seconds of saturation so far.
fn saturate(
    server: &EngineServer,
    jobs: &[Call],
    secs: f64,
    ends: &mut Vec<f64>,
    report: &mut Report,
) {
    let mut inflight = VecDeque::new();
    let mut next = 0;
    let base = ends.last().copied().unwrap_or(0.0);
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < secs {
        while inflight.len() < OUTSTANDING {
            let call = &jobs[next % jobs.len()];
            next += 1;
            match server.submit(TENANT, job(call)) {
                Ok(t) => inflight.push_back((call, t)),
                Err(_) => report.op(false),
            }
        }
        let half = OUTSTANDING / 2;
        inflight[half - 1].1.wait();
        for (call, ticket) in inflight.drain(..half) {
            report.op(accepted(call, &ticket).0);
            ends.push(base + t0.elapsed().as_secs_f64());
        }
    }
    for (call, ticket) in inflight {
        report.op(accepted(call, &ticket).0);
    }
}

/// Traced runs only: the server's job path — `InstancePool::checkout`,
/// `Instance::invoke`, drop → check-in → `Instance::reset` — driven from
/// the benchmark thread over a pool of the same artifact, so the split of
/// service time into checkout, invoke and reset can be measured from
/// outside. Stretches of `STRETCH` ops run alternately untraced and
/// traced, so the tracing overhead compares ops run under the same machine
/// conditions; each traced op is then replayed on the backends directly.
/// Returns the untraced and traced op latencies (µs).
fn direct_path(
    art: &Artifact,
    jobs: &[Call],
    secs: f64,
    tr: &mut Tracer,
    steps: &mut Steps,
    report: &mut Report,
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let pool = art.pool(1).map_err(|e| e.to_string())?;
    let mut off = Tracer::new(false);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    let mut i = 0;
    while t0.elapsed().as_secs_f64() < secs || traced.len() < CENSUS_OPS {
        let call = std::slice::from_ref(&jobs[i % jobs.len()]);
        let on = (i / STRETCH) % 2 == 1;
        let t_op = if on { &mut *tr } else { &mut off };
        let op = t_op.next_op();
        let id = t_op.begin("op", op);
        let t = Instant::now();
        let mut inst = t_op.time("pool.checkout", op, || pool.checkout());
        let mut ok = invoke_all(&mut inst, call, t_op, op);
        t_op.time("pool.checkin", op, || drop(inst));
        let us = t.elapsed().as_secs_f64() * 1e6;
        t_op.end(id);
        if on {
            traced.push(us);
            // The first `CENSUS_OPS` traced ops are the same jobs on every
            // run with this seed: their steps are counted.
            let mut scratch = Steps::default();
            let s = if traced.len() <= CENSUS_OPS {
                &mut *steps
            } else {
                &mut scratch
            };
            ok &= replay_backends(&mut pool.checkout(), call, tr, op, s);
        } else {
            untraced.push(us);
        }
        report.op(ok);
        i += 1;
    }
    Ok((untraced, traced))
}

pub fn run(p: &Params, mode: Mode) -> Result<Report, String> {
    let mut report = Report::default();
    let mut rng = Rng::new(p.seed);
    // A narrow band: the churn job's cost, and so the mix's, is about the
    // same for every seed.
    let churn_n = rng.range(19, 22) as u32;
    let (arith_n, tower_d) = (10, 3);
    let set = ModuleSet::new()
        .richwasm("churn", churn(churn_n))
        .richwasm("arith", arith_chain(arith_n as usize))
        .ml("ml", stash_module(false))
        .l3("client", stash_client())
        .ml("tower", ml_tower(tower_d));
    // The job stream: every block of four holds each kind once, in a
    // seeded order, so every seed serves the same mix.
    let mut jobs = Vec::new();
    for _ in 0..1024 {
        let x = rng.range(0, 2001) as i32 - 1000;
        let mut block = [
            Call::churn("churn", churn_n),
            Call::arith("arith", arith_n, x),
            Call::stash("client"),
            Call::tower("tower", tower_d),
        ];
        rng.shuffle(&mut block);
        jobs.extend(block);
    }

    // Set-up: compile, pool and server; repeated, and the median reported.
    // One core stays with the load generator.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = cores.saturating_sub(1).max(1);
    let config = ServerConfig::new()
        .workers(workers)
        .tenant(TENANT, TenantConfig::new().queue_depth(QUEUE_DEPTH));
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..crate::SETUPS {
        // Drain the previous server before the next one starts.
        drop(built.take());
        let t = Instant::now();
        let art = Engine::with_config(EngineConfig::new().exec(mode.exec))
            .compile(&set)
            .map_err(|e| e.to_string())?;
        let server = EngineServer::start(&art, config.clone()).map_err(|e| e.to_string())?;
        setups.push(t.elapsed().as_secs_f64());
        built = Some((art, server));
    }
    let (art, server) = built.expect("set-up ran");
    report.set("setup_s", median(&setups));
    report.set("wasm_bytes", encoded_bytes(&art) as f64);

    let open_secs = OPEN_SHARE * p.seconds;
    if !p.trace {
        // Open loop and saturation alternate, so each figure samples the
        // whole run rather than one half of it.
        // The per-job records are reserved up front, several times what the
        // run will fill, so their growth does not step the peak RSS by a
        // doubling that depends on the job count. Pages are only resident
        // once written.
        let mut u = Open::default();
        let jobs_open = (2.0 * mode.rate * open_secs) as usize;
        u.lat_us.reserve(jobs_open);
        u.late_us.reserve(jobs_open);
        let mut ends = Vec::with_capacity(16 * mode.window(p.seconds - open_secs));
        let mut off = Tracer::new(false);
        for _ in 0..ROUNDS {
            open_loop(
                &server,
                &jobs,
                mode.rate,
                open_secs / ROUNDS as f64,
                &mut rng,
                &mut off,
                &mut report,
                &mut u,
            );
            saturate(
                &server,
                &jobs,
                (p.seconds - open_secs) / ROUNDS as f64,
                &mut ends,
                &mut report,
            );
        }
        let (p50, p50_windows) = fastest_window_p50(&u.lat_us, mode.window(P50_WINDOW_S));
        let (p99, p99_windows) = windowed_p99(&u.lat_us);
        report.set("op_p50_us", p50);
        report.set("op_p99_us", p99);
        println!(
            "{}: {workers} worker(s), open loop at {} jobs/s: {} jobs; p50 over {p50_windows} \
             windows, p99 over {p99_windows}; generator late p99 {:.1} us, max {:.1} us",
            mode.name,
            mode.rate,
            u.lat_us.len(),
            quantile(&u.late_us, 0.99),
            max(&u.late_us)
        );
        let ops_per_s = fastest_window_rate(&ends, mode.window(SAT_WINDOW_S));
        report.set("ops_per_s", ops_per_s);
        println!(
            "{}: saturation with {OUTSTANDING} tickets outstanding: {ops_per_s:.0} jobs/s",
            mode.name
        );
    } else {
        // The open loop as in the untraced run; once it ends, each job's
        // `JobTiming` (measured by the server) is recorded as spans.
        let mut u = Open::default();
        let mut tr = Tracer::new(true);
        open_loop(
            &server,
            &jobs,
            mode.rate,
            open_secs,
            &mut rng,
            &mut tr,
            &mut report,
            &mut u,
        );
        report.set("op_p99_us", windowed_p99(&u.lat_us).0);
        let mut steps = Steps::default();
        let (untraced, traced) = direct_path(
            &art,
            &jobs,
            p.seconds - open_secs,
            &mut tr,
            &mut steps,
            &mut report,
        )?;

        let checkout = tr.per_op_us("pool.checkout");
        let invoke = tr.per_op_us("engine.invoke");
        let checkin = tr.per_op_us("pool.checkin");
        let wasm = tr.per_op_us("wasm.invoke");
        let interp = tr.per_op_us("interp.invoke");
        let reset_wasm = tr.per_op_us("reset.wasm");
        let get = |m: &BTreeMap<u64, f64>, o: &u64| m.get(o).copied().unwrap_or(0.0);
        let vals = |m: &BTreeMap<u64, f64>| m.values().copied().collect::<Vec<_>>();
        let self_us: Vec<f64> = invoke
            .iter()
            .map(|(o, v)| (v - get(&wasm, o) - get(&interp, o)).max(0.0))
            .collect();
        let reset_rest: Vec<f64> = checkin
            .iter()
            .map(|(o, v)| (v - get(&reset_wasm, o)).max(0.0))
            .collect();
        // The blocking path of a direct op: checkout, invoke, check-in.
        let path: Vec<f64> = invoke
            .iter()
            .map(|(o, v)| get(&checkout, o) + v + get(&checkin, o))
            .collect();
        report.set("pool.checkout_us", median(&vals(&checkout)));
        report.set("engine.invoke.self_us", median(&self_us));
        report.set("wasm.invoke_us", median(&vals(&wasm)));
        report.set("interp.invoke_us", median(&vals(&interp)));
        report.set("wasm.steps", steps.wasm as f64);
        report.set("interp.steps", steps.interp as f64);
        report.set("reset.wasm_us", median(&vals(&reset_wasm)));
        report.set("reset.interp_us", median(&reset_rest));
        report.set("server.submit_us", median(&u.submit_us));
        report.set("server.queued_us", median(&u.queued_us));
        report.set("server.service_us", median(&u.service_us));
        report.set("gen.late_us.p99", quantile(&u.late_us, 0.99));
        report.set("gen.late_us.max", max(&u.late_us));
        report.set("bytecode.ops", artifact_bytecode_ops(&art));
        instantiate_probe(&set, &mut report)?;
        println!(
            "{}: open-loop job p50 {:.1} us = late {:.1} + queued {:.1} + service {:.1} us \
             (medians); the direct path serves a job in {:.1} us untraced",
            mode.name,
            median(&u.lat_us),
            median(&u.late_us),
            median(&u.queued_us),
            median(&u.service_us),
            median(&untraced)
        );
        crate::trace::summarize(&tr, &mut report, &untraced, &traced, &path, p)?;
    }
    server.drain();
    let stats = server.stats();
    report.set("server.shed", stats.shed as f64);
    report.set(
        "pool.blocked_waits",
        server.pool_stats().blocked_waits as f64,
    );
    Ok(report)
}

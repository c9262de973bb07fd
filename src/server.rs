//! Open-loop serving: [`EngineServer`] — an asynchronous job scheduler
//! over an [`Artifact`] + [`InstancePool`].
//!
//! The batch APIs ([`InstancePool::invoke_batch`],
//! `Engine::invoke_parallel`) are *closed-loop*: the caller blocks until
//! the whole batch completes, so arrival stops whenever the system is
//! busy. Real traffic is an *open-loop* stream — requests keep arriving
//! whether or not the system keeps up — and an embedder that cannot shed
//! load, bound queueing, or preempt a runaway guest will fall over on
//! the first hot tenant. This module adds that serving discipline
//! (DESIGN.md §10):
//!
//! * **Bounded queues, non-blocking submission.** Each tenant owns a
//!   bounded lock-free ring ([`richwasm_queue::RingQueue`]);
//!   [`EngineServer::submit`] never blocks — it returns a [`JobTicket`]
//!   on admission or [`SubmitError::Backpressure`] when the tenant's
//!   queue is full. Admission is **deny-by-default**: unknown tenants
//!   get [`SubmitError::UnknownTenant`].
//! * **Per-tenant admission control.** [`TenantConfig`] bounds both the
//!   queue depth (jobs waiting) and max-in-flight (jobs executing), so
//!   one hot tenant saturates its own allowance, not the pool.
//! * **Fuel preemption.** Every job runs under a fuel budget
//!   ([`ServerConfig::job_fuel`]) on both backends; an exhausted job
//!   fails with [`JobError::FuelExhausted`] without poisoning its
//!   instance — checkin resets it, so the next job gets a fresh program.
//!   A job that panics (say, in a host closure) resolves with
//!   [`JobError::Panicked`] the same way; its worker keeps serving.
//! * **Latency telemetry.** Enqueue→start→finish timestamps feed a
//!   fixed-size log-bucketed histogram; [`ServerStats`] reports
//!   throughput, queue depth, shed count, and p50/p90/p99 latency.
//! * **Graceful shutdown.** [`EngineServer::drain`] rejects new work,
//!   completes everything already accepted (zero dropped tickets), and
//!   joins the workers. Dropping the server drains it.
//!
//! # Example
//!
//! ```
//! use richwasm_repro::engine::{Engine, Job, ModuleSet};
//! use richwasm_repro::server::{EngineServer, ServerConfig, TenantConfig};
//! use richwasm::syntax::*;
//!
//! let m = Module {
//!     funcs: vec![Func::Defined {
//!         exports: vec!["main".into()],
//!         ty: FunType::mono(vec![], vec![Type::num(NumType::I32)]),
//!         locals: vec![],
//!         body: vec![Instr::i32(42)],
//!     }],
//!     ..Module::default()
//! };
//! let artifact = Engine::new()
//!     .compile(&ModuleSet::new().richwasm("m", m))
//!     .unwrap();
//! let server = EngineServer::start(
//!     &artifact,
//!     ServerConfig::new().workers(2).tenant("alice", TenantConfig::new()),
//! )
//! .unwrap();
//! let ticket = server.submit("alice", Job::new("m", "main", vec![])).unwrap();
//! let outcome = ticket.wait();
//! assert_eq!(outcome.result.unwrap().i32(), Some(42));
//! server.drain();
//! println!("{}", server.stats());
//! ```

use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use richwasm_queue::RingQueue;

use crate::engine::{Artifact, InstancePool, Invocation, Job, PipelineError, PoolStats};

/// Per-tenant admission limits. Defaults: queue depth 64, max-in-flight
/// unbounded (the pool size is the real execution bound).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantConfig {
    /// Maximum jobs waiting in this tenant's queue. A submit beyond the
    /// bound is shed with [`SubmitError::Backpressure`].
    pub queue_depth: usize,
    /// Maximum jobs of this tenant executing concurrently. Workers skip
    /// a tenant at its bound, so a hot tenant cannot occupy every pool
    /// instance while others wait.
    pub max_in_flight: usize,
}

impl TenantConfig {
    /// Default limits (queue depth 64, in-flight unbounded).
    pub fn new() -> TenantConfig {
        TenantConfig {
            queue_depth: 64,
            max_in_flight: usize::MAX,
        }
    }

    /// Sets the queue-depth bound (clamped to at least 1).
    pub fn queue_depth(mut self, depth: usize) -> TenantConfig {
        self.queue_depth = depth.max(1);
        self
    }

    /// Sets the max-in-flight bound (clamped to at least 1).
    pub fn max_in_flight(mut self, n: usize) -> TenantConfig {
        self.max_in_flight = n.max(1);
        self
    }
}

impl Default for TenantConfig {
    fn default() -> Self {
        TenantConfig::new()
    }
}

/// Server-wide configuration: worker/pool size, the per-job fuel
/// budget, and the tenant table (deny-by-default: only tenants listed
/// here may submit).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads (= pool capacity). Default 2.
    pub workers: usize,
    /// Per-job fuel budget applied to **both** backends at every
    /// checkout (`None` = the artifact's own [`EngineConfig::fuel`]
    /// settings stand). Fuel exhaustion fails the one job
    /// ([`JobError::FuelExhausted`]); the instance is reset on checkin,
    /// so a preempted guest cannot poison the pool.
    ///
    /// [`EngineConfig::fuel`]: crate::engine::EngineConfig::fuel
    pub job_fuel: Option<u64>,
    tenants: Vec<(String, TenantConfig)>,
}

impl ServerConfig {
    /// Default configuration: 2 workers, no fuel override, no tenants
    /// (every submit denied until [`ServerConfig::tenant`] adds one).
    pub fn new() -> ServerConfig {
        ServerConfig {
            workers: 2,
            job_fuel: None,
            tenants: Vec::new(),
        }
    }

    /// Sets the worker-thread count (clamped to at least 1).
    pub fn workers(mut self, n: usize) -> ServerConfig {
        self.workers = n.max(1);
        self
    }

    /// Sets the per-job fuel budget.
    pub fn job_fuel(mut self, fuel: u64) -> ServerConfig {
        self.job_fuel = Some(fuel);
        self
    }

    /// Registers a tenant (replacing any previous registration of the
    /// same name).
    pub fn tenant(mut self, name: impl Into<String>, config: TenantConfig) -> ServerConfig {
        let name = name.into();
        self.tenants.retain(|(n, _)| *n != name);
        self.tenants.push((name, config));
        self
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig::new()
    }
}

/// Why [`EngineServer::submit`] rejected a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The tenant is not registered — admission is deny-by-default.
    UnknownTenant,
    /// The tenant's queue is at its configured depth; the job was shed.
    Backpressure,
    /// The server is draining (or drained) and accepts no new work.
    Draining,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SubmitError::UnknownTenant => "unknown tenant (admission is deny-by-default)",
            SubmitError::Backpressure => "tenant queue full (job shed)",
            SubmitError::Draining => "server is draining",
        })
    }
}

impl std::error::Error for SubmitError {}

/// Why a job failed (the per-job analogue of [`PipelineError`], owned
/// and cloneable so the ticket can hand it to any number of waiters).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The job exhausted its fuel budget on either backend and was
    /// preempted. Retryable policy failure, not a guest fault — the
    /// instance was reset and subsequent jobs are unaffected.
    FuelExhausted,
    /// The job's fuel budget is strictly below the statically proven
    /// minimum step cost of the target function (the `richwasm-analyze`
    /// fuel bounds cached on the artifact): it could only ever be
    /// preempted, so the server rejects it *before* an instance
    /// checkout instead of burning a pool slot on a doomed run.
    BudgetInfeasible {
        /// The budget the job would have run under.
        budget: u64,
        /// The proven minimum number of interpreter steps to complete.
        required: u64,
    },
    /// The job failed for any other reason (trap, mismatch, …), rendered
    /// from the underlying [`PipelineError`].
    Failed(String),
    /// The job panicked (for example in a host closure); the payload's
    /// message. The worker survives, and the instance is reset like
    /// after any other failure.
    Panicked(String),
}

impl JobError {
    fn from_pipeline(e: &PipelineError) -> JobError {
        if e.is_fuel_exhausted() {
            JobError::FuelExhausted
        } else {
            JobError::Failed(e.to_string())
        }
    }
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::FuelExhausted => f.write_str("job preempted: fuel budget exhausted"),
            JobError::BudgetInfeasible { budget, required } => write!(
                f,
                "job rejected: fuel budget {budget} is below the statically proven \
                 minimum of {required} steps"
            ),
            JobError::Failed(reason) => write!(f, "job failed: {reason}"),
            JobError::Panicked(msg) => write!(f, "job panicked: {msg}"),
        }
    }
}

impl std::error::Error for JobError {}

/// The message of a caught panic: its `&str` or `String` payload.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Where one job's time went: enqueue→start (queueing) and
/// start→finish (service).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobTiming {
    /// Time spent waiting in the tenant queue before a worker picked the
    /// job up.
    pub queued: Duration,
    /// Time spent executing (checkout + invoke + checkin).
    pub service: Duration,
}

impl JobTiming {
    /// End-to-end latency (enqueue→finish) — what the histogram records.
    pub fn total(&self) -> Duration {
        self.queued + self.service
    }
}

/// The resolution of one accepted job.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The invocation result, or why the job failed.
    pub result: Result<Invocation, JobError>,
    /// Where the job's latency went.
    pub timing: JobTiming,
}

struct TicketState {
    outcome: Mutex<Option<JobOutcome>>,
    done: Condvar,
}

impl TicketState {
    fn resolve(&self, outcome: JobOutcome) {
        let mut slot = self.outcome.lock().expect("ticket poisoned");
        debug_assert!(slot.is_none(), "a ticket resolves exactly once");
        *slot = Some(outcome);
        drop(slot);
        self.done.notify_all();
    }
}

/// The poll/wait handle [`EngineServer::submit`] returns for an accepted
/// job. Cheap to clone; every clone observes the same outcome.
#[derive(Clone)]
pub struct JobTicket {
    state: Arc<TicketState>,
}

impl JobTicket {
    fn new() -> JobTicket {
        JobTicket {
            state: Arc::new(TicketState {
                outcome: Mutex::new(None),
                done: Condvar::new(),
            }),
        }
    }

    /// Non-blocking check: the outcome when the job has finished, else
    /// `None`.
    pub fn poll(&self) -> Option<JobOutcome> {
        self.state.outcome.lock().expect("ticket poisoned").clone()
    }

    /// True once the job has finished (successfully or not).
    pub fn is_done(&self) -> bool {
        self.state
            .outcome
            .lock()
            .expect("ticket poisoned")
            .is_some()
    }

    /// Blocks until the job finishes. Every accepted ticket resolves —
    /// [`EngineServer::drain`] completes admitted jobs rather than
    /// dropping them — so this cannot wait forever unless the server is
    /// leaked without ever draining.
    pub fn wait(&self) -> JobOutcome {
        let mut slot = self.state.outcome.lock().expect("ticket poisoned");
        loop {
            if let Some(outcome) = slot.clone() {
                return outcome;
            }
            slot = self.state.done.wait(slot).expect("ticket poisoned");
        }
    }

    /// [`JobTicket::wait`] with a bound: `None` when the job has not
    /// finished within `timeout`.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<JobOutcome> {
        let deadline = Instant::now() + timeout;
        let mut slot = self.state.outcome.lock().expect("ticket poisoned");
        loop {
            if let Some(outcome) = slot.clone() {
                return Some(outcome);
            }
            let remaining = deadline.checked_duration_since(Instant::now())?;
            let (next, _) = self
                .state
                .done
                .wait_timeout(slot, remaining)
                .expect("ticket poisoned");
            slot = next;
        }
    }
}

impl fmt::Debug for JobTicket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JobTicket {{ done: {} }}", self.is_done())
    }
}

/// An accepted job travelling through a tenant queue.
struct QueuedJob {
    job: Job,
    ticket: JobTicket,
    enqueued: Instant,
}

struct Tenant {
    name: String,
    config: TenantConfig,
    queue: RingQueue<QueuedJob>,
    /// Jobs admitted but not yet picked up. The ring capacity is the
    /// queue depth rounded up to a power of two, so this counter — not
    /// ring fullness — enforces the *configured* depth exactly.
    queued: AtomicUsize,
    /// Jobs of this tenant currently executing.
    in_flight: AtomicUsize,
    /// Submissions shed with [`SubmitError::Backpressure`].
    shed: AtomicU64,
}

/// A fixed-size log₂-bucketed latency histogram: bucket *i* for
/// `1 ≤ i ≤ 62` holds samples in `[2^(i-1), 2^i)` nanoseconds, and the
/// two end buckets are special — bucket 0 holds only exact-zero
/// samples, and bucket 63 saturates (every sample in
/// `[2^62, u64::MAX]`, including durations clamped to `u64::MAX`).
/// 64 buckets therefore cover every representable duration; recording
/// is one atomic add, wait-free.
struct LatencyHistogram {
    buckets: [AtomicU64; 64],
}

impl LatencyHistogram {
    fn new() -> LatencyHistogram {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record(&self, latency: Duration) {
        let nanos = latency.as_nanos().min(u64::MAX as u128) as u64;
        let bucket = (64 - nanos.leading_zeros()).min(63) as usize;
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// The latency below which a fraction `q` (in `0.0..=1.0`) of the
    /// recorded samples fall, to bucket resolution (the bucket's upper
    /// bound, so the estimate is conservative). Zero before any sample.
    fn quantile(&self, q: f64) -> Duration {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return Duration::ZERO;
        }
        let rank = ((total as f64 * q).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, count) in counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                let upper = if i >= 63 { u64::MAX } else { 1u64 << i };
                return Duration::from_nanos(upper);
            }
        }
        Duration::from_nanos(u64::MAX)
    }
}

/// A point-in-time snapshot of serving telemetry, via
/// [`EngineServer::stats`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerStats {
    /// Jobs completed (successfully or not) since the server started.
    pub completed: u64,
    /// Submissions shed with [`SubmitError::Backpressure`], summed over
    /// tenants.
    pub shed: u64,
    /// Jobs currently waiting across all tenant queues.
    pub queued: usize,
    /// Jobs currently executing.
    pub in_flight: usize,
    /// Completed jobs per second of server lifetime.
    pub throughput: f64,
    /// Median end-to-end (enqueue→finish) latency, to histogram-bucket
    /// resolution.
    pub p50: Duration,
    /// 90th-percentile end-to-end latency.
    pub p90: Duration,
    /// 99th-percentile end-to-end latency.
    pub p99: Duration,
}

impl fmt::Display for ServerStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} completed ({:.1}/s), {} shed, {} queued, {} in flight; \
             latency p50 {:.2?} p90 {:.2?} p99 {:.2?}",
            self.completed,
            self.throughput,
            self.shed,
            self.queued,
            self.in_flight,
            self.p50,
            self.p90,
            self.p99,
        )
    }
}

struct ServerInner {
    pool: InstancePool,
    job_fuel: Option<u64>,
    tenants: Vec<Tenant>,
    by_name: HashMap<String, usize>,
    /// The shutdown gate. `submit` admits under the read lock; `drain`
    /// flips the flag under the write lock, so once the flag is visibly
    /// set **no** admission is still in progress — every accepted job is
    /// either in a queue (the drain sweep runs it) or already running.
    draining: RwLock<bool>,
    /// Worker wake-up: workers park here when every queue is empty.
    idle: Mutex<()>,
    wake: Condvar,
    /// Workers currently parked (or about to park). `submit` skips the
    /// notify syscall entirely while this is zero — the common hot-path
    /// case.
    sleepers: AtomicUsize,
    completed: AtomicU64,
    latency: LatencyHistogram,
    started: Instant,
}

impl ServerInner {
    /// Claims and runs one job from some tenant queue, scanning from
    /// `from` so concurrent workers start at different tenants. Returns
    /// false when no tenant had a runnable job.
    fn run_one(&self, from: usize) -> bool {
        let n = self.tenants.len();
        for i in 0..n {
            let tenant = &self.tenants[(from + i) % n];
            // Optimistically claim an in-flight slot before popping:
            // between a pop and an in-flight increment the job would be
            // invisible to both counters and a concurrent `drain` could
            // believe the tenant idle.
            if tenant.in_flight.fetch_add(1, Ordering::SeqCst) >= tenant.config.max_in_flight {
                tenant.in_flight.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            let Some(queued_job) = tenant.queue.pop() else {
                tenant.in_flight.fetch_sub(1, Ordering::SeqCst);
                continue;
            };
            tenant.queued.fetch_sub(1, Ordering::SeqCst);
            self.run_job(&queued_job);
            tenant.in_flight.fetch_sub(1, Ordering::SeqCst);
            return true;
        }
        false
    }

    /// Resolves a job's ticket and records its latency telemetry.
    fn finish_job(
        &self,
        queued_job: &QueuedJob,
        start: Instant,
        result: Result<Invocation, JobError>,
    ) {
        let timing = JobTiming {
            queued: start.duration_since(queued_job.enqueued),
            service: start.elapsed(),
        };
        self.latency.record(timing.total());
        self.completed.fetch_add(1, Ordering::Relaxed);
        queued_job
            .ticket
            .state
            .resolve(JobOutcome { result, timing });
    }

    /// Executes one job on a pool instance and resolves its ticket.
    fn run_job(&self, queued_job: &QueuedJob) {
        let start = Instant::now();

        // Feasibility gate (static fuel bounds, `richwasm-analyze`): a
        // budget strictly below the proven minimum step cost of the
        // target export can only ever be preempted, so reject it here —
        // before a pool checkout — instead of burning a slot on a
        // doomed run.
        let artifact = self.pool.artifact();
        let budget = self.job_fuel.or(artifact.config().fuel);
        if let Some(budget) = budget {
            let job = &queued_job.job;
            if let Some(required) = artifact.static_min_steps(&job.module, &job.func) {
                if budget < required {
                    self.finish_job(
                        queued_job,
                        start,
                        Err(JobError::BudgetInfeasible { budget, required }),
                    );
                    return;
                }
            }
        }

        // A panicking host closure unwinds out of `invoke`; catching it
        // here keeps the worker alive, and the ticket and the tenant's
        // in-flight slot still resolve.
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            let mut inst = self.pool.checkout();
            // Reset-on-checkin restores both backends' fuel limits to the
            // artifact's own config, so the per-job budget is applied per
            // checkout.
            if let Some(fuel) = self.job_fuel {
                if let Some(rt) = inst.richwasm.as_mut() {
                    rt.config.fuel = fuel;
                }
                if let Some(linker) = inst.wasm.as_mut() {
                    linker.max_steps = fuel;
                }
            }
            let job = &queued_job.job;
            inst.invoke(&job.module, &job.func, job.args.clone())
            // Drop = checkin = reset, on unwind too: a trapped, preempted
            // or panicked job cannot poison the instance for the next
            // checkout.
        }));
        let result = match result {
            Ok(result) => result.map_err(|e| JobError::from_pipeline(&e)),
            Err(payload) => Err(JobError::Panicked(panic_message(payload.as_ref()))),
        };
        self.finish_job(queued_job, start, result);
    }

    fn worker_loop(&self, worker: usize) {
        loop {
            if self.run_one(worker) {
                continue;
            }
            if *self.draining.read().expect("drain gate poisoned") {
                // Draining and a full scan found nothing runnable: any
                // job still queued (another tenant at max-in-flight) is
                // finished by the drain sweep.
                return;
            }
            // Park until a submit notifies (or a short timeout backstops
            // the race where a job arrives between the scan above and
            // the wait below).
            let guard = self.idle.lock().expect("idle lock poisoned");
            self.sleepers.fetch_add(1, Ordering::SeqCst);
            let (guard, _) = self
                .wake
                .wait_timeout(guard, Duration::from_millis(1))
                .expect("idle lock poisoned");
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
            drop(guard);
        }
    }
}

/// An open-loop job server over an [`Artifact`]: bounded per-tenant
/// queues, non-blocking submission with backpressure, fuel-preempted
/// execution on a worker pool, and latency telemetry. See the
/// [module docs](self) for the full picture and an example.
pub struct EngineServer {
    inner: Arc<ServerInner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl EngineServer {
    /// Instantiates a pool of `config.workers` instances of `artifact`
    /// and starts that many worker threads.
    ///
    /// # Errors
    ///
    /// The same instantiation errors as [`Artifact::pool`].
    pub fn start(artifact: &Artifact, config: ServerConfig) -> Result<EngineServer, PipelineError> {
        let workers = config.workers.max(1);
        let pool = artifact.pool(workers)?;
        let mut tenants = Vec::with_capacity(config.tenants.len());
        let mut by_name = HashMap::with_capacity(config.tenants.len());
        for (name, tenant_config) in config.tenants {
            by_name.insert(name.clone(), tenants.len());
            tenants.push(Tenant {
                name,
                config: tenant_config,
                queue: RingQueue::with_capacity(tenant_config.queue_depth),
                queued: AtomicUsize::new(0),
                in_flight: AtomicUsize::new(0),
                shed: AtomicU64::new(0),
            });
        }
        let inner = Arc::new(ServerInner {
            pool,
            job_fuel: config.job_fuel,
            tenants,
            by_name,
            draining: RwLock::new(false),
            idle: Mutex::new(()),
            wake: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            completed: AtomicU64::new(0),
            latency: LatencyHistogram::new(),
            started: Instant::now(),
        });
        let handles = (0..workers)
            .map(|worker| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("engine-server-{worker}"))
                    .spawn(move || inner.worker_loop(worker))
                    .expect("spawning a server worker thread failed")
            })
            .collect();
        Ok(EngineServer {
            inner,
            workers: Mutex::new(handles),
        })
    }

    /// Submits a job for `tenant`, without blocking.
    ///
    /// On admission the job is queued and a [`JobTicket`] returned —
    /// every accepted ticket resolves, even across [`EngineServer::drain`].
    ///
    /// # Errors
    ///
    /// [`SubmitError::UnknownTenant`] for unregistered tenants (deny by
    /// default), [`SubmitError::Backpressure`] when the tenant's queue
    /// is at its configured depth (the shed is counted), and
    /// [`SubmitError::Draining`] once shutdown has begun.
    pub fn submit(&self, tenant: &str, job: Job) -> Result<JobTicket, SubmitError> {
        // Admission happens under the read side of the drain gate: once
        // `drain` holds the write lock, no submit is mid-admission.
        let draining = self.inner.draining.read().expect("drain gate poisoned");
        if *draining {
            return Err(SubmitError::Draining);
        }
        let tenant = match self.inner.by_name.get(tenant) {
            Some(&i) => &self.inner.tenants[i],
            None => return Err(SubmitError::UnknownTenant),
        };
        if tenant.queued.fetch_add(1, Ordering::SeqCst) >= tenant.config.queue_depth {
            tenant.queued.fetch_sub(1, Ordering::SeqCst);
            tenant.shed.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Backpressure);
        }
        let ticket = JobTicket::new();
        let queued_job = QueuedJob {
            job,
            ticket: ticket.clone(),
            enqueued: Instant::now(),
        };
        if tenant.queue.push(queued_job).is_err() {
            // Unreachable: the ring is at least `queue_depth` big and the
            // admission counter bounds occupancy. Kept as a shed, not a
            // panic, so a bookkeeping bug degrades to backpressure.
            tenant.queued.fetch_sub(1, Ordering::SeqCst);
            tenant.shed.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Backpressure);
        }
        drop(draining);
        if self.inner.sleepers.load(Ordering::SeqCst) > 0 {
            // Lock-then-notify pairs with the worker's lock-then-register
            // parking protocol; without the lock the wake could slip
            // between a worker's last scan and its wait.
            let _guard = self.inner.idle.lock().expect("idle lock poisoned");
            self.inner.wake.notify_one();
        }
        Ok(ticket)
    }

    /// Gracefully shuts down: rejects new submissions, completes every
    /// already-accepted job (no ticket is ever dropped), and joins the
    /// worker threads. Idempotent; called by `Drop` if not called
    /// explicitly.
    pub fn drain(&self) {
        {
            let mut draining = self.inner.draining.write().expect("drain gate poisoned");
            *draining = true;
        }
        // Wake every parked worker so it observes the flag and exits.
        let handles: Vec<_> = {
            let mut workers = self.workers.lock().expect("worker registry poisoned");
            workers.drain(..).collect()
        };
        for handle in &handles {
            let _ = handle;
            let _guard = self.inner.idle.lock().expect("idle lock poisoned");
            self.inner.wake.notify_all();
        }
        for handle in handles {
            handle.join().expect("server worker panicked");
        }
        // Sweep stragglers: a worker may have exited while a tenant sat
        // at max-in-flight with jobs still queued. The pool is fully
        // idle now, so run them inline.
        for tenant in &self.inner.tenants {
            while let Some(queued_job) = tenant.queue.pop() {
                tenant.queued.fetch_sub(1, Ordering::SeqCst);
                self.inner.run_job(&queued_job);
            }
        }
    }

    /// A point-in-time telemetry snapshot.
    pub fn stats(&self) -> ServerStats {
        let inner = &self.inner;
        let completed = inner.completed.load(Ordering::Relaxed);
        let elapsed = inner.started.elapsed().as_secs_f64();
        ServerStats {
            completed,
            shed: inner
                .tenants
                .iter()
                .map(|t| t.shed.load(Ordering::Relaxed))
                .sum(),
            queued: inner
                .tenants
                .iter()
                .map(|t| t.queued.load(Ordering::SeqCst))
                .sum(),
            in_flight: inner
                .tenants
                .iter()
                .map(|t| t.in_flight.load(Ordering::SeqCst))
                .sum(),
            throughput: if elapsed > 0.0 {
                completed as f64 / elapsed
            } else {
                0.0
            },
            p50: inner.latency.quantile(0.50),
            p90: inner.latency.quantile(0.90),
            p99: inner.latency.quantile(0.99),
        }
    }

    /// Shed count for one tenant (`None` for unknown tenants).
    pub fn tenant_shed(&self, tenant: &str) -> Option<u64> {
        let &i = self.inner.by_name.get(tenant)?;
        Some(self.inner.tenants[i].shed.load(Ordering::Relaxed))
    }

    /// The registered tenant names, in registration order.
    pub fn tenants(&self) -> Vec<&str> {
        self.inner.tenants.iter().map(|t| t.name.as_str()).collect()
    }

    /// The underlying pool's counters (checkout/recycle/contention).
    pub fn pool_stats(&self) -> PoolStats {
        self.inner.pool.stats()
    }

    /// The artifact being served.
    pub fn artifact(&self) -> &Artifact {
        self.inner.pool.artifact()
    }
}

impl fmt::Debug for EngineServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "EngineServer {{ tenants: {}, stats: {} }}",
            self.inner.tenants.len(),
            self.stats()
        )
    }
}

impl Drop for EngineServer {
    fn drop(&mut self) {
        self.drain();
    }
}

// The server is the cross-thread embedding: submitters on any thread,
// workers on their own, tickets handed wherever the caller pleases.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<EngineServer>();
    assert_send_sync::<JobTicket>();
    assert_send_sync::<ServerStats>();
    assert_send_sync::<SubmitError>();
    assert_send_sync::<JobError>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_the_samples() {
        let h = LatencyHistogram::new();
        for micros in [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 1000] {
            h.record(Duration::from_micros(micros));
        }
        // p50 of 10 samples: the 5th (50µs) — its bucket's upper bound
        // is at most the next power of two in nanos.
        let p50 = h.quantile(0.50);
        assert!(p50 >= Duration::from_micros(50), "p50 {p50:?} too low");
        assert!(p50 <= Duration::from_micros(128), "p50 {p50:?} too high");
        // p99 lands on the 1ms outlier's bucket.
        let p99 = h.quantile(0.99);
        assert!(p99 >= Duration::from_micros(1000), "p99 {p99:?} too low");
        assert!(p99 <= Duration::from_micros(2048), "p99 {p99:?} too high");
        // Monotone in q.
        assert!(h.quantile(0.1) <= h.quantile(0.9));
    }

    #[test]
    fn histogram_is_zero_before_any_sample() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.99), Duration::ZERO);
    }

    /// Pins the documented bucket contract at every boundary: bucket 0
    /// holds only 0 ns, bucket `i` in `1..=62` holds `[2^(i-1), 2^i)`,
    /// and bucket 63 saturates up to `u64::MAX`.
    #[test]
    fn histogram_bucket_boundaries() {
        let bucket_of = |nanos: u64| {
            let h = LatencyHistogram::new();
            h.record(Duration::from_nanos(nanos));
            (0..64)
                .find(|&i| h.buckets[i].load(Ordering::Relaxed) == 1)
                .expect("exactly one bucket incremented")
        };
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        for k in [1u32, 7, 31, 61] {
            // 2^k opens bucket k+1; 2^k ± 1 stay on their own sides.
            assert_eq!(bucket_of(1 << k), k as usize + 1, "2^{k}");
            assert_eq!(bucket_of((1 << k) + 1), k as usize + 1, "2^{k}+1");
            assert_eq!(bucket_of((1 << k) - 1), k as usize, "2^{k}-1");
        }
        // The saturating top bucket: everything from 2^62 up.
        assert_eq!(bucket_of(1 << 62), 63);
        assert_eq!(bucket_of((1 << 62) + 1), 63);
        assert_eq!(bucket_of(u64::MAX), 63);
    }

    #[test]
    fn tenant_config_clamps() {
        let t = TenantConfig::new().queue_depth(0).max_in_flight(0);
        assert_eq!(t.queue_depth, 1);
        assert_eq!(t.max_in_flight, 1);
    }
}

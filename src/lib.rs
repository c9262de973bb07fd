//! Umbrella crate for the RichWasm reproduction workspace.
//!
//! Re-exports the component crates so root-level `examples/` and `tests/`
//! can exercise the entire pipeline: source languages (ML, L3) → RichWasm →
//! WebAssembly.
//!
//! Three top-level APIs drive the chain:
//!
//! * [`engine`] — the compile-once / run-many API. An [`Engine`] owns the
//!   configuration and a content-addressed artifact cache; compiling a
//!   module set yields an immutable, cheaply shareable [`Artifact`], and
//!   each [`Artifact::instantiate`](engine::Artifact::instantiate) call
//!   produces an independent live [`Instance`] for repeated invocation.
//!   For concurrent traffic, [`Artifact::pool`](engine::Artifact::pool)
//!   pre-instantiates an [`InstancePool`] that worker threads check
//!   instances out of (recycled through `reset` on checkin), and
//!   [`Engine::invoke_parallel`](engine::Engine::invoke_parallel) /
//!   [`InstancePool::invoke_batch`](engine::InstancePool::invoke_batch)
//!   drive whole batches across scoped threads.
//! * [`call`] — the typed host↔guest boundary over the engine: [`TypedFunc`]
//!   handles (signature checked once against the artifact's checked
//!   types, then lookup-free calls) and host functions
//!   ([`ModuleSet::host_fn`](engine::ModuleSet::host_fn)) installed into
//!   both backends so differential checking spans host calls.
//! * [`server`] — open-loop serving on top of the engine: an
//!   [`EngineServer`] accepts jobs through bounded per-tenant queues
//!   (non-blocking submission, backpressure instead of unbounded
//!   queueing), runs them on a worker pool under a per-job fuel budget,
//!   and reports throughput/shed/tail-latency via [`ServerStats`].

pub mod call;
pub mod engine;
pub mod server;

pub use call::{HostSig, HostVal, HostValType, TypedFunc, WasmParams, WasmResults, WasmTy};
pub use engine::{
    Analysis, Artifact, CacheKey, CacheStats, Engine, EngineConfig, Exec, Instance, InstancePool,
    Invocation, Job, ModuleSet, PipelineError, PipelineErrorKind, PoolStats, PooledInstance,
    Source, Stage, Timings, WasmBytes, WasmTier,
};
pub use richwasm;
pub use richwasm_analyze as analyze;
pub use richwasm_l3 as l3;
pub use richwasm_lower as lower;
pub use richwasm_ml as ml;
pub use richwasm_wasm as wasm;
pub use server::{
    EngineServer, JobError, JobOutcome, JobTicket, JobTiming, ServerConfig, ServerStats,
    SubmitError, TenantConfig,
};

//! The compile-once / run-many API: [`Engine`] → [`Artifact`] → [`Instance`].
//!
//! The paper's whole point (§4–§6) is that *separately compiled* ML and
//! L3 modules interoperate safely through typed linking — but a service
//! invoking the same program N times should not pay the static pipeline
//! N times. This module splits the workflow into three long-lived types:
//!
//! * [`Engine`] — owns the configuration (execution mode, fuel, auto-GC)
//!   and a **content-addressed artifact cache** keyed by a stable hash of
//!   the module set's ASTs plus the configuration. [`Engine::compile`] on
//!   a cache hit skips every static stage and returns the cached
//!   [`Artifact`]. On a miss, the per-module frontend + typecheck stages
//!   of independent source modules run **in parallel** (scoped threads);
//!   the whole-program lower stage stays sequential, as §6 requires the
//!   shared table layout to be computed globally.
//! * [`Artifact`] — the immutable output of frontend → typecheck → lower
//!   → validate → encode: the RichWasm modules, their checked
//!   [`ModuleEnv`]s, the lowered Wasm modules, and the standard `.wasm`
//!   bytes. Cheaply cloneable (one [`Arc`] bump) and shareable across
//!   threads.
//! * [`Instance`] — a live store pair (RichWasm runtime and/or
//!   [`WasmLinker`]) created by [`Artifact::instantiate`], supporting
//!   repeated [`Instance::invoke`], each checked differentially across
//!   the backends it runs. Instances of one artifact share nothing
//!   mutable.
//!
//! # Example
//!
//! ```
//! use richwasm_repro::engine::{Engine, ModuleSet};
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
//! let engine = Engine::new();
//! let set = ModuleSet::new().richwasm("m", m);
//! let artifact = engine.compile(&set).unwrap();      // cold: full pipeline
//! let mut inst = artifact.instantiate().unwrap();
//! assert_eq!(inst.invoke_entry().unwrap().i32(), Some(42));
//! let again = engine.compile(&set).unwrap();         // warm: cache hit
//! assert!(artifact.same_as(&again));
//! assert_eq!(engine.cache_stats().hits, 1);
//! ```

use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use richwasm::env::ModuleEnv;
use richwasm::error::{RuntimeError, TypeError};
use richwasm::interp::{InvokeResult, Runtime};
use richwasm::syntax::{self, FunType, NumType, Pretype, Value};
use richwasm::typecheck::{check_module, check_module_decls};
use richwasm_analyze::{
    analyze_module, AnalysisReport, AnalyzeError, Bound, CostReport, Diagnostic, FuncCost, Pass,
    Severity,
};
use richwasm_l3::{compile_module as compile_l3, L3Error, L3Module};
use richwasm_lower::lower::RUNTIME_NAME;
use richwasm_lower::{lower_modules_timed, LinkPlan, LowerError};
use richwasm_ml::{compile_module as compile_ml, MlError, MlModule};
use richwasm_wasm::ast as w;
use richwasm_wasm::binary::encode_module;
use richwasm_wasm::compile::{compile_module as compile_wasm_bytecode, CompiledModule};
use richwasm_wasm::decode::{decode_module, DecodeError};
use richwasm_wasm::exec::{Val, WasmLinker, WasmTrap};
use richwasm_wasm::validate::ValidationError;
use richwasm_wasm::validate_module;

use crate::call::{
    agreed_view, richwasm_host_fn, wasm_host_fn, HostCallback, HostSig, HostVal, ReplayLog,
    WasmResults,
};

/// A source module in one of the three input languages, or a precompiled
/// standard `.wasm` binary.
#[derive(Debug, Clone)]
pub enum Source {
    /// A core ML module (compiled by `richwasm-ml`, paper §5).
    Ml(Box<MlModule>),
    /// An L3 module (compiled by `richwasm-l3`, paper §5).
    L3(Box<L3Module>),
    /// An already-built RichWasm module.
    RichWasm(Box<syntax::Module>),
    /// Standard `.wasm` bytes (precompiled or externally produced). They
    /// enter the pipeline at the decode stage and carry no RichWasm
    /// types, so they execute on the Wasm backend only ([`Exec::Wasm`]).
    Wasm(WasmBytes),
}

/// Owned `.wasm` bytes behind a cheap, *stable* `Debug` rendering (length
/// plus 128-bit FNV content hash) — the cache key hashes sources through
/// `Debug`, and rendering megabytes of binary as a decimal byte list
/// would make keying cost scale with module size.
#[derive(Clone, PartialEq, Eq)]
pub struct WasmBytes(pub Vec<u8>);

impl fmt::Debug for WasmBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut h = Fnv128::new();
        h.update(&self.0);
        write!(
            f,
            "WasmBytes {{ len: {}, fnv: {:032x} }}",
            self.0.len(),
            h.0
        )
    }
}

/// The pipeline stages, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Source-language compilation to RichWasm.
    Frontend,
    /// Binary decoding of precompiled `.wasm` sources.
    Decode,
    /// The RichWasm substructural type check.
    Typecheck,
    /// Typed linking + instantiation on the RichWasm interpreter.
    Instantiate,
    /// Whole-program type-directed lowering to Wasm.
    Lower,
    /// Validation of the lowered Wasm modules.
    Validate,
    /// Standard `.wasm` binary encoding.
    Encode,
    /// Flat-bytecode compilation of the validated Wasm modules
    /// ([`WasmTier::Bytecode`] only).
    Bytecode,
    /// CFG/dataflow static analysis of the lowered modules
    /// (`richwasm-analyze`): re-verification, fuel bounds, call-graph
    /// discipline, dead-code lint.
    Analyze,
    /// Execution (either interpreter).
    Execute,
    /// Cross-backend result comparison.
    Differential,
}

impl Stage {
    /// True for the static (compile-time) stages an [`Artifact`] caches:
    /// every stage but the dynamic `Instantiate`/`Execute`/`Differential`
    /// ones.
    pub fn is_static(self) -> bool {
        matches!(
            self,
            Stage::Frontend
                | Stage::Decode
                | Stage::Typecheck
                | Stage::Lower
                | Stage::Validate
                | Stage::Encode
                | Stage::Bytecode
                | Stage::Analyze
        )
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Stage::Frontend => "frontend",
            Stage::Decode => "decode",
            Stage::Typecheck => "typecheck",
            Stage::Instantiate => "instantiate",
            Stage::Lower => "lower",
            Stage::Validate => "validate",
            Stage::Encode => "encode",
            Stage::Bytecode => "bytecode",
            Stage::Analyze => "analyze",
            Stage::Execute => "execute",
            Stage::Differential => "differential",
        })
    }
}

/// The underlying cause of a [`PipelineError`].
#[derive(Debug)]
pub enum PipelineErrorKind {
    /// The ML frontend rejected its input.
    Ml(MlError),
    /// The L3 frontend rejected its input (L3 checks linearity itself).
    L3(L3Error),
    /// The RichWasm checker or typed linker rejected a module.
    Type(TypeError),
    /// The RichWasm → Wasm compiler failed.
    Lower(LowerError),
    /// A `.wasm` binary failed to decode.
    Decode(DecodeError),
    /// A serialized artifact was malformed, corrupt, or compiled under a
    /// different configuration (stale).
    Artifact(String),
    /// A lowered module failed Wasm validation.
    Validation(ValidationError),
    /// Static analysis rejected a module (`analysis: Deny` with a
    /// `Deny`-severity finding — e.g. the independent re-verifier
    /// disagreed with the validator).
    Analysis(AnalyzeError),
    /// The RichWasm interpreter trapped or got stuck.
    Runtime(RuntimeError),
    /// The Wasm interpreter trapped.
    Wasm(WasmTrap),
    /// The two backends disagreed in differential mode.
    Mismatch {
        /// What the RichWasm interpreter produced.
        richwasm: String,
        /// What the Wasm interpreter produced.
        wasm: String,
    },
    /// The request cannot be expressed on the selected backend(s).
    Unsupported(String),
    /// The invocation panicked (for example in a host closure); the
    /// payload's message. Only the batch APIs contain a panic this way.
    Panicked(String),
}

impl fmt::Display for PipelineErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineErrorKind::Ml(e) => write!(f, "{e}"),
            PipelineErrorKind::L3(e) => write!(f, "{e}"),
            PipelineErrorKind::Type(e) => write!(f, "{e}"),
            PipelineErrorKind::Lower(e) => write!(f, "{e}"),
            PipelineErrorKind::Decode(e) => write!(f, "{e}"),
            PipelineErrorKind::Artifact(reason) => write!(f, "artifact: {reason}"),
            PipelineErrorKind::Validation(e) => write!(f, "{e}"),
            PipelineErrorKind::Analysis(e) => write!(f, "{e}"),
            PipelineErrorKind::Runtime(e) => write!(f, "{e}"),
            PipelineErrorKind::Wasm(e) => write!(f, "{e}"),
            PipelineErrorKind::Mismatch { richwasm, wasm } => {
                write!(
                    f,
                    "backends disagree: richwasm produced {richwasm}, wasm produced {wasm}"
                )
            }
            PipelineErrorKind::Unsupported(what) => write!(f, "unsupported: {what}"),
            PipelineErrorKind::Panicked(msg) => write!(f, "panicked: {msg}"),
        }
    }
}

/// A failure in some pipeline stage, with source-module context.
#[derive(Debug)]
pub struct PipelineError {
    /// The stage that failed.
    pub stage: Stage,
    /// The module being processed when the failure arose, if any.
    pub module: Option<String>,
    /// The underlying cause.
    pub kind: PipelineErrorKind,
}

impl PipelineError {
    pub(crate) fn new(
        stage: Stage,
        module: Option<&str>,
        kind: PipelineErrorKind,
    ) -> PipelineError {
        PipelineError {
            stage,
            module: module.map(str::to_string),
            kind,
        }
    }

    /// True when the failure is a static rejection (type checking, typed
    /// linking, or a frontend error) rather than a dynamic fault.
    pub fn is_static_rejection(&self) -> bool {
        matches!(
            self.kind,
            PipelineErrorKind::Ml(_) | PipelineErrorKind::L3(_) | PipelineErrorKind::Type(_)
        )
    }

    /// True when the failure is fuel exhaustion on either backend — the
    /// job ran out of its step/instruction budget. An embedder resource
    /// policy event (the job was preempted), not a guest semantic fault:
    /// the serving layer maps it to a retryable per-job failure, and
    /// differential mode treats it as an agreed outcome rather than a
    /// backend mismatch (see [`EngineConfig::fuel`]).
    pub fn is_fuel_exhausted(&self) -> bool {
        match &self.kind {
            PipelineErrorKind::Runtime(e) => e.is_out_of_fuel(),
            PipelineErrorKind::Wasm(t) => t.is_fuel_exhausted(),
            _ => false,
        }
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pipeline stage `{}`", self.stage)?;
        if let Some(m) = &self.module {
            write!(f, " (module `{m}`)")?;
        }
        write!(f, ": {}", self.kind)
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        // Every wrapped layer error chains; only the kinds without an
        // underlying error value terminate here.
        match &self.kind {
            PipelineErrorKind::Ml(e) => Some(e),
            PipelineErrorKind::L3(e) => Some(e),
            PipelineErrorKind::Type(e) => Some(e),
            PipelineErrorKind::Lower(e) => Some(e),
            PipelineErrorKind::Decode(e) => Some(e),
            PipelineErrorKind::Validation(e) => Some(e),
            PipelineErrorKind::Analysis(e) => Some(e),
            PipelineErrorKind::Runtime(e) => Some(e),
            PipelineErrorKind::Wasm(e) => Some(e),
            PipelineErrorKind::Mismatch { .. }
            | PipelineErrorKind::Unsupported(_)
            | PipelineErrorKind::Artifact(_)
            | PipelineErrorKind::Panicked(_) => None,
        }
    }
}

/// Which interpreter(s) execute the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Exec {
    /// RichWasm interpreter only (skips the Wasm half of the pipeline).
    Interp,
    /// Lowered Wasm only.
    Wasm,
    /// Both, with results compared after every invocation.
    #[default]
    Differential,
}

impl Exec {
    pub(crate) fn wants_interp(self) -> bool {
        self != Exec::Wasm
    }
    pub(crate) fn wants_wasm(self) -> bool {
        self != Exec::Interp
    }
}

/// Which execution tier serves the Wasm backend (see `DESIGN.md` §13).
///
/// Orthogonal to [`Exec`]: `Exec` picks which *backends* run (RichWasm
/// interpreter, Wasm, or both differentially); `WasmTier` picks how the
/// Wasm backend itself executes — flat bytecode (the default, compiled
/// at artifact build time) or the tree-walking interpreter (the
/// reference engine). Both follow the Wasm spec and agree step for
/// step; the fuzz farm's harness checks that.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WasmTier {
    /// Flat-bytecode VM: every function body is lowered to a linear
    /// `Op` sequence with pre-resolved branch targets when the artifact
    /// is built or loaded.
    #[default]
    Bytecode,
    /// Tree-walking interpreter only — no bytecode is compiled or
    /// cached. The reference engine.
    Tree,
}

impl WasmTier {
    pub(crate) fn code(self) -> u8 {
        match self {
            WasmTier::Bytecode => 0,
            WasmTier::Tree => 1,
        }
    }

    pub(crate) fn from_code(c: u8) -> Option<WasmTier> {
        Some(match c {
            0 => WasmTier::Bytecode,
            1 => WasmTier::Tree,
            _ => return None,
        })
    }
}

/// Wall-clock time spent per stage, in stage order.
///
/// When the frontend + typecheck stages run in parallel (multi-module
/// sets), the recorded `Frontend`/`Typecheck` durations are the *sums of
/// per-module thread time* — the aggregate work — while the compile's
/// elapsed wall clock is what benchmarks observe.
#[derive(Debug, Clone, Default)]
pub struct Timings(Vec<(Stage, Duration)>);

impl Timings {
    pub(crate) fn add(&mut self, stage: Stage, d: Duration) {
        self.0.push((stage, d));
    }

    /// Per-stage entries in the order they ran.
    pub fn entries(&self) -> &[(Stage, Duration)] {
        &self.0
    }

    /// Total time across all recorded stages.
    pub fn total(&self) -> Duration {
        self.0.iter().map(|(_, d)| *d).sum()
    }

    /// Accumulated time for one stage.
    pub fn of(&self, stage: Stage) -> Duration {
        self.0
            .iter()
            .filter(|(s, _)| *s == stage)
            .map(|(_, d)| *d)
            .sum()
    }

    /// True when no static (compile-time) stage was recorded — the
    /// observable invariant of a cache hit or a pure invocation.
    pub fn no_static_stages(&self) -> bool {
        self.0.iter().all(|(s, _)| !s.is_static())
    }
}

impl fmt::Display for Timings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (stage, d)) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{stage}: {d:.2?}")?;
        }
        Ok(())
    }
}

/// The result of invoking an export through [`Instance::invoke`].
///
/// Besides the raw per-backend results, every invocation carries the
/// *agreed* boundary view ([`Invocation::results`]): the flattened
/// integer-scalar values the backends settled on (in differential mode,
/// the values both produced). Typed extraction goes through
/// [`Invocation::returned`].
#[derive(Debug, Clone)]
pub struct Invocation {
    /// The RichWasm interpreter's result (absent in [`Exec::Wasm`] mode).
    pub richwasm: Option<InvokeResult>,
    /// The Wasm interpreter's result (absent in [`Exec::Interp`] mode).
    pub wasm: Option<Vec<Val>>,
    /// The agreed boundary view, when the result has one (`None` for
    /// floats/references/aggregates).
    agreed: Option<Vec<HostVal>>,
}

impl Invocation {
    /// Builds the invocation, computing the agreed boundary view (see
    /// [`agreed_view`]).
    fn new((richwasm, wasm): Reconciled) -> Invocation {
        let agreed = agreed_view(richwasm.as_ref(), wasm.as_deref());
        Invocation {
            richwasm,
            wasm,
            agreed,
        }
    }

    /// The agreed result values as boundary scalars, in order (`unit`
    /// results erased). Empty when the result has no integer-scalar
    /// representation — use the raw per-backend fields for those.
    pub fn results(&self) -> &[HostVal] {
        self.agreed.as_deref().unwrap_or(&[])
    }

    /// Extracts the agreed result at a Rust type: `run.returned::<i32>()`,
    /// `run.returned::<(u32, u64)>()`, `run.returned::<()>()`, … `None`
    /// when the arity or widths do not match (or there is no agreed
    /// scalar view at all).
    pub fn returned<R: WasmResults>(&self) -> Option<R> {
        R::from_host_vals(self.agreed.as_deref()?)
    }

    /// The single `i32`-width result, when there is exactly one. This
    /// consults the *agreed* value — whichever backends ran, including
    /// differential mode where the RichWasm result may flatten (e.g.
    /// `[unit, i32]`) to the single scalar the Wasm backend produced.
    pub fn i32(&self) -> Option<i32> {
        self.returned::<i32>()
    }
}

/// What to do with static-analysis findings (`richwasm-analyze`) at
/// [`Artifact`] build time.
///
/// Analysis runs over every lowered/decoded Wasm module after
/// validation ([`Stage::Analyze`]) and its [`AnalysisReport`]s are
/// cached on the artifact ([`Artifact::analysis`]) — including the
/// static fuel bounds the serving layer uses to reject infeasible
/// budgets up front.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Analysis {
    /// Skip the analyze stage entirely (no reports on the artifact).
    Off,
    /// Run analysis, keep all findings as report data; never fail the
    /// compile. The default.
    #[default]
    Warn,
    /// Run analysis and fail the compile
    /// ([`PipelineErrorKind::Analysis`]) when any `Deny`-severity
    /// finding fires — i.e. when the independent re-verifier and the
    /// validator disagree about a module.
    Deny,
}

impl Analysis {
    /// Stable wire code (artifact serialisation).
    fn code(self) -> u8 {
        match self {
            Analysis::Off => 0,
            Analysis::Warn => 1,
            Analysis::Deny => 2,
        }
    }

    /// Inverse of [`Analysis::code`].
    fn from_code(c: u8) -> Option<Self> {
        match c {
            0 => Some(Analysis::Off),
            1 => Some(Analysis::Warn),
            2 => Some(Analysis::Deny),
            _ => None,
        }
    }
}

/// Engine-wide configuration: everything that affects *what* an
/// [`Artifact`] contains or *how* its [`Instance`]s execute. The
/// semantic fields are part of the cache key (see `DESIGN.md` §5);
/// [`EngineConfig::cache_dir`] is deliberately **not** — where artifacts
/// are persisted does not change what they contain, so moving a cache
/// directory never invalidates its entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Execution mode (default: [`Exec::Differential`]).
    pub exec: Exec,
    /// Run a GC every `n` interpreter steps (default: only on demand;
    /// `Some(0)` also means only on demand).
    pub auto_gc_every: Option<u64>,
    /// Caps interpreter steps per invocation on both backends.
    pub fuel: Option<u64>,
    /// Static-analysis policy at artifact build time (default:
    /// [`Analysis::Warn`] — run the passes, cache the reports, never
    /// fail the compile).
    pub analysis: Analysis,
    /// Which tier serves the Wasm backend (default:
    /// [`WasmTier::Bytecode`]). See [`WasmTier`].
    pub wasm_tier: WasmTier,
    /// Directory for the **persistent artifact cache** (default: none —
    /// in-memory caching only). See [`EngineConfig::cache_dir`].
    pub cache_dir: Option<PathBuf>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            exec: Exec::Differential,
            auto_gc_every: None,
            fuel: None,
            analysis: Analysis::Warn,
            wasm_tier: WasmTier::Bytecode,
            cache_dir: None,
        }
    }
}

impl EngineConfig {
    /// The default configuration (differential mode).
    pub fn new() -> EngineConfig {
        EngineConfig::default()
    }

    /// Selects the execution mode.
    pub fn exec(mut self, exec: Exec) -> Self {
        self.exec = exec;
        self
    }

    /// Runs a GC every `n` interpreter steps; `0` never collects
    /// automatically, like the default.
    pub fn auto_gc_every(mut self, n: u64) -> Self {
        self.auto_gc_every = Some(n);
        self
    }

    /// Caps interpreter steps per invocation.
    pub fn fuel(mut self, fuel: u64) -> Self {
        self.fuel = Some(fuel);
        self
    }

    /// Selects the static-analysis policy (see [`Analysis`]).
    pub fn analysis(mut self, analysis: Analysis) -> Self {
        self.analysis = analysis;
        self
    }

    /// Selects the Wasm execution tier (see [`WasmTier`]).
    pub fn wasm_tier(mut self, tier: WasmTier) -> Self {
        self.wasm_tier = tier;
        self
    }

    /// Persists compiled artifacts under `dir` so warm compiles survive
    /// process restarts: a cold [`Engine::compile`] writes the artifact
    /// (hash-keyed file), and a later engine — in this process or the
    /// next — with the same configuration and directory loads it back,
    /// skipping every static stage. Missing, corrupt, or stale entries
    /// fall back to a cold compile (recorded in
    /// [`CacheStats::disk_misses`]) and are rewritten.
    ///
    /// Only [`Exec::Wasm`] compiles of host-function-free module sets are
    /// persisted: a serialized artifact carries `.wasm` bytes and entry
    /// metadata, not RichWasm sources, so it cannot serve the
    /// interpreter-backed modes — and host closures live in process
    /// memory, unreachable from disk. Other compiles simply bypass the
    /// directory (see `DESIGN.md` §9).
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// The stable 128-bit fingerprint of the **semantic** fields (exec
    /// mode, auto-GC, fuel, analysis, Wasm tier — not `cache_dir`): the
    /// configuration's contribution to cache keys, and the compatibility
    /// stamp embedded in serialized artifacts.
    pub fn fingerprint(&self) -> u128 {
        use fmt::Write as _;
        let mut h = Fnv128::new();
        let _ = write!(
            h,
            "exec:{:?}|auto_gc:{:?}|fuel:{:?}|analysis:{:?}|tier:{:?}",
            self.exec, self.auto_gc_every, self.fuel, self.analysis, self.wasm_tier
        );
        h.0
    }
}

/// One host function registered on a [`ModuleSet`]: export name,
/// declared signature, the Rust closure implementing it, and an optional
/// state-reset hook run by [`Instance::reset`].
#[derive(Clone)]
pub(crate) struct HostFuncDef {
    pub(crate) name: String,
    pub(crate) sig: HostSig,
    pub(crate) imp: HostCallback,
    /// Rewinds whatever interior-mutable state `imp` closes over, so a
    /// reset (or pool-recycled) instance cannot observe host state left
    /// behind by earlier invocations. `None` for stateless hosts.
    pub(crate) on_reset: Option<Arc<dyn Fn() + Send + Sync>>,
}

impl fmt::Debug for HostFuncDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "HostFuncDef {{ name: {:?}, sig: {} }}",
            self.name, self.sig
        )
    }
}

/// A named group of host functions guests import from (the `module` part
/// of `(import "module" "name" …)`).
#[derive(Debug, Clone)]
pub(crate) struct HostModuleDef {
    pub(crate) name: String,
    pub(crate) funcs: Vec<HostFuncDef>,
}

/// A named, ordered set of source modules plus an optional entry module —
/// the unit of compilation an [`Engine`] caches. Host functions
/// ([`ModuleSet::host_fn`]) ride along: their *signatures* are content
/// (part of the cache key), their closures are installed into both
/// backends at instantiation.
#[derive(Debug, Clone, Default)]
pub struct ModuleSet {
    pub(crate) sources: Vec<(String, Source)>,
    pub(crate) entry: Option<String>,
    pub(crate) entry_func: Option<String>,
    pub(crate) hosts: Vec<HostModuleDef>,
}

impl ModuleSet {
    /// An empty module set.
    pub fn new() -> ModuleSet {
        ModuleSet::default()
    }

    /// Adds an ML source module under `name`.
    pub fn ml(mut self, name: impl Into<String>, m: MlModule) -> Self {
        self.sources.push((name.into(), Source::Ml(Box::new(m))));
        self
    }

    /// Adds an L3 source module under `name`.
    pub fn l3(mut self, name: impl Into<String>, m: L3Module) -> Self {
        self.sources.push((name.into(), Source::L3(Box::new(m))));
        self
    }

    /// Adds a raw RichWasm module under `name`.
    pub fn richwasm(mut self, name: impl Into<String>, m: syntax::Module) -> Self {
        self.sources
            .push((name.into(), Source::RichWasm(Box::new(m))));
        self
    }

    /// Adds a precompiled (or externally produced) standard `.wasm`
    /// binary under `name`. The bytes are **never trusted**: they enter
    /// the ordinary decode → validate → instantiate path, with strict
    /// bounds/LEB checking at decode and full re-validation after.
    ///
    /// Binary modules carry no RichWasm types, so they run on the Wasm
    /// backend only — compiling a set that contains one under
    /// [`Exec::Interp`] or [`Exec::Differential`] fails cleanly at the
    /// decode stage. They may be freely mixed with source modules (whose
    /// lowered forms instantiate alongside them, imports resolving by
    /// module name exactly as between lowered guests).
    pub fn wasm_module(mut self, name: impl Into<String>, bytes: impl Into<Vec<u8>>) -> Self {
        self.sources
            .push((name.into(), Source::Wasm(WasmBytes(bytes.into()))));
        self
    }

    /// Registers a host function: a Rust closure exposed to guests as
    /// export `name` of a host module named `module`, installed into
    /// **both** execution backends at
    /// [`Artifact::instantiate`] time. Guests import it like any module
    /// export — an ML `MlImport`/L3 `L3Import` (or raw
    /// `Func::Imported`) whose declared type equals
    /// [`HostSig::to_fun_type`] — and the typed linker's FFI check
    /// guards the boundary exactly as it does between guests.
    ///
    /// The closure receives the arguments as [`HostVal`]s and must return
    /// exactly the declared results; `Err(msg)` traps the guest. In
    /// differential mode the closure runs **once per invocation** (on the
    /// RichWasm backend); the Wasm backend replays the recorded outcomes,
    /// so stateful hosts stay consistent across the cross-check.
    ///
    /// Multiple calls with the same `module` accumulate functions under
    /// one host module.
    pub fn host_fn(
        mut self,
        module: impl Into<String>,
        name: impl Into<String>,
        sig: HostSig,
        imp: impl Fn(&[HostVal]) -> Result<Vec<HostVal>, String> + Send + Sync + 'static,
    ) -> Self {
        self.push_host_fn(module.into(), name.into(), sig, Arc::new(imp), None);
        self
    }

    /// [`ModuleSet::host_fn`] for *stateful* hosts: `on_reset` rewinds the
    /// interior-mutable state `imp` closes over, and [`Instance::reset`]
    /// (hence every [`InstancePool`] checkin) runs it — so a recycled
    /// instance cannot observe host state left behind by a previous
    /// checkout.
    ///
    /// Host closures are shared by every instance of an artifact: when a
    /// pool holds more than one instance, `on_reset` rewinds state that
    /// concurrent checkouts may also be touching. Pools with stateful
    /// hosts should therefore either keep the state per-invocation
    /// (reset is then a no-op) or make it genuinely concurrent.
    pub fn host_fn_with_reset(
        mut self,
        module: impl Into<String>,
        name: impl Into<String>,
        sig: HostSig,
        imp: impl Fn(&[HostVal]) -> Result<Vec<HostVal>, String> + Send + Sync + 'static,
        on_reset: impl Fn() + Send + Sync + 'static,
    ) -> Self {
        self.push_host_fn(
            module.into(),
            name.into(),
            sig,
            Arc::new(imp),
            Some(Arc::new(on_reset)),
        );
        self
    }

    fn push_host_fn(
        &mut self,
        module: String,
        name: String,
        sig: HostSig,
        imp: HostCallback,
        on_reset: Option<Arc<dyn Fn() + Send + Sync>>,
    ) {
        let def = HostFuncDef {
            name,
            sig,
            imp,
            on_reset,
        };
        match self.hosts.iter_mut().find(|h| h.name == module) {
            Some(h) => h.funcs.push(def),
            None => self.hosts.push(HostModuleDef {
                name: module,
                funcs: vec![def],
            }),
        }
    }

    /// Names the module whose exported entry function invocations target.
    /// Defaults to the only module when exactly one was added.
    pub fn entry(mut self, name: impl Into<String>) -> Self {
        self.entry = Some(name.into());
        self
    }

    /// Names the exported function [`Instance::invoke_entry`] invokes on
    /// the entry module. Defaults to `"main"`.
    pub fn entry_func(mut self, name: impl Into<String>) -> Self {
        self.entry_func = Some(name.into());
        self
    }

    fn resolved_entry(&self) -> Option<String> {
        self.entry
            .clone()
            .or_else(|| (self.sources.len() == 1).then(|| self.sources[0].0.clone()))
    }
}

/// The content hash identifying one (module set, configuration) pair in
/// the engine's artifact cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey(u128);

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// FNV-1a, 128-bit: stable across runs and platforms (unlike
/// `DefaultHasher`), dependency-free, and fast enough that keying is
/// negligible next to even a warm compile.
struct Fnv128(u128);

impl Fnv128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013b;

    fn new() -> Fnv128 {
        Fnv128(Self::OFFSET)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u128;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }
}

impl fmt::Write for Fnv128 {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// Content-addresses a module set under a configuration: the hash covers
/// the full AST of every module (via its canonical `Debug` rendering —
/// for raw modules that *is* the RichWasm AST; for ML/L3 sources the
/// frontends are deterministic, so the source AST is a faithful proxy
/// and hashing pre-frontend lets a hit skip the frontend stage too),
/// each module's name and language, the entry selections, the whole
/// [`EngineConfig`], and every host function's module, name, and
/// **signature** — host signatures shape the lowered imports, so they
/// are content. The host closure itself cannot be content-hashed; its
/// `Arc` identity is hashed instead, so re-registering behaviourally
/// different closures under identical signatures can never resurrect a
/// cached artifact carrying the old behaviour.
fn cache_key(config: &EngineConfig, set: &ModuleSet) -> CacheKey {
    use fmt::Write as _;
    let mut h = Fnv128::new();
    let _ = write!(
        h,
        "cfg:{:032x}|entry:{:?}|entry_func:{:?}",
        config.fingerprint(),
        set.entry,
        set.entry_func
    );
    for (name, src) in &set.sources {
        // `{name:?}` quotes and escapes the name, so a crafted module
        // name cannot forge the `|mod:`/`=` separators and alias two
        // distinct sets onto one hash stream.
        let _ = write!(h, "|mod:{name:?}={src:?}");
    }
    for hm in &set.hosts {
        let _ = write!(h, "|host:{:?}", hm.name);
        for f in &hm.funcs {
            let _ = write!(h, "|hfn:{:?}:{}@{:p}", f.name, f.sig, Arc::as_ptr(&f.imp));
            // The reset hook shapes post-reset behaviour, so its identity
            // is content for the same reason the closure's is.
            if let Some(r) = &f.on_reset {
                let _ = write!(h, "~reset@{:p}", Arc::as_ptr(r));
            }
        }
    }
    CacheKey(h.0)
}

/// Cache effectiveness counters, via [`Engine::cache_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Compiles served from the in-memory cache (all static stages
    /// skipped).
    pub hits: u64,
    /// Compiles that ran the full static pipeline.
    pub misses: u64,
    /// Compiles served from the persistent cache
    /// ([`EngineConfig::cache_dir`]): the artifact was loaded from disk —
    /// decode + re-validate of the stored bytes, no static stage re-run.
    pub disk_hits: u64,
    /// Persistent-cache entries that were present but unusable (corrupt,
    /// truncated, stale fingerprint, or failing re-validation); each one
    /// fell back to a cold compile, which also counts in `misses`.
    pub disk_misses: u64,
}

impl CacheStats {
    /// Fraction of compiles served from either cache layer, in
    /// `0.0..=1.0` (`0.0` before any compile).
    pub fn hit_rate(&self) -> f64 {
        let served = self.hits + self.disk_hits;
        let total = served + self.misses;
        if total == 0 {
            0.0
        } else {
            served as f64 / total as f64
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits, {} misses ({:.1}% hit rate)",
            self.hits,
            self.misses,
            self.hit_rate() * 100.0
        )?;
        if self.disk_hits + self.disk_misses > 0 {
            write!(
                f,
                ", disk: {} hits, {} unusable",
                self.disk_hits, self.disk_misses
            )?;
        }
        Ok(())
    }
}

/// Magic + format version of a serialized [`Artifact`] (`DESIGN.md` §9);
/// bump the trailing byte on any layout change so stale files fall back
/// to a cold compile instead of misparsing.
const ARTIFACT_MAGIC: &[u8] = b"RWART\x05";

fn write_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn write_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(v) => {
            out.push(1);
            out.extend_from_slice(&v.to_le_bytes());
        }
        None => out.push(0),
    }
}

/// Serializes one module's [`AnalysisReport`] (diagnostics + fuel-cost
/// summary) into the artifact byte stream.
fn write_analysis(out: &mut Vec<u8>, r: &AnalysisReport) {
    out.extend_from_slice(&(r.diagnostics.len() as u32).to_le_bytes());
    for d in &r.diagnostics {
        out.extend_from_slice(&d.func.to_le_bytes());
        out.extend_from_slice(&d.offset.to_le_bytes());
        out.push(d.pass.code());
        out.push(d.severity.code());
        write_str(out, &d.message);
    }
    out.extend_from_slice(&(r.cost.funcs.len() as u32).to_le_bytes());
    for fc in &r.cost.funcs {
        out.extend_from_slice(&fc.func.to_le_bytes());
        out.extend_from_slice(&fc.min_steps.to_le_bytes());
        match fc.max_steps {
            Bound::Finite(n) => {
                out.push(0);
                out.extend_from_slice(&n.to_le_bytes());
            }
            Bound::Unbounded { min_iteration } => {
                out.push(1);
                out.extend_from_slice(&min_iteration.to_le_bytes());
            }
        }
    }
    out.extend_from_slice(&(r.cost.exports.len() as u32).to_le_bytes());
    for (name, idx) in &r.cost.exports {
        write_str(out, name);
        out.extend_from_slice(&idx.to_le_bytes());
    }
    write_opt_u64(out, r.cost.max_call_depth.map(u64::from));
}

/// Inverse of [`write_analysis`]; `None` on any framing error.
fn read_analysis(r: &mut ArtifactReader<'_>) -> Option<AnalysisReport> {
    let nd = u32::from_le_bytes(r.array::<4>()?) as usize;
    let mut diagnostics = Vec::new();
    for _ in 0..nd {
        let func = u32::from_le_bytes(r.array::<4>()?);
        let offset = u32::from_le_bytes(r.array::<4>()?);
        let pass = Pass::from_code(r.u8()?)?;
        let severity = Severity::from_code(r.u8()?)?;
        let message = r.string()?;
        diagnostics.push(Diagnostic {
            func,
            offset,
            pass,
            severity,
            message,
        });
    }
    let nf = u32::from_le_bytes(r.array::<4>()?) as usize;
    let mut funcs = Vec::new();
    for _ in 0..nf {
        let func = u32::from_le_bytes(r.array::<4>()?);
        let min_steps = u64::from_le_bytes(r.array::<8>()?);
        let max_steps = match r.u8()? {
            0 => Bound::Finite(u64::from_le_bytes(r.array::<8>()?)),
            1 => Bound::Unbounded {
                min_iteration: u64::from_le_bytes(r.array::<8>()?),
            },
            _ => return None,
        };
        funcs.push(FuncCost {
            func,
            min_steps,
            max_steps,
        });
    }
    let ne = u32::from_le_bytes(r.array::<4>()?) as usize;
    let mut exports = Vec::new();
    for _ in 0..ne {
        let name = r.string()?;
        let idx = u32::from_le_bytes(r.array::<4>()?);
        exports.push((name, idx));
    }
    let max_call_depth = match r.opt_u64()? {
        Some(v) => Some(u32::try_from(v).ok()?),
        None => None,
    };
    Some(AnalysisReport {
        diagnostics,
        cost: CostReport {
            funcs,
            exports,
            max_call_depth,
        },
    })
}

/// Bounds-checked cursor over a serialized artifact; every accessor
/// returns `None` at EOF instead of panicking.
struct ArtifactReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ArtifactReader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if n > self.bytes.len() - self.pos {
            return None;
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Some(s)
    }

    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N).map(|s| s.try_into().expect("exact length"))
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    fn opt_u64(&mut self) -> Option<Option<u64>> {
        match self.u8()? {
            0 => Some(None),
            _ => Some(Some(u64::from_le_bytes(self.array::<8>()?))),
        }
    }

    fn string(&mut self) -> Option<String> {
        let len = u32::from_le_bytes(self.array::<4>()?) as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }
}

#[derive(Debug)]
struct ArtifactInner {
    key: CacheKey,
    config: EngineConfig,
    entry: Option<String>,
    /// The exported function entry invocations call (default `"main"`).
    entry_func: String,
    /// Host modules (name, signatures, closures) to install into both
    /// backends at instantiation, before any guest module.
    hosts: Vec<HostModuleDef>,
    /// RichWasm modules (post-frontend), in instantiation order. Every
    /// instance's runtime shares these ASTs rather than copying them.
    modules: Vec<(String, Arc<syntax::Module>)>,
    /// Checked module environments, one per RichWasm module.
    envs: Vec<ModuleEnv>,
    /// The whole-program table layout the modules were lowered under.
    link_plan: LinkPlan,
    /// Lowered Wasm modules, runtime first (empty in [`Exec::Interp`]).
    lowered: Vec<(String, w::Module)>,
    /// Standard `.wasm` encodings of `lowered`.
    binaries: Vec<(String, Vec<u8>)>,
    /// Per-module static-analysis reports, in `lowered` order (empty
    /// when [`Analysis::Off`] or in [`Exec::Interp`]).
    analysis: Vec<(String, AnalysisReport)>,
    /// Flat-bytecode compilations of `lowered`, index for index (empty
    /// when [`WasmTier::Tree`] or in [`Exec::Interp`]), built by
    /// [`compile_bytecode`]. Attached to every instance's Wasm store at
    /// instantiation.
    compiled: Vec<CompiledModule>,
    /// Static-stage timings of the (cold) compile that produced this.
    timings: Timings,
}

/// The immutable result of the static pipeline — everything up to, but
/// not including, instantiation. Cloning is one `Arc` bump; artifacts are
/// `Send + Sync` and can be instantiated from many threads at once.
#[derive(Debug, Clone)]
pub struct Artifact {
    inner: Arc<ArtifactInner>,
}

impl Artifact {
    /// The content hash this artifact is cached under.
    pub fn key(&self) -> CacheKey {
        self.inner.key
    }

    /// The configuration it was compiled under.
    pub fn config(&self) -> &EngineConfig {
        &self.inner.config
    }

    /// The resolved entry module, if any.
    pub fn entry(&self) -> Option<&str> {
        self.inner.entry.as_deref()
    }

    /// The exported function entry invocations call (default `"main"`,
    /// configurable with [`ModuleSet::entry_func`]).
    pub fn entry_func(&self) -> &str {
        &self.inner.entry_func
    }

    /// The (post-frontend) RichWasm module compiled under `name`, with
    /// its checked types — the source of truth typed handles validate
    /// against.
    pub(crate) fn find_module(&self, name: &str) -> Option<&syntax::Module> {
        self.inner
            .modules
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, m)| &**m)
    }

    /// The checked [`ModuleEnv`]s, one per RichWasm module.
    pub fn envs(&self) -> &[ModuleEnv] {
        &self.inner.envs
    }

    /// The whole-program [`LinkPlan`] the modules were lowered under.
    pub fn link_plan(&self) -> &LinkPlan {
        &self.inner.link_plan
    }

    /// Standard `.wasm` bytes per lowered module, generated runtime
    /// module first (empty in [`Exec::Interp`] mode).
    pub fn wasm_binaries(&self) -> &[(String, Vec<u8>)] {
        &self.inner.binaries
    }

    /// The lowered Wasm modules in instantiation order, generated
    /// runtime module first (empty in [`Exec::Interp`] mode) — the ASTs
    /// the static-analysis passes (and the bytecode tier) consume.
    pub fn lowered_modules(&self) -> &[(String, w::Module)] {
        &self.inner.lowered
    }

    /// Per-module static-analysis reports, in [`Artifact::lowered_modules`]
    /// order. Empty when analysis was [`Analysis::Off`], in
    /// [`Exec::Interp`] mode, or on an artifact loaded from a pre-analysis
    /// serialization.
    pub fn analysis(&self) -> &[(String, AnalysisReport)] {
        &self.inner.analysis
    }

    /// The statically proven minimum interpreter-step cost of invoking
    /// exported function `func` of module `module`, from the cached
    /// fuel-cost analysis. A budget strictly below this bound *cannot*
    /// complete — the serving layer uses it to reject infeasible jobs
    /// before an instance checkout. `None` when analysis did not run,
    /// the export is unknown (or re-exported from an import), or no
    /// path completes normally (a guaranteed trap is not a fuel
    /// problem).
    pub fn static_min_steps(&self, module: &str, func: &str) -> Option<u64> {
        let (_, report) = self.inner.analysis.iter().find(|(n, _)| n == module)?;
        let min = report.cost.min_steps_of_export(func)?;
        (min != richwasm_analyze::NEVER).then_some(min)
    }

    /// Static-stage timings of the cold compile that built this artifact.
    /// A cache hit returns the same artifact, so these do *not* grow —
    /// the static stages ran exactly once.
    pub fn timings(&self) -> &Timings {
        &self.inner.timings
    }

    /// True when `other` is literally the same cached artifact (pointer
    /// identity, not structural comparison).
    pub fn same_as(&self, other: &Artifact) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Serializes the artifact for the persistent cache (or for shipping
    /// to another process): the standard `.wasm` bytes of every module,
    /// the entry metadata, the configuration (fields + fingerprint), the
    /// cache key, the static-analysis reports, and a whole-file checksum.
    /// No bytecode is written: the `.wasm` modules are the only code a
    /// file carries. The format is documented in `DESIGN.md` §9.
    ///
    /// Returns `None` when the artifact is not self-contained on disk:
    /// only [`Exec::Wasm`] artifacts serialize (`.wasm` bytes carry no
    /// RichWasm types, so the interpreter-backed modes cannot be rebuilt
    /// from them), and only without host functions (closures live in
    /// process memory). [`Artifact::deserialize`] inverts this exactly —
    /// same key, same bytes, same entry — after re-decoding and
    /// re-validating every module, because bytes read back from disk are
    /// as untrusted as bytes from anywhere else.
    pub fn serialize(&self) -> Option<Vec<u8>> {
        let inner = &self.inner;
        if inner.config.exec != Exec::Wasm || !inner.hosts.is_empty() || inner.binaries.is_empty() {
            return None;
        }
        let mut out = Vec::new();
        out.extend_from_slice(ARTIFACT_MAGIC);
        out.extend_from_slice(&inner.config.fingerprint().to_le_bytes());
        write_opt_u64(&mut out, inner.config.auto_gc_every);
        write_opt_u64(&mut out, inner.config.fuel);
        out.push(inner.config.analysis.code());
        out.push(inner.config.wasm_tier.code());
        out.extend_from_slice(&inner.key.0.to_le_bytes());
        match &inner.entry {
            Some(e) => {
                out.push(1);
                write_str(&mut out, e);
            }
            None => out.push(0),
        }
        write_str(&mut out, &inner.entry_func);
        out.extend_from_slice(&(inner.binaries.len() as u32).to_le_bytes());
        for (name, bytes) in &inner.binaries {
            write_str(&mut out, name);
            out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
            out.extend_from_slice(bytes);
        }
        out.extend_from_slice(&(inner.analysis.len() as u32).to_le_bytes());
        for (name, report) in &inner.analysis {
            write_str(&mut out, name);
            write_analysis(&mut out, report);
        }
        let mut h = Fnv128::new();
        h.update(&out);
        out.extend_from_slice(&h.0.to_le_bytes());
        Some(out)
    }

    /// Reconstructs an artifact from [`Artifact::serialize`] output.
    ///
    /// The bytes are treated as untrusted: the checksum must match, and
    /// every embedded `.wasm` module goes back through the full strict
    /// decode → validate path before it can be instantiated. On the
    /// [`WasmTier::Bytecode`] tier the flat bytecode is then rebuilt from
    /// those just-validated modules, so a loaded artifact runs exactly
    /// the Wasm it validated. The analysis reports are read back as
    /// stored (`DESIGN.md` §9 says why and what a tampered report can
    /// do). The resulting artifact is equivalent to the original for
    /// every [`Exec::Wasm`] purpose — identical key, entry metadata,
    /// byte-identical [`Artifact::wasm_binaries`], identical bytecode —
    /// but records no static-stage [`Timings`] (no frontend, check or
    /// lowering ran; the load cost, bytecode rebuild included, is what
    /// the `e10_decode` bench measures).
    ///
    /// # Errors
    ///
    /// [`PipelineErrorKind::Artifact`] for framing/checksum/format
    /// failures, [`PipelineErrorKind::Decode`] /
    /// [`PipelineErrorKind::Validation`] when an embedded module is bad.
    pub fn deserialize(bytes: &[u8]) -> Result<Artifact, PipelineError> {
        let corrupt = |reason: &str| {
            PipelineError::new(
                Stage::Decode,
                None,
                PipelineErrorKind::Artifact(reason.to_string()),
            )
        };
        if bytes.len() < ARTIFACT_MAGIC.len() + 16 {
            return Err(corrupt("truncated artifact"));
        }
        if &bytes[..ARTIFACT_MAGIC.len()] != ARTIFACT_MAGIC {
            return Err(corrupt("bad artifact magic/version"));
        }
        let (payload, stored_sum) = bytes.split_at(bytes.len() - 16);
        let mut h = Fnv128::new();
        h.update(payload);
        if h.0.to_le_bytes() != stored_sum {
            return Err(corrupt("artifact checksum mismatch"));
        }

        let mut r = ArtifactReader {
            bytes: payload,
            pos: ARTIFACT_MAGIC.len(),
        };
        let fingerprint = u128::from_le_bytes(r.array::<16>().ok_or_else(|| corrupt("eof"))?);
        let auto_gc_every = r.opt_u64().ok_or_else(|| corrupt("eof"))?;
        let fuel = r.opt_u64().ok_or_else(|| corrupt("eof"))?;
        let analysis_level = Analysis::from_code(r.u8().ok_or_else(|| corrupt("eof"))?)
            .ok_or_else(|| corrupt("bad analysis policy code"))?;
        let wasm_tier = WasmTier::from_code(r.u8().ok_or_else(|| corrupt("eof"))?)
            .ok_or_else(|| corrupt("bad wasm tier code"))?;
        let config = EngineConfig {
            exec: Exec::Wasm,
            auto_gc_every,
            fuel,
            analysis: analysis_level,
            wasm_tier,
            cache_dir: None,
        };
        if config.fingerprint() != fingerprint {
            return Err(corrupt("configuration fingerprint mismatch"));
        }
        let key = CacheKey(u128::from_le_bytes(
            r.array::<16>().ok_or_else(|| corrupt("eof"))?,
        ));
        let entry = if r.u8().ok_or_else(|| corrupt("eof"))? != 0 {
            Some(r.string().ok_or_else(|| corrupt("bad entry name"))?)
        } else {
            None
        };
        let entry_func = r.string().ok_or_else(|| corrupt("bad entry function"))?;
        let count = u32::from_le_bytes(r.array::<4>().ok_or_else(|| corrupt("eof"))?) as usize;
        let mut lowered = Vec::new();
        let mut binaries = Vec::new();
        for _ in 0..count {
            let name = r.string().ok_or_else(|| corrupt("bad module name"))?;
            let len = u64::from_le_bytes(r.array::<8>().ok_or_else(|| corrupt("eof"))?) as usize;
            let data = r.take(len).ok_or_else(|| corrupt("truncated module"))?;
            let wm = decode_module(data).map_err(|e| {
                PipelineError::new(Stage::Decode, Some(&name), PipelineErrorKind::Decode(e))
            })?;
            validate_module(&wm).map_err(|e| {
                PipelineError::new(
                    Stage::Validate,
                    Some(&name),
                    PipelineErrorKind::Validation(e),
                )
            })?;
            binaries.push((name.clone(), data.to_vec()));
            lowered.push((name, wm));
        }
        let n_reports = u32::from_le_bytes(r.array::<4>().ok_or_else(|| corrupt("eof"))?) as usize;
        let mut analysis = Vec::new();
        for _ in 0..n_reports {
            let name = r.string().ok_or_else(|| corrupt("bad report name"))?;
            let report =
                read_analysis(&mut r).ok_or_else(|| corrupt("malformed analysis report"))?;
            analysis.push((name, report));
        }
        if r.pos != payload.len() {
            return Err(corrupt("trailing bytes in artifact"));
        }
        let compiled = compile_bytecode(&config, &lowered);
        Ok(Artifact {
            inner: Arc::new(ArtifactInner {
                key,
                config,
                entry,
                entry_func,
                hosts: Vec::new(),
                modules: Vec::new(),
                envs: Vec::new(),
                link_plan: LinkPlan::default(),
                lowered,
                binaries,
                analysis,
                compiled,
                timings: Timings::default(),
            }),
        })
    }

    /// Creates a fresh, independent [`Instance`]: typed linking +
    /// instantiation on the RichWasm interpreter and/or instantiation of
    /// the lowered modules on the Wasm interpreter. No static stage runs.
    ///
    /// # Errors
    ///
    /// Link errors ([`Stage::Instantiate`]) — e.g. an import whose
    /// declared type does not match the provider's export.
    pub fn instantiate(&self) -> Result<Instance, PipelineError> {
        let inner = &self.inner;
        let config = &inner.config;
        let mut timings = Timings::default();
        let t0 = Instant::now();

        // One record/replay channel per host function, in registration
        // order — only differential mode needs them (the RichWasm backend
        // records each host call's outcome, the Wasm backend replays it,
        // so host side effects happen once per invocation).
        let replay: Vec<ReplayLog> = if config.exec == Exec::Differential {
            inner
                .hosts
                .iter()
                .flat_map(|hm| &hm.funcs)
                .map(|_| ReplayLog::default())
                .collect()
        } else {
            Vec::new()
        };

        let richwasm = if config.exec.wants_interp() {
            Some(self.build_runtime(&replay)?)
        } else {
            None
        };

        let wasm = if config.exec.wants_wasm() {
            let mut linker = WasmLinker::new();
            if let Some(fuel) = config.fuel {
                // Units differ (reduction steps vs executed instructions),
                // but both backends must be bounded or fuel exhaustion on
                // one side would masquerade as a differential mismatch.
                linker.max_steps = fuel;
            }
            // Host modules first: guests resolve imports against them.
            let mut k = 0;
            for hm in &inner.hosts {
                let funcs = hm
                    .funcs
                    .iter()
                    .map(|f| {
                        let log = replay.get(k).cloned();
                        k += 1;
                        (
                            f.name.clone(),
                            f.sig.to_wasm_type(),
                            wasm_host_fn(f.sig.clone(), f.imp.clone(), log),
                        )
                    })
                    .collect();
                linker.register_host_module(&hm.name, funcs);
            }
            for (i, (name, wm)) in inner.lowered.iter().enumerate() {
                let wasm_err = |e| {
                    PipelineError::new(Stage::Instantiate, Some(name), PipelineErrorKind::Wasm(e))
                };
                let idx = linker.instantiate(name, wm.clone()).map_err(wasm_err)?;
                // Bytecode tier: re-point every defined function at its
                // flat compilation (`compiled` is empty on the tree tier).
                if let Some(cm) = inner.compiled.get(i) {
                    linker.attach_compiled(idx, cm).map_err(wasm_err)?;
                }
            }
            // Baseline for cheap Instance::reset.
            linker.seal();
            Some(linker)
        } else {
            None
        };

        timings.add(Stage::Instantiate, t0.elapsed());

        Ok(Instance {
            richwasm,
            wasm,
            artifact: self.clone(),
            timings,
            invocations: 0,
            replay,
        })
    }

    /// Typed linking + instantiation of the (already checked) RichWasm
    /// modules on a fresh interpreter runtime — host modules first, then
    /// the guests — sealed so [`Instance::reset`] can restore it in
    /// place. Modules were checked at compile time, so per-module
    /// re-checking is off; the typed linker's FFI boundary check still
    /// runs.
    fn build_runtime(&self, replay: &[ReplayLog]) -> Result<Runtime, PipelineError> {
        let config = &self.inner.config;
        let mut rt = Runtime::new();
        rt.config.check_modules = false;
        if let Some(n) = config.auto_gc_every {
            rt.config.auto_gc_every = Some(n);
        }
        if let Some(fuel) = config.fuel {
            rt.config.fuel = fuel;
        }
        let mut k = 0;
        for hm in &self.inner.hosts {
            let funcs = hm
                .funcs
                .iter()
                .map(|f| {
                    let log = replay.get(k).cloned();
                    k += 1;
                    (
                        f.name.clone(),
                        f.sig.to_fun_type(),
                        richwasm_host_fn(f.sig.clone(), f.imp.clone(), log),
                    )
                })
                .collect();
            rt.register_host_module(&hm.name, funcs);
        }
        for (name, m) in &self.inner.modules {
            rt.instantiate(name, Arc::clone(m)).map_err(|e| {
                PipelineError::new(Stage::Instantiate, Some(name), PipelineErrorKind::Type(e))
            })?;
        }
        // Snapshot for cheap Instance::reset.
        rt.seal();
        Ok(rt)
    }
}

/// Where one export lives on each live backend of an [`Instance`]: what
/// [`Instance::resolve`] hands to the invocation core. A typed handle
/// keeps it across calls (instantiation is deterministic, so it stays
/// valid across [`Instance::reset`] and for every instance of the same
/// artifact).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Target {
    /// The RichWasm closure: (defining instance, function index).
    pub(crate) rw: Option<(u32, u32)>,
    /// The Wasm store address.
    pub(crate) wasm: Option<usize>,
}

/// What the invocation core settled on: each backend's result, absent
/// for a backend that did not run.
pub(crate) type Reconciled = (Option<InvokeResult>, Option<Vec<Val>>);

/// The declared type arguments are checked against.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Signature<'a> {
    /// The checked RichWasm type of an export of a RichWasm module.
    RichWasm(&'a FunType),
    /// The Wasm type of an export of a module with no RichWasm source.
    Wasm(&'a w::FuncType),
}

/// A live, independently mutable execution of an [`Artifact`]: the
/// RichWasm runtime and/or the Wasm linker, ready for repeated
/// [`Instance::invoke`] calls. Two instances of one artifact share no
/// mutable state.
#[derive(Debug)]
pub struct Instance {
    /// The RichWasm interpreter with every module instantiated (present
    /// unless the engine runs in [`Exec::Wasm`] mode). Public so harness
    /// code can extract the backend and drive it directly.
    pub richwasm: Option<Runtime>,
    /// The Wasm interpreter with every lowered module instantiated
    /// (present unless the engine runs in [`Exec::Interp`] mode).
    pub wasm: Option<WasmLinker>,
    artifact: Artifact,
    timings: Timings,
    invocations: u64,
    /// Host-call record/replay channels (differential mode only), cleared
    /// at the start of every invocation.
    replay: Vec<ReplayLog>,
}

impl Instance {
    /// The artifact this instance was created from.
    pub fn artifact(&self) -> &Artifact {
        &self.artifact
    }

    /// Marks the start of one invocation: bumps the counter and clears
    /// any leftover host-call recordings (a failed invocation on one
    /// backend must not leak recorded outcomes into the next).
    fn begin_invocation(&mut self) {
        self.invocations += 1;
        for log in &self.replay {
            log.lock().expect("host replay log poisoned").clear();
        }
    }

    /// The execution mode this instance runs in.
    pub fn exec_mode(&self) -> Exec {
        self.artifact.config().exec
    }

    /// Dynamic-stage timings of this instance (instantiation; never any
    /// static stage — [`Timings::no_static_stages`] always holds, however
    /// many invocations have run).
    pub fn timings(&self) -> &Timings {
        &self.timings
    }

    /// Number of calls, through [`Instance::invoke`] or a
    /// [`TypedFunc`](crate::TypedFunc), that reached a backend
    /// (successful or not). A call refused at resolve time, before any
    /// backend runs, does not count.
    pub fn invocations(&self) -> u64 {
        self.invocations
    }

    /// The RichWasm runtime, panicking when the engine runs Wasm-only.
    /// Convenience for store inspection in tests.
    pub fn runtime(&mut self) -> &mut Runtime {
        self.richwasm
            .as_mut()
            .expect("instance was built without the RichWasm interpreter")
    }

    /// Invokes export `func` of `module` with `args` on every active
    /// backend; in differential mode the results must agree.
    ///
    /// Arguments are RichWasm values, checked against the export's
    /// checked type before any backend runs: the count must match, and
    /// each numeric argument must have its parameter's width (signedness
    /// is a view, as for [`TypedFunc`](crate::TypedFunc)). For the Wasm
    /// backend they are lowered the way the compiler lowers parameters
    /// (`unit` erases, numerics pass through). A module with no RichWasm
    /// source ([`Engine::load_wasm`], a deserialized artifact) is checked
    /// against its Wasm function type instead.
    ///
    /// # Errors
    ///
    /// An unknown module or export, or arguments that do not match the
    /// export's type ([`PipelineErrorKind::Unsupported`] at
    /// [`Stage::Execute`], before any backend runs); execution failures
    /// ([`Stage::Execute`]); cross-backend disagreement
    /// ([`Stage::Differential`]). In differential mode *both* backends
    /// always run, so a trap on only one of them — the very erasure bug
    /// differential mode exists to catch — surfaces as a
    /// [`PipelineErrorKind::Mismatch`], and a failed invocation never
    /// leaves the two backends' states out of step.
    pub fn invoke(
        &mut self,
        module: &str,
        func: &str,
        mut args: Vec<Value>,
    ) -> Result<Invocation, PipelineError> {
        let (target, sig) = self.resolve(module, func)?;
        let bad_args = |why: String| {
            PipelineError::new(
                Stage::Execute,
                Some(module),
                PipelineErrorKind::Unsupported(format!("arguments of `{module}.{func}`: {why}")),
            )
        };
        if let Signature::RichWasm(ty) = sig {
            check_args(ty, &mut args).map_err(bad_args)?;
        }
        let wasm_args = match target.wasm {
            Some(_) => lower_values(&args)
                .ok_or_else(|| bad_args(format!("{args:?} have no scalar Wasm lowering")))?,
            None => Vec::new(),
        };
        if let Signature::Wasm(ft) = sig {
            if !wasm_args.iter().map(Val::ty).eq(ft.params.iter().copied()) {
                return Err(bad_args(format!(
                    "{wasm_args:?} do not match the Wasm parameter types {:?}",
                    ft.params
                )));
            }
        }
        self.invoke_resolved(module, target, args, &wasm_args)
            .map(Invocation::new)
    }

    /// Resolves export `func` of `module` on every live backend — the one
    /// name lookup behind both invocation paths ([`Instance::invoke`] per
    /// call, [`Instance::get_typed_func`] once per handle) — and returns
    /// the export's declared type to check arguments against.
    ///
    /// The RichWasm side resolves *through the closure*, so a re-exported
    /// import calls its defining module directly. A module with no
    /// RichWasm source resolves on the Wasm backend alone, and only in
    /// [`Exec::Wasm`] mode: the interpreter cannot run it.
    ///
    /// # Errors
    ///
    /// [`PipelineErrorKind::Unsupported`] at [`Stage::Execute`] for an
    /// unknown module or export, and when no backend is live.
    pub(crate) fn resolve(
        &self,
        module: &str,
        func: &str,
    ) -> Result<(Target, Signature<'_>), PipelineError> {
        let err = |msg: String| {
            PipelineError::new(
                Stage::Execute,
                Some(module),
                PipelineErrorKind::Unsupported(msg),
            )
        };
        let no_module = || err(format!("no module named `{module}` in this artifact"));
        let no_export = || err(format!("module `{module}` has no function export `{func}`"));
        let checked = match self.artifact.find_module(module) {
            Some(m) => {
                let fidx = m.find_export(func).ok_or_else(no_export)?;
                Some((fidx, m.funcs[fidx as usize].ty()))
            }
            None if self.exec_mode().wants_interp() => return Err(no_module()),
            None => None,
        };
        let rw = match (&self.richwasm, checked) {
            (Some(rt), Some((fidx, _))) => {
                let cl = rt
                    .instance_by_name(module)
                    .and_then(|mi| rt.store.insts.get(mi as usize)?.funcs.get(fidx as usize))
                    .ok_or_else(no_module)?;
                Some((cl.inst, cl.func))
            }
            _ => None,
        };
        let wasm = match &self.wasm {
            Some(linker) => {
                let wi = linker.instance_by_name(module).ok_or_else(no_module)?;
                Some(linker.export_func_addr(wi, func).ok_or_else(no_export)?)
            }
            None => None,
        };
        let sig = match (checked, &self.wasm, wasm) {
            (Some((_, ty)), ..) if rw.is_some() || wasm.is_some() => Signature::RichWasm(ty),
            (None, Some(linker), Some(addr)) => Signature::Wasm(
                linker
                    .func_type(addr)
                    .expect("an export address names a store function"),
            ),
            _ => {
                return Err(err(
                    "no live backend to resolve against (both were extracted?)".into(),
                ))
            }
        };
        let target = Target { rw, wasm };
        Ok((target, sig))
    }

    /// The invocation core: the only code that runs the backends and
    /// reconciles them, behind both [`Instance::invoke`] and
    /// [`TypedFunc::call`](crate::TypedFunc::call). Runs `target` on
    /// every live backend — the interpreter with `args`, the Wasm linker
    /// with `wasm_args` — then applies one policy: when both ran and
    /// succeeded, the results must agree bit for bit; when either
    /// failed, [`reconcile_failures`] decides. A lone backend's outcome
    /// is the answer. [`Instance::invoke`] wraps the result in an
    /// [`Invocation`]; a typed handle converts it on the stack.
    ///
    /// `#[inline]` because [`TypedFunc::call`](crate::TypedFunc::call) is
    /// generic and so compiled in the embedder's crate: inlined, a typed
    /// call is one function body again (E8 measures it).
    #[inline]
    pub(crate) fn invoke_resolved(
        &mut self,
        module: &str,
        target: Target,
        args: Vec<Value>,
        wasm_args: &[Val],
    ) -> Result<Reconciled, PipelineError> {
        self.begin_invocation();
        let execute = |kind| PipelineError::new(Stage::Execute, Some(module), kind);
        // RichWasm first: in differential mode it is the recording side
        // of any host functions.
        let interp = match (target.rw, &mut self.richwasm) {
            (Some((mi, fi)), Some(rt)) => Some(
                rt.invoke_func(mi, fi, args)
                    .map_err(|e| execute(PipelineErrorKind::Runtime(e))),
            ),
            _ => None,
        };
        let wasm = match (target.wasm, &mut self.wasm) {
            (Some(addr), Some(linker)) => Some(
                linker
                    .invoke_addr(addr, wasm_args)
                    .map_err(|e| execute(PipelineErrorKind::Wasm(e))),
            ),
            _ => None,
        };
        match (interp, wasm) {
            (Some(Ok(ir)), Some(Ok(wr))) => {
                let differential =
                    |kind| PipelineError::new(Stage::Differential, Some(module), kind);
                let Some(lowered) = lower_values(&ir.values) else {
                    return Err(differential(PipelineErrorKind::Unsupported(format!(
                        "result {:?} has no scalar Wasm lowering to compare against",
                        ir.values
                    ))));
                };
                if !vals_equal(&lowered, &wr) {
                    return Err(differential(PipelineErrorKind::Mismatch {
                        richwasm: format!("{:?}", ir.values),
                        wasm: format!("{wr:?}"),
                    }));
                }
                Ok((Some(ir), Some(wr)))
            }
            (Some(ir), Some(wr)) => Err(reconcile_failures(module, ir, wr)),
            (Some(ir), None) => Ok((Some(ir?), None)),
            (None, Some(wr)) => Ok((None, Some(wr?))),
            (None, None) => Err(execute(PipelineErrorKind::Unsupported(
                "no live backend to call (both were extracted?)".into(),
            ))),
        }
    }

    /// Invokes the entry function (default `"main"`, see
    /// [`ModuleSet::entry_func`]) on the entry module with no arguments.
    ///
    /// # Errors
    ///
    /// As [`Instance::invoke`], plus an `Unsupported` error when the
    /// module set has no resolvable entry.
    pub fn invoke_entry(&mut self) -> Result<Invocation, PipelineError> {
        let Some(entry) = self.artifact.entry().map(str::to_string) else {
            return Err(PipelineError::new(
                Stage::Execute,
                None,
                PipelineErrorKind::Unsupported(
                    "no entry module: add at least one module, and call .entry(name) when \
                     more than one is added"
                        .into(),
                ),
            ));
        };
        let func = self.artifact.entry_func().to_string();
        self.invoke(&entry, &func, vec![])
    }

    /// Invokes `job`, turning a panic (say, in a host closure) into a
    /// [`PipelineErrorKind::Panicked`] error at [`Stage::Execute`].
    fn invoke_contained(&mut self, job: &Job) -> Result<Invocation, PipelineError> {
        panic::catch_unwind(AssertUnwindSafe(|| {
            self.invoke(&job.module, &job.func, job.args.clone())
        }))
        .unwrap_or_else(|payload| {
            Err(PipelineError::new(
                Stage::Execute,
                Some(&job.module),
                PipelineErrorKind::Panicked(panic_message(payload.as_ref())),
            ))
        })
    }

    /// Rewinds the instance to its freshly instantiated state without
    /// re-running any static stage: the Wasm store restores its sealed
    /// baseline in place (memories, globals, tables and fuel limits), and
    /// the RichWasm runtime restores its sealed snapshot in place (store
    /// and configuration, fuel included — see [`Runtime::reset`]). Module
    /// code is never copied: it is immutable after linking and shared by
    /// `Arc` with the artifact.
    ///
    /// Only a RichWasm runtime that has lost its snapshot — a harness
    /// instantiated extra modules into [`Instance::richwasm`] — is
    /// rebuilt from the artifact's (already checked) modules instead,
    /// which also drops those extra modules.
    ///
    /// Three pieces of host-boundary state are rewound with the stores —
    /// the invariant [`InstancePool`] recycling relies on (a recycled
    /// instance must be indistinguishable from a fresh one):
    ///
    /// * the differential record/replay queues are drained, so a recycled
    ///   instance can never replay a host outcome recorded by a previous
    ///   checkout's (possibly failed) invocation;
    /// * every host function's `on_reset` hook
    ///   ([`ModuleSet::host_fn_with_reset`]) runs, rewinding stateful
    ///   host closures;
    /// * the invocation counter restarts at zero.
    ///
    /// # Errors
    ///
    /// A Wasm store without a sealed baseline, or, from the RichWasm
    /// rebuild fallback, the same link errors as
    /// [`Artifact::instantiate`] — impossible in practice for an
    /// artifact that instantiated once already.
    pub fn reset(&mut self) -> Result<(), PipelineError> {
        if let Some(linker) = &mut self.wasm {
            // In-place restore of the sealed baseline — no re-validation,
            // no import re-resolution.
            linker.reset().map_err(|e| {
                PipelineError::new(Stage::Instantiate, None, PipelineErrorKind::Wasm(e))
            })?;
        }
        if let Some(rt) = &mut self.richwasm {
            // In-place restore of the sealed snapshot; its only error is
            // a missing snapshot, which falls back to a rebuild.
            if rt.reset().is_err() {
                *rt = self.artifact.build_runtime(&self.replay)?;
            }
        }
        for log in &self.replay {
            log.lock().expect("host replay log poisoned").clear();
        }
        for hm in &self.artifact.inner.hosts {
            for f in &hm.funcs {
                if let Some(on_reset) = &f.on_reset {
                    on_reset();
                }
            }
        }
        self.invocations = 0;
        Ok(())
    }
}

/// The message of a caught panic: its `&str` or `String` payload.
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One invocation request for [`InstancePool::invoke_batch`] and
/// [`EngineServer`](crate::server::EngineServer): which export of which
/// module to call, with which arguments.
#[derive(Debug, Clone)]
pub struct Job {
    /// The target module name.
    pub module: String,
    /// The exported function name.
    pub func: String,
    /// RichWasm argument values (converted per backend exactly as
    /// [`Instance::invoke`] converts them).
    pub args: Vec<Value>,
}

impl Job {
    /// Builds a job.
    pub fn new(module: impl Into<String>, func: impl Into<String>, args: Vec<Value>) -> Job {
        Job {
            module: module.into(),
            func: func.into(),
            args,
        }
    }
}

/// Pool effectiveness counters, via [`InstancePool::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Instances handed out by `checkout`.
    pub checkouts: u64,
    /// Instances returned, reset, and made available again.
    pub recycled: u64,
    /// Slots lost because a returned instance could neither be reset nor
    /// replaced (never observed in practice — both require an artifact
    /// that already instantiated once to fail to do so again).
    pub lost: u64,
    /// Checkouts that found the pool empty and had to wait.
    pub blocked_waits: u64,
    /// Total time those checkouts spent waiting, in nanoseconds
    /// (saturating; ~584 years of cumulative waiting before it matters).
    pub blocked_nanos: u64,
}

impl PoolStats {
    /// Total time checkouts spent blocked waiting for an instance —
    /// the pool-contention signal: a growing value means demand
    /// outstrips [`InstancePool::capacity`].
    pub fn blocked_wait_time(&self) -> Duration {
        Duration::from_nanos(self.blocked_nanos)
    }
}

impl fmt::Display for PoolStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} checkouts, {} recycled, {} lost",
            self.checkouts, self.recycled, self.lost
        )?;
        if self.blocked_waits > 0 {
            write!(
                f,
                ", {} blocked for {:.1}ms total",
                self.blocked_waits,
                self.blocked_wait_time().as_secs_f64() * 1e3
            )?;
        }
        Ok(())
    }
}

#[derive(Debug)]
struct PoolState {
    idle: Vec<Instance>,
    stats: PoolStats,
}

/// A fixed-capacity pool of pre-instantiated [`Instance`]s of one
/// [`Artifact`] — the serving-traffic primitive: N isolated instances,
/// checked out to one worker thread at a time and recycled through
/// [`Instance::reset`] on checkin, so every checkout observes a freshly
/// instantiated program.
///
/// The pool is `Sync`: share it by reference (or `Arc`) across worker
/// threads and call [`InstancePool::checkout`] from each. Instances
/// themselves are **thread-confined while checked out** — differential
/// cross-checking and the host record/replay queues are per-instance
/// state and never cross threads (see `DESIGN.md` §8).
///
/// Created by [`Artifact::pool`].
#[derive(Debug)]
pub struct InstancePool {
    artifact: Artifact,
    capacity: usize,
    state: Mutex<PoolState>,
    available: Condvar,
}

impl InstancePool {
    /// The artifact the pooled instances were created from.
    pub fn artifact(&self) -> &Artifact {
        &self.artifact
    }

    /// Number of instances the pool was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Instances currently available for checkout.
    pub fn idle(&self) -> usize {
        self.state
            .lock()
            .expect("instance pool poisoned")
            .idle
            .len()
    }

    /// Checkout/recycle counters since construction.
    pub fn stats(&self) -> PoolStats {
        self.state.lock().expect("instance pool poisoned").stats
    }

    /// Checks an instance out of the pool, blocking until one is
    /// available. The returned guard derefs to [`Instance`]; dropping it
    /// checks the instance back in (resetting it — see
    /// [`Instance::reset`] — so the next checkout gets a fresh program).
    pub fn checkout(&self) -> PooledInstance<'_> {
        let mut state = self.state.lock().expect("instance pool poisoned");
        let mut waited: Option<Instant> = None;
        loop {
            if let Some(inst) = state.idle.pop() {
                state.stats.checkouts += 1;
                if let Some(since) = waited {
                    state.stats.blocked_waits += 1;
                    state.stats.blocked_nanos = state
                        .stats
                        .blocked_nanos
                        .saturating_add(since.elapsed().as_nanos() as u64);
                }
                return PooledInstance {
                    pool: self,
                    inst: Some(inst),
                };
            }
            waited.get_or_insert_with(Instant::now);
            state = self.available.wait(state).expect("instance pool poisoned");
        }
    }

    /// Returns an instance to the pool. The instance is **re-reset** here
    /// (not lazily at checkout), so `checkin` is the only place pool
    /// hygiene lives and an idle pool holds only fresh instances. A reset
    /// failure falls back to minting a replacement instance from the
    /// artifact; if even that fails the slot is dropped and counted in
    /// [`PoolStats::lost`].
    fn checkin(&self, mut inst: Instance) {
        let recycled = match inst.reset() {
            Ok(()) => Some(inst),
            Err(_) => self.artifact.instantiate().ok(),
        };
        let mut state = self.state.lock().expect("instance pool poisoned");
        match recycled {
            Some(inst) => {
                state.idle.push(inst);
                state.stats.recycled += 1;
            }
            None => state.stats.lost += 1,
        }
        drop(state);
        self.available.notify_one();
    }

    /// Runs every job across up to `workers` scoped threads sharing this
    /// pool, returning the per-job outcomes **in job order**. Each worker
    /// checks out one instance for its whole share of the batch (jobs are
    /// claimed from a shared counter, so a slow job never stalls the
    /// others behind a fixed partition), keeping differential checking
    /// and the host record/replay queues strictly per-instance.
    ///
    /// `workers` is clamped to the pool capacity and the job count; with
    /// one worker the batch runs inline on the calling thread. A job that
    /// panics (say, in a host closure) fails alone with
    /// [`PipelineErrorKind::Panicked`]; the rest of the batch still runs.
    ///
    /// Instances are **not** reset between jobs of one batch (resetting
    /// happens at checkin), so this API is for *invocation-independent*
    /// jobs — the serving-traffic shape, and the only shape whose
    /// results are schedule-independent. A guest that accumulates store
    /// state across invocations sees a worker's share of the batch, not
    /// the whole of it; drive such a guest through one checked-out
    /// instance instead, where the invocation order is yours.
    pub fn invoke_batch(
        &self,
        workers: usize,
        jobs: &[Job],
    ) -> Vec<Result<Invocation, PipelineError>> {
        if jobs.is_empty() {
            // Nothing to run — in particular, do not block on a checkout
            // the empty batch will never use.
            return Vec::new();
        }
        let workers = workers.max(1).min(self.capacity).min(jobs.len());
        if workers <= 1 {
            let mut inst = self.checkout();
            return jobs.iter().map(|j| inst.invoke_contained(j)).collect();
        }
        let next = AtomicUsize::new(0);
        let mut results: Vec<Option<Result<Invocation, PipelineError>>> =
            std::iter::repeat_with(|| None).take(jobs.len()).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let next = &next;
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        let mut inst = self.checkout();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(job) = jobs.get(i) else { break };
                            out.push((i, inst.invoke_contained(job)));
                        }
                        out
                    })
                })
                .collect();
            for h in handles {
                for (i, r) in h.join().expect("batch worker panicked") {
                    results[i] = Some(r);
                }
            }
        });
        results
            .into_iter()
            .map(|r| r.expect("every job index claimed exactly once"))
            .collect()
    }
}

/// A checked-out pool instance: derefs to [`Instance`]; dropping it
/// checks the instance back in (reset included).
pub struct PooledInstance<'p> {
    pool: &'p InstancePool,
    /// `None` only transiently during drop.
    inst: Option<Instance>,
}

impl fmt::Debug for PooledInstance<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PooledInstance({})", self.pool.artifact.key())
    }
}

impl std::ops::Deref for PooledInstance<'_> {
    type Target = Instance;
    fn deref(&self) -> &Instance {
        self.inst.as_ref().expect("instance present until drop")
    }
}

impl std::ops::DerefMut for PooledInstance<'_> {
    fn deref_mut(&mut self) -> &mut Instance {
        self.inst.as_mut().expect("instance present until drop")
    }
}

impl Drop for PooledInstance<'_> {
    fn drop(&mut self) {
        if let Some(inst) = self.inst.take() {
            self.pool.checkin(inst);
        }
    }
}

impl Artifact {
    /// Pre-instantiates `n` isolated instances as an [`InstancePool`].
    /// The pool shares nothing mutable between instances; it can be
    /// shared across threads and drained with
    /// [`InstancePool::checkout`] / [`InstancePool::invoke_batch`].
    ///
    /// # Errors
    ///
    /// `Unsupported` for `n == 0`, plus any [`Artifact::instantiate`]
    /// link error.
    pub fn pool(&self, n: usize) -> Result<InstancePool, PipelineError> {
        if n == 0 {
            return Err(PipelineError::new(
                Stage::Instantiate,
                None,
                PipelineErrorKind::Unsupported("an instance pool needs capacity >= 1".into()),
            ));
        }
        let mut idle = Vec::with_capacity(n);
        for _ in 0..n {
            idle.push(self.instantiate()?);
        }
        Ok(InstancePool {
            artifact: self.clone(),
            capacity: n,
            state: Mutex::new(PoolState {
                idle,
                stats: PoolStats::default(),
            }),
            available: Condvar::new(),
        })
    }

    /// The [`Job`] equivalent of [`Instance::invoke_entry`]: the entry
    /// module's entry function with no arguments. `None` when the module
    /// set has no resolvable entry.
    pub fn entry_job(&self) -> Option<Job> {
        Some(Job::new(self.entry()?, self.entry_func(), vec![]))
    }
}

/// The long-lived compilation engine: configuration plus the
/// content-addressed artifact cache. Shareable across threads (`&self`
/// everywhere); concurrent compiles of the same key race benignly (both
/// produce equal artifacts; one wins the cache slot).
#[derive(Debug, Default)]
pub struct Engine {
    config: EngineConfig,
    cache: Mutex<HashMap<CacheKey, Artifact>>,
    stats: Mutex<CacheStats>,
}

impl Engine {
    /// An engine with the default configuration (differential mode).
    pub fn new() -> Engine {
        Engine::default()
    }

    /// An engine with an explicit configuration.
    pub fn with_config(config: EngineConfig) -> Engine {
        Engine {
            config,
            ..Engine::default()
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Cache hit/miss counters since construction.
    pub fn cache_stats(&self) -> CacheStats {
        *self.stats.lock().expect("engine stats poisoned")
    }

    /// Number of artifacts currently cached.
    pub fn cache_len(&self) -> usize {
        self.cache.lock().expect("engine cache poisoned").len()
    }

    /// Compiles a module set to an [`Artifact`], or returns the cached
    /// artifact when the same (module set, configuration) content hash
    /// was compiled before — skipping every static stage.
    ///
    /// On a miss, per-module frontend + typecheck stages run in parallel
    /// across the set's modules; lowering, validation, and encoding then
    /// run sequentially (lowering is whole-program, §6).
    ///
    /// # Errors
    ///
    /// The first stage failure, as a [`PipelineError`] naming the stage
    /// and offending module. Failures are not cached: a later compile of
    /// the same set retries.
    pub fn compile(&self, set: &ModuleSet) -> Result<Artifact, PipelineError> {
        let key = cache_key(&self.config, set);
        if let Some(hit) = self
            .cache
            .lock()
            .expect("engine cache poisoned")
            .get(&key)
            .cloned()
        {
            self.stats.lock().expect("engine stats poisoned").hits += 1;
            return Ok(hit);
        }
        // Second chance: the persistent cache (when configured and the
        // compile is persistable — Exec::Wasm, no host functions).
        if let Some(artifact) = self.try_disk_load(key, set) {
            self.cache
                .lock()
                .expect("engine cache poisoned")
                .insert(key, artifact.clone());
            self.stats.lock().expect("engine stats poisoned").disk_hits += 1;
            return Ok(artifact);
        }
        // Compile outside the lock: a slow build must not serialise
        // unrelated compiles.
        let artifact = self.compile_cold(set, key)?;
        self.store_disk(key, &artifact);
        self.cache
            .lock()
            .expect("engine cache poisoned")
            .insert(key, artifact.clone());
        self.stats.lock().expect("engine stats poisoned").misses += 1;
        Ok(artifact)
    }

    /// Compiles a standalone `.wasm` binary — precompiled by an earlier
    /// engine ([`Artifact::wasm_binaries`]) or externally produced —
    /// through the ordinary decode → validate path, as a single-module
    /// set named `"main"` (so [`Instance::invoke_entry`] calls its
    /// exported `main`). The bytes are never trusted; see
    /// [`ModuleSet::wasm_module`].
    ///
    /// # Errors
    ///
    /// Decode/validation failures; `Unsupported` unless the engine runs
    /// [`Exec::Wasm`] (binary modules carry no RichWasm types, so the
    /// differential and interpreter modes reject them cleanly).
    pub fn load_wasm(&self, bytes: impl Into<Vec<u8>>) -> Result<Artifact, PipelineError> {
        self.compile(&ModuleSet::new().wasm_module("main", bytes))
    }

    fn disk_path(dir: &Path, key: CacheKey) -> PathBuf {
        dir.join(format!("{key}.rwart"))
    }

    /// Attempts to serve `key` from the persistent cache. Absent files
    /// are ordinary cold compiles; present-but-unusable files (corrupt,
    /// stale fingerprint, failed re-validation, mismatched key) count as
    /// [`CacheStats::disk_misses`] and fall back to a cold compile that
    /// rewrites the entry.
    fn try_disk_load(&self, key: CacheKey, set: &ModuleSet) -> Option<Artifact> {
        let dir = self.config.cache_dir.as_ref()?;
        // Host closures make keys process-local (closure identity is
        // content), so sets with hosts never consult the disk.
        if self.config.exec != Exec::Wasm || !set.hosts.is_empty() {
            return None;
        }
        let bytes = fs::read(Self::disk_path(dir, key)).ok()?;
        match Artifact::deserialize(&bytes) {
            Ok(a) if a.key() == key && a.config().fingerprint() == self.config.fingerprint() => {
                Some(a)
            }
            _ => {
                self.stats
                    .lock()
                    .expect("engine stats poisoned")
                    .disk_misses += 1;
                None
            }
        }
    }

    /// Best-effort persistent-cache write (atomic: temp file + rename).
    /// I/O failures degrade to cold compiles on the next engine; they
    /// never fail the compile that produced the artifact.
    fn store_disk(&self, key: CacheKey, artifact: &Artifact) {
        let Some(dir) = &self.config.cache_dir else {
            return;
        };
        let Some(bytes) = artifact.serialize() else {
            return;
        };
        if fs::create_dir_all(dir).is_err() {
            return;
        }
        // The temp name must be unique per *call*, not just per process:
        // compiles run outside the cache lock, so two threads missing on
        // the same key can both land here concurrently, and interleaved
        // writes to one temp path would rename a corrupt file into place.
        static TMP_SEQ: AtomicUsize = AtomicUsize::new(0);
        let tmp = dir.join(format!(
            "{key}.tmp{}.{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        if fs::write(&tmp, &bytes).is_err() || fs::rename(&tmp, Self::disk_path(dir, key)).is_err()
        {
            let _ = fs::remove_file(&tmp);
        }
    }

    /// [`Engine::compile`] + [`Artifact::instantiate`] in one call.
    ///
    /// # Errors
    ///
    /// As the two underlying calls.
    pub fn instantiate(&self, set: &ModuleSet) -> Result<Instance, PipelineError> {
        self.compile(set)?.instantiate()
    }

    /// The full static pipeline, no cache involved.
    fn compile_cold(&self, set: &ModuleSet, key: CacheKey) -> Result<Artifact, PipelineError> {
        let config = &self.config;

        // Precompiled binaries carry no RichWasm types: the interpreter
        // backend cannot run them, so the differential cross-check (and
        // Interp mode) must reject them up front rather than trap later.
        if config.exec != Exec::Wasm
            && set
                .sources
                .iter()
                .any(|(_, s)| matches!(s, Source::Wasm(_)))
        {
            return Err(PipelineError::new(
                Stage::Decode,
                None,
                PipelineErrorKind::Unsupported(
                    "precompiled .wasm modules execute on the Wasm backend only: compile \
                     them with EngineConfig::new().exec(Exec::Wasm)"
                        .into(),
                ),
            ));
        }

        // Host modules share the guest namespace: a clash would make an
        // import silently resolve against the wrong provider. Likewise a
        // duplicate function name within one host module — the two
        // backends resolve duplicates differently (first match vs last
        // insert), which would split the record/replay pairing.
        for hm in &set.hosts {
            for (i, f) in hm.funcs.iter().enumerate() {
                if hm.funcs[..i].iter().any(|g| g.name == f.name) {
                    return Err(PipelineError::new(
                        Stage::Instantiate,
                        Some(&hm.name),
                        PipelineErrorKind::Unsupported(format!(
                            "host module `{}` registers function `{}` twice",
                            hm.name, f.name
                        )),
                    ));
                }
            }
            if set.sources.iter().any(|(n, _)| *n == hm.name) {
                return Err(PipelineError::new(
                    Stage::Instantiate,
                    Some(&hm.name),
                    PipelineErrorKind::Unsupported(format!(
                        "host module `{}` clashes with a guest module of the same name",
                        hm.name
                    )),
                ));
            }
            if hm.name == RUNTIME_NAME && config.exec.wants_wasm() {
                return Err(PipelineError::new(
                    Stage::Instantiate,
                    Some(&hm.name),
                    PipelineErrorKind::Unsupported(format!(
                        "host module name `{RUNTIME_NAME}` is reserved for the generated \
                         runtime module"
                    )),
                ));
            }
        }

        let entry = set.resolved_entry();
        let entry_func = set.entry_func.clone().unwrap_or_else(|| "main".into());
        let mut timings = Timings::default();

        // Stages 1–2: frontends + the substructural check for source
        // modules, strict binary decoding for precompiled ones. Modules
        // are processed *independently* (imports are matched structurally
        // at link time, not against the provider's env), so the per-module
        // work fans out across scoped threads. Results come back in source
        // order; the first error in source order wins.
        //
        // A Wasm-bound compile checks only the declarations here: lowering
        // checks each function body once, just before lowering it, and
        // lowers from that check's trace (DESIGN §4).
        let bodies_in_lowering = config.exec.wants_wasm();
        enum Checked {
            Rich(syntax::Module, ModuleEnv, Duration, Duration),
            Wasm(Box<w::Module>, Duration),
        }
        let check_one = |name: &str, src: &Source| -> Result<Checked, PipelineError> {
            let t0 = Instant::now();
            let m = match src {
                Source::Ml(m) => compile_ml(m).map_err(|e| {
                    PipelineError::new(Stage::Frontend, Some(name), PipelineErrorKind::Ml(e))
                })?,
                Source::L3(m) => compile_l3(m).map_err(|e| {
                    PipelineError::new(Stage::Frontend, Some(name), PipelineErrorKind::L3(e))
                })?,
                Source::RichWasm(m) => (**m).clone(),
                Source::Wasm(bytes) => {
                    let wm = decode_module(&bytes.0).map_err(|e| {
                        PipelineError::new(Stage::Decode, Some(name), PipelineErrorKind::Decode(e))
                    })?;
                    return Ok(Checked::Wasm(Box::new(wm), t0.elapsed()));
                }
            };
            let frontend = t0.elapsed();
            let t1 = Instant::now();
            let env = if bodies_in_lowering {
                check_module_decls(&m)
            } else {
                check_module(&m)
            }
            .map_err(|e| type_error(name, e))?;
            Ok(Checked::Rich(m, env, frontend, t1.elapsed()))
        };
        let results: Vec<Result<Checked, PipelineError>> = if set.sources.len() <= 1 {
            // Nothing to fan out; skip the thread-spawn overhead.
            set.sources.iter().map(|(n, s)| check_one(n, s)).collect()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = set
                    .sources
                    .iter()
                    .map(|(n, s)| scope.spawn(|| check_one(n, s)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("frontend worker panicked"))
                    .collect()
            })
        };
        // When bodies are left to lowering, an error must still be the one
        // a full check of every module in source order would report: a
        // body error in an earlier module beats a later module's frontend,
        // declaration or lowering error. This path is cold, so it simply
        // re-runs the full check on the modules before the failure.
        let first_body_error = |modules: &[(String, syntax::Module)]| {
            if !bodies_in_lowering {
                return None;
            }
            modules
                .iter()
                .find_map(|(name, m)| check_module(m).err().map(|e| type_error(name, e)))
        };
        let mut modules = Vec::with_capacity(set.sources.len());
        let mut decoded = Vec::new();
        let mut envs = Vec::new();
        let mut frontend_total = Duration::ZERO;
        let mut decode_total = Duration::ZERO;
        let mut typecheck_total = Duration::ZERO;
        for ((name, _), result) in set.sources.iter().zip(results) {
            match result {
                Err(e) => return Err(first_body_error(&modules).unwrap_or(e)),
                Ok(Checked::Rich(m, env, frontend, typecheck)) => {
                    modules.push((name.clone(), m));
                    envs.push(env);
                    frontend_total += frontend;
                    typecheck_total += typecheck;
                }
                Ok(Checked::Wasm(wm, decode)) => {
                    decoded.push((name.clone(), *wm));
                    decode_total += decode;
                }
            }
        }

        // Stage 3: lower whole-program. The body checks inside lowering
        // are timed apart and filed under `Typecheck`.
        let mut link_plan = LinkPlan::default();
        let mut lowered_rich = Vec::new();
        let mut lower_time = None;
        if config.exec.wants_wasm() && !modules.is_empty() {
            let t0 = Instant::now();
            link_plan = LinkPlan::compute(&modules);
            let (out, body_checks) =
                lower_modules_timed(&modules, &envs, &link_plan).map_err(|e| match e {
                    LowerError::TypeCheck { module, error } => {
                        type_error(&modules[module].0, error)
                    }
                    e => first_body_error(&modules).unwrap_or_else(|| {
                        PipelineError::new(Stage::Lower, None, PipelineErrorKind::Lower(e))
                    }),
                })?;
            lowered_rich = out;
            lower_time = Some(t0.elapsed().saturating_sub(body_checks));
            typecheck_total += body_checks;
        }
        if !modules.is_empty() || decoded.is_empty() {
            timings.add(Stage::Frontend, frontend_total);
            timings.add(Stage::Typecheck, typecheck_total);
        }
        if !decoded.is_empty() {
            timings.add(Stage::Decode, decode_total);
        }
        if let Some(lower_time) = lower_time {
            timings.add(Stage::Lower, lower_time);
        }

        // Stages 4–5: validate, encode. A set with no source-language
        // modules generates no runtime module (decoded binaries are
        // self-contained — the one from a previous compile is already
        // among them when it is needed); otherwise the generated runtime
        // instantiates first, then every module in declaration order
        // (lowered or decoded), so imports resolve by name exactly as
        // between lowered guests.
        let mut lowered = Vec::new();
        let mut binaries = Vec::new();
        if config.exec.wants_wasm() {
            let mut rich_iter = lowered_rich.into_iter();
            if let Some(runtime) = rich_iter.next() {
                debug_assert_eq!(runtime.0, RUNTIME_NAME);
                lowered.push(runtime);
            }
            let mut decoded_iter = decoded.into_iter();
            for (_, src) in &set.sources {
                let next = match src {
                    Source::Wasm(_) => decoded_iter.next(),
                    _ => rich_iter.next(),
                };
                lowered.push(next.expect("one lowered/decoded module per source"));
            }

            let t0 = Instant::now();
            for (name, wm) in &lowered {
                validate_module(wm).map_err(|e| {
                    PipelineError::new(
                        Stage::Validate,
                        Some(name),
                        PipelineErrorKind::Validation(e),
                    )
                })?;
            }
            timings.add(Stage::Validate, t0.elapsed());

            let t0 = Instant::now();
            for (name, wm) in &lowered {
                binaries.push((name.clone(), encode_module(wm)));
            }
            timings.add(Stage::Encode, t0.elapsed());
        }

        // Bytecode tier: flatten every validated function body to linear
        // ops.
        let t0 = Instant::now();
        let compiled = compile_bytecode(config, &lowered);
        if !compiled.is_empty() {
            timings.add(Stage::Bytecode, t0.elapsed());
        }

        // Stage 6: CFG/dataflow static analysis of every lowered (or
        // decoded) module — independent re-verification, fuel bounds,
        // call-graph discipline, dead-code lint. The reports are part of
        // the artifact: the serving layer reads the fuel bounds to
        // reject infeasible budgets without an instance checkout.
        let mut analysis = Vec::new();
        if config.analysis != Analysis::Off && !lowered.is_empty() {
            let t0 = Instant::now();
            for (name, wm) in &lowered {
                let report = analyze_module(wm);
                enforce_analysis(config.analysis, name, &report)?;
                analysis.push((name.clone(), report));
            }
            timings.add(Stage::Analyze, t0.elapsed());
        }

        Ok(Artifact {
            inner: Arc::new(ArtifactInner {
                key,
                config: config.clone(),
                entry,
                entry_func,
                hosts: set.hosts.clone(),
                modules: modules
                    .into_iter()
                    .map(|(name, m)| (name, Arc::new(m)))
                    .collect(),
                envs,
                link_plan,
                lowered,
                binaries,
                analysis,
                compiled,
                timings,
            }),
        })
    }
}

/// The flat-bytecode compilation of every **validated** module in
/// `lowered`, index for index; empty under [`WasmTier::Tree`] (and for
/// an [`Exec::Interp`] artifact, which lowers nothing). A cold compile
/// and [`Artifact::deserialize`] both build bytecode here and nowhere
/// else, so an artifact only ever runs code compiled from modules it has
/// just validated.
fn compile_bytecode(config: &EngineConfig, lowered: &[(String, w::Module)]) -> Vec<CompiledModule> {
    if config.wasm_tier != WasmTier::Bytecode {
        return Vec::new();
    }
    lowered
        .iter()
        .map(|(_, wm)| compile_wasm_bytecode(wm))
        .collect()
}

/// A RichWasm type error in module `name`, as the `Typecheck` stage
/// reports it.
fn type_error(name: &str, e: TypeError) -> PipelineError {
    PipelineError::new(Stage::Typecheck, Some(name), PipelineErrorKind::Type(e))
}

/// Applies the [`Analysis`] policy to one module's report: under
/// [`Analysis::Deny`], any `Deny`-severity finding fails the compile
/// with [`PipelineErrorKind::Analysis`]; under [`Analysis::Warn`] the
/// findings stay report data on the artifact.
fn enforce_analysis(
    level: Analysis,
    name: &str,
    report: &AnalysisReport,
) -> Result<(), PipelineError> {
    if level == Analysis::Deny && report.has_deny() {
        return Err(PipelineError::new(
            Stage::Analyze,
            Some(name),
            PipelineErrorKind::Analysis(AnalyzeError {
                diagnostics: report.deny_diagnostics(),
            }),
        ));
    }
    Ok(())
}

/// Lowers RichWasm values the way the compiler lowers parameter and
/// result types: `unit` erases, numerics map to their Wasm type. `None`
/// when a value has no scalar lowering (references, tuples, …).
fn lower_values(values: &[Value]) -> Option<Vec<Val>> {
    values
        .iter()
        .filter(|v| !matches!(v, Value::Unit))
        .map(|v| match v {
            Value::Num(NumType::I32 | NumType::U32, bits) => Some(Val::I32(*bits as u32)),
            Value::Num(NumType::I64 | NumType::U64, bits) => Some(Val::I64(*bits)),
            Value::Num(NumType::F32, bits) => Some(Val::F32(f32::from_bits(*bits as u32))),
            Value::Num(NumType::F64, bits) => Some(Val::F64(f64::from_bits(*bits))),
            _ => None,
        })
        .collect()
}

/// Bit-exact comparison (floats compare by bit pattern, so NaN == NaN).
fn vals_equal(a: &[Val], b: &[Val]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (Val::F32(x), Val::F32(y)) => x.to_bits() == y.to_bits(),
            (Val::F64(x), Val::F64(y)) => x.to_bits() == y.to_bits(),
            _ => x == y,
        })
}

/// Checks string-keyed arguments against an export's checked RichWasm
/// type: the count, then each numeric argument's width by the rule typed
/// handles apply ([`HostValType::compatible`](crate::HostValType::compatible):
/// same width, signedness free; a float matches only a float). Each
/// numeric argument is retyped to its declared type, so the interpreter
/// starts from a well-typed configuration. Arguments of other parameter
/// types (references, type variables, …) are left to the backends.
fn check_args(ty: &FunType, args: &mut [Value]) -> Result<(), String> {
    let params = &ty.arrow.params;
    if args.len() != params.len() {
        return Err(format!(
            "{} given, the checked type {ty} takes {}",
            args.len(),
            params.len()
        ));
    }
    for (i, (arg, p)) in args.iter_mut().zip(params).enumerate() {
        let ok = match (&*p.pre, &mut *arg) {
            (Pretype::Unit, Value::Unit) => true,
            (Pretype::Num(want), Value::Num(got, _))
                if want.bits() == got.bits() && want.is_int() == got.is_int() =>
            {
                *got = *want;
                true
            }
            (Pretype::Unit | Pretype::Num(_), _) => false,
            _ => true,
        };
        if !ok {
            return Err(format!(
                "argument {i} `{arg}` does not match parameter type `{p}`"
            ));
        }
    }
    Ok(())
}

/// The differential *failure* policy — when at least one backend failed:
///
/// * fuel exhaustion on **either** backend — an agreed preemption, not a
///   mismatch. The two backends meter fuel in different native units
///   (RichWasm reduction steps vs executed Wasm instructions), so under
///   a finite budget one side can run dry while the other completes;
///   fuel is embedder resource policy, not program semantics, and must
///   never read as a semantic disagreement. The fuel error is propagated
///   (RichWasm side preferred when both ran dry) and classified by
///   [`PipelineError::is_fuel_exhausted`];
/// * both failed with a genuine interpreter trap on the RichWasm side —
///   an agreed dynamic fault, propagated as-is;
/// * both failed otherwise (stuck, …) — still a disagreement worth
///   surfacing with both sides attached;
/// * one-sided failure — the disagreement differential mode exists for.
fn reconcile_failures(
    module: &str,
    interp: Result<InvokeResult, PipelineError>,
    wasm: Result<Vec<Val>, PipelineError>,
) -> PipelineError {
    debug_assert!(interp.is_err() || wasm.is_err());
    match (interp, wasm) {
        (Err(ie), _) if ie.is_fuel_exhausted() => ie,
        (_, Err(we)) if we.is_fuel_exhausted() => we,
        (Err(ie), Err(_))
            if matches!(
                ie.kind,
                PipelineErrorKind::Runtime(RuntimeError::Trap { .. })
            ) =>
        {
            ie
        }
        (interp, wasm) => PipelineError::new(
            Stage::Differential,
            Some(module),
            PipelineErrorKind::Mismatch {
                richwasm: interp.map_or_else(
                    |e| format!("error: {}", e.kind),
                    |r| format!("{:?}", r.values),
                ),
                wasm: wasm.map_or_else(|e| format!("error: {}", e.kind), |v| format!("{v:?}")),
            },
        ),
    }
}

// The embedder's concurrency contract, enforced at compile time (the
// other half — `Runtime`/`WasmLinker` — is asserted in their own crates):
//
// * `Engine`, `Artifact`, `ModuleSet`, and `InstancePool` are shared by
//   reference across worker threads (`Sync`), and cross thread
//   boundaries when a service spawns its workers (`Send`);
// * `Instance` (and its pool guard) is `Send` — checked out to one
//   thread at a time, moved, never shared: differential stores and the
//   host record/replay queues stay thread-confined by construction.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_send_sync::<Engine>();
    assert_send_sync::<Artifact>();
    assert_send_sync::<ModuleSet>();
    assert_send_sync::<InstancePool>();
    assert_send_sync::<Job>();
    assert_send_sync::<Invocation>();
    assert_send::<Instance>();
    assert_send::<PooledInstance<'_>>();
    assert_send::<PipelineError>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::call::HostValType;

    #[test]
    fn cache_key_is_stable_and_content_sensitive() {
        let cfg = EngineConfig::new();
        let set = ModuleSet::new().richwasm("m", syntax::Module::default());
        let k1 = cache_key(&cfg, &set);
        let k2 = cache_key(&cfg, &set);
        assert_eq!(k1, k2, "same content, same key");

        let renamed = ModuleSet::new().richwasm("other", syntax::Module::default());
        assert_ne!(k1, cache_key(&cfg, &renamed), "module name is content");

        let recfg = cfg.exec(Exec::Interp);
        assert_ne!(k1, cache_key(&recfg, &set), "config is part of the key");
    }

    #[test]
    fn cache_key_cannot_be_forged_through_module_names() {
        // A module name crafted to contain the key's separator syntax
        // must not collapse a two-module set onto a one-module set.
        let cfg = EngineConfig::new();
        let two = ModuleSet::new()
            .richwasm("a", syntax::Module::default())
            .richwasm("b", syntax::Module::default());
        let forged_name = format!("a\"={:?}|mod:\"b", Source::RichWasm(Box::default()));
        let one = ModuleSet::new().richwasm(forged_name, syntax::Module::default());
        assert_ne!(cache_key(&cfg, &two), cache_key(&cfg, &one));
    }

    /// A guest whose `main` imports and calls `host.tick(5)`, adding 1.
    fn host_client_set() -> ModuleSet {
        let m = syntax::Module {
            funcs: vec![
                syntax::Func::Imported {
                    exports: vec![],
                    module: "host".into(),
                    name: "tick".into(),
                    ty: syntax::FunType::mono(
                        vec![syntax::Type::num(NumType::I32)],
                        vec![syntax::Type::num(NumType::I32)],
                    ),
                },
                syntax::Func::Defined {
                    exports: vec!["main".into()],
                    ty: syntax::FunType::mono(vec![], vec![syntax::Type::num(NumType::I32)]),
                    locals: vec![],
                    body: vec![
                        syntax::Instr::i32(5),
                        syntax::Instr::Call(0, vec![]),
                        syntax::Instr::i32(1),
                        syntax::Instr::Num(syntax::NumInstr::IntBinop(
                            NumType::I32,
                            syntax::instr::IntBinop::Add,
                        )),
                    ],
                },
            ],
            ..syntax::Module::default()
        };
        ModuleSet::new().richwasm("m", m).host_fn(
            "host",
            "tick",
            crate::call::HostSig::new([HostValType::I32], [HostValType::I32]),
            |args| {
                let HostVal::I32(x) = args[0] else {
                    return Err("expected i32".into());
                };
                Ok(vec![HostVal::I32(x * 2)])
            },
        )
    }

    // Regression (PR 4): `Instance::reset` must drain the differential
    // record/replay queues. A leftover recording (here injected directly;
    // in the wild, host outcomes recorded by an invocation that failed
    // between the two backends) would otherwise be replayed by the Wasm
    // backend of the *next* checkout, desynchronising the cross-check
    // with a stale host outcome.
    #[test]
    fn reset_drains_host_replay_queues() {
        let engine = Engine::new();
        let mut inst = engine.instantiate(&host_client_set()).unwrap();
        assert_eq!(inst.replay.len(), 1, "one replay channel per host fn");

        inst.replay[0]
            .lock()
            .unwrap()
            .push_back(Ok(vec![HostVal::I32(999)]));
        inst.reset().unwrap();
        assert!(
            inst.replay.iter().all(|l| l.lock().unwrap().is_empty()),
            "reset left a recorded host outcome behind"
        );
        // And the next invocation computes fresh: tick(5)*... = 10 + 1,
        // not the injected 999 + 1.
        assert_eq!(inst.invoke_entry().unwrap().i32(), Some(11));
    }

    #[test]
    fn pool_checkin_recycles_through_reset() {
        let engine = Engine::new();
        let artifact = engine.compile(&host_client_set()).unwrap();
        let pool = artifact.pool(2).unwrap();
        assert_eq!(pool.capacity(), 2);
        assert_eq!(pool.idle(), 2);

        {
            let mut a = pool.checkout();
            let mut b = pool.checkout();
            assert_eq!(pool.idle(), 0, "pool exhausted");
            assert_eq!(a.invoke_entry().unwrap().i32(), Some(11));
            assert_eq!(b.invoke_entry().unwrap().i32(), Some(11));
            assert_eq!(a.invocations(), 1);
        }
        assert_eq!(pool.idle(), 2, "drop returned both instances");
        let stats = pool.stats();
        assert_eq!(stats.checkouts, 2);
        assert_eq!(stats.recycled, 2);
        assert_eq!(stats.lost, 0);

        // A recycled instance is indistinguishable from a fresh one.
        let c = pool.checkout();
        assert_eq!(c.invocations(), 0, "checkin re-reset the instance");
        assert!(c.timings().no_static_stages());
    }

    #[test]
    fn empty_pool_is_rejected() {
        let engine = Engine::new();
        let artifact = engine
            .compile(&ModuleSet::new().richwasm("m", syntax::Module::default()))
            .unwrap();
        let err = artifact.pool(0).unwrap_err();
        assert!(matches!(err.kind, PipelineErrorKind::Unsupported(_)));
    }

    #[test]
    fn empty_batch_returns_without_touching_the_pool() {
        let engine = Engine::new();
        let pool = engine.compile(&host_client_set()).unwrap().pool(1).unwrap();
        // Exhaust the pool, then submit an empty batch: it must return
        // immediately instead of blocking on a checkout it will not use.
        let _held = pool.checkout();
        assert!(pool.invoke_batch(4, &[]).is_empty());
        assert_eq!(pool.stats().checkouts, 1, "empty batch checked nothing out");
    }

    #[test]
    fn enforce_analysis_fails_only_deny_level_with_deny_findings() {
        // A Deny finding only arises from a checker disagreement, which
        // no valid module can trigger through the public API — so the
        // policy gate is tested with a fabricated report.
        let deny_report = AnalysisReport {
            diagnostics: vec![Diagnostic {
                func: 0,
                offset: 0,
                pass: Pass::Verify,
                severity: Severity::Deny,
                message: "fabricated disagreement".into(),
            }],
            cost: CostReport::default(),
        };
        assert!(enforce_analysis(Analysis::Off, "m", &deny_report).is_ok());
        assert!(enforce_analysis(Analysis::Warn, "m", &deny_report).is_ok());
        let err = enforce_analysis(Analysis::Deny, "m", &deny_report).unwrap_err();
        assert_eq!(err.stage, Stage::Analyze);
        assert_eq!(err.module.as_deref(), Some("m"));
        assert!(matches!(err.kind, PipelineErrorKind::Analysis(_)));

        let warn_report = AnalysisReport {
            diagnostics: vec![Diagnostic {
                func: 0,
                offset: 0,
                pass: Pass::DeadCode,
                severity: Severity::Warn,
                message: "dead code".into(),
            }],
            cost: CostReport::default(),
        };
        assert!(enforce_analysis(Analysis::Deny, "m", &warn_report).is_ok());
    }

    #[test]
    fn compiled_artifact_carries_analysis_reports() {
        let engine = Engine::new();
        let artifact = engine.compile(&host_client_set()).unwrap();
        // Differential mode lowers to Wasm, so analysis ran: one report
        // per lowered module (runtime + guests), none with Deny findings.
        assert_eq!(
            artifact.analysis().len(),
            artifact.lowered_modules().len(),
            "one report per lowered module"
        );
        assert!(artifact.analysis().iter().all(|(_, r)| !r.has_deny()));

        // Off produces an artifact with no reports — and a different
        // cache key, so the two configurations never alias.
        let off = Engine::with_config(EngineConfig::new().analysis(Analysis::Off));
        let bare = off.compile(&host_client_set()).unwrap();
        assert!(bare.analysis().is_empty());
        assert_ne!(artifact.key(), bare.key());
    }

    #[test]
    fn loaded_artifacts_rebuild_bytecode_from_their_validated_modules() {
        let m = syntax::Module {
            funcs: vec![syntax::Func::Defined {
                exports: vec!["main".into()],
                ty: syntax::FunType::mono(vec![], vec![syntax::Type::num(NumType::I32)]),
                locals: vec![],
                body: vec![
                    syntax::Instr::i32(41),
                    syntax::Instr::i32(1),
                    syntax::Instr::Num(syntax::NumInstr::IntBinop(
                        NumType::I32,
                        syntax::instr::IntBinop::Add,
                    )),
                ],
            }],
            ..syntax::Module::default()
        };
        let set = ModuleSet::new().richwasm("m", m);
        for tier in [WasmTier::Bytecode, WasmTier::Tree] {
            let engine = Engine::with_config(EngineConfig::new().exec(Exec::Wasm).wasm_tier(tier));
            let artifact = engine.compile(&set).unwrap();
            let loaded = Artifact::deserialize(&artifact.serialize().unwrap()).unwrap();
            let rebuilt: Vec<CompiledModule> = loaded
                .inner
                .lowered
                .iter()
                .map(|(_, wm)| compile_wasm_bytecode(wm))
                .collect();
            if tier == WasmTier::Bytecode {
                assert_eq!(loaded.inner.compiled, rebuilt, "runtime + guest");
                assert_eq!(rebuilt.len(), 2);
            } else {
                assert!(
                    loaded.inner.compiled.is_empty(),
                    "tree tier has no bytecode"
                );
            }
            assert_eq!(loaded.inner.compiled, artifact.inner.compiled);
            let mut inst = loaded.instantiate().unwrap();
            assert_eq!(inst.invoke_entry().unwrap().i32(), Some(42));
        }
    }

    #[test]
    fn invoke_batch_matches_sequential_and_preserves_job_order() {
        let engine = Engine::new();
        let artifact = engine.compile(&host_client_set()).unwrap();
        let jobs: Vec<Job> = (0..16)
            .map(|_| artifact.entry_job().expect("set has an entry"))
            .collect();

        let pool = artifact.pool(3).unwrap();
        let parallel = pool.invoke_batch(3, &jobs);
        let sequential = pool.invoke_batch(1, &jobs);
        assert_eq!(parallel.len(), jobs.len());
        for (p, s) in parallel.iter().zip(&sequential) {
            let (p, s) = (p.as_ref().unwrap(), s.as_ref().unwrap());
            assert_eq!(p.results(), s.results());
            assert_eq!(p.i32(), Some(11));
        }
    }
}

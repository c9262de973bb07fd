//! # richwasm-fuzz
//!
//! The typed-program generator and differential fuzz farm — CI's
//! soundness gate for the whole pipeline.
//!
//! Three moving parts:
//!
//! 1. **Generation** ([`gen`]): well-typed programs by construction.
//!    The raw tier synthesises RichWasm terms type-directed from the
//!    checker's rules, biased towards unexercised rules
//!    ([`richwasm::typecheck::Rule`]); the ML/L3/interop tiers drive the
//!    frontends and the linking boundary.
//! 2. **Adversarial mutation** ([`mutate()`]): targeted ill-typed edits
//!    (use-after-free shapes, linearity violations, type confusions)
//!    applied to well-typed modules. Every mutant must be *rejected* by
//!    the checker — an accepted mutant is a soundness hole.
//! 3. **The harness** ([`harness`]): each case runs the full engine
//!    path — typecheck, lower, validate, encode/decode round-trip, and
//!    differential execution (RichWasm interpreter vs lowered Wasm on
//!    the bytecode VM, and the VM vs the Wasm tree-walker) with the
//!    static re-verifier in `Analysis::Deny`. Failures are minimised
//!    ([`minimize`]) and written as reproducers.
//!
//! The `fuzz` binary (see `main.rs`) sweeps tens of thousands of cases
//! per run and emits corpus statistics ([`stats`]) for the CI gate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gen;
pub mod harness;
pub mod minimize;
pub mod mutate;
pub mod program;
pub mod rng;
pub mod stats;

pub use gen::{gen_program, pick_tier, Tier};
pub use harness::{run_case, CaseOutcome, FailureKind};
pub use minimize::minimize_module;
pub use mutate::{mutate, MutationKind};
pub use program::{FuzzProgram, HostBehavior, HostImportSpec, SourceModule};
pub use rng::Rng;
pub use stats::CorpusStats;

//! # RichWasm
//!
//! A from-scratch Rust implementation of **RichWasm** (PLDI 2024): a richly
//! typed intermediate language based on WebAssembly that enables safe,
//! fine-grained, shared-memory interoperability between languages with
//! garbage collection and languages with manual memory management.
//!
//! The crate provides:
//!
//! * the full abstract syntax ([`syntax`], paper Fig. 2),
//! * substitution for the four kinds of binders ([`subst`]),
//! * the qualifier and size entailment solvers ([`solver`]),
//! * type well-formedness and sizing ([`wf`], [`sizing`]),
//! * the substructural type checker ([`typecheck`], paper Figs. 5–8),
//! * the small-step interpreter with a tracing GC ([`interp`], Fig. 4),
//! * a typed module linker ([`link`]) — the FFI-safety choke point.
//!
//! ## Quickstart
//!
//! ```
//! use richwasm::syntax::*;
//! use richwasm::typecheck::check_module;
//!
//! // A module with one exported function returning the i32 constant 42.
//! let m = Module {
//!     funcs: vec![Func::Defined {
//!         exports: vec!["answer".into()],
//!         ty: FunType::mono(vec![], vec![Type::num(NumType::I32)]),
//!         locals: vec![],
//!         body: vec![Instr::i32(42)],
//!     }],
//!     ..Module::default()
//! };
//! check_module(&m).expect("well-typed");
//! ```

#![warn(missing_docs)]

pub mod env;
pub mod error;
pub mod interp;
pub mod link;
pub mod sizing;
pub mod solver;
pub mod subst;
pub mod syntax;
pub mod typecheck;
pub mod wf;

pub use error::{RuntimeError, TypeError};

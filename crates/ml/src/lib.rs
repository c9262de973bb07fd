//! # richwasm-ml
//!
//! A compiler from **core ML** to RichWasm (paper §5).
//!
//! The source language has units, ints, references, variants (sums),
//! products, recursive types, and top-level functions with parametric
//! polymorphism, plus the multi-module constructs the paper adds
//! (imports, exports, module-level state). Compilation proceeds by typed
//! closure conversion (closures become existential packages hiding their
//! environment type), an annotation phase (size and qualifier bounds on
//! all RichWasm type variables — every ML value representation fits 64
//! bits because aggregates are boxed), and code generation.
//!
//! ## Linking types (paper §2.2, §5)
//!
//! Following the linking-types discipline, ML is extended — *without
//! changing its own type system* — with:
//!
//! * [`MlTy::Foreign`]: a type expressible only in RichWasm (e.g. L3's
//!   linear reference `(Ref Int)lin`), passed through opaquely;
//! * `ref_to_lin` ([`MlExpr::NewRefToLin`]): a reference cell that can
//!   hold a linear foreign value. Reads and writes are compiled to
//!   *swaps* against an option variant, so reading or overwriting twice
//!   **fails at runtime** rather than duplicating/dropping a linear value
//!   — exactly the paper's semantics.
//!
//! Crucially, the ML compiler "explicitly does not check whether types
//! annotated as linear are used linearly, as we can rely on RichWasm to
//! demonstrate safety" (§5): a program like Fig. 1's `stash` compiles
//! fine here and is *rejected by the RichWasm type checker*.

#![warn(missing_docs)]

pub mod ast;
pub mod builder;
pub mod compile;
pub mod types;

pub use ast::{MlBinop, MlExpr, MlFun, MlGlobal, MlImport, MlModule, MlTy};
pub use compile::{compile_module, MlError};
pub use types::translate_ty;

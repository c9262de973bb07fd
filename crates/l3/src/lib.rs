//! # richwasm-l3
//!
//! A compiler from **L3** — the linear language with locations of
//! Morrisett, Ahmed & Fluet — to RichWasm (paper §5).
//!
//! L3's key feature is *safe strong updates*: allocating a cell yields an
//! existential package `∃ρ. !Ptr ρ ⊗ Cap ρ τ` — an unrestricted pointer
//! plus a linear capability. The capability is the ownership token; `swap`
//! may replace the contents with a value of a *different type*. Following
//! §5, our L3 capabilities additionally track the **size** of the
//! referenced slot, so strong updates are checked to fit.
//!
//! Compilation to RichWasm is direct (§5: "it is much easier to compile
//! … we can do so in one code generation phase" — and, per the paper, no
//! closure conversion: L3 functions are top-level only). Pointers compile
//! to `ptr`, capabilities to `cap`, packages to `∃ρ` tuples; `new`/
//! `free`/`swap` compile to `struct.malloc`/`struct.free`/`struct.swap`
//! bracketed by `ref.split`/`ref.join`.
//!
//! ## Linking types (paper §2.2, §5)
//!
//! L3 gains an ML-like `Ref` type plus `join`/`split` to convert between
//! capability–pointer pairs and references at a language boundary.
//!
//! Unlike the ML compiler, the L3 *compiler* enforces linearity itself —
//! L3 is a typed linear language, so using a capability twice or leaking
//! one is an **L3-level** error here (and would also be caught by the
//! RichWasm checker).

#![warn(missing_docs)]

pub mod ast;
pub mod builder;
pub mod compile;

pub use ast::{L3Expr, L3Fun, L3Import, L3Module, L3Op, L3Ty};
pub use compile::{compile_module, translate_ty, L3Error};

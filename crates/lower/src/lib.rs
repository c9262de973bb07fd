//! # richwasm-lower
//!
//! The type-directed compiler from RichWasm to WebAssembly 1.0 +
//! multi-value (paper §6).
//!
//! * Every RichWasm type flattens to a sequence of Wasm numeric types
//!   ([`layout`]); `unit`/`cap`/`own` erase, `ref`/`ptr` become `i32`,
//!   type variables become padded 32-bit slot sequences sized by their
//!   bound.
//! * RichWasm locals split across multiple Wasm locals; strong updates
//!   reuse the same slots ([`layout`], [`lower`]).
//! * Both RichWasm memories live in one flat Wasm memory managed by a
//!   free-list allocator generated as a *runtime module* ([`runtime`])
//!   that every lowered module imports (`malloc`, `free`, the shared
//!   memory, and the shared function table).
//! * `variant.case` compiles to a dispatch over the tag; `coderef`
//!   compiles to an `i32` index into the shared table; indirect calls
//!   emit one case per possible callee shape (paper §6), not one per
//!   table entry, so a call site's code does not grow with the table
//!   (DESIGN.md §14).
//! * Type-level instructions (`qualify`, `mem.pack`, `rec.fold`,
//!   `cap.split`, …) are erased.
//!
//! The entry points are [`lower_modules`], which lowers a set of RichWasm
//! modules together (whole-program, so the shared table layout and
//! indirect-call shapes are known) and produces Wasm modules ready for
//! `richwasm_wasm::exec::WasmLinker`, and [`lower_modules_timed`], the
//! same over declarations the caller already checked and a precomputed
//! [`LinkPlan`], which also reports the time spent checking bodies.
//!
//! ## Deviations from the paper (documented in DESIGN.md)
//!
//! * Padded representations use ⌈n/32⌉ × `i32` slots rather than the
//!   paper's `i64`+`i32` mix — equivalent, but it keeps cross-slot
//!   marshalling implementable without bit-packing across slots.
//! * Type variables with *unresolvable* size bounds would require the
//!   paper's boxing fallback; our frontends always emit resolvable bounds
//!   so the lowering reports an error instead of boxing.
//! * The unrestricted region of the lowered heap is allocated from the
//!   same free list and reclaimed only when explicitly freed; the paper
//!   likewise notes RichWasm needs its own GC on stock Wasm.

#![warn(missing_docs)]

pub mod error;
pub mod layout;
pub mod lower;
pub mod runtime;

pub use error::LowerError;
pub use lower::{lower_modules, lower_modules_timed, lower_modules_with_plan, LinkPlan};

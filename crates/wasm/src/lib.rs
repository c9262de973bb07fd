//! # richwasm-wasm
//!
//! A from-scratch **WebAssembly 1.0 + multi-value** substrate: abstract
//! syntax, validator, interpreter, and binary encoder.
//!
//! RichWasm (PLDI 2024, §6) compiles to "WebAssembly 1.0 with the
//! multi-value extension". This crate is the host for that output: the
//! lowered modules are validated by [`validate`], executed by [`exec`],
//! and can be serialised to the standard binary format by [`binary`].
//!
//! ## Quickstart
//!
//! ```
//! use richwasm_wasm::ast::*;
//! use richwasm_wasm::exec::WasmLinker;
//!
//! let m = Module {
//!     types: vec![FuncType { params: vec![], results: vec![ValType::I32] }],
//!     funcs: vec![FuncDef { type_idx: 0, locals: vec![], body: vec![WInstr::I32Const(42)] }],
//!     exports: vec![Export { name: "answer".into(), kind: ExportKind::Func(0) }],
//!     ..Module::default()
//! };
//! let mut linker = WasmLinker::new();
//! let idx = linker.instantiate("m", m).unwrap();
//! let out = linker.invoke(idx, "answer", &[]).unwrap();
//! assert_eq!(out, vec![richwasm_wasm::exec::Val::I32(42)]);
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod binary;
pub mod compile;
pub mod decode;
pub mod exec;
pub mod num;
pub mod validate;
pub mod vm;

pub use ast::{Export, ExportKind, FuncDef, FuncType, Module, ValType, WInstr};
pub use compile::{compile_module, CompiledModule};
pub use decode::{decode_module, DecodeError, DecodeErrorKind};
pub use exec::{Val, WasmLinker};
pub use validate::validate_module;

//! Typed module linking — the FFI-safety surface of RichWasm (paper §1).
//!
//! "Any potentially problematic interaction between modules will fail to
//! type check": this module provides [`Linker`], a convenience wrapper
//! that type checks every module and resolves imports with exact type
//! matching, surfacing violations as [`TypeError::LinkError`].

use crate::error::{RuntimeError, TypeError};
use crate::interp::{InvokeResult, Runtime};
use crate::syntax::{Module, Value};

/// A linker: accumulates modules into a shared runtime, enforcing typed
/// import/export matching.
///
/// ```
/// use richwasm::link::Linker;
/// use richwasm::syntax::*;
///
/// let mut linker = Linker::new();
/// let m = Module {
///     funcs: vec![Func::Defined {
///         exports: vec!["two".into()],
///         ty: FunType::mono(vec![], vec![Type::num(NumType::I32)]),
///         locals: vec![],
///         body: vec![Instr::i32(2)],
///     }],
///     ..Module::default()
/// };
/// let idx = linker.add("m", m).unwrap();
/// let out = linker.invoke(idx, "two", vec![]).unwrap();
/// assert_eq!(out.values, vec![Value::i32(2)]);
/// ```
#[derive(Debug, Default)]
pub struct Linker {
    runtime: Runtime,
}

impl Linker {
    /// Creates an empty linker.
    pub fn new() -> Linker {
        Linker::default()
    }

    /// Type checks and instantiates a module under `name`.
    ///
    /// # Errors
    ///
    /// Propagates type errors from module checking and
    /// [`TypeError::LinkError`] for unresolved or ill-typed imports.
    pub fn add(&mut self, name: &str, module: Module) -> Result<u32, TypeError> {
        self.runtime.instantiate(name, module)
    }

    /// Invokes an export.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors (traps, fuel exhaustion).
    pub fn invoke(
        &mut self,
        inst: u32,
        name: &str,
        args: Vec<Value>,
    ) -> Result<InvokeResult, RuntimeError> {
        self.runtime.invoke(inst, name, args)
    }

    /// Read access to the underlying runtime.
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }
}

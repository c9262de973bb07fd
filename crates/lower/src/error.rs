//! Lowering errors.

use std::fmt;

/// An error raised by the RichWasm → Wasm compiler.
#[derive(Debug, Clone, PartialEq)]
pub enum LowerError {
    /// A module failed RichWasm type checking. Lowering is type-directed:
    /// it checks each function body just before lowering it, and lowers
    /// from the trace that check produces.
    TypeCheck {
        /// Index of the failing module in the set being lowered.
        module: usize,
        /// The checker's diagnostic.
        error: richwasm::TypeError,
    },
    /// A size bound could not be resolved to a constant — the paper's
    /// boxing fallback, which this reproduction does not implement (our
    /// frontends always produce resolvable bounds).
    UnresolvableSize(String),
    /// Internal invariant violation (trace misalignment etc.).
    Internal(String),
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::TypeCheck { module, error } => {
                write!(f, "type error in module {module} during lowering: {error}")
            }
            LowerError::UnresolvableSize(e) => {
                write!(f, "unresolvable size bound (boxing unimplemented): {e}")
            }
            LowerError::Internal(e) => write!(f, "internal lowering error: {e}"),
        }
    }
}

impl std::error::Error for LowerError {}

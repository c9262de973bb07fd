//! # richwasm-analyze
//!
//! CFG + dataflow static analysis over the lowered Wasm AST
//! (`richwasm-wasm`). Four passes run on every module:
//!
//! 1. **Re-verifier** ([`verify`]) — an independent abstract
//!    stack/locals checker over the linearised CFG, cross-checked
//!    against `validate.rs`: any accept/reject disagreement is a bug in
//!    one of the two and surfaces as a `Deny` diagnostic.
//! 2. **Fuel cost** ([`cost`]) — sound per-function lower bounds on
//!    interpreter steps (used by `EngineServer` to reject infeasible
//!    budgets) and upper bounds where loops are boundable.
//! 3. **Call graph** ([`callgraph`]) — `call_indirect` candidate sets,
//!    unreachable functions, and a module-local call-depth bound. The
//!    [`callgraph::CallGraph`] is built once per module and also fixes
//!    the callee-first order the fuel-cost pass solves in.
//! 4. **Dead code** ([`deadcode`]) — unreachable-block lint.
//!
//! The pipeline runs [`analyze_module`] at `Artifact` build time
//! (`Stage::Analyze`); diagnostics carry a [`Severity`] so the engine's
//! `analysis: Off | Warn | Deny` knob can decide what to do with them.

#![warn(missing_docs)]

pub mod callgraph;
pub mod cfg;
pub mod cost;
pub mod dataflow;
pub mod deadcode;
pub mod verify;

use std::fmt;

use richwasm_wasm::ast::Module;
use richwasm_wasm::validate_module;

pub use cfg::{build_cfg, Cfg, CfgError};
pub use cost::{cost_report, Bound, CostReport, FuncCost, NEVER};
pub use verify::{reverify_module, VerifyError};

/// `Diagnostic::func` value for findings not tied to one function.
pub const MODULE_SCOPE: u32 = u32::MAX;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational; never fails a build.
    Warn,
    /// A safety-relevant finding: fails the build under `analysis: Deny`.
    Deny,
}

impl Severity {
    /// Stable wire code (artifact serialisation).
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            Severity::Warn => 0,
            Severity::Deny => 1,
        }
    }

    /// Inverse of [`Severity::code`].
    #[must_use]
    pub fn from_code(c: u8) -> Option<Self> {
        match c {
            0 => Some(Severity::Warn),
            1 => Some(Severity::Deny),
            _ => None,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warn => write!(f, "warn"),
            Severity::Deny => write!(f, "deny"),
        }
    }
}

/// Which pass produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// The abstract stack/locals re-verifier.
    Verify,
    /// The static fuel-cost analysis.
    Cost,
    /// The table/call-graph discipline pass.
    CallGraph,
    /// The dead-code lint.
    DeadCode,
}

impl Pass {
    /// Stable wire code (artifact serialisation).
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            Pass::Verify => 0,
            Pass::Cost => 1,
            Pass::CallGraph => 2,
            Pass::DeadCode => 3,
        }
    }

    /// Inverse of [`Pass::code`].
    #[must_use]
    pub fn from_code(c: u8) -> Option<Self> {
        match c {
            0 => Some(Pass::Verify),
            1 => Some(Pass::Cost),
            2 => Some(Pass::CallGraph),
            3 => Some(Pass::DeadCode),
            _ => None,
        }
    }
}

impl fmt::Display for Pass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pass::Verify => write!(f, "verify"),
            Pass::Cost => write!(f, "cost"),
            Pass::CallGraph => write!(f, "callgraph"),
            Pass::DeadCode => write!(f, "deadcode"),
        }
    }
}

/// One structured finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Global function index, or [`MODULE_SCOPE`].
    pub func: u32,
    /// Pre-order instruction offset within the function body (0 when
    /// not tied to an instruction).
    pub offset: u32,
    /// The producing pass.
    pub pass: Pass,
    /// Severity.
    pub severity: Severity,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}:{}] ", self.pass, self.severity)?;
        if self.func != MODULE_SCOPE {
            write!(f, "func {} @{}: ", self.func, self.offset)?;
        }
        write!(f, "{}", self.message)
    }
}

/// The full analysis result for one module, cached on the `Artifact`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AnalysisReport {
    /// All findings, in pass order.
    pub diagnostics: Vec<Diagnostic>,
    /// The fuel-cost summary.
    pub cost: CostReport,
}

impl AnalysisReport {
    /// The `Deny`-severity findings.
    #[must_use]
    pub fn deny_diagnostics(&self) -> Vec<Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Deny)
            .cloned()
            .collect()
    }

    /// Whether any `Deny`-severity finding fired.
    #[must_use]
    pub fn has_deny(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Deny)
    }
}

/// Analysis rejected a module: the `Deny`-severity findings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzeError {
    /// The findings that caused the rejection.
    pub diagnostics: Vec<Diagnostic>,
}

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "static analysis rejected the module ({} finding(s))",
            self.diagnostics.len()
        )?;
        for d in &self.diagnostics {
            write!(f, "; {d}")?;
        }
        Ok(())
    }
}

impl std::error::Error for AnalyzeError {}

fn deny(pass: Pass, message: String) -> Diagnostic {
    Diagnostic {
        func: MODULE_SCOPE,
        offset: 0,
        pass,
        severity: Severity::Deny,
        message,
    }
}

/// Runs all four passes over a module.
///
/// The re-verifier always runs and is cross-checked against
/// `validate_module`; the remaining passes need a CFG and only run when
/// both checkers accept.
#[must_use]
pub fn analyze_module(m: &Module) -> AnalysisReport {
    let validator = validate_module(m);
    let reverifier = reverify_module(m);
    match (&validator, &reverifier) {
        (Ok(()), Ok(())) => {}
        (Err(v), Err(r)) => {
            return AnalysisReport {
                diagnostics: vec![deny(
                    Pass::Verify,
                    format!("module rejected: {r} (validator agrees: {v})"),
                )],
                cost: CostReport::default(),
            };
        }
        (Ok(()), Err(r)) => {
            return AnalysisReport {
                diagnostics: vec![deny(
                    Pass::Verify,
                    format!(
                        "checker disagreement: re-verifier rejected a validator-accepted \
                         module: {r}"
                    ),
                )],
                cost: CostReport::default(),
            };
        }
        (Err(v), Ok(())) => {
            return AnalysisReport {
                diagnostics: vec![deny(
                    Pass::Verify,
                    format!(
                        "checker disagreement: re-verifier accepted a validator-rejected \
                         module: {v}"
                    ),
                )],
                cost: CostReport::default(),
            };
        }
    }

    let n_imports = m.num_func_imports() as u32;
    let mut cfgs = Vec::with_capacity(m.funcs.len());
    for (fi, f) in m.funcs.iter().enumerate() {
        match build_cfg(m, f) {
            Ok(cfg) => cfgs.push(cfg),
            Err(e) => {
                // Unreachable on a validated module; defensive.
                return AnalysisReport {
                    diagnostics: vec![deny(
                        Pass::Verify,
                        format!("cfg construction failed on validated function {fi}: {e}"),
                    )],
                    cost: CostReport::default(),
                };
            }
        }
    }

    let graph = callgraph::CallGraph::build(m);
    let mut diagnostics = Vec::new();
    let mut cost = cost_report(m, &cfgs, &graph);
    for fc in &cost.funcs {
        if fc.min_steps == NEVER {
            diagnostics.push(Diagnostic {
                func: fc.func,
                offset: 0,
                pass: Pass::Cost,
                severity: Severity::Warn,
                message: "no execution path completes normally (every path traps)".into(),
            });
        }
    }

    let cg = callgraph::callgraph(m, &graph);
    cost.max_call_depth = cg.max_call_depth;
    diagnostics.extend(cg.diagnostics);

    for (i, cfg) in cfgs.iter().enumerate() {
        diagnostics.extend(deadcode::deadcode_diags(n_imports + i as u32, cfg));
    }

    AnalysisReport { diagnostics, cost }
}

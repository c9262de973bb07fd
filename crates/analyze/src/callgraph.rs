//! The module call graph and the table / call-graph discipline pass.
//!
//! [`CallGraph::build`] scans every body once for call sites, resolves
//! each `call_indirect` type to its candidate set (element-segment
//! entries with a structurally equal type) once per type index, and
//! condenses the graph into strongly connected components in
//! callee-first order. The fuel-cost pass solves its per-function
//! minima in that order, and [`callgraph`] derives its findings from
//! the same graph: sites that can only trap, functions unreachable from
//! any root (exports, the start function, table entries), and a
//! module-local bound on call-stack depth for default stack sizing.

use richwasm_wasm::ast::{ExportKind, ImportKind, Module, WInstr};

use crate::{Diagnostic, Pass, Severity, MODULE_SCOPE};

/// Output of the call-graph pass.
#[derive(Debug, Clone, Default)]
pub struct CallGraphInfo {
    /// Module-local bound on call-stack depth: the deepest chain of
    /// frames attributable to this module's functions, with an imported
    /// callee counted as one frame. `None` when recursion or an
    /// imported (shared) table makes it unbounded/unknown.
    pub max_call_depth: Option<u32>,
    /// Findings (always `Warn` severity).
    pub diagnostics: Vec<Diagnostic>,
}

/// One defined function's outgoing calls.
#[derive(Debug, Default)]
pub(crate) struct FuncCalls {
    /// Direct call sites: (offset, callee global index).
    pub(crate) direct: Vec<(u32, u32)>,
    /// `call_indirect` sites: (offset, type index).
    pub(crate) indirect: Vec<(u32, u32)>,
}

fn scan_seq(body: &[WInstr], off: &mut u32, out: &mut FuncCalls) {
    for ins in body {
        let o = *off;
        *off += 1;
        match ins {
            WInstr::Call(f) => out.direct.push((o, *f)),
            WInstr::CallIndirect(ti) => out.indirect.push((o, *ti)),
            WInstr::Block(_, b) | WInstr::Loop(_, b) => scan_seq(b, off, out),
            WInstr::If(_, t, e) => {
                scan_seq(t, off, out);
                scan_seq(e, off, out);
            }
            _ => {}
        }
    }
}

/// A strongly connected component of the defined-function call graph.
#[derive(Debug)]
pub(crate) struct Scc {
    /// Member functions, as defined-function indices.
    pub(crate) funcs: Vec<usize>,
    /// Whether a call edge stays inside the component (mutual recursion
    /// or a self call).
    pub(crate) cyclic: bool,
}

/// The module's call graph, built once per analysis.
#[derive(Debug)]
pub struct CallGraph {
    /// Number of imported functions (the first global indices).
    pub(crate) n_imports: u32,
    /// Per defined function: its call sites.
    pub(crate) calls: Vec<FuncCalls>,
    /// Per type index: the global indices of the table entries a
    /// `call_indirect` of that type can reach. `None` when the table is
    /// imported: other modules contribute entries we cannot see.
    candidates: Option<Vec<Vec<u32>>>,
    /// Every element-segment entry, in segment order.
    pub(crate) elem_funcs: Vec<u32>,
    /// Per defined function: the defined functions it may call, through
    /// direct calls or known `call_indirect` candidates.
    pub(crate) callees: Vec<Vec<usize>>,
    /// The strongly connected components, callees before callers.
    pub(crate) sccs: Vec<Scc>,
}

impl CallGraph {
    /// Scans `m` for call sites and condenses its call graph.
    #[must_use]
    pub fn build(m: &Module) -> CallGraph {
        let n_imports = m.num_func_imports() as u32;
        let elem_funcs: Vec<u32> = m
            .elems
            .iter()
            .flat_map(|e| e.funcs.iter().copied())
            .collect();
        let table_imported = m
            .imports
            .iter()
            .any(|im| matches!(im.kind, ImportKind::Table(_)));
        let candidates = (!table_imported).then(|| {
            let elem_types: Vec<_> = elem_funcs.iter().map(|&f| m.func_type(f)).collect();
            m.types
                .iter()
                .map(|ft| {
                    elem_funcs
                        .iter()
                        .zip(&elem_types)
                        .filter(|(_, t)| **t == Some(ft))
                        .map(|(&f, _)| f)
                        .collect()
                })
                .collect()
        });

        let calls: Vec<FuncCalls> = m
            .funcs
            .iter()
            .map(|f| {
                let mut fc = FuncCalls::default();
                scan_seq(&f.body, &mut 0, &mut fc);
                fc
            })
            .collect();

        let mut g = CallGraph {
            n_imports,
            calls,
            candidates,
            elem_funcs,
            callees: Vec::new(),
            sccs: Vec::new(),
        };
        let callees = g
            .calls
            .iter()
            .map(|fc| {
                let mut out: Vec<usize> = g.targets(fc).filter_map(|f| g.defined(f)).collect();
                out.sort_unstable();
                out.dedup();
                out
            })
            .collect();
        g.callees = callees;
        g.sccs = tarjan(&g.callees);
        g
    }

    /// The defined-function index of global function `f`, or `None` for
    /// an import.
    pub(crate) fn defined(&self, f: u32) -> Option<usize> {
        f.checked_sub(self.n_imports).map(|i| i as usize)
    }

    /// The functions a `call_indirect` of type `ti` can reach (global
    /// indices). `None` when the table is imported and the candidates
    /// are unknown.
    #[must_use]
    pub fn candidates(&self, ti: u32) -> Option<&[u32]> {
        let c = self.candidates.as_ref()?;
        Some(c.get(ti as usize).map_or(&[], Vec::as_slice))
    }

    /// Every function the calls `fc` may reach (global indices, with
    /// repeats): direct callees and the known candidates of its
    /// `call_indirect` sites.
    fn targets<'a>(&'a self, fc: &'a FuncCalls) -> impl Iterator<Item = u32> + 'a {
        let indirect = fc
            .indirect
            .iter()
            .flat_map(|&(_, ti)| self.candidates(ti).unwrap_or_default());
        fc.direct.iter().map(|&(_, f)| f).chain(indirect.copied())
    }

    /// Module-local call-depth bound over the condensation: `None` when
    /// any component is recursive or any `call_indirect` target is
    /// unknown; otherwise the longest chain of frames, an imported
    /// callee counting as one.
    #[must_use]
    pub fn max_call_depth(&self) -> Option<u32> {
        if self.sccs.iter().any(|s| s.cyclic) {
            return None;
        }
        let unknown = self.candidates.is_none();
        let mut depth = vec![0u32; self.calls.len()];
        let mut deepest = 0;
        for scc in &self.sccs {
            let f = scc.funcs[0];
            let fc = &self.calls[f];
            if unknown && !fc.indirect.is_empty() {
                return None;
            }
            let calls_import = self.targets(fc).any(|c| c < self.n_imports);
            let below = self.callees[f].iter().map(|&c| depth[c]).max();
            depth[f] = 1 + below.unwrap_or(0).max(u32::from(calls_import));
            deepest = deepest.max(depth[f]);
        }
        Some(deepest)
    }
}

/// Tarjan's algorithm, iteratively: the SCCs of `succ` in reverse
/// topological order of the condensation, i.e. every component after
/// all the components it reaches.
fn tarjan(succ: &[Vec<usize>]) -> Vec<Scc> {
    const UNVISITED: usize = usize::MAX;
    let n = succ.len();
    let mut index = vec![UNVISITED; n];
    let mut low = vec![0; n];
    let mut on_stack = vec![false; n];
    let mut stack = Vec::new();
    let mut sccs = Vec::new();
    let mut next = 0;
    // (node, position in its successor list)
    let mut frames: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        frames.push((root, 0));
        while let Some(&(v, i)) = frames.last() {
            if i == 0 {
                index[v] = next;
                low[v] = next;
                next += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = succ[v].get(i) {
                frames.last_mut().expect("v's frame").1 += 1;
                if index[w] == UNVISITED {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            frames.pop();
            if let Some(&(u, _)) = frames.last() {
                low[u] = low[u].min(low[v]);
            }
            if low[v] == index[v] {
                let at = stack
                    .iter()
                    .rposition(|&w| w == v)
                    .expect("v is on the stack");
                let funcs = stack.split_off(at);
                for &w in &funcs {
                    on_stack[w] = false;
                }
                let cyclic = funcs.len() > 1 || succ[v].contains(&v);
                sccs.push(Scc { funcs, cyclic });
            }
        }
    }
    sccs
}

/// Runs the call-graph pass over a validated module and its call graph.
#[must_use]
pub fn callgraph(m: &Module, g: &CallGraph) -> CallGraphInfo {
    let n_imports = g.n_imports;
    let nf = g.calls.len();

    let mut diagnostics = Vec::new();
    let mut any_unknown_indirect = false;
    for (fi, fc) in g.calls.iter().enumerate() {
        for &(off, ti) in &fc.indirect {
            match g.candidates(ti) {
                Some([]) => diagnostics.push(Diagnostic {
                    func: n_imports + fi as u32,
                    offset: off,
                    pass: Pass::CallGraph,
                    severity: Severity::Warn,
                    message: format!(
                        "call_indirect (type {ti}) has no type-compatible table entry: \
                         traps if executed"
                    ),
                }),
                Some(_) => {}
                None => any_unknown_indirect = true,
            }
        }
    }
    if any_unknown_indirect {
        diagnostics.push(Diagnostic {
            func: MODULE_SCOPE,
            offset: 0,
            pass: Pass::CallGraph,
            severity: Severity::Warn,
            message: "call_indirect targets resolve through an imported table; \
                      candidate sets are unknown to per-module analysis"
                .into(),
        });
    }

    // Reachability: roots are exported functions, the start function and
    // every element-segment entry (an indirect call can only land on a
    // table entry, so table entries as roots cover indirect edges).
    let mut reachable = vec![false; nf];
    let mut work: Vec<usize> = Vec::new();
    let mut mark = |f: u32, work: &mut Vec<usize>| {
        if let Some(i) = g.defined(f).filter(|&i| i < nf && !reachable[i]) {
            reachable[i] = true;
            work.push(i);
        }
    };
    for e in &m.exports {
        if let ExportKind::Func(i) = e.kind {
            mark(i, &mut work);
        }
    }
    if let Some(s) = m.start {
        mark(s, &mut work);
    }
    for &f in &g.elem_funcs {
        mark(f, &mut work);
    }
    while let Some(fi) = work.pop() {
        for &(_, callee) in &g.calls[fi].direct {
            mark(callee, &mut work);
        }
    }
    for (fi, r) in reachable.iter().enumerate() {
        if !r {
            diagnostics.push(Diagnostic {
                func: n_imports + fi as u32,
                offset: 0,
                pass: Pass::CallGraph,
                severity: Severity::Warn,
                message: "function is unreachable: not exported, not in the table, \
                          not the start function, and never called"
                    .into(),
            });
        }
    }

    CallGraphInfo {
        max_call_depth: g.max_call_depth(),
        diagnostics,
    }
}

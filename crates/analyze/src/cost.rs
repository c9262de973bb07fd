//! Static fuel-cost analysis.
//!
//! The interpreter (`richwasm_wasm::exec`) charges **exactly one step
//! per executed instruction dispatch** — including `block`/`loop`/`if`
//! entries and branches — plus one extra step when a call resolves to a
//! host function. Structured block *ends* are implicit in the tree AST
//! and cost nothing. This module derives two per-function summaries
//! from that metering model:
//!
//! * **`min_steps`** — a sound *lower* bound on the steps any normally
//!   completing invocation consumes: a shortest-path computation over
//!   the [`Cfg`] (via the backward dataflow framework), composed across
//!   calls callee-first over the call graph's strongly connected
//!   components, with a Kleene ascent from zero only inside a recursive
//!   component. A fuel budget below
//!   `min_steps` can only end in a trap or fuel exhaustion, never
//!   normal completion — which is what lets `EngineServer` reject such
//!   jobs up front.
//! * **`max_steps`** — an *upper* bound where one exists: a structural
//!   walk that sums straight-line costs, takes the max over `if` arms,
//!   and bounds a `loop` only when its body never branches back to the
//!   loop header (a loop that never loops runs its body once).
//!   Recursion, imported callees (whose linked bodies are invisible to
//!   a per-module analysis), `call_indirect`, and genuinely looping
//!   loops yield [`Bound::Unbounded`] carrying a sound "≥ steps per
//!   iteration" summary instead.
//!
//! Import calls contribute `1` to `min_steps` (the `call` dispatch; a
//! linked Wasm body may be empty) — never the host-dispatch step, which
//! only exists when the import actually resolves to a host function.

use std::collections::HashMap;
use std::fmt;

use richwasm_wasm::ast::{ExportKind, Module, WInstr};

use crate::callgraph::CallGraph;
use crate::cfg::{BlockId, Cfg, FrameKind, Term};
use crate::dataflow::{solve, DataflowPass, Direction, JoinLattice};

/// `min_steps` value meaning "no path completes normally".
pub const NEVER: u64 = u64::MAX;

/// An upper bound on interpreter steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// At most this many steps.
    Finite(u64),
    /// No static bound; each unbounded repetition (loop iteration,
    /// recursive or unknown callee) consumes at least `min_iteration`
    /// steps.
    Unbounded {
        /// Sound lower bound on the cost of one repetition.
        min_iteration: u64,
    },
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bound::Finite(n) => write!(f, "≤{n}"),
            Bound::Unbounded { min_iteration } => {
                write!(f, "unbounded (≥{min_iteration}/iteration)")
            }
        }
    }
}

fn bound_add(a: Bound, b: Bound) -> Bound {
    match (a, b) {
        (Bound::Finite(x), Bound::Finite(y)) => Bound::Finite(x.saturating_add(y)),
        (Bound::Unbounded { min_iteration: x }, Bound::Unbounded { min_iteration: y }) => {
            Bound::Unbounded {
                min_iteration: x.min(y),
            }
        }
        (Bound::Unbounded { min_iteration }, _) | (_, Bound::Unbounded { min_iteration }) => {
            Bound::Unbounded { min_iteration }
        }
    }
}

fn bound_max(a: Bound, b: Bound) -> Bound {
    match (a, b) {
        (Bound::Finite(x), Bound::Finite(y)) => Bound::Finite(x.max(y)),
        (Bound::Unbounded { min_iteration: x }, Bound::Unbounded { min_iteration: y }) => {
            Bound::Unbounded {
                min_iteration: x.min(y),
            }
        }
        (u @ Bound::Unbounded { .. }, _) | (_, u @ Bound::Unbounded { .. }) => u,
    }
}

fn add1(b: Bound) -> Bound {
    bound_add(b, Bound::Finite(1))
}

/// Per-function cost summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncCost {
    /// Global function index (imports first).
    pub func: u32,
    /// Sound lower bound on steps of a normally completing invocation
    /// ([`NEVER`] when no path completes).
    pub min_steps: u64,
    /// Upper bound, where one exists.
    pub max_steps: Bound,
}

/// The module's cost report, exposed on `Artifact`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CostReport {
    /// One entry per *defined* function, in definition order.
    pub funcs: Vec<FuncCost>,
    /// Exported function names with their global indices.
    pub exports: Vec<(String, u32)>,
    /// Module-local bound on call-stack depth (imported callees counted
    /// as one frame); `None` when recursion or unknown indirect targets
    /// make it unbounded. Filled in by the call-graph pass.
    pub max_call_depth: Option<u32>,
}

impl CostReport {
    /// The cost summary of a function by global index.
    #[must_use]
    pub fn func(&self, idx: u32) -> Option<&FuncCost> {
        self.funcs.iter().find(|c| c.func == idx)
    }

    /// The cost summary of the named export. `None` when the export is
    /// unknown or resolves to an imported function (whose cost this
    /// module cannot see).
    #[must_use]
    pub fn export(&self, name: &str) -> Option<&FuncCost> {
        let idx = self
            .exports
            .iter()
            .find_map(|(n, i)| (n == name).then_some(*i))?;
        self.func(idx)
    }

    /// Sound lower bound on the steps a normally completing invocation
    /// of the named export consumes; `None` as for [`CostReport::export`].
    #[must_use]
    pub fn min_steps_of_export(&self, name: &str) -> Option<u64> {
        self.export(name).map(|c| c.min_steps)
    }
}

/// Per-instruction minimum costs against the current `min_steps`
/// estimates.
struct CostCtx<'a> {
    graph: &'a CallGraph,
    /// `min_steps` per defined function: final for every function
    /// already solved, the current estimate inside a recursive SCC.
    minfunc: &'a [u64],
}

impl CostCtx<'_> {
    /// Minimum steps of a callee's body: `0` for an import, whose linked
    /// body may be empty.
    fn callee_min(&self, f: u32) -> u64 {
        self.graph.defined(f).map_or(0, |i| self.minfunc[i])
    }

    /// Minimum steps one plain instruction consumes (callees included).
    fn instr_min(&self, ins: &WInstr) -> u64 {
        let callee = match ins {
            WInstr::Call(f) => self.callee_min(*f),
            // With an imported (shared) table other modules contribute
            // entries we cannot see, so the callee minimum degrades to 0;
            // with no compatible entry in a fully known table the call
            // always traps, so no completion runs through it.
            WInstr::CallIndirect(ti) => match self.graph.candidates(*ti) {
                None => 0,
                Some(cands) => cands
                    .iter()
                    .map(|&f| self.callee_min(f))
                    .min()
                    .unwrap_or(NEVER),
            },
            _ => 0,
        };
        1u64.saturating_add(callee)
    }

    /// Total minimum cost of every block (instructions plus terminator).
    fn block_costs(&self, cfg: &Cfg) -> Vec<u64> {
        cfg.blocks
            .iter()
            .map(|blk| {
                blk.instrs.iter().fold(blk.term.step_cost(), |c, (_, ins)| {
                    c.saturating_add(self.instr_min(ins))
                })
            })
            .collect()
    }
}

/// Minimum distance-to-completion fact: join is `min`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MinDist(u64);

impl JoinLattice for MinDist {
    fn join(&mut self, other: &Self) -> bool {
        if other.0 < self.0 {
            self.0 = other.0;
            true
        } else {
            false
        }
    }
}

struct MinCostPass<'a> {
    /// Per-block minimum cost, from [`CostCtx::block_costs`].
    costs: &'a [u64],
}

impl DataflowPass for MinCostPass<'_> {
    type Fact = MinDist;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn boundary(&self) -> MinDist {
        MinDist(0)
    }

    fn bottom(&self) -> MinDist {
        MinDist(NEVER)
    }

    fn transfer(&self, _cfg: &Cfg, block: BlockId, fact: &MinDist) -> MinDist {
        if fact.0 == NEVER {
            return MinDist(NEVER);
        }
        MinDist(fact.0.saturating_add(self.costs[block]))
    }
}

/// The shortest path to completion through `cfg`, under the callee
/// estimates in `minfunc`.
fn solve_min(g: &CallGraph, minfunc: &[u64], cfg: &Cfg) -> u64 {
    let costs = CostCtx { graph: g, minfunc }.block_costs(cfg);
    solve(cfg, &MinCostPass { costs: &costs })[cfg.entry()].0
}

/// Computes `min_steps` for every defined function: a per-function
/// shortest path to completion, solved callee-first over the call
/// graph's SCCs. A non-recursive function sees only final callee
/// values, so one solve is exact. A recursive SCC is closed by a Kleene
/// ascent from zero over its own members, capped at `nf + 8` rounds:
/// estimates only grow and every intermediate value is a sound lower
/// bound, so the cap preserves soundness (unbounded recursion simply
/// stops ascending there).
fn min_costs(g: &CallGraph, cfgs: &[Cfg]) -> Vec<u64> {
    let nf = cfgs.len();
    let mut minfunc = vec![0u64; nf];
    for scc in &g.sccs {
        if !scc.cyclic {
            let f = scc.funcs[0];
            minfunc[f] = solve_min(g, &minfunc, &cfgs[f]);
            continue;
        }
        for _ in 0..nf + 8 {
            let mut changed = false;
            for &f in &scc.funcs {
                let new = solve_min(g, &minfunc, &cfgs[f]);
                if new != minfunc[f] {
                    minfunc[f] = new;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }
    minfunc
}

/// Shortest cycle through loop header `h` (steps consumed by one
/// iteration), or [`NEVER`] when no back edge is live. `costs` holds
/// each block's minimum cost.
fn min_cycle(cfg: &Cfg, costs: &[u64], h: BlockId) -> u64 {
    let n = cfg.blocks.len();
    let mut e = vec![NEVER; n];
    loop {
        let mut changed = false;
        for b in (0..n).rev() {
            let best = cfg.blocks[b]
                .term
                .successors()
                .into_iter()
                .map(|s| if s == h { 0 } else { e[s] })
                .min()
                .unwrap_or(NEVER);
            if best == NEVER {
                continue;
            }
            let v = costs[b].saturating_add(best);
            if v < e[b] {
                e[b] = v;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    e[h]
}

/// Does any branch in `body` target the label at relative depth `depth`
/// (i.e. branch back to the enclosing loop's header)?
fn branches_back(body: &[WInstr], depth: u32) -> bool {
    body.iter().any(|ins| match ins {
        WInstr::Br(l) | WInstr::BrIf(l) => *l == depth,
        WInstr::BrTable(ls, d) => *d == depth || ls.contains(&depth),
        WInstr::Block(_, b) | WInstr::Loop(_, b) => branches_back(b, depth + 1),
        WInstr::If(_, t, e) => branches_back(t, depth + 1) || branches_back(e, depth + 1),
        _ => false,
    })
}

struct MaxCtx<'m> {
    m: &'m Module,
    n_imports: u32,
    minfunc: &'m [u64],
    /// Per defined function: loop-instruction offset → min steps per
    /// iteration (from [`min_cycle`]).
    loop_iter: Vec<HashMap<u32, u64>>,
    memo: Vec<Option<Bound>>,
    visiting: Vec<bool>,
}

impl MaxCtx<'_> {
    fn func_max(&mut self, fi: usize) -> Bound {
        if let Some(b) = self.memo[fi] {
            return b;
        }
        if self.visiting[fi] {
            // Recursion: every recursive activation costs the call
            // dispatch plus at least the cheapest completing path.
            return Bound::Unbounded {
                min_iteration: self.minfunc[fi].saturating_add(1),
            };
        }
        self.visiting[fi] = true;
        let m = self.m;
        let mut off = 0u32;
        let b = self.max_seq(fi, &m.funcs[fi].body, &mut off);
        self.visiting[fi] = false;
        self.memo[fi] = Some(b);
        b
    }

    fn max_seq(&mut self, fi: usize, body: &[WInstr], off: &mut u32) -> Bound {
        let mut total = Bound::Finite(0);
        for ins in body {
            let o = *off;
            *off += 1;
            let c = match ins {
                WInstr::Block(_, b) => add1(self.max_seq(fi, b, off)),
                WInstr::If(_, t, e) => {
                    let bt = self.max_seq(fi, t, off);
                    let be = self.max_seq(fi, e, off);
                    add1(bound_max(bt, be))
                }
                WInstr::Loop(_, b) => {
                    if branches_back(b, 0) {
                        let mi = self.loop_iter[fi].get(&o).copied().unwrap_or(1);
                        // Walk the body anyway to keep offsets aligned
                        // with the CFG builder's pre-order numbering.
                        let _ = self.max_seq(fi, b, off);
                        Bound::Unbounded {
                            min_iteration: mi.max(1),
                        }
                    } else {
                        // A loop nothing branches back to runs once.
                        add1(self.max_seq(fi, b, off))
                    }
                }
                WInstr::Call(f) => {
                    if *f < self.n_imports {
                        // The linked body of an import is invisible to a
                        // per-module analysis.
                        Bound::Unbounded { min_iteration: 1 }
                    } else {
                        add1(self.func_max((*f - self.n_imports) as usize))
                    }
                }
                WInstr::CallIndirect(_) => Bound::Unbounded { min_iteration: 1 },
                _ => Bound::Finite(1),
            };
            total = bound_add(total, c);
        }
        total
    }
}

/// Computes the module's [`CostReport`] (`max_call_depth` is left for
/// the call-graph pass to fill in). `cfgs` holds one CFG per defined
/// function, in definition order; `g` is the module's call graph.
#[must_use]
pub fn cost_report(m: &Module, cfgs: &[Cfg], g: &CallGraph) -> CostReport {
    let n_imports = g.n_imports;
    let minfunc = min_costs(g, cfgs);

    // Per-loop iteration minima, now that call minima have converged;
    // block costs are computed once per function that has a loop.
    let ctx = CostCtx {
        graph: g,
        minfunc: &minfunc,
    };
    let loop_iter: Vec<HashMap<u32, u64>> = cfgs
        .iter()
        .map(|cfg| {
            let mut map = HashMap::new();
            let mut costs = None;
            for blk in &cfg.blocks {
                if let Term::Enter { frame, body } = &blk.term {
                    if cfg.frames[*frame].kind == FrameKind::Loop {
                        let costs = costs.get_or_insert_with(|| ctx.block_costs(cfg));
                        let c = min_cycle(cfg, costs, *body);
                        if c != NEVER {
                            map.insert(blk.term_offset, c);
                        }
                    }
                }
            }
            map
        })
        .collect();

    let mut maxctx = MaxCtx {
        m,
        n_imports,
        minfunc: &minfunc,
        loop_iter,
        memo: vec![None; cfgs.len()],
        visiting: vec![false; cfgs.len()],
    };
    let funcs = (0..cfgs.len())
        .map(|i| FuncCost {
            func: n_imports + i as u32,
            min_steps: minfunc[i],
            max_steps: maxctx.func_max(i),
        })
        .collect();

    let exports = m
        .exports
        .iter()
        .filter_map(|e| match e.kind {
            ExportKind::Func(i) => Some((e.name.clone(), i)),
            _ => None,
        })
        .collect();

    CostReport {
        funcs,
        exports,
        max_call_depth: None,
    }
}

#[cfg(test)]
mod tests {
    use richwasm_wasm::ast::{
        BlockType, ElemSegment, Export, FuncDef, FuncType, Import, ImportKind, ValType,
    };

    use super::*;
    use crate::cfg::build_cfg;

    /// The whole-module solver this module used before the call-graph
    /// order, kept only as a reference: a Jacobi Kleene ascent from zero
    /// that re-solves every function each round, capped at `nf + 8`
    /// rounds. Returns the estimates and whether the ascent converged.
    fn jacobi_min_costs(m: &Module, cfgs: &[Cfg]) -> (Vec<u64>, bool) {
        let n_imports = m.num_func_imports() as u32;
        let table_imported = m
            .imports
            .iter()
            .any(|im| matches!(im.kind, ImportKind::Table(_)));
        let elem_funcs: Vec<u32> = m.elems.iter().flat_map(|e| e.funcs.clone()).collect();
        let nf = cfgs.len();
        let mut minfunc = vec![0u64; nf];
        for _ in 0..nf + 8 {
            let callee = |f: u32| f.checked_sub(n_imports).map_or(0, |i| minfunc[i as usize]);
            let indirect_min: Vec<u64> = m
                .types
                .iter()
                .map(|ft| {
                    if table_imported {
                        return 0;
                    }
                    elem_funcs
                        .iter()
                        .filter(|&&f| m.func_type(f) == Some(ft))
                        .map(|&f| callee(f))
                        .min()
                        .unwrap_or(NEVER)
                })
                .collect();
            let instr_min = |ins: &WInstr| match ins {
                WInstr::Call(f) => 1u64.saturating_add(callee(*f)),
                WInstr::CallIndirect(ti) => 1u64.saturating_add(indirect_min[*ti as usize]),
                _ => 1,
            };
            let next: Vec<u64> = cfgs
                .iter()
                .map(|cfg| {
                    let costs: Vec<u64> = cfg
                        .blocks
                        .iter()
                        .map(|blk| {
                            blk.instrs.iter().fold(blk.term.step_cost(), |c, (_, ins)| {
                                c.saturating_add(instr_min(ins))
                            })
                        })
                        .collect();
                    solve(cfg, &MinCostPass { costs: &costs })[cfg.entry()].0
                })
                .collect();
            if next == minfunc {
                return (minfunc, true);
            }
            minfunc = next;
        }
        (minfunc, false)
    }

    /// The memoised depth-first call-depth bound the call-graph pass
    /// used before the condensation, kept only as a reference.
    fn dfs_max_call_depth(m: &Module) -> Option<u32> {
        fn depth(
            fi: usize,
            m: &Module,
            g: &CallGraph,
            memo: &mut [Option<Option<u32>>],
            visiting: &mut [bool],
        ) -> Option<u32> {
            if let Some(d) = memo[fi] {
                return d;
            }
            if visiting[fi] {
                return None;
            }
            visiting[fi] = true;
            let table_imported = m
                .imports
                .iter()
                .any(|im| matches!(im.kind, ImportKind::Table(_)));
            let mut callees: Vec<u32> = g.calls[fi].direct.iter().map(|&(_, c)| c).collect();
            let mut unknown = false;
            for &(_, ti) in &g.calls[fi].indirect {
                if table_imported {
                    unknown = true;
                } else {
                    let ft = &m.types[ti as usize];
                    callees.extend(
                        m.elems
                            .iter()
                            .flat_map(|e| e.funcs.iter().copied())
                            .filter(|&f| m.func_type(f) == Some(ft)),
                    );
                }
            }
            let d = if unknown {
                None
            } else {
                callees
                    .into_iter()
                    .map(|c| match g.defined(c) {
                        None => Some(1),
                        Some(ci) => depth(ci, m, g, memo, visiting),
                    })
                    .try_fold(0u32, |a, d| Some(a.max(d?)))
                    .map(|d| d + 1)
            };
            visiting[fi] = false;
            memo[fi] = Some(d);
            d
        }
        let g = CallGraph::build(m);
        let nf = m.funcs.len();
        let mut memo = vec![None; nf];
        let mut visiting = vec![false; nf];
        (0..nf).try_fold(0u32, |a, fi| {
            Some(a.max(depth(fi, m, &g, &mut memo, &mut visiting)?))
        })
    }

    const UNIT: FuncType = FuncType {
        params: vec![],
        results: vec![],
    };

    fn func(body: Vec<WInstr>) -> FuncDef {
        FuncDef {
            type_idx: 0,
            locals: vec![],
            body,
        }
    }

    /// A module of `[] → []` functions, each exported.
    fn module(bodies: Vec<Vec<WInstr>>) -> Module {
        let exports = (0..bodies.len() as u32)
            .map(|i| Export {
                name: format!("f{i}"),
                kind: ExportKind::Func(i),
            })
            .collect();
        Module {
            types: vec![UNIT],
            funcs: bodies.into_iter().map(func).collect(),
            exports,
            ..Module::default()
        }
    }

    fn with_table(mut m: Module, entries: Vec<u32>) -> Module {
        m.table = Some(entries.len() as u32);
        m.elems.push(ElemSegment {
            offset: 0,
            funcs: entries,
        });
        m
    }

    fn import_func(mut m: Module) -> Module {
        m.imports.push(Import {
            module: "host".into(),
            name: "f".into(),
            kind: ImportKind::Func(0),
        });
        m
    }

    /// `if (const 0) { then } else { else_ }`.
    fn diamond(then: Vec<WInstr>, else_: Vec<WInstr>) -> Vec<WInstr> {
        vec![
            WInstr::I32Const(0),
            WInstr::If(BlockType::Empty, then, else_),
        ]
    }

    fn indirect() -> Vec<WInstr> {
        vec![WInstr::I32Const(0), WInstr::CallIndirect(0)]
    }

    /// A direct chain of `n` functions: `f_i` calls `f_{i-1}` when
    /// `down`, `f_{i+1}` otherwise.
    fn chain(n: u32, down: bool) -> Module {
        module(
            (0..n)
                .map(|i| {
                    let callee = if down { i.checked_sub(1) } else { Some(i + 1) };
                    match callee.filter(|&c| c < n) {
                        Some(c) => vec![WInstr::Nop, WInstr::Call(c), WInstr::Nop],
                        None => vec![WInstr::Nop],
                    }
                })
                .collect(),
        )
    }

    /// The handcrafted equivalence corpus: (label, module, whether the
    /// reference ascent must converge).
    fn corpus() -> Vec<(&'static str, Module, bool)> {
        let mut imported_table = module(vec![indirect(), vec![WInstr::Call(0)]]);
        imported_table.imports.push(Import {
            module: "host".into(),
            name: "table".into(),
            kind: ImportKind::Table(1),
        });
        let mut typed_table = with_table(
            module(vec![
                vec![
                    WInstr::I32Const(0),
                    WInstr::CallIndirect(1),
                    WInstr::Drop,
                    WInstr::I32Const(0),
                    WInstr::CallIndirect(0),
                ],
                vec![WInstr::Nop, WInstr::Nop, WInstr::Nop],
                vec![WInstr::I32Const(4)],
            ]),
            vec![1, 2],
        );
        typed_table.types.push(FuncType {
            params: vec![],
            results: vec![ValType::I32],
        });
        typed_table.funcs[2].type_idx = 1;
        vec![
            ("chain down 60", chain(60, true), true),
            ("chain up 60", chain(60, false), true),
            (
                "calling diamonds",
                module(vec![
                    diamond(
                        vec![WInstr::Call(1), WInstr::Call(1)],
                        diamond(vec![WInstr::Call(2)], vec![WInstr::Call(3)]),
                    ),
                    diamond(vec![WInstr::Call(2)], vec![WInstr::Call(3), WInstr::Nop]),
                    vec![WInstr::Nop; 5],
                    vec![WInstr::Unreachable],
                ]),
                true,
            ),
            (
                "even/odd",
                module(vec![
                    diamond(vec![WInstr::Call(1)], vec![WInstr::Nop]),
                    diamond(vec![WInstr::Call(0)], vec![]),
                    vec![WInstr::Call(1), WInstr::Call(0)],
                ]),
                true,
            ),
            (
                "self-recursion without a base case",
                module(vec![
                    vec![WInstr::Nop, WInstr::Call(0)],
                    vec![WInstr::Call(0)],
                    vec![WInstr::Call(1), WInstr::Nop],
                ]),
                false,
            ),
            (
                "mutual recursion without a base case",
                module(vec![vec![WInstr::Call(1)], vec![WInstr::Call(0)]]),
                false,
            ),
            (
                "indirect into an earlier SCC",
                with_table(
                    module(vec![
                        indirect(),
                        vec![WInstr::Nop; 4],
                        vec![WInstr::Call(3)],
                        vec![WInstr::Nop],
                    ]),
                    vec![1, 2],
                ),
                true,
            ),
            (
                "indirect within its own SCC",
                with_table(
                    module(vec![
                        diamond(indirect(), vec![WInstr::Nop, WInstr::Nop]),
                        vec![WInstr::Call(0)],
                    ]),
                    vec![0, 1],
                ),
                true,
            ),
            (
                "indirect self-recursion without a base case",
                with_table(module(vec![indirect(), vec![WInstr::Call(0)]]), vec![0]),
                false,
            ),
            ("indirect by type", typed_table, true),
            (
                "indirect with no compatible entry",
                with_table(module(vec![indirect(), vec![WInstr::Call(0)]]), vec![]),
                true,
            ),
            ("imported table", imported_table, true),
            (
                "calls to imports",
                import_func(module(vec![
                    vec![WInstr::Call(0), WInstr::Call(2)],
                    vec![WInstr::Call(0)],
                    diamond(vec![WInstr::Call(1)], vec![WInstr::Call(0)]),
                ])),
                true,
            ),
            (
                "import in the table",
                with_table(
                    import_func(module(vec![indirect(), vec![WInstr::Nop; 3]])),
                    vec![0, 2],
                ),
                true,
            ),
        ]
    }

    /// The modules of `crates/analyze/tests/negative.rs` that call.
    fn negative_modules() -> Vec<Module> {
        let mut f_calls_g = module(vec![vec![WInstr::Call(1)], vec![]]);
        f_calls_g.exports.truncate(1);
        vec![
            module(vec![vec![WInstr::I32Const(0), WInstr::Drop]]),
            with_table(module(vec![indirect()]), vec![]),
            module(vec![vec![], vec![]]),
            f_calls_g,
            module(vec![vec![WInstr::Call(0)]]),
            module(vec![
                diamond(vec![WInstr::Call(1)], vec![]),
                vec![WInstr::Call(0)],
            ]),
        ]
    }

    fn cfgs(m: &Module) -> Vec<Cfg> {
        m.funcs.iter().map(|f| build_cfg(m, f).unwrap()).collect()
    }

    #[test]
    fn scc_order_matches_the_jacobi_ascent() {
        for (label, m, converges) in corpus() {
            let cfgs = cfgs(&m);
            let (reference, converged) = jacobi_min_costs(&m, &cfgs);
            let new = min_costs(&CallGraph::build(&m), &cfgs);
            assert_eq!(converged, converges, "{label}: reference convergence");
            if converged {
                assert_eq!(new, reference, "{label}");
            } else {
                assert!(
                    reference.iter().zip(&new).all(|(r, n)| r <= n),
                    "{label}: capped reference {reference:?} above {new:?}"
                );
            }
            assert_eq!(
                CallGraph::build(&m).max_call_depth(),
                dfs_max_call_depth(&m),
                "{label}: max_call_depth"
            );
        }
    }

    #[test]
    fn call_depth_matches_the_dfs_on_the_negative_modules() {
        let depths: Vec<_> = negative_modules()
            .iter()
            .map(|m| CallGraph::build(m).max_call_depth())
            .collect();
        let reference: Vec<_> = negative_modules().iter().map(dfs_max_call_depth).collect();
        assert_eq!(depths, reference);
        assert_eq!(depths, [Some(1), Some(1), Some(1), Some(2), None, None]);
    }

    #[test]
    fn loop_iteration_floor_counts_callee_minima() {
        // loop { call f1; local.get 0; br_if 0 } with f1 = two nops: one
        // iteration is call(1) + 2 + local.get(1) + br_if(1) = 5.
        let mut m = module(vec![
            vec![WInstr::Loop(
                BlockType::Empty,
                vec![WInstr::Call(1), WInstr::LocalGet(0), WInstr::BrIf(0)],
            )],
            vec![WInstr::Nop, WInstr::Nop],
        ]);
        m.funcs[0].locals.push(ValType::I32);
        let cfgs = cfgs(&m);
        let report = cost_report(&m, &cfgs, &CallGraph::build(&m));
        assert_eq!(report.funcs[0].min_steps, 6);
        assert_eq!(
            report.funcs[0].max_steps,
            Bound::Unbounded { min_iteration: 5 }
        );
    }
}

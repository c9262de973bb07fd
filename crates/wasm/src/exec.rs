//! The WebAssembly interpreter: a tree-walking evaluator over validated
//! modules, with a multi-module store and typed import resolution.
//!
//! The evaluator keeps a typed [`Val`] stack and checks each operand's
//! type as it pops it; what an operator or memory access then computes
//! comes from the crate-private `num` module, on bit patterns, exactly
//! as in the bytecode VM ([`crate::vm`]).

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::ast::*;
use crate::num::{self, memory_grow, t_size};
use crate::vm::{slot_of, val_of};

/// A runtime value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Val {
    /// 32-bit integer (bit pattern).
    I32(u32),
    /// 64-bit integer (bit pattern).
    I64(u64),
    /// 32-bit float.
    F32(f32),
    /// 64-bit float.
    F64(f64),
}

impl Val {
    /// The value's type.
    pub fn ty(&self) -> ValType {
        match self {
            Val::I32(_) => ValType::I32,
            Val::I64(_) => ValType::I64,
            Val::F32(_) => ValType::F32,
            Val::F64(_) => ValType::F64,
        }
    }

    /// Zero of a type.
    pub fn zero(t: ValType) -> Val {
        match t {
            ValType::I32 => Val::I32(0),
            ValType::I64 => Val::I64(0),
            ValType::F32 => Val::F32(0.0),
            ValType::F64 => Val::F64(0.0),
        }
    }

    /// Extracts an `i32` payload.
    pub fn as_i32(&self) -> Option<u32> {
        match self {
            Val::I32(v) => Some(*v),
            _ => None,
        }
    }
}

impl fmt::Display for Val {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Val::I32(v) => write!(f, "i32:{}", *v as i32),
            Val::I64(v) => write!(f, "i64:{}", *v as i64),
            Val::F32(v) => write!(f, "f32:{v}"),
            Val::F64(v) => write!(f, "f64:{v}"),
        }
    }
}

/// A Wasm trap (or host-level execution failure).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WasmTrap(pub String);

/// Canonical trap message for an exhausted instruction budget. Kept as
/// a well-known string (rather than an enum variant) so the ~two dozen
/// existing `WasmTrap(String)` construction sites stay untouched while
/// embedders can still classify the trap.
const FUEL_EXHAUSTED_MSG: &str = "instruction budget exhausted";

impl WasmTrap {
    /// The trap raised when the per-invocation instruction budget
    /// ([`WasmLinker::max_steps`]) runs out.
    pub fn fuel_exhausted() -> WasmTrap {
        WasmTrap(FUEL_EXHAUSTED_MSG.to_string())
    }

    /// True when this trap is a fuel (instruction budget) exhaustion —
    /// an embedder resource-policy event, not a guest semantic failure.
    pub fn is_fuel_exhausted(&self) -> bool {
        self.0 == FUEL_EXHAUSTED_MSG
    }
}

impl fmt::Display for WasmTrap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wasm trap: {}", self.0)
    }
}

impl std::error::Error for WasmTrap {}

pub(crate) fn trap<T>(msg: impl Into<String>) -> Result<T, WasmTrap> {
    Err(WasmTrap(msg.into()))
}

/// One 64 KiB Wasm page.
pub const PAGE: usize = 65536;

/// Address of a function in the store.
type FuncAddr = usize;

/// A host function: a Rust closure exposed to Wasm modules as an
/// importable export (see [`WasmLinker::register_host_module`]).
///
/// `Fn` (not `FnMut`) so one closure can back several stores at once;
/// stateful hosts use interior mutability. Errors become guest-visible
/// traps.
pub type HostFn = Arc<dyn Fn(&[Val]) -> Result<Vec<Val>, WasmTrap> + Send + Sync>;

/// What a function address resolves to: a Wasm body, a host closure, or a
/// flat-bytecode compilation of a Wasm body (see [`crate::compile`]).
/// The body is `Arc`-shared so entering a call clones a pointer, not the
/// instruction tree.
#[derive(Clone)]
pub(crate) enum FuncImpl {
    Wasm(Arc<FuncDef>),
    Host(HostFn),
    Compiled(Arc<crate::compile::CompiledFunc>),
}

impl fmt::Debug for FuncImpl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FuncImpl::Wasm(def) => write!(f, "Wasm({def:?})"),
            FuncImpl::Host(_) => write!(f, "Host(..)"),
            FuncImpl::Compiled(cf) => write!(f, "Compiled({} ops)", cf.code.len()),
        }
    }
}

#[derive(Debug)]
pub(crate) struct FuncInst {
    pub(crate) ty: FuncType,
    pub(crate) module: usize,
    pub(crate) def: FuncImpl,
}

/// A module instance's view of the store.
#[derive(Debug, Default, Clone)]
pub(crate) struct ModuleInst {
    pub(crate) func_addrs: Vec<FuncAddr>,
    pub(crate) global_addrs: Vec<usize>,
    pub(crate) mem_addr: Option<usize>,
    pub(crate) table_addr: Option<usize>,
    exports: HashMap<String, ExportKind>,
}

/// A snapshot of the store's mutable state (globals, memories, tables)
/// and the fuel limits, captured by [`WasmLinker::seal`] and restored by
/// [`WasmLinker::reset`].
#[derive(Debug, Clone)]
struct Baseline {
    globals: Vec<Val>,
    memories: Vec<Vec<u8>>,
    tables: Vec<Vec<Option<FuncAddr>>>,
    max_call_depth: usize,
    max_steps: u64,
}

/// The multi-module store plus a name registry: the host embedding that
/// RichWasm's lowered modules run in.
#[derive(Debug, Default)]
pub struct WasmLinker {
    pub(crate) funcs: Vec<FuncInst>,
    pub(crate) globals: Vec<Val>,
    pub(crate) memories: Vec<Vec<u8>>,
    pub(crate) tables: Vec<Vec<Option<FuncAddr>>>,
    pub(crate) instances: Vec<ModuleInst>,
    pub(crate) module_types: Vec<Vec<FuncType>>,
    names: HashMap<String, usize>,
    baseline: Option<Baseline>,
    pub(crate) steps: u64,
    /// Fuel: maximum function-call depth.
    pub max_call_depth: usize,
    /// Fuel: maximum executed instructions per invocation.
    pub max_steps: u64,
}

/// Control flow signal inside the evaluator.
enum Flow {
    Normal,
    Br(u32),
    Return,
}

struct Activation {
    module: usize,
    locals: Vec<Val>,
    stack: Vec<Val>,
    depth: usize,
}

// Concurrency contract (enforced at compile time, relied on by the
// embedder's `InstancePool`): a `WasmLinker` owns its entire store
// (functions, globals, memories, tables) and can be moved across threads;
// `&mut self` on every mutating entry point plus `Send + Sync` host
// closures ([`HostFn`]) make it `Sync` too. The transient exec state
// (`Activation`) lives on the invoking thread's stack and never escapes.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<WasmLinker>();
    assert_send_sync::<Val>();
    assert_send_sync::<WasmTrap>();
};

impl WasmLinker {
    /// Creates an empty linker.
    pub fn new() -> WasmLinker {
        WasmLinker {
            max_call_depth: 2048,
            max_steps: 500_000_000,
            ..WasmLinker::default()
        }
    }

    /// Validates and instantiates `module` under `name`, resolving imports
    /// against previously instantiated modules.
    ///
    /// # Errors
    ///
    /// Validation failures and unresolved/ill-typed imports are reported
    /// as [`WasmTrap`]s (host-level errors).
    pub fn instantiate(&mut self, name: &str, module: Module) -> Result<usize, WasmTrap> {
        crate::validate::validate_module(&module).map_err(|e| WasmTrap(e.to_string()))?;
        // A baseline captured before this module existed would restore a
        // store with dangling addresses — invalidate it; callers seal
        // again once the full program is instantiated.
        self.baseline = None;
        let mut inst = ModuleInst::default();

        for im in &module.imports {
            let provider = *self
                .names
                .get(&im.module)
                .ok_or_else(|| WasmTrap(format!("unknown import module {}", im.module)))?;
            let pexports = self.instances[provider].exports.clone();
            let kind = pexports
                .get(&im.name)
                .ok_or_else(|| WasmTrap(format!("unknown import {}.{}", im.module, im.name)))?;
            match (&im.kind, kind) {
                (ImportKind::Func(ti), ExportKind::Func(fi)) => {
                    let want = module
                        .types
                        .get(*ti as usize)
                        .ok_or_else(|| WasmTrap("bad import type".into()))?;
                    let addr = self.instances[provider].func_addrs[*fi as usize];
                    if &self.funcs[addr].ty != want {
                        return Err(WasmTrap(format!(
                            "import {}.{}: function type mismatch",
                            im.module, im.name
                        )));
                    }
                    inst.func_addrs.push(addr);
                }
                (ImportKind::Global(t, _), ExportKind::Global(gi)) => {
                    let addr = self.instances[provider].global_addrs[*gi as usize];
                    if self.globals[addr].ty() != *t {
                        return Err(WasmTrap(format!(
                            "import {}.{}: global type mismatch",
                            im.module, im.name
                        )));
                    }
                    inst.global_addrs.push(addr);
                }
                (ImportKind::Memory(_), ExportKind::Memory(_)) => {
                    inst.mem_addr = self.instances[provider].mem_addr;
                }
                (ImportKind::Table(_), ExportKind::Table(_)) => {
                    inst.table_addr = self.instances[provider].table_addr;
                }
                _ => {
                    return Err(WasmTrap(format!(
                        "import {}.{}: kind mismatch",
                        im.module, im.name
                    )));
                }
            }
        }

        let module_idx = self.instances.len();
        // Defined functions.
        for f in &module.funcs {
            let ty = module.types[f.type_idx as usize].clone();
            let addr = self.funcs.len();
            self.funcs.push(FuncInst {
                ty,
                module: module_idx,
                def: FuncImpl::Wasm(Arc::new(f.clone())),
            });
            inst.func_addrs.push(addr);
        }
        // Globals.
        for g in &module.globals {
            let v = match g.init {
                WInstr::I32Const(c) => Val::I32(c as u32),
                WInstr::I64Const(c) => Val::I64(c as u64),
                WInstr::F32Const(c) => Val::F32(c),
                WInstr::F64Const(c) => Val::F64(c),
                _ => return Err(WasmTrap("non-constant global initialiser".into())),
            };
            inst.global_addrs.push(self.globals.len());
            self.globals.push(v);
        }
        // Memory.
        if let Some(pages) = module.memory {
            inst.mem_addr = Some(self.memories.len());
            self.memories.push(vec![0u8; pages as usize * PAGE]);
        }
        // Table creation, then element segments (which may target an
        // imported table).
        if let Some(min) = module.table {
            inst.table_addr = Some(self.tables.len());
            self.tables.push(vec![None; min as usize]);
        }
        if !module.elems.is_empty() {
            let ta = inst
                .table_addr
                .ok_or_else(|| WasmTrap("element segment without a table".into()))?;
            for el in &module.elems {
                for (i, &fi) in el.funcs.iter().enumerate() {
                    let slot = el.offset as usize + i;
                    let table = &mut self.tables[ta];
                    if slot >= table.len() {
                        table.resize(slot + 1, None);
                    }
                    table[slot] = Some(inst.func_addrs[fi as usize]);
                }
            }
        }
        // Data segments.
        if let Some(ma) = inst.mem_addr {
            for d in &module.data {
                let mem = &mut self.memories[ma];
                let end = d.offset as usize + d.bytes.len();
                if end > mem.len() {
                    return Err(WasmTrap("data segment out of bounds".into()));
                }
                mem[d.offset as usize..end].copy_from_slice(&d.bytes);
            }
        }
        // Exports.
        for ex in &module.exports {
            inst.exports.insert(ex.name.clone(), ex.kind.clone());
        }

        self.instances.push(inst);
        let start = module.start;
        self.module_types.push(module.types);
        self.names.insert(name.to_string(), module_idx);

        // Start function.
        if let Some(s) = start {
            let addr = self.instances[module_idx].func_addrs[s as usize];
            self.invoke_addr(addr, &[])?;
        }
        Ok(module_idx)
    }

    /// Registers a *host module*: Rust closures exposed as the function
    /// exports of a module instance named `name`, so later-instantiated
    /// Wasm modules can import them (`(import "name" "fn" (func …))`)
    /// through the exact same typed resolution as module-to-module
    /// imports. Returns the instance index.
    ///
    /// Each closure receives arguments matching its declared
    /// [`FuncType`]; its results are checked against that type after
    /// every call (a mismatch traps — the host is outside the validated
    /// world, so the store re-establishes the invariant dynamically).
    pub fn register_host_module(
        &mut self,
        name: &str,
        funcs: Vec<(String, FuncType, HostFn)>,
    ) -> usize {
        // Same rule as `instantiate`: the store changed shape, so any
        // earlier baseline is stale.
        self.baseline = None;
        let module_idx = self.instances.len();
        let mut inst = ModuleInst::default();
        for (i, (export, ty, f)) in funcs.into_iter().enumerate() {
            let addr = self.funcs.len();
            self.funcs.push(FuncInst {
                ty,
                module: module_idx,
                def: FuncImpl::Host(f),
            });
            inst.func_addrs.push(addr);
            inst.exports.insert(export, ExportKind::Func(i as u32));
        }
        self.instances.push(inst);
        self.module_types.push(Vec::new());
        self.names.insert(name.to_string(), module_idx);
        module_idx
    }

    /// Attaches flat-bytecode compilations (see [`crate::compile`]) to the
    /// defined functions of `instance`: every defined function is
    /// re-pointed from its tree-walked [`FuncDef`] to the bytecode VM
    /// (see [`crate::vm`]), which every later call — by name, by address,
    /// or from other functions — then executes. Returns how many
    /// functions were re-pointed.
    ///
    /// # Errors
    ///
    /// A [`WasmTrap`] when `instance` is unknown, `compiled` has a
    /// different function count than the instance's defined functions,
    /// or a function has no compiled form (the compiler only declines
    /// malformed bodies, which validation rejects). On error no function
    /// is re-pointed.
    pub fn attach_compiled(
        &mut self,
        instance: usize,
        compiled: &crate::compile::CompiledModule,
    ) -> Result<usize, WasmTrap> {
        let inst = self
            .instances
            .get(instance)
            .ok_or_else(|| WasmTrap(format!("no instance {instance}")))?;
        // Defined functions occupy the tail of the func-address list
        // (imports precede them, mirroring the Wasm index space).
        let defined: Vec<FuncAddr> = inst
            .func_addrs
            .iter()
            .copied()
            .filter(|&a| {
                self.funcs[a].module == instance && !matches!(self.funcs[a].def, FuncImpl::Host(_))
            })
            .collect();
        if defined.len() != compiled.funcs.len() {
            return trap(format!(
                "compiled module has {} functions, instance defines {}",
                compiled.funcs.len(),
                defined.len()
            ));
        }
        if let Some(i) = compiled.funcs.iter().position(Option::is_none) {
            return trap(format!("defined function {i} has no compiled form"));
        }
        for (addr, cf) in defined.iter().zip(compiled.funcs.iter().flatten()) {
            self.funcs[*addr].def = FuncImpl::Compiled(cf.clone());
        }
        Ok(defined.len())
    }

    /// Looks up an instantiated module by name.
    pub fn instance_by_name(&self, name: &str) -> Option<usize> {
        self.names.get(name).copied()
    }

    /// Resolves the function export `name` of `instance` to its store
    /// address, usable with [`WasmLinker::invoke_addr`] — the resolve-once
    /// half of a typed call handle.
    pub fn export_func_addr(&self, instance: usize, name: &str) -> Option<FuncAddr> {
        let inst = self.instances.get(instance)?;
        match inst.exports.get(name) {
            Some(ExportKind::Func(fi)) => inst.func_addrs.get(*fi as usize).copied(),
            _ => None,
        }
    }

    /// The type of the function at store address `addr`.
    pub fn func_type(&self, addr: FuncAddr) -> Option<&FuncType> {
        self.funcs.get(addr).map(|f| &f.ty)
    }

    /// Captures the current mutable state (globals, memories, tables) and
    /// fuel limits as the linker's *baseline*, enabling
    /// [`WasmLinker::reset`].
    ///
    /// Call this once, after all modules are instantiated (and their start
    /// functions have run): the baseline then represents the freshly
    /// instantiated program, and resetting to it is equivalent to — but
    /// much cheaper than — re-validating and re-instantiating every
    /// module.
    pub fn seal(&mut self) {
        self.baseline = Some(Baseline {
            globals: self.globals.clone(),
            memories: self.memories.clone(),
            tables: self.tables.clone(),
            max_call_depth: self.max_call_depth,
            max_steps: self.max_steps,
        });
    }

    /// True once [`WasmLinker::seal`] has captured a baseline.
    pub fn is_sealed(&self) -> bool {
        self.baseline.is_some()
    }

    /// Restores all mutable state and the fuel limits to the baseline
    /// captured by [`WasmLinker::seal`]: the linker is indistinguishable
    /// from a fresh instantiation of the same modules, without re-running
    /// validation, import resolution, or data-segment initialisation.
    ///
    /// # Errors
    ///
    /// A [`WasmTrap`] when no baseline was captured.
    pub fn reset(&mut self) -> Result<(), WasmTrap> {
        let base = self
            .baseline
            .as_ref()
            .ok_or_else(|| WasmTrap("reset without a sealed baseline".into()))?;
        self.globals.clone_from(&base.globals);
        self.memories.clone_from(&base.memories);
        self.tables.clone_from(&base.tables);
        self.max_call_depth = base.max_call_depth;
        self.max_steps = base.max_steps;
        self.steps = 0;
        Ok(())
    }

    /// Invokes exported function `name` of `instance` with `args`.
    ///
    /// # Errors
    ///
    /// Returns a [`WasmTrap`] for traps, missing exports, and argument
    /// type mismatches.
    pub fn invoke(
        &mut self,
        instance: usize,
        name: &str,
        args: &[Val],
    ) -> Result<Vec<Val>, WasmTrap> {
        let inst = self
            .instances
            .get(instance)
            .ok_or_else(|| WasmTrap(format!("no instance {instance}")))?;
        let Some(ExportKind::Func(fi)) = inst.exports.get(name) else {
            return trap(format!("no function export {name}"));
        };
        let addr = inst.func_addrs[*fi as usize];
        self.invoke_addr(addr, args)
    }

    /// Invokes the function at store address `addr` directly (no name
    /// lookup), with the same argument checking as [`WasmLinker::invoke`].
    ///
    /// # Errors
    ///
    /// As [`WasmLinker::invoke`], plus a trap for an unknown address.
    pub fn invoke_addr(&mut self, addr: FuncAddr, args: &[Val]) -> Result<Vec<Val>, WasmTrap> {
        let Some(f) = self.funcs.get(addr) else {
            return trap(format!("no function at address {addr}"));
        };
        if f.ty.params.len() != args.len() {
            return trap("argument count mismatch");
        }
        for (a, p) in args.iter().zip(&f.ty.params) {
            if a.ty() != *p {
                return trap("argument type mismatch");
            }
        }
        self.steps = 0;
        self.call_function(addr, args.to_vec(), 0)
    }

    /// Instructions executed by the most recent invocation.
    pub fn last_steps(&self) -> u64 {
        self.steps
    }

    pub(crate) fn call_function(
        &mut self,
        addr: FuncAddr,
        args: Vec<Val>,
        depth: usize,
    ) -> Result<Vec<Val>, WasmTrap> {
        if depth > self.max_call_depth {
            return trap("call stack exhausted");
        }
        let (module, def, nresults) = {
            let f = &self.funcs[addr];
            match &f.def {
                FuncImpl::Wasm(def) => (f.module, def.clone(), f.ty.results.len()),
                FuncImpl::Compiled(cf) => {
                    let (module, cf) = (f.module, cf.clone());
                    return crate::vm::invoke_compiled(self, module, &cf, args, depth);
                }
                FuncImpl::Host(h) => {
                    let h = h.clone();
                    let result_types = f.ty.results.clone();
                    // A host call costs exactly one step of the instruction
                    // budget. When the call arrives through a `call` /
                    // `call_indirect` instruction (depth > 0), that step was
                    // already charged by the dispatching interpreter (the
                    // tree-walker's `exec` or the bytecode VM's call op);
                    // only a *top-level* host invocation, which no
                    // instruction dispatched, charges it here.
                    if depth == 0 {
                        self.steps += 1;
                        if self.steps > self.max_steps {
                            return Err(WasmTrap::fuel_exhausted());
                        }
                    }
                    let results = h(&args)?;
                    // The host lives outside the validated world: re-check
                    // its results against the declared type so a
                    // misbehaving closure cannot corrupt the typed value
                    // stack.
                    if results.len() != result_types.len()
                        || results.iter().zip(&result_types).any(|(v, t)| v.ty() != *t)
                    {
                        return trap(format!(
                            "host function returned {:?}, its type declares {result_types:?}",
                            results.iter().map(Val::ty).collect::<Vec<_>>(),
                        ));
                    }
                    return Ok(results);
                }
            }
        };
        let mut locals = args;
        for l in &def.locals {
            locals.push(Val::zero(*l));
        }
        let mut act = Activation {
            module,
            locals,
            stack: Vec::new(),
            depth,
        };
        // Every outcome completes the call: a branch to the function's
        // own label (the only `Flow::Br` that can reach here) acts like
        // `return`.
        act.exec_seq(self, &def.body)?;
        if act.stack.len() < nresults {
            return trap("function left too few results");
        }
        let results = act.stack.split_off(act.stack.len() - nresults);
        Ok(results)
    }
}

impl Activation {
    fn mem<'l>(&self, linker: &'l mut WasmLinker) -> Result<&'l mut Vec<u8>, WasmTrap> {
        let ma = linker.instances[self.module]
            .mem_addr
            .ok_or_else(|| WasmTrap("no memory".into()))?;
        Ok(&mut linker.memories[ma])
    }

    fn pop(&mut self) -> Result<Val, WasmTrap> {
        self.stack
            .pop()
            .ok_or_else(|| WasmTrap("value stack underflow".into()))
    }

    fn pop_i32(&mut self) -> Result<u32, WasmTrap> {
        match self.pop()? {
            Val::I32(v) => Ok(v),
            other => trap(format!("expected i32, got {other}")),
        }
    }

    fn exec_seq(&mut self, linker: &mut WasmLinker, body: &[WInstr]) -> Result<Flow, WasmTrap> {
        for e in body {
            match self.exec(linker, e)? {
                Flow::Normal => {}
                f => return Ok(f),
            }
        }
        Ok(Flow::Normal)
    }

    #[allow(clippy::too_many_lines)]
    fn exec(&mut self, linker: &mut WasmLinker, e: &WInstr) -> Result<Flow, WasmTrap> {
        linker.steps += 1;
        if linker.steps > linker.max_steps {
            return Err(WasmTrap::fuel_exhausted());
        }
        use WInstr::*;
        match e {
            Unreachable => return trap("unreachable executed"),
            Nop => {}
            Block(bt, body) => return self.exec_block(linker, bt, body),
            Loop(bt, body) => loop {
                let (params, _) = self.resolved_arity(linker, bt)?;
                let base = self.stack.len() - params;
                match self.exec_seq(linker, body)? {
                    Flow::Normal => break,
                    Flow::Br(0) => {
                        // Branch back to the loop start with the params.
                        let keep = self.stack.split_off(self.stack.len() - params);
                        self.stack.truncate(base);
                        self.stack.extend(keep);
                        continue;
                    }
                    Flow::Br(n) => return Ok(Flow::Br(n - 1)),
                    Flow::Return => return Ok(Flow::Return),
                }
            },
            If(bt, t, f) => {
                let c = self.pop_i32()?;
                return self.exec_block(linker, bt, if c != 0 { t } else { f });
            }
            Br(l) => return Ok(Flow::Br(*l)),
            BrIf(l) => {
                if self.pop_i32()? != 0 {
                    return Ok(Flow::Br(*l));
                }
            }
            BrTable(ls, d) => {
                let i = self.pop_i32()? as usize;
                let l = ls.get(i).copied().unwrap_or(*d);
                return Ok(Flow::Br(l));
            }
            Return => return Ok(Flow::Return),
            Call(f) => {
                let addr = linker.instances[self.module].func_addrs[*f as usize];
                self.do_call(linker, addr)?;
            }
            CallIndirect(ti) => {
                let i = self.pop_i32()? as usize;
                let ta = linker.instances[self.module]
                    .table_addr
                    .ok_or_else(|| WasmTrap("no table".into()))?;
                let Some(Some(addr)) = linker.tables[ta].get(i).copied() else {
                    return trap(format!("uninitialised table entry {i}"));
                };
                let want = linker.module_types[self.module][*ti as usize].clone();
                if linker.funcs[addr].ty != want {
                    return trap("indirect call type mismatch");
                }
                self.do_call(linker, addr)?;
            }
            Drop => {
                self.pop()?;
            }
            Select => {
                let c = self.pop_i32()?;
                let b = self.pop()?;
                let a = self.pop()?;
                self.stack.push(if c != 0 { a } else { b });
            }
            LocalGet(i) => {
                let v = self.locals[*i as usize];
                self.stack.push(v);
            }
            LocalSet(i) => {
                let v = self.pop()?;
                self.locals[*i as usize] = v;
            }
            LocalTee(i) => {
                let v = *self
                    .stack
                    .last()
                    .ok_or_else(|| WasmTrap("underflow".into()))?;
                self.locals[*i as usize] = v;
            }
            GlobalGet(i) => {
                let addr = linker.instances[self.module].global_addrs[*i as usize];
                self.stack.push(linker.globals[addr]);
            }
            GlobalSet(i) => {
                let v = self.pop()?;
                let addr = linker.instances[self.module].global_addrs[*i as usize];
                linker.globals[addr] = v;
            }
            Load(t, off) => {
                let base = self.pop_i32()?;
                let raw = num::load(self.mem(linker)?, base.into(), *off, t_size(*t))?;
                self.stack.push(val_of(*t, raw));
            }
            Store(t, off) => {
                let v = self.pop()?;
                let base = self.pop_i32()?;
                num::store(self.mem(linker)?, base.into(), *off, t_size(*t), slot_of(v))?;
            }
            Load8U(off) => {
                let base = self.pop_i32()?;
                let b = num::load(self.mem(linker)?, base.into(), *off, 1)?;
                self.stack.push(Val::I32(b as u32));
            }
            Store8(off) => {
                let v = self.pop_i32()?;
                let base = self.pop_i32()?;
                num::store(self.mem(linker)?, base.into(), *off, 1, v.into())?;
            }
            MemorySize => {
                let pages = (self.mem(linker)?.len() / PAGE) as u32;
                self.stack.push(Val::I32(pages));
            }
            MemoryGrow => {
                let delta = self.pop_i32()?;
                let mem = self.mem(linker)?;
                self.stack.push(Val::I32(memory_grow(mem, delta)));
            }
            I32Const(c) => self.stack.push(Val::I32(*c as u32)),
            I64Const(c) => self.stack.push(Val::I64(*c as u64)),
            F32Const(c) => self.stack.push(Val::F32(*c)),
            F64Const(c) => self.stack.push(Val::F64(*c)),
            IUn(w, op) => {
                let a = self.pop_int(*w)?;
                self.push_int(*w, num::iun(*w, *op, a));
            }
            IBin(w, op) => {
                let b = self.pop_int(*w)?;
                let a = self.pop_int(*w)?;
                let r = num::ibin(*w, *op, a, b)?;
                self.push_int(*w, r);
            }
            ITest(w) => {
                let a = self.pop_int(*w)?;
                self.stack.push(Val::I32(num::itest(*w, a) as u32));
            }
            IRel(w, op) => {
                let b = self.pop_int(*w)?;
                let a = self.pop_int(*w)?;
                self.stack.push(Val::I32(num::irel(*w, *op, a, b) as u32));
            }
            FUn(w, op) => {
                let a = self.pop_float(*w)?;
                self.push_float(*w, num::fun(*w, *op, a));
            }
            FBin(w, op) => {
                let b = self.pop_float(*w)?;
                let a = self.pop_float(*w)?;
                self.push_float(*w, num::fbin(*w, *op, a, b));
            }
            FRel(w, op) => {
                let b = self.pop_float(*w)?;
                let a = self.pop_float(*w)?;
                self.stack.push(Val::I32(num::frel(*w, *op, a, b) as u32));
            }
            I32WrapI64 => {
                let a = self.pop_int(Width::W64)?;
                self.stack.push(Val::I32(a as u32));
            }
            I64ExtendI32(sx) => {
                let a = self.pop_int(Width::W32)?;
                self.stack.push(Val::I64(num::extend(*sx, a)));
            }
            ITruncF(iw, fw, sx) => {
                let a = self.pop_float(*fw)?;
                let r = num::itrunc(*iw, *fw, *sx, a)?;
                self.push_int(*iw, r);
            }
            FConvertI(fw, iw, sx) => {
                let a = self.pop_int(*iw)?;
                self.push_float(*fw, num::fconvert(*fw, *iw, *sx, a));
            }
            F32DemoteF64 => {
                let a = self.pop_float(Width::W64)?;
                self.push_float(Width::W32, num::demote(a));
            }
            F64PromoteF32 => {
                let a = self.pop_float(Width::W32)?;
                self.push_float(Width::W64, num::promote(a));
            }
            IReinterpretF(w) => {
                let a = self.pop_float(*w)?;
                self.push_int(*w, a);
            }
            FReinterpretI(w) => {
                let a = self.pop_int(*w)?;
                self.push_float(*w, a);
            }
        }
        Ok(Flow::Normal)
    }

    /// Runs a `block` body or the taken arm of an `if`. A branch to its
    /// label keeps the block's results and unwinds to the height below
    /// its parameters, as the spec requires.
    fn exec_block(
        &mut self,
        linker: &mut WasmLinker,
        bt: &BlockType,
        body: &[WInstr],
    ) -> Result<Flow, WasmTrap> {
        let (params, results) = self.resolved_arity(linker, bt)?;
        let base = self.stack.len() - params;
        match self.exec_seq(linker, body)? {
            Flow::Br(0) => {
                let keep = self.stack.split_off(self.stack.len() - results);
                self.stack.truncate(base);
                self.stack.extend(keep);
                Ok(Flow::Normal)
            }
            Flow::Br(n) => Ok(Flow::Br(n - 1)),
            flow => Ok(flow),
        }
    }

    fn do_call(&mut self, linker: &mut WasmLinker, addr: FuncAddr) -> Result<(), WasmTrap> {
        let nparams = linker.funcs[addr].ty.params.len();
        if self.stack.len() < nparams {
            return trap("call with too few arguments");
        }
        let args = self.stack.split_off(self.stack.len() - nparams);
        let results = linker.call_function(addr, args, self.depth + 1)?;
        self.stack.extend(results);
        Ok(())
    }

    fn resolved_arity(
        &self,
        linker: &WasmLinker,
        bt: &BlockType,
    ) -> Result<(usize, usize), WasmTrap> {
        Ok(match bt {
            BlockType::Empty => (0, 0),
            BlockType::Value(_) => (0, 1),
            BlockType::Func(i) => {
                let ft = linker.module_types[self.module]
                    .get(*i as usize)
                    .ok_or_else(|| WasmTrap(format!("unknown block type {i}")))?;
                (ft.params.len(), ft.results.len())
            }
        })
    }

    fn pop_int(&mut self, w: Width) -> Result<u64, WasmTrap> {
        match (w, self.pop()?) {
            (Width::W32, Val::I32(v)) => Ok(v as u64),
            (Width::W64, Val::I64(v)) => Ok(v),
            (_, other) => trap(format!("expected integer, got {other}")),
        }
    }

    fn push_int(&mut self, w: Width, v: u64) {
        match w {
            Width::W32 => self.stack.push(Val::I32(v as u32)),
            Width::W64 => self.stack.push(Val::I64(v)),
        }
    }

    /// Pops a float of width `w` as its bit pattern.
    fn pop_float(&mut self, w: Width) -> Result<u64, WasmTrap> {
        match (w, self.pop()?) {
            (Width::W32, v @ Val::F32(_)) | (Width::W64, v @ Val::F64(_)) => Ok(slot_of(v)),
            (_, other) => trap(format!("expected float, got {other}")),
        }
    }

    fn push_float(&mut self, w: Width, bits: u64) {
        let t = match w {
            Width::W32 => ValType::F32,
            Width::W64 => ValType::F64,
        };
        self.stack.push(val_of(t, bits));
    }
}

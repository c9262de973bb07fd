//! The WebAssembly interpreter: a tree-walking evaluator over validated
//! modules, with a multi-module store and typed import resolution.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::ast::*;

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

fn trap<T>(msg: impl Into<String>) -> Result<T, WasmTrap> {
    Err(WasmTrap(msg.into()))
}

/// One 64 KiB Wasm page.
pub const PAGE: usize = 65536;

/// The most pages a 32-bit memory can have: 65536 × 64 KiB = 4 GiB.
const MAX_PAGES: u32 = 65536;

/// `memory.grow` on `mem`: grows it by `delta` pages and returns the old
/// size in pages, or returns `-1` (`u32::MAX`) and leaves `mem` as it was
/// when the result would exceed [`MAX_PAGES`]. Shared by both tiers so
/// they agree on every `delta`.
pub(crate) fn memory_grow(mem: &mut Vec<u8>, delta: u32) -> u32 {
    let old = (mem.len() / PAGE) as u32;
    match old.checked_add(delta) {
        Some(new) if new <= MAX_PAGES => {
            mem.resize(new as usize * PAGE, 0);
            old
        }
        _ => u32::MAX,
    }
}

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
    /// defined functions of `instance`: each function with a compiled form
    /// is re-pointed from its tree-walked [`FuncDef`] to the bytecode VM
    /// (see [`crate::vm`]), which every later call — by name, by address,
    /// or from other functions — then executes. Functions the compiler
    /// declined (`None` entries) keep their tree-walking implementation,
    /// so the two tiers interoperate call-by-call. Returns how many
    /// functions were re-pointed.
    ///
    /// # Errors
    ///
    /// A [`WasmTrap`] when `instance` is unknown or `compiled` has a
    /// different function count than the instance's defined functions.
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
        let mut attached = 0;
        for (addr, cf) in defined.into_iter().zip(&compiled.funcs) {
            if let Some(cf) = cf {
                self.funcs[addr].def = FuncImpl::Compiled(cf.clone());
                attached += 1;
            }
        }
        Ok(attached)
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
        match act.exec_seq(self, &def.body)? {
            Flow::Normal | Flow::Return => {}
            Flow::Br(_) => return trap("br escaped function body"),
        }
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
            Block(bt, body) => {
                let (_, results) = self.resolved_arity(linker, bt)?;
                let base = self.stack.len();
                match self.exec_seq(linker, body)? {
                    Flow::Normal => {}
                    Flow::Br(0) => {
                        // Keep the top `results`, discard down to base -
                        // params… params were already consumed by the body.
                        let keep = self.stack.split_off(self.stack.len() - results);
                        self.stack.truncate(base_minus(base, 0));
                        self.stack.extend(keep);
                    }
                    Flow::Br(n) => return Ok(Flow::Br(n - 1)),
                    Flow::Return => return Ok(Flow::Return),
                }
            }
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
                let (_, results) = self.resolved_arity(linker, bt)?;
                let base = self.stack.len();
                let body = if c != 0 { t } else { f };
                match self.exec_seq(linker, body)? {
                    Flow::Normal => {}
                    Flow::Br(0) => {
                        let keep = self.stack.split_off(self.stack.len() - results);
                        self.stack.truncate(base_minus(base, 0));
                        self.stack.extend(keep);
                    }
                    Flow::Br(n) => return Ok(Flow::Br(n - 1)),
                    Flow::Return => return Ok(Flow::Return),
                }
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
                let base = self.pop_i32()? as usize;
                let addr = base + *off as usize;
                let bytes = t_size(*t);
                let mem = self.mem(linker)?;
                if addr + bytes > mem.len() {
                    return trap("out of bounds memory access");
                }
                let mut buf = [0u8; 8];
                buf[..bytes].copy_from_slice(&mem[addr..addr + bytes]);
                let raw = u64::from_le_bytes(buf);
                self.stack.push(match t {
                    ValType::I32 => Val::I32(raw as u32),
                    ValType::I64 => Val::I64(raw),
                    ValType::F32 => Val::F32(f32::from_bits(raw as u32)),
                    ValType::F64 => Val::F64(f64::from_bits(raw)),
                });
            }
            Store(t, off) => {
                let v = self.pop()?;
                let base = self.pop_i32()? as usize;
                let addr = base + *off as usize;
                let bytes = t_size(*t);
                let raw = match v {
                    Val::I32(x) => x as u64,
                    Val::I64(x) => x,
                    Val::F32(x) => x.to_bits() as u64,
                    Val::F64(x) => x.to_bits(),
                };
                let mem = self.mem(linker)?;
                if addr + bytes > mem.len() {
                    return trap("out of bounds memory access");
                }
                mem[addr..addr + bytes].copy_from_slice(&raw.to_le_bytes()[..bytes]);
            }
            Load8U(off) => {
                let base = self.pop_i32()? as usize;
                let addr = base + *off as usize;
                let mem = self.mem(linker)?;
                if addr >= mem.len() {
                    return trap("out of bounds memory access");
                }
                let b = mem[addr];
                self.stack.push(Val::I32(b as u32));
            }
            Store8(off) => {
                let v = self.pop_i32()?;
                let base = self.pop_i32()? as usize;
                let addr = base + *off as usize;
                let mem = self.mem(linker)?;
                if addr >= mem.len() {
                    return trap("out of bounds memory access");
                }
                mem[addr] = v as u8;
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
                let r = match (w, op) {
                    (Width::W32, IUnOp::Clz) => (a as u32).leading_zeros() as u64,
                    (Width::W32, IUnOp::Ctz) => (a as u32).trailing_zeros() as u64,
                    (Width::W32, IUnOp::Popcnt) => (a as u32).count_ones() as u64,
                    (Width::W64, IUnOp::Clz) => a.leading_zeros() as u64,
                    (Width::W64, IUnOp::Ctz) => a.trailing_zeros() as u64,
                    (Width::W64, IUnOp::Popcnt) => a.count_ones() as u64,
                };
                self.push_int(*w, r);
            }
            IBin(w, op) => {
                let b = self.pop_int(*w)?;
                let a = self.pop_int(*w)?;
                let r = ibin(*w, *op, a, b)?;
                self.push_int(*w, r);
            }
            ITest(w) => {
                let a = self.pop_int(*w)?;
                self.stack.push(Val::I32((a == 0) as u32));
            }
            IRel(w, op) => {
                let b = self.pop_int(*w)?;
                let a = self.pop_int(*w)?;
                self.stack.push(Val::I32(irel(*w, *op, a, b) as u32));
            }
            FUn(w, op) => {
                let a = self.pop_float(*w)?;
                let r = match op {
                    FUnOp::Abs => a.abs(),
                    FUnOp::Neg => -a,
                    FUnOp::Sqrt => a.sqrt(),
                    FUnOp::Ceil => a.ceil(),
                    FUnOp::Floor => a.floor(),
                    FUnOp::Trunc => a.trunc(),
                    FUnOp::Nearest => {
                        let r = a.round();
                        if (a - a.trunc()).abs() == 0.5 && r % 2.0 != 0.0 {
                            r - a.signum()
                        } else {
                            r
                        }
                    }
                };
                self.push_float(*w, r);
            }
            FBin(w, op) => {
                let b = self.pop_float(*w)?;
                let a = self.pop_float(*w)?;
                let r = match op {
                    FBinOp::Add => a + b,
                    FBinOp::Sub => a - b,
                    FBinOp::Mul => a * b,
                    FBinOp::Div => a / b,
                    FBinOp::Min => a.min(b),
                    FBinOp::Max => a.max(b),
                    FBinOp::Copysign => a.copysign(b),
                };
                self.push_float(*w, r);
            }
            FRel(w, op) => {
                let b = self.pop_float(*w)?;
                let a = self.pop_float(*w)?;
                let r = match op {
                    FRelOp::Eq => a == b,
                    FRelOp::Ne => a != b,
                    FRelOp::Lt => a < b,
                    FRelOp::Gt => a > b,
                    FRelOp::Le => a <= b,
                    FRelOp::Ge => a >= b,
                };
                self.stack.push(Val::I32(r as u32));
            }
            I32WrapI64 => {
                let a = self.pop_int(Width::W64)?;
                self.stack.push(Val::I32(a as u32));
            }
            I64ExtendI32(sx) => {
                let a = self.pop_int(Width::W32)?;
                let r = match sx {
                    Sx::S => a as u32 as i32 as i64 as u64,
                    Sx::U => a as u32 as u64,
                };
                self.stack.push(Val::I64(r));
            }
            ITruncF(iw, fw, sx) => {
                let a = self.pop_float(*fw)?;
                if a.is_nan() {
                    return trap("invalid conversion to integer");
                }
                let t = a.trunc();
                let r = match (iw, sx) {
                    (Width::W32, Sx::S) => {
                        if t < i32::MIN as f64 || t > i32::MAX as f64 {
                            return trap("integer overflow");
                        }
                        t as i32 as u32 as u64
                    }
                    (Width::W32, Sx::U) => {
                        if t < 0.0 || t > u32::MAX as f64 {
                            return trap("integer overflow");
                        }
                        t as u32 as u64
                    }
                    (Width::W64, Sx::S) => {
                        if t < i64::MIN as f64 || t >= i64::MAX as f64 {
                            return trap("integer overflow");
                        }
                        t as i64 as u64
                    }
                    (Width::W64, Sx::U) => {
                        if t < 0.0 || t >= u64::MAX as f64 {
                            return trap("integer overflow");
                        }
                        t as u64
                    }
                };
                self.push_int(*iw, r);
            }
            FConvertI(fw, iw, sx) => {
                let a = self.pop_int(*iw)?;
                let x = match (iw, sx) {
                    (Width::W32, Sx::S) => a as u32 as i32 as f64,
                    (Width::W32, Sx::U) => a as u32 as f64,
                    (Width::W64, Sx::S) => a as i64 as f64,
                    (Width::W64, Sx::U) => a as f64,
                };
                self.push_float(*fw, x);
            }
            F32DemoteF64 => {
                let a = self.pop_float(Width::W64)?;
                self.stack.push(Val::F32(a as f32));
            }
            F64PromoteF32 => {
                let a = self.pop_float(Width::W32)?;
                self.stack.push(Val::F64(a));
            }
            IReinterpretF(w) => {
                let a = self.pop_float(*w)?;
                match w {
                    Width::W32 => self.stack.push(Val::I32((a as f32).to_bits())),
                    Width::W64 => self.stack.push(Val::I64(a.to_bits())),
                }
            }
            FReinterpretI(w) => {
                let a = self.pop_int(*w)?;
                match w {
                    Width::W32 => self.stack.push(Val::F32(f32::from_bits(a as u32))),
                    Width::W64 => self.stack.push(Val::F64(f64::from_bits(a))),
                }
            }
        }
        Ok(Flow::Normal)
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

    fn pop_float(&mut self, w: Width) -> Result<f64, WasmTrap> {
        match (w, self.pop()?) {
            (Width::W32, Val::F32(v)) => Ok(v as f64),
            (Width::W64, Val::F64(v)) => Ok(v),
            (_, other) => trap(format!("expected float, got {other}")),
        }
    }

    fn push_float(&mut self, w: Width, v: f64) {
        match w {
            Width::W32 => self.stack.push(Val::F32(v as f32)),
            Width::W64 => self.stack.push(Val::F64(v)),
        }
    }
}

fn base_minus(base: usize, n: usize) -> usize {
    base.saturating_sub(n)
}

pub(crate) fn t_size(t: ValType) -> usize {
    match t {
        ValType::I32 | ValType::F32 => 4,
        ValType::I64 | ValType::F64 => 8,
    }
}

pub(crate) fn ibin(w: Width, op: IBinOp, a: u64, b: u64) -> Result<u64, WasmTrap> {
    let mask = |v: u64| {
        if matches!(w, Width::W32) {
            v & 0xFFFF_FFFF
        } else {
            v
        }
    };
    let r = match (w, op) {
        (Width::W32, op) => {
            let (x, y) = (a as u32, b as u32);
            match op {
                IBinOp::Add => x.wrapping_add(y) as u64,
                IBinOp::Sub => x.wrapping_sub(y) as u64,
                IBinOp::Mul => x.wrapping_mul(y) as u64,
                IBinOp::Div(Sx::U) => {
                    if y == 0 {
                        return trap("integer divide by zero");
                    }
                    (x / y) as u64
                }
                IBinOp::Div(Sx::S) => {
                    let (x, y) = (x as i32, y as i32);
                    if y == 0 {
                        return trap("integer divide by zero");
                    }
                    if x == i32::MIN && y == -1 {
                        return trap("integer overflow");
                    }
                    (x / y) as u32 as u64
                }
                IBinOp::Rem(Sx::U) => {
                    if y == 0 {
                        return trap("integer divide by zero");
                    }
                    (x % y) as u64
                }
                IBinOp::Rem(Sx::S) => {
                    let (x, y) = (x as i32, y as i32);
                    if y == 0 {
                        return trap("integer divide by zero");
                    }
                    x.wrapping_rem(y) as u32 as u64
                }
                IBinOp::And => (x & y) as u64,
                IBinOp::Or => (x | y) as u64,
                IBinOp::Xor => (x ^ y) as u64,
                IBinOp::Shl => x.wrapping_shl(y) as u64,
                IBinOp::Shr(Sx::U) => x.wrapping_shr(y) as u64,
                IBinOp::Shr(Sx::S) => (x as i32).wrapping_shr(y) as u32 as u64,
                IBinOp::Rotl => x.rotate_left(y % 32) as u64,
                IBinOp::Rotr => x.rotate_right(y % 32) as u64,
            }
        }
        (Width::W64, op) => {
            let (x, y) = (a, b);
            match op {
                IBinOp::Add => x.wrapping_add(y),
                IBinOp::Sub => x.wrapping_sub(y),
                IBinOp::Mul => x.wrapping_mul(y),
                IBinOp::Div(Sx::U) => {
                    if y == 0 {
                        return trap("integer divide by zero");
                    }
                    x / y
                }
                IBinOp::Div(Sx::S) => {
                    let (x, y) = (x as i64, y as i64);
                    if y == 0 {
                        return trap("integer divide by zero");
                    }
                    if x == i64::MIN && y == -1 {
                        return trap("integer overflow");
                    }
                    (x / y) as u64
                }
                IBinOp::Rem(Sx::U) => {
                    if y == 0 {
                        return trap("integer divide by zero");
                    }
                    x % y
                }
                IBinOp::Rem(Sx::S) => {
                    let (x, y) = (x as i64, y as i64);
                    if y == 0 {
                        return trap("integer divide by zero");
                    }
                    x.wrapping_rem(y) as u64
                }
                IBinOp::And => x & y,
                IBinOp::Or => x | y,
                IBinOp::Xor => x ^ y,
                IBinOp::Shl => x.wrapping_shl(b as u32),
                IBinOp::Shr(Sx::U) => x.wrapping_shr(b as u32),
                IBinOp::Shr(Sx::S) => (x as i64).wrapping_shr(b as u32) as u64,
                IBinOp::Rotl => x.rotate_left((b % 64) as u32),
                IBinOp::Rotr => x.rotate_right((b % 64) as u32),
            }
        }
    };
    Ok(mask(r))
}

pub(crate) fn irel(w: Width, op: IRelOp, a: u64, b: u64) -> bool {
    use std::cmp::Ordering::*;
    let cmp = |sx: Sx| match (w, sx) {
        (Width::W32, Sx::U) => (a as u32).cmp(&(b as u32)),
        (Width::W32, Sx::S) => (a as u32 as i32).cmp(&(b as u32 as i32)),
        (Width::W64, Sx::U) => a.cmp(&b),
        (Width::W64, Sx::S) => (a as i64).cmp(&(b as i64)),
    };
    match op {
        IRelOp::Eq => {
            if matches!(w, Width::W32) {
                (a as u32) == (b as u32)
            } else {
                a == b
            }
        }
        IRelOp::Ne => {
            if matches!(w, Width::W32) {
                (a as u32) != (b as u32)
            } else {
                a != b
            }
        }
        IRelOp::Lt(s) => cmp(s) == Less,
        IRelOp::Gt(s) => cmp(s) == Greater,
        IRelOp::Le(s) => cmp(s) != Greater,
        IRelOp::Ge(s) => cmp(s) != Less,
    }
}

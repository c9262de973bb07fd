//! The RichWasm → Wasm compiler (paper §6).
//!
//! Lowering is whole-program ([`lower_modules`]): the shared function table's
//! layout and the set of possible indirect-call shapes must be known
//! globally. Each RichWasm module becomes one Wasm module importing the
//! generated runtime's memory, table, `malloc` and `free`.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use richwasm::env::{KindCtx, ModuleEnv, TypeBound};
use richwasm::sizing::size_of_type;
use richwasm::syntax as rw;
use richwasm::syntax::{Func as RwFunc, GlobalKind, HeapType, Pretype, Qual};
use richwasm::typecheck::{check_function_body, check_module_decls, push_telescope, InstrInfo};
use richwasm_wasm::ast as w;
use richwasm_wasm::ast::{BlockType, ExportKind, FuncType, ImportKind, ValType, WInstr, Width};

use crate::error::LowerError;
use crate::layout::{
    byte_size, flatten, layout_slots, plan, plan_is_identity, resolve_size, slots_for_bits,
    val_slots, Seg,
};
use crate::runtime::runtime_module;

/// The name under which the generated runtime module must be
/// instantiated.
pub const RUNTIME_NAME: &str = "rw_runtime";

/// The whole-program part of lowering, computed once per module set: the
/// shared function table's layout (every module's entries concatenated in
/// instantiation order), each module's base offset into it, and the
/// table's entries grouped by callee type.
///
/// Splitting the plan out of [`lower_modules_with_plan`] makes the
/// whole-program analysis a reusable artifact: a compile-once/run-many
/// driver can compute it alongside the checker's [`ModuleEnv`]s and keep
/// both for the lifetime of the compiled program.
#[derive(Debug, Clone, Default)]
pub struct LinkPlan {
    callee_types: Vec<CalleeType>,
    table_len: u32,
    table_bases: Vec<u32>,
}

/// One distinct callee type of the shared table and the global indices
/// of its entries, in table order.
type CalleeType = (rw::FunType, Vec<u32>);

impl LinkPlan {
    /// Computes the shared table layout for `modules` (in instantiation
    /// order — the same order they must later be lowered in).
    pub fn compute(modules: &[(String, rw::Module)]) -> LinkPlan {
        let mut callee_types: Vec<CalleeType> = Vec::new();
        let mut by_type: HashMap<&rw::FunType, usize> = HashMap::new();
        let mut table_bases = Vec::new();
        let mut total = 0u32;
        for (_, m) in modules {
            table_bases.push(total);
            for &fi in &m.table.entries {
                let ty = m.funcs[fi as usize].ty();
                let group = *by_type.entry(ty).or_insert_with(|| {
                    callee_types.push((ty.clone(), Vec::new()));
                    callee_types.len() - 1
                });
                callee_types[group].1.push(total);
                total += 1;
            }
        }
        LinkPlan {
            callee_types,
            table_len: total,
            table_bases,
        }
    }

    /// Total number of shared-table slots across all modules.
    pub fn table_len(&self) -> u32 {
        self.table_len
    }

    /// Number of modules the plan was computed over.
    pub fn module_count(&self) -> usize {
        self.table_bases.len()
    }
}

/// Lowers a set of RichWasm modules together. The result starts with
/// the runtime module (named [`RUNTIME_NAME`]) followed by the lowered
/// modules in the order of `modules` — instantiate them in exactly this
/// order.
///
/// Checks every module's declarations first, then lowers the set through
/// [`lower_modules_with_plan`], which checks each function body once.
///
/// # Errors
///
/// Type errors (lowering is type-directed) and unresolvable size bounds
/// are reported as [`LowerError`].
pub fn lower_modules(
    modules: &[(String, rw::Module)],
) -> Result<Vec<(String, w::Module)>, LowerError> {
    let envs = modules
        .iter()
        .enumerate()
        .map(|(module, (_, m))| {
            check_module_decls(m).map_err(|error| LowerError::TypeCheck { module, error })
        })
        .collect::<Result<Vec<_>, _>>()?;
    lower_modules_with_plan(modules, &envs, &LinkPlan::compute(modules))
}

/// Lowers modules given their [`ModuleEnv`]s and a precomputed
/// whole-program [`LinkPlan`]. See [`lower_modules_timed`].
///
/// # Errors
///
/// As [`lower_modules_timed`].
pub fn lower_modules_with_plan(
    modules: &[(String, rw::Module)],
    envs: &[ModuleEnv],
    plan: &LinkPlan,
) -> Result<Vec<(String, w::Module)>, LowerError> {
    lower_modules_timed(modules, envs, plan).map(|(out, _)| out)
}

/// Lowers modules given their [`ModuleEnv`]s (from
/// [`check_module_decls`] or [`richwasm::typecheck::check_module`]) and a
/// precomputed whole-program [`LinkPlan`]. This is the innermost entry
/// point. The only static analysis it runs is one
/// [`check_function_body`] per function body and per allocating global
/// initialiser, just before lowering it: lowering reads that check's
/// trace, and drops it once the body is lowered.
///
/// Returns the lowered modules (see [`lower_modules`]) and the time
/// spent in those checks, which a caller can report as type checking.
///
/// # Errors
///
/// [`LowerError::TypeCheck`] for the first body that fails its check,
/// [`LowerError::Internal`] when the envs or the plan do not match the
/// module set, plus the usual type-directed lowering failures.
pub fn lower_modules_timed(
    modules: &[(String, rw::Module)],
    envs: &[ModuleEnv],
    plan: &LinkPlan,
) -> Result<(Vec<(String, w::Module)>, Duration), LowerError> {
    if modules.len() != envs.len() {
        return Err(LowerError::Internal(format!(
            "{} modules but {} envs",
            modules.len(),
            envs.len()
        )));
    }
    if modules.len() != plan.module_count() {
        return Err(LowerError::Internal(format!(
            "{} modules but the link plan covers {}",
            modules.len(),
            plan.module_count()
        )));
    }

    let mut check_time = Duration::ZERO;
    let mut out = vec![(RUNTIME_NAME.to_string(), runtime_module(plan.table_len()))];
    for (mi, (name, m)) in modules.iter().enumerate() {
        let mut check = |ty: &rw::FunType, locals: &[rw::Size], body: &[rw::Instr]| {
            let t0 = Instant::now();
            let trace = check_function_body(&envs[mi], ty, locals, body)
                .map_err(|error| LowerError::TypeCheck { module: mi, error });
            check_time += t0.elapsed();
            trace
        };
        let lowered = lower_module(
            m,
            &envs[mi],
            plan.table_bases[mi],
            &plan.callee_types,
            &mut check,
        )?;
        out.push((name.clone(), lowered));
    }
    Ok((out, check_time))
}

fn lower_module(
    m: &rw::Module,
    env: &ModuleEnv,
    table_base: u32,
    callee_types: &[CalleeType],
    // Checks one body against its type and returns the trace to lower it
    // from.
    check: &mut impl FnMut(
        &rw::FunType,
        &[rw::Size],
        &[rw::Instr],
    ) -> Result<Vec<InstrInfo>, LowerError>,
) -> Result<w::Module, LowerError> {
    let mut wm = w::Module::default();

    // Runtime imports: malloc, free, memory, table.
    let malloc_t = wm.intern_type(FuncType {
        params: vec![ValType::I32],
        results: vec![ValType::I32],
    });
    let free_t = wm.intern_type(FuncType {
        params: vec![ValType::I32],
        results: vec![],
    });
    wm.imports.push(w::Import {
        module: RUNTIME_NAME.into(),
        name: "malloc".into(),
        kind: ImportKind::Func(malloc_t),
    });
    wm.imports.push(w::Import {
        module: RUNTIME_NAME.into(),
        name: "free".into(),
        kind: ImportKind::Func(free_t),
    });
    wm.imports.push(w::Import {
        module: RUNTIME_NAME.into(),
        name: "mem".into(),
        kind: ImportKind::Memory(1),
    });
    wm.imports.push(w::Import {
        module: RUNTIME_NAME.into(),
        name: "tab".into(),
        kind: ImportKind::Table(1),
    });
    let malloc_idx = 0u32;
    let free_idx = 1u32;

    // Function index mapping: imports first (after malloc/free), then
    // defined functions.
    let n_rw_imports = m
        .funcs
        .iter()
        .filter(|f| matches!(f, RwFunc::Imported { .. }))
        .count() as u32;
    let defined_base = 2 + n_rw_imports;
    let mut rw2wasm = Vec::with_capacity(m.funcs.len());
    let mut import_seen = 0u32;
    let mut defined_seen = 0u32;
    for f in &m.funcs {
        match f {
            RwFunc::Imported {
                module, name, ty, ..
            } => {
                let sig = lower_signature(ty)?;
                let ti = wm.intern_type(sig);
                wm.imports.push(w::Import {
                    module: module.clone(),
                    name: name.clone(),
                    kind: ImportKind::Func(ti),
                });
                rw2wasm.push(2 + import_seen);
                import_seen += 1;
            }
            RwFunc::Defined { .. } => {
                rw2wasm.push(defined_base + defined_seen);
                defined_seen += 1;
            }
        }
    }

    // Globals: one Wasm global per layout slot (natural types).
    // Allocating initialisers (paper Fig. 2 allows instruction-sequence
    // initialisers) are compiled into per-global init functions driven by
    // a Wasm `start` function; the globals themselves start zeroed.
    let ctx0 = KindCtx::new();
    let mut global_map: Vec<(u32, Vec<ValType>)> = Vec::new();
    let mut deferred_inits: Vec<(usize, Vec<rw::Instr>, rw::Pretype)> = Vec::new();
    let mut next_global = 0u32;
    for (gi, g) in m.globals.iter().enumerate() {
        let layout = flatten(&ctx0, &g.ty().clone().with_qual(Qual::Unr))?;
        match &g.kind {
            GlobalKind::Defined { init, ty, .. } => match eval_const_init(init) {
                Some(v) => {
                    let consts = value_consts(&v);
                    if consts.len() != layout.len() {
                        return Err(LowerError::Internal("global layout mismatch".into()));
                    }
                    for (t, c) in layout.iter().zip(consts) {
                        wm.globals.push(w::GlobalDef {
                            ty: *t,
                            mutable: true,
                            init: c,
                        });
                    }
                }
                None => {
                    for t in &layout {
                        wm.globals.push(w::GlobalDef {
                            ty: *t,
                            mutable: true,
                            init: zero_const(*t),
                        });
                    }
                    deferred_inits.push((gi, init.clone(), ty.clone()));
                }
            },
            GlobalKind::Imported { .. } => {
                return Err(LowerError::Internal(
                    "imported globals are not supported by the lowering (use exported \
                     accessor functions)"
                        .into(),
                ));
            }
        }
        global_map.push((next_global, layout.clone()));
        next_global += layout.len() as u32;
    }

    // Table element segment (into the imported shared table).
    if !m.table.entries.is_empty() {
        wm.elems.push(w::ElemSegment {
            offset: table_base,
            funcs: m
                .table
                .entries
                .iter()
                .map(|&fi| rw2wasm[fi as usize])
                .collect(),
        });
    }

    // Exports + function bodies.
    for (fi, f) in m.funcs.iter().enumerate() {
        for e in f.exports() {
            wm.exports.push(w::Export {
                name: e.clone(),
                kind: ExportKind::Func(rw2wasm[fi]),
            });
        }
        if let RwFunc::Defined {
            ty, locals, body, ..
        } = f
        {
            let trace = check(ty, locals, body)?;
            let def = lower_function(
                env,
                ty,
                locals,
                body,
                &trace,
                &mut wm,
                Shared {
                    table_base,
                    callee_types,
                    rw2wasm: &rw2wasm,
                    globals: &global_map,
                    malloc_idx,
                    free_idx,
                },
            )?;
            wm.funcs.push(def);
        }
    }

    // Allocating global initialisers: one function per global plus a
    // start function that calls them and writes the global slots.
    if !deferred_inits.is_empty() {
        let mut start_body = Vec::new();
        for (gi, init, pty) in &deferred_inits {
            let ity = rw::FunType::mono(vec![], vec![pty.clone().with_qual(Qual::Unr)]);
            let trace = check(&ity, &[], init)?;
            let def = lower_function(
                env,
                &ity,
                &[],
                init,
                &trace,
                &mut wm,
                Shared {
                    table_base,
                    callee_types,
                    rw2wasm: &rw2wasm,
                    globals: &global_map,
                    malloc_idx,
                    free_idx,
                },
            )?;
            let init_idx = 2 + n_rw_imports + wm.funcs.len() as u32;
            wm.funcs.push(def);
            start_body.push(WInstr::Call(init_idx));
            let (base, layout) = &global_map[*gi];
            for k in (0..layout.len() as u32).rev() {
                start_body.push(WInstr::GlobalSet(base + k));
            }
        }
        let start_t = wm.intern_type(FuncType::default());
        let start_idx = 2 + n_rw_imports + wm.funcs.len() as u32;
        wm.funcs.push(w::FuncDef {
            type_idx: start_t,
            locals: vec![],
            body: start_body,
        });
        wm.start = Some(start_idx);
    }
    Ok(wm)
}

fn lower_signature(ty: &rw::FunType) -> Result<FuncType, LowerError> {
    let mut ctx = KindCtx::new();
    let _t = push_telescope(&mut ctx, &ty.quants);
    let mut params = Vec::new();
    for p in &ty.arrow.params {
        params.extend(flatten(&ctx, p)?);
    }
    let mut results = Vec::new();
    for r in &ty.arrow.results {
        results.extend(flatten(&ctx, r)?);
    }
    Ok(FuncType { params, results })
}

/// Direct constants become Wasm constant initialisers; anything else is
/// deferred to the start function.
fn eval_const_init(init: &[rw::Instr]) -> Option<rw::Value> {
    match init {
        [rw::Instr::Val(v)] => Some(v.clone()),
        _ => None,
    }
}

fn zero_const(t: ValType) -> WInstr {
    match t {
        ValType::I32 => WInstr::I32Const(0),
        ValType::I64 => WInstr::I64Const(0),
        ValType::F32 => WInstr::F32Const(0.0),
        ValType::F64 => WInstr::F64Const(0.0),
    }
}

fn value_consts(v: &rw::Value) -> Vec<WInstr> {
    match v {
        rw::Value::Unit | rw::Value::Cap | rw::Value::Own => vec![],
        rw::Value::Num(nt, bits) => vec![match nt {
            rw::NumType::I32 | rw::NumType::U32 => WInstr::I32Const(*bits as u32 as i32),
            rw::NumType::I64 | rw::NumType::U64 => WInstr::I64Const(*bits as i64),
            rw::NumType::F32 => WInstr::F32Const(f32::from_bits(*bits as u32)),
            rw::NumType::F64 => WInstr::F64Const(f64::from_bits(*bits)),
        }],
        rw::Value::Prod(vs) => vs.iter().flat_map(value_consts).collect(),
        rw::Value::Fold(v) | rw::Value::MemPack(_, v) => value_consts(v),
        rw::Value::Ref(_) | rw::Value::Ptr(_) | rw::Value::CodeRef { .. } => {
            unreachable!("not source constants")
        }
    }
}

/// Whole-program references shared by all function lowerings.
#[derive(Clone, Copy)]
struct Shared<'a> {
    table_base: u32,
    callee_types: &'a [CalleeType],
    rw2wasm: &'a [u32],
    globals: &'a [(u32, Vec<ValType>)],
    malloc_idx: u32,
    free_idx: u32,
}

/// One callee shape of an indirect call site: the callee's Wasm
/// signature, the coercions to and from it, and the global table indices
/// of the entries that share it.
struct Shape {
    arg_plan: Vec<Seg>,
    res_plan: Vec<Seg>,
    sig_idx: u32,
    entries: Vec<u32>,
}

struct FnCx<'a> {
    env: &'a ModuleEnv,
    ctx: KindCtx,
    trace: &'a [InstrInfo],
    cursor: usize,
    sh: Shared<'a>,
    wm: &'a mut w::Module,
    // Local layout.
    slot_map: Vec<(u32, u32)>, // rw local -> (first wasm slot local, count)
    tmp64: u32,
    pool_next: u32,
    pool_high: u32,
    // Label bookkeeping.
    rw_labels: Vec<u32>,
    wdepth: u32,
}

#[allow(clippy::too_many_arguments)]
fn lower_function(
    env: &ModuleEnv,
    ty: &rw::FunType,
    local_sizes: &[rw::Size],
    body: &[rw::Instr],
    trace: &[InstrInfo],
    wm: &mut w::Module,
    sh: Shared<'_>,
) -> Result<w::FuncDef, LowerError> {
    let mut ctx = KindCtx::new();
    let _t = push_telescope(&mut ctx, &ty.quants);

    // Wasm signature.
    let mut params = Vec::new();
    let mut param_layouts = Vec::new();
    for p in &ty.arrow.params {
        let l = flatten(&ctx, p)?;
        params.extend(l.iter().copied());
        param_layouts.push(l);
    }
    let mut results = Vec::new();
    for r in &ty.arrow.results {
        results.extend(flatten(&ctx, r)?);
    }
    let type_idx = wm.intern_type(FuncType {
        params: params.clone(),
        results,
    });

    // Local slot layout: every RichWasm local becomes ⌈size/32⌉ i32 slots.
    let n_params = params.len() as u32;
    let mut slot_map = Vec::new();
    let mut next = n_params;
    for p in &ty.arrow.params {
        let bits =
            size_of_type(&ctx, p).map_err(|e| LowerError::Internal(format!("size of {p}: {e}")))?;
        let bits = if bits.is_closed() {
            bits.eval_closed().expect("closed")
        } else {
            resolve_size(&ctx, &bits)?
        };
        let count = slots_for_bits(bits) as u32;
        slot_map.push((next, count));
        next += count;
    }
    for sz in local_sizes {
        let bits = resolve_size(&ctx, sz)?;
        let count = slots_for_bits(bits) as u32;
        slot_map.push((next, count));
        next += count;
    }
    let slot_total = next - n_params;
    let tmp64 = n_params + slot_total;
    let pool_base = tmp64 + 1;

    let mut cx = FnCx {
        env,
        ctx,
        trace,
        cursor: 0,
        sh,
        wm,
        slot_map,
        tmp64,
        pool_next: pool_base,
        pool_high: pool_base,
        rw_labels: Vec::new(),
        wdepth: 0,
    };

    // Prologue: move flattened params into their slot locals.
    let mut code = Vec::new();
    let mut wp = 0u32;
    for (i, l) in param_layouts.iter().enumerate() {
        // Push the param values back onto the stack, then spill them.
        for (k, _) in l.iter().enumerate() {
            code.push(WInstr::LocalGet(wp + k as u32));
        }
        let base = cx.slot_map[i].0;
        cx.emit_spill(l, base, &mut code);
        wp += l.len() as u32;
    }

    for e in body {
        cx.lower_instr(e, &mut code)?;
    }

    if cx.cursor != trace.len() {
        return Err(LowerError::Internal(format!(
            "trace misalignment: consumed {} of {} entries",
            cx.cursor,
            trace.len()
        )));
    }

    let mut locals = vec![ValType::I32; slot_total as usize];
    locals.push(ValType::I64); // tmp64
    locals.extend(vec![ValType::I32; (cx.pool_high - pool_base) as usize]);
    Ok(w::FuncDef {
        type_idx,
        locals,
        body: code,
    })
}

impl<'a> FnCx<'a> {
    // ------------------------------------------------------------------
    // Scratch pool (stack-disciplined).
    // ------------------------------------------------------------------
    fn alloc_pool(&mut self, n: usize) -> u32 {
        let idx = self.pool_next;
        self.pool_next += n as u32;
        self.pool_high = self.pool_high.max(self.pool_next);
        idx
    }

    fn release_pool(&mut self, idx: u32) {
        self.pool_next = idx;
    }

    // ------------------------------------------------------------------
    // Slot marshalling.
    // ------------------------------------------------------------------

    /// Spills stack values of `layout` (top of stack = last element) into
    /// i32 slot locals starting at `base`.
    fn emit_spill(&mut self, layout: &[ValType], base: u32, out: &mut Vec<WInstr>) {
        let mut off = layout_slots(layout) as u32;
        for t in layout.iter().rev() {
            match t {
                ValType::I32 => {
                    off -= 1;
                    out.push(WInstr::LocalSet(base + off));
                }
                ValType::F32 => {
                    off -= 1;
                    out.push(WInstr::IReinterpretF(Width::W32));
                    out.push(WInstr::LocalSet(base + off));
                }
                ValType::I64 | ValType::F64 => {
                    off -= 2;
                    if *t == ValType::F64 {
                        out.push(WInstr::IReinterpretF(Width::W64));
                    }
                    out.push(WInstr::LocalSet(self.tmp64));
                    out.push(WInstr::LocalGet(self.tmp64));
                    out.push(WInstr::I32WrapI64);
                    out.push(WInstr::LocalSet(base + off));
                    out.push(WInstr::LocalGet(self.tmp64));
                    out.push(WInstr::I64Const(32));
                    out.push(WInstr::IBin(Width::W64, w::IBinOp::Shr(w::Sx::U)));
                    out.push(WInstr::I32WrapI64);
                    out.push(WInstr::LocalSet(base + off + 1));
                }
            }
        }
    }

    /// Pushes values of `layout` from i32 slot locals starting at `base`.
    fn emit_unspill(&mut self, layout: &[ValType], base: u32, out: &mut Vec<WInstr>) {
        let mut off = 0u32;
        for t in layout {
            match t {
                ValType::I32 => {
                    out.push(WInstr::LocalGet(base + off));
                    off += 1;
                }
                ValType::F32 => {
                    out.push(WInstr::LocalGet(base + off));
                    out.push(WInstr::FReinterpretI(Width::W32));
                    off += 1;
                }
                ValType::I64 | ValType::F64 => {
                    out.push(WInstr::LocalGet(base + off));
                    out.push(WInstr::I64ExtendI32(w::Sx::U));
                    out.push(WInstr::LocalGet(base + off + 1));
                    out.push(WInstr::I64ExtendI32(w::Sx::U));
                    out.push(WInstr::I64Const(32));
                    out.push(WInstr::IBin(Width::W64, w::IBinOp::Shl));
                    out.push(WInstr::IBin(Width::W64, w::IBinOp::Or));
                    if *t == ValType::F64 {
                        out.push(WInstr::FReinterpretI(Width::W64));
                    }
                    off += 2;
                }
            }
        }
    }

    /// Pushes values of `layout` loaded from memory at `ptr_local +
    /// byte_off`.
    fn emit_load(
        &mut self,
        layout: &[ValType],
        ptr_local: u32,
        mut byte_off: u32,
        out: &mut Vec<WInstr>,
    ) {
        for t in layout {
            out.push(WInstr::LocalGet(ptr_local));
            out.push(WInstr::Load(*t, byte_off));
            byte_off += 4 * val_slots(*t) as u32;
        }
    }

    /// Stores `n_slots` i32 slots from pool locals into memory at
    /// `ptr_local + byte_off`.
    fn emit_store_slots(
        &mut self,
        n_slots: usize,
        pool: u32,
        ptr_local: u32,
        byte_off: u32,
        out: &mut Vec<WInstr>,
    ) {
        for k in 0..n_slots as u32 {
            out.push(WInstr::LocalGet(ptr_local));
            out.push(WInstr::LocalGet(pool + k));
            out.push(WInstr::Store(ValType::I32, byte_off + 4 * k));
        }
    }

    /// Zeroes `n_slots` i32 slots in memory.
    fn emit_store_zeros(
        &mut self,
        n_slots: usize,
        ptr_local: u32,
        byte_off: u32,
        out: &mut Vec<WInstr>,
    ) {
        for k in 0..n_slots as u32 {
            out.push(WInstr::LocalGet(ptr_local));
            out.push(WInstr::I32Const(0));
            out.push(WInstr::Store(ValType::I32, byte_off + 4 * k));
        }
    }

    // ------------------------------------------------------------------
    // Coercion plans (polymorphic calls).
    // ------------------------------------------------------------------

    /// Pushes the *callee-side* layout of a plan from caller-side slots
    /// spilled at `pool`.
    fn emit_coerce_push(&mut self, segs: &[Seg], pool: u32, out: &mut Vec<WInstr>) {
        let mut off = 0u32;
        for seg in segs {
            match seg {
                Seg::Exact(ts) => {
                    let ts = ts.clone();
                    self.emit_unspill(&ts, pool + off, out);
                }
                Seg::Padded {
                    content,
                    total_slots,
                } => {
                    let k = layout_slots(content);
                    for i in 0..k as u32 {
                        out.push(WInstr::LocalGet(pool + off + i));
                    }
                    for _ in k..*total_slots {
                        out.push(WInstr::I32Const(0));
                    }
                }
                Seg::Unpad { dst, .. } => {
                    // The value occupies the leading slots of the caller's
                    // padded region; reassemble it as the callee's layout.
                    let dst = dst.clone();
                    self.emit_unspill(&dst, pool + off, out);
                }
                Seg::RePad {
                    src_slots,
                    dst_slots,
                } => {
                    let k = (*src_slots).min(*dst_slots);
                    for i in 0..k as u32 {
                        out.push(WInstr::LocalGet(pool + off + i));
                    }
                    for _ in k..*dst_slots {
                        out.push(WInstr::I32Const(0));
                    }
                }
            }
            off += seg.conc_slots() as u32;
        }
    }

    /// Spills the callee-side layout from the stack and re-pushes the
    /// caller-side layout (inverse of [`Self::emit_coerce_push`]).
    fn emit_coerce_pop(&mut self, segs: &[Seg], out: &mut Vec<WInstr>) {
        let conc_slots: usize = segs.iter().map(Seg::conc_slots).sum();
        let pool = self.alloc_pool(conc_slots);
        let mut conc_off: Vec<u32> = Vec::with_capacity(segs.len());
        let mut acc = 0u32;
        for seg in segs {
            conc_off.push(acc);
            acc += seg.conc_slots() as u32;
        }
        // Spill the callee-side values (reversed segments; stack top =
        // last segment) into the caller-side slot positions.
        for (si, seg) in segs.iter().enumerate().rev() {
            match seg {
                Seg::Exact(ts) => {
                    let ts = ts.clone();
                    self.emit_spill(&ts, pool + conc_off[si], out);
                }
                Seg::Padded {
                    content,
                    total_slots,
                } => {
                    // Callee produced total_slots i32s (value + padding on
                    // top): drop the padding, keep the content slots.
                    let k = layout_slots(content);
                    for _ in k..*total_slots {
                        out.push(WInstr::Drop);
                    }
                    let slots = vec![ValType::I32; k];
                    self.emit_spill(&slots, pool + conc_off[si], out);
                }
                Seg::Unpad { src_slots, dst } => {
                    // Callee produced the concrete layout; the caller wants
                    // its padded form: spill the value slots, zero the rest.
                    let dst = dst.clone();
                    let k = layout_slots(&dst);
                    self.emit_spill(&dst, pool + conc_off[si], out);
                    for pad in k..*src_slots {
                        out.push(WInstr::I32Const(0));
                        out.push(WInstr::LocalSet(pool + conc_off[si] + pad as u32));
                    }
                }
                Seg::RePad {
                    src_slots,
                    dst_slots,
                } => {
                    let k = (*src_slots).min(*dst_slots);
                    for _ in k..*dst_slots {
                        out.push(WInstr::Drop);
                    }
                    let slots = vec![ValType::I32; k];
                    self.emit_spill(&slots, pool + conc_off[si], out);
                    for pad in k..*src_slots {
                        out.push(WInstr::I32Const(0));
                        out.push(WInstr::LocalSet(pool + conc_off[si] + pad as u32));
                    }
                }
            }
        }
        // Push the caller-side layout.
        for (si, seg) in segs.iter().enumerate() {
            match seg {
                Seg::Exact(ts) => {
                    let ts = ts.clone();
                    self.emit_unspill(&ts, pool + conc_off[si], out);
                }
                Seg::Padded { content, .. } => {
                    let ts = content.clone();
                    self.emit_unspill(&ts, pool + conc_off[si], out);
                }
                Seg::Unpad { src_slots, .. } | Seg::RePad { src_slots, .. } => {
                    for i in 0..*src_slots as u32 {
                        out.push(WInstr::LocalGet(pool + conc_off[si] + i));
                    }
                }
            }
        }
        self.release_pool(pool);
    }

    // ------------------------------------------------------------------
    // Trace-aligned skipping of dead code.
    // ------------------------------------------------------------------
    fn skip_instr(&mut self, e: &rw::Instr) -> Result<(), LowerError> {
        let entry = self
            .trace
            .get(self.cursor)
            .ok_or_else(|| LowerError::Internal("trace exhausted while skipping".into()))?
            .clone();
        self.cursor += 1;
        let visit = entry.bodies_visited;
        match e {
            rw::Instr::BlockI(_, body) | rw::Instr::LoopI(_, body) => {
                for i in body {
                    self.skip_instr(i)?;
                }
            }
            rw::Instr::IfI(_, a, b) => {
                for i in a.iter().chain(b) {
                    self.skip_instr(i)?;
                }
            }
            rw::Instr::MemUnpack(_, body) | rw::Instr::ExistUnpack(_, _, _, body) if visit => {
                for i in body {
                    self.skip_instr(i)?;
                }
            }
            rw::Instr::VariantCase(_, _, _, bodies) if visit => {
                for b in bodies {
                    for i in b {
                        self.skip_instr(i)?;
                    }
                }
            }
            _ => {}
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Main dispatch.
    // ------------------------------------------------------------------
    #[allow(clippy::too_many_lines)]
    fn lower_instr(&mut self, e: &rw::Instr, out: &mut Vec<WInstr>) -> Result<(), LowerError> {
        let entry = self
            .trace
            .get(self.cursor)
            .ok_or_else(|| LowerError::Internal(format!("trace exhausted at {e}")))?
            .clone();
        if entry.dead {
            // Statically dead: emit nothing (the Wasm region is already
            // unreachable) but keep the trace cursor aligned.
            return self.skip_instr(e);
        }
        self.cursor += 1;

        use rw::Instr as I;
        match e {
            I::Val(v) => out.extend(value_consts(v)),
            I::Num(n) => out.extend(n.to_wasm()),
            I::Nop => out.push(WInstr::Nop),
            I::Unreachable => out.push(WInstr::Unreachable),
            I::Drop => {
                let l = flatten(&self.ctx, &entry.consumed[0])?;
                for _ in 0..l.len() {
                    out.push(WInstr::Drop);
                }
            }
            I::Select => {
                let l = flatten(&self.ctx, &entry.consumed[0])?;
                if l.len() == 1 {
                    out.push(WInstr::Select);
                } else {
                    let n = layout_slots(&l);
                    let c = self.alloc_pool(1);
                    let b = self.alloc_pool(n);
                    let a = self.alloc_pool(n);
                    out.push(WInstr::LocalSet(c));
                    self.emit_spill(&l, b, out);
                    self.emit_spill(&l, a, out);
                    out.push(WInstr::LocalGet(c));
                    let bt = self.wm.intern_type(FuncType {
                        params: vec![],
                        results: l.clone(),
                    });
                    let mut t_arm = Vec::new();
                    self.emit_unspill(&l, a, &mut t_arm);
                    let mut f_arm = Vec::new();
                    self.emit_unspill(&l, b, &mut f_arm);
                    out.push(WInstr::If(BlockType::Func(bt), t_arm, f_arm));
                    self.release_pool(c);
                }
            }
            I::BlockI(b, body) => {
                let bt = self.block_type(&b.arrow)?;
                let mut inner = Vec::new();
                self.enter_label();
                for i in body {
                    self.lower_instr(i, &mut inner)?;
                }
                self.exit_label();
                out.push(WInstr::Block(bt, inner));
            }
            I::LoopI(arrow, body) => {
                let bt = self.block_type(arrow)?;
                let mut inner = Vec::new();
                self.enter_label();
                for i in body {
                    self.lower_instr(i, &mut inner)?;
                }
                self.exit_label();
                out.push(WInstr::Loop(bt, inner));
            }
            I::IfI(b, tb, fb) => {
                let bt = self.block_type(&b.arrow)?;
                let mut t_arm = Vec::new();
                self.enter_label();
                for i in tb {
                    self.lower_instr(i, &mut t_arm)?;
                }
                self.exit_label();
                let mut f_arm = Vec::new();
                self.enter_label();
                for i in fb {
                    self.lower_instr(i, &mut f_arm)?;
                }
                self.exit_label();
                out.push(WInstr::If(bt, t_arm, f_arm));
            }
            I::Br(i) => out.push(WInstr::Br(self.br_depth(*i)?)),
            I::BrIf(i) => out.push(WInstr::BrIf(self.br_depth(*i)?)),
            I::BrTable(ts, d) => {
                let ts = ts
                    .iter()
                    .map(|i| self.br_depth(*i))
                    .collect::<Result<_, _>>()?;
                let d = self.br_depth(*d)?;
                out.push(WInstr::BrTable(ts, d));
            }
            I::Return => out.push(WInstr::Return),
            I::GetLocal(i, _) => {
                let l = flatten(&self.ctx, &entry.produced[0])?;
                let (base, _) = self.slot_map[*i as usize];
                self.emit_unspill(&l, base, out);
            }
            I::SetLocal(i) => {
                let l = flatten(&self.ctx, &entry.consumed[0])?;
                let (base, _) = self.slot_map[*i as usize];
                self.emit_spill(&l, base, out);
            }
            I::TeeLocal(i) => {
                let l = flatten(&self.ctx, &entry.consumed[0])?;
                let (base, _) = self.slot_map[*i as usize];
                self.emit_spill(&l, base, out);
                self.emit_unspill(&l, base, out);
            }
            I::GetGlobal(i) => {
                let (base, layout) = self.sh.globals[*i as usize].clone();
                for k in 0..layout.len() as u32 {
                    out.push(WInstr::GlobalGet(base + k));
                }
            }
            I::SetGlobal(i) => {
                let (base, layout) = self.sh.globals[*i as usize].clone();
                for k in (0..layout.len() as u32).rev() {
                    out.push(WInstr::GlobalSet(base + k));
                }
            }
            // Type-level instructions are erased (paper §6).
            I::Qualify(_)
            | I::RefDemote
            | I::CapSplit
            | I::CapJoin
            | I::RefSplit
            | I::RefJoin
            | I::MemPack(_)
            | I::RecFold(_)
            | I::RecUnfold
            | I::Group(..)
            | I::Ungroup
            | I::Inst(_) => {}
            I::CodeRefI(i) => {
                out.push(WInstr::I32Const((self.sh.table_base + i) as i32));
            }
            I::Call(j, _) => self.lower_call(*j, &entry, out)?,
            I::CallIndirect => self.lower_call_indirect(&entry, out)?,
            I::MemUnpack(b, body) => {
                // The package value's representation is the opened value.
                let pkg_ty = entry.consumed.last().expect("package").clone();
                let pkg_l = flatten(&self.ctx, &pkg_ty)?;
                let mut params = Vec::new();
                for p in &b.arrow.params {
                    params.extend(flatten(&self.ctx, p)?);
                }
                params.extend(pkg_l);
                let mut results = Vec::new();
                for r in &b.arrow.results {
                    results.extend(flatten(&self.ctx, r)?);
                }
                let bt = self.wm.intern_type(FuncType { params, results });
                self.ctx.push_loc();
                let mut inner = Vec::new();
                self.enter_label();
                for i in body {
                    self.lower_instr(i, &mut inner)?;
                }
                self.exit_label();
                self.ctx.pop_loc();
                out.push(WInstr::Block(BlockType::Func(bt), inner));
            }
            I::ExistUnpack(q, psi, b, body) => {
                self.lower_exist_unpack(*q, psi, b, body, &entry, out)?;
            }
            I::VariantCase(q, psi, b, bodies) => {
                self.lower_variant_case(*q, psi, b, bodies, &entry, out)?;
            }
            I::StructMalloc(szs, _) => {
                // consumed = field types (bottom→top).
                let fields = entry.consumed.clone();
                let mut offs = Vec::new();
                let mut total = 0u32;
                for sz in szs {
                    offs.push(total);
                    total += (resolve_size(&self.ctx, sz)?.div_ceil(32) * 4) as u32;
                }
                // Spill fields (reverse order: last field is on top).
                let layouts: Vec<Vec<ValType>> = fields
                    .iter()
                    .map(|t| flatten(&self.ctx, t))
                    .collect::<Result<_, _>>()?;
                let slot_counts: Vec<usize> = layouts.iter().map(|l| layout_slots(l)).collect();
                let pool = self.alloc_pool(slot_counts.iter().sum());
                let mut bases = Vec::new();
                let mut acc = pool;
                for c in &slot_counts {
                    bases.push(acc);
                    acc += *c as u32;
                }
                for (k, l) in layouts.iter().enumerate().rev() {
                    let l = l.clone();
                    self.emit_spill(&l, bases[k], out);
                }
                let p = self.alloc_pool(1);
                out.push(WInstr::I32Const(total.max(4) as i32));
                out.push(WInstr::Call(self.sh.malloc_idx));
                out.push(WInstr::LocalSet(p));
                for (k, c) in slot_counts.iter().enumerate() {
                    self.emit_store_slots(*c, bases[k], p, offs[k], out);
                }
                out.push(WInstr::LocalGet(p));
                self.release_pool(pool);
            }
            I::StructGet(i) => {
                let (offs, field_layouts) = self.struct_layout(&entry.consumed[0])?;
                let p = self.alloc_pool(1);
                out.push(WInstr::LocalTee(p));
                let l = field_layouts[*i as usize].clone();
                self.emit_load(&l, p, offs[*i as usize], out);
                self.release_pool(p);
            }
            I::StructSet(i) => {
                let (offs, _) = self.struct_layout(&entry.consumed[0])?;
                let vl = flatten(&self.ctx, &entry.consumed[1])?;
                let n = layout_slots(&vl);
                let pool = self.alloc_pool(n + 1);
                let p = pool + n as u32;
                self.emit_spill(&vl, pool, out);
                out.push(WInstr::LocalTee(p));
                out.push(WInstr::Drop);
                self.emit_store_slots(n, pool, p, offs[*i as usize], out);
                out.push(WInstr::LocalGet(p));
                self.release_pool(pool);
            }
            I::StructSwap(i) => {
                let (offs, field_layouts) = self.struct_layout(&entry.consumed[0])?;
                let old_l = field_layouts[*i as usize].clone();
                let vl = flatten(&self.ctx, &entry.consumed[1])?;
                let n = layout_slots(&vl);
                let pool = self.alloc_pool(n + 1);
                let p = pool + n as u32;
                self.emit_spill(&vl, pool, out);
                out.push(WInstr::LocalTee(p));
                // Stack: ref. Load the old value, then overwrite.
                self.emit_load(&old_l, p, offs[*i as usize], out);
                self.emit_store_slots(n, pool, p, offs[*i as usize], out);
                self.release_pool(pool);
            }
            I::StructFree | I::ArrayFree => out.push(WInstr::Call(self.sh.free_idx)),
            I::VariantMalloc(tag, _, _) => {
                let vl = flatten(&self.ctx, &entry.consumed[0])?;
                let n = layout_slots(&vl);
                let pool = self.alloc_pool(n + 1);
                let p = pool + n as u32;
                self.emit_spill(&vl, pool, out);
                out.push(WInstr::I32Const(4 + 4 * n as i32));
                out.push(WInstr::Call(self.sh.malloc_idx));
                out.push(WInstr::LocalTee(p));
                out.push(WInstr::I32Const(*tag as i32));
                out.push(WInstr::Store(ValType::I32, 0));
                self.emit_store_slots(n, pool, p, 4, out);
                out.push(WInstr::LocalGet(p));
                self.release_pool(pool);
            }
            I::ArrayMalloc(_) => self.lower_array_malloc(&entry, out)?,
            I::ArrayGet => self.lower_array_get(&entry, out)?,
            I::ArraySet => self.lower_array_set(&entry, out)?,
            I::ExistPack(wit, psi, _) => self.lower_exist_pack(wit, psi, &entry, out)?,
            I::Trap
            | I::CallAdmin { .. }
            | I::Label { .. }
            | I::LocalFrame { .. }
            | I::MallocAdmin(..)
            | I::Free => {
                return Err(LowerError::Internal(format!(
                    "administrative instruction {e} in source module"
                )));
            }
        }
        Ok(())
    }

    fn block_type(&mut self, arrow: &rw::ArrowType) -> Result<BlockType, LowerError> {
        let mut params = Vec::new();
        for p in &arrow.params {
            params.extend(flatten(&self.ctx, p)?);
        }
        let mut results = Vec::new();
        for r in &arrow.results {
            results.extend(flatten(&self.ctx, r)?);
        }
        if params.is_empty() && results.is_empty() {
            return Ok(BlockType::Empty);
        }
        if params.is_empty() && results.len() == 1 {
            return Ok(BlockType::Value(results[0]));
        }
        Ok(BlockType::Func(
            self.wm.intern_type(FuncType { params, results }),
        ))
    }

    fn enter_label(&mut self) {
        self.wdepth += 1;
        self.rw_labels.push(self.wdepth);
    }

    fn exit_label(&mut self) {
        self.rw_labels.pop();
        self.wdepth -= 1;
    }

    fn br_depth(&self, i: u32) -> Result<u32, LowerError> {
        let n = self.rw_labels.len();
        if (i as usize) < n {
            let record = self.rw_labels[n - 1 - i as usize];
            Ok(self.wdepth - record)
        } else {
            // Branch to the function's implicit label (return).
            Ok(self.wdepth + (i - n as u32))
        }
    }

    /// Offsets and layouts of a struct's fields from a reference type.
    fn struct_layout(
        &self,
        ref_ty: &rw::Type,
    ) -> Result<(Vec<u32>, Vec<Vec<ValType>>), LowerError> {
        let Pretype::Ref(_, _, HeapType::Struct(fields)) = &*ref_ty.pre else {
            return Err(LowerError::Internal(format!(
                "expected struct ref, got {ref_ty}"
            )));
        };
        let mut offs = Vec::new();
        let mut layouts = Vec::new();
        let mut acc = 0u32;
        for (t, sz) in fields {
            offs.push(acc);
            acc += (resolve_size(&self.ctx, sz)?.div_ceil(32) * 4) as u32;
            layouts.push(flatten(&self.ctx, t)?);
        }
        Ok((offs, layouts))
    }

    fn lower_call(
        &mut self,
        j: u32,
        entry: &InstrInfo,
        out: &mut Vec<WInstr>,
    ) -> Result<(), LowerError> {
        let ft = self.env.funcs[j as usize].clone();
        let widx = self.sh.rw2wasm[j as usize];
        let mut callee_ctx = KindCtx::new();
        let _t = push_telescope(&mut callee_ctx, &ft.quants);
        // Per-argument coercion plan (concatenated).
        let mut arg_plan = Vec::new();
        for (abs, conc) in ft.arrow.params.iter().zip(&entry.consumed) {
            arg_plan.extend(plan(&callee_ctx, abs, &self.ctx, conc)?);
        }
        let mut res_plan = Vec::new();
        for (abs, conc) in ft.arrow.results.iter().zip(&entry.produced) {
            res_plan.extend(plan(&callee_ctx, abs, &self.ctx, conc)?);
        }
        if !plan_is_identity(&arg_plan) {
            // Spill concrete args and re-push the abstract layout.
            let conc_layout: Vec<ValType> = entry
                .consumed
                .iter()
                .map(|t| flatten(&self.ctx, t))
                .collect::<Result<Vec<_>, _>>()?
                .into_iter()
                .flatten()
                .collect();
            let pool = self.alloc_pool(layout_slots(&conc_layout));
            self.emit_spill(&conc_layout, pool, out);
            self.emit_coerce_push(&arg_plan, pool, out);
            self.release_pool(pool);
        }
        out.push(WInstr::Call(widx));
        if !plan_is_identity(&res_plan) {
            self.emit_coerce_pop(&res_plan, out);
        }
        Ok(())
    }

    /// Lowers `call_indirect` with one case per possible callee shape
    /// (paper §6). A shape is a Wasm signature plus the coercions between
    /// the site's concrete layout and the callee's; table entries are
    /// grouped into shapes through [`LinkPlan`]'s callee types, so a site
    /// plans each distinct type once. The largest shape is the default
    /// and needs no index test. Entries whose type fails the site's arity
    /// or coercion plan get no case: coderef typing never lets their index
    /// reach this site (DESIGN.md §14).
    fn lower_call_indirect(
        &mut self,
        entry: &InstrInfo,
        out: &mut Vec<WInstr>,
    ) -> Result<(), LowerError> {
        let coderef_ty = entry.consumed.last().expect("coderef").clone();
        let Pretype::CodeRef(mono) = &*coderef_ty.pre else {
            return Err(LowerError::Internal(
                "call_indirect without coderef type".into(),
            ));
        };
        let args = &entry.consumed[..entry.consumed.len() - 1];
        let conc_results = &entry.produced;

        let mut shapes: Vec<Shape> = Vec::new();
        for (ty, entries) in self.sh.callee_types {
            if ty.arrow.params.len() != mono.arrow.params.len()
                || ty.arrow.results.len() != mono.arrow.results.len()
            {
                continue;
            }
            let Some((arg_plan, res_plan)) = self.callee_plans(ty, args, conc_results) else {
                continue;
            };
            let sig_idx = self.wm.intern_type(lower_signature(ty)?);
            match shapes
                .iter_mut()
                .find(|s| s.sig_idx == sig_idx && s.arg_plan == arg_plan && s.res_plan == res_plan)
            {
                Some(s) => s.entries.extend_from_slice(entries),
                None => shapes.push(Shape {
                    arg_plan,
                    res_plan,
                    sig_idx,
                    entries: entries.clone(),
                }),
            }
        }

        // One shape whose arguments need no coercion: the stack already
        // holds them under the table index, which is all `call_indirect`
        // takes.
        if let [shape] = shapes.as_slice() {
            if plan_is_identity(&shape.arg_plan) {
                out.push(WInstr::CallIndirect(shape.sig_idx));
                if !plan_is_identity(&shape.res_plan) {
                    self.emit_coerce_pop(&shape.res_plan, out);
                }
                return Ok(());
            }
        }
        // The table index is on top of the stack.
        let ix = self.alloc_pool(1);
        out.push(WInstr::LocalSet(ix));
        // Spill the concrete args.
        let conc_layout: Vec<ValType> = args
            .iter()
            .map(|t| flatten(&self.ctx, t))
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .flatten()
            .collect();
        let pool = self.alloc_pool(layout_slots(&conc_layout));
        self.emit_spill(&conc_layout, pool, out);

        // The default is the largest shape; `max_by_key` keeps the last
        // maximum, so scanning backwards breaks ties towards table order.
        let Some(default) = (0..shapes.len())
            .rev()
            .max_by_key(|&i| shapes[i].entries.len())
        else {
            out.push(WInstr::Unreachable);
            self.release_pool(ix);
            return Ok(());
        };
        let mut chain = self.shape_arm(&shapes[default], ix, pool);
        if shapes.len() > 1 {
            // Result block type: the concrete result layout.
            let mut res_layout = Vec::new();
            for r in conc_results {
                res_layout.extend(flatten(&self.ctx, r)?);
            }
            let bt = self.wm.intern_type(FuncType {
                params: vec![],
                results: res_layout,
            });
            // Build the if-chain around the default, innermost first.
            for (i, shape) in shapes.iter().enumerate().rev() {
                if i == default {
                    continue;
                }
                let arm = self.shape_arm(shape, ix, pool);
                let mut test = Vec::new();
                for (k, &gidx) in shape.entries.iter().enumerate() {
                    test.push(WInstr::LocalGet(ix));
                    test.push(WInstr::I32Const(gidx as i32));
                    test.push(WInstr::IRel(Width::W32, w::IRelOp::Eq));
                    if k > 0 {
                        test.push(WInstr::IBin(Width::W32, w::IBinOp::Or));
                    }
                }
                test.push(WInstr::If(
                    BlockType::Func(bt),
                    arm,
                    std::mem::take(&mut chain),
                ));
                chain = test;
            }
        }
        out.extend(chain);
        self.release_pool(ix);
        Ok(())
    }

    /// The argument and result coercions between this site's concrete
    /// types and callee type `ty`, or `None` when they cannot meet.
    fn callee_plans(
        &self,
        ty: &rw::FunType,
        args: &[rw::Type],
        results: &[rw::Type],
    ) -> Option<(Vec<Seg>, Vec<Seg>)> {
        let mut cctx = KindCtx::new();
        let _t = push_telescope(&mut cctx, &ty.quants);
        let segs = |abs: &[rw::Type], conc: &[rw::Type]| {
            let mut out = Vec::new();
            for (a, c) in abs.iter().zip(conc) {
                out.extend(plan(&cctx, a, &self.ctx, c).ok()?);
            }
            Some(out)
        };
        Some((
            segs(&ty.arrow.params, args)?,
            segs(&ty.arrow.results, results)?,
        ))
    }

    /// One `call_indirect` case: re-push the spilled arguments in the
    /// shape's layout, call through the table index in local `ix`, and
    /// coerce the results back.
    fn shape_arm(&mut self, shape: &Shape, ix: u32, pool: u32) -> Vec<WInstr> {
        let mut arm = Vec::new();
        self.emit_coerce_push(&shape.arg_plan, pool, &mut arm);
        arm.push(WInstr::LocalGet(ix));
        arm.push(WInstr::CallIndirect(shape.sig_idx));
        if !plan_is_identity(&shape.res_plan) {
            self.emit_coerce_pop(&shape.res_plan, &mut arm);
        }
        arm
    }

    fn lower_exist_unpack(
        &mut self,
        q: Qual,
        psi: &HeapType,
        b: &rw::instr::Block,
        body: &[rw::Instr],
        entry: &InstrInfo,
        out: &mut Vec<WInstr>,
    ) -> Result<(), LowerError> {
        let HeapType::Exists(bq, bsz, body_ty) = psi else {
            return Err(LowerError::Internal(
                "exist.unpack without ∃ heap type".into(),
            ));
        };
        let linear = matches!(q, Qual::Lin);
        let n_params = b.arrow.params.len();
        let mut params_layout = Vec::new();
        for p in &b.arrow.params {
            params_layout.extend(flatten(&self.ctx, p)?);
        }
        let mut results_layout = Vec::new();
        for r in &b.arrow.results {
            results_layout.extend(flatten(&self.ctx, r)?);
        }
        let _ = n_params;

        // Stack: [ref, params*] — the reference is *below* the block
        // params (same shape as variant.case). Spill the params to reach
        // it; in the unrestricted case the reference stays on the stack,
        // below the block, and is returned under the results.
        let p = self.alloc_pool(1);
        let q_pool = self.alloc_pool(layout_slots(&params_layout));
        self.emit_spill(&params_layout, q_pool, out);
        if linear {
            out.push(WInstr::LocalSet(p));
        } else {
            out.push(WInstr::LocalTee(p));
        }
        self.emit_unspill(&params_layout.clone(), q_pool, out);
        self.release_pool(q_pool);

        // Payload layout (abstract, under the ∃ binder).
        self.ctx.push_type(TypeBound {
            lower_qual: *bq,
            size: bsz.clone(),
            may_contain_caps: false,
        });
        let payload_layout = flatten(&self.ctx, body_ty)?;

        // Push payload (header is 8 bytes), free if linear, run the body.
        let mut pre = Vec::new();
        self.emit_load(&payload_layout, p, 8, &mut pre);
        if linear {
            pre.push(WInstr::LocalGet(p));
            pre.push(WInstr::Call(self.sh.free_idx));
        }

        let _ = results_layout;
        let mut inner = pre;
        self.enter_label();
        for i in body {
            self.lower_instr(i, &mut inner)?;
        }
        self.exit_label();
        self.ctx.pop_type();
        let _ = entry;
        // The block's params are the τ1* currently on the stack; the
        // payload is pushed inside.
        // Wasm block params are taken from the stack, so the payload loads
        // must happen *inside* the block... but they were prepended to
        // `inner` above, which is exactly inside. However the block's
        // declared params then must NOT include the payload. Re-intern:
        let mut only_params = Vec::new();
        for pp in &b.arrow.params {
            only_params.extend(flatten(&self.ctx, pp)?);
        }
        let mut only_results = Vec::new();
        for r in &b.arrow.results {
            only_results.extend(flatten(&self.ctx, r)?);
        }
        let bt2 = self.wm.intern_type(FuncType {
            params: only_params,
            results: only_results,
        });
        out.push(WInstr::Block(BlockType::Func(bt2), inner));
        self.release_pool(p);
        Ok(())
    }

    fn lower_variant_case(
        &mut self,
        q: Qual,
        psi: &HeapType,
        b: &rw::instr::Block,
        bodies: &[Vec<rw::Instr>],
        entry: &InstrInfo,
        out: &mut Vec<WInstr>,
    ) -> Result<(), LowerError> {
        let HeapType::Variant(cases) = psi else {
            return Err(LowerError::Internal(
                "variant.case without variant type".into(),
            ));
        };
        let linear = matches!(q, Qual::Lin);
        let _ = entry;
        let mut params_layout = Vec::new();
        for p in &b.arrow.params {
            params_layout.extend(flatten(&self.ctx, p)?);
        }
        let mut results_layout = Vec::new();
        for r in &b.arrow.results {
            results_layout.extend(flatten(&self.ctx, r)?);
        }

        // Stack: [ref, params*] — dig out the ref.
        let p = self.alloc_pool(1);
        let tag = self.alloc_pool(1);
        let q_pool = self.alloc_pool(layout_slots(&params_layout));
        self.emit_spill(&params_layout, q_pool, out);
        if linear {
            out.push(WInstr::LocalSet(p));
        } else {
            out.push(WInstr::LocalTee(p)); // ref stays below everything
        }
        out.push(WInstr::LocalGet(p));
        out.push(WInstr::Load(ValType::I32, 0));
        out.push(WInstr::LocalSet(tag));
        self.emit_unspill(&params_layout.clone(), q_pool, out);
        self.release_pool(q_pool);
        // (q_pool is released but indices stay valid within this emission.)

        // Dispatch chain: each arm takes the params, pushes the payload,
        // frees the cell in the linear case, and runs the branch body.
        let bt = self.wm.intern_type(FuncType {
            params: params_layout.clone(),
            results: results_layout.clone(),
        });
        let chain = self.emit_case_chain(0, cases, bodies, p, tag, linear, bt)?;
        out.push(WInstr::LocalGet(tag));
        out.push(WInstr::I32Const(0));
        out.push(WInstr::IRel(Width::W32, w::IRelOp::Eq));
        out.push(chain);
        self.release_pool(p);
        Ok(())
    }

    /// Builds the `if tag==k … else …` chain for `variant.case`; returns
    /// the `If` for case `k`.
    #[allow(clippy::too_many_arguments)]
    fn emit_case_chain(
        &mut self,
        k: usize,
        cases: &[rw::Type],
        bodies: &[Vec<rw::Instr>],
        p: u32,
        tag: u32,
        linear: bool,
        bt: u32,
    ) -> Result<WInstr, LowerError> {
        // then-arm: case k.
        let payload_layout = flatten(&self.ctx, &cases[k])?;
        let mut arm = Vec::new();
        self.wdepth += 1; // entering this If's arm
        self.emit_load(&payload_layout, p, 4, &mut arm);
        if linear {
            arm.push(WInstr::LocalGet(p));
            arm.push(WInstr::Call(self.sh.free_idx));
        }
        self.rw_labels.push(self.wdepth);
        for i in &bodies[k] {
            self.lower_instr(i, &mut arm)?;
        }
        self.rw_labels.pop();

        // else-arm: next case or unreachable.
        let els = if k + 1 < cases.len() {
            let next = self.emit_case_chain(k + 1, cases, bodies, p, tag, linear, bt)?;
            vec![
                WInstr::LocalGet(tag),
                WInstr::I32Const((k + 1) as i32),
                WInstr::IRel(Width::W32, w::IRelOp::Eq),
                next,
            ]
        } else {
            vec![WInstr::Unreachable]
        };
        self.wdepth -= 1;
        Ok(WInstr::If(BlockType::Func(bt), arm, els))
    }

    fn lower_array_malloc(
        &mut self,
        entry: &InstrInfo,
        out: &mut Vec<WInstr>,
    ) -> Result<(), LowerError> {
        // consumed = [elem, ui32 length]
        let elem_ty = &entry.consumed[0];
        let el = flatten(&self.ctx, elem_ty)?;
        let esz = (byte_size(&self.ctx, elem_ty)?) as u32;
        let n = layout_slots(&el);
        let len = self.alloc_pool(1);
        let pool = self.alloc_pool(n);
        let p = self.alloc_pool(1);
        let i = self.alloc_pool(1);
        out.push(WInstr::LocalSet(len));
        self.emit_spill(&el, pool, out);
        // malloc(4 + len * esz)
        out.push(WInstr::I32Const(4));
        out.push(WInstr::LocalGet(len));
        out.push(WInstr::I32Const(esz as i32));
        out.push(WInstr::IBin(Width::W32, w::IBinOp::Mul));
        out.push(WInstr::IBin(Width::W32, w::IBinOp::Add));
        out.push(WInstr::Call(self.sh.malloc_idx));
        out.push(WInstr::LocalTee(p));
        out.push(WInstr::LocalGet(len));
        out.push(WInstr::Store(ValType::I32, 0));
        if esz > 0 {
            // for i in 0..len: copy the fill value.
            out.push(WInstr::I32Const(0));
            out.push(WInstr::LocalSet(i));
            let mut body = vec![
                WInstr::LocalGet(i),
                WInstr::LocalGet(len),
                WInstr::IRel(Width::W32, w::IRelOp::Ge(w::Sx::U)),
                WInstr::BrIf(1),
            ];
            // addr = p + 4 + i*esz (recomputed per slot store).
            for kslot in 0..n as u32 {
                body.push(WInstr::LocalGet(p));
                body.push(WInstr::LocalGet(i));
                body.push(WInstr::I32Const(esz as i32));
                body.push(WInstr::IBin(Width::W32, w::IBinOp::Mul));
                body.push(WInstr::IBin(Width::W32, w::IBinOp::Add));
                body.push(WInstr::LocalGet(pool + kslot));
                body.push(WInstr::Store(ValType::I32, 4 + 4 * kslot));
            }
            body.push(WInstr::LocalGet(i));
            body.push(WInstr::I32Const(1));
            body.push(WInstr::IBin(Width::W32, w::IBinOp::Add));
            body.push(WInstr::LocalSet(i));
            body.push(WInstr::Br(0));
            out.push(WInstr::Block(
                BlockType::Empty,
                vec![WInstr::Loop(BlockType::Empty, body)],
            ));
        }
        out.push(WInstr::LocalGet(p));
        self.release_pool(len);
        Ok(())
    }

    /// Emits the bounds check + element address computation shared by
    /// `array.get`/`array.set`. Expects `ix` and `p` already set; leaves
    /// the element address in `addr`.
    fn emit_array_addr(&mut self, p: u32, ix: u32, addr: u32, esz: u32, out: &mut Vec<WInstr>) {
        // if ix >= load(p) { unreachable }
        out.push(WInstr::LocalGet(ix));
        out.push(WInstr::LocalGet(p));
        out.push(WInstr::Load(ValType::I32, 0));
        out.push(WInstr::IRel(Width::W32, w::IRelOp::Ge(w::Sx::U)));
        out.push(WInstr::If(
            BlockType::Empty,
            vec![WInstr::Unreachable],
            vec![],
        ));
        out.push(WInstr::LocalGet(p));
        out.push(WInstr::LocalGet(ix));
        out.push(WInstr::I32Const(esz as i32));
        out.push(WInstr::IBin(Width::W32, w::IBinOp::Mul));
        out.push(WInstr::IBin(Width::W32, w::IBinOp::Add));
        out.push(WInstr::LocalSet(addr));
    }

    fn lower_array_get(
        &mut self,
        entry: &InstrInfo,
        out: &mut Vec<WInstr>,
    ) -> Result<(), LowerError> {
        // consumed = [ref, ui32]; produced = [ref, elem]
        let elem_ty = entry.produced[1].clone();
        let el = flatten(&self.ctx, &elem_ty)?;
        let esz = byte_size(&self.ctx, &elem_ty)? as u32;
        let ix = self.alloc_pool(1);
        let p = self.alloc_pool(1);
        let addr = self.alloc_pool(1);
        out.push(WInstr::LocalSet(ix));
        out.push(WInstr::LocalTee(p)); // ref stays on the stack
        out.push(WInstr::Drop);
        out.push(WInstr::LocalGet(p));
        self.emit_array_addr(p, ix, addr, esz, out);
        self.emit_load(&el, addr, 4, out);
        self.release_pool(ix);
        Ok(())
    }

    fn lower_array_set(
        &mut self,
        entry: &InstrInfo,
        out: &mut Vec<WInstr>,
    ) -> Result<(), LowerError> {
        // consumed = [ref, ui32, elem]; produced = [ref]
        let elem_ty = entry.consumed[2].clone();
        let el = flatten(&self.ctx, &elem_ty)?;
        let esz = byte_size(&self.ctx, &elem_ty)? as u32;
        let n = layout_slots(&el);
        let pool = self.alloc_pool(n);
        let ix = self.alloc_pool(1);
        let p = self.alloc_pool(1);
        let addr = self.alloc_pool(1);
        self.emit_spill(&el, pool, out);
        out.push(WInstr::LocalSet(ix));
        out.push(WInstr::LocalTee(p));
        self.emit_array_addr(p, ix, addr, esz, out);
        self.emit_store_slots(n, pool, addr, 4, out);
        self.release_pool(pool);
        Ok(())
    }

    fn lower_exist_pack(
        &mut self,
        wit: &Pretype,
        psi: &HeapType,
        entry: &InstrInfo,
        out: &mut Vec<WInstr>,
    ) -> Result<(), LowerError> {
        let HeapType::Exists(bq, bsz, body_ty) = psi else {
            return Err(LowerError::Internal(
                "exist.pack without ∃ heap type".into(),
            ));
        };
        let _ = wit;
        // Concrete payload (consumed) vs abstract layout (under binder).
        let conc_ty = entry.consumed[0].clone();
        let conc_l = flatten(&self.ctx, &conc_ty)?;
        self.ctx.push_type(TypeBound {
            lower_qual: *bq,
            size: bsz.clone(),
            may_contain_caps: false,
        });
        let segs = {
            // Abstract side is under the binder; the concrete payload type
            // lives in the outer context.
            let abs_ctx = self.ctx.clone();
            let mut conc_ctx = self.ctx.clone();
            conc_ctx.pop_type();
            plan(&abs_ctx, body_ty, &conc_ctx, &conc_ty)?
        };
        let abs_slots: usize = segs.iter().map(Seg::abs_slots).sum();
        self.ctx.pop_type();

        let n = layout_slots(&conc_l);
        let pool = self.alloc_pool(n);
        let p = self.alloc_pool(1);
        self.emit_spill(&conc_l, pool, out);
        out.push(WInstr::I32Const((8 + 4 * abs_slots) as i32));
        out.push(WInstr::Call(self.sh.malloc_idx));
        out.push(WInstr::LocalSet(p));
        // Store segments: content at their abstract offsets, zero padding.
        // (The packed value is the caller/concrete side; the cell layout
        // is the abstract side. Caller-abstract segments copy their slots
        // and pad/truncate as needed.)
        let mut abs_off = 8u32;
        let mut conc_off = 0u32;
        for seg in &segs {
            let store_n = match seg {
                Seg::Exact(ts) => layout_slots(ts),
                Seg::Padded { content, .. } => layout_slots(content),
                Seg::Unpad { src_slots, dst } => layout_slots(dst).min(*src_slots),
                Seg::RePad {
                    src_slots,
                    dst_slots,
                } => (*src_slots).min(*dst_slots),
            };
            self.emit_store_slots(store_n, pool + conc_off, p, abs_off, out);
            let pad = seg.abs_slots() - store_n;
            if pad > 0 {
                self.emit_store_zeros(pad, p, abs_off + 4 * store_n as u32, out);
            }
            abs_off += 4 * seg.abs_slots() as u32;
            conc_off += seg.conc_slots() as u32;
        }
        out.push(WInstr::LocalGet(p));
        self.release_pool(pool);
        Ok(())
    }
}

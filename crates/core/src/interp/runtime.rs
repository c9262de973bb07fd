//! Module instantiation, typed import resolution, and the fuel-bounded
//! execution driver.
//!
//! [`Runtime::instantiate`] is the cross-language safety choke point of
//! the paper (§1): every module is type checked, and every import must
//! *exactly* match the type of the export it binds to — a mismatch (e.g.
//! an ML module exporting an unrestricted-reference function that an L3
//! module imports at a linear-reference type) is a [`TypeError::LinkError`].

use std::collections::HashMap;
use std::sync::Arc;

use crate::error::{RuntimeError, TypeError};
use crate::interp::gc::{collect, GcStats};
use crate::interp::host::{HostFunc, HostFuncs, HostImpl};
use crate::interp::step::{step_config, Config, Outcome};
use crate::interp::store::{Closure, Instance, Store};
use crate::syntax::{FunType, Func, GlobalKind, Index, Instr, Module, Value};
use crate::typecheck::check_module;

/// Execution knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Maximum reduction steps per invocation.
    pub fuel: u64,
    /// Run a collection every `n` steps. `None` or `Some(0)` = never
    /// automatically, only on [`Runtime::gc`].
    pub auto_gc_every: Option<u64>,
    /// Re-type-check every module at instantiation (on by default; the
    /// paper's workflow always checks compiled modules).
    pub check_modules: bool,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            fuel: 10_000_000,
            auto_gc_every: None,
            check_modules: true,
        }
    }
}

/// The result of a successful invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct InvokeResult {
    /// The values left on the stack.
    pub values: Vec<Value>,
    /// Reduction steps taken.
    pub steps: u64,
}

/// The runtime's mutable state as captured by [`Runtime::seal`] and
/// restored by [`Runtime::reset`]. Module code, names and host functions
/// never change after linking (paper Fig. 4: the store is the only
/// mutable state), so they are not part of it.
#[derive(Debug, Clone)]
struct Snapshot {
    store: Store,
    config: RuntimeConfig,
}

/// A RichWasm runtime: a store, the instantiated module definitions, and
/// a name registry for import resolution.
#[derive(Debug, Default)]
pub struct Runtime {
    /// The store (instances + memories).
    pub store: Store,
    /// Module definitions, aligned with `store.insts`. Shared, immutable
    /// ASTs: instantiating a module another runtime also runs copies a
    /// pointer, not the code.
    pub modules: Vec<Arc<Module>>,
    names: HashMap<String, u32>,
    /// Execution configuration.
    pub config: RuntimeConfig,
    /// Host functions, keyed by the closures pointing at them (see
    /// [`Runtime::register_host_module`]).
    pub hosts: HostFuncs,
    snapshot: Option<Snapshot>,
}

// Concurrency contract (enforced at compile time, relied on by the
// embedder's `InstancePool`): a `Runtime` owns its store outright and can
// be *moved* across threads — a server checks a runtime out to one worker
// at a time. It is also `Sync` because every mutating entry point takes
// `&mut self`; host closures are `Send + Sync` by construction
// ([`HostImpl`]). Breaking this (e.g. by introducing `Rc` or a
// non-`Sync` cell into the store) is a compile error here, not a
// surprise in the embedder.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Runtime>();
    assert_send_sync::<Store>();
    assert_send_sync::<HostFuncs>();
    assert_send_sync::<RuntimeConfig>();
    assert_send_sync::<InvokeResult>();
};

impl Runtime {
    /// Creates an empty runtime with default configuration.
    pub fn new() -> Runtime {
        Runtime::default()
    }

    /// Looks up a previously instantiated module by name.
    pub fn instance_by_name(&self, name: &str) -> Option<u32> {
        self.names.get(name).copied()
    }

    /// Type checks and instantiates `module` under `name`, resolving its
    /// imports against previously instantiated modules. Drops any
    /// snapshot taken by [`Runtime::seal`]: it predates this instance.
    ///
    /// # Errors
    ///
    /// * any [`TypeError`] from module checking,
    /// * [`TypeError::LinkError`] when an import cannot be resolved or its
    ///   declared type differs from the export's type.
    pub fn instantiate(
        &mut self,
        name: &str,
        module: impl Into<Arc<Module>>,
    ) -> Result<u32, TypeError> {
        // Dropped before anything can fail: a failed instantiation may
        // already have allocated in the store (global initialisers).
        self.snapshot = None;
        let module = module.into();
        if self.config.check_modules {
            check_module(&module)?;
        }
        let idx = self.store.insts.len() as u32;
        let mut inst = Instance::default();

        // Resolve functions.
        for (fi, f) in module.funcs.iter().enumerate() {
            match f {
                Func::Defined { .. } => {
                    inst.funcs.push(Closure {
                        inst: idx,
                        func: fi as u32,
                    });
                }
                Func::Imported {
                    module: mname,
                    name: fname,
                    ty,
                    ..
                } => {
                    let provider = *self.names.get(mname).ok_or_else(|| TypeError::LinkError {
                        reason: format!("import {mname}.{fname}: no module named {mname}"),
                    })?;
                    let pm = &self.modules[provider as usize];
                    let pf = pm.find_export(fname).ok_or_else(|| TypeError::LinkError {
                        reason: format!("import {mname}.{fname}: no such export"),
                    })?;
                    let exported_ty = pm.funcs[pf as usize].ty();
                    // The FFI safety check: declared import type must equal
                    // the provider's declared export type.
                    if exported_ty != ty {
                        return Err(TypeError::LinkError {
                            reason: format!(
                                "import {mname}.{fname}: type mismatch\n  imported as {ty}\n  \
                                 exported as {exported_ty}"
                            ),
                        });
                    }
                    let cl = self.store.insts[provider as usize].funcs[pf as usize];
                    inst.funcs.push(cl);
                }
            }
        }

        // Globals: evaluate initialisers / resolve imports. Initialisers
        // are instruction sequences (paper Fig. 2) and may allocate; they
        // run against the shared store. The fast path handles plain
        // constants without spinning up a configuration.
        for (gi, g) in module.globals.iter().enumerate() {
            match &g.kind {
                GlobalKind::Defined { init, .. } => {
                    let v = match eval_const(init, &inst.globals) {
                        Ok(v) => v,
                        Err(_) => self.eval_init_config(init, &inst.globals).map_err(|e| {
                            TypeError::Other(format!("global {gi} initialiser failed: {e}"))
                        })?,
                    };
                    inst.globals.push(v);
                }
                GlobalKind::Imported {
                    module: mname,
                    name: gname,
                    mutable,
                    ty,
                } => {
                    let provider = *self.names.get(mname).ok_or_else(|| TypeError::LinkError {
                        reason: format!("import {mname}.{gname}: no module named {mname}"),
                    })?;
                    let pm = &self.modules[provider as usize];
                    let pos = pm
                        .globals
                        .iter()
                        .position(|pg| pg.exports.iter().any(|e| e == gname))
                        .ok_or_else(|| TypeError::LinkError {
                            reason: format!("import {mname}.{gname}: no such global export"),
                        })?;
                    let pg = &pm.globals[pos];
                    if pg.ty() != ty || pg.mutable() != *mutable {
                        return Err(TypeError::LinkError {
                            reason: format!("import {mname}.{gname}: global type mismatch"),
                        });
                    }
                    let v = self.store.insts[provider as usize].globals[pos].clone();
                    inst.globals.push(v);
                }
            }
        }

        // Table.
        for &fi in &module.table.entries {
            let cl = *inst
                .funcs
                .get(fi as usize)
                .ok_or_else(|| TypeError::LinkError {
                    reason: format!("table entry {fi} out of range"),
                })?;
            inst.table.push(cl);
        }

        self.store.insts.push(inst);
        self.modules.push(module);
        self.names.insert(name.to_string(), idx);
        Ok(idx)
    }

    /// Registers a *host module*: a set of Rust closures exposed to
    /// guests as the exports of a module instance named `name`. Guests
    /// import them like any other function
    /// (`Func::Imported { module: name, .. }`) and the typed linker's FFI
    /// check applies unchanged — the declared import type must equal the
    /// host function's declared [`FunType`].
    ///
    /// Host functions must be monomorphic; each closure receives the
    /// argument values in parameter order and must return exactly as many
    /// values as its type declares (a mismatch makes the configuration
    /// stuck). Returning `Err(msg)` traps the guest with
    /// `host function error: msg`.
    ///
    /// The registered module is *not* type checked (it has no RichWasm
    /// bodies); its types are trusted the way an embedder trusts its own
    /// host, which is exactly the paper's boundary story inverted.
    ///
    /// Like [`Runtime::instantiate`], drops any snapshot.
    pub fn register_host_module(
        &mut self,
        name: &str,
        funcs: Vec<(String, FunType, HostImpl)>,
    ) -> u32 {
        self.snapshot = None;
        let idx = self.store.insts.len() as u32;
        let mut inst = Instance::default();
        let mut module = Module::default();
        for (fi, (export, ty, imp)) in funcs.into_iter().enumerate() {
            inst.funcs.push(Closure {
                inst: idx,
                func: fi as u32,
            });
            self.hosts.insert(
                idx,
                fi as u32,
                HostFunc {
                    ty: ty.clone(),
                    imp,
                },
            );
            // The defined body is a tripwire: calls are intercepted by the
            // host table before any body runs, so reaching it means the
            // interception broke.
            module.funcs.push(Func::Defined {
                exports: vec![export],
                ty,
                locals: vec![],
                body: vec![Instr::Unreachable],
            });
        }
        self.store.insts.push(inst);
        self.modules.push(Arc::new(module));
        self.names.insert(name.to_string(), idx);
        idx
    }

    /// Captures the store and the configuration as the runtime's
    /// *snapshot*, enabling [`Runtime::reset`].
    ///
    /// Call this once every module is instantiated: the snapshot then
    /// is the freshly linked program, and resetting to it is equivalent
    /// to — but much cheaper than — linking every module again.
    pub fn seal(&mut self) {
        self.snapshot = Some(Snapshot {
            store: self.store.clone(),
            config: self.config,
        });
    }

    /// True while a snapshot taken by [`Runtime::seal`] is held.
    pub fn is_sealed(&self) -> bool {
        self.snapshot.is_some()
    }

    /// Restores the store (instance globals and both memories, including
    /// their allocation cursors and lifetime counters) and the
    /// configuration to the snapshot taken by [`Runtime::seal`], in
    /// place. The snapshot is kept, so a runtime can be reset any number
    /// of times.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::BadStore`] when no snapshot is held: the runtime
    /// was never sealed, or a module was linked in since.
    pub fn reset(&mut self) -> Result<(), RuntimeError> {
        let snap = self
            .snapshot
            .as_ref()
            .ok_or_else(|| RuntimeError::BadStore {
                reason: "reset without a sealed snapshot".into(),
            })?;
        self.store.clone_from(&snap.store);
        self.config = snap.config;
        Ok(())
    }

    /// Invokes the export `name` of instance `inst` with `args`.
    ///
    /// # Errors
    ///
    /// Traps, stuck configurations, and fuel exhaustion are reported as
    /// [`RuntimeError`].
    pub fn invoke(
        &mut self,
        inst: u32,
        name: &str,
        args: Vec<Value>,
    ) -> Result<InvokeResult, RuntimeError> {
        self.invoke_instantiated(inst, name, args, vec![])
    }

    /// Invokes a (possibly polymorphic) export with explicit instantiation
    /// indices.
    pub fn invoke_instantiated(
        &mut self,
        inst: u32,
        name: &str,
        args: Vec<Value>,
        indices: Vec<Index>,
    ) -> Result<InvokeResult, RuntimeError> {
        let module = self
            .modules
            .get(inst as usize)
            .ok_or(RuntimeError::BadStore {
                reason: format!("no instance {inst}"),
            })?;
        let func = module
            .find_export(name)
            .ok_or_else(|| RuntimeError::BadStore {
                reason: format!("instance {inst} has no export {name}"),
            })?;
        let mut cfg = Config::call(inst, func, args, indices);
        let result = self.run(&mut cfg)?;
        Ok(result)
    }

    /// Invokes function `func` (an index into instance `inst`'s function
    /// list) with `args`, skipping the export-name lookup entirely. This
    /// is the pre-resolved fast path behind `TypedFunc`-style embedder
    /// handles: resolve once, call many times.
    ///
    /// # Errors
    ///
    /// As [`Runtime::invoke`]; an out-of-range index surfaces as a
    /// [`RuntimeError::BadStore`].
    pub fn invoke_func(
        &mut self,
        inst: u32,
        func: u32,
        args: Vec<Value>,
    ) -> Result<InvokeResult, RuntimeError> {
        let mut cfg = Config::call(inst, func, args, vec![]);
        self.run(&mut cfg)
    }

    /// Drives a configuration to completion (fuel-bounded), collecting
    /// after every `auto_gc_every`-th step.
    pub fn run(&mut self, cfg: &mut Config) -> Result<InvokeResult, RuntimeError> {
        let mut steps = 0u64;
        let gc_every = self.config.auto_gc_every.unwrap_or(0);
        // Steps left until the next collection; stays 0 when there is none.
        let mut until_gc = gc_every;
        loop {
            if steps >= self.config.fuel {
                return Err(RuntimeError::OutOfFuel);
            }
            match step_config(&mut self.store, &self.modules, &self.hosts, cfg)? {
                Outcome::Stepped => {
                    steps += 1;
                    if until_gc != 0 {
                        until_gc -= 1;
                        if until_gc == 0 {
                            collect(&mut self.store, Some(cfg));
                            until_gc = gc_every;
                        }
                    }
                }
                Outcome::Done => {
                    let values = cfg.results().expect("done means all values");
                    return Ok(InvokeResult { values, steps });
                }
                Outcome::Trapped => {
                    return Err(RuntimeError::Trap {
                        reason: cfg.trap_reason.clone().unwrap_or_else(|| "trap".into()),
                    });
                }
            }
        }
    }

    /// Evaluates a non-constant global initialiser by running it as a
    /// configuration against the current store.
    fn eval_init_config(
        &mut self,
        init: &[Instr],
        earlier: &[Value],
    ) -> Result<Value, RuntimeError> {
        // Earlier globals of the instance being built are visible through
        // a temporary instance.
        let tmp = Instance {
            globals: earlier.to_vec(),
            ..Instance::default()
        };
        self.store.insts.push(tmp);
        self.modules.push(Arc::default());
        let inst_idx = (self.store.insts.len() - 1) as u32;
        let mut cfg = Config {
            inst: inst_idx,
            locals: Vec::new(),
            instrs: init.to_vec(),
            trap_reason: None,
        };
        let result = self.run(&mut cfg);
        self.store.insts.pop();
        self.modules.pop();
        let r = result?;
        r.values
            .into_iter()
            .next()
            .ok_or_else(|| RuntimeError::stuck("initialiser left no value"))
    }

    /// Runs the garbage collector with the instances' globals as roots
    /// (use [`Runtime::run`]'s `auto_gc_every` to collect mid-run).
    pub fn gc(&mut self) -> GcStats {
        collect(&mut self.store, None)
    }
}

/// Evaluates a constant initialiser expression.
fn eval_const(init: &[Instr], globals: &[Value]) -> Result<Value, String> {
    let mut stack: Vec<Value> = Vec::new();
    for e in init {
        match e {
            Instr::Val(v) => stack.push(v.clone()),
            Instr::GetGlobal(i) => {
                stack.push(
                    globals
                        .get(*i as usize)
                        .cloned()
                        .ok_or_else(|| format!("get_global {i} out of range"))?,
                );
            }
            other => return Err(format!("non-constant instruction {other}")),
        }
    }
    match stack.len() {
        1 => Ok(stack.pop().expect("len checked")),
        n => Err(format!("initialiser left {n} values")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::*;

    fn answer_module() -> Module {
        Module {
            funcs: vec![Func::Defined {
                exports: vec!["answer".into()],
                ty: FunType::mono(vec![], vec![Type::num(NumType::I32)]),
                locals: vec![],
                body: vec![Instr::i32(42)],
            }],
            ..Module::default()
        }
    }

    #[test]
    fn instantiate_and_invoke() {
        let mut rt = Runtime::new();
        let idx = rt.instantiate("m", answer_module()).unwrap();
        let r = rt.invoke(idx, "answer", vec![]).unwrap();
        assert_eq!(r.values, vec![Value::i32(42)]);
        assert!(r.steps > 0);
    }

    #[test]
    fn import_resolution_and_cross_module_call() {
        let mut rt = Runtime::new();
        rt.instantiate("provider", answer_module()).unwrap();
        let client = Module {
            funcs: vec![
                Func::Imported {
                    exports: vec![],
                    module: "provider".into(),
                    name: "answer".into(),
                    ty: FunType::mono(vec![], vec![Type::num(NumType::I32)]),
                },
                Func::Defined {
                    exports: vec!["main".into()],
                    ty: FunType::mono(vec![], vec![Type::num(NumType::I32)]),
                    locals: vec![],
                    body: vec![
                        Instr::Call(0, vec![]),
                        Instr::i32(1),
                        Instr::Num(NumInstr::IntBinop(NumType::I32, instr::IntBinop::Add)),
                    ],
                },
            ],
            ..Module::default()
        };
        let c = rt.instantiate("client", client).unwrap();
        let r = rt.invoke(c, "main", vec![]).unwrap();
        assert_eq!(r.values, vec![Value::i32(43)]);
    }

    #[test]
    fn host_module_import_and_call() {
        use std::sync::Arc;
        let mut rt = Runtime::new();
        rt.register_host_module(
            "host",
            vec![(
                "double".into(),
                FunType::mono(vec![Type::num(NumType::I32)], vec![Type::num(NumType::I32)]),
                Arc::new(|args: &[Value]| {
                    let Some(bits) = args[0].as_i32() else {
                        return Err("expected i32".into());
                    };
                    Ok(vec![Value::i32((bits as i32).wrapping_mul(2))])
                }),
            )],
        );
        let client = Module {
            funcs: vec![
                Func::Imported {
                    exports: vec![],
                    module: "host".into(),
                    name: "double".into(),
                    ty: FunType::mono(vec![Type::num(NumType::I32)], vec![Type::num(NumType::I32)]),
                },
                Func::Defined {
                    exports: vec!["main".into()],
                    ty: FunType::mono(vec![], vec![Type::num(NumType::I32)]),
                    locals: vec![],
                    body: vec![
                        Instr::i32(20),
                        Instr::Call(0, vec![]),
                        Instr::i32(1),
                        Instr::Num(NumInstr::IntBinop(NumType::I32, instr::IntBinop::Add)),
                    ],
                },
            ],
            ..Module::default()
        };
        let c = rt.instantiate("client", client).unwrap();
        let r = rt.invoke(c, "main", vec![]).unwrap();
        assert_eq!(r.values, vec![Value::i32(41)]);
    }

    #[test]
    fn host_import_type_mismatch_is_a_link_error() {
        use std::sync::Arc;
        let mut rt = Runtime::new();
        rt.register_host_module(
            "host",
            vec![(
                "f".into(),
                FunType::mono(vec![], vec![Type::num(NumType::I32)]),
                Arc::new(|_: &[Value]| Ok(vec![Value::i32(0)])),
            )],
        );
        let client = Module {
            funcs: vec![Func::Imported {
                exports: vec![],
                module: "host".into(),
                name: "f".into(),
                // Lies about the host's type.
                ty: FunType::mono(vec![], vec![Type::num(NumType::I64)]),
            }],
            ..Module::default()
        };
        let err = rt.instantiate("client", client).unwrap_err();
        assert!(matches!(err, TypeError::LinkError { .. }), "{err}");
    }

    #[test]
    fn host_ill_typed_result_traps_guest() {
        use std::sync::Arc;
        let mut rt = Runtime::new();
        rt.register_host_module(
            "host",
            vec![(
                "f".into(),
                FunType::mono(vec![], vec![Type::num(NumType::I32)]),
                // Misbehaving host: declares i32, returns unit.
                Arc::new(|_: &[Value]| Ok(vec![Value::Unit])),
            )],
        );
        let client = Module {
            funcs: vec![
                Func::Imported {
                    exports: vec![],
                    module: "host".into(),
                    name: "f".into(),
                    ty: FunType::mono(vec![], vec![Type::num(NumType::I32)]),
                },
                Func::Defined {
                    exports: vec!["main".into()],
                    ty: FunType::mono(vec![], vec![Type::num(NumType::I32)]),
                    locals: vec![],
                    body: vec![Instr::Call(0, vec![])],
                },
            ],
            ..Module::default()
        };
        let c = rt.instantiate("client", client).unwrap();
        let err = rt.invoke(c, "main", vec![]).unwrap_err();
        assert!(
            err.to_string().contains("its type declares"),
            "the store re-checks host results: {err}"
        );
    }

    #[test]
    fn host_error_traps_guest() {
        use std::sync::Arc;
        let mut rt = Runtime::new();
        rt.register_host_module(
            "host",
            vec![(
                "f".into(),
                FunType::mono(vec![], vec![]),
                Arc::new(|_: &[Value]| Err("host says no".into())),
            )],
        );
        let client = Module {
            funcs: vec![
                Func::Imported {
                    exports: vec![],
                    module: "host".into(),
                    name: "f".into(),
                    ty: FunType::mono(vec![], vec![]),
                },
                Func::Defined {
                    exports: vec!["main".into()],
                    ty: FunType::mono(vec![], vec![]),
                    locals: vec![],
                    body: vec![Instr::Call(0, vec![])],
                },
            ],
            ..Module::default()
        };
        let c = rt.instantiate("client", client).unwrap();
        let err = rt.invoke(c, "main", vec![]).unwrap_err();
        assert!(
            err.to_string()
                .contains("host function error: host says no"),
            "{err}"
        );
    }

    #[test]
    fn import_type_mismatch_is_a_link_error() {
        let mut rt = Runtime::new();
        rt.instantiate("provider", answer_module()).unwrap();
        let client = Module {
            funcs: vec![Func::Imported {
                exports: vec![],
                module: "provider".into(),
                name: "answer".into(),
                // Lies about the export's type.
                ty: FunType::mono(vec![], vec![Type::num(NumType::I64)]),
            }],
            ..Module::default()
        };
        let err = rt.instantiate("client", client).unwrap_err();
        assert!(matches!(err, TypeError::LinkError { .. }), "{err}");
    }

    #[test]
    fn missing_import_is_a_link_error() {
        let mut rt = Runtime::new();
        let client = Module {
            funcs: vec![Func::Imported {
                exports: vec![],
                module: "ghost".into(),
                name: "f".into(),
                ty: FunType::mono(vec![], vec![]),
            }],
            ..Module::default()
        };
        assert!(matches!(
            rt.instantiate("client", client),
            Err(TypeError::LinkError { .. })
        ));
    }

    #[test]
    fn globals_initialise_and_mutate() {
        let m = Module {
            funcs: vec![Func::Defined {
                exports: vec!["bump".into()],
                ty: FunType::mono(vec![], vec![Type::num(NumType::I32)]),
                locals: vec![],
                body: vec![
                    Instr::GetGlobal(0),
                    Instr::i32(1),
                    Instr::Num(NumInstr::IntBinop(NumType::I32, instr::IntBinop::Add)),
                    Instr::SetGlobal(0),
                    Instr::GetGlobal(0),
                ],
            }],
            globals: vec![Global {
                exports: vec![],
                kind: GlobalKind::Defined {
                    mutable: true,
                    ty: Pretype::Num(NumType::I32),
                    init: vec![Instr::i32(10)],
                },
            }],
            ..Module::default()
        };
        let mut rt = Runtime::new();
        let idx = rt.instantiate("m", m).unwrap();
        assert_eq!(
            rt.invoke(idx, "bump", vec![]).unwrap().values,
            vec![Value::i32(11)]
        );
        assert_eq!(
            rt.invoke(idx, "bump", vec![]).unwrap().values,
            vec![Value::i32(12)]
        );
    }

    #[test]
    fn fuel_exhaustion_reported() {
        let m = Module {
            funcs: vec![Func::Defined {
                exports: vec!["spin".into()],
                ty: FunType::mono(vec![], vec![]),
                locals: vec![],
                body: vec![Instr::LoopI(
                    ArrowType::default(),
                    vec![Instr::i32(1), Instr::BrIf(0)],
                )],
            }],
            ..Module::default()
        };
        let mut rt = Runtime::new();
        rt.config.fuel = 1000;
        let idx = rt.instantiate("m", m).unwrap();
        assert_eq!(rt.invoke(idx, "spin", vec![]), Err(RuntimeError::OutOfFuel));
    }

    #[test]
    fn indirect_call_through_table() {
        let m = Module {
            funcs: vec![
                Func::Defined {
                    exports: vec![],
                    ty: FunType::mono(vec![Type::num(NumType::I32)], vec![Type::num(NumType::I32)]),
                    locals: vec![],
                    body: vec![
                        Instr::GetLocal(0, Qual::Unr),
                        Instr::i32(2),
                        Instr::Num(NumInstr::IntBinop(NumType::I32, instr::IntBinop::Mul)),
                    ],
                },
                Func::Defined {
                    exports: vec!["main".into()],
                    ty: FunType::mono(vec![], vec![Type::num(NumType::I32)]),
                    locals: vec![],
                    body: vec![Instr::i32(21), Instr::CodeRefI(0), Instr::CallIndirect],
                },
            ],
            table: Table {
                exports: vec![],
                entries: vec![0],
            },
            ..Module::default()
        };
        let mut rt = Runtime::new();
        let idx = rt.instantiate("m", m).unwrap();
        assert_eq!(
            rt.invoke(idx, "main", vec![]).unwrap().values,
            vec![Value::i32(42)]
        );
    }

    /// `churn`: bumps a global, then allocates and frees a linear struct
    /// and allocates and drops an unrestricted one, returning the new
    /// global value. Afterwards the linear map is empty again, but its
    /// allocation cursor and the lifetime counters have moved.
    fn churn_module() -> Module {
        let unpack = |body| {
            Instr::MemUnpack(
                instr::Block::new(ArrowType::new(vec![], vec![]), vec![]),
                body,
            )
        };
        Module {
            funcs: vec![Func::Defined {
                exports: vec!["churn".into()],
                ty: FunType::mono(vec![], vec![Type::num(NumType::I32)]),
                locals: vec![],
                body: vec![
                    Instr::GetGlobal(0),
                    Instr::i32(1),
                    Instr::Num(NumInstr::IntBinop(NumType::I32, instr::IntBinop::Add)),
                    Instr::SetGlobal(0),
                    Instr::i32(7),
                    Instr::StructMalloc(vec![Size::Const(64)], Qual::Lin),
                    unpack(vec![Instr::StructGet(0), Instr::Drop, Instr::StructFree]),
                    Instr::i32(8),
                    Instr::StructMalloc(vec![Size::Const(64)], Qual::Unr),
                    unpack(vec![Instr::Drop]),
                    Instr::GetGlobal(0),
                ],
            }],
            globals: vec![Global {
                exports: vec![],
                kind: GlobalKind::Defined {
                    mutable: true,
                    ty: Pretype::Num(NumType::I32),
                    init: vec![Instr::i32(10)],
                },
            }],
            ..Module::default()
        }
    }

    #[test]
    fn reset_restores_the_sealed_store_and_config() {
        let mut rt = Runtime::new();
        let idx = rt.instantiate("m", churn_module()).unwrap();
        rt.seal();
        assert!(rt.is_sealed());
        let (fresh_store, fresh_config) = (rt.store.clone(), rt.config);

        let first = rt.invoke(idx, "churn", vec![]).unwrap();
        assert_eq!(first.values, vec![Value::i32(11)]);
        let mem = &rt.store.mem;
        assert_eq!(mem.lin, fresh_store.mem.lin, "the linear cell was freed");
        assert_eq!((mem.allocs, mem.frees, mem.unr.len()), (2, 1, 1));
        assert_ne!(rt.store, fresh_store);
        rt.config.fuel = 5;
        rt.config.auto_gc_every = Some(3);

        rt.reset().unwrap();
        assert_eq!(rt.store, fresh_store);
        assert_eq!(rt.config, fresh_config);
        assert!(rt.is_sealed(), "the snapshot survives a reset");
        assert_eq!(rt.invoke(idx, "churn", vec![]).unwrap(), first);
    }

    #[test]
    fn reset_without_a_snapshot_is_an_error() {
        let mut rt = Runtime::new();
        rt.instantiate("m", churn_module()).unwrap();
        assert!(!rt.is_sealed());
        assert!(matches!(rt.reset(), Err(RuntimeError::BadStore { .. })));
    }

    #[test]
    fn linking_after_seal_drops_the_snapshot() {
        let mut rt = Runtime::new();
        rt.instantiate("a", churn_module()).unwrap();
        rt.seal();
        rt.instantiate("b", answer_module()).unwrap();
        assert!(!rt.is_sealed());
        assert!(rt.reset().is_err());

        rt.seal();
        rt.register_host_module("host", vec![]);
        assert!(!rt.is_sealed());

        // A failed instantiation may already have touched the store, so
        // it drops the snapshot too.
        rt.seal();
        let client = Module {
            funcs: vec![Func::Imported {
                exports: vec![],
                module: "ghost".into(),
                name: "f".into(),
                ty: FunType::mono(vec![], vec![]),
            }],
            ..Module::default()
        };
        assert!(rt.instantiate("client", client).is_err());
        assert!(!rt.is_sealed());
    }

    #[test]
    fn instantiating_a_shared_module_copies_no_code() {
        let m = Arc::new(answer_module());
        let mut a = Runtime::new();
        let mut b = Runtime::new();
        a.instantiate("m", Arc::clone(&m)).unwrap();
        b.instantiate("m", Arc::clone(&m)).unwrap();
        assert!(Arc::ptr_eq(&a.modules[0], &b.modules[0]));
        assert_eq!(Arc::strong_count(&m), 3);
    }
}

#[cfg(test)]
mod poly_tests {
    use super::*;
    use crate::syntax::*;

    #[test]
    fn invoke_polymorphic_export_with_indices() {
        // id : ∀α≲64. [α] → [α], exported and invoked at i32.
        let m = Module {
            funcs: vec![Func::Defined {
                exports: vec!["id".into()],
                ty: FunType {
                    quants: vec![Quantifier::Type {
                        lower_qual: Qual::Unr,
                        size: Size::Const(64),
                        may_contain_caps: false,
                    }],
                    arrow: ArrowType::new(vec![Pretype::Var(0).unr()], vec![Pretype::Var(0).unr()]),
                },
                locals: vec![],
                body: vec![Instr::GetLocal(0, Qual::Unr)],
            }],
            ..Module::default()
        };
        let mut rt = Runtime::new();
        let idx = rt.instantiate("m", m).unwrap();
        let out = rt
            .invoke_instantiated(
                idx,
                "id",
                vec![Value::i32(7)],
                vec![Index::Pretype(Pretype::Num(NumType::I32))],
            )
            .unwrap();
        assert_eq!(out.values, vec![Value::i32(7)]);
        // And at a tuple type.
        let out = rt
            .invoke_instantiated(
                idx,
                "id",
                vec![Value::Prod(vec![Value::i32(1), Value::i32(2)])],
                vec![Index::Pretype(Pretype::Prod(vec![
                    Type::num(NumType::I32),
                    Type::num(NumType::I32),
                ]))],
            )
            .unwrap();
        assert_eq!(
            out.values,
            vec![Value::Prod(vec![Value::i32(1), Value::i32(2)])]
        );
    }

    #[test]
    fn missing_export_reported() {
        let mut rt = Runtime::new();
        let idx = rt.instantiate("m", Module::default()).unwrap();
        let err = rt.invoke(idx, "nope", vec![]).unwrap_err();
        assert!(err.to_string().contains("no export"), "{err}");
    }

    #[test]
    fn gc_between_invocations_preserves_module_state() {
        // A module global rooted across collections.
        let m = Module {
            globals: vec![Global {
                exports: vec![],
                kind: GlobalKind::Defined {
                    mutable: true,
                    ty: Pretype::Num(NumType::I32),
                    init: vec![Instr::i32(5)],
                },
            }],
            funcs: vec![Func::Defined {
                exports: vec!["get".into()],
                ty: FunType::mono(vec![], vec![Type::num(NumType::I32)]),
                locals: vec![],
                body: vec![Instr::GetGlobal(0)],
            }],
            ..Module::default()
        };
        let mut rt = Runtime::new();
        let idx = rt.instantiate("m", m).unwrap();
        rt.gc();
        assert_eq!(
            rt.invoke(idx, "get", vec![]).unwrap().values,
            vec![Value::i32(5)]
        );
    }
}

//! Calls into the served programs, each with its reference result
//! computed in closed form — never by asking the engine.
//!
//! * `churn(n)` `main` → `n`
//! * `arith_chain(n)` `main(x)` → `n·x + 1` (wrapping i32)
//! * `ml_tower(d)` `main` → `2^d` (wrapping i32)
//! * the Fig. 1/3 stash client `main` → 42
//! * the Fig. 9 counter: `setup(step)`, `k × bump`, `total` → `step·k`

use richwasm_repro::engine::{Instance, Invocation};
use richwasm_repro::richwasm::syntax::{NumType, Value};
use richwasm_repro::wasm::Val;

use crate::trace::Tracer;

/// One export call and the result it must return (`None`: unit).
#[derive(Clone, Debug)]
pub struct Call {
    pub module: &'static str,
    pub func: &'static str,
    pub args: Vec<Value>,
    pub expect: Option<i32>,
}

impl Call {
    pub fn new(
        module: &'static str,
        func: &'static str,
        args: Vec<Value>,
        expect: Option<i32>,
    ) -> Call {
        Call {
            module,
            func,
            args,
            expect,
        }
    }

    pub fn churn(module: &'static str, n: u32) -> Call {
        Call::new(module, "main", vec![], Some(n as i32))
    }

    pub fn arith(module: &'static str, n: u32, x: i32) -> Call {
        let expect = (n as i32).wrapping_mul(x).wrapping_add(1);
        Call::new(module, "main", vec![Value::i32(x)], Some(expect))
    }

    pub fn tower(module: &'static str, depth: u32) -> Call {
        Call::new(module, "main", vec![], Some(1i32.wrapping_shl(depth)))
    }

    pub fn stash(client: &'static str) -> Call {
        Call::new(client, "main", vec![], Some(42))
    }

    /// The counter session: `setup(step)`, `k` bumps, then `total`.
    pub fn counter(client: &'static str, step: i32, k: u32) -> Vec<Call> {
        let mut calls = vec![Call::new(client, "setup", vec![Value::i32(step)], None)];
        for _ in 0..k {
            calls.push(Call::new(client, "bump", vec![Value::Unit], None));
        }
        calls.push(Call::new(
            client,
            "total",
            vec![Value::Unit],
            Some(step.wrapping_mul(k as i32)),
        ));
        calls
    }

    /// True when the engine's answer equals the reference.
    pub fn accepts(&self, inv: &Invocation) -> bool {
        match self.expect {
            Some(v) => inv.i32() == Some(v),
            None => inv.results().is_empty(),
        }
    }

    fn accepts_wasm(&self, vals: &[Val]) -> bool {
        match self.expect {
            Some(v) => vals == [Val::I32(v as u32)],
            None => vals.is_empty(),
        }
    }

    fn accepts_interp(&self, vals: &[Value]) -> bool {
        let scalars: Vec<&Value> = vals.iter().filter(|v| **v != Value::Unit).collect();
        match self.expect {
            Some(v) => scalars == [&Value::i32(v)],
            None => scalars.is_empty(),
        }
    }

    /// The arguments as the Wasm backend takes them: `unit` erases.
    fn wasm_args(&self) -> Vec<Val> {
        self.args
            .iter()
            .filter_map(|a| match a {
                Value::Num(NumType::I32, bits) => Some(Val::I32(*bits as u32)),
                _ => None,
            })
            .collect()
    }
}

/// Runs `calls` through `Instance::invoke`, each in an `engine.invoke`
/// span; false when any call fails or returns a wrong result.
pub fn invoke_all(inst: &mut Instance, calls: &[Call], tr: &mut Tracer, op: u64) -> bool {
    let mut ok = true;
    for c in calls {
        let id = tr.begin("engine.invoke", op);
        let r = inst.invoke(c.module, c.func, c.args.clone());
        tr.end(id);
        ok &= r.is_ok_and(|inv| c.accepts(&inv));
    }
    ok
}

/// Steps the backends took, summed over replayed calls.
#[derive(Default)]
pub struct Steps {
    pub wasm: u64,
    pub interp: u64,
}

/// Traced runs only: replays `calls` on a fresh instance directly through
/// its backends' public calls (`Runtime::invoke`, `WasmLinker::invoke`,
/// then `WasmLinker::reset`), in `interp.invoke` / `wasm.invoke` /
/// `reset.wasm` spans, and leaves the instance fresh again. The benchmark
/// cannot open spans inside `Instance::invoke`; this replay is how it
/// splits the engine's own share of an invocation from the backends'.
/// Returns false when a backend disagrees with the reference.
pub fn replay_backends(
    inst: &mut Instance,
    calls: &[Call],
    tr: &mut Tracer,
    op: u64,
    steps: &mut Steps,
) -> bool {
    let mut ok = true;
    if let Some(rt) = inst.richwasm.as_mut() {
        for c in calls {
            let Some(i) = rt.instance_by_name(c.module) else {
                return false;
            };
            let r = tr.time("interp.invoke", op, || rt.invoke(i, c.func, c.args.clone()));
            match r {
                Ok(res) => {
                    steps.interp += res.steps;
                    ok &= c.accepts_interp(&res.values);
                }
                Err(_) => ok = false,
            }
        }
    }
    if let Some(linker) = inst.wasm.as_mut() {
        for c in calls {
            let Some(i) = linker.instance_by_name(c.module) else {
                return false;
            };
            let args = c.wasm_args();
            let r = tr.time("wasm.invoke", op, || linker.invoke(i, c.func, &args));
            steps.wasm += linker.last_steps();
            ok &= r.is_ok_and(|vals| c.accepts_wasm(&vals));
        }
        ok &= tr.time("reset.wasm", op, || linker.reset()).is_ok();
    }
    if inst.richwasm.is_some() {
        ok &= inst.reset().is_ok();
    }
    ok
}

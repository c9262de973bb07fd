//! The typed host↔guest call boundary.
//!
//! The paper brings *typed* interoperability to the guest↔guest boundary;
//! this module extends the same discipline to the embedder boundary, in
//! the wasmtime `TypedFunc` style:
//!
//! * [`HostVal`] — the public value type crossing the boundary: 32/64-bit
//!   integers with the signedness RichWasm's `i32`/`u32`/`i64`/`u64`
//!   numeric types distinguish.
//! * [`WasmParams`] / [`WasmResults`] — sealed conversion traits mapping
//!   Rust types (`i32`, `i64`, `u32`, `u64`, `()` and tuples up to arity
//!   4) to and from boundary values.
//! * [`TypedFunc`] — a pre-resolved, pre-checked handle to a guest
//!   export, obtained with [`Instance::get_typed_func`]. The signature is
//!   validated **once**, against the artifact's *checked* RichWasm types;
//!   [`TypedFunc::call`] then performs no name lookup and no signature
//!   re-check — just value conversion around the invocation core that
//!   [`Instance::invoke`] uses too (execution on every live backend and,
//!   in differential mode, cross-backend agreement).
//! * [`HostSig`] plus the host-function machinery behind
//!   [`ModuleSet::host_fn`](crate::engine::ModuleSet::host_fn): one Rust
//!   closure over [`HostVal`]s, installed into *both* backends at
//!   instantiation so differential checking keeps running across host
//!   calls (see `DESIGN.md` §6 for the record/replay scheme that makes a
//!   stateful host observable exactly once per invocation).

use std::collections::VecDeque;
use std::fmt;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex};

use richwasm::interp::InvokeResult;
use richwasm::syntax::{FunType, NumType, Pretype, Type, Value};
use richwasm_wasm::ast::{FuncType, ValType};
use richwasm_wasm::exec::{Val, WasmTrap};

use crate::engine::{Instance, PipelineError, PipelineErrorKind, Signature, Stage, Target};

/// A value crossing the host↔guest boundary.
///
/// Signedness is tracked because RichWasm's type system distinguishes
/// `i32` from `u32` (and `i64` from `u64`); standard Wasm does not, so
/// values arriving from the Wasm backend carry the signedness of the
/// *declared* guest type. Two boundary values agree when they have the
/// same width and the same bit pattern — signedness is a view, not data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostVal {
    /// A signed 32-bit integer.
    I32(i32),
    /// An unsigned 32-bit integer.
    U32(u32),
    /// A signed 64-bit integer.
    I64(i64),
    /// An unsigned 64-bit integer.
    U64(u64),
}

/// The type of a [`HostVal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HostValType {
    /// Signed 32-bit integer.
    I32,
    /// Unsigned 32-bit integer.
    U32,
    /// Signed 64-bit integer.
    I64,
    /// Unsigned 64-bit integer.
    U64,
}

impl fmt::Display for HostValType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            HostValType::I32 => "i32",
            HostValType::U32 => "u32",
            HostValType::I64 => "i64",
            HostValType::U64 => "u64",
        })
    }
}

impl HostValType {
    /// The type's width in bits (32 or 64).
    pub fn width_bits(self) -> u32 {
        match self {
            HostValType::I32 | HostValType::U32 => 32,
            HostValType::I64 | HostValType::U64 => 64,
        }
    }

    /// Two boundary types are interchangeable when they have the same
    /// width: neither backend can observe signedness of a bit pattern,
    /// so `i32`↔`u32` and `i64`↔`u64` convert freely.
    pub fn compatible(self, other: HostValType) -> bool {
        self.width_bits() == other.width_bits()
    }

    /// The RichWasm numeric type this boundary type corresponds to.
    pub(crate) fn num_type(self) -> NumType {
        match self {
            HostValType::I32 => NumType::I32,
            HostValType::U32 => NumType::U32,
            HostValType::I64 => NumType::I64,
            HostValType::U64 => NumType::U64,
        }
    }

    /// The Wasm value type this boundary type lowers to.
    pub(crate) fn val_type(self) -> ValType {
        match self {
            HostValType::I32 | HostValType::U32 => ValType::I32,
            HostValType::I64 | HostValType::U64 => ValType::I64,
        }
    }
}

impl HostVal {
    /// The value's type.
    pub fn ty(&self) -> HostValType {
        match self {
            HostVal::I32(_) => HostValType::I32,
            HostVal::U32(_) => HostValType::U32,
            HostVal::I64(_) => HostValType::I64,
            HostVal::U64(_) => HostValType::U64,
        }
    }

    /// The raw bit pattern, zero-extended to 64 bits (32-bit values use
    /// the low half; signed values are *not* sign-extended, mirroring how
    /// RichWasm stores numeric payloads).
    pub fn bits(&self) -> u64 {
        match self {
            HostVal::I32(v) => *v as u32 as u64,
            HostVal::U32(v) => *v as u64,
            HostVal::I64(v) => *v as u64,
            HostVal::U64(v) => *v,
        }
    }

    /// Reinterprets the bit pattern at another boundary type of the same
    /// width. `None` on a width mismatch.
    pub fn cast(self, to: HostValType) -> Option<HostVal> {
        if !self.ty().compatible(to) {
            return None;
        }
        Some(HostVal::from_bits(to, self.bits()))
    }

    /// Builds a value of type `t` from raw bits (low 32 used for 32-bit
    /// types).
    pub fn from_bits(t: HostValType, bits: u64) -> HostVal {
        match t {
            HostValType::I32 => HostVal::I32(bits as u32 as i32),
            HostValType::U32 => HostVal::U32(bits as u32),
            HostValType::I64 => HostVal::I64(bits as i64),
            HostValType::U64 => HostVal::U64(bits),
        }
    }

    /// The RichWasm value with this bit pattern at the *declared* guest
    /// type `t` (same width required, checked by the caller).
    pub(crate) fn to_value_as(self, t: HostValType) -> Value {
        Value::Num(t.num_type(), self.bits())
    }

    /// The Wasm runtime value (signedness erases).
    pub(crate) fn to_wasm_val(self) -> Val {
        match self.ty().width_bits() {
            32 => Val::I32(self.bits() as u32),
            _ => Val::I64(self.bits()),
        }
    }

    /// Reads a RichWasm numeric value back as a boundary value. `None`
    /// for floats and non-numeric values.
    pub(crate) fn of_value(v: &Value) -> Option<HostVal> {
        match v {
            Value::Num(NumType::I32, bits) => Some(HostVal::I32(*bits as u32 as i32)),
            Value::Num(NumType::U32, bits) => Some(HostVal::U32(*bits as u32)),
            Value::Num(NumType::I64, bits) => Some(HostVal::I64(*bits as i64)),
            Value::Num(NumType::U64, bits) => Some(HostVal::U64(*bits)),
            _ => None,
        }
    }

    /// Reads a Wasm runtime value at the declared boundary type `want`
    /// (which supplies the signedness Wasm erased). `None` on a width
    /// mismatch or a float.
    pub(crate) fn of_wasm_val(v: Val, want: HostValType) -> Option<HostVal> {
        match (v, want.width_bits()) {
            (Val::I32(bits), 32) => Some(HostVal::from_bits(want, bits as u64)),
            (Val::I64(bits), 64) => Some(HostVal::from_bits(want, bits)),
            _ => None,
        }
    }
}

impl fmt::Display for HostVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HostVal::I32(v) => write!(f, "{v}: i32"),
            HostVal::U32(v) => write!(f, "{v}: u32"),
            HostVal::I64(v) => write!(f, "{v}: i64"),
            HostVal::U64(v) => write!(f, "{v}: u64"),
        }
    }
}

/// The agreed boundary view of an invocation's results: the RichWasm
/// values flattened the way the compiler flattens result types (`unit`
/// erases; signedness comes from the declared types), or, when only the
/// Wasm backend ran, its values read as signed (standard Wasm erases
/// signedness). `None` when a value has no integer-scalar representation
/// (floats, references, tuples, …) or neither backend ran.
pub(crate) fn agreed_view<B: FromIterator<HostVal>>(
    richwasm: Option<&InvokeResult>,
    wasm: Option<&[Val]>,
) -> Option<B> {
    match (richwasm, wasm) {
        (Some(r), _) => r
            .values
            .iter()
            .filter(|v| !matches!(v, Value::Unit))
            .map(HostVal::of_value)
            .collect(),
        (None, Some(vals)) => vals
            .iter()
            .map(|v| match v {
                Val::I32(bits) => Some(HostVal::I32(*bits as i32)),
                Val::I64(bits) => Some(HostVal::I64(*bits as i64)),
                Val::F32(_) | Val::F64(_) => None,
            })
            .collect(),
        (None, None) => None,
    }
}

/// A fixed-capacity, stack-allocated buffer of boundary values. The
/// conversion traits cap aggregate arity at 4, so the typed call path
/// never needs a heap allocation for parameters or results.
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub struct HostValBuf {
    buf: [HostVal; 4],
    len: usize,
}

impl Default for HostValBuf {
    fn default() -> Self {
        HostValBuf {
            buf: [HostVal::I32(0); 4],
            len: 0,
        }
    }
}

impl HostValBuf {
    /// An empty buffer.
    pub fn new() -> HostValBuf {
        HostValBuf::default()
    }

    /// Appends a value; panics past capacity 4 (the sealed traits make
    /// that unreachable).
    pub fn push(&mut self, v: HostVal) {
        self.buf[self.len] = v;
        self.len += 1;
    }

    /// The filled prefix.
    pub fn as_slice(&self) -> &[HostVal] {
        &self.buf[..self.len]
    }
}

impl FromIterator<HostVal> for HostValBuf {
    /// Panics past capacity 4, like [`HostValBuf::push`].
    fn from_iter<I: IntoIterator<Item = HostVal>>(iter: I) -> Self {
        let mut out = HostValBuf::new();
        iter.into_iter().for_each(|v| out.push(v));
        out
    }
}

mod sealed {
    /// Seals the conversion traits: the set of boundary types is fixed by
    /// the crate (adding one is an API change, not an impl).
    pub trait Sealed {}
}

/// A single Rust scalar crossing the boundary (`i32`, `u32`, `i64`,
/// `u64`). Sealed; see [`WasmParams`]/[`WasmResults`] for the aggregate
/// forms.
pub trait WasmTy: sealed::Sealed + Copy + Send + Sync + 'static {
    /// The boundary type this Rust type converts through.
    const TYPE: HostValType;

    /// Converts into a boundary value.
    fn into_host(self) -> HostVal;

    /// Converts back from a boundary value. `None` on a width mismatch;
    /// same-width signedness differences convert bit-exactly (Wasm
    /// cannot observe them).
    fn from_host(v: HostVal) -> Option<Self>;
}

/// Internal exact-variant extraction used by the `WasmTy` macro below.
trait FromExact: Sized {
    fn from_exact(v: HostVal) -> Self;
}

macro_rules! impl_from_exact {
    ($($rust:ty => $variant:ident),* $(,)?) => {$(
        impl FromExact for $rust {
            fn from_exact(v: HostVal) -> Self {
                match v {
                    HostVal::$variant(x) => x,
                    _ => unreachable!("from_bits produced the wrong variant"),
                }
            }
        }
    )*};
}

impl_from_exact!(i32 => I32, u32 => U32, i64 => I64, u64 => U64);

macro_rules! impl_wasm_ty {
    ($($rust:ty => $variant:ident),* $(,)?) => {$(
        impl sealed::Sealed for $rust {}
        impl WasmTy for $rust {
            const TYPE: HostValType = HostValType::$variant;
            fn into_host(self) -> HostVal {
                HostVal::$variant(self)
            }
            fn from_host(v: HostVal) -> Option<Self> {
                if v.ty().compatible(Self::TYPE) {
                    Some(<$rust as FromExact>::from_exact(HostVal::from_bits(
                        Self::TYPE,
                        v.bits(),
                    )))
                } else {
                    None
                }
            }
        }
    )*};
}

impl_wasm_ty!(i32 => I32, u32 => U32, i64 => I64, u64 => U64);

/// Rust types usable as the parameter list of a typed guest call: `()`,
/// any single [`WasmTy`], and tuples of up to four. Sealed.
pub trait WasmParams: sealed::Sealed {
    /// The boundary types of the parameters, left to right.
    fn valtypes() -> Vec<HostValType>;

    /// Appends the converted boundary values, left to right.
    fn into_host_vals(self, out: &mut HostValBuf);
}

/// Rust types usable as the result of a typed guest call: `()`, any
/// single [`WasmTy`], and tuples of up to four. Sealed.
pub trait WasmResults: sealed::Sealed + Sized {
    /// The boundary types of the results, left to right.
    fn valtypes() -> Vec<HostValType>;

    /// Converts back from the agreed boundary values. `None` on arity or
    /// width mismatch.
    fn from_host_vals(vals: &[HostVal]) -> Option<Self>;
}

impl sealed::Sealed for () {}

impl WasmParams for () {
    fn valtypes() -> Vec<HostValType> {
        Vec::new()
    }
    fn into_host_vals(self, _out: &mut HostValBuf) {}
}

impl WasmResults for () {
    fn valtypes() -> Vec<HostValType> {
        Vec::new()
    }
    fn from_host_vals(vals: &[HostVal]) -> Option<Self> {
        vals.is_empty().then_some(())
    }
}

impl<T: WasmTy> WasmParams for T {
    fn valtypes() -> Vec<HostValType> {
        vec![T::TYPE]
    }
    fn into_host_vals(self, out: &mut HostValBuf) {
        out.push(self.into_host());
    }
}

impl<T: WasmTy> WasmResults for T {
    fn valtypes() -> Vec<HostValType> {
        vec![T::TYPE]
    }
    fn from_host_vals(vals: &[HostVal]) -> Option<Self> {
        match vals {
            [v] => T::from_host(*v),
            _ => None,
        }
    }
}

macro_rules! impl_tuple_conversions {
    ($(($($t:ident . $idx:tt),+))*) => {$(
        impl<$($t: WasmTy),+> sealed::Sealed for ($($t,)+) {}

        impl<$($t: WasmTy),+> WasmParams for ($($t,)+) {
            fn valtypes() -> Vec<HostValType> {
                vec![$($t::TYPE),+]
            }
            fn into_host_vals(self, out: &mut HostValBuf) {
                $(out.push(self.$idx.into_host());)+
            }
        }

        impl<$($t: WasmTy),+> WasmResults for ($($t,)+) {
            fn valtypes() -> Vec<HostValType> {
                vec![$($t::TYPE),+]
            }
            fn from_host_vals(vals: &[HostVal]) -> Option<Self> {
                let n = [$(stringify!($t)),+].len();
                if vals.len() != n {
                    return None;
                }
                Some(($($t::from_host(vals[$idx])?,)+))
            }
        }
    )*};
}

impl_tuple_conversions! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

/// The declared signature of a host function: boundary types only, which
/// is exactly what the lowering can represent at the Wasm boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostSig {
    /// Parameter types, left to right.
    pub params: Vec<HostValType>,
    /// Result types, left to right.
    pub results: Vec<HostValType>,
}

impl HostSig {
    /// Builds a signature.
    pub fn new(
        params: impl IntoIterator<Item = HostValType>,
        results: impl IntoIterator<Item = HostValType>,
    ) -> HostSig {
        HostSig {
            params: params.into_iter().collect(),
            results: results.into_iter().collect(),
        }
    }

    /// The RichWasm function type guest imports must declare to link
    /// against this host function.
    pub fn to_fun_type(&self) -> FunType {
        FunType::mono(
            self.params
                .iter()
                .map(|t| Type::num(t.num_type()))
                .collect(),
            self.results
                .iter()
                .map(|t| Type::num(t.num_type()))
                .collect(),
        )
    }

    /// The Wasm function type of the lowered boundary.
    pub(crate) fn to_wasm_type(&self) -> FuncType {
        FuncType {
            params: self.params.iter().map(|t| t.val_type()).collect(),
            results: self.results.iter().map(|t| t.val_type()).collect(),
        }
    }
}

impl fmt::Display for HostSig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let list = |f: &mut fmt::Formatter<'_>, ts: &[HostValType]| -> fmt::Result {
            write!(f, "[")?;
            for (i, t) in ts.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{t}")?;
            }
            write!(f, "]")
        };
        list(f, &self.params)?;
        write!(f, " -> ")?;
        list(f, &self.results)
    }
}

/// The Rust side of an engine-level host function: boundary values in,
/// boundary values (or a guest-visible trap message) out. `Fn` so one
/// closure serves both backends and any number of instances; stateful
/// hosts use interior mutability.
pub type HostCallback = Arc<dyn Fn(&[HostVal]) -> Result<Vec<HostVal>, String> + Send + Sync>;

/// Per-instance record/replay channel between the two backends'
/// installations of one host function (differential mode only): the
/// RichWasm backend runs first and *records* each call's outcome; the
/// Wasm backend *replays* it instead of re-invoking the closure. Host
/// side effects therefore happen once per invocation, and a stateful
/// host cannot desynchronise the backends. See `DESIGN.md` §6.
pub(crate) type ReplayLog = Arc<Mutex<VecDeque<Result<Vec<HostVal>, String>>>>;

/// Converts guest arguments to boundary values per the declared
/// signature (defensive: the typed linker already guaranteed the types).
fn richwasm_args_to_host(args: &[Value], sig: &HostSig) -> Result<Vec<HostVal>, String> {
    if args.len() != sig.params.len() {
        return Err(format!(
            "host function received {} arguments, its signature declares {}",
            args.len(),
            sig.params.len()
        ));
    }
    args.iter()
        .zip(&sig.params)
        .map(|(a, want)| {
            HostVal::of_value(a)
                .filter(|hv| hv.ty().compatible(*want))
                .map(|hv| HostVal::from_bits(*want, hv.bits()))
                .ok_or_else(|| format!("host argument {a} does not match declared {want}"))
        })
        .collect()
}

/// Checks and converts host results back to guest values per the
/// declared signature.
fn host_results_to_richwasm(out: &[HostVal], sig: &HostSig) -> Result<Vec<Value>, String> {
    check_host_results(out, sig)?;
    Ok(out
        .iter()
        .zip(&sig.results)
        .map(|(hv, want)| hv.to_value_as(*want))
        .collect())
}

fn check_host_results(out: &[HostVal], sig: &HostSig) -> Result<(), String> {
    if out.len() != sig.results.len() {
        return Err(format!(
            "host function returned {} values, its signature declares {}",
            out.len(),
            sig.results.len()
        ));
    }
    for (hv, want) in out.iter().zip(&sig.results) {
        if !hv.ty().compatible(*want) {
            return Err(format!(
                "host function returned {hv}, its signature declares {want}"
            ));
        }
    }
    Ok(())
}

/// Builds the RichWasm-interpreter installation of a host function. With
/// a replay log (differential mode) every outcome is recorded for the
/// Wasm backend to consume.
pub(crate) fn richwasm_host_fn(
    sig: HostSig,
    imp: HostCallback,
    log: Option<ReplayLog>,
) -> richwasm::interp::HostImpl {
    Arc::new(move |args: &[Value]| {
        let hv = richwasm_args_to_host(args, &sig)?;
        let outcome = imp(&hv).and_then(|out| {
            check_host_results(&out, &sig)?;
            Ok(out)
        });
        if let Some(log) = &log {
            log.lock()
                .expect("host replay log poisoned")
                .push_back(outcome.clone());
        }
        host_results_to_richwasm(&outcome?, &sig)
    })
}

/// Builds the Wasm-interpreter installation of a host function. With a
/// replay log (differential mode) it consumes recorded outcomes instead
/// of re-invoking the closure; an empty log (Wasm-only execution, or a
/// lowering bug making extra calls) falls back to invoking directly.
pub(crate) fn wasm_host_fn(
    sig: HostSig,
    imp: HostCallback,
    log: Option<ReplayLog>,
) -> richwasm_wasm::exec::HostFn {
    Arc::new(move |args: &[Val]| {
        let replayed = log
            .as_ref()
            .and_then(|log| log.lock().expect("host replay log poisoned").pop_front());
        let outcome = match replayed {
            Some(outcome) => outcome,
            None => {
                let hv: Option<Vec<HostVal>> = args
                    .iter()
                    .zip(&sig.params)
                    .map(|(v, t)| HostVal::of_wasm_val(*v, *t))
                    .collect();
                let hv = hv.filter(|hv| hv.len() == args.len() && args.len() == sig.params.len());
                match hv {
                    Some(hv) => imp(&hv).and_then(|out| {
                        check_host_results(&out, &sig)?;
                        Ok(out)
                    }),
                    None => Err("host arguments do not match the declared signature".into()),
                }
            }
        };
        match outcome {
            Ok(out) => Ok(out.iter().map(|hv| hv.to_wasm_val()).collect()),
            Err(msg) => Err(WasmTrap(format!("host function error: {msg}"))),
        }
    })
}

/// How one declared RichWasm parameter appears at the boundary: erased
/// (`unit`) or one integer scalar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ParamSlot {
    /// A `unit` parameter: erased on the Wasm side, `Value::Unit` on the
    /// RichWasm side.
    Unit,
    /// One integer scalar of the declared boundary type.
    Scalar(HostValType),
}

/// Classifies a checked RichWasm type for the typed boundary. `Err` names
/// the reason (floats and aggregate/reference types have no typed-handle
/// representation yet).
fn classify_type(t: &Type) -> Result<ParamSlot, String> {
    match &*t.pre {
        Pretype::Unit => Ok(ParamSlot::Unit),
        Pretype::Num(NumType::I32) => Ok(ParamSlot::Scalar(HostValType::I32)),
        Pretype::Num(NumType::U32) => Ok(ParamSlot::Scalar(HostValType::U32)),
        Pretype::Num(NumType::I64) => Ok(ParamSlot::Scalar(HostValType::I64)),
        Pretype::Num(NumType::U64) => Ok(ParamSlot::Scalar(HostValType::U64)),
        other => Err(format!(
            "type `{other}` has no typed-call representation (32/64-bit integers and unit only)"
        )),
    }
}

fn fmt_valtypes(ts: &[HostValType]) -> String {
    let mut s = String::from("(");
    for (i, t) in ts.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&t.to_string());
    }
    s.push(')');
    s
}

/// A pre-resolved, pre-checked handle to a guest export: the typed-call
/// half of the boundary. Create with [`Instance::get_typed_func`]; call
/// with [`TypedFunc::call`]. The handle stays valid across
/// [`Instance::reset`] and works with any instance of the *same
/// artifact* (instantiation is deterministic, so resolved indices
/// transfer); using it with a different artifact's instance is an error,
/// not undefined behaviour.
pub struct TypedFunc<P, R> {
    key: crate::engine::CacheKey,
    module: String,
    func: String,
    /// The export, resolved once on every live backend.
    target: Target,
    /// Declared parameter shape (unit slots + scalars, in order).
    shape: Vec<ParamSlot>,
    _marker: PhantomData<fn(P) -> R>,
}

impl<P, R> fmt::Debug for TypedFunc<P, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TypedFunc({}.{} @ {})", self.module, self.func, self.key)
    }
}

impl<P, R> Clone for TypedFunc<P, R> {
    fn clone(&self) -> Self {
        TypedFunc {
            key: self.key,
            module: self.module.clone(),
            func: self.func.clone(),
            target: self.target,
            shape: self.shape.clone(),
            _marker: PhantomData,
        }
    }
}

fn typed_err(module: &str, msg: String) -> PipelineError {
    PipelineError::new(
        Stage::Execute,
        Some(module),
        PipelineErrorKind::Unsupported(msg),
    )
}

impl Instance {
    /// Resolves export `func` of `module` to a [`TypedFunc`] handle,
    /// validating the Rust-side signature `P -> R` against the
    /// artifact's **checked** RichWasm function type once — calls through
    /// the handle perform no lookup and no re-check.
    ///
    /// Signedness is checked up to width: `i32`↔`u32` (and `i64`↔`u64`)
    /// interchange freely, because no backend can observe the difference
    /// on a bit pattern. `unit` parameters/results erase, exactly as the
    /// compiler erases them.
    ///
    /// # Errors
    ///
    /// A [`Stage::Execute`] error naming both the Rust-side signature and
    /// the checked RichWasm type on any mismatch (unknown module/export,
    /// polymorphic export, non-scalar types, arity or width
    /// disagreement), and when no backend is live.
    pub fn get_typed_func<P: WasmParams, R: WasmResults>(
        &self,
        module: &str,
        func: &str,
    ) -> Result<TypedFunc<P, R>, PipelineError> {
        let (target, sig) = self.resolve(module, func)?;
        let Signature::RichWasm(ty) = sig else {
            return Err(typed_err(
                module,
                format!(
                    "module `{module}` has no checked RichWasm types for a typed handle to \
                     validate against (use `invoke`)"
                ),
            ));
        };
        if !ty.quants.is_empty() {
            return Err(typed_err(
                module,
                format!(
                    "export `{module}.{func}` is polymorphic ({ty}); typed handles require a \
                     monomorphic signature (use `invoke_instantiated` on the runtime instead)"
                ),
            ));
        }

        let mut shape = Vec::with_capacity(ty.arrow.params.len());
        let mut param_scalars = Vec::new();
        for p in &ty.arrow.params {
            let slot = classify_type(p).map_err(|why| {
                typed_err(module, format!("parameter of `{module}.{func}`: {why}"))
            })?;
            if let ParamSlot::Scalar(t) = slot {
                param_scalars.push(t);
            }
            shape.push(slot);
        }
        let mut result_scalars = Vec::new();
        for r in &ty.arrow.results {
            match classify_type(r)
                .map_err(|why| typed_err(module, format!("result of `{module}.{func}`: {why}")))?
            {
                ParamSlot::Unit => {}
                ParamSlot::Scalar(t) => result_scalars.push(t),
            }
        }

        let p_types = P::valtypes();
        if p_types.len() != param_scalars.len()
            || p_types
                .iter()
                .zip(&param_scalars)
                .any(|(a, b)| !a.compatible(*b))
        {
            return Err(typed_err(
                module,
                format!(
                    "signature mismatch for `{module}.{func}`: host-side parameters {} do not \
                     match the checked guest type {ty}",
                    fmt_valtypes(&p_types)
                ),
            ));
        }
        let r_types = R::valtypes();
        if r_types.len() != result_scalars.len()
            || r_types
                .iter()
                .zip(&result_scalars)
                .any(|(a, b)| !a.compatible(*b))
        {
            return Err(typed_err(
                module,
                format!(
                    "signature mismatch for `{module}.{func}`: host-side results {} do not \
                     match the checked guest type {ty}",
                    fmt_valtypes(&r_types)
                ),
            ));
        }

        Ok(TypedFunc {
            key: self.artifact().key(),
            module: module.to_string(),
            func: func.to_string(),
            target,
            shape,
            _marker: PhantomData,
        })
    }
}

impl<P: WasmParams, R: WasmResults> TypedFunc<P, R> {
    /// Calls the guest function with `params` on every live backend of
    /// `inst`, cross-checking in differential mode — [`Instance::invoke`]
    /// minus its per-call resolution and argument check: both paths run
    /// and reconcile the backends through the same core.
    ///
    /// # Errors
    ///
    /// Execution failures ([`Stage::Execute`]), cross-backend
    /// disagreement ([`Stage::Differential`]), and use with an instance
    /// of a different artifact.
    pub fn call(&self, inst: &mut Instance, params: P) -> Result<R, PipelineError> {
        if inst.artifact().key() != self.key {
            return Err(typed_err(
                &self.module,
                format!(
                    "typed handle for artifact {} used with an instance of artifact {}",
                    self.key,
                    inst.artifact().key()
                ),
            ));
        }
        let mut hv = HostValBuf::new();
        params.into_host_vals(&mut hv);
        let hv = hv.as_slice();
        // The interpreter takes the declared shape, `unit` slots included;
        // the Wasm backend takes the scalars alone.
        let args = match self.target.rw {
            Some(_) => {
                let mut scalars = hv.iter();
                self.shape
                    .iter()
                    .map(|slot| match slot {
                        ParamSlot::Unit => Value::Unit,
                        ParamSlot::Scalar(t) => scalars
                            .next()
                            .expect("arity validated at handle creation")
                            .to_value_as(*t),
                    })
                    .collect()
            }
            None => Vec::new(),
        };
        let mut wasm_args = [Val::I32(0); 4];
        for (slot, v) in wasm_args.iter_mut().zip(hv) {
            *slot = v.to_wasm_val();
        }
        let (richwasm, wasm) =
            inst.invoke_resolved(&self.module, self.target, args, &wasm_args[..hv.len()])?;
        // Validated at handle creation: at most four result scalars.
        let agreed: Option<HostValBuf> = agreed_view(richwasm.as_ref(), wasm.as_deref());
        agreed
            .and_then(|vals| R::from_host_vals(vals.as_slice()))
            .ok_or_else(|| {
                typed_err(
                    &self.module,
                    format!(
                        "the result of `{}.{}` does not convert to the handle's result type \
                         (RichWasm: {richwasm:?}, Wasm: {wasm:?})",
                        self.module, self.func
                    ),
                )
            })
    }
}

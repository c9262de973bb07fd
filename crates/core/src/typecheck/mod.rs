//! The RichWasm type checker (paper §4, Figs. 5–8).
//!
//! The checker is *algorithmic*: it walks each instruction sequence with a
//! typed operand stack per control frame (Wasm-style, with a polymorphic
//! stack after `unreachable`/`br`), mutates the local environment `L` in
//! place, applies declared *local effects* at block boundaries, and tracks
//! the paper's *linear environment* as the set of values each branch would
//! drop (all of which must be unrestricted).
//!
//! Entry points:
//!
//! * [`check_module`] — checks a whole module, producing its [`ModuleEnv`];
//! * [`check_module_decls`] — everything but the function bodies: the
//!   [`ModuleEnv`], declared types and global initialisers. The Wasm
//!   backend pairs it with one [`check_function_body`] per body, run as
//!   it lowers that body, so a Wasm-bound compile checks each body once;
//! * [`check_function_body`] — checks one instruction sequence against a
//!   function type and returns the per-instruction trace lowering reads;
//! * [`check_instantiation`] — validates a quantifier instantiation
//!   against its telescope constraints.

mod instr;
pub mod rules;
mod value;

pub use instr::{check_function_body, InstrInfo};
pub use rules::{coverage_of_module, Rule, RuleCoverage};
pub use value::synthesize_const;

use crate::env::{KindCtx, ModuleEnv, QualBounds, SizeBounds, TypeBound};
use crate::error::TypeError;
use crate::sizing::size_of_pretype;
use crate::solver::{qual_leq, size_leq};
use crate::subst::{subst_qual, subst_size, SubstEnv};
use crate::syntax::{FunType, Func, GlobalKind, Index, Instr, Module, Quantifier};
use crate::wf::{no_caps_pretype, wf_funtype, wf_loc, wf_pretype_at, wf_qual, wf_size};

/// Pushes a quantifier telescope onto `ctx`; returns a token list used by
/// [`pop_telescope`] to restore the context. Public so that type-directed
/// consumers (e.g. the Wasm backend) can mirror the checker's context.
pub fn push_telescope(ctx: &mut KindCtx, quants: &[Quantifier]) -> Vec<u8> {
    let mut pushed = Vec::with_capacity(quants.len());
    for q in quants {
        match q {
            Quantifier::Loc => {
                ctx.push_loc();
                pushed.push(0);
            }
            Quantifier::Size { lower, upper } => {
                ctx.push_size(SizeBounds {
                    lower: lower.clone(),
                    upper: upper.clone(),
                });
                pushed.push(1);
            }
            Quantifier::Qual { lower, upper } => {
                ctx.push_qual(QualBounds {
                    lower: lower.clone(),
                    upper: upper.clone(),
                });
                pushed.push(2);
            }
            Quantifier::Type {
                lower_qual,
                size,
                may_contain_caps,
            } => {
                ctx.push_type(TypeBound {
                    lower_qual: *lower_qual,
                    size: size.clone(),
                    may_contain_caps: *may_contain_caps,
                });
                pushed.push(3);
            }
        }
    }
    pushed
}

/// Pops a telescope previously pushed with [`push_telescope`].
pub fn pop_telescope(ctx: &mut KindCtx, pushed: Vec<u8>) {
    for kind in pushed.into_iter().rev() {
        match kind {
            0 => ctx.pop_loc(),
            1 => ctx.pop_size(),
            2 => ctx.pop_qual(),
            _ => ctx.pop_type(),
        }
    }
}

/// Checks that `indices` is a valid instantiation of `quants` under `ctx`:
/// arities and kinds match and every telescope constraint holds after
/// substituting the instantiation prefix (paper §2.1's instantiation
/// side conditions).
pub fn check_instantiation(
    ctx: &mut KindCtx,
    quants: &[Quantifier],
    indices: &[Index],
) -> Result<(), TypeError> {
    if quants.len() != indices.len() {
        return Err(TypeError::BadInstantiation {
            reason: format!("expected {} indices, got {}", quants.len(), indices.len()),
        });
    }
    for (k, (q, z)) in quants.iter().zip(indices).enumerate() {
        // Close the constraint expressions of quantifier `k` over the
        // already-checked prefix.
        let prefix = SubstEnv::for_instantiation(&quants[..k], &indices[..k])
            .map_err(|reason| TypeError::BadInstantiation { reason })?;
        match (q, z) {
            (Quantifier::Loc, Index::Loc(l)) => wf_loc(ctx, *l)?,
            (Quantifier::Size { lower, upper }, Index::Size(s)) => {
                wf_size(ctx, s)?;
                for lo in lower {
                    let lo = subst_size(lo, &prefix);
                    if !size_leq(ctx, &lo, s) {
                        return Err(TypeError::SizeNotLeq {
                            lhs: lo,
                            rhs: s.clone(),
                            context: "size instantiation lower bound".into(),
                        });
                    }
                }
                for up in upper {
                    let up = subst_size(up, &prefix);
                    if !size_leq(ctx, s, &up) {
                        return Err(TypeError::SizeNotLeq {
                            lhs: s.clone(),
                            rhs: up,
                            context: "size instantiation upper bound".into(),
                        });
                    }
                }
            }
            (Quantifier::Qual { lower, upper }, Index::Qual(qv)) => {
                wf_qual(ctx, *qv)?;
                for lo in lower {
                    let lo = subst_qual(*lo, &prefix);
                    if !qual_leq(ctx, lo, *qv) {
                        return Err(TypeError::QualNotLeq {
                            lhs: lo,
                            rhs: *qv,
                            context: "qualifier instantiation lower bound".into(),
                        });
                    }
                }
                for up in upper {
                    let up = subst_qual(*up, &prefix);
                    if !qual_leq(ctx, *qv, up) {
                        return Err(TypeError::QualNotLeq {
                            lhs: *qv,
                            rhs: up,
                            context: "qualifier instantiation upper bound".into(),
                        });
                    }
                }
            }
            (
                Quantifier::Type {
                    lower_qual,
                    size,
                    may_contain_caps,
                },
                Index::Pretype(p),
            ) => {
                let lq = subst_qual(*lower_qual, &prefix);
                let sz = subst_size(size, &prefix);
                // The witness must be usable at every qualifier ≥ the bound
                // (paper: "we can only substitute a pretype for such a
                // pretype variable if it would be valid at that qualifier").
                wf_pretype_at(ctx, p, lq)?;
                let psz = size_of_pretype(ctx, p)?;
                if !size_leq(ctx, &psz, &sz) {
                    return Err(TypeError::SizeNotLeq {
                        lhs: psz,
                        rhs: sz,
                        context: "pretype instantiation size bound".into(),
                    });
                }
                if !may_contain_caps && !no_caps_pretype(ctx, p) {
                    return Err(TypeError::CapsInHeap {
                        context: format!("pretype instantiation {p} may not contain capabilities"),
                    });
                }
            }
            (q, z) => {
                return Err(TypeError::BadInstantiation {
                    reason: format!("kind mismatch: quantifier {q} vs index {z}"),
                });
            }
        }
    }
    Ok(())
}

/// Builds the [`ModuleEnv`] of a module from its declarations (without
/// checking bodies).
pub fn module_env(m: &Module) -> Result<ModuleEnv, TypeError> {
    let mut env = ModuleEnv::default();
    for f in &m.funcs {
        env.funcs.push(f.ty().clone());
    }
    for g in &m.globals {
        env.globals.push((g.mutable(), g.ty().clone()));
    }
    for &i in &m.table.entries {
        let ft = m.funcs.get(i as usize).ok_or(TypeError::UnboundVar {
            kind: "function",
            index: i,
        })?;
        env.table.push(ft.ty().clone());
    }
    Ok(env)
}

/// Type checks a whole module (paper §4: function bodies, global
/// initialisers, table entries): [`check_module_decls`], then every
/// function body in declaration order. Returns the module environment
/// on success.
///
/// # Errors
///
/// Returns the first [`TypeError`] found.
pub fn check_module(m: &Module) -> Result<ModuleEnv, TypeError> {
    let env = check_module_decls(m)?;
    for f in &m.funcs {
        if let Func::Defined {
            ty, locals, body, ..
        } = f
        {
            check_function_body(&env, ty, locals, body)?;
        }
    }
    Ok(env)
}

/// Checks everything of a module except its function bodies: the
/// [`ModuleEnv`] (including table entries), the well-formedness of every
/// declared function and global type, and the global initialisers.
///
/// A module passes [`check_module`] iff it passes this check and
/// [`check_function_body`] accepts each defined function's body under
/// the returned env. The Wasm backend relies on this: it runs the body
/// check itself, once per body, to get the trace it lowers from.
///
/// # Errors
///
/// Returns the first [`TypeError`] found, the same one [`check_module`]
/// would report if the declarations are at fault.
pub fn check_module_decls(m: &Module) -> Result<ModuleEnv, TypeError> {
    let env = module_env(m)?;
    // Declared types must be well-formed in the empty kind context.
    let mut ctx = KindCtx::new();
    for f in &m.funcs {
        wf_funtype(&mut ctx, f.ty())?;
    }
    for g in &m.globals {
        // Globals are unrestricted; their pretype must be valid at `unr`.
        wf_pretype_at(&mut ctx, g.ty(), crate::syntax::Qual::Unr)?;
    }
    // Global initialisers: constant expressions of the declared type.
    for (gi, g) in m.globals.iter().enumerate() {
        if let GlobalKind::Defined { ty, init, .. } = &g.kind {
            check_const_init(&env, gi, init, ty)?;
        }
    }
    Ok(env)
}

/// Checks a global initialiser: an instruction sequence producing the
/// declared pretype at qualifier `unr` (paper Fig. 2: `glob mut? p i*` —
/// initialisers are instruction sequences, which lets modules allocate
/// their initial state; they run at instantiation time).
///
/// Restrictions: an initialiser may only read *earlier* globals, may not
/// write globals, and may not call functions (instantiation order would
/// be circular).
fn check_const_init(
    env: &ModuleEnv,
    global_idx: usize,
    init: &[Instr],
    expected: &crate::syntax::Pretype,
) -> Result<(), TypeError> {
    fn scan(init: &[Instr], global_idx: usize) -> Result<(), TypeError> {
        for ins in init {
            match ins {
                Instr::GetGlobal(i) if *i as usize >= global_idx => {
                    return Err(TypeError::Other(format!(
                        "global initialiser {global_idx} reads later global {i}"
                    )));
                }
                Instr::SetGlobal(_)
                | Instr::Call(..)
                | Instr::CallIndirect
                | Instr::CodeRefI(_) => {
                    return Err(TypeError::Other(format!(
                        "instruction {ins} not allowed in a global initialiser"
                    )));
                }
                Instr::BlockI(_, b)
                | Instr::LoopI(_, b)
                | Instr::MemUnpack(_, b)
                | Instr::ExistUnpack(_, _, _, b) => scan(b, global_idx)?,
                Instr::IfI(_, a, b) => {
                    scan(a, global_idx)?;
                    scan(b, global_idx)?;
                }
                Instr::VariantCase(_, _, _, bs) => {
                    for b in bs {
                        scan(b, global_idx)?;
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }
    scan(init, global_idx)?;
    let ty = FunType::mono(
        vec![],
        vec![expected.clone().with_qual(crate::syntax::Qual::Unr)],
    );
    check_function_body(env, &ty, &[], init)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::*;

    #[test]
    fn empty_module_checks() {
        check_module(&Module::default()).unwrap();
    }

    #[test]
    fn module_env_resolves_table() {
        let m = Module {
            funcs: vec![Func::Defined {
                exports: vec![],
                ty: FunType::mono(vec![], vec![]),
                locals: vec![],
                body: vec![],
            }],
            table: Table {
                exports: vec![],
                entries: vec![0],
            },
            ..Module::default()
        };
        let env = module_env(&m).unwrap();
        assert_eq!(env.table.len(), 1);
        let bad = Module {
            table: Table {
                exports: vec![],
                entries: vec![7],
            },
            ..Module::default()
        };
        assert!(module_env(&bad).is_err());
    }

    #[test]
    fn global_initialiser_checked() {
        let m = Module {
            globals: vec![Global {
                exports: vec![],
                kind: GlobalKind::Defined {
                    mutable: false,
                    ty: Pretype::Num(NumType::I32),
                    init: vec![Instr::i32(7)],
                },
            }],
            ..Module::default()
        };
        check_module(&m).unwrap();
        let bad = Module {
            globals: vec![Global {
                exports: vec![],
                kind: GlobalKind::Defined {
                    mutable: false,
                    ty: Pretype::Num(NumType::I64),
                    init: vec![Instr::i32(7)],
                },
            }],
            ..Module::default()
        };
        assert!(check_module(&bad).is_err());
        assert_eq!(
            check_module_decls(&bad).unwrap_err(),
            check_module(&bad).unwrap_err()
        );
    }

    #[test]
    fn decls_check_leaves_bodies_to_check_function_body() {
        // `() → ()` whose body leaves an i32 behind.
        let ty = FunType::mono(vec![], vec![]);
        let body = vec![Instr::i32(7)];
        let m = Module {
            funcs: vec![Func::Defined {
                exports: vec![],
                ty: ty.clone(),
                locals: vec![],
                body: body.clone(),
            }],
            ..Module::default()
        };
        let env = check_module_decls(&m).expect("the declarations are fine");
        let err = check_function_body(&env, &ty, &[], &body).unwrap_err();
        assert_eq!(check_module(&m).unwrap_err(), err);
    }

    #[test]
    fn instantiation_checking() {
        let mut ctx = KindCtx::new();
        let quants = vec![
            Quantifier::Size {
                lower: vec![],
                upper: vec![Size::Const(64)],
            },
            Quantifier::Type {
                lower_qual: Qual::Unr,
                // References the size var bound just before (de Bruijn 0).
                size: Size::Var(0),
                may_contain_caps: false,
            },
        ];
        // i32 (32 bits) fits σ = 32.
        check_instantiation(
            &mut ctx,
            &quants,
            &[
                Index::Size(Size::Const(32)),
                Index::Pretype(Pretype::Num(NumType::I32)),
            ],
        )
        .unwrap();
        // i64 does not fit σ = 32.
        assert!(check_instantiation(
            &mut ctx,
            &quants,
            &[
                Index::Size(Size::Const(32)),
                Index::Pretype(Pretype::Num(NumType::I64))
            ],
        )
        .is_err());
        // σ = 128 violates its own upper bound 64.
        assert!(check_instantiation(
            &mut ctx,
            &quants,
            &[Index::Size(Size::Const(128)), Index::Pretype(Pretype::Unit)],
        )
        .is_err());
    }

    #[test]
    fn instantiation_rejects_linear_witness_at_unr_position() {
        let mut ctx = KindCtx::new();
        let quants = vec![Quantifier::Type {
            lower_qual: Qual::Unr,
            size: Size::Const(64),
            may_contain_caps: false,
        }];
        // A tuple containing a linear component is not valid at `unr`.
        let bad = Pretype::Prod(vec![Pretype::Unit.lin()]);
        assert!(check_instantiation(&mut ctx, &quants, &[Index::Pretype(bad)]).is_err());
        let good = Pretype::Prod(vec![Pretype::Unit.unr()]);
        check_instantiation(&mut ctx, &quants, &[Index::Pretype(good)]).unwrap();
    }
}

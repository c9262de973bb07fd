//! A structured text rendering of RichWasm modules — full instruction
//! trees with nesting, in a WAT-flavoured S-expression style.
//!
//! ```
//! use richwasm::pretty::render_module;
//! use richwasm::syntax::*;
//!
//! let m = Module {
//!     funcs: vec![Func::Defined {
//!         exports: vec!["f".into()],
//!         ty: FunType::mono(vec![], vec![Type::num(NumType::I32)]),
//!         locals: vec![],
//!         body: vec![Instr::i32(42)],
//!     }],
//!     ..Module::default()
//! };
//! let text = render_module(&m);
//! assert!(text.contains("i32.const 42"));
//! ```

use std::fmt::Write;

use crate::syntax::{Func, GlobalKind, Instr, Module};

fn write_instrs<'a>(es: impl IntoIterator<Item = &'a Instr>, indent: usize, out: &mut String) {
    for e in es {
        write_instr(e, indent, out);
    }
}

fn write_instr(e: &Instr, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    match e {
        Instr::BlockI(b, body) => {
            let _ = writeln!(out, "{pad}(block {}", b.arrow);
            write_instrs(body, indent + 1, out);
            let _ = writeln!(out, "{pad})");
        }
        Instr::LoopI(a, body) => {
            let _ = writeln!(out, "{pad}(loop {a}");
            write_instrs(body, indent + 1, out);
            let _ = writeln!(out, "{pad})");
        }
        Instr::IfI(b, t, f) => {
            let _ = writeln!(out, "{pad}(if {}", b.arrow);
            write_instrs(t, indent + 1, out);
            if !f.is_empty() {
                let _ = writeln!(out, "{pad} else");
                write_instrs(f, indent + 1, out);
            }
            let _ = writeln!(out, "{pad})");
        }
        Instr::MemUnpack(b, body) => {
            let _ = writeln!(out, "{pad}(mem.unpack {} ρ.", b.arrow);
            write_instrs(body, indent + 1, out);
            let _ = writeln!(out, "{pad})");
        }
        Instr::ExistUnpack(q, _, b, body) => {
            let _ = writeln!(out, "{pad}(exist.unpack {q} {} α.", b.arrow);
            write_instrs(body, indent + 1, out);
            let _ = writeln!(out, "{pad})");
        }
        Instr::VariantCase(q, _, b, bodies) => {
            let _ = writeln!(out, "{pad}(variant.case {q} {}", b.arrow);
            for (i, body) in bodies.iter().enumerate() {
                let _ = writeln!(out, "{pad}  (case {i}");
                write_instrs(body, indent + 2, out);
                let _ = writeln!(out, "{pad}  )");
            }
            let _ = writeln!(out, "{pad})");
        }
        // Frame bodies are stored last instruction first.
        Instr::Label { arity, body, .. } => {
            let _ = writeln!(out, "{pad}(label_{arity}");
            write_instrs(body.iter().rev(), indent + 1, out);
            let _ = writeln!(out, "{pad})");
        }
        Instr::LocalFrame {
            arity, inst, body, ..
        } => {
            let _ = writeln!(out, "{pad}(local_{arity} inst={inst}");
            write_instrs(body.iter().rev(), indent + 1, out);
            let _ = writeln!(out, "{pad})");
        }
        other => {
            let _ = writeln!(out, "{pad}{other}");
        }
    }
}

/// Renders a whole module, including instruction trees.
pub fn render_module(m: &Module) -> String {
    let mut out = String::from("(module\n");
    for (i, g) in m.globals.iter().enumerate() {
        match &g.kind {
            GlobalKind::Defined { mutable, ty, init } => {
                let _ = writeln!(out, "  (global ${i} mut={mutable} {ty}");
                write_instrs(init, 2, &mut out);
                let _ = writeln!(out, "  )");
            }
            GlobalKind::Imported {
                module, name, ty, ..
            } => {
                let _ = writeln!(out, "  (global ${i} (import \"{module}\" \"{name}\") {ty})");
            }
        }
    }
    for (i, f) in m.funcs.iter().enumerate() {
        match f {
            Func::Defined {
                exports,
                ty,
                locals,
                body,
            } => {
                let ex: Vec<String> = exports
                    .iter()
                    .map(|e| format!("(export \"{e}\")"))
                    .collect();
                let _ = writeln!(out, "  (func ${i} {} {ty}", ex.join(" "));
                if !locals.is_empty() {
                    let ls: Vec<String> = locals.iter().map(|s| s.to_string()).collect();
                    let _ = writeln!(out, "    (locals {})", ls.join(" "));
                }
                write_instrs(body, 2, &mut out);
                let _ = writeln!(out, "  )");
            }
            Func::Imported {
                module, name, ty, ..
            } => {
                let _ = writeln!(out, "  (func ${i} (import \"{module}\" \"{name}\") {ty})");
            }
        }
    }
    if !m.table.entries.is_empty() {
        let _ = writeln!(out, "  (table {:?})", m.table.entries);
    }
    out.push(')');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::instr::Block;
    use crate::syntax::*;

    #[test]
    fn renders_nested_structure() {
        let m = Module {
            funcs: vec![Func::Defined {
                exports: vec!["main".into()],
                ty: FunType::mono(vec![], vec![Type::num(NumType::I32)]),
                locals: vec![Size::Const(32)],
                body: vec![
                    Instr::i32(1),
                    Instr::BlockI(
                        Block::new(
                            ArrowType::new(
                                vec![Type::num(NumType::I32)],
                                vec![Type::num(NumType::I32)],
                            ),
                            vec![],
                        ),
                        vec![
                            Instr::i32(2),
                            Instr::Num(NumInstr::IntBinop(NumType::I32, instr::IntBinop::Add)),
                        ],
                    ),
                ],
            }],
            ..Module::default()
        };
        let text = render_module(&m);
        assert!(text.contains("(func $0 (export \"main\")"), "{text}");
        assert!(text.contains("(block"), "{text}");
        assert!(text.contains("i32.const 2"), "{text}");
        assert!(text.contains("(locals 32)"), "{text}");
        // Nesting is reflected in indentation.
        assert!(
            text.lines().any(|l| l.starts_with("      i32.const 2")),
            "{text}"
        );
    }

    #[test]
    fn renders_compiled_ml_shape() {
        // The pretty printer handles every construct the frontends emit.
        let m = Module {
            funcs: vec![Func::Defined {
                exports: vec![],
                ty: FunType::mono(vec![], vec![]),
                locals: vec![],
                body: vec![
                    Instr::i32(1),
                    Instr::VariantMalloc(0, vec![Type::num(NumType::I32), Type::unit()], Qual::Unr),
                    Instr::MemUnpack(
                        Block::new(ArrowType::new(vec![], vec![]), vec![]),
                        vec![
                            Instr::VariantCase(
                                Qual::Unr,
                                HeapType::Variant(vec![Type::num(NumType::I32), Type::unit()]),
                                Block::new(ArrowType::new(vec![], vec![]), vec![]),
                                vec![vec![Instr::Drop], vec![Instr::Drop]],
                            ),
                            Instr::Drop,
                        ],
                    ),
                ],
            }],
            ..Module::default()
        };
        let text = render_module(&m);
        assert!(text.contains("(mem.unpack"), "{text}");
        assert!(text.contains("(variant.case"), "{text}");
        assert!(text.contains("(case 0"), "{text}");
    }
}

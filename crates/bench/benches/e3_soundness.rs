//! **E3** — type-checking scalability (the practical face of §4's
//! metatheory): checker throughput as module size grows, and the
//! per-step overhead of the faithful small-step interpreter.
//!
//! Series reported: `check_module` wall time for arithmetic-chain modules
//! of 10/50/100 functions (expected shape: linear in module size),
//! reduction steps/second on the linear-churn workload, and the median
//! (of 9) ns/step of `padded_loop` at pad 8 and pad 256.
//!
//! The acceptance gate checks that one reduction step costs its redex
//! and the depth of its evaluation context, not the size of the code
//! around it (DESIGN.md §3): on a loop whose body is 8 or 256 `nop`s
//! plus a counter, the median ns/step at pad 8 divided by the one at
//! pad 256 must be **≥ 0.5**. A step that copies its enclosing loop,
//! renders its redex or shifts the code after it grows with the body
//! and lands well below that.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use richwasm::interp::Runtime;
use richwasm::typecheck::check_module;
use richwasm_bench::median_of;
use richwasm_bench::workloads::{arith_chain, churn, padded_loop};

/// Loop iterations per pad, so each timed run takes about 50k steps.
fn iters(pad: usize) -> u32 {
    (50_000 / (pad + 9)) as u32
}

/// Median (of 9) wall time per reduction step of `padded_loop(pad, ..)`.
fn ns_per_step(pad: usize) -> f64 {
    let mut rt = Runtime::new();
    let m = rt.instantiate("m", padded_loop(pad, iters(pad))).unwrap();
    let steps = rt.invoke(m, "main", vec![]).unwrap().steps;
    let t = median_of(9, || rt.invoke(m, "main", vec![]).unwrap());
    t.as_nanos() as f64 / steps as f64
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e3_soundness");
    g.sample_size(15);

    for n in [10usize, 50, 100] {
        let m = arith_chain(n);
        g.bench_with_input(BenchmarkId::new("check_module_funcs", n), &m, |b, m| {
            b.iter(|| check_module(std::hint::black_box(m)).unwrap());
        });
    }

    for n in [10u32, 100] {
        let m = churn(n);
        g.bench_with_input(BenchmarkId::new("interp_churn_cells", n), &m, |b, m| {
            b.iter(|| {
                let mut rt = Runtime::new();
                let i = rt.instantiate("m", m.clone()).unwrap();
                rt.invoke(i, "main", vec![]).unwrap().steps
            });
        });
    }

    g.finish();

    let (ns8, ns256) = (ns_per_step(8), ns_per_step(256));
    println!("e3_soundness: padded loop, ns/step at pad 8 {ns8:.0}, at pad 256 {ns256:.0}");
    criterion::acceptance(
        "e3_soundness/interp_step_cost_flat_in_body_size",
        ns8 / ns256,
        0.5,
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);

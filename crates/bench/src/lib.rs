//! Shared workload builders for the RichWasm benchmark harness.
//!
//! Each experiment of EXPERIMENTS.md has a corresponding Criterion bench
//! in `benches/`; this crate hosts the program generators they share.

use std::time::{Duration, Instant};

pub mod workloads;

/// Runs `f` `samples` times and returns the median wall time — how the
/// benches measure the figures their acceptance gates check, outside
/// the sampled series.
pub fn median_of<T>(samples: usize, mut f: impl FnMut() -> T) -> Duration {
    let mut times = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        std::hint::black_box(f());
        times.push(t0.elapsed());
    }
    times.sort();
    times[times.len() / 2]
}

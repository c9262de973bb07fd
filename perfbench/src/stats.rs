//! Order statistics over latency samples.
//!
//! On a shared virtual machine, the speed of a core shifts between
//! regimes lasting a fraction of a second to whole runs: neighbours
//! slowed compiles and VM rounds by 1.4–1.75× in spells of 5–30 s. They
//! only ever add time. Every end-to-end figure is therefore taken at its
//! fastest over the run, where the least of that noise remains, while a
//! program that gets faster moves every sample, the fastest included:
//!
//! - closed loops over a fixed, repeated sequence of ops (`compile`,
//!   `invoke_wasm`) take each op of the sequence at its fastest
//!   (`slot_min`); the median op is the median of those, and the
//!   throughput that of one pass of them;
//! - the serving workloads, whose ops queue behind each other, take the
//!   fastest window of consecutive samples: the highest throughput and the
//!   lowest median latency over windows.

/// Nearest-rank quantile of `v` (`q` in `0..=1`); 0 for no samples.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((s.len() as f64 * q).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

pub fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(0.0, f64::max)
}

/// Window bounds: consecutive runs of `per` samples, the last one taking
/// the remainder (a single window when there are fewer than `2 * per`).
fn windows(n: usize, per: usize) -> Vec<(usize, usize)> {
    let count = if n == 0 { 0 } else { (n / per).max(1) };
    (0..count)
        .map(|w| (w * per, if w + 1 == count { n } else { (w + 1) * per }))
        .collect()
}

/// The `q` quantile over windows of `per` samples of `f` applied to each
/// window, with the window count.
fn windowed(v: &[f64], per: usize, q: f64, f: impl Fn(&[f64]) -> f64) -> (f64, usize) {
    let w = windows(v.len(), per);
    let each: Vec<f64> = w.iter().map(|&(a, b)| f(&v[a..b])).collect();
    (quantile(&each, q), w.len())
}

/// The lowest median latency over windows of `per` latencies, with the
/// window count.
pub fn fastest_window_p50(v: &[f64], per: usize) -> (f64, usize) {
    windowed(v, per, 0.0, median)
}

/// Samples per window of a p99: at least ten beyond it.
pub const P99_WINDOW: usize = 1000;

/// The median over windows of each window's p99, with the window count.
pub fn windowed_p99(v: &[f64]) -> (f64, usize) {
    windowed(v, P99_WINDOW, 0.5, |w| quantile(w, 0.99))
}

/// The fastest sample of each of `per` slots, where sample `i` belongs to
/// slot `i % per`: each op of a repeated fixed sequence at its fastest.
pub fn slot_min(v: &[f64], per: usize) -> Vec<f64> {
    (0..per.min(v.len()))
        .map(|s| {
            v.iter()
                .skip(s)
                .step_by(per)
                .copied()
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// Ops per second of one pass of the ops `fastest_us` (µs each).
pub fn pass_rate(fastest_us: &[f64]) -> f64 {
    fastest_us.len() as f64 / fastest_us.iter().sum::<f64>() * 1e6
}

/// Completions per second of a closed loop, from each op's completion
/// time (seconds since the loop started): the highest over windows of
/// `per` completions.
pub fn fastest_window_rate(ends_s: &[f64], per: usize) -> f64 {
    let each: Vec<f64> = windows(ends_s.len(), per)
        .into_iter()
        .map(|(a, b)| {
            let from = if a == 0 { 0.0 } else { ends_s[a - 1] };
            (b - a) as f64 / (ends_s[b - 1] - from)
        })
        .collect();
    max(&each)
}

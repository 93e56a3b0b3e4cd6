//! Small statistics and process helpers shared by the workloads.

use crate::metrics::{Report, SPANS};
use crate::trace::{self_times, Span};
use std::time::{Duration, Instant};

/// Nearest-rank percentile of `samples` (`q` in 0..=1); 0 when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Splits alternating samples into (even-indexed, odd-indexed).
pub fn split_alternating(samples: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let even = samples.iter().step_by(2).copied().collect();
    let odd = samples.iter().skip(1).step_by(2).copied().collect();
    (even, odd)
}

/// The tail percentile a sample of `n` supports: p99, or the highest one
/// with at least ten samples beyond it; the median below 20 samples.
pub fn tail_quantile(n: usize) -> f64 {
    if n < 20 {
        0.5
    } else {
        (1.0 - 10.0 / n as f64).min(0.99)
    }
}

/// Sets `p50_ms` from `lone` (latencies in seconds of one caller alone) and
/// `p99_ms` (see [`tail_quantile`]) from `loaded`, with the tail's sample
/// count and percentile.
pub fn set_latency(report: &mut Report, lone: &[f64], loaded: &[f64]) {
    let q = tail_quantile(loaded.len());
    report.set("p50_ms", median(lone) * 1e3);
    report.set("p99_ms", percentile(loaded, q) * 1e3);
    report.set("latency.samples", loaded.len() as f64);
    report.set("latency.tail_pct", q * 100.0);
}

/// The process's peak resident set (VmHWM) in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Runs `setup` `times` times, keeping the last result; returns it with
/// the median set-up time in seconds. Earlier results are dropped before
/// the next set-up starts, so the peak memory is that of one set-up.
pub fn timed_setup<T>(times: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut seconds = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        seconds.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up ran"), median(&seconds))
}

/// Runs `op` until `budget` has elapsed (at least once) and returns each
/// call's duration in seconds. `check` sees each result outside the timed
/// call, so output checks do not count as latency.
pub fn closed_loop<R>(
    budget: Duration,
    mut op: impl FnMut(u64) -> R,
    mut check: impl FnMut(R),
) -> Vec<f64> {
    let start = Instant::now();
    let mut durations = Vec::new();
    let mut i = 0;
    while durations.is_empty() || start.elapsed() < budget {
        let t = Instant::now();
        let out = op(i);
        durations.push(t.elapsed().as_secs_f64());
        check(out);
        i += 1;
    }
    durations
}

/// Busiest worker's share of morsels, and CAS queue waits, of one
/// parallel run.
pub fn morsel_stats(stats: &btrblocks::ParallelStats) -> (f64, f64) {
    let total = stats.total();
    let busiest = stats.workers.iter().map(|w| w.morsels).max().unwrap_or(0);
    (
        busiest as f64 / total.morsels.max(1) as f64,
        total.queue_waits as f64,
    )
}

/// Self time and calls of every span, per root operation (`ops`), plus the
/// root's own operation count.
pub fn set_span_metrics(report: &mut Report, spans: &[Span], root: &str, ops: u64) {
    let times = self_times(spans);
    let per_op = ops.max(1) as f64;
    for name in SPANS {
        let (self_ns, calls) = times.get(name).copied().unwrap_or((0, 0));
        report.set(&format!("{name}_s"), self_ns as f64 / 1e9 / per_op);
        let calls = if *name == root {
            calls as f64
        } else {
            calls as f64 / per_op
        };
        report.set(&format!("{name}.calls"), calls);
    }
}

/// Writes the spans next to the checkout's other run outputs.
pub fn save_spans(workload: &str, seed: u64, spans: &[Span]) {
    let path = std::path::PathBuf::from(".perfbench_out")
        .join(format!("{workload}-seed{seed}.spans.jsonl"));
    match crate::trace::write_jsonl(&path, spans) {
        Ok(()) => eprintln!(
            "perfbench: {} spans written to {}",
            spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn the_tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_quantile(10), 0.5);
        assert_eq!(tail_quantile(5_000), 0.99);
        let q = tail_quantile(400);
        assert!((q - 0.975).abs() < 1e-12);
        let s: Vec<f64> = (1..=400).map(f64::from).collect();
        assert_eq!(s.iter().filter(|&&v| v > percentile(&s, q)).count(), 10);
    }
}

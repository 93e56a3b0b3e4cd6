//! Scan-service concurrency sweep: throughput and sharing economics.
//!
//! Runs `btr_server::ScanService` at 1/4/16/64 concurrent full scans of one
//! relation over a mildly faulty simulated object store (transient faults
//! below the retry policy's horizon, so every scan must converge). Each
//! level gets a fresh store and service; the interesting outputs are not
//! just rows/s but the *sharing* counters the service exists to maximize:
//! cross-scan decode dedup hits, ranged-GET coalescing (spans issued, blocks
//! carried, staged-body hits), and per-level queue-wait percentiles.
//! `BENCH_server.json` records them; check.sh asserts the sweep is clean
//! (zero failed scans) and that cross-scan dedup actually fired.

use crate::{time_it, Table};
use btr_s3sim::{FaultPlan, ObjectStore, RetryPolicy};
use btr_scan::layout::RelationLayout;
use btr_scan::ObjectStoreSource;
use btr_server::chaos::build_relation;
use btr_server::{ScanService, ScanSpec, ServiceOptions};
use btrblocks::{Config, Sidecar};
use std::sync::Arc;

/// Concurrency levels swept (concurrent scans per service).
pub const LEVELS: [usize; 4] = [1, 4, 16, 64];

/// Dedup-probe fan-out: enough same-instant scans that two workers almost
/// surely miss the same block together at least once.
const PROBE_SCANS: usize = 32;

/// One concurrency level's measurement.
#[derive(Debug, Clone)]
pub struct LevelResult {
    /// Concurrent scans run.
    pub scans: usize,
    /// Wall-clock seconds for the whole level.
    pub seconds: f64,
    /// Emitted rows per second across all scans.
    pub rows_per_s: f64,
    /// Scans that failed or returned the wrong row count (must be 0).
    pub failures: u64,
    /// Cross-scan decode single-flight hits.
    pub dedup_hits: u64,
    /// Coalesced ranged GETs issued (spans covering > 1 block).
    pub spans_issued: u64,
    /// Extra blocks carried by those spans.
    pub coalesced_blocks: u64,
    /// Block bodies served from staged span payloads (no store request).
    pub staged_hits: u64,
    /// Ranged GETs that reached the store.
    pub ranged_gets: u64,
    /// Fraction of block bodies that arrived without their own GET.
    pub coalesced_get_ratio: f64,
    /// Median logical queue wait (tasks dispatched while queued).
    pub wait_logical_p50: f64,
    /// 95th-percentile logical queue wait.
    pub wait_logical_p95: f64,
    /// Median queue wait in seconds.
    pub wait_p50: f64,
    /// 95th-percentile queue wait in seconds.
    pub wait_p95: f64,
}

/// The full sweep plus the dedup probe's outcome.
#[derive(Debug, Clone)]
pub struct ServerBench {
    /// Rows in the scanned relation.
    pub rows: usize,
    /// One entry per concurrency level.
    pub levels: Vec<LevelResult>,
    /// Extra 32-scan probe rounds run because the sweep saw no dedup.
    pub dedup_probe_attempts: u64,
    /// Failures in those probe rounds (counted as unattributed too).
    pub probe_failures: u64,
    /// Dedup hits across the sweep and any probe rounds.
    pub dedup_hits_total: u64,
}

impl ServerBench {
    /// Did cross-scan single-flight fire at least once?
    pub fn dedup_positive(&self) -> bool {
        self.dedup_hits_total > 0
    }

    /// Scans that failed anywhere in the sweep; the fault plan converges
    /// below the retry horizon, so anything non-zero is a real defect.
    pub fn unattributed(&self) -> u64 {
        self.levels.iter().map(|l| l.failures).sum::<u64>() + self.probe_failures
    }

    /// The bench's pass condition.
    pub fn is_clean(&self) -> bool {
        self.unattributed() == 0 && self.dedup_positive()
    }
}

struct Setup {
    codec: Config,
    sidecar: Sidecar,
    bytes: Vec<u8>,
    layout: RelationLayout,
    rows: usize,
    seed: u64,
}

fn run_level(setup: &Setup, scans: usize) -> LevelResult {
    let store = Arc::new(ObjectStore::new());
    store.put("bench.btr", setup.bytes.clone());
    // Transient faults and latency spikes, but every key converges within
    // two faults — well under the five retry attempts. No scan may fail.
    store.set_fault_plan(Some(FaultPlan {
        seed: setup.seed,
        transient_rate: 0.05,
        truncate_rate: 0.02,
        corrupt_rate: 0.02,
        partial_rate: 0.02,
        latency_spike_rate: 0.10,
        latency_spike_ms: 40,
        request_timeout_ms: 0,
        base_latency_ms: 2,
        max_faults_per_key: 2,
    }));
    let source = ObjectStoreSource::new(
        store.clone(),
        "bench.btr",
        setup.layout.clone(),
        RetryPolicy {
            max_attempts: 5,
            base_backoff_seconds: 0.01,
            backoff_multiplier: 2.0,
        },
    );
    let service = ScanService::new(ServiceOptions {
        workers: 8,
        window: 8,
        batch_rows: 4_096,
        coalesce_window: 4,
        queue_limit: 1 << 20,
        byte_budget: 1 << 40,
        quantum_bytes: 64 << 10,
        cache_bytes: 64 << 20,
        config: setup.codec.clone(),
    });
    service.register("bench", Arc::new(source), setup.sidecar.clone());

    let spec = ScanSpec::project(["id", "val", "tag"]);
    let expected = setup.rows as u64;
    let (results, seconds) = time_it(|| {
        let threads: Vec<_> = (0..scans)
            .map(|t| {
                let client = service.client(format!("tenant-{t}"));
                let spec = spec.clone();
                std::thread::spawn(move || {
                    client.submit("bench", &spec).and_then(|mut handle| {
                        let mut rows = 0u64;
                        for batch in handle.by_ref() {
                            rows += batch?.rows() as u64;
                        }
                        Ok(rows)
                    })
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join())
            .collect::<Vec<_>>()
    });
    let failures = results
        .iter()
        .filter(|r| !matches!(r, Ok(Ok(rows)) if *rows == expected))
        .count() as u64;

    let report = service.report();
    let ranged_gets = store.counters().ranged_get_requests;
    let bodies = report.staged_hits + ranged_gets;
    LevelResult {
        scans,
        seconds,
        rows_per_s: (scans * setup.rows) as f64 / seconds.max(1e-12),
        failures,
        dedup_hits: report.dedup_hits,
        spans_issued: report.spans_issued,
        coalesced_blocks: report.coalesced_blocks,
        staged_hits: report.staged_hits,
        ranged_gets,
        coalesced_get_ratio: report.staged_hits as f64 / bodies.max(1) as f64,
        wait_logical_p50: report.queue_wait_logical_p50,
        wait_logical_p95: report.queue_wait_logical_p95,
        wait_p50: report.queue_wait_p50,
        wait_p95: report.queue_wait_p95,
    }
}

/// Runs the sweep (and, if no level produced a dedup hit, up to eight
/// 32-scan probe rounds until one does).
pub fn measure(rows: usize, seed: u64) -> ServerBench {
    let relation = build_relation(rows);
    let codec = Config {
        block_size: 1_000,
        ..Config::default()
    };
    let sidecar = Sidecar::build(&relation, codec.block_size);
    let compressed = btrblocks::compress(&relation, &codec).expect("compress");
    let setup = Setup {
        bytes: compressed.to_bytes(),
        layout: RelationLayout::of(&compressed),
        codec,
        sidecar,
        rows,
        seed,
    };

    let levels: Vec<LevelResult> = LEVELS.iter().map(|&n| run_level(&setup, n)).collect();
    let mut dedup_hits_total: u64 = levels.iter().map(|l| l.dedup_hits).sum();
    let mut dedup_probe_attempts = 0;
    let mut probe_failures = 0;
    // The decode-gate race window is one fetch+decode wide; a burst of
    // same-instant scans makes a collision overwhelmingly likely, but it is
    // still a race — retry with fresh services until it fires.
    while dedup_hits_total == 0 && dedup_probe_attempts < 8 {
        dedup_probe_attempts += 1;
        let probe = run_level(&setup, PROBE_SCANS);
        dedup_hits_total += probe.dedup_hits;
        probe_failures += probe.failures;
    }
    ServerBench {
        rows,
        levels,
        dedup_probe_attempts,
        probe_failures,
        dedup_hits_total,
    }
}

/// `bin/all` entry point.
pub fn run(rows: usize, seed: u64) -> String {
    render(&measure(rows, seed))
}

/// Renders the sweep as an aligned table plus the sharing verdict.
pub fn render(bench: &ServerBench) -> String {
    let mut out = format!(
        "scan service sweep: {} rows per scan, levels {:?} — {}\n\n",
        bench.rows,
        LEVELS,
        if bench.is_clean() { "CLEAN" } else { "DIRTY" },
    );
    let mut t = Table::new(&[
        "scans",
        "seconds",
        "Mrows/s",
        "dedup",
        "spans",
        "coalesce%",
        "GETs",
        "wait p95 (logical)",
    ]);
    for l in &bench.levels {
        t.row(vec![
            l.scans.to_string(),
            format!("{:.3}", l.seconds),
            format!("{:.2}", l.rows_per_s / 1e6),
            l.dedup_hits.to_string(),
            l.spans_issued.to_string(),
            format!("{:.0}%", l.coalesced_get_ratio * 100.0),
            l.ranged_gets.to_string(),
            format!("{:.1}", l.wait_logical_p95),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\ndedup hits total: {} (probe rounds: {}), failed scans: {}\n",
        bench.dedup_hits_total,
        bench.dedup_probe_attempts,
        bench.unattributed(),
    ));
    out
}

/// Renders `measure` as JSON for `BENCH_server.json` (hand-rolled — the
/// workspace is hermetic, no serde).
pub fn json(bench: &ServerBench, seed: u64) -> String {
    let mut out = format!(
        "{{\n  \"rows\": {},\n  \"seed\": {seed},\n  \"levels\": [\n",
        bench.rows
    );
    for (i, l) in bench.levels.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"scans\": {}, \"seconds\": {:.3}, \"rows_per_s\": {:.0}, \
             \"failures\": {}, \"dedup_hits\": {}, \"spans_issued\": {}, \
             \"coalesced_blocks\": {}, \"staged_hits\": {}, \"ranged_gets\": {}, \
             \"coalesced_get_ratio\": {:.3}, \
             \"queue_wait_logical_p50\": {:.1}, \"queue_wait_logical_p95\": {:.1}, \
             \"queue_wait_p50\": {:.6}, \"queue_wait_p95\": {:.6}}}{}\n",
            l.scans,
            l.seconds,
            l.rows_per_s,
            l.failures,
            l.dedup_hits,
            l.spans_issued,
            l.coalesced_blocks,
            l.staged_hits,
            l.ranged_gets,
            l.coalesced_get_ratio,
            l.wait_logical_p50,
            l.wait_logical_p95,
            l.wait_p50,
            l.wait_p95,
            if i + 1 < bench.levels.len() { "," } else { "" },
        ));
    }
    out.push_str(&format!(
        "  ],\n  \"dedup_hits_total\": {},\n  \"dedup_probe_attempts\": {},\n  \
         \"dedup_positive\": {},\n  \"unattributed\": {},\n  \"clean\": {}\n}}\n",
        bench.dedup_hits_total,
        bench.dedup_probe_attempts,
        bench.dedup_positive(),
        bench.unattributed(),
        bench.is_clean(),
    ));
    out
}

//! Per-tenant and service-wide accounting.
//!
//! Metrics answer the two questions a shared serving tier is always asked:
//! *is sharing paying off* (dedup hits, coalesced blocks, cache hit rate)
//! and *is sharing fair* (per-tenant queue-wait percentiles, admission
//! rejections). Queue wait is recorded twice per dispatched task: once in
//! real seconds and once as a *logical* distance — how many other tasks
//! were dispatched while this one sat queued — which is immune to host
//! speed and is what the fairness tests bound.

use btr_scan::{AggSourceCounts, AggValue, CacheStats, PipelineCounters};
use std::collections::HashMap;
use std::sync::Arc;

/// Running accumulator for one tenant; folded into a [`TenantReport`] on
/// snapshot.
#[derive(Default)]
pub(crate) struct TenantAcc {
    pub scans_admitted: u64,
    pub scans_rejected: u64,
    pub scans_completed: u64,
    pub scans_failed: u64,
    pub scans_cancelled: u64,
    pub tasks_dispatched: u64,
    pub rows_emitted: u64,
    pub dedup_hits: u64,
    pub blocks_decoded: u64,
    pub blocks_fetched: u64,
    pub blocks_pushdown: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub wait_logical: Vec<u64>,
    pub wait_seconds: Vec<f64>,
}

impl TenantAcc {
    pub fn fold_counters(&mut self, c: &PipelineCounters) {
        self.dedup_hits += c.dedup_hits;
        self.blocks_decoded += c.blocks_decoded;
        self.blocks_fetched += c.blocks_fetched;
        self.blocks_pushdown += c.blocks_pushdown_fast_path;
        self.cache_hits += c.cache_hits;
        self.cache_misses += c.cache_misses;
    }
}

/// All mutable accounting, behind the service's metrics mutex.
#[derive(Default)]
pub(crate) struct Metrics {
    /// Per-tenant accumulators, keyed by tenant name.
    pub tenants: HashMap<Arc<str>, TenantAcc>,
    /// Admission rejections across all tenants.
    pub rejections: u64,
}

/// One tenant's slice of the service's accounting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantReport {
    /// Tenant name.
    pub tenant: String,
    /// Scans admitted past admission control.
    pub scans_admitted: u64,
    /// Submissions rejected with `AdmissionRejected`.
    pub scans_rejected: u64,
    /// Scans drained to completion.
    pub scans_completed: u64,
    /// Scans that surfaced a typed error.
    pub scans_failed: u64,
    /// Scans cancelled (or dropped) before completion.
    pub scans_cancelled: u64,
    /// Row-group tasks dispatched to workers.
    pub tasks_dispatched: u64,
    /// Rows emitted to this tenant's consumers.
    pub rows_emitted: u64,
    /// Blocks received from another scan's in-flight decode (cross-scan
    /// single-flight).
    pub dedup_hits: u64,
    /// Blocks this tenant's scans decoded themselves.
    pub blocks_decoded: u64,
    /// Blocks this tenant's scans fetched from sources.
    pub blocks_fetched: u64,
    /// Predicate blocks evaluated in the compressed domain.
    pub blocks_pushdown: u64,
    /// Decoded-block cache hits.
    pub cache_hits: u64,
    /// Decoded-block cache misses.
    pub cache_misses: u64,
    /// Median logical queue wait (tasks dispatched while queued).
    pub queue_wait_logical_p50: f64,
    /// 95th-percentile logical queue wait.
    pub queue_wait_logical_p95: f64,
    /// Median queue wait in real seconds.
    pub queue_wait_p50: f64,
    /// 95th-percentile queue wait in real seconds.
    pub queue_wait_p95: f64,
}

/// Service-wide accounting snapshot; see [`crate::ScanService::report`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceReport {
    /// Per-tenant breakdowns, sorted by tenant name.
    pub tenants: Vec<TenantReport>,
    /// Submissions rejected across all tenants.
    pub admission_rejections: u64,
    /// Cross-scan decode dedup hits across all tenants.
    pub dedup_hits: u64,
    /// Ranged span fetches issued by coalescing sources.
    pub spans_issued: u64,
    /// Extra blocks carried by those spans.
    pub coalesced_blocks: u64,
    /// Fetches served from staged span bodies (no store request).
    pub staged_hits: u64,
    /// Shared decoded-block cache counters.
    pub cache: CacheStats,
    /// Tasks enqueued and not yet emitted, at snapshot time.
    pub outstanding_tasks: u64,
    /// Estimated bytes behind those tasks.
    pub outstanding_bytes: u64,
    /// Service-wide median logical queue wait.
    pub queue_wait_logical_p50: f64,
    /// Service-wide 95th-percentile logical queue wait.
    pub queue_wait_logical_p95: f64,
    /// Service-wide median queue wait in real seconds.
    pub queue_wait_p50: f64,
    /// Service-wide 95th-percentile queue wait in real seconds.
    pub queue_wait_p95: f64,
}

/// What one scan did, quantifying the paper's fetch-vs-decode trade-off;
/// see [`crate::ScanHandle::report`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ScanReport {
    /// Row groups in the relation.
    pub blocks_total: u64,
    /// Row groups the zone maps eliminated before any fetch.
    pub blocks_pruned: u64,
    /// Filter blocks evaluated in the compressed domain (no decode).
    pub blocks_pushdown_fast_path: u64,
    /// Blocks decompressed.
    pub blocks_decoded: u64,
    /// Blocks fetched from the source (cache hits fetch nothing).
    pub blocks_fetched: u64,
    /// Decoded-block cache hits.
    pub cache_hits: u64,
    /// Decoded-block cache misses.
    pub cache_misses: u64,
    /// Blocks received from another scan's in-flight decode through the
    /// service's shared [`btr_scan::DecodeGate`].
    pub dedup_hits: u64,
    /// Compressed bytes pulled from the source since submit.
    pub bytes_fetched: u64,
    /// Fetch requests issued since submit (every retry attempt counts).
    pub fetch_requests: u64,
    /// Fetch retries after transient faults or checksum mismatches.
    pub fetch_retries: u64,
    /// Rows in the relation.
    pub rows_total: u64,
    /// Rows that matched the filter (all rows when there is none).
    pub rows_matched: u64,
    /// Record batches emitted.
    pub batches: u64,
    /// CPU time spent decompressing, summed across workers.
    pub decode_seconds: f64,
    /// Wall-clock time from submit to the scan's end (or to now, if it is
    /// still running).
    pub wall_seconds: f64,
    /// Simulated backoff charged to fetches since submit, in seconds.
    pub fetch_backoff_seconds: f64,
    /// Hedged GETs issued since submit.
    pub hedges_issued: u64,
    /// Hedged GETs whose response won the race since submit.
    pub hedges_won: u64,
    /// Circuit-breaker state transitions since submit.
    pub breaker_transitions: u64,
    /// Blocks quarantined as permanently corrupt since submit.
    pub blocks_quarantined: u64,
    /// Upward degradation-ladder moves (cache bypass, shrunk window) taken
    /// while this scan ran.
    pub degradation_steps: u64,
}

/// Result of [`crate::ScanClient::aggregate`]: one value per requested
/// aggregate, plus which rung of the pushdown lattice answered each group
/// and the pipeline's fetch/decode activity.
#[derive(Debug, Clone, PartialEq)]
pub struct AggReport {
    /// One value per `ScanSpec::aggregates` entry, in spec order.
    pub values: Vec<AggValue>,
    /// Row groups in the relation.
    pub blocks_total: u64,
    /// Row groups the zone maps eliminated before any fetch.
    pub blocks_pruned: u64,
    /// Rows in the relation.
    pub rows_total: u64,
    /// Per-aggregate-per-group counts of zone / compressed / decoded answers.
    pub agg_sources: AggSourceCounts,
    /// Fetch/decode/cache activity of the aggregate pass.
    pub counters: PipelineCounters,
}

/// Nearest-rank percentile of an unsorted sample; 0.0 for an empty one.
pub(crate) fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    sorted.get(rank).copied().unwrap_or(0.0)
}

/// Builds the sorted per-tenant reports plus merged service-wide waits.
pub(crate) fn snapshot(
    accs: &HashMap<Arc<str>, TenantAcc>,
) -> (Vec<TenantReport>, Vec<f64>, Vec<f64>) {
    let mut tenants: Vec<TenantReport> = Vec::with_capacity(accs.len());
    let mut all_logical: Vec<f64> = Vec::new();
    let mut all_seconds: Vec<f64> = Vec::new();
    for (name, acc) in accs {
        let logical: Vec<f64> = acc.wait_logical.iter().map(|&w| w as f64).collect();
        all_logical.extend_from_slice(&logical);
        all_seconds.extend_from_slice(&acc.wait_seconds);
        tenants.push(TenantReport {
            tenant: name.to_string(),
            scans_admitted: acc.scans_admitted,
            scans_rejected: acc.scans_rejected,
            scans_completed: acc.scans_completed,
            scans_failed: acc.scans_failed,
            scans_cancelled: acc.scans_cancelled,
            tasks_dispatched: acc.tasks_dispatched,
            rows_emitted: acc.rows_emitted,
            dedup_hits: acc.dedup_hits,
            blocks_decoded: acc.blocks_decoded,
            blocks_fetched: acc.blocks_fetched,
            blocks_pushdown: acc.blocks_pushdown,
            cache_hits: acc.cache_hits,
            cache_misses: acc.cache_misses,
            queue_wait_logical_p50: percentile(&logical, 0.50),
            queue_wait_logical_p95: percentile(&logical, 0.95),
            queue_wait_p50: percentile(&acc.wait_seconds, 0.50),
            queue_wait_p95: percentile(&acc.wait_seconds, 0.95),
        });
    }
    tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));
    (tenants, all_logical, all_seconds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.5), 51.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn snapshot_sorts_tenants_and_merges_waits() {
        let mut accs: HashMap<Arc<str>, TenantAcc> = HashMap::new();
        accs.entry(Arc::from("b")).or_default().wait_logical = vec![4, 8];
        accs.entry(Arc::from("a")).or_default().wait_logical = vec![2];
        let (tenants, logical, _) = snapshot(&accs);
        assert_eq!(tenants[0].tenant, "a");
        assert_eq!(tenants[1].tenant, "b");
        assert_eq!(logical.len(), 3);
    }
}

//! Chaos campaign: randomized fault schedules over concurrent scans of one
//! scan service.
//!
//! The fault-tolerance layer (btr-scan's retry/breaker/quarantine/hedging,
//! the pipeline's deadline checks and degradation ladder) and the service
//! composition on top of it (shared cache, decode gate, coalescing source,
//! admission control, DRR dispatch) are only trustworthy under *composed*
//! failure — latency spikes while a breaker is half-open while another
//! scan's block is permanently corrupt. Each **schedule**:
//!
//! 1. draws a randomized [`FaultPlan`] (and sometimes permanently
//!    bit-flips one stored block via [`Mutation::BitFlip`]), a retry policy,
//!    and optionally a breaker and hedging for one shared
//!    [`ObjectStoreSource`],
//! 2. starts a fresh [`ScanService`] over that source,
//! 3. has N tenants submit scans from a shared spec pool concurrently —
//!    some with deadlines, some with retry budgets — and drain them,
//! 4. classifies every outcome: success must be **byte-identical** to the
//!    fault-free reference; failure must carry a **typed error attributed
//!    to something the schedule injected**; nothing may panic, and every
//!    schedule must terminate (all simulated time — nothing here sleeps).
//!
//! The two entry points share all of that and differ only in the service
//! configuration: [`run_campaign`] keeps the service out of the way (wide
//! open admission, no coalescing) so it stresses the per-scan fault
//! machinery, while [`run_service_campaign`] randomizes the service knobs
//! too (cache budget, window, coalescing width, sometimes deliberately
//! tight admission limits, under which [`ScanError::AdmissionRejected`] is
//! an attributed outcome).
//!
//! Randomness is [`Xorshift`] seeded from [`ChaosConfig::seed`], so a
//! failing campaign replays exactly.

use crate::service::{ScanHandle, ScanService};
use crate::ServiceOptions;
use btr_corrupt::{Mutation, Xorshift};
use btr_s3sim::{FaultPlan, ObjectStore, RetryPolicy};
use btr_scan::batch::append;
use btr_scan::layout::RelationLayout;
use btr_scan::{
    col, lit, BlockSource, BreakerConfig, HedgeConfig, MemorySource, ObjectStoreSource, Result,
    ScanError, ScanSpec,
};
use btrblocks::{
    Column, ColumnData, CompressedRelation, Config, Relation, Sidecar, StringArena,
};
use std::sync::Arc;

/// Campaign shape; the default is a quick smoke, tests scale `schedules` up.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Master seed; every schedule derives its own RNG from it.
    pub seed: u64,
    /// Randomized fault schedules to run (one fresh service each).
    pub schedules: usize,
    /// Concurrent scans per schedule, each from its own tenant, all sharing
    /// one source (and therefore one breaker, quarantine set, and in-flight
    /// table).
    pub concurrent_scans: usize,
    /// Rows in the generated relation.
    pub rows: usize,
    /// Compression block size (controls block count per column).
    pub block_size: usize,
    /// Service worker threads.
    pub workers: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0xC4A0_5EED,
            schedules: 50,
            concurrent_scans: 8,
            rows: 4_000,
            block_size: 500,
            workers: 4,
        }
    }
}

/// Aggregated campaign result. A healthy run has
/// [`ChaosReport::is_clean`]: zero panics, zero divergent scans, zero
/// unattributed failures.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChaosReport {
    /// Schedules executed.
    pub schedules: u64,
    /// Scans submitted across all schedules.
    pub scans_run: u64,
    /// Scans that completed byte-identical to the reference.
    pub scans_ok: u64,
    /// Scans that failed (attributed or not).
    pub scans_failed: u64,
    /// Panics observed (worker panics surfacing as `ScanError::Worker`, or
    /// tenant-thread panics).
    pub panics: u64,
    /// Successful scans whose bytes diverged from the reference.
    pub divergent: u64,
    /// Failures no injected fault explains.
    pub unattributed: u64,
    /// Typed failure tally: admission rejections (tight-limit schedules).
    pub admission_rejected: u64,
    /// Typed failure tally: deadline exceeded.
    pub deadline_exceeded: u64,
    /// Typed failure tally: retry budget exhausted.
    pub budget_exhausted: u64,
    /// Typed failure tally: breaker open fail-fast.
    pub breaker_open: u64,
    /// Typed failure tally: quarantined block.
    pub quarantined: u64,
    /// Typed failure tally: retries exhausted.
    pub fetch_failed: u64,
    /// Hedged GETs issued across the campaign.
    pub hedges_issued: u64,
    /// Hedged GETs that won their race.
    pub hedges_won: u64,
    /// Breaker state transitions across the campaign.
    pub breaker_transitions: u64,
    /// Blocks quarantined across the campaign.
    pub blocks_quarantined: u64,
    /// Fetch retries across the campaign.
    pub retries: u64,
    /// Simulated backoff charged across the campaign, in seconds.
    pub backoff_seconds: f64,
    /// Cross-scan decode dedup hits across the campaign.
    pub dedup_hits: u64,
    /// Blocks carried by coalesced ranged GETs across the campaign.
    pub coalesced_blocks: u64,
}

impl ChaosReport {
    /// True when the campaign saw no panics, no divergence, and no
    /// unattributed failures — the campaign's pass condition.
    pub fn is_clean(&self) -> bool {
        self.panics == 0 && self.divergent == 0 && self.unattributed == 0
    }
}

/// What one schedule injected, for attributing failures.
struct ScheduleCtx {
    /// Any fault family with a nonzero rate (transient, truncate, corrupt,
    /// partial, spikes/timeouts).
    faults_injected: bool,
    /// Bit-corruption is possible: injected corrupt bodies or a permanently
    /// flipped stored block.
    corruption_possible: bool,
    /// The permanently corrupted block, if any.
    corrupted: Option<(u32, u32)>,
    /// A circuit breaker was configured on the source.
    breaker: bool,
    /// The service was configured with deliberately tight admission limits.
    tight_admission: bool,
}

/// Whether something the schedule injected explains `err`. Worker panics
/// are tallied separately; planning errors, missing objects and decode
/// failures are never expected (the campaign stores a valid object).
fn attributed(err: &ScanError, spec: &ScanSpec, ctx: &ScheduleCtx) -> bool {
    match err {
        ScanError::AdmissionRejected { .. } => ctx.tight_admission,
        ScanError::DeadlineExceeded { .. } => spec.tolerance.deadline_seconds.is_some(),
        ScanError::RetryBudgetExhausted { .. } => spec.tolerance.retry_budget.is_some(),
        ScanError::BreakerOpen { .. } => ctx.breaker && ctx.faults_injected,
        ScanError::Quarantined { column, block } => {
            ctx.corrupted == Some((*column, *block)) || ctx.corruption_possible
        }
        ScanError::FetchFailed { .. } => ctx.faults_injected || ctx.corrupted.is_some(),
        _ => false,
    }
}

/// A small three-column relation (sequential ints, derived doubles,
/// low-cardinality strings) whose specs exercise pruning, pushdown, string
/// decode, and multi-column gathers.
pub fn build_relation(rows: usize) -> Relation {
    // lint: allow(cast) campaign row counts are tiny (thousands)
    let ids: Vec<i32> = (0..rows).map(|i| i as i32).collect();
    let vals: Vec<f64> = ids.iter().map(|&i| f64::from(i) * 0.5 - 3.0).collect();
    let strings: Vec<String> = ids.iter().map(|&i| format!("t{}", i % 13)).collect();
    let refs: Vec<&str> = strings.iter().map(String::as_str).collect();
    Relation::new(vec![
        Column::new("id", ColumnData::Int(ids)),
        Column::new("val", ColumnData::Double(vals)),
        Column::new("tag", ColumnData::Str(StringArena::from_strs(&refs))),
    ])
}

/// The specs every schedule's scans draw from (tolerances are layered on
/// per scan).
pub fn spec_pool(rows: usize) -> Vec<ScanSpec> {
    // lint: allow(cast) campaign row counts are tiny (thousands)
    let rows = rows as i32;
    vec![
        ScanSpec::project(["id", "val", "tag"]),
        ScanSpec::project(["id"]).with_expr(col("id").lt(lit(rows / 3))),
        ScanSpec::project(["val", "tag"]).with_expr(col("id").ge(lit(rows / 2))),
        ScanSpec::project(["tag"]),
    ]
}

/// Drains a handle into per-column output (batch boundaries erased), so
/// runs compare byte-for-byte regardless of batching.
pub fn drain(handle: &mut ScanHandle) -> Result<Vec<(String, ColumnData)>> {
    let mut out: Option<Vec<(String, ColumnData)>> = None;
    for batch in handle.by_ref() {
        let batch = batch?;
        match &mut out {
            None => out = Some(batch.columns),
            Some(columns) => {
                for ((_, dst), (_, src)) in columns.iter_mut().zip(&batch.columns) {
                    append(dst, src)?;
                }
            }
        }
    }
    Ok(out.unwrap_or_default())
}

/// Fault-free reference output of every spec: the same executor over a
/// [`MemorySource`] of `compressed`.
pub fn reference_scans(
    compressed: Arc<CompressedRelation>,
    sidecar: &Sidecar,
    codec: &Config,
    specs: &[ScanSpec],
) -> Result<Vec<Vec<(String, ColumnData)>>> {
    let service = ScanService::new(ServiceOptions {
        workers: 2,
        batch_rows: 1_024,
        config: codec.clone(),
        ..ServiceOptions::default()
    });
    service.register(
        "reference",
        Arc::new(MemorySource::new("reference", compressed)),
        sidecar.clone(),
    );
    let client = service.client("reference");
    specs
        .iter()
        .map(|spec| drain(&mut client.submit("reference", spec)?))
        .collect()
}

/// How a campaign configures each schedule's service.
#[derive(Clone, Copy)]
enum Knobs {
    /// Admission wide open and no span coalescing, so no scan's outcome
    /// depends on its neighbours' service-level bookkeeping.
    Isolated,
    /// Randomized cache, window, coalescing and (sometimes tight) admission.
    Randomized,
}

/// Draws one schedule's faulty source: fault plan, optional permanent bit
/// flip, retry policy, optional breaker and hedging.
fn draw_source(
    rng: &mut Xorshift,
    bytes: &[u8],
    layout: &RelationLayout,
) -> (Arc<ObjectStoreSource>, ScheduleCtx) {
    let plan = FaultPlan {
        seed: rng.next_u64(),
        transient_rate: rng.next_f64() * 0.35,
        truncate_rate: rng.next_f64() * 0.25,
        corrupt_rate: rng.next_f64() * 0.25,
        partial_rate: rng.next_f64() * 0.25,
        latency_spike_rate: rng.next_f64() * 0.5,
        latency_spike_ms: 100 + rng.next_u32() % 1_900,
        request_timeout_ms: if rng.gen_bool(0.5) {
            400 + rng.next_u32() % 600
        } else {
            0
        },
        base_latency_ms: rng.next_u32() % 40,
        max_faults_per_key: 1 + rng.next_u32() % 5,
    };

    // Some schedules permanently corrupt one stored block: bit rot the
    // retry layer can never heal, which must end in quarantine — and must
    // poison only scans touching that block.
    let mut corrupted = None;
    let mut stored = bytes.to_vec();
    if rng.gen_bool(0.25) {
        let column = rng.next_u32() % 3;
        if let Some(col) = layout.columns.get(column as usize) {
            let blocks = u32::try_from(col.blocks.len()).unwrap_or(u32::MAX);
            if blocks > 0 {
                let block = rng.next_u32() % blocks;
                if let Some(range) = col.blocks.get(block as usize) {
                    // lint: allow(cast) simulated objects are far below 4 GiB
                    let offset = range.offset as usize + range.len as usize / 2;
                    let bit = u8::try_from(rng.next_u32() % 8).unwrap_or(0);
                    stored = Mutation::BitFlip { offset, bit }.apply(&stored);
                    corrupted = Some((column, block));
                }
            }
        }
    }

    let store = Arc::new(ObjectStore::new());
    store.put("chaos.btr", stored);
    store.set_fault_plan(Some(plan.clone()));
    let retry = RetryPolicy {
        max_attempts: 2 + rng.next_u32() % 6,
        base_backoff_seconds: 0.02,
        backoff_multiplier: 2.0,
    };
    let mut source = ObjectStoreSource::new(store, "chaos.btr", layout.clone(), retry);
    let breaker = rng.gen_bool(0.5);
    if breaker {
        source = source.with_breaker(BreakerConfig {
            failure_threshold: 1 + rng.next_u32() % 5,
            open_seconds: 0.5 + rng.next_f64() * 10.0,
        });
    }
    if rng.gen_bool(0.5) {
        source = source.with_hedging(HedgeConfig {
            percentile: 0.9,
            min_seconds: 0.005,
            warmup: 8,
        });
    }
    let ctx = ScheduleCtx {
        faults_injected: plan.transient_rate > 0.0
            || plan.truncate_rate > 0.0
            || plan.corrupt_rate > 0.0
            || plan.partial_rate > 0.0
            || (plan.latency_spike_rate > 0.0 && plan.request_timeout_ms > 0),
        corruption_possible: plan.corrupt_rate > 0.0 || corrupted.is_some(),
        corrupted,
        breaker,
        tight_admission: false,
    };
    (Arc::new(source), ctx)
}

/// Draws one schedule's service configuration; returns whether admission
/// was made deliberately tight.
fn draw_options(
    rng: &mut Xorshift,
    knobs: Knobs,
    config: &ChaosConfig,
    codec: &Config,
) -> (ServiceOptions, bool) {
    let workers = config.workers.max(1);
    // A small cache budget on some schedules drives the ladder's
    // cache-pressure rung.
    let cache_bytes = if rng.gen_bool(0.3) { 32 << 10 } else { 16 << 20 };
    let base = ServiceOptions {
        workers,
        cache_bytes,
        batch_rows: 1_024,
        window: 4,
        queue_limit: u64::MAX,
        byte_budget: u64::MAX,
        quantum_bytes: 16 << 10,
        coalesce_window: 1,
        config: codec.clone(),
    };
    match knobs {
        Knobs::Isolated => (base, false),
        Knobs::Randomized => {
            let tight = rng.gen_bool(0.2);
            let options = ServiceOptions {
                window: 2 + (rng.next_u32() % 6) as usize,
                queue_limit: if tight {
                    config.concurrent_scans.max(1) as u64
                } else {
                    4_096
                },
                byte_budget: if tight { 256 << 10 } else { 1 << 30 },
                coalesce_window: 1 + rng.next_u32() % 4,
                ..base
            };
            (options, tight)
        }
    }
}

/// Runs the campaign with the service kept out of the way: every scan is
/// its own tenant, admission is wide open and coalescing is off, so every
/// failure comes from the fault machinery. Setup failures (compressing the
/// generated relation, the fault-free reference pass) are the only errors
/// returned — scan failures are classified into the report.
pub fn run_campaign(config: &ChaosConfig) -> Result<ChaosReport> {
    run(config, Knobs::Isolated)
}

/// Runs the campaign with randomized service knobs on top of the fault
/// schedule; see the module docs.
pub fn run_service_campaign(config: &ChaosConfig) -> Result<ChaosReport> {
    run(config, Knobs::Randomized)
}

fn run(config: &ChaosConfig, knobs: Knobs) -> Result<ChaosReport> {
    let relation = build_relation(config.rows);
    let codec = Config {
        block_size: config.block_size.max(1),
        ..Config::default()
    };
    let sidecar = Sidecar::build(&relation, codec.block_size);
    let compressed = Arc::new(btrblocks::compress(&relation, &codec)?);
    let bytes = compressed.to_bytes();
    let layout = RelationLayout::of(&compressed);
    let specs = spec_pool(config.rows);
    let references = reference_scans(compressed, &sidecar, &codec, &specs)?;

    let mut report = ChaosReport::default();
    for schedule in 0..config.schedules {
        // lint: allow(cast) schedule index to seed material
        let mut rng =
            Xorshift::new(config.seed ^ (schedule as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let (source, mut ctx) = draw_source(&mut rng, &bytes, &layout);
        let (options, tight_admission) = draw_options(&mut rng, knobs, config, &codec);
        ctx.tight_admission = tight_admission;
        let service = ScanService::new(options);
        service.register("chaos", source.clone(), sidecar.clone());

        // Draw every scan's spec + tolerance up front (the RNG is not
        // shared with threads), then submit + drain concurrently.
        let mut jobs = Vec::with_capacity(config.concurrent_scans.max(1));
        for t in 0..config.concurrent_scans.max(1) {
            let spec_idx = (schedule + t) % specs.len().max(1);
            let mut spec = specs.get(spec_idx).cloned().unwrap_or_default();
            if rng.gen_bool(0.3) {
                spec = spec.with_deadline(0.5 + rng.next_f64() * 5.0);
            }
            if rng.gen_bool(0.3) {
                spec = spec.with_retry_budget(
                    1.0 + f64::from(rng.next_u32() % 16),
                    rng.next_f64() * 2.0,
                );
            }
            jobs.push((t, spec_idx, spec));
        }
        let handles: Vec<_> = jobs
            .into_iter()
            .map(|(t, spec_idx, spec)| {
                let client = service.client(format!("tenant-{t}"));
                std::thread::spawn(move || {
                    let result = client
                        .submit("chaos", &spec)
                        .and_then(|mut handle| drain(&mut handle));
                    (spec_idx, spec, result)
                })
            })
            .collect();
        for handle in handles {
            report.scans_run += 1;
            let Ok((spec_idx, spec, result)) = handle.join() else {
                report.panics += 1;
                continue;
            };
            match result {
                Ok(columns) => {
                    if references.get(spec_idx) == Some(&columns) {
                        report.scans_ok += 1;
                    } else {
                        report.divergent += 1;
                    }
                }
                Err(err) => {
                    report.scans_failed += 1;
                    match &err {
                        ScanError::AdmissionRejected { .. } => report.admission_rejected += 1,
                        ScanError::DeadlineExceeded { .. } => report.deadline_exceeded += 1,
                        ScanError::RetryBudgetExhausted { .. } => report.budget_exhausted += 1,
                        ScanError::BreakerOpen { .. } => report.breaker_open += 1,
                        ScanError::Quarantined { .. } => report.quarantined += 1,
                        ScanError::FetchFailed { .. } => report.fetch_failed += 1,
                        _ => {}
                    }
                    if matches!(err, ScanError::Worker(_)) {
                        report.panics += 1;
                    } else if !attributed(&err, &spec, &ctx) {
                        report.unattributed += 1;
                    }
                }
            }
        }
        let stats = source.stats();
        report.hedges_issued += stats.hedges_issued;
        report.hedges_won += stats.hedges_won;
        report.breaker_transitions += stats.breaker_transitions;
        report.blocks_quarantined += stats.blocks_quarantined;
        report.retries += stats.retries;
        report.backoff_seconds += stats.backoff_seconds;
        let service_report = service.report();
        report.dedup_hits += service_report.dedup_hits;
        report.coalesced_blocks += service_report.coalesced_blocks;
        report.schedules += 1;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_clean(report: &ChaosReport) {
        assert!(
            report.is_clean(),
            "panics={} divergent={} unattributed={}",
            report.panics,
            report.divergent,
            report.unattributed
        );
        assert!(report.scans_ok > 0, "some scans must survive the faults");
    }

    #[test]
    fn smoke_campaign_is_clean() {
        let report = run_campaign(&ChaosConfig {
            schedules: 10,
            rows: 2_000,
            ..ChaosConfig::default()
        })
        .expect("campaign setup");
        assert_eq!(report.schedules, 10);
        assert_eq!(report.scans_run, 80);
        assert_eq!(report.admission_rejected, 0, "admission is wide open");
        assert_clean(&report);
    }

    #[test]
    fn campaigns_touch_every_mechanism_eventually() {
        // Across a few dozen schedules the randomized knobs must exercise
        // retries, hedging, and quarantine at least once each.
        let report = run_campaign(&ChaosConfig {
            schedules: 40,
            rows: 2_000,
            ..ChaosConfig::default()
        })
        .expect("campaign setup");
        assert!(report.is_clean());
        assert!(report.retries > 0, "fault rates must force retries");
        assert!(report.hedges_issued > 0, "spiky schedules must hedge");
        assert!(
            report.blocks_quarantined > 0,
            "permanent corruption must quarantine"
        );
        assert!(report.backoff_seconds > 0.0);
    }

    #[test]
    fn smoke_service_campaign_is_clean() {
        let report = run_service_campaign(&ChaosConfig {
            seed: 0x5E21_FEED,
            schedules: 6,
            rows: 2_000,
            ..ChaosConfig::default()
        })
        .expect("campaign setup");
        assert_eq!(report.schedules, 6);
        assert_eq!(report.scans_run, 48);
        assert_clean(&report);
    }
}

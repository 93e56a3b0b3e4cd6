//! Fault-tolerance acceptance: the chaos campaign plus targeted storms.
//!
//! The headline test runs 1,000 randomized fault schedules, each with eight
//! concurrent scans against one faulty simulated object store, and demands
//! zero panics, zero divergent results, and zero unattributed failures.
//! The targeted tests pin the individual guarantees: quarantine isolation,
//! deadline bounds on the simulated clock, retry-budget typing, and
//! drop-mid-storm cancellation at several worker counts.

use btr_corrupt::Xorshift;
use btr_s3sim::{FaultPlan, ObjectStore, RetryPolicy, SimClock};
use btr_scan::{BlockSource, MemorySource, ObjectStoreSource, RecordBatch, RelationLayout};
use btr_server::{ChaosConfig, ScanClient, ScanError, ScanService, ScanSpec, ServiceOptions};
use btrblocks::{Column, ColumnData, Config, Relation, Sidecar, StringArena};
use std::sync::Arc;

const BLOCK_SIZE: usize = 500;

fn config() -> Config {
    Config {
        block_size: BLOCK_SIZE,
        ..Config::default()
    }
}

fn build_relation(rows: i32) -> Relation {
    let ids: Vec<i32> = (0..rows).collect();
    let vals: Vec<f64> = (0..rows).map(|i| f64::from(i) * 0.25).collect();
    let tags: Vec<String> = (0..rows).map(|i| format!("tag-{}", i % 11)).collect();
    let refs: Vec<&str> = tags.iter().map(|s| s.as_str()).collect();
    Relation::new(vec![
        Column::new("id", ColumnData::Int(ids)),
        Column::new("val", ColumnData::Double(vals)),
        Column::new("tag", ColumnData::Str(StringArena::from_strs(&refs))),
    ])
}

/// A service with `source` registered as `"rel"`; span coalescing is off so
/// every fetch is one block's GET, as the fault assertions below assume.
fn serve(
    workers: usize,
    window: usize,
    source: Arc<dyn BlockSource>,
    sidecar: &Sidecar,
) -> ScanService {
    let service = ScanService::new(ServiceOptions {
        workers,
        window,
        batch_rows: 1_024,
        cache_bytes: 16 << 20,
        coalesce_window: 1,
        config: config(),
        ..ServiceOptions::default()
    });
    service.register("rel", source, sidecar.clone());
    service
}

fn drain(client: &ScanClient, spec: &ScanSpec) -> Result<Vec<RecordBatch>, ScanError> {
    client.submit("rel", spec)?.collect()
}

#[test]
fn thousand_schedule_campaign_over_eight_concurrent_scans_is_clean() {
    let report = btr_server::run_campaign(&ChaosConfig {
        seed: 0xBADC_0FFE,
        schedules: 1_000,
        concurrent_scans: 8,
        rows: 2_000,
        block_size: BLOCK_SIZE,
        workers: 4,
    })
    .expect("campaign setup");

    assert_eq!(report.schedules, 1_000);
    assert_eq!(report.scans_run, 8_000);
    assert_eq!(report.panics, 0, "no panic may escape any schedule");
    assert_eq!(
        report.divergent, 0,
        "every successful scan must be byte-identical to the fault-free run"
    );
    assert_eq!(
        report.unattributed, 0,
        "every failure must be typed and explained by an injected fault"
    );
    assert_eq!(
        report.scans_ok + report.scans_failed + report.divergent,
        report.scans_run
    );

    // A thousand randomized schedules must exercise every mechanism.
    assert!(report.retries > 0, "retries never fired");
    assert!(report.backoff_seconds > 0.0, "no backoff was charged");
    assert!(report.hedges_issued > 0, "hedging never fired");
    assert!(report.hedges_won > 0, "no hedge ever won");
    assert!(report.breaker_transitions > 0, "no breaker ever tripped");
    assert!(report.blocks_quarantined > 0, "quarantine never fired");
    assert!(report.deadline_exceeded > 0, "no deadline ever tripped");
    assert!(report.budget_exhausted > 0, "no retry budget ever drained");
    assert!(report.breaker_open > 0, "no scan ever failed fast on a breaker");
    assert!(report.quarantined > 0, "no scan ever hit a quarantined block");
    assert!(report.fetch_failed > 0, "no scan ever exhausted its retries");
}

#[test]
fn permanently_corrupt_block_poisons_only_scans_that_touch_it() {
    let rel = build_relation(4_000);
    let compressed = Arc::new(btrblocks::compress(&rel, &config()).unwrap());
    let sidecar = Sidecar::build(&rel, BLOCK_SIZE);
    let layout = RelationLayout::of(&compressed);

    // Flip one bit inside a stored block of the `val` column (index 1).
    let mut bytes = compressed.to_bytes();
    let range = layout.columns[1].blocks[3];
    bytes[range.offset as usize + range.len as usize / 2] ^= 0x40;

    let store = Arc::new(ObjectStore::new());
    store.put("rel.btr", bytes);
    let source: Arc<dyn BlockSource> = Arc::new(ObjectStoreSource::new(
        store,
        "rel.btr",
        layout,
        RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        },
    ));
    let service = serve(2, 4, source.clone(), &sidecar);

    // Reference for the unaffected projection.
    let memory: Arc<dyn BlockSource> = Arc::new(MemorySource::new(
        "rel-ref",
        Arc::new(btrblocks::compress(&rel, &config()).unwrap()),
    ));
    let reference = serve(2, 4, memory, &sidecar);
    let want = drain(&reference.client("ref"), &ScanSpec::project(["id", "tag"])).unwrap();

    // Concurrent neighbours, one tenant each: scans avoiding `val` succeed
    // byte-identically while scans over `val` fail with a typed quarantine.
    let handles: Vec<_> = (0..8)
        .map(|i| {
            let client = service.client(format!("tenant-{i}"));
            std::thread::spawn(move || {
                let spec = if i % 2 == 0 {
                    ScanSpec::project(["id", "tag"])
                } else {
                    ScanSpec::project(["val"])
                };
                (i, drain(&client, &spec))
            })
        })
        .collect();
    for handle in handles {
        let (i, result) = handle.join().expect("no scan thread may panic");
        if i % 2 == 0 {
            let got = result.expect("scans that skip the corrupt column succeed");
            assert_eq!(got, want, "unaffected scans stay byte-identical");
        } else {
            match result.unwrap_err() {
                ScanError::Quarantined { column, block } => {
                    assert_eq!((column, block), (1, 3), "failure names the poisoned block");
                }
                other => panic!("expected Quarantined, got {other:?}"),
            }
        }
    }
    let stats = source.stats();
    assert_eq!(stats.blocks_quarantined, 1, "exactly one block is poisoned");
}

#[test]
fn deadline_bounded_scan_stops_within_budget_plus_one_step() {
    let rel = build_relation(4_000);
    let compressed = Arc::new(btrblocks::compress(&rel, &config()).unwrap());
    let sidecar = Sidecar::build(&rel, BLOCK_SIZE);
    let layout = RelationLayout::of(&compressed);
    let store = Arc::new(ObjectStore::new());
    store.put("rel.btr", compressed.to_bytes());
    store.set_fault_plan(Some(FaultPlan {
        transient_rate: 0.5,
        base_latency_ms: 50,
        max_faults_per_key: 4,
        ..FaultPlan::transient(0.5, 77)
    }));
    let clock = SimClock::default();
    let policy = RetryPolicy {
        max_attempts: 16,
        base_backoff_seconds: 0.05,
        backoff_multiplier: 1.0,
    };
    let source = Arc::new(
        ObjectStoreSource::new(store, "rel.btr", layout, policy).with_clock(clock.clone()),
    );
    let service = serve(1, 2, source, &sidecar);
    let spec = ScanSpec::project(["id", "val", "tag"]).with_deadline(0.3);
    let err = service
        .client("t")
        .submit("rel", &spec)
        .unwrap()
        .filter_map(Result::err)
        .next()
        .expect("a 300ms budget cannot cover this storm");
    match err {
        ScanError::DeadlineExceeded {
            elapsed_seconds,
            budget_seconds,
        } => {
            assert_eq!(budget_seconds, 0.3);
            // Overshoot is bounded by one in-flight fetch (50ms) plus one
            // backoff step (50ms) on the simulated clock.
            assert!(elapsed_seconds > 0.3);
            assert!(elapsed_seconds <= 0.3 + 0.05 + 0.05 + 1e-9, "{elapsed_seconds}");
            assert!(clock.now_seconds() <= 0.3 + 0.05 + 0.05 + 1e-9);
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
}

#[test]
fn retry_budget_exhaustion_is_typed_end_to_end() {
    let rel = build_relation(4_000);
    let compressed = Arc::new(btrblocks::compress(&rel, &config()).unwrap());
    let sidecar = Sidecar::build(&rel, BLOCK_SIZE);
    let layout = RelationLayout::of(&compressed);
    let store = Arc::new(ObjectStore::new());
    store.put("rel.btr", compressed.to_bytes());
    store.set_fault_plan(Some(FaultPlan {
        max_faults_per_key: 1_000,
        ..FaultPlan::transient(1.0, 13)
    }));
    let source = Arc::new(ObjectStoreSource::new(
        store,
        "rel.btr",
        layout,
        RetryPolicy {
            max_attempts: 1_000,
            ..RetryPolicy::default()
        },
    ));
    let service = serve(1, 4, source, &sidecar);
    let spec = ScanSpec::project(["id"]).with_retry_budget(3.0, 0.0);
    let err = service
        .client("t")
        .submit("rel", &spec)
        .unwrap()
        .filter_map(Result::err)
        .next()
        .expect("an always-faulting store must drain a 3-token budget");
    assert!(
        matches!(err, ScanError::RetryBudgetExhausted { attempts, .. } if attempts == 4),
        "one free attempt plus three budgeted retries, got {err:?}"
    );
}

/// Hand-rolled property test (no proptest crate in this workspace):
/// dropping a `ScanHandle` mid-fault-storm must always cancel without
/// deadlocking, and the service must then shut its workers down cleanly,
/// across worker counts and random stop points. The test completing *is*
/// the assertion — a stuck join would hang the harness.
#[test]
fn dropping_scans_mid_storm_always_cancels_cleanly() {
    let rel = build_relation(10_000);
    let compressed = Arc::new(btrblocks::compress(&rel, &config()).unwrap());
    let sidecar = Sidecar::build(&rel, BLOCK_SIZE);
    let layout = RelationLayout::of(&compressed);
    let bytes = compressed.to_bytes();

    let mut rng = Xorshift::new(0xD20B);
    for workers in [1usize, 2, 8] {
        for case in 0..12u32 {
            let store = Arc::new(ObjectStore::new());
            store.put("rel.btr", bytes.clone());
            store.set_fault_plan(Some(FaultPlan {
                transient_rate: 0.3,
                truncate_rate: 0.2,
                corrupt_rate: 0.2,
                partial_rate: 0.2,
                latency_spike_rate: 0.3,
                request_timeout_ms: 700,
                base_latency_ms: 20,
                max_faults_per_key: 4,
                ..FaultPlan::transient(0.0, rng.next_u64())
            }));
            let source = Arc::new(ObjectStoreSource::new(
                store,
                "rel.btr",
                layout.clone(),
                RetryPolicy {
                    max_attempts: 2 + case % 4,
                    ..RetryPolicy::default()
                },
            ));
            let service = ScanService::new(ServiceOptions {
                workers,
                window: 1 + (case as usize) % 6,
                batch_rows: 512,
                cache_bytes: 1 << 20,
                config: config(),
                ..ServiceOptions::default()
            });
            service.register("rel", source, sidecar.clone());
            let mut spec = ScanSpec::project(["id", "val", "tag"]);
            if rng.gen_bool(0.4) {
                spec = spec.with_deadline(0.2 + rng.next_f64() * 2.0);
            }
            let mut scan = service.client("t").submit("rel", &spec).unwrap();
            // Consume a random prefix — possibly nothing, possibly spanning
            // errors — then drop with workers still in flight.
            let stop_after = rng.next_u32() % 6;
            for _ in 0..stop_after {
                if scan.next().is_none() {
                    break;
                }
            }
            drop(scan); // must cancel, storm or not
            drop(service); // must join its workers
        }
    }
}

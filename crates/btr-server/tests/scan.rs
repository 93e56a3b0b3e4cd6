//! Single-scan behaviour of the scan executor: batching, pushdown, cache
//! reuse, plan-time typing, aggregates, cancellation, deadlines, and the
//! per-scan report.

use btr_s3sim::{FaultPlan, ObjectStore, RetryPolicy, SimClock};
use btr_scan::layout::RelationLayout;
use btr_scan::{col, lit, AggValue, Aggregate, MemorySource, ObjectStoreSource};
use btr_server::{ScanClient, ScanError, ScanService, ScanSpec, ServiceOptions};
use btrblocks::{Column, ColumnData, Config, Relation, Sidecar, StringArena};
use std::sync::Arc;

fn options(block_size: usize, batch_rows: usize) -> ServiceOptions {
    ServiceOptions {
        batch_rows,
        config: Config {
            block_size,
            ..Config::default()
        },
        ..ServiceOptions::default()
    }
}

/// A service with `rel` registered as `"rel"` over a memory source, plus a
/// client for one tenant.
fn serve(rel: &Relation, options: ServiceOptions) -> (ScanService, ScanClient) {
    let sidecar = Sidecar::build(rel, options.config.block_size);
    let compressed = Arc::new(btrblocks::compress(rel, &options.config).unwrap());
    let service = ScanService::new(options);
    service.register("rel", Arc::new(MemorySource::new("rel", compressed)), sidecar);
    let client = service.client("t");
    (service, client)
}

fn ints(column: &ColumnData) -> Vec<i32> {
    match column {
        ColumnData::Int(v) => v.clone(),
        _ => unreachable!("projected an int column"),
    }
}

#[test]
fn full_scan_rechunks_into_fixed_batches() {
    let rel = Relation::new(vec![Column::new("id", ColumnData::Int((0..4_500).collect()))]);
    let (_service, client) = serve(&rel, options(1_000, 700));
    let handle = client.submit("rel", &ScanSpec::project(["id"])).unwrap();
    let batches: Vec<_> = handle.map(|b| b.unwrap()).collect();
    // 4500 rows in 700-row batches: 6 full + one 300-row remainder.
    assert_eq!(batches.len(), 7);
    assert!(batches[..6].iter().all(|b| b.rows() == 700));
    assert_eq!(batches[6].rows(), 300);
    let all: Vec<i32> = batches.iter().flat_map(|b| ints(b.column("id").unwrap())).collect();
    assert_eq!(all, (0..4_500).collect::<Vec<_>>());
}

#[test]
fn pushdown_fast_path_skips_decoding_filtered_out_blocks() {
    // Low-cardinality ints compress to Dict/RLE/OneValue — all fast-path
    // schemes — and the value 7 never occurs.
    let rel = Relation::new(vec![Column::new(
        "k",
        ColumnData::Int((0..4_000).map(|i| i % 3).collect()),
    )]);
    let (_service, client) = serve(&rel, options(1_000, 4_096));
    let spec = ScanSpec::project(["k"]).with_expr(col("k").eq(lit(7)));
    let mut scan = client.submit("rel", &spec).unwrap();
    assert_eq!(scan.by_ref().count(), 0);
    let report = scan.report();
    // Zones are (0,2) so Eq(7) prunes everything before any fetch...
    assert_eq!(report.blocks_pruned, 4);
    assert_eq!(report.blocks_fetched, 0);

    // ...so force fetches with a predicate inside the zone range but
    // absent from the data (i % 3 != 1 on even-only values).
    let rel = Relation::new(vec![Column::new(
        "k",
        ColumnData::Int((0..4_000).map(|i| (i % 3) * 2).collect()),
    )]);
    let (_service, client) = serve(&rel, options(1_000, 4_096));
    let spec = ScanSpec::project(["k"]).with_expr(col("k").eq(lit(3)));
    let mut scan = client.submit("rel", &spec).unwrap();
    assert_eq!(scan.by_ref().count(), 0);
    let report = scan.report();
    assert_eq!(report.blocks_pruned, 0);
    assert_eq!(report.blocks_pushdown_fast_path, 4);
    assert_eq!(report.blocks_decoded, 0, "no rows matched, nothing decoded");
    assert_eq!(report.rows_matched, 0);
}

#[test]
fn predicate_column_decode_is_reused_for_projection() {
    let rel = Relation::new(vec![Column::new("id", ColumnData::Int((0..2_000).collect()))]);
    let (_service, client) = serve(&rel, options(1_000, 4_096));
    let spec = ScanSpec::project(["id"]).with_expr(col("id").ge(lit(0)));
    let mut scan = client.submit("rel", &spec).unwrap();
    let rows: usize = scan.by_ref().map(|b| b.unwrap().rows()).sum();
    assert_eq!(rows, 2_000);
    let report = scan.report();
    // Whatever path the predicate took, each block is fetched at most
    // once and decoded at most once.
    assert!(report.blocks_fetched <= 2);
    assert!(report.blocks_decoded <= 2);
}

#[test]
fn warm_cache_skips_fetch_and_decode() {
    let strings: Vec<String> = (0..3_000).map(|i| format!("v{}", i % 17)).collect();
    let refs: Vec<&str> = strings.iter().map(|s| s.as_str()).collect();
    let rel = Relation::new(vec![
        Column::new("id", ColumnData::Int((0..3_000).collect())),
        Column::new("tag", ColumnData::Str(StringArena::from_strs(&refs))),
    ]);
    let (_service, client) = serve(&rel, options(1_000, 4_096));
    let spec = ScanSpec::project(["id", "tag"]);

    let mut cold = client.submit("rel", &spec).unwrap();
    let cold_rows: usize = cold.by_ref().map(|b| b.unwrap().rows()).sum();
    let cold_report = cold.report();
    assert_eq!(cold_rows, 3_000);
    assert!(cold_report.blocks_decoded > 0);

    let mut warm = client.submit("rel", &spec).unwrap();
    let warm_rows: usize = warm.by_ref().map(|b| b.unwrap().rows()).sum();
    let warm_report = warm.report();
    assert_eq!(warm_rows, 3_000);
    assert_eq!(warm_report.cache_hits, 6, "both columns, all blocks");
    assert_eq!(warm_report.blocks_fetched, 0);
    assert_eq!(warm_report.blocks_decoded, 0);
    assert_eq!(warm_report.bytes_fetched, 0);
}

#[test]
fn type_mismatched_predicate_surfaces_as_error() {
    // The expression compiler type-checks at plan time, so the mismatch
    // is a typed error from `submit` instead of a mid-scan decode failure.
    let rel = Relation::new(vec![Column::new("id", ColumnData::Int((0..2_000).collect()))]);
    let (_service, client) = serve(&rel, options(1_000, 4_096));
    let spec = ScanSpec::project(["id"]).with_expr(col("id").eq(lit(1.0)));
    let err = match client.submit("rel", &spec) {
        Err(e) => e,
        Ok(_) => panic!("ill-typed predicate must fail at plan time"),
    };
    assert!(matches!(
        err,
        ScanError::Expr(btr_scan::ExprError::TypeMismatch(_))
    ));
}

#[test]
fn expr_scan_matches_row_wise_reference() {
    let rel = Relation::new(vec![
        Column::new("id", ColumnData::Int((0..4_000).collect())),
        Column::new(
            "val",
            ColumnData::Double((0..4_000).map(|i| f64::from(i) * 0.5).collect()),
        ),
    ]);
    let (_service, client) = serve(&rel, options(1_000, 4_096));
    // (id >= 500 AND val < 1200.0) — a leaf plus a leaf, with an
    // arithmetic twist on a third conjunct: (id + id) < 5000.
    let expr = col("id")
        .ge(lit(500))
        .and(col("val").lt(lit(1_200.0)))
        .and(col("id").add(col("id")).lt(lit(5_000)));
    let spec = ScanSpec::project(["id"]).with_expr(expr);
    let mut scan = client.submit("rel", &spec).unwrap();
    let got: Vec<i32> = scan
        .by_ref()
        .flat_map(|b| ints(b.unwrap().column("id").unwrap()))
        .collect();
    let want: Vec<i32> = (0..4_000)
        .filter(|&i| i >= 500 && f64::from(i) * 0.5 < 1_200.0 && i + i < 5_000)
        .collect();
    assert_eq!(got, want);
    let report = scan.report();
    // val < 1200 prunes blocks 3+ (zones 1500+), id >= 500 is
    // always-true there anyway; at least one block dies before fetch.
    assert!(report.blocks_pruned >= 1, "{report:?}");
}

#[test]
fn aggregates_answer_from_zones_without_fetching() {
    let rel = Relation::new(vec![Column::new("id", ColumnData::Int((0..4_000).collect()))]);
    let (_service, client) = serve(&rel, options(1_000, 4_096));
    let spec = ScanSpec::aggregate([
        Aggregate::count("id"),
        Aggregate::min("id"),
        Aggregate::max("id"),
    ]);
    let report = client.aggregate("rel", &spec).unwrap();
    assert_eq!(
        report.values,
        vec![
            AggValue::Count(4_000),
            AggValue::MinInt(Some(0)),
            AggValue::MaxInt(Some(3_999)),
        ]
    );
    // COUNT/MIN/MAX all come from zone maps: nothing fetched or decoded.
    assert_eq!(report.agg_sources.from_zones, 12, "3 aggs × 4 groups");
    assert_eq!(report.counters.blocks_fetched, 0);
    assert_eq!(report.counters.blocks_decoded, 0);
}

#[test]
fn filtered_aggregate_matches_reference() {
    let vals: Vec<f64> = (0..4_000).map(|i| f64::from(i % 97) * 0.25).collect();
    let rel = Relation::new(vec![
        Column::new("id", ColumnData::Int((0..4_000).collect())),
        Column::new("val", ColumnData::Double(vals.clone())),
    ]);
    let (_service, client) = serve(&rel, options(1_000, 4_096));
    let spec = ScanSpec::aggregate([Aggregate::sum("val")]).with_expr(col("id").lt(lit(1_500)));
    let report = client.aggregate("rel", &spec).unwrap();
    // Reference: sequential fold over the filtered rows, same order.
    let mut want = 0.0f64;
    for v in vals.iter().take(1_500) {
        want += v;
    }
    assert_eq!(report.values, vec![AggValue::SumDouble(want)]);
    // id < 1500 prunes blocks 2 and 3 before any fetch.
    assert_eq!(report.blocks_pruned, 2);
}

#[test]
fn many_groups_through_two_workers_stay_in_row_order() {
    // 100 row groups through 2 workers and a deep window: however the
    // workers interleave, the ordered output must be unaffected.
    let rel = Relation::new(vec![Column::new("id", ColumnData::Int((0..50_000).collect()))]);
    let (_service, client) = serve(
        &rel,
        ServiceOptions {
            workers: 2,
            window: 32,
            ..options(500, 4_096)
        },
    );
    let scan = client.submit("rel", &ScanSpec::project(["id"])).unwrap();
    let all: Vec<i32> = scan.flat_map(|b| ints(b.unwrap().column("id").unwrap())).collect();
    assert_eq!(all, (0..50_000).collect::<Vec<_>>());
}

#[test]
fn dropping_a_scan_early_does_not_hang() {
    let rel = Relation::new(vec![Column::new("id", ColumnData::Int((0..50_000).collect()))]);
    let (_service, client) = serve(
        &rel,
        ServiceOptions {
            window: 2,
            ..options(500, 100)
        },
    );
    let mut scan = client.submit("rel", &ScanSpec::project(["id"])).unwrap();
    let first = scan.next().unwrap().unwrap();
    assert_eq!(first.rows(), 100);
    drop(scan); // must cancel without deadlock
}

/// A service over an object-store copy of `rel` with the given fault plan
/// and retry policy, on a fresh simulated clock.
fn store_service(
    rel: &Relation,
    options: ServiceOptions,
    plan: Option<FaultPlan>,
    retry: RetryPolicy,
) -> (ScanService, ScanClient, SimClock) {
    let sidecar = Sidecar::build(rel, options.config.block_size);
    let compressed = Arc::new(btrblocks::compress(rel, &options.config).unwrap());
    let layout = RelationLayout::of(&compressed);
    let store = Arc::new(ObjectStore::new());
    store.put("rel.btr", compressed.to_bytes());
    store.set_fault_plan(plan);
    let clock = SimClock::default();
    let source = ObjectStoreSource::new(store, "rel.btr", layout, retry).with_clock(clock.clone());
    let service = ScanService::new(options);
    service.register("rel", Arc::new(source), sidecar);
    let client = service.client("t");
    (service, client, clock)
}

#[test]
fn scan_deadline_is_typed_and_bounded_on_the_simulated_clock() {
    // 100ms per GET, four blocks, 250ms budget: the deadline trips
    // mid-scan and the overshoot stays within one fetch.
    let rel = Relation::new(vec![Column::new("id", ColumnData::Int((0..4_000).collect()))]);
    let (_service, client, clock) = store_service(
        &rel,
        ServiceOptions {
            workers: 1,
            window: 2,
            coalesce_window: 1,
            ..options(1_000, 4_096)
        },
        Some(FaultPlan {
            base_latency_ms: 100,
            ..FaultPlan::default()
        }),
        RetryPolicy::default(),
    );
    let spec = ScanSpec::project(["id"]).with_deadline(0.25);
    let scan = client.submit("rel", &spec).unwrap();
    let err = scan
        .filter_map(std::result::Result::err)
        .next()
        .expect("a 250ms budget cannot cover four 100ms fetches");
    match err {
        ScanError::DeadlineExceeded {
            elapsed_seconds,
            budget_seconds,
        } => {
            assert_eq!(budget_seconds, 0.25);
            assert!(elapsed_seconds > 0.25);
            // Overshoot bounded by the one fetch in flight when the
            // budget ran out.
            assert!(elapsed_seconds <= 0.25 + 0.1 + 1e-9, "{elapsed_seconds}");
            assert!(clock.now_seconds() <= 0.25 + 0.1 + 1e-9);
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
}

#[test]
fn report_carries_fault_tolerance_counters() {
    let rel = Relation::new(vec![Column::new("id", ColumnData::Int((0..4_000).collect()))]);
    let (_service, client, _clock) = store_service(
        &rel,
        ServiceOptions {
            workers: 2,
            ..options(1_000, 4_096)
        },
        Some(FaultPlan::transient(0.6, 21)),
        RetryPolicy {
            max_attempts: 32,
            ..RetryPolicy::default()
        },
    );
    let mut scan = client.submit("rel", &ScanSpec::project(["id"])).unwrap();
    let rows: usize = scan.by_ref().map(|b| b.unwrap().rows()).sum();
    assert_eq!(rows, 4_000, "faults are transient, the scan completes");
    let report = scan.report();
    assert!(report.fetch_retries > 0);
    assert!(report.fetch_backoff_seconds > 0.0);
    assert_eq!(report.hedges_issued, 0);
    assert_eq!(report.blocks_quarantined, 0);
    assert_eq!(report.breaker_transitions, 0);
    assert_eq!(report.degradation_steps, 0);
}

#[test]
fn empty_relation_scans_cleanly() {
    let rel = Relation::new(vec![Column::new("id", ColumnData::Int(Vec::new()))]);
    let (_service, client) = serve(&rel, options(1_000, 4_096));
    let mut scan = client.submit("rel", &ScanSpec::project(["id"])).unwrap();
    let rows: usize = scan.by_ref().map(|b| b.unwrap().rows()).sum();
    assert_eq!(rows, 0);
    assert_eq!(scan.report().batches, 0);
}

//! Scan smoke benchmark: pruning, pushdown, and cache economics.
//!
//! Exercises the scan executor (`btr_server::ScanService` over btr-scan's
//! parts) end to end against the simulated object store: a
//! multi-block relation is uploaded once, then scanned three ways — a full
//! scan (no predicate), a cold selective scan (zone maps prune, ranged GETs
//! fetch only survivors) and an identical warm scan (served from the
//! decoded-block cache). The interesting ratios are bytes-on-the-wire
//! versus the object size and warm versus cold decode time; `BENCH_scan.json`
//! records them for CI trend-watching.

use crate::{Table, time_it};
use btr_s3sim::{ObjectStore, RetryPolicy};
use btr_scan::{col, lit, BlockSource, ObjectStoreSource, RelationLayout};
use btr_server::{ScanClient, ScanReport, ScanService, ScanSpec, ServiceOptions};
use btrblocks::{Column, ColumnData, Config, Relation, Sidecar, StringArena};
use std::sync::Arc;

/// One scan variant's metrics.
#[derive(Debug, Clone)]
pub struct ScanRun {
    /// Variant label (`full`, `cold`, `warm`).
    pub name: &'static str,
    /// Rows the scan returned.
    pub rows_out: u64,
    /// Output rows per wall-clock second.
    pub rows_per_s: f64,
    /// The scan's own report.
    pub report: ScanReport,
}

/// All three variants plus the object size they ran against.
#[derive(Debug, Clone)]
pub struct ScanBench {
    /// Serialized relation size in the store.
    pub file_bytes: u64,
    /// Full scan, cold selective scan, warm selective scan.
    pub runs: Vec<ScanRun>,
}

fn build_relation(rows: usize, seed: u64) -> Relation {
    // Deterministic mixed-type data with an ascending key so zone maps have
    // something to prune on; payload columns carry realistic byte weight.
    let ids: Vec<i32> = (0..rows as i32).collect();
    let vals: Vec<f64> = (0..rows)
        .map(|i| ((i as u64).wrapping_mul(seed | 1) % 10_000) as f64 / 100.0)
        .collect();
    let tags: Vec<String> = (0..rows)
        .map(|i| format!("tag-{:03}", (i as u64).wrapping_mul(2_654_435_761) % 211))
        .collect();
    let refs: Vec<&str> = tags.iter().map(|s| s.as_str()).collect();
    Relation::new(vec![
        Column::new("id", ColumnData::Int(ids)),
        Column::new("val", ColumnData::Double(vals)),
        Column::new("tag", ColumnData::Str(StringArena::from_strs(&refs))),
    ])
}

/// A fresh service (and so a cold cache) with `source` registered as
/// `"rel"`, plus a client.
fn serve(cfg: &Config, source: &Arc<dyn BlockSource>, sidecar: &Sidecar) -> (ScanService, ScanClient) {
    let service = ScanService::new(ServiceOptions {
        config: cfg.clone(),
        ..ServiceOptions::default()
    });
    service.register("rel", source.clone(), sidecar.clone());
    let client = service.client("bench");
    (service, client)
}

fn drain(client: &ScanClient, spec: &ScanSpec, name: &'static str) -> ScanRun {
    let (result, secs) = time_it(|| {
        let mut scan = client
            .submit("rel", spec)
            .expect("scan plans against its own layout");
        let rows: u64 = scan
            .by_ref()
            .map(|b| b.expect("in-memory store does not fault").rows() as u64)
            .sum();
        (rows, scan.report())
    });
    let (rows_out, report) = result;
    ScanRun {
        name,
        rows_out,
        rows_per_s: if secs > 0.0 { rows_out as f64 / secs } else { 0.0 },
        report,
    }
}

/// Runs the three scan variants and returns their metrics.
pub fn measure(rows: usize, seed: u64) -> ScanBench {
    // Smaller blocks than the codec default so even modest BENCH_ROWS values
    // produce a multi-block relation with something to prune.
    let cfg = Config {
        block_size: 8_000,
        ..Config::default()
    };
    let rel = build_relation(rows, seed);
    let sidecar = Sidecar::build(&rel, cfg.block_size);
    let compressed = btrblocks::compress(&rel, &cfg).expect("compress");
    let layout = RelationLayout::of(&compressed);
    let file = compressed.to_bytes();
    let file_bytes = file.len() as u64;

    let store = Arc::new(ObjectStore::new());
    store.put("bench/rel.btr", file);
    let source: Arc<dyn BlockSource> = Arc::new(ObjectStoreSource::new(
        store,
        "bench/rel.btr",
        layout,
        RetryPolicy::default(),
    ));

    // Selective: first tenth of the key space survives the zone maps.
    let selective = ScanSpec::project(["id", "val", "tag"])
        .with_expr(col("id").lt(lit((rows / 10) as i32)));
    let full = ScanSpec::project(["id", "val", "tag"]);

    // The full scan would leave every block in the cache; the selective
    // pair runs on a fresh service so "cold" really is cold.
    let (_service, client) = serve(&cfg, &source, &sidecar);
    let full_run = drain(&client, &full, "full");
    let (_service, client) = serve(&cfg, &source, &sidecar);
    let cold = drain(&client, &selective, "cold-selective");
    let warm = drain(&client, &selective, "warm-selective");

    ScanBench {
        file_bytes,
        runs: vec![full_run, cold, warm],
    }
}

/// Renders `measure` as JSON for `BENCH_scan.json` (hand-rolled — the
/// workspace is hermetic, no serde).
pub fn json(bench: &ScanBench, rows: usize, seed: u64) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"rows\": {rows},\n  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"file_bytes\": {},\n  \"runs\": [\n", bench.file_bytes));
    for (i, run) in bench.runs.iter().enumerate() {
        let r = &run.report;
        let hit_rate = {
            let total = r.cache_hits + r.cache_misses;
            if total == 0 { 0.0 } else { r.cache_hits as f64 / total as f64 }
        };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"rows_out\": {}, \"rows_per_s\": {:.0}, \
             \"bytes_fetched\": {}, \"fetch_requests\": {}, \"blocks_total\": {}, \
             \"blocks_pruned\": {}, \"blocks_pushdown_fast_path\": {}, \
             \"blocks_decoded\": {}, \"cache_hit_rate\": {:.4}, \
             \"decode_seconds\": {:.6}, \"wall_seconds\": {:.6}}}{}\n",
            run.name,
            run.rows_out,
            run.rows_per_s,
            r.bytes_fetched,
            r.fetch_requests,
            r.blocks_total,
            r.blocks_pruned,
            r.blocks_pushdown_fast_path,
            r.blocks_decoded,
            hit_rate,
            r.decode_seconds,
            r.wall_seconds,
            if i + 1 == bench.runs.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders the scan table.
pub fn run(rows: usize, seed: u64) -> String {
    render(&measure(rows, seed))
}

/// Renders an already-measured bench (lets the binary measure once and emit
/// both the table and the JSON).
pub fn render(bench: &ScanBench) -> String {
    let mut table = Table::new(&[
        "scan",
        "rows out",
        "Mrows/s",
        "bytes fetched",
        "pruned/total",
        "pushdown",
        "decoded",
        "hit rate",
        "decode ms",
    ]);
    for run in &bench.runs {
        let r = &run.report;
        let total = r.cache_hits + r.cache_misses;
        let hit_rate = if total == 0 { 0.0 } else { r.cache_hits as f64 / total as f64 };
        table.row(vec![
            run.name.to_string(),
            run.rows_out.to_string(),
            format!("{:.2}", run.rows_per_s / 1e6),
            run.report.bytes_fetched.to_string(),
            format!("{}/{}", r.blocks_pruned, r.blocks_total),
            r.blocks_pushdown_fast_path.to_string(),
            r.blocks_decoded.to_string(),
            format!("{:.2}", hit_rate),
            format!("{:.2}", r.decode_seconds * 1e3),
        ]);
    }
    format!(
        "Scan service over simulated object store ({} bytes object, 3 columns)\n\
         full scan vs cold/warm selective scan (predicate keeps first tenth of the key space)\n\n{}",
        bench.file_bytes,
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_bench_shapes_hold() {
        let bench = measure(40_000, 7);
        assert_eq!(bench.runs.len(), 3);
        let full = &bench.runs[0];
        let cold = &bench.runs[1];
        let warm = &bench.runs[2];
        assert_eq!(full.rows_out, 40_000);
        assert_eq!(cold.rows_out, warm.rows_out);
        assert!(cold.rows_out <= 4_096 + 4_000, "selective scan is selective");
        assert!(cold.report.blocks_pruned > 0);
        assert!(cold.report.bytes_fetched < bench.file_bytes);
        assert_eq!(warm.report.blocks_decoded, 0, "warm scan runs from cache");
        assert!(warm.report.cache_hits > 0);
        let json = json(&bench, 40_000, 7);
        assert!(json.contains("\"cache_hit_rate\""));
        assert!(json.contains("\"warm-selective\""));
    }
}

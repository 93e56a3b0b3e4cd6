//! Expression-engine benchmark: pushdown versus decode-then-filter.
//!
//! Measures what the vectorized expression engine buys over the naive plan
//! (decode every block, then filter rows) at three selectivities, and what
//! aggregate pushdown buys over a full decode-and-fold. Each filter variant
//! runs the same multi-conjunct expression; the pushdown side goes through
//! the scan service with the expression (zone pruning, compressed-domain
//! leaves, late materialization) while the baseline drains an unfiltered
//! scan and filters the materialized batches row by row. `BENCH_query.json` records the
//! speedups for CI trend-watching.

use crate::{time_it, Table};
use btr_scan::{col, lit, AggValue, Aggregate, BlockSource, MemorySource, RecordBatch};
use btr_server::{ScanClient, ScanService, ScanSpec, ServiceOptions};
use btrblocks::{Column, ColumnData, Config, Relation, Sidecar, StringArena};
use std::sync::Arc;

/// One selectivity point: the filtered scan against its baseline.
#[derive(Debug, Clone)]
pub struct FilterRun {
    /// Fraction of the key space the filter keeps (0.01, 0.10, 0.90).
    pub selectivity: f64,
    /// Rows the filter kept (identical for both plans).
    pub rows_out: u64,
    /// Wall seconds for the pushdown plan (a scan with the expression).
    pub pushdown_seconds: f64,
    /// Wall seconds for decode-everything-then-filter.
    pub baseline_seconds: f64,
    /// Blocks the pushdown plan pruned from zone maps.
    pub blocks_pruned: u64,
    /// Blocks the pushdown plan decoded.
    pub blocks_decoded: u64,
    /// Blocks the baseline decoded (all of them).
    pub baseline_decoded: u64,
}

impl FilterRun {
    /// Baseline time over pushdown time (>1 means pushdown wins).
    pub fn speedup(&self) -> f64 {
        if self.pushdown_seconds > 0.0 {
            self.baseline_seconds / self.pushdown_seconds
        } else {
            f64::INFINITY
        }
    }
}

/// The aggregate comparison: answers from zones/compressed domain versus a
/// full decode-and-fold.
#[derive(Debug, Clone)]
pub struct AggRun {
    /// Wall seconds for `ScanClient::aggregate` (zones answer MIN/MAX/COUNT).
    pub pushdown_seconds: f64,
    /// Wall seconds for decoding every block and folding rows.
    pub baseline_seconds: f64,
    /// Blocks the aggregate path decoded (zero when zones answer).
    pub blocks_decoded: u64,
    /// Aggregates answered from zone maps alone.
    pub from_zones: u64,
    /// The aggregate values, for cross-checking against the baseline fold.
    pub values: Vec<AggValue>,
}

impl AggRun {
    /// Baseline time over pushdown time.
    pub fn speedup(&self) -> f64 {
        if self.pushdown_seconds > 0.0 {
            self.baseline_seconds / self.pushdown_seconds
        } else {
            f64::INFINITY
        }
    }
}

/// All measured points.
#[derive(Debug, Clone)]
pub struct QueryBench {
    /// Total rows in the relation.
    pub rows: u64,
    /// 1%/10%/90% selectivity filter runs.
    pub filters: Vec<FilterRun>,
    /// The aggregate pushdown run.
    pub agg: AggRun,
}

fn build_relation(rows: usize, seed: u64) -> Relation {
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

/// Row-wise filter over materialized batches — the baseline's second stage.
fn filter_batches(batches: &[RecordBatch], cutoff: i32) -> u64 {
    let mut kept = 0u64;
    for batch in batches {
        let ids = match batch.column("id") {
            Some(ColumnData::Int(v)) => v,
            _ => continue,
        };
        let vals = match batch.column("val") {
            Some(ColumnData::Double(v)) => v,
            _ => continue,
        };
        for (id, val) in ids.iter().zip(vals) {
            if *id < cutoff && *val >= 0.0 {
                kept += 1;
            }
        }
    }
    kept
}

/// A fresh service (cold cache, nothing shared with other plans) with
/// `source` registered as `"rel"`, plus a client.
fn serve(cfg: &Config, source: &Arc<dyn BlockSource>, sidecar: &Sidecar) -> (ScanService, ScanClient) {
    let service = ScanService::new(ServiceOptions {
        config: cfg.clone(),
        ..ServiceOptions::default()
    });
    service.register("rel", source.clone(), sidecar.clone());
    let client = service.client("bench");
    (service, client)
}

/// Runs the benchmark at the given scale.
pub fn measure(rows: usize, seed: u64) -> QueryBench {
    let cfg = Config {
        block_size: 8_000,
        ..Config::default()
    };
    let rel = build_relation(rows, seed);
    let sidecar = Sidecar::build(&rel, cfg.block_size);
    let compressed = Arc::new(btrblocks::compress(&rel, &cfg).expect("compress"));
    let source: Arc<dyn BlockSource> = Arc::new(MemorySource::new("bench", compressed));

    let mut filters = Vec::new();
    for selectivity in [0.01, 0.10, 0.90] {
        let cutoff = ((rows as f64) * selectivity) as i32;
        let expr = col("id").lt(lit(cutoff)).and(col("val").ge(lit(0.0)));

        // Fresh services per plan: both sides run cold, nothing is shared.
        let (_service, client) = serve(&cfg, &source, &sidecar);
        let spec = ScanSpec::project(["id", "val"]).with_expr(expr);
        let (push, pushdown_seconds) = time_it(|| {
            let mut scan = client.submit("rel", &spec).expect("pushdown plan");
            let rows_out: u64 = scan
                .by_ref()
                .map(|b| b.expect("in-memory scan").rows() as u64)
                .sum();
            (rows_out, scan.report())
        });
        let (rows_out, report) = push;

        let (_service, client) = serve(&cfg, &source, &sidecar);
        let full = ScanSpec::project(["id", "val"]);
        let (base, baseline_seconds) = time_it(|| {
            let mut scan = client.submit("rel", &full).expect("baseline plan");
            let batches: Vec<RecordBatch> =
                scan.by_ref().map(|b| b.expect("in-memory scan")).collect();
            (filter_batches(&batches, cutoff), scan.report())
        });
        let (baseline_rows, baseline_report) = base;
        assert_eq!(rows_out, baseline_rows, "plans disagree on the result");

        filters.push(FilterRun {
            selectivity,
            rows_out,
            pushdown_seconds,
            baseline_seconds,
            blocks_pruned: report.blocks_pruned,
            blocks_decoded: report.blocks_decoded,
            baseline_decoded: baseline_report.blocks_decoded,
        });
    }

    // Aggregates without a filter: COUNT/MIN/MAX answer straight from the
    // zone maps — no block is fetched, let alone decoded.
    let (_service, client) = serve(&cfg, &source, &sidecar);
    let agg_spec = ScanSpec::aggregate([
        Aggregate::count("id"),
        Aggregate::min("id"),
        Aggregate::max("id"),
        Aggregate::min("val"),
        Aggregate::max("val"),
    ]);
    let (agg_report, pushdown_seconds) = time_it(|| {
        client.aggregate("rel", &agg_spec).expect("aggregate plan")
    });

    let (_service, client) = serve(&cfg, &source, &sidecar);
    let full = ScanSpec::project(["id", "val"]);
    let (_, baseline_seconds) = time_it(|| {
        let mut scan = client.submit("rel", &full).expect("baseline plan");
        let mut count = 0u64;
        let (mut min_id, mut max_id) = (i32::MAX, i32::MIN);
        let (mut min_val, mut max_val) = (f64::INFINITY, f64::NEG_INFINITY);
        for batch in scan.by_ref() {
            let batch = batch.expect("in-memory scan");
            if let Some(ColumnData::Int(v)) = batch.column("id") {
                count += v.len() as u64;
                for &x in v {
                    min_id = min_id.min(x);
                    max_id = max_id.max(x);
                }
            }
            if let Some(ColumnData::Double(v)) = batch.column("val") {
                for &x in v {
                    min_val = min_val.min(x);
                    max_val = max_val.max(x);
                }
            }
        }
        (count, min_id, max_id, min_val, max_val)
    });

    QueryBench {
        rows: rows as u64,
        filters,
        agg: AggRun {
            pushdown_seconds,
            baseline_seconds,
            blocks_decoded: agg_report.counters.blocks_decoded,
            from_zones: agg_report.agg_sources.from_zones,
            values: agg_report.values,
        },
    }
}

/// Renders `measure` as JSON for `BENCH_query.json` (hand-rolled — the
/// workspace is hermetic, no serde).
pub fn json(bench: &QueryBench, rows: usize, seed: u64) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"rows\": {rows},\n  \"seed\": {seed},\n"));
    out.push_str("  \"filters\": [\n");
    for (i, run) in bench.filters.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"selectivity\": {:.2}, \"rows_out\": {}, \
             \"pushdown_seconds\": {:.6}, \"baseline_seconds\": {:.6}, \
             \"pushdown_speedup\": {:.3}, \"pushdown_ok\": {}, \
             \"blocks_pruned\": {}, \"blocks_decoded\": {}, \
             \"baseline_decoded\": {}}}{}\n",
            run.selectivity,
            run.rows_out,
            run.pushdown_seconds,
            run.baseline_seconds,
            run.speedup(),
            run.speedup() >= 1.0,
            run.blocks_pruned,
            run.blocks_decoded,
            run.baseline_decoded,
            if i + 1 == bench.filters.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"aggregate\": {{\"pushdown_seconds\": {:.6}, \"baseline_seconds\": {:.6}, \
         \"agg_speedup\": {:.3}, \"from_zones\": {}, \"blocks_decoded\": {}}}\n",
        bench.agg.pushdown_seconds,
        bench.agg.baseline_seconds,
        bench.agg.speedup(),
        bench.agg.from_zones,
        bench.agg.blocks_decoded,
    ));
    out.push_str("}\n");
    out
}

/// Renders the comparison table.
pub fn render(bench: &QueryBench) -> String {
    let mut table = Table::new(&[
        "selectivity",
        "rows out",
        "pushdown ms",
        "baseline ms",
        "speedup",
        "pruned",
        "decoded (push/base)",
    ]);
    for run in &bench.filters {
        table.row(vec![
            format!("{:.0}%", run.selectivity * 100.0),
            run.rows_out.to_string(),
            format!("{:.2}", run.pushdown_seconds * 1e3),
            format!("{:.2}", run.baseline_seconds * 1e3),
            format!("{:.2}x", run.speedup()),
            run.blocks_pruned.to_string(),
            format!("{}/{}", run.blocks_decoded, run.baseline_decoded),
        ]);
    }
    format!(
        "Expression pushdown vs decode-then-filter ({} rows, 2-conjunct filter)\n\n{}\n\
         Aggregates (COUNT/MIN/MAX x2, no filter): {:.2} ms from zones \
         ({} zone answers, {} blocks decoded) vs {:.2} ms full decode — {:.2}x\n",
        bench.rows,
        table.render(),
        bench.agg.pushdown_seconds * 1e3,
        bench.agg.from_zones,
        bench.agg.blocks_decoded,
        bench.agg.baseline_seconds * 1e3,
        bench.agg.speedup(),
    )
}

/// Renders the query-engine table at the given scale.
pub fn run(rows: usize, seed: u64) -> String {
    render(&measure(rows, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_bench_shapes_hold() {
        let bench = measure(40_000, 7);
        assert_eq!(bench.filters.len(), 3);
        let sel1 = &bench.filters[0];
        assert!(sel1.rows_out <= 400, "1% filter keeps about 1%");
        assert!(sel1.blocks_pruned > 0, "zones prune at 1% selectivity");
        assert!(
            sel1.blocks_decoded < sel1.baseline_decoded,
            "pushdown decodes strictly fewer blocks"
        );
        // Aggregates without a filter never touch a block.
        assert_eq!(bench.agg.blocks_decoded, 0);
        assert!(bench.agg.from_zones > 0);
        assert_eq!(bench.agg.values[0], AggValue::Count(40_000));
        assert_eq!(bench.agg.values[1], AggValue::MinInt(Some(0)));
        assert_eq!(bench.agg.values[2], AggValue::MaxInt(Some(39_999)));
        let json = json(&bench, 40_000, 7);
        assert!(json.contains("\"pushdown_speedup\""));
        assert!(json.contains("\"agg_speedup\""));
    }
}

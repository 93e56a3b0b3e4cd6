//! The metric vocabulary and the result line.
//!
//! Both tables are mirrored by `BENCHMARK.json` at the repository root (a
//! unit test keeps them equal). Every workload reports every end-to-end
//! metric, so a change is judged on each (metric, workload) pair; what a
//! metric means on each workload is written down in `perfbench/README.md`.
//! Per-layer metrics of a layer a workload leaves idle read 0, which is how
//! a traced run shows that the layer stayed idle.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One metric: name, unit and which direction is better.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn m(name: &'static str, unit: &'static str, higher_is_better: bool) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better,
    }
}

const HI: bool = true;
const LO: bool = false;

/// Metrics of an untraced run (`--trace 0`).
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", LO),
    m("mb_s", "MB/s", HI),
    m("mt_mb_s", "MB/s", HI),
    m("ops_s", "1/s", HI),
    m("p50_ms", "ms", LO),
    m("p99_ms", "ms", LO),
    m("compression_ratio", "x", HI),
    m("io_mb_per_op", "MB", LO),
    m("peak_rss_mb", "MB", LO),
];

/// Spans the traced runs record, one per call into a layer. The first span
/// of each workload is its root operation (one round or one query).
pub const SPANS: &[&str] = &[
    "write.round",
    "sampling.select",
    "scheme.encode",
    "relation.serialize",
    "metadata.zone_build",
    "layout.build",
    "parallel.compress",
    "read.round",
    "relation.parse",
    "block.decode",
    "parallel.decompress",
    "serve.query",
    "serve.submit",
    "serve.next",
];

/// Root schemes, in `SchemeCode` order, as metric-name suffixes.
pub const SCHEMES: &[&str] = &[
    "uncompressed",
    "one_value",
    "rle",
    "dict",
    "frequency",
    "fastpfor",
    "fastbp128",
    "pseudodecimal",
    "fsst",
    "dict_fsst",
];

/// Metrics of a traced run (`--trace 1`).
pub const PER_LAYER: &[Metric] = &[
    m("trace.overhead_pct", "%", LO),
    m("error_rate", "fraction", LO),
    m("latency.samples", "count", HI),
    m("latency.tail_pct", "%", HI),
    // Self time and calls of every span, per root operation.
    m("write.round_s", "s/op", LO),
    m("write.round.calls", "count", HI),
    m("sampling.select_s", "s/op", LO),
    m("sampling.select.calls", "calls/op", LO),
    m("scheme.encode_s", "s/op", LO),
    m("scheme.encode.calls", "calls/op", LO),
    m("relation.serialize_s", "s/op", LO),
    m("relation.serialize.calls", "calls/op", LO),
    m("metadata.zone_build_s", "s/op", LO),
    m("metadata.zone_build.calls", "calls/op", LO),
    m("layout.build_s", "s/op", LO),
    m("layout.build.calls", "calls/op", LO),
    m("parallel.compress_s", "s/op", LO),
    m("parallel.compress.calls", "calls/op", LO),
    m("read.round_s", "s/op", LO),
    m("read.round.calls", "count", HI),
    m("relation.parse_s", "s/op", LO),
    m("relation.parse.calls", "calls/op", LO),
    m("block.decode_s", "s/op", LO),
    m("block.decode.calls", "calls/op", LO),
    m("parallel.decompress_s", "s/op", LO),
    m("parallel.decompress.calls", "calls/op", LO),
    m("serve.query_s", "s/op", LO),
    m("serve.query.calls", "count", HI),
    m("serve.submit_s", "s/op", LO),
    m("serve.submit.calls", "calls/op", LO),
    m("serve.next_s", "s/op", LO),
    m("serve.next.calls", "calls/op", LO),
    // btrblocks encode side.
    m("sampling.select_share", "fraction", LO),
    m("scheme.blocks.uncompressed", "blocks/op", LO),
    m("scheme.blocks.one_value", "blocks/op", HI),
    m("scheme.blocks.rle", "blocks/op", HI),
    m("scheme.blocks.dict", "blocks/op", HI),
    m("scheme.blocks.frequency", "blocks/op", HI),
    m("scheme.blocks.fastpfor", "blocks/op", HI),
    m("scheme.blocks.fastbp128", "blocks/op", HI),
    m("scheme.blocks.pseudodecimal", "blocks/op", HI),
    m("scheme.blocks.fsst", "blocks/op", HI),
    m("scheme.blocks.dict_fsst", "blocks/op", HI),
    m("crc32c.gb_s", "GB/s", HI),
    // btrblocks decode side.
    m("relation.parse_share", "fraction", LO),
    m("block.decode_s.uncompressed", "s/op", LO),
    m("block.decode_s.one_value", "s/op", LO),
    m("block.decode_s.rle", "s/op", LO),
    m("block.decode_s.dict", "s/op", LO),
    m("block.decode_s.frequency", "s/op", LO),
    m("block.decode_s.fastpfor", "s/op", LO),
    m("block.decode_s.fastbp128", "s/op", LO),
    m("block.decode_s.pseudodecimal", "s/op", LO),
    m("block.decode_s.fsst", "s/op", LO),
    m("block.decode_s.dict_fsst", "s/op", LO),
    m("block.decode_gb_s.int", "GB/s", HI),
    m("block.decode_gb_s.double", "GB/s", HI),
    m("block.decode_gb_s.str", "GB/s", HI),
    m("simd.scalar_slowdown_pct", "%", HI),
    m("scratch.decode_hit_rate", "fraction", HI),
    // Parallel encode/decode over the morsel dispenser.
    m("parallel.encode_speedup", "x", HI),
    m("parallel.decode_speedup", "x", HI),
    m("morsel.queue_waits", "count/op", LO),
    m("morsel.max_worker_share", "fraction", LO),
    // Scan planning, expression engine, cache, pipeline, source, store.
    m("plan.prune_ratio", "fraction", HI),
    m("expr.fast_path_blocks", "blocks/query", HI),
    m("expr.match_ratio", "fraction", HI),
    m("serve.submit_ms", "ms", LO),
    m("cache.hit_rate", "fraction", HI),
    m("cache.evictions", "count/query", LO),
    m("pipeline.blocks_fetched", "blocks/query", LO),
    m("pipeline.blocks_decoded", "blocks/query", LO),
    m("pipeline.decode_s", "s/query", LO),
    m("pipeline.dedup_hits", "blocks/query", HI),
    m("source.fetch_retries", "count/query", LO),
    m("store.ranged_gets", "gets/query", LO),
    m("store.bytes_served", "MB/query", LO),
    // Scan service.
    m("server.queue_wait_p50_s", "s", LO),
    m("server.queue_wait_p95_s", "s", LO),
    m("server.spans_issued", "count/query", HI),
    m("server.coalesced_blocks", "blocks/query", HI),
    m("server.staged_hits", "blocks/query", HI),
    m("server.admission_rejections", "count", LO),
    m("serve.loaded_p50_ms", "ms", LO),
    m("serve.first_batch_ms", "ms", LO),
    m("serve.stall_share", "fraction", LO),
    m("serve.point_p50_ms", "ms", LO),
    m("serve.filter_p50_ms", "ms", LO),
    m("serve.full_p50_ms", "ms", LO),
    // Figure 8's comparators on the read workload's relations.
    m("ref.parquet_lite_best_gb_s", "GB/s", HI),
    m("ref.orc_lite_gb_s", "GB/s", HI),
];

/// The metrics a run prints.
pub fn table(traced: bool) -> &'static [Metric] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// What one run measured, plus its operation counts.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted in the measured region.
    pub attempted: u64,
    /// Operations that failed or returned a wrong result.
    pub failed: u64,
    values: BTreeMap<String, f64>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Counts one operation and whether its output was right.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The result line: the per-layer table for a traced run, else the
    /// end-to-end one. End-to-end metrics must all have been measured;
    /// per-layer metrics of an idle layer read 0. Returns the first missing
    /// name as the error.
    pub fn to_json(&self, traced: bool) -> Result<String, String> {
        let table = table(traced);
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, metric) in table.iter().enumerate() {
            let value = match (self.get(metric.name), traced) {
                (Some(v), _) if v.is_finite() => v,
                (None, true) => 0.0,
                _ => return Err(metric.name.to_string()),
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                metric.name,
                json_number(value),
                metric.unit
            );
        }
        out.push_str("}}");
        Ok(out)
    }

    /// A human-readable table of the measured values, for stderr.
    pub fn summary(&self, traced: bool) -> String {
        let mut out = format!("attempted {} failed {}\n", self.attempted, self.failed);
        for metric in table(traced) {
            if let Some(v) = self.get(metric.name) {
                let better = if metric.higher_is_better {
                    "higher is better"
                } else {
                    "lower is better"
                };
                let _ = writeln!(
                    out,
                    "  {:<32} {:>14.6} {:<12} {better}",
                    metric.name, v, metric.unit
                );
            }
        }
        out
    }
}

/// Formats a finite value as a JSON number with every digit Rust keeps
/// (`{:?}` prints the shortest exact form, e.g. `0.25` or `1e-7`).
fn json_number(v: f64) -> String {
    format!("{v:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(metric.name), "duplicate metric {}", metric.name);
            assert!(metric.name.len() <= 64);
            assert!(metric
                .name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(metric
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(metric.unit.len() <= 16);
            assert!(metric
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn every_span_reports_self_time_and_calls() {
        for span in SPANS {
            for suffix in ["_s", ".calls"] {
                let name = format!("{span}{suffix}");
                assert!(PER_LAYER.iter().any(|m| m.name == name), "{name} missing");
            }
        }
        for scheme in SCHEMES {
            for prefix in ["scheme.blocks.", "block.decode_s."] {
                let name = format!("{prefix}{scheme}");
                assert!(PER_LAYER.iter().any(|m| m.name == name), "{name} missing");
            }
        }
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let mut r = Report::default();
        r.check(true);
        for metric in END_TO_END {
            r.set(metric.name, 1.5);
        }
        let line = r.to_json(false).expect("complete");
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"mb_s\": {\"value\": 1.5, \"unit\": \"MB/s\"}"));
        let mut partial = Report::default();
        partial.set("setup_s", 1.0);
        assert_eq!(partial.to_json(false), Err("mb_s".to_string()));
        assert!(partial.to_json(true).is_ok(), "idle layers read 0");
    }

    #[test]
    fn a_failed_operation_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.check(true);
        r.check(false);
        for metric in END_TO_END {
            r.set(metric.name, 1.0);
        }
        let line = r.to_json(false).expect("complete");
        assert!(line.contains("\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }

    /// `BENCHMARK.json` names exactly the metrics this table prints.
    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str, next: &str| -> String {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let end = text[start..]
                .find(&format!("\"{next}\""))
                .map_or(text.len(), |e| start + e);
            text[start..end].to_string()
        };
        let e2e = section("end_to_end", "per_layer");
        let per_layer = section("per_layer", "\u{0}");
        let names = |s: &str| -> Vec<String> {
            s.split("\"name\": \"")
                .skip(1)
                .map(|t| t[..t.find('"').expect("closing quote")].to_string())
                .collect()
        };
        let want_e2e: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
        let want_layer: Vec<String> = PER_LAYER.iter().map(|m| m.name.to_string()).collect();
        assert_eq!(names(&e2e), want_e2e);
        assert_eq!(names(&per_layer), want_layer);
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            let better = if metric.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            let needle = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                metric.name, metric.unit, better
            );
            assert!(text.contains(&needle), "BENCHMARK.json lacks {needle}");
        }
    }
}

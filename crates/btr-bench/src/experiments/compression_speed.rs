//! §6.4 compression-speed table: single-threaded MB/s from CSV and from the
//! in-memory binary format, plus the resulting compression factor.
//!
//! Also hosts the *encode-path* benchmark added with `EncodeScratch`:
//! allocate-fresh vs cold/warm scratch-arena encode throughput and heap
//! growth, plus block-granular thread scaling (1/2/4/8 workers on a
//! single-column relation). The `compression_speed` binary installs the
//! tracking allocator so the heap columns are real, and writes the metrics
//! to `BENCH_COMPRESS_JSON` for CI (scripts/check.sh asserts the warm pass
//! allocates zero bytes and that parallel output matches serial).

use crate::formats::Format;
use crate::pool::WorkerPool;
use crate::{time_it, Table};
use btr_datagen::pbi;
use btr_lz::Codec;
use btr_sync::morsel::{Granularity, MorselDispenser, WorkerStats};
use btrblocks::{
    compress_column_into, compress_item, encode_item_cost, encode_items, Column, ColumnData,
    ColumnType, CompressedColumn, Config, EncodeItem, EncodeScratch, Relation, SchemeCode,
    StringArena,
};
use std::sync::{Arc, Mutex};

/// Renders a relation as CSV (no quoting — the generators avoid commas).
pub fn to_csv(rel: &Relation) -> String {
    let mut out = String::new();
    out.push_str(
        &rel.columns
            .iter()
            .map(|c| c.name.as_str())
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push('\n');
    for row in 0..rel.rows() {
        let mut first = true;
        for col in &rel.columns {
            if !first {
                out.push(',');
            }
            first = false;
            match &col.data {
                ColumnData::Int(v) => out.push_str(&v[row].to_string()),
                ColumnData::Double(v) => out.push_str(&format!("{}", v[row])),
                ColumnData::Str(a) => {
                    out.push_str(std::str::from_utf8(a.get(row)).unwrap_or("?"))
                }
            }
        }
        out.push('\n');
    }
    out
}

/// Parses CSV produced by [`to_csv`] given the column types.
pub fn parse_csv(csv: &str, types: &[(String, ColumnType)]) -> Relation {
    let mut lines = csv.lines();
    let _header = lines.next();
    let mut ints: Vec<Vec<i32>> = Vec::new();
    let mut doubles: Vec<Vec<f64>> = Vec::new();
    let mut strings: Vec<StringArena> = Vec::new();
    // Column -> slot in its typed pool.
    let mut slots = Vec::new();
    for (_, ty) in types {
        match ty {
            ColumnType::Integer => {
                slots.push((0usize, ints.len()));
                ints.push(Vec::new());
            }
            ColumnType::Double => {
                slots.push((1, doubles.len()));
                doubles.push(Vec::new());
            }
            ColumnType::String => {
                slots.push((2, strings.len()));
                strings.push(StringArena::new());
            }
        }
    }
    for line in lines {
        for (field, &(kind, idx)) in line.split(',').zip(&slots) {
            match kind {
                0 => ints[idx].push(field.parse().unwrap_or(0)),
                1 => doubles[idx].push(field.parse().unwrap_or(0.0)),
                _ => strings[idx].push(field.as_bytes()),
            }
        }
    }
    let columns = types
        .iter()
        .zip(&slots)
        .map(|((name, _), &(kind, idx))| {
            let data = match kind {
                0 => ColumnData::Int(std::mem::take(&mut ints[idx])),
                1 => ColumnData::Double(std::mem::take(&mut doubles[idx])),
                _ => ColumnData::Str(std::mem::take(&mut strings[idx])),
            };
            Column::new(name.clone(), data)
        })
        .collect();
    Relation::new(columns)
}

/// Regenerates the §6.4 compression-speed table.
pub fn run(rows: usize, seed: u64) -> String {
    // CSV-friendly subset (commas never appear in these generators).
    let cols: Vec<_> = pbi::registry(rows, seed)
        .into_iter()
        .filter(|c| !matches!(c.data, ColumnData::Str(ref a) if a.iter().any(|s| s.contains(&b','))))
        .collect();
    let rel = btr_datagen::dataset_relation(cols);
    let types: Vec<(String, ColumnType)> = rel
        .columns
        .iter()
        .map(|c| (c.name.clone(), c.data.column_type()))
        .collect();
    let csv = to_csv(&rel);
    let csv_mb = csv.len() as f64 / 1e6;
    let bin_mb = rel.heap_size() as f64 / 1e6;

    let mut table = Table::new(&["format", "from CSV MB/s", "from binary MB/s", "compr. factor"]);
    for fmt in [
        Format::Btr,
        Format::Parquet(Codec::SnappyLike),
        Format::Parquet(Codec::Heavy),
    ] {
        let (bytes, bin_secs) = time_it(|| fmt.compress(&rel));
        let (_, csv_secs) = time_it(|| {
            let parsed = parse_csv(&csv, &types);
            fmt.compress(&parsed)
        });
        table.row(vec![
            fmt.name().to_string(),
            format!("{:.1}", csv_mb / csv_secs.max(1e-12)),
            format!("{:.1}", bin_mb / bin_secs.max(1e-12)),
            format!("{:.2}", rel.heap_size() as f64 / bytes.len().max(1) as f64),
        ]);
    }
    format!(
        "Section 6.4: single-threaded compression speed ({} rows, CSV {:.1} MB, binary {:.1} MB)\n\n{}",
        rows, csv_mb, bin_mb,
        table.render()
    )
}

/// One encode variant's metrics (`fresh`, `cold-scratch`, `warm-scratch`).
#[derive(Debug, Clone)]
pub struct EncodeRun {
    /// Variant label.
    pub name: &'static str,
    /// Wall-clock seconds for the full pass.
    pub seconds: f64,
    /// Uncompressed input megabytes encoded per second.
    pub mb_per_s: f64,
    /// Peak heap growth during the pass, in bytes (0 without the tracker).
    pub heap_growth_bytes: usize,
    /// Heap growth divided by the number of blocks encoded.
    pub bytes_per_block: f64,
    /// Scratch-pool hits during the pass (0 for the fresh variant).
    pub scratch_hits: u64,
    /// Scratch-pool misses during the pass (0 for the fresh variant).
    pub scratch_misses: u64,
}

/// One worker's share of a morsel pass (from [`WorkerStats`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerAccount {
    /// Morsels this worker claimed.
    pub morsels: u64,
    /// Work items (blocks) inside those morsels.
    pub items: u64,
    /// Summed item cost (input bytes for encode, rows for decode).
    pub cost_units: u64,
    /// Dispenser CAS retries — claim-path contention.
    pub queue_waits: u64,
}

impl WorkerAccount {
    /// Converts dispenser stats into the bench's report row.
    pub fn of(s: &WorkerStats) -> WorkerAccount {
        WorkerAccount {
            morsels: s.morsels,
            items: s.items,
            cost_units: s.cost_units,
            queue_waits: s.queue_waits,
        }
    }
}

/// One thread-count sample of morsel-parallel compression.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Worker count.
    pub threads: usize,
    /// Best-of-N wall-clock seconds for one calibrated measurement
    /// (`EncodeBench::iters` passes over the relation).
    pub seconds: f64,
    /// Speedup over the 1-thread sample.
    pub speedup: f64,
    /// Cores the host reported when this entry ran.
    pub available_parallelism: usize,
    /// Per-worker dispenser accounting from the best repetition.
    pub workers: Vec<WorkerAccount>,
}

/// Encode-path benchmark results: scratch-arena variants plus morsel-driven
/// thread scaling.
#[derive(Debug, Clone)]
pub struct EncodeBench {
    /// Blocks encoded per arena pass.
    pub blocks: usize,
    /// Uncompressed input megabytes per arena pass.
    pub input_mb: f64,
    /// Fresh, cold-scratch, warm-scratch.
    pub runs: Vec<EncodeRun>,
    /// Blocks in the single-column scaling relation.
    pub scale_blocks: usize,
    /// Cores the host reports; speedup plateaus here on smaller machines.
    pub available_parallelism: usize,
    /// Encode passes per measurement, calibrated so one measurement runs at
    /// least ~100ms (short runs drown in scheduler noise).
    pub iters: usize,
    /// Calibrated serial baseline: `iters` dispenser-free passes, seconds.
    pub serial_seconds: f64,
    /// 1-worker morsel time over serial time, minus one, in percent — the
    /// dispenser's claim-path overhead. Meaningful on any machine,
    /// including single-core hosts where true speedup cannot show.
    pub dispenser_overhead_pct: f64,
    /// Whether that overhead stayed under 5%.
    pub dispenser_overhead_ok: bool,
    /// Whether the host had ≥ 4 cores, making the 4-thread speedup gate
    /// meaningful.
    pub speedup4_applicable: bool,
    /// `speedup >= 1.5` at 4 threads (vacuously true when not applicable).
    pub speedup4_ok: bool,
    /// Thread-scaling samples (1, 2, 4, 8 workers on a persistent pool).
    pub scale: Vec<ScalePoint>,
    /// Whether every parallel output was byte-identical to serial.
    pub parallel_matches_serial: bool,
}

/// The encode alloc-regression test's scheme pool: every scheme whose encode
/// path is fully scratch-leased, so the warm pass can be allocation-free.
fn encode_pool_config() -> Config {
    Config {
        block_size: 4_096,
        ..Config::default()
    }
    .with_pool(&[
        SchemeCode::Uncompressed,
        SchemeCode::OneValue,
        SchemeCode::Rle,
        SchemeCode::Dict,
        SchemeCode::FastPfor,
        SchemeCode::FastBp128,
    ])
}

/// Int/double relation for the arena passes (strings excluded: their
/// borrowed-key maps keep the encode path allocating by design).
fn encode_relation(rows: usize, seed: u64) -> Relation {
    Relation::new(vec![
        Column::new("id", ColumnData::Int((0..rows as i32).collect())),
        Column::new("runs", ColumnData::Int((0..rows).map(|i| (i / 100) as i32 % 7).collect())),
        Column::new(
            "price",
            ColumnData::Double(
                (0..rows)
                    .map(|i| ((i as u64).wrapping_mul(seed | 1) % 5_000) as f64 / 100.0)
                    .collect(),
            ),
        ),
    ])
}

/// Encodes every column into its reused shell via `compress_column_into`.
fn encode_all(
    rel: &Relation,
    cfg: &Config,
    scratch: &mut EncodeScratch,
    outs: &mut [CompressedColumn],
) -> usize {
    let mut bytes = 0;
    for (col, out) in rel.columns.iter().zip(outs.iter_mut()) {
        compress_column_into(col, cfg, scratch, out);
        bytes += out.blocks.iter().map(|b| b.len()).sum::<usize>();
    }
    bytes
}

/// Encodes every column allocating fresh: a new scratch arena and an empty
/// shell per column.
fn encode_fresh(rel: &Relation, cfg: &Config) -> usize {
    rel.columns
        .iter()
        .map(|col| {
            let mut out = CompressedColumn::empty(col.data.column_type());
            compress_column_into(col, cfg, &mut EncodeScratch::new(), &mut out);
            out.blocks.iter().map(|b| b.len()).sum::<usize>()
        })
        .sum()
}

/// Runs the encode variants and the thread-scaling sweep.
pub fn measure_encode(rows: usize, seed: u64) -> EncodeBench {
    let cfg = encode_pool_config();
    let rel = encode_relation(rows, seed);
    let input_mb = rel.heap_size() as f64 / 1e6;

    let mut scratch = EncodeScratch::new();
    let mut outs: Vec<CompressedColumn> = rel
        .columns
        .iter()
        .map(|col| CompressedColumn {
            name: String::new(),
            column_type: col.data.column_type(),
            nulls: Vec::new(),
            blocks: Vec::new(),
            schemes: Vec::new(),
        })
        .collect();

    let ((fresh_bytes, fresh_growth), fresh_secs) =
        time_it(|| btr_corrupt::alloc::measure(|| encode_fresh(&rel, &cfg)));

    let ((cold_bytes, cold_growth), cold_secs) =
        time_it(|| btr_corrupt::alloc::measure(|| encode_all(&rel, &cfg, &mut scratch, &mut outs)));
    let cold_stats = scratch.stats();

    // Settle pass (uncounted): lets one-time shell/tier growth finish so the
    // warm window measures the steady state.
    encode_all(&rel, &cfg, &mut scratch, &mut outs);
    let settle_stats = scratch.stats();

    let ((warm_bytes, warm_growth), warm_secs) =
        time_it(|| btr_corrupt::alloc::measure(|| encode_all(&rel, &cfg, &mut scratch, &mut outs)));
    let warm_stats = scratch.stats();

    assert_eq!(fresh_bytes, cold_bytes);
    assert_eq!(cold_bytes, warm_bytes);
    let blocks: usize = outs.iter().map(|c| c.blocks.len()).sum();

    let run = |name: &'static str, secs: f64, growth: usize, hits, misses| EncodeRun {
        name,
        seconds: secs,
        mb_per_s: input_mb / secs.max(1e-12),
        heap_growth_bytes: growth,
        bytes_per_block: growth as f64 / blocks.max(1) as f64,
        scratch_hits: hits,
        scratch_misses: misses,
    };

    // Thread scaling on a *single-column* relation: the case per-column
    // fan-out could not speed up at all and block granularity must. Speedups
    // only materialize when the host actually has spare cores
    // (`available_parallelism` is recorded per entry); on single-core hosts
    // the 1-worker-vs-serial overhead number is what the sweep proves.
    let single = Relation::new(vec![Column::new(
        "only",
        ColumnData::Int((0..rows as i32 * 16).map(|i| (i * 37) % 1_000).collect()),
    )]);
    let serial = btrblocks::compress(&single, &cfg).expect("serial compress");
    let serial_bytes = serial.to_bytes();

    // Byte-identity check once per thread count (outside the timed loop).
    let mut parallel_matches_serial = true;
    for threads in [1usize, 2, 4, 8] {
        let par = btrblocks::compress_parallel(&single, &cfg, threads).expect("parallel compress");
        if par.to_bytes() != serial_bytes {
            parallel_matches_serial = false;
        }
    }

    let ctx = Arc::new(MorselCtx::new(single, cfg.clone()));
    // Calibrate the iteration count so one measurement runs ≥ ~100ms: timing
    // a few milliseconds of work measures the OS scheduler, not the encoder.
    let (_, once_secs) = time_it(|| ctx.serial_pass());
    let iters = ((0.1 / once_secs.max(1e-9)).ceil() as usize).clamp(1, 10_000);
    let serial_seconds = best_of(3, || {
        let (_, secs) = time_it(|| {
            for _ in 0..iters {
                ctx.serial_pass();
            }
        });
        secs
    });

    let available_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut scale = Vec::new();
    let mut base_secs = 0.0f64;
    for threads in [1usize, 2, 4, 8] {
        // One persistent pool per entry, reused across calibration reps — a
        // measured pass never pays thread-spawn cost.
        let pool = WorkerPool::new(threads);
        let mut best = f64::MAX;
        let mut best_workers = Vec::new();
        for _ in 0..3 {
            let mut accounts = Vec::new();
            let (_, secs) = time_it(|| {
                for it in 0..iters {
                    let acc = ctx.morsel_pass(&pool, Granularity::default());
                    if it + 1 == iters {
                        accounts = acc;
                    }
                }
            });
            if secs < best {
                best = secs;
                best_workers = accounts;
            }
        }
        if threads == 1 {
            base_secs = best;
        }
        scale.push(ScalePoint {
            threads,
            seconds: best,
            speedup: base_secs / best.max(1e-12),
            available_parallelism,
            workers: best_workers,
        });
    }

    // Dispenser overhead: 1 morsel worker vs the dispenser-free serial loop
    // over the same items. This is the gate that works on a 1-core host.
    let dispenser_overhead_pct = (base_secs / serial_seconds.max(1e-12) - 1.0) * 100.0;
    let dispenser_overhead_ok = dispenser_overhead_pct < 5.0;
    let speedup4_applicable = available_parallelism >= 4;
    let speedup4_ok = !speedup4_applicable
        || scale.iter().any(|p| p.threads == 4 && p.speedup >= 1.5);

    EncodeBench {
        blocks,
        input_mb,
        runs: vec![
            run("fresh", fresh_secs, fresh_growth, 0, 0),
            run("cold-scratch", cold_secs, cold_growth, cold_stats.hits, cold_stats.misses),
            run(
                "warm-scratch",
                warm_secs,
                warm_growth,
                warm_stats.hits - settle_stats.hits,
                warm_stats.misses - settle_stats.misses,
            ),
        ],
        scale_blocks: serial.columns.first().map_or(0, |c| c.blocks.len()),
        available_parallelism,
        iters,
        serial_seconds,
        dispenser_overhead_pct,
        dispenser_overhead_ok,
        speedup4_applicable,
        speedup4_ok,
        scale,
        parallel_matches_serial,
    }
}

/// Best-of-N wall-clock repetitions.
pub(crate) fn best_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    (0..reps.max(1)).map(|_| f()).fold(f64::MAX, f64::min)
}

/// Owned encode workload shared with pool workers via `Arc`: the relation,
/// its block items and their byte costs.
struct MorselCtx {
    rel: Relation,
    cfg: Config,
    items: Vec<EncodeItem>,
    costs: Vec<u64>,
}

impl MorselCtx {
    fn new(rel: Relation, cfg: Config) -> MorselCtx {
        let items = encode_items(&rel, &cfg);
        let costs = items.iter().map(|it| encode_item_cost(&rel, it)).collect();
        MorselCtx { rel, cfg, items, costs }
    }

    /// Encodes every item in order with no dispenser — the overhead baseline.
    fn serial_pass(&self) {
        for item in &self.items {
            std::hint::black_box(compress_item(&self.rel, &self.cfg, item));
        }
    }

    /// Encodes every item through a fresh [`MorselDispenser`] on the pool,
    /// returning per-worker accounting.
    fn morsel_pass(self: &Arc<Self>, pool: &WorkerPool, granularity: Granularity) -> Vec<WorkerAccount> {
        let dispenser = Arc::new(MorselDispenser::new(&self.costs, granularity, pool.size()));
        let stats: Arc<Vec<Mutex<WorkerStats>>> =
            Arc::new((0..pool.size()).map(|_| Mutex::new(WorkerStats::default())).collect());
        let ctx = self.clone();
        let d = dispenser.clone();
        let st = stats.clone();
        pool.run(Arc::new(move |w| {
            let mut ws = WorkerStats::default();
            while let Some(m) = d.claim(&mut ws) {
                for item in &ctx.items[m.start..m.end] {
                    std::hint::black_box(compress_item(&ctx.rel, &ctx.cfg, item));
                }
            }
            if let Some(slot) = st.get(w) {
                *slot.lock().expect("stats lock") = ws;
            }
        }));
        stats.iter().map(|s| WorkerAccount::of(&s.lock().expect("stats lock"))).collect()
    }
}

/// Renders `measure_encode` as JSON for `BENCH_compress.json` (hand-rolled —
/// the workspace is hermetic, no serde).
pub fn encode_json(bench: &EncodeBench, rows: usize, seed: u64) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"rows\": {rows},\n  \"seed\": {seed},\n"));
    out.push_str(&format!(
        "  \"blocks\": {},\n  \"input_mb\": {:.2},\n  \"runs\": [\n",
        bench.blocks, bench.input_mb
    ));
    for (i, run) in bench.runs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"seconds\": {:.6}, \"mb_per_s\": {:.1}, \
             \"heap_growth_bytes\": {}, \"bytes_per_block\": {:.1}, \
             \"scratch_hits\": {}, \"scratch_misses\": {}}}{}\n",
            run.name,
            run.seconds,
            run.mb_per_s,
            run.heap_growth_bytes,
            run.bytes_per_block,
            run.scratch_hits,
            run.scratch_misses,
            if i + 1 == bench.runs.len() { "" } else { "," }
        ));
    }
    out.push_str(&format!(
        "  ],\n  \"scale_blocks\": {},\n  \"available_parallelism\": {},\n  \"iters\": {},\n  \
         \"serial_seconds\": {:.6},\n  \"dispenser_overhead_pct\": {:.2},\n  \
         \"dispenser_overhead_ok\": {},\n  \"speedup4_applicable\": {},\n  \
         \"speedup4_ok\": {},\n  \"scale\": [\n",
        bench.scale_blocks,
        bench.available_parallelism,
        bench.iters,
        bench.serial_seconds,
        bench.dispenser_overhead_pct,
        bench.dispenser_overhead_ok,
        bench.speedup4_applicable,
        bench.speedup4_ok
    ));
    for (i, p) in bench.scale.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"threads\": {}, \"seconds\": {:.6}, \"speedup\": {:.2}, \
             \"available_parallelism\": {}, \"workers\": [{}]}}{}\n",
            p.threads,
            p.seconds,
            p.speedup,
            p.available_parallelism,
            workers_json(&p.workers),
            if i + 1 == bench.scale.len() { "" } else { "," }
        ));
    }
    out.push_str(&format!(
        "  ],\n  \"parallel_matches_serial\": {}\n}}\n",
        bench.parallel_matches_serial
    ));
    out
}

/// Renders per-worker dispenser accounting as a JSON array body.
pub(crate) fn workers_json(workers: &[WorkerAccount]) -> String {
    workers
        .iter()
        .map(|w| {
            format!(
                "{{\"morsels\": {}, \"items\": {}, \"cost_units\": {}, \"queue_waits\": {}}}",
                w.morsels, w.items, w.cost_units, w.queue_waits
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// Renders the encode-path benchmark as text tables.
pub fn render_encode(bench: &EncodeBench) -> String {
    let mut runs = Table::new(&[
        "encode",
        "MB/s",
        "alloc bytes",
        "bytes/block",
        "pool hits",
        "pool misses",
    ]);
    for run in &bench.runs {
        runs.row(vec![
            run.name.to_string(),
            format!("{:.1}", run.mb_per_s),
            run.heap_growth_bytes.to_string(),
            format!("{:.1}", run.bytes_per_block),
            run.scratch_hits.to_string(),
            run.scratch_misses.to_string(),
        ]);
    }
    let mut scale = Table::new(&["threads", "seconds", "speedup", "morsels", "queue waits"]);
    for p in &bench.scale {
        scale.row(vec![
            p.threads.to_string(),
            format!("{:.4}", p.seconds),
            format!("{:.2}x", p.speedup),
            p.workers.iter().map(|w| w.morsels).sum::<u64>().to_string(),
            p.workers.iter().map(|w| w.queue_waits).sum::<u64>().to_string(),
        ]);
    }
    format!(
        "Encode allocation cost ({} blocks, {:.1} MB input per pass)\n\
         allocate-fresh API vs cold/warm EncodeScratch reuse \
         (heap growth needs the tracking allocator — see the compression_speed binary)\n\n{}\n\
         Morsel-parallel scaling on a single-column relation ({} blocks, {} cores available, \
         {} passes per sample; output byte-identical to serial: {}; \
         dispenser overhead vs serial: {:+.2}% (ok: {}); 4-thread speedup gate: {})\n\n{}",
        bench.blocks,
        bench.input_mb,
        runs.render(),
        bench.scale_blocks,
        bench.available_parallelism,
        bench.iters,
        bench.parallel_matches_serial,
        bench.dispenser_overhead_pct,
        bench.dispenser_overhead_ok,
        if bench.speedup4_applicable {
            if bench.speedup4_ok { "pass" } else { "FAIL" }
        } else {
            "skipped (fewer than 4 cores)"
        },
        scale.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    // This test binary does not install the tracking allocator, so heap
    // growth reads zero here; the scratch counters, byte-identity flag and
    // JSON shape still pin the bench. The real allocation numbers are
    // exercised by the `compression_speed` binary (scripts/check.sh smokes
    // its BENCH_compress.json output).
    #[test]
    fn encode_bench_shapes_hold() {
        let bench = measure_encode(20_000, 7);
        assert_eq!(bench.runs.len(), 3);
        let fresh = &bench.runs[0];
        let cold = &bench.runs[1];
        let warm = &bench.runs[2];
        assert!(bench.blocks >= 6, "multi-block per column");
        assert_eq!(fresh.scratch_hits + fresh.scratch_misses, 0);
        assert!(cold.scratch_misses > 0, "cold pass populates the pool");
        assert_eq!(warm.scratch_misses, 0, "warm pass is all hits");
        assert!(warm.scratch_hits > 0);
        assert!(bench.parallel_matches_serial, "parallel output must equal serial");
        assert!(bench.scale_blocks > 8, "scaling relation needs many blocks");
        assert_eq!(bench.scale.len(), 4);
        assert_eq!(bench.scale[0].threads, 1);
        assert!(bench.iters >= 1);
        assert!(bench.serial_seconds > 0.0);
        assert!(bench.dispenser_overhead_pct.is_finite());
        for p in &bench.scale {
            assert_eq!(p.workers.len(), p.threads, "one account per worker");
            let items: u64 = p.workers.iter().map(|w| w.items).sum();
            assert_eq!(items as usize, bench.scale_blocks, "every block claimed once");
        }
        let json = encode_json(&bench, 20_000, 7);
        assert!(json.contains("\"warm-scratch\""));
        assert!(json.contains("\"parallel_matches_serial\": true"));
        assert!(json.contains("\"speedup\""));
        assert!(json.contains("\"dispenser_overhead_ok\""));
        assert!(json.contains("\"speedup4_applicable\""));
        assert!(json.contains("\"queue_waits\""));
    }
}

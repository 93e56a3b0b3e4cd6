//! `write`: a lake writer in a closed loop with one caller.
//!
//! One round writes both lake relations: `btrblocks::compress`,
//! `CompressedRelation::to_bytes`, then the zone-map sidecar and the block
//! layout that sit next to the object. Rounds run at one thread, then with
//! `compress_parallel` at `nproc` threads. Nothing is decoded while timing.

use crate::data::{self, LAKE_ROWS};
use crate::metrics::{Report, SCHEMES};
use crate::stats::{self, closed_loop, median, timed_setup};
use crate::trace::Tracer;
use btr_scan::layout::RelationLayout;
use btrblocks::scheme::{pick_double, pick_int, pick_str};
use btrblocks::{
    BlockRef, ColumnData, CompressedColumn, CompressedRelation, Config, EncodeScratch,
    ParallelStats, Relation, Sidecar, StringArena,
};
use std::time::{Duration, Instant};

/// Everything a lake writer stores for one relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Written {
    pub data: Vec<u8>,
    pub sidecar: Vec<u8>,
    pub layout: Vec<u8>,
}

impl Written {
    fn bytes(&self) -> usize {
        self.data.len() + self.sidecar.len() + self.layout.len()
    }
}

/// Compresses and serializes `rel` at `threads` threads.
pub fn write_relation(
    rel: &Relation,
    cfg: &Config,
    threads: usize,
) -> (Written, Option<ParallelStats>) {
    let (compressed, stats) = if threads <= 1 {
        (
            btrblocks::compress(rel, cfg).expect("compress is infallible on valid relations"),
            None,
        )
    } else {
        let (c, s) =
            btrblocks::compress_parallel_stats(rel, cfg, threads, btrblocks::encode_granularity())
                .expect("parallel compress of a valid relation");
        (c, Some(s))
    };
    let written = finish(
        rel,
        cfg,
        &compressed,
        &mut Tracer::new(Instant::now(), false),
    );
    (written, stats)
}

/// Serialization, sidecar and layout of an already compressed relation.
fn finish(
    rel: &Relation,
    cfg: &Config,
    compressed: &CompressedRelation,
    t: &mut Tracer,
) -> Written {
    Written {
        data: t.span("relation.serialize", |_| compressed.to_bytes()),
        sidecar: t.span("metadata.zone_build", |_| {
            Sidecar::build(rel, cfg.block_size).to_bytes()
        }),
        layout: t.span("layout.build", |_| {
            RelationLayout::of(compressed).to_bytes()
        }),
    }
}

/// `btrblocks::compress` split at its public seam: per block, the root
/// `pick_*` selection and `compress_block_with_into(chosen)`. The result is
/// checked against the unsplit output, so the split times the same program.
pub fn compress_split(
    rel: &Relation,
    cfg: &Config,
    t: &mut Tracer,
    blocks: &mut [u64],
) -> CompressedRelation {
    let mut scratch = EncodeScratch::new();
    let bs = cfg.block_size.max(1);
    let depth = cfg.max_cascade_depth;
    let mut columns = Vec::with_capacity(rel.columns.len());
    for col in &rel.columns {
        let mut out = CompressedColumn {
            name: col.name.clone(),
            column_type: col.data.column_type(),
            nulls: col
                .nulls
                .as_ref()
                .map(|b| b.serialize())
                .unwrap_or_default(),
            blocks: Vec::new(),
            schemes: Vec::new(),
        };
        let mut encode = |t: &mut Tracer,
                          block: BlockRef<'_>,
                          pick: &dyn Fn() -> btrblocks::SchemeCode| {
            let code = t.span("sampling.select", |_| pick());
            let mut buf = Vec::new();
            t.span("scheme.encode", |_| {
                btrblocks::block::compress_block_with_into(code, block, cfg, &mut scratch, &mut buf)
            });
            if let Some(n) = blocks.get_mut(code as usize) {
                *n += 1;
            }
            out.blocks.push(buf);
            out.schemes.push(code);
        };
        match &col.data {
            ColumnData::Int(v) => {
                for chunk in v.chunks(bs) {
                    encode(t, BlockRef::Int(chunk), &|| {
                        pick_int(chunk, depth, cfg).code
                    });
                }
            }
            ColumnData::Double(v) => {
                for chunk in v.chunks(bs) {
                    encode(t, BlockRef::Double(chunk), &|| {
                        pick_double(chunk, depth, cfg).code
                    });
                }
            }
            ColumnData::Str(arena) => {
                let mut sub = StringArena::new();
                for start in (0..arena.len()).step_by(bs) {
                    arena.gather_into(start..(start + bs).min(arena.len()), &mut sub);
                    encode(t, BlockRef::Str(&sub), &|| pick_str(&sub, depth, cfg).code);
                }
            }
        }
        columns.push(out);
    }
    CompressedRelation {
        rows: rel.rows() as u64,
        columns,
    }
}

/// CRC32C throughput over `bytes`, timed standalone for at least 50 ms.
pub fn crc32c_gb_s(bytes: &[u8]) -> f64 {
    let start = Instant::now();
    let mut passes = 0u64;
    let mut acc = 0u32;
    while passes == 0 || start.elapsed() < Duration::from_millis(50) {
        acc ^= btrblocks::crc32c::crc32c(std::hint::black_box(bytes));
        passes += 1;
    }
    std::hint::black_box(acc);
    (bytes.len() as u64 * passes) as f64 / start.elapsed().as_secs_f64() / 1e9
}

struct Setup {
    lake: Vec<Relation>,
    /// The serial output of every relation: what each round must reproduce.
    reference: Vec<Written>,
}

pub fn run(seed: u64, budget: Duration, trace: bool) -> Report {
    let cfg = Config::default();
    let (setup, setup_s) = timed_setup(3, || data::lake(LAKE_ROWS, seed));
    let setup = Setup {
        reference: setup.iter().map(|r| write_relation(r, &cfg, 1).0).collect(),
        lake: setup,
    };
    let mut report = Report::default();
    report.set("setup_s", setup_s);
    // Round trip, checked once outside the measured region.
    for (rel, written) in setup.lake.iter().zip(&setup.reference) {
        report.check(btrblocks::decompress(&written.data, &cfg).is_ok_and(|back| back == *rel));
    }
    let heap = data::heap_bytes(&setup.lake) as f64;
    eprintln!(
        "perfbench: write {LAKE_ROWS} rows x 2 relations, {:.1} MB uncompressed, {} threads",
        heap / 1e6,
        crate::nproc()
    );
    let data_bytes: usize = setup.reference.iter().map(|w| w.data.len()).sum();
    report.set("compression_ratio", heap / data_bytes as f64);
    report.set(
        "io_mb_per_op",
        setup.reference.iter().map(Written::bytes).sum::<usize>() as f64 / 1e6,
    );
    if trace {
        run_traced(&setup, &cfg, seed, budget, &mut report);
    } else {
        run_untraced(&setup, &cfg, budget, &mut report);
    }
    report
}

/// One round at `threads` threads.
fn write_all(setup: &Setup, cfg: &Config, threads: usize) -> Vec<(Written, Option<ParallelStats>)> {
    setup
        .lake
        .iter()
        .map(|rel| write_relation(rel, cfg, threads))
        .collect()
}

/// Counts one check per relation: its bytes equal the serial reference.
fn check_round<'a>(
    setup: &Setup,
    outputs: impl IntoIterator<Item = &'a Written>,
    report: &mut Report,
) {
    for (out, reference) in outputs.into_iter().zip(&setup.reference) {
        report.check(out == reference);
    }
}

fn run_untraced(setup: &Setup, cfg: &Config, budget: Duration, report: &mut Report) {
    let heap = data::heap_bytes(&setup.lake) as f64;
    let durations = closed_loop(
        budget,
        |i| write_all(setup, cfg, crate::round_threads(i)),
        |out| check_round(setup, out.iter().map(|(w, _)| w), report),
    );
    let (serial, parallel) = stats::split_alternating(&durations);
    report.set("mb_s", heap / 1e6 / median(&serial));
    report.set("mt_mb_s", heap / 1e6 / median(&parallel));
    report.set("ops_s", 1.0 / median(&parallel));
    stats::set_latency(report, &serial, &serial);
}

/// Interleaves a traced serial round (compress split into selection and
/// encoding), an untraced serial round (for the tracing overhead) and a
/// parallel round (for speed-up and morsel accounting).
fn run_traced(setup: &Setup, cfg: &Config, seed: u64, budget: Duration, report: &mut Report) {
    let mut t = Tracer::new(Instant::now(), true);
    let mut blocks = vec![0u64; SCHEMES.len()];
    let (mut traced, mut untraced, mut parallel) = (Vec::new(), Vec::new(), Vec::new());
    let (mut worker_share, mut queue_waits) = (Vec::new(), 0.0);
    let start = Instant::now();
    let mut rounds = 0u64;
    while rounds == 0 || start.elapsed() < budget {
        t.set_request(rounds);
        let clock = Instant::now();
        let outputs: Vec<Written> = t.span("write.round", |t| {
            setup
                .lake
                .iter()
                .map(|rel| {
                    let compressed = compress_split(rel, cfg, t, &mut blocks);
                    finish(rel, cfg, &compressed, t)
                })
                .collect()
        });
        traced.push(clock.elapsed().as_secs_f64());
        check_round(setup, &outputs, report);

        let clock = Instant::now();
        let outputs = write_all(setup, cfg, 1);
        untraced.push(clock.elapsed().as_secs_f64());
        check_round(setup, outputs.iter().map(|(w, _)| w), report);

        let clock = Instant::now();
        let outputs = t.span("parallel.compress", |_| {
            write_all(setup, cfg, crate::nproc())
        });
        parallel.push(clock.elapsed().as_secs_f64());
        check_round(setup, outputs.iter().map(|(w, _)| w), report);
        for (_, stats) in &outputs {
            if let Some(stats) = stats {
                let (share, waits) = stats::morsel_stats(stats);
                worker_share.push(share);
                queue_waits += waits;
            }
        }
        rounds += 1;
    }
    let spans = t.spans();
    stats::set_span_metrics(report, spans, "write.round", rounds);
    stats::set_latency(report, &untraced, &untraced);
    let per_round = rounds as f64;
    for (name, n) in SCHEMES.iter().zip(&blocks) {
        report.set(&format!("scheme.blocks.{name}"), *n as f64 / per_round);
    }
    let select = report.get("sampling.select_s").unwrap_or(0.0);
    let encode = report.get("scheme.encode_s").unwrap_or(0.0);
    report.set(
        "sampling.select_share",
        select / (select + encode).max(f64::MIN_POSITIVE),
    );
    report.set(
        "trace.overhead_pct",
        (median(&traced) / median(&untraced) - 1.0) * 100.0,
    );
    report.set(
        "parallel.encode_speedup",
        median(&untraced) / median(&parallel),
    );
    report.set("morsel.max_worker_share", median(&worker_share));
    report.set("morsel.queue_waits", queue_waits / per_round);
    let file: Vec<u8> = setup
        .reference
        .iter()
        .flat_map(|w| w.data.iter().copied())
        .collect();
    report.set("crc32c.gb_s", crc32c_gb_s(&file));
    stats::save_spans("write", seed, spans);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_compress_reproduces_compress_byte_for_byte() {
        let cfg = Config {
            block_size: 1_000,
            ..Config::default()
        };
        let mut t = Tracer::new(Instant::now(), true);
        for rel in data::lake(2_500, 11) {
            let mut blocks = vec![0u64; SCHEMES.len()];
            let split = compress_split(&rel, &cfg, &mut t, &mut blocks);
            let whole = btrblocks::compress(&rel, &cfg).expect("compress");
            assert_eq!(split.to_bytes(), whole.to_bytes());
            assert_eq!(blocks.iter().sum::<u64>() as usize, rel.columns.len() * 3);
        }
        assert!(t.spans().iter().any(|s| s.name == "sampling.select"));
    }

    #[test]
    fn a_parallel_round_matches_the_serial_reference() {
        let cfg = Config {
            block_size: 1_000,
            ..Config::default()
        };
        let lake = data::lake(2_500, 3);
        let reference = lake.iter().map(|r| write_relation(r, &cfg, 1).0).collect();
        let setup = Setup { lake, reference };
        let mut report = Report::default();
        check_round(
            &setup,
            write_all(&setup, &cfg, 2).iter().map(|(w, _)| w),
            &mut report,
        );
        assert_eq!((report.attempted, report.failed), (2, 0));

        // The write check fires: one changed byte in any stored part of a
        // relation makes its write count as failed.
        let mut outputs: Vec<Written> = write_all(&setup, &cfg, 2)
            .into_iter()
            .map(|(w, _)| w)
            .collect();
        outputs[0].data[100] ^= 1;
        outputs[1].sidecar[10] ^= 1;
        check_round(&setup, &outputs, &mut report);
        assert_eq!((report.attempted, report.failed), (4, 2));
    }
}

//! `read`: a lake reader in a closed loop with one caller.
//!
//! One round decodes the serialized bytes of both lake relations with
//! `btrblocks::decompress` at one thread (Figure 8's path: parse, CRC,
//! per-scheme decode, string views), then with `from_bytes` +
//! `decompress_parallel` at `nproc` threads. Nothing is encoded while timing.

use crate::data::{self, LAKE_ROWS};
use crate::metrics::{Report, SCHEMES};
use crate::stats::{self, closed_loop, median, timed_setup};
use crate::trace::Tracer;
use crate::write::{compress_split, crc32c_gb_s};
use btr_lz::Codec;
use btrblocks::{
    Column, ColumnData, ColumnType, CompressedRelation, Config, DecodeScratch, DecodedColumn,
    Relation, SimdMode, StringArena,
};
use std::time::{Duration, Instant};

struct Setup {
    lake: Vec<Relation>,
    files: Vec<Vec<u8>>,
}

fn setup(seed: u64, cfg: &Config) -> Setup {
    let lake = data::lake(LAKE_ROWS, seed);
    let files = lake
        .iter()
        .map(|rel| {
            btrblocks::compress_parallel(rel, cfg, crate::nproc())
                .expect("compress a valid relation")
                .to_bytes()
        })
        .collect();
    Setup { lake, files }
}

/// Decodes one file: `decompress` at one thread, `from_bytes` +
/// `decompress_parallel` above.
fn decode(bytes: &[u8], cfg: &Config, threads: usize) -> btrblocks::Result<Relation> {
    if threads <= 1 {
        btrblocks::decompress(bytes, cfg)
    } else {
        CompressedRelation::from_bytes(bytes)
            .and_then(|c| btrblocks::decompress_parallel(&c, cfg, threads))
    }
}

/// A read is correct when it decodes and equals the generated relation.
fn is_correct(decoded: btrblocks::Result<Relation>, expected: &Relation) -> bool {
    decoded.is_ok_and(|rel| rel == *expected)
}

/// Decodes `bytes` at `threads` threads and checks the result.
pub fn read_checked(bytes: &[u8], expected: &Relation, cfg: &Config, threads: usize) -> bool {
    is_correct(decode(bytes, cfg, threads), expected)
}

pub fn run(seed: u64, budget: Duration, trace: bool) -> Report {
    let cfg = Config::default();
    let (setup, setup_s) = timed_setup(3, || setup(seed, &cfg));
    let mut report = Report::default();
    report.set("setup_s", setup_s);
    let heap = data::heap_bytes(&setup.lake) as f64;
    eprintln!(
        "perfbench: read {LAKE_ROWS} rows x 2 relations, {:.1} MB uncompressed, {} threads",
        heap / 1e6,
        crate::nproc()
    );
    let file_bytes: usize = setup.files.iter().map(Vec::len).sum();
    report.set("compression_ratio", heap / file_bytes as f64);
    report.set("io_mb_per_op", file_bytes as f64 / 1e6);
    if trace {
        run_traced(&setup, &cfg, seed, budget, &mut report);
    } else {
        run_untraced(&setup, &cfg, budget, &mut report);
    }
    report
}

fn run_untraced(setup: &Setup, cfg: &Config, budget: Duration, report: &mut Report) {
    let heap = data::heap_bytes(&setup.lake) as f64;
    // Decode inside the timed call, compare with the generated relations
    // after it.
    let durations = closed_loop(
        budget,
        |i| {
            setup
                .files
                .iter()
                .map(|bytes| decode(bytes, cfg, crate::round_threads(i)))
                .collect::<Vec<_>>()
        },
        |decoded| {
            for (d, rel) in decoded.into_iter().zip(&setup.lake) {
                report.check(is_correct(d, rel));
            }
        },
    );
    let (serial, parallel) = stats::split_alternating(&durations);
    report.set("mb_s", heap / 1e6 / median(&serial));
    report.set("mt_mb_s", heap / 1e6 / median(&parallel));
    report.set("ops_s", 1.0 / median(&parallel));
    stats::set_latency(report, &serial, &serial);
}

/// Per-block decode time and output bytes, by root scheme and by type.
#[derive(Default)]
struct DecodeTally {
    scheme_ns: [u64; SCHEMES.len()],
    type_ns: [u64; 3],
    type_bytes: [u64; 3],
    scratch_hits: u64,
    scratch_misses: u64,
}

fn type_index(ty: ColumnType) -> usize {
    match ty {
        ColumnType::Integer => 0,
        ColumnType::Double => 1,
        ColumnType::String => 2,
    }
}

/// `decompress` spelled out over its public pieces so each call into a
/// layer gets a span: `from_bytes`, then `decompress_block_into` per block.
/// Like `decompress`, it uses one fresh scratch arena per file; its
/// counters are added to `tally`.
fn decode_traced(
    bytes: &[u8],
    cfg: &Config,
    tally: &mut DecodeTally,
    t: &mut Tracer,
) -> btrblocks::Result<Relation> {
    let mut scratch = DecodeScratch::new();
    let decoded = decode_with(bytes, cfg, &mut scratch, tally, t);
    let stats = scratch.stats();
    tally.scratch_hits += stats.hits;
    tally.scratch_misses += stats.misses;
    decoded
}

fn decode_with(
    bytes: &[u8],
    cfg: &Config,
    scratch: &mut DecodeScratch,
    tally: &mut DecodeTally,
    t: &mut Tracer,
) -> btrblocks::Result<Relation> {
    let compressed = t.span("relation.parse", |_| CompressedRelation::from_bytes(bytes))?;
    let mut columns = Vec::with_capacity(compressed.columns.len());
    for col in &compressed.columns {
        let ty = col.column_type;
        let mut data = match ty {
            ColumnType::Integer => ColumnData::Int(Vec::new()),
            ColumnType::Double => ColumnData::Double(Vec::new()),
            ColumnType::String => ColumnData::Str(StringArena::new()),
        };
        let mut decoded = scratch.lease_decoded(ty);
        for block in &col.blocks {
            let scheme = btrblocks::peek_scheme(block)? as usize;
            let clock = Instant::now();
            t.span("block.decode", |_| {
                btrblocks::decompress_block_into(block, ty, cfg, scratch, &mut decoded)
            })?;
            let ns = u64::try_from(clock.elapsed().as_nanos()).unwrap_or(u64::MAX);
            if let Some(s) = tally.scheme_ns.get_mut(scheme) {
                *s += ns;
            }
            tally.type_ns[type_index(ty)] += ns;
            tally.type_bytes[type_index(ty)] += decoded_bytes(&decoded) as u64;
            append(&mut data, &decoded);
        }
        scratch.recycle(decoded);
        let nulls = match col.nulls.as_slice() {
            [] => None,
            raw => Some(btr_roaring::RoaringBitmap::deserialize(raw)?),
        };
        columns.push(Column {
            name: col.name.clone(),
            data,
            nulls,
        });
    }
    Ok(Relation { columns })
}

fn decoded_bytes(d: &DecodedColumn) -> usize {
    match d {
        DecodedColumn::Int(v) => v.len() * 4,
        DecodedColumn::Double(v) => v.len() * 8,
        DecodedColumn::Str(s) => s.pool.len() + s.views.len() * 8,
    }
}

fn append(data: &mut ColumnData, decoded: &DecodedColumn) {
    match (data, decoded) {
        (ColumnData::Int(acc), DecodedColumn::Int(v)) => acc.extend_from_slice(v),
        (ColumnData::Double(acc), DecodedColumn::Double(v)) => acc.extend_from_slice(v),
        (ColumnData::Str(acc), DecodedColumn::Str(v)) => {
            (0..v.len()).for_each(|i| acc.push(v.get(i)))
        }
        _ => unreachable!("decompress_block_into leases the column's own type"),
    }
}

/// Interleaves a traced round, an untraced serial round (tracing overhead)
/// and a parallel round (speed-up, morsel accounting), then takes the
/// reference readings: §6.8's scalar slowdown, §6.3's selection share and
/// the parquet-lite / orc-lite decode speed on the same relations.
fn run_traced(setup: &Setup, cfg: &Config, seed: u64, budget: Duration, report: &mut Report) {
    let mut t = Tracer::new(Instant::now(), true);
    let mut tally = DecodeTally::default();
    let (mut traced, mut untraced, mut parallel) = (Vec::new(), Vec::new(), Vec::new());
    let (mut worker_share, mut queue_waits) = (Vec::new(), 0.0);
    let start = Instant::now();
    let mut rounds = 0u64;
    // Half the budget for the interleaved rounds, the rest for references.
    while rounds == 0 || start.elapsed() < budget / 2 {
        t.set_request(rounds);
        let clock = Instant::now();
        let decoded: Vec<btrblocks::Result<Relation>> = t.span("read.round", |t| {
            setup
                .files
                .iter()
                .map(|bytes| decode_traced(bytes, cfg, &mut tally, t))
                .collect()
        });
        traced.push(clock.elapsed().as_secs_f64());
        for (d, rel) in decoded.into_iter().zip(&setup.lake) {
            report.check(is_correct(d, rel));
        }

        let clock = Instant::now();
        let decoded: Vec<_> = setup
            .files
            .iter()
            .map(|bytes| decode(bytes, cfg, 1))
            .collect();
        untraced.push(clock.elapsed().as_secs_f64());
        for (d, rel) in decoded.into_iter().zip(&setup.lake) {
            report.check(is_correct(d, rel));
        }

        let clock = Instant::now();
        let decoded: Vec<_> = t.span("parallel.decompress", |_| {
            setup
                .files
                .iter()
                .map(|bytes| {
                    CompressedRelation::from_bytes(bytes).and_then(|c| {
                        btrblocks::decompress_parallel_stats(
                            &c,
                            cfg,
                            crate::nproc(),
                            btrblocks::decode_granularity(),
                        )
                    })
                })
                .collect()
        });
        parallel.push(clock.elapsed().as_secs_f64());
        for (d, rel) in decoded.into_iter().zip(&setup.lake) {
            match d {
                Ok((d, stats)) => {
                    report.check(d == *rel);
                    let (share, waits) = stats::morsel_stats(&stats);
                    worker_share.push(share);
                    queue_waits += waits;
                }
                Err(_) => report.check(false),
            }
        }
        rounds += 1;
    }
    let spans = t.spans();
    stats::set_span_metrics(report, spans, "read.round", rounds);
    stats::set_latency(report, &untraced, &untraced);
    let per_round = rounds as f64;
    for (name, ns) in SCHEMES.iter().zip(tally.scheme_ns) {
        report.set(
            &format!("block.decode_s.{name}"),
            ns as f64 / 1e9 / per_round,
        );
    }
    for (i, name) in ["int", "double", "str"].iter().enumerate() {
        let gb_s = tally.type_bytes[i] as f64 / (tally.type_ns[i].max(1) as f64);
        report.set(&format!("block.decode_gb_s.{name}"), gb_s);
    }
    let parse = report.get("relation.parse_s").unwrap_or(0.0);
    report.set("relation.parse_share", parse / median(&traced));
    let leases = (tally.scratch_hits + tally.scratch_misses).max(1);
    report.set(
        "scratch.decode_hit_rate",
        tally.scratch_hits as f64 / leases as f64,
    );
    report.set(
        "trace.overhead_pct",
        (median(&traced) / median(&untraced) - 1.0) * 100.0,
    );
    report.set(
        "parallel.decode_speedup",
        median(&untraced) / median(&parallel),
    );
    report.set("morsel.max_worker_share", median(&worker_share));
    report.set("morsel.queue_waits", queue_waits / per_round);
    let file: Vec<u8> = setup.files.concat();
    report.set("crc32c.gb_s", crc32c_gb_s(&file));
    reference_readings(setup, cfg, report);
    stats::save_spans("read", seed, spans);
}

fn reference_readings(setup: &Setup, cfg: &Config, report: &mut Report) {
    let heap = data::heap_bytes(&setup.lake) as f64;
    // §6.8: decode with every SIMD kernel replaced by its scalar twin.
    let scalar_cfg = Config {
        simd: SimdMode::ForceScalar,
        ..cfg.clone()
    };
    let (mut auto, mut scalar) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        for (c, times) in [(cfg, &mut auto), (&scalar_cfg, &mut scalar)] {
            let clock = Instant::now();
            let ok = setup
                .files
                .iter()
                .zip(&setup.lake)
                .all(|(b, rel)| read_checked(b, rel, c, 1));
            times.push(clock.elapsed().as_secs_f64());
            report.check(ok);
        }
    }
    report.set(
        "simd.scalar_slowdown_pct",
        (median(&scalar) / median(&auto) - 1.0) * 100.0,
    );

    // §6.3: selection's share of compression time, from the split encode.
    let mut t = Tracer::new(Instant::now(), true);
    let mut blocks = vec![0u64; SCHEMES.len()];
    for rel in &setup.lake {
        compress_split(rel, cfg, &mut t, &mut blocks);
    }
    let times = crate::trace::self_times(t.spans());
    let ns = |name: &str| times.get(name).map_or(0, |v| v.0) as f64;
    report.set(
        "sampling.select_share",
        ns("sampling.select") / (ns("sampling.select") + ns("scheme.encode")).max(1.0),
    );

    // Figure 8's comparators: best decode speed of each format family.
    let best = |write: &dyn Fn(&Relation, Codec) -> Vec<u8>, read: &dyn Fn(&[u8]) -> bool| {
        [Codec::None, Codec::SnappyLike, Codec::Heavy]
            .into_iter()
            .map(|codec| {
                let files: Vec<Vec<u8>> = setup.lake.iter().map(|rel| write(rel, codec)).collect();
                let times: Vec<f64> = (0..3)
                    .map(|_| {
                        let clock = Instant::now();
                        let ok = files.iter().all(|f| read(f));
                        let s = clock.elapsed().as_secs_f64();
                        if ok {
                            s
                        } else {
                            f64::INFINITY
                        }
                    })
                    .collect();
                heap / median(&times) / 1e9
            })
            .fold(0.0, f64::max)
    };
    let parquet = best(
        &|rel, codec| {
            parquet_lite::write(
                rel,
                &parquet_lite::WriteOptions {
                    codec,
                    ..Default::default()
                },
            )
        },
        &|f| parquet_lite::read(f).is_ok(),
    );
    let orc = best(
        &|rel, codec| {
            orc_lite::write(
                rel,
                &orc_lite::WriteOptions {
                    codec,
                    ..Default::default()
                },
            )
        },
        &|f| orc_lite::read(f).is_ok(),
    );
    report.set("ref.parquet_lite_best_gb_s", parquet);
    report.set("ref.orc_lite_gb_s", orc);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (Setup, Config) {
        let cfg = Config {
            block_size: 1_000,
            ..Config::default()
        };
        let lake = data::lake(2_500, 4);
        let files = lake
            .iter()
            .map(|r| btrblocks::compress(r, &cfg).expect("compress").to_bytes())
            .collect();
        (Setup { lake, files }, cfg)
    }

    #[test]
    fn clean_bytes_read_back_at_one_and_two_threads() {
        let (setup, cfg) = small();
        for (bytes, rel) in setup.files.iter().zip(&setup.lake) {
            assert!(read_checked(bytes, rel, &cfg, 1));
            assert!(read_checked(bytes, rel, &cfg, 2));
        }
    }

    /// The read check fires: flipping any one byte of a file makes the read
    /// count as failed, whether the decoder rejects it or not.
    #[test]
    fn a_flipped_input_byte_counts_as_a_failed_read() {
        let (setup, cfg) = small();
        let mut rng = data::Rng::new(17);
        for _ in 0..64 {
            let which = rng.below(setup.files.len() as u64) as usize;
            let mut bytes = setup.files[which].clone();
            let at = rng.below(bytes.len() as u64) as usize;
            bytes[at] ^= 1 << rng.below(8);
            let expected = &setup.lake[which];
            assert!(
                !read_checked(&bytes, expected, &cfg, 1),
                "flip at {at} passed at 1 thread"
            );
            assert!(
                !read_checked(&bytes, expected, &cfg, 2),
                "flip at {at} passed at 2 threads"
            );
        }
    }

    /// A decoded relation that differs from the generated one fails too.
    #[test]
    fn a_wrong_expected_relation_counts_as_a_failed_read() {
        let (setup, cfg) = small();
        assert!(!read_checked(&setup.files[0], &setup.lake[1], &cfg, 1));
    }

    #[test]
    fn traced_decode_matches_decompress() {
        let (setup, cfg) = small();
        let mut t = Tracer::new(Instant::now(), true);
        let mut tally = DecodeTally::default();
        for (bytes, rel) in setup.files.iter().zip(&setup.lake) {
            let decoded = decode_traced(bytes, &cfg, &mut tally, &mut t).expect("decode");
            assert_eq!(decoded, *rel);
        }
        assert!(tally.scheme_ns.iter().sum::<u64>() > 0);
        assert!(tally.scratch_hits > 0, "the arena is reused across blocks");
    }
}

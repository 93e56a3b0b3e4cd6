//! Randomized tests for predicate pushdown and zone-map pruning: the
//! compressed evaluation must agree with decompress-then-filter for every
//! scheme, every operator, and arbitrary data; pruning must never drop a
//! matching block. Deterministic (seeded xorshift) so runs reproduce offline.

use btr_corrupt::rng::Xorshift;
use btrblocks::block::{compress_block_with, decompress_block, peek_count, BlockRef};
use btrblocks::metadata::{pruned_filter, Sidecar};
use btrblocks::{
    filter_block, filter_decoded, CmpOp, Column, ColumnData, ColumnType, Config, DecodeScratch,
    Literal, Relation, SchemeCode, StringArena,
};

const OPS: [CmpOp; 5] = [CmpOp::Eq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
const CASES: usize = 48;

fn cmp<T: PartialOrd>(op: CmpOp, v: &T, l: &T) -> bool {
    match op {
        CmpOp::Eq => v == l,
        CmpOp::Lt => v < l,
        CmpOp::Le => v <= l,
        CmpOp::Gt => v > l,
        CmpOp::Ge => v >= l,
    }
}

/// Three shapes: tiny-range, arbitrary, and run-heavy integers.
fn arb_ints(rng: &mut Xorshift) -> Vec<i32> {
    match rng.gen_range(0..3u32) {
        0 => {
            let len = rng.gen_range(0..800usize);
            (0..len).map(|_| rng.gen_range(-20i32..20)).collect()
        }
        1 => {
            let len = rng.gen_range(0..400usize);
            (0..len).map(|_| rng.next_u32() as i32).collect()
        }
        _ => {
            let runs = rng.gen_range(0..40usize);
            let mut out = Vec::new();
            for _ in 0..runs {
                let v = rng.gen_range(-5i32..5);
                let n = rng.gen_range(1..50usize);
                out.extend(std::iter::repeat_n(v, n));
            }
            out
        }
    }
}

fn word(rng: &mut Xorshift) -> String {
    let len = rng.gen_range(0..=4usize);
    (0..len).map(|_| (b'a' + rng.gen_range(0u8..3)) as char).collect()
}

#[test]
fn int_pushdown_matches_reference() {
    let mut rng = Xorshift::new(0x61);
    let mut scratch = DecodeScratch::new();
    for case in 0..CASES {
        let values = arb_ints(&mut rng);
        let lit = rng.gen_range(-20i32..20);
        let op = OPS[case % OPS.len()];
        let cfg = Config::default();
        let expected: Vec<u32> = values
            .iter()
            .enumerate()
            .filter_map(|(i, v)| cmp(op, v, &lit).then_some(i as u32))
            .collect();
        for code in [
            SchemeCode::Uncompressed,
            SchemeCode::Rle,
            SchemeCode::Dict,
            SchemeCode::Frequency,
            SchemeCode::FastPfor,
            SchemeCode::FastBp128,
        ] {
            let bytes = compress_block_with(code, BlockRef::Int(&values), &cfg);
            let lit = Literal::Int(lit);
            let got = filter_block(&bytes, ColumnType::Integer, op, &lit, &cfg, &mut scratch)
                .unwrap();
            assert_eq!(
                got.iter().collect::<Vec<_>>(),
                expected,
                "scheme {code:?} op {op:?}"
            );
        }
    }
}

#[test]
fn double_pushdown_matches_reference() {
    let mut rng = Xorshift::new(0x62);
    let mut scratch = DecodeScratch::new();
    for case in 0..CASES {
        let len = rng.gen_range(0..600usize);
        let values: Vec<f64> = (0..len)
            .map(|_| {
                if rng.gen_bool(0.1) {
                    f64::NAN
                } else {
                    f64::from(rng.gen_range(-50i32..50)) * 0.25
                }
            })
            .collect();
        let op = OPS[case % OPS.len()];
        let lit = f64::from(rng.gen_range(-50i32..50)) * 0.25;
        let cfg = Config::default();
        let expected: Vec<u32> = values
            .iter()
            .enumerate()
            .filter_map(|(i, v)| cmp(op, v, &lit).then_some(i as u32))
            .collect();
        for code in [
            SchemeCode::Uncompressed,
            SchemeCode::Rle,
            SchemeCode::Dict,
            SchemeCode::Frequency,
            SchemeCode::Pseudodecimal,
        ] {
            let bytes = compress_block_with(code, BlockRef::Double(&values), &cfg);
            let lit = Literal::Double(lit);
            let got = filter_block(&bytes, ColumnType::Double, op, &lit, &cfg, &mut scratch)
                .unwrap();
            assert_eq!(
                got.iter().collect::<Vec<_>>(),
                expected,
                "scheme {code:?} op {op:?}"
            );
        }
    }
}

#[test]
fn string_pushdown_matches_reference() {
    let mut rng = Xorshift::new(0x63);
    let mut scratch = DecodeScratch::new();
    for case in 0..CASES {
        let count = rng.gen_range(0..400usize);
        let words: Vec<String> = (0..count).map(|_| word(&mut rng)).collect();
        let lit = word(&mut rng);
        let op = OPS[case % OPS.len()];
        let cfg = Config::default();
        let refs: Vec<&str> = words.iter().map(|s| s.as_str()).collect();
        let arena = StringArena::from_strs(&refs);
        let lit_b = lit.as_bytes();
        let expected: Vec<u32> = refs
            .iter()
            .enumerate()
            .filter_map(|(i, s)| cmp(op, &s.as_bytes(), &lit_b).then_some(i as u32))
            .collect();
        for code in [
            SchemeCode::Uncompressed,
            SchemeCode::Dict,
            SchemeCode::DictFsst,
            SchemeCode::Fsst,
        ] {
            let bytes = compress_block_with(code, BlockRef::Str(&arena), &cfg);
            let lit = Literal::Str(lit_b.to_vec());
            let got = filter_block(&bytes, ColumnType::String, op, &lit, &cfg, &mut scratch)
                .unwrap();
            assert_eq!(
                got.iter().collect::<Vec<_>>(),
                expected,
                "scheme {code:?} op {op:?}"
            );
        }
    }
}

/// Every way to damage a frame that the parity test tries: relabelled row
/// counts (smaller, larger, zero, absurd), every truncation, and 1–3
/// trailing bytes.
fn damaged_frames(bytes: &[u8]) -> Vec<Vec<u8>> {
    let count = peek_count(bytes).unwrap() as u32;
    let mut out = Vec::new();
    for relabel in [0, 1, 10, count.saturating_sub(1), count + 1, count * 2, u32::MAX] {
        let mut b = bytes.to_vec();
        b[1..5].copy_from_slice(&relabel.to_le_bytes());
        out.push(b);
    }
    out.extend((0..bytes.len()).map(|cut| bytes[..cut].to_vec()));
    for extra in 1..=3 {
        let mut b = bytes.to_vec();
        b.extend(std::iter::repeat_n(0u8, extra));
        out.push(b);
    }
    out
}

/// The compressed-domain filter parses frames through the same validated
/// readers as the decoder: on any damaged frame of a fast-path scheme it
/// fails whenever `decompress_block` fails, and otherwise returns exactly
/// `filter_decoded(decompress_block(..))`, never a row at or past the
/// frame's count.
#[test]
fn damaged_fast_path_frames_filter_like_decode() {
    let cfg = Config::default();
    let mut scratch = DecodeScratch::new();
    let runs: Vec<i32> = (0..3000).map(|i| i / 100).collect();
    let skewed: Vec<i32> = (0..3000).map(|i| if i % 37 == 0 { i / 37 } else { 5 }).collect();
    let ints = |code| match code {
        SchemeCode::OneValue => vec![7; 3000],
        SchemeCode::Frequency => skewed.clone(),
        _ => runs.clone(),
    };
    let words = ["ab", "ba", "abc", "b"];
    let strings: Vec<&str> = (0..600).map(|i| words[(i / 50) % 4]).collect();
    let one_string = vec!["ab"; 600];
    let mut blocks = Vec::new();
    for code in [SchemeCode::OneValue, SchemeCode::Rle, SchemeCode::Dict, SchemeCode::Frequency] {
        let values = ints(code);
        let doubles: Vec<f64> = values.iter().map(|&v| f64::from(v) * 0.5).collect();
        let int_block = compress_block_with(code, BlockRef::Int(&values), &cfg);
        let double_block = compress_block_with(code, BlockRef::Double(&doubles), &cfg);
        blocks.push((code, ColumnType::Integer, int_block));
        blocks.push((code, ColumnType::Double, double_block));
    }
    for code in [SchemeCode::OneValue, SchemeCode::Dict, SchemeCode::DictFsst] {
        let src = if code == SchemeCode::OneValue { &one_string } else { &strings };
        let arena = StringArena::from_strs(src);
        let block = compress_block_with(code, BlockRef::Str(&arena), &cfg);
        blocks.push((code, ColumnType::String, block));
    }
    for (code, ty, bytes) in &blocks {
        assert!(btrblocks::has_fast_path(*ty, *code), "{ty:?} {code:?}");
        let literal = match ty {
            ColumnType::Integer => Literal::Int(5),
            ColumnType::Double => Literal::Double(2.5),
            ColumnType::String => Literal::Str(b"ab".to_vec()),
        };
        for (i, damaged) in damaged_frames(bytes).iter().enumerate() {
            let decoded = decompress_block(damaged, *ty, &cfg);
            for op in OPS {
                let got = filter_block(damaged, *ty, op, &literal, &cfg, &mut scratch);
                let ctx = format!("{ty:?} {code:?} damage #{i} op {op:?}");
                match &decoded {
                    Err(_) => assert!(got.is_err(), "{ctx}: decode fails, filter gave {got:?}"),
                    Ok(col) => {
                        let got = got.unwrap_or_else(|e| panic!("{ctx}: filter failed: {e:?}"));
                        let want = filter_decoded(col, op, &literal).unwrap();
                        assert_eq!(got, want, "{ctx}");
                        let frame_count = peek_count(damaged).unwrap() as u32;
                        assert!(got.iter().all(|row| row < frame_count), "{ctx}");
                    }
                }
            }
        }
    }
}

#[test]
fn pruned_filter_rejects_sidecar_row_counts_that_disagree_with_blocks() {
    let cfg = Config { block_size: 100, ..Config::default() };
    let rel = Relation::new(vec![Column::new("x", ColumnData::Int((0..1000).collect()))]);
    let compressed = btrblocks::compress(&rel, &cfg).unwrap();
    let good = Sidecar::build(&rel, cfg.block_size);
    let lit = Literal::Int(0);
    assert!(pruned_filter(&compressed, &good, "x", CmpOp::Ge, &lit, &cfg).is_ok());
    // Shift one row from block 0 to block 1: the counts still sum to the
    // relation's rows, but block 0's matches would land in block 1's range.
    let mut bad = good.clone();
    bad.columns[0].block_rows[0] -= 1;
    bad.columns[0].block_rows[1] += 1;
    assert!(pruned_filter(&compressed, &bad, "x", CmpOp::Ge, &lit, &cfg).is_err());
}

#[test]
fn pruned_filter_never_loses_matches() {
    let mut rng = Xorshift::new(0x64);
    for case in 0..CASES {
        let len = rng.gen_range(1..2000usize);
        let values: Vec<i32> = (0..len).map(|_| rng.gen_range(-1000i32..1000)).collect();
        let lit = rng.gen_range(-1000i32..1000);
        let op = OPS[case % OPS.len()];
        let block_size = rng.gen_range(50..500usize);
        let cfg = Config { block_size, ..Config::default() };
        let rel = Relation::new(vec![Column::new("x", ColumnData::Int(values.clone()))]);
        let compressed = btrblocks::compress(&rel, &cfg).unwrap();
        let sidecar = Sidecar::build(&rel, cfg.block_size);
        let (matches, decoded) =
            pruned_filter(&compressed, &sidecar, "x", op, &Literal::Int(lit), &cfg).unwrap();
        let expected: Vec<u32> = values
            .iter()
            .enumerate()
            .filter_map(|(i, v)| cmp(op, v, &lit).then_some(i as u32))
            .collect();
        assert_eq!(matches.iter().collect::<Vec<_>>(), expected);
        assert!(decoded <= compressed.columns[0].blocks.len());
    }
}

#[test]
fn sidecar_serialization_roundtrips() {
    let mut rng = Xorshift::new(0x65);
    for _ in 0..CASES {
        let n = rng.gen_range(0..500usize);
        let ints: Vec<i32> = (0..n).map(|_| rng.next_u32() as i32).collect();
        let doubles: Vec<f64> = (0..n).map(|_| f64::from_bits(rng.next_u64())).collect();
        let block_size = rng.gen_range(10..200usize);
        let rel = Relation::new(vec![
            Column::new("i", ColumnData::Int(ints)),
            Column::new("d", ColumnData::Double(doubles)),
        ]);
        let sidecar = Sidecar::build(&rel, block_size);
        let back = Sidecar::from_bytes(&sidecar.to_bytes()).unwrap();
        // NaN-bearing zones break Eq; compare through re-serialization.
        assert_eq!(back.to_bytes(), sidecar.to_bytes());
    }
}

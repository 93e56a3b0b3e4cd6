//! Predicate evaluation on compressed blocks.
//!
//! The paper's related-work discussion (§7) notes that while BtrBlocks
//! optimizes for raw decompression speed, it "can, in principle, also support
//! processing compressed data if the used schemes support it". This module
//! implements that extension for the schemes where it pays off:
//!
//! * **OneValue** — the predicate is decided once for the whole block.
//! * **RLE** — the predicate runs per *run* and the verdict is replicated.
//! * **Dictionary / Dict+FSST** — the predicate runs once per *distinct*
//!   value; the code sequence is then mapped through a verdict table.
//! * **Frequency** — decided once for the top value, per-value only for the
//!   exceptions.
//! * everything else — falls back to decompress-then-filter, so the API is
//!   total over all blocks.
//!
//! The entry points evaluate an equality or range predicate against one
//! compressed block and return the matching row positions as a Roaring
//! bitmap, without materializing the decompressed column when a fast path
//! applies. Fast paths read the frame header here and every payload byte
//! through the scheme modules' validated readers — the same parsers the
//! decoders are built on — so a frame the decoder rejects (bad counts,
//! truncation, trailing bytes) is rejected here too, and every returned row
//! is below the frame's count. The expression engine (crate `btr-expr`)
//! builds its leaf kernels on top of these entry points; the crate root
//! re-exports them.

use crate::block::decompress_block_into;
use crate::config::Config;
use crate::scheme::{self, double, int, str as sstr, SchemeCode};
use crate::scratch::DecodeScratch;
use crate::types::{CmpOp, ColumnType, DecodedColumn, Literal, StringViews};
use crate::writer::Reader;
use crate::{Error, Result};
use btr_roaring::RoaringBitmap;

/// Whether [`filter_block`] has a compressed-domain fast path for this
/// `(type, scheme)` pair, i.e. evaluates the predicate without materializing
/// the full block. Scan planners use this to report how much of a scan ran
/// on compressed data versus the decompress-then-filter fallback.
pub fn has_fast_path(ty: ColumnType, code: SchemeCode) -> bool {
    match ty {
        ColumnType::Integer | ColumnType::Double => matches!(
            code,
            SchemeCode::OneValue | SchemeCode::Rle | SchemeCode::Dict | SchemeCode::Frequency
        ),
        ColumnType::String => matches!(
            code,
            SchemeCode::OneValue | SchemeCode::Dict | SchemeCode::DictFsst
        ),
    }
}

/// Evaluates `op(literal)` over an already-decoded block (e.g. one served
/// from a decoded-block cache), returning matching block-relative positions.
/// The decoded-data counterpart of [`filter_block`].
pub fn filter_decoded(col: &DecodedColumn, op: CmpOp, literal: &Literal) -> Result<RoaringBitmap> {
    match (col, literal) {
        (DecodedColumn::Int(v), Literal::Int(l)) => {
            Ok(positions_where(v.iter().map(|x| op.matches(x, l))))
        }
        (DecodedColumn::Double(v), Literal::Double(l)) => {
            Ok(positions_where(v.iter().map(|x| op.matches(x, l))))
        }
        (DecodedColumn::Str(views), Literal::Str(l)) => Ok(positions_where(
            (0..views.len()).map(|i| op.matches(&views.get(i), &l.as_slice())),
        )),
        _ => Err(Error::Corrupt("predicate literal type mismatch")),
    }
}

/// Evaluates `op(literal)` over one compressed block, returning matching row
/// positions (block-relative). Schemes without a fast path are decoded into
/// buffers leased from `scratch` and filtered with [`filter_decoded`].
pub fn filter_block(
    bytes: &[u8],
    ty: ColumnType,
    op: CmpOp,
    literal: &Literal,
    cfg: &Config,
    scratch: &mut DecodeScratch,
) -> Result<RoaringBitmap> {
    let mut r = Reader::new(bytes);
    let (code, count) = scheme::read_frame_header(&mut r, cfg)?;
    let fast = match (ty, literal) {
        (ColumnType::Integer, Literal::Int(lit)) => {
            filter_int(&mut r, code, count, op, *lit, cfg, scratch)?
        }
        (ColumnType::Double, Literal::Double(lit)) => {
            filter_double(&mut r, code, count, op, *lit, cfg, scratch)?
        }
        (ColumnType::String, Literal::Str(lit)) => {
            filter_str(&mut r, code, count, op, lit, cfg, scratch)?
        }
        _ => return Err(Error::Corrupt("predicate literal type mismatch")),
    };
    match fast {
        Some(_) if !r.rest().is_empty() => Err(Error::Corrupt("trailing bytes after block")),
        Some(rows) => Ok(rows),
        None => {
            let mut col = scratch.lease_decoded(ty);
            let rows = decompress_block_into(bytes, ty, cfg, scratch, &mut col)
                .and_then(|()| filter_decoded(&col, op, literal));
            scratch.recycle(col);
            rows
        }
    }
}

fn positions_where(verdicts: impl Iterator<Item = bool>) -> RoaringBitmap {
    RoaringBitmap::from_sorted_iter(
        verdicts
            .enumerate()
            // lint: allow(cast) row positions are < count, which came off a u32 frame header
            .filter_map(|(i, m)| m.then_some(i as u32)),
    )
}

fn all_or_none(count: usize, matched: bool) -> RoaringBitmap {
    if matched {
        // lint: allow(cast) count came off a u32 frame header and is capped by max_block_values
        RoaringBitmap::from_sorted_iter(0..count as u32)
    } else {
        RoaringBitmap::new()
    }
}

/// Expands per-run verdicts to per-row positions in O(runs): matching runs
/// become Roaring run-container ranges directly — the whole point of
/// evaluating on compressed data. The RLE readers guarantee the lengths sum
/// to the frame count, so no range can leave the block.
fn expand_runs(verdicts: impl Iterator<Item = bool>, lengths: &[u32]) -> RoaringBitmap {
    let mut pos = 0u32;
    let mut ranges = Vec::new();
    for (v, &len) in verdicts.zip(lengths) {
        if v {
            ranges.push(pos..pos + len);
        }
        pos += len;
    }
    RoaringBitmap::from_sorted_ranges(ranges)
}

/// Maps a validated code sequence through a per-entry verdict table.
fn map_codes(verdicts: &[bool], codes: &[u32]) -> RoaringBitmap {
    positions_where(codes.iter().map(|&c| verdicts.get(c as usize).copied().unwrap_or(false)))
}

/// Frequency: the top value is decided once; only exceptions whose verdict
/// differs from the top's flip their row.
fn frequency_rows(
    count: usize,
    top_matches: bool,
    positions: &[u32],
    exception_matches: impl Iterator<Item = bool>,
) -> RoaringBitmap {
    let mut out = all_or_none(count, top_matches);
    for (&pos, matched) in positions.iter().zip(exception_matches) {
        if matched != top_matches {
            if matched {
                out.insert(pos);
            } else {
                out.remove(pos);
            }
        }
    }
    out
}

/// Compressed-domain evaluation over an integer frame; `None` when the
/// scheme has no fast path.
fn filter_int(
    r: &mut Reader<'_>,
    code: SchemeCode,
    count: usize,
    op: CmpOp,
    lit: i32,
    cfg: &Config,
    scratch: &mut DecodeScratch,
) -> Result<Option<RoaringBitmap>> {
    let hit = |v: &i32| op.matches(v, &lit);
    Ok(Some(match code {
        SchemeCode::OneValue => all_or_none(count, hit(&int::onevalue::read(r)?)),
        SchemeCode::Rle => int::rle::read_runs(r, count, cfg, scratch, |values, lengths| {
            expand_runs(values.iter().map(hit), lengths)
        })?,
        SchemeCode::Dict => int::dict::read(r, count, cfg, scratch, |dict, codes| {
            map_codes(&dict.iter().map(hit).collect::<Vec<_>>(), codes)
        })?,
        SchemeCode::Frequency => {
            int::frequency::read(r, count, cfg, scratch, |top, positions, exceptions| {
                frequency_rows(count, hit(&top), positions, exceptions.iter().map(hit))
            })?
        }
        _ => return Ok(None),
    }))
}

/// Compressed-domain evaluation over a double frame; `None` when the scheme
/// has no fast path.
fn filter_double(
    r: &mut Reader<'_>,
    code: SchemeCode,
    count: usize,
    op: CmpOp,
    lit: f64,
    cfg: &Config,
    scratch: &mut DecodeScratch,
) -> Result<Option<RoaringBitmap>> {
    let hit = |v: &f64| op.matches(v, &lit);
    Ok(Some(match code {
        SchemeCode::OneValue => all_or_none(count, hit(&double::onevalue::read(r)?)),
        SchemeCode::Rle => double::rle::read_runs(r, count, cfg, scratch, |values, lengths| {
            expand_runs(values.iter().map(hit), lengths)
        })?,
        SchemeCode::Dict => double::dict::read(r, count, cfg, scratch, |dict, codes| {
            map_codes(&dict.iter().map(hit).collect::<Vec<_>>(), codes)
        })?,
        SchemeCode::Frequency => {
            double::frequency::read(r, count, cfg, scratch, |top, positions, exceptions| {
                frequency_rows(count, hit(&top), positions, exceptions.iter().map(hit))
            })?
        }
        _ => return Ok(None),
    }))
}

/// Compressed-domain evaluation over a string frame; `None` when the scheme
/// has no fast path. Dictionaries evaluate once per *distinct* value and map
/// the code sequence through the verdict table.
fn filter_str(
    r: &mut Reader<'_>,
    code: SchemeCode,
    count: usize,
    op: CmpOp,
    lit: &[u8],
    cfg: &Config,
    scratch: &mut DecodeScratch,
) -> Result<Option<RoaringBitmap>> {
    let dict_rows = |dict: &StringViews, codes: &[u32]| {
        map_codes(&dict.iter().map(|s| op.matches(&s, &lit)).collect::<Vec<_>>(), codes)
    };
    Ok(Some(match code {
        SchemeCode::OneValue => {
            let s = sstr::onevalue::read(r)?;
            all_or_none(count, count > 0 && op.matches(&s, &lit))
        }
        SchemeCode::Dict => sstr::dict::read(r, count, cfg, scratch, dict_rows)?,
        SchemeCode::DictFsst => sstr::dict_fsst::read(r, count, cfg, scratch, dict_rows)?,
        _ => return Ok(None),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{compress_block_with, BlockRef};
    use crate::types::{ColumnData, StringArena};

    fn reference_filter(data: &ColumnData, op: CmpOp, lit: &Literal) -> Vec<u32> {
        match (data, lit) {
            (ColumnData::Int(v), Literal::Int(l)) => v
                .iter()
                .enumerate()
                .filter_map(|(i, x)| op.matches(x, l).then_some(i as u32))
                .collect(),
            (ColumnData::Double(v), Literal::Double(l)) => v
                .iter()
                .enumerate()
                .filter_map(|(i, x)| op.matches(x, l).then_some(i as u32))
                .collect(),
            (ColumnData::Str(a), Literal::Str(l)) => (0..a.len())
                .filter_map(|i| op.matches(&a.get(i), &l.as_slice()).then_some(i as u32))
                .collect(),
            _ => panic!("type mismatch"),
        }
    }

    fn check_all_schemes(data: ColumnData, schemes: &[SchemeCode], op: CmpOp, lit: Literal) {
        let cfg = Config::default();
        let expected = reference_filter(&data, op, &lit);
        for &code in schemes {
            let bytes = match &data {
                ColumnData::Int(v) => compress_block_with(code, BlockRef::Int(v), &cfg),
                ColumnData::Double(v) => compress_block_with(code, BlockRef::Double(v), &cfg),
                ColumnData::Str(a) => compress_block_with(code, BlockRef::Str(a), &cfg),
            };
            let mut scratch = DecodeScratch::new();
            let ty = data.column_type();
            let got = filter_block(&bytes, ty, op, &lit, &cfg, &mut scratch).unwrap();
            assert_eq!(
                got.iter().collect::<Vec<_>>(),
                expected,
                "scheme {code:?}, op {op:?}"
            );
        }
    }

    #[test]
    fn int_predicates_across_schemes() {
        let values: Vec<i32> = (0..5_000).map(|i| (i / 100) % 7).collect();
        for op in [CmpOp::Eq, CmpOp::Lt, CmpOp::Ge] {
            check_all_schemes(
                ColumnData::Int(values.clone()),
                &[
                    SchemeCode::Uncompressed,
                    SchemeCode::Rle,
                    SchemeCode::Dict,
                    SchemeCode::Frequency,
                    SchemeCode::FastPfor,
                    SchemeCode::FastBp128,
                ],
                op,
                Literal::Int(3),
            );
        }
    }

    #[test]
    fn int_onevalue_block() {
        check_all_schemes(
            ColumnData::Int(vec![5; 1000]),
            &[SchemeCode::OneValue],
            CmpOp::Eq,
            Literal::Int(5),
        );
        check_all_schemes(
            ColumnData::Int(vec![5; 1000]),
            &[SchemeCode::OneValue],
            CmpOp::Gt,
            Literal::Int(5),
        );
    }

    #[test]
    fn double_predicates_across_schemes() {
        let values: Vec<f64> = (0..4_000).map(|i| ((i * 3) % 50) as f64 * 0.25).collect();
        for op in [CmpOp::Eq, CmpOp::Le, CmpOp::Gt] {
            check_all_schemes(
                ColumnData::Double(values.clone()),
                &[
                    SchemeCode::Uncompressed,
                    SchemeCode::Rle,
                    SchemeCode::Dict,
                    SchemeCode::Frequency,
                    SchemeCode::Pseudodecimal,
                ],
                op,
                Literal::Double(5.25),
            );
        }
    }

    #[test]
    fn nan_never_matches() {
        let values = vec![f64::NAN, 1.0, f64::NAN];
        check_all_schemes(
            ColumnData::Double(values),
            &[SchemeCode::Uncompressed],
            CmpOp::Eq,
            Literal::Double(f64::NAN),
        );
    }

    #[test]
    fn string_predicates_across_schemes() {
        let strings: Vec<String> = (0..3_000).map(|i| format!("city-{:02}", (i / 37) % 20)).collect();
        let refs: Vec<&str> = strings.iter().map(|s| s.as_str()).collect();
        let arena = StringArena::from_strs(&refs);
        for op in [CmpOp::Eq, CmpOp::Lt] {
            check_all_schemes(
                ColumnData::Str(arena.clone()),
                &[
                    SchemeCode::Uncompressed,
                    SchemeCode::Dict,
                    SchemeCode::DictFsst,
                    SchemeCode::Fsst,
                ],
                op,
                Literal::Str(b"city-07".to_vec()),
            );
        }
    }

    #[test]
    fn type_mismatch_is_error() {
        let cfg = Config::default();
        let bytes = compress_block_with(SchemeCode::Uncompressed, BlockRef::Int(&[1, 2]), &cfg);
        let mut scratch = DecodeScratch::new();
        let lit = Literal::Double(1.0);
        let got = filter_block(&bytes, ColumnType::Integer, CmpOp::Eq, &lit, &cfg, &mut scratch);
        assert!(got.is_err());
    }

    #[test]
    fn filter_decoded_matches_filter_block() {
        use crate::block::decompress_block;
        let cfg = Config::default();
        let values: Vec<i32> = (0..3_000).map(|i| (i * 7) % 40).collect();
        let bytes =
            compress_block_with(SchemeCode::Uncompressed, BlockRef::Int(&values), &cfg);
        let decoded = decompress_block(&bytes, ColumnType::Integer, &cfg).unwrap();
        let mut scratch = DecodeScratch::new();
        for op in [CmpOp::Eq, CmpOp::Lt, CmpOp::Ge] {
            let lit = Literal::Int(13);
            let via_block =
                filter_block(&bytes, ColumnType::Integer, op, &lit, &cfg, &mut scratch).unwrap();
            let via_decoded = filter_decoded(&decoded, op, &Literal::Int(13)).unwrap();
            assert_eq!(
                via_block.iter().collect::<Vec<_>>(),
                via_decoded.iter().collect::<Vec<_>>()
            );
        }
        // Type mismatch is a typed error, not a panic.
        assert!(filter_decoded(&decoded, CmpOp::Eq, &Literal::Double(1.0)).is_err());
    }

    #[test]
    fn fast_path_table_matches_module_contract() {
        // The module docs promise compressed-domain evaluation for exactly
        // these scheme/type pairs.
        assert!(has_fast_path(ColumnType::Integer, SchemeCode::Rle));
        assert!(has_fast_path(ColumnType::Integer, SchemeCode::Frequency));
        assert!(has_fast_path(ColumnType::Double, SchemeCode::Dict));
        assert!(has_fast_path(ColumnType::String, SchemeCode::DictFsst));
        assert!(!has_fast_path(ColumnType::Integer, SchemeCode::FastPfor));
        assert!(!has_fast_path(ColumnType::String, SchemeCode::Fsst));
        assert!(!has_fast_path(ColumnType::Double, SchemeCode::Pseudodecimal));
    }

    #[test]
    fn frequency_fast_path_with_matching_top() {
        // Top value matches the predicate; exceptions partially do.
        let mut values = vec![10i32; 2_000];
        for i in (0..2_000).step_by(37) {
            values[i] = i as i32;
        }
        check_all_schemes(
            ColumnData::Int(values),
            &[SchemeCode::Frequency],
            CmpOp::Ge,
            Literal::Int(10),
        );
    }

    #[test]
    fn cmp_op_flip_is_involutive_and_correct() {
        for op in [CmpOp::Eq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            assert_eq!(op.flip().flip(), op);
            for (a, b) in [(1, 2), (2, 1), (3, 3)] {
                assert_eq!(op.matches(&a, &b), op.flip().matches(&b, &a));
            }
        }
    }
}

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
//! applies. The expression engine (crate `btr-expr`) builds its leaf kernels
//! on top of these entry points; the crate root re-exports them.

use crate::config::Config;
use crate::scheme::{self, SchemeCode};
use crate::types::{CmpOp, ColumnType, DecodedColumn, Literal};
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
/// positions (block-relative).
pub fn filter_block(
    bytes: &[u8],
    ty: ColumnType,
    op: CmpOp,
    literal: &Literal,
    cfg: &Config,
) -> Result<RoaringBitmap> {
    let mut r = Reader::new(bytes);
    let code = SchemeCode::from_u8(r.u8()?)?;
    let count = r.u32()? as usize;
    match (ty, literal) {
        (ColumnType::Integer, Literal::Int(lit)) => filter_int(&mut r, code, count, op, *lit, cfg),
        (ColumnType::Double, Literal::Double(lit)) => {
            filter_double(&mut r, code, count, op, *lit, cfg)
        }
        (ColumnType::String, Literal::Str(lit)) => filter_str(&mut r, code, count, op, lit, cfg),
        _ => Err(Error::Corrupt("predicate literal type mismatch")),
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
/// evaluating on compressed data.
///
/// Run lengths are decoded from untrusted bytes: a negative length or a total
/// exceeding `u32::MAX` is a corruption, not a wrap-around.
fn expand_runs(verdicts: &[bool], lengths: &[i32]) -> Result<RoaringBitmap> {
    let mut pos = 0u32;
    let mut ranges = Vec::new();
    for (&v, &l) in verdicts.iter().zip(lengths) {
        let len = u32::try_from(l).map_err(|_| Error::Corrupt("negative RLE run length"))?;
        let end = pos
            .checked_add(len)
            .ok_or(Error::Corrupt("RLE run lengths overflow the row space"))?;
        if v {
            ranges.push(pos..end);
        }
        pos = end;
    }
    Ok(RoaringBitmap::from_sorted_ranges(ranges))
}

fn filter_int(
    r: &mut Reader<'_>,
    code: SchemeCode,
    count: usize,
    op: CmpOp,
    lit: i32,
    cfg: &Config,
) -> Result<RoaringBitmap> {
    match code {
        SchemeCode::OneValue => {
            let v = r.i32()?;
            Ok(all_or_none(count, op.matches(&v, &lit)))
        }
        SchemeCode::Rle => {
            let _run_count = r.u32()?;
            let values = scheme::decompress_int(r, cfg)?;
            let lengths = scheme::decompress_int(r, cfg)?;
            let verdicts: Vec<bool> = values.iter().map(|v| op.matches(v, &lit)).collect();
            expand_runs(&verdicts, &lengths)
        }
        SchemeCode::Dict => {
            let dict_len = r.u32()? as usize;
            let dict = r.i32_vec(dict_len)?;
            let verdict: Vec<bool> = dict.iter().map(|v| op.matches(v, &lit)).collect();
            let codes = scheme::decompress_int(r, cfg)?;
            Ok(positions_where(codes.iter().map(|&c| {
                verdict.get(c as usize).copied().unwrap_or(false)
            })))
        }
        SchemeCode::Frequency => {
            let top = r.i32()?;
            let bitmap_len = r.u32()? as usize;
            let bitmap = RoaringBitmap::deserialize(r.take(bitmap_len)?)?;
            let exceptions = scheme::decompress_int(r, cfg)?;
            let top_matches = op.matches(&top, &lit);
            let mut out = if top_matches {
                // Everything matches except exceptions that fail.
                // lint: allow(cast) count came off a u32 frame header
                let mut out = RoaringBitmap::from_sorted_iter(0..count as u32);
                for (pos, v) in bitmap.iter().zip(&exceptions) {
                    if !op.matches(v, &lit) {
                        out.remove(pos);
                    }
                }
                out
            } else {
                RoaringBitmap::new()
            };
            if !top_matches {
                for (pos, v) in bitmap.iter().zip(&exceptions) {
                    if op.matches(v, &lit) {
                        out.insert(pos);
                    }
                }
            }
            Ok(out)
        }
        // Bit-packed and uncompressed blocks: decompress then filter.
        _ => {
            let values = dispatch_int(r, code, count, cfg)?;
            Ok(positions_where(values.iter().map(|v| op.matches(v, &lit))))
        }
    }
}

fn dispatch_int(
    r: &mut Reader<'_>,
    code: SchemeCode,
    count: usize,
    _cfg: &Config,
) -> Result<Vec<i32>> {
    use crate::scheme::int;
    match code {
        SchemeCode::Uncompressed => int::uncompressed::decompress(r, count),
        SchemeCode::FastPfor => int::pfor::decompress(r, count),
        SchemeCode::FastBp128 => int::bp::decompress(r, count),
        other => Err(Error::InvalidScheme(other.as_u8())),
    }
}

fn filter_double(
    r: &mut Reader<'_>,
    code: SchemeCode,
    count: usize,
    op: CmpOp,
    lit: f64,
    cfg: &Config,
) -> Result<RoaringBitmap> {
    match code {
        SchemeCode::OneValue => {
            let v = r.f64()?;
            Ok(all_or_none(count, op.matches(&v, &lit)))
        }
        SchemeCode::Rle => {
            let _run_count = r.u32()?;
            let values = scheme::decompress_double(r, cfg)?;
            let lengths = scheme::decompress_int(r, cfg)?;
            let verdicts: Vec<bool> = values.iter().map(|v| op.matches(v, &lit)).collect();
            expand_runs(&verdicts, &lengths)
        }
        SchemeCode::Dict => {
            let dict_len = r.u32()? as usize;
            let dict = r.f64_vec(dict_len)?;
            let verdict: Vec<bool> = dict.iter().map(|v| op.matches(v, &lit)).collect();
            let codes = scheme::decompress_int(r, cfg)?;
            Ok(positions_where(codes.iter().map(|&c| {
                verdict.get(c as usize).copied().unwrap_or(false)
            })))
        }
        SchemeCode::Frequency => {
            let top = r.f64()?;
            let bitmap_len = r.u32()? as usize;
            let bitmap = RoaringBitmap::deserialize(r.take(bitmap_len)?)?;
            let exceptions = scheme::decompress_double(r, cfg)?;
            let top_matches = op.matches(&top, &lit);
            let mut out = all_or_none(count, top_matches);
            for (pos, v) in bitmap.iter().zip(&exceptions) {
                if op.matches(v, &lit) != top_matches {
                    if top_matches {
                        out.remove(pos);
                    } else {
                        out.insert(pos);
                    }
                }
            }
            Ok(out)
        }
        // Pseudodecimal / Uncompressed: decompress then filter.
        other => {
            use crate::scheme::double;
            let values = match other {
                SchemeCode::Uncompressed => double::uncompressed::decompress(r, count)?,
                SchemeCode::Pseudodecimal => double::decimal::decompress(r, count, cfg)?,
                other => return Err(Error::InvalidScheme(other.as_u8())),
            };
            Ok(positions_where(values.iter().map(|v| op.matches(v, &lit))))
        }
    }
}

fn filter_str(
    r: &mut Reader<'_>,
    code: SchemeCode,
    count: usize,
    op: CmpOp,
    lit: &[u8],
    cfg: &Config,
) -> Result<RoaringBitmap> {
    use crate::scheme::str as sstr;
    match code {
        SchemeCode::OneValue => {
            let views = sstr::onevalue::decompress(r, count)?;
            let matched = count > 0 && op.matches(&views.get(0), &lit);
            Ok(all_or_none(count, matched))
        }
        SchemeCode::Dict | SchemeCode::DictFsst => {
            // Decode the dictionary (tiny) and evaluate per distinct value;
            // the code sequence maps through the verdict table.
            let views = match code {
                SchemeCode::Dict => sstr::dict::decompress(r, count, cfg)?,
                _ => sstr::dict_fsst::decompress(r, count, cfg)?,
            };
            // The views share the dict pool; evaluate each row's view. Rows
            // with equal views hit the same bytes, so this is cache-friendly
            // even without an explicit verdict table.
            Ok(positions_where(
                (0..views.len()).map(|i| op.matches(&views.get(i), &lit)),
            ))
        }
        SchemeCode::Uncompressed | SchemeCode::Fsst => {
            let views = match code {
                SchemeCode::Uncompressed => sstr::uncompressed::decompress(r, count)?,
                _ => sstr::fsst::decompress(r, count, cfg)?,
            };
            Ok(positions_where(
                (0..views.len()).map(|i| op.matches(&views.get(i), &lit)),
            ))
        }
        other => Err(Error::InvalidScheme(other.as_u8())),
    }
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
            let got = filter_block(&bytes, data.column_type(), op, &lit, &cfg).unwrap();
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
        assert!(filter_block(&bytes, ColumnType::Integer, CmpOp::Eq, &Literal::Double(1.0), &cfg).is_err());
    }

    #[test]
    fn filter_decoded_matches_filter_block() {
        use crate::block::decompress_block;
        let cfg = Config::default();
        let values: Vec<i32> = (0..3_000).map(|i| (i * 7) % 40).collect();
        let bytes =
            compress_block_with(SchemeCode::Uncompressed, BlockRef::Int(&values), &cfg);
        let decoded = decompress_block(&bytes, ColumnType::Integer, &cfg).unwrap();
        for op in [CmpOp::Eq, CmpOp::Lt, CmpOp::Ge] {
            let via_block =
                filter_block(&bytes, ColumnType::Integer, op, &Literal::Int(13), &cfg).unwrap();
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

//! Frequency encoding (the paper's adaptation of DB2 BLU's scheme).
//!
//! Real-world columns often have one dominant value with exponentially rarer
//! exceptions. The block stores (1) the top value, (2) a Roaring bitmap
//! marking which positions are *not* the top value, and (3) the exception
//! values as a cascaded child block.
//!
//! Payload: `[top: i32][bitmap_len: u32][roaring bitmap][child block:
//! exceptions]`.

use crate::config::Config;
use crate::scheme;
use crate::scratch::{DecodeScratch, EncodeScratch};
use crate::simd;
use crate::stats::IntegerStats;
use crate::writer::{Reader, WriteLe};
use crate::{Error, Result};
use btr_roaring::RoaringBitmap;

/// Compresses `values` as Frequency encoding.
///
/// Takes the selection layer's one-pass `stats` by reference (the dominant
/// value was already found there) instead of re-collecting them, and leases
/// the exception array from `scratch`.
pub fn compress(
    values: &[i32],
    stats: &IntegerStats,
    child_depth: u8,
    cfg: &Config,
    scratch: &mut EncodeScratch,
    out: &mut Vec<u8>,
) {
    let top = stats.top_value;
    let mut exceptions = scratch.lease_i32(values.len().saturating_sub(stats.top_count));
    let bitmap = RoaringBitmap::from_sorted_iter(values.iter().enumerate().filter_map(|(i, &v)| {
        if v != top {
            exceptions.push(v);
            // lint: allow(cast) encode side: block row index fits u32
            Some(i as u32)
        } else {
            None
        }
    }));
    let bitmap_bytes = bitmap.serialize();
    out.put_i32(top);
    // lint: allow(cast) encode side: serialized bitmap is far smaller than 4 GiB
    out.put_u32(bitmap_bytes.len() as u32);
    out.extend_from_slice(&bitmap_bytes);
    scheme::compress_int_into(&exceptions, child_depth, cfg, scratch, out, None);
    scratch.release_i32(exceptions);
}

/// Reads a Frequency payload of `count` values and hands `f` the top value,
/// the exception positions (ascending, each `< count`) and the exception
/// values (one per position). The position and exception buffers are leased
/// from `scratch`; the Roaring bitmap itself still deserializes into fresh
/// containers — the one allocation this scheme keeps.
///
/// This is the one parser of the Frequency layout: [`decompress_into`]
/// splats and patches through it, the compressed-domain filter decides the
/// top value once and only visits the exceptions.
pub(crate) fn read<T>(
    r: &mut Reader<'_>,
    count: usize,
    cfg: &Config,
    scratch: &mut DecodeScratch,
    f: impl FnOnce(i32, &[u32], &[i32]) -> T,
) -> Result<T> {
    let top = r.i32()?;
    let bitmap_len = r.u32()? as usize;
    let bitmap = RoaringBitmap::deserialize(r.take(bitmap_len)?)?;
    let mut exceptions = scratch.lease_i32(0);
    let mut positions = scratch.lease_u32(bitmap.cardinality() as usize);
    let result = (|| -> Result<()> {
        scheme::decompress_int_into(r, cfg, scratch, &mut exceptions)?;
        read_positions_into(&bitmap, exceptions.len(), count, cfg, &mut positions)
    })()
    .map(|()| f(top, &positions, &exceptions));
    scratch.release_u32(positions);
    scratch.release_i32(exceptions);
    result
}

/// Expands the exception bitmap into `out`, rejecting a bitmap whose
/// cardinality differs from the `exceptions` count or that marks a position
/// at or past `count`. Shared by the integer and double Frequency readers.
pub(crate) fn read_positions_into(
    bitmap: &RoaringBitmap,
    exceptions: usize,
    count: usize,
    cfg: &Config,
    out: &mut Vec<u32>,
) -> Result<()> {
    if bitmap.cardinality() as usize != exceptions {
        return Err(Error::Corrupt("frequency exception count mismatch"));
    }
    out.clear();
    out.extend(bitmap.iter());
    if !simd::positions_in_range(out, count, cfg.simd) {
        return Err(Error::Corrupt("frequency exception position out of range"));
    }
    Ok(())
}

/// Decompresses a Frequency block of `count` values into `out`: splat the
/// top value, then patch the exceptions in (both vectorized; the patch
/// re-checks the positions `read` already validated).
pub fn decompress_into(
    r: &mut Reader<'_>,
    count: usize,
    cfg: &Config,
    scratch: &mut DecodeScratch,
    out: &mut Vec<i32>,
) -> Result<()> {
    let patched = read(r, count, cfg, scratch, |top, positions, exceptions| {
        simd::fill_i32(top, count, cfg.simd, out);
        simd::patch_i32(out, positions, exceptions, cfg.simd)
    })?;
    patched.then_some(()).ok_or(Error::Corrupt("frequency exception position out of range"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::testutil::{decode_int, encode_int};
    use crate::scheme::SchemeCode;

    fn roundtrip(values: &[i32]) -> usize {
        let buf = encode_int(SchemeCode::Frequency, values);
        assert_eq!(decode_int(&buf, &Config::default()).unwrap(), values);
        buf.len()
    }

    #[test]
    fn roundtrip_dominant_value() {
        let mut values = vec![0; 10_000];
        for i in (0..10_000).step_by(97) {
            values[i] = i as i32;
        }
        let size = roundtrip(&values);
        assert!(size * 10 < values.len() * 4, "got {size} bytes");
    }

    #[test]
    fn roundtrip_no_exceptions() {
        roundtrip(&[5; 100]);
    }

    #[test]
    fn roundtrip_all_exceptions_edge() {
        // Degenerate but legal: top value appears once.
        roundtrip(&[1, 2, 3, 4]);
    }

    #[test]
    fn roundtrip_empty() {
        roundtrip(&[]);
    }
}

//! Run-length encoding for integers, with cascading children.
//!
//! Payload: `[run_count: u32][child block: run values][child block: run
//! lengths]`. Both children are full framed blocks compressed by recursive
//! scheme selection (paper Listing 1's two `pickScheme` calls).
//! Decompression uses the vectorized splat-store kernel of §5.

use crate::config::Config;
use crate::scheme;
use crate::scratch::{DecodeScratch, EncodeScratch};
use crate::simd;
use crate::writer::{Reader, WriteLe};
use crate::{Error, Result};

/// Splits `values` into `(run_values, run_lengths)` in caller-owned buffers
/// (cleared first), so the encode path can lease the run arrays instead of
/// allocating per block.
pub fn runs_of_into(values: &[i32], run_values: &mut Vec<i32>, run_lengths: &mut Vec<i32>) {
    run_values.clear();
    run_lengths.clear();
    for &v in values {
        match run_values.last() {
            Some(&last) if last == v => *run_lengths.last_mut().expect("parallel arrays") += 1,
            _ => {
                run_values.push(v);
                run_lengths.push(1);
            }
        }
    }
}

/// Compresses `values` as RLE with cascaded children, leasing the run arrays
/// from `scratch`.
pub fn compress(
    values: &[i32],
    child_depth: u8,
    cfg: &Config,
    scratch: &mut EncodeScratch,
    out: &mut Vec<u8>,
) {
    let mut run_values = scratch.lease_i32(values.len());
    let mut run_lengths = scratch.lease_i32(values.len());
    runs_of_into(values, &mut run_values, &mut run_lengths);
    // lint: allow(cast) encode side: run count fits u32
    out.put_u32(run_values.len() as u32);
    scheme::compress_int_into(&run_values, child_depth, cfg, scratch, out, None);
    scheme::compress_int_into(&run_lengths, child_depth, cfg, scratch, out, None);
    scratch.release_i32(run_values);
    scratch.release_i32(run_lengths);
}

/// Reads an RLE payload of `count` values and hands its validated runs to
/// `f`: `values[i]` repeats `lengths[i]` times, both arrays have the stored
/// run count, and the lengths sum to exactly `count`. The run arrays are
/// leased from `scratch` and returned on every exit path.
///
/// This is the one parser of the RLE wire layout: [`decompress_into`]
/// expands the runs, the compressed-domain filter and aggregates consume
/// them directly.
pub fn read_runs<T>(
    r: &mut Reader<'_>,
    count: usize,
    cfg: &Config,
    scratch: &mut DecodeScratch,
    f: impl FnOnce(&[i32], &[u32]) -> T,
) -> Result<T> {
    let run_count = r.u32()? as usize;
    // Capacity hints only — the cascade fills to whatever the child frames
    // say. Clamp so a hostile run_count can't force a huge lease.
    let hint = run_count.min(count);
    let mut run_values = scratch.lease_i32(hint);
    let mut run_lengths = scratch.lease_i32(hint);
    let mut lengths = scratch.lease_u32(hint);
    let result = (|| -> Result<()> {
        scheme::decompress_int_into(r, cfg, scratch, &mut run_values)?;
        scheme::decompress_int_into(r, cfg, scratch, &mut run_lengths)?;
        if run_values.len() != run_count || run_lengths.len() != run_count {
            return Err(Error::Corrupt("RLE run array length mismatch"));
        }
        validate_lengths(&run_lengths, count, &mut lengths)
    })()
    .map(|()| f(&run_values, &lengths));
    scratch.release_i32(run_values);
    scratch.release_i32(run_lengths);
    scratch.release_u32(lengths);
    result
}

/// Converts decoded run lengths to `u32` into `out` (cleared first),
/// rejecting negative lengths and totals other than `count`. Shared by the
/// integer and double RLE readers.
pub(crate) fn validate_lengths(
    run_lengths: &[i32],
    count: usize,
    out: &mut Vec<u32>,
) -> Result<()> {
    let mut total = 0usize;
    out.clear();
    for &l in run_lengths {
        let len = u32::try_from(l).map_err(|_| Error::Corrupt("negative RLE run length"))?;
        total += len as usize;
        out.push(len);
    }
    if total != count {
        return Err(Error::Corrupt("RLE total length mismatch"));
    }
    Ok(())
}

/// Decompresses an RLE block of `count` values into `out` with the
/// vectorized splat-store kernel.
pub fn decompress_into(
    r: &mut Reader<'_>,
    count: usize,
    cfg: &Config,
    scratch: &mut DecodeScratch,
    out: &mut Vec<i32>,
) -> Result<()> {
    read_runs(r, count, cfg, scratch, |values, lengths| {
        simd::rle_decode_i32_into(values, lengths, count, cfg.simd, out)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::testutil::{decode_int, encode_int};
    use crate::scheme::SchemeCode;

    fn roundtrip(values: &[i32]) {
        let buf = encode_int(SchemeCode::Rle, values);
        assert_eq!(decode_int(&buf, &Config::default()).unwrap(), values);
    }

    #[test]
    fn roundtrip_runs() {
        roundtrip(&[5, 5, 5, 1, 1, 9, 9, 9, 9]);
        roundtrip(&[7; 1000]);
        roundtrip(&(0..100).collect::<Vec<_>>()); // worst case: all runs of 1
    }

    #[test]
    fn runs_of_splits_correctly() {
        let (mut v, mut l) = (vec![9], vec![9]);
        runs_of_into(&[3, 3, 8, 8, 8, 1], &mut v, &mut l);
        assert_eq!(v, vec![3, 8, 1]);
        assert_eq!(l, vec![2, 3, 1]);
        runs_of_into(&[], &mut v, &mut l);
        assert!(v.is_empty() && l.is_empty());
    }

    #[test]
    fn compresses_long_runs_well() {
        let values: Vec<i32> = (0..64_000).map(|i| i / 1000).collect();
        let buf = encode_int(SchemeCode::Rle, &values);
        assert!(buf.len() * 50 < values.len() * 4, "got {} bytes", buf.len());
    }

    #[test]
    fn corrupt_total_is_error() {
        let buf = encode_int(SchemeCode::Rle, &[1, 1, 2]);
        assert_eq!(buf[0], SchemeCode::Rle as u8);
        // Lie about the count in the frame.
        let mut tampered = buf.clone();
        tampered[1..5].copy_from_slice(&10u32.to_le_bytes());
        assert!(decode_int(&tampered, &Config::default()).is_err());
    }
}

//! Dictionary encoding for integers, with a cascaded code sequence.
//!
//! Payload: `[dict_len: u32][dict values: dict_len × i32][child block: code
//! sequence]`. Codes are assigned in first-occurrence order; the code
//! sequence typically cascades into FastBP128 or RLE. Decompression uses the
//! AVX2 gather kernel of §5.

use crate::config::Config;
use crate::scheme::{self, SchemeCode};
use crate::scratch::{DecodeScratch, EncodeScratch};
use crate::simd;
use crate::writer::{Reader, WriteLe};
use crate::{Error, Result};
use crate::fxhash::FxHashMap;

/// Builds `(dictionary, codes)` in first-occurrence order into caller-owned
/// buffers (all cleared first), so the encode path can lease the map and
/// both arrays instead of allocating.
pub fn encode_dict_into(
    values: &[i32],
    map: &mut FxHashMap<i32, usize>,
    dict: &mut Vec<i32>,
    codes: &mut Vec<i32>,
) {
    map.clear();
    dict.clear();
    codes.clear();
    for &v in values {
        let idx = *map.entry(v).or_insert_with(|| {
            dict.push(v);
            dict.len() - 1
        });
        // lint: allow(cast) encode side: dictionary sizes fit i32
        codes.push(idx as i32);
    }
}

/// Compresses `values` as a dictionary with a cascaded code sequence,
/// leasing the dictionary map and side-arrays from `scratch`.
pub fn compress(
    values: &[i32],
    child_depth: u8,
    cfg: &Config,
    scratch: &mut EncodeScratch,
    out: &mut Vec<u8>,
) {
    let mut map = scratch.lease_int_map();
    let mut dict = scratch.lease_i32(values.len());
    let mut codes = scratch.lease_i32(values.len());
    encode_dict_into(values, &mut map, &mut dict, &mut codes);
    scratch.release_int_map(map);
    // lint: allow(cast) encode side: dictionary entry count fits u32
    out.put_u32(dict.len() as u32);
    out.put_i32_slice(&dict);
    scheme::compress_int_into(&codes, child_depth, cfg, scratch, out, Some(SchemeCode::Dict));
    scratch.release_i32(dict);
    scratch.release_i32(codes);
}

/// Reads a dictionary payload of `count` values and hands the dictionary and
/// the validated code sequence (`count` codes, each `< dict.len()`) to `f`.
/// Both buffers are leased from `scratch` and returned on every exit path.
///
/// This is the one parser of the integer dictionary layout:
/// [`decompress_into`] gathers through it, the compressed-domain filter
/// evaluates the predicate once per dictionary entry.
pub(crate) fn read<T>(
    r: &mut Reader<'_>,
    count: usize,
    cfg: &Config,
    scratch: &mut DecodeScratch,
    f: impl FnOnce(&[i32], &[u32]) -> T,
) -> Result<T> {
    let dict_len = r.u32()? as usize;
    let mut dict = scratch.lease_i32(dict_len.min(cfg.max_block_values));
    let mut codes = scratch.lease_u32(count);
    let result = r
        .i32_vec_into(dict_len, &mut dict)
        .and_then(|()| read_codes_into(r, count, dict_len, cfg, scratch, &mut codes))
        .map(|()| f(&dict, &codes));
    scratch.release_i32(dict);
    scratch.release_u32(codes);
    result
}

/// Reads a dictionary's cascaded code sequence into `out` (cleared first),
/// rejecting a sequence of other than `count` codes or any code outside
/// `0..dict_len`. Shared by every dictionary scheme (integer, double,
/// string and Dict+FSST).
pub(crate) fn read_codes_into(
    r: &mut Reader<'_>,
    count: usize,
    dict_len: usize,
    cfg: &Config,
    scratch: &mut DecodeScratch,
    out: &mut Vec<u32>,
) -> Result<()> {
    let mut codes = scratch.lease_i32(count);
    let result = (|| -> Result<()> {
        scheme::decompress_int_into(r, cfg, scratch, &mut codes)?;
        if codes.len() != count {
            return Err(Error::Corrupt("dict code count mismatch"));
        }
        out.clear();
        for &c in codes.iter() {
            match u32::try_from(c) {
                Ok(code) if (code as usize) < dict_len => out.push(code),
                _ => return Err(Error::Corrupt("dict code out of range")),
            }
        }
        Ok(())
    })();
    scratch.release_i32(codes);
    result
}

/// Decompresses a dictionary block of `count` values into `out` with the
/// AVX2 gather kernel.
pub fn decompress_into(
    r: &mut Reader<'_>,
    count: usize,
    cfg: &Config,
    scratch: &mut DecodeScratch,
    out: &mut Vec<i32>,
) -> Result<()> {
    read(r, count, cfg, scratch, |dict, codes| {
        simd::dict_decode_i32_into(codes, dict, cfg.simd, out)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::testutil::{decode_int, encode_int};
    use crate::scheme::SchemeCode;

    fn roundtrip(values: &[i32]) {
        let buf = encode_int(SchemeCode::Dict, values);
        assert_eq!(decode_int(&buf, &Config::default()).unwrap(), values);
    }

    #[test]
    fn roundtrip_low_cardinality() {
        let values: Vec<i32> = (0..10_000).map(|i| [1_000_000, -5, 0, 77][i % 4]).collect();
        roundtrip(&values);
    }

    #[test]
    fn roundtrip_single_and_empty() {
        roundtrip(&[42]);
        roundtrip(&[]);
    }

    #[test]
    fn encode_dict_first_occurrence_order() {
        let (mut map, mut dict, mut codes) = Default::default();
        encode_dict_into(&[9, 5, 9, 1, 5], &mut map, &mut dict, &mut codes);
        assert_eq!(dict, vec![9, 5, 1]);
        assert_eq!(codes, vec![0, 1, 0, 2, 1]);
    }

    #[test]
    fn low_cardinality_compresses_well() {
        let values: Vec<i32> = (0..64_000).map(|i| (i % 3) * 1_000_000).collect();
        let buf = encode_int(SchemeCode::Dict, &values);
        assert!(buf.len() * 8 < values.len() * 4, "got {} bytes", buf.len());
    }

    #[test]
    fn out_of_range_code_is_error() {
        let mut buf = Vec::new();
        // Hand-craft: dict of 1 entry, uncompressed codes [0, 1] (1 invalid).
        buf.put_u8(SchemeCode::Dict as u8);
        buf.put_u32(2);
        buf.put_u32(1);
        buf.put_i32(42);
        buf.put_u8(SchemeCode::Uncompressed as u8);
        buf.put_u32(2);
        buf.put_i32(0);
        buf.put_i32(1);
        assert!(decode_int(&buf, &Config::default()).is_err());
    }
}

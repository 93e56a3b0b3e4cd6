//! Raw integer storage — the depth-0 fallback and last-resort scheme.

use crate::config::Config;
use crate::scratch::DecodeScratch;
use crate::writer::{Reader, WriteLe};
use crate::Result;

/// Payload: `count × i32` little-endian.
pub fn compress(values: &[i32], out: &mut Vec<u8>) {
    out.put_i32_slice(values);
}

/// Reads `count` raw integers into `out`, reusing its capacity.
pub fn decompress_into(
    r: &mut Reader<'_>,
    count: usize,
    _cfg: &Config,
    _scratch: &mut DecodeScratch,
    out: &mut Vec<i32>,
) -> Result<()> {
    r.i32_vec_into(count, out)
}

#[cfg(test)]
mod tests {
    use crate::config::Config;
    use crate::scheme::testutil::{decode_int, encode_int};
    use crate::scheme::SchemeCode;

    #[test]
    fn roundtrip() {
        let values = vec![i32::MIN, -1, 0, 1, i32::MAX];
        let buf = encode_int(SchemeCode::Uncompressed, &values);
        assert_eq!(buf.len(), 5 + values.len() * 4);
        assert_eq!(decode_int(&buf, &Config::default()).unwrap(), values);
    }

    #[test]
    fn truncated_errors() {
        let buf = encode_int(SchemeCode::Uncompressed, &[1, 2, 3]);
        assert!(decode_int(&buf[..5 + 8], &Config::default()).is_err());
    }
}

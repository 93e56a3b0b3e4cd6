//! One Value: a block whose values are all identical stores just that value.

use crate::config::Config;
use crate::scratch::DecodeScratch;
use crate::writer::{Reader, WriteLe};
use crate::Result;

/// Payload: one `i32`.
pub fn compress(values: &[i32], out: &mut Vec<u8>) {
    // lint: allow(indexing) windows(2) yields exactly 2 elements
    debug_assert!(values.windows(2).all(|w| w[0] == w[1]));
    out.put_i32(values.first().copied().unwrap_or(0));
}

/// Reads the stored value: the one parser of this layout, shared by
/// [`decompress_into`] and the compressed-domain filter and aggregates.
pub fn read(r: &mut Reader<'_>) -> Result<i32> {
    r.i32()
}

/// Expands the stored value `count` times into `out`, reusing its capacity.
pub fn decompress_into(
    r: &mut Reader<'_>,
    count: usize,
    _cfg: &Config,
    _scratch: &mut DecodeScratch,
    out: &mut Vec<i32>,
) -> Result<()> {
    let v = read(r)?;
    out.clear();
    out.resize(count, v);
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::config::Config;
    use crate::scheme::testutil::{decode_int, encode_int};
    use crate::scheme::SchemeCode;

    #[test]
    fn roundtrip() {
        let values = vec![-77; 64_000];
        let buf = encode_int(SchemeCode::OneValue, &values);
        assert_eq!(buf.len(), 5 + 4);
        assert_eq!(decode_int(&buf, &Config::default()).unwrap(), values);
    }

    #[test]
    fn zero_count() {
        let buf = encode_int(SchemeCode::OneValue, &[]);
        assert!(decode_int(&buf, &Config::default()).unwrap().is_empty());
    }
}

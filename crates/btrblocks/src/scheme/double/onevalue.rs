//! One Value for doubles: the whole block is a single bit pattern.

use crate::config::Config;
use crate::scratch::DecodeScratch;
use crate::writer::{Reader, WriteLe};
use crate::Result;

/// Payload: one `f64`.
pub fn compress(values: &[f64], out: &mut Vec<u8>) {
    // lint: allow(indexing) windows(2) yields exactly 2 elements
    debug_assert!(values.windows(2).all(|w| w[0].to_bits() == w[1].to_bits()));
    out.put_f64(values.first().copied().unwrap_or(0.0));
}

/// Reads the stored value: the one parser of this layout, shared by
/// [`decompress_into`] and the compressed-domain filter and aggregates.
pub fn read(r: &mut Reader<'_>) -> Result<f64> {
    r.f64()
}

/// Expands the stored value `count` times into `out`, reusing its capacity.
pub fn decompress_into(
    r: &mut Reader<'_>,
    count: usize,
    _cfg: &Config,
    _scratch: &mut DecodeScratch,
    out: &mut Vec<f64>,
) -> Result<()> {
    let v = read(r)?;
    out.clear();
    out.resize(count, v);
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::config::Config;
    use crate::scheme::testutil::{decode_double, encode_double};
    use crate::scheme::SchemeCode;

    #[test]
    fn roundtrip_including_nan() {
        for v in [0.0f64, -0.0, f64::NAN, 123.456] {
            let buf = encode_double(SchemeCode::OneValue, &vec![v; 1000]);
            assert_eq!(buf.len(), 5 + 8);
            let out = decode_double(&buf, &Config::default()).unwrap();
            assert!(out.len() == 1000 && out.iter().all(|x| x.to_bits() == v.to_bits()));
        }
    }
}

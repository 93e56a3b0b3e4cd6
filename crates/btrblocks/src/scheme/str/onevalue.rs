//! One Value for strings: the whole block is one repeated string.

use crate::config::Config;
use crate::scratch::DecodeScratch;
use crate::types::{StringArena, StringViews};
use crate::writer::{Reader, WriteLe};
use crate::Result;

/// Payload: `[len: u32][bytes]`.
pub fn compress(arena: &StringArena, out: &mut Vec<u8>) {
    let s: &[u8] = if arena.is_empty() { b"" } else { arena.get(0) };
    debug_assert!((0..arena.len()).all(|i| arena.get(i) == s));
    // lint: allow(cast) encode side: a single string is far smaller than 4 GiB
    out.put_u32(s.len() as u32);
    out.extend_from_slice(s);
}

/// Reads the stored string: the one parser of this layout, shared by
/// [`decompress_into`] and the compressed-domain filter.
pub(crate) fn read<'a>(r: &mut Reader<'a>) -> Result<&'a [u8]> {
    let len = r.u32()?;
    r.take(len as usize)
}

/// Expands the stored string `count` times into `out` (all views share one
/// pool entry), reusing its buffers.
pub fn decompress_into(
    r: &mut Reader<'_>,
    count: usize,
    _cfg: &Config,
    _scratch: &mut DecodeScratch,
    out: &mut StringViews,
) -> Result<()> {
    let bytes = read(r)?;
    // lint: allow(cast) bytes came off a u32 length field
    let len = bytes.len() as u32;
    out.pool.clear();
    out.pool.extend_from_slice(bytes);
    out.views.clear();
    out.views.resize(count, StringViews::pack(0, len));
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::config::Config;
    use crate::scheme::testutil::{decode_str, encode_str};
    use crate::scheme::SchemeCode;

    #[test]
    fn roundtrip() {
        let buf = encode_str(SchemeCode::OneValue, &["CABLE"; 100]);
        assert_eq!(buf.len(), 5 + 4 + 5);
        let out = decode_str(&buf, &Config::default()).unwrap();
        assert_eq!(out.len(), 100);
        assert!(out.iter().all(|s| s == b"CABLE"));
    }

    #[test]
    fn empty_string_block() {
        let out = decode_str(
            &encode_str(SchemeCode::OneValue, &["", ""]),
            &Config::default(),
        );
        assert!(out.unwrap().iter().all(|s| s.is_empty()));
    }
}

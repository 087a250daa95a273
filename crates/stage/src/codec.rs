//! Minimal little-endian byte codec shared by the artifact encoders.
//!
//! Stage artifacts are binary: floats travel as `f64::to_bits`, so an
//! encode/decode round trip is byte-exact (no decimal rendering in the
//! path), and every codec leads with an 8-byte magic so a mismatched
//! artifact fails loudly instead of decoding as garbage. This module
//! holds the one reader both the dataset and experiment codecs share.

/// Minimal little-endian reader over a byte slice.
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A reader positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { bytes, pos: 0 }
    }

    /// Consumes exactly `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| format!("artifact truncated at byte {}", self.pos))?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Consumes and checks an 8-byte magic.
    pub fn magic(&mut self, expected: &[u8; 8]) -> Result<(), String> {
        let got = self.take(8)?;
        if got != expected {
            return Err(format!(
                "artifact magic mismatch: expected {:?}, got {:?}",
                String::from_utf8_lossy(expected),
                String::from_utf8_lossy(got)
            ));
        }
        Ok(())
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads an `f64` from its bit pattern (exact).
    pub fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `u16`-length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, String> {
        let len = self.u16()? as usize;
        String::from_utf8(self.take(len)?.to_vec()).map_err(|e| format!("bad UTF-8: {e}"))
    }

    /// Asserts every byte was consumed — trailing garbage is corruption.
    pub fn finish(self) -> Result<(), String> {
        if self.pos != self.bytes.len() {
            return Err(format!(
                "artifact has {} trailing byte(s)",
                self.bytes.len() - self.pos
            ));
        }
        Ok(())
    }
}

/// Appends a `u16`-length-prefixed UTF-8 string.
///
/// # Panics
/// If `s` exceeds `u16::MAX` bytes.
pub fn push_string(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    assert!(
        bytes.len() <= u16::MAX as usize,
        "string too long to encode"
    );
    out.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
    out.extend_from_slice(bytes);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_primitives() {
        let mut out = Vec::new();
        out.extend_from_slice(b"TTTEST1\n");
        out.push(7);
        out.extend_from_slice(&0x1234u16.to_le_bytes());
        out.extend_from_slice(&0xdead_beefu32.to_le_bytes());
        out.extend_from_slice(&u64::MAX.to_le_bytes());
        out.extend_from_slice(&(-0.1f64).to_bits().to_le_bytes());
        push_string(&mut out, "héllo");

        let mut c = Cursor::new(&out);
        c.magic(b"TTTEST1\n").unwrap();
        assert_eq!(c.u8().unwrap(), 7);
        assert_eq!(c.u16().unwrap(), 0x1234);
        assert_eq!(c.u32().unwrap(), 0xdead_beef);
        assert_eq!(c.u64().unwrap(), u64::MAX);
        assert_eq!(c.f64().unwrap().to_bits(), (-0.1f64).to_bits());
        assert_eq!(c.string().unwrap(), "héllo");
        c.finish().unwrap();
    }

    #[test]
    fn truncation_and_trailing_bytes_error() {
        let mut c = Cursor::new(b"abc");
        assert!(c.take(4).is_err(), "over-read");

        let mut c = Cursor::new(b"abcd");
        c.take(2).unwrap();
        assert!(c.finish().is_err(), "trailing bytes");
    }

    #[test]
    fn magic_mismatch_is_loud() {
        let mut c = Cursor::new(b"TTWRONG\nrest");
        let err = c.magic(b"TTRIGHT\n").unwrap_err();
        assert!(err.contains("magic mismatch"), "{err}");
    }
}

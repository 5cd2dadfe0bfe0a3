//! Fixed-width key serialization and the CRC-32 every on-disk format in
//! this crate uses.
//!
//! Keys are encoded little-endian at a fixed width per type so snapshot
//! and WAL sections have predictable sizes (the reader can pre-validate
//! section lengths before touching content). The CRC is the standard
//! IEEE/zlib CRC-32 (reflected, polynomial `0xEDB88320`), computed
//! slicing-by-16 from sixteen `const`-built tables — no external
//! dependency, and the same values as the byte-at-a-time table.

/// A catalog key that can round-trip through the store's on-disk formats.
///
/// Implementations must be *total*: any `WIDTH`-byte string decodes to
/// `Some` value (integer keys satisfy this trivially), so a decode failure
/// always means a framing bug, not a key-value quirk — the store treats
/// `None` as corruption.
pub trait KeyCodec: Sized + Copy {
    /// Encoded width in bytes.
    const WIDTH: u32;

    /// Append the little-endian encoding of `self` to `out`.
    fn encode_key(&self, out: &mut Vec<u8>);

    /// Decode from exactly [`KeyCodec::WIDTH`] bytes; `None` on a length
    /// mismatch.
    fn decode_key(bytes: &[u8]) -> Option<Self>;
}

macro_rules! int_codec {
    ($($t:ty => $w:expr),* $(,)?) => {
        $(impl KeyCodec for $t {
            const WIDTH: u32 = $w;

            fn encode_key(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn decode_key(bytes: &[u8]) -> Option<Self> {
                Some(<$t>::from_le_bytes(bytes.try_into().ok()?))
            }
        })*
    };
}

int_codec!(i64 => 8, u64 => 8, i32 => 4, u32 => 4);

/// The slicing-by-16 CRC-32 tables (IEEE polynomial, reflected).
/// `CRC_TABLES[0]` is the classic byte-at-a-time table; `CRC_TABLES[k]`
/// advances a byte's contribution through `k` further zero bytes, so one
/// lookup per byte of a 16-byte block, XORed together, equals sixteen
/// byte-wise steps.
static CRC_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// IEEE CRC-32 of `bytes` (the zlib/`cksum -o3` convention), computed
/// slicing-by-16: one table lookup per byte of each 16-byte block, XORed
/// into a single step, then the tail byte by byte.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = u32::MAX;
    let mut blocks = bytes.chunks_exact(16);
    for b in &mut blocks {
        let mut block = [0u8; 16];
        block.copy_from_slice(b);
        let head = crc ^ u32::from_le_bytes([block[0], block[1], block[2], block[3]]);
        block[..4].copy_from_slice(&head.to_le_bytes());
        // Byte i of the block has 15 - i bytes after it to pass through.
        crc = block
            .iter()
            .zip(CRC_TABLES.iter().rev())
            .fold(0, |acc, (&byte, table)| acc ^ table[byte as usize]);
    }
    for &b in blocks.remainder() {
        crc = CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time CRC-32 the slicing tables must reproduce.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = u32::MAX;
        for &b in bytes {
            crc = CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    #[test]
    fn slicing_by_16_equals_the_bytewise_crc_at_every_length_and_offset() {
        let buf: Vec<u8> = (0..1_024 + 16u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for offset in 0..16 {
            for len in 0..=1_024 {
                let bytes = &buf[offset..offset + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "offset {offset}, length {len}"
                );
            }
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard test vectors for the IEEE CRC-32.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let base = b"fractional cascading".to_vec();
        let clean = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8u8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), clean, "flip at {byte}:{bit} undetected");
            }
        }
    }

    #[test]
    fn int_keys_round_trip() {
        let mut buf = Vec::new();
        for v in [i64::MIN, -1, 0, 1, i64::MAX] {
            buf.clear();
            v.encode_key(&mut buf);
            assert_eq!(buf.len() as u32, <i64 as KeyCodec>::WIDTH);
            assert_eq!(i64::decode_key(&buf), Some(v));
        }
        let mut buf = Vec::new();
        42u32.encode_key(&mut buf);
        assert_eq!(u32::decode_key(&buf), Some(42));
        assert_eq!(u32::decode_key(&buf[..3]), None, "short read is None");
    }
}

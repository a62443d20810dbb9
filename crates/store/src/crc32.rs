//! CRC-32 (IEEE 802.3, the `zlib`/`gzip` polynomial), slicing-by-8.
//!
//! Hermetic like the rest of the workspace: no external crate. The
//! reflected polynomial `0xEDB88320` guarantees any single-bit — and any
//! burst-of-≤32-bit — error in a WAL record payload is detected, which is
//! exactly the torn-write/bit-flip adversary the store defends against.
//!
//! The kernel consumes eight bytes per step through eight 256-entry
//! tables: `TABLES[0]` is the classic byte-at-a-time table, and
//! `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes. The
//! output is identical to the byte-at-a-time loop, which still handles
//! the final `len % 8` bytes.

const POLY: u32 = 0xEDB8_8320;

static TABLES: [[u32; 256]; 8] = tables();

const fn tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 of `bytes` (init `0xFFFF_FFFF`, final xor `0xFFFF_FFFF`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The byte-at-a-time reference: one bit of the polynomial division
    /// per inner step, no tables.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            }
        }
        crc ^ 0xFFFF_FFFF
    }

    /// The universal CRC-32 check value: crc32("123456789") = 0xCBF43926.
    #[test]
    fn known_answer_vectors() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn slicing_matches_reference_at_every_length_and_alignment() {
        let buf: Vec<u8> = (0..265u32).map(|i| (i.wrapping_mul(167) ^ (i >> 3)) as u8).collect();
        for start in 0..8 {
            for len in 0..=257 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn slicing_matches_reference_on_seeded_buffers() {
        for seed in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(0xC4C3_2000 + seed);
            let len = rng.gen_range(0..=64 * 1024usize);
            let buf: Vec<u8> = (0..len).map(|_| rng.gen::<u8>()).collect();
            assert_eq!(crc32(&buf), crc32_bitwise(&buf), "seed {seed} len {}", buf.len());
        }
    }

    #[test]
    fn any_single_bit_flip_changes_the_crc() {
        let payload = b"durable evidence of recursive diversity";
        let clean = crc32(payload);
        let mut buf = payload.to_vec();
        for i in 0..buf.len() {
            for bit in 0..8 {
                buf[i] ^= 1 << bit;
                assert_ne!(crc32(&buf), clean, "flip at byte {i} bit {bit} undetected");
                buf[i] ^= 1 << bit;
            }
        }
    }
}

//! xxHash — the `xxHash` entry of Table II and the paper's default function.
//!
//! Implements XXH64 (Yann Collet's specification) with an explicit seed, and
//! a derived 128-bit variant used by the `BF(XXH128)` baseline of Fig 14 and
//! by f-HABF's double hashing (Section III-G). The derived variant runs two
//! decorrelated XXH64 passes rather than the newer XXH3-128 algorithm; what
//! the paper relies on is only "a strong hash with 128 output bits whose two
//! halves can serve as independent functions", which two independently
//! seeded XXH64 passes provide (documented substitution, DESIGN.md §3).

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

#[inline]
fn round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

#[inline]
fn merge_round(acc: u64, val: u64) -> u64 {
    (acc ^ round(0, val)).wrapping_mul(P1).wrapping_add(P4)
}

#[inline]
fn le64(b: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(b[i..i + 8].try_into().expect("8 bytes"))
}

#[inline]
fn le32(b: &[u8], i: usize) -> u64 {
    u64::from(u32::from_le_bytes(b[i..i + 4].try_into().expect("4 bytes")))
}

/// XXH64 with an explicit seed.
#[must_use]
pub fn xxh64(key: &[u8], seed: u64) -> u64 {
    let len = key.len();
    let mut i = 0usize;
    let mut h: u64;

    if len >= 32 {
        let mut v1 = seed.wrapping_add(P1).wrapping_add(P2);
        let mut v2 = seed.wrapping_add(P2);
        let mut v3 = seed;
        let mut v4 = seed.wrapping_sub(P1);
        while i + 32 <= len {
            v1 = round(v1, le64(key, i));
            v2 = round(v2, le64(key, i + 8));
            v3 = round(v3, le64(key, i + 16));
            v4 = round(v4, le64(key, i + 24));
            i += 32;
        }
        h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        h = merge_round(h, v1);
        h = merge_round(h, v2);
        h = merge_round(h, v3);
        h = merge_round(h, v4);
    } else {
        h = seed.wrapping_add(P5);
    }

    h = h.wrapping_add(len as u64);

    while i + 8 <= len {
        h ^= round(0, le64(key, i));
        h = h.rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
        i += 8;
    }
    if i + 4 <= len {
        h ^= le32(key, i).wrapping_mul(P1);
        h = h.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
        i += 4;
    }
    while i < len {
        h ^= u64::from(key[i]).wrapping_mul(P5);
        h = h.rotate_left(11).wrapping_mul(P1);
        i += 1;
    }

    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^= h >> 32;
    h
}

/// The family member: XXH64 with seed 0.
#[must_use]
pub fn xxhash(key: &[u8]) -> u64 {
    xxh64(key, 0)
}

/// [`xxhash`] over four keys of one length under 32 bytes at once, in
/// lock-step: below 32 bytes XXH64 is one serial chain per key, and
/// stepping four chains together lets them overlap.
///
/// # Panics
/// Panics if the keys differ in length or are 32 bytes or longer.
#[must_use]
pub(crate) fn xxhash_x4(keys: [&[u8]; 4]) -> [u64; 4] {
    let len = keys[0].len();
    assert!(len < 32 && keys.iter().all(|k| k.len() == len));
    let mut h = [P5.wrapping_add(len as u64); 4];
    let mut i = 0usize;
    while i + 8 <= len {
        for (h, key) in h.iter_mut().zip(keys) {
            *h ^= round(0, le64(key, i));
            *h = h.rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
        }
        i += 8;
    }
    if i + 4 <= len {
        for (h, key) in h.iter_mut().zip(keys) {
            *h ^= le32(key, i).wrapping_mul(P1);
            *h = h.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
        }
        i += 4;
    }
    while i < len {
        for (h, key) in h.iter_mut().zip(keys) {
            *h ^= u64::from(key[i]).wrapping_mul(P5);
            *h = h.rotate_left(11).wrapping_mul(P1);
        }
        i += 1;
    }
    h.map(|mut h| {
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    })
}

/// A 128-bit hash built from two decorrelated XXH64 passes, returned as
/// `(low, high)`. `low == xxh64(key, seed)`.
#[must_use]
pub fn xxh128(key: &[u8], seed: u64) -> (u64, u64) {
    let lo = xxh64(key, seed);
    // The second pass is seeded from both the caller seed and the first
    // digest so the halves stay decorrelated even on adversarial inputs.
    let hi = xxh64(key, seed ^ P3 ^ lo.rotate_left(32));
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Published XXH64 vectors (xxHash specification / reference tests).
    #[test]
    fn xxh64_known_answers() {
        assert_eq!(xxh64(b"", 0), 0xEF46_DB37_51D8_E999);
        // Seeded vector from the xxHash reference test suite (PRIME32 seed).
        assert_eq!(xxh64(b"", 2_654_435_761), 0xAC75_FDA2_929B_17EF);
    }

    #[test]
    fn covers_all_length_classes() {
        // < 4, < 8, < 32, >= 32, multi-stripe: all must be distinct.
        let data: Vec<u8> = (0u8..96).collect();
        let mut seen = std::collections::HashSet::new();
        for len in [0usize, 1, 3, 4, 7, 8, 15, 31, 32, 33, 63, 64, 95] {
            assert!(seen.insert(xxh64(&data[..len], 0)), "len {len} collided");
        }
    }

    #[test]
    fn lockstep_kernel_equals_the_scalar_function() {
        let mut rng = habf_util::Xoshiro256::new(5);
        for len in 0..32 {
            let keys: Vec<Vec<u8>> = (0..4)
                .map(|_| (0..len).map(|_| rng.next_u32() as u8).collect())
                .collect();
            let lanes = [&keys[0][..], &keys[1][..], &keys[2][..], &keys[3][..]];
            assert_eq!(xxhash_x4(lanes), lanes.map(xxhash), "len {len}");
        }
    }

    #[test]
    fn seed_changes_output() {
        let k = b"seed sensitivity";
        assert_ne!(xxh64(k, 0), xxh64(k, 1));
        assert_ne!(xxh64(k, 1), xxh64(k, 2));
    }

    #[test]
    fn xxh128_halves_decorrelated() {
        let mut agree = 0usize;
        for i in 0..256u32 {
            let key = i.to_le_bytes();
            let (lo, hi) = xxh128(&key, 0);
            if lo & 1 == hi & 1 {
                agree += 1;
            }
        }
        // The low bits of the halves should agree about half the time.
        assert!(
            (64..=192).contains(&agree),
            "halves correlated: {agree}/256"
        );
    }

    #[test]
    fn avalanche_quality() {
        let a = xxh64(b"avalanche-probe-0", 0);
        let b = xxh64(b"avalanche-probe-1", 0);
        let flipped = (a ^ b).count_ones();
        assert!(
            (16..=48).contains(&flipped),
            "bad avalanche: {flipped} bits"
        );
    }
}

//! Classic multiplicative/rotational string hashes from Table II.
//!
//! These are the workhorse functions of the paper's global family: DJB,
//! NDJB, SDBM, BKDR, PJW, ELF, JSHash, RSHash, APHash, DEK, BRP, TWMX,
//! PYHash, OAAT and FNV. Each follows the classic published recurrence but
//! runs the accumulator in 64-bit arithmetic (the paper's family is used to
//! index bit arrays far larger than 2^32 on the YCSB dataset, and several of
//! these recurrences lose their high bits in 32-bit form).
//!
//! Deliberately, *no* avalanche finalizer is appended to the weaker
//! functions: the paper points out that a skewed hash function degrades a
//! standard Bloom filter while HABF's customization route around it
//! (Section I, Section V-H), so preserving each function's real distribution
//! is part of the behaviour under test.

/// DJB2 (Daniel J. Bernstein): `h = h * 33 + c`, seed 5381.
#[must_use]
pub fn djb2(key: &[u8]) -> u64 {
    let mut h: u64 = 5381;
    for &c in key {
        h = h.wrapping_mul(33).wrapping_add(u64::from(c));
    }
    h
}

/// NDJB ("new DJB", a.k.a. djb2a): `h = (h * 33) ^ c`, seed 5381.
#[must_use]
pub fn ndjb(key: &[u8]) -> u64 {
    let mut h: u64 = 5381;
    for &c in key {
        h = h.wrapping_mul(33) ^ u64::from(c);
    }
    h
}

/// SDBM (from the sdbm database library): `h = c + (h<<6) + (h<<16) - h`.
#[must_use]
pub fn sdbm(key: &[u8]) -> u64 {
    let mut h: u64 = 0;
    for &c in key {
        h = u64::from(c)
            .wrapping_add(h << 6)
            .wrapping_add(h << 16)
            .wrapping_sub(h);
    }
    h
}

/// BKDR (Brian Kernighan & Dennis Ritchie): `h = h * 131 + c`.
#[must_use]
pub fn bkdr(key: &[u8]) -> u64 {
    let mut h: u64 = 0;
    for &c in key {
        h = h.wrapping_mul(131).wrapping_add(u64::from(c));
    }
    h
}

/// PJW (Peter J. Weinberger, from the Dragon Book), 64-bit variant.
#[must_use]
pub fn pjw(key: &[u8]) -> u64 {
    const BITS: u32 = 64;
    const THREE_QUARTERS: u32 = BITS * 3 / 4; // 48
    const ONE_EIGHTH: u32 = BITS / 8; // 8
    const HIGH_BITS: u64 = !0u64 << (BITS - ONE_EIGHTH);
    let mut h: u64 = 0;
    for &c in key {
        h = (h << ONE_EIGHTH).wrapping_add(u64::from(c));
        let test = h & HIGH_BITS;
        if test != 0 {
            h = (h ^ (test >> THREE_QUARTERS)) & !HIGH_BITS;
        }
    }
    h
}

/// ELF (the UNIX ELF object-file hash; a PJW refinement).
#[must_use]
pub fn elf(key: &[u8]) -> u64 {
    let mut h: u64 = 0;
    for &c in key {
        h = (h << 4).wrapping_add(u64::from(c));
        let g = h & 0xF000_0000_0000_0000;
        if g != 0 {
            h ^= g >> 56;
        }
        h &= !g;
    }
    h
}

/// JSHash (Justin Sobel): `h ^= (h<<5) + c + (h>>2)`, seed 1315423911.
#[must_use]
pub fn jshash(key: &[u8]) -> u64 {
    let mut h: u64 = 1_315_423_911;
    for &c in key {
        h ^= (h << 5).wrapping_add(u64::from(c)).wrapping_add(h >> 2);
    }
    h
}

/// RSHash (Robert Sedgewick, from *Algorithms in C*).
#[must_use]
pub fn rshash(key: &[u8]) -> u64 {
    let b: u64 = 378_551;
    let mut a: u64 = 63_689;
    let mut h: u64 = 0;
    for &c in key {
        h = h.wrapping_mul(a).wrapping_add(u64::from(c));
        a = a.wrapping_mul(b);
    }
    h
}

/// APHash (Arash Partow): alternating xor/add rounds.
#[must_use]
pub fn aphash(key: &[u8]) -> u64 {
    let mut h: u64 = 0xAAAA_AAAA_AAAA_AAAA;
    for (i, &c) in key.iter().enumerate() {
        if i & 1 == 0 {
            h ^= (h << 7) ^ u64::from(c).wrapping_mul(h >> 3);
        } else {
            h ^= !((h << 11).wrapping_add(u64::from(c) ^ (h >> 5)));
        }
    }
    h
}

/// DEK (Donald E. Knuth, TAOCP vol. 3, section 6.4).
///
/// The published recurrence is a circular shift; `(h<<5) ^ (h>>27)` in the
/// common 32-bit listings *is* `rotate_left(5)`, so the 64-bit form keeps
/// the rotation rather than the literal shift pair.
#[must_use]
pub fn dek(key: &[u8]) -> u64 {
    let mut h: u64 = key.len() as u64;
    for &c in key {
        h = h.rotate_left(5) ^ u64::from(c);
    }
    h
}

/// BRP (Bruno R. Preiss, *Data Structures and Algorithms*).
#[must_use]
pub fn brp(key: &[u8]) -> u64 {
    let mut h: u64 = 0;
    for &c in key {
        h = (h << 7) ^ (h >> 57) ^ u64::from(c);
    }
    h
}

/// TWMX: byte-accumulation finished with Thomas Wang's 64-bit integer mix.
#[must_use]
pub fn twmx(key: &[u8]) -> u64 {
    // Accumulate bytes with a simple multiplicative fold, then apply Wang's
    // invertible 64-bit mix (the "TWMX" entry of the paper's collection).
    let mut h: u64 = 0;
    for &c in key {
        h = h.wrapping_mul(0x0100_0000_01B3).wrapping_add(u64::from(c));
    }
    wang_mix64(h)
}

/// Thomas Wang's 64-bit integer mix function.
#[must_use]
#[inline]
pub fn wang_mix64(mut key: u64) -> u64 {
    key = (!key).wrapping_add(key << 21);
    key ^= key >> 24;
    key = key.wrapping_add(key << 3).wrapping_add(key << 8);
    key ^= key >> 14;
    key = key.wrapping_add(key << 2).wrapping_add(key << 4);
    key ^= key >> 28;
    key = key.wrapping_add(key << 31);
    key
}

/// PYHash: CPython 2's string hash (`h = h*1000003 ^ c`, xor length).
#[must_use]
pub fn pyhash(key: &[u8]) -> u64 {
    if key.is_empty() {
        return 0;
    }
    let mut h: u64 = u64::from(key[0]) << 7;
    for &c in key {
        h = h.wrapping_mul(1_000_003) ^ u64::from(c);
    }
    h ^ key.len() as u64
}

/// OAAT: Bob Jenkins' one-at-a-time hash.
#[must_use]
pub fn oaat(key: &[u8]) -> u64 {
    let mut h: u64 = 0;
    for &c in key {
        h = h.wrapping_add(u64::from(c));
        h = h.wrapping_add(h << 10);
        h ^= h >> 6;
    }
    h = h.wrapping_add(h << 3);
    h ^= h >> 11;
    h = h.wrapping_add(h << 15);
    h
}

/// [`oaat`] over four keys of one length at once, in lock-step: each
/// byte step updates all four states, so the four per-byte dependency
/// chains overlap instead of running back to back.
///
/// # Panics
/// Panics if the keys differ in length.
#[must_use]
pub(crate) fn oaat_x4(keys: [&[u8]; 4]) -> [u64; 4] {
    let len = keys[0].len();
    let [a, b, c, d] = keys.map(|k| &k[..len]);
    assert!(b.len() == len && c.len() == len && d.len() == len);
    let mut h = [0u64; 4];
    for i in 0..len {
        for (h, &byte) in h.iter_mut().zip([a[i], b[i], c[i], d[i]].iter()) {
            *h = h.wrapping_add(u64::from(byte));
            *h = h.wrapping_add(*h << 10);
            *h ^= *h >> 6;
        }
    }
    h.map(|mut h| {
        h = h.wrapping_add(h << 3);
        h ^= h >> 11;
        h.wrapping_add(h << 15)
    })
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a, 64-bit.
#[must_use]
pub fn fnv1a(key: &[u8]) -> u64 {
    let mut h: u64 = FNV_OFFSET;
    for &c in key {
        h ^= u64::from(c);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// [`fnv1a`] over four keys of one length at once, in lock-step (see
/// [`oaat_x4`]).
///
/// # Panics
/// Panics if the keys differ in length.
#[must_use]
pub(crate) fn fnv1a_x4(keys: [&[u8]; 4]) -> [u64; 4] {
    let len = keys[0].len();
    let [a, b, c, d] = keys.map(|k| &k[..len]);
    assert!(b.len() == len && c.len() == len && d.len() == len);
    let mut h = [FNV_OFFSET; 4];
    for i in 0..len {
        for (h, &byte) in h.iter_mut().zip([a[i], b[i], c[i], d[i]].iter()) {
            *h = (*h ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a has well-known published vectors; check the 64-bit ones.
    #[test]
    fn fnv1a_known_answers() {
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a(b"foobar"), 0x85944171F73967E8);
    }

    /// Every lock-step kernel answers what its scalar function answers,
    /// lane by lane, at every length.
    #[test]
    fn lockstep_kernels_equal_their_scalar_functions() {
        let mut rng = habf_util::Xoshiro256::new(11);
        for len in 0..=64 {
            let keys: Vec<Vec<u8>> = (0..4)
                .map(|_| (0..len).map(|_| rng.next_u32() as u8).collect())
                .collect();
            let lanes = [&keys[0][..], &keys[1][..], &keys[2][..], &keys[3][..]];
            assert_eq!(fnv1a_x4(lanes), lanes.map(fnv1a), "fnv1a at {len}");
            assert_eq!(oaat_x4(lanes), lanes.map(oaat), "oaat at {len}");
        }
    }

    #[test]
    fn djb2_matches_recurrence() {
        // h("") = 5381; h("a") = 5381*33 + 97 = 177670.
        assert_eq!(djb2(b""), 5381);
        assert_eq!(djb2(b"a"), 177_670);
        assert_eq!(djb2(b"ab"), 177_670 * 33 + 98);
    }

    #[test]
    fn ndjb_differs_from_djb2() {
        assert_eq!(ndjb(b"a"), (5381 * 33) ^ 97);
        assert_ne!(ndjb(b"hello"), djb2(b"hello"));
    }

    #[test]
    fn dek_seeds_with_length() {
        // Same content, different implied length behaviour on empty input.
        assert_eq!(dek(b""), 0);
        assert_ne!(dek(b"a"), dek(b"b"));
    }

    #[test]
    fn pyhash_empty_is_zero_like_cpython() {
        assert_eq!(pyhash(b""), 0);
        // CPython 2 recurrence: h = (97 << 7); h = h*1000003 ^ 97; h ^= 1.
        let expect = ((97u64 << 7).wrapping_mul(1_000_003) ^ 97) ^ 1;
        assert_eq!(pyhash(b"a"), expect);
    }

    #[test]
    fn wang_mix_is_bijective_on_samples() {
        // Invertibility is hard to test directly; check no collisions on a
        // structured sample (sequential integers), where a broken mix would
        // typically collide.
        let mut seen = std::collections::HashSet::new();
        for i in 0u64..10_000 {
            assert!(seen.insert(wang_mix64(i)));
        }
    }

    #[test]
    fn all_classics_are_deterministic_and_disagree() {
        type NamedHash = (&'static str, fn(&[u8]) -> u64);
        let funcs: Vec<NamedHash> = vec![
            ("djb2", djb2),
            ("ndjb", ndjb),
            ("sdbm", sdbm),
            ("bkdr", bkdr),
            ("pjw", pjw),
            ("elf", elf),
            ("jshash", jshash),
            ("rshash", rshash),
            ("aphash", aphash),
            ("dek", dek),
            ("brp", brp),
            ("twmx", twmx),
            ("pyhash", pyhash),
            ("oaat", oaat),
            ("fnv1a", fnv1a),
        ];
        let key = b"http://example.com/path/to/resource?q=42";
        let mut values = std::collections::HashMap::new();
        for (name, f) in &funcs {
            let v = f(key);
            assert_eq!(v, f(key), "{name} not deterministic");
            if let Some(other) = values.insert(v, *name) {
                panic!("{name} and {other} collide on the probe key");
            }
        }
    }

    #[test]
    fn single_byte_sensitivity() {
        // Every function must distinguish at least these adjacent keys.
        let funcs: Vec<fn(&[u8]) -> u64> = vec![
            djb2, ndjb, sdbm, bkdr, pjw, elf, jshash, rshash, aphash, dek, brp, twmx, pyhash, oaat,
            fnv1a,
        ];
        for f in funcs {
            assert_ne!(f(b"key-000"), f(b"key-001"));
            assert_ne!(f(b"abc"), f(b"abd"));
        }
    }
}

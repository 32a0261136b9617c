//! The global hash family registry (paper Table II) and the `HashProvider`
//! abstraction shared by HABF and f-HABF.

use crate::{city, classic, crc32, lookup3, murmur, superfast, xxhash};
use habf_util::Xoshiro256;

/// Identifier of a hash function inside a family.
///
/// Ids are **1-based**: `0` is [`EMPTY_HASH_ID`], reserved so that an
/// all-zero HashExpressor cell means "empty" (paper Section III-C). With a
/// cell size of `α` bits, ids `1..=2^(α−1)−1` are addressable.
pub type HashId = u8;

/// The reserved "no function / empty cell" id.
pub const EMPTY_HASH_ID: HashId = 0;

/// Number of functions in the full Table II family.
pub const FAMILY_SIZE: usize = 22;

/// One member of the global family `H` (Table II of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // Variant names mirror Table II directly.
pub enum HashFunction {
    XxHash,
    CityHash,
    MurmurHash,
    SuperFast,
    Crc32,
    Fnv,
    Bob,
    Oaat,
    Dek,
    Hsieh,
    PyHash,
    Brp,
    Twmx,
    ApHash,
    Ndjb,
    Djb,
    Bkdr,
    Pjw,
    JsHash,
    RsHash,
    Sdbm,
    Elf,
}

impl HashFunction {
    /// All 22 family members in registry order.
    ///
    /// The first entries are the strongest functions; the default `H0`
    /// (initial functions) and small-cell configurations therefore draw
    /// from well-distributed hashes first, mirroring the paper's default
    /// of xxHash-class functions.
    pub const ALL: [HashFunction; FAMILY_SIZE] = [
        HashFunction::XxHash,
        HashFunction::CityHash,
        HashFunction::MurmurHash,
        HashFunction::Bob,
        HashFunction::SuperFast,
        HashFunction::Fnv,
        HashFunction::Oaat,
        HashFunction::Hsieh,
        HashFunction::Crc32,
        HashFunction::Twmx,
        HashFunction::Dek,
        HashFunction::PyHash,
        HashFunction::Brp,
        HashFunction::ApHash,
        HashFunction::Ndjb,
        HashFunction::Djb,
        HashFunction::Bkdr,
        HashFunction::Pjw,
        HashFunction::JsHash,
        HashFunction::RsHash,
        HashFunction::Sdbm,
        HashFunction::Elf,
    ];

    /// Position of this function in [`HashFunction::ALL`] — the stable
    /// integer persisted when a filter records a calibrated hash choice.
    #[must_use]
    pub fn registry_index(self) -> usize {
        Self::ALL
            .iter()
            .position(|&f| f == self)
            .expect("every function is registered")
    }

    /// Inverse of [`HashFunction::registry_index`]; `None` for an index
    /// outside the registry (a corrupt persisted image).
    #[must_use]
    pub fn from_registry_index(idx: usize) -> Option<Self> {
        Self::ALL.get(idx).copied()
    }

    /// Human-readable name matching Table II.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            HashFunction::XxHash => "xxHash",
            HashFunction::CityHash => "CityHash",
            HashFunction::MurmurHash => "MurmurHash",
            HashFunction::SuperFast => "SuperFast",
            HashFunction::Crc32 => "crc32",
            HashFunction::Fnv => "FNV",
            HashFunction::Bob => "BOB",
            HashFunction::Oaat => "OAAT",
            HashFunction::Dek => "DEK",
            HashFunction::Hsieh => "Hsieh",
            HashFunction::PyHash => "PYHash",
            HashFunction::Brp => "BRP",
            HashFunction::Twmx => "TWMX",
            HashFunction::ApHash => "APHash",
            HashFunction::Ndjb => "NDJB",
            HashFunction::Djb => "DJB",
            HashFunction::Bkdr => "BKDR",
            HashFunction::Pjw => "PJW",
            HashFunction::JsHash => "JSHash",
            HashFunction::RsHash => "RSHash",
            HashFunction::Sdbm => "SDBM",
            HashFunction::Elf => "ELF",
        }
    }

    /// Hashes `key` with this function.
    #[must_use]
    #[inline]
    pub fn hash(self, key: &[u8]) -> u64 {
        match self {
            HashFunction::XxHash => xxhash::xxhash(key),
            HashFunction::CityHash => city::city64(key),
            HashFunction::MurmurHash => murmur::murmur(key),
            HashFunction::SuperFast => superfast::superfast(key),
            HashFunction::Crc32 => crc32::crc32(key),
            HashFunction::Fnv => classic::fnv1a(key),
            HashFunction::Bob => lookup3::bob(key),
            HashFunction::Oaat => classic::oaat(key),
            HashFunction::Dek => classic::dek(key),
            HashFunction::Hsieh => superfast::hsieh(key),
            HashFunction::PyHash => classic::pyhash(key),
            HashFunction::Brp => classic::brp(key),
            HashFunction::Twmx => classic::twmx(key),
            HashFunction::ApHash => classic::aphash(key),
            HashFunction::Ndjb => classic::ndjb(key),
            HashFunction::Djb => classic::djb2(key),
            HashFunction::Bkdr => classic::bkdr(key),
            HashFunction::Pjw => classic::pjw(key),
            HashFunction::JsHash => classic::jshash(key),
            HashFunction::RsHash => classic::rshash(key),
            HashFunction::Sdbm => classic::sdbm(key),
            HashFunction::Elf => classic::elf(key),
        }
    }
}

/// Abstraction over "a collection of hash functions addressable by id".
///
/// HABF draws per-key subsets from a *real* [`HashFamily`]; f-HABF draws
/// them from a [`crate::double::SimulatedFamily`] that synthesizes members
/// by double hashing (paper Section III-G). Both implement this trait so
/// the core TPJO algorithm is written once. Providers are `Sync`, because
/// TPJO's member pass hashes disjoint key ranges on several threads.
pub trait HashProvider: Sync {
    /// Number of addressable functions; valid ids are `1..=len()`.
    fn len(&self) -> usize;

    /// `true` when no functions are addressable.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hashes `key` with function `id` (1-based).
    fn hash_id(&self, id: HashId, key: &[u8]) -> u64;

    /// Bloom position of `key` under function `id` for a table of `m` bits.
    #[inline]
    fn position(&self, id: HashId, key: &[u8], m: usize) -> usize {
        debug_assert!(m > 0);
        (self.hash_id(id, key) % m as u64) as usize
    }

    /// Positions of `key` under many ids at once, written into `out`
    /// (cleared first). Providers with shared per-key state (double
    /// hashing) override this to evaluate the base hash only once.
    fn positions_batch(&self, key: &[u8], ids: &[HashId], m: usize, out: &mut Vec<u32>) {
        out.clear();
        out.extend(ids.iter().map(|&id| self.position(id, key, m) as u32));
    }

    /// Positions of a block of keys under `ids`, key-major into `out`
    /// (cleared first): key `i`'s positions are
    /// `out[i·ids.len()..(i+1)·ids.len()]`, exactly what
    /// [`HashProvider::positions_batch`] gives for that key. This provided
    /// method calls it once per key; a provider whose functions are
    /// independent of each other overrides it to run one function over
    /// the whole block at a time.
    fn positions_block(&self, keys: &[&[u8]], ids: &[HashId], m: usize, out: &mut Vec<u32>) {
        out.clear();
        let mut one = Vec::with_capacity(ids.len());
        for key in keys {
            self.positions_batch(key, ids, m, &mut one);
            out.extend_from_slice(&one);
        }
    }
}

/// Hashes every key with `f`, handing `(key index, hash)` to `emit` in
/// key order. The three functions with a 4-key lock-step kernel take it
/// for every run of four keys of one length under 32 bytes; all other
/// keys and functions take the scalar function.
fn hash_each(f: HashFunction, keys: &[&[u8]], mut emit: impl FnMut(usize, u64)) {
    match f {
        HashFunction::XxHash => lockstep(keys, xxhash::xxhash_x4, xxhash::xxhash, emit),
        HashFunction::Fnv => lockstep(keys, classic::fnv1a_x4, classic::fnv1a, emit),
        HashFunction::Oaat => lockstep(keys, classic::oaat_x4, classic::oaat, emit),
        other => {
            for (i, key) in keys.iter().enumerate() {
                emit(i, other.hash(key));
            }
        }
    }
}

/// The run loop of [`hash_each`] for one kernel: four keys at a time
/// while the next four share a length under 32 bytes, one key through
/// `one` otherwise.
#[inline]
fn lockstep(
    keys: &[&[u8]],
    x4: impl Fn([&[u8]; 4]) -> [u64; 4],
    one: impl Fn(&[u8]) -> u64,
    mut emit: impl FnMut(usize, u64),
) {
    let mut i = 0;
    while i < keys.len() {
        if let Some(&[a, b, c, d]) = keys.get(i..i + 4) {
            let len = a.len();
            if len < 32 && b.len() == len && c.len() == len && d.len() == len {
                for (lane, h) in x4([a, b, c, d]).into_iter().enumerate() {
                    emit(i + lane, h);
                }
                i += 4;
                continue;
            }
        }
        emit(i, one(keys[i]));
        i += 1;
    }
}

/// The ordered global family `H` of the paper — a prefix of Table II.
#[derive(Clone, Debug)]
pub struct HashFamily {
    members: Vec<HashFunction>,
}

impl HashFamily {
    /// The full 22-function family.
    #[must_use]
    pub fn full() -> Self {
        Self {
            members: HashFunction::ALL.to_vec(),
        }
    }

    /// The first `n` functions of the registry (used when the HashExpressor
    /// cell width limits addressable ids to `2^(α−1)−1 < 22`).
    ///
    /// # Panics
    /// Panics if `n` is zero or exceeds [`FAMILY_SIZE`].
    #[must_use]
    pub fn with_size(n: usize) -> Self {
        assert!(
            (1..=FAMILY_SIZE).contains(&n),
            "family size {n} not in 1..={FAMILY_SIZE}"
        );
        Self {
            members: HashFunction::ALL[..n].to_vec(),
        }
    }

    /// The function behind a given id.
    ///
    /// # Panics
    /// Panics if `id` is 0 or out of range.
    #[must_use]
    pub fn function(&self, id: HashId) -> HashFunction {
        assert!(id != EMPTY_HASH_ID, "id 0 is the reserved empty marker");
        self.members[usize::from(id) - 1]
    }

    /// Iterates over all valid ids, `1..=len()`.
    pub fn ids(&self) -> impl Iterator<Item = HashId> {
        (1..=self.members.len() as u8).map(|i| i as HashId)
    }

    /// Draws `k` distinct ids uniformly at random — the paper's initial
    /// hash-function set `H0` (Section III-B: "we randomly choose a set of
    /// hash functions as the initial hash functions from H").
    ///
    /// # Panics
    /// Panics if `k > len()`.
    #[must_use]
    pub fn choose_h0(&self, k: usize, rng: &mut Xoshiro256) -> Vec<HashId> {
        assert!(k <= self.members.len(), "k {k} exceeds family size");
        rng.distinct_indices(k, self.members.len())
            .into_iter()
            .map(|i| (i + 1) as HashId)
            .collect()
    }
}

impl HashProvider for HashFamily {
    #[inline]
    fn len(&self) -> usize {
        self.members.len()
    }

    #[inline]
    fn hash_id(&self, id: HashId, key: &[u8]) -> u64 {
        debug_assert!(id != EMPTY_HASH_ID, "hashing with the empty id");
        self.members[usize::from(id) - 1].hash(key)
    }

    /// Function-major: each id's function runs over the whole block
    /// before the next one starts, with its dispatch resolved once per
    /// block, and the keys of a block are independent, so a core overlaps
    /// them instead of waiting on one key's hash chain at a time.
    fn positions_block(&self, keys: &[&[u8]], ids: &[HashId], m: usize, out: &mut Vec<u32>) {
        debug_assert!(m > 0);
        let k = ids.len();
        out.clear();
        out.resize(keys.len() * k, 0);
        for (j, &id) in ids.iter().enumerate() {
            debug_assert!(id != EMPTY_HASH_ID, "hashing with the empty id");
            hash_each(self.members[usize::from(id) - 1], keys, |i, h| {
                out[i * k + j] = (h % m as u64) as u32;
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_family_has_22_distinct_named_members() {
        let family = HashFamily::full();
        assert_eq!(HashProvider::len(&family), FAMILY_SIZE);
        let names: std::collections::HashSet<&str> =
            HashFunction::ALL.iter().map(|f| f.name()).collect();
        assert_eq!(names.len(), FAMILY_SIZE);
    }

    #[test]
    fn members_disagree_pairwise_on_probe_keys() {
        let family = HashFamily::full();
        let keys: [&[u8]; 3] = [b"probe-1", b"http://a.example/x", b"user4411023456789"];
        for a in family.ids() {
            for b in family.ids() {
                if a >= b {
                    continue;
                }
                // Two distinct family members must differ on at least one probe.
                let differs = keys
                    .iter()
                    .any(|k| family.hash_id(a, k) != family.hash_id(b, k));
                assert!(
                    differs,
                    "{} and {} agree on all probes",
                    family.function(a).name(),
                    family.function(b).name()
                );
            }
        }
    }

    #[test]
    fn with_size_takes_prefix() {
        let family = HashFamily::with_size(7);
        assert_eq!(HashProvider::len(&family), 7);
        assert_eq!(family.function(1), HashFunction::XxHash);
        assert_eq!(family.function(7), HashFunction::Oaat);
    }

    #[test]
    #[should_panic(expected = "not in 1..=")]
    fn with_size_zero_panics() {
        let _ = HashFamily::with_size(0);
    }

    #[test]
    fn choose_h0_draws_distinct_valid_ids() {
        let family = HashFamily::with_size(7);
        let mut rng = Xoshiro256::new(99);
        for _ in 0..50 {
            let h0 = family.choose_h0(3, &mut rng);
            assert_eq!(h0.len(), 3);
            let set: std::collections::HashSet<HashId> = h0.iter().copied().collect();
            assert_eq!(set.len(), 3);
            assert!(h0.iter().all(|&id| (1..=7).contains(&id)));
        }
    }

    #[test]
    fn position_is_in_range() {
        let family = HashFamily::full();
        for id in family.ids() {
            let p = family.position(id, b"range probe", 1000);
            assert!(p < 1000);
        }
    }

    /// Keys of every length in 0..=64, in blocks that mix lengths, that
    /// hold runs of one length (the kernels' case), and whose sizes are
    /// not multiples of 4.
    fn blocks() -> Vec<Vec<Vec<u8>>> {
        let mut rng = Xoshiro256::new(3);
        let mut bytes =
            |len: usize| -> Vec<u8> { (0..len).map(|_| rng.next_u32() as u8).collect() };
        let mut blocks = vec![Vec::new()];
        blocks.push((0..=64).map(&mut bytes).collect());
        for len in 0..=64 {
            blocks.push((0..4).map(|_| bytes(len)).collect());
        }
        // Runs of five keys per length: kernels and single keys alternate.
        blocks.push((0..150).map(|i| bytes(i / 5)).collect());
        for size in [1, 2, 3, 5, 7, 9, 255, 257] {
            blocks.push((0..size).map(|_| bytes(12)).collect());
            blocks.push((0..size).map(|i| bytes(10 + i % 3)).collect());
        }
        blocks
    }

    fn block_equals_per_key(provider: &impl HashProvider, ids: &[HashId]) {
        let m = 1_000_003;
        let mut got = Vec::new();
        let mut one = Vec::new();
        for block in blocks() {
            let keys: Vec<&[u8]> = block.iter().map(Vec::as_slice).collect();
            provider.positions_block(&keys, ids, m, &mut got);
            let mut want = Vec::new();
            for key in &keys {
                provider.positions_batch(key, ids, m, &mut one);
                want.extend_from_slice(&one);
            }
            assert_eq!(got, want, "block of {} keys under {ids:?}", keys.len());
        }
    }

    #[test]
    fn positions_block_equals_per_key_positions_batch() {
        let seven = HashFamily::with_size(7);
        block_equals_per_key(&seven, &[1, 6, 7]);
        block_equals_per_key(&seven, &[2, 3, 4, 5]);
        let full = HashFamily::full();
        block_equals_per_key(&full, &full.ids().collect::<Vec<_>>());
        block_equals_per_key(&crate::double::SimulatedFamily::new(7, 9), &[1, 4, 7]);
    }

    #[test]
    #[should_panic(expected = "reserved empty marker")]
    fn function_zero_panics() {
        let _ = HashFamily::full().function(EMPTY_HASH_ID);
    }
}

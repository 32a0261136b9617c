//! Block-partitioned HABF: the cache-line Bloom layout applied to the
//! HABF bit layer.
//!
//! A standard HABF query probes `k` positions scattered across the whole
//! Bloom array — up to `k` cache misses before the HashExpressor is even
//! consulted. [`BlockedHabf`] constrains every position of a key (both
//! the `H0` round and any customized round-2 subset) to one 512-bit
//! block selected by a single base hash, so the entire bit-layer part of
//! a query touches one cache line.
//!
//! [`BlockedHabf`] is the one HABF type, [`crate::habf::HabfOver`], over
//! the hashing [`BlockedFamily`]: same TPJO construction, same
//! HashExpressor, same two-round query. The blocking lives in the
//! family, which wraps the Table II [`HashFamily`] as a [`HashProvider`]
//! whose [`HashProvider::position`] is blockified **only for the Bloom
//! range** (`range == m`). Everything else is untouched:
//!
//! * TPJO computes positions exclusively through `position` /
//!   `positions_batch` with `m`, so the optimizer "sees" the blocked
//!   layout natively — build and query agree, and the zero-FNR argument
//!   of the unblocked filter carries over verbatim.
//! * The HashExpressor addresses its cells by `hash_id % ω`, which the
//!   wrapper delegates to the inner family — chain storage and retrieval
//!   are byte-identical to an unblocked HABF.
//! * A query binds the key to its block start once; both rounds probe
//!   offsets inside that block.
//!
//! The block-selector hash is chosen at build time by
//! [`habf_hashing::calibrate::calibrate`] (adaptive hashing: the cheapest family
//! member whose raw collision count on a key sample matches the
//! strongest candidate's) and persisted in the image — kind 2 of the
//! HABF codec, with the `sim_seed` slot packing the selector's
//! registry index alongside the 56-bit block seed — so a reloaded filter
//! probes identically.

use crate::habf::{HabfConfig, HabfOver};
use crate::hashing::Hashing;
use crate::persist::PersistError;
use habf_filters::blocked_bloom::BLOCK_BITS;
use habf_hashing::classic::wang_mix64;
use habf_hashing::{calibrate, HashFamily, HashFunction, HashId, HashProvider};

/// The 56 low bits of the packed `sim_seed` slot hold the block seed;
/// the top byte holds the selector's registry index.
const SEED_MASK: u64 = 0x00FF_FFFF_FFFF_FFFF;

/// A [`HashProvider`] that blockifies the Bloom positions of an inner
/// [`HashFamily`]: for the Bloom range `m`, a calibrated selector hash
/// picks one 512-bit block and every family member lands inside it; for
/// any other range (and for raw [`HashProvider::hash_id`] — the
/// HashExpressor's cell addressing) the wrapper is transparent.
#[derive(Clone, Debug)]
pub struct BlockedFamily {
    inner: HashFamily,
    m: usize,
    selector: HashFunction,
    seed: u64,
}

impl BlockedFamily {
    /// Wraps `inner` with a blocked layout over `m` Bloom bits.
    ///
    /// # Panics
    /// Panics if `m` is zero or not a whole number of 512-bit blocks.
    #[must_use]
    pub fn new(inner: HashFamily, m: usize, selector: HashFunction, seed: u64) -> Self {
        assert!(
            m > 0 && m % BLOCK_BITS == 0,
            "blocked Bloom range must span whole 512-bit blocks"
        );
        Self {
            inner,
            m,
            selector,
            seed: seed & SEED_MASK,
        }
    }

    /// The blockified Bloom range in bits.
    #[must_use]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Number of 512-bit blocks.
    #[must_use]
    pub fn blocks(&self) -> usize {
        self.m / BLOCK_BITS
    }

    /// The calibrated block-selector hash.
    #[must_use]
    pub fn selector(&self) -> HashFunction {
        self.selector
    }

    /// The 56-bit seed mixed into the selector hash.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// First bit of the block `key` maps to (mixed selector hash,
    /// multiply-shift range reduction — one evaluation covers all of a
    /// key's probes).
    #[inline]
    #[must_use]
    pub fn block_start(&self, key: &[u8]) -> usize {
        let h = wang_mix64(self.selector.hash(key) ^ self.seed);
        (((h as u128) * (self.blocks() as u128)) >> 64) as usize * BLOCK_BITS
    }

    /// In-block bit offset of `key` under family member `id`. The inner
    /// hash is post-mixed so weak low bits of the classic functions
    /// cannot alias across ids.
    #[inline]
    #[must_use]
    pub fn offset(&self, id: HashId, key: &[u8]) -> usize {
        (wang_mix64(self.inner.hash_id(id, key)) & (BLOCK_BITS as u64 - 1)) as usize
    }
}

impl HashProvider for BlockedFamily {
    #[inline]
    fn len(&self) -> usize {
        HashProvider::len(&self.inner)
    }

    #[inline]
    fn hash_id(&self, id: HashId, key: &[u8]) -> u64 {
        self.inner.hash_id(id, key)
    }

    #[inline]
    fn position(&self, id: HashId, key: &[u8], m: usize) -> usize {
        if m == self.m {
            self.block_start(key) + self.offset(id, key)
        } else {
            self.inner.position(id, key, m)
        }
    }

    fn positions_batch(&self, key: &[u8], ids: &[HashId], m: usize, out: &mut Vec<u32>) {
        if m == self.m {
            out.clear();
            // One selector evaluation for the whole id set.
            let start = self.block_start(key) as u32;
            out.extend(ids.iter().map(|&id| start + self.offset(id, key) as u32));
        } else {
            self.inner.positions_batch(key, ids, m, out);
        }
    }
}

/// The Hash Adaptive Bloom Filter over a block-partitioned bit layer:
/// every key's Bloom probes share one cache line.
pub type BlockedHabf = HabfOver<BlockedFamily>;

impl Hashing for BlockedFamily {
    const KIND: u8 = 2;
    const ID: &'static str = "blocked-habf";
    const NAME: &'static str = "BlockedHABF";
    const GAMMA: bool = true;
    type Bound<'a> = crate::hashing::BlockBound<'a>;

    /// Calibrates the block selector on the positive keys and rounds the
    /// Bloom share of the budget down to whole blocks (one-block floor).
    fn for_config<K: AsRef<[u8]>>(positives: &[K], config: &HabfConfig) -> (Self, usize) {
        let (inner, m) = HashFamily::for_config(positives, config);
        let m = (m / BLOCK_BITS).max(1) * BLOCK_BITS;
        let selector = calibrate::calibrate(positives, 0).chosen;
        (Self::new(inner, m, selector, config.seed), m)
    }

    /// Validates the blocked extras the shared codec does not know about:
    /// the selector index must name a registered hash and the Bloom array
    /// must span whole blocks.
    fn from_image(size: usize, sim_seed: u64, m: usize) -> Result<Self, PersistError> {
        let selector = usize::try_from(sim_seed >> 56)
            .ok()
            .and_then(HashFunction::from_registry_index)
            .ok_or(PersistError::Corrupt("unknown block-selector hash"))?;
        if m == 0 || m % BLOCK_BITS != 0 {
            return Err(PersistError::Corrupt(
                "blocked Bloom array not whole 512-bit blocks",
            ));
        }
        let inner = HashFamily::from_image(size, 0, m)?;
        Ok(Self::new(inner, m, selector, sim_seed))
    }

    /// `selector registry index << 56 | block seed`.
    fn sim_seed(&self) -> u64 {
        ((self.selector.registry_index() as u64) << 56) | self.seed
    }

    #[inline]
    fn bind<'a>(&'a self, key: &[u8]) -> Self::Bound<'a> {
        crate::hashing::BlockBound {
            family: self,
            start: self.block_start(key),
        }
    }

    /// The key's block: one line holds every probe of both rounds.
    #[inline]
    fn plan_line(&self, key: &[u8]) -> Option<usize> {
        Some(self.block_start(key))
    }

    #[inline]
    fn bind_line(&self, start: usize) -> Option<Self::Bound<'_>> {
        Some(crate::hashing::BlockBound {
            family: self,
            start,
        })
    }

    fn metadata(&self) -> Vec<(&'static str, String)> {
        vec![
            ("blocks (512-bit)", self.blocks().to_string()),
            ("block selector", self.selector.name().to_string()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist;
    use crate::{BatchQuery, Habf};
    use habf_filters::Filter;

    fn keys(n: usize, tag: &str) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("{tag}:{i}").into_bytes()).collect()
    }

    fn costed(n: usize, tag: &str) -> Vec<(Vec<u8>, f64)> {
        keys(n, tag)
            .into_iter()
            .enumerate()
            .map(|(i, k)| (k, 1.0 + (i % 7) as f64))
            .collect()
    }

    fn config(total_bits: usize) -> HabfConfig {
        HabfConfig::with_total_bits(total_bits)
    }

    #[test]
    fn zero_false_negatives() {
        let pos = keys(3_000, "pos");
        let neg = costed(3_000, "neg");
        let f = BlockedHabf::build(&pos, &neg, &config(3_000 * 10));
        for k in &pos {
            assert!(f.contains(k), "blocked HABF dropped a member");
        }
    }

    #[test]
    fn bloom_range_is_whole_blocks() {
        let pos = keys(1_000, "pos");
        let neg = costed(100, "neg");
        let f = BlockedHabf::build(&pos, &neg, &config(1_000 * 10));
        assert_eq!(f.family().m() % BLOCK_BITS, 0);
        assert!(f.family().blocks() >= 1);
        assert!(
            f.space_bits() <= 1_000 * 10,
            "blockifying must not grow the budget"
        );
    }

    #[test]
    fn provider_is_transparent_off_the_bloom_range() {
        // The HashExpressor addresses cells through hash_id and through
        // position with range != m; both must match the inner family.
        let inner = HashFamily::with_size(7);
        let blocked = BlockedFamily::new(inner.clone(), 1024, HashFunction::XxHash, 7);
        for id in 1..=7u8 {
            assert_eq!(blocked.hash_id(id, b"probe"), inner.hash_id(id, b"probe"));
            assert_eq!(
                blocked.position(id, b"probe", 999),
                inner.position(id, b"probe", 999)
            );
        }
        // On the Bloom range every id lands in the same block.
        let block = blocked.position(1, b"probe", 1024) / BLOCK_BITS;
        for id in 2..=7u8 {
            assert_eq!(blocked.position(id, b"probe", 1024) / BLOCK_BITS, block);
        }
    }

    #[test]
    fn positions_batch_matches_position() {
        let blocked = BlockedFamily::new(HashFamily::with_size(7), 2048, HashFunction::Djb, 3);
        let ids: Vec<HashId> = (1..=7).collect();
        let mut out = Vec::new();
        for m in [2048usize, 999] {
            blocked.positions_batch(b"batch probe", &ids, m, &mut out);
            let scalar: Vec<u32> = ids
                .iter()
                .map(|&id| blocked.position(id, b"batch probe", m) as u32)
                .collect();
            assert_eq!(out, scalar, "m={m}");
        }
    }

    #[test]
    fn fpr_within_blocked_penalty_of_unblocked() {
        let pos = keys(4_000, "member");
        let neg = costed(4_000, "neg");
        let fresh = keys(20_000, "fresh");
        let cfg = config(4_000 * 12);
        let blocked = BlockedHabf::build(&pos, &neg, &cfg);
        let standard = Habf::build(&pos, &neg, &cfg);
        let count = |f: &dyn Filter| fresh.iter().filter(|k| f.contains(k)).count();
        let (b, s) = (count(&blocked), count(&standard));
        let (b_rate, s_rate) = (b as f64 / fresh.len() as f64, s as f64 / fresh.len() as f64);
        assert!(
            b_rate <= s_rate * 2.5 + 0.01,
            "blocked FPR {b_rate:.4} too far above standard {s_rate:.4}"
        );
    }

    #[test]
    fn batch_agrees_with_scalar_with_and_without_prefetch() {
        let pos = keys(2_000, "in");
        let neg = costed(2_000, "neg");
        let f = BlockedHabf::build(&pos, &neg, &config(2_000 * 10));
        let mixed: Vec<Vec<u8>> = keys(400, "in")
            .into_iter()
            .chain(keys(400, "neg"))
            .chain(keys(400, "stranger"))
            .collect();
        let refs: Vec<&[u8]> = mixed.iter().map(Vec::as_slice).collect();
        let scalar: Vec<bool> = refs.iter().map(|k| f.contains(k)).collect();
        let on = f.contains_batch(&refs);
        let off = {
            let _prefetch_off = habf_util::prefetch::scoped(false);
            f.contains_batch(&refs)
        };
        assert_eq!(scalar, on);
        assert_eq!(scalar, off);
    }

    #[test]
    fn bytes_roundtrip_preserves_answers_and_selector() {
        let pos = keys(1_500, "pos");
        let neg = costed(1_500, "neg");
        let f = BlockedHabf::build(&pos, &neg, &config(1_500 * 10));
        let image = crate::DynFilter::to_container_bytes(&f);
        let g = crate::registry::load(&image).expect("roundtrip").filter;
        // The selector and block seed ride in the image: byte-identical
        // re-encoding means they survived.
        assert_eq!(g.to_container_bytes(), image);
        for k in pos.iter().chain(keys(500, "other").iter()) {
            assert_eq!(f.contains(k), g.contains(k));
        }
    }

    #[test]
    fn corrupt_selector_index_is_a_typed_error() {
        let pos = keys(200, "pos");
        let neg = costed(50, "neg");
        let f = BlockedHabf::build(&pos, &neg, &config(200 * 12));
        let mut bytes = crate::DynFilter::to_container_bytes(&f);
        // sim_seed lives after meta_len(8) kind(1) k(1) cell_bits(1)
        // h0_len(1) h0(k) family(8) in the payload; poison its top byte.
        let payload = persist::decode_container(&bytes)
            .expect("container")
            .payload_offset;
        let off = payload + 12 + f.h0().len() + 8 + 7;
        bytes[off] = 0xFF;
        assert!(matches!(
            crate::registry::load(&bytes).err(),
            Some(PersistError::Corrupt("unknown block-selector hash"))
        ));
    }

    #[test]
    fn rebuild_keeps_geometry_and_selector() {
        let pos = keys(1_000, "pos");
        let neg = costed(1_000, "neg");
        let mut f = BlockedHabf::build(&pos, &neg, &config(1_000 * 10));
        let (space, blocks, selector) =
            (f.space_bits(), f.family().blocks(), f.family().selector());
        let mined = costed(400, "mined");
        f.rebuild(&pos, &mined, 7);
        assert_eq!(f.space_bits(), space);
        assert_eq!(f.family().blocks(), blocks);
        assert_eq!(f.family().selector(), selector);
        for k in &pos {
            assert!(f.contains(k), "member dropped by rebuild");
        }
        let pruned = mined.iter().filter(|(k, _)| !f.contains(k)).count();
        assert!(pruned > 300, "only {pruned}/400 mined misses pruned");
    }

    #[test]
    #[should_panic(expected = "cell_bits must be in 2..=16")]
    fn build_panics_cleanly_on_bad_config() {
        let pos = keys(10, "p");
        let neg: Vec<(Vec<u8>, f64)> = vec![];
        let mut cfg = config(1_000);
        cfg.cell_bits = 1;
        let _ = BlockedHabf::build(&pos, &neg, &cfg);
    }
}

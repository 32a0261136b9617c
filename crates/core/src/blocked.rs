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
//! The trick is *where* the blocking lives: [`BlockedFamily`] wraps the
//! Table II [`HashFamily`] as a [`HashProvider`] whose
//! [`HashProvider::position`] is blockified **only for the Bloom range**
//! (`range == m`). Everything else is untouched:
//!
//! * TPJO computes positions exclusively through `position` /
//!   `positions_batch` with `m`, so the optimizer "sees" the blocked
//!   layout natively — build and query agree, and the zero-FNR argument
//!   of the unblocked filter carries over verbatim.
//! * The HashExpressor addresses its cells by `hash_id % ω`, which the
//!   wrapper delegates to the inner family — chain storage and retrieval
//!   are byte-identical to an unblocked HABF.
//!
//! The block-selector hash is chosen at build time by
//! [`habf_hashing::calibrate::calibrate`] (adaptive hashing: the cheapest family
//! member whose raw collision count on a key sample matches the
//! strongest candidate's) and persisted in the image — kind 2 of the
//! HABF-family codec, with the `sim_seed` slot packing the selector's
//! registry index alongside the 56-bit block seed — so a reloaded filter
//! probes identically.

use crate::hash_expressor::HashExpressor;
use crate::persist::{self, Decoded, PersistError};
use crate::tpjo::{self, BuildStats, TpjoConfig};
use crate::HabfConfig;
use habf_filters::blocked_bloom::BLOCK_BITS;
use habf_filters::Filter;
use habf_hashing::classic::wang_mix64;
use habf_hashing::{calibrate, HashFamily, HashFunction, HashId, HashProvider};
use habf_util::{Backing, BitVec};

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

    /// The wrapped Table II family prefix.
    #[must_use]
    pub fn inner(&self) -> &HashFamily {
        &self.inner
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

/// Rounds a Bloom budget down to whole 512-bit blocks, with a one-block
/// floor so degenerate budgets stay constructible.
#[must_use]
fn blockify(m: usize) -> usize {
    (m / BLOCK_BITS).max(1) * BLOCK_BITS
}

/// The Hash Adaptive Bloom Filter over a block-partitioned bit layer:
/// same TPJO construction, same HashExpressor, same two-round query —
/// but every key's Bloom probes share one cache line.
#[derive(Clone)]
pub struct BlockedHabf {
    bloom: BitVec,
    he: HashExpressor,
    h0: Vec<HashId>,
    family: BlockedFamily,
    stats: BuildStats,
}

impl BlockedHabf {
    /// Builds a blocked HABF: calibrates the block selector on the
    /// positive keys, blockifies the Bloom share of the budget, and runs
    /// the full TPJO optimization against the blocked provider.
    ///
    /// # Panics
    /// Panics on a degenerate configuration (see [`HabfConfig::validate`]).
    #[must_use]
    pub fn build(
        positives: &[impl AsRef<[u8]> + Sync],
        negatives: &[(impl AsRef<[u8]>, f64)],
        config: &HabfConfig,
    ) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid HabfConfig: {e}");
        }
        let selector = calibrate::calibrate(positives, 0).chosen;
        Self::build_with(positives, negatives, config, selector)
    }

    /// Builds with an explicit block selector (used by tests and by
    /// calibration studies; [`BlockedHabf::build`] calibrates).
    ///
    /// # Panics
    /// Panics on a degenerate configuration.
    #[must_use]
    pub fn build_with(
        positives: &[impl AsRef<[u8]> + Sync],
        negatives: &[(impl AsRef<[u8]>, f64)],
        config: &HabfConfig,
        selector: HashFunction,
    ) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid HabfConfig: {e}");
        }
        let (m, omega) = config.split();
        let m = blockify(m);
        let family = BlockedFamily::new(
            HashFamily::with_size(config.usable_hashes()),
            m,
            selector,
            config.seed,
        );
        let cfg = TpjoConfig {
            k: config.k,
            m,
            omega,
            cell_bits: config.cell_bits,
            use_gamma: true,
            requeue_cap: config.requeue_cap,
            seed: config.seed,
            enable_class_c: true,
            overlap_tiebreak: true,
        };
        let out = tpjo::run(positives, negatives, &family, &cfg);
        Self {
            bloom: out.bloom,
            he: out.he,
            h0: out.h0,
            family,
            stats: out.stats,
        }
    }

    /// The initial hash-function ids `H0`.
    #[must_use]
    pub fn h0(&self) -> &[HashId] {
        &self.h0
    }

    /// Optimizer counters.
    #[must_use]
    pub fn stats(&self) -> &BuildStats {
        &self.stats
    }

    /// The blocked provider (selector, seed, block geometry).
    #[must_use]
    pub fn family(&self) -> &BlockedFamily {
        &self.family
    }

    /// Number of 512-bit Bloom blocks.
    #[must_use]
    pub fn blocks(&self) -> usize {
        self.family.blocks()
    }

    /// The HashExpressor occupancy `t` (chains stored).
    #[must_use]
    pub fn expressor_entries(&self) -> usize {
        self.he.inserted()
    }

    /// Bloom-array fill ratio after optimization.
    #[must_use]
    pub fn fill_ratio(&self) -> f64 {
        self.bloom.fill_ratio()
    }

    /// Where this filter's payload words live (see `Habf::backing`).
    #[must_use]
    pub fn backing(&self) -> Backing {
        self.bloom.backing().combine(self.he.cells().backing())
    }

    /// The §III-F FPR envelope at the final load (the blocked layout adds
    /// a small Poisson-imbalance penalty on top).
    #[must_use]
    pub fn fpr_envelope(&self) -> f64 {
        let rho = self.bloom.fill_ratio();
        let f_star = rho.powi(self.h0.len() as i32);
        crate::theory::habf_fpr_envelope(f_star, self.he.inserted(), self.he.omega())
    }

    /// Re-runs TPJO at this filter's exact geometry (see `Habf::rebuild`).
    /// The calibrated selector is part of the geometry and is preserved.
    pub fn rebuild(
        &mut self,
        positives: &[impl AsRef<[u8]> + Sync],
        negatives: &[(impl AsRef<[u8]>, f64)],
        seed: u64,
    ) {
        *self = self.rebuilt_from(positives, negatives, seed);
    }

    /// [`BlockedHabf::rebuild`] into a fresh filter (see
    /// `Habf::rebuilt_from`).
    #[must_use]
    pub fn rebuilt_from(
        &self,
        positives: &[impl AsRef<[u8]> + Sync],
        negatives: &[(impl AsRef<[u8]>, f64)],
        seed: u64,
    ) -> Self {
        let cfg = TpjoConfig {
            k: self.h0.len(),
            m: self.bloom.len(),
            omega: self.he.omega(),
            cell_bits: self.he.cell_bits(),
            use_gamma: true,
            requeue_cap: 3,
            seed,
            enable_class_c: true,
            overlap_tiebreak: true,
        };
        let out = tpjo::run(positives, negatives, &self.family, &cfg);
        Self {
            bloom: out.bloom,
            he: out.he,
            h0: out.h0,
            family: self.family.clone(),
            stats: out.stats,
        }
    }

    /// Issues a prefetch for the one cache line `key`'s Bloom probes
    /// live in (the batch pipeline's phase-1 call).
    #[inline]
    pub fn prefetch_key(&self, key: &[u8]) {
        self.bloom.prefetch_bit(self.family.block_start(key));
    }

    #[inline]
    fn round1_at(&self, start: usize, key: &[u8]) -> bool {
        self.h0
            .iter()
            .all(|&id| self.bloom.get_probe(start + self.family.offset(id, key)))
    }

    /// The two-round query with the block start already resolved — the
    /// second phase of the batch pipeline.
    #[inline]
    fn contains_at(&self, start: usize, key: &[u8]) -> bool {
        if self.round1_at(start, key) {
            return true;
        }
        match self.he.query(key, &self.family) {
            Some(phi) => phi
                .iter()
                .all(|&id| self.bloom.get_probe(start + self.family.offset(id, key))),
            None => false,
        }
    }

    /// Batch membership: resolve every chunk key's block and prefetch
    /// its line, then run the two-round query — round 1 (and any round-2
    /// re-test) hits an already-resident cache line.
    pub fn contains_batch_into(&self, keys: &[&[u8]], out: &mut Vec<bool>) {
        out.clear();
        out.reserve(keys.len());
        let prefetch = habf_util::prefetch::enabled();
        let mut starts = [0usize; habf_filters::PROBE_CHUNK];
        for chunk in keys.chunks(habf_filters::PROBE_CHUNK) {
            if prefetch {
                // Pull the key bytes in first: on a large shuffled batch
                // the keys themselves are heap-random reads.
                for key in chunk {
                    habf_util::prefetch::prefetch_bytes(key);
                }
            }
            for (slot, key) in starts.iter_mut().zip(chunk) {
                let start = self.family.block_start(key);
                *slot = start;
                if prefetch {
                    self.bloom.prefetch_bit(start);
                }
            }
            out.extend(
                starts[..chunk.len()]
                    .iter()
                    .zip(chunk)
                    .map(|(&start, key)| self.contains_at(start, key)),
            );
        }
    }

    /// The persist image (kind 2): the HABF layout with the `sim_seed`
    /// slot packing `selector registry index << 56 | block seed`.
    pub(crate) fn image(&self) -> persist::Image<'_> {
        persist::Image {
            kind: 2,
            k: self.h0.len(),
            cell_bits: self.he.cell_bits(),
            h0: self.h0.clone(),
            family: HashProvider::len(&self.family),
            sim_seed: ((self.family.selector().registry_index() as u64) << 56) | self.family.seed(),
            bloom: &self.bloom,
            he: &self.he,
        }
    }

    /// Rebuilds from a decoded kind-2 image, validating the blocked
    /// extras the generic codec does not know about: the selector index
    /// must name a registered hash and the Bloom array must span whole
    /// blocks.
    pub(crate) fn try_from_decoded(d: Decoded) -> Result<Self, PersistError> {
        let selector = usize::try_from(d.sim_seed >> 56)
            .ok()
            .and_then(HashFunction::from_registry_index)
            .ok_or(PersistError::Corrupt("unknown block-selector hash"))?;
        if d.bloom.is_empty() || d.bloom.len() % BLOCK_BITS != 0 {
            return Err(PersistError::Corrupt(
                "blocked Bloom array not whole 512-bit blocks",
            ));
        }
        Ok(Self {
            family: BlockedFamily::new(
                HashFamily::with_size(d.family),
                d.bloom.len(),
                selector,
                d.sim_seed & SEED_MASK,
            ),
            bloom: d.bloom,
            he: d.he,
            h0: d.h0,
            stats: BuildStats::default(),
        })
    }
}

impl Filter for BlockedHabf {
    fn contains(&self, key: &[u8]) -> bool {
        self.contains_at(self.family.block_start(key), key)
    }

    fn space_bits(&self) -> usize {
        self.bloom.len() + self.he.space_bits()
    }

    fn name(&self) -> &'static str {
        "BlockedHABF"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Habf;

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
        assert!(f.blocks() >= 1);
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
        let mut on = Vec::new();
        let mut off = Vec::new();
        f.contains_batch_into(&refs, &mut on);
        {
            let _prefetch_off = habf_util::prefetch::scoped(false);
            f.contains_batch_into(&refs, &mut off);
        }
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
        let (space, blocks, selector) = (f.space_bits(), f.blocks(), f.family().selector());
        let mined = costed(400, "mined");
        f.rebuild(&pos, &mined, 7);
        assert_eq!(f.space_bits(), space);
        assert_eq!(f.blocks(), blocks);
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

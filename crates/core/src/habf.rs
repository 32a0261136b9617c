//! The public HABF filter: construction configuration and the two-round
//! zero-FNR query (paper §III-C, §III-E, Fig 1).

use crate::hash_expressor::HashExpressor;
use crate::hashing::Hashing;
use crate::persist::{Decoded, Image, PersistError};
use crate::tpjo::{self, BuildStats, TpjoConfig};
use habf_filters::Filter;
use habf_hashing::double::SimulatedFamily;
use habf_hashing::{HashFamily, HashId, HashProvider, FAMILY_SIZE};
use habf_util::{Backing, BitVec};

/// Construction parameters (paper §V-D defaults).
#[derive(Clone, Debug)]
pub struct HabfConfig {
    /// Total space budget in bits, split between the Bloom array (`∆2`)
    /// and the HashExpressor (`∆1`).
    pub total_bits: usize,
    /// Space allocation ratio `∆ = ∆1/∆2`; the paper's optimum is 0.25
    /// (HashExpressor : Bloom = 1 : 4, Fig 9a).
    pub delta: f64,
    /// Hash functions per key (paper default 3).
    pub k: usize,
    /// HashExpressor cell width `α` in bits (paper default 4, Fig 9b).
    pub cell_bits: u32,
    /// Build seed: drives `H0` selection and TPJO's Case-1 randomness.
    pub seed: u64,
    /// Termination guard for class-(c) requeues.
    pub requeue_cap: u8,
}

/// Why a [`HabfConfig`] (or [`crate::sharded::ShardedConfig`]) was
/// rejected by validation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `total_bits` is zero — there is no space to build anything.
    ZeroBudget,
    /// `delta` is not a finite positive ratio. `delta = 0` starves the
    /// HashExpressor, and `delta ≤ -1` flips the sign of the ∆1 share in
    /// [`HabfConfig::split`], corrupting the budget split.
    NonPositiveDelta,
    /// `cell_bits` outside `2..=16`. `cell_bits = 1` leaves zero
    /// addressable hash ids (`usable_hashes() == 0`), and `0` shifts out
    /// of range entirely.
    BadCellBits,
    /// `k` is zero, above [`crate::MAX_K`], or larger than the number of
    /// family functions addressable with `cell_bits`.
    BadK,
    /// A sharded build was asked for zero shards.
    ZeroShards,
    /// The shard count exceeds what the persist container can frame
    /// (`crate::sharded::MAX_SHARDS`); building it would produce a filter
    /// that serializes but can never be loaded back.
    TooManyShards,
}

impl core::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ConfigError::ZeroBudget => write!(f, "total_bits must be > 0"),
            ConfigError::NonPositiveDelta => {
                write!(f, "delta must be a finite ratio > 0")
            }
            ConfigError::BadCellBits => write!(f, "cell_bits must be in 2..=16"),
            ConfigError::BadK => write!(
                f,
                "k must be in 1..={} and addressable with cell_bits",
                crate::MAX_K
            ),
            ConfigError::ZeroShards => write!(f, "shard count must be > 0"),
            ConfigError::TooManyShards => write!(
                f,
                "shard count exceeds the persistable maximum of {}",
                crate::sharded::MAX_SHARDS
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

impl HabfConfig {
    /// The paper's default configuration for a given total budget.
    #[must_use]
    pub fn with_total_bits(total_bits: usize) -> Self {
        Self {
            total_bits,
            delta: 0.25,
            k: 3,
            cell_bits: 4,
            seed: 0x4841_4246, // "HABF"
            requeue_cap: 3,
        }
    }

    /// Checked constructor: the paper's defaults with `total_bits`,
    /// rejected if degenerate (zero budget).
    ///
    /// # Errors
    /// Returns the first failing [`ConfigError`].
    pub fn try_with_total_bits(total_bits: usize) -> Result<Self, ConfigError> {
        let cfg = Self::with_total_bits(total_bits);
        cfg.validate()?;
        Ok(cfg)
    }

    /// Validates the configuration, rejecting the degenerate corners that
    /// would otherwise corrupt construction: a zero budget, `delta ≤ 0`
    /// (or non-finite) which breaks [`HabfConfig::split`], `cell_bits`
    /// outside `2..=16` (`cell_bits = 1` makes [`HabfConfig::usable_hashes`]
    /// return 0), and a `k` that no cell can express.
    ///
    /// [`Habf::build`] and [`FHabf::build`] call this and panic with the
    /// error message on a rejected configuration.
    ///
    /// # Errors
    /// Returns the first failing [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.total_bits == 0 {
            return Err(ConfigError::ZeroBudget);
        }
        if !self.delta.is_finite() || self.delta <= 0.0 {
            return Err(ConfigError::NonPositiveDelta);
        }
        if !(2..=16).contains(&self.cell_bits) {
            return Err(ConfigError::BadCellBits);
        }
        if self.k == 0 || self.k > crate::MAX_K || self.k > self.usable_hashes() {
            return Err(ConfigError::BadK);
        }
        Ok(())
    }

    /// Splits the budget into `(m, omega)` = (Bloom bits, HashExpressor
    /// cells).
    #[must_use]
    pub fn split(&self) -> (usize, usize) {
        // ∆ = ∆1/∆2 and ∆1 + ∆2 = total  =>  ∆1 = total·∆/(1+∆).
        let d1 = (self.total_bits as f64 * self.delta / (1.0 + self.delta)) as usize;
        let d2 = self.total_bits - d1;
        let omega = (d1 / self.cell_bits as usize).max(1);
        (d2.max(1), omega)
    }

    /// Number of family functions addressable with this cell width.
    #[must_use]
    pub fn usable_hashes(&self) -> usize {
        ((1usize << (self.cell_bits - 1)) - 1).min(FAMILY_SIZE)
    }
}

/// The Hash Adaptive Bloom Filter over the hashing `H`: a Bloom array,
/// the initial functions `H0`, and the HashExpressor holding the
/// customized chains TPJO chose. The paper's HABF, its f-HABF (§III-G)
/// and the block-local layout are this one type over three hashings:
/// [`Habf`], [`FHabf`] and [`crate::BlockedHabf`].
#[derive(Clone)]
pub struct HabfOver<H> {
    bloom: BitVec,
    he: HashExpressor,
    h0: Vec<HashId>,
    family: H,
    stats: BuildStats,
}

/// The Hash Adaptive Bloom Filter over the Table II family.
pub type Habf = HabfOver<HashFamily>;

/// The fast variant (paper §III-G): the whole family is simulated by
/// double hashing from one 128-bit base hash, and Γ is disabled during
/// construction.
pub type FHabf = HabfOver<SimulatedFamily>;

impl<H: Hashing> HabfOver<H> {
    /// Builds the filter from the positive set and the cost-annotated
    /// negative set, running the full TPJO optimization.
    ///
    /// # Panics
    /// Panics on a degenerate configuration (see [`HabfConfig::validate`])
    /// or an infeasible one (see [`tpjo::run`]).
    #[must_use]
    pub fn build(
        positives: &[impl AsRef<[u8]> + Sync],
        negatives: &[(impl AsRef<[u8]>, f64)],
        config: &HabfConfig,
    ) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid HabfConfig: {e}");
        }
        let (family, m) = H::for_config(positives, config);
        let cfg = TpjoConfig {
            k: config.k,
            m,
            omega: config.split().1,
            cell_bits: config.cell_bits,
            use_gamma: H::GAMMA,
            requeue_cap: config.requeue_cap,
            seed: config.seed,
            enable_class_c: true,
            overlap_tiebreak: true,
        };
        Self::from_tpjo(positives, negatives, family, &cfg)
    }

    fn from_tpjo(
        positives: &[impl AsRef<[u8]> + Sync],
        negatives: &[(impl AsRef<[u8]>, f64)],
        family: H,
        cfg: &TpjoConfig,
    ) -> Self {
        let out = tpjo::run(positives, negatives, &family, cfg);
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

    /// The hash family the filter runs over.
    #[must_use]
    pub fn family(&self) -> &H {
        &self.family
    }

    /// Optimizer counters.
    #[must_use]
    pub fn stats(&self) -> &BuildStats {
        &self.stats
    }

    /// Re-runs the full TPJO construction against fresh positive and
    /// costed negative sets **at this filter's exact geometry** — Bloom
    /// size `m`, HashExpressor `ω`/`α`, chain length `k`, and hash family
    /// are all preserved, only the bit contents and customized subsets
    /// change.
    ///
    /// This is the adaptation loop's rebuild: geometry preservation is
    /// what makes mined false positives valid evidence against the new
    /// filter. The space budget cannot drift (rebuilding at
    /// [`Filter::space_bits`] through a fresh [`HabfConfig`] can lose
    /// bits to cell rounding, silently re-randomizing every hash position
    /// and replacing the observed false positives with a fresh random
    /// crop). Works on deserialized filters — no original config needed.
    ///
    /// Two build knobs are not recoverable from a built filter and fall
    /// back to defaults: `requeue_cap` (not serialized; rebuilds use the
    /// default of 3) and the seed — pass the build seed to keep `H0`
    /// selection stable so only keys the optimizer must adjust change
    /// their answers.
    pub fn rebuild(
        &mut self,
        positives: &[impl AsRef<[u8]> + Sync],
        negatives: &[(impl AsRef<[u8]>, f64)],
        seed: u64,
    ) {
        *self = self.rebuilt_from(positives, negatives, seed);
    }

    /// [`HabfOver::rebuild`] into a fresh filter: reads only this
    /// filter's geometry and family, so nothing of its bits is copied,
    /// and leaves it untouched.
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
            use_gamma: H::GAMMA,
            requeue_cap: 3,
            seed,
            enable_class_c: true,
            overlap_tiebreak: true,
        };
        Self::from_tpjo(positives, negatives, self.family.clone(), &cfg)
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

    /// Round 1: probes `key`'s `H0` positions.
    #[inline]
    fn round1(&self, key: &[u8], bound: &H::Bound<'_>) -> bool {
        let m = self.bloom.len();
        // Positions are reduced modulo `m` (or land inside the key's
        // block), so the bounds-masked probe is exact and keeps the panic
        // branch out of the hot loop.
        self.h0
            .iter()
            .all(|&id| self.bloom.get_probe(bound.position(id, key, m)))
    }

    /// The round-2 re-test: retrieve the customized hash subset from the
    /// HashExpressor and probe it (the rare path — round 1 answers most
    /// keys).
    #[inline]
    fn round2(&self, key: &[u8], bound: &H::Bound<'_>) -> bool {
        let m = self.bloom.len();
        self.he.query(key, bound).is_some_and(|phi| {
            phi.iter()
                .all(|&id| self.bloom.get_probe(bound.position(id, key, m)))
        })
    }

    /// Phase 1 of the batch pipeline: computes `key`'s round-1 probe
    /// positions **once**, appends them to `plan`, and (when `prefetch`)
    /// hints their cache lines. Phase 2 ([`HabfOver::contains_planned`])
    /// probes the same positions, so the pipeline never re-derives them —
    /// an earlier prefetch design that re-hashed at test time cost more
    /// than the hidden latency repaid. A layout whose positions share one
    /// line plans that line alone; phase 2 then runs round 1 lazily.
    /// Every key of one filter plans the same number of entries (its `k`
    /// positions, or its one line), so a caller that planned `n` keys
    /// splits `plan` into `n` equal slices.
    #[inline]
    pub fn plan_round1(&self, key: &[u8], plan: &mut Vec<usize>, prefetch: bool) {
        if let Some(line) = self.family.plan_line(key) {
            if prefetch {
                self.bloom.prefetch_bit(line);
            }
            plan.push(line);
            return;
        }
        let bound = self.family.bind(key);
        let m = self.bloom.len();
        for &id in &self.h0 {
            let pos = bound.position(id, key, m);
            if prefetch {
                self.bloom.prefetch_bit(pos);
            }
            plan.push(pos);
        }
    }

    /// Phase 2 of the batch pipeline: finishes the two-round query given
    /// what [`HabfOver::plan_round1`] planned for this key. Round 2 binds
    /// the key again, but it only runs for round-1 misses.
    #[inline]
    #[must_use]
    pub fn contains_planned(&self, key: &[u8], plan: &[usize]) -> bool {
        match plan.first().and_then(|&line| self.family.bind_line(line)) {
            Some(bound) => self.round1(key, &bound) || self.round2(key, &bound),
            None => self.bloom.all_set(plan) || self.round2(key, &self.family.bind(key)),
        }
    }

    /// Where this filter's payload words live: `owned` after a build or a
    /// copying load, a shared/mmap view after a zero-copy load — until
    /// the first mutation promotes the touched part to owned words.
    #[must_use]
    pub fn backing(&self) -> Backing {
        self.bloom.backing().combine(self.he.cells().backing())
    }

    /// Inserts a positive key after construction (update extension).
    ///
    /// The paper's construction is static; this follows the obvious
    /// incremental path the related-work section contrasts against
    /// (CA-LBF/IA-LBF, §II): the new key is inserted with `H0`, so round 1
    /// always accepts it — zero FNR is preserved. The trade-off is that the
    /// freshly set bits may resurrect false positives that TPJO had
    /// optimized away; [`HabfOver::stats`] still describe the original
    /// build. Rebuild periodically if the insert stream is large.
    pub fn insert(&mut self, key: &[u8]) {
        let bound = self.family.bind(key);
        let m = self.bloom.len();
        for &id in &self.h0 {
            self.bloom.set(bound.position(id, key, m));
        }
    }

    /// Diagnostic query returning *which* round answered (used by tests,
    /// examples, and the two-round-latency discussion of Fig 12).
    #[must_use]
    pub fn query_verbose(&self, key: &[u8]) -> QueryOutcome {
        let bound = self.family.bind(key);
        if self.round1(key, &bound) {
            QueryOutcome::Round1Positive
        } else if self.round2(key, &bound) {
            QueryOutcome::Round2Positive
        } else {
            QueryOutcome::Negative
        }
    }

    /// The §III-F envelope on this filter's FPR given its final state:
    /// `F_habf ≤ (ω + t)/ω · F*_bf` with `F*_bf` estimated from the final
    /// bit load.
    #[must_use]
    pub fn fpr_envelope(&self) -> f64 {
        let rho = self.bloom.fill_ratio();
        let f_star = rho.powi(self.h0.len() as i32);
        crate::theory::habf_fpr_envelope(f_star, self.he.inserted(), self.he.omega())
    }

    /// The persist image of this filter (header scalars + borrowed word
    /// arrays).
    pub(crate) fn image(&self) -> Image<'_> {
        Image {
            kind: H::KIND,
            k: self.h0.len(),
            cell_bits: self.he.cell_bits(),
            h0: &self.h0,
            family: self.family.len(),
            sim_seed: self.family.sim_seed(),
            bloom: &self.bloom,
            he: &self.he,
        }
    }

    /// Rebuilds a filter from a decoded persist image (v2 or legacy; the
    /// storage may be owned words or a zero-copy view). Build-time
    /// [`BuildStats`] are not persisted.
    ///
    /// # Errors
    /// [`PersistError::Corrupt`] when the image names a family this
    /// hashing cannot hold.
    pub(crate) fn from_decoded(d: Decoded) -> Result<Self, PersistError> {
        Ok(Self {
            family: H::from_image(d.family, d.sim_seed, d.bloom.len())?,
            bloom: d.bloom,
            he: d.he,
            h0: d.h0,
            stats: BuildStats::default(),
        })
    }
}

/// Which round of the two-round query (paper Fig 1) decided the answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryOutcome {
    /// The initial functions `H0` matched — positive.
    Round1Positive,
    /// The HashExpressor supplied a chain that matched — positive.
    Round2Positive,
    /// Both rounds rejected — negative.
    Negative,
}

impl<H: Hashing> Filter for HabfOver<H> {
    /// The two-round query (paper Fig 1): test with `H0`; on a miss,
    /// retrieve the customized subset from the HashExpressor and re-test.
    /// One bound key serves both rounds and the chain walk.
    fn contains(&self, key: &[u8]) -> bool {
        let bound = self.family.bind(key);
        self.round1(key, &bound) || self.round2(key, &bound)
    }

    fn space_bits(&self) -> usize {
        self.bloom.len() + self.he.space_bits()
    }

    fn name(&self) -> &'static str {
        H::NAME
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize, tag: &str) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("{tag}:{i}").into_bytes()).collect()
    }

    fn config(total_bits: usize) -> HabfConfig {
        HabfConfig::with_total_bits(total_bits)
    }

    #[test]
    fn split_follows_delta() {
        let cfg = HabfConfig {
            total_bits: 1_000_000,
            delta: 0.25,
            ..config(0)
        };
        let (m, omega) = cfg.split();
        // ∆1 = 200k bits, ∆2 = 800k bits, ω = 200k/4 = 50k cells.
        assert_eq!(m, 800_000);
        assert_eq!(omega, 50_000);
    }

    #[test]
    fn usable_hashes_by_cell_width() {
        let mut cfg = config(1000);
        cfg.cell_bits = 3;
        assert_eq!(cfg.usable_hashes(), 3);
        cfg.cell_bits = 4;
        assert_eq!(cfg.usable_hashes(), 7);
        cfg.cell_bits = 5;
        assert_eq!(cfg.usable_hashes(), 15);
        cfg.cell_bits = 6;
        assert_eq!(cfg.usable_hashes(), 22); // capped at |H|
    }

    #[test]
    fn habf_zero_false_negatives() {
        let pos = keys(3_000, "pos");
        let neg: Vec<(Vec<u8>, f64)> = keys(3_000, "neg").into_iter().map(|k| (k, 1.0)).collect();
        let f = Habf::build(&pos, &neg, &config(3_000 * 10));
        for k in &pos {
            assert!(f.contains(k), "HABF dropped a member");
        }
    }

    #[test]
    fn fhabf_zero_false_negatives() {
        let pos = keys(3_000, "pos");
        let neg: Vec<(Vec<u8>, f64)> = keys(3_000, "neg").into_iter().map(|k| (k, 1.0)).collect();
        let f = FHabf::build(&pos, &neg, &config(3_000 * 10));
        for k in &pos {
            assert!(f.contains(k), "f-HABF dropped a member");
        }
    }

    #[test]
    fn habf_beats_plain_bloom_on_known_negatives() {
        let pos = keys(4_000, "pos");
        let neg_keys = keys(4_000, "neg");
        let neg: Vec<(Vec<u8>, f64)> = neg_keys.iter().map(|k| (k.clone(), 1.0)).collect();
        let total = 4_000 * 8;
        let habf = Habf::build(&pos, &neg, &config(total));
        let bf = habf_filters::BloomFilter::build(&pos, total);
        let habf_fp = neg_keys.iter().filter(|k| habf.contains(k)).count();
        let bf_fp = neg_keys.iter().filter(|k| bf.contains(k)).count();
        assert!(
            habf_fp < bf_fp,
            "HABF {habf_fp} FPs not better than BF {bf_fp}"
        );
    }

    #[test]
    fn space_accounting_matches_budget() {
        let pos = keys(500, "pos");
        let neg: Vec<(Vec<u8>, f64)> = vec![];
        let total = 500 * 12;
        let f = Habf::build(&pos, &neg, &config(total));
        // m + ω·α ≤ total (cell rounding may drop a few bits).
        assert!(f.space_bits() <= total);
        assert!(f.space_bits() > total * 9 / 10);
    }

    #[test]
    fn no_negatives_degenerates_to_bloom() {
        let pos = keys(1_000, "pos");
        let neg: Vec<(Vec<u8>, f64)> = vec![];
        let f = Habf::build(&pos, &neg, &config(1_000 * 10));
        assert_eq!(f.stats().initial_collision_keys, 0);
        assert_eq!(f.expressor_entries(), 0);
        for k in &pos {
            assert!(f.contains(k));
        }
    }

    #[test]
    fn names() {
        let pos = keys(100, "p");
        let neg: Vec<(Vec<u8>, f64)> = vec![];
        assert_eq!(Habf::build(&pos, &neg, &config(2_000)).name(), "HABF");
        assert_eq!(FHabf::build(&pos, &neg, &config(2_000)).name(), "f-HABF");
    }

    #[test]
    fn incremental_insert_preserves_zero_fnr() {
        let pos = keys(1_000, "pos");
        let neg: Vec<(Vec<u8>, f64)> = keys(1_000, "neg").into_iter().map(|k| (k, 1.0)).collect();
        let mut f = Habf::build(&pos, &neg, &config(2_000 * 10));
        let late = keys(500, "late");
        for k in &late {
            f.insert(k);
        }
        for k in pos.iter().chain(late.iter()) {
            assert!(f.contains(k), "post-insert member dropped");
        }
    }

    #[test]
    fn query_verbose_distinguishes_rounds() {
        let pos = keys(2_000, "pos");
        let neg: Vec<(Vec<u8>, f64)> = keys(2_000, "neg").into_iter().map(|k| (k, 1.0)).collect();
        let f = Habf::build(&pos, &neg, &config(2_000 * 8));
        let mut round1 = 0usize;
        let mut round2 = 0usize;
        for k in &pos {
            match f.query_verbose(k) {
                QueryOutcome::Round1Positive => round1 += 1,
                QueryOutcome::Round2Positive => round2 += 1,
                QueryOutcome::Negative => panic!("member rejected"),
            }
        }
        // Unadjusted keys answer in round 1. Adjusted keys normally need
        // round 2, except when other keys' bits happen to cover their H0
        // positions — so round2 is bounded by, and close to, the count.
        let adjusted = f.stats().adjusted_positives;
        assert!(round2 <= adjusted, "round2 {round2} > adjusted {adjusted}");
        assert!(
            round2 * 2 >= adjusted,
            "round2 {round2} too far below adjusted {adjusted}"
        );
        assert_eq!(round1 + round2, pos.len());
        // Negatives answered negative must stay negative in both views.
        for (k, _) in neg.iter().take(200) {
            let verbose = f.query_verbose(k) != QueryOutcome::Negative;
            assert_eq!(verbose, f.contains(k));
        }
    }

    #[test]
    fn empty_positive_set_builds_an_always_negative_filter() {
        // Regression: a sharded build can hand a shard zero keys; that
        // shard must build (not panic) and reject everything.
        let pos: Vec<Vec<u8>> = vec![];
        let neg: Vec<(Vec<u8>, f64)> = keys(100, "neg").into_iter().map(|k| (k, 1.0)).collect();
        let f = Habf::build(&pos, &neg, &config(1_000));
        assert_eq!(f.fill_ratio(), 0.0);
        for (k, _) in &neg {
            assert!(!f.contains(k), "empty filter accepted a key");
        }
        let image = crate::DynFilter::to_container_bytes(&f);
        let restored = crate::registry::load(&image).expect("empty filter persists");
        assert!(!restored.filter.contains(b"anything"));
    }

    #[test]
    fn validate_accepts_defaults_and_paper_ranges() {
        assert_eq!(config(1_000).validate(), Ok(()));
        let mut cfg = config(1_000);
        cfg.cell_bits = 5;
        cfg.k = 8;
        assert_eq!(cfg.validate(), Ok(()));
        assert!(HabfConfig::try_with_total_bits(64).is_ok());
    }

    #[test]
    fn validate_rejects_degenerate_configs() {
        // cell_bits = 1 leaves zero addressable ids (usable_hashes() == 0)
        // and used to fall through to a confusing family-size panic.
        let mut cfg = config(1_000);
        cfg.cell_bits = 1;
        assert_eq!(cfg.validate(), Err(ConfigError::BadCellBits));
        cfg.cell_bits = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::BadCellBits));
        cfg.cell_bits = 17;
        assert_eq!(cfg.validate(), Err(ConfigError::BadCellBits));

        // delta ≤ 0 (or non-finite) corrupts split(): delta = -1 divides
        // by zero and negative ratios flip the ∆1 share's sign.
        let mut cfg = config(1_000);
        cfg.delta = 0.0;
        assert_eq!(cfg.validate(), Err(ConfigError::NonPositiveDelta));
        cfg.delta = -1.0;
        assert_eq!(cfg.validate(), Err(ConfigError::NonPositiveDelta));
        cfg.delta = f64::NAN;
        assert_eq!(cfg.validate(), Err(ConfigError::NonPositiveDelta));
        cfg.delta = f64::INFINITY;
        assert_eq!(cfg.validate(), Err(ConfigError::NonPositiveDelta));

        let mut cfg = config(1_000);
        cfg.k = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::BadK));
        cfg.k = crate::MAX_K + 1;
        assert_eq!(cfg.validate(), Err(ConfigError::BadK));
        // k = 8 is legal in general but not addressable by 4-bit cells.
        cfg.k = 8;
        assert_eq!(cfg.validate(), Err(ConfigError::BadK));

        let mut cfg = config(1_000);
        cfg.total_bits = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroBudget));
        assert!(matches!(
            HabfConfig::try_with_total_bits(0),
            Err(ConfigError::ZeroBudget)
        ));
    }

    #[test]
    #[should_panic(expected = "cell_bits must be in 2..=16")]
    fn build_panics_cleanly_on_one_bit_cells() {
        let pos = keys(10, "p");
        let neg: Vec<(Vec<u8>, f64)> = vec![];
        let mut cfg = config(1_000);
        cfg.cell_bits = 1;
        let _ = Habf::build(&pos, &neg, &cfg);
    }

    #[test]
    #[should_panic(expected = "delta must be a finite ratio > 0")]
    fn fhabf_build_panics_cleanly_on_negative_delta() {
        let pos = keys(10, "p");
        let neg: Vec<(Vec<u8>, f64)> = vec![];
        let mut cfg = config(1_000);
        cfg.delta = -0.5;
        let _ = FHabf::build(&pos, &neg, &cfg);
    }

    #[test]
    fn fpr_envelope_is_a_sane_bound() {
        let pos = keys(3_000, "pos");
        let neg_keys = keys(3_000, "neg");
        let neg: Vec<(Vec<u8>, f64)> = neg_keys.iter().map(|k| (k.clone(), 1.0)).collect();
        let f = Habf::build(&pos, &neg, &config(3_000 * 10));
        let env = f.fpr_envelope();
        assert!((0.0..=1.0).contains(&env));
        // The envelope is an estimate built from the *final* load; measured
        // FPR on fresh keys should sit at or below a small multiple of it.
        let fresh = keys(3_000, "fresh");
        let fp = fresh.iter().filter(|k| f.contains(k)).count();
        let measured = fp as f64 / fresh.len() as f64;
        assert!(
            measured <= env * 3.0 + 0.01,
            "measured {measured} far above envelope {env}"
        );
    }
}

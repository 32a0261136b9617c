//! The tiered scalable HABF: growth without a stop-the-world rebuild.
//!
//! `ScalableHabf` follows the ScalableBloomFilter pattern (Almeida et
//! al.): a stack of HABF *generations*, each a complete [`Habf`] with its
//! own geometry. Tier `i` holds `base_capacity · 2^i` keys at a
//! per-key budget that **widens** by [`TIER_TIGHTEN_BPK`] bits each
//! generation — the extra bits tighten the newer tier's FP budget so the
//! stack's compound FPR stays a convergent series (each tier contributes
//! roughly half the previous one's error) instead of summing linearly.
//!
//! Inserts always land in the newest tier; when it reaches capacity the
//! stack pushes a fresh, larger tier built *empty* (a degenerate TPJO run
//! over no members) and keeps going. Queries OR across tiers, so zero
//! false negatives hold for every member of every generation. They probe
//! the tier holding the most keys first: a member is then usually
//! answered by the first tier probed, both in a freshly grown stack
//! (whose base holds most keys) and in a folded one (whose one big tier
//! sits under a nearly empty growth tier). The stack keeps that order
//! as it changes, so no probe sorts anything. The batch path
//! ([`crate::BatchQuery`]) runs the same order through the plan-once
//! prefetch pipeline, one tier at a time.
//!
//! The **autoscale knob** is `max_tiers`: when the stack reaches it, new
//! keys overfill the top tier instead of failing the insert. That trades
//! the FP envelope (saturation climbs past 1.0, fill ratio rises) for
//! availability — the degradation is graceful and visible through
//! [`ScalableHabf::saturation`], which the adaptation loop watches to
//! schedule a [`crate::adapt::RebuildKind::Compact`] fold-back.
//!
//! The fold-back is the [`crate::Rebuildable`] impl: rebuilding replaces
//! the whole stack with **one** right-sized tier — geometry re-derived
//! from the live key count at the original bits-per-key rate, mined
//! hints preserved through the full TPJO build — which is exactly what
//! LSM compaction and `TenantStore::rebuild_now` need.

use crate::habf::{Habf, HabfConfig};
use crate::persist::{PersistError, Reader};
use habf_filters::Filter;
use habf_util::Backing;

/// Upper bound on persisted tier counts: a stack deeper than this cannot
/// be real (64 doublings overflow any key count), so the decoder rejects
/// corrupt headers before allocating.
pub(crate) const MAX_TIERS: usize = 64;

/// Extra bits per key granted to each successive tier. Halving a Bloom
/// FP target costs `ln 2 / (ln 2)^2 ≈ 1.44` bits per key; 1.5 keeps the
/// per-tier error a geometric series with ratio < 1 under HABF's
/// envelope too.
pub const TIER_TIGHTEN_BPK: f64 = 1.5;

/// Default autoscale cap: 16 doublings of the base capacity is a 65536×
/// growth headroom before the trade-off degrades.
pub(crate) const DEFAULT_MAX_TIERS: usize = 16;

/// Seed stride between tier builds (golden-ratio odd constant, the same
/// decorrelation idiom the sharded splitter uses): tiers must not share
/// `H0` selection noise or their FPs would correlate across generations.
const TIER_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// One generation of the stack.
#[derive(Clone)]
struct Tier {
    filter: Habf,
    /// Design capacity of this generation (keys it was sized for).
    capacity: usize,
    /// Keys actually inserted (tier 0 counts the built members).
    inserted: usize,
}

/// A stack of HABF generations with geometrically growing capacity and
/// tightening per-tier FP budgets. See the module docs for the design.
#[derive(Clone)]
pub struct ScalableHabf {
    tiers: Vec<Tier>,
    /// Tier indices in probe order: most keys held first, ties oldest
    /// first. Kept current by every change to the stack.
    order: Vec<usize>,
    seed: u64,
    delta: f64,
    k: usize,
    cell_bits: u32,
    base_capacity: usize,
    base_total_bits: usize,
    max_tiers: usize,
}

impl ScalableHabf {
    /// Builds the stack: one full-TPJO tier over the members and costed
    /// negatives, sized by `config` (whose `total_bits` is the base
    /// budget the growth series scales from).
    ///
    /// # Panics
    /// Panics on a degenerate configuration (see [`HabfConfig::validate`]).
    #[must_use]
    pub fn build(
        positives: &[impl AsRef<[u8]> + Sync],
        negatives: &[(impl AsRef<[u8]>, f64)],
        config: &HabfConfig,
    ) -> Self {
        let filter = Habf::build(positives, negatives, config);
        let capacity = positives.len().max(16);
        Self {
            tiers: vec![Tier {
                filter,
                capacity,
                inserted: positives.len(),
            }],
            order: vec![0],
            seed: config.seed,
            delta: config.delta,
            k: config.k,
            cell_bits: config.cell_bits,
            base_capacity: capacity,
            base_total_bits: config.total_bits.max(256),
            max_tiers: DEFAULT_MAX_TIERS,
        }
    }

    /// Sets the autoscale cap: the stack stops adding tiers at `cap` and
    /// overfills the newest one instead (saturation climbs past 1.0).
    #[must_use]
    pub fn with_max_tiers(mut self, cap: usize) -> Self {
        self.max_tiers = cap.clamp(1, MAX_TIERS);
        self
    }

    /// Base bits-per-key rate the growth series scales from (also the
    /// rate a fold-back re-derives its single-tier geometry at).
    fn base_bits_per_key(&self) -> f64 {
        self.base_total_bits as f64 / self.base_capacity as f64
    }

    /// The config a fresh tier at `index` builds with: doubled capacity,
    /// widened per-key budget (tightened FP target), strided seed.
    fn tier_config(&self, index: usize) -> HabfConfig {
        let capacity = self.base_capacity << index.min(63);
        let bpk = self.base_bits_per_key() + TIER_TIGHTEN_BPK * index as f64;
        let mut cfg = HabfConfig::with_total_bits(((capacity as f64 * bpk) as usize).max(256));
        cfg.delta = self.delta;
        cfg.k = self.k;
        cfg.cell_bits = self.cell_bits;
        cfg.seed = self
            .seed
            .wrapping_add(TIER_SEED_STRIDE.wrapping_mul(index as u64));
        cfg
    }

    /// Adds a key. The newest tier absorbs it; a full top tier pushes the
    /// next generation unless the autoscale cap says overfill instead.
    /// Zero false negatives hold for the key from the moment this
    /// returns (it is inserted with the new tier's `H0`).
    pub fn insert(&mut self, key: &[u8]) {
        let grow = {
            let top = self.tiers.last().expect("stack is never empty");
            top.inserted >= top.capacity && self.tiers.len() < self.max_tiers
        };
        if grow {
            let index = self.tiers.len();
            let cfg = self.tier_config(index);
            let none: [&[u8]; 0] = [];
            let no_costs: [(&[u8], f64); 0] = [];
            self.tiers.push(Tier {
                filter: Habf::build(&none, &no_costs, &cfg),
                capacity: self.base_capacity << index.min(63),
                inserted: 0,
            });
            // Empty and newest: last in probe order.
            self.order.push(index);
        }
        let top = self.tiers.len() - 1;
        let tier = &mut self.tiers[top];
        tier.filter.insert(key);
        tier.inserted += 1;
        // The top tier moves ahead of every tier it now holds more keys
        // than; one step per key, so no insert sorts the stack.
        let held = tier.inserted;
        let mut at = self
            .order
            .iter()
            .position(|&i| i == top)
            .expect("every tier is in the probe order");
        while at > 0 && self.tiers[self.order[at - 1]].inserted < held {
            self.order.swap(at - 1, at);
            at -= 1;
        }
    }

    /// Newest-tier fill over its design capacity — the growth pressure
    /// gauge. ≤ 1.0 while tiers can still be added; climbs past 1.0 once
    /// the autoscale cap forces the top tier to overfill.
    #[must_use]
    pub fn saturation(&self) -> f64 {
        let top = self.tiers.last().expect("stack is never empty");
        top.inserted as f64 / top.capacity.max(1) as f64
    }

    /// Live generation count (probe rounds per negative query).
    #[must_use]
    pub fn generations(&self) -> usize {
        self.tiers.len()
    }

    /// Keys held across all generations (tier 0 counts built members).
    #[must_use]
    pub fn total_inserted(&self) -> usize {
        self.tiers.iter().map(|t| t.inserted).sum()
    }

    /// The autoscale cap (see [`ScalableHabf::with_max_tiers`]).
    #[must_use]
    pub fn max_tiers(&self) -> usize {
        self.max_tiers
    }

    /// Design capacity of tier `i`.
    #[must_use]
    pub fn tier_capacity(&self, i: usize) -> usize {
        self.tiers[i].capacity
    }

    /// Keys inserted into tier `i`.
    #[must_use]
    pub fn tier_inserted(&self, i: usize) -> usize {
        self.tiers[i].inserted
    }

    /// Tier `i`'s filter, oldest first (`i = 0` is the built generation).
    #[must_use]
    pub fn tier(&self, i: usize) -> &Habf {
        &self.tiers[i].filter
    }

    /// The build seed tier 0 used (tier `i` strides from it).
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Where the stack's payload words live: the worst backing across
    /// tiers (one owned tier makes the stack partially owned).
    #[must_use]
    pub fn backing(&self) -> Backing {
        self.tiers
            .iter()
            .map(|t| t.filter.backing())
            .fold(Backing::Owned, Backing::combine)
    }

    /// Fold-back: replaces the whole stack with **one** tier whose
    /// geometry is re-derived from the live key count at the base
    /// bits-per-key rate, built by full TPJO over `positives` (the live
    /// member set) and `negatives` (preserved mined hints).
    pub fn fold_rebuild(
        &mut self,
        positives: &[impl AsRef<[u8]> + Sync],
        negatives: &[(impl AsRef<[u8]>, f64)],
        seed: u64,
    ) {
        *self = self.folded(positives, negatives, seed);
    }

    /// [`ScalableHabf::fold_rebuild`] into a fresh stack: reads only this
    /// stack's growth parameters, so no tier is copied, and leaves it
    /// untouched.
    #[must_use]
    pub fn folded(
        &self,
        positives: &[impl AsRef<[u8]> + Sync],
        negatives: &[(impl AsRef<[u8]>, f64)],
        seed: u64,
    ) -> Self {
        let capacity = positives.len().max(16);
        let total_bits = ((capacity as f64 * self.base_bits_per_key()) as usize).max(256);
        let mut cfg = HabfConfig::with_total_bits(total_bits);
        cfg.delta = self.delta;
        cfg.k = self.k;
        cfg.cell_bits = self.cell_bits;
        cfg.seed = seed;
        Self {
            tiers: vec![Tier {
                filter: Habf::build(positives, negatives, &cfg),
                capacity,
                inserted: positives.len(),
            }],
            order: vec![0],
            seed,
            delta: self.delta,
            k: self.k,
            cell_bits: self.cell_bits,
            base_capacity: capacity,
            base_total_bits: total_bits,
            max_tiers: self.max_tiers,
        }
    }

    /// Batch membership in input order: the answers
    /// [`Filter::contains`] gives, through the plan-once prefetch
    /// pipeline, the tiers in probe order.
    pub(crate) fn contains_batch_into(&self, keys: &[&[u8]], out: &mut Vec<bool>) {
        let tiers = self.order.iter().map(|&t| &self.tiers[t].filter);
        crate::probe::contains_batch_any(tiers, keys, out);
    }

    /// Rebuilds a stack from decoded parts (the v2 codec's and the v1
    /// reader's hook).
    pub(crate) fn from_parts(growth: GrowthParams, tiers: Vec<(Habf, usize, usize)>) -> Self {
        growth.assemble(
            tiers
                .into_iter()
                .map(|(filter, capacity, inserted)| Tier {
                    filter,
                    capacity,
                    inserted,
                })
                .collect(),
        )
    }
}

impl Filter for ScalableHabf {
    /// ORs the two-round query across generations, the tier holding the
    /// most keys first (a member is likeliest there). Zero FN: every
    /// member was inserted into exactly one tier and that tier answers
    /// true.
    fn contains(&self, key: &[u8]) -> bool {
        self.order
            .iter()
            .any(|&i| self.tiers[i].filter.contains(key))
    }

    fn space_bits(&self) -> usize {
        self.tiers.iter().map(|t| t.filter.space_bits()).sum()
    }

    fn name(&self) -> &'static str {
        "Scalable-HABF"
    }
}

/// The growth parameters of the v2 codec (everything above the per-tier
/// blocks; the v1 payload stores the same block after its version byte).
pub(crate) struct GrowthParams {
    pub k: usize,
    pub cell_bits: u32,
    pub delta: f64,
    pub seed: u64,
    pub base_capacity: usize,
    pub base_total_bits: usize,
    pub max_tiers: usize,
}

impl GrowthParams {
    pub(crate) fn of(f: &ScalableHabf) -> Self {
        Self {
            k: f.k,
            cell_bits: f.cell_bits,
            delta: f.delta,
            seed: f.seed,
            base_capacity: f.base_capacity,
            base_total_bits: f.base_total_bits,
            max_tiers: f.max_tiers,
        }
    }

    pub(crate) fn encode(&self, out: &mut Vec<u8>, tier_count: usize) {
        out.push(self.k as u8);
        out.push(self.cell_bits as u8);
        out.extend_from_slice(&self.delta.to_bits().to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&(self.base_capacity as u64).to_le_bytes());
        out.extend_from_slice(&(self.base_total_bits as u64).to_le_bytes());
        out.extend_from_slice(&(self.max_tiers as u32).to_le_bytes());
        out.extend_from_slice(&(tier_count as u32).to_le_bytes());
    }

    fn assemble(self, tiers: Vec<Tier>) -> ScalableHabf {
        // A stable sort keeps equal tiers oldest first, as inserts do.
        let mut order: Vec<usize> = (0..tiers.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(tiers[i].inserted));
        ScalableHabf {
            tiers,
            order,
            seed: self.seed,
            delta: self.delta,
            k: self.k,
            cell_bits: self.cell_bits,
            base_capacity: self.base_capacity,
            base_total_bits: self.base_total_bits,
            max_tiers: self.max_tiers,
        }
    }
}

/// Decodes and validates the growth-parameter block (shared by the v2
/// metadata and the v1 payload); returns the params and the tier count.
pub(crate) fn decode_growth_params(
    r: &mut Reader<'_>,
) -> Result<(GrowthParams, usize), PersistError> {
    let k = usize::from(r.u8()?);
    let cell_bits = u32::from(r.u8()?);
    if k == 0 || k > crate::MAX_K {
        return Err(PersistError::Corrupt("k out of range"));
    }
    if !(2..=16).contains(&cell_bits) {
        return Err(PersistError::Corrupt("cell width out of range"));
    }
    let delta = f64::from_bits(r.u64()?);
    if !delta.is_finite() || delta <= 0.0 {
        return Err(PersistError::Corrupt("delta out of range"));
    }
    let seed = r.u64()?;
    let base_capacity = usize::try_from(r.u64()?).map_err(|_| PersistError::Truncated)?;
    if base_capacity == 0 {
        return Err(PersistError::Corrupt("zero base capacity"));
    }
    let base_total_bits = usize::try_from(r.u64()?).map_err(|_| PersistError::Truncated)?;
    if base_total_bits == 0 {
        return Err(PersistError::Corrupt("zero base budget"));
    }
    let max_tiers = usize::try_from(r.u32()?).map_err(|_| PersistError::Truncated)?;
    if max_tiers == 0 || max_tiers > MAX_TIERS {
        return Err(PersistError::Corrupt("tier cap out of range"));
    }
    let tier_count = usize::try_from(r.u32()?).map_err(|_| PersistError::Truncated)?;
    if tier_count == 0 || tier_count > MAX_TIERS {
        return Err(PersistError::Corrupt("tier count out of range"));
    }
    Ok((
        GrowthParams {
            k,
            cell_bits,
            delta,
            seed,
            base_capacity,
            base_total_bits,
            max_tiers,
        },
        tier_count,
    ))
}

/// Decodes one tier's capacity/inserted counters (shared v2/v1 block).
pub(crate) fn decode_tier_counters(r: &mut Reader<'_>) -> Result<(usize, usize), PersistError> {
    let capacity = usize::try_from(r.u64()?).map_err(|_| PersistError::Truncated)?;
    if capacity == 0 {
        return Err(PersistError::Corrupt("zero tier capacity"));
    }
    let inserted = usize::try_from(r.u64()?).map_err(|_| PersistError::Truncated)?;
    Ok((capacity, inserted))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(range: std::ops::Range<usize>) -> Vec<Vec<u8>> {
        range.map(|i| format!("key:{i}").into_bytes()).collect()
    }

    fn sample(n: usize) -> ScalableHabf {
        let members = keys(0..n);
        let negatives: Vec<(Vec<u8>, f64)> = (0..n)
            .map(|i| (format!("neg:{i}").into_bytes(), 1.0 + (i % 5) as f64))
            .collect();
        ScalableHabf::build(&members, &negatives, &HabfConfig::with_total_bits(12 * n))
    }

    #[test]
    fn grows_through_generations_with_zero_fn() {
        let mut f = sample(200);
        assert_eq!(f.generations(), 1);
        let extra = keys(200..2000);
        for k in &extra {
            f.insert(k);
        }
        assert!(f.generations() > 1, "growth must add tiers");
        assert!(f.generations() <= f.max_tiers());
        for k in keys(0..2000) {
            assert!(f.contains(&k), "member dropped across generations");
        }
        // 1800 inserts past a 200-key design capacity is 10× growth.
        assert!(f.total_inserted() >= 2000);
    }

    #[test]
    fn tier_capacities_double_and_budgets_widen() {
        let mut f = sample(100);
        for k in keys(100..1000) {
            f.insert(&k);
        }
        let n = f.generations();
        assert!(n >= 3);
        for i in 1..n {
            assert_eq!(f.tier_capacity(i), f.tier_capacity(i - 1) * 2);
            // Wider per-key budget: space per capacity unit grows.
            let bpk_prev = f.tier(i - 1).space_bits() as f64 / f.tier_capacity(i - 1) as f64;
            let bpk = f.tier(i).space_bits() as f64 / f.tier_capacity(i) as f64;
            assert!(
                bpk > bpk_prev * 0.99,
                "tier {i} budget must not tighten in space: {bpk} vs {bpk_prev}"
            );
        }
    }

    #[test]
    fn probe_order_puts_the_fullest_tier_first() {
        let mut f = sample(100);
        for k in keys(100..1000) {
            f.insert(&k);
            // Each insert keeps the order a fresh sort (as on load) gives.
            let mut sorted: Vec<usize> = (0..f.generations()).collect();
            sorted.sort_by_key(|&i| std::cmp::Reverse(f.tier_inserted(i)));
            assert_eq!(f.order, sorted);
        }
        assert_ne!(f.order[0], 0, "the grown tiers outhold the base");
        f.fold_rebuild(&keys(0..1000), &[] as &[(Vec<u8>, f64)], 7);
        f.insert(b"late");
        assert_eq!(f.order, [0, 1], "the folded tier goes first");
    }

    #[test]
    fn autoscale_cap_overfills_instead_of_failing() {
        let mut f = sample(50).with_max_tiers(2);
        for k in keys(50..1000) {
            f.insert(&k);
        }
        assert_eq!(f.generations(), 2, "cap must hold");
        assert!(f.saturation() > 1.0, "top tier must overfill past the cap");
        for k in keys(0..1000) {
            assert!(f.contains(&k), "overfilled tier dropped a member");
        }
    }

    #[test]
    fn saturation_stays_bounded_while_tiers_absorb_growth() {
        let mut f = sample(100);
        for k in keys(100..3000) {
            f.insert(&k);
            assert!(
                f.saturation() <= 1.0 + 1e-9,
                "saturation must stay ≤ 1.0 below the tier cap"
            );
        }
    }

    #[test]
    fn fold_rebuild_collapses_to_one_right_sized_tier() {
        let mut f = sample(100);
        for k in keys(100..900) {
            f.insert(&k);
        }
        assert!(f.generations() > 1);
        let bpk0 = 12.0;
        let members = keys(0..900);
        let hints: Vec<(Vec<u8>, f64)> = (0..50)
            .map(|i| (format!("hot:{i}").into_bytes(), 5.0))
            .collect();
        f.fold_rebuild(&members, &hints, 7);
        assert_eq!(f.generations(), 1);
        assert!((f.saturation() - 1.0).abs() < 1e-9);
        for k in &members {
            assert!(f.contains(k), "fold dropped a member");
        }
        // Geometry re-derived from the live key count at the base rate.
        let bits = f.tier(0).space_bits() as f64;
        assert!(
            (bits / 900.0 - bpk0).abs() < 2.0,
            "folded geometry off the base rate: {} bits/key",
            bits / 900.0
        );
    }

    #[test]
    fn round_trip_preserves_the_stack() {
        let mut f = sample(80);
        for k in keys(80..700) {
            f.insert(&k);
        }
        let bytes = crate::DynFilter::to_container_bytes(&f);
        let loaded = crate::registry::load(&bytes).expect("load").filter;
        assert_eq!(loaded.generations(), f.generations());
        assert_eq!(loaded.saturation(), f.saturation());
        for k in keys(0..700) {
            assert_eq!(loaded.contains(&k), f.contains(&k));
        }
        assert_eq!(
            loaded.to_container_bytes(),
            bytes,
            "re-encode must be byte-stable"
        );
    }

    #[test]
    fn truncated_and_corrupt_images_are_typed_errors() {
        let f = sample(60);
        let bytes = crate::DynFilter::to_container_bytes(&f);
        for cut in 0..bytes.len().min(96) {
            assert!(
                crate::registry::load(&bytes[..cut]).is_err(),
                "prefix {cut} must not load"
            );
        }
        // Tier-count corruption: meta_len(8), then k(1) + cell_bits(1) +
        // delta(8) + seed(8) + base_capacity(8) + base_total_bits(8) +
        // max_tiers(4) puts the tier count 46 bytes into the payload.
        let at = crate::persist::decode_container(&bytes)
            .expect("container")
            .payload_offset
            + 46;
        let mut evil = bytes.clone();
        evil[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        match crate::registry::load(&evil).err() {
            Some(PersistError::Corrupt(msg)) => assert_eq!(msg, "tier count out of range"),
            other => panic!("want Corrupt, got {other:?}"),
        }
    }
}

//! The unified, object-safe filter API: one validated build entry point
//! ([`FilterSpec`] + [`BuildInput`]), one runtime trait every filter
//! serves behind ([`DynFilter`]), capability traits ([`BatchQuery`],
//! [`Rebuildable`], [`Growable`]) discovered at runtime instead of
//! matched on, and the one object-safe copy ([`CloneFilter`]).
//!
//! ```text
//!              FilterSpec::habf().bits_per_key(10.0)
//!                         │ build(&BuildInput)
//!                         ▼  (dispatched through crate::registry by id)
//!                Box<dyn DynFilter>  ──────────── write_to ──► "HABC" container
//!                 │      │       │                                │
//!       as_batch ─┘      │       └─ as_growable        registry::load ──► Box<dyn DynFilter>
//!          │       as_rebuildable        │
//!          │             │               └─ &mut dyn Growable
//!   &dyn BatchQuery      └─ &mut dyn Rebuildable
//! ```
//!
//! The point of the seam: the LSM store, the CLI, and the bench suite all
//! hold `Box<dyn DynFilter>` and never name a concrete filter type.
//! Adding a filter variant (an Ada-BF-style tuner, an autoscaling filter,
//! …) is one `DynFilter` impl plus one line in
//! [`crate::registry::entries`] — no enum arm anywhere downstream.

use crate::habf::{ConfigError, HabfConfig};
use crate::persist;
use crate::sharded::ShardedConfig;
use habf_filters::Filter;
use habf_util::Backing;

/// How a [`FilterSpec`] sizes the filter it builds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SpaceBudget {
    /// Bits per member key; the total is resolved against the build
    /// input's member count (the LSM / serving-layer convention).
    BitsPerKey(f64),
    /// An absolute budget in bits (the paper's equal-space comparisons).
    TotalBits(usize),
}

/// The common parameter bag a registry build function receives. Every
/// filter reads the knobs it understands and ignores the rest (a Bloom
/// filter has no `delta`; an HABF has no `cache_entries`).
#[derive(Clone, Debug)]
pub struct FilterParams {
    /// Space budget (default: 10 bits per key, the paper's default).
    pub budget: SpaceBudget,
    /// Build seed (drives `H0` selection, shard routing, TPJO noise).
    pub seed: u64,
    /// Shard count for the sharded ids (default 1).
    pub shards: usize,
    /// Build/query worker threads for sharded ids; `0` = auto.
    pub threads: usize,
    /// HABF space-allocation ratio `∆ = ∆1/∆2` (default 0.25).
    pub delta: f64,
    /// Hash functions per key for the HABF family (default 3).
    pub k: usize,
    /// HashExpressor cell width in bits (default 4).
    pub cell_bits: u32,
    /// Cost-cache entries for the Weighted Bloom filter (default 1024).
    pub cache_entries: usize,
}

impl Default for FilterParams {
    fn default() -> Self {
        let base = HabfConfig::with_total_bits(1);
        Self {
            budget: SpaceBudget::BitsPerKey(10.0),
            seed: base.seed,
            shards: 1,
            threads: 0,
            delta: base.delta,
            k: base.k,
            cell_bits: base.cell_bits,
            cache_entries: 1024,
        }
    }
}

impl FilterParams {
    /// Resolves the budget to a total bit count for `members` keys,
    /// floored at 64 bits so degenerate inputs stay constructible.
    #[must_use]
    pub fn total_bits(&self, members: usize) -> usize {
        let total = match self.budget {
            SpaceBudget::BitsPerKey(b) => (members as f64 * b) as usize,
            SpaceBudget::TotalBits(t) => t,
        };
        total.max(64)
    }

    /// The [`HabfConfig`] these parameters describe for `members` keys.
    /// The HABF family floors its budget at 256 bits (below that the
    /// HashExpressor share cannot hold even one optimized chain per
    /// cell row, so a degenerate run would build a uselessly tiny
    /// filter) — the same floor the LSM run builder always applied.
    #[must_use]
    pub fn habf_config(&self, members: usize) -> HabfConfig {
        let mut cfg = HabfConfig::with_total_bits(self.total_bits(members).max(256));
        cfg.delta = self.delta;
        cfg.k = self.k;
        cfg.cell_bits = self.cell_bits;
        cfg.seed = self.seed;
        cfg
    }

    /// The [`ShardedConfig`] these parameters describe for `members` keys.
    #[must_use]
    pub fn sharded_config(&self, members: usize) -> ShardedConfig {
        let mut cfg = ShardedConfig::new(self.shards, self.habf_config(members));
        cfg.threads = self.threads;
        cfg
    }
}

/// Everything a filter build may consume. Construction-time knowledge is
/// split the way the serving layers produce it:
///
/// * `members` — the positive set (zero false negatives are guaranteed
///   for exactly these keys);
/// * `costed_negatives` — keys known to be queried-but-absent, with the
///   cost of a false positive on each (the paper's `O` and `Θ`);
/// * `hints` — additional cost-annotated negatives from a feedback
///   channel (e.g. mined from an [`crate::adapt::FpLog`]); kept separate
///   so callers can pass operator knowledge and mined knowledge without
///   pre-merging.
///
/// Cost-oblivious filters (Bloom, Xor) ignore the negative sets — that
/// asymmetry is the paper's point, not a bug.
#[derive(Clone, Debug, Default)]
pub struct BuildInput<'a> {
    /// The positive set.
    pub members: Vec<&'a [u8]>,
    /// Cost-annotated known negatives.
    pub costed_negatives: Vec<(&'a [u8], f64)>,
    /// Cost-annotated mined/operator hints, merged with
    /// `costed_negatives` (max cost wins per key) at build time.
    pub hints: Vec<(&'a [u8], f64)>,
}

impl<'a> BuildInput<'a> {
    /// Starts an input from the member set alone.
    pub fn from_members<K: AsRef<[u8]>>(members: &'a [K]) -> Self {
        Self {
            members: members.iter().map(AsRef::as_ref).collect(),
            costed_negatives: Vec::new(),
            hints: Vec::new(),
        }
    }

    /// Adds the cost-annotated known negatives.
    #[must_use]
    pub fn with_costed_negatives<K: AsRef<[u8]>>(mut self, negatives: &'a [(K, f64)]) -> Self {
        self.costed_negatives = negatives.iter().map(|(k, c)| (k.as_ref(), *c)).collect();
        self
    }

    /// Adds feedback-channel hints.
    #[must_use]
    pub fn with_hints<K: AsRef<[u8]>>(mut self, hints: &'a [(K, f64)]) -> Self {
        self.hints = hints.iter().map(|(k, c)| (k.as_ref(), *c)).collect();
        self
    }

    /// The negative set a build actually optimizes against:
    /// `costed_negatives ∪ hints`, key-unique (max cost wins), sorted by
    /// descending cost (ties broken by key for determinism).
    #[must_use]
    pub fn merged_negatives(&self) -> Vec<(&'a [u8], f64)> {
        let mut merged: Vec<(&'a [u8], f64)> = self
            .costed_negatives
            .iter()
            .chain(self.hints.iter())
            .copied()
            .collect();
        merged.sort_by(|a, b| a.0.cmp(b.0).then_with(|| b.1.total_cmp(&a.1)));
        merged.dedup_by(|a, b| a.0 == b.0);
        merged.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        merged
    }

    /// Validates the cost contract shared by every cost-aware filter:
    /// finite, strictly positive costs (a cost ≤ 0 would invert TPJO's
    /// preference for the key).
    ///
    /// # Errors
    /// Returns [`BuildError::BadCost`] with the offending index (indices
    /// run through `costed_negatives` then `hints`).
    pub fn validate_costs(&self) -> Result<(), BuildError> {
        let bad = self
            .costed_negatives
            .iter()
            .chain(self.hints.iter())
            .position(|(_, c)| !(c.is_finite() && *c > 0.0));
        match bad {
            Some(index) => Err(BuildError::BadCost { index }),
            None => Ok(()),
        }
    }
}

/// Why [`FilterSpec::build`] (or [`Rebuildable::rebuild`]) refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// The spec names a filter id absent from the [`crate::registry`].
    UnknownFilter(String),
    /// The filter cannot be built over an empty member set (Xor and
    /// Weighted Bloom reject it; the HABF family degenerates gracefully).
    EmptyMembers {
        /// Id of the filter that refused.
        id: &'static str,
    },
    /// A negative/hint cost is NaN, infinite, or not strictly positive.
    BadCost {
        /// Index of the offending entry (`costed_negatives`, then
        /// `hints`).
        index: usize,
    },
    /// The resolved configuration failed validation.
    Config(ConfigError),
    /// The space budget cannot accommodate the filter at all (e.g. an Xor
    /// filter below one fingerprint bit per key).
    BadBudget {
        /// Id of the filter that refused.
        id: &'static str,
        /// What about the budget was infeasible.
        detail: &'static str,
    },
}

impl core::fmt::Display for BuildError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BuildError::UnknownFilter(id) => write!(f, "unknown filter id {id:?}"),
            BuildError::EmptyMembers { id } => {
                write!(f, "filter {id:?} needs a non-empty member set")
            }
            BuildError::BadCost { index } => write!(
                f,
                "negative/hint at index {index} has a non-finite or non-positive cost"
            ),
            BuildError::Config(e) => write!(f, "invalid configuration: {e}"),
            BuildError::BadBudget { id, detail } => {
                write!(f, "filter {id:?} cannot fit the budget: {detail}")
            }
        }
    }
}

impl std::error::Error for BuildError {}

impl From<ConfigError> for BuildError {
    fn from(e: ConfigError) -> Self {
        BuildError::Config(e)
    }
}

/// A validated, typed description of a filter to build: a registry id
/// plus the common parameter bag. Construct via the typed entry points
/// ([`FilterSpec::habf`], [`FilterSpec::bloom`], …) or by registry id
/// ([`FilterSpec::by_id`]), refine with the builder methods, then
/// [`FilterSpec::build`] over a [`BuildInput`].
///
/// ```
/// use habf_core::{BuildInput, FilterSpec};
///
/// let members: Vec<Vec<u8>> = (0..500).map(|i| format!("user:{i}").into_bytes()).collect();
/// let blocked: Vec<(Vec<u8>, f64)> = (0..500)
///     .map(|i| (format!("bot:{i}").into_bytes(), 1.0 + (i % 7) as f64))
///     .collect();
///
/// let input = BuildInput::from_members(&members).with_costed_negatives(&blocked);
/// let filter = FilterSpec::habf().bits_per_key(10.0).build(&input).unwrap();
/// assert_eq!(filter.filter_id(), "habf");
/// assert!(members.iter().all(|k| filter.contains(k))); // zero FNR
/// ```
#[derive(Clone, Debug)]
pub struct FilterSpec {
    id: &'static str,
    params: FilterParams,
}

impl FilterSpec {
    fn with_id(id: &'static str) -> Self {
        Self {
            id,
            params: FilterParams::default(),
        }
    }

    /// The Hash Adaptive Bloom Filter (full TPJO, Γ on).
    #[must_use]
    pub fn habf() -> Self {
        Self::with_id("habf")
    }

    /// The fast HABF variant (double hashing, Γ off).
    #[must_use]
    pub fn fhabf() -> Self {
        Self::with_id("fhabf")
    }

    /// HABF sharded across `shards` partitions, built in parallel.
    #[must_use]
    pub fn sharded(shards: usize) -> Self {
        Self::with_id("sharded-habf").shards(shards)
    }

    /// f-HABF sharded across `shards` partitions.
    #[must_use]
    pub fn sharded_fast(shards: usize) -> Self {
        Self::with_id("sharded-fhabf").shards(shards)
    }

    /// The standard Bloom filter (seeded xxHash-128, `k = ln2·b`).
    #[must_use]
    pub fn bloom() -> Self {
        Self::with_id("bloom")
    }

    /// The Weighted Bloom filter (Bruck, Gao & Jiang) with its
    /// query-time cost cache.
    #[must_use]
    pub fn weighted_bloom() -> Self {
        Self::with_id("weighted-bloom")
    }

    /// The Xor filter (Graf & Lemire).
    #[must_use]
    pub fn xor() -> Self {
        Self::with_id("xor")
    }

    /// The cache-line-blocked Bloom filter: every key's probes land in
    /// one 512-bit block, with a build-time-calibrated base hash.
    #[must_use]
    pub fn blocked_bloom() -> Self {
        Self::with_id("blocked-bloom")
    }

    /// HABF over a cache-line-blocked bit layer: one memory line per
    /// Bloom round, same two-round zero-FN query.
    #[must_use]
    pub fn blocked_habf() -> Self {
        Self::with_id("blocked-habf")
    }

    /// The 3-wise binary fuse filter (Graf & Lemire): static like xor,
    /// denser fingerprint packing.
    #[must_use]
    pub fn binary_fuse() -> Self {
        Self::with_id("binary-fuse")
    }

    /// The tiered scalable HABF: a stack of HABF generations with
    /// geometrically growing capacity and tightening per-tier FP
    /// budgets, grown through [`Growable`] instead of rebuilt.
    #[must_use]
    pub fn scalable_habf() -> Self {
        Self::with_id("scalable-habf")
    }

    /// A spec for any registered filter id — the string-keyed entry point
    /// the CLI's `--filter <id>` flag uses. Returns `None` for ids absent
    /// from the [`crate::registry`].
    #[must_use]
    pub fn by_id(id: &str) -> Option<Self> {
        crate::registry::entry(id).map(|e| Self::with_id(e.id))
    }

    /// The registry id this spec builds.
    #[must_use]
    pub fn id(&self) -> &'static str {
        self.id
    }

    /// The parameter bag (read access for diagnostics and rebuild seeds).
    #[must_use]
    pub fn params(&self) -> &FilterParams {
        &self.params
    }

    /// Sizes the filter at `bits` per member key.
    #[must_use]
    pub fn bits_per_key(mut self, bits: f64) -> Self {
        self.params.budget = SpaceBudget::BitsPerKey(bits);
        self
    }

    /// Sizes the filter at an absolute total budget.
    #[must_use]
    pub fn total_bits(mut self, bits: usize) -> Self {
        self.params.budget = SpaceBudget::TotalBits(bits);
        self
    }

    /// Sets the build seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.params.seed = seed;
        self
    }

    /// Sets the shard count (sharded ids; others ignore it).
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.params.shards = shards;
        self
    }

    /// Sets the worker-thread count for sharded builds (`0` = auto).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.params.threads = threads;
        self
    }

    /// Sets the HABF-family shape knobs (`∆`, `k`, cell width).
    #[must_use]
    pub fn habf_shape(mut self, delta: f64, k: usize, cell_bits: u32) -> Self {
        self.params.delta = delta;
        self.params.k = k;
        self.params.cell_bits = cell_bits;
        self
    }

    /// Sets the Weighted Bloom cost-cache size.
    #[must_use]
    pub fn cache_entries(mut self, entries: usize) -> Self {
        self.params.cache_entries = entries;
        self
    }

    /// Validates the data-independent shape of this spec — the id is
    /// registered and the HABF-family knobs (`∆`, `k`, cell width, shard
    /// count) are coherent — so misconfigurations surface where the spec
    /// is installed (the LSM store checks it at construction) instead of
    /// as a panic on some later build deep inside a write path. Budget
    /// feasibility that depends on the member count (e.g. the Xor
    /// filter's fingerprint floor) can only be checked at build time.
    ///
    /// # Errors
    /// Returns [`BuildError::UnknownFilter`] or [`BuildError::Config`].
    pub fn validate(&self) -> Result<(), BuildError> {
        if crate::registry::entry(self.id).is_none() {
            return Err(BuildError::UnknownFilter(self.id.to_string()));
        }
        // The HABF-family shape knobs are shared; validate them against
        // a nominal member count (the budget itself is per-build).
        self.params.sharded_config(1_000).validate()?;
        Ok(())
    }

    /// Builds the filter: validates the cost contract, resolves the
    /// budget against the member count, and dispatches to the registry
    /// entry named by [`FilterSpec::id`].
    ///
    /// # Errors
    /// Returns a [`BuildError`] on bad costs, an infeasible
    /// configuration, or an id that lost its registry entry.
    pub fn build(&self, input: &BuildInput<'_>) -> Result<Box<dyn DynFilter>, BuildError> {
        input.validate_costs()?;
        let entry = crate::registry::entry(self.id)
            .ok_or_else(|| BuildError::UnknownFilter(self.id.to_string()))?;
        (entry.build)(&self.params, input)
    }
}

/// The object-safe runtime surface every servable filter exposes. The
/// membership/space surface comes from the [`Filter`] supertrait;
/// `DynFilter` adds identity ([`DynFilter::filter_id`]), persistence
/// ([`DynFilter::write_to`]), and capability discovery.
///
/// Capabilities are discovered, not assumed: callers ask
/// [`DynFilter::as_batch`] / [`DynFilter::as_rebuildable`] /
/// [`DynFilter::as_growable`] and degrade gracefully on `None` — the LSM
/// rebuilds a non-[`Rebuildable`] filter from scratch, the CLI refuses
/// `adapt` on one with a typed message, and every insert surface returns
/// a typed error for a filter that cannot grow.
pub trait DynFilter: Filter + CloneFilter {
    /// The registry id this filter persists and loads under (an ASCII
    /// slug such as `"habf"` or `"weighted-bloom"`) — distinct from
    /// [`Filter::name`], which is the paper-style display name.
    fn filter_id(&self) -> &'static str;

    /// Serializes the filter's container payload: scalar metadata into
    /// `out.meta()`, bulk `u64` word arrays as aligned frames via
    /// `out.frame(..)`. This is what makes the written image loadable
    /// zero-copy through [`crate::registry::load_mmap`].
    fn write_payload_v2<'a>(&'a self, out: &mut persist::FrameWriter<'a>);

    /// Appends the filter as a self-describing `HABC` v2 container
    /// (magic, version, filter id, aligned meta + word frames) — the one
    /// format the workspace writes, which [`crate::registry::load`] and
    /// the zero-copy loaders read back for any registered id.
    fn write_to(&self, out: &mut Vec<u8>) {
        let mut fw = persist::FrameWriter::new();
        self.write_payload_v2(&mut fw);
        persist::encode_container_v2(self.filter_id(), &fw, out);
    }

    /// [`DynFilter::write_to`] into a fresh buffer.
    fn to_container_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_to(&mut out);
        out
    }

    /// Where the filter's payload words live: [`Backing::Owned`] after a
    /// build or a copying load, a shared/mmap view after a zero-copy load
    /// — until mutations ([`Rebuildable::rebuild`], inserts) promote the
    /// storage to owned words. `habf inspect` reports this.
    fn backing(&self) -> Backing {
        Backing::Owned
    }

    /// Inspection metadata as label/value pairs (shard counts, per-key
    /// hash counts, occupancy…). Every format the CLI's `inspect` prints
    /// comes through here, so variants expose comparable detail.
    fn metadata(&self) -> Vec<(&'static str, String)> {
        Vec::new()
    }

    /// How full the filter is relative to its design capacity: the keys
    /// it holds divided by the keys it was sized for. A freshly built
    /// static filter is exactly at capacity (`1.0`); values above `1.0`
    /// mean post-build inserts have overfilled it and its FP envelope no
    /// longer holds. [`Growable`] filters stay ≤ `1.0` until their
    /// newest tier overfills.
    fn saturation(&self) -> f64 {
        1.0
    }

    /// How many filter generations answer a probe: `1` for every flat
    /// filter, the live tier count for a tiered [`Growable`] stack.
    fn generations(&self) -> usize {
        1
    }

    /// The batch-query capability, when this filter has one.
    fn as_batch(&self) -> Option<&dyn BatchQuery> {
        None
    }

    /// The geometry-preserving rebuild capability, when this filter has
    /// one.
    fn as_rebuildable(&mut self) -> Option<&mut dyn Rebuildable> {
        None
    }

    /// A fresh filter that [`Rebuildable::rebuild`] would make of a copy
    /// of this one, over `members` and the mined `hints` at `seed`, made
    /// without the copy: it reads only this filter's geometry and
    /// parameters, and leaves this filter untouched. A serving tenant
    /// rebuilds through it while readers keep probing the original.
    /// `None` exactly when [`DynFilter::as_rebuildable`] is `None`.
    ///
    /// The hints merge as [`BuildInput::with_hints`] merges them, so the
    /// result is byte-identical to the copy-and-rebuild path.
    ///
    /// # Errors
    /// The inner result is [`BuildError::BadCost`] on an invalid hint
    /// cost.
    fn rebuilt(
        &self,
        members: &[Vec<u8>],
        hints: &[(Vec<u8>, f64)],
        seed: u64,
    ) -> Option<Result<Box<dyn DynFilter>, BuildError>> {
        let _ = (members, hints, seed);
        None
    }

    /// The growth capability, when this filter has one. `None` (the
    /// default) means post-build inserts must be refused with a typed
    /// error — growing a fixed-geometry filter would silently void its
    /// zero-FN / FP-envelope contract.
    fn as_growable(&mut self) -> Option<&mut dyn Growable> {
        None
    }
}

/// The object-safe copy every [`DynFilter`] has: a private filter equal
/// to this one, which the caller may mutate while others keep reading the
/// original. Image-backed words are shared until the copy first writes
/// them (see [`DynFilter::backing`]). Implemented for every `Clone`
/// filter, so no filter writes it by hand.
pub trait CloneFilter {
    /// A boxed copy of this filter.
    fn clone_filter(&self) -> Box<dyn DynFilter>;
}

impl<T: DynFilter + Clone + 'static> CloneFilter for T {
    fn clone_filter(&self) -> Box<dyn DynFilter> {
        Box::new(self.clone())
    }
}

/// Capability: answering a batch of queries faster than a scalar loop
/// (shard-grouped probing, thread fan-out).
pub trait BatchQuery {
    /// Answers every key in input order.
    fn contains_batch(&self, keys: &[&[u8]]) -> Vec<bool>;

    /// [`BatchQuery::contains_batch`] over `threads` workers (`0` =
    /// auto).
    fn contains_batch_par(&self, keys: &[&[u8]], threads: usize) -> Vec<bool>;
}

/// Capability: re-running the construction against fresh inputs **at the
/// built filter's exact geometry** — the adaptation loop's rebuild step
/// (geometry preservation keeps observed false positives valid evidence
/// against the rebuilt filter; see `Habf::rebuild`).
pub trait Rebuildable {
    /// Rebuilds from `input`, seeded with `seed` (pass the original build
    /// seed to keep `H0` selection stable).
    ///
    /// # Errors
    /// Returns [`BuildError::BadCost`] on an invalid cost; geometry and
    /// identity are preserved, so configuration errors cannot occur.
    fn rebuild(&mut self, input: &BuildInput<'_>, seed: u64) -> Result<(), BuildError>;
}

/// Capability: absorbing keys past the built design capacity without a
/// stop-the-world rebuild, at a graceful FP-rate cost (the
/// ScalableBloomFilter pattern: geometric tiers, tightening budgets).
///
/// Inserts are **infallible** — a growable filter never refuses a key.
/// When it can no longer add tiers it degrades its TP/FP trade-off
/// (overfilling the newest tier) instead of failing the insert; callers
/// watch [`DynFilter::saturation`] and schedule a
/// [`crate::adapt::RebuildKind::Compact`] fold-back when it climbs.
pub trait Growable {
    /// Adds a key. Zero false negatives hold for every inserted key from
    /// the moment this returns.
    fn insert(&mut self, key: &[u8]);
}

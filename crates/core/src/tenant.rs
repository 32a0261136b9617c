//! Multi-tenant filter serving: one [`TenantStore`] per named tenant,
//! bundling the tenant's filter, its FP-feedback log, and its adaptation
//! policy behind interior mutability so a server can share one store
//! across every connection thread.
//!
//! ## Copy-on-write
//!
//! The filter lives behind `RwLock<Arc<dyn DynFilter>>`. Queries clone
//! the `Arc` under the read lock ([`TenantStore::snapshot`]) and probe
//! outside it, so an in-flight batch keeps one consistent filter for its
//! whole run. A mutation never writes a filter that a snapshot holds:
//! [`TenantStore::insert_keys`] writes in place only while the tenant's
//! `Arc` is unique, and otherwise installs a private copy
//! ([`crate::CloneFilter::clone_filter`]) first;
//! [`TenantStore::rebuild_now`] builds a fresh filter off-lock and swaps
//! it in. The fresh filter comes from [`DynFilter::rebuilt`], which reads
//! only the serving filter's geometry and parameters and the tenant's own
//! member list: the rebuild copies no tier it is about to replace, and
//! builds no key-slice vector over the members.
//! Readers never observe a half-mutated filter; they hold either the old
//! filter or the new one.
//!
//! ## Feedback
//!
//! Feedback ([`TenantStore::record_fp`]) and lookup accounting go to a
//! mutex-guarded [`FpLog`]; [`TenantStore::wants_rebuild`] asks the
//! tenant's [`AdaptPolicy`] whether the logged waste justifies paying
//! for a rebuild. The serving layer (`habf-serve`) maps protocol frames
//! onto exactly these entry points.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use crate::adapt::{AdaptPolicy, FpLog, RebuildKind};
use crate::filter_api::{BuildError, DynFilter};
use crate::registry::{self, OpenError};

/// Default FP-log capacity per tenant: enough to mine a meaningful hint
/// set without unbounded memory per tenant.
pub const DEFAULT_FP_LOG_CAPACITY: usize = 65_536;

/// Default per-event geometric decay of the tenant FP log.
pub const DEFAULT_FP_DECAY: f64 = 0.999;

/// Why a tenant rebuild could not run or failed.
#[derive(Debug)]
pub enum RebuildError {
    /// The tenant was opened without its positive key set; a rebuild
    /// would have no member list to preserve zero false negatives over.
    NoMembers,
    /// The tenant's filter does not expose the rebuild capability.
    NotRebuildable,
    /// The rebuild itself failed.
    Build(BuildError),
}

impl core::fmt::Display for RebuildError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::NoMembers => write!(f, "tenant has no positive set; rebuild unavailable"),
            Self::NotRebuildable => write!(f, "filter does not support rebuild"),
            Self::Build(e) => write!(f, "rebuild failed: {e}"),
        }
    }
}

impl std::error::Error for RebuildError {}

/// Why a tenant insert was refused.
#[derive(Debug)]
pub enum InsertError {
    /// The tenant's filter does not expose the growth capability —
    /// inserting into a fixed-geometry filter would silently void its
    /// zero-FN / FP-envelope contract, so it is a typed refusal instead.
    NotGrowable {
        /// Registry id of the filter that refused.
        id: &'static str,
    },
}

impl core::fmt::Display for InsertError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let Self::NotGrowable { id } = self;
        write!(f, "filter {id:?} cannot grow past its design capacity")
    }
}

impl std::error::Error for InsertError {}

/// Outcome of a completed [`TenantStore::insert_keys`].
#[derive(Clone, Debug)]
pub struct InsertReport {
    /// Keys inserted (all of them — growable inserts are infallible).
    pub accepted: usize,
    /// Filter generations (tiers) now serving.
    pub generations: usize,
    /// Filter saturation after the inserts.
    pub saturation: f64,
}

/// Outcome of a completed [`TenantStore::rebuild_now`].
#[derive(Clone, Debug)]
pub struct RebuildOutcome {
    /// Mined hints the rebuild optimized against.
    pub hints: usize,
    /// Filter generation now serving (increments on every swap).
    pub generation: u64,
}

/// A point-in-time view of one tenant, for stats frames and operators.
#[derive(Clone, Debug)]
pub struct TenantStats {
    /// Registry id of the serving filter.
    pub filter_id: &'static str,
    /// Space of the serving filter, bits.
    pub space_bits: usize,
    /// Filter generation (swap count since open).
    pub generation: u64,
    /// Lookups answered since the last window reset.
    pub lookups: u64,
    /// FP events recorded since the last window reset.
    pub fp_events: u64,
    /// Decayed wasted cost currently in the FP window.
    pub wasted_cost: f64,
    /// Whether the adaptation policy currently wants a rebuild.
    pub wants_rebuild: bool,
    /// Filter saturation (keys held over design capacity).
    pub saturation: f64,
    /// Filter generations answering a probe (tiers of a growable stack).
    pub tiers: usize,
    /// What kind the last completed rebuild was, if any.
    pub last_rebuild: Option<RebuildKind>,
}

impl TenantStats {
    /// The stats as a one-line JSON object (the wire stats payload).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"filter_id\":\"{}\",\
             \"space_bits\":{},\
             \"generation\":{},\
             \"lookups\":{},\
             \"fp_events\":{},\
             \"wasted_cost\":{:.3},\
             \"wants_rebuild\":{},\
             \"saturation\":{:.4},\
             \"tiers\":{},\
             \"rebuild_kind\":{}}}",
            self.filter_id,
            self.space_bits,
            self.generation,
            self.lookups,
            self.fp_events,
            self.wasted_cost,
            self.wants_rebuild,
            self.saturation,
            self.tiers,
            match self.last_rebuild {
                Some(kind) => format!("\"{kind}\""),
                None => "null".to_string(),
            }
        )
    }
}

/// One tenant's serving state: filter + FP log + adaptation policy.
///
/// All entry points take `&self`; a server wraps each store in an `Arc`
/// and shares it across connection threads.
pub struct TenantStore {
    name: String,
    filter: RwLock<Arc<dyn DynFilter>>,
    log: Mutex<FpLog>,
    policy: AdaptPolicy,
    /// Positive keys the tenant's filter must keep answering `true`;
    /// `None` when opened filter-only, which disables rebuilds. Behind a
    /// mutex because [`TenantStore::insert_keys`] appends to it.
    members: Mutex<Option<Vec<Vec<u8>>>>,
    /// Serializes mutations (rebuilds *and* inserts): concurrent
    /// triggers must not both snapshot the same generation and lose one
    /// mutation to the other's swap.
    rebuild_gate: Mutex<()>,
    generation: AtomicU64,
    /// What kind the last completed rebuild was (stats surface).
    last_rebuild: Mutex<Option<RebuildKind>>,
    /// Whether the filter has the growth and rebuild capabilities. Both
    /// belong to the filter's type, and a swap always installs a filter
    /// of the same type, so they are read once here; a refused mutation
    /// then answers without copying the filter or mining hints.
    growable: bool,
    rebuildable: bool,
}

impl TenantStore {
    /// Wraps an already-built (or loaded) filter as a tenant.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        mut filter: Box<dyn DynFilter>,
        policy: AdaptPolicy,
    ) -> Self {
        let growable = filter.as_growable().is_some();
        let rebuildable = filter.as_rebuildable().is_some();
        Self {
            name: name.into(),
            filter: RwLock::new(Arc::from(filter)),
            log: Mutex::new(FpLog::new(DEFAULT_FP_LOG_CAPACITY, DEFAULT_FP_DECAY)),
            policy,
            members: Mutex::new(None),
            rebuild_gate: Mutex::new(()),
            generation: AtomicU64::new(0),
            last_rebuild: Mutex::new(None),
            growable,
            rebuildable,
        }
    }

    /// Opens a tenant from a filter image on disk via the zero-copy
    /// mmap loader ([`registry::load_mmap`]).
    ///
    /// # Errors
    /// Propagates the loader's I/O and typed persistence errors.
    pub fn open(
        name: impl Into<String>,
        path: impl AsRef<std::path::Path>,
        policy: AdaptPolicy,
    ) -> Result<Self, OpenError> {
        let loaded = registry::load_mmap(path)?;
        Ok(Self::new(name, loaded.filter, policy))
    }

    /// Attaches the tenant's positive key set, enabling rebuilds.
    #[must_use]
    pub fn with_members(self, members: Vec<Vec<u8>>) -> Self {
        *self
            .members
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(members);
        self
    }

    /// The tenant's name (the wire routing key).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether this tenant can serve a rebuild request.
    #[must_use]
    pub fn can_rebuild(&self) -> bool {
        self.members
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .is_some()
    }

    /// The current filter generation, starting at 0 and incrementing on
    /// every hot swap.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Clones the current filter `Arc` under the read lock. Probe
    /// through the snapshot, not through repeated `snapshot()` calls, so
    /// one logical operation sees one filter generation.
    #[must_use]
    pub fn snapshot(&self) -> Arc<dyn DynFilter> {
        self.filter
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Answers a batch of keys against one consistent snapshot, through
    /// the prefetch-pipelined batch capability when the filter has one
    /// and the scalar loop otherwise. Notes `keys.len()` lookups in the
    /// FP log (the adaptation denominator).
    #[must_use]
    pub fn contains_batch(&self, keys: &[&[u8]]) -> Vec<bool> {
        let snapshot = self.snapshot();
        let answers = match snapshot.as_batch() {
            Some(batch) => batch.contains_batch(keys),
            None => keys.iter().map(|k| snapshot.contains(k)).collect(),
        };
        self.log
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .note_lookups(keys.len() as u64);
        answers
    }

    /// Records one false-positive (or costed-miss) feedback event.
    /// Non-finite and non-positive costs are rejected inside [`FpLog`];
    /// feedback is untrusted wire input.
    pub fn record_fp(&self, key: &[u8], cost: f64) {
        self.log
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .record(key, cost);
    }

    /// Whether the tenant's policy currently wants a rebuild.
    #[must_use]
    pub fn wants_rebuild(&self) -> bool {
        self.decide_rebuild().is_some()
    }

    /// The full policy decision: FP pressure, saturation, and generation
    /// count combined into the [`RebuildKind`] that fixes the dominant
    /// problem (`None` when nothing has triggered).
    #[must_use]
    pub fn decide_rebuild(&self) -> Option<RebuildKind> {
        let snapshot = self.snapshot();
        let log = self
            .log
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        self.policy
            .decide(&log, snapshot.saturation(), snapshot.generations())
    }

    /// A point-in-time stats view of the tenant.
    #[must_use]
    pub fn stats(&self) -> TenantStats {
        let snapshot = self.snapshot();
        let (lookups, fp_events, wasted_cost, wants) = {
            let log = self
                .log
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            (
                log.window_lookups(),
                log.window_fp_events(),
                log.decayed_wasted_cost(),
                self.policy
                    .decide(&log, snapshot.saturation(), snapshot.generations())
                    .is_some(),
            )
        };
        TenantStats {
            filter_id: snapshot.filter_id(),
            space_bits: snapshot.space_bits(),
            generation: self.generation(),
            lookups,
            fp_events,
            wasted_cost,
            wants_rebuild: wants,
            saturation: snapshot.saturation(),
            tiers: snapshot.generations(),
            last_rebuild: *self
                .last_rebuild
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        }
    }

    /// Inserts keys into the tenant's filter through the growth
    /// capability, copy-on-write: while no snapshot is held the keys go
    /// into the serving filter in place, under the write lock; otherwise
    /// a private copy, made outside the write lock, replaces it first and
    /// takes the keys, and snapshot holders keep the filter they have.
    /// The mutation gate excludes other writers, so no reader waits for
    /// the copy. The tenant's member list (when attached) absorbs the new
    /// keys so a later fold-back rebuild preserves them.
    ///
    /// # Errors
    /// [`InsertError::NotGrowable`] when the filter lacks the capability
    /// — a typed refusal, never a silent zero-FN degradation. It is
    /// answered before any copy, so it costs O(1) whatever the filter size.
    pub fn insert_keys(&self, keys: &[Vec<u8>]) -> Result<InsertReport, InsertError> {
        if !self.growable {
            return Err(InsertError::NotGrowable {
                id: self.snapshot().filter_id(),
            });
        }
        let _gate = self
            .rebuild_gate
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut filter = self
            .filter
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if Arc::get_mut(&mut filter).is_none() {
            drop(filter);
            let copy = Arc::from(self.snapshot().clone_filter());
            filter = self
                .filter
                .write()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            *filter = copy;
        }
        let filter = Arc::get_mut(&mut filter).expect("no snapshot holds a fresh copy");
        let id = filter.filter_id();
        let growable = filter
            .as_growable()
            .ok_or(InsertError::NotGrowable { id })?;
        for key in keys {
            growable.insert(key);
        }
        if let Some(members) = self
            .members
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .as_mut()
        {
            members.extend(keys.iter().cloned());
        }
        Ok(InsertReport {
            accepted: keys.len(),
            generations: filter.generations(),
            saturation: filter.saturation(),
        })
    }

    /// Rebuilds the tenant's filter against hints mined from the FP log
    /// and hot-swaps it in, leaving in-flight snapshot holders on the
    /// old generation.
    ///
    /// The rebuild builds a fresh filter from the snapshot's geometry
    /// ([`DynFilter::rebuilt`]) over the member list, copying neither, so
    /// queries keep flowing on the serving filter for the whole rebuild;
    /// only the final `Arc` swap takes the write lock. It runs for as long
    /// as a full TPJO build over the members: a server calls it off its
    /// event loop.
    /// The FP window resets on success, so the same events cannot
    /// immediately re-trigger the policy against the new generation.
    ///
    /// # Errors
    /// [`RebuildError::NoMembers`] without a positive set,
    /// [`RebuildError::NotRebuildable`] when the filter lacks the
    /// capability (answered before any work), and the underlying build
    /// error otherwise.
    pub fn rebuild_now(&self, seed: u64, max_hints: usize) -> Result<RebuildOutcome, RebuildError> {
        let _gate = self
            .rebuild_gate
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let members_guard = self
            .members
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let members = members_guard.as_ref().ok_or(RebuildError::NoMembers)?;
        if !self.rebuildable {
            return Err(RebuildError::NotRebuildable);
        }

        let snapshot = self.snapshot();
        // Classify the rebuild before it runs: a multi-tier stack folds,
        // an overfilled single filter resizes, and the classic case
        // re-hashes at its existing geometry. (For a growable filter the
        // Rebuildable impl *is* the fold — the kind is the record of why
        // the work was paid for.)
        let kind = if snapshot.generations() > 1 {
            RebuildKind::Compact
        } else if snapshot.saturation() > 1.0 + 1e-9 {
            RebuildKind::Resize
        } else {
            RebuildKind::Rehash
        };
        let hints = self
            .log
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .mine_hints(max_hints);
        let fresh = snapshot
            .rebuilt(members, &hints, seed)
            .ok_or(RebuildError::NotRebuildable)?
            .map_err(RebuildError::Build)?;

        *self
            .filter
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Arc::from(fresh);
        let generation = self.generation.fetch_add(1, Ordering::AcqRel) + 1;
        *self
            .last_rebuild
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(kind);
        self.log
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .reset_window();
        Ok(RebuildOutcome {
            hints: hints.len(),
            generation,
        })
    }
}

impl core::fmt::Debug for TenantStore {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("TenantStore")
            .field("name", &self.name)
            .field("generation", &self.generation())
            .field("can_rebuild", &self.can_rebuild())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter_api::{BuildInput, FilterSpec};

    fn members(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("user:{i}").into_bytes()).collect()
    }

    fn store(n: usize) -> TenantStore {
        let keys = members(n);
        let input = BuildInput::from_members(&keys);
        let filter = FilterSpec::habf()
            .bits_per_key(10.0)
            .build(&input)
            .expect("build");
        TenantStore::new("t", filter, AdaptPolicy::cost_threshold(5.0)).with_members(keys)
    }

    #[test]
    fn batch_answers_match_scalar_and_note_lookups() {
        let s = store(500);
        let keys = members(500);
        let probe: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let got = s.contains_batch(&probe);
        assert!(got.iter().all(|&b| b), "zero FN over members");
        let snap = s.snapshot();
        let scalar: Vec<bool> = probe.iter().map(|k| snap.contains(k)).collect();
        assert_eq!(got, scalar);
    }

    #[test]
    fn feedback_drives_policy_and_rebuild_swaps_generation() {
        let s = store(400);
        assert_eq!(s.generation(), 0);
        assert!(!s.wants_rebuild());
        for i in 0..64 {
            s.record_fp(format!("ghost:{}", i % 4).as_bytes(), 3.0);
        }
        assert!(s.wants_rebuild(), "64×3.0 cost crosses threshold 5.0");

        let before = s.snapshot();
        let outcome = s.rebuild_now(7, 1024).expect("rebuild");
        assert_eq!(outcome.generation, 1);
        assert!(
            outcome.hints >= 1 && outcome.hints <= 4,
            "{}",
            outcome.hints
        );
        assert_eq!(s.generation(), 1);
        // The old snapshot stays servable (readers keep their Arc), the
        // new generation still has zero FN, and the window reset.
        let keys = members(400);
        for k in &keys {
            assert!(before.contains(k));
            assert!(s.snapshot().contains(k));
        }
        assert!(!s.wants_rebuild());
    }

    #[test]
    fn rebuild_without_members_is_a_typed_error() {
        let keys = members(64);
        let input = BuildInput::from_members(&keys);
        let filter = FilterSpec::habf()
            .bits_per_key(10.0)
            .build(&input)
            .expect("build");
        let s = TenantStore::new("t", filter, AdaptPolicy::cost_threshold(1.0));
        assert!(!s.can_rebuild());
        assert!(matches!(s.rebuild_now(0, 16), Err(RebuildError::NoMembers)));
    }

    #[test]
    fn non_rebuildable_filter_is_a_typed_error() {
        let keys = members(64);
        let input = BuildInput::from_members(&keys);
        let filter = FilterSpec::xor().build(&input).expect("build");
        let s = TenantStore::new("t", filter, AdaptPolicy::cost_threshold(1.0)).with_members(keys);
        assert!(matches!(
            s.rebuild_now(0, 16),
            Err(RebuildError::NotRebuildable)
        ));
    }

    fn scalable_store(n: usize) -> TenantStore {
        let keys = members(n);
        let input = BuildInput::from_members(&keys);
        let filter = FilterSpec::scalable_habf()
            .bits_per_key(10.0)
            .build(&input)
            .expect("build");
        TenantStore::new("t", filter, AdaptPolicy::cost_threshold(5.0)).with_members(keys)
    }

    #[test]
    fn insert_grows_a_scalable_tenant_without_bumping_generation() {
        let s = scalable_store(64);
        let burst: Vec<Vec<u8>> = (0..512).map(|i| format!("late:{i}").into_bytes()).collect();
        let report = s.insert_keys(&burst).expect("growable tenant");
        assert_eq!(report.accepted, 512);
        assert!(report.generations > 1, "burst should open new tiers");
        assert_eq!(s.generation(), 0, "inserts are not rebuilds");
        let snap = s.snapshot();
        for k in members(64).iter().chain(&burst) {
            assert!(snap.contains(k), "zero FN across the grown stack");
        }
        let stats = s.stats();
        assert!(stats.tiers > 1);
        assert!(
            stats.to_json().contains("\"tiers\":"),
            "{}",
            stats.to_json()
        );
    }

    #[test]
    fn insert_on_fixed_capacity_filter_is_a_typed_error() {
        let s = store(64);
        let err = s.insert_keys(&members(1)).expect_err("habf cannot grow");
        match err {
            InsertError::NotGrowable { id } => assert_eq!(id, "habf"),
        }
        assert_eq!(s.generation(), 0);
    }

    #[test]
    fn rebuild_after_growth_folds_tiers_and_records_compact() {
        let s = scalable_store(64);
        let burst: Vec<Vec<u8>> = (0..512).map(|i| format!("late:{i}").into_bytes()).collect();
        s.insert_keys(&burst).expect("grow");
        // Keep the member list honest so the fold covers the burst too.
        assert!(s.stats().tiers > 1);
        assert!(s.stats().last_rebuild.is_none());

        let outcome = s.rebuild_now(11, 256).expect("fold");
        assert_eq!(outcome.generation, 1);
        let stats = s.stats();
        assert_eq!(stats.tiers, 1, "fold-back collapses the stack");
        assert_eq!(stats.last_rebuild, Some(RebuildKind::Compact));
        assert!(stats.to_json().contains("\"rebuild_kind\":\"compact\""));
        let snap = s.snapshot();
        for k in members(64).iter().chain(&burst) {
            assert!(snap.contains(k), "zero FN after fold-back");
        }
    }

    fn late_keys(range: std::ops::Range<usize>) -> Vec<Vec<u8>> {
        range.map(|i| format!("late:{i}").into_bytes()).collect()
    }

    /// The serving filter's address: equal across a mutation exactly when
    /// the mutation wrote it in place.
    fn serving(s: &TenantStore) -> *const () {
        Arc::as_ptr(&s.snapshot()).cast()
    }

    #[test]
    fn insert_writes_in_place_while_no_snapshot_is_held() {
        let s = scalable_store(64);
        let before = serving(&s);
        let burst = late_keys(0..512);
        let report = s.insert_keys(&burst).expect("growable tenant");
        assert!(report.generations > 1, "the burst must open tiers");
        assert_eq!(
            serving(&s),
            before,
            "an unshared filter is written in place"
        );
        let snap = s.snapshot();
        assert!(members(64).iter().chain(&burst).all(|k| snap.contains(k)));
    }

    /// A held snapshot is never written: an INSERT that opens a tier and a
    /// REBUILD each leave it re-encoding to the same bytes, and the new
    /// snapshot answers every acknowledged key.
    #[test]
    fn held_snapshots_survive_inserts_and_rebuilds_unchanged() {
        let s = scalable_store(64);
        let held = s.snapshot();
        let image = held.to_container_bytes();
        let burst = late_keys(0..16);
        let report = s.insert_keys(&burst).expect("growable tenant");
        assert!(report.generations > held.generations(), "must open a tier");
        assert_eq!(held.to_container_bytes(), image, "INSERT wrote a snapshot");
        assert_ne!(serving(&s), Arc::as_ptr(&held).cast(), "INSERT must copy");

        let grown = s.snapshot();
        let grown_image = grown.to_container_bytes();
        s.rebuild_now(5, 64).expect("fold");
        assert_eq!(
            grown.to_container_bytes(),
            grown_image,
            "REBUILD wrote a snapshot"
        );
        assert_eq!(held.to_container_bytes(), image);
        let snap = s.snapshot();
        assert!(members(64).iter().chain(&burst).all(|k| snap.contains(k)));
    }

    /// Readers sweep every acknowledged key, holding snapshots for random
    /// spans, while a writer inserts through several tier openings and
    /// rebuilds: no read may ever miss an acknowledged key.
    #[test]
    fn readers_see_every_acknowledged_key_across_inserts_and_rebuilds() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Barrier;

        let s = scalable_store(64);
        let keys = late_keys(0..3_000);
        let acked = AtomicU64::new(0);
        let done = AtomicBool::new(false);
        let start = Barrier::new(4);
        let mut openings = 0;
        std::thread::scope(|scope| {
            for reader in 0..3u64 {
                let (s, keys, acked, done, start) = (&s, &keys, &acked, &done, &start);
                scope.spawn(move || {
                    let mut rng = habf_util::Xoshiro256::new(reader);
                    let mut held: Option<(Arc<dyn DynFilter>, usize)> = None;
                    start.wait();
                    while !done.load(Ordering::Acquire) {
                        let n = acked.load(Ordering::Acquire) as usize;
                        let probe: Vec<&[u8]> = keys[..n].iter().map(Vec::as_slice).collect();
                        assert!(
                            s.contains_batch(&probe).iter().all(|&b| b),
                            "FN under mutation"
                        );
                        if let Some((snap, n)) = &held {
                            assert!(keys[..*n].iter().all(|k| snap.contains(k)), "held FN");
                        }
                        match rng.next_index(4) {
                            0 => held = None,
                            // `n` was read before this snapshot was taken.
                            1 => held = Some((s.snapshot(), n)),
                            _ => {}
                        }
                    }
                });
            }
            start.wait();
            for (i, chunk) in keys.chunks(16).enumerate() {
                let tiers = s.stats().tiers;
                let report = s.insert_keys(chunk).expect("growable tenant");
                openings += usize::from(report.generations > tiers);
                acked.fetch_add(chunk.len() as u64, Ordering::Release);
                if i % 60 == 59 {
                    s.rebuild_now(i as u64, 64).expect("fold");
                }
            }
            done.store(true, Ordering::Release);
        });
        assert!(openings >= 3, "only {openings} tier openings");
        let snap = s.snapshot();
        assert!(keys.iter().all(|k| snap.contains(k)));
    }

    /// Regression: two FEEDBACK events at 1e308 summed to an infinite
    /// wasted cost, so STATS emitted `"wasted_cost":inf` (not JSON) and
    /// every later REBUILD failed on the infinite mined hint.
    #[test]
    fn huge_feedback_costs_keep_stats_json_and_rebuilds_working() {
        let s = store(200);
        s.record_fp(b"ghost", 1e308);
        s.record_fp(b"ghost", 1e308);
        let json = s.stats().to_json();
        assert!(!json.contains("inf") && !json.contains("NaN"), "{json}");
        s.rebuild_now(3, 64).expect("rebuild after huge feedback");
    }

    #[test]
    fn single_tier_rebuild_records_rehash() {
        let s = store(128);
        s.rebuild_now(3, 64).expect("rebuild");
        assert_eq!(s.stats().last_rebuild, Some(RebuildKind::Rehash));
    }

    #[test]
    fn stats_reflect_traffic() {
        let s = store(100);
        let keys = members(100);
        let probe: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let _ = s.contains_batch(&probe);
        s.record_fp(b"ghost", 2.0);
        let stats = s.stats();
        assert_eq!(stats.filter_id, "habf");
        assert_eq!(stats.lookups, 100);
        assert_eq!(stats.fp_events, 1);
        assert!(stats.space_bits > 0);
        let json = stats.to_json();
        assert!(json.contains("\"filter_id\":\"habf\""), "{json}");
        assert!(json.contains("\"lookups\":100"), "{json}");
    }
}

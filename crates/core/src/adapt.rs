//! FP-feedback adaptation: the cost-decayed false-positive log, the hint
//! mining pass, and the rebuild trigger policy.
//!
//! HABF's construction consumes a *static* costed negative set, but the
//! negatives that actually matter are the ones observed in production: the
//! queries that slip past a filter and burn a block read. This module
//! closes that loop:
//!
//! 1. **[`FpLog`]** — a ring-buffered log of false-positive events. Each
//!    event carries the key and the (level-weighted, in the LSM case) cost
//!    of the wasted read. Older events decay geometrically so the log
//!    tracks the *current* costly-miss distribution, not history: an event
//!    `a` records ago contributes `cost · decay^a` to every aggregate.
//! 2. **Mining** — [`FpLog::mine_hints`] folds the log into a
//!    deduplicated, cost-ranked negative hint list, exactly the shape
//!    [`crate::tpjo`] consumes: key-unique, finite, descending by decayed
//!    cost.
//! 3. **[`AdaptPolicy`]** — decides when the observed waste justifies
//!    paying a TPJO rebuild: either the decayed wasted weighted cost
//!    crosses a threshold, or the windowed FP rate breaches an envelope
//!    (e.g. a slack factor over [`crate::Habf::fpr_envelope`]).
//!
//! The serving layers wire this together: the LSM store records every
//! wasted read at query time, checks the policy, and on a trigger re-runs
//! TPJO over each run with the mined hints; a served tenant
//! ([`crate::TenantStore`]) builds a fresh filter from the serving one's
//! geometry and swaps it in, so concurrent readers keep their snapshots.

use std::collections::{HashMap, VecDeque};

/// The largest cost one event carries; [`FpLog::record`] clamps a larger
/// one to it. Even `usize::MAX` events of this cost sum to about 1.8e31,
/// so every aggregate the log reports stays finite.
pub const MAX_EVENT_COST: f64 = 1e12;

/// Ring-buffered, cost-decayed log of observed false positives.
///
/// ```
/// use habf_core::{AdaptPolicy, FpLog};
///
/// let mut log = FpLog::new(1024, 0.99);
/// let policy = AdaptPolicy::cost_threshold(50.0);
/// for _ in 0..20 {
///     log.note_lookup();
///     log.record(b"hot-miss", 3.0); // a wasted read costing 3 units
/// }
/// assert!(policy.should_rebuild(&log));
/// let hints = log.mine_hints(16);
/// assert_eq!(hints.len(), 1); // deduplicated by key
/// assert_eq!(hints[0].0, b"hot-miss");
/// ```
#[derive(Clone, Debug)]
pub struct FpLog {
    /// `(key, raw cost)` events, oldest at the front.
    ring: VecDeque<(Vec<u8>, f64)>,
    capacity: usize,
    /// Geometric decay per subsequent event, in `(0, 1]`.
    decay: f64,
    /// Incrementally maintained `Σ cost·decay^age` over the ring.
    decayed_cost: f64,
    /// Lookups observed since the last [`FpLog::reset_window`].
    window_lookups: u64,
    /// FP events recorded since the last [`FpLog::reset_window`].
    window_fps: u64,
    /// Lifetime FP events (never reset; diagnostics).
    total_fps: u64,
    /// Events dropped for a non-finite or non-positive cost.
    rejected: u64,
}

impl FpLog {
    /// Creates a log holding at most `capacity` events with geometric
    /// per-event `decay`.
    ///
    /// # Panics
    /// Panics if `capacity == 0` or `decay` is not in `(0, 1]`.
    #[must_use]
    pub fn new(capacity: usize, decay: f64) -> Self {
        assert!(capacity > 0, "FpLog capacity must be > 0");
        assert!(
            decay.is_finite() && decay > 0.0 && decay <= 1.0,
            "decay must be in (0, 1], got {decay}"
        );
        Self {
            ring: VecDeque::with_capacity(capacity.min(65_536)),
            capacity,
            decay,
            decayed_cost: 0.0,
            window_lookups: 0,
            window_fps: 0,
            total_fps: 0,
            rejected: 0,
        }
    }

    /// Notes one lookup (the FP-rate denominator). Call once per query
    /// that consults the filter(s), hit or miss.
    pub fn note_lookup(&mut self) {
        self.window_lookups += 1;
    }

    /// Notes `n` lookups at once — the batch-query entry point, where
    /// incrementing per key inside a lock would be pure overhead.
    pub fn note_lookups(&mut self, n: u64) {
        self.window_lookups += n;
    }

    /// Records one false positive: `key` passed a filter but the read
    /// found nothing, wasting `cost` units (level-weighted in the LSM).
    ///
    /// Events with a non-finite or non-positive cost are counted in
    /// [`FpLog::rejected`] and otherwise ignored, and a cost above
    /// [`MAX_EVENT_COST`] is clamped to it — feedback is untrusted input
    /// and must never poison the mined hints.
    pub fn record(&mut self, key: &[u8], cost: f64) {
        if !cost.is_finite() || cost <= 0.0 {
            self.rejected += 1;
            return;
        }
        let cost = cost.min(MAX_EVENT_COST);
        if self.ring.len() == self.capacity {
            if let Some((_, evicted)) = self.ring.pop_front() {
                // The evicted event is `capacity - 1` records old *before*
                // this push ages everything by one more step.
                self.decayed_cost -= evicted * self.decay.powf((self.capacity - 1) as f64);
            }
        }
        // Aging: every resident event moves one step further into the past.
        self.decayed_cost = self.decayed_cost * self.decay + cost;
        if self.decayed_cost < 0.0 {
            // Float drift guard; the true sum is non-negative by construction.
            self.decayed_cost = 0.0;
        }
        self.ring.push_back((key.to_vec(), cost));
        self.window_fps += 1;
        self.total_fps += 1;
    }

    /// The decayed wasted weighted cost currently in the window:
    /// `Σ cost_i · decay^age_i` over the ring, newest event at age 0.
    #[must_use]
    pub fn decayed_wasted_cost(&self) -> f64 {
        self.decayed_cost
    }

    /// FP events since the last window reset.
    #[must_use]
    pub fn window_fp_events(&self) -> u64 {
        self.window_fps
    }

    /// Lookups noted since the last window reset.
    #[must_use]
    pub fn window_lookups(&self) -> u64 {
        self.window_lookups
    }

    /// Observed FP rate in the current window: recorded FP events over
    /// noted lookups (0 when no lookups were noted).
    #[must_use]
    pub fn window_fp_rate(&self) -> f64 {
        if self.window_lookups == 0 {
            0.0
        } else {
            self.window_fps as f64 / self.window_lookups as f64
        }
    }

    /// Lifetime FP events (not reset by [`FpLog::reset_window`]).
    #[must_use]
    pub fn total_fp_events(&self) -> u64 {
        self.total_fps
    }

    /// Events dropped for non-finite or non-positive costs.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Events currently resident in the ring.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` when no events are resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Mines the log into a negative hint list: per-key decayed costs are
    /// summed, and the result is key-unique, finite, sorted by descending
    /// cost (ties broken by key for determinism), at most `max` long.
    #[must_use]
    pub fn mine_hints(&self, max: usize) -> Vec<(Vec<u8>, f64)> {
        if max == 0 || self.ring.is_empty() {
            return Vec::new();
        }
        let newest = self.ring.len() - 1;
        let mut by_key: HashMap<&[u8], f64> = HashMap::with_capacity(self.ring.len());
        for (age_from_oldest, (key, cost)) in self.ring.iter().enumerate() {
            let age = (newest - age_from_oldest) as i32;
            *by_key.entry(key.as_slice()).or_insert(0.0) += cost * self.decay.powi(age);
        }
        let mut hints: Vec<(Vec<u8>, f64)> =
            by_key.into_iter().map(|(k, c)| (k.to_vec(), c)).collect();
        hints.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        hints.truncate(max);
        hints
    }

    /// Clears the ring and the window counters — call after acting on a
    /// trigger, so the same events cannot immediately re-fire it.
    /// Lifetime counters ([`FpLog::total_fp_events`]) are preserved.
    pub fn reset_window(&mut self) {
        self.ring.clear();
        self.decayed_cost = 0.0;
        self.window_lookups = 0;
        self.window_fps = 0;
    }
}

/// What kind of rebuild an adaptation trigger asks for. Until elastic
/// filters existed there was only one answer — re-run TPJO at the built
/// geometry — but a filter that grows past its design capacity needs the
/// loop to distinguish *why* it is rebuilding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RebuildKind {
    /// Re-run the construction at the **existing** geometry against fresh
    /// mined hints (the classic adaptation rebuild; observed FPs stay
    /// valid evidence because no bit positions move).
    Rehash,
    /// Rebuild at a geometry **re-derived from the live key count**: the
    /// filter outgrew its design capacity and needs more space, not
    /// better hash choices.
    Resize,
    /// Fold a multi-generation elastic stack back into one right-sized
    /// single-tier filter (geometry re-derived from the live key count,
    /// mined hints preserved) — the LSM-compaction / tenant-rebuild path.
    Compact,
}

impl RebuildKind {
    /// The one rebuild classifier: a multi-generation stack always folds
    /// ([`RebuildKind::Compact`]) — whatever triggered, the stack is the
    /// thing to repair; a `saturated` single filter resizes; anything
    /// else rehashes at its existing geometry. Each caller decides what
    /// saturated means for it.
    #[must_use]
    pub fn classify(generations: usize, saturated: bool) -> Self {
        if generations > 1 {
            RebuildKind::Compact
        } else if saturated {
            RebuildKind::Resize
        } else {
            RebuildKind::Rehash
        }
    }

    /// The stable lowercase label stats JSON and logs use.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            RebuildKind::Rehash => "rehash",
            RebuildKind::Resize => "resize",
            RebuildKind::Compact => "compact",
        }
    }
}

impl core::fmt::Display for RebuildKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// When to pay for a rebuild: aggregate decayed waste crosses a
/// threshold, the windowed FP rate breaches an envelope, or — for
/// growable filters — saturation crosses its own trigger. The FP checks
/// are gated on a minimum event count so a single unlucky probe cannot
/// trigger a rebuild.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdaptPolicy {
    /// Trigger when [`FpLog::decayed_wasted_cost`] reaches this.
    /// `f64::INFINITY` disables the cost trigger.
    pub wasted_cost_threshold: f64,
    /// Trigger when [`FpLog::window_fp_rate`] reaches this (an FPR
    /// envelope, e.g. `Habf::fpr_envelope() · slack`). Note the observed
    /// rate can exceed 1.0 — one lookup may waste reads in several runs,
    /// and externally reported misses carry no lookup — so the disable
    /// sentinel is `f64::INFINITY`, not merely "above 1.0".
    pub fp_rate_envelope: f64,
    /// Minimum FP events in the window before either FP trigger may fire.
    pub min_fp_events: u64,
    /// Trigger a [`RebuildKind::Resize`] / [`RebuildKind::Compact`] when
    /// the filter's saturation (keys held over design capacity) reaches
    /// this. `f64::INFINITY` disables the saturation trigger — the
    /// default, so pre-elastic policies behave exactly as before.
    pub saturation_threshold: f64,
}

impl AdaptPolicy {
    /// Triggers on decayed wasted cost alone.
    #[must_use]
    pub fn cost_threshold(threshold: f64) -> Self {
        Self {
            wasted_cost_threshold: threshold,
            // The observed rate can exceed 1.0 (one lookup can waste a
            // read in several runs, and externally reported misses don't
            // note lookups), so only infinity truly disables it.
            fp_rate_envelope: f64::INFINITY,
            min_fp_events: 8,
            saturation_threshold: f64::INFINITY,
        }
    }

    /// Triggers on a windowed FP-rate envelope breach alone; `envelope`
    /// is typically a theoretical FPR times a slack factor.
    #[must_use]
    pub fn fp_rate(envelope: f64) -> Self {
        Self {
            wasted_cost_threshold: f64::INFINITY,
            fp_rate_envelope: envelope,
            min_fp_events: 8,
            saturation_threshold: f64::INFINITY,
        }
    }

    /// Also trigger once saturation (live keys over design capacity)
    /// reaches `threshold` — e.g. `1.25` resizes at 25% overfill.
    #[must_use]
    pub fn with_saturation(mut self, threshold: f64) -> Self {
        self.saturation_threshold = threshold;
        self
    }

    /// `true` when the log's current window justifies a rebuild.
    #[must_use]
    pub fn should_rebuild(&self, log: &FpLog) -> bool {
        log.window_fp_events() >= self.min_fp_events
            && (log.decayed_wasted_cost() >= self.wasted_cost_threshold
                || log.window_fp_rate() >= self.fp_rate_envelope)
    }

    /// Full decision: given the FP log plus the filter's current
    /// `saturation` and `generations` (from [`crate::filter_api::DynFilter`]),
    /// pick the rebuild that fixes the dominant problem
    /// ([`RebuildKind::classify`], saturated at the policy's threshold),
    /// or `None` when nothing triggered.
    #[must_use]
    pub fn decide(&self, log: &FpLog, saturation: f64, generations: usize) -> Option<RebuildKind> {
        let saturated = saturation >= self.saturation_threshold;
        (saturated || self.should_rebuild(log))
            .then(|| RebuildKind::classify(generations, saturated))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_mine_dedups_and_ranks() {
        let mut log = FpLog::new(64, 1.0); // no decay: pure sums
        log.record(b"a", 1.0);
        log.record(b"b", 5.0);
        log.record(b"a", 2.5);
        log.record(b"c", 0.5);
        let hints = log.mine_hints(10);
        assert_eq!(hints.len(), 3);
        assert_eq!(hints[0], (b"b".to_vec(), 5.0));
        assert_eq!(hints[1].0, b"a");
        assert!((hints[1].1 - 3.5).abs() < 1e-12);
        assert_eq!(hints[2].0, b"c");
        // Descending and key-unique.
        assert!(hints.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn mine_caps_at_max() {
        let mut log = FpLog::new(64, 1.0);
        for i in 0..20 {
            log.record(format!("k{i}").as_bytes(), 1.0 + i as f64);
        }
        assert_eq!(log.mine_hints(5).len(), 5);
        assert!(log.mine_hints(0).is_empty());
        // The cap keeps the costliest.
        assert_eq!(log.mine_hints(1)[0].0, b"k19");
    }

    #[test]
    fn decay_prefers_recent_events() {
        let mut log = FpLog::new(64, 0.5);
        // "old" gets a big cost early; "new" smaller costs late. With
        // decay 0.5 over 10 intervening events, old's contribution is
        // 100 · 0.5^12 ≈ 0.024, far below new's ≈ 1.5.
        log.record(b"old", 100.0);
        for _ in 0..10 {
            log.record(b"filler", 0.001);
        }
        log.record(b"new", 1.0);
        log.record(b"new", 1.0);
        let hints = log.mine_hints(2);
        assert_eq!(hints[0].0, b"new", "decay must favor recent events");
    }

    #[test]
    fn ring_eviction_keeps_decayed_cost_consistent() {
        let mut log = FpLog::new(8, 0.9);
        for i in 0..100 {
            log.record(format!("k{i}").as_bytes(), 1.0 + (i % 5) as f64);
        }
        assert_eq!(log.len(), 8);
        // Recompute the ground truth directly from the ring via mining
        // with no cap: decayed_wasted_cost must equal the summed hints.
        let direct: f64 = log.mine_hints(usize::MAX).iter().map(|(_, c)| c).sum();
        assert!(
            (log.decayed_wasted_cost() - direct).abs() < 1e-9,
            "incremental {} vs direct {}",
            log.decayed_wasted_cost(),
            direct
        );
    }

    #[test]
    fn nonfinite_and_nonpositive_costs_are_rejected_not_stored() {
        let mut log = FpLog::new(8, 1.0);
        log.record(b"bad", f64::NAN);
        log.record(b"bad", f64::INFINITY);
        log.record(b"bad", -1.0);
        log.record(b"bad", 0.0);
        assert!(log.is_empty());
        assert_eq!(log.rejected(), 4);
        assert_eq!(log.decayed_wasted_cost(), 0.0);
        log.record(b"good", 2.0);
        let hints = log.mine_hints(10);
        assert_eq!(hints.len(), 1);
        assert!(hints.iter().all(|(_, c)| c.is_finite() && *c > 0.0));
    }

    /// Regression: two events at `f64::MAX` summed to infinity, so the
    /// log reported an infinite cost and mined an infinite hint.
    #[test]
    fn huge_costs_are_clamped_so_every_sum_stays_finite() {
        let mut log = FpLog::new(8, 1.0);
        log.record(b"k", f64::MAX);
        log.record(b"k", f64::MAX);
        assert_eq!(log.decayed_wasted_cost(), 2.0 * MAX_EVENT_COST);
        assert_eq!(
            log.mine_hints(4),
            vec![(b"k".to_vec(), 2.0 * MAX_EVENT_COST)]
        );
        assert_eq!(log.rejected(), 0, "a huge cost is clamped, not dropped");
    }

    #[test]
    fn cost_threshold_policy_triggers_and_resets() {
        let mut log = FpLog::new(1024, 1.0);
        let policy = AdaptPolicy::cost_threshold(10.0);
        for _ in 0..7 {
            log.record(b"x", 2.0);
        }
        // Cost is 14 ≥ 10, but only 7 events < min_fp_events (8).
        assert!(!policy.should_rebuild(&log));
        log.record(b"x", 2.0);
        assert!(policy.should_rebuild(&log));
        log.reset_window();
        assert!(!policy.should_rebuild(&log));
        assert_eq!(log.total_fp_events(), 8, "lifetime counter survives reset");
    }

    #[test]
    fn fp_rate_policy_uses_noted_lookups() {
        let mut log = FpLog::new(1024, 1.0);
        let policy = AdaptPolicy::fp_rate(0.10);
        for _ in 0..100 {
            log.note_lookup();
        }
        for _ in 0..9 {
            log.record(b"x", 1.0);
        }
        assert!((log.window_fp_rate() - 0.09).abs() < 1e-12);
        assert!(!policy.should_rebuild(&log), "9% is under the 10% envelope");
        log.record(b"x", 1.0);
        assert!(policy.should_rebuild(&log));
    }

    #[test]
    fn no_lookups_means_zero_rate() {
        let log = FpLog::new(4, 1.0);
        assert_eq!(log.window_fp_rate(), 0.0);
        assert!(!AdaptPolicy::fp_rate(0.0001).should_rebuild(&log));
    }

    #[test]
    #[should_panic(expected = "capacity must be > 0")]
    fn zero_capacity_rejected() {
        let _ = FpLog::new(0, 0.9);
    }

    #[test]
    #[should_panic(expected = "decay must be in (0, 1]")]
    fn bad_decay_rejected() {
        let _ = FpLog::new(8, 1.5);
    }

    #[test]
    fn decide_picks_the_kind_that_fixes_the_dominant_problem() {
        let mut log = FpLog::new(64, 1.0);
        let policy = AdaptPolicy::cost_threshold(10.0).with_saturation(1.5);

        // Quiet log, unsaturated single filter: nothing to do.
        assert_eq!(policy.decide(&log, 1.0, 1), None);
        // Saturation alone resizes a single-generation filter...
        assert_eq!(policy.decide(&log, 1.6, 1), Some(RebuildKind::Resize));
        // ...and folds a multi-generation stack.
        assert_eq!(policy.decide(&log, 1.6, 3), Some(RebuildKind::Compact));

        for _ in 0..8 {
            log.record(b"hot", 2.0);
        }
        assert!(policy.should_rebuild(&log));
        // FP pressure on an unsaturated single filter rehashes in place.
        assert_eq!(policy.decide(&log, 1.0, 1), Some(RebuildKind::Rehash));
        // FP pressure on a stack still folds — rehashing one tier of a
        // stack would leave the stacked probe cost in place.
        assert_eq!(policy.decide(&log, 1.0, 4), Some(RebuildKind::Compact));
        // Both triggers at once on a single filter: resize wins (the new
        // geometry gets fresh hints anyway).
        assert_eq!(policy.decide(&log, 2.0, 1), Some(RebuildKind::Resize));
    }

    #[test]
    fn default_policies_never_trigger_on_saturation() {
        let log = FpLog::new(8, 1.0);
        let policy = AdaptPolicy::cost_threshold(10.0);
        assert_eq!(policy.decide(&log, 100.0, 5), None);
        assert_eq!(RebuildKind::Compact.as_str(), "compact");
        assert_eq!(RebuildKind::Resize.to_string(), "resize");
        assert_eq!(RebuildKind::Rehash.to_string(), "rehash");
    }

    #[test]
    fn mined_hints_are_strictly_key_unique_and_deterministic() {
        let mut log = FpLog::new(256, 0.95);
        for i in 0..200 {
            log.record(format!("k{}", i % 17).as_bytes(), 1.0 + (i % 3) as f64);
        }
        let a = log.mine_hints(100);
        let b = log.mine_hints(100);
        assert_eq!(a, b, "mining must be deterministic");
        let mut keys: Vec<&[u8]> = a.iter().map(|(k, _)| k.as_slice()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), a.len(), "duplicate key survived mining");
    }
}

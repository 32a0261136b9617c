//! A sorted immutable run (SSTable stand-in) with an optional filter.
//!
//! The run holds its filter as a `Box<dyn DynFilter>` built through the
//! registry-dispatched [`FilterSpec`] — there is no per-variant enum here:
//! a newly registered filter serves as a run filter with zero changes to
//! this crate.

use habf_core::{BuildInput, DynFilter, FilterSpec};

/// An immutable sorted run of key-value entries.
pub struct Run {
    /// Entries sorted by key, duplicate-free.
    entries: Vec<(Vec<u8>, Vec<u8>)>,
    /// The filter guarding the run; `None` means every probe pays the
    /// block read.
    filter: Option<Box<dyn DynFilter>>,
}

impl Run {
    /// Builds a run from sorted, deduplicated entries and a filter.
    ///
    /// # Panics
    /// Panics (debug) if entries are not strictly sorted.
    #[must_use]
    pub fn new(entries: Vec<(Vec<u8>, Vec<u8>)>, filter: Option<Box<dyn DynFilter>>) -> Self {
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "run entries must be strictly sorted"
        );
        Self { entries, filter }
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the run holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The filter guarding this run, when it has one.
    #[must_use]
    pub fn filter(&self) -> Option<&dyn DynFilter> {
        self.filter.as_deref()
    }

    /// Replaces the run's filter (used when reopening persisted filters
    /// mmap-backed).
    pub fn set_filter(&mut self, filter: Option<Box<dyn DynFilter>>) {
        self.filter = filter;
    }

    /// Where the filter's payload words live (`None` for a filterless
    /// run): `mmap`/`shared` while served from an image view, `owned`
    /// after a build or once a rebuild promoted it.
    #[must_use]
    pub fn filter_backing(&self) -> Option<habf_util::Backing> {
        self.filter.as_ref().map(|f| f.backing())
    }

    /// Tests the filter; a filterless run always passes (no pruning).
    #[must_use]
    pub fn may_contain(&self, key: &[u8]) -> bool {
        self.filter.as_ref().is_none_or(|f| f.contains(key))
    }

    /// Filter memory in bits (0 for a filterless run).
    #[must_use]
    pub fn filter_bits(&self) -> usize {
        self.filter.as_ref().map_or(0, |f| f.space_bits())
    }

    /// Fill pressure of the run's filter: top-tier `inserted/capacity`
    /// for a growable stack, 1.0 for fixed-capacity filters (and for a
    /// filterless run — there is nothing to outgrow).
    #[must_use]
    pub fn filter_saturation(&self) -> f64 {
        self.filter.as_ref().map_or(1.0, |f| f.saturation())
    }

    /// Generations (tiers) in the run's filter; 1 for anything that is
    /// not a grown stack.
    #[must_use]
    pub fn filter_generations(&self) -> usize {
        self.filter.as_ref().map_or(1, |f| f.generations())
    }

    /// The sorted entries (used by compaction).
    #[must_use]
    pub fn entries(&self) -> &[(Vec<u8>, Vec<u8>)] {
        &self.entries
    }

    /// Consumes the run, yielding its entries.
    #[must_use]
    pub fn into_entries(self) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.entries
    }

    /// Point lookup inside the run (binary search — the "block read").
    #[must_use]
    pub fn get(&self, key: &[u8]) -> Option<&[u8]> {
        self.entries
            .binary_search_by(|(k, _)| k.as_slice().cmp(key))
            .ok()
            .map(|i| self.entries[i].1.as_slice())
    }

    /// Builds the configured filter for the run's keys through the
    /// registry, excluding hints that are actually present in the run (a
    /// hint that became a member must not be treated as negative).
    /// Returns `None` for an empty run or a `None` spec.
    ///
    /// # Panics
    /// Panics if the spec's build fails — the spec is store
    /// configuration, so a failure is an operator error, not data
    /// corruption.
    #[must_use]
    pub fn build_filter(
        entries: &[(Vec<u8>, Vec<u8>)],
        spec: Option<&FilterSpec>,
        hints: &[(Vec<u8>, f64)],
    ) -> Option<Box<dyn DynFilter>> {
        let spec = spec?;
        if entries.is_empty() {
            return None;
        }
        let input = BuildInput {
            members: entries.iter().map(|(k, _)| k.as_slice()).collect(),
            costed_negatives: costed_negatives(entries, hints),
            hints: Vec::new(),
        };
        match spec.build(&input) {
            Ok(filter) => Some(filter),
            Err(e) => panic!("run filter {:?} failed to build: {e}", spec.id()),
        }
    }

    /// Rebuilds this run's filter in place with fresh hints — the
    /// adaptation loop's per-run step. A filter exposing the
    /// [`habf_core::Rebuildable`] capability is rebuilt at its exact
    /// geometry (a sharded filter shard by shard); anything else is
    /// rebuilt from scratch through the spec. The store owns its runs
    /// and no reader holds a run's filter across the call, so nothing
    /// is copied.
    pub fn rebuild_filter(&mut self, spec: Option<&FilterSpec>, hints: &[(Vec<u8>, f64)]) {
        if let (Some(spec), Some(filter)) = (spec, self.filter.as_mut()) {
            if !self.entries.is_empty() {
                if let Some(rebuildable) = filter.as_rebuildable() {
                    let input = BuildInput {
                        members: self.entries.iter().map(|(k, _)| k.as_slice()).collect(),
                        costed_negatives: costed_negatives(&self.entries, hints),
                        hints: Vec::new(),
                    };
                    rebuildable
                        .rebuild(&input, spec.params().seed)
                        .expect("hint pipeline delivers validated costs");
                    return;
                }
            }
        }
        self.filter = Run::build_filter(&self.entries, spec, hints);
    }

    /// Rebuilds the filter from scratch through the spec, re-deriving
    /// the geometry from the live key count — the `Resize`/`Compact`
    /// arm of the adaptation loop. A multi-tier stack folds back to one
    /// right-sized tier; mined hints feed the fresh TPJO pass.
    pub fn fold_filter(&mut self, spec: Option<&FilterSpec>, hints: &[(Vec<u8>, f64)]) {
        self.filter = Run::build_filter(&self.entries, spec, hints);
    }
}

/// Hints that are not members of the run, as the costed negative set.
///
/// Caps the list relative to the run size: the HashExpressor stores one
/// chain per optimized key, and its accidental-chain FPR grows with
/// occupancy (paper §III-F, F_h ≤ t/ω), so feeding a small run an
/// oversized hint list degrades instead of helping. Hints arrive
/// cost-sorted, so the cap keeps the costliest.
fn costed_negatives<'a>(
    entries: &[(Vec<u8>, Vec<u8>)],
    hints: &'a [(Vec<u8>, f64)],
) -> Vec<(&'a [u8], f64)> {
    hints
        .iter()
        .filter(|(k, _)| {
            entries
                .binary_search_by(|(ek, _)| ek.as_slice().cmp(k.as_slice()))
                .is_err()
        })
        .take(2 * entries.len())
        .map(|(k, c)| (k.as_slice(), *c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries(n: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
        (0..n)
            .map(|i| {
                (
                    format!("key{i:06}").into_bytes(),
                    format!("val{i}").into_bytes(),
                )
            })
            .collect()
    }

    #[test]
    fn get_finds_members_and_rejects_others() {
        let run = Run::new(entries(100), None);
        assert_eq!(run.get(b"key000042"), Some(b"val42".as_slice()));
        assert_eq!(run.get(b"key000100"), None);
        assert_eq!(run.len(), 100);
    }

    #[test]
    fn bloom_filter_run_never_drops_members() {
        let es = entries(500);
        let filter = Run::build_filter(&es, Some(&FilterSpec::bloom().bits_per_key(10.0)), &[]);
        let run = Run::new(es, filter);
        for i in 0..500 {
            let key = format!("key{i:06}").into_bytes();
            assert!(run.may_contain(&key), "member pruned");
            assert!(run.get(&key).is_some());
        }
    }

    #[test]
    fn habf_filter_uses_hints() {
        let es = entries(400);
        let hints: Vec<(Vec<u8>, f64)> = (0..400)
            .map(|i| (format!("miss{i:06}").into_bytes(), 10.0))
            .collect();
        let filter = Run::build_filter(&es, Some(&FilterSpec::habf().bits_per_key(10.0)), &hints);
        let run = Run::new(es, filter);
        for i in 0..400 {
            let key = format!("key{i:06}").into_bytes();
            assert!(run.may_contain(&key));
        }
        // The hinted misses should be pruned almost always.
        let pruned = hints.iter().filter(|(k, _)| !run.may_contain(k)).count();
        assert!(pruned > 300, "only {pruned}/400 hinted misses pruned");
    }

    #[test]
    fn hints_that_are_members_are_ignored() {
        let es = entries(100);
        // Hint a key that IS in the run: must not break zero-FNR.
        let hints = vec![(b"key000050".to_vec(), 100.0)];
        let filter = Run::build_filter(&es, Some(&FilterSpec::habf().bits_per_key(12.0)), &hints);
        let run = Run::new(es, filter);
        assert!(run.may_contain(b"key000050"));
    }

    #[test]
    fn sharded_filter_run_never_drops_members_and_prunes_hints() {
        let es = entries(600);
        let hints: Vec<(Vec<u8>, f64)> = (0..600)
            .map(|i| (format!("miss{i:06}").into_bytes(), 10.0))
            .collect();
        let filter = Run::build_filter(
            &es,
            Some(&FilterSpec::sharded(4).bits_per_key(10.0)),
            &hints,
        );
        assert_eq!(filter.as_ref().map(|f| f.filter_id()), Some("sharded-habf"));
        let run = Run::new(es, filter);
        for i in 0..600 {
            let key = format!("key{i:06}").into_bytes();
            assert!(run.may_contain(&key), "member pruned");
        }
        let pruned = hints.iter().filter(|(k, _)| !run.may_contain(k)).count();
        assert!(pruned > 450, "only {pruned}/600 hinted misses pruned");
        assert!(run.filter_bits() > 0);
    }

    #[test]
    fn rebuild_filter_adopts_new_hints() {
        let es = entries(400);
        let spec = FilterSpec::habf().bits_per_key(12.0);
        let filter = Run::build_filter(&es, Some(&spec), &[]);
        let mut run = Run::new(es, filter);
        let mined: Vec<(Vec<u8>, f64)> = (0..400)
            .map(|i| (format!("mined{i:06}").into_bytes(), 5.0))
            .collect();
        run.rebuild_filter(Some(&spec), &mined);
        for i in 0..400 {
            let key = format!("key{i:06}").into_bytes();
            assert!(run.may_contain(&key), "member pruned by rebuild");
        }
        let pruned = mined.iter().filter(|(k, _)| !run.may_contain(k)).count();
        assert!(pruned > 300, "only {pruned}/400 mined misses pruned");
    }

    #[test]
    fn non_rebuildable_filters_fall_back_to_scratch_rebuilds() {
        let es = entries(300);
        let spec = FilterSpec::bloom().bits_per_key(10.0);
        let filter = Run::build_filter(&es, Some(&spec), &[]);
        let mut run = Run::new(es, filter);
        assert!(
            run.filter
                .as_mut()
                .is_some_and(|f| f.as_rebuildable().is_none()),
            "bloom must not advertise the rebuild capability"
        );
        run.rebuild_filter(Some(&spec), &[]);
        for i in 0..300 {
            let key = format!("key{i:06}").into_bytes();
            assert!(run.may_contain(&key), "member pruned by scratch rebuild");
        }
    }

    #[test]
    fn sharded_rebuild_stays_in_place_and_matches_scratch_build() {
        let es = entries(600);
        let spec = FilterSpec::sharded(4).bits_per_key(12.0);
        let filter = Run::build_filter(&es, Some(&spec), &[]);
        let mut run = Run::new(es.clone(), filter);
        let mined: Vec<(Vec<u8>, f64)> = (0..600)
            .map(|i| (format!("mined{i:06}").into_bytes(), 5.0))
            .collect();
        run.rebuild_filter(Some(&spec), &mined);
        assert_eq!(run.filter().map(|f| f.filter_id()), Some("sharded-habf"));
        for (k, _) in &es {
            assert!(run.may_contain(k), "member pruned by rebuild");
        }
        // The in-place rebuild must answer exactly like a scratch build
        // over the same hints (same routing, same budget, same seeds).
        let scratch = Run::build_filter(&es, Some(&spec), &mined).expect("scratch filter");
        for (k, _) in &mined {
            assert_eq!(run.may_contain(k), scratch.contains(k));
        }
    }

    #[test]
    fn empty_run_gets_no_filter() {
        let filter = Run::build_filter(&[], Some(&FilterSpec::bloom().bits_per_key(10.0)), &[]);
        assert!(filter.is_none());
        let run = Run::new(Vec::new(), filter);
        assert_eq!(run.filter_bits(), 0);
        assert!(run.may_contain(b"anything"));
    }
}

//! The leveled store: memtable, flush, compaction, I/O accounting, and the
//! FP-feedback adaptation loop.

use crate::run::Run;
use habf_core::{AdaptPolicy, FilterSpec, FpLog, RebuildKind};
use std::collections::{BTreeMap, HashSet};

/// Store configuration.
#[derive(Clone, Debug)]
pub struct LsmConfig {
    /// Memtable entries before a flush to level 0.
    pub memtable_capacity: usize,
    /// Runs a level may hold before compacting into the next level.
    pub level_fanout: usize,
    /// The per-run filter policy: any registered [`FilterSpec`], sized in
    /// bits per stored key, or `None` for no filters (every lookup probes
    /// every overlapping run). Registry dispatch means a newly registered
    /// filter variant serves as a run filter with no changes here.
    pub filter: Option<FilterSpec>,
}

impl Default for LsmConfig {
    fn default() -> Self {
        Self {
            memtable_capacity: 4096,
            level_fanout: 4,
            filter: Some(FilterSpec::bloom().bits_per_key(10.0)),
        }
    }
}

/// Configuration of the FP-feedback adaptation loop
/// ([`Lsm::enable_adaptation`]).
#[derive(Clone, Debug)]
pub struct AdaptConfig {
    /// When the observed waste justifies rebuilding the run filters.
    pub policy: AdaptPolicy,
    /// Ring capacity of the false-positive log.
    pub log_capacity: usize,
    /// Geometric per-event cost decay in `(0, 1]` (1 = no decay).
    pub decay: f64,
    /// Most hints mined from the log per filter build.
    pub max_hints: usize,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        Self {
            // Trigger once ~256 level-weighted cost units were wasted on
            // recent false positives — a few hundred L0 misreads, fewer
            // when the waste sits in deeper (costlier) levels.
            policy: AdaptPolicy::cost_threshold(256.0),
            log_capacity: 8_192,
            decay: 0.999,
            max_hints: 4_096,
        }
    }
}

/// Why [`Lsm::set_negative_hints`] rejected a hint batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HintError {
    /// A hint carried a NaN, infinite, or non-positive cost (at the
    /// reported index in the supplied batch). Hints are operator input; a
    /// bad cost must be reported, not panicked on — and a cost ≤ 0 would
    /// invert TPJO's preference for the key.
    BadCost {
        /// Index of the offending entry in the supplied batch.
        index: usize,
    },
}

impl core::fmt::Display for HintError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            HintError::BadCost { index } => {
                write!(
                    f,
                    "negative hint at index {index} has a non-finite or non-positive cost"
                )
            }
        }
    }
}

impl std::error::Error for HintError {}

/// Simulated I/O counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Run probes that the filter did not prune (each costs a block read).
    pub block_reads: u64,
    /// Block reads that found nothing — wasted I/O from false positives.
    pub wasted_reads: u64,
    /// Run probes pruned by a filter (saved block reads).
    pub pruned_probes: u64,
    /// Level-weighted read cost: each block read at level `L` costs `L+1`
    /// units (deeper levels are colder — the ElasticBF cost model).
    pub weighted_cost: u64,
    /// Level-weighted wasted cost (the quantity HABF minimizes).
    pub wasted_weighted_cost: u64,
    /// Filter-rebuild passes triggered by the adaptation policy (each
    /// pass re-runs TPJO over every run with freshly mined hints).
    pub rebuilds: u64,
}

/// The adaptation loop's runtime state.
struct AdaptState {
    config: AdaptConfig,
    log: FpLog,
}

/// The LSM store.
pub struct Lsm {
    config: LsmConfig,
    memtable: BTreeMap<Vec<u8>, Vec<u8>>,
    /// `levels[0]` is the youngest level; within a level, runs are ordered
    /// oldest → newest and probed newest-first.
    levels: Vec<Vec<Run>>,
    /// Cost-annotated keys known to be frequently looked up but absent:
    /// key-unique, finite costs, descending by cost.
    negative_hints: Vec<(Vec<u8>, f64)>,
    /// FP-feedback state; `None` until [`Lsm::enable_adaptation`].
    adapt: Option<AdaptState>,
    /// What the most recent filter-rebuild pass was for.
    last_rebuild: Option<RebuildKind>,
    io: IoStats,
}

impl Lsm {
    /// Creates an empty store.
    ///
    /// # Panics
    /// Panics on a degenerate configuration: zero memtable capacity or
    /// level fanout, or a filter spec whose shape fails
    /// [`FilterSpec::validate`] — surfacing the misconfiguration here
    /// instead of as a build panic inside the first flush.
    #[must_use]
    pub fn new(config: LsmConfig) -> Self {
        assert!(
            config.memtable_capacity > 0,
            "memtable capacity must be > 0"
        );
        assert!(config.level_fanout > 0, "level fanout must be > 0");
        if let Some(spec) = &config.filter {
            if let Err(e) = spec.validate() {
                panic!("invalid run-filter spec {:?}: {e}", spec.id());
            }
        }
        Self {
            config,
            memtable: BTreeMap::new(),
            levels: Vec::new(),
            negative_hints: Vec::new(),
            adapt: None,
            last_rebuild: None,
            io: IoStats::default(),
        }
    }

    /// Switches on the FP-feedback adaptation loop: every wasted read is
    /// recorded in a cost-decayed [`FpLog`]; once `config.policy` fires,
    /// the store mines the log into negative hints and re-runs TPJO over
    /// every run filter ([`Lsm::rebuild_filters`]), counted in
    /// [`IoStats::rebuilds`]. Flushes and compactions also fold the mined
    /// hints into the filters they build.
    ///
    /// # Panics
    /// Panics on a degenerate configuration (zero log capacity or a decay
    /// outside `(0, 1]`).
    pub fn enable_adaptation(&mut self, config: AdaptConfig) {
        let log = FpLog::new(config.log_capacity, config.decay);
        self.adapt = Some(AdaptState { config, log });
    }

    /// `true` once [`Lsm::enable_adaptation`] was called.
    #[must_use]
    pub fn adaptation_enabled(&self) -> bool {
        self.adapt.is_some()
    }

    /// Registers the cost-annotated negative lookup hints used when
    /// building HABF run filters (e.g. mined from a query log of misses).
    /// The batch is deduplicated by key — keeping the max-cost entry per
    /// key, wherever duplicates sit in the input — and stored sorted by
    /// descending cost (ties broken by key).
    ///
    /// # Errors
    /// Returns [`HintError::BadCost`] (and leaves the stored hints
    /// unchanged) if any cost is NaN, infinite, or not strictly positive —
    /// the whole hint pipeline's costs-are-positive contract starts here.
    pub fn set_negative_hints(&mut self, mut hints: Vec<(Vec<u8>, f64)>) -> Result<(), HintError> {
        if let Some(index) = hints.iter().position(|(_, c)| !(c.is_finite() && *c > 0.0)) {
            return Err(HintError::BadCost { index });
        }
        dedup_keep_max_cost(&mut hints);
        self.negative_hints = hints;
        Ok(())
    }

    /// The stored operator hints: key-unique, finite, descending by cost.
    #[must_use]
    pub fn negative_hints(&self) -> &[(Vec<u8>, f64)] {
        &self.negative_hints
    }

    /// Hints currently minable from the FP log (empty when adaptation is
    /// off): key-unique, finite, descending by decayed cost.
    #[must_use]
    pub fn mined_hints(&self) -> Vec<(Vec<u8>, f64)> {
        self.adapt
            .as_ref()
            .map(|s| s.log.mine_hints(s.config.max_hints))
            .unwrap_or_default()
    }

    /// Reports an application-observed costly miss into the FP log (the
    /// same channel [`Lsm::get`] feeds automatically on wasted reads) and
    /// rebuilds the run filters if that tips the policy. No-op while
    /// adaptation is disabled; non-finite or non-positive costs are
    /// dropped by the log, never stored.
    pub fn report_miss(&mut self, key: &[u8], cost: f64) {
        let Some(state) = self.adapt.as_mut() else {
            return;
        };
        state.log.record(key, cost);
        self.maybe_rebuild();
    }

    /// Inserts or overwrites a key.
    pub fn put(&mut self, key: Vec<u8>, value: Vec<u8>) {
        self.memtable.insert(key, value);
        if self.memtable.len() >= self.config.memtable_capacity {
            self.flush();
        }
    }

    /// Flushes the memtable into a new level-0 run (no-op when empty).
    pub fn flush(&mut self) {
        if self.memtable.is_empty() {
            return;
        }
        let entries: Vec<(Vec<u8>, Vec<u8>)> =
            std::mem::take(&mut self.memtable).into_iter().collect();
        let hints = self.hints_for_run(&entries);
        let filter = Run::build_filter(&entries, self.config.filter.as_ref(), &hints);
        self.push_run(0, Run::new(entries, filter));
    }

    /// Assembles the negative hints for a run holding `entries` (sorted,
    /// duplicate-free): the operator hints merged with hints mined from
    /// the FP log (max cost wins on key overlap), topped up with the keys
    /// resident in sibling runs at unit cost — a point lookup for a key
    /// stored in another run is the most frequent "negative" a run's
    /// filter sees, and the store knows those keys exactly at build time.
    ///
    /// The result never contains a key present in `entries`: during
    /// compaction, stale versions of the run's own keys live in deeper
    /// levels (and operators may hint keys that have since been written),
    /// and handing TPJO a member key as a negative would waste the hint
    /// budget on keys the filter must accept anyway. Output is key-unique,
    /// finite-cost, descending, and capped at `2 · entries.len()` — the
    /// same cap the run builder applies, so every slot holds a genuine
    /// negative.
    ///
    /// Public for diagnostics and the hint-pipeline property tests.
    #[must_use]
    pub fn hints_for_run(&self, entries: &[(Vec<u8>, Vec<u8>)]) -> Vec<(Vec<u8>, f64)> {
        self.hints_for_run_with_pool(&self.merged_hint_pool(), entries)
    }

    /// The operator hints merged with hints freshly mined from the FP
    /// log: key-unique (max cost wins on overlap), descending. Computed
    /// once per rebuild pass and shared across every run's assembly.
    fn merged_hint_pool(&self) -> Vec<(Vec<u8>, f64)> {
        let mut merged: Vec<(Vec<u8>, f64)> = self.negative_hints.clone();
        if let Some(state) = &self.adapt {
            merged.extend(state.log.mine_hints(state.config.max_hints));
        }
        dedup_keep_max_cost(&mut merged);
        merged
    }

    /// [`Lsm::hints_for_run`] over an already-merged hint pool.
    fn hints_for_run_with_pool(
        &self,
        merged: &[(Vec<u8>, f64)],
        entries: &[(Vec<u8>, Vec<u8>)],
    ) -> Vec<(Vec<u8>, f64)> {
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "hints_for_run needs sorted, duplicate-free entries"
        );
        let cap = 2 * entries.len();
        let is_member = |k: &[u8]| {
            entries
                .binary_search_by(|(ek, _)| ek.as_slice().cmp(k))
                .is_ok()
        };
        let mut hints: Vec<(Vec<u8>, f64)> = Vec::with_capacity(cap.min(16_384));
        let mut seen: HashSet<&[u8]> = HashSet::with_capacity(cap.min(16_384));
        for (k, c) in merged {
            if hints.len() >= cap {
                break;
            }
            if !is_member(k) && seen.insert(k.as_slice()) {
                hints.push((k.clone(), *c));
            }
        }
        if hints.len() < cap {
            'fill: for runs in &self.levels {
                for run in runs {
                    for (k, _) in run.entries() {
                        if hints.len() >= cap {
                            break 'fill;
                        }
                        if !is_member(k) && !seen.contains(k.as_slice()) {
                            hints.push((k.clone(), 1.0));
                        }
                    }
                }
            }
        }
        // Sibling keys enter at unit cost, which may outrank low mined
        // costs — restore the descending contract once at the end.
        hints.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        hints
    }

    fn push_run(&mut self, level: usize, run: Run) {
        if self.levels.len() <= level {
            self.levels.resize_with(level + 1, Vec::new);
        }
        self.levels[level].push(run);
        if self.levels[level].len() > self.config.level_fanout {
            self.compact(level);
        }
    }

    /// Merges all runs of `level` into one run on `level + 1`
    /// (newest-wins on duplicate keys).
    fn compact(&mut self, level: usize) {
        let runs = std::mem::take(&mut self.levels[level]);
        // Newest runs take precedence: insert oldest first, overwrite later.
        let mut merged: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for run in runs {
            for (k, v) in run.into_entries() {
                merged.insert(k, v);
            }
        }
        let entries: Vec<(Vec<u8>, Vec<u8>)> = merged.into_iter().collect();
        let hints = self.hints_for_run(&entries);
        let filter = Run::build_filter(&entries, self.config.filter.as_ref(), &hints);
        self.push_run(level + 1, Run::new(entries, filter));
    }

    /// Point lookup. Probes the memtable, then every run from the youngest
    /// level down, newest run first; filters prune run probes, and every
    /// unpruned probe is charged as a (level-weighted) block read. With
    /// adaptation enabled, wasted reads feed the FP log and may trigger a
    /// filter rebuild.
    pub fn get(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        let result = self.probe(key);
        self.maybe_rebuild();
        result
    }

    fn probe(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        if let Some(v) = self.memtable.get(key) {
            return Some(v.clone());
        }
        if let Some(state) = self.adapt.as_mut() {
            state.log.note_lookup();
        }
        for (level, runs) in self.levels.iter().enumerate() {
            let level_cost = level as u64 + 1;
            for run in runs.iter().rev() {
                if !run.may_contain(key) {
                    self.io.pruned_probes += 1;
                    continue;
                }
                self.io.block_reads += 1;
                self.io.weighted_cost += level_cost;
                match run.get(key) {
                    Some(v) => return Some(v.to_vec()),
                    None => {
                        self.io.wasted_reads += 1;
                        self.io.wasted_weighted_cost += level_cost;
                        if let Some(state) = self.adapt.as_mut() {
                            state.log.record(key, level_cost as f64);
                        }
                    }
                }
            }
        }
        None
    }

    /// Rebuilds the filters if the adaptation policy says the observed
    /// waste — or the filters' fill pressure — justifies it.
    fn maybe_rebuild(&mut self) {
        if let Some(kind) = self.decide_rebuild() {
            self.rebuild_filters_as(kind);
        }
    }

    /// Worst-case fill pressure over every run filter: the max
    /// saturation and max generation count. The policy's saturation
    /// trigger and `Compact` routing key off these.
    #[must_use]
    pub fn filter_pressure(&self) -> (f64, usize) {
        let mut saturation: f64 = 0.0;
        let mut generations = 1usize;
        for run in self.levels.iter().flatten() {
            saturation = saturation.max(run.filter_saturation());
            generations = generations.max(run.filter_generations());
        }
        (saturation, generations)
    }

    /// What kind of rebuild pass the adaptation policy would run right
    /// now, if any (`None` while adaptation is off or nothing fired).
    #[must_use]
    pub fn decide_rebuild(&self) -> Option<RebuildKind> {
        let state = self.adapt.as_ref()?;
        let (saturation, generations) = self.filter_pressure();
        state
            .config
            .policy
            .decide(&state.log, saturation, generations)
    }

    /// The kind of the most recent filter-rebuild pass, if any ran.
    #[must_use]
    pub fn last_rebuild_kind(&self) -> Option<RebuildKind> {
        self.last_rebuild
    }

    /// Rebuilds every run's filter with the current hints — operator hints
    /// merged with hints freshly mined from the FP log — re-running TPJO
    /// per run (per shard, for sharded filters). Increments
    /// [`IoStats::rebuilds`] and resets the FP-log window so the same
    /// events cannot immediately re-trigger. Returns the number of runs
    /// whose filter was rebuilt.
    ///
    /// Called automatically when the [`AdaptPolicy`] fires; public so
    /// operators (and the CLI) can force an adaptation pass. The pass
    /// kind is derived from the current fill pressure, exactly as the
    /// policy would route it: grown stacks compact, overfilled filters
    /// resize, everything else re-hashes in place.
    pub fn rebuild_filters(&mut self) -> usize {
        let (saturation, generations) = self.filter_pressure();
        let kind = if generations > 1 {
            RebuildKind::Compact
        } else if saturation > 1.0 + 1e-9 {
            RebuildKind::Resize
        } else {
            RebuildKind::Rehash
        };
        self.rebuild_filters_as(kind)
    }

    fn rebuild_filters_as(&mut self, kind: RebuildKind) -> usize {
        // The operator + mined pool is identical for every run in the
        // pass (the log only resets at the end); mine and merge it once.
        let pool = self.merged_hint_pool();
        let mut rebuilt = 0;
        for li in 0..self.levels.len() {
            for ri in 0..self.levels[li].len() {
                // Take the run out so hint assembly sees only its siblings
                // (and so we can borrow the store immutably meanwhile).
                let mut run =
                    std::mem::replace(&mut self.levels[li][ri], Run::new(Vec::new(), None));
                let hints = self.hints_for_run_with_pool(&pool, run.entries());
                match kind {
                    // Same geometry, new hashes: the capability path.
                    RebuildKind::Rehash => {
                        run.rebuild_filter(self.config.filter.as_ref(), &hints);
                    }
                    // Geometry re-derived from the live key count: a
                    // grown stack folds to one right-sized tier, an
                    // overfilled filter gets its budget back.
                    RebuildKind::Resize | RebuildKind::Compact => {
                        run.fold_filter(self.config.filter.as_ref(), &hints);
                    }
                }
                self.levels[li][ri] = run;
                rebuilt += 1;
            }
        }
        self.io.rebuilds += 1;
        self.last_rebuild = Some(kind);
        if let Some(state) = self.adapt.as_mut() {
            state.log.reset_window();
        }
        rebuilt
    }

    /// Simulated I/O counters accumulated so far.
    #[must_use]
    pub fn io_stats(&self) -> IoStats {
        self.io
    }

    /// Resets the I/O counters (e.g. after a warm-up phase).
    pub fn reset_io_stats(&mut self) {
        self.io = IoStats::default();
    }

    /// Number of levels currently holding runs.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Total entries across memtable and all runs (duplicates included).
    #[must_use]
    pub fn entry_count(&self) -> usize {
        self.memtable.len()
            + self
                .levels
                .iter()
                .flat_map(|runs| runs.iter().map(Run::len))
                .sum::<usize>()
    }

    /// Total filter memory across all runs, in bits.
    #[must_use]
    pub fn filter_bits(&self) -> usize {
        self.levels
            .iter()
            .flat_map(|runs| runs.iter().map(Run::filter_bits))
            .sum()
    }

    /// Iterates over `(level, run)` pairs (diagnostics).
    pub fn runs(&self) -> impl Iterator<Item = (usize, &Run)> {
        self.levels
            .iter()
            .enumerate()
            .flat_map(|(l, runs)| runs.iter().map(move |r| (l, r)))
    }

    /// The file a run's filter persists under within a filter directory.
    /// The name carries a fingerprint of the run's **key content**
    /// (order-sensitive chained xxh64), so a filter file can only ever be
    /// re-attached to a run holding exactly the keys it was built over —
    /// a flush/compaction between save and open shifts run indices and
    /// contents, and a positionally-matched stale filter would silently
    /// prune keys the new run *does* hold (a zero-FN violation).
    fn filter_path(
        dir: &std::path::Path,
        level: usize,
        run_idx: usize,
        run: &Run,
    ) -> std::path::PathBuf {
        let mut fingerprint = 0x00F1_17E2_u64;
        for (k, _) in run.entries() {
            fingerprint = habf_hashing::xxhash::xxh64(k, fingerprint);
        }
        dir.join(format!(
            "filter-L{level}-R{run_idx}-{fingerprint:016x}.habc"
        ))
    }

    /// Persists every run's filter as an aligned `HABC` v2 container
    /// under `dir` (`filter-L<level>-R<run>-<keys fingerprint>.habc`),
    /// creating the directory if needed. Returns the number of filter
    /// files written. Runs without a filter write nothing.
    ///
    /// Together with [`Lsm::open_filters_mmap`] this is the store's warm
    /// restart path: a store with many runs reopens its filters as mmap
    /// views in O(runs) instead of re-decoding (or worse, rebuilding)
    /// O(total filter bytes).
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn save_filters(&self, dir: &std::path::Path) -> std::io::Result<usize> {
        std::fs::create_dir_all(dir)?;
        let mut written = 0;
        for (li, runs) in self.levels.iter().enumerate() {
            for (ri, run) in runs.iter().enumerate() {
                if let Some(filter) = run.filter() {
                    std::fs::write(
                        Self::filter_path(dir, li, ri, run),
                        filter.to_container_bytes(),
                    )?;
                    written += 1;
                }
            }
        }
        Ok(written)
    }

    /// Reopens filters saved by [`Lsm::save_filters`], replacing each
    /// run's in-memory filter with a **memory-mapped view** of its file:
    /// probes serve straight from the page cache with zero payload-word
    /// copies, and the first adaptation rebuild transparently promotes
    /// the touched filter to owned words through the copy-on-write path
    /// (the mapping is then released). Returns the number of filters
    /// reopened.
    ///
    /// A file is only attached when its name's key fingerprint matches
    /// the run's current contents (see the naming scheme on
    /// `filter_path`); runs whose file is absent or stale — the store's
    /// layout changed since the save — keep their current filter instead
    /// of silently serving a filter built for different keys.
    ///
    /// # Errors
    /// Propagates open/map failures and image validation errors; the
    /// store is left with the filters swapped in so far.
    pub fn open_filters_mmap(
        &mut self,
        dir: &std::path::Path,
    ) -> Result<usize, habf_core::OpenError> {
        let mut opened = 0;
        for (li, runs) in self.levels.iter_mut().enumerate() {
            for (ri, run) in runs.iter_mut().enumerate() {
                let path = Self::filter_path(dir, li, ri, run);
                if !path.exists() {
                    continue;
                }
                let loaded = habf_core::registry::load_mmap(&path)?;
                run.set_filter(Some(loaded.filter));
                opened += 1;
            }
        }
        Ok(opened)
    }
}

/// Max-cost-per-key dedup, leaving the list sorted by descending cost
/// (ties broken by key for determinism): group keys together with the
/// costliest entry first, keep the first of each group, then re-sort.
/// (`dedup_by` only removes *adjacent* duplicates, so deduping a
/// cost-sorted list by key would let non-adjacent duplicate keys survive
/// — the pre-fix bug in `set_negative_hints`.)
fn dedup_keep_max_cost(hints: &mut Vec<(Vec<u8>, f64)>) {
    hints.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| b.1.total_cmp(&a.1)));
    hints.dedup_by(|a, b| a.0 == b.0);
    hints.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(filter: Option<FilterSpec>) -> Lsm {
        Lsm::new(LsmConfig {
            memtable_capacity: 128,
            level_fanout: 3,
            filter,
        })
    }

    fn key(i: usize) -> Vec<u8> {
        format!("user{i:08}").into_bytes()
    }

    #[test]
    fn put_get_roundtrip_through_flushes() {
        let mut db = store(Some(FilterSpec::bloom().bits_per_key(10.0)));
        for i in 0..1_000 {
            db.put(key(i), format!("v{i}").into_bytes());
        }
        db.flush();
        for i in 0..1_000 {
            assert_eq!(
                db.get(&key(i)),
                Some(format!("v{i}").into_bytes()),
                "key {i}"
            );
        }
        assert!(db.depth() >= 1);
    }

    #[test]
    fn newest_value_wins_after_compaction() {
        let mut db = store(None);
        for round in 0..5 {
            for i in 0..300 {
                db.put(key(i), format!("r{round}v{i}").into_bytes());
            }
        }
        db.flush();
        for i in 0..300 {
            assert_eq!(db.get(&key(i)), Some(format!("r4v{i}").into_bytes()));
        }
    }

    #[test]
    fn filters_prune_misses() {
        let mut with = store(Some(FilterSpec::bloom().bits_per_key(10.0)));
        let mut without = store(None);
        for i in 0..2_000 {
            with.put(key(i), b"v".to_vec());
            without.put(key(i), b"v".to_vec());
        }
        with.flush();
        without.flush();
        for i in 10_000..12_000 {
            assert_eq!(with.get(&key(i)), None);
            assert_eq!(without.get(&key(i)), None);
        }
        let a = with.io_stats();
        let b = without.io_stats();
        assert!(a.pruned_probes > 0, "filters never pruned");
        assert!(
            a.wasted_reads < b.wasted_reads / 4,
            "bloom {} vs none {}",
            a.wasted_reads,
            b.wasted_reads
        );
    }

    #[test]
    fn habf_hints_cut_wasted_reads_vs_bloom() {
        // Run sizes must be large enough that the HashExpressor share of
        // the per-run budget holds the optimized chains (the paper's
        // filters are MB-scale; 1k-entry runs are the small end of
        // realistic).
        let misses: Vec<(Vec<u8>, f64)> = (50_000..52_000).map(|i| (key(i), 5.0)).collect();
        let build = |kind: Option<FilterSpec>| -> Lsm {
            let mut db = Lsm::new(LsmConfig {
                memtable_capacity: 1024,
                level_fanout: 3,
                filter: kind,
            });
            db.set_negative_hints(misses.clone())
                .expect("finite hint costs");
            for i in 0..3_000 {
                db.put(key(i), b"v".to_vec());
            }
            db.flush();
            db.reset_io_stats();
            db
        };
        // Equal filter budget for both.
        let mut bloom_db = build(Some(FilterSpec::bloom().bits_per_key(12.0)));
        let mut habf_db = build(Some(FilterSpec::habf().bits_per_key(12.0)));
        for (k, _) in &misses {
            let _ = bloom_db.get(k);
            let _ = habf_db.get(k);
        }
        let bloom_wasted = bloom_db.io_stats().wasted_reads;
        let habf_wasted = habf_db.io_stats().wasted_reads;
        assert!(
            habf_wasted <= bloom_wasted,
            "HABF wasted {habf_wasted} > Bloom wasted {bloom_wasted}"
        );
    }

    #[test]
    fn sharded_habf_runs_serve_and_prune_like_unsharded() {
        let misses: Vec<(Vec<u8>, f64)> = (50_000..52_000).map(|i| (key(i), 5.0)).collect();
        let mut db = Lsm::new(LsmConfig {
            memtable_capacity: 1024,
            level_fanout: 3,
            filter: Some(FilterSpec::sharded(4).bits_per_key(12.0)),
        });
        db.set_negative_hints(misses.clone())
            .expect("finite hint costs");
        for i in 0..3_000 {
            db.put(key(i), b"v".to_vec());
        }
        db.flush();
        db.reset_io_stats();
        for i in 0..3_000 {
            assert_eq!(db.get(&key(i)), Some(b"v".to_vec()), "member {i} lost");
        }
        for (k, _) in &misses {
            assert_eq!(db.get(k), None);
        }
        let io = db.io_stats();
        assert!(io.pruned_probes > 0, "sharded filters never pruned");
        assert!(db.filter_bits() > 0);
    }

    #[test]
    fn weighted_cost_grows_with_depth() {
        let mut db = store(None);
        for i in 0..2_000 {
            db.put(key(i), b"v".to_vec());
        }
        db.flush();
        assert!(db.depth() >= 2, "compaction never ran");
        db.reset_io_stats();
        let _ = db.get(&key(999_999)); // total miss probes every level
        let io = db.io_stats();
        assert!(io.weighted_cost >= io.block_reads, "weights not applied");
    }

    #[test]
    fn filter_bits_reported() {
        let mut db = store(Some(FilterSpec::bloom().bits_per_key(10.0)));
        for i in 0..500 {
            db.put(key(i), b"v".to_vec());
        }
        db.flush();
        assert!(db.filter_bits() > 0);
        assert!(db.entry_count() >= 500);
    }

    #[test]
    #[should_panic(expected = "invalid run-filter spec")]
    fn misconfigured_filter_spec_is_rejected_at_construction() {
        // delta <= 0 corrupts the HABF budget split; the store must
        // refuse at new(), not panic inside the first flush.
        let _ = store(Some(FilterSpec::habf().habf_shape(-1.0, 3, 4)));
    }

    #[test]
    fn empty_flush_is_noop() {
        let mut db = store(None);
        db.flush();
        assert_eq!(db.depth(), 0);
        assert_eq!(db.get(b"nothing"), None);
    }

    /// Regression (pre-fix: hints were sorted by descending cost and then
    /// deduped by key, but `dedup_by` only removes *adjacent* duplicates,
    /// so duplicate keys with non-adjacent costs survived).
    #[test]
    fn set_negative_hints_dedups_nonadjacent_duplicates_keeping_max_cost() {
        let mut db = store(None);
        // Shuffled duplicate-key input: key "a" appears at costs 5, 1, 3 —
        // sorted by cost the "a" entries are NOT adjacent.
        db.set_negative_hints(vec![
            (b"a".to_vec(), 1.0),
            (b"b".to_vec(), 4.0),
            (b"a".to_vec(), 5.0),
            (b"c".to_vec(), 2.0),
            (b"a".to_vec(), 3.0),
            (b"b".to_vec(), 0.5),
        ])
        .expect("finite costs");
        let hints = db.negative_hints().to_vec();
        assert_eq!(
            hints,
            vec![
                (b"a".to_vec(), 5.0),
                (b"b".to_vec(), 4.0),
                (b"c".to_vec(), 2.0),
            ],
            "each key must survive exactly once with its max cost"
        );
    }

    /// Regression (pre-fix: `.expect(\"NaN cost\")` panicked on user input).
    #[test]
    fn set_negative_hints_rejects_non_finite_costs_without_panicking() {
        let mut db = store(None);
        db.set_negative_hints(vec![(b"keep".to_vec(), 2.0)])
            .expect("finite costs");
        let err = db
            .set_negative_hints(vec![
                (b"x".to_vec(), 1.0),
                (b"nan".to_vec(), f64::NAN),
                (b"y".to_vec(), 3.0),
            ])
            .expect_err("NaN cost must be rejected");
        assert_eq!(err, HintError::BadCost { index: 1 });
        assert!(err.to_string().contains("index 1"));
        for bad in [f64::INFINITY, f64::NEG_INFINITY, 0.0, -4.0] {
            let err = db
                .set_negative_hints(vec![(b"bad".to_vec(), bad)])
                .expect_err("non-positive/non-finite cost must be rejected");
            assert_eq!(err, HintError::BadCost { index: 0 }, "cost {bad}");
        }
        // A rejected batch leaves the previously stored hints untouched.
        assert_eq!(db.negative_hints(), &[(b"keep".to_vec(), 2.0)]);
    }

    /// Regression (pre-fix: `hints_with_siblings` handed TPJO keys that
    /// are members of the very run being built — stale versions resident
    /// in deeper levels during compaction, and operator hints for keys
    /// that have since been written).
    #[test]
    fn hints_for_run_excludes_the_runs_own_members() {
        let mut db = store(Some(FilterSpec::habf().bits_per_key(12.0)));
        // Operator-hints a key that will become a member.
        db.set_negative_hints(vec![(key(3), 9.0), (key(90_000), 4.0)])
            .expect("finite costs");
        // Deep level holds stale versions of keys 0..600.
        for i in 0..600 {
            db.put(key(i), b"stale".to_vec());
        }
        db.flush();
        assert!(db.depth() >= 1);
        // The new run being built re-writes keys 0..300 (fresh versions).
        let entries: Vec<(Vec<u8>, Vec<u8>)> =
            (0..300).map(|i| (key(i), b"fresh".to_vec())).collect();
        let hints = db.hints_for_run(&entries);
        assert!(!hints.is_empty());
        for (k, _) in &hints {
            assert!(
                entries.binary_search_by(|(ek, _)| ek.cmp(k)).is_err(),
                "hint {:?} is a member of the run being built",
                String::from_utf8_lossy(k)
            );
        }
        // The operator hint for the still-absent key must survive, with
        // the sibling fill drawn from the stale run's non-member keys.
        assert!(hints.iter().any(|(k, _)| k == &key(90_000)));
        assert!(hints.iter().any(|(k, _)| k == &key(450)));
        // And the assembled list obeys the full hint contract.
        assert!(hints.len() <= 2 * entries.len());
        assert!(hints.windows(2).all(|w| w[0].1 >= w[1].1), "not descending");
        let mut keys: Vec<&[u8]> = hints.iter().map(|(k, _)| k.as_slice()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), hints.len(), "duplicate key in hints");
    }

    /// The whole loop: hot absent keys trip false positives, the log
    /// accrues their cost, the policy fires, the rebuilt filters prune
    /// the very keys that were burning reads.
    #[test]
    fn adaptation_loop_mines_fps_and_rebuild_prunes_them() {
        let mut db = Lsm::new(LsmConfig {
            memtable_capacity: 1024,
            level_fanout: 3,
            filter: Some(FilterSpec::habf().bits_per_key(12.0)),
        });
        for i in 0..3_000 {
            db.put(key(i), b"v".to_vec());
        }
        db.flush();
        db.enable_adaptation(AdaptConfig {
            policy: AdaptPolicy::cost_threshold(20.0),
            ..AdaptConfig::default()
        });

        // Find absent keys that the built filters fail to prune.
        db.reset_io_stats();
        let mut hot_fps: Vec<Vec<u8>> = Vec::new();
        for i in 100_000..140_000 {
            let before = db.io_stats().wasted_reads;
            assert_eq!(db.get(&key(i)), None);
            if db.io_stats().wasted_reads > before {
                hot_fps.push(key(i));
                if hot_fps.len() >= 3 {
                    break;
                }
            }
            if db.io_stats().rebuilds > 0 {
                break; // background FPs alone tripped the policy — fine
            }
        }
        // Hammer the hot false positives until the policy fires.
        if db.io_stats().rebuilds == 0 {
            assert!(!hot_fps.is_empty(), "no false positive found to hammer");
            'hammer: for _ in 0..64 {
                for k in &hot_fps {
                    let _ = db.get(k);
                    if db.io_stats().rebuilds > 0 {
                        break 'hammer;
                    }
                }
            }
        }
        assert!(db.io_stats().rebuilds >= 1, "policy never fired");

        // The rebuilt filters must now prune the hammered keys.
        db.reset_io_stats();
        for k in &hot_fps {
            assert_eq!(db.get(k), None);
        }
        assert_eq!(
            db.io_stats().wasted_reads,
            0,
            "rebuild failed to prune the mined hot misses"
        );
        // And members survive the rebuild (zero FN).
        for i in 0..3_000 {
            assert_eq!(db.get(&key(i)), Some(b"v".to_vec()), "member {i} lost");
        }
    }

    /// The warm-restart path: save every run filter, reopen them as mmap
    /// views, serve identically, and let the adaptation rebuild promote
    /// the views back to owned words — the full
    /// view → serve → copy-on-write-promote lifecycle, inside the store.
    #[test]
    fn filters_reopen_mmap_backed_and_rebuilds_promote_them() {
        use habf_util::Backing;

        let dir = std::env::temp_dir().join(format!("habf-lsm-mmap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let mut db = Lsm::new(LsmConfig {
            memtable_capacity: 512,
            level_fanout: 3,
            filter: Some(FilterSpec::sharded(2).bits_per_key(12.0)),
        });
        for i in 0..1_500 {
            db.put(key(i), b"v".to_vec());
        }
        db.flush();
        let run_count = db.runs().count();
        assert!(run_count >= 2, "want multiple runs, got {run_count}");
        let saved = db.save_filters(&dir).expect("save filters");
        assert_eq!(saved, run_count, "every run's filter persists");

        // Reopen: every filter is now a view into its file.
        let opened = db.open_filters_mmap(&dir).expect("open mmap");
        assert_eq!(opened, run_count);
        let expect_view = if cfg!(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        )) {
            Backing::Mmap
        } else {
            Backing::SharedBytes
        };
        for (_, run) in db.runs() {
            assert_eq!(run.filter_backing(), Some(expect_view));
        }

        // Served answers are unchanged: members found, misses pruned.
        db.reset_io_stats();
        for i in 0..1_500 {
            assert_eq!(db.get(&key(i)), Some(b"v".to_vec()), "member {i} lost");
        }
        for i in 50_000..52_000 {
            assert_eq!(db.get(&key(i)), None);
        }
        assert!(db.io_stats().pruned_probes > 0, "views never pruned");

        // An adaptation rebuild mutates every filter, promoting the
        // views to owned words through the copy-on-write path.
        db.enable_adaptation(AdaptConfig::default());
        for _ in 0..20 {
            db.report_miss(&key(77_777), 3.0);
        }
        let rebuilt = db.rebuild_filters();
        assert_eq!(rebuilt, run_count);
        for (_, run) in db.runs() {
            assert_eq!(
                run.filter_backing(),
                Some(Backing::Owned),
                "rebuild must install owned filters"
            );
        }
        for i in 0..1_500 {
            assert_eq!(db.get(&key(i)), Some(b"v".to_vec()), "member {i} lost");
        }

        // Staleness guard: save, then change the store's layout (more
        // puts trip a compaction that merges the runs) and reopen — the
        // saved files no longer fingerprint-match any run's keys, so
        // nothing is attached and no run can silently serve a filter
        // built for different keys (which would prune present members).
        let stale = std::env::temp_dir().join(format!("habf-lsm-stale-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&stale);
        assert!(db.save_filters(&stale).expect("save before layout change") >= 1);
        for i in 1_500..2_100 {
            db.put(key(i), b"v".to_vec());
        }
        db.flush();
        assert_eq!(
            db.open_filters_mmap(&stale).expect("stale open"),
            0,
            "stale filter files must never attach to reshaped runs"
        );
        for (_, run) in db.runs() {
            assert_eq!(run.filter_backing(), Some(Backing::Owned));
        }
        for i in 0..2_100 {
            assert_eq!(db.get(&key(i)), Some(b"v".to_vec()), "member {i} lost");
        }
        std::fs::remove_dir_all(&stale).ok();

        // Missing files are skipped, not errors.
        std::fs::remove_dir_all(&dir).expect("cleanup");
        std::fs::create_dir_all(&dir).expect("mkdir");
        assert_eq!(db.open_filters_mmap(&dir).expect("empty dir"), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn report_miss_feeds_the_log_and_can_trigger_rebuilds() {
        let mut db = store(Some(FilterSpec::bloom().bits_per_key(10.0)));
        for i in 0..400 {
            db.put(key(i), b"v".to_vec());
        }
        db.flush();
        db.report_miss(b"ignored", 5.0); // adaptation off: no-op
        assert!(db.mined_hints().is_empty());

        db.enable_adaptation(AdaptConfig {
            policy: AdaptPolicy::cost_threshold(50.0),
            decay: 1.0, // exact sums make the threshold arithmetic crisp
            ..AdaptConfig::default()
        });
        for _ in 0..9 {
            db.report_miss(b"app-observed", 5.0);
        }
        // 45 < 50: not yet.
        assert_eq!(db.io_stats().rebuilds, 0);
        assert_eq!(db.mined_hints().len(), 1);
        db.report_miss(b"app-observed", 5.0);
        assert_eq!(db.io_stats().rebuilds, 1, "threshold crossing must fire");
        // The window reset after the rebuild.
        assert!(db.mined_hints().is_empty());
    }

    /// Regression: two misses reported at 1e308 mined an infinite hint,
    /// and the next flush panicked building its run filter.
    #[test]
    fn huge_reported_miss_costs_do_not_break_the_next_flush() {
        let mut db = store(Some(FilterSpec::habf().bits_per_key(10.0)));
        db.enable_adaptation(AdaptConfig::default());
        db.report_miss(b"app-observed", 1e308);
        db.report_miss(b"app-observed", 1e308);
        for i in 0..400 {
            db.put(key(i), b"v".to_vec());
        }
        db.flush();
        assert!((0..400).all(|i| db.get(&key(i)).is_some()));
    }

    #[test]
    fn grown_scalable_run_filters_compact_back_to_one_tier() {
        use habf_core::{HabfConfig, ScalableHabf};

        let mut db = Lsm::new(LsmConfig {
            memtable_capacity: 512,
            level_fanout: 3,
            filter: Some(FilterSpec::scalable_habf().bits_per_key(12.0)),
        });
        for i in 0..1_500 {
            db.put(key(i), b"v".to_vec());
        }
        db.flush();
        // Flush and compaction build from scratch: every filter starts
        // as a single tier.
        assert!(db.runs().count() >= 2);
        assert_eq!(db.filter_pressure().1, 1);

        // Install a grown stack on the first run, as a warm restart
        // from a container that kept absorbing inserts would.
        let entries: Vec<(Vec<u8>, Vec<u8>)> = db.levels[0][0].entries().to_vec();
        let members: Vec<&[u8]> = entries.iter().map(|(k, _)| k.as_slice()).collect();
        let no_costs: [(&[u8], f64); 0] = [];
        let mut grown = ScalableHabf::build(
            &members,
            &no_costs,
            &HabfConfig::with_total_bits(12 * members.len()),
        );
        for i in 0..2 * members.len() {
            grown.insert(format!("late:{i}").as_bytes());
        }
        assert!(grown.generations() > 1, "burst should open new tiers");
        db.levels[0][0].set_filter(Some(Box::new(grown)));
        let (_, generations) = db.filter_pressure();
        assert!(generations > 1);

        // The policy routes the FP trigger to a Compact pass because a
        // grown stack exists — and the pass folds it flat.
        db.enable_adaptation(AdaptConfig {
            policy: AdaptPolicy::cost_threshold(20.0),
            decay: 1.0,
            ..AdaptConfig::default()
        });
        assert_eq!(db.decide_rebuild(), None, "quiet log must not fire");
        for _ in 0..10 {
            db.report_miss(&key(88_888), 3.0);
        }
        assert!(db.io_stats().rebuilds >= 1, "policy never fired");
        assert_eq!(db.last_rebuild_kind(), Some(RebuildKind::Compact));
        assert_eq!(db.filter_pressure().1, 1, "fold-back left a grown stack");
        for (_, run) in db.runs() {
            assert_eq!(run.filter_generations(), 1);
        }
        // Zero FN through the whole fold.
        for i in 0..1_500 {
            assert_eq!(db.get(&key(i)), Some(b"v".to_vec()), "member {i} lost");
        }
    }

    #[test]
    fn sharded_runs_rebuild_in_place() {
        let mut db = Lsm::new(LsmConfig {
            memtable_capacity: 2048,
            level_fanout: 3,
            filter: Some(FilterSpec::sharded(4).bits_per_key(12.0)),
        });
        for i in 0..2_000 {
            db.put(key(i), b"v".to_vec());
        }
        db.flush();
        db.enable_adaptation(AdaptConfig::default());
        for _ in 0..20 {
            db.report_miss(&key(77_777), 3.0);
        }
        let rebuilt = db.rebuild_filters();
        assert!(rebuilt >= 1);
        assert!(db.io_stats().rebuilds >= 1);
        for i in 0..2_000 {
            assert_eq!(db.get(&key(i)), Some(b"v".to_vec()), "member {i} lost");
        }
        assert_eq!(db.get(&key(77_777)), None);
    }
}

//! Sharded, concurrent HABF serving: partition the key space across `N`
//! independent filters, build them in parallel, and query them lock-free.
//!
//! The paper's construction is offline over a known positive set and a
//! costed negative set, which makes it embarrassingly partitionable: a
//! dedicated *splitter hash* (seeded xxHash-64, independent of every
//! family function used inside the filters) assigns each key to one of
//! `N` shards, and each shard is an ordinary [`crate::Habf`] / [`crate::FHabf`] built
//! over only its partition with a proportional slice of the total space
//! budget. Because shard membership depends only on the key bytes and the
//! splitter seed, a query touches exactly one shard — false-positive
//! behaviour is that shard's, and the zero-false-negative contract is
//! preserved shard-locally, hence globally.
//!
//! Concurrency model:
//!
//! * **Build** fans the per-shard TPJO runs out over `std::thread::scope`
//!   workers ([`ShardedHabf::build_par`]). Shard builds are deterministic,
//!   so the result is byte-for-byte identical regardless of thread count.
//! * **Read** is lock-free: queries take `&self`, so any number of
//!   threads probe one filter at once.
//! * **Write** ([`ShardedHabf::rebuild_in_place`]) takes `&mut self`. A
//!   server that must keep readers on the old filter builds a fresh one
//!   ([`ShardedHabf::rebuilt_from`]) and swaps it in, as
//!   [`crate::TenantStore`] does.
//!
//! ```
//! use habf_core::{registry, DynFilter, Habf, HabfConfig, ShardedConfig, ShardedHabf};
//! use habf_filters::Filter;
//!
//! let members: Vec<Vec<u8>> = (0..400).map(|i| format!("user:{i}").into_bytes()).collect();
//! let blocked: Vec<(Vec<u8>, f64)> = (0..400)
//!     .map(|i| (format!("bot:{i}").into_bytes(), 1.0))
//!     .collect();
//!
//! let cfg = ShardedConfig::new(4, HabfConfig::with_total_bits(400 * 10));
//! let filter = ShardedHabf::<Habf>::build_par(&members, &blocked, &cfg);
//!
//! assert_eq!(filter.shard_count(), 4);
//! assert!(members.iter().all(|k| filter.contains(k))); // zero FNR
//! let answers = filter.contains_batch(&members);
//! assert!(answers.iter().all(|&maybe| maybe));
//!
//! // Ships and loads like the unsharded filters.
//! let restored = registry::load(&filter.to_container_bytes()).unwrap().filter;
//! assert!(members.iter().all(|k| restored.contains(k)));
//! ```

use crate::habf::{ConfigError, HabfConfig, HabfOver};
use crate::hashing::ShardHashing;
use crate::persist;
use habf_filters::Filter;
use std::cell::RefCell;

/// Seed tag mixed into the splitter hash so shard routing can never
/// coincide with the seeded hashes used *inside* a shard.
const SPLITTER_TAG: u64 = 0x5348_4152_4445_4421; // "SHARDED!"

/// Largest shard count the persist container can frame; builds above it
/// are rejected by [`ShardedConfig::validate`] so a filter can never be
/// constructed that serializes but fails to load.
pub const MAX_SHARDS: usize = persist::MAX_SHARDS;

/// Per-shard seed spacing (the 64-bit golden ratio, as in SplitMix64):
/// shard `i` builds with `base_seed + i·φ` (wrapping), so shard 0 of a
/// 1-shard build is seeded identically to the unsharded filter.
const SHARD_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// The shard type of a [`ShardedHabf`]: HABF over a hashing that has a
/// registered sharded id. It has one impl, covering [`crate::Habf`]
/// (`sharded-habf`) and [`crate::FHabf`] (`sharded-fhabf`); HABF over the
/// blocked hashing has no sharded id, so no `ShardedHabf` over it can be
/// named, built or written.
pub trait ShardFilter: Filter + Clone + Send + Sync + 'static {}

impl<H: ShardHashing> ShardFilter for HabfOver<H> {}

/// Configuration of a sharded build: shard count, build parallelism, and
/// the *total* budget shared by all shards.
#[derive(Clone, Debug)]
pub struct ShardedConfig {
    /// Number of shards (≥ 1). Shard routing is stable for a given
    /// `(splitter_seed, shards)` pair, so the count is persisted with the
    /// filter.
    pub shards: usize,
    /// Worker threads for [`ShardedHabf::build_par`] and
    /// [`ShardedHabf::contains_batch_par`]; `0` uses
    /// `min(shards, available_parallelism)`.
    pub threads: usize,
    /// Seed of the dedicated splitter hash routing keys to shards.
    pub splitter_seed: u64,
    /// Per-filter parameters. `base.total_bits` is the budget for the
    /// **whole** sharded filter; each shard receives a slice proportional
    /// to its share of the positive keys, and `base.seed` is strided per
    /// shard (shard 0 keeps it verbatim).
    pub base: HabfConfig,
}

impl ShardedConfig {
    /// A sharded configuration with the paper's defaults: `base.seed` also
    /// seeds the splitter, and build parallelism is automatic.
    #[must_use]
    pub fn new(shards: usize, base: HabfConfig) -> Self {
        Self {
            shards,
            threads: 0,
            splitter_seed: base.seed,
            base,
        }
    }

    /// Validates shard count and the base configuration.
    ///
    /// # Errors
    /// Returns the first failing [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.shards == 0 {
            return Err(ConfigError::ZeroShards);
        }
        if self.shards > MAX_SHARDS {
            return Err(ConfigError::TooManyShards);
        }
        self.base.validate()
    }

    fn worker_threads(&self) -> usize {
        let auto = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        let t = if self.threads == 0 {
            auto
        } else {
            self.threads
        };
        t.clamp(1, self.shards.max(1))
    }

    /// The configuration shard `i` builds with: a budget slice proportional
    /// to `part_positives / total_positives` (never below a 64-bit floor so
    /// empty shards stay constructible) and a seed strided per shard.
    ///
    /// Public so tests and tools can reproduce any shard as a plain
    /// unsharded build: `Habf::build(part_pos, part_neg,
    /// &cfg.shard_config(i, part_pos.len(), total))` is byte-identical to
    /// shard `i` of [`ShardedHabf::build_par`].
    #[must_use]
    pub fn shard_config(
        &self,
        i: usize,
        part_positives: usize,
        total_positives: usize,
    ) -> HabfConfig {
        let mut cfg = self.base.clone();
        let total = total_positives.max(1) as u128;
        let slice = (self.base.total_bits as u128 * part_positives as u128 / total) as usize;
        cfg.total_bits = slice.max(64);
        cfg.seed = self
            .base
            .seed
            .wrapping_add((i as u64).wrapping_mul(SHARD_SEED_STRIDE));
        cfg
    }
}

/// A filter sharded across `N` independent [`ShardFilter`]s with a
/// dedicated splitter hash (see the [module docs](self)).
#[derive(Clone)]
pub struct ShardedHabf<F: ShardFilter> {
    shards: Vec<F>,
    splitter_seed: u64,
    built_keys: usize,
    inserted_since_build: usize,
}

impl<H: ShardHashing> ShardedHabf<HabfOver<H>> {
    /// Builds all shards in parallel with `std::thread::scope`.
    ///
    /// Keys are partitioned by the splitter hash; each shard runs the full
    /// TPJO construction over its partition with a proportional slice of
    /// `config.base.total_bits`. The result is deterministic for a given
    /// configuration, independent of `config.threads`.
    ///
    /// # Panics
    /// Panics on an invalid configuration (see [`ShardedConfig::validate`])
    /// or if a build worker panics.
    #[must_use]
    pub fn build_par(
        positives: &[impl AsRef<[u8]>],
        negatives: &[(impl AsRef<[u8]>, f64)],
        config: &ShardedConfig,
    ) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid ShardedConfig: {e}");
        }
        let n = config.shards;
        let mut pos_parts: Vec<Vec<&[u8]>> = vec![Vec::new(); n];
        for key in positives {
            let key = key.as_ref();
            pos_parts[shard_of(key, config.splitter_seed, n)].push(key);
        }
        let mut neg_parts: Vec<Vec<(&[u8], f64)>> = vec![Vec::new(); n];
        for (key, cost) in negatives {
            let key = key.as_ref();
            neg_parts[shard_of(key, config.splitter_seed, n)].push((key, *cost));
        }

        let total_positives = positives.len();
        let configs: Vec<HabfConfig> = (0..n)
            .map(|i| config.shard_config(i, pos_parts[i].len(), total_positives))
            .collect();

        let threads = config.worker_threads();
        let mut slots: Vec<Option<HabfOver<H>>> = (0..n).map(|_| None).collect();
        if threads <= 1 {
            for (i, slot) in slots.iter_mut().enumerate() {
                *slot = Some(HabfOver::build(&pos_parts[i], &neg_parts[i], &configs[i]));
            }
        } else {
            let built: Vec<Vec<(usize, HabfOver<H>)>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|w| {
                        let pos_parts = &pos_parts;
                        let neg_parts = &neg_parts;
                        let configs = &configs;
                        s.spawn(move || {
                            (w..n)
                                .step_by(threads)
                                .map(|i| {
                                    (
                                        i,
                                        HabfOver::build(&pos_parts[i], &neg_parts[i], &configs[i]),
                                    )
                                })
                                .collect()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard build worker panicked"))
                    .collect()
            });
            for (i, shard) in built.into_iter().flatten() {
                slots[i] = Some(shard);
            }
        }
        Self {
            shards: slots
                .into_iter()
                .map(|s| s.expect("every shard built"))
                .collect(),
            splitter_seed: config.splitter_seed,
            built_keys: total_positives,
            inserted_since_build: 0,
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The splitter-hash seed routing keys to shards.
    #[must_use]
    pub fn splitter_seed(&self) -> u64 {
        self.splitter_seed
    }

    /// The shard index `key` routes to.
    #[must_use]
    pub fn shard_of(&self, key: &[u8]) -> usize {
        shard_of(key, self.splitter_seed, self.shards.len())
    }

    /// Borrows shard `i` (diagnostics, tests).
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn shard(&self, i: usize) -> &HabfOver<H> {
        &self.shards[i]
    }

    /// Queries a batch in input order, grouped by shard so each shard's
    /// Bloom array and HashExpressor stay cache-resident while their keys
    /// drain. Each group runs the chunked plan→prefetch→test pipeline:
    /// phase 1 hints the key bytes of the chunk, derives every key's
    /// first-round probe positions **once** ([`HabfOver::plan_round1`])
    /// and hints their cache lines; phase 2 tests the planned positions
    /// with the lines (likely) resident. Positions are never re-derived —
    /// hashing each key twice costs more than the hidden latency repays.
    ///
    /// All scratch (per-key shard ids, group offsets, the grouped order,
    /// the probe plan) lives in a thread-local and is reused across
    /// calls, so a serving thread pays the grouping allocations once, not
    /// per batch.
    #[must_use]
    pub fn contains_batch(&self, keys: &[impl AsRef<[u8]>]) -> Vec<bool> {
        let n = self.shards.len();
        let prefetch = habf_util::prefetch::enabled();
        let mut out = vec![false; keys.len()];
        BATCH_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            let (shard_ids, starts, order) = (
                &mut scratch.shard_ids,
                &mut scratch.starts,
                &mut scratch.order,
            );
            shard_ids.clear();
            shard_ids.extend(
                keys.iter()
                    .map(|k| shard_of(k.as_ref(), self.splitter_seed, n) as u32),
            );
            // Counting sort: group starts, then scatter indices in order.
            starts.clear();
            starts.resize(n + 1, 0);
            for &s in shard_ids.iter() {
                starts[s as usize + 1] += 1;
            }
            for i in 1..=n {
                starts[i] += starts[i - 1];
            }
            order.clear();
            order.resize(keys.len(), 0);
            // `starts[s]` doubles as shard `s`'s write cursor; after the
            // scatter it has advanced to group `s`'s end offset.
            for (idx, &s) in shard_ids.iter().enumerate() {
                order[starts[s as usize]] = idx as u32;
                starts[s as usize] += 1;
            }
            let plan = &mut scratch.plan;
            let mut begin = 0;
            for (s, shard) in self.shards.iter().enumerate() {
                let end = starts[s];
                for chunk in order[begin..end].chunks(habf_filters::PROBE_CHUNK) {
                    if prefetch {
                        for &idx in chunk {
                            habf_util::prefetch::prefetch_bytes(keys[idx as usize].as_ref());
                        }
                    }
                    plan.clear();
                    for &idx in chunk {
                        shard.plan_round1(keys[idx as usize].as_ref(), plan, prefetch);
                    }
                    let width = plan.len() / chunk.len();
                    for (&idx, planned) in chunk.iter().zip(plan.chunks_exact(width)) {
                        out[idx as usize] =
                            shard.contains_planned(keys[idx as usize].as_ref(), planned);
                    }
                }
                begin = end;
            }
        });
        out
    }

    /// [`ShardedHabf::contains_batch`] fanned out over `threads` scoped
    /// worker threads (`0` = automatic). Reads share the immutable shards
    /// through `&self`; no locks are taken. Batches too small to amortize
    /// a spawn ([`crate::probe::MIN_KEYS_PER_THREAD`] keys per worker)
    /// run serially no matter how many threads were requested.
    #[must_use]
    pub fn contains_batch_par(
        &self,
        keys: &[impl AsRef<[u8]> + Sync],
        threads: usize,
    ) -> Vec<bool> {
        let threads = crate::probe::effective_threads(threads, keys.len());
        if threads <= 1 {
            return self.contains_batch(keys);
        }
        let chunk = keys.len().div_ceil(threads);
        let mut out = vec![false; keys.len()];
        std::thread::scope(|s| {
            let chunks = keys.chunks(chunk).zip(out.chunks_mut(chunk));
            let handles: Vec<_> = chunks
                .map(|(keys, out)| {
                    // Each worker runs the shard-grouped batch over its
                    // chunk, keeping the cache-locality win per thread.
                    s.spawn(move || out.copy_from_slice(&self.contains_batch(keys)))
                })
                .collect();
            for h in handles {
                h.join().expect("batch query worker panicked");
            }
        });
        out
    }

    /// Post-build inserts the filter's image records (a persisted field;
    /// a rebuild resets it).
    #[must_use]
    pub fn inserted_since_build(&self) -> usize {
        self.inserted_since_build
    }

    /// Positive keys the last full (re)build ran over.
    #[must_use]
    pub fn built_keys(&self) -> usize {
        self.built_keys
    }

    /// Where the shards' payload words live: `owned` unless every shard
    /// still serves from an image view; the most view-like shard wins, so
    /// the filter reports `mmap`/`shared` until all shards were promoted.
    #[must_use]
    pub fn backing(&self) -> habf_util::Backing {
        self.shards
            .iter()
            .map(HabfOver::backing)
            .fold(habf_util::Backing::Owned, habf_util::Backing::combine)
    }

    /// Reassembles a sharded filter from decoded shard parts (the v2
    /// codec, which may hand over zero-copy views, and the legacy `HABS`
    /// reader).
    pub(crate) fn from_shard_parts(
        shards: Vec<HabfOver<H>>,
        splitter_seed: u64,
        built_keys: usize,
        inserted_since_build: usize,
    ) -> Self {
        assert!(
            !shards.is_empty(),
            "sharded filter needs at least one shard"
        );
        Self {
            shards,
            splitter_seed,
            built_keys,
            inserted_since_build,
        }
    }

    /// Re-runs the full TPJO construction over fresh positive/negative
    /// sets, each shard over its partition **at its existing geometry**
    /// (see [`HabfOver::rebuild`]), so the rebuild needs nothing beyond the
    /// loaded filter — no original build config, and no risk of the
    /// per-shard budget slices drifting through rounding. Routing (shard
    /// count and splitter seed) never changes, so no key migrates between
    /// shards. Shard `i` is re-seeded `base_seed + i·φ64`, matching the
    /// build-time stride.
    ///
    /// This is the adaptation loop's rebuild step: the negative set is
    /// typically mined from an [`crate::adapt::FpLog`] of observed false
    /// positives.
    ///
    /// Pass the build's base seed to keep `H0` selection stable — then
    /// only keys the optimizer must adjust change their answers, so
    /// false positives observed before the rebuild stay representative.
    /// A different seed re-randomizes every hash choice (occasionally
    /// useful to escape a pathological collision pattern).
    ///
    /// Resets [`ShardedHabf::inserted_since_build`].
    pub fn rebuild_in_place(
        &mut self,
        positives: &[impl AsRef<[u8]>],
        negatives: &[(impl AsRef<[u8]>, f64)],
        base_seed: u64,
    ) {
        *self = self.rebuilt_from(positives, negatives, base_seed);
    }

    /// [`ShardedHabf::rebuild_in_place`] into a fresh filter: reads only
    /// this filter's routing and shard geometry, so no shard is copied,
    /// and leaves it untouched.
    #[must_use]
    pub fn rebuilt_from(
        &self,
        positives: &[impl AsRef<[u8]>],
        negatives: &[(impl AsRef<[u8]>, f64)],
        base_seed: u64,
    ) -> Self {
        let n = self.shards.len();
        let mut pos_parts: Vec<Vec<&[u8]>> = vec![Vec::new(); n];
        for key in positives {
            let key = key.as_ref();
            pos_parts[shard_of(key, self.splitter_seed, n)].push(key);
        }
        let mut neg_parts: Vec<Vec<(&[u8], f64)>> = vec![Vec::new(); n];
        for (key, cost) in negatives {
            let key = key.as_ref();
            neg_parts[shard_of(key, self.splitter_seed, n)].push((key, *cost));
        }
        let shards = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                let seed = base_seed.wrapping_add((i as u64).wrapping_mul(SHARD_SEED_STRIDE));
                shard.rebuilt_from(&pos_parts[i], &neg_parts[i], seed)
            })
            .collect();
        Self {
            shards,
            splitter_seed: self.splitter_seed,
            built_keys: positives.len(),
            inserted_since_build: 0,
        }
    }
}

impl<H: ShardHashing> Filter for ShardedHabf<HabfOver<H>> {
    /// Routes to exactly one shard and runs its two-round query.
    fn contains(&self, key: &[u8]) -> bool {
        self.shards[self.shard_of(key)].contains(key)
    }

    fn space_bits(&self) -> usize {
        self.shards.iter().map(|s| s.space_bits()).sum()
    }

    fn name(&self) -> &'static str {
        H::SHARDED_NAME
    }
}

/// Reusable scratch of [`ShardedHabf::contains_batch`] — grouping state
/// plus the per-chunk probe plan.
#[derive(Default)]
struct BatchScratch {
    /// Per-key shard id.
    shard_ids: Vec<u32>,
    /// Group start offsets (counting-sort cursors during the scatter).
    starts: Vec<usize>,
    /// Key indices grouped by shard.
    order: Vec<u32>,
    /// Flat first-round probe positions of one chunk, the same number
    /// per key.
    plan: Vec<usize>,
}

thread_local! {
    /// Reusable batch scratch, so a serving thread pays the grouping and
    /// plan allocations once, not per `contains_batch` call.
    static BATCH_SCRATCH: RefCell<BatchScratch> = RefCell::new(BatchScratch::default());
}

/// The dedicated splitter: seeded xxHash-64 over the key bytes, reduced
/// modulo the shard count. Stable across versions (the seed and count are
/// persisted), independent of every in-filter hash.
#[must_use]
fn shard_of(key: &[u8], splitter_seed: u64, shards: usize) -> usize {
    debug_assert!(shards > 0);
    (habf_hashing::xxhash::xxh64(key, splitter_seed ^ SPLITTER_TAG) % shards as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::PersistError;
    use crate::{registry, BuildInput, DynFilter, FHabf, Habf};
    use std::sync::Arc;

    type Workload = (Vec<Vec<u8>>, Vec<(Vec<u8>, f64)>);

    fn keys(n: usize, tag: &str) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("{tag}:{i}").into_bytes()).collect()
    }

    fn workload(n: usize) -> Workload {
        let pos = keys(n, "pos");
        let neg = keys(n, "neg")
            .into_iter()
            .enumerate()
            .map(|(i, k)| (k, 1.0 + (i % 7) as f64))
            .collect();
        (pos, neg)
    }

    fn config(shards: usize, total_bits: usize) -> ShardedConfig {
        ShardedConfig::new(shards, HabfConfig::with_total_bits(total_bits))
    }

    #[test]
    fn zero_false_negatives_across_shard_counts() {
        let (pos, neg) = workload(4_000);
        for shards in [1, 2, 4, 8] {
            let f = ShardedHabf::<Habf>::build_par(&pos, &neg, &config(shards, 4_000 * 10));
            assert_eq!(f.shard_count(), shards);
            for k in &pos {
                assert!(f.contains(k), "{shards}-shard filter dropped a member");
            }
        }
    }

    #[test]
    fn fhabf_shards_keep_zero_fnr() {
        let (pos, neg) = workload(2_000);
        let f = ShardedHabf::<FHabf>::build_par(&pos, &neg, &config(4, 2_000 * 10));
        for k in &pos {
            assert!(f.contains(k), "sharded f-HABF dropped a member");
        }
        assert_eq!(f.name(), "Sharded-f-HABF");
    }

    #[test]
    fn single_shard_matches_unsharded_build_bytes() {
        let (pos, neg) = workload(1_500);
        let cfg = config(1, 1_500 * 10);
        let sharded = ShardedHabf::<Habf>::build_par(&pos, &neg, &cfg);
        let plain = Habf::build(&pos, &neg, &cfg.base);
        assert_eq!(
            sharded.shard(0).to_container_bytes(),
            plain.to_container_bytes(),
            "1-shard build must be byte-identical to the unsharded filter"
        );
    }

    #[test]
    fn build_is_deterministic_across_thread_counts() {
        let (pos, neg) = workload(2_000);
        let mut cfg = config(4, 2_000 * 10);
        cfg.threads = 1;
        let serial = ShardedHabf::<Habf>::build_par(&pos, &neg, &cfg);
        cfg.threads = 4;
        let parallel = ShardedHabf::<Habf>::build_par(&pos, &neg, &cfg);
        assert_eq!(serial.to_container_bytes(), parallel.to_container_bytes());
    }

    #[test]
    fn batch_query_agrees_with_scalar() {
        let (pos, neg) = workload(2_000);
        let f = ShardedHabf::<Habf>::build_par(&pos, &neg, &config(4, 2_000 * 10));
        let mut probe = pos.clone();
        probe.extend(keys(2_000, "fresh"));
        let batch = f.contains_batch(&probe);
        let par = f.contains_batch_par(&probe, 4);
        for (i, key) in probe.iter().enumerate() {
            assert_eq!(batch[i], f.contains(key), "batch diverged at {i}");
            assert_eq!(par[i], batch[i], "parallel batch diverged at {i}");
        }
    }

    #[test]
    fn batch_agrees_with_and_without_prefetch_and_tiny_batches_stay_serial() {
        let (pos, neg) = workload(1_200);
        let f = ShardedHabf::<Habf>::build_par(&pos, &neg, &config(4, 1_200 * 10));
        let mut probe = pos.clone();
        probe.extend(keys(1_200, "fresh"));

        let cold = {
            let _prefetch_off = habf_util::prefetch::scoped(false);
            f.contains_batch(&probe)
        };
        let warm = f.contains_batch(&probe);
        assert_eq!(cold, warm, "prefetch must not change answers");

        // Under MIN_KEYS_PER_THREAD per worker the parallel path runs
        // serially and must still answer identically.
        let tiny: Vec<&Vec<u8>> = probe.iter().take(100).collect();
        assert_eq!(f.contains_batch_par(&tiny, 8), f.contains_batch(&tiny));
    }

    #[test]
    fn persistence_roundtrip_preserves_answers_and_bytes() {
        let (pos, neg) = workload(2_000);
        let f = ShardedHabf::<Habf>::build_par(&pos, &neg, &config(4, 2_000 * 10));
        let bytes = f.to_container_bytes();
        let restored = registry::load(&bytes).expect("roundtrip").filter;
        assert_eq!(restored.filter_id(), "sharded-habf");
        for k in &pos {
            assert!(restored.contains(k));
        }
        // Shard count, splitter seed and counters are in the image, so a
        // byte-identical re-encode means they survived.
        assert_eq!(
            restored.to_container_bytes(),
            bytes,
            "re-encode must be stable"
        );
    }

    #[test]
    fn corrupt_sharded_images_error_not_panic() {
        let (pos, neg) = workload(500);
        let f = ShardedHabf::<Habf>::build_par(&pos, &neg, &config(2, 500 * 10));
        let bytes = f.to_container_bytes();
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(registry::load(&bad).err(), Some(PersistError::BadMagic));
        for cut in [0usize, 5, 9, 33, bytes.len() / 2, bytes.len() - 1] {
            assert!(registry::load(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut bad = bytes.clone();
        bad.push(0);
        assert!(registry::load(&bad).is_err());
        // The sharded meta block opens with its kind byte: an f-HABF kind
        // under the HABF id is a kind mismatch, not a misparse.
        let meta = persist::decode_container(&bytes)
            .expect("container")
            .payload_offset
            + 8;
        let mut bad = bytes.clone();
        bad[meta] = 1; // the f-HABF kind
        assert_eq!(registry::load(&bad).err(), Some(PersistError::WrongKind));
    }

    /// Regression: rebuilding a *loaded* filter at a budget re-derived
    /// from `space_bits()` loses bits to per-shard rounding, shifting the
    /// Bloom geometry and re-randomizing every answer. `rebuild_in_place`
    /// preserves each shard's exact geometry, so the observed FPs get
    /// optimized away without a fresh random crop appearing.
    #[test]
    fn rebuild_in_place_preserves_geometry_of_loaded_filters() {
        let (pos, neg) = workload(4_000);
        let build_cfg = config(4, 4_000 * 10);
        let f = ShardedHabf::<Habf>::build_par(&pos, &neg, &build_cfg);
        let probes = keys(4_000, "probe");
        let observed_fps: Vec<Vec<u8>> = probes.iter().filter(|k| f.contains(k)).cloned().collect();
        assert!(!observed_fps.is_empty(), "no FPs to mine at 10 b/key");

        // Load from bytes (the CLI situation: no build config survives),
        // then rebuild against the mined FPs only.
        let mut loaded = registry::load(&f.to_container_bytes())
            .expect("roundtrip")
            .filter;
        let mined: Vec<(Vec<u8>, f64)> = observed_fps.iter().map(|k| (k.clone(), 1.0)).collect();
        // Same base seed as the build: H0 selection stays put, so only
        // keys TPJO must adjust change their answers.
        loaded
            .as_rebuildable()
            .expect("sharded rebuilds in place")
            .rebuild(
                &BuildInput::from_members(&pos).with_costed_negatives(&mined),
                build_cfg.base.seed,
            )
            .expect("rebuild");

        assert_eq!(loaded.space_bits(), f.space_bits(), "geometry drifted");
        for k in &pos {
            assert!(loaded.contains(k), "rebuild dropped a member");
        }
        // The whole probe set must FP *less* than before: the mined keys
        // are optimized away and geometry preservation means no fresh
        // random crop replaces them.
        let after = probes.iter().filter(|k| loaded.contains(k)).count();
        assert!(
            after * 4 <= observed_fps.len(),
            "{after} FPs remain of {} observed",
            observed_fps.len()
        );
        // With the build's seed, a rebuild is byte-identical to a
        // from-scratch build over the same sets: a real TPJO rerun, not a
        // patch. The copy is rebuilt; the filter it came from is not.
        let mut rebuilt = f.clone();
        rebuilt.rebuild_in_place(&pos, &mined, build_cfg.base.seed);
        let scratch = ShardedHabf::<Habf>::build_par(&pos, &mined, &build_cfg);
        assert_eq!(rebuilt.to_container_bytes(), scratch.to_container_bytes());
        assert!(observed_fps.iter().all(|k| f.contains(k)));
    }

    #[test]
    fn splitter_routing_is_stable_and_in_range() {
        let (pos, neg) = workload(500);
        let f = ShardedHabf::<Habf>::build_par(&pos, &neg, &config(8, 500 * 10));
        for k in &pos {
            let s = f.shard_of(k);
            assert!(s < 8);
            assert_eq!(s, f.shard_of(k), "routing must be deterministic");
        }
        // All shards should receive some traffic from 500 uniform keys.
        let mut seen = [false; 8];
        for k in &pos {
            seen[f.shard_of(k)] = true;
        }
        assert!(seen.iter().all(|&b| b), "splitter starved a shard");
    }

    #[test]
    fn concurrent_reads_through_handles() {
        let (pos, neg) = workload(2_000);
        let f = Arc::new(ShardedHabf::<Habf>::build_par(
            &pos,
            &neg,
            &config(4, 2_000 * 10),
        ));
        std::thread::scope(|s| {
            for w in 0..4 {
                let f = Arc::clone(&f);
                let pos = &pos;
                s.spawn(move || {
                    for k in pos.iter().skip(w).step_by(4) {
                        assert!(f.contains(k));
                    }
                });
            }
        });
    }

    #[test]
    #[should_panic(expected = "shard count must be > 0")]
    fn zero_shards_rejected() {
        let (pos, neg) = workload(10);
        let _ = ShardedHabf::<Habf>::build_par(&pos, &neg, &config(0, 1_000));
    }

    #[test]
    fn shard_count_above_persist_cap_rejected() {
        // Regression: a build above the container's framing cap would
        // serialize but never load back; reject it at build time.
        use crate::habf::ConfigError;
        let cfg = config(MAX_SHARDS + 1, 1_000);
        assert_eq!(cfg.validate(), Err(ConfigError::TooManyShards));
        assert_eq!(config(MAX_SHARDS, 1_000).validate(), Ok(()));
    }

    #[test]
    fn space_is_within_budget() {
        let (pos, neg) = workload(4_000);
        let total = 4_000 * 12;
        let f = ShardedHabf::<Habf>::build_par(&pos, &neg, &config(8, total));
        // Per-shard cell rounding may shave bits; nothing may exceed budget
        // by more than the 64-bit-per-shard floor slack.
        assert!(f.space_bits() <= total + 8 * 64);
        assert!(f.space_bits() > total * 8 / 10);
    }
}

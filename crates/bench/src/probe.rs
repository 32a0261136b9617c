//! Batch-probe throughput bench: the hardware-speed probe pipeline
//! across every batchable filter id at equal bits per key.
//!
//! The perf claim this suite pins down: a chunked hash→prefetch→test
//! pipeline over a cache-line-blocked layout answers membership batches
//! several times faster than the scalar loop the same filter serves one
//! key at a time — because the pipeline keeps [`habf_filters::PROBE_CHUNK`]
//! cache-line fetches in flight instead of stalling on each one, and the
//! blocked layouts pay one line per query where the standard layouts pay
//! `k`.
//!
//! Every row is one registered filter id built over the same workload at
//! the same budget, measured four ways: scalar loop, batch with software
//! prefetch disabled, batch with prefetch on, and the parallel batch
//! fan-out. The `probe` binary emits a `BENCH_probe.json` summary CI
//! archives as the probe-trajectory artifact; the committed copy at the
//! repo root pins a full-scale release run.

use crate::report::Table;
use habf_core::{BuildInput, FilterSpec};
use habf_util::stats::time_ns;

/// Filter ids the suite measures: every registered id exposing the batch
/// capability, in registry order.
pub const PROBE_IDS: &[&str] = &[
    "bloom",
    "weighted-bloom",
    "sharded-habf",
    "sharded-fhabf",
    "blocked-bloom",
    "blocked-habf",
    "binary-fuse",
    "scalable-habf",
];

/// Best-of-reps for each throughput figure; probes dominate wall-clock,
/// so a few reps strip scheduler noise without doubling the run.
const REPS: usize = 3;

/// One filter's measured probe throughput.
#[derive(Clone, Debug)]
pub struct ProbeRow {
    /// Registry id of the filter.
    pub id: &'static str,
    /// Total space of the built filter, bits.
    pub space_bits: usize,
    /// One-key-at-a-time loop, million ops/s.
    pub scalar_mops: f64,
    /// Batch pipeline with software prefetch disabled, million ops/s.
    pub batch_noprefetch_mops: f64,
    /// Batch pipeline with software prefetch on, million ops/s.
    pub batch_mops: f64,
    /// Parallel batch fan-out, million ops/s.
    pub par_mops: f64,
}

/// Outcome of one probe-throughput run.
#[derive(Clone, Debug)]
pub struct ProbeResult {
    /// Member keys each filter was built over.
    pub keys: usize,
    /// Probe keys per measurement (half members, half fresh).
    pub probes: usize,
    /// Space budget per member key, bits.
    pub bits_per_key: f64,
    /// Worker threads of the parallel column (`0` = auto).
    pub threads: usize,
    /// One row per measured filter id.
    pub rows: Vec<ProbeRow>,
}

impl ProbeResult {
    /// The best batch throughput across all rows — the headline number.
    #[must_use]
    pub fn best_batch_mops(&self) -> f64 {
        self.rows.iter().map(|r| r.batch_mops).fold(0.0, f64::max)
    }

    /// The printed comparison table.
    #[must_use]
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Batch probes: scalar vs prefetch pipeline at equal bits",
            &[
                "filter",
                "bits/key",
                "scalar Mops",
                "batch -pf Mops",
                "batch Mops",
                "par Mops",
            ],
        );
        for r in &self.rows {
            t.row(&[
                r.id.into(),
                format!("{:.1}", r.space_bits as f64 / self.keys as f64),
                format!("{:.1}", r.scalar_mops),
                format!("{:.1}", r.batch_noprefetch_mops),
                format!("{:.1}", r.batch_mops),
                format!("{:.1}", r.par_mops),
            ]);
        }
        t
    }

    /// The `BENCH_probe.json` summary CI archives as an artifact.
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut rows = String::new();
        for (i, r) in self.rows.iter().enumerate() {
            let _ = write!(
                rows,
                "{}{{\"id\":\"{}\",\
                 \"space_bits\":{},\
                 \"scalar_mops\":{:.3},\
                 \"batch_noprefetch_mops\":{:.3},\
                 \"batch_mops\":{:.3},\
                 \"par_mops\":{:.3}}}",
                if i == 0 { "" } else { "," },
                r.id,
                r.space_bits,
                r.scalar_mops,
                r.batch_noprefetch_mops,
                r.batch_mops,
                r.par_mops,
            );
        }
        format!(
            "{{\"suite\":\"probe\",\
             {}\
             \"keys\":{},\
             \"probes\":{},\
             \"bits_per_key\":{},\
             \"threads\":{},\
             \"best_batch_mops\":{:.3},\
             \"rows\":[{rows}]}}",
            crate::report::provenance_json(),
            self.keys,
            self.probes,
            self.bits_per_key,
            self.threads,
            self.best_batch_mops(),
        )
    }
}

fn mops(n: usize, ns: u64) -> f64 {
    n as f64 * 1e3 / ns.max(1) as f64
}

/// Runs the probe-throughput comparison at the given scale.
///
/// Builds each id in [`PROBE_IDS`] over the same `keys` members (and a
/// 10% costed negative set) at `bits_per_key`, then times a shuffled
/// half-members/half-fresh probe batch through the scalar, batch
/// (prefetch off/on), and parallel paths. Batch answers are checked
/// against the scalar loop on every filter, so the bench doubles as a
/// differential test at scale.
///
/// # Panics
/// Panics on a failed build or a batch/scalar answer divergence — both
/// are harness errors, not measurements.
#[must_use]
pub fn run_probe(keys: usize, bits_per_key: f64, threads: usize, seed: u64) -> ProbeResult {
    let members: Vec<Vec<u8>> = (0..keys)
        .map(|i| format!("key:{i:012}").into_bytes())
        .collect();
    let negatives: Vec<(Vec<u8>, f64)> = (0..keys / 10)
        .map(|i| (format!("bot:{i:012}").into_bytes(), 1.0 + (i % 7) as f64))
        .collect();
    let input = BuildInput::from_members(&members).with_costed_negatives(&negatives);

    // Probe set: half members, half fresh keys, deterministically
    // shuffled so neither path benefits from sorted-key locality.
    let mut probes: Vec<Vec<u8>> = members
        .iter()
        .step_by(2)
        .cloned()
        .chain((0..keys / 2).map(|i| format!("fresh:{i:012}").into_bytes()))
        .collect();
    let mut rng = seed | 1;
    for i in (1..probes.len()).rev() {
        // SplitMix-style step; only the swap index needs uniformity.
        rng = rng.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed);
        probes.swap(i, (rng >> 33) as usize % (i + 1));
    }
    let slices: Vec<&[u8]> = probes.iter().map(Vec::as_slice).collect();

    let mut rows = Vec::new();
    for &id in PROBE_IDS {
        let spec = FilterSpec::by_id(id)
            .expect("probe id registered")
            .bits_per_key(bits_per_key)
            .seed(seed)
            .shards(if id.starts_with("sharded") { 8 } else { 1 })
            .threads(threads);
        let filter = spec.build(&input).expect("probe filter builds");
        let batch = filter.as_batch().expect("probe ids are batchable");

        let mut scalar_ns = u64::MAX;
        let mut cold_ns = u64::MAX;
        let mut warm_ns = u64::MAX;
        let mut par_ns = u64::MAX;
        for _ in 0..REPS {
            let (reference, ns) = time_ns(|| {
                slices
                    .iter()
                    .map(|k| filter.contains(k))
                    .collect::<Vec<_>>()
            });
            scalar_ns = scalar_ns.min(ns);

            let (cold, ns) = {
                let _prefetch_off = habf_util::prefetch::scoped(false);
                time_ns(|| batch.contains_batch(&slices))
            };
            cold_ns = cold_ns.min(ns);
            let (warm, ns) = time_ns(|| batch.contains_batch(&slices));
            warm_ns = warm_ns.min(ns);
            let (par, ns) = time_ns(|| batch.contains_batch_par(&slices, threads));
            par_ns = par_ns.min(ns);

            assert_eq!(cold, reference, "{id}: batch(-prefetch) diverged");
            assert_eq!(warm, reference, "{id}: batch diverged");
            assert_eq!(par, reference, "{id}: parallel batch diverged");
        }
        rows.push(ProbeRow {
            id,
            space_bits: filter.space_bits(),
            scalar_mops: mops(probes.len(), scalar_ns),
            batch_noprefetch_mops: mops(probes.len(), cold_ns),
            batch_mops: mops(probes.len(), warm_ns),
            par_mops: mops(probes.len(), par_ns),
        });
    }

    ProbeResult {
        keys,
        probes: probes.len(),
        bits_per_key,
        threads,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_suite_runs_and_batch_agrees_with_scalar() {
        // Answer agreement is asserted inside run_probe on every rep.
        let r = run_probe(20_000, 10.0, 2, 7);
        assert_eq!(r.rows.len(), PROBE_IDS.len());
        for row in &r.rows {
            assert!(row.space_bits > 0, "{}: no space", row.id);
            assert!(
                row.scalar_mops > 0.0 && row.batch_mops > 0.0 && row.par_mops > 0.0,
                "{}: zero throughput",
                row.id
            );
        }
        assert!(r.best_batch_mops() > 0.0);
    }

    #[test]
    fn json_summary_is_parseable_shape() {
        let r = run_probe(5_000, 10.0, 1, 3);
        let json = r.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        for key in [
            "\"suite\":\"probe\"",
            "\"best_batch_mops\":",
            "\"rows\":[",
            "\"id\":\"blocked-habf\"",
            "\"batch_noprefetch_mops\":",
            "\"commit\":\"",
            "\"nproc\":\"",
            "\"rustc\":\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(!json.contains(",}"), "trailing comma in {json}");
        assert!(r.table().render().contains("blocked-bloom"));
    }
}

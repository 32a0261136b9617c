//! Static hints vs the FP-feedback adaptation loop under drifting hot
//! negatives, at equal total filter bits.
//!
//! Both stores are identical HABF-filtered LSM trees seeded with the same
//! phase-0 miss knowledge (`DriftWorkload::observed_costs(0)`); one of
//! them additionally runs [`habf_lsm::Lsm::enable_adaptation`]. The
//! workload's hot miss set shifts at every phase boundary, so the static
//! build keeps paying level-weighted reads for the new hot misses while
//! the adaptive build mines them from its FP log and rebuilds. The
//! headline number is the post-drift `wasted_weighted_cost` — the
//! quantity HABF exists to minimize — plus the rebuild count that bought
//! the difference.
//!
//! The `adaptation` binary runs this comparison and emits a
//! `BENCH_adapt.json` summary for CI's perf-trajectory artifact.

use crate::report::Table;
use habf_lsm::{AdaptConfig, FilterSpec, Lsm, LsmConfig};
use habf_workloads::{DriftConfig, DriftWorkload};

/// Outcome of replaying the drifting workload against one store.
#[derive(Clone, Copy, Debug)]
pub struct StoreOutcome {
    /// Level-weighted wasted cost during phase 0 (before the drift).
    pub pre_drift_wasted_weighted: u64,
    /// Level-weighted wasted cost over all post-drift phases — the
    /// headline metric.
    pub post_drift_wasted_weighted: u64,
    /// Wasted (false-positive) block reads post-drift.
    pub post_drift_wasted_reads: u64,
    /// Adaptation rebuild passes over the whole replay.
    pub rebuilds: u64,
    /// Total filter memory at the end of the replay, in bits.
    pub filter_bits: usize,
}

/// The static-vs-adaptive comparison at equal total bits.
#[derive(Clone, Debug)]
pub struct AdaptationComparison {
    /// Member keys stored in each LSM tree.
    pub members: usize,
    /// Filter budget per stored key (identical for both stores).
    pub bits_per_key: f64,
    /// The drifting workload both stores replayed.
    pub drift: DriftConfig,
    /// The store built once from phase-0 hints.
    pub static_build: StoreOutcome,
    /// The store that mines its FP log and rebuilds on trigger.
    pub adaptive_build: StoreOutcome,
}

fn member_key(i: usize) -> Vec<u8> {
    format!("row:{i:09}").into_bytes()
}

fn build_store(members: usize, bits_per_key: f64, hints: Vec<(Vec<u8>, f64)>) -> Lsm {
    let mut db = Lsm::new(LsmConfig {
        memtable_capacity: 2_048,
        level_fanout: 4,
        filter: Some(FilterSpec::habf().bits_per_key(bits_per_key)),
    });
    db.set_negative_hints(hints).expect("finite drift costs");
    for i in 0..members {
        db.put(member_key(i), b"v".to_vec());
    }
    db.flush();
    db
}

fn replay(db: &mut Lsm, workload: &DriftWorkload) -> StoreOutcome {
    // Phase 0: the regime both stores were built for.
    db.reset_io_stats();
    for key in workload.phase_keys(0) {
        let _ = db.get(key);
    }
    let pre = db.io_stats();

    // Everything after the drift point.
    db.reset_io_stats();
    for phase in 1..workload.phase_starts.len() {
        for key in workload.phase_keys(phase) {
            let _ = db.get(key);
        }
    }
    let post = db.io_stats();
    StoreOutcome {
        pre_drift_wasted_weighted: pre.wasted_weighted_cost,
        post_drift_wasted_weighted: post.wasted_weighted_cost,
        post_drift_wasted_reads: post.wasted_reads,
        rebuilds: pre.rebuilds + post.rebuilds,
        filter_bits: db.filter_bits(),
    }
}

/// Builds the two stores, replays the drifting workload through both, and
/// returns the comparison.
///
/// # Panics
/// Panics on a degenerate drift configuration (see
/// [`DriftConfig::generate`]) or non-finite observed costs (impossible by
/// construction).
#[must_use]
pub fn run_adaptation(
    members: usize,
    bits_per_key: f64,
    drift: &DriftConfig,
) -> AdaptationComparison {
    let workload = drift.generate();
    let phase0_hints = workload.observed_costs(0);

    let mut static_db = build_store(members, bits_per_key, phase0_hints.clone());
    let mut adaptive_db = build_store(members, bits_per_key, phase0_hints);
    adaptive_db.enable_adaptation(AdaptConfig::default());

    AdaptationComparison {
        members,
        bits_per_key,
        drift: drift.clone(),
        static_build: replay(&mut static_db, &workload),
        adaptive_build: replay(&mut adaptive_db, &workload),
    }
}

impl AdaptationComparison {
    /// Post-drift wasted weighted cost, adaptive over static (lower is
    /// better; 1.0 means adaptation bought nothing).
    #[must_use]
    pub fn post_drift_ratio(&self) -> f64 {
        if self.static_build.post_drift_wasted_weighted == 0 {
            return 1.0;
        }
        self.adaptive_build.post_drift_wasted_weighted as f64
            / self.static_build.post_drift_wasted_weighted as f64
    }

    /// Renders the standard report table.
    #[must_use]
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Static hints vs FP-feedback adaptation (drifting hot negatives, equal bits)",
            &[
                "build",
                "pre-drift wasted wcost",
                "post-drift wasted wcost",
                "post-drift wasted reads",
                "rebuilds",
                "filter bits",
            ],
        );
        for (label, o) in [
            ("static", &self.static_build),
            ("adaptive", &self.adaptive_build),
        ] {
            t.row(&[
                label.to_string(),
                o.pre_drift_wasted_weighted.to_string(),
                o.post_drift_wasted_weighted.to_string(),
                o.post_drift_wasted_reads.to_string(),
                o.rebuilds.to_string(),
                o.filter_bits.to_string(),
            ]);
        }
        t
    }

    /// The `BENCH_adapt.json` summary CI archives as an artifact.
    #[must_use]
    pub fn to_json(&self) -> String {
        let outcome = |o: &StoreOutcome| {
            format!(
                "{{\"pre_drift_wasted_weighted_cost\":{},\
                 \"post_drift_wasted_weighted_cost\":{},\
                 \"post_drift_wasted_reads\":{},\
                 \"rebuilds\":{},\
                 \"filter_bits\":{}}}",
                o.pre_drift_wasted_weighted,
                o.post_drift_wasted_weighted,
                o.post_drift_wasted_reads,
                o.rebuilds,
                o.filter_bits
            )
        };
        format!(
            "{{\"suite\":\"adaptation\",\
             {}\
             \"members\":{},\
             \"bits_per_key\":{},\
             \"universe\":{},\
             \"hot\":{},\
             \"phases\":{},\
             \"queries_per_phase\":{},\
             \"hot_fraction\":{},\
             \"skewness\":{},\
             \"seed\":{},\
             \"static\":{},\
             \"adaptive\":{},\
             \"post_drift_ratio\":{:.6}}}",
            crate::report::provenance_json(),
            self.members,
            self.bits_per_key,
            self.drift.universe,
            self.drift.hot,
            self.drift.phases,
            self.drift.queries_per_phase,
            self.drift.hot_fraction,
            self.drift.skewness,
            self.drift.seed,
            outcome(&self.static_build),
            outcome(&self.adaptive_build),
            self.post_drift_ratio()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_drift() -> DriftConfig {
        DriftConfig {
            universe: 10_000,
            hot: 300,
            phases: 2,
            queries_per_phase: 12_000,
            hot_fraction: 0.9,
            skewness: 1.0,
            seed: 0xD21F7,
        }
    }

    /// The acceptance criterion: at equal total bits, the adaptive store
    /// wastes strictly less level-weighted cost after the drift point and
    /// records at least one triggered rebuild.
    #[test]
    fn adaptive_beats_static_after_the_drift_point() {
        let cmp = run_adaptation(3_000, 12.0, &small_drift());
        assert_eq!(cmp.static_build.rebuilds, 0, "static store must not adapt");
        assert!(
            cmp.adaptive_build.rebuilds >= 1,
            "adaptation never triggered a rebuild"
        );
        assert!(
            cmp.adaptive_build.post_drift_wasted_weighted
                < cmp.static_build.post_drift_wasted_weighted,
            "adaptive {} !< static {} post-drift wasted weighted cost",
            cmp.adaptive_build.post_drift_wasted_weighted,
            cmp.static_build.post_drift_wasted_weighted
        );
        // Equal budget: the rebuild must not buy accuracy with space.
        let s = cmp.static_build.filter_bits as f64;
        let a = cmp.adaptive_build.filter_bits as f64;
        assert!(
            (a - s).abs() <= s * 0.01,
            "filter budgets diverged: static {s} vs adaptive {a}"
        );
    }

    #[test]
    fn json_summary_is_parseable_shape() {
        let cmp = run_adaptation(
            1_000,
            12.0,
            &DriftConfig {
                universe: 2_000,
                hot: 100,
                queries_per_phase: 2_000,
                ..small_drift()
            },
        );
        let json = cmp.to_json();
        // Hand-rolled JSON: balanced braces, the keys CI's trajectory
        // tooling greps for, and no trailing commas.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        for key in [
            "\"suite\":\"adaptation\"",
            "\"static\":{",
            "\"adaptive\":{",
            "\"post_drift_wasted_weighted_cost\":",
            "\"rebuilds\":",
            "\"post_drift_ratio\":",
            "\"commit\":\"",
            "\"nproc\":\"",
            "\"rustc\":\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(!json.contains(",}"), "trailing comma in {json}");
        let rendered = cmp.table().render();
        assert!(rendered.contains("adaptive"), "{rendered}");
    }
}

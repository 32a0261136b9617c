//! Elastic suite: what growth costs, and what a fold-back buys it back.
//!
//! A [`habf_core::ScalableHabf`] absorbs inserts past its design capacity
//! by stacking generations, and every extra generation is another filter
//! every negative probe must consult. This suite measures that price
//! directly — probe ns/key and effective FPR at 1..N generations over the
//! same live key set — then compares the recovery paths: the in-place
//! **fold-back** (`fold_rebuild`, the `Rebuildable` arm the adaptation
//! loop fires as `RebuildKind::Compact`) against a **stop-the-world**
//! from-scratch [`Habf::build`] at the exact same geometry, seed, and
//! mined hints. Equal inputs isolate the comparison to the fold path
//! itself: the acceptance bar is a folded single-tier weighted FPR within
//! 10% of the scratch build at equal bits.
//!
//! The `elastic` binary runs the sweep and emits a `BENCH_elastic.json`
//! summary for CI's perf-trajectory artifact.

use std::time::Instant;

use crate::report::Table;
use habf_core::{Habf, HabfConfig, ScalableHabf};
use habf_filters::Filter;

/// One point on the growth curve: the stack measured at a fixed
/// generation count, newest tier half filled.
#[derive(Clone, Copy, Debug)]
pub struct GenerationPoint {
    /// Tier count the stack held when measured.
    pub generations: usize,
    /// Live keys (built members plus every insert so far).
    pub keys: usize,
    /// Total stack memory across all tiers, in bits.
    pub filter_bits: usize,
    /// Mean `contains` cost over an equal mix of members and absent keys.
    pub probe_ns_per_key: f64,
    /// Fraction of fresh absent keys the whole stack passes.
    pub effective_fpr: f64,
}

/// One recovery path (fold-back or from-scratch) over the final live set.
#[derive(Clone, Copy, Debug)]
pub struct RebuildOutcome {
    /// Wall-clock build cost in milliseconds.
    pub build_ms: f64,
    /// Resulting filter memory in bits.
    pub filter_bits: usize,
    /// Cost-weighted FPR over the hot+cold negative pool.
    pub weighted_fpr: f64,
    /// Tier count after the rebuild (always 1 for both paths).
    pub generations: usize,
}

/// The full sweep: growth curve plus the fold-vs-scratch comparison.
#[derive(Clone, Debug)]
pub struct ElasticComparison {
    /// Design capacity the base tier was built for.
    pub base_capacity: usize,
    /// Bits-per-key rate of the base tier (tiers widen from it).
    pub bits_per_key: f64,
    /// Absent keys probed per FPR estimate.
    pub probes: usize,
    /// Build seed (the rebuild paths stride from it identically).
    pub seed: u64,
    /// The growth curve, one point per generation count.
    pub points: Vec<GenerationPoint>,
    /// Weighted FPR of the fully grown stack — what both recovery
    /// paths are buying back.
    pub grown_weighted_fpr: f64,
    /// The in-place fold through the `Rebuildable` capability.
    pub fold_back: RebuildOutcome,
    /// The stop-the-world rebuild at identical geometry and inputs.
    pub from_scratch: RebuildOutcome,
}

fn absent_keys(tag: &str, n: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| format!("abs:{tag}:{i:08}").into_bytes())
        .collect()
}

/// Cost-weighted FPR: the share of total probe cost the filter wastes.
fn weighted_fpr(filter: &dyn Filter, pool: &[(Vec<u8>, f64)]) -> f64 {
    let total: f64 = pool.iter().map(|(_, c)| c).sum();
    let passed: f64 = pool
        .iter()
        .filter(|(k, _)| filter.contains(k))
        .map(|(_, c)| c)
        .sum();
    passed / total.max(1.0)
}

fn measure_point(stack: &ScalableHabf, live: &[Vec<u8>], probes: usize) -> GenerationPoint {
    let negatives = absent_keys(&format!("g{}", stack.generations()), probes);
    let start = Instant::now();
    let mut found = 0usize;
    for key in live {
        found += usize::from(stack.contains(key));
    }
    let mut passed = 0usize;
    for key in &negatives {
        passed += usize::from(stack.contains(key));
    }
    let elapsed = start.elapsed().as_nanos() as f64;
    assert_eq!(
        found,
        live.len(),
        "zero FN broke at {} tiers",
        stack.generations()
    );
    GenerationPoint {
        generations: stack.generations(),
        keys: live.len(),
        filter_bits: stack.space_bits(),
        probe_ns_per_key: elapsed / (live.len() + negatives.len()) as f64,
        effective_fpr: passed as f64 / negatives.len() as f64,
    }
}

/// Grows one stack through `max_generations` tiers, measuring the probe
/// and FPR price at each step, then races the two recovery paths over
/// the final live set.
///
/// # Panics
/// Panics if the stack ever drops a live key (zero FN is a contract, and
/// a benchmark over a broken filter is worse than no benchmark).
#[must_use]
pub fn run_elastic(
    base_capacity: usize,
    bits_per_key: f64,
    max_generations: usize,
    probes: usize,
    seed: u64,
) -> ElasticComparison {
    let members: Vec<Vec<u8>> = (0..base_capacity)
        .map(|i| format!("m:{i:08}").into_bytes())
        .collect();
    // Mined hot negatives, preserved through every rebuild path — the
    // weighted FPR below is the quantity HABF optimizes for.
    let hot: Vec<(Vec<u8>, f64)> = (0..(probes / 8).max(16))
        .map(|i| (format!("hot:{i:08}").into_bytes(), 4.0))
        .collect();
    let mut cfg =
        HabfConfig::with_total_bits(((base_capacity as f64 * bits_per_key) as usize).max(256));
    cfg.seed = seed;
    let mut stack = ScalableHabf::build(&members, &hot, &cfg);

    let mut live = members;
    let mut next = 0usize;
    let mut insert = |stack: &mut ScalableHabf, live: &mut Vec<Vec<u8>>| {
        let key = format!("late:{next:08}").into_bytes();
        stack.insert(&key);
        live.push(key);
        next += 1;
    };

    let mut points = Vec::with_capacity(max_generations);
    for g in 1..=max_generations {
        while stack.generations() < g {
            insert(&mut stack, &mut live);
        }
        // Half-fill the newest tier so each point measures a working
        // generation, not the empty shell the growth edge just pushed.
        while g > 1 && stack.tier_inserted(g - 1) < stack.tier_capacity(g - 1) / 2 {
            insert(&mut stack, &mut live);
        }
        points.push(measure_point(&stack, &live, probes));
    }

    // The negative pool both recovery paths are judged on: the mined hot
    // keys at their real cost plus a cold sample at unit cost.
    let mut pool: Vec<(Vec<u8>, f64)> = hot.clone();
    pool.extend(absent_keys("cold", probes).into_iter().map(|k| (k, 1.0)));
    let grown_weighted_fpr = weighted_fpr(&stack, &pool);

    // Identical seed, hints, and geometry derivation for both paths: the
    // fold re-derives `live.len() * base bits-per-key` internally, and
    // the scratch config repeats that arithmetic, so any FPR gap is the
    // fold path itself — which is the claim under test.
    let rebuild_seed = seed ^ 0x9E37_79B9;
    let mut folded = stack.clone();
    let start = Instant::now();
    folded.fold_rebuild(&live, &hot, rebuild_seed);
    let fold_ms = start.elapsed().as_secs_f64() * 1e3;
    let fold_back = RebuildOutcome {
        build_ms: fold_ms,
        filter_bits: folded.space_bits(),
        weighted_fpr: weighted_fpr(&folded, &pool),
        generations: folded.generations(),
    };

    let capacity = live.len().max(16);
    let mut scratch_cfg =
        HabfConfig::with_total_bits(((capacity as f64 * bits_per_key) as usize).max(256));
    scratch_cfg.seed = rebuild_seed;
    let start = Instant::now();
    let scratch = Habf::build(&live, &hot, &scratch_cfg);
    let scratch_ms = start.elapsed().as_secs_f64() * 1e3;
    let from_scratch = RebuildOutcome {
        build_ms: scratch_ms,
        filter_bits: scratch.space_bits(),
        weighted_fpr: weighted_fpr(&scratch, &pool),
        generations: 1,
    };

    ElasticComparison {
        base_capacity,
        bits_per_key,
        probes,
        seed,
        points,
        grown_weighted_fpr,
        fold_back,
        from_scratch,
    }
}

impl ElasticComparison {
    /// Weighted FPR of the fold over the scratch build (1.0 means the
    /// in-place fold is exactly as accurate as stopping the world).
    #[must_use]
    pub fn fold_fpr_ratio(&self) -> f64 {
        if self.from_scratch.weighted_fpr == 0.0 {
            return if self.fold_back.weighted_fpr == 0.0 {
                1.0
            } else {
                f64::INFINITY
            };
        }
        self.fold_back.weighted_fpr / self.from_scratch.weighted_fpr
    }

    /// Renders the growth-curve table (probe cost and FPR per generation).
    #[must_use]
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Probe cost and effective FPR vs generation count",
            &[
                "generations",
                "keys",
                "filter bits",
                "probe ns/key",
                "effective FPR",
            ],
        );
        for p in &self.points {
            t.row(&[
                p.generations.to_string(),
                p.keys.to_string(),
                p.filter_bits.to_string(),
                format!("{:.1}", p.probe_ns_per_key),
                format!("{:.5}", p.effective_fpr),
            ]);
        }
        t
    }

    /// Renders the recovery-path table (fold-back vs stop-the-world).
    #[must_use]
    pub fn fold_table(&self) -> Table {
        let mut t = Table::new(
            "Fold-back vs stop-the-world rebuild (equal bits, seed, hints)",
            &[
                "path",
                "build ms",
                "filter bits",
                "weighted FPR",
                "generations",
            ],
        );
        for (label, o) in [
            ("fold-back", &self.fold_back),
            ("from-scratch", &self.from_scratch),
        ] {
            t.row(&[
                label.to_string(),
                format!("{:.2}", o.build_ms),
                o.filter_bits.to_string(),
                format!("{:.5}", o.weighted_fpr),
                o.generations.to_string(),
            ]);
        }
        t
    }

    /// The `BENCH_elastic.json` summary CI archives as an artifact.
    #[must_use]
    pub fn to_json(&self) -> String {
        let outcome = |o: &RebuildOutcome| {
            format!(
                "{{\"build_ms\":{:.3},\
                 \"filter_bits\":{},\
                 \"weighted_fpr\":{:.6},\
                 \"generations\":{}}}",
                o.build_ms, o.filter_bits, o.weighted_fpr, o.generations
            )
        };
        let points: Vec<String> = self
            .points
            .iter()
            .map(|p| {
                format!(
                    "{{\"generations\":{},\
                     \"keys\":{},\
                     \"filter_bits\":{},\
                     \"probe_ns_per_key\":{:.2},\
                     \"effective_fpr\":{:.6}}}",
                    p.generations, p.keys, p.filter_bits, p.probe_ns_per_key, p.effective_fpr
                )
            })
            .collect();
        format!(
            "{{\"suite\":\"elastic\",\
             {}\
             \"base_capacity\":{},\
             \"bits_per_key\":{},\
             \"probes\":{},\
             \"seed\":{},\
             \"points\":[{}],\
             \"grown_weighted_fpr\":{:.6},\
             \"fold_back\":{},\
             \"from_scratch\":{},\
             \"fold_fpr_ratio\":{:.6}}}",
            crate::report::provenance_json(),
            self.base_capacity,
            self.bits_per_key,
            self.probes,
            self.seed,
            points.join(","),
            self.grown_weighted_fpr,
            outcome(&self.fold_back),
            outcome(&self.from_scratch),
            self.fold_fpr_ratio()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance criterion: the fold collapses to one tier at the
    /// exact bit budget the stop-the-world path spends, and its weighted
    /// FPR lands within 10% of the scratch build.
    #[test]
    fn fold_back_matches_scratch_within_ten_percent() {
        let cmp = run_elastic(600, 12.0, 4, 3_000, 0xE1A5_71C5);
        assert_eq!(cmp.points.len(), 4);
        for (i, p) in cmp.points.iter().enumerate() {
            assert_eq!(p.generations, i + 1, "curve must walk each generation");
            assert!(p.probe_ns_per_key > 0.0);
        }
        assert!(
            cmp.points.windows(2).all(|w| w[0].keys < w[1].keys),
            "each generation must hold more live keys than the last"
        );
        assert!(
            cmp.points
                .windows(2)
                .all(|w| w[0].filter_bits < w[1].filter_bits),
            "each generation must spend more bits than the last"
        );
        assert_eq!(cmp.fold_back.generations, 1, "fold must collapse the stack");
        assert_eq!(
            cmp.fold_back.filter_bits, cmp.from_scratch.filter_bits,
            "recovery paths must spend identical bits"
        );
        assert!(
            cmp.fold_fpr_ratio() <= 1.1,
            "fold-back weighted FPR drifted {}x from the scratch build",
            cmp.fold_fpr_ratio()
        );
        // Folding must not cost *more* accuracy than staying grown: the
        // single re-derived tier holds the stack's envelope or better.
        assert!(
            cmp.fold_back.weighted_fpr <= cmp.grown_weighted_fpr + 0.02,
            "fold {} vs grown {}",
            cmp.fold_back.weighted_fpr,
            cmp.grown_weighted_fpr
        );
    }

    #[test]
    fn json_summary_is_parseable_shape() {
        let cmp = run_elastic(200, 12.0, 3, 1_000, 7);
        let json = cmp.to_json();
        // Hand-rolled JSON: balanced braces/brackets, the keys CI's
        // trajectory tooling greps for, and no trailing commas.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(
            json.matches('[').count(),
            json.matches(']').count(),
            "{json}"
        );
        for key in [
            "\"suite\":\"elastic\"",
            "\"points\":[{",
            "\"probe_ns_per_key\":",
            "\"effective_fpr\":",
            "\"fold_back\":{",
            "\"from_scratch\":{",
            "\"weighted_fpr\":",
            "\"fold_fpr_ratio\":",
            "\"commit\":\"",
            "\"nproc\":\"",
            "\"rustc\":\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(!json.contains(",}"), "trailing comma in {json}");
        assert!(!json.contains(",]"), "trailing comma in {json}");
        let rendered = cmp.table().render();
        assert!(rendered.contains("generations"), "{rendered}");
        let rendered = cmp.fold_table().render();
        assert!(rendered.contains("fold-back"), "{rendered}");
    }
}

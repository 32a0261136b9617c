//! Workspace smoke test: the façade crate alone is enough to build an HABF
//! end-to-end, uphold the zero-false-negative contract, and ship the filter
//! through its persistence format.
//!
//! This intentionally exercises only `habf::prelude` + re-exported modules,
//! pinning the public surface the workspace promises downstream users.

use habf::core::registry;
use habf::prelude::{DynFilter, FHabf, Filter, Habf, HabfConfig};

type Keys = Vec<Vec<u8>>;
type CostedKeys = Vec<(Vec<u8>, f64)>;

fn workload() -> (Keys, CostedKeys) {
    let positives: Vec<Vec<u8>> = (0..2_000)
        .map(|i| format!("user:{i:05}").into_bytes())
        .collect();
    // Cost-skewed known negatives: a few expensive keys dominate.
    let negatives: Vec<(Vec<u8>, f64)> = (0..2_000)
        .map(|i| {
            let cost = if i % 50 == 0 { 100.0 } else { 1.0 };
            (format!("bot:{i:05}").into_bytes(), cost)
        })
        .collect();
    (positives, negatives)
}

#[test]
fn facade_builds_habf_with_zero_false_negatives_and_persist_roundtrip() {
    let (positives, negatives) = workload();
    let cfg = HabfConfig::with_total_bits(positives.len() * 10);
    let filter = Habf::build(&positives, &negatives, &cfg);

    // Zero false negatives: every member answers "maybe".
    for key in &positives {
        assert!(filter.contains(key), "member dropped: {key:?}");
    }

    // Round-trip through persist: same answers on members and negatives.
    let image = filter.to_container_bytes();
    let shipped = registry::load(&image).expect("image loads back").filter;
    assert_eq!(filter.space_bits(), shipped.space_bits());
    for key in &positives {
        assert!(shipped.contains(key), "member dropped after round-trip");
    }
    for (key, _) in &negatives {
        assert_eq!(
            filter.contains(key),
            shipped.contains(key),
            "answer changed after round-trip for {key:?}"
        );
    }
}

#[test]
fn facade_builds_fhabf_with_zero_false_negatives_and_persist_roundtrip() {
    let (positives, negatives) = workload();
    let cfg = HabfConfig::with_total_bits(positives.len() * 10);
    let filter = FHabf::build(&positives, &negatives, &cfg);

    for key in &positives {
        assert!(filter.contains(key), "member dropped: {key:?}");
    }

    let shipped = registry::load(&filter.to_container_bytes())
        .expect("image loads back")
        .filter;
    for key in &positives {
        assert!(shipped.contains(key), "member dropped after round-trip");
    }
    for (key, _) in &negatives {
        assert_eq!(filter.contains(key), shipped.contains(key));
    }
}

#[test]
fn facade_reexports_cover_the_workspace_map() {
    // One symbol per member crate: a rename or dropped re-export here is a
    // breaking change to the façade and should be a deliberate decision.
    let _ = habf::core::MAX_K;
    let _ = habf::hashing::FAMILY_SIZE;
    let _ = habf::filters::optimal_k(10.0);
    let _ = habf::util::SplitMix64::new(1);
    let _ = habf::workloads::ZipfSampler::new(16, 1.0);
    let _ = habf::lsm::LsmConfig::default();
    // The unified filter API rides the core re-export (pinned in detail
    // by tests/api_surface.rs).
    let _ = habf::core::registry::ids();
}

//! Persistence integration: build offline on a real workload, ship the
//! bytes, answer identically.

use habf::core::{registry, DynFilter, FHabf, Habf, HabfConfig};
use habf::filters::Filter;
use habf::util::Xoshiro256;
use habf::workloads::{zipf_costs, ShallaConfig};

#[test]
fn shipped_filter_answers_identically() {
    let ds = ShallaConfig::with_scale(0.003).generate();
    let mut rng = Xoshiro256::new(5);
    let costs = zipf_costs(ds.negatives.len(), 1.0, &mut rng);
    let negatives: Vec<(&[u8], f64)> = ds.negatives_with_costs(&costs);
    let cfg = HabfConfig::with_total_bits(ds.positives.len() * 10);

    let built = Habf::build(&ds.positives, &negatives, &cfg);
    let image = built.to_container_bytes();
    // Image size ≈ the filter's space budget plus a small fixed header:
    // the v2 container's envelope, metadata and two-entry frame table
    // (about 120 bytes), and the word rounding of the two frames.
    assert!(image.len() * 8 <= built.space_bits() + 2048);
    let shipped = registry::load(&image).expect("load").filter;
    for key in ds.positives.iter().chain(ds.negatives.iter()) {
        assert_eq!(built.contains(key), shipped.contains(key));
    }

    let fast = FHabf::build(&ds.positives, &negatives, &cfg);
    let shipped_fast = registry::load(&fast.to_container_bytes())
        .expect("load")
        .filter;
    for key in ds.positives.iter().chain(ds.negatives.iter().take(5_000)) {
        assert_eq!(fast.contains(key), shipped_fast.contains(key));
    }
}

#[test]
fn random_garbage_never_panics() {
    let mut rng = Xoshiro256::new(99);
    for len in [0usize, 1, 4, 5, 16, 64, 256, 4096] {
        let garbage: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        assert!(registry::load(&garbage).is_err());
    }
    // Valid header prefix + random tail.
    let ds = ShallaConfig::with_scale(0.0005).generate();
    let neg: Vec<(&[u8], f64)> = ds.negatives.iter().map(|k| (k.as_slice(), 1.0)).collect();
    let image = Habf::build(
        &ds.positives,
        &neg,
        &HabfConfig::with_total_bits(ds.positives.len() * 10),
    )
    .to_container_bytes();
    for flip in [6usize, 7, 10, 20, 40] {
        let mut corrupted = image.clone();
        corrupted[flip] = corrupted[flip].wrapping_add(97);
        // Must either load (benign field) or error — never panic. If it
        // loads, the one-sided error contract may be broken, which is why
        // production deployments should checksum images externally.
        let _ = registry::load(&corrupted);
    }
}

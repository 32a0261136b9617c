//! Construction memory, measured with the tracking allocator installed as
//! this binary's global allocator.
//!
//! The tracker's counters are process-wide, so this binary holds a single
//! test: a second one running on another thread would count its own
//! allocations into every measurement here.

use habf_core::adapt::AdaptPolicy;
use habf_core::{BuildInput, FilterSpec, Habf, HabfConfig, InsertError, RebuildError};
use habf_core::{ScalableHabf, TenantStore};
use habf_filters::Filter;
use habf_util::alloc::TrackingAllocator;

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

/// Peak heap bytes of a `Habf::build`, per member and per negative. The
/// built filter itself takes 1.25 bytes per member at 10 bits per key;
/// the rest is TPJO's scratch, which follows the inputs.
const BUILD_BYTES_PER_MEMBER: usize = 8;
const BUILD_BYTES_PER_NEGATIVE: usize = 64;

fn keys(n: usize, tag: &str) -> Vec<Vec<u8>> {
    (0..n).map(|i| format!("{tag}:{i}").into_bytes()).collect()
}

#[test]
fn construction_and_refused_mutations_stay_within_their_memory_bounds() {
    // Opening the next tier of a full stack costs about that tier: an
    // empty tier has no negatives, so TPJO builds no index for it.
    let members = keys(65_536, "member");
    let none: [(&[u8], f64); 0] = [];
    let mut stack = ScalableHabf::build(&members, &none, &HabfConfig::with_total_bits(655_360));
    assert_eq!(stack.generations(), 1);
    let full_stack = stack.clone();
    let ((), peak) = TrackingAllocator::measure(|| stack.insert(b"late:0"));
    assert_eq!(stack.generations(), 2, "the insert must open a tier");
    let tier_bytes = stack.tier(1).space_bits() / 8;
    assert!(
        peak < 2 * tier_bytes,
        "opening a {tier_bytes}-byte tier peaked at {peak} bytes"
    );

    // A build's scratch follows its members and negatives, not the Bloom
    // array's length.
    let negatives: Vec<(Vec<u8>, f64)> = keys(1_024, "hint")
        .into_iter()
        .enumerate()
        .map(|(i, k)| (k, 1.0 + (i % 13) as f64))
        .collect();
    let config = HabfConfig::with_total_bits(10 * members.len());
    let (filter, peak) = TrackingAllocator::measure(|| Habf::build(&members, &negatives, &config));
    assert!(filter.stats().optimized > 0, "the build must optimize");
    let bound = BUILD_BYTES_PER_MEMBER * members.len() + BUILD_BYTES_PER_NEGATIVE * negatives.len();
    assert!(
        peak < bound,
        "Habf::build over {} members and {} negatives peaked at {peak} bytes (bound {bound})",
        members.len(),
        negatives.len()
    );
    drop(filter);

    // Past two threads' worth of members the member pass splits, and
    // each thread past the first fills a private Bloom array. That
    // scratch must fit the same bounds.
    let many = keys(1 << 18, "member");
    let config = HabfConfig::with_total_bits(10 * many.len());
    let (filter, peak) = TrackingAllocator::measure(|| Habf::build(&many, &negatives, &config));
    let bound = BUILD_BYTES_PER_MEMBER * many.len() + BUILD_BYTES_PER_NEGATIVE * negatives.len();
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    assert!(
        peak < bound,
        "Habf::build over {} members peaked at {peak} bytes (bound {bound}, {cores} cores)",
        many.len()
    );
    println!(
        "Habf::build over {} members peaked at {peak} bytes (bound {bound}, {cores} cores)",
        many.len()
    );
    drop((filter, many));

    // An INSERT copies the filter only while a snapshot holds it. The
    // warm-up opens a tier and grows the member list, so the measured
    // INSERTs below do neither.
    let tenant = TenantStore::new("t", Box::new(full_stack), AdaptPolicy::cost_threshold(1.0))
        .with_members(members.clone());
    let warm_up = tenant.insert_keys(&keys(1, "warm")).expect("growable");
    assert_eq!(warm_up.generations, 2, "the warm-up must open a tier");
    let image_bytes = tenant.snapshot().to_container_bytes().len();
    let late = keys(16, "late");
    let (_, peak) = TrackingAllocator::measure(|| tenant.insert_keys(&late));
    assert!(
        peak * 100 < image_bytes,
        "an unshared 16-key INSERT into a {image_bytes}-byte image peaked at {peak} bytes"
    );
    let held = tenant.snapshot();
    let later = keys(16, "later");
    let (_, peak) = TrackingAllocator::measure(|| tenant.insert_keys(&later));
    assert!(
        peak * 2 < image_bytes * 3,
        "a 16-key INSERT beside a held snapshot of a {image_bytes}-byte image peaked at {peak} bytes"
    );
    drop((held, tenant));

    // Refused mutations answer before copying the filter.
    let big = keys(100_000, "user");
    let input = BuildInput::from_members(&big);
    for (spec, refuse_insert) in [
        (FilterSpec::sharded(8), true),
        (FilterSpec::binary_fuse(), false),
    ] {
        let id = spec.id();
        let filter = spec.bits_per_key(10.0).build(&input).expect("build");
        let image_bytes = filter.to_container_bytes().len();
        let tenant = TenantStore::new("t", filter, AdaptPolicy::cost_threshold(1.0))
            .with_members(big.clone());
        let late = keys(16, "late");
        let (refused, peak) = TrackingAllocator::measure(|| {
            if refuse_insert {
                matches!(
                    tenant.insert_keys(&late),
                    Err(InsertError::NotGrowable { .. })
                )
            } else {
                matches!(
                    tenant.rebuild_now(7, 4_096),
                    Err(RebuildError::NotRebuildable)
                )
            }
        });
        assert!(refused, "{id} must refuse");
        assert!(
            peak * 100 < image_bytes,
            "a refused mutation on a {image_bytes}-byte {id} image allocated {peak} bytes"
        );
    }
}

//! Fig 15: peak heap usage during construction (Shalla 1.5 MB, YCSB
//! 15 MB, scaled). Requires the binary to install
//! [`habf_util::alloc::TrackingAllocator`] as the global allocator (the
//! `fig15_memory` and `run_all` binaries do).
//!
//! Paper finding: HABF construction costs ~6.1× the memory of BF (it keeps
//! the negative keys plus the V/Γ runtime indexes), f-HABF ~3.6× (no Γ);
//! learned filters cost the most.
//!
//! This implementation measures below those ratios: about 2.1× BF for
//! HABF and 1.8× for f-HABF on the default scaled datasets (EXPERIMENTS.md).
//! Its V and Γ cover only the Bloom bits some negative key maps to, not
//! every bit (DESIGN.md §3 item 6), so TPJO's scratch is
//! `O(m/8 + |S| + k·|O|)` bytes: a bitmap over the Bloom range plus a few
//! words per negative key. Indexes spanning every Bloom bit cost several
//! words per bit whatever the negatives, which is most of the paper's 6.1×.

use crate::report::{bytes, Table};
use crate::suite::{self, Spec};
use crate::RunOpts;
use habf_util::alloc::TrackingAllocator;
use habf_workloads::{Dataset, ShallaConfig, YcsbConfig};

/// Paper reference values in GB: (spec, shalla, ycsb).
const PAPER_GB: [(Spec, f64, f64); 8] = [
    (Spec::Habf, 0.79, 7.569),
    (Spec::FHabf, 0.46, 4.394),
    (Spec::Bf, 0.13, 1.23),
    (Spec::Xor, 0.20, 1.781),
    (Spec::Wbf, 0.58, 2.708),
    (Spec::Lbf, 2.59, 9.88),
    (Spec::AdaBf, 2.78, 9.88),
    (Spec::Slbf, 2.68, 9.88),
];

fn paper_ref(spec: Spec, col: usize) -> String {
    PAPER_GB
        .iter()
        .find(|(s, ..)| *s == spec)
        .map(|&(_, a, b)| format!("{:.2} GB", [a, b][col]))
        .unwrap_or_default()
}

fn dataset_table(ds: &Dataset, bits: usize, seed: u64, col: usize) {
    let costs = vec![1.0; ds.negatives.len()];
    // The paper measures whole-process CPU memory, which includes the
    // resident datasets; report both the build's own peak and the
    // process-comparable figure.
    let ds_bytes: usize = ds
        .positives
        .iter()
        .chain(ds.negatives.iter())
        .map(|k| k.capacity() + core::mem::size_of::<Vec<u8>>())
        .sum();
    let mut table = Table::new(
        &format!("{} — peak construction memory", ds.name),
        &[
            "filter",
            "build peak",
            "incl. dataset",
            "paper (full scale)",
        ],
    );
    for spec in Spec::ALL_TIMED {
        let (built, peak) =
            TrackingAllocator::measure(|| suite::build(spec, ds, &costs, bits, seed));
        suite::assert_zero_fnr(built.filter.as_ref(), ds);
        drop(built);
        table.row(&[
            spec.name().into(),
            bytes(peak),
            bytes(peak + ds_bytes),
            paper_ref(spec, col),
        ]);
    }
    table.print();
}

/// Runs both datasets. Peaks are meaningful only when the tracking
/// allocator is installed; the value is 0 otherwise.
pub fn run(opts: &RunOpts) {
    if TrackingAllocator::live_bytes() == 0 {
        println!(
            "warning: TrackingAllocator does not appear to be installed as \
             the global allocator; peaks will read ~0."
        );
    }
    let shalla = ShallaConfig {
        scale: opts.scale_shalla,
        seed: opts.seed,
        ..ShallaConfig::default()
    }
    .generate();
    println!(
        "Fig 15 Shalla-like @ {:.2} MB (scale {}): |S|={}, |O|={}",
        1.5 * opts.scale_shalla,
        opts.scale_shalla,
        shalla.positives.len(),
        shalla.negatives.len()
    );
    dataset_table(&shalla, opts.shalla_bits(1.5), opts.seed, 0);

    let ycsb = YcsbConfig {
        scale: opts.scale_ycsb,
        seed: opts.seed ^ 0x9C,
    }
    .generate();
    println!(
        "\nFig 15 YCSB-like @ {:.2} MB (scale {}): |S|={}, |O|={}",
        15.0 * opts.scale_ycsb,
        opts.scale_ycsb,
        ycsb.positives.len(),
        ycsb.negatives.len()
    );
    dataset_table(&ycsb, opts.ycsb_bits(15.0), opts.seed, 1);
    println!(
        "paper: peaks scale with the dataset; compare *ratios* to BF at \
         matching scale (HABF ≈ 6.1×, f-HABF ≈ 3.6× BF). GPU variants add \
         ~0.8-0.9 GB of host staging and are n/a here."
    );
}

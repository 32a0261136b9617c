//! Pins every decision TPJO makes. Each case hashes the optimizer's whole
//! output — Bloom words, HashExpressor cells, `H0` and every `BuildStats`
//! counter — into one xxh64 digest and compares it with a recorded table.
//!
//! The golden persistence fixtures cover one workload only. This matrix
//! covers the optimizer's branches: Γ on and off, tight and roomy budgets
//! under skewed costs (classes (b) and (c), requeues), the ablation
//! switches, duplicate members, the `k` extremes, empty inputs, and every
//! hash provider a build path uses. A change to TPJO's internals that
//! keeps its output must leave every digest as it is; a change that
//! means to alter the output re-records the table and says why.

use habf_core::tpjo::{self, TpjoConfig, TpjoOutput};
use habf_core::BlockedFamily;
use habf_hashing::double::SimulatedFamily;
use habf_hashing::xxhash::xxh64;
use habf_hashing::{HashFamily, HashFunction, HashProvider};

fn keys(n: usize, tag: &str) -> Vec<Vec<u8>> {
    (0..n).map(|i| format!("{tag}:{i}").into_bytes()).collect()
}

/// Negatives with Zipf-like costs over a scrambled rank, so a few keys
/// dominate and the collision queue is far from insertion order.
fn skewed(n: usize, tag: &str) -> Vec<(Vec<u8>, f64)> {
    keys(n, tag)
        .into_iter()
        .enumerate()
        .map(|(i, key)| {
            let rank = (i * 7_919) % n.max(1) + 1;
            (key, 1_000.0 / rank as f64)
        })
        .collect()
}

fn config(k: usize, m: usize, omega: usize, use_gamma: bool) -> TpjoConfig {
    TpjoConfig {
        k,
        m,
        omega,
        cell_bits: 4,
        use_gamma,
        requeue_cap: 3,
        seed: 0x5EED,
        enable_class_c: true,
        overlap_tiebreak: true,
    }
}

/// A budget of `bits_per_key` split 4:1 between Bloom bits and
/// 4-bit HashExpressor cells, as `HabfConfig` splits it.
fn budget(n: usize, bits_per_key: usize) -> (usize, usize) {
    let total = n * bits_per_key;
    let cells = total / 5 / 4;
    (total - cells * 4, cells.max(1))
}

fn digest(out: &TpjoOutput) -> u64 {
    let mut bytes = Vec::new();
    for w in out.bloom.words() {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    bytes.extend_from_slice(&(out.bloom.len() as u64).to_le_bytes());
    for w in out.he.cells().words() {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    bytes.extend_from_slice(&(out.he.inserted() as u64).to_le_bytes());
    bytes.extend_from_slice(&out.h0);
    let s = &out.stats;
    for field in [
        s.positives,
        s.negatives,
        s.initial_collision_keys,
        s.optimized,
        s.failed,
        s.requeued,
        s.adjusted_positives,
        s.resolved_lazily,
    ] {
        bytes.extend_from_slice(&(field as u64).to_le_bytes());
    }
    xxh64(&bytes, 0)
}

fn run<P: HashProvider>(
    positives: &[Vec<u8>],
    negatives: &[(Vec<u8>, f64)],
    provider: &P,
    cfg: &TpjoConfig,
) -> TpjoOutput {
    tpjo::run(positives, negatives, provider, cfg)
}

/// Every case of the matrix, with its output.
fn cases() -> Vec<(&'static str, TpjoOutput)> {
    let family = HashFamily::with_size(7);
    let pos = keys(3_000, "pos");
    let neg = skewed(3_000, "neg");
    let mut out = Vec::new();

    for (name_on, name_off, bpk) in [
        ("gamma_on_b4", "gamma_off_b4", 4),
        ("gamma_on_b6", "gamma_off_b6", 6),
        ("gamma_on_b10", "gamma_off_b10", 10),
    ] {
        let (m, omega) = budget(pos.len(), bpk);
        out.push((
            name_on,
            run(&pos, &neg, &family, &config(3, m, omega, true)),
        ));
        out.push((
            name_off,
            run(&pos, &neg, &family, &config(3, m, omega, false)),
        ));
    }

    let (m, omega) = budget(pos.len(), 6);
    let mut cfg = config(3, m, omega, true);
    cfg.requeue_cap = 0;
    out.push(("requeue_cap_0", run(&pos, &neg, &family, &cfg)));
    let mut cfg = config(3, m, omega, true);
    cfg.enable_class_c = false;
    out.push(("no_class_c", run(&pos, &neg, &family, &cfg)));
    let mut cfg = config(3, m, omega, true);
    cfg.overlap_tiebreak = false;
    out.push(("no_overlap_tiebreak", run(&pos, &neg, &family, &cfg)));

    // More negatives than members: Γ buckets hold several keys each.
    let wide = skewed(12_000, "wide");
    out.push((
        "negatives_4x_gamma_on",
        run(&pos, &wide, &family, &config(3, m, omega, true)),
    ));
    out.push((
        "negatives_4x_gamma_off",
        run(&pos, &wide, &family, &config(3, m, omega, false)),
    ));

    let mut dup = keys(1_500, "pos");
    dup.extend(keys(1_500, "pos"));
    out.push((
        "duplicate_positives",
        run(&dup, &neg, &family, &config(3, m, omega, true)),
    ));

    let narrow = HashFamily::with_size(3);
    out.push((
        "k_equals_family_size",
        run(&pos, &neg, &narrow, &config(3, m, omega, true)),
    ));
    out.push((
        "k_one",
        run(&pos, &neg, &family, &config(1, m, omega, true)),
    ));

    let none: Vec<Vec<u8>> = Vec::new();
    let no_costs: Vec<(Vec<u8>, f64)> = Vec::new();
    out.push((
        "empty_positives",
        run(&none, &neg, &family, &config(3, m, omega, true)),
    ));
    out.push((
        "empty_negatives",
        run(&pos, &no_costs, &family, &config(3, m, omega, true)),
    ));
    out.push((
        "both_empty",
        run(&none, &no_costs, &family, &config(3, m, omega, true)),
    ));

    let blocked_m = m.div_ceil(512) * 512;
    let blocked = BlockedFamily::new(
        HashFamily::with_size(7),
        blocked_m,
        HashFunction::XxHash,
        0x5EED,
    );
    out.push((
        "blocked_family",
        run(&pos, &neg, &blocked, &config(3, blocked_m, omega, true)),
    ));
    let simulated = SimulatedFamily::new(7, 0x5EED ^ 0xFA57);
    out.push((
        "simulated_family_gamma_off",
        run(&pos, &neg, &simulated, &config(3, m, omega, false)),
    ));

    let big = keys(65_536, "member");
    let big_neg = skewed(16_384, "hint");
    let (m, omega) = budget(big.len(), 8);
    out.push((
        "members_65536",
        run(&big, &big_neg, &family, &config(3, m, omega, true)),
    ));

    // Enough members for a multi-threaded member pass.
    let huge = keys(1 << 18, "member");
    let huge_neg = skewed(1 << 12, "hint");
    let (m, omega) = budget(huge.len(), 8);
    out.push((
        "members_262144",
        run(&huge, &huge_neg, &family, &config(3, m, omega, true)),
    ));
    out
}

/// Digests recorded from the optimizer as it stood before its runtime
/// indexes were resized to the negatives; `members_262144` was recorded
/// from the optimizer as it stood before its member pass was threaded.
const EXPECTED: &[(&str, u64)] = &[
    ("gamma_on_b4", 0xbae6c45a7b9276e1),
    ("gamma_off_b4", 0xa27e522b701a71ad),
    ("gamma_on_b6", 0xd01548420da71955),
    ("gamma_off_b6", 0x6713dc5e52c7f0c6),
    ("gamma_on_b10", 0x549bfdf2fb496423),
    ("gamma_off_b10", 0x90bb832e23741739),
    ("requeue_cap_0", 0x1dccb69447966d83),
    ("no_class_c", 0x06bf1852e75976ad),
    ("no_overlap_tiebreak", 0x79a189e9b7df5b7c),
    ("negatives_4x_gamma_on", 0x0573079f7c001b3e),
    ("negatives_4x_gamma_off", 0xc9ffcb6884aad474),
    ("duplicate_positives", 0x56c933b5340e537b),
    ("k_equals_family_size", 0xe0cf18185b207da1),
    ("k_one", 0xa4ba9d53f711cac6),
    ("empty_positives", 0xbe1247fab898c173),
    ("empty_negatives", 0x3e277b9f7f272a9e),
    ("both_empty", 0x1edd2ef3413fadd6),
    ("blocked_family", 0x0ab5b67c702a7265),
    ("simulated_family_gamma_off", 0x756de9e963023372),
    ("members_65536", 0x40cf8759872af101),
    ("members_262144", 0xc54adc257e8db43c),
];

#[test]
fn tpjo_output_matches_the_recorded_digests() {
    let cases = cases();
    // The matrix must reach the branches it claims to cover.
    let stats = |name: &str| {
        &cases
            .iter()
            .find(|(n, _)| *n == name)
            .expect("case exists")
            .1
            .stats
    };
    assert!(stats("gamma_on_b4").requeued > 0, "no class-(c) requeue");
    assert!(stats("gamma_on_b6").optimized > 0);
    assert!(stats("gamma_off_b6").optimized > 0);
    assert_eq!(stats("requeue_cap_0").requeued, 0);
    assert_eq!(stats("k_equals_family_size").optimized, 0);

    let mut mismatches = Vec::new();
    for (name, out) in &cases {
        let got = digest(out);
        let want = EXPECTED.iter().find(|(n, _)| n == name).map(|&(_, d)| d);
        if want != Some(got) {
            mismatches.push(format!("    (\"{name}\", {got:#018x}),"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "TPJO output changed; the current digests are:\n{}",
        mismatches.join("\n")
    );
    assert_eq!(EXPECTED.len(), cases.len(), "stale entries in the table");
}

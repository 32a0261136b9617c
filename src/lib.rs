//! # habf — Hash Adaptive Bloom Filter
//!
//! A complete, from-scratch Rust reproduction of **"Hash Adaptive Bloom
//! Filter"** (Rongbiao Xie, Meng Li, Zheyu Miao, Rong Gu, He Huang, Haipeng
//! Dai, Guihai Chen — ICDE 2021, arXiv:2106.07037).
//!
//! A Bloom filter hashes every key with the same `k` functions, so it
//! cannot use two pieces of information many systems actually have at
//! build time: **which negative keys will be queried** and **how much each
//! false positive costs**. HABF customizes the hash-function subset of
//! individual positive keys (via the construction-time TPJO optimizer) so
//! that known, costly negatives stop colliding, stores the customized
//! subsets in a compact probabilistic table (the *HashExpressor*), and
//! answers queries in at most two rounds with zero false negatives.
//!
//! ## Crates behind this façade
//!
//! | Re-export | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `habf-core` | one HABF type over three hashings (`Habf`, `FHabf`, `BlockedHabf`), HashExpressor, TPJO, theory bounds |
//! | [`filters`] | `habf-filters` | Bloom / Xor / Weighted-Bloom / LBF / SLBF / Ada-BF baselines |
//! | [`hashing`] | `habf-hashing` | the 22-function Table II family, double hashing |
//! | [`workloads`] | `habf-workloads` | Shalla-like & YCSB-like generators, Zipf costs, metrics |
//! | [`lsm`] | `habf-lsm` | mini LSM-tree KV store with pluggable per-run filters |
//! | [`util`] | `habf-util` | bit vectors, packed cells, RNG, allocation tracking |
//!
//! ## Example
//!
//! Every filter builds through the one validated entry point
//! ([`prelude::FilterSpec`]) and serves behind the object-safe
//! [`prelude::DynFilter`]:
//!
//! ```
//! use habf::prelude::{BuildInput, FilterSpec};
//!
//! let members: Vec<Vec<u8>> = (0..500).map(|i| format!("user:{i}").into_bytes()).collect();
//! let blocked: Vec<(Vec<u8>, f64)> = (0..500)
//!     .map(|i| (format!("bot:{i}").into_bytes(), 1.0))
//!     .collect();
//! let input = BuildInput::from_members(&members).with_costed_negatives(&blocked);
//! let filter = FilterSpec::habf().bits_per_key(10.0).build(&input).unwrap();
//! assert!(members.iter().all(|k| filter.contains(k)));
//!
//! // Ships as a self-describing container, loads back by id.
//! let image = filter.to_container_bytes();
//! let loaded = habf::core::registry::load(&image).unwrap();
//! assert_eq!(loaded.filter.filter_id(), "habf");
//! ```
//!
//! See `DESIGN.md` for the system inventory, `EXPERIMENTS.md` for
//! paper-vs-measured results, and `crates/bench/src/bin/` for the binaries
//! regenerating every figure of the evaluation.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use habf_core as core;
pub use habf_filters as filters;
pub use habf_hashing as hashing;
pub use habf_lsm as lsm;
pub use habf_serve as serve;
pub use habf_util as util;
pub use habf_workloads as workloads;

/// Convenience prelude: the types most programs need.
///
/// The unified filter API ([`habf_core::FilterSpec`] →
/// [`habf_core::DynFilter`] with [`habf_core::BatchQuery`] /
/// [`habf_core::Rebuildable`] capabilities), the concrete HABF-family
/// types, the persistence surface, and the adaptation types (`FpLog`,
/// `AdaptPolicy`, `HintError`) — no deep module paths needed.
pub mod prelude {
    pub use habf_core::{
        AdaptPolicy, BatchQuery, BuildError, BuildInput, DynFilter, FHabf, FilterSpec, FpLog, Habf,
        HabfConfig, ImageFormat, LoadedFilter, PersistError, Rebuildable, ShardedConfig,
        ShardedHabf,
    };
    pub use habf_filters::Filter;
    pub use habf_lsm::HintError;
}

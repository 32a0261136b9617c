//! # Hash Adaptive Bloom Filter (HABF)
//!
//! A from-scratch Rust implementation of **"Hash Adaptive Bloom Filter"**
//! (Xie, Li, Miao, Gu, Huang, Dai, Chen — ICDE 2021).
//!
//! HABF targets the setting where, at construction time, you know not only
//! the positive set `S` but also a negative set `O` and a per-key cost
//! `Θ(e)` of misidentifying each negative key. A standard Bloom filter
//! cannot use any of that: every key shares the same `k` hash functions.
//! HABF instead **customizes the hash-function subset of individual
//! positive keys** so that costly negative keys stop colliding, and packs
//! the customized subsets into a lightweight probabilistic table, the
//! [`hash_expressor::HashExpressor`]. Queries run at most
//! two rounds — initial functions `H0`, then the HashExpressor's subset —
//! preserving the Bloom filter's one-sided error (zero false negatives).
//!
//! ## Quick start
//!
//! ```
//! use habf_core::{Habf, HabfConfig};
//! use habf_filters::Filter;
//!
//! let members: Vec<Vec<u8>> = (0..1000)
//!     .map(|i| format!("user:{i}").into_bytes())
//!     .collect();
//! // Known troublemakers, with the cost of mistakenly admitting each one.
//! let blocked: Vec<(Vec<u8>, f64)> = (0..1000)
//!     .map(|i| (format!("bot:{i}").into_bytes(), 1.0 + (i % 7) as f64))
//!     .collect();
//!
//! let filter = Habf::build(&members, &blocked, &HabfConfig::with_total_bits(10 * 1000));
//! assert!(members.iter().all(|k| filter.contains(k))); // zero FNR
//! ```
//!
//! ## Module map (paper section → module)
//!
//! | Paper | Module |
//! |---|---|
//! | §III-C HashExpressor structure & operations | [`hash_expressor`] |
//! | §III-D runtime index `V` (Fig 4) | [`vindex`] |
//! | §III-D runtime index `Γ` + Algorithm 1 | [`gamma`] |
//! | §III-D Two-Phase Joint Optimization | [`tpjo`] |
//! | §III-C/E two-round zero-FNR query | [`habf`] |
//! | §III-G f-HABF (double hashing, Γ off) | [`habf::FHabf`] |
//! | §IV theoretical analysis (Eqs 3, 11, 12, 19) | [`theory`] |
//! | — block-partitioned bit layer (post-paper) | [`blocked`] |
//! | — batch-probe prefetch pipeline (post-paper) | [`probe`] |
//! | — sharded concurrent serving (post-paper) | [`sharded`] |
//! | — tiered elastic growth (post-paper) | [`scalable`] |
//! | — FP-feedback adaptation loop (post-paper) | [`adapt`] |
//! | — multi-tenant serving state (post-paper) | [`tenant`] |
//! | — unified object-safe filter API (post-paper) | [`filter_api`], [`registry`] |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adapt;
pub mod blocked;
mod compat;
pub mod filter_api;
pub mod gamma;
pub mod habf;
pub mod hash_expressor;
pub mod persist;
pub mod probe;
pub mod registry;
pub mod scalable;
pub mod sharded;
pub mod tenant;
pub mod theory;
pub mod tpjo;
pub mod vindex;

pub use adapt::{AdaptPolicy, FpLog, RebuildKind};
pub use blocked::{BlockedFamily, BlockedHabf};
pub use filter_api::{
    BatchQuery, BuildError, BuildInput, CloneFilter, DynFilter, FilterParams, FilterSpec, Growable,
    Rebuildable, SpaceBudget,
};
pub use habf::{ConfigError, FHabf, Habf, HabfConfig, QueryOutcome};
pub use hash_expressor::HashExpressor;
pub use persist::{
    ContainerHeader, DecodedContainer, FrameEntry, FrameSource, FrameWriter, PersistError,
};
pub use registry::{FilterEntry, ImageFormat, LoadedFilter, OpenError};
pub use scalable::ScalableHabf;
pub use sharded::{ShardFilter, ShardedConfig, ShardedHabf};
pub use tenant::{InsertError, RebuildError, RebuildOutcome, TenantStats, TenantStore};
pub use tpjo::{BuildStats, TpjoConfig};

/// Upper bound on the supported chain length `k` (the paper evaluates
/// k ∈ [2, 10]; fixed-size scratch arrays use this cap).
pub const MAX_K: usize = 12;

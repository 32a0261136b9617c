//! Workload definitions and the seeded inputs each one runs on.
//!
//! Every key, cost and probe sequence comes from `habf-workloads`
//! (YCSB-schema keys, shuffled Zipf costs, Zipf rank sampling) driven by
//! the `--seed` argument; the server only ever sees these generated
//! inputs.

use habf_core::sharded::ShardedHabf;
use habf_core::{AdaptPolicy, BuildInput, DynFilter, FilterSpec, Habf, ScalableHabf, TenantStore};
use habf_hashing::{HashFamily, HashFunction};
use habf_serve::protocol::{self, frame_type};
use habf_util::Xoshiro256;
use habf_workloads::{CostAssignment, YcsbConfig, ZipfSampler};

/// Zipf skewness of the negative costs and of the probe draw over cost
/// rank (paper §V-C uses s = 1.0 as its middle setting).
const ZIPF_S: f64 = 1.0;
/// Bits per member key of every served filter.
const BITS_PER_KEY: f64 = 10.0;
/// Shard count of the query workloads' `sharded-habf` tenant.
const SHARDS: usize = 8;
/// Keys per `INSERT` frame of the mutation lane.
pub const INSERT_KEYS: usize = 16;
/// Events per `FEEDBACK` frame of the mutation lane.
pub const FEEDBACK_EVENTS: usize = 8;
/// `INSERT` + `FEEDBACK` pairs per mutation cycle (a `REBUILD` closes it).
pub const PAIRS_PER_CYCLE: usize = 100;
/// Hint cap of every `REBUILD`.
pub const MAX_HINTS: u32 = 4096;
/// Members of the growable companion tenant the query workloads mutate
/// after their query window.
const COMPANION_MEMBERS: usize = 65_536;
/// Mutation cycles the query workloads run against the companion.
const COMPANION_CYCLES: usize = 40;
/// Cycles of the traced run's stall phase (queries and mutations at once).
pub const STALL_CYCLES: usize = 3;
/// Never-inserted, never-costed negatives the unseen-key FPR is taken over.
const UNSEEN: usize = 200_000;

/// Which registry filter a tenant serves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// `sharded-habf` with [`SHARDS`] shards.
    Sharded,
    /// `scalable-habf` (growable; `INSERT` and fold-back `REBUILD`).
    Scalable,
}

impl Shape {
    pub fn id(self) -> &'static str {
        match self {
            Self::Sharded => "sharded-habf",
            Self::Scalable => "scalable-habf",
        }
    }
}

/// Where the mutation lane sends its `INSERT`/`FEEDBACK`/`REBUILD` cycles.
#[derive(Clone, Copy, Debug)]
pub enum MutationTarget {
    /// The queried tenant, concurrently with the query window.
    Main,
    /// A growable companion tenant of `members` keys, for `cycles` cycles
    /// after the query window, while the query lanes keep running.
    Companion { members: usize, cycles: usize },
}

/// One workload: the served tenant and the closed-loop traffic mix. The
/// server always runs one reactor worker: it assigns connections to
/// workers by file descriptor (`fd % workers`), so with more workers the
/// two query connections would share a worker in some runs and not in
/// others, and throughput would be bimodal.
#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub shape: Shape,
    pub members: usize,
    pub negatives: usize,
    /// Unseen negatives of the unseen-key FPR.
    pub unseen: usize,
    /// Query connections, all driven by one client thread.
    pub connections: usize,
    /// `QUERY` frames in flight per connection.
    pub depth: usize,
    /// Keys per `QUERY` frame.
    pub batch: usize,
    pub mutation: MutationTarget,
    /// Frames in the pre-encoded pool each connection cycles through.
    pub pool_frames: usize,
}

/// The benchmark's workloads, at full scale or (`smoke`) 1/64 scale.
pub fn specs(smoke: bool) -> Vec<Spec> {
    let s = |n: usize| if smoke { (n / 64).max(1024) } else { n };
    let companion = MutationTarget::Companion {
        members: s(COMPANION_MEMBERS),
        cycles: if smoke { 2 } else { COMPANION_CYCLES },
    };
    vec![
        Spec {
            name: "query-bulk",
            why: "4M-key sharded-habf (about 5 MB, past L2) under 512-key frames: \
                  probe hashing and cache-line fetches dominate",
            shape: Shape::Sharded,
            members: s(4_000_000),
            negatives: s(400_000),
            unseen: s(UNSEEN),
            connections: 2,
            depth: 4,
            batch: 512,
            mutation: companion,
            pool_frames: if smoke { 64 } else { 1024 },
        },
        Spec {
            name: "query-small",
            why: "65,536-key sharded-habf (about 80 KB, in L2) under 8-key frames: \
                  per-frame wire, decode, tenant and reply costs dominate",
            shape: Shape::Sharded,
            members: s(65_536),
            negatives: s(6_554),
            unseen: s(UNSEEN),
            connections: 2,
            depth: 16,
            batch: 8,
            mutation: companion,
            pool_frames: if smoke { 1024 } else { 16_384 },
        },
        Spec {
            name: "mutate-mix",
            why: "1M-key scalable-habf on one reactor worker: INSERT/FEEDBACK/REBUILD \
                  cycles share the event loop with 512-key queries",
            shape: Shape::Scalable,
            members: s(1_000_000),
            negatives: s(100_000),
            unseen: s(UNSEEN),
            connections: 1,
            depth: 4,
            batch: 512,
            mutation: MutationTarget::Main,
            pool_frames: if smoke { 64 } else { 1024 },
        },
    ]
}

/// The hash functions one probe of the served shape evaluates: a routing
/// hash (sharded only) and the round-1 functions `H0` of each group
/// (shard or tier).
#[derive(Clone, Debug)]
pub struct HashShape {
    pub splitter_seed: Option<u64>,
    pub groups: Vec<Vec<HashFunction>>,
}

/// A built tenant plus what the benchmark needs to check its answers.
pub struct Tenant {
    pub name: &'static str,
    pub shape: Shape,
    pub store: std::sync::Arc<TenantStore>,
    pub hashes: HashShape,
    /// Filter build seed.
    pub seed: u64,
}

/// Everything generated from the seed for one workload.
pub struct Inputs {
    pub members: Vec<Vec<u8>>,
    pub negatives: Vec<Vec<u8>>,
    pub costs: Vec<f64>,
    /// Negatives no build or mutation ever sees.
    pub unseen: Vec<Vec<u8>>,
    /// Fresh keys (disjoint from members and negatives) the mutation lane
    /// inserts, in order.
    pub fresh: Vec<Vec<u8>>,
    /// Members of the companion tenant, when the workload has one.
    pub companion_members: Vec<Vec<u8>>,
    /// The fixed `FEEDBACK` schedule of one mutation cycle: indices into
    /// `negatives`, `PAIRS_PER_CYCLE × FEEDBACK_EVENTS` long.
    pub feedback: Vec<usize>,
    /// Pre-encoded `QUERY` frames; slot `2i` holds a member, slot `2i+1`
    /// a costed negative drawn by Zipf over cost rank.
    pub frames: Vec<Vec<u8>>,
    /// Per frame, the probe keys as `(is_member, index)`.
    pub frame_keys: Vec<Vec<(bool, u32)>>,
}

impl Inputs {
    pub fn key(&self, (member, i): (bool, u32)) -> &[u8] {
        if member {
            &self.members[i as usize]
        } else {
            &self.negatives[i as usize]
        }
    }
}

/// Fresh keys a run can insert: enough for one mutation cycle per
/// 100 ms of the longest (60 s) window, plus the layer replays.
fn fresh_budget(spec: &Spec) -> usize {
    let cycles = match spec.mutation {
        MutationTarget::Main => 600,
        MutationTarget::Companion { cycles, .. } => cycles + STALL_CYCLES + 2,
    };
    cycles * PAIRS_PER_CYCLE * INSERT_KEYS + 64 * INSERT_KEYS
}

/// Generates the workload's keys, costs, mutation schedule and frames.
pub fn generate(spec: &Spec, seed: u64) -> Inputs {
    let companion = match spec.mutation {
        MutationTarget::Companion { members, .. } => members,
        MutationTarget::Main => 0,
    };
    let fresh_n = fresh_budget(spec);
    let need_neg = spec.negatives + fresh_n + companion + spec.unseen;
    let full = YcsbConfig::with_scale(1.0);
    let scale = (spec.members as f64 / full.n_positives() as f64)
        .max(need_neg as f64 / full.n_negatives() as f64)
        * 1.001;
    let data = YcsbConfig { scale, seed }.generate();
    let mut members = data.positives;
    members.truncate(spec.members);
    let mut rest = data.negatives;
    rest.truncate(need_neg);
    let unseen = rest.split_off(spec.negatives + fresh_n + companion);
    let companion_members = rest.split_off(spec.negatives + fresh_n);
    let fresh = rest.split_off(spec.negatives);
    let negatives = rest;

    let costs = CostAssignment::new(negatives.len(), ZIPF_S, seed).shuffle(0);
    // Rank 0 is the costliest negative; Zipf draws favour low ranks, so
    // hot costly misses dominate the probe and feedback traffic.
    let mut by_rank: Vec<u32> = (0..negatives.len() as u32).collect();
    by_rank.sort_by(|&a, &b| {
        costs[b as usize]
            .total_cmp(&costs[a as usize])
            .then(a.cmp(&b))
    });
    let zipf = ZipfSampler::new(negatives.len(), ZIPF_S);
    let mut rng = Xoshiro256::new(seed ^ 0x5052_4F42_4553_0001);

    let feedback = (0..PAIRS_PER_CYCLE * FEEDBACK_EVENTS)
        .map(|_| by_rank[zipf.sample(&mut rng)] as usize)
        .collect();

    let mut frames = Vec::with_capacity(spec.pool_frames);
    let mut frame_keys = Vec::with_capacity(spec.pool_frames);
    for _ in 0..spec.pool_frames {
        let slots: Vec<(bool, u32)> = (0..spec.batch)
            .map(|i| {
                if i % 2 == 0 {
                    (true, rng.next_index(members.len()) as u32)
                } else {
                    (false, by_rank[zipf.sample(&mut rng)])
                }
            })
            .collect();
        let keys: Vec<&[u8]> = slots
            .iter()
            .map(|&(m, i)| {
                if m {
                    members[i as usize].as_slice()
                } else {
                    negatives[i as usize].as_slice()
                }
            })
            .collect();
        frames.push(query_frame(MAIN_TENANT, &keys));
        frame_keys.push(slots);
    }
    Inputs {
        members,
        negatives,
        costs,
        unseen,
        fresh,
        companion_members,
        feedback,
        frames,
        frame_keys,
    }
}

/// The queried tenant's wire name.
pub const MAIN_TENANT: &str = "main";
/// The companion tenant's wire name.
pub const COMPANION_TENANT: &str = "ingest";

/// One complete `QUERY` frame (header + payload).
pub fn query_frame(tenant: &str, keys: &[&[u8]]) -> Vec<u8> {
    let mut frame = Vec::new();
    protocol::append_frame(
        &mut frame,
        frame_type::QUERY,
        &protocol::encode_query(tenant, keys),
    )
    .expect("a generated query frame is under the payload cap");
    frame
}

/// Builds a tenant through the same registry constructors
/// `FilterSpec::build` dispatches to, keeping the concrete filter long
/// enough to read the hash functions its probe evaluates.
pub fn build_tenant(
    name: &'static str,
    shape: Shape,
    members: &[Vec<u8>],
    costed: &[(&[u8], f64)],
    seed: u64,
    growable_members: bool,
) -> Tenant {
    let family = HashFamily::full();
    let h0 = |ids: &[u8]| {
        ids.iter()
            .map(|&id| family.function(id))
            .collect::<Vec<_>>()
    };
    let spec = match shape {
        Shape::Sharded => FilterSpec::sharded(SHARDS),
        Shape::Scalable => FilterSpec::scalable_habf(),
    }
    .bits_per_key(BITS_PER_KEY)
    .seed(seed);
    BuildInput::from_members(members)
        .with_costed_negatives(costed)
        .validate_costs()
        .expect("generated costs are finite and positive");
    let (filter, hashes): (Box<dyn DynFilter>, HashShape) = match shape {
        Shape::Sharded => {
            let f = ShardedHabf::<Habf>::build_par(
                members,
                costed,
                &spec.params().sharded_config(members.len()),
            );
            let hashes = HashShape {
                splitter_seed: Some(f.splitter_seed()),
                groups: (0..f.shard_count()).map(|i| h0(f.shard(i).h0())).collect(),
            };
            (Box::new(f), hashes)
        }
        Shape::Scalable => {
            let f = ScalableHabf::build(members, costed, &spec.params().habf_config(members.len()));
            let hashes = HashShape {
                splitter_seed: None,
                groups: (0..f.generations()).map(|i| h0(f.tier(i).h0())).collect(),
            };
            (Box::new(f), hashes)
        }
    };
    assert_eq!(filter.filter_id(), shape.id());
    // The policy never fires on its own: rebuilds happen only when the
    // mutation lane asks for them, so their count is the workload's.
    let mut store = TenantStore::new(name, filter, AdaptPolicy::cost_threshold(f64::MAX));
    if growable_members {
        store = store.with_members(members.to_vec());
    }
    Tenant {
        name,
        shape,
        store: std::sync::Arc::new(store),
        hashes,
        seed,
    }
}

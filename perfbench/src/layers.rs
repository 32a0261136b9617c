//! Per-layer attribution from outside the program: the traced run replays
//! the served frames in-process through the same public calls the server
//! path makes, and times each call from here. Nothing inside the program
//! is instrumented.
//!
//! Spans are kept in memory (frame id, span id, parent span) and written
//! out as JSON lines when the run ends. A layer's number is its self
//! time: the tenant span's probe child is timed on the same keys and
//! subtracted.

use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use habf_core::tenant::{DEFAULT_FP_DECAY, DEFAULT_FP_LOG_CAPACITY};
use habf_core::{registry, BuildInput, DynFilter, FpLog, TenantStore};
use habf_serve::protocol::{self, FrameAssembler, Request};
use habf_util::stats::percentile;

use crate::inputs::{HashShape, Inputs, Tenant, INSERT_KEYS, MAIN_TENANT, MAX_HINTS};

/// One timed call. `parent == u32::MAX` marks a root span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub frame: u64,
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn new(
        frame: u64,
        id: u32,
        parent: u32,
        name: &'static str,
        start_us: f64,
        end_us: f64,
    ) -> Self {
        Self {
            frame,
            id,
            parent,
            name,
            start_us,
            end_us,
        }
    }
}

/// Spans written per trace file at most; the rest stay summarized in the
/// metrics.
const MAX_WRITTEN_SPANS: usize = 50_000;

/// Writes spans as JSON lines.
///
/// # Errors
/// Propagates file-system errors.
pub fn write_spans(path: &Path, groups: &[(&str, &[Span])]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut written = 0;
    for (source, spans) in groups {
        for s in spans.iter().take(MAX_WRITTEN_SPANS.saturating_sub(written)) {
            writeln!(
                out,
                "{{\"source\":\"{source}\",\"frame\":{},\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.frame,
                s.id,
                if s.parent == u32::MAX { -1 } else { i64::from(s.parent) },
                s.name,
                s.start_us,
                s.end_us
            )?;
            written += 1;
        }
    }
    out.flush()
}

/// Answers `keys` the way `TenantStore::contains_batch` does: the batch
/// capability when the filter has one, the scalar loop otherwise.
pub fn probe(filter: &dyn DynFilter, keys: &[&[u8]]) -> Vec<bool> {
    match filter.as_batch() {
        Some(batch) => batch.contains_batch(keys),
        None => keys.iter().map(|k| filter.contains(k)).collect(),
    }
}

/// [`probe`] over `threads` workers.
fn probe_par(filter: &dyn DynFilter, keys: &[&[u8]], threads: usize) -> Vec<bool> {
    if let Some(batch) = filter.as_batch() {
        return batch.contains_batch_par(keys, threads);
    }
    let chunk = keys.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        let parts: Vec<_> = keys
            .chunks(chunk)
            .map(|part| s.spawn(move || probe(filter, part)))
            .collect();
        parts
            .into_iter()
            .flat_map(|h| h.join().expect("probe worker"))
            .collect()
    })
}

/// The round-1 hashes one probe of `shape` evaluates for `key`.
fn hash_key(shape: &HashShape, key: &[u8]) -> u64 {
    let mut acc = 0u64;
    let group = match shape.splitter_seed {
        Some(seed) => {
            let h = habf_hashing::xxhash::xxh64(key, seed);
            acc ^= h;
            Some((h % shape.groups.len() as u64) as usize)
        }
        None => None,
    };
    for (g, funcs) in shape.groups.iter().enumerate() {
        if group.is_some_and(|want| want != g) {
            continue;
        }
        for f in funcs {
            acc ^= f.hash(key);
        }
    }
    acc
}

/// Query-path layer numbers, per frame unless named per key.
pub struct QueryLayers {
    pub encode_query_ns: f64,
    pub parse_ns: f64,
    pub encode_answers_ns: f64,
    pub decode_answers_ns: f64,
    pub tenant_ns_per_key: f64,
    pub tenant_self_ns_per_frame: f64,
    pub probe_ns_per_key: f64,
    pub hashing_ns_per_key: f64,
    pub ceiling_keys_per_s: f64,
    /// Summed replay time per frame: encode + parse + tenant + reply
    /// encode + decode, microseconds.
    pub replay_us_per_frame: f64,
    pub spans: Vec<Span>,
}

/// Replays `frames` (pool indices) `passes` times through the protocol,
/// tenant, probe and hashing calls, and measures the probe ceiling over
/// the same keys on `threads` threads.
pub fn replay_queries(
    tenant: &Tenant,
    inputs: &Inputs,
    frames: &[usize],
    passes: usize,
    threads: usize,
) -> QueryLayers {
    let epoch = Instant::now();
    let us = |t: Instant| t.duration_since(epoch).as_secs_f64() * 1e6;
    let store: &TenantStore = &tenant.store;
    let snapshot = store.snapshot();
    let mut spans = Vec::new();
    let mut cols: [Vec<f64>; 7] = Default::default();
    let [enc, parse, tenant_ns, probe_ns, enc_ans, dec, hash] = &mut cols;
    let mut self_ns = Vec::new();
    for pass in 0..passes {
        for (n, &idx) in frames.iter().enumerate() {
            let frame_id = (pass * frames.len() + n) as u64;
            let keys: Vec<&[u8]> = inputs.frame_keys[idx]
                .iter()
                .map(|&s| inputs.key(s))
                .collect();
            let t0 = Instant::now();
            let bytes = crate::inputs::query_frame(MAIN_TENANT, &keys);
            let t1 = Instant::now();
            let mut asm = FrameAssembler::new();
            asm.feed(&bytes);
            let frame = asm
                .next_frame()
                .ok()
                .flatten()
                .expect("replayed frame decodes");
            let Ok(Request::Query { keys: owned, .. }) = Request::parse(&frame) else {
                panic!("replayed frame is a QUERY");
            };
            let slices: Vec<&[u8]> = owned.iter().map(Vec::as_slice).collect();
            let t2 = Instant::now();
            // Alternate which of the tenant call and its probe child runs
            // first, so neither always finds the other's cache lines.
            let (answers, probed, t3, t4, t5, t6);
            if pass % 2 == 0 {
                t3 = Instant::now();
                answers = store.contains_batch(&slices);
                t4 = Instant::now();
                probed = probe(&*snapshot, &slices);
                t6 = Instant::now();
                t5 = t4;
            } else {
                t5 = Instant::now();
                probed = probe(&*snapshot, &slices);
                t6 = Instant::now();
                answers = store.contains_batch(&slices);
                t4 = Instant::now();
                t3 = t6;
            }
            assert_eq!(
                answers, probed,
                "tenant and probe disagree on a replayed frame"
            );
            let t7 = Instant::now();
            let mut reply = Vec::new();
            protocol::append_answers_frame(&mut reply, &answers);
            let t8 = Instant::now();
            let decoded = protocol::read_frame(&mut reply.as_slice())
                .ok()
                .flatten()
                .and_then(|f| protocol::decode_answers(&f.payload).ok())
                .expect("replayed reply decodes");
            let t9 = Instant::now();
            assert_eq!(decoded, answers);
            let mut acc = 0u64;
            for key in &slices {
                acc ^= hash_key(&tenant.hashes, key);
            }
            std::hint::black_box(acc);
            let t10 = Instant::now();

            let ns = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64() * 1e9;
            enc.push(ns(t0, t1));
            parse.push(ns(t1, t2));
            tenant_ns.push(ns(t3, t4));
            probe_ns.push(ns(t5, t6));
            self_ns.push(ns(t3, t4) - ns(t5, t6));
            enc_ans.push(ns(t7, t8));
            dec.push(ns(t8, t9));
            hash.push(ns(t9, t10));
            let base = spans.len() as u32;
            spans.push(Span::new(
                frame_id,
                base,
                u32::MAX,
                "replay.frame",
                us(t0),
                us(t10),
            ));
            spans.push(Span::new(
                frame_id,
                base + 1,
                base,
                "protocol.encode_query",
                us(t0),
                us(t1),
            ));
            spans.push(Span::new(
                frame_id,
                base + 2,
                base,
                "protocol.parse",
                us(t1),
                us(t2),
            ));
            spans.push(Span::new(
                frame_id,
                base + 3,
                base,
                "tenant.contains_batch",
                us(t3),
                us(t4),
            ));
            spans.push(Span::new(
                frame_id,
                base + 4,
                base + 3,
                "probe.contains_batch",
                us(t5),
                us(t6),
            ));
            spans.push(Span::new(
                frame_id,
                base + 5,
                base,
                "protocol.encode_answers",
                us(t7),
                us(t8),
            ));
            spans.push(Span::new(
                frame_id,
                base + 6,
                base,
                "protocol.decode_answers",
                us(t8),
                us(t9),
            ));
            spans.push(Span::new(
                frame_id,
                base + 7,
                base,
                "hashing.round1",
                us(t9),
                us(t10),
            ));
        }
    }
    let batch = inputs.frame_keys[frames[0]].len() as f64;
    let med = |xs: &[f64]| percentile(xs, 50.0);

    let all_keys: Vec<&[u8]> = frames
        .iter()
        .flat_map(|&idx| inputs.frame_keys[idx].iter().map(|&s| inputs.key(s)))
        .collect();
    let mut rates = Vec::new();
    let started = Instant::now();
    while rates.len() < 5 || (started.elapsed().as_secs_f64() < 0.5 && rates.len() < 200) {
        let t = Instant::now();
        std::hint::black_box(probe_par(&*snapshot, &all_keys, threads));
        rates.push(all_keys.len() as f64 / t.elapsed().as_secs_f64());
    }

    let per_frame = [&*enc, &*parse, &*tenant_ns, &*enc_ans, &*dec];
    QueryLayers {
        encode_query_ns: med(enc),
        parse_ns: med(parse),
        encode_answers_ns: med(enc_ans),
        decode_answers_ns: med(dec),
        tenant_ns_per_key: med(tenant_ns) / batch,
        tenant_self_ns_per_frame: med(&self_ns),
        probe_ns_per_key: med(probe_ns) / batch,
        hashing_ns_per_key: med(hash) / batch,
        ceiling_keys_per_s: med(&rates),
        replay_us_per_frame: per_frame.iter().map(|c| med(c)).sum::<f64>() / 1e3,
        spans,
    }
}

/// Mutation-path layer numbers.
pub struct MutationLayers {
    pub to_container_bytes_us: f64,
    pub load_bytes_us: f64,
    pub insert_ns_per_key: f64,
    pub insert_keys_us: f64,
    pub record_fp_ns: f64,
    pub mine_hints_us: f64,
    pub rebuild_ms: f64,
    pub rebuild_now_ms: f64,
    pub spans: Vec<Span>,
}

/// Replays the steps `TenantStore::insert_keys` and `rebuild_now` take —
/// serialize the snapshot, load a private copy, insert / mine hints and
/// rebuild — on a private copy of the mutated tenant, then calls the two
/// tenant entry points directly. `members` is the tenant's member list;
/// `fresh` supplies never-inserted keys.
pub fn replay_mutations(
    store: &Arc<TenantStore>,
    members: &mut Vec<Vec<u8>>,
    fresh: &[Vec<u8>],
    inputs: &Inputs,
    rebuild_seed: u64,
) -> MutationLayers {
    const REPS: usize = 5;
    let epoch = Instant::now();
    let us = |t: Instant| t.duration_since(epoch).as_secs_f64() * 1e6;
    let mut spans = Vec::new();
    let mut span = |name: &'static str, a: Instant, b: Instant| {
        let id = spans.len() as u32;
        spans.push(Span::new(u64::from(id), id, u32::MAX, name, us(a), us(b)));
        b.duration_since(a).as_secs_f64()
    };
    let mut fresh = fresh.chunks_exact(INSERT_KEYS);
    let mut next_keys = || {
        fresh
            .next()
            .expect("fresh keys for the layer replay")
            .to_vec()
    };
    let med = |xs: &[f64]| percentile(xs, 50.0);

    // Each rep takes the steps one `insert_keys` takes — serialize the
    // current filter, load a private copy, insert — and the copy becomes
    // the next rep's current filter, as successive inserts chain.
    let mut current = store.snapshot().to_container_bytes();
    let (mut ser, mut load, mut ins) = (Vec::new(), Vec::new(), Vec::new());
    let mut bytes = Vec::new();
    for _ in 0..REPS {
        let loaded = registry::load_bytes(current)
            .expect("snapshot image reloads")
            .filter;
        let t0 = Instant::now();
        bytes = loaded.to_container_bytes();
        let t1 = Instant::now();
        ser.push(span("persist.to_container_bytes", t0, t1) * 1e6);
        let image = bytes.clone();
        let t2 = Instant::now();
        let mut copy = registry::load_bytes(image)
            .expect("snapshot image reloads")
            .filter;
        let t3 = Instant::now();
        load.push(span("registry.load_bytes", t2, t3) * 1e6);
        let keys = next_keys();
        let growable = copy.as_growable().expect("mutated tenants are growable");
        let t4 = Instant::now();
        for key in &keys {
            growable.insert(key);
        }
        let t5 = Instant::now();
        ins.push(span("growable.insert", t4, t5) * 1e9 / keys.len() as f64);
        current = copy.to_container_bytes();
    }

    let mut insert_keys = Vec::new();
    for _ in 0..REPS {
        let keys = next_keys();
        let t0 = Instant::now();
        store
            .insert_keys(&keys)
            .expect("growable tenant accepts inserts");
        let t1 = Instant::now();
        insert_keys.push(span("tenant.insert_keys", t0, t1) * 1e6);
        members.extend(keys);
    }

    let events: Vec<(&[u8], f64)> = inputs
        .feedback
        .iter()
        .map(|&i| (inputs.negatives[i].as_slice(), inputs.costs[i]))
        .collect();
    let (mut record, mut mine) = (Vec::new(), Vec::new());
    let mut hints = Vec::new();
    for _ in 0..REPS {
        let mut log = FpLog::new(DEFAULT_FP_LOG_CAPACITY, DEFAULT_FP_DECAY);
        let t0 = Instant::now();
        for (key, cost) in &events {
            log.record(key, *cost);
        }
        let t1 = Instant::now();
        record.push(span("adapt.record_fp", t0, t1) * 1e9 / events.len() as f64);
        let t2 = Instant::now();
        hints = log.mine_hints(MAX_HINTS as usize);
        let t3 = Instant::now();
        mine.push(span("adapt.mine_hints", t2, t3) * 1e6);
    }

    // A rebuild of a large tenant costs seconds; one sample is enough
    // there, small tenants take the median of three.
    let rebuild_reps = if members.len() > 200_000 { 1 } else { 3 };
    let (mut rebuild, mut rebuild_now) = (Vec::new(), Vec::new());
    for _ in 0..rebuild_reps {
        let mut copy = registry::load_bytes(bytes.clone())
            .expect("snapshot image reloads")
            .filter;
        let input = BuildInput::from_members(members.as_slice()).with_hints(&hints);
        let rebuildable = copy
            .as_rebuildable()
            .expect("mutated tenants are rebuildable");
        let t0 = Instant::now();
        rebuildable
            .rebuild(&input, rebuild_seed)
            .expect("replayed rebuild");
        let t1 = Instant::now();
        rebuild.push(span("rebuild.rebuild", t0, t1) * 1e3);
        let t2 = Instant::now();
        store
            .rebuild_now(rebuild_seed, MAX_HINTS as usize)
            .expect("tenant rebuild");
        let t3 = Instant::now();
        rebuild_now.push(span("tenant.rebuild_now", t2, t3) * 1e3);
    }

    MutationLayers {
        to_container_bytes_us: med(&ser),
        load_bytes_us: med(&load),
        insert_ns_per_key: med(&ins),
        insert_keys_us: med(&insert_keys),
        record_fp_ns: med(&record),
        mine_hints_us: med(&mine),
        rebuild_ms: med(&rebuild),
        rebuild_now_ms: med(&rebuild_now),
        spans,
    }
}

//! perfbench — the repository's end-to-end benchmark of the served filter.
//!
//! One process starts an in-process `habf_serve::Server` over
//! `TenantStore` tenants, drives it through `habf_serve::Client` in
//! closed loops, checks every answer it can, and ends with one JSON
//! result line. See `perfbench/README.md` for the workloads, the metrics
//! and the layer → end-to-end mapping.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload query-bulk --seed 1 --seconds 20 --trace 0
//! ```

mod inputs;
mod lanes;
mod layers;
mod report;

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use habf_serve::{Server, ServerConfig, ServerHandle, TenantTable};
use habf_util::stats::percentile;
use habf_workloads::metrics::weighted_fpr;

use inputs::{
    build_tenant, MutationTarget, Shape, Spec, Tenant, COMPANION_TENANT, MAIN_TENANT, STALL_CYCLES,
};
use lanes::{MutKind, MutOut, MutStop, QueryOut};
use report::{metric, Metric};

const USAGE: &str = "usage: perfbench --workload <query-bulk|query-small|mutate-mix|all> \
                     --seed <n> --seconds <s> --trace <0|1> [--smoke] [--corrupt-answer]";

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Seed of every `REBUILD` the mutation lane sends.
const REBUILD_SEED: u64 = 7;
/// Frames in flight during the verification sweeps.
const SWEEP_DEPTH: usize = 8;
/// Keys per verification sweep frame.
const SWEEP_BATCH: usize = 512;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    corrupt: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        smoke: false,
        corrupt: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--corrupt-answer" => args.corrupt = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let specs = inputs::specs(args.smoke);
    let chosen: Vec<&Spec> = specs
        .iter()
        .filter(|s| args.workload == "all" || s.name == args.workload)
        .collect();
    if chosen.is_empty() {
        eprintln!("perfbench: unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    }
    let provenance = report::provenance();
    let mut all_correct = true;
    for spec in chosen {
        let (correct, line) = run(spec, &args, &provenance);
        all_correct &= correct;
        println!("{line}");
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// A served workload: its inputs, tenants and running server.
struct Setup {
    inputs: inputs::Inputs,
    main: Tenant,
    companion: Option<Tenant>,
    server: ServerHandle,
}

fn setup(spec: &Spec, seed: u64) -> Setup {
    let inputs = inputs::generate(spec, seed);
    let costed: Vec<(&[u8], f64)> = inputs
        .negatives
        .iter()
        .map(Vec::as_slice)
        .zip(inputs.costs.iter().copied())
        .collect();
    let main = build_tenant(
        MAIN_TENANT,
        spec.shape,
        &inputs.members,
        &costed,
        seed,
        spec.shape == Shape::Scalable,
    );
    let companion = matches!(spec.mutation, MutationTarget::Companion { .. }).then(|| {
        build_tenant(
            COMPANION_TENANT,
            Shape::Scalable,
            &inputs.companion_members,
            &[],
            seed ^ 1,
            true,
        )
    });
    let tenants = Arc::new(TenantTable::new());
    tenants.add_shared(Arc::clone(&main.store));
    if let Some(c) = &companion {
        tenants.add_shared(Arc::clone(&c.store));
    }
    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", tenants, config)
        .expect("bind a loopback port")
        .spawn()
        .expect("start the server");
    lanes::connect(server.addr())
        .ping(b"ready")
        .expect("the server answers");
    Setup {
        inputs,
        main,
        companion,
        server,
    }
}

/// What one stretch of traffic produced.
struct Window {
    queries: Vec<QueryOut>,
    mutation: Option<MutOut>,
    start_us: f64,
    stop_us: f64,
}

impl Window {
    fn keys(&self) -> u64 {
        self.queries.iter().map(|q| q.keys).sum()
    }

    fn latencies_us(&self) -> Vec<f64> {
        self.queries
            .iter()
            .flat_map(|q| q.frames.iter().map(|(s, r)| r - s))
            .collect()
    }

    /// Keys answered per second, from the window's start to its last
    /// reply.
    fn keys_per_s(&self) -> f64 {
        let last = self
            .queries
            .iter()
            .filter_map(|q| q.frames.last().map(|f| f.1))
            .fold(self.stop_us, f64::max);
        self.keys() as f64 / ((last - self.start_us) / 1e6)
    }

    /// Mutation latencies of `kind`, for requests started before the stop.
    fn op_latencies(&self, kind: MutKind) -> Vec<f64> {
        self.mutation
            .iter()
            .flat_map(|m| &m.ops)
            .filter(|op| op.kind == kind && op.start_us <= self.stop_us)
            .map(|op| op.end_us - op.start_us)
            .collect()
    }

    /// p99 of frames in flight during an `INSERT` or `REBUILD`, over p99
    /// of frames that were not.
    fn stall_ratio(&self) -> f64 {
        let ops: Vec<(f64, f64)> = self
            .mutation
            .iter()
            .flat_map(|m| &m.ops)
            .filter(|op| op.kind != MutKind::Feedback)
            .map(|op| (op.start_us, op.end_us))
            .collect();
        let (mut during, mut clear) = (Vec::new(), Vec::new());
        for q in &self.queries {
            for &(sent, replied) in &q.frames {
                // Ops come from one closed-loop connection, so they are
                // disjoint and sorted: the last op that started before
                // the reply is the only one that can overlap the frame.
                let j = ops.partition_point(|&(start, _)| start < replied);
                let overlaps = j > 0 && ops[j - 1].1 > sent;
                if overlaps { &mut during } else { &mut clear }.push(replied - sent);
            }
        }
        pct(&during, 99.0) / pct(&clear, 99.0)
    }

    fn attempted(&self) -> u64 {
        self.queries.iter().map(|q| q.attempted).sum::<u64>()
            + self.mutation.as_ref().map_or(0, |m| m.attempted)
    }

    fn failed(&self) -> u64 {
        self.queries.iter().map(|q| q.failed).sum::<u64>()
            + self.mutation.as_ref().map_or(0, |m| m.failed)
    }

    fn inserted(&self) -> &[Vec<u8>] {
        self.mutation
            .as_ref()
            .map_or(&[], |m| m.inserted.as_slice())
    }

    fn summarize(&self, label: &str) {
        let lat = self.latencies_us();
        eprintln!(
            "  {label:<9} keys/s {:>11.0}  frame p50/p75/p90/p99 {:.1}/{:.1}/{:.1}/{:.1} us  \
             ({} frames)  insert p50 {:.1} us  rebuild p50 {:.2} ms",
            self.keys_per_s(),
            median(&lat),
            pct(&lat, 75.0),
            pct(&lat, 90.0),
            pct(&lat, 99.0),
            lat.len(),
            median(&self.op_latencies(MutKind::Insert)),
            median(&self.op_latencies(MutKind::Rebuild)) / 1e3,
        );
    }
}

/// Runs the query lanes for `duration`; on `mutate-mix` the mutation lane
/// runs against the queried tenant at the same time, finishing its cycle
/// after the stop.
fn query_window(
    spec: &Spec,
    setup: &Setup,
    fresh: &[Vec<u8>],
    epoch: Instant,
    duration: Duration,
    traced: bool,
    corrupt: bool,
) -> Window {
    let stop = AtomicBool::new(false);
    let start_us = lanes::micros(epoch);
    let mutate_main = matches!(spec.mutation, MutationTarget::Main);
    let (queries, mutation, stop_us) = std::thread::scope(|s| {
        // Room for 400k frames a second without regrowing the record.
        let reserve = (duration.as_secs_f64() * 400_000.0) as usize;
        let lane = spawn_query_lane(s, spec, setup, epoch, &stop, traced, corrupt, reserve);
        let mutator = mutate_main.then(|| {
            s.spawn(|| {
                lanes::mutation_lane(
                    setup.server.addr(),
                    MAIN_TENANT,
                    &setup.inputs,
                    fresh,
                    REBUILD_SEED,
                    epoch,
                    MutStop::AfterFlag(&stop),
                )
            })
        });
        std::thread::sleep(duration);
        let stop_us = lanes::micros(epoch);
        stop.store(true, Ordering::Relaxed);
        let queries = vec![lane.join().expect("query lane")];
        (
            queries,
            mutator.map(|h| h.join().expect("mutation lane")),
            stop_us,
        )
    });
    Window {
        queries,
        mutation,
        start_us,
        stop_us,
    }
}

/// The query workloads' mutation phase: `cycles` mutation cycles against
/// the companion tenant, alone or (`with_queries`) beside the query lanes.
fn companion_phase(
    spec: &Spec,
    setup: &Setup,
    companion: &Tenant,
    fresh: &[Vec<u8>],
    cycles: usize,
    with_queries: bool,
    epoch: Instant,
) -> Window {
    let stop = AtomicBool::new(false);
    let start_us = lanes::micros(epoch);
    let (queries, mutation, stop_us) = std::thread::scope(|s| {
        let lane =
            with_queries.then(|| spawn_query_lane(s, spec, setup, epoch, &stop, false, false, 0));
        let mutation = lanes::mutation_lane(
            setup.server.addr(),
            companion.name,
            &setup.inputs,
            fresh,
            REBUILD_SEED,
            epoch,
            MutStop::Cycles(cycles),
        );
        let stop_us = lanes::micros(epoch);
        stop.store(true, Ordering::Relaxed);
        let queries = lane
            .into_iter()
            .map(|h| h.join().expect("query lane"))
            .collect();
        (queries, Some(mutation), stop_us)
    });
    Window {
        queries,
        mutation,
        start_us,
        stop_us,
    }
}

/// Starts the query lane: one client thread driving every query
/// connection of the workload.
#[allow(clippy::too_many_arguments)]
fn spawn_query_lane<'s, 'e>(
    s: &'s std::thread::Scope<'s, 'e>,
    spec: &'e Spec,
    setup: &'e Setup,
    epoch: Instant,
    stop: &'e AtomicBool,
    traced: bool,
    corrupt: bool,
    reserve: usize,
) -> std::thread::ScopedJoinHandle<'s, QueryOut> {
    s.spawn(move || {
        lanes::query_lane(
            setup.server.addr(),
            &setup.inputs,
            spec.connections,
            spec.depth,
            epoch,
            stop,
            traced,
            corrupt,
            reserve,
        )
    })
}

fn stats_of(setup: &Setup, tenant: &str) -> String {
    lanes::connect(setup.server.addr())
        .stats(tenant)
        .expect("STATS answers")
}

/// Reads an unsigned field from a tenant's STATS JSON line.
fn stats_u64(stats: &str, field: &str) -> u64 {
    let pat = format!("\"{field}\":");
    stats
        .find(&pat)
        .map(|at| &stats[at + pat.len()..])
        .and_then(|rest| rest.split([',', '}']).next())
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("STATS has no numeric {field}: {stats}"))
}

/// The correctness gates and the filter-quality numbers.
struct Verdict {
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    weighted_fpr: f64,
    unseen_fpr: f64,
    bits_per_key: f64,
    lookups_ratio: f64,
    sampled_frames: usize,
}

/// Sweeps every member, every costed negative and every unseen negative
/// through the wire, then checks the gates: zero false negatives, sampled
/// frames bit-for-bit equal to the in-process filter, STATS lookups equal
/// to the keys sent, and the wire FPRs equal to the in-process ones.
fn verify(
    spec: &Spec,
    setup: &Setup,
    members: &[Vec<u8>],
    windows: &[&Window],
    lookups_base: u64,
) -> Verdict {
    let inputs = &setup.inputs;
    let mut problems = Vec::new();
    let before = stats_of(setup, MAIN_TENANT);
    // On `mutate-mix` every REBUILD resets the lookup window, so the
    // count is checked over the quiescent sweeps that follow the last one.
    let (base, mut keys_sent) = if matches!(spec.mutation, MutationTarget::Main) {
        (stats_u64(&before, "lookups"), 0)
    } else {
        (lookups_base, windows.iter().map(|w| w.keys()).sum())
    };

    let mut client = lanes::connect(setup.server.addr());
    let (mut attempted, mut failed) = (0, 0);
    let mut sweep = |keys: &[Vec<u8>]| {
        let keys: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        attempted += keys.len().div_ceil(SWEEP_BATCH) as u64;
        keys_sent += keys.len() as u64;
        match lanes::sweep(&mut client, MAIN_TENANT, &keys, SWEEP_BATCH, SWEEP_DEPTH) {
            Ok(answers) if answers.len() == keys.len() => Some(answers),
            _ => {
                failed += 1;
                None
            }
        }
    };
    let member_answers = sweep(members);
    let negative_answers = sweep(&inputs.negatives);
    let unseen_answers = sweep(&inputs.unseen);
    let after = stats_of(setup, MAIN_TENANT);

    let window_misses: u64 = windows
        .iter()
        .flat_map(|w| &w.queries)
        .map(|q| q.member_misses)
        .sum();
    if window_misses > 0 {
        problems.push(format!(
            "{window_misses} member slots answered false under load"
        ));
    }
    match &member_answers {
        Some(a) => {
            let misses = a.iter().filter(|&&hit| !hit).count();
            if misses > 0 {
                problems.push(format!("{misses} of {} members answered false", a.len()));
            }
        }
        None => problems.push("member sweep failed".into()),
    }

    let snapshot = setup.main.store.snapshot();
    let in_process = weighted_fpr(|k| snapshot.contains(k), &inputs.negatives, &inputs.costs);
    let wire_weighted = match &negative_answers {
        Some(a) => {
            let mut it = a.iter();
            let w = weighted_fpr(
                |_| *it.next().expect("one answer per negative"),
                &inputs.negatives,
                &inputs.costs,
            );
            if w != in_process {
                problems.push(format!("wire weighted FPR {w} != in-process {in_process}"));
            }
            w
        }
        None => {
            problems.push("costed-negative sweep failed".into());
            f64::NAN
        }
    };
    let unseen_in_process = inputs
        .unseen
        .iter()
        .filter(|k| snapshot.contains(k))
        .count();
    let unseen_fpr = match &unseen_answers {
        Some(a) => {
            let hits = a.iter().filter(|&&hit| hit).count();
            if hits != unseen_in_process {
                problems.push(format!(
                    "{hits} unseen negatives passed over the wire, {unseen_in_process} in-process"
                ));
            }
            hits as f64 / a.len() as f64
        }
        None => {
            problems.push("unseen-negative sweep failed".into());
            f64::NAN
        }
    };

    let lookups = stats_u64(&after, "lookups") - base;
    if lookups != keys_sent {
        problems.push(format!(
            "STATS counted {lookups} lookups for {keys_sent} keys sent"
        ));
    }

    // The query workloads never swap the queried tenant, so every sampled
    // frame was answered by the generation now serving.
    let mut sampled_frames = 0;
    if !matches!(spec.mutation, MutationTarget::Main) {
        if stats_u64(&after, "generation") != 0 {
            problems.push("the queried tenant changed generation".into());
        }
        for q in windows.iter().flat_map(|w| &w.queries) {
            for (idx, answers) in &q.sampled {
                let expected: Vec<bool> = inputs.frame_keys[*idx as usize]
                    .iter()
                    .map(|&s| snapshot.contains(inputs.key(s)))
                    .collect();
                if &expected != answers {
                    problems.push(format!(
                        "sampled frame {idx} differs from the in-process answers"
                    ));
                }
                sampled_frames += 1;
            }
        }
    }

    Verdict {
        problems,
        attempted,
        failed,
        weighted_fpr: wire_weighted,
        unseen_fpr,
        bits_per_key: stats_u64(&after, "space_bits") as f64 / members.len() as f64,
        lookups_ratio: lookups as f64 / keys_sent as f64,
        sampled_frames,
    }
}

/// The `p`-th percentile, NaN for an empty sample (a lane that failed
/// before its first reply).
fn pct(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        f64::NAN
    } else {
        percentile(xs, p)
    }
}

fn median(xs: &[f64]) -> f64 {
    pct(xs, 50.0)
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    eprintln!("  {title}:");
    for m in metrics {
        eprintln!("    {:<34} {:>18.6} {}", m.name, m.value, m.unit);
    }
}

/// Runs one workload and returns `(correct, result line)`.
fn run(spec: &Spec, args: &Args, provenance: &[(&str, String)]) -> (bool, String) {
    eprintln!(
        "perfbench: {} seed {} for {} s, trace {}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_times = Vec::with_capacity(reps);
    let mut state: Option<Setup> = None;
    for _ in 0..reps {
        if let Some(old) = state.take() {
            old.server.shutdown();
        }
        let t = Instant::now();
        state = Some(setup(spec, args.seed));
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let setup = state.expect("at least one set-up");
    eprintln!("  set-up    {setup_times:.3?} s");

    let epoch = Instant::now();
    let lookups_base = stats_u64(&stats_of(&setup, MAIN_TENANT), "lookups");
    let fresh = &setup.inputs.fresh;
    let mut fresh_used = 0;
    let seconds = Duration::from_secs_f64(args.seconds);
    let mut window = |duration, traced, corrupt| {
        let w = query_window(
            spec,
            &setup,
            &fresh[fresh_used..],
            epoch,
            duration,
            traced,
            corrupt,
        );
        fresh_used += w.inserted().len();
        w
    };
    let (untraced, traced) = if args.trace {
        let a = window(seconds / 2, false, args.corrupt);
        (a, Some(window(seconds / 2, true, false)))
    } else {
        (window(seconds, false, args.corrupt), None)
    };
    untraced.summarize("untraced");
    if let Some(t) = &traced {
        t.summarize("traced");
    }

    // On the query workloads the mutation metrics come from the companion
    // tenant: alone, and (traced runs) beside the query lanes for the
    // stall ratio.
    let (mut quiet, mut stall) = (None, None);
    if let (Some(companion), MutationTarget::Companion { cycles, .. }) =
        (&setup.companion, spec.mutation)
    {
        let mut phase = |cycles, with_queries| {
            let w = companion_phase(
                spec,
                &setup,
                companion,
                &fresh[fresh_used..],
                cycles,
                with_queries,
                epoch,
            );
            fresh_used += w.inserted().len();
            w
        };
        let q = phase(cycles, false);
        q.summarize("mutations");
        quiet = Some(q);
        if args.trace {
            let s = phase(STALL_CYCLES, true);
            s.summarize("stall");
            stall = Some(s);
        }
    }
    let mutating = quiet.as_ref().unwrap_or(&untraced);

    let mut members = setup.inputs.members.clone();
    if matches!(spec.mutation, MutationTarget::Main) {
        members.extend(untraced.inserted().iter().cloned());
        members.extend(traced.iter().flat_map(|t| t.inserted().iter().cloned()));
    }
    let windows: Vec<&Window> = [
        Some(&untraced),
        traced.as_ref(),
        quiet.as_ref(),
        stall.as_ref(),
    ]
    .into_iter()
    .flatten()
    .collect();
    let verdict = verify(spec, &setup, &members, &windows, lookups_base);
    let attempted = windows.iter().map(|w| w.attempted()).sum::<u64>() + verdict.attempted;
    let failed = windows.iter().map(|w| w.failed()).sum::<u64>() + verdict.failed;
    let mut problems = verdict.problems.clone();
    if failed > 0 {
        problems.push(format!(
            "{failed} of {attempted} requests failed or were refused"
        ));
    }

    let latencies = untraced.latencies_us();
    let inserts = mutating.op_latencies(MutKind::Insert);
    let rebuilds = mutating.op_latencies(MutKind::Rebuild);
    eprintln!(
        "  samples   frames {}  inserts {}  rebuilds {}  sampled frames checked {}",
        latencies.len(),
        inserts.len(),
        rebuilds.len(),
        verdict.sampled_frames
    );
    let e2e = vec![
        metric("keys_per_s", untraced.keys_per_s(), "keys/s"),
        metric("frame_p75_us", pct(&latencies, 75.0), "us"),
        metric("insert_p50_us", median(&inserts), "us"),
        metric("insert_mean_us", mean(&inserts), "us"),
        metric("rebuild_p50_ms", median(&rebuilds) / 1e3, "ms"),
        metric("unseen_fpr", verdict.unseen_fpr, "ratio"),
        metric("bits_per_key", verdict.bits_per_key, "bits"),
        metric("peak_rss_mb", report::peak_rss_mb(), "MiB"),
        metric("setup_s", median(&setup_times), "s"),
    ];

    let metrics = match &traced {
        Some(traced) => {
            print_metrics("end-to-end, untraced half", &e2e);
            let stall_window = stall.as_ref().unwrap_or(&untraced);
            per_layer(
                spec,
                &setup,
                &untraced,
                traced,
                stall_window,
                &verdict,
                members,
                fresh_used,
            )
        }
        None => e2e,
    };
    print_metrics(
        if args.trace {
            "per-layer"
        } else {
            "end-to-end"
        },
        &metrics,
    );
    println!("{}", provenance_line(spec, args, &setup, provenance));

    for p in &problems {
        eprintln!("  GATE FAILED: {p}");
    }
    setup.server.shutdown();
    let correct = problems.is_empty();
    (
        correct,
        report::result_line(correct, attempted, failed, &metrics),
    )
}

fn provenance_line(
    spec: &Spec,
    args: &Args,
    setup: &Setup,
    provenance: &[(&str, String)],
) -> String {
    let mutation = match spec.mutation {
        MutationTarget::Main => {
            "INSERT/FEEDBACK/REBUILD cycles on the queried tenant during the window".to_string()
        }
        MutationTarget::Companion { members, cycles } => format!(
            "{cycles} INSERT/FEEDBACK/REBUILD cycles on a {members}-key scalable-habf \
             companion after the window"
        ),
    };
    let params = [
        ("workload", spec.name.to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("filter_id", setup.main.shape.id().to_string()),
        (
            "filter_shape",
            format!(
                "{} members, 10 bits/key, {} costed negatives (Zipf 1.0){}",
                spec.members,
                spec.negatives,
                if spec.shape == Shape::Sharded {
                    ", 8 shards"
                } else {
                    ""
                }
            ),
        ),
        ("filter_seed", setup.main.seed.to_string()),
        (
            "traffic",
            format!(
                "{} connection(s) x {} frames in flight x {}-key QUERY frames, 1 reactor worker",
                spec.connections, spec.depth, spec.batch
            ),
        ),
        ("mutation", mutation),
        ("why", spec.why.to_string()),
    ];
    let fields: Vec<String> = provenance
        .iter()
        .map(|(k, v)| (*k, v.clone()))
        .chain(params)
        .map(|(k, v)| format!("{}: {}", report::json_str(k), report::json_str(&v)))
        .collect();
    format!("{{\"provenance\": {{{}}}}}", fields.join(", "))
}

/// The traced run's per-layer metrics: query replays on the queried
/// tenant, mutation replays on the tenant the mutation lane mutated.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    spec: &Spec,
    setup: &Setup,
    untraced: &Window,
    traced: &Window,
    stall_window: &Window,
    verdict: &Verdict,
    members: Vec<Vec<u8>>,
    fresh_used: usize,
) -> Vec<Metric> {
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let sample = if spec.batch >= 256 { 256 } else { 4096 };
    let frames: Vec<usize> = (0..sample.min(setup.inputs.frames.len())).collect();
    let q = layers::replay_queries(&setup.main, &setup.inputs, &frames, 4, threads);

    let (store, mut mutated_members) = match &setup.companion {
        Some(c) => {
            let mut all = setup.inputs.companion_members.clone();
            all.extend(setup.inputs.fresh[..fresh_used].iter().cloned());
            (Arc::clone(&c.store), all)
        }
        None => (Arc::clone(&setup.main.store), members),
    };
    let tenant_stats = stats_of(
        setup,
        if setup.companion.is_some() {
            COMPANION_TENANT
        } else {
            MAIN_TENANT
        },
    );
    let m = layers::replay_mutations(
        &store,
        &mut mutated_members,
        &setup.inputs.fresh[fresh_used..],
        &setup.inputs,
        REBUILD_SEED,
    );

    let spans_path = std::path::PathBuf::from(format!("perfbench/out/trace-{}.jsonl", spec.name));
    let client_spans: Vec<layers::Span> = traced
        .queries
        .iter()
        .flat_map(|q| q.spans.iter().copied())
        .collect();
    match layers::write_spans(
        &spans_path,
        &[
            ("replay.query", &q.spans),
            ("replay.mutation", &m.spans),
            ("client", &client_spans),
        ],
    ) {
        Ok(()) => eprintln!("  spans written to {}", spans_path.display()),
        Err(e) => eprintln!("  could not write spans to {}: {e}", spans_path.display()),
    }

    let untraced_kps = untraced.keys_per_s();
    vec![
        metric("protocol.encode_query_ns", q.encode_query_ns, "ns"),
        metric("protocol.parse_ns", q.parse_ns, "ns"),
        metric("protocol.encode_answers_ns", q.encode_answers_ns, "ns"),
        metric("protocol.decode_answers_ns", q.decode_answers_ns, "ns"),
        metric(
            "tenant.contains_batch_ns_per_key",
            q.tenant_ns_per_key,
            "ns",
        ),
        metric("tenant.self_ns_per_frame", q.tenant_self_ns_per_frame, "ns"),
        metric("probe.ns_per_key", q.probe_ns_per_key, "ns"),
        metric("probe.ceiling_keys_per_s", q.ceiling_keys_per_s, "keys/s"),
        metric("hashing.ns_per_key", q.hashing_ns_per_key, "ns"),
        metric(
            "wire.efficiency",
            untraced_kps / q.ceiling_keys_per_s,
            "ratio",
        ),
        metric(
            "wire.self_us_per_frame",
            median(&untraced.latencies_us()) - q.replay_us_per_frame,
            "us",
        ),
        metric("serve.lookups_ratio", verdict.lookups_ratio, "ratio"),
        metric(
            "persist.to_container_bytes_us",
            m.to_container_bytes_us,
            "us",
        ),
        metric("registry.load_bytes_us", m.load_bytes_us, "us"),
        metric("growable.insert_ns_per_key", m.insert_ns_per_key, "ns"),
        metric("tenant.insert_keys_us", m.insert_keys_us, "us"),
        metric("adapt.record_fp_ns", m.record_fp_ns, "ns"),
        metric("adapt.mine_hints_us", m.mine_hints_us, "us"),
        metric("rebuild.rebuild_ms", m.rebuild_ms, "ms"),
        metric("tenant.rebuild_now_ms", m.rebuild_now_ms, "ms"),
        metric("serve.stall_ratio", stall_window.stall_ratio(), "ratio"),
        metric(
            "tenant.tiers",
            stats_u64(&tenant_stats, "tiers") as f64,
            "count",
        ),
        metric(
            "tenant.generation",
            stats_u64(&tenant_stats, "generation") as f64,
            "count",
        ),
        metric("filter.weighted_fpr", verdict.weighted_fpr, "ratio"),
        metric(
            "trace_overhead",
            traced.keys_per_s() / untraced_kps,
            "ratio",
        ),
    ]
}

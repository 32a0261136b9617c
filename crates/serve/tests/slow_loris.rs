//! Slow-loris fairness: drip-fed connections must not stall fast ones.
//!
//! The reactor tolerates slow writers by design: a partial frame parks
//! in the connection's assembler buffer and costs nothing until its
//! bytes arrive, where one thread per connection would burn a thread
//! per victim. This test pins that property: 32 connections dripping a
//! valid `QUERY` frame one byte at a time while a fast client measures
//! per-request latency. The fast client's tail must stay bounded, and
//! the drippers must still be *served* (their queries complete once the
//! last byte lands) rather than dropped.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use habf_core::tenant::TenantStore;
use habf_core::{AdaptPolicy, BuildInput, FilterSpec};
use habf_serve::protocol::{self, frame_type};
use habf_serve::{Client, Server, ServerConfig, ServerHandle, TenantTable};

const DRIPPERS: usize = 32;

fn start() -> ServerHandle {
    let keys: Vec<Vec<u8>> = (0..400).map(|i| format!("user:{i}").into_bytes()).collect();
    let input = BuildInput::from_members(&keys);
    let filter = FilterSpec::habf()
        .bits_per_key(10.0)
        .build(&input)
        .expect("build");
    let tenants = Arc::new(TenantTable::new());
    tenants
        .add(TenantStore::new("t1", filter, AdaptPolicy::cost_threshold(50.0)).with_members(keys));
    let config = ServerConfig {
        max_connections: DRIPPERS + 8,
        ..ServerConfig::default()
    };
    Server::bind("127.0.0.1:0", tenants, config)
        .expect("bind")
        .spawn()
        .expect("spawn")
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

#[test]
fn drip_fed_connections_do_not_stall_a_fast_client() {
    let handle = start();
    let addr = handle.addr();
    let stop = Arc::new(AtomicBool::new(false));
    let completed = Arc::new(AtomicUsize::new(0));

    // A valid QUERY frame for two keys, dripped one byte at a time.
    let mut frame = Vec::new();
    protocol::write_frame(
        &mut frame,
        frame_type::QUERY,
        &protocol::encode_query("t1", &[b"user:1".as_slice(), b"ghost".as_slice()]),
    )
    .expect("encode");

    let drippers: Vec<_> = (0..DRIPPERS)
        .map(|_| {
            let stop = Arc::clone(&stop);
            let completed = Arc::clone(&completed);
            let frame = frame.clone();
            std::thread::spawn(move || {
                let Ok(mut conn) = TcpStream::connect(addr) else {
                    return;
                };
                let _ = conn.set_read_timeout(Some(Duration::from_secs(10)));
                let _ = conn.set_nodelay(true);
                'outer: while !stop.load(Ordering::Relaxed) {
                    for &byte in &frame {
                        if stop.load(Ordering::Relaxed) || conn.write_all(&[byte]).is_err() {
                            break 'outer;
                        }
                        std::thread::sleep(Duration::from_millis(3));
                    }
                    // Every completed drip must still be answered: slow
                    // is not an error, only *silent* is.
                    match protocol::read_frame(&mut conn) {
                        Ok(Some(reply)) if reply.kind == frame_type::ANSWERS => {
                            completed.fetch_add(1, Ordering::Relaxed);
                        }
                        _ => break 'outer,
                    }
                }
            })
        })
        .collect();

    // Let the drippers occupy the event loops mid-frame.
    std::thread::sleep(Duration::from_millis(150));

    let mut client = Client::connect(addr, Duration::from_secs(5)).expect("connect");
    let keys: Vec<Vec<u8>> = (0..64).map(|i| format!("user:{i}").into_bytes()).collect();
    let mut latencies = Vec::with_capacity(300);
    for _ in 0..300 {
        let t0 = Instant::now();
        let answers = client.query("t1", &keys).expect("query");
        latencies.push(t0.elapsed());
        assert!(
            answers.iter().all(|&b| b),
            "member dropped under loris load"
        );
    }
    latencies.sort_unstable();
    let p50 = percentile(&latencies, 0.50);
    let p99 = percentile(&latencies, 0.99);
    assert!(
        p99 < Duration::from_millis(250),
        "fast client stalled behind drip-feeders: p50={p50:?} p99={p99:?}"
    );

    // Slow must still mean served: wait (bounded) for every dripper to
    // have completed at least one full query round trip.
    let deadline = Instant::now() + Duration::from_secs(10);
    while completed.load(Ordering::Relaxed) < DRIPPERS && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    stop.store(true, Ordering::Relaxed);
    for join in drippers {
        join.join().expect("dripper");
    }
    assert!(
        completed.load(Ordering::Relaxed) >= DRIPPERS,
        "drip-fed queries were dropped instead of served"
    );
    handle.shutdown();
}

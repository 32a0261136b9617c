//! Serve-layer load bench: wire QPS and request latency of the
//! multi-tenant filter server under concurrent batched-query clients.
//!
//! One in-process server hosts a sharded tenant; for each connection
//! count, that many client threads each open a socket and drive
//! pre-encoded `QUERY` frames of `batch` keys through a depth-windowed
//! pipeline (`depth` frames in flight), stamping every request at send
//! time and measuring its wall-time latency when its reply drains. The
//! suite reports per-connection-count QPS (request frames per second),
//! probe throughput (keys per second), and p50/p99/p999 request latency
//! — the serving-layer analogue of the probe suite's Mops figures, with
//! the protocol codec, socket, and tenant routing on the measured path.
//! Frames are encoded before the clock starts so the client's encode
//! cost is not billed to the server.
//!
//! The `netserve` binary writes `BENCH_serve.json`, uploaded by CI as
//! the serve-trajectory artifact, with the commit, `nproc` and rustc
//! that produced it.

use std::collections::VecDeque;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use crate::report::Table;
use habf_core::tenant::TenantStore;
use habf_core::{AdaptPolicy, BuildInput, FilterSpec};
use habf_serve::protocol::{self, frame_type};
use habf_serve::{Client, Server, ServerConfig, TenantTable};
use habf_util::stats::percentile;

/// One connection count's measured load figures.
#[derive(Clone, Debug)]
pub struct ServeRow {
    /// Concurrent client connections.
    pub connections: usize,
    /// Total query frames answered across all connections.
    pub requests: usize,
    /// Query frames answered per second (all connections combined).
    pub qps: f64,
    /// Keys probed per second, millions.
    pub keys_mops: f64,
    /// Median request→reply latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile request→reply latency, microseconds.
    pub p99_us: f64,
    /// 99.9th-percentile request→reply latency, microseconds.
    pub p999_us: f64,
}

/// Outcome of one serve-load run.
#[derive(Clone, Debug)]
pub struct ServeResult {
    /// Member keys in the served tenant.
    pub keys: usize,
    /// Keys per query frame.
    pub batch: usize,
    /// Query frames each connection sends.
    pub requests_per_connection: usize,
    /// Frames in flight per connection.
    pub depth: usize,
    /// One row per measured connection count.
    pub rows: Vec<ServeRow>,
}

impl ServeResult {
    /// Best combined QPS across the connection counts.
    #[must_use]
    pub fn best_qps(&self) -> f64 {
        self.rows.iter().map(|r| r.qps).fold(0.0, f64::max)
    }

    /// The printed comparison table.
    #[must_use]
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Filter server: batched-query load vs connection count",
            &[
                "conns",
                "requests",
                "QPS",
                "keys Mops",
                "p50 us",
                "p99 us",
                "p999 us",
            ],
        );
        for r in &self.rows {
            t.row(&[
                format!("{}", r.connections),
                format!("{}", r.requests),
                format!("{:.0}", r.qps),
                format!("{:.2}", r.keys_mops),
                format!("{:.0}", r.p50_us),
                format!("{:.0}", r.p99_us),
                format!("{:.0}", r.p999_us),
            ]);
        }
        t
    }

    /// The `BENCH_serve.json` summary CI archives as an artifact,
    /// stamped with the commit, `nproc` and rustc it was measured on.
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut rows = String::new();
        for (i, r) in self.rows.iter().enumerate() {
            let _ = write!(
                rows,
                "{}{{\"connections\":{},\
                 \"requests\":{},\
                 \"qps\":{:.1},\
                 \"keys_mops\":{:.3},\
                 \"p50_us\":{:.1},\
                 \"p99_us\":{:.1},\
                 \"p999_us\":{:.1}}}",
                if i == 0 { "" } else { "," },
                r.connections,
                r.requests,
                r.qps,
                r.keys_mops,
                r.p50_us,
                r.p99_us,
                r.p999_us,
            );
        }
        format!(
            "{{\"suite\":\"serve\",\
             {}\
             \"keys\":{},\
             \"batch\":{},\
             \"requests_per_connection\":{},\
             \"depth\":{},\
             \"best_qps\":{:.1},\
             \"rows\":[{rows}]}}",
            crate::report::provenance_json(),
            self.keys,
            self.batch,
            self.requests_per_connection,
            self.depth,
            self.best_qps(),
        )
    }
}

/// Runs the serve-load sweep: one tenant of `keys` members at 10
/// bits/key behind a loopback server, probed by each count in
/// `connection_counts`, with
/// `requests_per_connection` pre-encoded frames of `batch` keys (half
/// members, half fresh, per-connection phase shift so connections
/// don't probe in lockstep) pipelined `depth` deep.
///
/// # Panics
/// Panics on server/client failures or an answer that drops a member —
/// harness errors, not measurements.
#[must_use]
pub fn run_netserve(
    keys: usize,
    batch: usize,
    requests_per_connection: usize,
    depth: usize,
    connection_counts: &[usize],
    seed: u64,
) -> ServeResult {
    let members: Arc<Vec<Vec<u8>>> = Arc::new(
        (0..keys)
            .map(|i| format!("key:{i:012}").into_bytes())
            .collect(),
    );
    let input = BuildInput::from_members(&members);
    let filter = FilterSpec::sharded(8)
        .bits_per_key(10.0)
        .seed(seed)
        .build(&input)
        .expect("serve bench filter builds");
    let tenants = Arc::new(TenantTable::new());
    tenants.add(TenantStore::new(
        "bench",
        filter,
        AdaptPolicy::cost_threshold(f64::MAX),
    ));
    let depth = depth.max(1);

    let config = ServerConfig {
        max_connections: connection_counts.iter().copied().max().unwrap_or(1) + 4,
        ..ServerConfig::default()
    };
    let handle = Server::bind("127.0.0.1:0", tenants, config)
        .expect("bind")
        .spawn()
        .expect("spawn");
    let addr = handle.addr();

    let mut rows = Vec::new();
    for &connections in connection_counts {
        // All clients encode their frames, then release together so
        // the measured window contains only wire traffic.
        let gate = Arc::new(Barrier::new(connections + 1));
        let workers: Vec<_> = (0..connections)
            .map(|conn| {
                let members = Arc::clone(&members);
                let gate = Arc::clone(&gate);
                std::thread::spawn(move || {
                    let mut client =
                        Client::connect(addr, Duration::from_secs(30)).expect("connect");
                    let frames: Vec<Vec<u8>> = (0..requests_per_connection)
                        .map(|req| {
                            let base = conn * 7919 + req * batch;
                            let probe: Vec<Vec<u8>> = (0..batch)
                                .map(|i| {
                                    if i % 2 == 0 {
                                        members[(base + i) % members.len()].clone()
                                    } else {
                                        format!("fresh:{conn}:{req}:{i}").into_bytes()
                                    }
                                })
                                .collect();
                            let mut frame = Vec::new();
                            protocol::write_frame(
                                &mut frame,
                                frame_type::QUERY,
                                &protocol::encode_query("bench", &probe),
                            )
                            .expect("encode");
                            frame
                        })
                        .collect();
                    gate.wait();

                    let mut latencies_us = Vec::with_capacity(requests_per_connection);
                    let mut in_flight: VecDeque<Instant> = VecDeque::with_capacity(depth);
                    let mut next = 0;
                    while latencies_us.len() < requests_per_connection {
                        while next < frames.len() && in_flight.len() < depth {
                            client.send_raw(&frames[next]).expect("send");
                            in_flight.push_back(Instant::now());
                            next += 1;
                        }
                        client.flush().expect("flush");
                        let answers = client.recv_answers().expect("answers");
                        let sent = in_flight.pop_front().expect("in flight");
                        latencies_us.push(sent.elapsed().as_secs_f64() * 1e6);
                        // Members sit at even probe slots; a false
                        // negative here is a serving bug.
                        assert_eq!(answers.len(), batch, "answer count mismatch");
                        assert!(
                            answers.iter().step_by(2).all(|&b| b),
                            "member dropped over the wire"
                        );
                    }
                    latencies_us
                })
            })
            .collect();
        gate.wait();
        let started = Instant::now();
        let mut latencies: Vec<f64> = Vec::new();
        for worker in workers {
            latencies.extend(worker.join().expect("client thread"));
        }
        let elapsed = started.elapsed().as_secs_f64().max(1e-9);
        let requests = connections * requests_per_connection;
        rows.push(ServeRow {
            connections,
            requests,
            qps: requests as f64 / elapsed,
            keys_mops: (requests * batch) as f64 / elapsed / 1e6,
            p50_us: percentile(&latencies, 50.0),
            p99_us: percentile(&latencies, 99.0),
            p999_us: percentile(&latencies, 99.9),
        });
    }
    handle.shutdown();

    ServeResult {
        keys,
        batch,
        requests_per_connection,
        depth,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_runs_one_sweep_over_three_connection_counts() {
        let r = run_netserve(5_000, 64, 20, 4, &[1, 2, 4], 7);
        assert_eq!(r.rows.len(), 3);
        for row in &r.rows {
            assert_eq!(row.requests, row.connections * 20);
            assert!(row.qps > 0.0 && row.keys_mops > 0.0, "{row:?}");
            assert!(row.p50_us > 0.0 && row.p99_us >= row.p50_us, "{row:?}");
            assert!(row.p999_us >= row.p99_us, "{row:?}");
        }
        assert!(r.best_qps() > 0.0);

        let json = r.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches("\"connections\":").count(), 3, "{json}");
        for key in [
            "\"suite\":\"serve\"",
            "\"commit\":\"",
            "\"nproc\":\"",
            "\"rustc\":\"",
            "\"best_qps\":",
            "\"depth\":4",
            "\"rows\":[",
            "\"connections\":4",
            "\"p99_us\":",
            "\"p999_us\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(!json.contains("\"model"), "a serving-model key in {json}");
        assert!(!json.contains(",}"), "trailing comma in {json}");
        assert!(r.table().render().contains("p999 us"));
    }
}

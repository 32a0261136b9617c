//! End-to-end server tests over real sockets: query/feedback/stats/
//! rebuild round trips, typed error replies, pipelining, the bounded
//! connection limit, and the read-timeout guard against half-sent
//! frames.

use std::sync::Arc;
use std::time::Duration;

use habf_core::tenant::TenantStore;
use habf_core::{AdaptPolicy, BuildInput, FilterSpec};
use habf_serve::protocol::{self, error_code, frame_type};
use habf_serve::{Client, Server, ServerConfig, ServerHandle, TenantTable, WireError};

fn members(n: usize) -> Vec<Vec<u8>> {
    (0..n).map(|i| format!("user:{i}").into_bytes()).collect()
}

fn tenant(name: &str, n: usize) -> TenantStore {
    let keys = members(n);
    let input = BuildInput::from_members(&keys);
    let filter = FilterSpec::habf()
        .bits_per_key(10.0)
        .build(&input)
        .expect("build");
    TenantStore::new(name, filter, AdaptPolicy::cost_threshold(50.0)).with_members(keys)
}

fn start(config: ServerConfig, stores: Vec<TenantStore>) -> ServerHandle {
    let tenants = Arc::new(TenantTable::new());
    for store in stores {
        tenants.add(store);
    }
    Server::bind("127.0.0.1:0", tenants, config)
        .expect("bind")
        .spawn()
        .expect("spawn")
}

fn connect(handle: &ServerHandle) -> Client {
    Client::connect(handle.addr(), Duration::from_secs(5)).expect("connect")
}

#[test]
fn query_feedback_stats_round_trip_on_one_connection() {
    let handle = start(ServerConfig::default(), vec![tenant("t1", 800)]);
    let mut client = connect(&handle);

    client.ping(b"hello").expect("ping");

    // Members all answer true (zero FN over the wire); fresh keys are
    // answered in order alongside them.
    let mut probe = members(800);
    probe.extend((0..200).map(|i| format!("ghost:{i}").into_bytes()));
    let answers = client.query("t1", &probe).expect("query");
    assert_eq!(answers.len(), probe.len());
    assert!(
        answers[..800].iter().all(|&b| b),
        "member dropped over the wire"
    );

    // Pipelined chunks give byte-identical answers.
    let pipelined = client.query_pipelined("t1", &probe, 64).expect("pipelined");
    assert_eq!(pipelined, answers);

    let accepted = client
        .feedback(
            "t1",
            &[(b"ghost:0".to_vec(), 3.0), (b"ghost:1".to_vec(), 2.0)],
        )
        .expect("feedback");
    assert_eq!(accepted, 2);

    let stats = client.stats("t1").expect("stats");
    assert!(stats.contains("\"filter_id\":\"habf\""), "{stats}");
    assert!(stats.contains("\"fp_events\":2"), "{stats}");
    assert!(stats.contains("\"generation\":0"), "{stats}");
    assert!(stats.contains("\"saturation\":"), "{stats}");
    assert!(stats.contains("\"tiers\":1"), "{stats}");
    assert!(stats.contains("\"rebuild_kind\":null"), "{stats}");

    handle.shutdown();
}

#[test]
fn insert_grows_a_scalable_tenant_over_the_wire() {
    let keys = members(64);
    let input = BuildInput::from_members(&keys);
    let filter = FilterSpec::scalable_habf()
        .bits_per_key(10.0)
        .build(&input)
        .expect("build");
    let store =
        TenantStore::new("elastic", filter, AdaptPolicy::cost_threshold(50.0)).with_members(keys);
    let handle = start(ServerConfig::default(), vec![store, tenant("fixed", 64)]);
    let mut client = connect(&handle);

    let burst: Vec<Vec<u8>> = (0..512).map(|i| format!("late:{i}").into_bytes()).collect();
    let (accepted, tiers, saturation) = client.insert("elastic", &burst).expect("insert");
    assert_eq!(accepted, 512);
    assert!(tiers > 1, "burst past capacity should open new tiers");
    assert!(saturation.is_finite());

    // Everything inserted (and everything original) answers true.
    let mut probe = members(64);
    probe.extend(burst);
    let answers = client.query("elastic", &probe).expect("query");
    assert!(answers.iter().all(|&b| b), "insert dropped a key");

    // Stats surface the grown stack; an insert is not a rebuild.
    let stats = client.stats("elastic").expect("stats");
    assert!(stats.contains("\"generation\":0"), "{stats}");
    assert!(stats.contains(&format!("\"tiers\":{tiers}")), "{stats}");

    // A rebuild folds the stack back to one tier and records why.
    let (_, generation) = client.rebuild("elastic", 9, 256).expect("rebuild");
    assert_eq!(generation, 1);
    let stats = client.stats("elastic").expect("stats");
    assert!(stats.contains("\"tiers\":1"), "{stats}");
    assert!(stats.contains("\"rebuild_kind\":\"compact\""), "{stats}");

    // A fixed-capacity tenant refuses the same insert, typed, and the
    // connection keeps serving.
    let err = client
        .insert("fixed", &[b"k".to_vec()])
        .expect_err("habf cannot grow");
    match err {
        WireError::Server { code, message } => {
            assert_eq!(code, error_code::NOT_GROWABLE);
            assert!(message.contains("habf"), "{message}");
        }
        other => panic!("want Server error, got {other:?}"),
    }
    client.ping(b"still-serving").expect("ping");

    handle.shutdown();
}

#[test]
fn unknown_tenant_and_unknown_type_are_typed_replies_on_a_live_connection() {
    let handle = start(ServerConfig::default(), vec![tenant("t1", 200)]);
    let mut client = connect(&handle);

    let err = client
        .query("nope", &[b"k".to_vec()])
        .expect_err("unknown tenant");
    match err {
        WireError::Server { code, message } => {
            assert_eq!(code, error_code::UNKNOWN_TENANT);
            assert!(message.contains("nope"), "{message}");
        }
        other => panic!("want Server error, got {other:?}"),
    }

    // The connection survived the error frame: a well-formed request
    // right after it still answers.
    client.ping(b"still-alive").expect("ping after error");

    // A reply-typed (unknown) request type is a typed error too.
    let mut raw = std::net::TcpStream::connect(handle.addr()).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    protocol::write_frame(&mut raw, 0x42, b"").expect("write");
    let reply = protocol::read_frame(&mut raw)
        .expect("read")
        .expect("frame");
    assert_eq!(reply.kind, frame_type::ERROR);
    let (code, _) = protocol::decode_error(&reply.payload).expect("decode");
    assert_eq!(code, error_code::UNKNOWN_TYPE);

    handle.shutdown();
}

#[test]
fn rebuild_over_the_wire_swaps_generations_and_keeps_members() {
    let handle = start(ServerConfig::default(), vec![tenant("t1", 600)]);
    let mut client = connect(&handle);

    for i in 0..64 {
        let key = format!("hot:{}", i % 4).into_bytes();
        client.feedback("t1", &[(key, 2.0)]).expect("feedback");
    }
    assert!(client
        .stats("t1")
        .expect("stats")
        .contains("\"wants_rebuild\":true"));

    let (hints, generation) = client.rebuild("t1", 7, 1024).expect("rebuild");
    assert!(hints >= 1, "no hints mined");
    assert_eq!(generation, 1);

    let answers = client.query("t1", &members(600)).expect("query");
    assert!(answers.iter().all(|&b| b), "rebuild dropped a member");
    assert!(client
        .stats("t1")
        .expect("stats")
        .contains("\"generation\":1"));

    // A tenant without a positive set refuses the rebuild, typed.
    let no_members = {
        let keys = members(100);
        let input = BuildInput::from_members(&keys);
        let filter = FilterSpec::habf()
            .bits_per_key(10.0)
            .build(&input)
            .expect("build");
        TenantStore::new("frozen", filter, AdaptPolicy::cost_threshold(1.0))
    };
    let handle2 = start(ServerConfig::default(), vec![no_members]);
    let mut client2 = connect(&handle2);
    let err = client2.rebuild("frozen", 0, 16).expect_err("must refuse");
    match err {
        WireError::Server { code, .. } => assert_eq!(code, error_code::REBUILD_FAILED),
        other => panic!("want Server error, got {other:?}"),
    }

    handle.shutdown();
    handle2.shutdown();
}

#[test]
fn connection_limit_answers_busy_with_a_retry_hint_instead_of_queueing() {
    let config = ServerConfig {
        max_connections: 1,
        busy_retry_ms: 40,
        ..ServerConfig::default()
    };
    let handle = start(config, vec![tenant("t1", 100)]);

    // Occupy the single slot (the ping reply proves the connection
    // is registered and counted).
    let mut first = connect(&handle);
    first.ping(b"slot").expect("ping");

    // Raw socket: the refusal carries the typed BUSY code plus the
    // configured retry-after hint byte.
    let mut second = std::net::TcpStream::connect(handle.addr()).expect("connect");
    second
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let reply = protocol::read_frame(&mut second)
        .expect("read")
        .expect("frame");
    assert_eq!(reply.kind, frame_type::ERROR);
    let parts = protocol::decode_error_parts(&reply.payload).expect("decode");
    assert_eq!(parts.code, error_code::BUSY);
    assert_eq!(parts.retry_after_ms, Some(40));
    drop(second);

    // Client surface: the same refusal decodes to the typed Busy error.
    // (Read the unsolicited refusal frame directly — the server may
    // close the socket before a request write would land.)
    let mut third = connect(&handle);
    match third.recv_answers() {
        Err(WireError::Busy {
            retry_after_ms,
            message,
        }) => {
            assert_eq!(retry_after_ms, 40);
            assert!(message.contains("connection limit"), "{message}");
        }
        other => panic!("want Busy error, got {other:?}"),
    }

    handle.shutdown();
}

/// Regression: the reactor assigned connections to workers by
/// `fd % workers`. Client and server sockets in one process alternate fd
/// parity, so almost every connection landed on one worker, which
/// refused the 6th of 8 allowed connections. Round-robin assignment
/// admits every connection up to the global limit.
#[test]
fn reactor_admits_sequential_connections_up_to_the_limit() {
    let config = ServerConfig {
        max_connections: 8,
        workers: 2,
        ..ServerConfig::default()
    };
    let handle = start(config, vec![tenant("t1", 100)]);
    let mut clients = Vec::new();
    for i in 0..8 {
        let mut client = connect(&handle);
        client
            .ping(format!("conn:{i}").as_bytes())
            .unwrap_or_else(|e| panic!("connection {i} of 8 refused: {e:?}"));
        clients.push(client);
    }
    // The ninth is over the global limit.
    let mut ninth = connect(&handle);
    assert!(
        matches!(ninth.recv_answers(), Err(WireError::Busy { .. })),
        "a ninth connection must be refused"
    );
    handle.shutdown();
}

/// Regression: `put_bytes` wrote a field's length as `len as u16`, so a
/// 65,539-byte key went out with a length prefix of 3. A release build
/// drew `BAD_FRAME` "trailing bytes after payload" from the server; a
/// debug build panicked in the client. The client now refuses the field
/// before writing a byte, and the same connection keeps serving.
#[test]
fn over_long_key_is_refused_before_a_byte_is_sent() {
    let handle = start(ServerConfig::default(), vec![tenant("t1", 100)]);
    let mut client = connect(&handle);

    let long_key = vec![b'k'; usize::from(u16::MAX) + 4];
    let keys = [b"user:1".to_vec(), long_key];
    let long_tenant = "t".repeat(usize::from(u16::MAX) + 1);
    let refusals = [
        client.query("t1", &keys).map(drop),
        client.query_pipelined("t1", &keys, 1).map(drop),
        client.insert("t1", &keys).map(drop),
        client.feedback("t1", &[(keys[1].clone(), 1.0)]).map(drop),
        client.stats(&long_tenant).map(drop),
    ];
    for (i, refusal) in refusals.into_iter().enumerate() {
        assert!(
            matches!(refusal, Err(WireError::BadPayload(_))),
            "call {i}: want a client-side BadPayload, got {refusal:?}"
        );
    }

    client.ping(b"still-usable").expect("ping after refusal");
    // Nothing reached the tenant: no lookup, no feedback event.
    let stats = client.stats("t1").expect("stats");
    assert!(stats.contains("\"lookups\":0"), "{stats}");
    assert!(stats.contains("\"fp_events\":0"), "{stats}");
    handle.shutdown();
}

#[test]
fn coalesced_cross_connection_queries_answer_in_order_per_connection() {
    // Many clients hammering the same tenant in the same wakeups: the
    // reactor merges their QUERY frames into shared batch probes, and
    // every client must still see its own answers, in its own order.
    let handle = start(ServerConfig::default(), vec![tenant("t1", 500)]);
    let addr = handle.addr();
    let threads: Vec<_> = (0..8)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr, Duration::from_secs(10)).expect("connect");
                for round in 0..20 {
                    // Distinct per-thread slices so a cross-wired answer
                    // bitset cannot go unnoticed.
                    let lo = (t * 37 + round * 11) % 400;
                    let mut probe: Vec<Vec<u8>> = (lo..lo + 64)
                        .map(|i| format!("user:{i}").into_bytes())
                        .collect();
                    probe.push(format!("ghost:{t}:{round}").into_bytes());
                    let answers = client.query("t1", &probe).expect("query");
                    assert_eq!(answers.len(), probe.len());
                    assert!(
                        answers[..64].iter().all(|&b| b),
                        "thread {t} round {round}: member dropped (coalescing cross-wired answers?)"
                    );
                }
            })
        })
        .collect();
    for join in threads {
        join.join().expect("worker");
    }
    handle.shutdown();
}

#[test]
fn shutdown_frame_is_refused_by_default_and_stops_an_opted_in_server() {
    // Default config: the frame is a typed refusal, the server lives on.
    let handle = start(ServerConfig::default(), vec![tenant("t1", 100)]);
    let mut client = connect(&handle);
    let err = client.shutdown().expect_err("must refuse");
    match err {
        WireError::Server { code, .. } => assert_eq!(code, error_code::SHUTDOWN_REFUSED),
        other => panic!("want Server error, got {other:?}"),
    }
    client.ping(b"refusal keeps serving").expect("ping");
    handle.shutdown();

    // Opted in: SHUTDOWN_OK comes back and the accept loop stops.
    let config = ServerConfig {
        allow_shutdown: true,
        ..ServerConfig::default()
    };
    let handle = start(config, vec![tenant("t1", 100)]);
    let addr = handle.addr();
    let mut client = connect(&handle);
    client.shutdown().expect("shutdown");
    handle.shutdown(); // joins the already-stopping accept thread
                       // New connections die instead of being served.
    let gone = (0..50).any(|_| {
        std::thread::sleep(Duration::from_millis(20));
        match Client::connect(addr, Duration::from_millis(500)) {
            Err(_) => true,
            Ok(mut c) => c.ping(b"x").is_err(),
        }
    });
    assert!(gone, "server kept serving after SHUTDOWN_OK");
}

#[test]
fn half_sent_frame_times_out_instead_of_wedging_the_server() {
    use std::io::Write as _;
    let config = ServerConfig {
        read_timeout: Duration::from_millis(100),
        ..ServerConfig::default()
    };
    let handle = start(config, vec![tenant("t1", 100)]);

    // Send a valid header promising 100 payload bytes, then stall.
    let mut stalled = std::net::TcpStream::connect(handle.addr()).expect("connect");
    stalled
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut header = Vec::new();
    header.extend_from_slice(b"HF");
    header.push(protocol::VERSION);
    header.push(frame_type::PING);
    header.extend_from_slice(&100u32.to_le_bytes());
    stalled.write_all(&header).expect("write header");

    // The server's read timeout fires, it answers with a typed error
    // frame and closes — the connection thread is not wedged forever.
    let reply = protocol::read_frame(&mut stalled)
        .expect("read")
        .expect("frame");
    assert_eq!(reply.kind, frame_type::ERROR);
    assert!(
        protocol::read_frame(&mut stalled).expect("eof").is_none(),
        "server must close after a framing error"
    );

    // And the server still serves fresh connections.
    let mut client = connect(&handle);
    client.ping(b"after-stall").expect("ping");
    handle.shutdown();
}

fn scalable_tenant(name: &str, keys: Vec<Vec<u8>>) -> TenantStore {
    let input = BuildInput::from_members(&keys);
    let filter = FilterSpec::scalable_habf()
        .bits_per_key(10.0)
        .build(&input)
        .expect("build");
    TenantStore::new(name, filter, AdaptPolicy::cost_threshold(50.0)).with_members(keys)
}

/// Reads one reply frame and checks its type.
fn expect_reply(stream: &mut std::net::TcpStream, kind: u8) -> Vec<u8> {
    let reply = protocol::read_frame(stream).expect("read").expect("frame");
    assert_eq!(reply.kind, kind, "reply out of order: {:?}", reply.payload);
    reply.payload
}

/// One connection pipelines six frames around a REBUILD, which its
/// worker parks while the lane runs it: the replies come back in request
/// order, the frames behind the REBUILD see the swapped filter, and the
/// second worker's connection gets its reply through its own outlet.
#[test]
fn frames_behind_a_parked_rebuild_answer_in_order_and_read_their_writes() {
    let config = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    let handle = start(config, vec![scalable_tenant("elastic", members(2_000))]);
    // Grow the stack first (this connection lands on worker 0), so the
    // REBUILD folds it back: a `compact` rebuild.
    let grown: Vec<Vec<u8>> = (0..3_000)
        .map(|i| format!("late:{i}").into_bytes())
        .collect();
    let (_, tiers, _) = connect(&handle).insert("elastic", &grown).expect("insert");
    assert!(tiers > 1, "the insert must open a tier");
    let mut all = members(2_000);
    all.extend(grown);

    // Worker 1's connection.
    let mut stream = std::net::TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut burst = Vec::new();
    let query = protocol::encode_query("elastic", &all);
    let late = [b"after:1".to_vec(), b"after:2".to_vec()];
    for (kind, payload) in [
        (frame_type::QUERY, query.clone()),
        (
            frame_type::REBUILD,
            protocol::encode_rebuild("elastic", 5, 64),
        ),
        (frame_type::STATS, protocol::encode_stats("elastic")),
        (frame_type::QUERY, query),
        (
            frame_type::INSERT,
            protocol::encode_insert("elastic", &late),
        ),
        (frame_type::PING, b"last".to_vec()),
    ] {
        protocol::append_frame(&mut burst, kind, &payload).expect("frame");
    }
    std::io::Write::write_all(&mut stream, &burst).expect("pipeline");

    let answers =
        protocol::decode_answers(&expect_reply(&mut stream, frame_type::ANSWERS)).expect("answers");
    assert!(
        answers.len() == all.len() && answers.iter().all(|&b| b),
        "FN before the swap"
    );
    let rebuilt = expect_reply(&mut stream, frame_type::REBUILT);
    assert_eq!(
        rebuilt.get(4..12),
        Some(&1u64.to_le_bytes()[..]),
        "generation"
    );
    let stats = String::from_utf8(expect_reply(&mut stream, frame_type::STATS_OK)).expect("utf8");
    assert!(stats.contains("\"generation\":1"), "{stats}");
    assert!(stats.contains("\"rebuild_kind\":\"compact\""), "{stats}");
    assert!(stats.contains("\"tiers\":1"), "{stats}");
    let answers =
        protocol::decode_answers(&expect_reply(&mut stream, frame_type::ANSWERS)).expect("answers");
    assert!(
        answers.len() == all.len() && answers.iter().all(|&b| b),
        "FN after the swap"
    );
    let (accepted, _, _) =
        protocol::decode_insert_ok(&expect_reply(&mut stream, frame_type::INSERT_OK))
            .expect("insert ok");
    assert_eq!(accepted, 2);
    assert_eq!(expect_reply(&mut stream, frame_type::PONG), b"last");

    handle.shutdown();
}

/// Members of the stall test's tenant: enough that one fold-back takes
/// well over 50 ms in a release build (60–100 ms on 2 vCPUs), and longer
/// in any other.
const STALL_MEMBERS: usize = 1_500_000;

/// While connection A's REBUILDs run on the lane, connection B's small
/// queries on the same (only) worker keep being answered: the slowest of
/// B's frames that overlapped a REBUILD takes under a quarter of A's
/// fastest REBUILD. Then the server stops cleanly with a REBUILD in
/// flight.
#[test]
fn a_rebuild_does_not_stall_another_connection() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Instant;

    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let handle = start(config, vec![scalable_tenant("big", members(STALL_MEMBERS))]);
    let addr = handle.addr();
    let epoch = Instant::now();
    let querying = AtomicBool::new(false);
    let done = AtomicBool::new(false);
    let (rebuilds, frames) = std::thread::scope(|s| {
        let b = s.spawn(|| {
            let mut client = Client::connect(addr, Duration::from_secs(30)).expect("connect");
            let probe = members(8);
            let mut frames = Vec::new();
            while !done.load(Ordering::Acquire) {
                let start = epoch.elapsed();
                let answers = client.query("big", &probe).expect("query");
                frames.push((start, epoch.elapsed()));
                assert!(answers.iter().all(|&b| b), "member dropped");
                querying.store(true, Ordering::Release);
            }
            frames
        });
        let mut client = Client::connect(addr, Duration::from_secs(60)).expect("connect");
        while !querying.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        let mut rebuilds = Vec::new();
        for seed in 0..3 {
            let start = epoch.elapsed();
            client.rebuild("big", seed, 64).expect("rebuild");
            rebuilds.push((start, epoch.elapsed()));
        }
        done.store(true, Ordering::Release);
        (rebuilds, b.join().expect("query thread"))
    });

    let fastest = rebuilds
        .iter()
        .map(|(a, b)| *b - *a)
        .min()
        .expect("three rebuilds");
    let overlapped: Vec<Duration> = frames
        .iter()
        .filter(|(fa, fb)| rebuilds.iter().any(|(ra, rb)| fa < rb && fb > ra))
        .map(|(a, b)| *b - *a)
        .collect();
    let slowest = overlapped.iter().max().copied().unwrap_or_default();
    assert!(
        overlapped.len() >= 3,
        "only {} query frames overlapped a REBUILD",
        overlapped.len()
    );
    assert!(
        slowest < fastest / 4,
        "a query frame waited {slowest:?} during a REBUILD; the fastest REBUILD took {fastest:?}"
    );

    // Stop with a REBUILD on the lane: the shutdown waits for that one
    // rebuild at most, and returns.
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    protocol::write_frame(
        &mut stream,
        frame_type::REBUILD,
        &protocol::encode_rebuild("big", 9, 64),
    )
    .expect("send");
    std::thread::sleep(Duration::from_millis(20));
    let (stopped, waited) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        handle.shutdown();
        let _ = stopped.send(());
    });
    waited
        .recv_timeout(Duration::from_secs(120))
        .expect("server did not stop with a REBUILD in flight");
}

/// The server's threads carry their roles' names, which an operator reads
/// in `/proc/<pid>/task/*/comm`.
#[cfg(target_os = "linux")]
#[test]
fn server_threads_are_named() {
    let config = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    let handle = start(config, vec![tenant("t1", 100)]);
    // A served frame means the accept loop runs, so every thread exists;
    // each names itself once it first runs, and until then shows its
    // parent's name.
    connect(&handle).ping(b"up").expect("ping");
    let wanted = [
        "habf-accept",
        "habf-reactor-0",
        "habf-reactor-1",
        "habf-rebuild",
    ];
    let mut names = Vec::new();
    for _ in 0..500 {
        names = std::fs::read_dir("/proc/self/task")
            .expect("task dir")
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .map(|name| name.trim_end().to_string())
            .collect();
        if wanted.iter().all(|want| names.iter().any(|n| n == want)) {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    for want in wanted {
        assert!(
            names.iter().any(|n| n == want),
            "no {want} thread in {names:?}"
        );
    }
    handle.shutdown();
}

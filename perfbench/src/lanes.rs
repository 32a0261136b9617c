//! The closed-loop client lanes: query connections that keep `depth`
//! pre-encoded `QUERY` frames in flight, and one mutation connection
//! that repeats `INSERT`/`FEEDBACK` pairs closed by a `REBUILD`. Every
//! request waits for its reply; a failed or refused request is counted
//! and ends its lane (the stream may be out of step), never retried.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use habf_serve::{Client, WireError};

use crate::inputs::{Inputs, FEEDBACK_EVENTS, INSERT_KEYS, MAX_HINTS, PAIRS_PER_CYCLE};
use crate::layers::Span;

/// How long a client waits for any one reply before counting it failed.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// Microseconds from `epoch` to now.
pub fn micros(epoch: Instant) -> f64 {
    epoch.elapsed().as_secs_f64() * 1e6
}

pub fn connect(addr: SocketAddr) -> Client {
    Client::connect(addr, REPLY_TIMEOUT).expect("connect to the in-process server")
}

/// What the query lane saw, over all of its connections.
#[derive(Default)]
pub struct QueryOut {
    /// `(sent, replied)` in microseconds since the run's epoch, for each
    /// answered frame.
    pub frames: Vec<(f64, f64)>,
    /// Keys answered.
    pub keys: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Member slots answered `false` — a false negative.
    pub member_misses: u64,
    /// Every 64th answered frame: `(pool index, answers)`, checked later
    /// against the in-process filter.
    pub sampled: Vec<(u32, Vec<bool>)>,
    /// Client spans (traced lanes only).
    pub spans: Vec<Span>,
}

/// Drives `connections` query connections from one thread until `stop`
/// is raised, each with `depth` frames in flight, cycling through the
/// frame pool. One thread serves every connection so that, with the
/// server's worker and the mutation lane, no more threads are busy than
/// there are cores. With `corrupt`, the first answered member slot is
/// flipped before the checks — the benchmark's own self-test that a
/// wrong answer fails the run. `reserve` pre-sizes the latency record so
/// its growth does not show in the peak resident set.
#[allow(clippy::too_many_arguments)]
pub fn query_lane(
    addr: SocketAddr,
    inputs: &Inputs,
    connections: usize,
    depth: usize,
    epoch: Instant,
    stop: &AtomicBool,
    traced: bool,
    mut corrupt: bool,
    reserve: usize,
) -> QueryOut {
    let mut conns: Vec<(Client, VecDeque<(usize, f64)>)> = (0..connections)
        .map(|_| (connect(addr), VecDeque::with_capacity(depth)))
        .collect();
    let mut out = QueryOut {
        frames: Vec::with_capacity(reserve),
        ..QueryOut::default()
    };
    let pool = inputs.frames.len();
    let mut next = 0;
    let mut seq: u64 = 0;
    loop {
        let stopping = stop.load(Ordering::Relaxed);
        let mut waiting = false;
        for c in 0..conns.len() {
            let (client, in_flight) = &mut conns[c];
            while !stopping && in_flight.len() < depth {
                let idx = next % pool;
                next += 1;
                let sent = micros(epoch);
                out.attempted += 1;
                if client.send_raw(&inputs.frames[idx]).is_err() {
                    out.failed += 1 + conns.iter().map(|c| c.1.len() as u64).sum::<u64>();
                    return out;
                }
                in_flight.push_back((idx, sent));
            }
            let Some((idx, sent)) = in_flight.pop_front() else {
                continue;
            };
            waiting = true;
            let recv_start = micros(epoch);
            let reply = client.flush().and_then(|()| client.recv_answers());
            let replied = micros(epoch);
            let mut answers = match reply {
                Ok(a) if a.len() == inputs.frame_keys[idx].len() => a,
                _ => {
                    out.failed += 1 + conns.iter().map(|c| c.1.len() as u64).sum::<u64>();
                    return out;
                }
            };
            if corrupt {
                answers[0] = false;
                corrupt = false;
            }
            out.member_misses += inputs.frame_keys[idx]
                .iter()
                .zip(&answers)
                .filter(|&(&(member, _), &hit)| member && !hit)
                .count() as u64;
            out.keys += answers.len() as u64;
            out.frames.push((sent, replied));
            if traced {
                let id = out.spans.len() as u32;
                out.spans
                    .push(Span::new(seq, id, u32::MAX, "client.frame", sent, replied));
                out.spans.push(Span::new(
                    seq,
                    id + 1,
                    id,
                    "client.recv",
                    recv_start,
                    replied,
                ));
            }
            if seq.is_multiple_of(64) {
                out.sampled.push((idx as u32, answers));
            }
            seq += 1;
        }
        if !waiting {
            return out;
        }
    }
}

/// One mutation request as the client saw it.
#[derive(Clone, Copy, Debug)]
pub struct MutOp {
    pub kind: MutKind,
    pub start_us: f64,
    pub end_us: f64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MutKind {
    Insert,
    Feedback,
    Rebuild,
}

/// When the mutation lane stops.
pub enum MutStop<'a> {
    /// At the end of the cycle during which the flag was raised, so the
    /// last request is always a `REBUILD`.
    AfterFlag(&'a AtomicBool),
    /// After this many cycles.
    Cycles(usize),
}

#[derive(Default)]
pub struct MutOut {
    pub ops: Vec<MutOp>,
    /// Keys the server acknowledged inserting.
    pub inserted: Vec<Vec<u8>>,
    pub attempted: u64,
    pub failed: u64,
    pub cycles: usize,
}

/// Drives the mutation connection: cycles of `PAIRS_PER_CYCLE` ×
/// (`INSERT` of `INSERT_KEYS` fresh keys, `FEEDBACK` of
/// `FEEDBACK_EVENTS` costed negatives) and one `REBUILD` with a fixed
/// seed.
pub fn mutation_lane(
    addr: SocketAddr,
    tenant: &str,
    inputs: &Inputs,
    fresh: &[Vec<u8>],
    rebuild_seed: u64,
    epoch: Instant,
    stop: MutStop<'_>,
) -> MutOut {
    let mut client = connect(addr);
    let mut out = MutOut::default();
    let mut fresh = fresh.chunks_exact(INSERT_KEYS);
    loop {
        match stop {
            MutStop::AfterFlag(flag) if flag.load(Ordering::Relaxed) => return out,
            MutStop::Cycles(n) if out.cycles >= n => return out,
            _ => {}
        }
        for pair in 0..PAIRS_PER_CYCLE {
            let Some(keys) = fresh.next() else {
                panic!("fresh key budget exhausted after {} cycles", out.cycles);
            };
            let start_us = micros(epoch);
            out.attempted += 1;
            match client.insert(tenant, keys) {
                Ok((accepted, _, _)) if accepted as usize == keys.len() => {
                    out.inserted.extend(keys.iter().cloned());
                }
                _ => {
                    out.failed += 1;
                    return out;
                }
            }
            out.ops.push(MutOp {
                kind: MutKind::Insert,
                start_us,
                end_us: micros(epoch),
            });
            let events: Vec<(&[u8], f64)> = inputs.feedback
                [pair * FEEDBACK_EVENTS..(pair + 1) * FEEDBACK_EVENTS]
                .iter()
                .map(|&i| (inputs.negatives[i].as_slice(), inputs.costs[i]))
                .collect();
            let start_us = micros(epoch);
            out.attempted += 1;
            if !matches!(client.feedback(tenant, &events), Ok(n) if n as usize == events.len()) {
                out.failed += 1;
                return out;
            }
            out.ops.push(MutOp {
                kind: MutKind::Feedback,
                start_us,
                end_us: micros(epoch),
            });
        }
        let start_us = micros(epoch);
        out.attempted += 1;
        if client.rebuild(tenant, rebuild_seed, MAX_HINTS).is_err() {
            out.failed += 1;
            return out;
        }
        out.ops.push(MutOp {
            kind: MutKind::Rebuild,
            start_us,
            end_us: micros(epoch),
        });
        out.cycles += 1;
    }
}

/// Queries every key through the wire in `batch`-key frames, `depth`
/// frames in flight, and returns the answers in key order.
///
/// # Errors
/// The first wire error; the caller counts the sweep as failed.
pub fn sweep(
    client: &mut Client,
    tenant: &str,
    keys: &[&[u8]],
    batch: usize,
    depth: usize,
) -> Result<Vec<bool>, WireError> {
    let mut answers = Vec::with_capacity(keys.len());
    let mut chunks = keys.chunks(batch);
    let mut in_flight = 0usize;
    loop {
        while in_flight < depth {
            let Some(chunk) = chunks.next() else { break };
            client.send_raw(&crate::inputs::query_frame(tenant, chunk))?;
            in_flight += 1;
        }
        if in_flight == 0 {
            return Ok(answers);
        }
        client.flush()?;
        answers.extend(client.recv_answers()?);
        in_flight -= 1;
    }
}

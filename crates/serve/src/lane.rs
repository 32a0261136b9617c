//! The REBUILD lane: one background thread, `habf-rebuild`, that runs
//! every REBUILD off the event loop.
//!
//! A worker that decodes a REBUILD for a known tenant hands the lane a
//! [`Job`] and parks the connection that sent it (see `reactor.rs`).
//! The lane runs the tenant's rebuild, encodes the `REBUILT` or `ERROR`
//! reply, sends it back to the owning worker over that worker's
//! [`Outlet`] channel, and writes the worker's socketpair wake byte — the
//! path the accept thread already uses to hand over connections. The
//! worker then queues the reply and unparks the connection. Jobs run one
//! at a time, in arrival order, whatever their tenant.

use std::io::Write;
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};

use habf_core::tenant::TenantStore;

use crate::protocol::{error_code, frame_type, Frame};
use crate::server::error_frame;

/// One REBUILD handed to the lane.
pub(crate) struct Job {
    /// Index of the worker that owns the connection.
    pub(crate) worker: usize,
    /// The connection's slot in that worker.
    pub(crate) slot: usize,
    /// The connection's serial: a reply for a slot that has since been
    /// reused by another connection is dropped.
    pub(crate) serial: u64,
    pub(crate) store: Arc<TenantStore>,
    pub(crate) seed: u64,
    pub(crate) max_hints: usize,
}

/// A finished REBUILD's reply, addressed to one connection of a worker.
pub(crate) struct Done {
    pub(crate) slot: usize,
    pub(crate) serial: u64,
    pub(crate) frame: Frame,
}

/// How the lane reaches one worker: its reply channel and its wake
/// socket.
pub(crate) struct Outlet {
    pub(crate) replies: mpsc::Sender<Done>,
    pub(crate) wake: UnixStream,
}

/// The lane's loop: runs jobs until every worker has dropped its job
/// sender. Once `stop` is raised it starts no further job, so shutdown
/// waits for at most the rebuild in progress.
pub(crate) fn run(jobs: &mpsc::Receiver<Job>, outlets: &[Outlet], stop: &AtomicBool) {
    while let Ok(job) = jobs.recv() {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let frame = rebuild(&job.store, job.seed, job.max_hints);
        let Some(outlet) = outlets.get(job.worker) else {
            continue;
        };
        let done = Done {
            slot: job.slot,
            serial: job.serial,
            frame,
        };
        if outlet.replies.send(done).is_ok() {
            // A full pipe means a wake byte is already pending.
            let _ = (&outlet.wake).write(&[1]);
        }
    }
}

/// Runs one tenant rebuild and encodes its reply: `REBUILT` (hints
/// mined, then the new generation) or a typed `REBUILD_FAILED` error. A
/// rebuild that panics is answered the same way, so its connection is
/// never left parked.
fn rebuild(store: &TenantStore, seed: u64, max_hints: usize) -> Frame {
    match catch_unwind(AssertUnwindSafe(|| store.rebuild_now(seed, max_hints))) {
        Ok(Ok(outcome)) => {
            let mut payload = Vec::with_capacity(12);
            payload.extend_from_slice(&(outcome.hints as u32).to_le_bytes());
            payload.extend_from_slice(&outcome.generation.to_le_bytes());
            Frame {
                kind: frame_type::REBUILT,
                payload,
            }
        }
        Ok(Err(e)) => error_frame(error_code::REBUILD_FAILED, &e.to_string()),
        Err(_) => error_frame(error_code::REBUILD_FAILED, "rebuild panicked"),
    }
}

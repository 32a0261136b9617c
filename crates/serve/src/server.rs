//! The server: a TCP front end routing protocol frames onto per-tenant
//! [`TenantStore`]s. One accept thread feeds N readiness-driven worker
//! event loops (see `reactor.rs`): epoll'd nonblocking sockets,
//! streaming frame decode, vectored writes, and cross-connection query
//! coalescing. It runs on unix targets only; elsewhere [`Server::bind`]
//! returns [`std::io::ErrorKind::Unsupported`].
//!
//! Past [`ServerConfig::max_connections`], a connection is accepted
//! just long enough to send a typed `BUSY` error frame (carrying a
//! retry-after-ms backoff hint) and close — a bounded queue that fails
//! loudly instead of stalling the listener. Workers share the
//! [`TenantTable`] and never take a lock while probing: queries clone
//! the tenant's filter `Arc` snapshot and run through the batch
//! pipeline outside all locks, so a rebuild hot-swapping a tenant
//! mid-batch leaves in-flight answers on the old generation.
//!
//! A client may pipeline: frames are answered in order, one reply per
//! request, so a burst of `QUERY` frames behaves as one long stream.
//!
//! No worker runs a `REBUILD`: the request handler turns one for a known
//! tenant into a job for the REBUILD lane, a background thread that
//! runs [`TenantStore::rebuild_now`] while the worker parks only the
//! connection that sent it and goes on serving every other connection.
//! The reply still arrives in request order. If the lane cannot start,
//! every `REBUILD` is refused with a typed `REBUILD_FAILED` error.
//!
//! The server's threads are named for `/proc/<pid>/task/*/comm`:
//! `habf-accept` (the accept loop, when started by [`Server::spawn`]),
//! `habf-reactor-N` (worker `N`), and `habf-rebuild` (the lane).

use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

use habf_core::tenant::TenantStore;

use crate::protocol::{self, error_code, frame_type, Frame, Request};

/// Tuning knobs for [`Server::bind`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Concurrent connections served; further connections get a typed
    /// `BUSY` error frame and a close.
    pub max_connections: usize,
    /// How long a connection may stay silent: past it, the reactor's
    /// idle sweep answers one typed error frame and closes, so a peer
    /// that stops mid-frame cannot hold its buffered partial frame
    /// forever.
    pub read_timeout: Duration,
    /// Whether a `SHUTDOWN` frame stops the server. Off by default —
    /// any client could stop the server otherwise; the CLI turns it on
    /// for operator-driven and CI-scripted servers.
    pub allow_shutdown: bool,
    /// Reactor worker event loops; `0` sizes to the machine
    /// (`available_parallelism`, capped at 8).
    pub workers: usize,
    /// The retry-after-ms backoff hint a `BUSY` refusal carries.
    pub busy_retry_ms: u8,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_connections: 64,
            read_timeout: Duration::from_secs(30),
            allow_shutdown: false,
            workers: 0,
            busy_retry_ms: 25,
        }
    }
}

/// The tenant routing table: name → serving state, shared by every
/// reactor worker.
#[derive(Default)]
pub struct TenantTable {
    map: RwLock<HashMap<String, Arc<TenantStore>>>,
}

impl TenantTable {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or replaces) a tenant under its own name.
    pub fn add(&self, store: TenantStore) {
        self.add_shared(Arc::new(store));
    }

    /// Adds (or replaces) an already-shared tenant.
    pub fn add_shared(&self, store: Arc<TenantStore>) {
        self.map
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(store.name().to_string(), store);
    }

    /// Looks a tenant up by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<Arc<TenantStore>> {
        self.map
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(name)
            .cloned()
    }

    /// The served tenant names, sorted.
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .map
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    tenants: Arc<TenantTable>,
    config: ServerConfig,
    stop: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
}

/// Handle to a server running on a background thread; dropping it
/// without [`ServerHandle::shutdown`] leaves the server running
/// detached until process exit.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound listening address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the server and joins its thread. Each worker leaves its
    /// event loop at its next wakeup, makes one best-effort flush of the
    /// replies it has queued, and closes its connections.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        // The accept call is blocking; a throwaway connection wakes it
        // so it observes the stop flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Server {
    /// Binds the listener. `addr` may be `"127.0.0.1:0"` to let the OS
    /// pick a port (see [`Server::local_addr`]).
    ///
    /// # Errors
    /// Propagates the bind failure; [`std::io::ErrorKind::Unsupported`]
    /// on a non-unix target, where the reactor cannot run.
    pub fn bind(
        addr: impl ToSocketAddrs,
        tenants: Arc<TenantTable>,
        config: ServerConfig,
    ) -> std::io::Result<Self> {
        if cfg!(not(unix)) {
            return Err(std::io::ErrorKind::Unsupported.into());
        }
        let listener = TcpListener::bind(addr)?;
        Ok(Self {
            listener,
            tenants,
            config,
            stop: Arc::new(AtomicBool::new(false)),
            active: Arc::new(AtomicUsize::new(0)),
        })
    }

    /// The bound address (resolves port 0).
    ///
    /// # Errors
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the server on this thread until the stop flag is raised
    /// (see [`Server::spawn`], or a permitted `SHUTDOWN` frame) or the
    /// listener dies.
    pub fn run(self) {
        #[cfg(unix)]
        crate::reactor::run(
            self.listener,
            self.tenants,
            self.config,
            self.stop,
            self.active,
        );
    }

    /// Runs the server on a background thread, `habf-accept`, returning
    /// the handle used to address and stop it.
    ///
    /// # Errors
    /// Propagates the local-address query failure and the thread spawn
    /// failure.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let stop = Arc::clone(&self.stop);
        let join = std::thread::Builder::new()
            .name("habf-accept".into())
            .spawn(move || self.run())?;
        Ok(ServerHandle {
            addr,
            stop,
            join: Some(join),
        })
    }
}

/// Sends a typed `BUSY` refusal — code, retry-after-ms hint, message —
/// and closes the just-accepted connection. Used at the reactor's
/// global cap (accept loop) and per-worker cap (admission).
pub(crate) fn refuse_busy(mut stream: TcpStream, retry_after_ms: u8) {
    let _ = protocol::write_frame(
        &mut stream,
        frame_type::ERROR,
        &protocol::encode_busy(retry_after_ms, "connection limit reached"),
    );
    let _ = stream.shutdown(Shutdown::Both);
}

pub(crate) fn error_frame(code: u8, message: &str) -> Frame {
    Frame {
        kind: frame_type::ERROR,
        payload: protocol::encode_error(code, message),
    }
}

/// What a worker does with one request frame other than `QUERY`.
pub(crate) enum Handled {
    /// Answer now with this frame.
    Reply(Frame),
    /// A `REBUILD` of a known tenant: the REBUILD lane runs it, and the
    /// reply comes back from there.
    Rebuild {
        store: Arc<TenantStore>,
        seed: u64,
        max_hints: usize,
    },
}

/// Maps one request frame other than `QUERY` (the reactor coalesces
/// those) to its reply frame, or, for a `REBUILD` of a known tenant, to
/// the job the REBUILD lane runs: no request is rebuilt here. Payload-
/// level damage keeps the connection: the framing is still in sync, so
/// the error is a reply, not a hangup. This is the `SHUTDOWN` gate too: a
/// refusal unless `allow_shutdown`, and `SHUTDOWN_OK` for an empty
/// payload, which the caller answers by stopping the server.
pub(crate) fn handle_frame(frame: &Frame, tenants: &TenantTable, allow_shutdown: bool) -> Handled {
    if frame.kind == frame_type::SHUTDOWN && !allow_shutdown {
        return Handled::Reply(error_frame(
            error_code::SHUTDOWN_REFUSED,
            "server does not allow remote shutdown",
        ));
    }
    let request = match Request::parse(frame) {
        Ok(request) => request,
        Err(e) => return Handled::Reply(error_frame(e.code(), &e.to_string())),
    };
    let unknown = |tenant: &str| {
        Handled::Reply(error_frame(
            error_code::UNKNOWN_TENANT,
            &format!("no tenant {tenant:?}"),
        ))
    };
    let reply = match request {
        Request::Ping(payload) => Frame {
            kind: frame_type::PONG,
            payload,
        },
        Request::Feedback { tenant, events } => {
            let Some(store) = tenants.get(&tenant) else {
                return unknown(&tenant);
            };
            for (key, cost) in &events {
                store.record_fp(key, *cost);
            }
            Frame {
                kind: frame_type::ACK,
                payload: (events.len() as u32).to_le_bytes().to_vec(),
            }
        }
        Request::Stats { tenant } => {
            let Some(store) = tenants.get(&tenant) else {
                return unknown(&tenant);
            };
            Frame {
                kind: frame_type::STATS_OK,
                payload: store.stats().to_json().into_bytes(),
            }
        }
        Request::Rebuild {
            tenant,
            seed,
            max_hints,
        } => {
            let Some(store) = tenants.get(&tenant) else {
                return unknown(&tenant);
            };
            return Handled::Rebuild {
                store,
                seed,
                max_hints: max_hints as usize,
            };
        }
        Request::Insert { tenant, keys } => {
            let Some(store) = tenants.get(&tenant) else {
                return unknown(&tenant);
            };
            match store.insert_keys(&keys) {
                Ok(report) => Frame {
                    kind: frame_type::INSERT_OK,
                    payload: protocol::encode_insert_ok(
                        report.accepted as u32,
                        report.generations as u32,
                        report.saturation,
                    ),
                },
                Err(e @ habf_core::tenant::InsertError::NotGrowable { .. }) => {
                    error_frame(error_code::NOT_GROWABLE, &e.to_string())
                }
            }
        }
        Request::Shutdown => Frame {
            kind: frame_type::SHUTDOWN_OK,
            payload: Vec::new(),
        },
        // The reactor answers every QUERY from its coalesced batch.
        Request::Query { .. } => error_frame(error_code::BAD_FRAME, "QUERY is not handled here"),
    };
    Handled::Reply(reply)
}

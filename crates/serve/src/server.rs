//! The multi-camera TCP inference server.
//!
//! Architecture (one process, two thread roles):
//!
//! * **Event loop** — one transport thread owns the listener and every
//!   client socket, nonblocking, multiplexed through the vendored poller
//!   (epoll on Linux; see [`crate::transport`]). It accepts, parses — JSON
//!   control lines and binary frames, routed by the first byte — answers
//!   inline operations, and turns frame / `stats` / `close` operations into
//!   jobs on the owning session's shard. It never runs inference and never
//!   blocks on a session lock, so accepting and parsing stay responsive
//!   under thousands of connections, with no thread or `JoinHandle` per
//!   connection to leak.
//! * **Shard workers** — `workers` threads, one per shard. Sessions are
//!   keyed onto shards by `session_id % workers`, so one session's frames
//!   are processed by one worker in arrival order — per-session frame order
//!   is preserved by construction — while distinct sessions spread across
//!   shards and run in parallel, each shard draining **micro-batches** of up
//!   to `batch_max` queued jobs and pushing them through the session engines
//!   via `MetaSegStream::push_payload`, which dequantizes the
//!   checksum-verified wire bytes straight into the engine's extraction
//!   scratch.
//!   Each shard's queue is bounded: when a session's shard is full the
//!   submission immediately answers `backpressure` instead of blocking or
//!   buffering unboundedly — the overload signal a fleet balancer needs.
//!   Statistics are kept per shard, under the shard's own queue lock (see
//!   [`ShardStats`]), and aggregated on snapshot.
//!
//! Graceful shutdown ([`ServerHandle::shutdown`]) stops accepting and
//! reading, drains every job already handed to the shards, flushes the
//! responses, then joins every thread — no accepted frame is ever silently
//! dropped.

use crate::protocol::{ErrorCode, Response};
use crate::registry::ModelRegistry;
use crate::shard::{worker_loop, Completion, Shard};
use crate::transport::Transport;
use mio::{Interest, Poll, Token, Waker};
use serde::{Deserialize, Serialize};
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Tuning knobs of a server instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServerConfig {
    /// Worker threads — one per shard; sessions are keyed onto shards by
    /// `session_id % workers`.
    pub workers: usize,
    /// Bounded frame-queue depth *per shard*; submissions beyond it are
    /// rejected with [`ErrorCode::Backpressure`].
    pub queue_depth: usize,
    /// Largest micro-batch one shard worker drains from its queue in one go
    /// (at least 1). Only jobs *already queued* are taken — a worker never
    /// waits to fill a batch, so lightly loaded servers keep single-frame
    /// latency while loaded ones amortise dispatch.
    pub batch_max: usize,
    /// Artificial per-frame inference delay in milliseconds — a loadtest /
    /// test knob emulating heavier models; `0` (the default) for real
    /// serving.
    pub synthetic_delay_ms: u64,
    /// Poll timeout of the event loop; bounds how quickly shutdown is
    /// observed when no traffic arrives.
    pub poll_interval_ms: u64,
    /// Maximum accepted message length in bytes — the cap on a JSON control
    /// line and on a binary frame's payload. A connection
    /// whose line grows past this without a newline, or whose binary header
    /// declares a payload beyond it, is answered (where possible) and
    /// dropped rather than allowed to grow server memory without bound.
    pub max_line_bytes: usize,
    /// Connections the event loop will hold at once. Accepts beyond the cap
    /// are shed at accept time: the server writes one typed
    /// [`ErrorCode::Overloaded`] line (best effort) and drops the socket,
    /// keeping the slab and poller bounded under connection floods.
    pub max_connections: usize,
    /// Bound on one connection's buffered-but-unsent response bytes. A
    /// consumer that stops reading while responses accumulate past this is
    /// evicted — its memory must not grow with the backlog it refuses to
    /// drain. `0` disables the cap.
    pub max_outbuf_bytes: usize,
    /// Milliseconds a connection may sit idle (no request in progress, no
    /// response in flight) before the event loop drops it. `0` disables
    /// idle deadlines.
    pub idle_timeout_ms: u64,
    /// Milliseconds a connection may stall *mid-message* — a partial
    /// control line or binary frame buffered, no new bytes arriving — before it is
    /// dropped. This is the slow-loris defense: a trickling peer holds its
    /// slot only as long as it keeps feeding bytes. `0` disables read
    /// deadlines.
    pub read_timeout_ms: u64,
    /// Milliseconds an *orphaned* session (its owning connection died
    /// without closing it) lingers server-side awaiting a
    /// [`Request::Resume`](crate::protocol::Request::Resume) from a
    /// reconnecting client before it is reaped. `0` reaps sessions the
    /// moment their connection dies (the pre-resume behaviour).
    pub session_linger_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_depth: 64,
            batch_max: 4,
            synthetic_delay_ms: 0,
            poll_interval_ms: 25,
            // Also the binary payload cap: a 1024x1024x19 f64 field is
            // ~152 MiB, so full-resolution frames fit, while a hostile
            // newline-free stream or an inflated header stays bounded.
            max_line_bytes: 256 << 20,
            max_connections: 4096,
            max_outbuf_bytes: 64 << 20,
            idle_timeout_ms: 60_000,
            read_timeout_ms: 10_000,
            session_linger_ms: 60_000,
        }
    }
}

impl ServerConfig {
    pub(crate) fn poll_interval(&self) -> Duration {
        Duration::from_millis(self.poll_interval_ms.max(1))
    }
}

/// Lifetime counters of a server, snapshot via [`ServerHandle::stats`].
///
/// Queue- and batch-related counters are kept per shard (see
/// [`ShardStats`]); this aggregate sums the counts and takes the maximum of
/// the peaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: usize,
    /// Sessions opened.
    pub sessions_opened: usize,
    /// Frame jobs fully processed.
    pub frames_processed: usize,
    /// Binary frames whose header and checksum verified, so they were
    /// handed on for processing (`frames_processed` counts those the engine
    /// then applied; `rejected` those turned away with `backpressure`).
    pub binary_frames: usize,
    /// Frame submissions rejected with `backpressure`.
    pub rejected: usize,
    /// Largest queue occupancy ever observed on any one shard.
    pub peak_queue_depth: usize,
    /// Micro-batches drained across all shard workers (every drain that
    /// contained at least one frame counts, even a single-frame one).
    pub batches: usize,
    /// Largest micro-batch (in frames) any shard ever drained in one go.
    pub peak_batch: usize,
    /// Connections dropped by an idle or mid-message read deadline.
    pub timed_out: usize,
    /// Connections evicted because their buffered response backlog exceeded
    /// [`ServerConfig::max_outbuf_bytes`].
    pub evicted_slow: usize,
    /// Connections shed at accept time because the server was at
    /// [`ServerConfig::max_connections`].
    pub shed_connections: usize,
    /// Sessions re-attached to a (new) connection via `resume`.
    pub sessions_resumed: usize,
    /// Sessions reaped without an explicit `close`: their connection died
    /// and no client resumed them within
    /// [`ServerConfig::session_linger_ms`].
    pub sessions_expired: usize,
}

/// Lifetime counters of one shard, snapshot via [`ServerHandle::shard_stats`].
///
/// Every field mutates under the shard's queue lock, so the numbers are
/// exact: in particular `peak_queue_depth` counts only frames that were
/// actually admitted — a backpressure-rejected submission increments
/// `rejected` and touches nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ShardStats {
    /// Index of this shard (`session_id % workers` keys sessions onto it).
    pub shard: usize,
    /// Frame jobs fully processed by this shard's worker.
    pub frames_processed: usize,
    /// Frame submissions rejected with `backpressure` because this shard's
    /// queue was full.
    pub rejected: usize,
    /// Largest frame-queue occupancy ever observed on this shard.
    pub peak_queue_depth: usize,
    /// Micro-batches containing at least one frame drained by this shard's
    /// worker.
    pub batches: usize,
    /// Largest micro-batch (in frames) this shard ever drained in one go.
    pub peak_batch: usize,
}

/// State shared between the event loop, the shard workers and the handle.
pub(crate) struct Shared {
    pub(crate) registry: Arc<ModelRegistry>,
    pub(crate) config: ServerConfig,
    pub(crate) shutting_down: AtomicBool,
    pub(crate) next_session: AtomicU64,
    pub(crate) connections: AtomicUsize,
    pub(crate) sessions_opened: AtomicUsize,
    pub(crate) binary_frames: AtomicUsize,
    pub(crate) timed_out: AtomicUsize,
    pub(crate) evicted_slow: AtomicUsize,
    pub(crate) shed_connections: AtomicUsize,
    pub(crate) sessions_resumed: AtomicUsize,
    pub(crate) sessions_expired: AtomicUsize,
    /// Gauge: sessions currently open server-side (owned or lingering).
    pub(crate) open_sessions: AtomicUsize,
    /// Gauge: connections currently registered with the event loop.
    pub(crate) active_connections: AtomicUsize,
}

/// A session whose mutex is poisoned is *dead*: a previous frame panicked
/// mid-inference, so the engine may be half-updated (tracker advanced,
/// windows not) and serving it further could emit silently-wrong verdicts.
/// Every operation on it answers this typed error — the connection stays
/// usable and the camera recovers by opening a fresh session.
pub(crate) fn session_poisoned_error(session: u64) -> Response {
    Response::Error {
        code: ErrorCode::Internal,
        message: format!(
            "session {session} died on a server-side panic; close it and open a new session"
        ),
    }
}

pub(crate) fn bad_request(message: impl ToString) -> Response {
    Response::Error {
        code: ErrorCode::BadRequest,
        message: message.to_string(),
    }
}

pub(crate) fn shutting_down_error() -> Response {
    Response::Error {
        code: ErrorCode::ShuttingDown,
        message: "server is shutting down".to_string(),
    }
}

pub(crate) fn unknown_session_error(session: u64) -> Response {
    Response::Error {
        code: ErrorCode::UnknownSession,
        message: format!("session {session} is not open on this connection"),
    }
}

pub(crate) fn overloaded_error(limit: usize) -> Response {
    Response::Error {
        code: ErrorCode::Overloaded,
        message: format!("server is at its connection limit ({limit}); retry after backing off"),
    }
}

/// A running server. Dropping the handle signals shutdown without waiting;
/// calling [`ServerHandle::shutdown`] drains gracefully and joins.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    shards: Arc<[Shard]>,
    waker: Arc<Waker>,
    transport: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// Entry point: bind, spawn, serve.
pub struct Server;

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and spawns the event
    /// loop and one worker thread per shard. Returns immediately; the
    /// server runs until [`ServerHandle::shutdown`].
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when binding or setting up the
    /// poller fails.
    pub fn spawn(
        addr: impl ToSocketAddrs,
        registry: Arc<ModelRegistry>,
        config: ServerConfig,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let poll = Poll::new()?;
        poll.register(&listener, Token(0), Interest::READABLE)?;
        let waker = Arc::new(Waker::new(&poll, Token(1))?);

        let shared = Arc::new(Shared {
            registry,
            config,
            shutting_down: AtomicBool::new(false),
            next_session: AtomicU64::new(1),
            connections: AtomicUsize::new(0),
            sessions_opened: AtomicUsize::new(0),
            binary_frames: AtomicUsize::new(0),
            timed_out: AtomicUsize::new(0),
            evicted_slow: AtomicUsize::new(0),
            shed_connections: AtomicUsize::new(0),
            sessions_resumed: AtomicUsize::new(0),
            sessions_expired: AtomicUsize::new(0),
            open_sessions: AtomicUsize::new(0),
            active_connections: AtomicUsize::new(0),
        });

        let shard_count = config.workers.max(1);
        let shards: Arc<[Shard]> = (0..shard_count)
            .map(|index| Shard::new(index, &config))
            .collect();
        let (completion_tx, completion_rx) = mpsc::channel::<Completion>();

        let worker_handles: Vec<JoinHandle<()>> = (0..shard_count)
            .map(|index| {
                let shards = Arc::clone(&shards);
                let completions: Sender<Completion> = completion_tx.clone();
                let waker = Arc::clone(&waker);
                thread::Builder::new()
                    .name(format!("metaseg-shard-{index}"))
                    .spawn(move || worker_loop(&shards[index], &completions, &waker))
                    .expect("spawning a shard worker thread succeeds")
            })
            .collect();
        drop(completion_tx);

        let transport = {
            let transport = Transport::new(
                listener,
                poll,
                Arc::clone(&waker),
                Arc::clone(&shared),
                Arc::clone(&shards),
                completion_rx,
            );
            thread::Builder::new()
                .name("metaseg-transport".to_string())
                .spawn(move || transport.run())
                .expect("spawning the transport thread succeeds")
        };

        Ok(ServerHandle {
            addr,
            shared,
            shards,
            waker,
            transport: Some(transport),
            workers: worker_handles,
        })
    }
}

impl ServerHandle {
    /// The address the server actually listens on (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The model registry this server serves from. Models swapped into the
    /// registry (see [`ModelRegistry::swap`]) are picked up by sessions
    /// opened afterwards; existing sessions keep the engine they started
    /// with and are never dropped by a swap.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.shared.registry
    }

    /// Snapshot of the server's lifetime counters, aggregated across shards
    /// (counts are summed, peaks are maxed).
    pub fn stats(&self) -> ServerStats {
        let mut stats = ServerStats {
            connections: self.shared.connections.load(Ordering::Relaxed),
            sessions_opened: self.shared.sessions_opened.load(Ordering::Relaxed),
            binary_frames: self.shared.binary_frames.load(Ordering::Relaxed),
            timed_out: self.shared.timed_out.load(Ordering::Relaxed),
            evicted_slow: self.shared.evicted_slow.load(Ordering::Relaxed),
            shed_connections: self.shared.shed_connections.load(Ordering::Relaxed),
            sessions_resumed: self.shared.sessions_resumed.load(Ordering::Relaxed),
            sessions_expired: self.shared.sessions_expired.load(Ordering::Relaxed),
            ..ServerStats::default()
        };
        for shard in self.shards.iter() {
            let shard = shard.snapshot();
            stats.frames_processed += shard.frames_processed;
            stats.rejected += shard.rejected;
            stats.batches += shard.batches;
            stats.peak_queue_depth = stats.peak_queue_depth.max(shard.peak_queue_depth);
            stats.peak_batch = stats.peak_batch.max(shard.peak_batch);
        }
        stats
    }

    /// Per-shard counters, in shard order — the exact numbers the aggregate
    /// [`ServerHandle::stats`] snapshot is computed from.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards.iter().map(Shard::snapshot).collect()
    }

    /// Gauge: sessions currently open server-side, including orphaned
    /// sessions lingering for a resume. Zero after every camera has closed
    /// (or its linger expired) — the "no leaked sessions" invariant chaos
    /// harnesses assert.
    pub fn open_sessions(&self) -> usize {
        self.shared.open_sessions.load(Ordering::Relaxed)
    }

    /// Gauge: connections currently registered with the event loop. Zero
    /// once every client has disconnected and the loop has reaped the slots
    /// — the "no leaked slab slots" invariant chaos harnesses assert.
    pub fn active_connections(&self) -> usize {
        self.shared.active_connections.load(Ordering::Relaxed)
    }

    /// Whether shutdown has been initiated.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutting_down.load(Ordering::SeqCst)
    }

    /// Graceful shutdown: stop accepting and reading, drain every job
    /// already handed to the shards, flush the responses, join every
    /// thread, and return the final statistics.
    pub fn shutdown(mut self) -> ServerStats {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        self.waker.wake();
        if let Some(transport) = self.transport.take() {
            let _ = transport.join();
        }
        // The transport has drained: every submitted job has completed, so
        // the shard queues are empty and closing them lets the workers exit.
        for shard in self.shards.iter() {
            shard.close();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.stats()
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // A dropped handle must not strand the server's threads: signal
        // shutdown and let them wind down on their own (without joining —
        // `shutdown` is the graceful, joining path; this one is idempotent
        // after it). Workers drain what is already queued before exiting,
        // and the transport still submits safely against closed shards (the
        // submission is refused and answered, never stranded), so the drain
        // invariant — outstanding jobs all complete — holds here too.
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        self.waker.wake();
        for shard in self.shards.iter() {
            shard.close();
        }
    }
}

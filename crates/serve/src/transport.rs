//! The readiness-driven connection transport.
//!
//! One event-loop thread owns the listener and **every** client socket,
//! nonblocking, multiplexed through the vendored [`mio`] poller (epoll on
//! Linux) — no thread per connection, so ten thousand idle cameras cost ten
//! thousand small buffers, not ten thousand stacks, and there is no
//! `JoinHandle` to leak per connection ever accepted: a connection's entire
//! footprint dies with its slot in the event loop's table.
//!
//! Per connection the loop runs a byte-level state machine over one growable
//! input buffer: at each message boundary the first byte routes to either a
//! JSON control line (always starts with `{`) or a binary frame (the magic
//! byte), including resynchronisation — a binary frame whose header is
//! readable but invalid is skipped by its declared length, and only an
//! unbounded declared payload (or an oversized newline-free line) forces a
//! disconnect. A partial line is searched for its newline only once per
//! byte, so a long newline-free line costs linear time, not quadratic.
//!
//! Inference never runs on the event loop. Frame, `stats` and `close`
//! operations become [`Job`]s on the session's shard queue; the shard worker
//! posts a [`Completion`] back through a channel and wakes the poller. The
//! loop keeps responses in request order with a per-connection sequence of
//! response slots: every request allocates the next slot, inline operations
//! fill theirs immediately, queued operations fill theirs on completion, and
//! the write side only ever flushes the longest filled prefix.

use crate::protocol::{ErrorCode, Request, Response};
use crate::server::{
    bad_request, overloaded_error, shutting_down_error, unknown_session_error, ServerConfig, Shared,
};
use crate::shard::{Completion, ConnId, Job, JobKind, Session, Shard};
use crate::wire::{self, BinaryFrameHeader, BINARY_FRAME_MAGIC, BINARY_HEADER_LEN};
use metaseg::DispersionPrecision;
use metaseg_data::ProbPayload;
use mio::{Events, Interest, Poll, Token, Waker};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Poll token of the listener.
const LISTENER: usize = 0;
/// Poll token of the cross-thread waker.
const WAKER: usize = 1;
/// First token handed to client connections.
const FIRST_CONN: usize = 2;

/// Deadline-heap entry kind: a connection's idle / mid-message deadline.
const DL_CONN: u8 = 0;
/// Deadline-heap entry kind: an orphaned session's linger expiry.
const DL_ORPHAN: u8 = 1;

/// One lazily-invalidated deadline-heap entry: `(when, kind, a, b)` where
/// `(a, b)` is `(token, generation)` for [`DL_CONN`] and `(session, 0)` for
/// [`DL_ORPHAN`]. Entries are never removed on activity — a popped entry is
/// revalidated against the live state and re-pushed at the true deadline,
/// so the heap stays O(log n) per event with no cancellation bookkeeping.
type DeadlineEntry = (Instant, u8, u64, u64);

/// A growable input buffer with an O(1) consume offset; compacts lazily so
/// steady-state parsing never memmoves per message.
struct ByteBuf {
    data: Vec<u8>,
    start: usize,
}

impl ByteBuf {
    fn new() -> ByteBuf {
        ByteBuf {
            data: Vec::new(),
            start: 0,
        }
    }

    fn as_slice(&self) -> &[u8] {
        &self.data[self.start..]
    }

    fn len(&self) -> usize {
        self.data.len() - self.start
    }

    fn extend(&mut self, bytes: &[u8]) {
        self.data.extend_from_slice(bytes);
    }

    fn consume(&mut self, count: usize) {
        self.start += count;
        debug_assert!(self.start <= self.data.len());
        if self.start == self.data.len() {
            self.data.clear();
            self.start = 0;
        } else if self.start > 4096 && self.start * 2 > self.data.len() {
            self.data.drain(..self.start);
            self.start = 0;
        }
    }

    /// Copies out and consumes exactly `count` bytes.
    fn take(&mut self, count: usize) -> Vec<u8> {
        let taken = self.as_slice()[..count].to_vec();
        self.consume(count);
        taken
    }
}

/// Where the byte-level state machine stands between reads.
enum ReadState {
    /// At a message boundary: route on the first byte.
    Route,
    /// A valid binary header was consumed; accumulating its payload.
    BinaryPayload {
        header: BinaryFrameHeader,
        needed: usize,
    },
    /// A rejected binary frame's payload is being discarded so the stream
    /// resynchronises at the next message boundary (the typed error response
    /// was already slotted when the header was consumed).
    BinarySkip { remaining: usize },
}

/// One client connection: socket, parse state, sessions, and the ordered
/// response slots.
struct Conn {
    stream: TcpStream,
    id: ConnId,
    inbuf: ByteBuf,
    /// How many leading bytes of the buffered partial line are already
    /// known to hold no newline; the next search starts there.
    line_scanned: usize,
    outbuf: Vec<u8>,
    out_start: usize,
    read_state: ReadState,
    /// Ids of the sessions this connection currently owns; the session
    /// state itself lives in the transport's session table so it can
    /// outlive the connection (see [`SessionEntry`]).
    sessions: HashSet<u64>,
    /// When the socket last produced bytes; deadlines measure from here.
    last_activity: Instant,
    /// The earliest deadline-heap entry currently scheduled for this
    /// connection (`None` when none is); avoids pushing a heap entry per
    /// read.
    scheduled_deadline: Option<Instant>,
    /// Negotiated dispersion-scan precision for this connection's frames.
    dispersion: DispersionPrecision,
    /// Response slots in request order: `pending[i]` answers request
    /// `base_seq + i`. `None` slots await a shard completion.
    pending: VecDeque<Option<Response>>,
    base_seq: u64,
    /// Responses flushed, then close — set by unrecoverable protocol errors
    /// that still deserve an answer.
    closing: bool,
    /// Whether the poll registration currently includes write interest.
    write_interest: bool,
}

impl Conn {
    fn new(stream: TcpStream, id: ConnId) -> Conn {
        Conn {
            stream,
            id,
            inbuf: ByteBuf::new(),
            line_scanned: 0,
            outbuf: Vec::new(),
            out_start: 0,
            read_state: ReadState::Route,
            sessions: HashSet::new(),
            last_activity: Instant::now(),
            scheduled_deadline: None,
            dispersion: DispersionPrecision::F64,
            pending: VecDeque::new(),
            base_seq: 0,
            closing: false,
            write_interest: false,
        }
    }

    /// Allocates the next response slot and returns its sequence number.
    fn alloc_slot(&mut self) -> u64 {
        self.pending.push_back(None);
        self.base_seq + self.pending.len() as u64 - 1
    }

    /// Fills a previously allocated slot.
    fn fill(&mut self, seq: u64, response: Response) {
        let index = seq.checked_sub(self.base_seq).map(|i| i as usize);
        if let Some(slot) = index.and_then(|i| self.pending.get_mut(i)) {
            *slot = Some(response);
        }
    }

    /// Moves every leading filled slot into the output buffer, in order.
    fn flush_ready(&mut self) {
        while matches!(self.pending.front(), Some(Some(_))) {
            let response = self
                .pending
                .pop_front()
                .expect("front checked above")
                .expect("front checked above");
            self.base_seq += 1;
            self.outbuf.extend_from_slice(response.encode().as_bytes());
            self.outbuf.push(b'\n');
        }
    }

    fn out_len(&self) -> usize {
        self.outbuf.len() - self.out_start
    }

    /// Writes as much of the output buffer as the socket accepts.
    /// `Ok(())` leaves the connection alive; `Err` means it is gone.
    fn write_pending(&mut self) -> Result<(), ()> {
        while self.out_start < self.outbuf.len() {
            match self.stream.write(&self.outbuf[self.out_start..]) {
                Ok(0) => return Err(()),
                Ok(written) => self.out_start += written,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Err(()),
            }
        }
        if self.out_start == self.outbuf.len() {
            self.outbuf.clear();
            self.out_start = 0;
        } else if self.out_start > 4096 && self.out_start * 2 > self.outbuf.len() {
            self.outbuf.drain(..self.out_start);
            self.out_start = 0;
        }
        Ok(())
    }

    /// Whether everything this connection will ever say has been said.
    fn finished_closing(&self) -> bool {
        self.closing && self.pending.is_empty() && self.out_len() == 0
    }

    /// When this connection's deadline clock would expire, under the
    /// configured timeouts: the (shorter) read deadline while a message is
    /// partially buffered, the idle deadline while truly quiet, and no
    /// deadline at all while a response is in flight on a shard — a
    /// connection waiting on *us* is not idle. `None` means "no deadline".
    fn effective_deadline(&self, config: &ServerConfig) -> Option<Instant> {
        let mid_message = self.inbuf.len() > 0 || !matches!(self.read_state, ReadState::Route);
        let millis = if mid_message {
            config.read_timeout_ms
        } else if self.pending.is_empty() {
            config.idle_timeout_ms
        } else {
            0
        };
        (millis > 0).then(|| self.last_activity + Duration::from_millis(millis))
    }
}

/// What driving a connection's read side concluded.
#[derive(PartialEq, Eq)]
enum ReadOutcome {
    Alive,
    /// EOF, transport error, or an unanswerable protocol violation (e.g. an
    /// oversized newline-free line): drop the connection without a response.
    Dead,
}

/// A session in the transport's table. Sessions are keyed by id — not by
/// connection — so a session survives the death of the connection that
/// opened it: the entry is *orphaned* (owner cleared, linger clock started)
/// and a reconnecting client re-attaches with `resume` any time before the
/// linger expires.
struct SessionEntry {
    state: Arc<Mutex<Session>>,
    /// The connection currently allowed to drive this session; `None`
    /// while orphaned.
    owner: Option<ConnId>,
    /// When the owning connection died (`None` while owned).
    orphaned_at: Option<Instant>,
}

/// The event loop: owns the listener, the poller and every connection slot.
pub(crate) struct Transport {
    listener: TcpListener,
    poll: Poll,
    waker: Arc<Waker>,
    shared: Arc<Shared>,
    shards: Arc<[Shard]>,
    completions: Receiver<Completion>,
    /// Connection slots, indexed by `token - FIRST_CONN`; freed slots are
    /// reused (with a fresh generation) before the table grows.
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_generation: u64,
    /// Jobs handed to shards whose completions have not come back yet; the
    /// drain phase of shutdown ends when this reaches zero.
    outstanding: usize,
    /// Every open session, keyed by id (see [`SessionEntry`]).
    sessions: HashMap<u64, SessionEntry>,
    /// Min-heap of pending deadlines, lazily invalidated (see
    /// [`DeadlineEntry`]), swept once per poll tick.
    deadlines: BinaryHeap<Reverse<DeadlineEntry>>,
}

impl Transport {
    pub(crate) fn new(
        listener: TcpListener,
        poll: Poll,
        waker: Arc<Waker>,
        shared: Arc<Shared>,
        shards: Arc<[Shard]>,
        completions: Receiver<Completion>,
    ) -> Transport {
        Transport {
            listener,
            poll,
            waker,
            shared,
            shards,
            completions,
            conns: Vec::new(),
            free: Vec::new(),
            next_generation: 0,
            outstanding: 0,
            sessions: HashMap::new(),
            deadlines: BinaryHeap::new(),
        }
    }

    /// Runs until shutdown: poll, dispatch, pump completions. After the
    /// shutdown flag is raised the loop stops accepting and reading but
    /// keeps pumping completions and flushing writes until every job handed
    /// to the shards has been answered — no accepted frame is ever silently
    /// dropped.
    pub(crate) fn run(mut self) {
        let mut events = Events::with_capacity(256);
        let timeout = self.shared.config.poll_interval();
        loop {
            let draining = self.shared.shutting_down.load(Ordering::SeqCst);
            if draining && self.outstanding == 0 {
                self.final_flush();
                return;
            }
            if let Err(e) = self.poll.poll(&mut events, Some(timeout)) {
                if !fatal_poll_error(&e) {
                    continue;
                }
                // A persistently failing poller cannot be recovered, and
                // retrying it would busy-spin the loop at poll-interval
                // cadence forever: drain the completion channel directly
                // (blocking — there is no poller left to multiplex with),
                // flush what can be flushed, and exit.
                self.drain_without_poller();
                return;
            }
            let mut touched: Vec<usize> = Vec::new();
            for event in &events {
                match event.token() {
                    Token(LISTENER) => {
                        if !draining {
                            self.accept_all();
                        }
                    }
                    Token(WAKER) => self.waker.drain(),
                    Token(token) => {
                        self.conn_event(token, event.is_readable(), event.is_writable(), draining);
                        touched.push(token);
                    }
                }
            }
            touched.extend(self.pump_completions());
            if !draining {
                self.enforce_deadlines();
            }
            touched.sort_unstable();
            touched.dedup();
            for token in touched {
                self.after_io(token);
            }
        }
    }

    /// Sweeps every expired deadline-heap entry: kills connections whose
    /// idle / mid-message deadline truly passed, reaps orphaned sessions
    /// whose linger ran out, and re-schedules entries whose underlying
    /// clock moved (activity since the entry was pushed).
    fn enforce_deadlines(&mut self) {
        let now = Instant::now();
        let config = self.shared.config;
        while let Some(&Reverse((at, kind, a, b))) = self.deadlines.peek() {
            if at > now {
                break;
            }
            self.deadlines.pop();
            match kind {
                DL_CONN => {
                    let token = a as usize;
                    let index = token - FIRST_CONN;
                    let Some(conn) = self.conns.get_mut(index).and_then(Option::as_mut) else {
                        continue;
                    };
                    if conn.id.generation != b {
                        continue;
                    }
                    match conn.effective_deadline(&config) {
                        Some(effective) if effective <= now => {
                            let conn = self.conns[index].take().expect("checked above");
                            self.shared.timed_out.fetch_add(1, Ordering::Relaxed);
                            self.teardown(conn);
                        }
                        Some(effective) => {
                            conn.scheduled_deadline = Some(effective);
                            self.deadlines.push(Reverse((effective, DL_CONN, a, b)));
                        }
                        None => conn.scheduled_deadline = None,
                    }
                }
                _ => {
                    let session = a;
                    let linger = Duration::from_millis(config.session_linger_ms);
                    let Some(entry) = self.sessions.get(&session) else {
                        continue;
                    };
                    // Re-owned since this entry was pushed: drop it; a new
                    // orphaning pushes a fresh entry.
                    let Some(orphaned_at) = entry.orphaned_at.filter(|_| entry.owner.is_none())
                    else {
                        continue;
                    };
                    if orphaned_at + linger <= now {
                        self.sessions.remove(&session);
                        self.shared.sessions_expired.fetch_add(1, Ordering::Relaxed);
                        self.shared.open_sessions.fetch_sub(1, Ordering::Relaxed);
                    } else {
                        // Orphaned again later than this entry anticipated.
                        self.deadlines
                            .push(Reverse((orphaned_at + linger, DL_ORPHAN, session, 0)));
                    }
                }
            }
        }
    }

    /// Ensures a deadline-heap entry exists at (or before) the
    /// connection's effective deadline. O(1) when one already is — the
    /// common case on every read.
    fn arm_deadline(
        deadlines: &mut BinaryHeap<Reverse<DeadlineEntry>>,
        config: &ServerConfig,
        conn: &mut Conn,
    ) {
        if let Some(at) = conn.effective_deadline(config) {
            if conn
                .scheduled_deadline
                .is_none_or(|scheduled| at < scheduled)
            {
                conn.scheduled_deadline = Some(at);
                deadlines.push(Reverse((
                    at,
                    DL_CONN,
                    conn.id.token as u64,
                    conn.id.generation,
                )));
            }
        }
    }

    /// The completion-channel drain used when the poller has died: without
    /// a poller no new bytes can be read, but jobs already handed to the
    /// shards still complete; wait (bounded per job) for each so no
    /// accepted frame is silently dropped, then flush best-effort.
    fn drain_without_poller(&mut self) {
        while self.outstanding > 0 {
            match self.completions.recv_timeout(Duration::from_secs(5)) {
                Ok(completion) => {
                    self.outstanding = self.outstanding.saturating_sub(1);
                    self.apply_completion(completion);
                }
                Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        self.final_flush();
    }

    /// Accepts until the listener would block. Transient errors (aborted
    /// handshakes) must not kill the server; the next readiness event
    /// retries. At [`ServerConfig::max_connections`] occupancy the server
    /// load-sheds instead of admitting: one typed `overloaded` line goes
    /// out best-effort and the socket is dropped, so a connection flood
    /// can never grow the slab, the poller set, or per-connection buffers.
    fn accept_all(&mut self) {
        let limit = self.shared.config.max_connections.max(1);
        loop {
            match self.listener.accept() {
                Ok((mut stream, _)) => {
                    if self.conns.len() - self.free.len() >= limit {
                        self.shared.shed_connections.fetch_add(1, Ordering::Relaxed);
                        let mut line = overloaded_error(limit).encode();
                        line.push('\n');
                        let _ = stream.write_all(line.as_bytes());
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let index = self.free.pop().unwrap_or_else(|| {
                        self.conns.push(None);
                        self.conns.len() - 1
                    });
                    let token = index + FIRST_CONN;
                    if self
                        .poll
                        .register(&stream, Token(token), Interest::READABLE)
                        .is_err()
                    {
                        self.free.push(index);
                        continue;
                    }
                    self.next_generation += 1;
                    let id = ConnId {
                        token,
                        generation: self.next_generation,
                    };
                    self.shared.connections.fetch_add(1, Ordering::Relaxed);
                    self.shared
                        .active_connections
                        .fetch_add(1, Ordering::Relaxed);
                    let mut conn = Conn::new(stream, id);
                    Self::arm_deadline(&mut self.deadlines, &self.shared.config, &mut conn);
                    self.conns[index] = Some(conn);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
    }

    fn conn_event(&mut self, token: usize, readable: bool, writable: bool, draining: bool) {
        let index = token - FIRST_CONN;
        let Some(mut conn) = self.conns.get_mut(index).and_then(Option::take) else {
            return;
        };
        let mut alive = true;
        if writable && conn.write_pending().is_err() {
            alive = false;
        }
        if alive && readable && !draining && !conn.closing {
            alive = self.drive_read(&mut conn) == ReadOutcome::Alive;
        }
        if alive {
            Self::arm_deadline(&mut self.deadlines, &self.shared.config, &mut conn);
            self.conns[index] = Some(conn);
        } else {
            self.teardown(conn);
        }
    }

    /// Reads until the socket would block, feeding the parse state machine
    /// after every chunk.
    fn drive_read(&mut self, conn: &mut Conn) -> ReadOutcome {
        let mut scratch = [0u8; 16 * 1024];
        loop {
            match conn.stream.read(&mut scratch) {
                Ok(0) => return ReadOutcome::Dead,
                Ok(count) => {
                    conn.last_activity = Instant::now();
                    conn.inbuf.extend(&scratch[..count]);
                    if self.parse_messages(conn) == ReadOutcome::Dead {
                        return ReadOutcome::Dead;
                    }
                    if conn.closing {
                        return ReadOutcome::Alive;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return ReadOutcome::Alive,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return ReadOutcome::Dead,
            }
        }
    }

    /// Consumes every complete message currently buffered.
    fn parse_messages(&mut self, conn: &mut Conn) -> ReadOutcome {
        loop {
            if conn.closing {
                return ReadOutcome::Alive;
            }
            match conn.read_state {
                ReadState::Route => {
                    let buffered = conn.inbuf.as_slice();
                    let Some(&first) = buffered.first() else {
                        return ReadOutcome::Alive;
                    };
                    if first == BINARY_FRAME_MAGIC {
                        if buffered.len() < BINARY_HEADER_LEN {
                            return ReadOutcome::Alive;
                        }
                        self.route_binary_header(conn);
                    } else {
                        let scanned = conn.line_scanned;
                        match buffered[scanned..].iter().position(|&b| b == b'\n') {
                            Some(position) => {
                                conn.line_scanned = 0;
                                let line = conn.inbuf.take(scanned + position + 1);
                                self.handle_line(conn, &line);
                            }
                            None => {
                                // The transport-level analogue of the JSON
                                // parser's nesting-depth cap: a peer that
                                // never sends a newline must not grow server
                                // memory without bound. No response — there
                                // is no parseable request to answer.
                                if buffered.len() > self.shared.config.max_line_bytes {
                                    return ReadOutcome::Dead;
                                }
                                conn.line_scanned = buffered.len();
                                return ReadOutcome::Alive;
                            }
                        }
                    }
                }
                ReadState::BinaryPayload { ref header, needed } => {
                    if conn.inbuf.len() < needed {
                        return ReadOutcome::Alive;
                    }
                    let header = *header;
                    let payload = conn.inbuf.take(needed);
                    conn.read_state = ReadState::Route;
                    let seq = conn.alloc_slot();
                    // Zero-copy ingest: verify the checksum, then hand the
                    // wire bytes to the shard unchanged — dequantization
                    // happens in the worker, straight into the session's
                    // extraction scratch.
                    match header.verified_payload(payload) {
                        Ok(payload) => {
                            self.shared.binary_frames.fetch_add(1, Ordering::Relaxed);
                            if let Some(response) =
                                self.submit_frame(conn, seq, header.session, payload)
                            {
                                conn.fill(seq, response);
                            }
                        }
                        Err(e) => conn.fill(seq, bad_request(e)),
                    }
                }
                ReadState::BinarySkip { remaining } => {
                    let discard = remaining.min(conn.inbuf.len());
                    conn.inbuf.consume(discard);
                    let remaining = remaining - discard;
                    if remaining > 0 {
                        conn.read_state = ReadState::BinarySkip { remaining };
                        return ReadOutcome::Alive;
                    }
                    conn.read_state = ReadState::Route;
                }
            }
        }
    }

    /// Routes a buffered 36-byte binary header: a valid header either starts
    /// payload accumulation or (for a frame doomed regardless of its
    /// contents — an unknown session id) slots the typed rejection and
    /// discards the payload without ever buffering it for decode. An invalid
    /// header is answered and skipped by its declared length when that is
    /// bounded; otherwise the connection is answered and closed (reading an
    /// unbounded payload would defeat the memory cap, and skipping terabytes
    /// is indistinguishable from a hung connection).
    fn route_binary_header(&mut self, conn: &mut Conn) {
        let mut header_bytes = [0u8; BINARY_HEADER_LEN];
        header_bytes.copy_from_slice(&conn.inbuf.as_slice()[..BINARY_HEADER_LEN]);
        conn.inbuf.consume(BINARY_HEADER_LEN);
        let cap = self.shared.config.max_line_bytes as u64;
        let validated = BinaryFrameHeader::parse(&header_bytes)
            .and_then(|header| header.checked_payload_len(cap).map(|len| (header, len)));
        match validated {
            Ok((header, payload_len)) => {
                if self.owned_state(conn, header.session).is_none() {
                    let seq = conn.alloc_slot();
                    conn.fill(seq, unknown_session_error(header.session));
                    conn.read_state = ReadState::BinarySkip {
                        remaining: payload_len,
                    };
                } else {
                    conn.read_state = ReadState::BinaryPayload {
                        header,
                        needed: payload_len,
                    };
                }
            }
            Err(e) => {
                let seq = conn.alloc_slot();
                conn.fill(seq, bad_request(e));
                // The declared length sits at a fixed offset whatever else
                // is wrong with the header; use it to resynchronise if it
                // is bounded.
                let declared = wire::declared_payload_len(&header_bytes);
                if declared <= cap {
                    conn.read_state = ReadState::BinarySkip {
                        remaining: declared as usize,
                    };
                } else {
                    conn.closing = true;
                }
            }
        }
    }

    /// Handles one JSON request line (trailing newline included).
    fn handle_line(&mut self, conn: &mut Conn, line: &[u8]) {
        let seq = conn.alloc_slot();
        // Strict UTF-8 at the trust boundary: lossy replacement would
        // silently alter string fields (e.g. a camera name) inside an
        // otherwise well-formed request.
        let request = match std::str::from_utf8(line) {
            Ok(text) => match Request::decode(text.trim_end()) {
                Ok(request) => request,
                Err(e) => {
                    conn.fill(seq, bad_request(e));
                    return;
                }
            },
            Err(e) => {
                conn.fill(
                    seq,
                    bad_request(format_args!("request line is not valid UTF-8: {e}")),
                );
                return;
            }
        };
        if let Some(response) = self.handle_request(conn, seq, request) {
            conn.fill(seq, response);
        }
    }

    /// Executes one decoded request. `Some` is an immediate response for the
    /// allocated slot; `None` means the slot will be filled by a shard
    /// completion.
    fn handle_request(&mut self, conn: &mut Conn, seq: u64, request: Request) -> Option<Response> {
        match request {
            Request::Ping => Some(Response::Pong),
            Request::Negotiate { format, dispersion } => {
                // Each binary frame names its own payload encoding, so the
                // format is only echoed; the dispersion precision applies
                // to every frame submitted after this confirmation.
                conn.dispersion = dispersion;
                Some(Response::Negotiated { format, dispersion })
            }
            Request::Open { model, camera } => {
                if self.shared.shutting_down.load(Ordering::SeqCst) {
                    return Some(shutting_down_error());
                }
                let Some(entry) = self.shared.registry.get(&model) else {
                    return Some(Response::Error {
                        code: ErrorCode::UnknownModel,
                        message: format!("no model named `{model}` is registered"),
                    });
                };
                let engine = entry.open_stream();
                let series_length = engine.series_length();
                let session = self.shared.next_session.fetch_add(1, Ordering::Relaxed);
                self.sessions.insert(
                    session,
                    SessionEntry {
                        state: Arc::new(Mutex::new(Session { engine, camera })),
                        owner: Some(conn.id),
                        orphaned_at: None,
                    },
                );
                conn.sessions.insert(session);
                self.shared.sessions_opened.fetch_add(1, Ordering::Relaxed);
                self.shared.open_sessions.fetch_add(1, Ordering::Relaxed);
                Some(Response::Opened {
                    session,
                    series_length,
                })
            }
            Request::Resume { session } => {
                if self.shared.shutting_down.load(Ordering::SeqCst) {
                    return Some(shutting_down_error());
                }
                let Some(entry) = self.sessions.get_mut(&session) else {
                    return Some(unknown_session_error(session));
                };
                // A session owned by another *live* connection is not up
                // for grabs; only orphaned sessions (and the owner itself,
                // idempotently) can be re-attached.
                if entry.owner.is_some_and(|owner| owner != conn.id) {
                    return Some(unknown_session_error(session));
                }
                entry.owner = Some(conn.id);
                entry.orphaned_at = None;
                let state = Arc::clone(&entry.state);
                conn.sessions.insert(session);
                self.shared.sessions_resumed.fetch_add(1, Ordering::Relaxed);
                // The frames-applied count must be authoritative with
                // respect to any frame of this session still in flight on
                // the shard, so it is answered by the shard worker through
                // the same FIFO rather than inline here.
                let job = Job {
                    session_id: session,
                    session: state,
                    kind: JobKind::Resume,
                    conn: conn.id,
                    seq,
                };
                if self.shard_for(session).submit_control(job) {
                    self.outstanding += 1;
                    None
                } else {
                    Some(shutting_down_error())
                }
            }
            Request::Stats { session } => self.submit_control(conn, seq, session, JobKind::Stats),
            Request::Close { session } => {
                // Evict first so later requests get the honest
                // unknown-session answer even while the final counters are
                // still in flight on the shard.
                match self.owned_state(conn, session) {
                    Some(state) => {
                        conn.sessions.remove(&session);
                        self.sessions.remove(&session);
                        self.shared.open_sessions.fetch_sub(1, Ordering::Relaxed);
                        let shard = self.shard_for(session);
                        let job = Job {
                            session_id: session,
                            session: state,
                            kind: JobKind::Close,
                            conn: conn.id,
                            seq,
                        };
                        if shard.submit_control(job) {
                            self.outstanding += 1;
                            None
                        } else {
                            Some(shutting_down_error())
                        }
                    }
                    None => Some(unknown_session_error(session)),
                }
            }
        }
    }

    /// The session state `conn` may operate on under id `session`: present
    /// only when the session exists *and* this connection owns it. A
    /// session orphaned or owned elsewhere answers as unknown — ownership
    /// is transferred explicitly by `resume`, never implicitly by use.
    fn owned_state(&self, conn: &Conn, session: u64) -> Option<Arc<Mutex<Session>>> {
        self.sessions
            .get(&session)
            .filter(|entry| entry.owner == Some(conn.id))
            .map(|entry| Arc::clone(&entry.state))
    }

    fn shard_for(&self, session: u64) -> &Shard {
        &self.shards[(session % self.shards.len() as u64) as usize]
    }

    /// Submits one checksum-verified frame payload to the session's shard.
    fn submit_frame(
        &mut self,
        conn: &mut Conn,
        seq: u64,
        session: u64,
        payload: ProbPayload,
    ) -> Option<Response> {
        if self.shared.shutting_down.load(Ordering::SeqCst) {
            return Some(shutting_down_error());
        }
        let Some(state) = self.owned_state(conn, session) else {
            return Some(unknown_session_error(session));
        };
        let job = Job {
            session_id: session,
            session: state,
            kind: JobKind::Frame {
                payload,
                dispersion: conn.dispersion,
            },
            conn: conn.id,
            seq,
        };
        if self.shard_for(session).submit_frame(job) {
            self.outstanding += 1;
            None
        } else {
            Some(Response::Error {
                code: ErrorCode::Backpressure,
                message: format!(
                    "inference queue is full ({} jobs); retry after backing off",
                    self.shared.config.queue_depth.max(1)
                ),
            })
        }
    }

    /// Submits a `stats`-style control job, answering inline when the
    /// session is unknown.
    fn submit_control(
        &mut self,
        conn: &mut Conn,
        seq: u64,
        session: u64,
        kind: JobKind,
    ) -> Option<Response> {
        let Some(state) = self.owned_state(conn, session) else {
            return Some(unknown_session_error(session));
        };
        let job = Job {
            session_id: session,
            session: state,
            kind,
            conn: conn.id,
            seq,
        };
        if self.shard_for(session).submit_control(job) {
            self.outstanding += 1;
            None
        } else {
            Some(shutting_down_error())
        }
    }

    /// Drains the completion channel into connection response slots,
    /// returning the tokens that received something. Completions for
    /// connections that died in flight (or whose slot was reused — the
    /// generation check) are dropped after the accounting.
    fn pump_completions(&mut self) -> Vec<usize> {
        let mut touched = Vec::new();
        while let Ok(completion) = self.completions.try_recv() {
            self.outstanding = self.outstanding.saturating_sub(1);
            if let Some(token) = self.apply_completion(completion) {
                touched.push(token);
            }
        }
        touched
    }

    /// Slots one completion into its connection (generation-checked) and
    /// applies any eviction it carries to both the connection's session set
    /// and the transport's session table. Returns the touched token, if the
    /// connection is still the one that submitted the job.
    fn apply_completion(&mut self, completion: Completion) -> Option<usize> {
        if let Some(session) = completion.evict {
            if self
                .sessions
                .get(&session)
                .is_some_and(|entry| entry.owner == Some(completion.conn))
            {
                self.sessions.remove(&session);
                self.shared.open_sessions.fetch_sub(1, Ordering::Relaxed);
            }
        }
        let index = completion.conn.token - FIRST_CONN;
        let conn = self.conns.get_mut(index).and_then(Option::as_mut)?;
        if conn.id != completion.conn {
            return None;
        }
        if let Some(session) = completion.evict {
            conn.sessions.remove(&session);
        }
        conn.fill(completion.seq, completion.response);
        Some(completion.conn.token)
    }

    /// Post-I/O bookkeeping for one connection: move ready responses to the
    /// output buffer, push bytes, settle write interest, and finish a
    /// deferred close once everything has been said.
    fn after_io(&mut self, token: usize) {
        let index = token - FIRST_CONN;
        let Some(mut conn) = self.conns.get_mut(index).and_then(Option::take) else {
            return;
        };
        conn.flush_ready();
        if conn.write_pending().is_err() || conn.finished_closing() {
            self.teardown(conn);
            return;
        }
        // Slow-consumer eviction: a peer that stops reading while responses
        // pile up past the cap loses its connection — the backlog it
        // refuses to drain must not grow server memory without bound.
        let cap = self.shared.config.max_outbuf_bytes;
        if cap > 0 && conn.out_len() > cap {
            self.shared.evicted_slow.fetch_add(1, Ordering::Relaxed);
            self.teardown(conn);
            return;
        }
        // A connection whose in-flight responses just drained re-enters
        // "idle" — make sure an idle deadline is armed for it.
        Self::arm_deadline(&mut self.deadlines, &self.shared.config, &mut conn);
        let want_write = conn.out_len() > 0;
        if want_write != conn.write_interest {
            conn.write_interest = want_write;
            let interest = if want_write {
                Interest::READABLE | Interest::WRITABLE
            } else {
                Interest::READABLE
            };
            let _ = self.poll.reregister(&conn.stream, Token(token), interest);
        }
        self.conns[index] = Some(conn);
    }

    /// Releases a connection: deregister, free the slot (its generation is
    /// retired, so in-flight completions for it are dropped on receipt) and
    /// drop the socket. Sessions the connection owned are *orphaned* — left
    /// in the session table with a linger clock running so a reconnecting
    /// client can `resume` them — unless lingering is disabled, in which
    /// case they are reaped here.
    fn teardown(&mut self, conn: Conn) {
        let _ = self.poll.deregister(&conn.stream);
        self.free.push(conn.id.token - FIRST_CONN);
        self.shared
            .active_connections
            .fetch_sub(1, Ordering::Relaxed);
        let linger_ms = self.shared.config.session_linger_ms;
        let now = Instant::now();
        for session in conn.sessions {
            let Some(entry) = self.sessions.get_mut(&session) else {
                continue;
            };
            if entry.owner != Some(conn.id) {
                continue;
            }
            if linger_ms == 0 {
                self.sessions.remove(&session);
                self.shared.sessions_expired.fetch_add(1, Ordering::Relaxed);
                self.shared.open_sessions.fetch_sub(1, Ordering::Relaxed);
            } else {
                entry.owner = None;
                entry.orphaned_at = Some(now);
                self.deadlines.push(Reverse((
                    now + Duration::from_millis(linger_ms),
                    DL_ORPHAN,
                    session,
                    0,
                )));
            }
        }
    }

    /// One best-effort flush of every connection on the way out: shutdown
    /// has drained all outstanding jobs, so anything still buffered is a
    /// complete response that the peer may be waiting on.
    fn final_flush(&mut self) {
        for slot in &mut self.conns {
            if let Some(conn) = slot.as_mut() {
                conn.flush_ready();
                let _ = conn.write_pending();
            }
        }
    }
}

/// Whether a surfaced poll failure is unrecoverable. The vendored poller
/// already swallows `EINTR` internally (a signal-interrupted wait reports
/// as an empty timeout), so anything that still surfaces here — `EBADF` /
/// `EINVAL` from a broken epoll fd, resource exhaustion — is persistent:
/// the same call will fail the same way on the next iteration, and treating
/// it as transient busy-spins the event loop at poll-interval cadence
/// forever. The `Interrupted` check is defensive belt-and-braces for any
/// future poller that does surface it.
fn fatal_poll_error(e: &io::Error) -> bool {
    e.kind() != ErrorKind::Interrupted
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression test for the poll-error branch: a persistent poller
    /// failure must classify as fatal (drain and exit the loop) — it used
    /// to be retried unconditionally, busy-spinning the transport thread —
    /// while a genuine `EINTR`, should a poller ever surface one, must
    /// stay non-fatal.
    #[test]
    fn persistent_poll_errors_are_fatal_and_eintr_is_not() {
        for kind in [
            ErrorKind::InvalidInput,
            ErrorKind::NotFound,
            ErrorKind::OutOfMemory,
            ErrorKind::Other,
        ] {
            assert!(fatal_poll_error(&io::Error::new(kind, "persistent")));
        }
        assert!(!fatal_poll_error(&io::Error::new(
            ErrorKind::Interrupted,
            "signal"
        )));
    }
}

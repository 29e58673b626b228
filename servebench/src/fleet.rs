//! `fleet_small`: many long-lived camera sessions pipelined over a few
//! connections, driven by one writer and one reader thread speaking the
//! wire protocol directly.
//!
//! `ServeClient` waits for each reply, so it cannot keep frames in flight;
//! the generator here writes frames with `wire::encode_binary_frame` and
//! reads the JSON verdict lines with `Response::decode`, matching replies to
//! frames by the per-connection FIFO order the server guarantees.

use crate::fixture::{ping_pong, render_clip, verdict_digest, ClipShape, Model, MODEL};
use crate::stats::{latency_ms, Outcomes};
use crate::trace::{Span, Tracer};
use crate::window::{monitor, Generators, Sample};
use metaseg::DispersionPrecision;
use metaseg_data::{ProbEncoding, ProbMap};
use metaseg_serve::wire::encode_binary_frame;
use metaseg_serve::{
    ErrorCode, FrameFormat, ModelEntry, Request, Response, Server, ServerConfig, ServerHandle,
};
use mio::{Events, Interest, Poll, Token};
use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// How long a reader waits for outstanding replies after the phase ends
/// before it counts them as timed out, and how long past the phase a write
/// may block. A connection left with frames in flight is not used again.
const REPLY_GRACE: Duration = Duration::from_secs(10);

/// Parameters of the fleet.
#[derive(Debug, Clone, Copy)]
pub struct FleetParams {
    /// Long-lived sessions.
    pub sessions: usize,
    /// Connections the sessions are spread over (session `s` uses `s % conns`).
    pub conns: usize,
    /// Clip shape of every camera.
    pub shape: ClipShape,
    /// Server configuration.
    pub server: ServerConfig,
}

/// How a phase offers frames.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// Open loop: frame `k` is due at `start + k / rate`, whatever the
    /// replies do.
    Open {
        /// Aggregate frames per second.
        rate: f64,
    },
    /// Closed loop: keep `per_conn` frames in flight on every connection.
    Closed {
        /// Frames in flight per connection.
        per_conn: usize,
        /// Stop after this many frames (warm-up) instead of at the deadline.
        max_frames: Option<u64>,
    },
}

/// One frame answered with verdicts, in reply order.
pub struct Applied {
    /// Session index.
    pub session: usize,
    /// Stream position of the frame in the session's clip sequence.
    pub pos: usize,
    /// Frame id shared with every span of the frame.
    pub fid: u64,
    /// [`verdict_digest`] of the served frame index and verdicts.
    pub digest: u64,
}

/// What one phase produced.
#[derive(Default)]
pub struct PhaseOut {
    /// Latency in ms of each frame answered with verdicts: from the due
    /// instant (open loop) or from the send (closed loop).
    pub latency_ms: Vec<f64>,
    /// How late the writer started each frame, in ms (open loop only).
    pub late_ms: Vec<f64>,
    /// Attempts and their endings (`correct` is filled in by the replay).
    pub outcomes: Outcomes,
    /// Frames answered with verdicts, in reply order.
    pub applied: Vec<Applied>,
    /// When each frame answered with verdicts came back.
    pub done_at: Vec<Instant>,
    /// CPU samples, one per window.
    pub samples: Vec<Sample>,
    /// Spans of both generator threads.
    pub spans: Vec<Span>,
    /// Frames still in flight when the reader gave up, plus replies that
    /// matched no frame in flight: the connections are out of step.
    pub stranded: u64,
}

/// A running fleet: the server, its connections and open sessions.
pub struct Fleet {
    params: FleetParams,
    handle: ServerHandle,
    conns: Vec<TcpStream>,
    /// Server-assigned session ids.
    pub session_ids: Vec<u64>,
    /// Each camera's clip.
    pub clips: Vec<Vec<ProbMap>>,
    next_pos: Vec<usize>,
    /// An earlier phase left the connections out of step: replies still
    /// owed would be matched against the wrong frames.
    stranded: bool,
    /// Latency of every session open during set-up, in ms.
    pub open_ms: Vec<f64>,
    /// Seconds set-up spent rendering clips.
    pub render_s: f64,
}

/// Sends one JSON request line on a blocking connection and reads the one
/// reply line. Used only while nothing else is in flight, so no byte past
/// the newline can arrive.
fn roundtrip(stream: &mut TcpStream, request: &Request) -> io::Result<Response> {
    let mut line = request.encode();
    line.push('\n');
    stream.write_all(line.as_bytes())?;
    let mut reply = Vec::new();
    let mut chunk = [0u8; 4096];
    while !reply.ends_with(b"\n") {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(ErrorKind::UnexpectedEof.into());
        }
        reply.extend_from_slice(&chunk[..n]);
    }
    let text = std::str::from_utf8(&reply[..reply.len() - 1])
        .map_err(|e| io::Error::new(ErrorKind::InvalidData, e))?;
    Response::decode(text).map_err(|e| io::Error::new(ErrorKind::InvalidData, e))
}

impl Fleet {
    /// Set-up: load the checkpoint, render every camera's clip, spawn the
    /// server, connect, negotiate binary-f64 frames and open the sessions.
    pub fn setup(params: FleetParams, model: &Model, seed: u64) -> Fleet {
        let registry = model.registry();
        let render = Instant::now();
        let clips: Vec<Vec<ProbMap>> = (0..params.sessions)
            .map(|camera| render_clip(seed, camera as u64, params.shape))
            .collect();
        let render_s = render.elapsed().as_secs_f64();
        let handle = Server::spawn("127.0.0.1:0", registry, params.server).expect("bind succeeds");
        let mut conns: Vec<TcpStream> = (0..params.conns)
            .map(|_| {
                let mut stream = TcpStream::connect(handle.local_addr()).expect("connect succeeds");
                stream.set_nodelay(true).expect("nodelay");
                let negotiated = roundtrip(
                    &mut stream,
                    &Request::Negotiate {
                        format: FrameFormat::Binary(ProbEncoding::F64),
                        dispersion: DispersionPrecision::F64,
                    },
                )
                .expect("negotiate round trip");
                assert!(
                    matches!(negotiated, Response::Negotiated { .. }),
                    "{negotiated:?}"
                );
                stream
            })
            .collect();
        let mut open_ms = Vec::with_capacity(params.sessions);
        let session_ids = (0..params.sessions)
            .map(|camera| {
                let start = Instant::now();
                let reply = roundtrip(
                    &mut conns[camera % params.conns],
                    &Request::Open {
                        model: MODEL.into(),
                        camera: format!("cam-{camera}"),
                    },
                )
                .expect("open round trip");
                open_ms.push(start.elapsed().as_secs_f64() * 1e3);
                match reply {
                    Response::Opened { session, .. } => session,
                    other => panic!("open refused: {other:?}"),
                }
            })
            .collect();
        Fleet {
            next_pos: vec![0; params.sessions],
            stranded: false,
            params,
            handle,
            conns,
            session_ids,
            clips,
            open_ms,
            render_s,
        }
    }

    /// Drops the connections and shuts the server down (a set-up repeat
    /// that is not measured further).
    pub fn discard(self) {
        drop(self.conns);
        self.handle.shutdown();
    }

    /// The model entry sessions were opened with.
    pub fn entry(&self) -> Arc<ModelEntry> {
        self.handle.registry().get(MODEL).expect("model registered")
    }

    /// The running server.
    pub fn handle(&self) -> &ServerHandle {
        &self.handle
    }

    /// Whether an earlier phase stranded frames (later phases are skipped).
    pub fn stranded(&self) -> bool {
        self.stranded
    }

    /// Runs one phase; frame ids start at `fid_base`. Skipped (nothing
    /// attempted) once a phase has stranded frames.
    pub fn run(
        &mut self,
        load: Load,
        duration: Duration,
        fid_base: u64,
        traced: bool,
        origin: Instant,
    ) -> PhaseOut {
        if self.stranded {
            return PhaseOut::default();
        }
        for conn in &self.conns {
            conn.set_nonblocking(true).expect("nonblocking");
        }
        let shared = Shared::new(self.conns.len());
        let t0 = Instant::now();
        let t_end = t0 + duration;
        let deadline = t_end + REPLY_GRACE;
        let conns = &self.conns;
        let clips = &self.clips;
        let session_ids = &self.session_ids;
        let next_pos = &mut self.next_pos;
        let params = self.params;
        let generators = Generators::default();
        let (writer, reader, samples) = thread::scope(|scope| {
            let writer = scope.spawn(|| {
                let _registered = generators.register();
                let mut w = Writer {
                    conns,
                    clips,
                    session_ids,
                    next_pos,
                    params,
                    shared: &shared,
                    tracer: Tracer::new(origin, 1, traced),
                    poll: Poll::new().expect("poller"),
                    late_ms: Vec::new(),
                    sent: 0,
                    fid: fid_base,
                    deadline,
                };
                for (i, conn) in conns.iter().enumerate() {
                    w.poll
                        .register(conn, Token(i), Interest::WRITABLE)
                        .expect("register");
                }
                w.drive(load, t0, t_end);
                shared.writer_done.store(true, Ordering::SeqCst);
                (w.late_ms, w.sent, w.tracer.into_spans())
            });
            let reader = scope.spawn(|| {
                let _registered = generators.register();
                read_replies(conns, session_ids, &shared, load, deadline, traced, origin)
            });
            generators.wait_for(2);
            let samples = monitor(
                &generators,
                || writer.is_finished() && reader.is_finished(),
                || {},
            );
            (
                writer.join().expect("writer thread"),
                reader.join().expect("reader thread"),
                samples,
            )
        });
        for conn in &self.conns {
            conn.set_nonblocking(false).expect("blocking");
        }
        let (late_ms, sent, writer_spans) = writer;
        let mut out = reader;
        out.samples = samples;
        out.late_ms = late_ms;
        out.outcomes.attempted = sent;
        out.outcomes.timed_out =
            sent - (out.outcomes.refused + out.outcomes.errored + out.applied.len() as u64);
        out.spans.extend(writer_spans);
        self.stranded = out.stranded > 0;
        out
    }

    /// Closes every session (timing each close) and shuts the server down.
    /// Connections out of step are dropped without closing.
    pub fn teardown(mut self) -> (Vec<f64>, metaseg_serve::ServerStats) {
        let mut close_ms = Vec::with_capacity(self.session_ids.len());
        let session_ids = if self.stranded {
            &[][..]
        } else {
            &self.session_ids[..]
        };
        for (camera, &session) in session_ids.iter().enumerate() {
            let start = Instant::now();
            let reply = roundtrip(
                &mut self.conns[camera % self.params.conns],
                &Request::Close { session },
            )
            .expect("close round trip");
            close_ms.push(start.elapsed().as_secs_f64() * 1e3);
            assert!(matches!(reply, Response::Closed { .. }), "{reply:?}");
        }
        drop(self.conns);
        (close_ms, self.handle.shutdown())
    }
}

/// State the writer and reader share: per-connection FIFOs of frames in
/// flight, and the credit signal of the closed loop.
struct Shared {
    inflight: Mutex<Vec<VecDeque<Pending>>>,
    credit: Condvar,
    writer_done: AtomicBool,
}

impl Shared {
    fn new(conns: usize) -> Self {
        Self {
            inflight: Mutex::new((0..conns).map(|_| VecDeque::new()).collect()),
            credit: Condvar::new(),
            writer_done: AtomicBool::new(false),
        }
    }
}

struct Pending {
    fid: u64,
    session: usize,
    pos: usize,
    due: Instant,
    sent: Instant,
}

struct Writer<'a> {
    conns: &'a [TcpStream],
    clips: &'a [Vec<ProbMap>],
    session_ids: &'a [u64],
    next_pos: &'a mut Vec<usize>,
    params: FleetParams,
    shared: &'a Shared,
    tracer: Tracer,
    poll: Poll,
    late_ms: Vec<f64>,
    sent: u64,
    fid: u64,
    /// A write still blocked at this instant gives up.
    deadline: Instant,
}

impl Writer<'_> {
    /// Offers frames until `t_end`, or until a write gives up.
    fn drive(&mut self, load: Load, t0: Instant, t_end: Instant) {
        match load {
            Load::Open { rate } => {
                for k in 0u64.. {
                    let due = t0 + Duration::from_secs_f64(k as f64 / rate);
                    if due >= t_end {
                        break;
                    }
                    let now = Instant::now();
                    if due > now {
                        thread::sleep(due - now);
                    }
                    let start = Instant::now();
                    self.late_ms.push(latency_ms(due, start));
                    if self
                        .send((k % self.params.sessions as u64) as usize, due, start)
                        .is_err()
                    {
                        return;
                    }
                }
            }
            Load::Closed {
                per_conn,
                max_frames,
            } => {
                let conns = self.conns.len();
                let mut cursor = vec![0usize; conns];
                while Instant::now() < t_end && max_frames.is_none_or(|max| self.sent < max) {
                    let ready: Vec<usize> = {
                        let mut inflight = self.shared.inflight.lock().expect("inflight lock");
                        loop {
                            let ready: Vec<usize> = (0..conns)
                                .filter(|&c| inflight[c].len() < per_conn)
                                .collect();
                            if !ready.is_empty() || Instant::now() >= t_end {
                                break ready;
                            }
                            inflight = self
                                .shared
                                .credit
                                .wait_timeout(inflight, Duration::from_millis(50))
                                .expect("credit wait")
                                .0;
                        }
                    };
                    for conn in ready {
                        if max_frames.is_some_and(|max| self.sent >= max) {
                            break;
                        }
                        // Connection `c` owns sessions c, c + conns, …
                        let owned = (self.params.sessions - conn).div_ceil(conns);
                        let session = conn + conns * (cursor[conn] % owned);
                        cursor[conn] += 1;
                        let now = Instant::now();
                        if self.send(session, now, now).is_err() {
                            return;
                        }
                    }
                }
            }
        }
    }

    /// Writes one frame. A frame that could not be written whole stays in
    /// flight, so the reader counts it as timed out.
    fn send(&mut self, session: usize, due: Instant, start: Instant) -> io::Result<()> {
        let conn = session % self.conns.len();
        let pos = self.next_pos[session];
        self.next_pos[session] += 1;
        let fid = self.fid;
        self.fid += 1;
        let clip = &self.clips[session];
        let map = &clip[ping_pong(pos, clip.len())];
        let id = self.session_ids[session];
        let bytes = self.tracer.time("wire.encode", fid, 0, || {
            encode_binary_frame(id, map, ProbEncoding::F64)
        });
        self.shared.inflight.lock().expect("inflight lock")[conn].push_back(Pending {
            fid,
            session,
            pos,
            due,
            sent: start,
        });
        self.sent += 1;
        write_all(&self.conns[conn], &bytes, &mut self.poll, self.deadline)
    }
}

/// `write_all` over a nonblocking socket, waiting for writability until
/// `deadline`.
fn write_all(
    mut stream: &TcpStream,
    mut bytes: &[u8],
    poll: &mut Poll,
    deadline: Instant,
) -> io::Result<()> {
    let mut events = Events::with_capacity(4);
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if Instant::now() > deadline {
                    return Err(ErrorKind::TimedOut.into());
                }
                poll.poll(&mut events, Some(Duration::from_millis(100)))?;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Reads and matches replies until the writer is done and nothing is in
/// flight, or until `deadline`; frames still in flight then are stranded.
fn read_replies(
    conns: &[TcpStream],
    session_ids: &[u64],
    shared: &Shared,
    load: Load,
    deadline: Instant,
    traced: bool,
    origin: Instant,
) -> PhaseOut {
    let mut out = PhaseOut::default();
    let mut tracer = Tracer::new(origin, 2, traced);
    let mut poll = Poll::new().expect("poller");
    for (i, conn) in conns.iter().enumerate() {
        poll.register(conn, Token(i), Interest::READABLE)
            .expect("register");
    }
    let mut events = Events::with_capacity(8);
    let mut buffers: Vec<Vec<u8>> = vec![Vec::new(); conns.len()];
    let mut chunk = vec![0u8; 1 << 16];
    loop {
        poll.poll(&mut events, Some(Duration::from_millis(10)))
            .expect("poll");
        for event in events.iter() {
            let c = event.token().0;
            loop {
                match (&conns[c]).read(&mut chunk) {
                    Ok(0) => break,
                    Ok(n) => buffers[c].extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => panic!("reply read failed: {e}"),
                }
            }
            let mut consumed = 0;
            while let Some(nl) = buffers[c][consumed..].iter().position(|&b| b == b'\n') {
                let line = &buffers[c][consumed..consumed + nl];
                consumed += nl + 1;
                let Some(pending) = shared.inflight.lock().expect("inflight lock")[c].pop_front()
                else {
                    out.stranded += 1;
                    continue;
                };
                let response = tracer.time("protocol.decode", pending.fid, 0, || {
                    std::str::from_utf8(line)
                        .ok()
                        .and_then(|text| Response::decode(text).ok())
                });
                let done = Instant::now();
                shared.credit.notify_one();
                tracer.record("client.roundtrip", pending.fid, pending.sent, done);
                match response {
                    Some(Response::Verdicts {
                        session,
                        frame,
                        verdicts,
                    }) if session == session_ids[pending.session] => {
                        // Refused and errored frames are failures, not
                        // fast frames: only verdicts carry a latency.
                        out.latency_ms.push(match load {
                            Load::Open { .. } => latency_ms(pending.due, done),
                            Load::Closed { .. } => latency_ms(pending.sent, done),
                        });
                        out.done_at.push(done);
                        out.applied.push(Applied {
                            session: pending.session,
                            pos: pending.pos,
                            fid: pending.fid,
                            digest: verdict_digest(frame, &verdicts),
                        });
                    }
                    Some(Response::Error {
                        code: ErrorCode::Backpressure | ErrorCode::Overloaded,
                        ..
                    }) => out.outcomes.refused += 1,
                    _ => out.outcomes.errored += 1,
                }
            }
            buffers[c].drain(..consumed);
        }
        let idle = shared
            .inflight
            .lock()
            .expect("inflight lock")
            .iter()
            .all(VecDeque::is_empty);
        if shared.writer_done.load(Ordering::SeqCst) && idle {
            break;
        }
        if Instant::now() > deadline {
            break;
        }
    }
    out.stranded += shared
        .inflight
        .lock()
        .expect("inflight lock")
        .iter()
        .map(|fifo| fifo.len() as u64)
        .sum::<u64>();
    out.spans = tracer.into_spans();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pending(fid: u64, at: Instant) -> Pending {
        Pending {
            fid,
            session: 0,
            pos: 0,
            due: at,
            sent: at,
        }
    }

    /// A stub server that answers one of two frames in time and the other
    /// only after the reader's deadline: the late frame is stranded, not
    /// matched, and the refused one carries no latency.
    #[test]
    fn a_reply_after_the_deadline_strands_its_frame() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut stub, _) = listener.accept().unwrap();
        client.set_nonblocking(true).unwrap();
        let shared = Shared::new(1);
        let t0 = Instant::now();
        {
            let mut inflight = shared.inflight.lock().unwrap();
            inflight[0].push_back(pending(1, t0));
            inflight[0].push_back(pending(2, t0));
        }
        shared.writer_done.store(true, Ordering::SeqCst);
        let refused = Response::Error {
            code: ErrorCode::Backpressure,
            message: "queue full".into(),
        };
        stub.write_all(format!("{}\n", refused.encode()).as_bytes())
            .unwrap();
        let deadline = t0 + Duration::from_millis(200);
        let conns = [client];
        let out = read_replies(
            &conns,
            &[7],
            &shared,
            Load::Closed {
                per_conn: 2,
                max_frames: None,
            },
            deadline,
            false,
            t0,
        );
        assert!(Instant::now() >= deadline);
        assert_eq!(out.outcomes.refused, 1);
        assert_eq!(out.outcomes.errored, 0);
        assert!(out.applied.is_empty());
        assert!(out.latency_ms.is_empty(), "a refusal is not a fast frame");
        assert_eq!(out.stranded, 1);

        // The late reply now arrives; a reader with nothing in flight
        // counts it as out of step instead of matching it to a frame.
        let late = Response::Error {
            code: ErrorCode::Internal,
            message: "late".into(),
        };
        stub.write_all(format!("{}\n", late.encode()).as_bytes())
            .unwrap();
        let fresh = Shared::new(1);
        fresh.writer_done.store(true, Ordering::SeqCst);
        let out = read_replies(
            &conns,
            &[7],
            &fresh,
            Load::Closed {
                per_conn: 2,
                max_frames: None,
            },
            Instant::now() + Duration::from_millis(200),
            false,
            t0,
        );
        assert_eq!(out.stranded, 1);
        assert_eq!(out.outcomes.errored, 0);
    }
}

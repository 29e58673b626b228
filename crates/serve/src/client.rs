//! A small blocking client for the serve protocol.
//!
//! Used by the integration tests, the demo example and the loadtest binary;
//! production consumers in other languages speak the protocol directly:
//! JSON control lines plus checksummed binary frames (see [`crate::wire`]).
//!
//! The client is *deadline-bounded and retrying* by default:
//! [`ServeClient::connect`] applies the [`ClientConfig::default`] socket
//! deadlines (a stalled server surfaces as the typed, retryable
//! [`ClientError::TimedOut`] instead of hanging a thread forever), and the
//! `*_with_retry` helpers layer jittered exponential backoff on
//! backpressure/overload plus reconnect-and-resume on transport faults: a
//! chaos-killed connection does not kill its sessions — the client
//! re-attaches with [`Request::Resume`] and picks up exactly where the
//! server says it stopped.

use crate::protocol::{ErrorCode, FrameFormat, ProtocolError, Request, Response};
use crate::wire::encode_binary_frame;
use metaseg::stream::{SegmentVerdict, SessionStats};
use metaseg::DispersionPrecision;
use metaseg_data::{ProbEncoding, ProbMap};
use std::collections::HashMap;
use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::thread;
use std::time::Duration;

/// Client-side failure of one request.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed.
    Io(io::Error),
    /// A socket deadline expired mid-request. Retryable — but the stream
    /// may hold a half-read response, so retry on a fresh connection
    /// (see [`ServeClient::submit_with_retry`]).
    TimedOut(io::Error),
    /// The server's reply could not be decoded, or had an unexpected shape.
    Protocol(String),
    /// The server answered with a typed error.
    Server {
        /// Machine-readable error class.
        code: ErrorCode,
        /// Human-readable description.
        message: String,
    },
}

impl ClientError {
    /// The typed server error code, when this is a server-side rejection.
    pub fn server_code(&self) -> Option<ErrorCode> {
        match self {
            ClientError::Server { code, .. } => Some(*code),
            _ => None,
        }
    }

    /// Whether retrying can plausibly succeed: overload rejections
    /// ([`ErrorCode::Backpressure`], [`ErrorCode::Overloaded`]) retry on
    /// the same connection after backing off; timeouts, transport errors
    /// and desynchronised replies retry on a *fresh* connection (the
    /// current stream may hold partial garbage). Other server rejections —
    /// unknown session/model, bad request, shutting down, internal — are
    /// verdicts, not weather, and retrying them verbatim cannot help.
    pub fn is_retryable(&self) -> bool {
        match self {
            ClientError::Io(_) | ClientError::TimedOut(_) | ClientError::Protocol(_) => true,
            ClientError::Server { code, .. } => {
                matches!(code, ErrorCode::Backpressure | ErrorCode::Overloaded)
            }
        }
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::TimedOut(e) => write!(f, "request deadline expired: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::Server { code, message } => write!(f, "server error [{code}]: {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(value: io::Error) -> Self {
        // On Unix an expired `SO_RCVTIMEO`/`SO_SNDTIMEO` surfaces as
        // `WouldBlock`, on Windows as `TimedOut`; fold both into the typed
        // retryable variant so every `?` site classifies deadlines for free.
        match value.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => ClientError::TimedOut(value),
            _ => ClientError::Io(value),
        }
    }
}

/// Socket deadlines and retry policy of a [`ServeClient`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientConfig {
    /// Deadline for establishing a TCP connection.
    pub connect_timeout: Duration,
    /// Socket read deadline (`None` blocks forever — the pre-chaos
    /// behaviour; opt into it explicitly if you must).
    pub read_timeout: Option<Duration>,
    /// Socket write deadline (`None` blocks forever).
    pub write_timeout: Option<Duration>,
    /// Attempts per `*_with_retry` operation (including the first).
    pub max_retries: usize,
    /// First backoff delay; doubles per attempt.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// Seed of the deterministic backoff jitter (multiplies each delay by
    /// a factor in `[0.5, 1.5)` so a fleet of retrying cameras does not
    /// stampede in lockstep).
    pub jitter_seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(10),
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            max_retries: 8,
            backoff_base: Duration::from_millis(20),
            backoff_max: Duration::from_secs(2),
            jitter_seed: 0xC0FF_EE00,
        }
    }
}

/// What [`ServeClient::submit_with_retry`] concluded about one frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Submission {
    /// The server answered this submission directly.
    Served {
        /// Index of the frame within the session.
        frame: usize,
        /// One verdict per tracked segment, in record order.
        verdicts: Vec<SegmentVerdict>,
    },
    /// The frame was applied server-side but its response was lost to a
    /// connection fault: after reconnect-and-resume the server reported a
    /// frames-applied count past this frame, so resubmitting would
    /// double-apply. The verdicts are gone with the dead connection.
    Applied {
        /// Index of the frame within the session.
        frame: usize,
    },
}

impl From<ProtocolError> for ClientError {
    fn from(value: ProtocolError) -> Self {
        ClientError::Protocol(value.to_string())
    }
}

/// A blocking connection to a serve instance.
///
/// Frames go out as binary frames of [`crate::wire`], lossless
/// [`FrameFormat::Binary`]`(`[`ProbEncoding::F64`]`)` until
/// [`ServeClient::negotiate`] picks another encoding; control operations
/// and all responses are JSON lines.
///
/// The client remembers the resolved peer addresses, the frame
/// format/dispersion and the per-session applied-frame counts, so the
/// `*_with_retry` helpers can transparently reconnect, renegotiate and
/// [`ServeClient::resume`] sessions after a connection fault.
#[derive(Debug)]
pub struct ServeClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    format: FrameFormat,
    dispersion: DispersionPrecision,
    config: ClientConfig,
    peers: Vec<SocketAddr>,
    /// Per-session count of frames the server has *acknowledged applying*
    /// (open → 0, each served frame `n` → `n + 1`, resume → server's
    /// authoritative count). Lets `submit_with_retry` detect the
    /// applied-but-response-lost case without double-applying.
    acked: HashMap<u64, usize>,
    reconnects: usize,
    jitter_state: u64,
}

impl ServeClient {
    /// Connects to a running server with [`ClientConfig::default`]: frames
    /// go out as binary-f64, and — deliberately — socket read/write
    /// deadlines applied, so a wedged or maliciously slow server surfaces
    /// as [`ClientError::TimedOut`] instead of hanging the calling thread.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the connection fails.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connects with an explicit deadline/retry policy.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when resolution or connection fails.
    pub fn connect_with(addr: impl ToSocketAddrs, config: ClientConfig) -> io::Result<Self> {
        let peers: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let (reader, writer) = Self::establish(&peers, &config)?;
        Ok(Self {
            reader,
            writer,
            format: FrameFormat::Binary(ProbEncoding::F64),
            dispersion: DispersionPrecision::F64,
            jitter_state: config.jitter_seed,
            config,
            peers,
            acked: HashMap::new(),
            reconnects: 0,
        })
    }

    /// Dials the first reachable resolved peer and applies the socket
    /// deadlines from the config.
    fn establish(
        peers: &[SocketAddr],
        config: &ClientConfig,
    ) -> io::Result<(BufReader<TcpStream>, TcpStream)> {
        let mut last: Option<io::Error> = None;
        for peer in peers {
            match TcpStream::connect_timeout(peer, config.connect_timeout) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(config.read_timeout)?;
                    stream.set_write_timeout(config.write_timeout)?;
                    let reader = BufReader::new(stream.try_clone()?);
                    return Ok((reader, stream));
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "no addresses to connect to")
        }))
    }

    /// How many times this client has re-established its connection.
    pub fn reconnects(&self) -> usize {
        self.reconnects
    }

    /// The active deadline/retry policy.
    pub fn config(&self) -> &ClientConfig {
        &self.config
    }

    /// The frame-submission format currently in effect.
    pub fn frame_format(&self) -> FrameFormat {
        self.format
    }

    /// Chooses the payload encoding of subsequent [`ServeClient::submit`]
    /// calls, once the server has echoed it (frame headers name their
    /// encoding, so the server keeps no per-connection format). Also
    /// resets the connection's dispersion precision to the exact
    /// [`DispersionPrecision::F64`] default.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or a typed server rejection; the format in
    /// effect is unchanged on failure.
    pub fn negotiate(&mut self, format: FrameFormat) -> Result<(), ClientError> {
        self.negotiate_with_dispersion(format, DispersionPrecision::F64)
    }

    /// Like [`ServeClient::negotiate`], but additionally asks the server to
    /// run its dispersion scan at the given precision for this connection's
    /// frames. [`DispersionPrecision::F32`] is the vectorised fast path
    /// (metrics within ~1e-4 relative of the exact f64 scan);
    /// [`DispersionPrecision::F64`] is the exact default.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or a typed server rejection; the format in
    /// effect is unchanged on failure.
    pub fn negotiate_with_dispersion(
        &mut self,
        format: FrameFormat,
        dispersion: DispersionPrecision,
    ) -> Result<(), ClientError> {
        self.expect(&Request::Negotiate { format, dispersion }, |r| match r {
            Response::Negotiated { format, .. } => Ok(format),
            other => Err(other),
        })
        .map(|confirmed| {
            self.format = confirmed;
            // Remembered so a reconnect can renegotiate the same terms.
            self.dispersion = dispersion;
        })
    }

    /// Sends one request and reads its response. Server-side `Error`
    /// responses are returned as `Ok(Response::Error { .. })` here; the
    /// typed helpers below turn them into [`ClientError::Server`].
    ///
    /// # Errors
    ///
    /// Fails on transport errors and undecodable replies.
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        writeln!(self.writer, "{}", request.encode())?;
        self.writer.flush()?;
        self.read_response()
    }

    /// Reads one JSON response line (every response is a JSON line, whatever
    /// format the request went out in).
    fn read_response(&mut self) -> Result<Response, ClientError> {
        let mut reply = String::new();
        let read = self.reader.read_line(&mut reply)?;
        if read == 0 {
            return Err(ClientError::Protocol(
                "server closed the connection".to_string(),
            ));
        }
        Ok(Response::decode(reply.trim_end())?)
    }

    fn finish<T>(
        &mut self,
        response: Response,
        extract: impl FnOnce(Response) -> Result<T, Response>,
    ) -> Result<T, ClientError> {
        match response {
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => extract(other)
                .map_err(|r| ClientError::Protocol(format!("unexpected response {r:?}"))),
        }
    }

    fn expect<T>(
        &mut self,
        request: &Request,
        extract: impl FnOnce(Response) -> Result<T, Response>,
    ) -> Result<T, ClientError> {
        let response = self.request(request)?;
        self.finish(response, extract)
    }

    /// Opens a camera session; returns `(session id, series length)`.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or a typed server rejection.
    pub fn open(&mut self, model: &str, camera: &str) -> Result<(u64, usize), ClientError> {
        self.expect(
            &Request::Open {
                model: model.to_string(),
                camera: camera.to_string(),
            },
            |r| match r {
                Response::Opened {
                    session,
                    series_length,
                } => Ok((session, series_length)),
                other => Err(other),
            },
        )
        .inspect(|(session, _)| {
            self.acked.insert(*session, 0);
        })
    }

    /// Submits one frame as a binary frame in the chosen encoding; returns
    /// `(frame index, verdicts)`.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or a typed server rejection —
    /// [`ErrorCode::Backpressure`] is the retryable overload signal.
    pub fn submit(
        &mut self,
        session: u64,
        probs: &ProbMap,
    ) -> Result<(usize, Vec<SegmentVerdict>), ClientError> {
        // Length-prefixed binary frame out (no newline), JSON response
        // line back.
        let FrameFormat::Binary(encoding) = self.format;
        self.writer
            .write_all(&encode_binary_frame(session, probs, encoding))?;
        self.writer.flush()?;
        let response = self.read_response()?;
        self.finish(response, |r| match r {
            // Guard on the session id so a desynchronised stream can never
            // mis-attribute another session's verdicts to this frame.
            Response::Verdicts {
                session: s,
                frame,
                verdicts,
            } if s == session => Ok((frame, verdicts)),
            other => Err(other),
        })
        .inspect(|(frame, _)| {
            self.acked.insert(session, frame + 1);
        })
    }

    /// Fetches the session's statistics snapshot.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or a typed server rejection.
    pub fn stats(&mut self, session: u64) -> Result<SessionStats, ClientError> {
        self.expect(&Request::Stats { session }, |r| match r {
            Response::Stats { stats, .. } => Ok(stats),
            other => Err(other),
        })
    }

    /// Closes a session; returns its final statistics.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or a typed server rejection.
    pub fn close(&mut self, session: u64) -> Result<SessionStats, ClientError> {
        self.expect(&Request::Close { session }, |r| match r {
            Response::Closed { stats, .. } => Ok(stats),
            other => Err(other),
        })
        .inspect(|_| {
            self.acked.remove(&session);
        })
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or a typed server rejection.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.expect(&Request::Ping, |r| match r {
            Response::Pong => Ok(()),
            other => Err(other),
        })
    }

    /// Re-attaches a session opened on an earlier (possibly dead)
    /// connection of this server; returns the server's authoritative count
    /// of frames applied so far. Sessions are keyed by id server-side and
    /// linger for a configurable window after their connection dies, so a
    /// chaos-killed connection does not lose its stream state.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or a typed server rejection —
    /// [`ErrorCode::UnknownSession`] when the session expired, was closed,
    /// or is still owned by another live connection.
    pub fn resume(&mut self, session: u64) -> Result<usize, ClientError> {
        self.expect(&Request::Resume { session }, |r| match r {
            Response::Resumed {
                session: s, frames, ..
            } if s == session => Ok(frames),
            other => Err(other),
        })
        .inspect(|frames| {
            self.acked.insert(session, *frames);
        })
    }

    /// Tears down the current stream and dials a fresh connection to the
    /// remembered peers, renegotiating a non-default dispersion precision.
    /// On failure the desired terms are retained, so a later attempt
    /// negotiates them again.
    ///
    /// # Errors
    ///
    /// Fails when no peer accepts the connection or renegotiation fails.
    pub fn reconnect(&mut self) -> Result<(), ClientError> {
        // Hasten the server-side EOF of the old connection so the session
        // orphaning (and thus resume) happens promptly.
        let _ = self.writer.shutdown(Shutdown::Both);
        let (reader, writer) = Self::establish(&self.peers, &self.config)?;
        self.reader = reader;
        self.writer = writer;
        self.reconnects += 1;
        // A fresh connection starts on the f64 dispersion scan server-side;
        // restore a negotiated precision before any frame goes out. A
        // failure here leaves the client unable to submit at the right
        // precision — callers retry reconnect().
        if self.dispersion != DispersionPrecision::F64 {
            let (format, dispersion) = (self.format, self.dispersion);
            self.negotiate_with_dispersion(format, dispersion)?;
        }
        Ok(())
    }

    /// Reconnects and resumes `session`, retrying with backoff. Retries an
    /// `unknown-session` denial too: right after a connection fault the
    /// server may not have processed the old connection's death yet, in
    /// which case the session is still owned by the dying connection and
    /// resume is briefly denied.
    fn reestablish(&mut self, session: u64) -> Result<usize, ClientError> {
        let mut last: Option<ClientError> = None;
        for attempt in 0..self.config.max_retries.max(1) {
            if let Err(e) = self.reconnect() {
                last = Some(e);
                self.backoff(attempt);
                continue;
            }
            match self.resume(session) {
                Ok(frames) => return Ok(frames),
                Err(e)
                    if e.is_retryable() || e.server_code() == Some(ErrorCode::UnknownSession) =>
                {
                    last = Some(e);
                    self.backoff(attempt);
                }
                Err(e) => return Err(e),
            }
        }
        Err(last
            .unwrap_or_else(|| ClientError::Protocol("reconnect attempts exhausted".to_string())))
    }

    /// Submits one frame, riding out transient failure: overload
    /// rejections back off and retry on the same connection; transport
    /// faults, timeouts, desynchronised replies and `bad-request` (a frame
    /// corrupted *on the wire* fails the binary checksum and is rejected
    /// without being applied — and the stream past the corruption is
    /// suspect) reconnect, resume the session and — unless the server
    /// reports the frame as already applied — resubmit. The
    /// applied-but-response-lost case comes back as [`Submission::Applied`]
    /// so the stream never double-applies a frame.
    ///
    /// # Errors
    ///
    /// Fails when retries are exhausted or on a non-retryable server
    /// rejection (unknown session/model, shutdown, internal error).
    pub fn submit_with_retry(
        &mut self,
        session: u64,
        probs: &ProbMap,
    ) -> Result<Submission, ClientError> {
        let expected = self.acked.get(&session).copied().unwrap_or(0);
        let mut last: Option<ClientError> = None;
        for attempt in 0..self.config.max_retries.max(1) {
            match self.submit(session, probs) {
                Ok((frame, verdicts)) => return Ok(Submission::Served { frame, verdicts }),
                Err(
                    e @ ClientError::Server {
                        code: ErrorCode::Backpressure | ErrorCode::Overloaded,
                        ..
                    },
                ) => {
                    last = Some(e);
                    self.backoff(attempt);
                }
                Err(
                    e @ ClientError::Server {
                        code:
                            ErrorCode::UnknownSession
                            | ErrorCode::UnknownModel
                            | ErrorCode::ShuttingDown
                            | ErrorCode::Internal,
                        ..
                    },
                ) => return Err(e),
                Err(e) => {
                    // Transport fault / timeout / desync / wire-corrupted
                    // frame: the connection is suspect and (except for the
                    // typed rejection) we cannot know whether the frame
                    // landed. Reconnect, resume, and let the server's
                    // applied count arbitrate.
                    last = Some(e);
                    let frames = self.reestablish(session)?;
                    if frames > expected {
                        return Ok(Submission::Applied { frame: frames - 1 });
                    }
                }
            }
        }
        Err(last.unwrap_or_else(|| ClientError::Protocol("submit attempts exhausted".to_string())))
    }

    /// Closes a session, riding out transient failure like
    /// [`ServeClient::submit_with_retry`]. Returns `Ok(None)` when the
    /// session is already gone server-side — closed by a racing request
    /// whose response was lost, or expired past its linger window — in
    /// which case the final statistics are unavailable.
    ///
    /// # Errors
    ///
    /// Fails when retries are exhausted or on a non-retryable server
    /// rejection.
    pub fn close_with_retry(&mut self, session: u64) -> Result<Option<SessionStats>, ClientError> {
        let mut last: Option<ClientError> = None;
        for attempt in 0..self.config.max_retries.max(1) {
            match self.close(session) {
                Ok(stats) => return Ok(Some(stats)),
                Err(ClientError::Server {
                    code: ErrorCode::UnknownSession,
                    ..
                }) => {
                    self.acked.remove(&session);
                    return Ok(None);
                }
                Err(
                    e @ ClientError::Server {
                        code: ErrorCode::Backpressure | ErrorCode::Overloaded,
                        ..
                    },
                ) => {
                    last = Some(e);
                    self.backoff(attempt);
                }
                Err(
                    e @ ClientError::Server {
                        code:
                            ErrorCode::UnknownModel | ErrorCode::ShuttingDown | ErrorCode::Internal,
                        ..
                    },
                ) => return Err(e),
                Err(e) => {
                    // Transport fault, timeout, desync or a close line
                    // corrupted on the wire (`bad-request`): retry on a
                    // fresh connection.
                    last = Some(e);
                    match self.reestablish(session) {
                        Ok(_) => {} // resumed — retry the close
                        Err(ClientError::Server {
                            code: ErrorCode::UnknownSession,
                            ..
                        }) => {
                            // The close landed and its response was lost,
                            // or the linger expired: either way it is gone.
                            self.acked.remove(&session);
                            return Ok(None);
                        }
                        Err(e2) => {
                            last = Some(e2);
                            self.backoff(attempt);
                        }
                    }
                }
            }
        }
        Err(last.unwrap_or_else(|| ClientError::Protocol("close attempts exhausted".to_string())))
    }

    /// Sleeps the jittered exponential backoff delay for `attempt`
    /// (0-based): `base * 2^attempt`, capped at `backoff_max`, scaled by a
    /// deterministic factor in `[0.5, 1.5)` from a splitmix64 stream (the
    /// serve crate deliberately has no runtime RNG dependency).
    fn backoff(&mut self, attempt: usize) {
        let base = self.config.backoff_base.max(Duration::from_millis(1));
        let exp = base.saturating_mul(1u32 << attempt.min(16));
        let capped = exp.min(self.config.backoff_max.max(base));
        self.jitter_state = self.jitter_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.jitter_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
        thread::sleep(capped.mul_f64(0.5 + unit));
    }
}

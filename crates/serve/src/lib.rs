//! # metaseg-serve
//!
//! An event-loop-based, multi-client inference service over the streaming
//! MetaSeg engine: many camera feeds, many models, one process, memory
//! bounded per session.
//!
//! The crate splits into:
//!
//! * [`ModelRegistry`] — named, cached, pre-validated [`MetaPredictor`]
//!   handles (insert fitted handles in-process, load their JSON or container
//!   checkpoints, and hot-swap new versions under live traffic),
//! * [`Server`] / [`ServerHandle`] — the TCP server: one readiness-driven
//!   event-loop thread multiplexing every connection over nonblocking
//!   sockets (epoll via the vendored poller), plus **sharded** worker
//!   threads — sessions are keyed onto shards by `session_id % workers`, so
//!   per-session frame order is preserved by construction while distinct
//!   sessions run in parallel. Each shard drains **micro-batches** (up to
//!   `batch_max` queued jobs at a time) from its own bounded queue and
//!   rejects overload with a typed `backpressure` error instead of blocking
//!   or buffering unboundedly,
//! * [`Request`] / [`Response`] — the JSON-lines control protocol,
//! * [`wire`] — the length-prefixed **binary frame** every frame submission
//!   travels as (raw little-endian `f64`/`f32`/quantized-`u16` softmax
//!   payloads behind a fixed checksummed header; see the module docs for
//!   the byte layout),
//! * [`ServeClient`] — a small blocking client for tests, demos and load
//!   generators.
//!
//! [`MetaPredictor`]: metaseg_learners::MetaPredictor
//!
//! ## Wire format
//!
//! Control messages are one compact JSON object per line; requests carry an
//! `"op"`, success responses an `"ok"`, errors an `"err"` code. The encoding
//! is stable and doc-tested:
//!
//! ```
//! use metaseg_serve::{ErrorCode, Request, Response};
//!
//! // A session-open request renders to one JSON line…
//! let open = Request::Open { model: "default".into(), camera: "cam-0".into() };
//! assert_eq!(
//!     open.encode(),
//!     r#"{"op":"open","model":"default","camera":"cam-0"}"#
//! );
//!
//! // …and the matching response parses back into typed form.
//! let reply = Response::decode(r#"{"ok":"opened","session":1,"series_length":3}"#).unwrap();
//! assert_eq!(reply, Response::Opened { session: 1, series_length: 3 });
//!
//! // Overload is a typed, retryable error — never a dropped connection.
//! let busy = Response::decode(
//!     r#"{"err":"backpressure","message":"inference queue is full (64 jobs)"}"#
//! ).unwrap();
//! assert!(matches!(busy, Response::Error { code: ErrorCode::Backpressure, .. }));
//! ```
//!
//! Frames never travel as JSON. A connection accepts binary frames from its
//! first byte, each naming its own payload encoding; `negotiate` only sets
//! the connection's dispersion-scan precision and echoes the format:
//!
//! ```
//! use metaseg::DispersionPrecision;
//! use metaseg_serve::{FrameFormat, Request, Response};
//! use metaseg_data::ProbEncoding;
//!
//! // Opting into the f32 dispersion fast path adds one key to the line.
//! let fast = Request::Negotiate {
//!     format: FrameFormat::Binary(ProbEncoding::U16),
//!     dispersion: DispersionPrecision::F32,
//! };
//! assert_eq!(
//!     fast.encode(),
//!     r#"{"op":"negotiate","frames":"binary-u16","dispersion":"f32"}"#
//! );
//! let reply = Response::decode(r#"{"ok":"negotiated","frames":"binary-u16","dispersion":"f32"}"#)
//!     .unwrap();
//! assert_eq!(
//!     reply,
//!     Response::Negotiated {
//!         format: FrameFormat::Binary(ProbEncoding::U16),
//!         dispersion: DispersionPrecision::F32,
//!     }
//! );
//!
//! // A JSON `frame` line, or a negotiation naming `json`, is a typed error.
//! assert!(Request::decode(r#"{"op":"frame","session":1,"probs":{}}"#).is_err());
//! assert!(Request::decode(r#"{"op":"negotiate","frames":"json"}"#).is_err());
//! ```
//!
//! Each frame travels as a 36-byte header plus the raw little-endian
//! payload (layout doc-tested in [`wire`]); every other request and every
//! response is a JSON line.
//!
//! ## Session lifecycle
//!
//! `open` creates a session owning a fresh
//! [`MetaSegStream`](metaseg::stream::MetaSegStream); each submitted
//! frame runs the single-pass extraction → incremental tracking →
//! windowed inference pipeline and answers with per-segment verdicts
//! (predicted IoU, false-positive probability, track id) for *that* frame;
//! `stats` snapshots the session counters; `close` releases the session.
//!
//! Sessions are keyed by id, **not** by connection. When a connection dies
//! with sessions still open, those sessions are *orphaned* and linger for
//! [`ServerConfig::session_linger_ms`] — a reconnecting client re-attaches
//! with `resume` (see [`ServeClient::resume`]), which answers the
//! authoritative count of frames applied so far, routed through the
//! session's shard queue so it is ordered behind any in-flight frame. A
//! session that is never resumed expires at the end of its linger window,
//! so there is still no server-side session leak when a camera goes away
//! for good (`session_linger_ms: 0` restores strict die-with-connection
//! behaviour).
//!
//! ## Fault tolerance
//!
//! The server assumes clients misbehave: per-connection idle and mid-frame
//! read deadlines (a deadline heap swept each poll tick) reap wedged and
//! slow-loris peers, an accept-time `max_connections` cap sheds overload
//! with a typed [`ErrorCode::Overloaded`] reply, and a bounded
//! per-connection output buffer evicts slow consumers instead of buffering
//! without limit. The client assumes the network misbehaves: socket
//! deadlines by default, jittered exponential backoff on overload, and
//! reconnect-resume on connection faults ([`ClientConfig`],
//! [`ServeClient::submit_with_retry`], [`Submission`]). The whole stack is
//! exercised end to end by the byte-level chaos proxy
//! (`metaseg_sim::ChaosProxy`) in the `chaos` integration tests and the
//! `serve_loadtest --chaos` survival bench.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod protocol;
mod registry;
mod server;
mod shard;
mod transport;
pub mod wire;

pub use client::{ClientConfig, ClientError, ServeClient, Submission};
pub use protocol::{ErrorCode, FrameFormat, ProtocolError, Request, Response};
pub use registry::{ModelEntry, ModelRegistry};
pub use server::{Server, ServerConfig, ServerHandle, ServerStats, ShardStats};
pub use wire::WireError;

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared fixtures: a small fitted predictor over the simulator.

    use metaseg::stream::StreamConfig;
    use metaseg::timedyn::{MetaModel, TimeDynConfig, TimeDynamic};
    use metaseg_learners::{MetaPredictor, TabularDataset};
    use metaseg_sim::{NetworkProfile, NetworkSim, VideoConfig, VideoScenario};
    use rand::{rngs::StdRng, SeedableRng};

    /// Fits a gradient-boosting predictor on time series of `length` frames
    /// of the small simulated video scenario.
    pub fn fitted_model(length: usize) -> (StreamConfig, MetaPredictor) {
        let mut rng = StdRng::seed_from_u64(900);
        let sim = NetworkSim::new(NetworkProfile::weak());
        let scenario = VideoScenario::generate(&VideoConfig::small(), &sim, &mut rng);
        let pipeline = TimeDynamic::new(TimeDynConfig::default());
        let mut train = TabularDataset::new();
        for sequence in &scenario.dataset().sequences {
            let analysis = pipeline.analyze_sequence(sequence);
            train.extend_from(&pipeline.time_series_dataset(&analysis, length));
        }
        let predictor = pipeline
            .fit_predictor(MetaModel::GradientBoosting, &train, 0)
            .expect("the small scenario is fittable");
        (StreamConfig::default(), predictor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::fitted_model;
    use metaseg_sim::{NetworkProfile, NetworkSim, VideoConfig, VideoStream};
    use rand::{rngs::StdRng, SeedableRng};
    use std::sync::Arc;

    fn registry_with_default(length: usize) -> Arc<ModelRegistry> {
        let registry = Arc::new(ModelRegistry::new());
        let (config, predictor) = fitted_model(length);
        registry
            .insert("default", config, predictor)
            .expect("fixture model is valid");
        registry
    }

    #[test]
    fn serve_one_camera_end_to_end() {
        let registry = registry_with_default(2);
        let handle = Server::spawn("127.0.0.1:0", registry, ServerConfig::default()).unwrap();
        let addr = handle.local_addr();

        let mut client = ServeClient::connect(addr).unwrap();
        client.ping().unwrap();
        let (session, series_length) = client.open("default", "cam-0").unwrap();
        assert_eq!(series_length, 2);

        let mut rng = StdRng::seed_from_u64(901);
        let sim = NetworkSim::new(NetworkProfile::weak());
        let frames: Vec<_> = VideoStream::open(&VideoConfig::small(), sim, 0, &mut rng)
            .take(4)
            .map(|f| f.prediction)
            .collect();
        for (i, probs) in frames.iter().enumerate() {
            let (frame, verdicts) = client.submit(session, probs).unwrap();
            assert_eq!(frame, i);
            for verdict in &verdicts {
                assert!((0.0..=1.0).contains(&verdict.tp_probability));
                assert!((0.0..=1.0).contains(&verdict.predicted_iou));
            }
        }
        let stats = client.stats(session).unwrap();
        assert_eq!(stats.frames, 4);
        let final_stats = client.close(session).unwrap();
        assert_eq!(final_stats.frames, 4);
        // Closed sessions are gone.
        assert_eq!(
            client.stats(session).unwrap_err().server_code(),
            Some(ErrorCode::UnknownSession)
        );

        let server_stats = handle.shutdown();
        assert_eq!(server_stats.connections, 1);
        assert_eq!(server_stats.sessions_opened, 1);
        assert_eq!(server_stats.frames_processed, 4);
        assert_eq!(server_stats.rejected, 0);
    }

    #[test]
    fn oversized_lines_drop_the_connection_instead_of_growing_memory() {
        use std::io::{Read, Write};
        use std::net::TcpStream;

        let registry = registry_with_default(2);
        let handle = Server::spawn(
            "127.0.0.1:0",
            registry,
            ServerConfig {
                max_line_bytes: 1024,
                ..ServerConfig::default()
            },
        )
        .unwrap();

        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
        // A newline-free flood larger than the cap: the server must close
        // the connection (without ever answering) rather than buffer the
        // line forever. The write may fail mid-flood when the server
        // closes first; both outcomes are the success case.
        let _ = stream.write_all(&vec![b'x'; 64 * 1024]);
        let _ = stream.flush();
        let mut reply = Vec::new();
        let _ = stream.read_to_end(&mut reply);
        assert!(
            reply.is_empty(),
            "no response expected to an oversized partial line"
        );
        handle.shutdown();
    }

    #[test]
    fn unknown_model_and_malformed_lines_keep_the_connection_alive() {
        use std::io::{BufRead, BufReader, Write};
        use std::net::TcpStream;

        let registry = registry_with_default(2);
        let handle = Server::spawn("127.0.0.1:0", registry, ServerConfig::default()).unwrap();

        let stream = TcpStream::connect(handle.local_addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);

        // A request with invalid UTF-8 inside a JSON string is rejected
        // outright (never lossily altered into a "valid" camera name), and
        // the connection survives for everything below.
        writer
            .write_all(b"{\"op\":\"open\",\"model\":\"default\",\"camera\":\"\xFF\xFE\"}\n")
            .unwrap();
        writer.flush().unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        match Response::decode(reply.trim_end()).unwrap() {
            Response::Error {
                code: ErrorCode::BadRequest,
                message,
            } => assert!(message.contains("UTF-8"), "unexpected: {message}"),
            other => panic!("unexpected response {other:?}"),
        }

        let mut roundtrip = |line: &str| -> Response {
            writeln!(writer, "{line}").unwrap();
            writer.flush().unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            Response::decode(reply.trim_end()).unwrap()
        };

        // A raw garbage line gets a typed bad-request error…
        assert!(matches!(
            roundtrip("this is not json"),
            Response::Error {
                code: ErrorCode::BadRequest,
                ..
            }
        ));
        // …an unknown model a typed unknown-model error…
        assert!(matches!(
            roundtrip(
                &Request::Open {
                    model: "missing".into(),
                    camera: "cam".into()
                }
                .encode()
            ),
            Response::Error {
                code: ErrorCode::UnknownModel,
                ..
            }
        ));
        // …a frame for a never-opened session a typed unknown-session error…
        assert!(matches!(
            roundtrip(&Request::Stats { session: 99 }.encode()),
            Response::Error {
                code: ErrorCode::UnknownSession,
                ..
            }
        ));
        // …and the same connection still serves real requests afterwards.
        assert!(matches!(
            roundtrip(
                &Request::Open {
                    model: "default".into(),
                    camera: "cam".into()
                }
                .encode()
            ),
            Response::Opened { .. }
        ));
        handle.shutdown();
    }

    #[test]
    fn legacy_json_frames_and_malformed_binary_frames_keep_the_connection() {
        use crate::wire::encode_binary_frame;
        use metaseg_data::{ProbEncoding, ProbMap};
        use std::io::{BufRead, BufReader, Write};
        use std::net::TcpStream;

        let registry = registry_with_default(2);
        let handle = Server::spawn("127.0.0.1:0", registry, ServerConfig::default()).unwrap();

        let stream = TcpStream::connect(handle.local_addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let read_reply = |reader: &mut BufReader<TcpStream>| -> Response {
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            Response::decode(reply.trim_end()).unwrap()
        };
        let probs = ProbMap::uniform(6, 4, 3);

        // A legacy JSON `frame` line and a negotiation naming the retired
        // `json` format are typed errors, not dropped connections.
        writeln!(
            writer,
            "{{\"op\":\"frame\",\"session\":1,\"probs\":{}}}",
            serde_json::to_string(&serde::Serialize::serialize(&probs)).unwrap()
        )
        .unwrap();
        match read_reply(&mut reader) {
            Response::Error {
                code: ErrorCode::BadRequest,
                message,
            } => assert!(
                message.contains("unknown op `frame`"),
                "unexpected: {message}"
            ),
            other => panic!("unexpected response {other:?}"),
        }
        writeln!(writer, "{{\"op\":\"negotiate\",\"frames\":\"json\"}}").unwrap();
        match read_reply(&mut reader) {
            Response::Error {
                code: ErrorCode::BadRequest,
                message,
            } => assert!(message.contains("`json`"), "unexpected: {message}"),
            other => panic!("unexpected response {other:?}"),
        }

        // No negotiation: open a session and go straight to binary frames.
        writeln!(
            writer,
            "{}",
            Request::Open {
                model: "default".into(),
                camera: "cam".into()
            }
            .encode()
        )
        .unwrap();
        let Response::Opened { session, .. } = read_reply(&mut reader) else {
            panic!("open must succeed");
        };

        // A corrupt payload (checksum mismatch) is a typed error and the
        // connection survives…
        let mut corrupt = encode_binary_frame(session, &probs, ProbEncoding::F64);
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x01;
        writer.write_all(&corrupt).unwrap();
        writer.flush().unwrap();
        match read_reply(&mut reader) {
            Response::Error {
                code: ErrorCode::BadRequest,
                message,
            } => assert!(message.contains("checksum"), "unexpected: {message}"),
            other => panic!("unexpected response {other:?}"),
        }

        // …as is a header that lies about its dimensions…
        let mut lying = encode_binary_frame(session, &probs, ProbEncoding::F64);
        lying[12..16].copy_from_slice(&77u32.to_le_bytes());
        writer.write_all(&lying).unwrap();
        writer.flush().unwrap();
        match read_reply(&mut reader) {
            Response::Error {
                code: ErrorCode::BadRequest,
                message,
            } => assert!(message.contains("shape requires"), "unexpected: {message}"),
            other => panic!("unexpected response {other:?}"),
        }

        // …and a binary frame for a session that was never opened.
        let unknown = encode_binary_frame(9999, &probs, ProbEncoding::F64);
        writer.write_all(&unknown).unwrap();
        writer.flush().unwrap();
        assert!(matches!(
            read_reply(&mut reader),
            Response::Error {
                code: ErrorCode::UnknownSession,
                ..
            }
        ));

        // The same connection still processes a valid binary frame.
        let valid = encode_binary_frame(session, &probs, ProbEncoding::F64);
        writer.write_all(&valid).unwrap();
        writer.flush().unwrap();
        assert!(matches!(
            read_reply(&mut reader),
            Response::Verdicts { frame: 0, .. }
        ));

        let stats = handle.shutdown();
        assert_eq!(stats.frames_processed, 1);
        // Arrival counter: only the valid frame counts — unknown-session
        // and malformed frames are rejected before their payload is ever
        // decoded.
        assert_eq!(stats.binary_frames, 1);
    }

    #[test]
    fn newline_free_flood_neither_stalls_other_connections_nor_kills_its_own() {
        use std::io::{BufRead, BufReader, Write};
        use std::net::TcpStream;
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::time::{Duration, Instant};

        const LINE_BYTES: usize = 8 << 20;
        const WRITE_BYTES: usize = 16 << 10;
        let config = ServerConfig::default();
        assert!(config.max_line_bytes >= LINE_BYTES);
        let handle = Server::spawn("127.0.0.1:0", Arc::new(ModelRegistry::new()), config).unwrap();
        let addr = handle.local_addr();
        // One write per ping: a line split across packets would sit
        // half-buffered, under the read deadline, while the flood runs.
        let ping = |stream: &mut TcpStream, reader: &mut BufReader<TcpStream>| {
            let mut line = Request::Ping.encode();
            line.push('\n');
            stream.write_all(line.as_bytes())?;
            let mut reply = String::new();
            reader.read_line(&mut reply)?;
            Ok::<_, std::io::Error>(Response::decode(reply.trim_end()).unwrap())
        };

        // A second connection pings back to back for as long as the flood
        // lasts; every answer must come within a generous bound. The event
        // loop serves both connections, so a flood that monopolises it
        // shows here.
        let flooding = Arc::new(AtomicBool::new(true));
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let pinger = {
            let flooding = Arc::clone(&flooding);
            std::thread::spawn(move || -> std::io::Result<(usize, Duration)> {
                let mut stream = TcpStream::connect(addr)?;
                stream.set_read_timeout(Some(Duration::from_secs(60)))?;
                let mut reader = BufReader::new(stream.try_clone()?);
                assert_eq!(ping(&mut stream, &mut reader)?, Response::Pong);
                ready_tx.send(()).unwrap();
                let (mut pings, mut slowest) = (0usize, Duration::ZERO);
                while flooding.load(Ordering::SeqCst) {
                    let sent = Instant::now();
                    assert_eq!(ping(&mut stream, &mut reader)?, Response::Pong);
                    slowest = slowest.max(sent.elapsed());
                    pings += 1;
                }
                Ok((pings, slowest))
            })
        };
        ready_rx.recv().expect("the pinger is connected");

        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let chunk = vec![b'x'; WRITE_BYTES];
        for _ in 0..LINE_BYTES / WRITE_BYTES {
            writer.write_all(&chunk).unwrap();
        }
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        // The line gets exactly one typed answer, and the connection lives.
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert!(
            matches!(
                Response::decode(reply.trim_end()).unwrap(),
                Response::Error {
                    code: ErrorCode::BadRequest,
                    ..
                }
            ),
            "unexpected reply {reply:?}"
        );
        assert_eq!(ping(&mut writer, &mut reader).unwrap(), Response::Pong);
        flooding.store(false, Ordering::SeqCst);

        let (pings, slowest) = pinger
            .join()
            .expect("pinger never panics")
            .expect("the pinging connection survives the flood");
        assert!(pings > 0, "the pinger must ping during the flood");
        assert!(
            slowest < Duration::from_secs(2),
            "a ping waited {slowest:?} behind the newline-free flood"
        );
        handle.shutdown();
    }

    #[test]
    fn negotiated_client_submits_binary_frames_with_identical_verdicts() {
        use metaseg::stream::MetaSegStream;
        use metaseg_data::ProbEncoding;
        use metaseg_sim::DecodedFrameSource;

        let (config, predictor) = fitted_model(2);
        let registry = Arc::new(ModelRegistry::new());
        registry
            .insert("default", config, predictor.clone())
            .expect("fixture model is valid");
        let handle = Server::spawn("127.0.0.1:0", registry, ServerConfig::default()).unwrap();
        let addr = handle.local_addr();

        let mut rng = StdRng::seed_from_u64(902);
        let sim = NetworkSim::new(NetworkProfile::weak());
        let frames: Vec<_> = VideoStream::open(&VideoConfig::small(), sim, 0, &mut rng)
            .take(3)
            .map(|f| f.prediction)
            .collect();
        let reference: Vec<_> = MetaSegStream::new(config, predictor)
            .expect("fixture model is valid")
            .drain(DecodedFrameSource::new(0, frames.clone()))
            .frame_verdicts
            .into_iter()
            .map(|f| (f.frame, f.verdicts))
            .collect();

        let submit_all = |format: Option<FrameFormat>| {
            let mut client = ServeClient::connect(addr).unwrap();
            if let Some(format) = format {
                client.negotiate(format).unwrap();
            }
            assert_eq!(
                client.frame_format(),
                FrameFormat::Binary(ProbEncoding::F64)
            );
            let (session, _) = client.open("default", "cam").unwrap();
            let verdicts: Vec<_> = frames
                .iter()
                .map(|probs| client.submit(session, probs).unwrap())
                .collect();
            client.close(session).unwrap();
            verdicts
        };

        // A fresh client sends lossless binary-f64 frames without
        // negotiating; both it and a negotiated one reproduce the
        // in-process engine bit for bit.
        assert_eq!(submit_all(None), reference);
        assert_eq!(
            submit_all(Some(FrameFormat::Binary(ProbEncoding::F64))),
            reference
        );

        let stats = handle.shutdown();
        assert_eq!(stats.frames_processed, 6);
        assert_eq!(stats.binary_frames, 6);
    }
}

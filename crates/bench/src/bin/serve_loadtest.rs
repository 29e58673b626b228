//! Loadtest for the multi-camera inference service (`metaseg-serve`).
//!
//! Spins an in-process server on an ephemeral port, fits a small model,
//! drives `--cameras` concurrent simulated camera sessions over real TCP,
//! and reports sustained throughput, per-frame latency percentiles, typed
//! backpressure rejections (retried with backoff) and the server's peak
//! queue depth. Exits non-zero if any camera fails, which is what CI keys
//! on: ≥ 2 concurrent sessions sustained, queue depth bounded, no panics.
//!
//! `--wire` selects the binary frame encoding (`binary-f64`, `binary-f32`,
//! `binary-u16`) and `--batch` the server's cross-session micro-batch cap.
//! `--regime <name>` degrades every camera feed through an adverse
//! [`metaseg_sim::ScenarioSuite`] regime (fog, dropout, occlusion, …)
//! before it crosses the wire — the stress mode CI uses to prove the
//! service survives sensor faults. `--corpus <path>` replays a recorded
//! frame corpus (`corpus_record`) instead of rendering live video — camera
//! `c` drains recorded sequence `c % sequences` — and writes
//! `BENCH_corpus.json` (override with `--out`), exiting non-zero unless
//! every throughput and latency metric re-read from disk is finite and
//! every submitted frame was processed; it excludes `--regime` (record the
//! degraded corpus instead).
//!
//! `--scale` is the fleet mode: `--cameras` sessions are multiplexed over
//! `--conns` TCP connections (default `min(cameras, 64)`) against the
//! sharded event-loop transport, optionally hot-swapping the model registry
//! mid-run (`--hot-swap` — the run fails unless every session opened before
//! the swap completes its full frame budget afterwards), asserting latency
//! SLOs (`--slo-p50-ms` / `--slo-p90-ms` / `--slo-p99-ms`), and writing
//! `BENCH_serve_scale.json` (override with `--out`) — re-read from disk and
//! gated on finite percentiles, exact frame accounting and per-shard /
//! aggregate consistency.
//!
//! `--chaos` is the survival mode: the corpus is replayed *through* the
//! in-process byte-level fault proxy (`metaseg_sim::ChaosProxy`) under every
//! named [`metaseg_sim::FaultPlan`] (`--plan <name>` picks one, `--smoke`
//! the reduced CI pair), each plan against a dedicated server with tight
//! deadline/linger settings, driven by the retrying client
//! (`submit_with_retry` + reconnect-and-resume). It writes
//! `BENCH_chaos.json` (override with `--out`) and exits non-zero unless the
//! re-read report survives: every session completed, zero killed, every
//! served verdict bit-identical to the in-process reference engine, zero
//! leaked sessions/connections. `--chaos --check <path>` re-gates an
//! already-written report without replaying (how CI guards the committed
//! artifact):
//!
//! ```text
//! cargo run --release -p metaseg-bench --bin serve_loadtest -- \
//!     --cameras 4 --frames 30 --workers 4 --queue-depth 8 --delay-ms 0 \
//!     --wire binary-f64 --batch 8
//! cargo run --release -p metaseg-bench --bin serve_loadtest -- \
//!     --scale --cameras 1000 --frames 4 --hot-swap
//! cargo run --release -p metaseg-bench --bin serve_loadtest -- \
//!     --chaos --corpus corpus.msgc --cameras 4 --frames 6
//! ```

use metaseg::stream::MetaSegStream;
use metaseg_bench::chaos::{ChaosPlanReport, ChaosReport};
use metaseg_bench::corpus::{load_corpus, CorpusReport, LatencySummary};
use metaseg_bench::scale::{HotSwapReport, ScaleReport, ScaleSlo};
use metaseg_bench::serve_fixture::{fit_predictor, percentile_ms, video_config};
use metaseg_data::ProbMap;
use metaseg_serve::{
    ClientConfig, ClientError, ErrorCode, FrameFormat, ModelRegistry, ServeClient, Server,
    ServerConfig, Submission,
};
use metaseg_sim::{
    ChaosProxy, DecodedFrameSource, FaultPlan, FrameSource, NetworkProfile, NetworkSim,
    ProbEncoding, RegimeKind, RegimeSource, VideoStream,
};
use rand::{rngs::StdRng, SeedableRng};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Camera geometry of the loadtest (small: frames cross the wire per
/// request).
const FRAME_WIDTH: usize = 48;
const FRAME_HEIGHT: usize = 24;

/// Parsed command line.
struct Options {
    cameras: usize,
    frames: usize,
    workers: usize,
    queue_depth: usize,
    delay_ms: u64,
    wire: FrameFormat,
    batch: usize,
    regime: Option<RegimeKind>,
    corpus: Option<PathBuf>,
    out: Option<PathBuf>,
    scale: bool,
    conns: Option<usize>,
    hot_swap: bool,
    slo: ScaleSlo,
    chaos: bool,
    plan: Option<String>,
    smoke: bool,
    check: Option<PathBuf>,
}

impl Options {
    fn parse() -> Self {
        let mut options = Options {
            cameras: 4,
            frames: 24,
            workers: 4,
            queue_depth: 8,
            delay_ms: 0,
            wire: FrameFormat::Binary(ProbEncoding::F64),
            batch: 8,
            regime: None,
            corpus: None,
            out: None,
            scale: false,
            conns: None,
            hot_swap: false,
            slo: ScaleSlo::default(),
            chaos: false,
            plan: None,
            smoke: false,
            check: None,
        };
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            let mut take = |name: &str| -> usize {
                args.next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("{name} expects a numeric argument"))
            };
            match flag.as_str() {
                "--cameras" => options.cameras = take("--cameras").max(1),
                "--frames" => options.frames = take("--frames").max(1),
                "--workers" => options.workers = take("--workers").max(1),
                "--queue-depth" => options.queue_depth = take("--queue-depth").max(1),
                "--delay-ms" => options.delay_ms = take("--delay-ms") as u64,
                "--batch" => options.batch = take("--batch").max(1),
                "--wire" => {
                    let name = args.next().unwrap_or_default();
                    options.wire = FrameFormat::from_str_opt(&name).unwrap_or_else(|| {
                        panic!("--wire expects binary-f64|binary-f32|binary-u16, got `{name}`")
                    });
                }
                "--regime" => {
                    let name = args.next().unwrap_or_default();
                    options.regime = Some(RegimeKind::from_name(&name).unwrap_or_else(|| {
                        let valid: Vec<_> = RegimeKind::all().iter().map(|k| k.name()).collect();
                        panic!("--regime expects one of {valid:?}, got `{name}`")
                    }));
                }
                "--corpus" => {
                    options.corpus = Some(PathBuf::from(
                        args.next()
                            .unwrap_or_else(|| panic!("--corpus expects a path")),
                    ));
                }
                "--out" => {
                    options.out = Some(PathBuf::from(
                        args.next()
                            .unwrap_or_else(|| panic!("--out expects a path")),
                    ));
                }
                "--scale" => options.scale = true,
                "--conns" => options.conns = Some(take("--conns").max(1)),
                "--hot-swap" => options.hot_swap = true,
                "--chaos" => options.chaos = true,
                "--smoke" => options.smoke = true,
                "--plan" => {
                    let name = args
                        .next()
                        .unwrap_or_else(|| panic!("--plan expects a fault plan name"));
                    assert!(
                        FaultPlan::named(&name).is_some(),
                        "--plan expects one of {:?}, got `{name}`",
                        FaultPlan::suite()
                            .iter()
                            .map(|p| p.name)
                            .collect::<Vec<_>>()
                    );
                    options.plan = Some(name);
                }
                "--check" => {
                    options.check = Some(PathBuf::from(
                        args.next()
                            .unwrap_or_else(|| panic!("--check expects a path")),
                    ));
                }
                "--slo-p50-ms" | "--slo-p90-ms" | "--slo-p99-ms" => {
                    let limit = args
                        .next()
                        .and_then(|v| v.parse::<f64>().ok())
                        .unwrap_or_else(|| panic!("{flag} expects milliseconds"));
                    match flag.as_str() {
                        "--slo-p50-ms" => options.slo.p50_ms = Some(limit),
                        "--slo-p90-ms" => options.slo.p90_ms = Some(limit),
                        _ => options.slo.p99_ms = Some(limit),
                    }
                }
                other => panic!("unknown flag `{other}`"),
            }
        }
        options
    }

    /// The artifact path: `--out` if given, else `default_name` at the
    /// repository root.
    fn artifact_path(&self, default_name: &str) -> PathBuf {
        self.out.clone().unwrap_or_else(|| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join(default_name)
        })
    }
}

/// Runs one full loadtest scenario: spawn a server over the shared fitted
/// model, drive every camera in the `--wire` encoding, report, shut down.
fn run_scenario(options: &Options, registry: &Arc<ModelRegistry>) {
    let (wire, batch) = (options.wire, options.batch);
    let handle = Server::spawn(
        "127.0.0.1:0",
        Arc::clone(registry),
        ServerConfig {
            workers: options.workers,
            queue_depth: options.queue_depth,
            batch_max: batch,
            synthetic_delay_ms: options.delay_ms,
            ..ServerConfig::default()
        },
    )
    .expect("ephemeral bind succeeds");
    let addr = handle.local_addr();
    println!(
        "serve_loadtest: {} cameras x {} frames against {addr} \
         ({} workers, queue depth {}, batch {batch}, wire {wire}, synthetic delay {} ms)",
        options.cameras, options.frames, options.workers, options.queue_depth, options.delay_ms
    );

    let started = Instant::now();
    let cameras: Vec<_> = (0..options.cameras)
        .map(|camera| {
            let frames = options.frames;
            let regime = options.regime;
            thread::spawn(move || -> (Vec<Duration>, usize, usize) {
                let mut rng = StdRng::seed_from_u64(7100 + camera as u64);
                let sim = NetworkSim::new(NetworkProfile::weak());
                let stream = VideoStream::open_endless(
                    &video_config(1, FRAME_WIDTH, FRAME_HEIGHT),
                    sim,
                    camera,
                    &mut rng,
                );
                // The endless camera keeps a jitter regime from starving the
                // loadtest: the degraded source is pulled until exactly
                // `frames` frames crossed the wire.
                let mut source: Box<dyn FrameSource> = match regime {
                    Some(kind) => {
                        Box::new(RegimeSource::new(kind.build(7300 + camera as u64), stream))
                    }
                    None => Box::new(stream),
                };
                let mut client = ServeClient::connect(addr).expect("connect succeeds");
                client.negotiate(wire).expect("negotiate succeeds");
                let (session, _) = client
                    .open("default", &format!("cam-{camera}"))
                    .expect("open succeeds");
                let mut latencies = Vec::with_capacity(frames);
                let mut verdicts = 0usize;
                let mut retries = 0usize;
                while latencies.len() < frames {
                    let frame = source
                        .next_frame()
                        .expect("an endless camera never runs dry")
                        .prediction;
                    loop {
                        let submitted = Instant::now();
                        match client.submit(session, &frame) {
                            Ok((_, frame_verdicts)) => {
                                latencies.push(submitted.elapsed());
                                verdicts += frame_verdicts.len();
                                break;
                            }
                            Err(e) if e.server_code() == Some(ErrorCode::Backpressure) => {
                                // The typed overload signal: back off, retry.
                                retries += 1;
                                thread::sleep(Duration::from_millis(5));
                            }
                            Err(e) => panic!("camera {camera} failed: {e}"),
                        }
                    }
                }
                client.close(session).expect("close succeeds");
                (latencies, verdicts, retries)
            })
        })
        .collect();

    let mut latencies = Vec::new();
    let mut verdicts = 0usize;
    let mut retries = 0usize;
    let mut sustained = 0usize;
    for camera in cameras {
        let (camera_latencies, camera_verdicts, camera_retries) =
            camera.join().expect("camera thread never panics");
        sustained += 1;
        latencies.extend(camera_latencies);
        verdicts += camera_verdicts;
        retries += camera_retries;
    }
    let elapsed = started.elapsed();
    let stats = handle.shutdown();

    latencies.sort();
    let total_frames = latencies.len();
    let frames_per_s = total_frames as f64 / elapsed.as_secs_f64().max(1e-9);
    println!(
        "sustained {sustained} concurrent camera sessions: {total_frames} frames, \
         {verdicts} verdicts in {:.2} s ({frames_per_s:.1} frames/s)",
        elapsed.as_secs_f64(),
    );
    println!(
        "latency p50 {:.2} ms | p90 {:.2} ms | p99 {:.2} ms | max {:.2} ms",
        percentile_ms(&latencies, 0.50),
        percentile_ms(&latencies, 0.90),
        percentile_ms(&latencies, 0.99),
        percentile_ms(&latencies, 1.0),
    );
    println!(
        "server: {} frames processed ({} binary), {} backpressure rejections \
         ({retries} client retries), peak queue depth {} (bound {}), \
         {} micro-batches (largest {})",
        stats.frames_processed,
        stats.binary_frames,
        stats.rejected,
        stats.peak_queue_depth,
        options.queue_depth,
        stats.batches,
        stats.peak_batch,
    );

    assert!(
        sustained >= 2.min(options.cameras),
        "must sustain at least two concurrent sessions"
    );
    // Depth accounting is exact: each shard admits a frame (and records the
    // peak) under its queue lock, so the observed peak can never exceed the
    // configured per-shard capacity — rejected submissions touch no gauge.
    assert!(
        stats.peak_queue_depth <= options.queue_depth,
        "queue depth must stay bounded (peak {}, capacity {})",
        stats.peak_queue_depth,
        options.queue_depth
    );
    assert_eq!(
        stats.frames_processed,
        options.cameras * options.frames,
        "every accepted frame must be processed exactly once"
    );
    // Every submission (processed or backpressure-rejected before
    // processing) arrived as a verified binary frame.
    assert_eq!(
        stats.binary_frames,
        stats.frames_processed + stats.rejected,
        "every frame submission must have arrived as a verified binary frame"
    );
}

/// Replays a recorded corpus through the server: camera `c` drains sequence
/// `c % sequences` (cycling when it needs more frames than the recording
/// holds), writes `BENCH_corpus.json` and gates it on finite metrics — the
/// corpus-driven counterpart of [`run_scenario`], measuring the serve path
/// on *identical, replayable* traffic instead of freshly rendered frames.
fn run_corpus(options: &Options, registry: &Arc<ModelRegistry>) {
    let corpus_path = options.corpus.as_ref().expect("caller checked --corpus");
    let corpus = load_corpus(corpus_path).unwrap_or_else(|e| panic!("--corpus: {e}"));
    let sequence_count = corpus.sequences.len();
    let corpus_frames = corpus.total_frames();
    // Decode once, up front: replay measures the wire + scheduler, not the
    // container decoder.
    let sequences: Arc<Vec<Vec<ProbMap>>> = Arc::new(
        corpus
            .sequences
            .iter()
            .map(|(_, frames)| {
                frames
                    .iter()
                    .map(|f| f.payload.decode().expect("recorded payloads decode"))
                    .collect()
            })
            .collect(),
    );

    let handle = Server::spawn(
        "127.0.0.1:0",
        Arc::clone(registry),
        ServerConfig {
            workers: options.workers,
            queue_depth: options.queue_depth,
            batch_max: options.batch,
            synthetic_delay_ms: options.delay_ms,
            ..ServerConfig::default()
        },
    )
    .expect("ephemeral bind succeeds");
    let addr = handle.local_addr();
    println!(
        "serve_loadtest: replaying {} ({sequence_count} sequences, {corpus_frames} frames) \
         over {} cameras x {} frames against {addr} \
         ({} workers, queue depth {}, batch {}, wire {})",
        corpus_path.display(),
        options.cameras,
        options.frames,
        options.workers,
        options.queue_depth,
        options.batch,
        options.wire,
    );

    let started = Instant::now();
    let cameras: Vec<_> = (0..options.cameras)
        .map(|camera| {
            let frames = options.frames;
            let wire = options.wire;
            let maps = Arc::clone(&sequences);
            thread::spawn(move || -> (Vec<Duration>, usize, usize) {
                let source = &maps[camera % maps.len()];
                let mut client = ServeClient::connect(addr).expect("connect succeeds");
                client.negotiate(wire).expect("negotiate succeeds");
                let (session, _) = client
                    .open("default", &format!("replay-{camera}"))
                    .expect("open succeeds");
                let mut latencies = Vec::with_capacity(frames);
                let mut verdicts = 0usize;
                let mut retries = 0usize;
                while latencies.len() < frames {
                    let frame = &source[latencies.len() % source.len()];
                    loop {
                        let submitted = Instant::now();
                        match client.submit(session, frame) {
                            Ok((_, frame_verdicts)) => {
                                latencies.push(submitted.elapsed());
                                verdicts += frame_verdicts.len();
                                break;
                            }
                            Err(e) if e.server_code() == Some(ErrorCode::Backpressure) => {
                                retries += 1;
                                thread::sleep(Duration::from_millis(5));
                            }
                            Err(e) => panic!("replay camera {camera} failed: {e}"),
                        }
                    }
                }
                client.close(session).expect("close succeeds");
                (latencies, verdicts, retries)
            })
        })
        .collect();

    let mut latencies = Vec::new();
    let mut verdicts = 0usize;
    let mut retries = 0usize;
    for camera in cameras {
        let (camera_latencies, camera_verdicts, camera_retries) =
            camera.join().expect("replay camera thread never panics");
        latencies.extend(camera_latencies);
        verdicts += camera_verdicts;
        retries += camera_retries;
    }
    let elapsed = started.elapsed();
    let stats = handle.shutdown();

    latencies.sort();
    let frames_per_s = latencies.len() as f64 / elapsed.as_secs_f64().max(1e-9);
    let report = CorpusReport {
        bench: "serve_loadtest_corpus".to_string(),
        corpus: corpus_path.display().to_string(),
        sequences: sequence_count,
        corpus_frames,
        cameras: options.cameras,
        frames_per_camera: options.frames,
        frames_per_s,
        latency: LatencySummary::from_sorted(&latencies),
        verdicts,
        server_frames_processed: stats.frames_processed,
    };
    println!(
        "replayed {} frames, {verdicts} verdicts in {:.2} s ({frames_per_s:.1} frames/s, \
         {retries} backpressure retries)",
        latencies.len(),
        elapsed.as_secs_f64(),
    );
    println!(
        "latency p50 {:.2} ms | p90 {:.2} ms | p99 {:.2} ms | max {:.2} ms",
        report.latency.p50_ms, report.latency.p90_ms, report.latency.p99_ms, report.latency.max_ms,
    );

    let out = options.artifact_path("BENCH_corpus.json");
    let json = serde_json::to_string_pretty(&report).expect("corpus report serialises");
    std::fs::write(&out, format!("{json}\n")).expect("artifact path is writable");
    println!("wrote {}", out.display());

    // The finiteness gate, evaluated against the written bytes (the same
    // re-read-and-exit-nonzero invariant as `scenario_sweep`).
    let written = std::fs::read_to_string(&out).expect("artifact re-reads");
    let parsed: CorpusReport = serde_json::from_str(&written).expect("artifact re-parses");
    if !parsed.is_finite() {
        eprintln!("non-finite or inconsistent corpus replay metrics: {parsed:?}");
        std::process::exit(1);
    }
    println!("serve_loadtest: OK (corpus replay, all metrics finite)");
}

/// The fleet-scale mode: `--cameras` sessions multiplexed over `--conns`
/// TCP connections against the sharded event-loop transport — the session
/// count stresses the shard queues and the per-connection response
/// ordering, not the thread scheduler, which is exactly what the event loop
/// buys. Optionally hot-swaps the model registry mid-run and asserts that
/// zero sessions are dropped, then writes `BENCH_serve_scale.json` and
/// gates it on finite percentiles, exact frame accounting, per-shard /
/// aggregate consistency and the requested SLOs.
fn run_scale(
    options: &Options,
    registry: &Arc<ModelRegistry>,
    stream_config: metaseg::stream::StreamConfig,
    predictor: &metaseg_learners::MetaPredictor,
) {
    let cameras = options.cameras;
    let frames = options.frames;
    let conns = options
        .conns
        .unwrap_or_else(|| cameras.min(64))
        .min(cameras);
    let wire = options.wire;

    let handle = Server::spawn(
        "127.0.0.1:0",
        Arc::clone(registry),
        ServerConfig {
            workers: options.workers,
            queue_depth: options.queue_depth,
            batch_max: options.batch,
            synthetic_delay_ms: options.delay_ms,
            ..ServerConfig::default()
        },
    )
    .expect("ephemeral bind succeeds");
    let addr = handle.local_addr();
    println!(
        "serve_loadtest: scale mode — {cameras} sessions over {conns} connections x {frames} \
         frames against {addr} ({} shards, queue depth {}, batch {}, wire {wire}{})",
        options.workers,
        options.queue_depth,
        options.batch,
        if options.hot_swap {
            ", hot-swapping mid-run"
        } else {
            ""
        },
    );

    // One shared frame pool: scale measures the transport and the shard
    // scheduler, not per-camera scene rendering.
    let pool: Arc<Vec<ProbMap>> = {
        let mut rng = StdRng::seed_from_u64(7500);
        let sim = NetworkSim::new(NetworkProfile::weak());
        Arc::new(
            VideoStream::open_endless(
                &video_config(1, FRAME_WIDTH, FRAME_HEIGHT),
                sim,
                0,
                &mut rng,
            )
            .take(frames.min(8))
            .map(|f| f.prediction)
            .collect(),
        )
    };

    let completed = Arc::new(AtomicUsize::new(0));
    let started = Instant::now();
    let connections: Vec<_> = (0..conns)
        .map(|conn_index| {
            let pool = Arc::clone(&pool);
            let completed = Arc::clone(&completed);
            thread::spawn(move || -> (Vec<Duration>, usize, usize, usize) {
                let mut client = ServeClient::connect(addr).expect("connect succeeds");
                client.negotiate(wire).expect("negotiate succeeds");
                // Strided assignment: connection c owns cameras c, c+conns, …
                let sessions: Vec<u64> = (conn_index..cameras)
                    .step_by(conns)
                    .map(|camera| {
                        client
                            .open("default", &format!("cam-{camera}"))
                            .expect("open succeeds")
                            .0
                    })
                    .collect();
                let mut latencies = Vec::with_capacity(sessions.len() * frames);
                let mut verdicts = 0usize;
                let mut retries = 0usize;
                for round in 0..frames {
                    for (slot, &session) in sessions.iter().enumerate() {
                        let frame = &pool[(round + slot) % pool.len()];
                        loop {
                            let submitted = Instant::now();
                            match client.submit(session, frame) {
                                Ok((_, frame_verdicts)) => {
                                    latencies.push(submitted.elapsed());
                                    verdicts += frame_verdicts.len();
                                    completed.fetch_add(1, Ordering::Relaxed);
                                    break;
                                }
                                Err(e) if e.server_code() == Some(ErrorCode::Backpressure) => {
                                    retries += 1;
                                    thread::sleep(Duration::from_millis(2));
                                }
                                Err(e) => panic!("scale session {session} failed: {e}"),
                            }
                        }
                    }
                }
                let mut survived = 0usize;
                for &session in &sessions {
                    let stats = client.close(session).expect("close succeeds");
                    assert_eq!(
                        stats.frames, frames,
                        "session {session} must have served its full frame budget"
                    );
                    survived += 1;
                }
                (latencies, verdicts, retries, survived)
            })
        })
        .collect();

    // The hot swap fires from outside the camera fleet, halfway through the
    // submitted frame budget — the rolling-upgrade moment a real fleet hits:
    // every session already open must keep serving its pinned engine.
    let swapper = options.hot_swap.then(|| {
        let registry = Arc::clone(registry);
        let completed = Arc::clone(&completed);
        let checkpoint = predictor.to_container_bytes();
        let target = (cameras * frames) / 2;
        thread::spawn(move || -> (u64, usize) {
            while completed.load(Ordering::Relaxed) < target {
                thread::sleep(Duration::from_millis(2));
            }
            let before = completed.load(Ordering::Relaxed);
            let version = registry
                .swap_checkpoint("default", stream_config, &checkpoint)
                .expect("hot checkpoint reload succeeds");
            (version, before)
        })
    });

    let mut latencies = Vec::new();
    let mut verdicts = 0usize;
    let mut retries = 0usize;
    let mut survived = 0usize;
    for connection in connections {
        let (conn_latencies, conn_verdicts, conn_retries, conn_survived) =
            connection.join().expect("scale connection never panics");
        latencies.extend(conn_latencies);
        verdicts += conn_verdicts;
        retries += conn_retries;
        survived += conn_survived;
    }
    let elapsed = started.elapsed();
    let hot_swap = swapper.map(|swapper| {
        let (version_after, frames_before_swap) =
            swapper.join().expect("hot-swap thread never panics");
        HotSwapReport {
            version_after,
            frames_before_swap,
            sessions_survived: survived,
        }
    });
    let shards = handle.shard_stats();
    let stats = handle.shutdown();

    latencies.sort();
    let frames_per_s = latencies.len() as f64 / elapsed.as_secs_f64().max(1e-9);
    let report = ScaleReport {
        bench: "serve_loadtest_scale".to_string(),
        cameras,
        connections: conns,
        frames_per_camera: frames,
        workers: options.workers,
        frames_per_s,
        latency: LatencySummary::from_sorted(&latencies),
        verdicts,
        retries,
        server: stats,
        shards,
        slo: options.slo,
        hot_swap,
    };

    println!(
        "sustained {survived} sessions: {} frames, {verdicts} verdicts in {:.2} s \
         ({frames_per_s:.1} frames/s, {retries} backpressure retries)",
        latencies.len(),
        elapsed.as_secs_f64(),
    );
    println!(
        "latency p50 {:.2} ms | p90 {:.2} ms | p99 {:.2} ms | max {:.2} ms",
        report.latency.p50_ms, report.latency.p90_ms, report.latency.p99_ms, report.latency.max_ms,
    );
    for shard in &report.shards {
        println!(
            "shard {}: {} frames, {} rejected, peak depth {} (bound {}), \
             {} micro-batches (largest {})",
            shard.shard,
            shard.frames_processed,
            shard.rejected,
            shard.peak_queue_depth,
            options.queue_depth,
            shard.batches,
            shard.peak_batch,
        );
    }
    if let Some(swap) = &report.hot_swap {
        println!(
            "hot swap: model v{} installed after {} frames; {}/{cameras} pre-swap sessions \
             completed their full budget",
            swap.version_after, swap.frames_before_swap, swap.sessions_survived,
        );
    }

    assert_eq!(
        survived, cameras,
        "every session must complete its full frame budget"
    );
    assert_eq!(
        stats.frames_processed,
        cameras * frames,
        "every accepted frame must be processed exactly once"
    );
    for violation in options.slo.violations(&report.latency) {
        eprintln!(
            "SLO violation: {} = {:.2} ms exceeds the {:.2} ms limit",
            violation.0, violation.1, violation.2
        );
    }

    let out = options.artifact_path("BENCH_serve_scale.json");
    let json = serde_json::to_string_pretty(&report).expect("scale report serialises");
    std::fs::write(&out, format!("{json}\n")).expect("artifact path is writable");
    println!("wrote {}", out.display());

    // The CI gate, evaluated against the written bytes (the same
    // re-read-and-exit-nonzero invariant as `BENCH_corpus.json`): finite
    // percentiles, exact accounting, shard/aggregate consistency, SLOs met,
    // zero dropped sessions.
    let written = std::fs::read_to_string(&out).expect("artifact re-reads");
    let parsed: ScaleReport = serde_json::from_str(&written).expect("artifact re-parses");
    if !parsed.is_finite() {
        eprintln!("non-finite or inconsistent scale metrics: {parsed:?}");
        std::process::exit(1);
    }
    println!("serve_loadtest: OK (scale mode, all metrics finite)");
}

/// Per-camera outcome of one chaos plan.
struct ChaosCameraOutcome {
    latencies: Vec<Duration>,
    served: usize,
    lost_response: usize,
    mismatches: usize,
    reconnects: usize,
    completed: bool,
    killed: Option<String>,
}

/// The deadline/retry policy chaos cameras drive with: deadlines tight
/// enough to cut through a stalled wire quickly, retries generous enough
/// to outlast every decaying fault plan.
fn chaos_client_config(camera: usize) -> ClientConfig {
    ClientConfig {
        connect_timeout: Duration::from_secs(2),
        read_timeout: Some(Duration::from_secs(3)),
        write_timeout: Some(Duration::from_secs(3)),
        max_retries: 30,
        backoff_base: Duration::from_millis(15),
        backoff_max: Duration::from_millis(500),
        jitter_seed: 0xC0FF_EE00 ^ camera as u64,
    }
}

/// Connects through the proxy, negotiates the checksummed binary wire and
/// opens a session — retrying the whole bootstrap on faults (a plan can
/// kill the connection before the session even exists).
fn chaos_bootstrap(
    proxy_addr: std::net::SocketAddr,
    camera: usize,
) -> Result<(ServeClient, u64), ClientError> {
    let config = chaos_client_config(camera);
    let mut last: Option<ClientError> = None;
    for attempt in 0..config.max_retries {
        let outcome = (|| -> Result<(ServeClient, u64), ClientError> {
            let mut client = ServeClient::connect_with(proxy_addr, config)?;
            // The checksummed binary wire is load-bearing: upstream byte
            // corruption is always *rejected* (typed bad-request), never
            // silently applied, so the differential below stays sound.
            client.negotiate(FrameFormat::Binary(ProbEncoding::F64))?;
            let (session, _) = client.open("default", &format!("chaos-{camera}"))?;
            Ok((client, session))
        })();
        match outcome {
            Ok(ok) => return Ok(ok),
            Err(e) => {
                last = Some(e);
                thread::sleep(Duration::from_millis(20 * (attempt as u64 + 1)));
            }
        }
    }
    Err(last.expect("max_retries >= 1"))
}

/// One chaos plan: dedicated server + fault proxy, every camera replays its
/// corpus slice through the proxy with the retrying client, served verdicts
/// compared bit-for-bit against the in-process reference.
fn run_chaos_plan(
    options: &Options,
    registry: &Arc<ModelRegistry>,
    plan: &FaultPlan,
    seed: u64,
    sequences: &Arc<Vec<Vec<ProbMap>>>,
    reference: &Arc<Vec<Vec<Vec<metaseg::stream::SegmentVerdict>>>>,
) -> ChaosPlanReport {
    let handle = Server::spawn(
        "127.0.0.1:0",
        Arc::clone(registry),
        ServerConfig {
            workers: options.workers,
            queue_depth: options.queue_depth,
            batch_max: options.batch,
            // Tight defenses: a mid-frame stall beyond 1.5 s is reaped (the
            // stall plans hold the wire longer than that on purpose), and
            // orphans of faulted connections linger 4 s for resume.
            read_timeout_ms: 1_500,
            idle_timeout_ms: 10_000,
            session_linger_ms: 4_000,
            ..ServerConfig::default()
        },
    )
    .expect("ephemeral bind succeeds");
    let proxy =
        ChaosProxy::spawn(handle.local_addr(), plan.clone(), seed).expect("proxy bind succeeds");
    let proxy_addr = proxy.local_addr();
    println!(
        "chaos plan `{}`: {} cameras x {} frames through {proxy_addr} -> {}",
        plan.name,
        options.cameras,
        options.frames,
        handle.local_addr(),
    );

    let started = Instant::now();
    let cameras: Vec<_> = (0..options.cameras)
        .map(|camera| {
            let frames = options.frames;
            let maps = Arc::clone(sequences);
            let reference = Arc::clone(reference);
            thread::spawn(move || -> ChaosCameraOutcome {
                let mut outcome = ChaosCameraOutcome {
                    latencies: Vec::with_capacity(frames),
                    served: 0,
                    lost_response: 0,
                    mismatches: 0,
                    reconnects: 0,
                    completed: false,
                    killed: None,
                };
                let (mut client, session) = match chaos_bootstrap(proxy_addr, camera) {
                    Ok(ok) => ok,
                    Err(e) => {
                        outcome.killed = Some(format!("bootstrap: {e}"));
                        return outcome;
                    }
                };
                let source = &maps[camera % maps.len()];
                let expected = &reference[camera];
                for index in 0..frames {
                    let frame = &source[index % source.len()];
                    let submitted = Instant::now();
                    match client.submit_with_retry(session, frame) {
                        Ok(Submission::Served { frame, verdicts }) => {
                            outcome.latencies.push(submitted.elapsed());
                            outcome.served += 1;
                            // The differential: a served verdict must be
                            // bit-identical to the in-process engine at the
                            // same frame index — and the index itself must
                            // be exactly the next one (no double-apply, no
                            // skip, whatever the wire did).
                            if frame != index || expected[index] != verdicts {
                                outcome.mismatches += 1;
                            }
                        }
                        Ok(Submission::Applied { frame }) => {
                            outcome.latencies.push(submitted.elapsed());
                            outcome.lost_response += 1;
                            if frame != index {
                                outcome.mismatches += 1;
                            }
                        }
                        Err(e) => {
                            outcome.killed = Some(format!("frame {index}: {e}"));
                            outcome.reconnects = client.reconnects();
                            return outcome;
                        }
                    }
                }
                match client.close_with_retry(session) {
                    // `None` means the close landed earlier and only its
                    // response was lost — the session still completed.
                    Ok(_) => outcome.completed = true,
                    Err(e) => outcome.killed = Some(format!("close: {e}")),
                }
                outcome.reconnects = client.reconnects();
                outcome
            })
        })
        .collect();

    let mut latencies = Vec::new();
    let mut completed = 0usize;
    let mut killed = 0usize;
    let mut served = 0usize;
    let mut lost_response = 0usize;
    let mut mismatches = 0usize;
    let mut reconnects = 0usize;
    for camera in cameras {
        let outcome = camera.join().expect("chaos camera thread never panics");
        if let Some(reason) = &outcome.killed {
            killed += 1;
            eprintln!("chaos plan `{}`: session killed — {reason}", plan.name);
        } else if outcome.completed {
            completed += 1;
        }
        latencies.extend(outcome.latencies);
        served += outcome.served;
        lost_response += outcome.lost_response;
        mismatches += outcome.mismatches;
        reconnects += outcome.reconnects;
    }
    let elapsed = started.elapsed();
    let proxy_stats = proxy.shutdown();

    // The leak gate: with every client gone and the proxy down, the server
    // must drain to zero connections and zero sessions — abandoned
    // bootstrap orphans expire via the linger window, so give the gauges a
    // settle budget comfortably past it.
    let settle_deadline = Instant::now() + Duration::from_secs(20);
    let (mut leaked_connections, mut leaked_sessions) = (usize::MAX, usize::MAX);
    while Instant::now() < settle_deadline {
        leaked_connections = handle.active_connections();
        leaked_sessions = handle.open_sessions();
        if leaked_connections == 0 && leaked_sessions == 0 {
            break;
        }
        thread::sleep(Duration::from_millis(50));
    }
    let server = handle.shutdown();

    latencies.sort();
    let frames_per_s = latencies.len() as f64 / elapsed.as_secs_f64().max(1e-9);
    let report = ChaosPlanReport {
        plan: plan.name.to_string(),
        cameras: options.cameras,
        frames_per_camera: options.frames,
        sessions_completed: completed,
        sessions_killed: killed,
        frames_served: served,
        frames_lost_response: lost_response,
        verdict_mismatches: mismatches,
        reconnects,
        proxy: proxy_stats,
        server,
        leaked_sessions,
        leaked_connections,
        latency: LatencySummary::from_sorted(&latencies),
        frames_per_s,
    };
    println!(
        "chaos plan `{}`: {completed}/{} sessions, {served} served + {lost_response} \
         applied-lost frames, {mismatches} mismatches, {reconnects} reconnects, \
         {} cuts / {} stalls / {} garbage bytes injected, {} timed out / {} shed / {} \
         evicted / {} resumed / {} expired server-side, {:.1} frames/s — {}",
        plan.name,
        options.cameras,
        report.proxy.cuts,
        report.proxy.stalls,
        report.proxy.garbage_bytes,
        report.server.timed_out,
        report.server.shed_connections,
        report.server.evicted_slow,
        report.server.sessions_resumed,
        report.server.sessions_expired,
        frames_per_s,
        if report.survived() {
            "survived"
        } else {
            "FAILED"
        },
    );
    report
}

/// The chaos survival mode: replay the corpus through the fault proxy under
/// each selected plan, write `BENCH_chaos.json`, re-read it and gate on
/// survival.
fn run_chaos(
    options: &Options,
    registry: &Arc<ModelRegistry>,
    stream_config: metaseg::stream::StreamConfig,
    predictor: &metaseg_learners::MetaPredictor,
) {
    let corpus_path = options.corpus.as_ref().expect("caller checked --corpus");
    let corpus = load_corpus(corpus_path).unwrap_or_else(|e| panic!("--corpus: {e}"));
    let sequences: Arc<Vec<Vec<ProbMap>>> = Arc::new(
        corpus
            .sequences
            .iter()
            .map(|(_, frames)| {
                frames
                    .iter()
                    .map(|f| f.payload.decode().expect("recorded payloads decode"))
                    .collect()
            })
            .collect(),
    );

    // The in-process ground truth, computed once per camera up front: the
    // exact per-frame verdicts a fresh engine produces for the exact frame
    // cycle each camera will push through the chaotic wire.
    let reference: Arc<Vec<Vec<Vec<metaseg::stream::SegmentVerdict>>>> = Arc::new(
        (0..options.cameras)
            .map(|camera| {
                let source = &sequences[camera % sequences.len()];
                let frames: Vec<ProbMap> = (0..options.frames)
                    .map(|i| source[i % source.len()].clone())
                    .collect();
                let mut engine = MetaSegStream::new(stream_config, predictor.clone())
                    .expect("loadtest model is valid");
                engine
                    .drain(DecodedFrameSource::new(0, frames))
                    .frame_verdicts
                    .into_iter()
                    .map(|fv| fv.verdicts)
                    .collect()
            })
            .collect(),
    );

    let plans: Vec<FaultPlan> = match (&options.plan, options.smoke) {
        (Some(name), _) => vec![FaultPlan::named(name).expect("validated at parse time")],
        (None, true) => vec![FaultPlan::trickle(), FaultPlan::torn()],
        (None, false) => FaultPlan::suite(),
    };
    println!(
        "serve_loadtest: chaos mode — {} plans over {} ({} sequences, {} frames)",
        plans.len(),
        corpus_path.display(),
        sequences.len(),
        corpus.total_frames(),
    );

    let reports: Vec<ChaosPlanReport> = plans
        .iter()
        .enumerate()
        .map(|(index, plan)| {
            run_chaos_plan(
                options,
                registry,
                plan,
                9_000 + index as u64,
                &sequences,
                &reference,
            )
        })
        .collect();
    let report = ChaosReport {
        bench: "serve_loadtest_chaos".to_string(),
        corpus: corpus_path.display().to_string(),
        smoke: options.smoke,
        plans: reports,
    };

    let out = options.artifact_path("BENCH_chaos.json");
    let json = serde_json::to_string_pretty(&report).expect("chaos report serialises");
    std::fs::write(&out, format!("{json}\n")).expect("artifact path is writable");
    println!("wrote {}", out.display());

    // The survival gate, evaluated against the written bytes (the same
    // re-read-and-exit-nonzero invariant as the other artifacts).
    let written = std::fs::read_to_string(&out).expect("artifact re-reads");
    let parsed: ChaosReport = serde_json::from_str(&written).expect("artifact re-parses");
    if !parsed.is_survivable() {
        eprintln!(
            "chaos survival gate failed for plans {:?}",
            parsed.failed_plans()
        );
        std::process::exit(1);
    }
    println!(
        "serve_loadtest: OK (chaos mode, {} plans survived)",
        parsed.plans.len()
    );
}

/// `--chaos --check <path>`: re-gate an already-written survival report
/// without replaying anything — how CI guards the committed artifact
/// against schema drift and hand-edits.
fn check_chaos(path: &std::path::Path) {
    let written =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("--check {}: {e}", path.display()));
    let parsed: ChaosReport = serde_json::from_str(&written)
        .unwrap_or_else(|e| panic!("--check {}: {e}", path.display()));
    if !parsed.is_survivable() {
        eprintln!(
            "chaos survival gate failed for plans {:?} in {}",
            parsed.failed_plans(),
            path.display()
        );
        std::process::exit(1);
    }
    println!(
        "serve_loadtest: OK ({} re-read, {} plans survived)",
        path.display(),
        parsed.plans.len()
    );
}

fn main() {
    let options = Options::parse();
    if options.chaos {
        assert!(
            !options.scale && options.regime.is_none(),
            "--chaos replays a corpus through the fault proxy; it excludes \
             --scale and --regime"
        );
        if let Some(path) = &options.check {
            check_chaos(path);
            return;
        }
        assert!(
            options.corpus.is_some(),
            "--chaos needs --corpus <path> (record one with corpus_record), \
             or --check <path> to re-gate an existing report"
        );
    } else {
        assert!(
            options.plan.is_none() && !options.smoke && options.check.is_none(),
            "--plan, --smoke and --check are chaos-mode flags; add --chaos"
        );
    }
    if options.scale {
        assert!(
            options.regime.is_none() && options.corpus.is_none(),
            "--scale drives synthetic fleet traffic; it excludes --regime and --corpus"
        );
    } else {
        assert!(
            options.conns.is_none() && !options.hot_swap && !options.slo.is_asserted(),
            "--conns, --hot-swap and --slo-* are scale-mode flags; add --scale"
        );
    }
    if let Some(kind) = options.regime {
        assert!(
            options.corpus.is_none(),
            "--corpus replays recorded traffic verbatim; it excludes --regime \
             (record a degraded corpus with `corpus_record --regime` instead)"
        );
        println!(
            "serve_loadtest: degrading every camera through `{}`",
            kind.name()
        );
    }

    // Fit one small model to serve every camera.
    let (stream_config, predictor) =
        fit_predictor(&video_config(12, FRAME_WIDTH, FRAME_HEIGHT), 2, 7000);
    let registry = Arc::new(ModelRegistry::new());
    registry
        .insert("default", stream_config, predictor.clone())
        .expect("loadtest model is valid");

    if options.chaos {
        run_chaos(&options, &registry, stream_config, &predictor);
        return;
    }
    if options.scale {
        run_scale(&options, &registry, stream_config, &predictor);
        return;
    }
    if options.corpus.is_some() {
        run_corpus(&options, &registry);
        return;
    }

    run_scenario(&options, &registry);
    println!("serve_loadtest: OK");
}

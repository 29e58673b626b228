//! Demo of the multi-camera inference service: spins up `metaseg-serve` on
//! an ephemeral port, loads a model into the registry via its serialized
//! JSON checkpoint form, drives N simulated cameras over real TCP, and
//! prints per-camera verdict summaries plus throughput/latency percentiles.
//!
//! Bounded runtime for CI via flags:
//!
//! ```text
//! cargo run --release --example serve_demo -- --cameras 3 --frames 10
//! ```

use metaseg_bench::serve_fixture::{fit_predictor, percentile_ms, video_config};
use metaseg_suite::metaseg_serve::{FrameFormat, ModelRegistry, ServeClient, Server, ServerConfig};
use metaseg_suite::metaseg_sim::{NetworkProfile, NetworkSim, VideoStream};
use rand::{rngs::StdRng, SeedableRng};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

/// Camera geometry of the demo feed.
const FRAME_WIDTH: usize = 64;
const FRAME_HEIGHT: usize = 32;

fn flag(name: &str, default: usize) -> usize {
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        if arg == name {
            return args
                .next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{name} expects a numeric argument"));
        }
    }
    default
}

/// Parses the `--wire` flag (`binary-f64`, `binary-f32`, `binary-u16`);
/// defaults to the lossless `binary-f64`.
fn wire_flag() -> FrameFormat {
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        if arg == "--wire" {
            let name = args.next().unwrap_or_default();
            return FrameFormat::from_str_opt(&name).unwrap_or_else(|| {
                panic!("--wire expects binary-f64|binary-f32|binary-u16, got `{name}`")
            });
        }
    }
    FrameFormat::Binary(metaseg_suite::metaseg_data::ProbEncoding::F64)
}

fn main() {
    let cameras = flag("--cameras", 3).max(1);
    let frames = flag("--frames", 10).max(1);
    let wire = wire_flag();

    // --- Train once, serialize, serve from the checkpoint. -----------------
    println!("fitting the meta predictor on a small simulated video corpus…");
    let (stream_config, predictor) =
        fit_predictor(&video_config(12, FRAME_WIDTH, FRAME_HEIGHT), 3, 600);

    // The registry consumes the *serialized* checkpoint — exactly what a
    // production fleet would load from object storage.
    let checkpoint = predictor.to_json();
    println!(
        "checkpoint size: {:.1} KiB",
        checkpoint.len() as f64 / 1024.0
    );
    let registry = Arc::new(ModelRegistry::new());
    registry
        .load_json("default", stream_config, &checkpoint)
        .expect("checkpoint round-trips");

    // --- Serve. ------------------------------------------------------------
    let handle = Server::spawn("127.0.0.1:0", registry, ServerConfig::default())
        .expect("ephemeral bind succeeds");
    let addr = handle.local_addr();
    println!(
        "serving on {addr}; driving {cameras} cameras x {frames} frames over TCP \
         (wire format: {wire})\n"
    );

    let started = Instant::now();
    let threads: Vec<_> = (0..cameras)
        .map(|camera| {
            thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(601 + camera as u64);
                let sim = NetworkSim::new(NetworkProfile::weak());
                let source = VideoStream::open_endless(
                    &video_config(1, FRAME_WIDTH, FRAME_HEIGHT),
                    sim,
                    camera,
                    &mut rng,
                );
                let mut client = ServeClient::connect(addr).expect("connect succeeds");
                client.negotiate(wire).expect("negotiate succeeds");
                let (session, _) = client
                    .open("default", &format!("cam-{camera}"))
                    .expect("open succeeds");
                let mut latencies = Vec::new();
                let mut flagged = 0usize;
                let mut verdicts = 0usize;
                for probs in source.take(frames).map(|f| f.prediction) {
                    let submitted = Instant::now();
                    let (_, frame_verdicts) =
                        client.submit(session, &probs).expect("submit succeeds");
                    latencies.push(submitted.elapsed());
                    verdicts += frame_verdicts.len();
                    flagged += frame_verdicts
                        .iter()
                        .filter(|v| v.flagged_false_positive(0.5))
                        .count();
                }
                let stats = client.close(session).expect("close succeeds");
                (camera, latencies, verdicts, flagged, stats)
            })
        })
        .collect();

    let mut all_latencies = Vec::new();
    let mut total_frames = 0usize;
    for thread in threads {
        let (camera, latencies, verdicts, flagged, stats) =
            thread.join().expect("camera thread never panics");
        println!(
            "cam-{camera}: {} frames, {verdicts} segment verdicts ({flagged} flagged as likely \
             false positives), {} tracks, window ≈ {:.1} KiB",
            stats.frames,
            stats.tracks_created,
            stats.window.peak_approx_bytes as f64 / 1024.0
        );
        total_frames += stats.frames;
        all_latencies.extend(latencies);
    }
    let elapsed = started.elapsed();
    all_latencies.sort();
    println!(
        "\nthroughput: {total_frames} frames in {:.2} s = {:.1} frames/s across {cameras} cameras",
        elapsed.as_secs_f64(),
        total_frames as f64 / elapsed.as_secs_f64().max(1e-9)
    );
    println!(
        "per-frame latency: p50 {:.2} ms | p90 {:.2} ms | p99 {:.2} ms",
        percentile_ms(&all_latencies, 0.50),
        percentile_ms(&all_latencies, 0.90),
        percentile_ms(&all_latencies, 0.99)
    );

    let stats = handle.shutdown();
    println!(
        "server drained: {} connections, {} sessions, {} frames processed, \
         {} rejections, peak queue depth {}",
        stats.connections,
        stats.sessions_opened,
        stats.frames_processed,
        stats.rejected,
        stats.peak_queue_depth
    );
}

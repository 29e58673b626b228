//! Differential stress test of the serve path under adverse-condition
//! regimes: for every [`RegimeKind`] of the scenario suite — including the
//! benign identity — verdicts served over the binary wire with forced
//! cross-session micro-batching must be **bit-identical** to what an
//! in-process `MetaSegStream` says about the same degraded frames.
//!
//! This is the serving half of the ScenarioSuite contract: fog-flattened
//! softmaxes, NaN dropout stripes, occlusion bursts, mid-stream resolution
//! switches and jittered feeds all cross the wire (binary f64 — the lossless
//! encoding, NaN included), get scheduled into micro-batches with
//! frames of *other* degraded sessions, and still reproduce the reference
//! engine float for float.

use metaseg_bench::serve_fixture;
use metaseg_suite::metaseg::stream::{FrameVerdicts, MetaSegStream, StreamConfig};
use metaseg_suite::metaseg_data::ProbEncoding;
use metaseg_suite::metaseg_learners::MetaPredictor;
use metaseg_suite::metaseg_serve::{
    FrameFormat, ModelRegistry, ServeClient, Server, ServerConfig, ServerHandle,
};
use metaseg_suite::metaseg_sim::{
    DecodedFrameSource, FrameSource, NetworkProfile, NetworkSim, ProbMap, RegimeKind, RegimeSource,
    VideoConfig, VideoStream,
};
use rand::{rngs::StdRng, SeedableRng};
use std::sync::{Arc, OnceLock};
use std::thread;

/// Frames rendered per camera before degradation (jitter may drop or
/// duplicate some).
const FRAMES_PER_CAMERA: usize = 5;

/// Concurrent degraded cameras per regime — three so the single worker
/// must drain cross-session micro-batches: while it infers one camera's
/// frame, the other two both queue, so the next drain always has a
/// two-session batch available (two cameras would only alternate single
/// jobs and batch by scheduling luck).
const CAMERAS: usize = 3;

fn tiny_video_config() -> VideoConfig {
    serve_fixture::video_config(FRAMES_PER_CAMERA, 48, 24)
}

/// The fitted model is expensive (seconds); share one across the suite.
fn fitted() -> &'static (StreamConfig, MetaPredictor) {
    static FITTED: OnceLock<(StreamConfig, MetaPredictor)> = OnceLock::new();
    FITTED.get_or_init(|| serve_fixture::fit_predictor(&tiny_video_config(), 2, 5100))
}

fn spawn_server(config: ServerConfig) -> ServerHandle {
    let (stream_config, predictor) = fitted().clone();
    let registry = Arc::new(ModelRegistry::new());
    registry
        .insert("default", stream_config, predictor)
        .expect("fixture model is valid");
    Server::spawn("127.0.0.1:0", registry, config).expect("ephemeral bind succeeds")
}

/// The softmax fields of one simulated camera, degraded through `kind`.
fn degraded_camera_frames(kind: RegimeKind, camera: usize) -> Vec<ProbMap> {
    let mut rng = StdRng::seed_from_u64(5200 + camera as u64);
    let sim = NetworkSim::new(NetworkProfile::weak());
    let stream = VideoStream::open(&tiny_video_config(), sim, camera, &mut rng);
    let mut source = RegimeSource::new(kind.build(5300 + camera as u64), stream);
    let mut frames = Vec::new();
    while let Some(frame) = source.next_frame() {
        frames.push(frame.prediction);
    }
    frames
}

/// What the in-process engine says about the same degraded frames, fed
/// through the wire-frame adapter.
fn in_process_verdicts(frames: &[ProbMap]) -> Vec<FrameVerdicts> {
    let (stream_config, predictor) = fitted().clone();
    let mut engine = MetaSegStream::new(stream_config, predictor).expect("fixture model is valid");
    let source = DecodedFrameSource::new(0, frames.to_vec());
    engine.drain(source).frame_verdicts
}

#[test]
fn served_verdicts_are_bit_identical_under_every_regime() {
    // One worker with a synthetic delay: while a frame is inferred, both
    // cameras keep submitting, so the next drain picks up frames of
    // distinct degraded sessions as one micro-batch (asserted below).
    let handle = spawn_server(ServerConfig {
        workers: 1,
        batch_max: 8,
        queue_depth: 32,
        synthetic_delay_ms: 25,
        ..ServerConfig::default()
    });
    let addr = handle.local_addr();

    let mut total_frames = 0usize;
    for &kind in RegimeKind::all() {
        let threads: Vec<_> = (0..CAMERAS)
            .map(|camera| {
                thread::spawn(move || {
                    let frames = degraded_camera_frames(kind, camera);
                    assert!(
                        !frames.is_empty(),
                        "{} must leave the camera at least one frame",
                        kind.name()
                    );
                    let mut client = ServeClient::connect(addr).expect("connect succeeds");
                    // Binary f64 is the lossless wire: NaN dropout stripes
                    // and per-frame resolution switches survive it.
                    client
                        .negotiate(FrameFormat::Binary(ProbEncoding::F64))
                        .unwrap();
                    let (session, _) = client
                        .open("default", &format!("{}-cam-{camera}", kind.name()))
                        .unwrap();
                    let mut served = Vec::new();
                    for probs in &frames {
                        let (frame, verdicts) = client.submit(session, probs).unwrap();
                        served.push(FrameVerdicts { frame, verdicts });
                    }
                    let stats = client.close(session).unwrap();
                    assert_eq!(stats.frames, frames.len());
                    (frames, served)
                })
            })
            .collect();

        for thread in threads {
            let (frames, served) = thread.join().expect("camera thread never panics");
            total_frames += frames.len();
            assert_eq!(
                served,
                in_process_verdicts(&frames),
                "`{}` verdicts must match the in-process engine bit for bit",
                kind.name()
            );
        }
    }

    let stats = handle.shutdown();
    assert_eq!(stats.frames_processed, total_frames);
    assert_eq!(stats.binary_frames, total_frames);
    assert_eq!(stats.rejected, 0, "queue depth 32 must absorb two cameras");
    assert!(
        stats.peak_batch >= 2,
        "the stress scenario must actually exercise cross-session \
         micro-batching (largest drained batch: {})",
        stats.peak_batch
    );
}

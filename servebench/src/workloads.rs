//! The three workloads, their parameters, and how each turns its raw
//! measurements into the named metrics.

use crate::churn::{Churn, ChurnParams};
use crate::engine::Engines;
use crate::fixture::{ping_pong, ClipShape, Model, MODEL};
use crate::fleet::{Applied, Fleet, FleetParams, Load, PhaseOut};
use crate::procstat::{peak_rss_mib, reset_peak_rss, rss_mib, ticks_ms};
use crate::replay::{FrameInput, Probes, ReplayCounts, SessionReplay};
use crate::report::Report;
use crate::stats::{mean, median, Outcomes, Summary};
use crate::trace::{write_spans, Ledger, Span, Tracer};
use crate::window::{self, windows, Window};
use crate::Args;
use metaseg_serve::{ModelRegistry, ServerConfig, ServerStats};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["fleet_small", "engine_large", "session_churn"];

/// Set-up is repeated this many times per run and its median reported.
pub const SETUP_REPEATS: usize = 5;

/// An open-loop run whose generator started most of its frames later than
/// this did not offer the scheduled load, and its lag would show in
/// `frame_p50_ms`; it is reported invalid. The gate is on the median, not
/// the p99: a host stall makes a burst of frames late, which the due-time
/// latency rightly charges to them, while a generator that cannot keep the
/// schedule makes every frame late.
pub const GENERATOR_LATE_P50_BOUND_MS: f64 = 0.5;

/// Generator threads and connections: at most the 2 cores of the reference
/// box.
pub const GENERATOR_THREADS: usize = 2;

/// `fleet_small`: cameras, shape and load.
pub const FLEET_SESSIONS: usize = 256;
/// Offered open-loop rate of phase 1, frames per second.
pub const FLEET_RATE: f64 = 250.0;
/// Frames in flight per connection in phase 2.
pub const FLEET_IN_FLIGHT: usize = 8;
/// Clip of every fleet camera: 48x24, 19 classes, 4 frames played
/// forwards and backwards.
pub const FLEET_SHAPE: ClipShape = ClipShape {
    width: 48,
    height: 24,
    frames: 4,
    weak: true,
};

/// `engine_large`: 256x128 frames, strong network, 4 frames per scene.
pub const ENGINE_SHAPE: ClipShape = ClipShape {
    width: 256,
    height: 128,
    frames: 4,
    weak: false,
};
/// Scenes strung together in each engine session's clip, so a run's cost
/// does not hang on one scene's segment count.
pub const ENGINE_SCENES: usize = 4;
/// Engine frames per session that also run the off-path probes.
pub const ENGINE_PROBE_FRAMES: usize = 16;

/// `session_churn`: frames per session, clip pool and swap cadence.
pub const CHURN_FRAMES_PER_SESSION: usize = 4;
/// Distinct clips churn sessions cycle through.
pub const CHURN_CLIPS: usize = 64;
/// Interval between live checkpoint re-installs.
pub const CHURN_SWAP_EVERY: Duration = Duration::from_secs(1);

/// Swaps and opens timed by the off-path registry and session probes.
const REGISTRY_PROBES: usize = 8;

/// The server every served workload runs against.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        queue_depth: 64,
        batch_max: 4,
        ..ServerConfig::default()
    }
}

/// Runs the workload `args` names and returns its report.
pub fn run(args: &Args) -> Report {
    let origin = Instant::now();
    let mut report = Report::default();
    let fit = Instant::now();
    let model = Model::fit();
    report.set("setup.fit_s", fit.elapsed().as_secs_f64(), "s");
    let spans = match args.workload.as_str() {
        "fleet_small" => fleet_small(args, &model, &mut report, origin),
        "engine_large" => engine_large(args, &model, &mut report, origin),
        "session_churn" => session_churn(args, &model, &mut report, origin),
        other => unreachable!("workload {other} was validated"),
    };
    let setup_peak = report.get("rss.setup_peak_mb").unwrap_or(f64::NAN);
    report.set(
        "process.peak_rss_mb",
        peak_rss_mib().unwrap_or(f64::NAN).max(setup_peak),
        "MiB",
    );
    if args.trace {
        let path = Path::new(".bench_out")
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = write_spans(&path, &spans) {
            eprintln!("servebench: could not write {}: {e}", path.display());
        } else {
            println!(
                "servebench: {} spans written to {}",
                spans.len(),
                path.display()
            );
        }
    }
    report
}

/// The program's share of resident memory: how far the peak resident set
/// rises during the measured phases above the resident set once set-up is
/// done. The benchmark's inputs (clips, payloads) are resident before the
/// baseline, it keeps served frames as one digest each, and the replay runs
/// after the peak is read, so the growth is the server's or the engine's:
/// first-frame scratch, tracker and window state, queues and buffers.
struct Memory {
    baseline_mib: f64,
}

impl Memory {
    /// Takes the baseline once set-up is done and resets the peak to it.
    fn baseline(report: &mut Report) -> Self {
        report.set(
            "rss.setup_peak_mb",
            peak_rss_mib().unwrap_or(f64::NAN),
            "MiB",
        );
        if let Err(e) = reset_peak_rss() {
            report.invalidate(format!("the peak resident set cannot be reset: {e}"));
        }
        let baseline_mib = rss_mib().unwrap_or(f64::NAN);
        report.set("rss.baseline_mb", baseline_mib, "MiB");
        Self { baseline_mib }
    }

    /// Records `peak_rss_mb` at the end of the measured phases.
    fn measured(self, report: &mut Report) {
        let peak = peak_rss_mib().unwrap_or(f64::NAN);
        report.set("peak_rss_mb", peak - self.baseline_mib, "MiB");
    }
}

/// Per-thread tick counts are truncated separately, so their sum may
/// exceed the process count by about one tick per thread and interval.
const TICK_SLACK: u64 = 8;

/// Who pays for the frames besides the program itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Split {
    /// Served workloads: server = process minus the generator threads.
    Served,
    /// In-process workload: the engine is everything but the main thread.
    InProcess,
}

/// Records the per-role CPU over the measured phases and checks that the
/// parts do not exceed the process total.
fn cpu_split(report: &mut Report, total: &Window, frames: u64, split: Split) {
    let per = |ticks: u64| ticks_ms(ticks) / frames.max(1) as f64;
    let parts = match split {
        Split::Served => {
            report.set("transport.cpu_ms_per_frame", per(total.transport), "ms");
            report.set("shard.cpu_ms_per_frame", per(total.shard), "ms");
            total.generator + total.transport + total.shard + total.main
        }
        Split::InProcess => {
            // No server: the engine threads play the shards' part.
            report.set("shard.cpu_ms_per_frame", per(total.generator), "ms");
            total.generator + total.main
        }
    };
    if parts > total.process + TICK_SLACK {
        report.invalidate(format!(
            "CPU parts ({parts} ticks) exceed the process total ({} ticks)",
            total.process
        ));
    }
}

/// Throughput and CPU per frame as medians over one-second windows.
fn window_metrics(report: &mut Report, windows: &[Window], split: Split) {
    let med = |f: &dyn Fn(&Window) -> f64| -> f64 {
        median(
            &windows
                .iter()
                .filter(|w| w.frames > 0)
                .map(f)
                .collect::<Vec<_>>(),
        )
    };
    let per = |ticks: u64, w: &Window| ticks_ms(ticks) / w.frames as f64;
    report.set("frames_per_s", median_rate(windows), "frames/s");
    report.set(
        "process_cpu_ms_per_frame",
        med(&|w| per(w.process, w)),
        "ms",
    );
    match split {
        Split::Served => {
            report.set(
                "server_cpu_ms_per_frame",
                med(&|w| per(w.process.saturating_sub(w.generator), w)),
                "ms",
            );
            report.set(
                "client_cpu_ms_per_frame",
                med(&|w| per(w.generator, w)),
                "ms",
            );
        }
        Split::InProcess => report.set(
            "server_cpu_ms_per_frame",
            med(&|w| per(w.process.saturating_sub(w.main), w)),
            "ms",
        ),
    }
    report.set("windows", windows.len() as f64, "count");
}

/// Records the server's own counters.
fn server_counters(report: &mut Report, stats: &ServerStats) {
    report.set(
        "shard.peak_queue_depth",
        stats.peak_queue_depth as f64,
        "frames",
    );
    report.set(
        "shard.frames_per_batch",
        stats.frames_processed as f64 / stats.batches.max(1) as f64,
        "frames",
    );
    report.set("shard.rejected", stats.rejected as f64, "count");
    report.set("server.timed_out", stats.timed_out as f64, "count");
    report.set("server.evicted_slow", stats.evicted_slow as f64, "count");
    report.set(
        "server.shed_connections",
        stats.shed_connections as f64,
        "count",
    );
}

/// Records a latency sample as `frame_p50_ms` and, when at least 10
/// samples lie beyond it, `frame_p99_ms`.
fn frame_latency(report: &mut Report, samples_ms: Vec<f64>) {
    let summary = Summary::of(samples_ms);
    println!("servebench: frame latency {}", summary.describe());
    report.set("frame_p50_ms", summary.p50_ms, "ms");
    report.set("frame.samples", summary.count as f64, "frames");
    if let Some(p99) = summary.p99_ms {
        report.set("frame_p99_ms", p99, "ms");
    }
}

/// Records the outcome tally.
fn record_outcomes(report: &mut Report, outcomes: &Outcomes) {
    if !outcomes.balanced() {
        report.invalidate(format!("the outcome tally does not add up: {outcomes:?}"));
    }
    report.attempted += outcomes.attempted;
    report.failed += outcomes.failed();
    report.mismatched += outcomes.mismatched;
    report.set("failed_frac", outcomes.failed_frac(), "ratio");
    report.set("frames.attempted", outcomes.attempted as f64, "frames");
    report.set("frames.refused", outcomes.refused as f64, "frames");
    report.set("frames.timed_out", outcomes.timed_out as f64, "frames");
    report.set("frames.mismatched", outcomes.mismatched as f64, "frames");
}

/// Set-up timing. The first set-up is the one the run uses; the other
/// `SETUP_REPEATS - 1` run after the measured phases, so the memory they
/// free never sits under the resident-set baseline. `setup_s` is the median
/// of all of them.
struct Setups<F> {
    setup: F,
    setup_s: Vec<f64>,
    render_s: Vec<f64>,
}

impl<T, F: FnMut() -> (T, f64)> Setups<F> {
    /// Runs and times the set-up the run uses.
    fn first(setup: F) -> (T, Self) {
        let mut setups = Self {
            setup,
            setup_s: Vec::new(),
            render_s: Vec::new(),
        };
        let value = setups.time();
        (value, setups)
    }

    fn time(&mut self) -> T {
        let start = Instant::now();
        let (value, render) = (self.setup)();
        self.setup_s.push(start.elapsed().as_secs_f64());
        self.render_s.push(render);
        value
    }

    /// Times the remaining repeats, discarding each, and records the
    /// medians.
    fn finish(mut self, report: &mut Report, discard: impl Fn(T)) {
        while self.setup_s.len() < SETUP_REPEATS {
            let value = self.time();
            discard(value);
        }
        report.set("setup_s", median(&self.setup_s), "s");
        report.set("setup.render_s", median(&self.render_s), "s");
    }
}

/// Times `REGISTRY_PROBES` re-installs of the checkpoint (off the served
/// path, after the measured phases).
fn swap_probe(registry: &ModelRegistry, model: &Model) -> Vec<f64> {
    (0..REGISTRY_PROBES)
        .map(|_| {
            let start = Instant::now();
            registry
                .swap_checkpoint(MODEL, model.config, &model.checkpoint)
                .expect("the same checkpoint re-installs");
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

/// Per-frame time outside the stages of a frame: its observed round trip
/// minus every stage span of the same frame, averaged over frames that
/// have a round-trip span.
fn unattributed_ms(spans: &[Span], roundtrip: &str, stages: &[&str]) -> f64 {
    let mut per_frame: HashMap<u64, (u64, u64, bool)> = HashMap::new();
    for span in spans {
        if span.name == roundtrip {
            let entry = per_frame.entry(span.frame).or_default();
            entry.0 += span.dur_ns();
            entry.2 = true;
        } else if stages.contains(&span.name) {
            per_frame.entry(span.frame).or_default().1 += span.dur_ns();
        }
    }
    let gaps: Vec<f64> = per_frame
        .values()
        .filter(|(_, _, has)| *has)
        .map(|(rt, st, _)| (*rt as f64 - *st as f64) / 1e6)
        .collect();
    mean(&gaps)
}

/// The server-side and client-side stages a served frame passes through.
const SERVED_STAGES: [&str; 5] = [
    "wire.encode",
    "wire.verify",
    "stream.push_payload",
    "protocol.encode",
    "protocol.decode",
];

/// The per-layer metrics every workload derives from its spans and replay
/// counts the same way.
fn layer_metrics(report: &mut Report, spans: &[Span], counts: &ReplayCounts) {
    let ledger = Ledger::of(spans);
    let frames = ledger.frames("stream.push").max(1) as f64;
    for (metric, span) in [
        ("crc.ms_per_frame", "crc.probe"),
        ("wire.encode_ms", "wire.encode"),
        ("wire.verify_ms", "wire.verify"),
        ("protocol.encode_ms", "protocol.encode"),
        ("protocol.decode_ms", "protocol.decode"),
        ("pipeline.extract_ms", "pipeline.extract"),
        ("imgproc.label_ms", "imgproc.label"),
        ("tracking.observe_ms", "tracking.observe"),
        ("stream.window_ms", "stream.window"),
        ("inference.predict_ms", "inference.predict"),
    ] {
        report.set(metric, ledger.self_ms_per_frame(span), "ms");
    }
    let push_ms = ledger.total_ms_per_frame("stream.push_payload");
    report.set("stream.push_ms", push_ms, "ms");
    report.set(
        "stream.self_ms",
        ledger.self_ms_per_frame("stream.push"),
        "ms",
    );
    let children: f64 = [
        "pipeline.extract",
        "tracking.observe",
        "stream.window",
        "inference.predict",
    ]
    .iter()
    .map(|name| ledger.total_ms_per_frame(name))
    .sum();
    report.set(
        "trace.reconcile_err_frac",
        (children - push_ms).abs() / push_ms,
        "ratio",
    );
    report.set(
        "wire.up_bytes_per_frame",
        counts.up_bytes as f64 / counts.wire_frames.max(1) as f64,
        "bytes",
    );
    report.set(
        "protocol.down_bytes_per_frame",
        counts.down_bytes as f64 / frames,
        "bytes",
    );
    report.set(
        "imgproc.components_per_frame",
        counts.components as f64 / ledger.frames("imgproc.label").max(1) as f64,
        "count",
    );
    report.set(
        "tracking.active_tracks",
        counts.active_tracks as f64 / frames,
        "count",
    );
    report.set(
        "stream.verdicts_per_frame",
        counts.verdicts as f64 / frames,
        "count",
    );
    if counts.chain_mismatched > 0 {
        eprintln!(
            "servebench: the decomposed stage chain differs from push_payload on {} frames",
            counts.chain_mismatched
        );
        report.mismatched += counts.chain_mismatched;
    }
    report.set(
        "trace.chain_mismatched",
        counts.chain_mismatched as f64,
        "frames",
    );
}

/// The measured phase of a traced run alternates untraced and traced
/// quarters, so `trace.overhead_frac` compares like with like; an untraced
/// run measures one untraced phase.
fn slices(trace: bool) -> &'static [bool] {
    if trace {
        &[false, true, false, true]
    } else {
        &[false]
    }
}

/// Median frames per second over windows.
fn median_rate(windows: &[Window]) -> f64 {
    median(
        &windows
            .iter()
            .filter(|w| w.frames > 0)
            .map(|w| w.frames as f64 / w.secs)
            .collect::<Vec<_>>(),
    )
}

/// Records `trace.overhead_frac` from the windows of the untraced and
/// traced slices of a traced run: the share of untraced throughput the
/// tracing costs.
fn trace_overhead(report: &mut Report, untraced: &[Window], traced: &[Window]) {
    report.set(
        "trace.overhead_frac",
        1.0 - median_rate(traced) / median_rate(untraced),
        "ratio",
    );
}

// ---------------------------------------------------------------- fleet

fn replay_fleet(
    fleet: &Fleet,
    applied: &[Applied],
    replays: &mut [SessionReplay],
    tracer: &mut Tracer,
    counts: &mut ReplayCounts,
) -> u64 {
    let probes = Probes {
        off_path: true,
        client_side: false,
    };
    let before = counts.mismatched;
    for a in applied {
        let clip = &fleet.clips[a.session];
        replays[a.session].frame(
            FrameInput::Map(&clip[ping_pong(a.pos, clip.len())]),
            fleet.session_ids[a.session],
            a.digest,
            probes,
            tracer,
            a.fid,
            counts,
        );
    }
    counts.mismatched - before
}

/// Fills in `correct`/`mismatched` of a phase from its replay.
fn settle(phase: &mut PhaseOut, mismatched: u64) {
    phase.outcomes.mismatched = mismatched;
    phase.outcomes.correct = phase.applied.len() as u64 - mismatched;
}

fn fleet_small(args: &Args, model: &Model, report: &mut Report, origin: Instant) -> Vec<Span> {
    let params = FleetParams {
        sessions: FLEET_SESSIONS,
        conns: GENERATOR_THREADS,
        shape: FLEET_SHAPE,
        server: server_config(),
    };
    let (mut fleet, setups) = Setups::first(|| {
        let fleet = Fleet::setup(params, model, args.seed);
        let render = fleet.render_s;
        (fleet, render)
    });
    let memory = Memory::baseline(report);

    // Warm-up: one frame per session, replayed but not measured.
    let warm_load = Load::Closed {
        per_conn: FLEET_IN_FLIGHT,
        max_frames: Some(FLEET_SESSIONS as u64),
    };
    let mut warm = fleet.run(warm_load, Duration::from_secs(60), 0, false, origin);

    // Phase 1: open loop, the latency metrics.
    let half = args.seconds / 2;
    let mut open = fleet.run(
        Load::Open { rate: FLEET_RATE },
        half,
        1 << 40,
        args.trace,
        origin,
    );

    // Phase 2: closed loop, the throughput.
    let closed = Load::Closed {
        per_conn: FLEET_IN_FLIGHT,
        max_frames: None,
    };
    let slices = slices(args.trace);
    let slice = half / slices.len() as u32;
    let closed_phases: Vec<(bool, PhaseOut)> = slices
        .iter()
        .enumerate()
        .map(|(i, &trace_slice)| {
            let fid_base = (2 + i as u64) << 40;
            (
                trace_slice,
                fleet.run(closed, slice, fid_base, trace_slice, origin),
            )
        })
        .collect();
    memory.measured(report);
    if fleet.stranded() {
        report.invalidate(
            "frames were still unanswered after the reply grace; the phases after it were skipped",
        );
    }

    // Every applied frame is replayed in serving order, off the clock.
    let entry = fleet.entry();
    let mut replays: Vec<SessionReplay> = (0..FLEET_SESSIONS)
        .map(|_| SessionReplay::new(&entry, args.trace))
        .collect();
    let mut spans = Vec::new();
    let mut counts = ReplayCounts::default();
    let mut replay_tracer = Tracer::new(origin, 3, args.trace);
    let mut total = Outcomes::default();
    let mut replay = |phase: &mut PhaseOut, tracer: &mut Tracer, counts: &mut ReplayCounts| {
        let mismatched = replay_fleet(&fleet, &phase.applied, &mut replays, tracer, counts);
        settle(phase, mismatched);
        total.add(&phase.outcomes);
        phase.outcomes.correct
    };

    let mut quiet = Tracer::new(origin, 4, false);
    replay(&mut warm, &mut quiet, &mut ReplayCounts::default());

    let mut served = replay(&mut open, &mut replay_tracer, &mut counts);
    let mut cpu_total = window::total(&open.samples);
    let late = Summary::of(open.late_ms.clone());
    report.set(
        "generator.late_p99_ms",
        late.p99_ms.or(late.tail.map(|t| t.1)).unwrap_or(f64::NAN),
        "ms",
    );
    report.set("generator.late_p50_ms", late.p50_ms, "ms");
    if late.p50_ms > GENERATOR_LATE_P50_BOUND_MS {
        report.invalidate(format!(
            "the generator started frames {:.3} ms late at the median (bound {GENERATOR_LATE_P50_BOUND_MS} ms)",
            late.p50_ms
        ));
    }
    frame_latency(report, open.latency_ms.clone());
    spans.append(&mut open.spans);

    let (mut plain_windows, mut traced_windows) = (Vec::new(), Vec::new());
    for (trace_slice, mut phase) in closed_phases {
        cpu_total.add(&window::total(&phase.samples));
        let slice_windows = windows(&phase.samples, std::mem::take(&mut phase.done_at));
        let bucket = if trace_slice {
            &mut traced_windows
        } else {
            &mut plain_windows
        };
        bucket.extend(slice_windows);
        served += replay(&mut phase, &mut replay_tracer, &mut counts);
        spans.append(&mut phase.spans);
    }
    window_metrics(report, &plain_windows, Split::Served);
    if args.trace {
        trace_overhead(report, &plain_windows, &traced_windows);
    }
    cpu_split(report, &cpu_total, served, Split::Served);

    // Off-path probes, then teardown (closes are timed).
    report.set(
        "registry.swap_ms",
        mean(&swap_probe(fleet.handle().registry(), model)),
        "ms",
    );
    report.set("client.open_ms", mean(&fleet.open_ms), "ms");
    let (close_ms, stats) = fleet.teardown();
    report.set("client.close_ms", mean(&close_ms), "ms");
    server_counters(report, &stats);
    record_outcomes(report, &total);
    setups.finish(report, Fleet::discard);

    spans.append(&mut replay_tracer.into_spans());
    if args.trace {
        layer_metrics(report, &spans, &counts);
        report.set(
            "transport_queue_ms",
            unattributed_ms(&spans, "client.roundtrip", &SERVED_STAGES),
            "ms",
        );
    }
    spans
}

// ---------------------------------------------------------------- engine

fn engine_large(args: &Args, model: &Model, report: &mut Report, origin: Instant) -> Vec<Span> {
    let (mut engines, setups) = Setups::first(|| {
        let engines = Engines::setup(
            model,
            args.seed,
            GENERATOR_THREADS,
            ENGINE_SCENES,
            ENGINE_SHAPE,
        );
        let render = engines.render_s;
        (engines, render)
    });
    let memory = Memory::baseline(report);
    let slices = slices(args.trace);
    let slice = args.seconds / slices.len() as u32;
    let mut outs = Vec::new();
    let mut cpu_total = Window::default();
    let (mut plain_windows, mut traced_windows) = (Vec::new(), Vec::new());
    for (i, &trace_slice) in slices.iter().enumerate() {
        let (mut slice_outs, samples) = engines.run(slice, (i as u64) << 40, trace_slice, origin);
        cpu_total.add(&window::total(&samples));
        let done: Vec<Instant> = slice_outs
            .iter_mut()
            .flat_map(|o| std::mem::take(&mut o.done_at))
            .collect();
        let slice_windows = windows(&samples, done);
        let bucket = if trace_slice {
            &mut traced_windows
        } else {
            &mut plain_windows
        };
        bucket.extend(slice_windows);
        outs.push(slice_outs);
    }
    memory.measured(report);

    // Replay every session's pushes in order on a twin engine, one thread
    // per session.
    let entry = engines.entry();
    let per_session: Vec<Vec<&crate::engine::Pushed>> = (0..engines.sessions.len())
        .map(|s| {
            outs.iter()
                .flat_map(|slice| slice[s].pushed.iter())
                .collect()
        })
        .collect();
    let replayed: Vec<(ReplayCounts, Vec<Span>)> = thread::scope(|scope| {
        let handles: Vec<_> = per_session
            .iter()
            .zip(&engines.sessions)
            .enumerate()
            .map(|(s, (pushed, session))| {
                let entry = Arc::clone(&entry);
                scope.spawn(move || {
                    let mut replay = SessionReplay::new(&entry, args.trace);
                    let mut tracer = Tracer::new(origin, 48 + s as u64, args.trace);
                    let mut counts = ReplayCounts::default();
                    for (n, p) in pushed.iter().enumerate() {
                        let probe = n < ENGINE_PROBE_FRAMES;
                        let probes = Probes {
                            off_path: probe,
                            client_side: probe,
                        };
                        let payload = session.payload(p.pos);
                        replay.frame(
                            FrameInput::Payload(payload),
                            s as u64 + 1,
                            p.digest,
                            probes,
                            &mut tracer,
                            p.fid,
                            &mut counts,
                        );
                    }
                    (counts, tracer.into_spans())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread"))
            .collect()
    });
    let mut counts = ReplayCounts::default();
    let mut spans: Vec<Span> = outs
        .iter_mut()
        .flat_map(|slice| slice.iter_mut().flat_map(|o| std::mem::take(&mut o.spans)))
        .collect();
    for (c, mut s) in replayed {
        counts.add(&c);
        spans.append(&mut s);
    }

    let frames = counts.frames;
    let outcomes = Outcomes {
        attempted: frames,
        correct: frames - counts.mismatched,
        mismatched: counts.mismatched,
        ..Outcomes::default()
    };
    record_outcomes(report, &outcomes);
    window_metrics(report, &plain_windows, Split::InProcess);
    frame_latency(
        report,
        outs.iter()
            .flat_map(|slice| slice.iter().flat_map(|o| o.latency_ms.iter().copied()))
            .collect(),
    );
    cpu_split(report, &cpu_total, frames, Split::InProcess);

    // Off-path probes: in-process open and close (drop) of a stream, and
    // checkpoint re-installs.
    let mut open_ms = engines.open_ms.clone();
    let mut close_ms = Vec::new();
    for _ in 0..REGISTRY_PROBES {
        let start = Instant::now();
        let stream = engines
            .registry()
            .get(MODEL)
            .expect("model registered")
            .open_stream();
        open_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let start = Instant::now();
        drop(std::hint::black_box(stream));
        close_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    report.set("client.open_ms", mean(&open_ms), "ms");
    report.set("client.close_ms", mean(&close_ms), "ms");
    report.set(
        "registry.swap_ms",
        mean(&swap_probe(engines.registry(), model)),
        "ms",
    );
    drop(engines);
    setups.finish(report, drop);

    if args.trace {
        trace_overhead(report, &plain_windows, &traced_windows);
        layer_metrics(report, &spans, &counts);
        let gaps: Vec<f64> = outs
            .iter()
            .flat_map(|slice| slice.iter().flat_map(|o| o.gap_ms.iter().copied()))
            .collect();
        // No transport: the only time outside the engine is the
        // generator's hand-over between pushes.
        report.set("transport_queue_ms", mean(&gaps), "ms");
    }
    spans
}

// ---------------------------------------------------------------- churn

fn session_churn(args: &Args, model: &Model, report: &mut Report, origin: Instant) -> Vec<Span> {
    let params = ChurnParams {
        clients: GENERATOR_THREADS,
        frames_per_session: CHURN_FRAMES_PER_SESSION,
        clips: CHURN_CLIPS,
        shape: ClipShape {
            frames: CHURN_FRAMES_PER_SESSION,
            ..FLEET_SHAPE
        },
        swap_every: CHURN_SWAP_EVERY,
        server: server_config(),
    };
    let (mut churn, setups) = Setups::first(|| {
        let churn = Churn::setup(params, model, args.seed);
        let render = churn.render_s;
        (churn, render)
    });
    let memory = Memory::baseline(report);
    let slices = slices(args.trace);
    let slice = args.seconds / slices.len() as u32;
    let mut cpu_total = Window::default();
    let mut outs = Vec::new();
    let mut swap_ms = Vec::new();
    let mut sessions_done = 0usize;
    let mut plain_wall = 0.0;
    let (mut plain_windows, mut traced_windows) = (Vec::new(), Vec::new());
    for (i, &trace_slice) in slices.iter().enumerate() {
        let start = Instant::now();
        let (mut clients, swaps, samples) =
            churn.run(model, slice, (i as u64) << 40, trace_slice, origin);
        let wall = start.elapsed().as_secs_f64();
        cpu_total.add(&window::total(&samples));
        let done: Vec<Instant> = clients
            .iter_mut()
            .flat_map(|c| std::mem::take(&mut c.done_at))
            .collect();
        let slice_windows = windows(&samples, done);
        let bucket = if trace_slice {
            &mut traced_windows
        } else {
            &mut plain_windows
        };
        bucket.extend(slice_windows);
        swap_ms.extend(swaps);
        if !trace_slice {
            sessions_done += clients.iter().map(|c| c.sessions.len()).sum::<usize>();
            plain_wall += wall;
        }
        outs.extend(clients);
    }
    memory.measured(report);

    // Replay each session from a fresh twin: the re-installed checkpoint
    // is the same bytes, so every version serves the same verdicts.
    let entry = churn.entry();
    let mut counts = ReplayCounts::default();
    let mut tracer = Tracer::new(origin, 5, args.trace);
    let probes = Probes {
        off_path: true,
        client_side: true,
    };
    let mut outcomes = Outcomes::default();
    for client in &outs {
        outcomes.attempted += client.attempted;
        outcomes.refused += client.refused;
        outcomes.errored += client.errored;
        for log in &client.sessions {
            let mut replay = SessionReplay::new(&entry, args.trace);
            for &(j, digest) in &log.frames {
                replay.frame(
                    FrameInput::Map(&churn.clips[log.clip][j]),
                    log.session,
                    digest,
                    probes,
                    &mut tracer,
                    log.fid + j as u64,
                    &mut counts,
                );
            }
        }
    }
    outcomes.mismatched = counts.mismatched;
    outcomes.correct = counts.frames - counts.mismatched;
    record_outcomes(report, &outcomes);

    let frames = counts.frames;
    window_metrics(report, &plain_windows, Split::Served);
    report.set(
        "sessions_per_s",
        sessions_done as f64 / plain_wall,
        "sessions/s",
    );
    frame_latency(
        report,
        outs.iter()
            .flat_map(|c| c.frame_ms.iter().copied())
            .collect(),
    );
    let opens = Summary::of(
        outs.iter()
            .flat_map(|c| c.open_ms.iter().copied())
            .collect(),
    );
    println!("servebench: open latency {}", opens.describe());
    if let Some(p99) = opens.p99_ms {
        report.set("open_p99_ms", p99, "ms");
    }
    cpu_split(report, &cpu_total, frames, Split::Served);
    report.set(
        "client.open_ms",
        mean(
            &outs
                .iter()
                .flat_map(|c| c.open_ms.iter().copied())
                .collect::<Vec<_>>(),
        ),
        "ms",
    );
    report.set(
        "client.close_ms",
        mean(
            &outs
                .iter()
                .flat_map(|c| c.close_ms.iter().copied())
                .collect::<Vec<_>>(),
        ),
        "ms",
    );
    report.set("registry.swap_ms", mean(&swap_ms), "ms");
    report.set("registry.swaps", swap_ms.len() as f64, "count");
    let stats = churn.teardown();
    server_counters(report, &stats);
    setups.finish(report, |churn| {
        churn.teardown();
    });

    let mut spans: Vec<Span> = outs
        .iter_mut()
        .flat_map(|c| std::mem::take(&mut c.spans))
        .collect();
    spans.append(&mut tracer.into_spans());
    if args.trace {
        trace_overhead(report, &plain_windows, &traced_windows);
        layer_metrics(report, &spans, &counts);
        report.set(
            "transport_queue_ms",
            unattributed_ms(&spans, "client.submit", &SERVED_STAGES),
            "ms",
        );
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(frame: u64, name: &'static str, dur: u64) -> Span {
        Span {
            id: frame * 10 + dur,
            parent: 0,
            name,
            frame,
            start_ns: 0,
            end_ns: dur,
        }
    }

    #[test]
    fn unattributed_time_is_round_trip_minus_stages_per_frame() {
        let spans = vec![
            span(1, "client.roundtrip", 10_000_000),
            span(1, "wire.encode", 1_000_000),
            span(1, "stream.push_payload", 5_000_000),
            span(2, "client.roundtrip", 6_000_000),
            span(2, "stream.push_payload", 4_000_000),
            // A frame replayed but not traced live does not count.
            span(3, "stream.push_payload", 9_000_000),
        ];
        let gap = unattributed_ms(&spans, "client.roundtrip", &SERVED_STAGES);
        assert!((gap - 3.0).abs() < 1e-12, "{gap}");
    }

    /// `design.json` records the parameters this file runs with, and its
    /// prediction table names every per-layer metric.
    #[test]
    fn design_record_matches_the_code() {
        use serde::Value;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/design.json");
        let text = std::fs::read_to_string(path).expect("design.json exists");
        let design: Value = serde_json::from_str(&text).expect("design.json parses");
        let get = |v: &'_ Value, key: &str| v.get(key).cloned().unwrap_or(Value::Null);
        let server = get(&design, "server_config");
        let config = server_config();
        assert_eq!(
            get(&server, "workers").as_u64(),
            Some(config.workers as u64)
        );
        assert_eq!(
            get(&server, "queue_depth").as_u64(),
            Some(config.queue_depth as u64)
        );
        assert_eq!(
            get(&server, "batch_max").as_u64(),
            Some(config.batch_max as u64)
        );
        let limits = get(&design, "generator_limits");
        assert_eq!(
            get(&limits, "threads").as_u64(),
            Some(GENERATOR_THREADS as u64)
        );
        assert_eq!(
            get(&limits, "connections").as_u64(),
            Some(GENERATOR_THREADS as u64)
        );
        let workloads = get(&design, "workloads");
        let workloads = workloads.as_array().expect("workloads list");
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap_or(""))
            .collect();
        assert_eq!(names, NAMES);
        assert_eq!(
            get(&workloads[0], "sessions").as_u64(),
            Some(FLEET_SESSIONS as u64)
        );
        assert_eq!(
            get(&workloads[1], "sessions").as_u64(),
            Some(GENERATOR_THREADS as u64)
        );
        let predicted: Vec<String> = get(&design, "predictions")
            .as_array()
            .expect("prediction table")
            .iter()
            .flat_map(|row| get(row, "metrics").as_array().unwrap_or(&[]).to_vec())
            .filter_map(|m| m.as_str().map(String::from))
            .collect();
        for (metric, _) in crate::report::PER_LAYER {
            assert!(
                predicted.iter().any(|p| p == metric),
                "{metric} has no row in the prediction table"
            );
        }
    }
}

//! `engine_large`: the streaming engine used as a library, no server and no
//! wire. Each generator thread owns one session and pushes its next
//! pre-encoded frame as soon as the last push returns.

use crate::fixture::{ping_pong, render_clip, verdict_digest, ClipShape, Model, MODEL};
use crate::trace::{Span, Tracer};
use crate::window::{monitor, Generators, Sample};
use metaseg::stream::MetaSegStream;
use metaseg::DispersionPrecision;
use metaseg_data::{ProbEncoding, ProbPayload};
use metaseg_serve::{ModelEntry, ModelRegistry};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// One session: its engine and its clip, encoded once during set-up.
pub struct EngineSession {
    stream: MetaSegStream,
    payloads: Vec<ProbPayload>,
    pos: usize,
}

impl EngineSession {
    /// The payload pushed at stream position `pos`.
    pub fn payload(&self, pos: usize) -> &ProbPayload {
        &self.payloads[ping_pong(pos, self.payloads.len())]
    }
}

/// One pushed frame, in push order.
pub struct Pushed {
    /// Stream position in the clip sequence.
    pub pos: usize,
    /// Frame id shared with every span of the frame.
    pub fid: u64,
    /// [`verdict_digest`] of the answered frame index and verdicts.
    pub digest: u64,
}

/// What one session's thread produced in a phase.
#[derive(Default)]
pub struct SessionOut {
    /// Push latency in ms.
    pub latency_ms: Vec<f64>,
    /// Gap between one push returning and the next starting, in ms.
    pub gap_ms: Vec<f64>,
    /// When each push returned.
    pub done_at: Vec<Instant>,
    /// Pushed frames.
    pub pushed: Vec<Pushed>,
    /// Spans.
    pub spans: Vec<Span>,
}

/// The in-process engines of the workload.
pub struct Engines {
    registry: Arc<ModelRegistry>,
    /// One per generator thread.
    pub sessions: Vec<EngineSession>,
    /// Latency of each session open (registry lookup + `open_stream`), ms.
    pub open_ms: Vec<f64>,
    /// Seconds set-up spent rendering clips.
    pub render_s: f64,
}

impl Engines {
    /// Set-up: load the checkpoint, render and encode each session's clip
    /// (`scenes` seeded scenes back to back), open the streams.
    pub fn setup(
        model: &Model,
        seed: u64,
        sessions: usize,
        scenes: usize,
        shape: ClipShape,
    ) -> Engines {
        let registry = model.registry();
        let mut open_ms = Vec::new();
        let mut render_s = 0.0;
        let sessions = (0..sessions)
            .map(|camera| {
                // One scene's decoded maps at a time: only the payloads are
                // kept.
                let mut payloads = Vec::with_capacity(scenes * shape.frames);
                for scene in 0..scenes {
                    let render = Instant::now();
                    let maps = render_clip(seed, (camera * scenes + scene) as u64, shape);
                    render_s += render.elapsed().as_secs_f64();
                    payloads.extend(
                        maps.iter()
                            .map(|map| ProbPayload::encode(map, ProbEncoding::F64)),
                    );
                }
                let start = Instant::now();
                let stream = registry.get(MODEL).expect("model registered").open_stream();
                open_ms.push(start.elapsed().as_secs_f64() * 1e3);
                EngineSession {
                    stream,
                    payloads,
                    pos: 0,
                }
            })
            .collect();
        Engines {
            registry,
            sessions,
            open_ms,
            render_s,
        }
    }

    /// The model entry the streams were opened with.
    pub fn entry(&self) -> Arc<ModelEntry> {
        self.registry.get(MODEL).expect("model registered")
    }

    /// The registry (for the swap probe).
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    /// Runs every session closed-loop until `duration` elapses; frame ids of
    /// session `i` start at `fid_base + i << 32`. Returns each session's
    /// output and the CPU samples of the phase.
    pub fn run(
        &mut self,
        duration: Duration,
        fid_base: u64,
        traced: bool,
        origin: Instant,
    ) -> (Vec<SessionOut>, Vec<Sample>) {
        let t_end = Instant::now() + duration;
        let generators = Generators::default();
        let generators = &generators;
        thread::scope(|scope| {
            let handles: Vec<_> = self
                .sessions
                .iter_mut()
                .enumerate()
                .map(|(index, session)| {
                    scope.spawn(move || {
                        let _registered = generators.register();
                        let mut tracer = Tracer::new(origin, 16 + index as u64, traced);
                        let mut out = SessionOut::default();
                        let mut fid = fid_base + ((index as u64) << 32);
                        let mut last_end = Instant::now();
                        while last_end < t_end {
                            let pos = session.pos;
                            session.pos += 1;
                            let payload = &session.payloads[ping_pong(pos, session.payloads.len())];
                            let open = tracer.open("engine.push", fid, 0);
                            let start = Instant::now();
                            let verdicts = session
                                .stream
                                .push_payload(payload, DispersionPrecision::F64)
                                .expect("pre-encoded payloads decode");
                            let end = Instant::now();
                            tracer.close(open);
                            out.latency_ms.push((end - start).as_secs_f64() * 1e3);
                            out.gap_ms.push((start - last_end).as_secs_f64() * 1e3);
                            out.done_at.push(end);
                            out.pushed.push(Pushed {
                                pos,
                                fid,
                                digest: verdict_digest(verdicts.frame, &verdicts.verdicts),
                            });
                            fid += 1;
                            last_end = end;
                        }
                        out.spans = tracer.into_spans();
                        out
                    })
                })
                .collect();
            generators.wait_for(handles.len());
            let samples = monitor(
                generators,
                || handles.iter().all(|h| h.is_finished()),
                || {},
            );
            let outs = handles
                .into_iter()
                .map(|handle| handle.join().expect("engine thread"))
                .collect();
            (outs, samples)
        })
    }
}

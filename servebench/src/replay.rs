//! In-process replay of served frames: the correctness check, and the
//! traced decomposition of the server-side layers.
//!
//! Each session's applied frames are replayed in serving order on a twin
//! [`MetaSegStream`] and the served verdicts must match bit for bit
//! (compared through [`verdict_digest`], which hashes every bit). In a
//! traced run the same frames also go through [`Chain`], which calls the
//! public function of every layer `push_payload` is made of, so the stage
//! spans can be timed one by one; its verdicts must equal the twin's too.

use crate::fixture::{same_verdicts, verdict_digest};
use crate::trace::Tracer;
use metaseg::pipeline::{extract_frame_payload, ExtractionScratch};
use metaseg::stream::{FrameVerdicts, MetaSegStream, SegmentVerdict, StreamConfig, TrackWindows};
use metaseg::DispersionPrecision;
use metaseg_data::{crc32, ProbEncoding, ProbMap, ProbPayload};
use metaseg_imgproc::Labeler;
use metaseg_learners::MetaPredictor;
use metaseg_serve::wire::{encode_binary_frame, BinaryFrameHeader, BINARY_HEADER_LEN};
use metaseg_serve::{ModelEntry, Response};
use metaseg_tracking::IncrementalTracker;
use std::borrow::Cow;
use std::collections::HashMap;

/// `MetaSegStream::push_payload` taken apart into its layers' public
/// functions: extraction, tracking, window assembly, inference.
pub struct Chain {
    config: StreamConfig,
    scratch: ExtractionScratch,
    tracker: IncrementalTracker,
    windows: TrackWindows,
    predictor: MetaPredictor,
    frame: usize,
}

impl Chain {
    /// A chain in the state of a freshly opened session of `entry`.
    pub fn new(entry: &ModelEntry) -> Self {
        let series_length = entry.open_stream().series_length();
        Self {
            config: *entry.config(),
            scratch: ExtractionScratch::new(),
            tracker: IncrementalTracker::new(entry.config().tracker),
            windows: TrackWindows::new(series_length),
            predictor: entry.predictor().clone(),
            frame: 0,
        }
    }

    /// Pushes one frame, recording `stream.push` with one child span per
    /// layer under `parent`.
    pub fn push(
        &mut self,
        payload: &ProbPayload,
        tracer: &mut Tracer,
        frame_id: u64,
        parent: u64,
    ) -> FrameVerdicts {
        let push = tracer.open("stream.push", frame_id, parent);
        let metrics = self.config.metrics;

        let extract = tracer.open("pipeline.extract", frame_id, push.id());
        let (components, records) = extract_frame_payload(
            payload,
            None,
            &metrics,
            &mut self.scratch,
            DispersionPrecision::F64,
        )
        .expect("replayed payloads were accepted by the server");
        tracer.close(extract);

        let observe = tracer.open("tracking.observe", frame_id, push.id());
        let frame_tracks = self.tracker.observe_segments(components);
        tracer.close(observe);

        let window = tracer.open("stream.window", frame_id, push.id());
        let frame = self.frame;
        self.frame += 1;
        let region_to_track: HashMap<usize, usize> = frame_tracks
            .segments
            .iter()
            .map(|s| (s.region_id, s.track_id))
            .collect();
        for record in &records {
            if let Some(&track_id) = region_to_track.get(&record.region_id) {
                self.windows.observe(frame, track_id, &record.metrics);
            }
        }
        let rows: Vec<(usize, usize, Vec<f64>)> = records
            .iter()
            .enumerate()
            .filter_map(|(index, record)| {
                let track_id = *region_to_track.get(&record.region_id)?;
                Some((
                    index,
                    track_id,
                    self.windows.features(frame, track_id, &record.metrics),
                ))
            })
            .collect();
        tracer.close(window);

        let predict = tracer.open("inference.predict", frame_id, push.id());
        let scores: Vec<(f64, f64)> = rows
            .iter()
            .map(|(_, _, features)| self.predictor.predict_one(features))
            .collect();
        tracer.close(predict);

        let window = tracer.open("stream.window", frame_id, push.id());
        let verdicts = rows
            .iter()
            .zip(scores)
            .map(|((index, track_id, _), (tp_probability, predicted_iou))| {
                let record = &records[*index];
                SegmentVerdict {
                    frame,
                    track_id: *track_id,
                    region_id: record.region_id,
                    class: record.class,
                    area: record.area,
                    tp_probability,
                    predicted_iou,
                }
            })
            .collect();
        self.windows.prune(frame);
        tracer.close(window);

        tracer.close(push);
        FrameVerdicts { frame, verdicts }
    }

    /// Live tracks after the last push.
    pub fn active_tracks(&self) -> usize {
        self.tracker.active_track_count()
    }
}

/// Which stages a traced replay runs for one frame besides `stream.push`
/// and `protocol.encode`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probes {
    /// Send the frame through `encode_binary_frame`, time the server's
    /// `wire.verify`, and probe a bare `crc32` over the payload and a
    /// re-label of the argmax plane (otherwise the payload is encoded
    /// untimed).
    pub off_path: bool,
    /// Also time the client's `wire.encode` and `Response::decode`
    /// (workloads whose client side is not traced live).
    pub client_side: bool,
}

/// Counts a replay gathers besides spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayCounts {
    /// Frames replayed.
    pub frames: u64,
    /// Frames whose replay differs from what was served.
    pub mismatched: u64,
    /// Frames where the decomposed chain differs from `push_payload`.
    pub chain_mismatched: u64,
    /// Frames sent through the wire stages.
    pub wire_frames: u64,
    /// Bytes a frame takes on the wire, client to server.
    pub up_bytes: u64,
    /// Bytes of the verdict line, server to client.
    pub down_bytes: u64,
    /// Verdicts replayed.
    pub verdicts: u64,
    /// Connected components labelled by the probe.
    pub components: u64,
    /// Live tracks summed over frames.
    pub active_tracks: u64,
}

impl ReplayCounts {
    /// Adds another tally.
    pub fn add(&mut self, other: &ReplayCounts) {
        self.frames += other.frames;
        self.mismatched += other.mismatched;
        self.chain_mismatched += other.chain_mismatched;
        self.wire_frames += other.wire_frames;
        self.up_bytes += other.up_bytes;
        self.down_bytes += other.down_bytes;
        self.verdicts += other.verdicts;
        self.components += other.components;
        self.active_tracks += other.active_tracks;
    }
}

/// A frame as a workload holds it: a softmax field the client encodes per
/// send, or a payload encoded once during set-up.
#[derive(Debug, Clone, Copy)]
pub enum FrameInput<'a> {
    /// A softmax field (served workloads).
    Map(&'a ProbMap),
    /// A binary-f64 payload (`engine_large`).
    Payload(&'a ProbPayload),
}

impl FrameInput<'_> {
    fn map(&self) -> Cow<'_, ProbMap> {
        match self {
            FrameInput::Map(map) => Cow::Borrowed(*map),
            FrameInput::Payload(payload) => {
                Cow::Owned(payload.decode().expect("set-up payloads decode"))
            }
        }
    }

    fn payload(&self) -> Cow<'_, ProbPayload> {
        match self {
            FrameInput::Map(map) => Cow::Owned(ProbPayload::encode(map, ProbEncoding::F64)),
            FrameInput::Payload(payload) => Cow::Borrowed(*payload),
        }
    }
}

/// One session's replay state: the twin engine, plus the decomposed chain
/// when the run is traced.
pub struct SessionReplay {
    twin: MetaSegStream,
    chain: Option<Chain>,
    labeler: Labeler,
}

impl SessionReplay {
    /// A replay in the state of a freshly opened session of `entry`.
    pub fn new(entry: &ModelEntry, decompose: bool) -> Self {
        Self {
            twin: entry.open_stream(),
            chain: decompose.then(|| Chain::new(entry)),
            labeler: Labeler::new(),
        }
    }

    /// Replays one applied frame of `session` and checks it against what
    /// was served (`served` is the [`verdict_digest`] of the answer).
    #[allow(clippy::too_many_arguments)]
    pub fn frame(
        &mut self,
        input: FrameInput<'_>,
        session: u64,
        served: u64,
        probes: Probes,
        tracer: &mut Tracer,
        frame_id: u64,
        counts: &mut ReplayCounts,
    ) {
        counts.frames += 1;
        let Some(chain) = self.chain.as_mut() else {
            let payload = input.payload();
            let replayed = self
                .twin
                .push_payload(&payload, DispersionPrecision::F64)
                .expect("served payloads decode");
            counts.verdicts += replayed.verdicts.len() as u64;
            if verdict_digest(replayed.frame, &replayed.verdicts) != served {
                counts.mismatched += 1;
            }
            return;
        };

        let payload = if probes.off_path {
            let map = input.map();
            let bytes = if probes.client_side {
                tracer.time("wire.encode", frame_id, 0, || {
                    encode_binary_frame(session, &map, ProbEncoding::F64)
                })
            } else {
                encode_binary_frame(session, &map, ProbEncoding::F64)
            };
            counts.up_bytes += bytes.len() as u64;
            counts.wire_frames += 1;
            let body = bytes[BINARY_HEADER_LEN..].to_vec();
            let payload = tracer.time("wire.verify", frame_id, 0, || {
                BinaryFrameHeader::parse(&bytes[..BINARY_HEADER_LEN])
                    .and_then(|header| header.verified_payload(body))
                    .expect("an encoded frame verifies")
            });
            Cow::Owned(payload)
        } else {
            input.payload()
        };

        let decomposed = chain.push(&payload, tracer, frame_id, 0);
        counts.active_tracks += chain.active_tracks() as u64;
        counts.verdicts += decomposed.verdicts.len() as u64;

        let response = Response::Verdicts {
            session,
            frame: decomposed.frame,
            verdicts: decomposed.verdicts.clone(),
        };
        let line = tracer.time("protocol.encode", frame_id, 0, || response.encode());
        counts.down_bytes += line.len() as u64 + 1;
        if probes.client_side {
            let decoded = tracer.time("protocol.decode", frame_id, 0, || Response::decode(&line));
            if decoded.as_ref() != Ok(&response) {
                counts.mismatched += 1;
            }
        }

        let open = tracer.open("stream.push_payload", frame_id, 0);
        let twin = self
            .twin
            .push_payload(&payload, DispersionPrecision::F64)
            .expect("served payloads decode");
        tracer.close(open);

        if probes.off_path {
            std::hint::black_box(tracer.time("crc.probe", frame_id, 0, || crc32(&payload.bytes)));
            let argmax = input.map().argmax_map();
            let connectivity = chain.config.metrics.connectivity;
            let labeler = &mut self.labeler;
            let components = tracer.time("imgproc.label", frame_id, 0, || {
                labeler.label(argmax.ids(), connectivity).component_count()
            });
            counts.components += components as u64;
        }

        if twin.frame != decomposed.frame || !same_verdicts(&twin.verdicts, &decomposed.verdicts) {
            counts.chain_mismatched += 1;
        }
        if verdict_digest(twin.frame, &twin.verdicts) != served {
            counts.mismatched += 1;
        }
    }
}

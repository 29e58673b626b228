//! `session_churn`: short sessions opened and closed back to back through
//! the shipped blocking `ServeClient`, while the model is re-installed
//! under live traffic.

use crate::fixture::{render_clip, verdict_digest, ClipShape, Model, MODEL};
use crate::trace::{Span, Tracer};
use crate::window::{monitor, Generators, Sample};
use metaseg_data::{ProbEncoding, ProbMap};
use metaseg_serve::{
    ErrorCode, FrameFormat, ModelEntry, ServeClient, Server, ServerConfig, ServerHandle,
    ServerStats,
};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Parameters of the churn workload.
#[derive(Debug, Clone, Copy)]
pub struct ChurnParams {
    /// Client threads, one connection each.
    pub clients: usize,
    /// Frames per session between `open` and `close`.
    pub frames_per_session: usize,
    /// Distinct clips sessions cycle through.
    pub clips: usize,
    /// Clip shape.
    pub shape: ClipShape,
    /// Interval between live checkpoint re-installs.
    pub swap_every: Duration,
    /// Server configuration.
    pub server: ServerConfig,
}

/// One completed session.
pub struct SessionLog {
    /// Clip the session played.
    pub clip: usize,
    /// Server session id.
    pub session: u64,
    /// Frame id of the session's first frame; the others follow.
    pub fid: u64,
    /// Applied frames: `(clip frame, digest of the served frame index and
    /// verdicts)`.
    pub frames: Vec<(usize, u64)>,
}

/// What one client thread produced.
#[derive(Default)]
pub struct ClientOut {
    /// `open` latency, ms.
    pub open_ms: Vec<f64>,
    /// Round trip (`submit`) of each frame answered with verdicts, ms.
    pub frame_ms: Vec<f64>,
    /// When each frame answered with verdicts came back.
    pub done_at: Vec<Instant>,
    /// `close` latency, ms.
    pub close_ms: Vec<f64>,
    /// Completed sessions.
    pub sessions: Vec<SessionLog>,
    /// Frames attempted.
    pub attempted: u64,
    /// Frames refused (`backpressure`, `overloaded`).
    pub refused: u64,
    /// Frames that failed otherwise.
    pub errored: u64,
    /// Spans.
    pub spans: Vec<Span>,
}

/// A running server with one connected client per generator thread.
pub struct Churn {
    params: ChurnParams,
    handle: ServerHandle,
    clients: Vec<ServeClient>,
    /// Pool of clips sessions play.
    pub clips: Vec<Vec<ProbMap>>,
    /// Seconds set-up spent rendering clips.
    pub render_s: f64,
}

impl Churn {
    /// Set-up: load the checkpoint, render the clip pool, spawn the server,
    /// connect every client and negotiate binary-f64 frames.
    pub fn setup(params: ChurnParams, model: &Model, seed: u64) -> Churn {
        let registry = model.registry();
        let render = Instant::now();
        let clips = (0..params.clips)
            .map(|clip| render_clip(seed, clip as u64, params.shape))
            .collect();
        let render_s = render.elapsed().as_secs_f64();
        let handle = Server::spawn("127.0.0.1:0", registry, params.server).expect("bind succeeds");
        let clients = (0..params.clients)
            .map(|_| {
                let mut client =
                    ServeClient::connect(handle.local_addr()).expect("connect succeeds");
                client
                    .negotiate(FrameFormat::Binary(ProbEncoding::F64))
                    .expect("negotiate succeeds");
                client
            })
            .collect();
        Churn {
            params,
            handle,
            clients,
            clips,
            render_s,
        }
    }

    /// The model entry currently registered.
    pub fn entry(&self) -> Arc<ModelEntry> {
        self.handle.registry().get(MODEL).expect("model registered")
    }

    /// Runs sessions back to back on every client until `duration` elapses,
    /// re-installing `model`'s checkpoint every `swap_every` from the
    /// calling thread. Returns each client's output, the swap latencies and
    /// the CPU samples of the phase.
    pub fn run(
        &mut self,
        model: &Model,
        duration: Duration,
        fid_base: u64,
        traced: bool,
        origin: Instant,
    ) -> (Vec<ClientOut>, Vec<f64>, Vec<Sample>) {
        let t_end = Instant::now() + duration;
        let params = self.params;
        let clips = &self.clips;
        let registry = Arc::clone(self.handle.registry());
        let generators = Generators::default();
        let generators = &generators;
        thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(index, client)| {
                    scope.spawn(move || {
                        let _registered = generators.register();
                        let fid_base = fid_base + ((index as u64) << 32);
                        drive_client(
                            client, index, clips, params, t_end, fid_base, traced, origin,
                        )
                    })
                })
                .collect();
            generators.wait_for(handles.len());
            let mut swap_ms = Vec::new();
            let mut next_swap = Instant::now() + params.swap_every;
            let samples = monitor(
                generators,
                || handles.iter().all(|h| h.is_finished()),
                || {
                    if Instant::now() >= next_swap && next_swap < t_end {
                        let start = Instant::now();
                        registry
                            .swap_checkpoint(MODEL, model.config, &model.checkpoint)
                            .expect("the same checkpoint re-installs");
                        swap_ms.push(start.elapsed().as_secs_f64() * 1e3);
                        next_swap += params.swap_every;
                    }
                },
            );
            let outs = handles
                .into_iter()
                .map(|handle| handle.join().expect("client thread"))
                .collect();
            (outs, swap_ms, samples)
        })
    }

    /// Disconnects the clients and shuts the server down.
    pub fn teardown(self) -> ServerStats {
        drop(self.clients);
        self.handle.shutdown()
    }
}

#[allow(clippy::too_many_arguments)]
fn drive_client(
    client: &mut ServeClient,
    index: usize,
    clips: &[Vec<ProbMap>],
    params: ChurnParams,
    t_end: Instant,
    fid_base: u64,
    traced: bool,
    origin: Instant,
) -> ClientOut {
    let mut tracer = Tracer::new(origin, 32 + index as u64, traced);
    let mut out = ClientOut::default();
    let mut fid = fid_base;
    let mut k = 0usize;
    while Instant::now() < t_end {
        let clip = (index + params.clients * k) % clips.len();
        k += 1;
        let open = tracer.open("client.open", fid, 0);
        let opened = client.open(MODEL, &format!("cam-{index}-{k}"));
        out.open_ms.push(tracer.close(open) as f64 / 1e6);
        let (session, _) = opened.expect("open succeeds");
        let mut log = SessionLog {
            clip,
            session,
            fid,
            frames: Vec::with_capacity(params.frames_per_session),
        };
        for (j, map) in clips[clip]
            .iter()
            .take(params.frames_per_session)
            .enumerate()
        {
            out.attempted += 1;
            let submit = tracer.open("client.submit", fid, 0);
            let reply = client.submit(session, map);
            let submit_ns = tracer.close(submit);
            fid += 1;
            match reply {
                Ok((frame, verdicts)) => {
                    // Refused and errored frames are failures, not fast
                    // frames: only verdicts carry a latency.
                    out.frame_ms.push(submit_ns as f64 / 1e6);
                    out.done_at.push(Instant::now());
                    log.frames.push((j, verdict_digest(frame, &verdicts)))
                }
                Err(e)
                    if matches!(
                        e.server_code(),
                        Some(ErrorCode::Backpressure | ErrorCode::Overloaded)
                    ) =>
                {
                    out.refused += 1
                }
                Err(_) => out.errored += 1,
            }
        }
        let close = tracer.open("client.close", log.fid, 0);
        let closed = client.close(session);
        out.close_ms.push(tracer.close(close) as f64 / 1e6);
        closed.expect("close succeeds");
        out.sessions.push(log);
    }
    out.spans = tracer.into_spans();
    out
}

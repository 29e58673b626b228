//! The sharded inference worker pool.
//!
//! Sessions are keyed onto shards by `session_id % shards`: every frame of
//! one session lands in the same shard's FIFO queue and is drained by that
//! shard's single worker thread, so per-session frame order is preserved *by
//! construction* — no cross-worker ordering protocol, and no global
//! `Mutex<Receiver<Job>>` for every worker to contend on. Distinct sessions
//! hash to distinct shards and run genuinely in parallel.
//!
//! Each shard owns a bounded queue (`Mutex<VecDeque<Job>>` + condvar) whose
//! depth accounting lives **under the same lock as the queue itself**: a
//! frame is counted, and the peak recorded, only after it has actually been
//! admitted. The previous transport recorded the incremented depth *before*
//! `try_send`, so backpressure-rejected submissions inflated
//! `peak_queue_depth`; that overcount is structurally impossible here.
//!
//! Control operations (`stats`, `close`) travel through the same shard queue
//! as the session's frames — never counted against the frame depth, never
//! rejected with backpressure — so a `stats` pipelined behind a frame always
//! observes that frame, exactly as when connection threads blocked per
//! request.

use crate::protocol::Response;
use crate::server::{bad_request, session_poisoned_error, ServerConfig, ShardStats};
use metaseg::stream::MetaSegStream;
use metaseg::DispersionPrecision;
use metaseg_data::ProbPayload;
use mio::Waker;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::Duration;

/// One camera session: the engine plus bookkeeping labels.
pub(crate) struct Session {
    pub(crate) engine: MetaSegStream,
    #[allow(dead_code)]
    pub(crate) camera: String,
}

/// Identifies one connection slot of the event loop across its lifetime.
///
/// Slots are reused after a disconnect; the generation counter makes a stale
/// completion (for a connection that died while its job was in flight)
/// harmlessly miss instead of answering whoever inherited the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ConnId {
    /// The poll token value of the slot.
    pub(crate) token: usize,
    /// Monotonic per-accept generation.
    pub(crate) generation: u64,
}

/// A finished job travelling back to the event loop.
pub(crate) struct Completion {
    pub(crate) conn: ConnId,
    /// Response-slot sequence number on the connection (allocated at submit).
    pub(crate) seq: u64,
    pub(crate) response: Response,
    /// A session the event loop should evict from the connection's map
    /// (a `stats` request that found the session dead).
    pub(crate) evict: Option<u64>,
}

/// What a queued job asks of the session.
pub(crate) enum JobKind {
    /// Push one frame through the engine and answer its verdicts. The
    /// payload is the checksum-verified wire bytes, untouched since the
    /// socket read: the worker dequantizes them directly into the session
    /// engine's extraction scratch, so no intermediate `ProbMap` is ever
    /// materialised.
    Frame {
        payload: ProbPayload,
        dispersion: DispersionPrecision,
    },
    /// Snapshot the session counters.
    Stats,
    /// Answer how many frames the engine has applied. Routed through the
    /// shard FIFO like any other job, so the count is ordered *behind* any
    /// in-flight frame of the session — a reconnecting client can trust it
    /// as the exact resume point and never double-applies a frame whose
    /// response was lost on the dead connection.
    Resume,
    /// Final counters of a session the event loop already evicted.
    Close,
}

impl JobKind {
    fn is_frame(&self) -> bool {
        matches!(self, JobKind::Frame { .. })
    }

    fn is_stats(&self) -> bool {
        matches!(self, JobKind::Stats)
    }
}

/// A queued job: one operation on one session, plus the response slot of the
/// submitting connection.
pub(crate) struct Job {
    pub(crate) session_id: u64,
    pub(crate) session: Arc<Mutex<Session>>,
    pub(crate) kind: JobKind,
    pub(crate) conn: ConnId,
    pub(crate) seq: u64,
}

/// Queue state of one shard; every field mutates under the one mutex, so
/// depth, peak and rejection counts can never disagree with the queue.
struct ShardQueue {
    jobs: VecDeque<Job>,
    /// Frame jobs currently queued (control jobs are not counted against
    /// the bounded depth).
    frames_queued: usize,
    closed: bool,
    stats: ShardStats,
}

/// One shard: a bounded FIFO of jobs for the sessions keyed onto it, drained
/// by a single dedicated worker thread.
pub(crate) struct Shard {
    queue_depth: usize,
    batch_max: usize,
    synthetic_delay_ms: u64,
    inner: Mutex<ShardQueue>,
    available: Condvar,
}

impl Shard {
    pub(crate) fn new(index: usize, config: &ServerConfig) -> Shard {
        Shard {
            queue_depth: config.queue_depth.max(1),
            batch_max: config.batch_max.max(1),
            synthetic_delay_ms: config.synthetic_delay_ms,
            inner: Mutex::new(ShardQueue {
                jobs: VecDeque::new(),
                frames_queued: 0,
                closed: false,
                stats: ShardStats {
                    shard: index,
                    ..ShardStats::default()
                },
            }),
            available: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ShardQueue> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admits a frame job unless the shard's frame queue is full. The depth
    /// check, the admission and the peak update happen under one lock, so
    /// the peak only ever reflects frames that were actually queued — a
    /// rejected submission leaves every gauge untouched except `rejected`.
    pub(crate) fn submit_frame(&self, job: Job) -> bool {
        {
            let mut queue = self.lock();
            if queue.closed {
                return false;
            }
            if queue.frames_queued >= self.queue_depth {
                queue.stats.rejected += 1;
                return false;
            }
            queue.frames_queued += 1;
            queue.stats.peak_queue_depth = queue.stats.peak_queue_depth.max(queue.frames_queued);
            queue.jobs.push_back(job);
        }
        self.available.notify_one();
        true
    }

    /// Admits a control job (`stats` / `close`). Control operations answer
    /// fast and must never be lost to backpressure, so they bypass the
    /// bounded frame depth; they still travel the FIFO, which is what keeps
    /// them ordered after the frames they were pipelined behind.
    pub(crate) fn submit_control(&self, job: Job) -> bool {
        {
            let mut queue = self.lock();
            if queue.closed {
                return false;
            }
            queue.jobs.push_back(job);
        }
        self.available.notify_one();
        true
    }

    /// Marks the shard closed; the worker drains what is queued, then exits.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.available.notify_all();
    }

    /// Snapshot of this shard's counters.
    pub(crate) fn snapshot(&self) -> ShardStats {
        self.lock().stats
    }

    fn record_processed(&self, frames: usize) {
        if frames > 0 {
            self.lock().stats.frames_processed += frames;
        }
    }

    /// Blocks for the next micro-batch: up to `batch_max` queued jobs, in
    /// FIFO order. Returns `None` once the shard is closed and drained.
    fn next_batch(&self) -> Option<Vec<Job>> {
        let mut queue = self.lock();
        loop {
            if !queue.jobs.is_empty() {
                let take = queue.jobs.len().min(self.batch_max);
                let batch: Vec<Job> = queue.jobs.drain(..take).collect();
                let frames = batch.iter().filter(|job| job.kind.is_frame()).count();
                queue.frames_queued -= frames;
                if frames > 0 {
                    queue.stats.batches += 1;
                    queue.stats.peak_batch = queue.stats.peak_batch.max(frames);
                }
                return Some(batch);
            }
            if queue.closed {
                return None;
            }
            queue = self
                .available
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// One session's slice of a drained micro-batch: its jobs, in arrival order.
struct SessionGroup {
    session_id: u64,
    session: Arc<Mutex<Session>>,
    jobs: Vec<Job>,
}

/// The shard worker: drain a micro-batch, group it by session (preserving
/// arrival order within each group), process the groups, post completions
/// and wake the event loop. Runs until the shard is closed and drained.
pub(crate) fn worker_loop(shard: &Shard, completions: &Sender<Completion>, waker: &Waker) {
    while let Some(batch) = shard.next_batch() {
        let mut groups: Vec<SessionGroup> = Vec::new();
        for job in batch {
            match groups
                .iter_mut()
                .find(|group| group.session_id == job.session_id)
            {
                Some(group) => group.jobs.push(job),
                None => groups.push(SessionGroup {
                    session_id: job.session_id,
                    session: Arc::clone(&job.session),
                    jobs: vec![job],
                }),
            }
        }
        for group in groups {
            process_group(shard, group, completions);
        }
        // One wake per batch: the waker coalesces anyway, and the event
        // loop drains the whole completion channel on each wakeup.
        waker.wake();
    }
}

/// Processes one session group behind a panic fence: a panic mid-inference
/// (which poisons the session mutex) answers every job of the group with the
/// typed poisoned-session error instead of killing the shard worker — the
/// shard keeps serving its other sessions, and the camera recovers by
/// opening a fresh session.
fn process_group(shard: &Shard, group: SessionGroup, completions: &Sender<Completion>) {
    let SessionGroup {
        session_id,
        session,
        jobs,
    } = group;
    let meta: Vec<(ConnId, u64, bool)> = jobs
        .iter()
        .map(|job| (job.conn, job.seq, job.kind.is_stats()))
        .collect();
    let delay_ms = shard.synthetic_delay_ms;
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        run_group(session_id, &session, jobs, delay_ms)
    }));
    let (results, processed) = outcome.unwrap_or_else(|_| {
        let results = meta
            .iter()
            .map(|&(conn, seq, is_stats)| Completion {
                conn,
                seq,
                response: session_poisoned_error(session_id),
                evict: is_stats.then_some(session_id),
            })
            .collect();
        (results, 0)
    });
    shard.record_processed(processed);
    for completion in results {
        // The event loop may already be gone during teardown; dropping the
        // completion is then the right thing.
        let _ = completions.send(completion);
    }
}

/// Locks the session once and pushes the group's jobs through it in arrival
/// order. Returns the completions plus the number of frames processed.
fn run_group(
    session_id: u64,
    session: &Arc<Mutex<Session>>,
    jobs: Vec<Job>,
    delay_ms: u64,
) -> (Vec<Completion>, usize) {
    let Ok(mut guard) = session.lock() else {
        // A previous frame of this session panicked mid-inference: the
        // engine state is unknown, so refuse to serve it rather than risk
        // silently-wrong verdicts.
        let results = jobs
            .iter()
            .map(|job| Completion {
                conn: job.conn,
                seq: job.seq,
                response: session_poisoned_error(session_id),
                evict: job.kind.is_stats().then_some(session_id),
            })
            .collect();
        return (results, 0);
    };
    let frames = jobs.iter().filter(|job| job.kind.is_frame()).count();
    if delay_ms > 0 && frames > 0 {
        // The synthetic delay models *per-frame* model cost, so a group of
        // n frames sleeps n times the configured delay — identical to the
        // unbatched schedule; batching only parallelises across sessions.
        thread::sleep(Duration::from_millis(delay_ms * frames as u64));
    }
    let mut processed = 0usize;
    let mut results = Vec::with_capacity(jobs.len());
    for job in jobs {
        let response = match job.kind {
            JobKind::Frame {
                payload,
                dispersion,
            } => match guard.engine.push_payload(&payload, dispersion) {
                Ok(verdicts) => {
                    processed += 1;
                    Response::Verdicts {
                        session: session_id,
                        frame: verdicts.frame,
                        verdicts: verdicts.verdicts,
                    }
                }
                // The engine state is untouched on a codec error; the
                // session keeps serving subsequent frames.
                Err(e) => bad_request(e),
            },
            JobKind::Stats => Response::Stats {
                session: session_id,
                stats: guard.engine.session_stats(),
            },
            JobKind::Resume => Response::Resumed {
                session: session_id,
                frames: guard.engine.frames_seen(),
            },
            JobKind::Close => Response::Closed {
                session: session_id,
                stats: guard.engine.session_stats(),
            },
        };
        results.push(Completion {
            conn: job.conn,
            seq: job.seq,
            response,
            evict: None,
        });
    }
    (results, processed)
}

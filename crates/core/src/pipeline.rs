//! Zero-allocation, band-parallel metric extraction — the hot path of MetaSeg.
//!
//! # The extraction kernel
//!
//! The paper's map `µ : K̂_x → R^m` aggregates per-pixel dispersion measures
//! (entropy `E`, probability margin `D`, variation ratio `V`), the softmax
//! class probabilities and geometry statistics over every predicted segment,
//! split into whole-segment / inner-boundary / interior means, plus the IoU
//! target (eq. (2)) when ground truth is present. Every workload — batch
//! experiments, the streaming engine, metaseg-serve's micro-batched workers —
//! funnels through this kernel, so it is built around three measured wins:
//!
//! 1. **Fused channel scan.** Each pixel's softmax vector is read exactly
//!    once: [`metaseg_data::DistributionScan`] derives argmax, top-2 and
//!    entropy in a single walk of the channel axis, writing the Bayes class
//!    id and compact per-pixel dispersion values (entropy, margin, variation
//!    ratio, top-1) into reusable scratch planes. The fold pass after
//!    connected components reads those planes plus one cheap per-channel add
//!    (`row[c] += p`) — no further `ln` calls or comparisons on the channel
//!    axis.
//! 2. **Reusable frame scratch.** [`ExtractionScratch`] owns every internal
//!    buffer of the kernel: the dispersion planes, the argmax grid, the
//!    [`metaseg_imgproc::Labeler`]s for predicted and ground-truth
//!    components, one flat `segments × channels` class-probability matrix,
//!    per-band accumulator vectors and flat `(pred, gt, count)` overlap runs
//!    (replacing one hash map per segment and its SipHash cost). A scratch is
//!    owned per streaming session ([`crate::stream::MetaSegStream`]) and
//!    thread-local in the batch paths, so the steady-state loop performs no
//!    kernel-internal heap allocation once the buffers have grown to the
//!    working-set size — only the returned records allocate.
//! 3. **Intra-frame band parallelism.** Above [`MIN_BAND_PIXELS`] pixels the
//!    fused scan and the fold pass split the frame into horizontal bands:
//!    each band folds into its own accumulator set on a scoped worker thread,
//!    and the per-band partials are merged in band order through
//!    `SegmentAccumulator::merge` (accumulators form a commutative monoid,
//!    the merge is plain element-wise addition). Small frames stay serial;
//!    banded results agree with the serial path within `1e-12` relative
//!    error for every band count (pinned by the band-invariance property
//!    test) and exactly on areas, boundary lengths and IoU targets, whose
//!    sums are integer arithmetic.
//!
//! The pixel pass decides inner-boundary membership on the spot (a pixel is
//! boundary iff a 4-neighbour lies outside its component or the image) and
//! folds each pixel into exactly one of the boundary/interior buckets, so
//! whole-segment aggregates are the reassociated `boundary + interior` —
//! never a subtraction of large sums. Ground-truth overlaps are counted as
//! run-length `(predicted segment, ground-truth segment, count)` entries in
//! the same pass; the final IoU is pure integer arithmetic on the sorted,
//! aggregated runs. An `O(segments)` epilogue assembles the metric vectors.
//!
//! # Numerical equivalence
//!
//! The one oracle is the naive formulation,
//! [`reference::naive_segment_metrics`]: differential property tests bound
//! the kernel's deviation from it at `1e-12` relative error, with and
//! without ground truth. Exactness is pinned separately: the serial path's
//! records (every float bit, IoU targets included) are checked against a
//! committed digest, the golden corpus pins the served verdict bytes, and
//! the f32 tiled scan is checked pixel by pixel against
//! [`metaseg_data::DistributionScanF32`].
//!
//! # Entry points
//!
//! | entry point | input | scratch | bands |
//! |---|---|---|---|
//! | [`frame_metrics`] | [`ProbMap`] | thread-local | 1 |
//! | [`frame_metrics_with_labels`] | [`ProbMap`] + Bayes label map | thread-local | 1 |
//! | [`frame_metrics_banded`] | [`ProbMap`] | explicit | forced |
//! | [`extract_frame`] | [`ProbMap`] | explicit | [`auto_band_count`] |
//! | [`extract_frame_payload`] | [`ProbPayload`] | explicit | [`auto_band_count`] |
//!
//! # Parallelism layers
//!
//! [`FrameBatch`] parallelises *across frames* with `rayon` (frames are
//! embarrassingly parallel); the band split above parallelises *within* a
//! frame, which is what gives single-camera streaming multi-core scaling.
//! The two layers never stack: the thread-local entry points (what the
//! frame-level fan-outs call) are always serial, while [`extract_frame`]
//! and [`extract_frame_payload`] use [`auto_band_count`] — a pure function
//! of frame shape and machine, never of load or calling context, so a
//! frame's exact float output is reproducible run over run. Across machines
//! with different core counts, banded large-frame results may differ in the
//! last bits (within the pinned `1e-12`); sub-threshold frames are
//! bit-stable everywhere.

pub mod reference;

use crate::metrics::{MetricsConfig, SegmentRecord, BASE_METRIC_COUNT, METRIC_COUNT, NUM_CHANNELS};
use metaseg_data::{
    fast_ln_positive_f32, DataError, DistributionScan, Frame, LabelMap, ProbMap, ProbPayload,
    SemanticClass,
};
use metaseg_imgproc::{ComponentLabels, Grid, Labeler};
use rayon::prelude::*;
use std::cell::RefCell;
use std::sync::OnceLock;

/// Minimum pixels per band: frames below `2 * MIN_BAND_PIXELS` stay serial,
/// so the test/golden scenes (and any sub-VGA frame) are bit-stable across
/// machines.
pub const MIN_BAND_PIXELS: usize = 32_768;

/// Hard cap on the intra-frame band count.
pub const MAX_BANDS: usize = 8;

/// Running per-segment sums folded during the banded pixel pass.
///
/// Whole-segment aggregates are intentionally absent: with `whole = boundary
/// ∪ interior` and the two zones disjoint, whole-segment sums are the
/// epilogue's `sum_boundary + sum_interior`. Per-class probability sums live
/// in the scratch's flat `segments × channels` matrix rather than in a
/// per-accumulator vector, which keeps the accumulator `Copy` and the
/// per-band vectors reusable without per-segment allocations.
#[derive(Debug, Clone, Copy, Default)]
struct SegmentAccumulator {
    /// Σ entropy / margin / variation ratio over inner-boundary pixels.
    sum_boundary: [f64; 3],
    /// Σ entropy / margin / variation ratio over interior pixels. Kept as a
    /// separate bucket (every pixel lands in exactly one) so interior means
    /// never suffer the subtractive cancellation of `whole − boundary`.
    sum_interior: [f64; 3],
    /// Number of inner-boundary pixels.
    boundary_len: usize,
    /// Σ maximum softmax probability over all segment pixels.
    sum_top1: f64,
    /// Number of segment pixels whose ground-truth class is not void.
    non_void: usize,
}

impl SegmentAccumulator {
    /// Folds another accumulator of the same segment into this one — the
    /// merge step of the band-parallel pixel pass. Bands are merged in band
    /// order, so the result is deterministic for a given band count.
    fn merge(&mut self, other: &Self) {
        for i in 0..3 {
            self.sum_boundary[i] += other.sum_boundary[i];
            self.sum_interior[i] += other.sum_interior[i];
        }
        self.boundary_len += other.boundary_len;
        self.sum_top1 += other.sum_top1;
        self.non_void += other.non_void;
    }
}

/// One run of ground-truth overlap counting: `count` pixels of predicted
/// segment `pred` whose ground-truth segment is `gt` (same class). Runs are
/// emitted in scan order with run-length compression, then sorted and
/// aggregated — a flat, hash-free replacement for the historical
/// `Vec<HashMap<usize, usize>>` overlap counting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OverlapRun {
    pred: u32,
    gt: u32,
    count: u32,
}

/// Per-band fold state, reused across frames.
#[derive(Debug, Clone, Default)]
struct BandState {
    /// One accumulator per segment of the current frame.
    accs: Vec<SegmentAccumulator>,
    /// Flat `segments × channels` class-probability sums.
    class_probs: Vec<f64>,
    /// Run-length ground-truth overlap counts of this band.
    overlaps: Vec<OverlapRun>,
}

impl BandState {
    /// Prepares the band for a frame with `segments` segments and
    /// `channels` softmax channels; keeps capacity.
    fn reset(&mut self, segments: usize, channels: usize) {
        self.accs.clear();
        self.accs.resize(segments, SegmentAccumulator::default());
        self.class_probs.clear();
        self.class_probs.resize(segments * channels, 0.0);
        self.overlaps.clear();
    }
}

/// Capacity snapshot of an [`ExtractionScratch`] — the observable the
/// scratch-reuse tests pin: in a steady-state loop over frames of shapes
/// already seen, every capacity stays constant, i.e. the kernel performs
/// zero internal heap allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScratchStats {
    /// Capacity of each per-pixel dispersion plane.
    pub pixel_capacity: usize,
    /// Accumulator capacity of the largest band buffer.
    pub segment_capacity: usize,
    /// Capacity of the largest flat class-probability matrix.
    pub class_prob_capacity: usize,
    /// Capacity of the merged overlap-run buffer.
    pub overlap_capacity: usize,
    /// Number of band buffers ever grown.
    pub bands: usize,
}

/// Reusable working memory of the extraction kernel.
///
/// Owns every internal buffer: the wire-payload ingest planes, dispersion
/// planes, argmax grid, labelers for predicted and ground-truth components,
/// per-band accumulators, the flat class-probability matrix and the overlap
/// runs. One scratch serves frames of *any* shape — buffers are sized per
/// frame and only grow when a frame exceeds every shape seen before, so a
/// session that streams a fixed camera reaches zero kernel allocations after
/// the first frame. Stale state can never leak between frames: every buffer
/// is re-initialised to the current frame's exact extent before use (pinned
/// by the scratch-reuse tests).
///
/// Ownership rules: [`crate::stream::MetaSegStream`] owns one scratch per
/// session; the batch entry points ([`frame_metrics`], [`FrameBatch`])
/// borrow a thread-local scratch per worker thread. Explicit callers hold
/// one wherever a frame loop lives.
#[derive(Debug, Clone, Default)]
pub struct ExtractionScratch {
    /// Wire-payload ingest buffers (disjoint from the kernel state so the
    /// kernel can borrow the decoded plane while mutating everything else).
    ingest: IngestScratch,
    /// The kernel's own working buffers.
    kernel: KernelScratch,
}

/// Decoded-payload planes of the zero-copy ingest path: wire bytes
/// dequantize straight into these reusable buffers, never through an owned
/// [`ProbMap`].
#[derive(Debug, Clone, Default)]
struct IngestScratch {
    /// Dequantized values of the double-precision (exact) path.
    decoded_f64: Vec<f64>,
    /// Dequantized values of the single-precision fast path (float-encoded
    /// payloads only — quantized payloads are scanned in place, straight
    /// out of the wire buffer, and need no ingest plane at all).
    decoded_f32: Vec<f32>,
}

/// Every buffer the kernel itself mutates while a decoded plane is borrowed.
#[derive(Debug, Clone, Default)]
struct KernelScratch {
    /// Per-pixel Bayes class ids (the fused scan's argmax plane).
    argmax: Option<Grid<u16>>,
    /// Dispersion planes of the exact f64 scan.
    planes: MetricPlanes<f64>,
    /// Dispersion planes of the f32 fast path: the scan's `f32` results are
    /// stored as-is and widen (exactly) at the fold read, so the fast path
    /// moves half the plane bytes of the exact path.
    planes32: MetricPlanes<f32>,
    /// Labeling state for predicted components.
    labeler: Labeler,
    /// Labeling state for ground-truth components.
    gt_labeler: Labeler,
    /// Per-band fold state.
    bands: Vec<BandState>,
    /// Per-band channel-major tiles of the f32 tiled scan layout.
    tiles: Vec<Vec<f32>>,
    /// Merged, sorted, aggregated overlap runs.
    merged_runs: Vec<OverlapRun>,
}

/// The per-pixel dispersion planes at one storage precision (see
/// [`PlaneValue`]): the fused scan's outputs, consumed once by the fold.
#[derive(Debug, Clone, Default)]
struct MetricPlanes<P> {
    /// Per-pixel normalised entropy.
    entropy: Vec<P>,
    /// Per-pixel probability margin.
    margin: Vec<P>,
    /// Per-pixel variation ratio.
    variation: Vec<P>,
    /// Per-pixel maximum softmax probability.
    top1: Vec<P>,
}

impl<P: PlaneValue> MetricPlanes<P> {
    /// Grow-only resize: the scan overwrites every index below `pixels`, so
    /// tails left over from larger frames are never read and per-frame
    /// re-zeroing (pure write bandwidth) is skipped.
    fn ensure(&mut self, pixels: usize) {
        if self.entropy.len() < pixels {
            self.entropy.resize(pixels, P::default());
            self.margin.resize(pixels, P::default());
            self.variation.resize(pixels, P::default());
            self.top1.resize(pixels, P::default());
        }
    }
}

/// Storage precision of the dispersion planes, tied to the scan that fills
/// them: the exact f64 scan stores `f64`; the f32 fast path stores its `f32`
/// scan results unwidened and widens them — exactly, `f32 → f64` is lossless
/// — at the single fold read. Same fold-side additions either way; the fast
/// path just moves half the bytes through the cache between the two stages.
trait PlaneValue: Copy + Send + Sync + Default {
    /// Stores one f32 scan result (widening when the plane is `f64`).
    fn from_scan_f32(value: f32) -> Self;
    /// Widens one stored value for the fold's f64 zone accumulation.
    fn to_f64(self) -> f64;
}

impl PlaneValue for f64 {
    #[inline]
    fn from_scan_f32(value: f32) -> Self {
        f64::from(value)
    }

    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
}

impl PlaneValue for f32 {
    #[inline]
    fn from_scan_f32(value: f32) -> Self {
        value
    }

    #[inline]
    fn to_f64(self) -> f64 {
        f64::from(self)
    }
}

impl ExtractionScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current buffer capacities — constant across steady-state frames.
    pub fn stats(&self) -> ScratchStats {
        ScratchStats {
            pixel_capacity: self
                .kernel
                .planes
                .entropy
                .capacity()
                .max(self.kernel.planes32.entropy.capacity()),
            segment_capacity: self
                .kernel
                .bands
                .iter()
                .map(|b| b.accs.capacity())
                .max()
                .unwrap_or(0),
            class_prob_capacity: self
                .kernel
                .bands
                .iter()
                .map(|b| b.class_probs.capacity())
                .max()
                .unwrap_or(0),
            overlap_capacity: self.kernel.merged_runs.capacity(),
            bands: self.kernel.bands.len(),
        }
    }
}

thread_local! {
    /// Per-thread scratch backing the implicit entry points, so batch
    /// workers amortise allocations across the frames of their chunk.
    static THREAD_SCRATCH: RefCell<ExtractionScratch> = RefCell::new(ExtractionScratch::new());
}

/// Band count [`extract_frame`] and [`extract_frame_payload`] select for a
/// frame of `pixels` pixels spread over `rows` rows: `pixels /
/// MIN_BAND_PIXELS`, capped by the machine's worker-thread count,
/// [`MAX_BANDS`] and the row count, floored at 1 (serial).
///
/// The count is a pure function of the frame shape and the machine — it
/// deliberately ignores momentary load and calling context, so a frame's
/// band split (and thus its exact float output) never depends on what else
/// the process happens to be doing. Two caller classes exist:
///
/// * the thread-local entry points ([`frame_metrics`],
///   [`frame_metrics_with_labels`]) are **always serial**: they are what the
///   frame-level rayon fan-outs ([`FrameBatch`], `process_videos`, the serve
///   micro-batch dispatch) call, where the cores are already taken and a
///   second thread layer would only oversubscribe them — and serial output
///   is bit-stable everywhere;
/// * the explicit-scratch extractors ([`extract_frame`],
///   [`extract_frame_payload`] — i.e. one streaming session driving one
///   camera) use this count and gain intra-frame multi-core scaling. A
///   deployment running many such sessions concurrently oversubscribes by at
///   most `min(threads, MAX_BANDS)` bands each, a documented throughput
///   trade-off that never changes any output bit.
///
/// Public so the `extraction_profile` bench reports the exact count the
/// kernel will use.
pub fn auto_band_count(pixels: usize, rows: usize) -> usize {
    (pixels / MIN_BAND_PIXELS)
        .min(worker_threads())
        .min(MAX_BANDS)
        .min(rows)
        .max(1)
}

/// The machine's worker-thread count, resolved **once per process** at the
/// first kernel call and cached.
///
/// `rayon::current_num_threads` consults `RAYON_NUM_THREADS` and
/// `std::thread::available_parallelism()` on every call — the latter
/// re-reads cgroup limits through the filesystem, which costs syscalls *and*
/// a handful of heap allocations. Uncached, that made the auto-banded entry
/// points measurably slower (and 4 allocs/frame heavier) than the explicit
/// serial path on sub-threshold frames. Consequence of caching: a
/// `RAYON_NUM_THREADS` change after the first extraction no longer affects
/// the band count (it never affected the rayon pool either, which snapshots
/// the value at pool construction).
pub fn worker_threads() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(rayon::current_num_threads)
}

/// Computes the metric vector and IoU target of every predicted segment in a
/// single fused pass over the frame's pixels, using a thread-local
/// [`ExtractionScratch`] and the serial (1-band) fold — bit-stable on every
/// machine, and safe to fan out per frame across a thread pool (see
/// [`auto_band_count`] for the banding policy).
///
/// Drop-in replacement for the naive formulation (and what
/// [`crate::metrics::segment_metrics`] delegates to): same records, same
/// order, same semantics. Callers that own a frame loop should prefer
/// [`extract_frame`] with an explicitly owned scratch.
///
/// The thread-local scratch grows to the largest frame a thread has ever
/// extracted and is retained for the thread's lifetime (that is what makes
/// the steady state allocation-free). Memory-constrained batch jobs over
/// very large frames should call [`extract_frame`] with an owned scratch
/// they can drop afterwards.
pub fn frame_metrics(
    prediction: &ProbMap,
    ground_truth: Option<&LabelMap>,
    config: &MetricsConfig,
) -> Vec<SegmentRecord> {
    THREAD_SCRATCH.with(|scratch| {
        frame_metrics_banded(
            prediction,
            ground_truth,
            config,
            &mut scratch.borrow_mut(),
            1,
        )
    })
}

/// [`frame_metrics`] with an explicit reusable scratch and a forced band
/// count — the testing and benchmarking hook behind the band-invariance
/// property test, the serial-path digest and the `extraction_profile`
/// serial/banded comparison. `bands` is clamped to the frame's row count;
/// `1` forces the serial path.
pub fn frame_metrics_banded(
    prediction: &ProbMap,
    ground_truth: Option<&LabelMap>,
    config: &MetricsConfig,
    scratch: &mut ExtractionScratch,
    bands: usize,
) -> Vec<SegmentRecord> {
    let bands = bands.clamp(1, prediction.height());
    run_kernel(
        FrameView::of(prediction),
        IdsSource::Fused,
        ground_truth,
        config,
        &mut scratch.kernel,
        bands,
    )
    .1
}

/// Full fused extraction with an explicit reusable scratch and automatic
/// band selection ([`auto_band_count`]) that also exposes the frame's
/// connected components (borrowed from the scratch's labeler) — the
/// streaming engine's entry point, which shares one labelling per frame
/// between metric extraction and the incremental tracker.
pub fn extract_frame<'s>(
    prediction: &ProbMap,
    ground_truth: Option<&LabelMap>,
    config: &MetricsConfig,
    scratch: &'s mut ExtractionScratch,
) -> (&'s ComponentLabels, Vec<SegmentRecord>) {
    let view = FrameView::of(prediction);
    run_kernel_auto(view, ground_truth, config, &mut scratch.kernel)
}

/// Extracts metrics and components straight from a wire payload, without
/// materialising a [`ProbMap`] — the zero-copy serve path.
///
/// With [`DispersionPrecision::F64`] the payload's bytes dequantize into a
/// reusable `f64` ingest plane of the scratch and the records are
/// **bit-identical** to decoding the payload into a `ProbMap` first and
/// calling [`extract_frame`] (pinned by a property test). With
/// [`DispersionPrecision::F32`] the scan takes the single-precision tiled
/// fast path: quantized payloads are scanned in place, float payloads
/// through a reusable `f32` ingest plane.
///
/// # Errors
///
/// Returns the typed [`DataError`]s of [`ProbPayload::decode`] when the
/// declared shape is inconsistent with the byte length (or overflows); the
/// scratch is left reusable.
pub fn extract_frame_payload<'s>(
    payload: &ProbPayload,
    ground_truth: Option<&LabelMap>,
    config: &MetricsConfig,
    scratch: &'s mut ExtractionScratch,
    precision: DispersionPrecision,
) -> Result<(&'s ComponentLabels, Vec<SegmentRecord>), DataError> {
    let ExtractionScratch { ingest, kernel } = scratch;
    Ok(match precision {
        DispersionPrecision::F64 => {
            payload.decode_values_into(&mut ingest.decoded_f64)?;
            let view = FrameView::decoded(payload, ingest.decoded_f64.as_slice());
            run_kernel_auto(view, ground_truth, config, kernel)
        }
        // Quantized payloads are scanned *in place*: the kernel reads the
        // little-endian byte pairs straight out of the wire buffer,
        // dequantizing in-register at the point of use (scan gather and fold
        // widening), so the densest wire encoding never materialises a
        // decoded plane of any width. The floats produced are bit-identical
        // to dequantizing into an `f32` plane first (same formula per value,
        // pinned by test).
        DispersionPrecision::F32 => match payload.quantized_pairs()? {
            Some(pairs) => {
                let view = FrameView::decoded(payload, pairs);
                run_kernel_auto(view, ground_truth, config, kernel)
            }
            None => {
                payload.decode_values_into_f32(&mut ingest.decoded_f32)?;
                let view = FrameView::decoded(payload, ingest.decoded_f32.as_slice());
                run_kernel_auto(view, ground_truth, config, kernel)
            }
        },
    })
}

/// [`frame_metrics`] with a caller-supplied Bayes label map of `prediction`.
///
/// For callers that already need the argmax map for other work (e.g. the
/// batch time-dynamic pipeline hands it to the segment tracker), this skips
/// the fused scan's argmax plane and labels the caller's map instead; the
/// dispersion planes and the banded fold are identical.
pub fn frame_metrics_with_labels(
    prediction: &ProbMap,
    predicted_labels: &LabelMap,
    ground_truth: Option<&LabelMap>,
    config: &MetricsConfig,
) -> Vec<SegmentRecord> {
    THREAD_SCRATCH.with(|scratch| {
        run_kernel(
            FrameView::of(prediction),
            IdsSource::Ids(predicted_labels.ids()),
            ground_truth,
            config,
            &mut scratch.borrow_mut().kernel,
            1,
        )
        .1
    })
}

/// Where the kernel gets the Bayes labelling from.
enum IdsSource<'a> {
    /// Compute the argmax plane in the fused scan and label it.
    Fused,
    /// Label a caller-supplied class-id grid.
    Ids(&'a Grid<u16>),
}

/// Numeric precision of the per-pixel dispersion scan.
///
/// [`DispersionPrecision::F64`] (the default) is the exact scan, bit-identical
/// to [`extract_frame`] over the decoded [`ProbMap`].
/// [`DispersionPrecision::F32`] is the opt-in fast path: payload values
/// dequantize to `f32` and the tiled scan runs branch-free with a polynomial
/// logarithm (per pixel, [`metaseg_data::DistributionScanF32`]), trading
/// `~1e-5` absolute dispersion error for SIMD-width throughput. Only the
/// scan narrows — its results widen exactly into the `f64` per-segment
/// accumulation and epilogue, so downstream aggregates do not drift with
/// segment size. Lossy wire encodings (`f32`/`u16`) already bound payload fidelity
/// above that error, which is why the serve path can negotiate this
/// per-connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DispersionPrecision {
    /// Exact double-precision scan, bit-identical to [`frame_metrics`].
    #[default]
    F64,
    /// Single-precision branch-free scan (documented `~1e-5` tolerance).
    F32,
}

impl DispersionPrecision {
    /// The wire/CLI spelling of the precision.
    pub fn as_str(self) -> &'static str {
        match self {
            DispersionPrecision::F64 => "f64",
            DispersionPrecision::F32 => "f32",
        }
    }

    /// Parses the wire/CLI spelling.
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "f64" => DispersionPrecision::F64,
            "f32" => DispersionPrecision::F32,
            _ => return None,
        })
    }
}

impl std::fmt::Display for DispersionPrecision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Pixels per channel-major tile of the f32 tiled scan: 256 lanes × 19
/// channels × 4 bytes ≈ 19 KiB, which together with the four 1 KiB lane
/// accumulators still fits L1 while amortising the per-tile fixed costs
/// (accumulator reset and plane writeback) over four times the pixels of
/// the original 64-lane tile — worth ~7% whole-kernel throughput on the
/// large bench scene. 512 lanes spills L1 and plateaus.
pub const TILE_LANES: usize = 256;

/// A borrowed frame of decoded softmax values in pixel-major storage order
/// (`values[(y * width + x) * channels + c]`) — what the kernel actually
/// consumes, whether the values come from a [`ProbMap`] or were dequantized
/// straight off the wire into the ingest scratch.
#[derive(Clone, Copy)]
struct FrameView<'a, V> {
    width: usize,
    height: usize,
    channels: usize,
    values: &'a [V],
}

impl<'a> FrameView<'a, f64> {
    /// Views a decoded probability field.
    fn of(prediction: &'a ProbMap) -> Self {
        let (width, height) = prediction.shape();
        Self {
            width,
            height,
            channels: prediction.num_classes(),
            values: prediction.values(),
        }
    }
}

impl<'a, V> FrameView<'a, V> {
    /// Views `values` decoded from `payload`. Built only after the codec
    /// has accepted the payload's declared shape, so [`run_kernel_auto`]'s
    /// band count cannot overflow on a malformed one.
    fn decoded(payload: &ProbPayload, values: &'a [V]) -> Self {
        Self {
            width: payload.width,
            height: payload.height,
            channels: payload.channels,
            values,
        }
    }
}

/// One band's slices of the dispersion planes, split off for the scan stage.
struct ScanPart<'p, P> {
    /// Flat pixel index of the band's first pixel.
    offset: usize,
    entropy: &'p mut [P],
    margin: &'p mut [P],
    variation: &'p mut [P],
    top1: &'p mut [P],
    argmax: &'p mut [u16],
    /// Channel-major scratch tile (used by the f32 tiled scan only).
    tile: &'p mut Vec<f32>,
}

/// A softmax value type the kernel can scan and fold.
///
/// Three implementations exist, one per decoded-value source:
///
/// * `f64` — a [`ProbMap`] or an f64-decoded payload. Its scan is the exact
///   pixel-major loop over [`DistributionScan`], whose serial records are
///   pinned bit for bit by the committed digest test;
/// * `f32` — a float payload decoded to single precision, scanned by the
///   branch-free tiled fast path ([`scan_band_tiled`]);
/// * `[u8; 2]` — the little-endian byte pair of one quantized wire value,
///   scanned in place by the same tiled fast path, dequantizing at the point
///   of use ([`dequant_u16`] is the `f32` dequantization formula of
///   [`ProbPayload::decode_values_into_f32`], so the two routes produce
///   identical floats).
///
/// Everything after the scan (labelling, fold, epilogue) accumulates in
/// `f64` for all three.
trait ProbValue: Copy + Send + Sync {
    /// Storage precision of the dispersion planes this scan fills.
    type Plane: PlaneValue;
    /// Selects this scan's dispersion planes out of the kernel scratch.
    fn planes<'a>(
        planes: &'a mut MetricPlanes<f64>,
        planes32: &'a mut MetricPlanes<f32>,
    ) -> &'a mut MetricPlanes<Self::Plane>;
    /// Scans one band's pixels into its dispersion-plane slices: the f32
    /// tiled fast path unless the value type overrides it.
    #[inline]
    fn scan_band(
        values: &[Self],
        channels: usize,
        part: &mut ScanPart<'_, Self::Plane>,
        wants_argmax: bool,
    ) {
        scan_band_tiled(values, channels, part, wants_argmax);
    }
    /// The `f32` probability the tiled gather moves into its lane column.
    fn to_f32(self) -> f32;
    /// Widens one probability for the f64 class-probability accumulation.
    /// Non-finite values widen to `0.0` — a NaN stripe from a dropped-out
    /// sensor must not poison the segment class-probability means.
    fn widen(self) -> f64;
}

/// The `f32` dequantization of one quantized wire value — identical to
/// [`ProbPayload::decode_values_into_f32`]'s formula, which is what makes
/// the direct-from-`u16` path produce bit-identical floats to scanning a
/// materialised `f32` plane.
#[inline]
fn dequant_u16(q: u16) -> f32 {
    const SCALE: f32 = 1.0 / 65535.0;
    f32::from(q) * SCALE
}

impl ProbValue for f64 {
    type Plane = f64;

    #[inline]
    fn planes<'a>(
        planes: &'a mut MetricPlanes<f64>,
        _planes32: &'a mut MetricPlanes<f32>,
    ) -> &'a mut MetricPlanes<f64> {
        planes
    }

    #[inline]
    fn scan_band(
        values: &[f64],
        channels: usize,
        part: &mut ScanPart<'_, f64>,
        wants_argmax: bool,
    ) {
        let start = part.offset;
        for i in 0..part.entropy.len() {
            let dist = &values[(start + i) * channels..(start + i + 1) * channels];
            let scan = DistributionScan::of(dist);
            part.entropy[i] = scan.entropy(channels);
            part.margin[i] = scan.margin();
            part.variation[i] = scan.variation_ratio();
            part.top1[i] = scan.top1;
            if wants_argmax {
                part.argmax[i] = scan.argmax as u16;
            }
        }
    }

    #[inline]
    fn to_f32(self) -> f32 {
        // The f64 scan overrides the tiled default, so nothing gathers f64
        // values into a tile; honest narrowing regardless.
        self as f32
    }

    #[inline]
    fn widen(self) -> f64 {
        if self.is_finite() {
            self
        } else {
            0.0
        }
    }
}

impl ProbValue for f32 {
    type Plane = f32;

    #[inline]
    fn planes<'a>(
        _planes: &'a mut MetricPlanes<f64>,
        planes32: &'a mut MetricPlanes<f32>,
    ) -> &'a mut MetricPlanes<f32> {
        planes32
    }

    #[inline]
    fn to_f32(self) -> f32 {
        self
    }

    #[inline]
    fn widen(self) -> f64 {
        if self.is_finite() {
            f64::from(self)
        } else {
            0.0
        }
    }
}

/// Raw quantized wire values *in place*: the f32 fast path straight over the
/// payload's little-endian byte pairs (see [`ProbPayload::quantized_pairs`]),
/// dequantizing in-register with the formula of
/// [`ProbPayload::decode_values_into_f32`] (`q * (1/65535)` in `f32`). Every
/// float this implementation produces — scan planes and fold widening alike
/// — is bit-identical to first materialising the `f32` plane and scanning
/// that (pinned by `quantized_direct_path_matches_f32_plane_bit_exactly`).
impl ProbValue for [u8; 2] {
    type Plane = f32;

    #[inline]
    fn planes<'a>(
        _planes: &'a mut MetricPlanes<f64>,
        planes32: &'a mut MetricPlanes<f32>,
    ) -> &'a mut MetricPlanes<f32> {
        planes32
    }

    #[inline]
    fn to_f32(self) -> f32 {
        dequant_u16(u16::from_le_bytes(self))
    }

    #[inline]
    fn widen(self) -> f64 {
        f64::from(self.to_f32())
    }
}

/// The tiled fast-path scan: transpose [`TILE_LANES`] pixels into a
/// channel-major `f32` tile, then run the shared lane compute
/// ([`scan_tile_lanes`]) — every compute loop runs over contiguous
/// same-length lanes with no cross-lane dependency, the shape
/// auto-vectorisers are built for.
///
/// Generic over the source value: the gather converts each value with
/// [`ProbValue::to_f32`] as it moves it into its lane column (the identity
/// for `f32` planes; the in-register dequantization for wire byte pairs),
/// so the tile handed to the compute is bit-identical whichever source fed
/// it. Per lane it performs the operation sequence of
/// [`metaseg_data::DistributionScanF32::of`] along the channel axis, only interleaved
/// across lanes, so every pixel's outputs equal that per-pixel scan's
/// followed by the same clamps (pinned by
/// `tiled_scan_matches_per_pixel_distribution_scan`).
fn scan_band_tiled<V: ProbValue>(
    values: &[V],
    channels: usize,
    part: &mut ScanPart<'_, V::Plane>,
    wants_argmax: bool,
) {
    let inv_ln_n = 1.0 / (channels as f32).ln();
    let ScanPart {
        offset,
        entropy,
        margin,
        variation,
        top1,
        argmax,
        tile,
        ..
    } = part;
    let offset = *offset;
    if tile.len() < TILE_LANES * channels {
        tile.resize(TILE_LANES * channels, 0.0);
    }
    let pixels = entropy.len();
    let mut base = 0usize;
    while base < pixels {
        let lanes = TILE_LANES.min(pixels - base);
        // Gather: one strided pass moving each pixel's contiguous channel
        // vector into its lane column.
        for lane in 0..lanes {
            let dist = &values[(offset + base + lane) * channels..][..channels];
            for (c, &p) in dist.iter().enumerate() {
                tile[c * TILE_LANES + lane] = p.to_f32();
            }
        }
        scan_tile_lanes(
            tile,
            channels,
            lanes,
            base,
            inv_ln_n,
            wants_argmax,
            entropy,
            margin,
            variation,
            top1,
            argmax,
        );
        base += lanes;
    }
}

/// One tile's lane compute: four fixed-width accumulator arrays updated
/// channel row by channel row, then written back to the dispersion planes.
/// Shared verbatim by the f32 and quantized tiled scans, which differ only
/// in how they fill the tile.
#[allow(clippy::too_many_arguments)]
#[inline]
fn scan_tile_lanes<P: PlaneValue>(
    tile: &[f32],
    channels: usize,
    lanes: usize,
    base: usize,
    inv_ln_n: f32,
    wants_argmax: bool,
    entropy_out: &mut [P],
    margin_out: &mut [P],
    variation_out: &mut [P],
    top1_out: &mut [P],
    argmax_out: &mut [u16],
) {
    let mut first = [f32::NEG_INFINITY; TILE_LANES];
    let mut second = [f32::NEG_INFINITY; TILE_LANES];
    let mut entropy = [0.0f32; TILE_LANES];
    let mut argmax = [0u16; TILE_LANES];
    for c in 0..channels {
        let row = &tile[c * TILE_LANES..c * TILE_LANES + lanes];
        for (lane, &p) in row.iter().enumerate() {
            // The same compare-and-select dropout sanitiser as
            // `DistributionScanF32::of`, applied at the same point of the
            // operation sequence — what keeps the tiled scan bit-identical
            // to the per-pixel scan on NaN-striped dropout frames too.
            let p = if p.is_finite() { p } else { 0.0 };
            entropy[lane] -= p * fast_ln_positive_f32(p);
            let prev = first[lane];
            first[lane] = prev.max(p);
            second[lane] = second[lane].max(p.min(prev));
            if p > prev {
                argmax[lane] = c as u16;
            }
        }
    }
    if channels == 1 {
        // Single-channel distributions define top2 as zero, matching
        // [`DistributionScan`].
        second[..lanes].fill(0.0);
    }
    for lane in 0..lanes {
        let i = base + lane;
        entropy_out[i] = P::from_scan_f32((entropy[lane] * inv_ln_n).clamp(0.0, 1.0));
        margin_out[i] = P::from_scan_f32((1.0 - (first[lane] - second[lane])).clamp(0.0, 1.0));
        variation_out[i] = P::from_scan_f32((1.0 - first[lane]).clamp(0.0, 1.0));
        top1_out[i] = P::from_scan_f32(first[lane]);
        if wants_argmax {
            argmax_out[i] = argmax[lane];
        }
    }
}

/// Row ranges of the horizontal band split: `bands` contiguous chunks of
/// `ceil(height / bands)` rows (the last band may be short).
fn band_rows(height: usize, bands: usize, band: usize) -> std::ops::Range<usize> {
    let rows_per_band = height.div_ceil(bands);
    let start = (band * rows_per_band).min(height);
    let end = ((band + 1) * rows_per_band).min(height);
    start..end
}

/// [`run_kernel`] with the fused argmax plane at the frame's
/// [`auto_band_count`].
fn run_kernel_auto<'s, V: ProbValue>(
    frame: FrameView<'_, V>,
    ground_truth: Option<&LabelMap>,
    config: &MetricsConfig,
    scratch: &'s mut KernelScratch,
) -> (&'s ComponentLabels, Vec<SegmentRecord>) {
    let bands = auto_band_count(frame.width * frame.height, frame.height);
    run_kernel(
        frame,
        IdsSource::Fused,
        ground_truth,
        config,
        scratch,
        bands,
    )
}

/// The extraction kernel: fused scan → labelling → banded fold → epilogue.
fn run_kernel<'s, V: ProbValue>(
    frame: FrameView<'_, V>,
    ids: IdsSource<'s>,
    ground_truth: Option<&LabelMap>,
    config: &MetricsConfig,
    scratch: &'s mut KernelScratch,
    band_count: usize,
) -> (&'s ComponentLabels, Vec<SegmentRecord>) {
    let FrameView { width, height, .. } = frame;
    let pixels = width * height;
    let num_channels = frame.channels;
    let KernelScratch {
        argmax,
        planes,
        planes32,
        labeler,
        gt_labeler,
        bands,
        tiles,
        merged_runs,
    } = scratch;

    // --- fused scan: one walk of every pixel's channel axis ---------------
    // The value type picks its plane precision (f64 exact, f32 fast path);
    // growth is grow-only, see [`MetricPlanes::ensure`].
    let MetricPlanes {
        entropy,
        margin,
        variation,
        top1,
    } = {
        let planes = V::planes(planes, planes32);
        planes.ensure(pixels);
        planes
    };
    let wants_argmax = matches!(ids, IdsSource::Fused);
    if wants_argmax {
        // The scan writes every pixel of the plane, so only a shape change
        // needs the (filling) reset.
        let grid = argmax.get_or_insert_with(|| Grid::filled(width, height, 0u16));
        if grid.shape() != (width, height) {
            grid.reset(width, height, 0u16);
        }
    }
    {
        // Split the planes into per-band row chunks so the scan can run on
        // scoped worker threads; per-pixel outputs are independent, so the
        // values are identical for every band count.
        let values = frame.values;
        if tiles.len() < band_count {
            tiles.resize(band_count, Vec::new());
        }
        let mut parts: Vec<ScanPart<'_, V::Plane>> = {
            let mut rest_e = &mut entropy[..pixels];
            let mut rest_m = &mut margin[..pixels];
            let mut rest_v = &mut variation[..pixels];
            let mut rest_t = &mut top1[..pixels];
            let mut rest_a: &mut [u16] = match argmax.as_mut() {
                Some(grid) if wants_argmax => grid.as_mut_slice(),
                _ => &mut [],
            };
            let mut parts = Vec::with_capacity(band_count);
            for (band, tile) in tiles[..band_count].iter_mut().enumerate() {
                let rows = band_rows(height, band_count, band);
                let len = rows.len() * width;
                let (e, te) = rest_e.split_at_mut(len);
                let (m, tm) = rest_m.split_at_mut(len);
                let (v, tv) = rest_v.split_at_mut(len);
                let (t, tt) = rest_t.split_at_mut(len);
                let (a, ta) = rest_a.split_at_mut(if wants_argmax { len } else { 0 });
                rest_e = te;
                rest_m = tm;
                rest_v = tv;
                rest_t = tt;
                rest_a = ta;
                parts.push(ScanPart {
                    offset: rows.start * width,
                    entropy: e,
                    margin: m,
                    variation: v,
                    top1: t,
                    argmax: a,
                    tile,
                });
            }
            parts
        };
        let scan_band = |part: &mut ScanPart<'_, V::Plane>| {
            V::scan_band(values, num_channels, part, wants_argmax)
        };
        if parts.len() == 1 {
            scan_band(&mut parts[0]);
        } else {
            std::thread::scope(|scope| {
                let scan_band = &scan_band;
                let mut iter = parts.iter_mut();
                let first = iter.next().expect("at least one band");
                for part in iter {
                    scope.spawn(move || scan_band(part));
                }
                scan_band(first);
            });
        }
    }

    // --- labelling ---------------------------------------------------------
    let components: &ComponentLabels = match ids {
        IdsSource::Fused => labeler.label(
            argmax.as_ref().expect("fused scan filled the argmax plane"),
            config.connectivity,
        ),
        IdsSource::Ids(grid) => labeler.label(grid, config.connectivity),
    };
    let segment_count = components.component_count();
    let gt_components: Option<&ComponentLabels> = match ground_truth {
        Some(gt) => Some(gt_labeler.label(gt.ids(), config.connectivity)),
        None => None,
    };

    // --- banded fold -------------------------------------------------------
    if bands.len() < band_count {
        bands.resize(band_count, BandState::default());
    }
    let labels = components.labels().as_slice();
    let regions = components.regions();
    let gt_ids: Option<&[u16]> = ground_truth.map(|gt| gt.ids().as_slice());
    let gt_labels: Option<&[usize]> = gt_components.map(|cc| cc.labels().as_slice());
    {
        let fold = |band: usize, state: &mut BandState| {
            state.reset(segment_count, num_channels);
            fold_band(
                state,
                band_rows(height, band_count, band),
                width,
                height,
                labels,
                regions,
                frame.values,
                num_channels,
                entropy,
                margin,
                variation,
                top1,
                gt_ids,
                gt_labels,
            );
        };
        if band_count == 1 {
            fold(0, &mut bands[0]);
        } else {
            std::thread::scope(|scope| {
                let fold = &fold;
                let mut iter = bands[..band_count].iter_mut().enumerate();
                let (first_band, first_state) = iter.next().expect("at least one band");
                for (band, state) in iter {
                    scope.spawn(move || fold(band, state));
                }
                fold(first_band, first_state);
            });
        }
    }

    // --- merge bands (band order: deterministic for a given band count) ----
    {
        let (target, rest) = bands.split_first_mut().expect("at least one band");
        for band in &rest[..band_count - 1] {
            for (into, from) in target.accs.iter_mut().zip(&band.accs) {
                into.merge(from);
            }
            for (into, &from) in target.class_probs.iter_mut().zip(&band.class_probs) {
                *into += from;
            }
        }
    }
    merged_runs.clear();
    for band in &bands[..band_count] {
        merged_runs.extend_from_slice(&band.overlaps);
    }
    merged_runs.sort_unstable_by_key(|run| (run.pred, run.gt));
    // Aggregate equal (pred, gt) runs in place.
    let mut write = 0usize;
    for read in 1..merged_runs.len() {
        if merged_runs[read].pred == merged_runs[write].pred
            && merged_runs[read].gt == merged_runs[write].gt
        {
            merged_runs[write].count += merged_runs[read].count;
        } else {
            write += 1;
            merged_runs[write] = merged_runs[read];
        }
    }
    merged_runs.truncate(if merged_runs.is_empty() { 0 } else { write + 1 });

    // --- O(segments) epilogue: assemble the metric vectors ----------------
    let accs = &bands[0].accs;
    let class_probs = &bands[0].class_probs;
    let min_area = config.min_segment_area.max(1);
    let mut records = Vec::with_capacity(segment_count);
    let mut run_cursor = 0usize;
    for region in regions {
        // The run slice of this region (runs are sorted by predicted id and
        // regions iterate in id order, so a single cursor suffices).
        let pred_id = region.id as u32;
        while run_cursor < merged_runs.len() && merged_runs[run_cursor].pred < pred_id {
            run_cursor += 1;
        }
        let run_start = run_cursor;
        while run_cursor < merged_runs.len() && merged_runs[run_cursor].pred == pred_id {
            run_cursor += 1;
        }
        if region.area() < min_area {
            continue;
        }
        let acc = &accs[region.id];
        let class = SemanticClass::from_id(region.class_id).expect("valid class id");

        let area = region.area() as f64;
        let boundary_length = acc.boundary_len as f64;
        let interior_count = region.area() - acc.boundary_len;
        let interior_area = interior_count as f64;

        let mut metrics = Vec::with_capacity(METRIC_COUNT);
        for heat in 0..3 {
            let mean_whole = (acc.sum_boundary[heat] + acc.sum_interior[heat]) / area;
            let mean_boundary = if acc.boundary_len == 0 {
                0.0
            } else {
                acc.sum_boundary[heat] / boundary_length
            };
            // Segments without interior fall back to the whole-segment mean,
            // matching the reference convention.
            let mean_interior = if interior_count == 0 {
                mean_whole
            } else {
                acc.sum_interior[heat] / interior_area
            };
            metrics.push(mean_whole);
            metrics.push(mean_boundary);
            metrics.push(mean_interior);
        }
        metrics.push(area);
        metrics.push(boundary_length);
        metrics.push(interior_area);
        metrics.push(if area > 0.0 {
            interior_area / area
        } else {
            0.0
        });
        metrics.push(if boundary_length > 0.0 {
            area / boundary_length
        } else {
            area
        });
        metrics.push(acc.sum_top1 / area);
        let prob_row = &class_probs[region.id * num_channels..(region.id + 1) * num_channels];
        for channel in 0..NUM_CHANNELS {
            let sum = prob_row.get(channel).copied().unwrap_or(0.0);
            metrics.push(sum / area);
        }
        debug_assert_eq!(metrics.len(), BASE_METRIC_COUNT + NUM_CHANNELS);

        // IoU target (eq. (2)): predicted segment vs the union of same-class
        // ground-truth segments it touches, from the aggregated run counts.
        let iou = gt_components.map(|gt_cc| {
            if acc.non_void == 0 {
                return None;
            }
            let runs = &merged_runs[run_start..run_cursor];
            if runs.is_empty() {
                return Some(0.0);
            }
            let intersection: usize = runs.iter().map(|run| run.count as usize).sum();
            let union_area: usize = runs
                .iter()
                .map(|run| gt_cc.regions()[run.gt as usize].area())
                .sum();
            let union = region.area() + union_area - intersection;
            Some(intersection as f64 / union as f64)
        });

        records.push(SegmentRecord {
            region_id: region.id,
            class,
            area: region.area(),
            boundary_length: acc.boundary_len,
            centroid: region.centroid(),
            metrics,
            iou: iou.flatten(),
        });
    }
    (components, records)
}

/// Folds the pixels of one horizontal band into the band's accumulators.
///
/// The loop body adds pixels in row-major order, so a single band's sums —
/// and thus the serial path's records — are fixed bit for bit (pinned by
/// the serial-path digest test); per-band partials merge in band order.
#[allow(clippy::too_many_arguments)]
fn fold_band<V: ProbValue>(
    state: &mut BandState,
    rows: std::ops::Range<usize>,
    width: usize,
    height: usize,
    labels: &[usize],
    regions: &[metaseg_imgproc::Region],
    values: &[V],
    num_channels: usize,
    entropy: &[V::Plane],
    margin: &[V::Plane],
    variation: &[V::Plane],
    top1: &[V::Plane],
    gt_ids: Option<&[u16]>,
    gt_labels: Option<&[usize]>,
) {
    let void_id = SemanticClass::Void.id();
    for y in rows {
        // Per-row slices: the inner loop then walks same-length rows and
        // channel chunks instead of recomputing flat indices into the full
        // planes, which drops most per-pixel bounds checks.
        let start = y * width;
        let row = &labels[start..start + width];
        let above = (y > 0).then(|| &labels[start - width..start]);
        let below = (y + 1 < height).then(|| &labels[start + width..start + 2 * width]);
        let entropy_row = &entropy[start..start + width];
        let margin_row = &margin[start..start + width];
        let variation_row = &variation[start..start + width];
        let top1_row = &top1[start..start + width];
        let value_rows = &values[start * num_channels..(start + width) * num_channels];
        let gt_id_row = gt_ids.map(|g| &g[start..start + width]);
        let gt_label_row = gt_labels.map(|g| &g[start..start + width]);
        for (x, (&segment, dist)) in row
            .iter()
            .zip(value_rows.chunks_exact(num_channels))
            .enumerate()
        {
            let acc = &mut state.accs[segment];

            // One cheap per-channel add; dispersion values come from the
            // fused scan's planes — the channel axis is never re-scanned.
            let prob_row =
                &mut state.class_probs[segment * num_channels..(segment + 1) * num_channels];
            for (into, &p) in prob_row.iter_mut().zip(dist) {
                *into += p.widen();
            }
            acc.sum_top1 += top1_row[x].to_f64();

            // Inner-boundary membership, decided on the spot: a pixel is
            // boundary iff a 4-neighbour is outside the image or outside the
            // component (the `inner_boundary` convention of metaseg-imgproc).
            let is_boundary = x == 0
                || row[x - 1] != segment
                || x + 1 == width
                || row[x + 1] != segment
                || above.is_none_or(|r| r[x] != segment)
                || below.is_none_or(|r| r[x] != segment);
            let zone = if is_boundary {
                acc.boundary_len += 1;
                &mut acc.sum_boundary
            } else {
                &mut acc.sum_interior
            };
            zone[0] += entropy_row[x].to_f64();
            zone[1] += margin_row[x].to_f64();
            zone[2] += variation_row[x].to_f64();

            // Ground-truth overlap counting for the IoU target, as
            // run-length entries (consecutive pixels usually share both the
            // predicted and the ground-truth segment).
            if let (Some(gt_id_row), Some(gt_label_row)) = (gt_id_row, gt_label_row) {
                let gt_class = gt_id_row[x];
                if gt_class != void_id {
                    acc.non_void += 1;
                }
                if gt_class == regions[segment].class_id {
                    let pred = segment as u32;
                    let gt = gt_label_row[x] as u32;
                    match state.overlaps.last_mut() {
                        Some(run) if run.pred == pred && run.gt == gt => run.count += 1,
                        _ => state.overlaps.push(OverlapRun { pred, gt, count: 1 }),
                    }
                }
            }
        }
    }
}

/// A batch of frames whose segment metrics are extracted in parallel.
///
/// The batch borrows its frames, so building one is free; every extraction
/// method fans out across frames via `rayon` and returns results in frame
/// order. Each worker thread reuses its thread-local [`ExtractionScratch`]
/// across the frames of its chunk, so per-frame scratch allocations amortise
/// away inside a batch as well.
#[derive(Debug, Clone, Copy)]
pub struct FrameBatch<'a> {
    frames: &'a [Frame],
    config: MetricsConfig,
}

impl<'a> FrameBatch<'a> {
    /// A batch over `frames` with the default metric configuration.
    pub fn new(frames: &'a [Frame]) -> Self {
        Self::with_config(frames, MetricsConfig::default())
    }

    /// A batch over `frames` with an explicit metric configuration.
    pub fn with_config(frames: &'a [Frame], config: MetricsConfig) -> Self {
        Self { frames, config }
    }

    /// The metric configuration of the batch.
    pub fn config(&self) -> &MetricsConfig {
        &self.config
    }

    /// The frames of the batch.
    pub fn frames(&self) -> &'a [Frame] {
        self.frames
    }

    /// Number of frames in the batch.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Per-frame segment records (frame order preserved), extracted in
    /// parallel. Unlabelled frames yield records with `iou = None`.
    pub fn segment_records(&self) -> Vec<Vec<SegmentRecord>> {
        let config = self.config;
        self.map_frames(move |frame| {
            frame_metrics(&frame.prediction, frame.ground_truth.as_ref(), &config)
        })
    }

    /// Flattened records of labelled frames that carry an IoU target — the
    /// structured dataset rows of the paper's Section II.
    pub fn labeled_records(&self) -> Vec<SegmentRecord> {
        let config = self.config;
        self.map_frames(move |frame| match frame.ground_truth.as_ref() {
            Some(gt) => frame_metrics(&frame.prediction, Some(gt), &config),
            None => Vec::new(),
        })
        .into_iter()
        .flatten()
        .filter(|record| record.iou.is_some())
        .collect()
    }

    /// Applies `f` to every frame in parallel, preserving frame order — the
    /// generic per-frame primitive the extraction methods (and batched /
    /// streamed ingestion) are built on.
    pub fn map_frames<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&'a Frame) -> R + Sync,
    {
        self.frames.par_iter().map(f).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::METRIC_COUNT;
    use metaseg_data::FrameId;
    use metaseg_sim::{NetworkProfile, NetworkSim, Scene, SceneConfig};
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn simulated_frames(count: usize, seed: u64, profile: NetworkProfile) -> Vec<Frame> {
        let mut rng = StdRng::seed_from_u64(seed);
        let sim = NetworkSim::new(profile);
        (0..count)
            .map(|i| {
                let scene = Scene::generate(&SceneConfig::small(), &mut rng);
                let gt = scene.render();
                let probs = sim.predict(&gt, &mut rng);
                Frame::labeled(FrameId::new(0, i), gt, probs).unwrap()
            })
            .collect()
    }

    /// Maximum relative deviation between two metric vectors.
    fn max_relative_error(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs() / x.abs().max(y.abs()).max(1.0))
            .fold(0.0, f64::max)
    }

    #[test]
    fn batch_matches_per_frame_extraction() {
        let frames = simulated_frames(4, 9, NetworkProfile::weak());
        let batch = FrameBatch::new(&frames);
        assert_eq!(batch.len(), 4);
        assert!(!batch.is_empty());
        let per_frame = batch.segment_records();
        assert_eq!(per_frame.len(), frames.len());
        for (frame, records) in frames.iter().zip(&per_frame) {
            let direct = frame_metrics(
                &frame.prediction,
                frame.ground_truth.as_ref(),
                batch.config(),
            );
            assert_eq!(records, &direct);
        }
    }

    #[test]
    fn labeled_records_filter_targets() {
        let mut frames = simulated_frames(2, 10, NetworkProfile::weak());
        frames.push(Frame::unlabeled(
            FrameId::new(1, 0),
            frames[0].prediction.clone(),
        ));
        let batch = FrameBatch::new(&frames);
        let labeled = batch.labeled_records();
        assert!(!labeled.is_empty());
        assert!(labeled.iter().all(|r| r.iou.is_some()));
        // The unlabelled frame contributes nothing.
        let labeled_only = FrameBatch::new(&frames[..2]).labeled_records();
        assert_eq!(labeled.len(), labeled_only.len());
    }

    #[test]
    fn accumulator_merge_is_addition() {
        let mut left = SegmentAccumulator {
            sum_interior: [1.0, 2.0, 3.0],
            sum_boundary: [0.1, 0.2, 0.3],
            boundary_len: 2,
            ..SegmentAccumulator::default()
        };
        let right = SegmentAccumulator {
            sum_interior: [0.5, 0.5, 0.5],
            sum_boundary: [0.4, 0.3, 0.2],
            boundary_len: 1,
            non_void: 4,
            ..SegmentAccumulator::default()
        };
        left.merge(&right);
        assert_eq!(left.sum_interior, [1.5, 2.5, 3.5]);
        assert_eq!(left.sum_boundary, [0.5, 0.5, 0.5]);
        assert_eq!(left.boundary_len, 3);
        assert_eq!(left.non_void, 4);
    }

    /// Appends every field of every record — floats as raw bits — to `out`.
    fn record_bits(records: &[SegmentRecord], out: &mut Vec<u8>) {
        out.extend_from_slice(&(records.len() as u64).to_le_bytes());
        for r in records {
            out.extend_from_slice(&(r.region_id as u64).to_le_bytes());
            out.extend_from_slice(&r.class.id().to_le_bytes());
            out.extend_from_slice(&(r.area as u64).to_le_bytes());
            out.extend_from_slice(&(r.boundary_length as u64).to_le_bytes());
            out.extend_from_slice(&r.centroid.0.to_bits().to_le_bytes());
            out.extend_from_slice(&r.centroid.1.to_bits().to_le_bytes());
            out.extend_from_slice(&(r.metrics.len() as u64).to_le_bytes());
            for m in &r.metrics {
                out.extend_from_slice(&m.to_bits().to_le_bytes());
            }
            match r.iou {
                Some(iou) => {
                    out.push(1);
                    out.extend_from_slice(&iou.to_bits().to_le_bytes());
                }
                None => out.push(0),
            }
        }
    }

    /// The serial kernel is pinned *bit for bit* — every float of every
    /// record, centroids and IoU targets included — by a CRC-32 digest of
    /// the records' raw bits over seeded frames with and without ground
    /// truth. The serial kernel and the pre-fusion single-pass kernel it
    /// replaced both produced exactly this digest. The golden corpus
    /// extracts without ground truth, so this is the exact pin on the IoU
    /// targets.
    #[test]
    fn serial_kernel_matches_committed_digest() {
        let frames = simulated_frames(3, 77, NetworkProfile::weak());
        let config = MetricsConfig::default();
        let mut scratch = ExtractionScratch::new();
        let mut bits = Vec::new();
        for frame in &frames {
            for gt in [frame.ground_truth.as_ref(), None] {
                let records = frame_metrics_banded(&frame.prediction, gt, &config, &mut scratch, 1);
                record_bits(&records, &mut bits);
            }
        }
        assert_eq!(bits.len(), 145_236);
        assert_eq!(metaseg_data::crc32(&bits), 0x8bd2_bb31);
    }

    /// One scratch serving frames of different shapes produces records
    /// identical to fresh-scratch extraction — stale scratch state never
    /// leaks between frames — and its buffers stop growing once every shape
    /// has been seen (the zero-allocation steady state).
    #[test]
    fn scratch_reuse_across_shapes_matches_fresh_scratch() {
        let config = MetricsConfig::default();
        let mut rng = StdRng::seed_from_u64(33);
        let sim = NetworkSim::new(NetworkProfile::weak());
        let shapes = [SceneConfig::small(), SceneConfig::cityscapes_like()];
        let frames: Vec<Frame> = (0..6)
            .map(|i| {
                let scene = Scene::generate(&shapes[i % 2], &mut rng);
                let gt = scene.render();
                let probs = sim.predict(&gt, &mut rng);
                Frame::labeled(FrameId::new(0, i), gt, probs).unwrap()
            })
            .collect();

        let mut shared = ExtractionScratch::new();
        let mut first_pass = Vec::new();
        for frame in &frames {
            let gt = frame.ground_truth.as_ref();
            let records = extract_frame(&frame.prediction, gt, &config, &mut shared).1;
            let fresh = extract_frame(
                &frame.prediction,
                gt,
                &config,
                &mut ExtractionScratch::new(),
            )
            .1;
            assert_eq!(records, fresh, "reused scratch must not leak state");
            first_pass.push(records);
        }
        // Steady state: replaying the same clip re-produces the records
        // without growing any buffer.
        let stats_after_first_pass = shared.stats();
        for (frame, expected) in frames.iter().zip(&first_pass) {
            let gt = frame.ground_truth.as_ref();
            let records = extract_frame(&frame.prediction, gt, &config, &mut shared).1;
            assert_eq!(&records, expected);
        }
        assert_eq!(
            shared.stats(),
            stats_after_first_pass,
            "steady-state frames must not allocate scratch"
        );
    }

    /// Runs [`scan_band_tiled`] over the band of `len` pixels starting at
    /// pixel `offset` and checks every pixel against
    /// [`DistributionScanF32::of`] of its `to_f32` values followed by the
    /// kernel's entropy normalisation and clamp — bit for bit (any NaN
    /// matches any NaN).
    fn assert_tiled_scan_matches_per_pixel<V: ProbValue<Plane = f32>>(
        values: &[V],
        channels: usize,
        offset: usize,
        len: usize,
    ) {
        use metaseg_data::DistributionScanF32;
        let (mut entropy, mut margin, mut variation, mut top1) = (
            vec![0f32; len],
            vec![0f32; len],
            vec![0f32; len],
            vec![0f32; len],
        );
        let mut argmax = vec![0u16; len];
        let mut tile = Vec::new();
        let mut part = ScanPart {
            offset,
            entropy: &mut entropy,
            margin: &mut margin,
            variation: &mut variation,
            top1: &mut top1,
            argmax: &mut argmax,
            tile: &mut tile,
        };
        scan_band_tiled(values, channels, &mut part, true);
        let inv_ln_n = 1.0 / (channels as f32).ln();
        let same = |a: f32, b: f32| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
        for i in 0..len {
            let dist: Vec<f32> = values[(offset + i) * channels..][..channels]
                .iter()
                .map(|v| v.to_f32())
                .collect();
            let scan = DistributionScanF32::of(&dist);
            let expected = [
                (scan.raw_entropy * inv_ln_n).clamp(0.0, 1.0),
                scan.margin(),
                scan.variation_ratio(),
                scan.top1,
            ];
            let got = [entropy[i], margin[i], variation[i], top1[i]];
            assert!(
                got.iter().zip(expected).all(|(&g, e)| same(g, e)),
                "pixel {i}, {channels} channels: tiled {got:?} vs per-pixel {expected:?}"
            );
            assert_eq!(argmax[i], scan.argmax as u16, "pixel {i} argmax");
        }
    }

    /// The tiled f32 scan equals the per-pixel reference scan on every
    /// pixel, for `f32` and in-place quantized sources, with a NaN stripe
    /// (plus an infinity and an all-zero pixel), one-channel frames, and a
    /// band that starts mid-frame and spans two full tiles plus a ragged
    /// tail.
    #[test]
    fn tiled_scan_matches_per_pixel_distribution_scan() {
        let mut rng = StdRng::seed_from_u64(6060);
        let pixels = 2 * TILE_LANES + 90;
        let (offset, len) = (13, 2 * TILE_LANES + 71);
        assert_ne!(len % TILE_LANES, 0);
        for channels in [1usize, 2, 19] {
            let mut values: Vec<f32> = (0..pixels * channels)
                .map(|_| rng.gen::<f64>() as f32)
                .collect();
            values[40 * channels..60 * channels].fill(f32::NAN);
            values[70 * channels] = f32::INFINITY;
            values[80 * channels..81 * channels].fill(0.0);
            assert_tiled_scan_matches_per_pixel(&values, channels, offset, len);

            let quantized: Vec<[u8; 2]> = (0..pixels * channels)
                .map(|_| (rng.gen::<u32>() as u16).to_le_bytes())
                .collect();
            assert_tiled_scan_matches_per_pixel(&quantized, channels, offset, len);
        }
    }

    /// The f32 fast path stays within the documented tolerance of the exact
    /// f64 path on seeded scenes: every metric within 1e-4 (absolute or
    /// relative, whichever is larger), geometry and IoU targets exact.
    #[test]
    fn f32_fast_path_tracks_the_f64_path_within_tolerance() {
        use metaseg_data::{ProbEncoding, ProbPayload};
        let frames = simulated_frames(3, 505, NetworkProfile::weak());
        let config = MetricsConfig::default();
        let mut scratch = ExtractionScratch::new();
        for frame in &frames {
            let payload = ProbPayload::encode(&frame.prediction, ProbEncoding::F64);
            let gt = frame.ground_truth.as_ref();
            let exact = extract_frame_payload(
                &payload,
                gt,
                &config,
                &mut scratch,
                DispersionPrecision::F64,
            )
            .unwrap()
            .1;
            let fast = extract_frame_payload(
                &payload,
                gt,
                &config,
                &mut scratch,
                DispersionPrecision::F32,
            )
            .unwrap()
            .1;
            assert_eq!(fast.len(), exact.len());
            for (f, e) in fast.iter().zip(&exact) {
                assert_eq!(f.region_id, e.region_id);
                assert_eq!(f.class, e.class);
                assert_eq!(f.area, e.area);
                assert_eq!(f.boundary_length, e.boundary_length);
                assert_eq!(f.iou, e.iou, "IoU is integer arithmetic on argmax");
                let error = max_relative_error(&f.metrics, &e.metrics);
                assert!(error <= 1e-4, "f32 deviation {error} exceeds 1e-4");
            }
        }
    }

    /// The quantized in-place fast path is bit-identical to dequantizing
    /// the wire values into an `f32` plane first and scanning that: same
    /// dequantization formula per value, the staging plane just never
    /// exists.
    #[test]
    fn quantized_direct_path_matches_f32_plane_bit_exactly() {
        use metaseg_data::{ProbEncoding, ProbPayload};
        let frames = simulated_frames(2, 907, NetworkProfile::weak());
        let config = MetricsConfig::default();
        let mut scratch = ExtractionScratch::new();
        for frame in &frames {
            let quantized = ProbPayload::encode(&frame.prediction, ProbEncoding::U16);
            // An f32-encoded payload of the dequantized wire values: its
            // ingest plane holds exactly the floats the direct path
            // produces in-register.
            let mut dequantized = Vec::new();
            quantized.decode_values_into_f32(&mut dequantized).unwrap();
            let plane = ProbPayload {
                width: quantized.width,
                height: quantized.height,
                channels: quantized.channels,
                encoding: ProbEncoding::F32,
                bytes: dequantized.iter().flat_map(|v| v.to_le_bytes()).collect(),
            };
            let gt = frame.ground_truth.as_ref();
            let f32_path = DispersionPrecision::F32;
            let direct = extract_frame_payload(&quantized, gt, &config, &mut scratch, f32_path)
                .unwrap()
                .1;
            let via_plane = extract_frame_payload(&plane, gt, &config, &mut scratch, f32_path)
                .unwrap()
                .1;
            assert_eq!(direct, via_plane, "quantized routes diverge");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        /// Direct-to-scratch payload ingestion at f64 precision is
        /// bit-identical to decode-via-`ProbMap` + [`extract_frame`]
        /// for every wire encoding — the zero-copy path changes nothing but
        /// the allocation profile.
        #[test]
        fn prop_payload_ingest_matches_decode_via_probmap_bit_exactly(
            seed in 0u64..300,
            tag in 0u8..3
        ) {
            use metaseg_data::{ProbEncoding, ProbPayload};
            let mut rng = StdRng::seed_from_u64(seed ^ 0xf00d);
            let scene = Scene::generate(&SceneConfig::small(), &mut rng);
            let gt = scene.render();
            let probs = NetworkSim::new(NetworkProfile::weak()).predict(&gt, &mut rng);
            let config = MetricsConfig::default();
            let encoding = ProbEncoding::from_tag(tag).unwrap();
            let payload = ProbPayload::encode(&probs, encoding);

            let mut scratch = ExtractionScratch::new();
            let direct = extract_frame_payload(
                &payload, Some(&gt), &config, &mut scratch, DispersionPrecision::F64,
            ).unwrap().1;
            let via_map = extract_frame(
                &payload.decode().unwrap(), Some(&gt), &config, &mut scratch,
            ).1;
            prop_assert_eq!(direct, via_map);
        }
    }

    #[test]
    fn payload_entry_points_surface_codec_errors() {
        use metaseg_data::{ProbEncoding, ProbPayload};
        let frames = simulated_frames(1, 11, NetworkProfile::weak());
        let config = MetricsConfig::default();
        let mut truncated = ProbPayload::encode(&frames[0].prediction, ProbEncoding::U16);
        truncated.bytes.pop();
        // A hand-built shape whose pixel count overflows `usize`: rejected
        // as a typed error before anything multiplies the shape out.
        let overflowing = ProbPayload {
            width: usize::MAX,
            height: 2,
            channels: 19,
            encoding: ProbEncoding::U16,
            bytes: vec![0; 64],
        };
        let mut scratch = ExtractionScratch::new();
        for payload in [&truncated, &overflowing] {
            for precision in [DispersionPrecision::F64, DispersionPrecision::F32] {
                assert!(
                    extract_frame_payload(payload, None, &config, &mut scratch, precision).is_err(),
                    "{}x{} payload at {precision} must be rejected",
                    payload.width,
                    payload.height
                );
            }
        }
        // The scratch stays usable after a rejected payload.
        let records = extract_frame(&frames[0].prediction, None, &config, &mut scratch).1;
        assert_eq!(records, frame_metrics(&frames[0].prediction, None, &config));
    }

    #[test]
    fn dispersion_precision_spellings_roundtrip() {
        for precision in [DispersionPrecision::F64, DispersionPrecision::F32] {
            assert_eq!(
                DispersionPrecision::from_name(precision.as_str()),
                Some(precision)
            );
            assert_eq!(precision.to_string(), precision.as_str());
        }
        assert_eq!(DispersionPrecision::from_name("f16"), None);
        assert_eq!(DispersionPrecision::default(), DispersionPrecision::F64);
    }

    #[test]
    fn extract_frame_shares_the_labelling() {
        let frames = simulated_frames(1, 21, NetworkProfile::weak());
        let config = MetricsConfig::default();
        let mut scratch = ExtractionScratch::new();
        let (components, records) =
            extract_frame(&frames[0].prediction, None, &config, &mut scratch);
        let expected_components = frames[0]
            .prediction
            .argmax_map()
            .segments(config.connectivity);
        assert_eq!(components, &expected_components);
        let expected_records = frame_metrics(&frames[0].prediction, None, &config);
        assert_eq!(records, expected_records);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// The single-pass pipeline is numerically identical (within 1e-12
        /// relative error) to the retained naive reference implementation on
        /// seeded random scenes — per segment, per metric, including the IoU
        /// targets and geometry counts.
        #[test]
        fn prop_single_pass_matches_naive_reference(seed in 0u64..500, weak in any::<bool>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let scene = Scene::generate(&SceneConfig::small(), &mut rng);
            let gt = scene.render();
            let profile = if weak { NetworkProfile::weak() } else { NetworkProfile::strong() };
            let probs = NetworkSim::new(profile).predict(&gt, &mut rng);
            let config = MetricsConfig::default();

            let fast = frame_metrics(&probs, Some(&gt), &config);
            let naive = reference::naive_segment_metrics(&probs, Some(&gt), &config);

            prop_assert_eq!(fast.len(), naive.len());
            for (f, n) in fast.iter().zip(&naive) {
                prop_assert_eq!(f.region_id, n.region_id);
                prop_assert_eq!(f.class, n.class);
                prop_assert_eq!(f.area, n.area);
                prop_assert_eq!(f.boundary_length, n.boundary_length);
                prop_assert_eq!(f.metrics.len(), METRIC_COUNT);
                let error = max_relative_error(&f.metrics, &n.metrics);
                prop_assert!(error <= 1e-12, "metric deviation {error} exceeds 1e-12");
                match (f.iou, n.iou) {
                    (Some(a), Some(b)) => prop_assert!((a - b).abs() <= 1e-12),
                    (None, None) => {}
                    other => prop_assert!(false, "IoU target mismatch: {other:?}"),
                }
            }
        }

        /// Without ground truth the single pass still matches the reference.
        #[test]
        fn prop_single_pass_matches_naive_without_gt(seed in 0u64..200) {
            let mut rng = StdRng::seed_from_u64(seed);
            let scene = Scene::generate(&SceneConfig::small(), &mut rng);
            let gt = scene.render();
            let probs = NetworkSim::new(NetworkProfile::weak()).predict(&gt, &mut rng);
            let config = MetricsConfig::default();
            let fast = frame_metrics(&probs, None, &config);
            let naive = reference::naive_segment_metrics(&probs, None, &config);
            prop_assert_eq!(fast.len(), naive.len());
            for (f, n) in fast.iter().zip(&naive) {
                prop_assert!(f.iou.is_none() && n.iou.is_none());
                prop_assert!(max_relative_error(&f.metrics, &n.metrics) <= 1e-12);
            }
        }

        /// Band-count invariance: extraction with 1, 2, 3 and 7 bands agrees
        /// within 1e-12 relative error per segment and metric — and exactly
        /// on areas, boundary lengths and IoU targets, whose underlying sums
        /// are integer arithmetic.
        #[test]
        fn prop_band_count_invariance(seed in 0u64..300, weak in any::<bool>()) {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xbad5);
            let scene = Scene::generate(&SceneConfig::small(), &mut rng);
            let gt = scene.render();
            let profile = if weak { NetworkProfile::weak() } else { NetworkProfile::strong() };
            let probs = NetworkSim::new(profile).predict(&gt, &mut rng);
            let config = MetricsConfig::default();
            let mut scratch = ExtractionScratch::new();

            let serial = frame_metrics_banded(&probs, Some(&gt), &config, &mut scratch, 1);
            for bands in [2usize, 3, 7] {
                let banded =
                    frame_metrics_banded(&probs, Some(&gt), &config, &mut scratch, bands);
                prop_assert_eq!(banded.len(), serial.len());
                for (b, s) in banded.iter().zip(&serial) {
                    prop_assert_eq!(b.region_id, s.region_id);
                    prop_assert_eq!(b.class, s.class);
                    // Exact: integer-backed geometry and IoU.
                    prop_assert_eq!(b.area, s.area);
                    prop_assert_eq!(b.boundary_length, s.boundary_length);
                    prop_assert_eq!(b.iou, s.iou);
                    prop_assert_eq!(b.centroid, s.centroid);
                    let error = max_relative_error(&b.metrics, &s.metrics);
                    prop_assert!(
                        error <= 1e-12,
                        "bands={bands}: metric deviation {error} exceeds 1e-12"
                    );
                }
            }
        }
    }

    /// A dense random softmax field of an arbitrary (possibly awkward)
    /// shape — strictly positive and normalised per pixel.
    fn random_probmap(width: usize, height: usize, channels: usize, seed: u64) -> ProbMap {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut map = ProbMap::uniform(width, height, channels);
        let mut dist = vec![0.0f64; channels];
        for y in 0..height {
            for x in 0..width {
                let mut sum = 0.0;
                for p in &mut dist {
                    *p = rng.gen::<f64>() + 1e-3;
                    sum += *p;
                }
                for p in &mut dist {
                    *p /= sum;
                }
                map.set_distribution_unchecked(x, y, &dist);
            }
        }
        map
    }

    /// Sensor-dropout regression: NaN (and all-zero) stripes are *defined
    /// degradation* — a dropout pixel reads as entropy `0`, margin `1`,
    /// variation ratio `1`, argmax channel `0` — and no NaN ever reaches a
    /// segment record, on the f64 scan, the zero-copy payload ingest, and
    /// the f32 tiled scan.
    #[test]
    fn nan_dropout_stripes_degrade_without_poisoning_records() {
        use metaseg_data::{ProbEncoding, ProbMap, ProbPayload};
        let config = MetricsConfig::default();
        let mut scratch = ExtractionScratch::new();

        // A fully dropped-out frame: one segment of channel 0 with the
        // pinned degraded measures.
        let channels = 8;
        let dead = {
            let mut map = ProbMap::uniform(24, 16, channels);
            let nan = vec![f64::NAN; channels];
            for y in 0..16 {
                for x in 0..24 {
                    map.set_distribution_unchecked(x, y, &nan);
                }
            }
            map
        };
        let records = frame_metrics(&dead, None, &config);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].class.id(), 0);
        // Metric layout: [entropy, margin, variation ratio] x [mean,
        // boundary, interior].
        assert_eq!(records[0].metrics[0], 0.0, "dropout entropy");
        assert_eq!(records[0].metrics[3], 1.0, "dropout margin");
        assert_eq!(records[0].metrics[6], 1.0, "dropout variation ratio");

        // A realistic frame with NaN stripes and one all-zero stripe.
        let frames = simulated_frames(1, 4242, NetworkProfile::weak());
        let gt = frames[0].ground_truth.as_ref();
        let mut probs = frames[0].prediction.clone();
        let channels = probs.num_classes();
        let nan = vec![f64::NAN; channels];
        let zero = vec![0.0f64; channels];
        for y in [3usize, 4, 9] {
            for x in 0..probs.width() {
                probs.set_distribution_unchecked(x, y, &nan);
            }
        }
        for x in 0..probs.width() {
            probs.set_distribution_unchecked(x, 7, &zero);
        }

        let f64_records = frame_metrics(&probs, gt, &config);
        assert!(!f64_records.is_empty());
        for record in &f64_records {
            assert!(
                record.metrics.iter().all(|m| m.is_finite()),
                "NaN leaked into a record: {record:?}"
            );
        }
        // Zero-copy f64 payload ingest sees the same bytes, bit-exactly.
        let payload = ProbPayload::encode(&probs, ProbEncoding::F64);
        let ingested = extract_frame_payload(
            &payload,
            gt,
            &config,
            &mut scratch,
            DispersionPrecision::F64,
        )
        .unwrap()
        .1;
        assert_eq!(ingested, f64_records);

        // The f32 tiled scan sanitises the stripes the same way.
        let payload32 = ProbPayload::encode(&probs, ProbEncoding::F32);
        let tiled = extract_frame_payload(
            &payload32,
            gt,
            &config,
            &mut scratch,
            DispersionPrecision::F32,
        )
        .unwrap()
        .1;
        assert!(!tiled.is_empty());
        for record in &tiled {
            assert!(record.metrics.iter().all(|m| m.is_finite()));
        }
    }

    /// The f32 tiled scan agrees with the f64 reference within `1e-4`
    /// relative error at awkward shapes: pixel counts that are not a
    /// multiple of [`TILE_LANES`], frames one pixel wide and one row tall,
    /// and a frame exactly one tile long.
    #[test]
    fn f32_tiled_scan_matches_f64_at_awkward_shapes() {
        use metaseg_data::{ProbEncoding, ProbPayload};
        let config = MetricsConfig::default();
        let mut scratch = ExtractionScratch::new();
        let shapes = [
            (1usize, 37usize), // one pixel wide
            (41, 1),           // one row, partial tile
            (TILE_LANES, 1),   // exactly one tile
            (TILE_LANES + 1, 1),
            (19, 23), // prime sides, 437 px = 1 tile + 181 lanes
            (3, 5),   // tiny frame, far below one tile
        ];
        for (i, &(width, height)) in shapes.iter().enumerate() {
            let probs = random_probmap(width, height, 12, 8800 + i as u64);
            let payload = ProbPayload::encode(&probs, ProbEncoding::F32);
            let tiled = extract_frame_payload(
                &payload,
                None,
                &config,
                &mut scratch,
                DispersionPrecision::F32,
            )
            .unwrap()
            .1;
            let reference = frame_metrics(&probs, None, &config);
            assert_eq!(tiled.len(), reference.len(), "{width}x{height}");
            for (t, r) in tiled.iter().zip(&reference) {
                assert_eq!(t.region_id, r.region_id);
                assert_eq!(t.class, r.class);
                assert_eq!(t.area, r.area);
                assert_eq!(t.boundary_length, r.boundary_length);
                let error = max_relative_error(&t.metrics, &r.metrics);
                assert!(
                    error <= 1e-4,
                    "{width}x{height}: f32 tiled deviates {error} from f64"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// [`auto_band_count`] invariants: at least one band, never more
        /// than [`MAX_BANDS`], the worker-thread count or the row count,
        /// exactly one band below the serial threshold, and monotone
        /// (non-decreasing) in the pixel count.
        #[test]
        fn prop_auto_band_count_bounds(
            pixels in 0usize..32_000_000,
            rows in 1usize..4096,
        ) {
            let bands = auto_band_count(pixels, rows);
            prop_assert!(bands >= 1);
            prop_assert!(bands <= MAX_BANDS);
            prop_assert!(bands <= worker_threads().max(1));
            prop_assert!(bands <= rows);
            if pixels < MIN_BAND_PIXELS {
                prop_assert_eq!(bands, 1, "below the serial threshold");
            }
            let more = auto_band_count(pixels.saturating_add(MIN_BAND_PIXELS), rows);
            prop_assert!(more >= bands, "band count must be monotone in pixels");
        }
    }
}

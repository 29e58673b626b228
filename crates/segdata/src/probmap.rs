//! Dense per-pixel softmax probability fields.

use crate::catalog::SemanticClass;
use crate::error::DataError;
use crate::labelmap::LabelMap;
use metaseg_imgproc::Grid;
use serde::{Deserialize, Serialize};

/// Tolerance when validating that probability vectors sum to one.
const DISTRIBUTION_TOLERANCE: f64 = 1e-6;

/// Everything the extraction kernel needs from one pixel's softmax
/// distribution, computed in a single fused scan of the channel axis.
///
/// The scan visits each probability exactly once and derives the argmax
/// channel, the two largest values and the un-normalised Shannon entropy
/// simultaneously. [`ProbMap::argmax_channel`], [`ProbMap::top2`] and the
/// dispersion accessors are all routed through it, so there is exactly one
/// definition of the tie-breaking ("first maximum wins") and of the entropy
/// summation order in the codebase — and the hot extraction kernel reads
/// each pixel's channel vector once instead of re-walking it per measure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistributionScan {
    /// Channel of the largest probability; ties resolve to the lowest
    /// channel index (the first maximum encountered wins).
    pub argmax: usize,
    /// Largest probability.
    pub top1: f64,
    /// Second largest probability (`0.0` for single-channel distributions).
    pub top2: f64,
    /// Un-normalised entropy `Σ -p ln p` over the positive entries, summed
    /// in channel order.
    pub raw_entropy: f64,
}

impl DistributionScan {
    /// Scans a probability vector once.
    ///
    /// The float operations and their order are bit-identical to the
    /// historical per-measure accessors: entropy terms accumulate in
    /// channel order over entries `> 0` (an entry of exactly `1.0`
    /// contributes `-0.0`, which never changes the sum and is skipped), and
    /// the top-2 search keeps the first maximum, matching `argmax`.
    ///
    /// Non-finite channel values (the NaN stripes a dropped-out sensor
    /// produces) are treated as probability `0.0`, so a dropout pixel
    /// degrades to the defined all-zero-stripe measures — entropy `0`,
    /// margin `1`, variation ratio `1`, argmax channel `0` — instead of
    /// propagating NaN into segment means. Well-formed inputs take the
    /// identity branch of the sanitiser, keeping the scan bit-identical.
    #[inline]
    pub fn of(dist: &[f64]) -> Self {
        let mut argmax = 0usize;
        let mut first = f64::NEG_INFINITY;
        let mut second = f64::NEG_INFINITY;
        let mut raw_entropy = 0.0f64;
        // Softmax fields are value-sparse: most channels of a pixel share a
        // handful of distinct probabilities (a flat "noise floor" plus a few
        // peaks — and lossy wire encodings quantise onto a shared grid). A
        // two-entry memo keyed on the exact bit pattern reuses the entropy
        // term of repeated values; `ln` is deterministic per bit pattern, so
        // the accumulated sum is bit-identical to recomputing every term.
        let mut memo_bits = [u64::MAX; 2];
        let mut memo_term = [0.0f64; 2];
        for (channel, &p) in dist.iter().enumerate() {
            // Compare-and-select, not a branch: NaN/±∞ become 0.0 so a
            // dropout stripe cannot leave ±∞ sentinels in the top-2 search
            // or a NaN term in the entropy sum.
            let p = if p.is_finite() { p } else { 0.0 };
            if p > 0.0 && p != 1.0 {
                let bits = p.to_bits();
                let term = if memo_bits[0] == bits {
                    memo_term[0]
                } else if memo_bits[1] == bits {
                    // Promote: keep the two most recent distinct values.
                    memo_bits.swap(0, 1);
                    memo_term.swap(0, 1);
                    memo_term[0]
                } else {
                    let term = -p * p.ln();
                    memo_bits[1] = memo_bits[0];
                    memo_term[1] = memo_term[0];
                    memo_bits[0] = bits;
                    memo_term[0] = term;
                    term
                };
                raw_entropy += term;
            }
            if p > first {
                second = first;
                first = p;
                argmax = channel;
            } else if p > second {
                second = p;
            }
        }
        if dist.len() == 1 {
            second = 0.0;
        }
        Self {
            argmax,
            top1: first,
            top2: second,
            raw_entropy,
        }
    }

    /// Normalised Shannon entropy `E_z ∈ [0, 1]` for a `num_classes`-way
    /// distribution.
    #[inline]
    pub fn entropy(&self, num_classes: usize) -> f64 {
        (self.raw_entropy / (num_classes as f64).ln()).clamp(0.0, 1.0)
    }

    /// Probability margin `D_z = 1 - (p_(1) - p_(2)) ∈ [0, 1]`.
    #[inline]
    pub fn margin(&self) -> f64 {
        (1.0 - (self.top1 - self.top2)).clamp(0.0, 1.0)
    }

    /// Variation ratio `V_z = 1 - p_(1) ∈ [0, 1]`.
    #[inline]
    pub fn variation_ratio(&self) -> f64 {
        (1.0 - self.top1).clamp(0.0, 1.0)
    }
}

/// Fast natural logarithm for non-negative finite `f32` inputs.
///
/// Splits the float into exponent and mantissa by bit manipulation, folds
/// mantissas above `√2` down one octave, and evaluates the odd atanh series
/// `ln m = 2 atanh((m-1)/(m+1))` truncated after the `z⁷` term; absolute
/// error stays below `~1e-6` over the unit interval (dominated by the
/// `exponent · ln 2` rounding at tiny inputs), and the entropy term
/// `p · ln p` the dispersion scan derives from it stays within `~1e-7` of
/// libm. `+0.0` maps to a large
/// *finite* negative value (`≈ -88`), so `p * fast_ln_positive_f32(p)`
/// vanishes at `p = 0` without a branch — the property the branch-free f32
/// dispersion scan relies on. Negative, infinite or NaN inputs yield
/// unspecified finite-or-NaN garbage; callers clamp derived measures.
#[inline]
pub fn fast_ln_positive_f32(x: f32) -> f32 {
    let bits = x.to_bits();
    let mut exponent = ((bits >> 23) as i32) - 127;
    let mut mantissa = f32::from_bits((bits & 0x007f_ffff) | 0x3f80_0000);
    // Fold m ∈ (√2, 2) to m/2 so the series argument z = (m-1)/(m+1) stays
    // within |z| ≤ 0.172 (truncation error ≤ 2/9 · z⁹ ≈ 3e-8).
    if mantissa > std::f32::consts::SQRT_2 {
        mantissa *= 0.5;
        exponent += 1;
    }
    let z = (mantissa - 1.0) / (mantissa + 1.0);
    let z2 = z * z;
    let series = z * (2.0 + z2 * (2.0 / 3.0 + z2 * (2.0 / 5.0 + z2 * (2.0 / 7.0))));
    exponent as f32 * std::f32::consts::LN_2 + series
}

/// Single-precision counterpart of [`DistributionScan`] — the per-pixel
/// definition of the opt-in f32 dispersion fast path. The extraction
/// kernel's tiled scan runs the same operation sequence across many pixels
/// at once and is tested against this scan pixel by pixel.
///
/// Unlike the f64 scan, whose entropy memo and comparison chain exist for
/// bit-exact compatibility with the historical kernel, this scan is written
/// branch-free so the compiler can vectorise it: the entropy term uses
/// [`fast_ln_positive_f32`] unconditionally (zero probabilities contribute
/// `-0.0`), and the top-2 search is a pair of min/max updates. Results track
/// the f64 scan within the documented `~1e-5` absolute error of the fast
/// logarithm; tie-breaking ("first maximum wins") is identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistributionScanF32 {
    /// Channel of the largest probability; ties resolve to the lowest
    /// channel index (the first maximum encountered wins).
    pub argmax: usize,
    /// Largest probability.
    pub top1: f32,
    /// Second largest probability (`0.0` for single-channel distributions).
    pub top2: f32,
    /// Un-normalised entropy `Σ -p ln p`, summed in channel order with the
    /// fast logarithm.
    pub raw_entropy: f32,
}

impl DistributionScanF32 {
    /// Scans a probability vector once, branch-free.
    ///
    /// Non-finite channel values degrade to probability `0.0`, mirroring
    /// [`DistributionScan::of`]: a dropout pixel yields the defined
    /// all-zero-stripe measures rather than a NaN that would poison every
    /// segment mean it is folded into.
    #[inline]
    pub fn of(dist: &[f32]) -> Self {
        let mut argmax = 0usize;
        let mut first = f32::NEG_INFINITY;
        let mut second = f32::NEG_INFINITY;
        let mut raw_entropy = 0.0f32;
        for (channel, &p) in dist.iter().enumerate() {
            // Compare-and-select dropout sanitiser; identity on well-formed
            // input, so the scan stays vectorisable and bit-stable.
            let p = if p.is_finite() { p } else { 0.0 };
            // fast_ln(0) is finite, so the p = 0 term is -0.0 — no branch.
            raw_entropy -= p * fast_ln_positive_f32(p);
            let prev = first;
            first = prev.max(p);
            second = second.max(p.min(prev));
            if p > prev {
                argmax = channel;
            }
        }
        if dist.len() == 1 {
            second = 0.0;
        }
        Self {
            argmax,
            top1: first,
            top2: second,
            raw_entropy,
        }
    }

    /// Normalised Shannon entropy `E_z ∈ [0, 1]` for a `num_classes`-way
    /// distribution.
    #[inline]
    pub fn entropy(&self, num_classes: usize) -> f32 {
        (self.raw_entropy / (num_classes as f32).ln()).clamp(0.0, 1.0)
    }

    /// Probability margin `D_z = 1 - (p_(1) - p_(2)) ∈ [0, 1]`.
    #[inline]
    pub fn margin(&self) -> f32 {
        (1.0 - (self.top1 - self.top2)).clamp(0.0, 1.0)
    }

    /// Variation ratio `V_z = 1 - p_(1) ∈ [0, 1]`.
    #[inline]
    pub fn variation_ratio(&self) -> f32 {
        (1.0 - self.top1).clamp(0.0, 1.0)
    }
}

/// A dense per-pixel softmax field `f_z(y | x, w)`.
///
/// For every pixel `z` the map stores one probability per *evaluated*
/// semantic class (void has no channel), in class-id order. This is the only
/// thing MetaSeg ever needs from the segmentation network.
///
/// ```
/// use metaseg_data::{ProbMap, SemanticClass};
///
/// let num_classes = 19;
/// let mut probs = ProbMap::uniform(4, 2, num_classes);
/// assert!((probs.prob_at(0, 0, SemanticClass::Road) - 1.0 / 19.0).abs() < 1e-12);
/// let onehot: Vec<f64> = (0..19).map(|i| if i == 13 { 1.0 } else { 0.0 }).collect();
/// probs.set_distribution(1, 1, &onehot).unwrap();
/// assert_eq!(probs.argmax_class(1, 1), SemanticClass::Car);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProbMap {
    width: usize,
    height: usize,
    num_classes: usize,
    /// Row-major, pixel-major storage: `data[(y * width + x) * num_classes + c]`.
    data: Vec<f64>,
}

impl ProbMap {
    /// Creates a field where every pixel carries the uniform distribution.
    ///
    /// # Panics
    ///
    /// Panics if any dimension or the class count is zero.
    pub fn uniform(width: usize, height: usize, num_classes: usize) -> Self {
        assert!(
            width > 0 && height > 0 && num_classes > 0,
            "dimensions and class count must be non-zero"
        );
        Self {
            width,
            height,
            num_classes,
            data: vec![1.0 / num_classes as f64; width * height * num_classes],
        }
    }

    /// Creates a field that puts probability one on the class of `labels` at
    /// every pixel (void pixels get a uniform distribution). Useful for
    /// turning a hard prediction into a degenerate softmax field.
    pub fn one_hot(labels: &LabelMap, num_classes: usize) -> Self {
        let mut map = Self::uniform(labels.width(), labels.height(), num_classes);
        for y in 0..labels.height() {
            for x in 0..labels.width() {
                let class = labels.class_at(x, y);
                if !class.is_evaluated() {
                    continue;
                }
                let mut dist = vec![0.0; num_classes];
                dist[class.id() as usize] = 1.0;
                map.set_distribution_unchecked(x, y, &dist);
            }
        }
        map
    }

    /// Width of the field.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height of the field.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Shape as `(width, height)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// Number of softmax channels (evaluated classes).
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    #[inline]
    fn offset(&self, x: usize, y: usize) -> usize {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x}, {y}) out of bounds for {}x{} probability map",
            self.width,
            self.height
        );
        (y * self.width + x) * self.num_classes
    }

    /// The probability vector at pixel `(x, y)` (one entry per evaluated class).
    ///
    /// # Panics
    ///
    /// Panics if `(x, y)` is outside the field.
    pub fn distribution(&self, x: usize, y: usize) -> &[f64] {
        let off = self.offset(x, y);
        &self.data[off..off + self.num_classes]
    }

    /// Probability of `class` at pixel `(x, y)` (0 for void / out-of-range channels).
    ///
    /// # Panics
    ///
    /// Panics if `(x, y)` is outside the field.
    pub fn prob_at(&self, x: usize, y: usize, class: SemanticClass) -> f64 {
        let channel = class.id() as usize;
        if channel >= self.num_classes {
            return 0.0;
        }
        self.distribution(x, y)[channel]
    }

    /// Overwrites the probability vector at `(x, y)`.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::WrongClassCount`] if `probs` has the wrong length
    /// and [`DataError::NotADistribution`] if it has negative entries or does
    /// not sum to one within `1e-6`.
    pub fn set_distribution(&mut self, x: usize, y: usize, probs: &[f64]) -> Result<(), DataError> {
        if probs.len() != self.num_classes {
            return Err(DataError::WrongClassCount {
                expected: self.num_classes,
                found: probs.len(),
            });
        }
        let sum: f64 = probs.iter().sum();
        if probs.iter().any(|p| *p < 0.0) || (sum - 1.0).abs() > DISTRIBUTION_TOLERANCE {
            return Err(DataError::NotADistribution { sum });
        }
        self.set_distribution_unchecked(x, y, probs);
        Ok(())
    }

    /// Overwrites the probability vector at `(x, y)` without validation.
    ///
    /// # Panics
    ///
    /// Panics if `(x, y)` is outside the field or `probs` has the wrong length.
    pub fn set_distribution_unchecked(&mut self, x: usize, y: usize, probs: &[f64]) {
        assert_eq!(
            probs.len(),
            self.num_classes,
            "wrong number of class probabilities"
        );
        let off = self.offset(x, y);
        self.data[off..off + self.num_classes].copy_from_slice(probs);
    }

    /// Scans the distribution at `(x, y)` once, yielding argmax, top-2 and
    /// entropy simultaneously — the per-pixel primitive of the extraction
    /// kernel.
    ///
    /// # Panics
    ///
    /// Panics if `(x, y)` is outside the field.
    pub fn scan_at(&self, x: usize, y: usize) -> DistributionScan {
        DistributionScan::of(self.distribution(x, y))
    }

    /// Iterates the per-pixel probability vectors in storage (row-major,
    /// pixel-major) order. This is the linear access path of the fused
    /// extraction scan: no per-pixel offset arithmetic or bounds checks.
    pub fn distributions(&self) -> impl ExactSizeIterator<Item = &[f64]> {
        self.data.chunks_exact(self.num_classes)
    }

    /// The flat backing buffer in storage order
    /// (`data[(y * width + x) * num_classes + c]`).
    pub fn values(&self) -> &[f64] {
        &self.data
    }

    /// Index of the most probable channel at `(x, y)` (ties resolve to the
    /// lowest class id, matching `argmax`).
    pub fn argmax_channel(&self, x: usize, y: usize) -> usize {
        self.scan_at(x, y).argmax
    }

    /// The maximum a-posteriori (Bayes) class at `(x, y)`.
    pub fn argmax_class(&self, x: usize, y: usize) -> SemanticClass {
        SemanticClass::from_id(self.argmax_channel(x, y) as u16)
            .expect("channel index is a valid class id")
    }

    /// The Bayes/MAP predicted label map (`argmax` at every pixel).
    pub fn argmax_map(&self) -> LabelMap {
        LabelMap::from_fn(self.width, self.height, |x, y| self.argmax_class(x, y))
    }

    /// Largest and second largest probability at `(x, y)`.
    pub fn top2(&self, x: usize, y: usize) -> (f64, f64) {
        let scan = self.scan_at(x, y);
        (scan.top1, scan.top2)
    }

    /// Normalised Shannon entropy at `(x, y)`:
    /// `E_z = -1/log(q) * Σ_y f_z(y) log f_z(y)` ∈ [0, 1].
    pub fn entropy_at(&self, x: usize, y: usize) -> f64 {
        self.scan_at(x, y).entropy(self.num_classes)
    }

    /// Probability margin at `(x, y)`: `D_z = 1 - (p_(1) - p_(2))` ∈ [0, 1],
    /// large when the two best classes compete.
    pub fn margin_at(&self, x: usize, y: usize) -> f64 {
        self.scan_at(x, y).margin()
    }

    /// Variation ratio at `(x, y)`: `V_z = 1 - p_(1)` ∈ [0, 1].
    pub fn variation_ratio_at(&self, x: usize, y: usize) -> f64 {
        self.scan_at(x, y).variation_ratio()
    }

    /// Dense normalised-entropy heat map.
    pub fn entropy_map(&self) -> Grid<f64> {
        Grid::from_fn(self.width, self.height, |x, y| self.entropy_at(x, y))
    }

    /// Dense probability-margin heat map.
    pub fn margin_map(&self) -> Grid<f64> {
        Grid::from_fn(self.width, self.height, |x, y| self.margin_at(x, y))
    }

    /// Dense variation-ratio heat map.
    pub fn variation_ratio_map(&self) -> Grid<f64> {
        Grid::from_fn(self.width, self.height, |x, y| {
            self.variation_ratio_at(x, y)
        })
    }

    /// Structural integrity of a map that crossed a trust boundary (e.g. a
    /// wire-decoded payload): non-zero dimensions and a backing buffer of
    /// exactly `width * height * num_classes` values. Every accessor assumes
    /// this invariant, so servers must check it before touching a decoded
    /// map — probability *values* are intentionally not inspected here (use
    /// [`ProbMap::validate`] for that, at O(pixels) cost).
    pub fn shape_consistent(&self) -> bool {
        self.width > 0
            && self.height > 0
            && self.num_classes > 0
            && self
                .width
                .checked_mul(self.height)
                .and_then(|px| px.checked_mul(self.num_classes))
                == Some(self.data.len())
    }

    /// Checks that every pixel carries a valid probability distribution.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::NotADistribution`] for the first offending pixel.
    pub fn validate(&self) -> Result<(), DataError> {
        for y in 0..self.height {
            for x in 0..self.width {
                let dist = self.distribution(x, y);
                let sum: f64 = dist.iter().sum();
                if dist.iter().any(|p| *p < 0.0) || (sum - 1.0).abs() > 1e-4 {
                    return Err(DataError::NotADistribution { sum });
                }
            }
        }
        Ok(())
    }
}

/// On-the-wire value encodings of a [`ProbMap`] payload.
///
/// The byte-level codec ([`ProbPayload`]) stores the softmax field as a flat
/// little-endian value array in the map's native storage order (row-major,
/// pixel-major: `data[(y * width + x) * channels + c]`). Three encodings
/// trade wire size against fidelity:
///
/// * [`ProbEncoding::F64`] — 8 bytes/value, bit-exact: decoding recovers the
///   original field exactly, so downstream verdicts are bit-identical to the
///   in-process ones.
/// * [`ProbEncoding::F32`] — 4 bytes/value, rounds each probability to the
///   nearest `f32` (relative error ≤ 2⁻²⁴).
/// * [`ProbEncoding::U16`] — 2 bytes/value, quantizes `[0, 1]` onto a
///   65535-step grid (absolute error ≤ 2⁻¹⁷); values outside `[0, 1]`
///   (including NaN) clamp onto the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProbEncoding {
    /// Little-endian `f64`, lossless.
    F64,
    /// Little-endian `f32`, rounded.
    F32,
    /// Little-endian `u16`, quantized onto `[0, 1] / 65535`.
    U16,
}

impl ProbEncoding {
    /// Bytes one probability value occupies on the wire.
    pub fn bytes_per_value(self) -> usize {
        match self {
            ProbEncoding::F64 => 8,
            ProbEncoding::F32 => 4,
            ProbEncoding::U16 => 2,
        }
    }

    /// Whether decoding recovers the original `f64` field bit-exactly.
    pub fn is_lossless(self) -> bool {
        matches!(self, ProbEncoding::F64)
    }

    /// The one-byte wire tag of the encoding.
    pub fn tag(self) -> u8 {
        match self {
            ProbEncoding::F64 => 0,
            ProbEncoding::F32 => 1,
            ProbEncoding::U16 => 2,
        }
    }

    /// Parses a wire tag.
    pub fn from_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            0 => ProbEncoding::F64,
            1 => ProbEncoding::F32,
            2 => ProbEncoding::U16,
            _ => return None,
        })
    }

    /// Human/CLI spelling of the encoding.
    pub fn name(self) -> &'static str {
        match self {
            ProbEncoding::F64 => "f64",
            ProbEncoding::F32 => "f32",
            ProbEncoding::U16 => "u16",
        }
    }

    /// Parses the CLI spelling.
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "f64" => ProbEncoding::F64,
            "f32" => ProbEncoding::F32,
            "u16" => ProbEncoding::U16,
            _ => return None,
        })
    }

    /// Total payload bytes of a `width` x `height` x `channels` field, or
    /// `None` when the shape has a zero dimension or the byte count
    /// overflows `usize`.
    pub fn payload_len(self, width: usize, height: usize, channels: usize) -> Option<usize> {
        if width == 0 || height == 0 || channels == 0 {
            return None;
        }
        width
            .checked_mul(height)?
            .checked_mul(channels)?
            .checked_mul(self.bytes_per_value())
    }
}

/// A [`ProbMap`] serialized to a flat byte payload plus the shape metadata
/// needed to decode it — the transport-agnostic half of a binary wire frame
/// (framing, sessions and checksums live in the transport layer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbPayload {
    /// Width of the field in pixels.
    pub width: usize,
    /// Height of the field in pixels.
    pub height: usize,
    /// Softmax channels per pixel.
    pub channels: usize,
    /// Value encoding of `bytes`.
    pub encoding: ProbEncoding,
    /// The flat little-endian value array.
    pub bytes: Vec<u8>,
}

impl ProbPayload {
    /// Encodes a field. Infallible: every `ProbMap` upholds the shape
    /// invariant the payload records.
    pub fn encode(map: &ProbMap, encoding: ProbEncoding) -> Self {
        Self {
            width: map.width,
            height: map.height,
            channels: map.num_classes,
            encoding,
            bytes: map.payload_bytes(encoding),
        }
    }

    /// Decodes the payload back into a field.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidPayloadShape`] when the declared shape has
    /// a zero dimension or overflows, and [`DataError::PayloadSizeMismatch`]
    /// when `bytes` is shorter or longer than the shape implies. Never
    /// panics, whatever the bytes contain.
    pub fn decode(&self) -> Result<ProbMap, DataError> {
        ProbMap::from_payload_bytes(
            self.width,
            self.height,
            self.channels,
            self.encoding,
            &self.bytes,
        )
    }

    /// Validates the declared shape against the byte length, returning the
    /// number of probability values the payload holds.
    ///
    /// # Errors
    ///
    /// The same typed errors as [`ProbPayload::decode`].
    pub fn checked_value_count(&self) -> Result<usize, DataError> {
        let expected = self
            .encoding
            .payload_len(self.width, self.height, self.channels)
            .ok_or(DataError::InvalidPayloadShape {
                width: self.width,
                height: self.height,
                channels: self.channels,
            })?;
        if self.bytes.len() != expected {
            return Err(DataError::PayloadSizeMismatch {
                expected,
                found: self.bytes.len(),
            });
        }
        Ok(expected / self.encoding.bytes_per_value())
    }

    /// Dequantizes the payload straight into a reusable `f64` buffer
    /// (cleared first), without materialising a [`ProbMap`] — the zero-copy
    /// ingest path of the extraction kernel. The decoded values are
    /// *bit-identical* to [`ProbPayload::decode`]'s backing buffer: both
    /// routes share one decode loop per encoding.
    ///
    /// # Errors
    ///
    /// The same typed errors as [`ProbPayload::decode`].
    pub fn decode_values_into(&self, out: &mut Vec<f64>) -> Result<(), DataError> {
        let count = self.checked_value_count()?;
        out.clear();
        out.reserve(count);
        decode_values_f64(self.encoding, &self.bytes, out);
        Ok(())
    }

    /// Borrows a `U16` payload's quantized values *in place*, as the
    /// little-endian byte pairs of the wire buffer — no decode pass, no
    /// copy, no allocation. The caller dequantizes lazily at the point of
    /// use (the kernel's quantized fast path does it in-register during its
    /// tile gather). Returns `None` for float encodings, which have no
    /// quantized form; callers fall back to
    /// [`ProbPayload::decode_values_into_f32`].
    ///
    /// # Errors
    ///
    /// The same typed errors as [`ProbPayload::decode`].
    pub fn quantized_pairs(&self) -> Result<Option<&[[u8; 2]]>, DataError> {
        let count = self.checked_value_count()?;
        if self.encoding != ProbEncoding::U16 {
            return Ok(None);
        }
        let (pairs, rest) = self.bytes.as_chunks::<2>();
        debug_assert!(rest.is_empty() && pairs.len() == count);
        Ok(Some(pairs))
    }

    /// Dequantizes the payload into a reusable `f32` buffer (cleared first)
    /// — the single-precision fast-path variant of
    /// [`ProbPayload::decode_values_into`]. `u16` values dequantize by
    /// multiplication with `1/65535` (one ulp-level difference from the f64
    /// route's division), `f32` payloads copy bit-exactly, and `f64` values
    /// round to nearest.
    ///
    /// # Errors
    ///
    /// The same typed errors as [`ProbPayload::decode`].
    pub fn decode_values_into_f32(&self, out: &mut Vec<f32>) -> Result<(), DataError> {
        let count = self.checked_value_count()?;
        out.clear();
        out.reserve(count);
        match self.encoding {
            ProbEncoding::F64 => out.extend(self.bytes.chunks_exact(8).map(|c| {
                f64::from_le_bytes(c.try_into().expect("chunks_exact yields 8 bytes")) as f32
            })),
            ProbEncoding::F32 => {
                out.extend(self.bytes.chunks_exact(4).map(|c| {
                    f32::from_le_bytes(c.try_into().expect("chunks_exact yields 4 bytes"))
                }))
            }
            ProbEncoding::U16 => {
                const SCALE: f32 = 1.0 / 65535.0;
                out.extend(self.bytes.chunks_exact(2).map(|c| {
                    f32::from(u16::from_le_bytes(
                        c.try_into().expect("chunks_exact yields 2 bytes"),
                    )) * SCALE
                }))
            }
        }
        Ok(())
    }
}

/// The one decode loop per encoding: both [`ProbMap::from_payload_bytes`]
/// and [`ProbPayload::decode_values_into`] append through here, so the
/// direct-to-scratch ingest path is bit-identical to decode-via-`ProbMap` by
/// construction. `bytes` must already be length-validated.
fn decode_values_f64(encoding: ProbEncoding, bytes: &[u8], out: &mut Vec<f64>) {
    match encoding {
        ProbEncoding::F64 => out.extend(
            bytes
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().expect("chunks_exact yields 8 bytes"))),
        ),
        ProbEncoding::F32 => out.extend(bytes.chunks_exact(4).map(|c| {
            f64::from(f32::from_le_bytes(
                c.try_into().expect("chunks_exact yields 4 bytes"),
            ))
        })),
        ProbEncoding::U16 => out.extend(bytes.chunks_exact(2).map(|c| {
            f64::from(u16::from_le_bytes(
                c.try_into().expect("chunks_exact yields 2 bytes"),
            )) / f64::from(u16::MAX)
        })),
    }
}

impl ProbMap {
    /// Serializes the field's values as a flat little-endian byte payload in
    /// storage order (see [`ProbEncoding`] for the fidelity of each mode).
    pub fn payload_bytes(&self, encoding: ProbEncoding) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(self.data.len() * encoding.bytes_per_value());
        self.extend_payload_bytes(encoding, &mut bytes);
        bytes
    }

    /// Appends the payload of [`ProbMap::payload_bytes`] to an existing
    /// buffer — transport encoders that prepend a header reserve one buffer
    /// and encode straight into it instead of copying the payload a second
    /// time.
    pub fn extend_payload_bytes(&self, encoding: ProbEncoding, bytes: &mut Vec<u8>) {
        bytes.reserve(self.data.len() * encoding.bytes_per_value());
        match encoding {
            ProbEncoding::F64 => {
                for value in &self.data {
                    bytes.extend_from_slice(&value.to_le_bytes());
                }
            }
            ProbEncoding::F32 => {
                for value in &self.data {
                    bytes.extend_from_slice(&(*value as f32).to_le_bytes());
                }
            }
            ProbEncoding::U16 => {
                for value in &self.data {
                    // NaN saturates to 0 through the float-to-int cast.
                    let quantized = (value.clamp(0.0, 1.0) * f64::from(u16::MAX)).round() as u16;
                    bytes.extend_from_slice(&quantized.to_le_bytes());
                }
            }
        }
    }

    /// Decodes a field from a flat little-endian byte payload.
    ///
    /// The inverse of [`ProbMap::payload_bytes`]: bit-exact for
    /// [`ProbEncoding::F64`], the documented rounding otherwise. Value
    /// *contents* are not validated (a wire peer can send any bits, exactly
    /// as with the JSON encoding) — consumers on a trust boundary should
    /// check [`ProbMap::shape_consistent`] / [`ProbMap::validate`] as
    /// appropriate.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidPayloadShape`] for zero/overflowing
    /// shapes and [`DataError::PayloadSizeMismatch`] when `bytes` has the
    /// wrong length. Never panics, whatever the bytes contain.
    pub fn from_payload_bytes(
        width: usize,
        height: usize,
        channels: usize,
        encoding: ProbEncoding,
        bytes: &[u8],
    ) -> Result<Self, DataError> {
        let expected = encoding.payload_len(width, height, channels).ok_or(
            DataError::InvalidPayloadShape {
                width,
                height,
                channels,
            },
        )?;
        if bytes.len() != expected {
            return Err(DataError::PayloadSizeMismatch {
                expected,
                found: bytes.len(),
            });
        }
        let mut data = Vec::with_capacity(expected / encoding.bytes_per_value());
        decode_values_f64(encoding, bytes, &mut data);
        Ok(Self {
            width,
            height,
            num_classes: channels,
            data,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn one_hot_vec(channel: usize, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| if i == channel { 1.0 } else { 0.0 })
            .collect()
    }

    #[test]
    fn uniform_has_maximal_entropy() {
        let map = ProbMap::uniform(2, 2, 19);
        assert!((map.entropy_at(0, 0) - 1.0).abs() < 1e-9);
        assert!((map.margin_at(0, 0) - 1.0).abs() < 1e-9);
        assert!(map.validate().is_ok());
    }

    #[test]
    fn one_hot_has_zero_entropy() {
        let mut map = ProbMap::uniform(2, 2, 19);
        map.set_distribution(0, 0, &one_hot_vec(3, 19)).unwrap();
        assert!(map.entropy_at(0, 0).abs() < 1e-12);
        assert!(map.margin_at(0, 0).abs() < 1e-12);
        assert!(map.variation_ratio_at(0, 0).abs() < 1e-12);
        assert_eq!(map.argmax_class(0, 0), SemanticClass::Wall);
    }

    #[test]
    fn set_distribution_validates() {
        let mut map = ProbMap::uniform(2, 2, 3);
        assert!(matches!(
            map.set_distribution(0, 0, &[0.5, 0.5]),
            Err(DataError::WrongClassCount { .. })
        ));
        assert!(matches!(
            map.set_distribution(0, 0, &[0.5, 0.4, 0.4]),
            Err(DataError::NotADistribution { .. })
        ));
        assert!(matches!(
            map.set_distribution(0, 0, &[-0.1, 0.6, 0.5]),
            Err(DataError::NotADistribution { .. })
        ));
        assert!(map.set_distribution(0, 0, &[0.2, 0.3, 0.5]).is_ok());
    }

    #[test]
    fn argmax_map_and_one_hot_roundtrip() {
        let labels = LabelMap::from_fn(3, 3, |x, y| {
            if (x + y) % 2 == 0 {
                SemanticClass::Road
            } else {
                SemanticClass::Car
            }
        });
        let probs = ProbMap::one_hot(&labels, 19);
        let recovered = probs.argmax_map();
        for y in 0..3 {
            for x in 0..3 {
                assert_eq!(recovered.class_at(x, y), labels.class_at(x, y));
            }
        }
    }

    #[test]
    fn top2_orders_correctly() {
        let mut map = ProbMap::uniform(1, 1, 4);
        map.set_distribution(0, 0, &[0.1, 0.6, 0.25, 0.05]).unwrap();
        let (first, second) = map.top2(0, 0);
        assert!((first - 0.6).abs() < 1e-12);
        assert!((second - 0.25).abs() < 1e-12);
        assert!((map.margin_at(0, 0) - (1.0 - 0.35)).abs() < 1e-12);
        assert!((map.variation_ratio_at(0, 0) - 0.4).abs() < 1e-12);
    }

    /// Pins the tie-breaking of the fused scan exactly: with duplicated
    /// maxima the *first* maximum wins the argmax, and the second-largest
    /// value equals the maximum (the duplicate). This is the historical
    /// behaviour of the separate `argmax_channel` / `top2` loops, which are
    /// now both routed through [`DistributionScan`].
    #[test]
    fn fused_scan_tie_breaking_first_max_wins() {
        let mut map = ProbMap::uniform(1, 1, 4);
        map.set_distribution(0, 0, &[0.1, 0.4, 0.4, 0.1]).unwrap();
        assert_eq!(map.argmax_channel(0, 0), 1, "first maximum must win");
        let (first, second) = map.top2(0, 0);
        assert_eq!((first, second), (0.4, 0.4));
        assert!((map.margin_at(0, 0) - 1.0).abs() < 1e-15);

        // All-equal distribution: argmax is channel 0, top2 both maxima.
        let uniform = ProbMap::uniform(1, 1, 5);
        assert_eq!(uniform.argmax_channel(0, 0), 0);
        let (first, second) = uniform.top2(0, 0);
        assert_eq!(first, second);

        // Single-channel distribution: second is defined as 0.
        let single = ProbMap::uniform(1, 1, 1);
        assert_eq!(single.top2(0, 0), (1.0, 0.0));
        assert_eq!(single.argmax_channel(0, 0), 0);
    }

    /// The fused scan agrees with independent per-measure recomputation on
    /// random distributions (including the entropy summation order and the
    /// skip of exact-one entries, which contribute `-0.0`).
    #[test]
    fn fused_scan_matches_per_measure_definitions() {
        let dists: [&[f64]; 4] = [
            &[0.25, 0.5, 0.25],
            &[1.0, 0.0, 0.0],
            &[0.0, 0.0, 1.0],
            &[0.2, 0.2, 0.2, 0.2, 0.2],
        ];
        for dist in dists {
            let scan = DistributionScan::of(dist);
            // Fold from +0.0 in channel order — the accumulation the
            // extraction kernel has always used (`Iterator::sum` would start
            // from -0.0 and flip the sign of all-zero sums).
            let naive_raw: f64 = dist
                .iter()
                .filter(|p| **p > 0.0)
                .map(|p| -p * p.ln())
                .fold(0.0, |acc, term| acc + term);
            assert_eq!(scan.raw_entropy.to_bits(), naive_raw.to_bits());
            let naive_max = dist.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            assert_eq!(scan.top1, naive_max);
            assert_eq!(dist[scan.argmax], naive_max);
        }
    }

    #[test]
    fn distributions_iterate_in_storage_order() {
        let mut map = ProbMap::uniform(2, 2, 3);
        map.set_distribution(1, 0, &[0.5, 0.25, 0.25]).unwrap();
        let rows: Vec<&[f64]> = map.distributions().collect();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[1], map.distribution(1, 0));
        assert_eq!(map.values().len(), 2 * 2 * 3);
        assert_eq!(&map.values()[3..6], map.distribution(1, 0));
    }

    #[test]
    fn heatmaps_have_field_shape() {
        let map = ProbMap::uniform(5, 3, 19);
        assert_eq!(map.entropy_map().shape(), (5, 3));
        assert_eq!(map.margin_map().shape(), (5, 3));
        assert_eq!(map.variation_ratio_map().shape(), (5, 3));
    }

    proptest! {
        #[test]
        fn prop_dispersion_measures_in_unit_interval(raw in proptest::collection::vec(0.01f64..10.0, 19)) {
            let sum: f64 = raw.iter().sum();
            let dist: Vec<f64> = raw.iter().map(|v| v / sum).collect();
            let mut map = ProbMap::uniform(1, 1, 19);
            map.set_distribution(0, 0, &dist).unwrap();
            let e = map.entropy_at(0, 0);
            let m = map.margin_at(0, 0);
            let v = map.variation_ratio_at(0, 0);
            prop_assert!((0.0..=1.0).contains(&e));
            prop_assert!((0.0..=1.0).contains(&m));
            prop_assert!((0.0..=1.0).contains(&v));
            // The variation ratio is at most the margin: 1 - p1 <= 1 - (p1 - p2).
            prop_assert!(v <= m + 1e-12);
        }

        #[test]
        fn prop_argmax_is_most_probable(raw in proptest::collection::vec(0.01f64..10.0, 19)) {
            let sum: f64 = raw.iter().sum();
            let dist: Vec<f64> = raw.iter().map(|v| v / sum).collect();
            let mut map = ProbMap::uniform(1, 1, 19);
            map.set_distribution(0, 0, &dist).unwrap();
            let argmax = map.argmax_channel(0, 0);
            for &p in &dist {
                prop_assert!(dist[argmax] >= p - 1e-15);
            }
        }
    }

    /// A map of the given shape filled with arbitrary (not necessarily
    /// normalized) values — the payload codec must not care about
    /// distribution validity.
    fn arbitrary_map(width: usize, height: usize, channels: usize, values: &[f64]) -> ProbMap {
        let mut map = ProbMap::uniform(width, height, channels);
        let mut cursor = values.iter().cycle();
        for y in 0..height {
            for x in 0..width {
                let dist: Vec<f64> = (0..channels).map(|_| *cursor.next().unwrap()).collect();
                map.set_distribution_unchecked(x, y, &dist);
            }
        }
        map
    }

    #[test]
    fn payload_roundtrips_f64_bit_exactly() {
        let map = arbitrary_map(
            3,
            2,
            4,
            &[0.25, 1.0 / 3.0, std::f64::consts::PI, -1.5e300, 0.0],
        );
        let payload = ProbPayload::encode(&map, ProbEncoding::F64);
        assert_eq!(payload.bytes.len(), 3 * 2 * 4 * 8);
        assert_eq!(payload.decode().unwrap(), map);
    }

    #[test]
    fn payload_sizes_follow_the_encoding() {
        let map = ProbMap::uniform(5, 3, 7);
        for (encoding, bytes_per_value) in [
            (ProbEncoding::F64, 8),
            (ProbEncoding::F32, 4),
            (ProbEncoding::U16, 2),
        ] {
            let payload = ProbPayload::encode(&map, encoding);
            assert_eq!(payload.bytes.len(), 5 * 3 * 7 * bytes_per_value);
            assert_eq!(payload.encoding.bytes_per_value(), bytes_per_value);
            let decoded = payload.decode().unwrap();
            assert!(decoded.shape_consistent());
            assert_eq!(decoded.shape(), (5, 3));
            assert_eq!(decoded.num_classes(), 7);
        }
    }

    #[test]
    fn quantized_encodings_have_documented_error_bounds() {
        let mut map = ProbMap::uniform(2, 1, 3);
        map.set_distribution(0, 0, &[0.1, 0.7, 0.2]).unwrap();
        let f32_decoded = ProbPayload::encode(&map, ProbEncoding::F32)
            .decode()
            .unwrap();
        let u16_decoded = ProbPayload::encode(&map, ProbEncoding::U16)
            .decode()
            .unwrap();
        for y in 0..1 {
            for x in 0..2 {
                for c in 0..3 {
                    let exact = map.distribution(x, y)[c];
                    assert!((f32_decoded.distribution(x, y)[c] - exact).abs() <= exact * 1e-7);
                    assert!((u16_decoded.distribution(x, y)[c] - exact).abs() <= 0.5 / 65535.0);
                }
            }
        }
        // NaN saturates onto the grid instead of poisoning the payload.
        let mut map = ProbMap::uniform(1, 1, 2);
        map.set_distribution_unchecked(0, 0, &[f64::NAN, 2.0]);
        let decoded = ProbPayload::encode(&map, ProbEncoding::U16)
            .decode()
            .unwrap();
        assert_eq!(decoded.distribution(0, 0), &[0.0, 1.0]);
    }

    #[test]
    fn payload_decode_rejects_bad_shapes_and_sizes_with_typed_errors() {
        let bytes = vec![0u8; 16];
        // Zero dimensions.
        for (w, h, c) in [(0, 1, 2), (1, 0, 2), (1, 1, 0)] {
            assert!(matches!(
                ProbMap::from_payload_bytes(w, h, c, ProbEncoding::F64, &bytes),
                Err(DataError::InvalidPayloadShape { .. })
            ));
        }
        // Overflowing shape: the byte count must be computed checked.
        assert!(matches!(
            ProbMap::from_payload_bytes(usize::MAX, 2, 3, ProbEncoding::U16, &bytes),
            Err(DataError::InvalidPayloadShape { .. })
        ));
        // Truncated and padded payloads.
        assert!(matches!(
            ProbMap::from_payload_bytes(1, 1, 2, ProbEncoding::F64, &bytes[..15]),
            Err(DataError::PayloadSizeMismatch {
                expected: 16,
                found: 15
            })
        ));
        assert!(matches!(
            ProbMap::from_payload_bytes(1, 1, 2, ProbEncoding::U16, &bytes),
            Err(DataError::PayloadSizeMismatch {
                expected: 4,
                found: 16
            })
        ));
    }

    #[test]
    fn fast_ln_is_accurate_on_the_probability_range() {
        // The fast logarithm must track libm on the probability range the
        // dispersion scan feeds it: the raw value within 2e-6 (the
        // exponent·ln2 rounding dominates at tiny inputs), and the entropy
        // term p·ln p — what the scan actually accumulates — within 2e-7.
        let mut worst_ln = 0.0f32;
        let mut worst_term = 0.0f32;
        for i in 1..=100_000u32 {
            let x = i as f32 / 100_000.0;
            worst_ln = worst_ln.max((fast_ln_positive_f32(x) - x.ln()).abs());
            worst_term = worst_term.max((x * fast_ln_positive_f32(x) - x * x.ln()).abs());
        }
        assert!(worst_ln <= 2e-6, "fast ln error {worst_ln} exceeds 2e-6");
        assert!(
            worst_term <= 2e-7,
            "entropy term error {worst_term} exceeds 2e-7"
        );
        // Zero maps to a finite negative value so p·ln(p) vanishes at 0.
        let at_zero = fast_ln_positive_f32(0.0);
        assert!(at_zero.is_finite() && at_zero < -80.0);
        assert_eq!(0.0f32 * at_zero, -0.0);
    }

    #[test]
    fn f32_scan_tracks_the_f64_scan() {
        let dists: [&[f64]; 5] = [
            &[0.25, 0.5, 0.25],
            &[1.0, 0.0, 0.0],
            &[0.0, 0.0, 1.0],
            &[0.2, 0.2, 0.2, 0.2, 0.2],
            &[0.05, 0.6, 0.3, 0.05],
        ];
        for dist in dists {
            let exact = DistributionScan::of(dist);
            let narrowed: Vec<f32> = dist.iter().map(|&p| p as f32).collect();
            let fast = DistributionScanF32::of(&narrowed);
            assert_eq!(fast.argmax, exact.argmax);
            let n = dist.len();
            assert!((f64::from(fast.entropy(n)) - exact.entropy(n)).abs() <= 1e-5);
            assert!((f64::from(fast.margin()) - exact.margin()).abs() <= 1e-5);
            assert!((f64::from(fast.variation_ratio()) - exact.variation_ratio()).abs() <= 1e-5);
            assert!((f64::from(fast.top1) - exact.top1).abs() <= 1e-6);
        }
    }

    #[test]
    fn f32_scan_tie_breaking_matches_the_f64_scan() {
        // First maximum wins, exactly like the f64 scan.
        let scan = DistributionScanF32::of(&[0.1, 0.4, 0.4, 0.1]);
        assert_eq!(scan.argmax, 1);
        assert_eq!((scan.top1, scan.top2), (0.4, 0.4));
        // Single-channel distributions define top2 as zero.
        let single = DistributionScanF32::of(&[1.0]);
        assert_eq!((single.argmax, single.top1, single.top2), (0, 1.0, 0.0));
    }

    #[test]
    fn decode_values_into_is_bit_identical_to_decode() {
        let map = arbitrary_map(3, 2, 4, &[0.25, 1.0 / 3.0, std::f64::consts::PI, 0.75, 0.0]);
        let mut out = vec![1.0; 3]; // stale content must be cleared
        for encoding in [ProbEncoding::F64, ProbEncoding::F32, ProbEncoding::U16] {
            let payload = ProbPayload::encode(&map, encoding);
            assert_eq!(payload.checked_value_count().unwrap(), 3 * 2 * 4);
            payload.decode_values_into(&mut out).unwrap();
            assert_eq!(out.as_slice(), payload.decode().unwrap().values());
        }
    }

    #[test]
    fn decode_values_into_rejects_malformed_payloads() {
        let mut payload = ProbPayload::encode(&ProbMap::uniform(2, 2, 3), ProbEncoding::U16);
        payload.bytes.pop();
        let mut f64_out = Vec::new();
        let mut f32_out = Vec::new();
        assert!(matches!(
            payload.decode_values_into(&mut f64_out),
            Err(DataError::PayloadSizeMismatch { .. })
        ));
        assert!(matches!(
            payload.decode_values_into_f32(&mut f32_out),
            Err(DataError::PayloadSizeMismatch { .. })
        ));
        assert!(matches!(
            payload.quantized_pairs(),
            Err(DataError::PayloadSizeMismatch { .. })
        ));
        payload.width = 0;
        assert!(matches!(
            payload.decode_values_into(&mut f64_out),
            Err(DataError::InvalidPayloadShape { .. })
        ));
    }

    #[test]
    fn quantized_pairs_borrows_quantized_values_only() {
        let map = ProbMap::uniform(3, 2, 4);
        let quantized = ProbPayload::encode(&map, ProbEncoding::U16);
        let pairs = quantized.quantized_pairs().unwrap().expect("u16 payload");
        assert_eq!(pairs.len(), 3 * 2 * 4);
        // Round-tripping each raw value through the shared f64 decode
        // formula reproduces the decoded plane bit for bit.
        let decoded = quantized.decode().unwrap();
        for (&pair, &v) in pairs.iter().zip(decoded.values()) {
            assert_eq!(f64::from(u16::from_le_bytes(pair)) / f64::from(u16::MAX), v);
        }
        // Float encodings have no quantized form.
        for encoding in [ProbEncoding::F64, ProbEncoding::F32] {
            let float_payload = ProbPayload::encode(&map, encoding);
            assert!(float_payload.quantized_pairs().unwrap().is_none());
        }
    }

    proptest! {
        #[test]
        fn prop_decode_values_into_matches_decode(
            dims in (1usize..5, 1usize..4, 1usize..6),
            values in proptest::collection::vec(0.0f64..=1.0, 24),
            tag in 0u8..3
        ) {
            let (width, height, channels) = dims;
            let encoding = ProbEncoding::from_tag(tag).unwrap();
            let payload = ProbPayload::encode(
                &arbitrary_map(width, height, channels, &values),
                encoding,
            );
            let via_map = payload.decode().unwrap();
            let mut direct = Vec::new();
            payload.decode_values_into(&mut direct).unwrap();
            prop_assert_eq!(direct.as_slice(), via_map.values());
            // The f32 route tracks the f64 route within quantization noise.
            let mut narrow = Vec::new();
            payload.decode_values_into_f32(&mut narrow).unwrap();
            prop_assert_eq!(narrow.len(), direct.len());
            for (&n, &d) in narrow.iter().zip(&direct) {
                prop_assert!((f64::from(n) - d).abs() <= 1e-6);
            }
        }
    }

    #[test]
    fn encoding_tags_and_names_roundtrip() {
        for encoding in [ProbEncoding::F64, ProbEncoding::F32, ProbEncoding::U16] {
            assert_eq!(ProbEncoding::from_tag(encoding.tag()), Some(encoding));
            assert_eq!(ProbEncoding::from_name(encoding.name()), Some(encoding));
            assert_eq!(encoding.is_lossless(), encoding == ProbEncoding::F64);
        }
        assert_eq!(ProbEncoding::from_tag(3), None);
        assert_eq!(ProbEncoding::from_name("f16"), None);
    }

    proptest! {
        #[test]
        fn prop_f64_payload_roundtrips_exactly(
            dims in (1usize..5, 1usize..4, 1usize..6),
            values in proptest::collection::vec(-1.0f64..2.0, 24)
        ) {
            let (width, height, channels) = dims;
            let map = arbitrary_map(width, height, channels, &values);
            let payload = ProbPayload::encode(&map, ProbEncoding::F64);
            prop_assert_eq!(payload.decode().unwrap(), map);
        }

        #[test]
        fn prop_lossy_payloads_are_idempotent(
            dims in (1usize..5, 1usize..4, 1usize..6),
            values in proptest::collection::vec(0.0f64..=1.0, 24),
            use_u16 in any::<bool>()
        ) {
            let (width, height, channels) = dims;
            // Lossy encodings must converge after one round: decoding and
            // re-encoding reproduces the same bytes (no drift under relay).
            let encoding = if use_u16 { ProbEncoding::U16 } else { ProbEncoding::F32 };
            let map = arbitrary_map(width, height, channels, &values);
            let first = ProbPayload::encode(&map, encoding);
            let second = ProbPayload::encode(&first.decode().unwrap(), encoding);
            prop_assert_eq!(&first, &second);
        }

        #[test]
        fn prop_payload_decode_never_panics(
            dims in (0usize..6, 0usize..5, 0usize..5),
            bytes in proptest::collection::vec(0u8..=255, 0..64),
            tag in 0u8..4
        ) {
            let (width, height, channels) = dims;
            let Some(encoding) = ProbEncoding::from_tag(tag) else { return Ok(()); };
            // Arbitrary declared shapes against arbitrary bytes: either a
            // structurally sound map or a typed error, never a panic.
            match ProbMap::from_payload_bytes(width, height, channels, encoding, &bytes) {
                Ok(map) => prop_assert!(map.shape_consistent()),
                Err(
                    DataError::InvalidPayloadShape { .. } | DataError::PayloadSizeMismatch { .. },
                ) => {}
                Err(other) => return Err(TestCaseError::fail(format!("unexpected error {other}"))),
            }
        }
    }
}

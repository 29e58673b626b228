//! The served model and the seeded camera clips every workload replays.

use metaseg::stream::{SegmentVerdict, StreamConfig};
use metaseg_bench::serve_fixture::{fit_predictor, video_config};
use metaseg_data::ProbMap;
use metaseg_serve::ModelRegistry;
use metaseg_sim::{NetworkProfile, NetworkSim, SceneConfig, VideoConfig, VideoStream};
use rand::{rngs::StdRng, SeedableRng};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::Arc;

/// Registry name every session opens.
pub const MODEL: &str = "default";

/// Training seed of the served model. Fixed: the workload seed varies the
/// traffic, never the model.
pub const MODEL_SEED: u64 = 7000;

/// The served model: its stream configuration and checkpoint bytes.
pub struct Model {
    /// Stream configuration sessions run under.
    pub config: StreamConfig,
    /// Binary container checkpoint of the fitted predictor.
    pub checkpoint: Vec<u8>,
}

impl Model {
    /// Fits the small gradient-boosting predictor the serve fixtures use
    /// (time series of 2 frames over 48x24 weak-network clips).
    pub fn fit() -> Self {
        let (config, predictor) = fit_predictor(&video_config(12, 48, 24), 2, MODEL_SEED);
        Self {
            config,
            checkpoint: predictor.to_container_bytes(),
        }
    }

    /// A registry with the checkpoint loaded under [`MODEL`].
    pub fn registry(&self) -> Arc<ModelRegistry> {
        let registry = Arc::new(ModelRegistry::new());
        registry
            .load_checkpoint(MODEL, self.config, &self.checkpoint)
            .expect("the fitted checkpoint loads");
        registry
    }
}

/// Shape and network of a camera clip.
#[derive(Debug, Clone, Copy)]
pub struct ClipShape {
    /// Frame width in pixels.
    pub width: usize,
    /// Frame height in pixels.
    pub height: usize,
    /// Distinct frames rendered per clip.
    pub frames: usize,
    /// Simulated network: `true` for the weak profile the model was fitted
    /// on, `false` for the strong one (fewer, larger segments).
    pub weak: bool,
}

/// Renders one camera's clip from the workload seed: one simulated scene
/// whose objects move from frame to frame, so tracking sees coherent motion.
pub fn render_clip(seed: u64, camera: u64, shape: ClipShape) -> Vec<ProbMap> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ camera);
    let config = VideoConfig {
        sequence_count: 1,
        frames_per_sequence: shape.frames,
        scene: SceneConfig {
            width: shape.width,
            height: shape.height,
            ..SceneConfig::small()
        },
        ..VideoConfig::small()
    };
    let profile = if shape.weak {
        NetworkProfile::weak()
    } else {
        NetworkProfile::strong()
    };
    VideoStream::open(&config, NetworkSim::new(profile), camera as usize, &mut rng)
        .map(|frame| frame.prediction)
        .collect()
}

/// Clip frame shown at stream position `t`: the clip plays forwards, then
/// backwards, so a looping camera never jumps.
pub fn ping_pong(t: usize, len: usize) -> usize {
    if len <= 1 {
        return 0;
    }
    let period = 2 * (len - 1);
    let phase = t % period;
    if phase < len {
        phase
    } else {
        period - phase
    }
}

/// Bit-for-bit equality of two verdict lists (floats compared by bits).
pub fn same_verdicts(a: &[SegmentVerdict], b: &[SegmentVerdict]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.frame == y.frame
                && x.track_id == y.track_id
                && x.region_id == y.region_id
                && x.class == y.class
                && x.area == y.area
                && x.tp_probability.to_bits() == y.tp_probability.to_bits()
                && x.predicted_iou.to_bits() == y.predicted_iou.to_bits()
        })
}

/// Fingerprint of one answered frame: SipHash over the frame index and the
/// bits of every field of every verdict, in order. Served frames are kept
/// as this digest rather than as verdict lists, so the benchmark's own
/// memory does not grow with the frames a run serves; two answers that
/// differ in any bit have the same digest with probability 2^-64.
pub fn verdict_digest(frame: usize, verdicts: &[SegmentVerdict]) -> u64 {
    // `DefaultHasher::new()` uses fixed keys: equal inputs hash equally
    // within the process.
    let mut hasher = DefaultHasher::new();
    frame.hash(&mut hasher);
    verdicts.len().hash(&mut hasher);
    for v in verdicts {
        (v.frame, v.track_id, v.region_id, v.class, v.area).hash(&mut hasher);
        v.tp_probability.to_bits().hash(&mut hasher);
        v.predicted_iou.to_bits().hash(&mut hasher);
    }
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaseg_data::SemanticClass;

    #[test]
    fn ping_pong_plays_forwards_then_backwards() {
        let order: Vec<usize> = (0..9).map(|t| ping_pong(t, 4)).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 2, 1, 0, 1, 2]);
        assert_eq!(ping_pong(5, 1), 0);
    }

    #[test]
    fn clips_are_a_function_of_the_seed() {
        let shape = ClipShape {
            width: 48,
            height: 24,
            frames: 2,
            weak: true,
        };
        assert_eq!(render_clip(1, 3, shape), render_clip(1, 3, shape));
        assert_ne!(render_clip(1, 3, shape), render_clip(2, 3, shape));
    }

    #[test]
    fn the_digest_sees_every_field_and_the_frame_index() {
        let verdict = SegmentVerdict {
            frame: 3,
            track_id: 4,
            region_id: 5,
            class: SemanticClass::Road,
            area: 70,
            tp_probability: 0.25,
            predicted_iou: 0.5,
        };
        let one = std::slice::from_ref(&verdict);
        let base = verdict_digest(3, one);
        assert_eq!(base, verdict_digest(3, one));
        assert_ne!(base, verdict_digest(4, one));
        assert_ne!(base, verdict_digest(3, &[]));
        assert_ne!(base, verdict_digest(3, &[verdict.clone(), verdict.clone()]));
        let changed = [
            SegmentVerdict {
                track_id: 9,
                ..verdict.clone()
            },
            SegmentVerdict {
                class: SemanticClass::Human,
                ..verdict.clone()
            },
            SegmentVerdict {
                area: 71,
                ..verdict.clone()
            },
            SegmentVerdict {
                tp_probability: f64::from_bits(0.25f64.to_bits() + 1),
                ..verdict.clone()
            },
            SegmentVerdict {
                predicted_iou: -0.5,
                ..verdict.clone()
            },
        ];
        for other in changed {
            assert_ne!(base, verdict_digest(3, &[other]));
        }
    }
}

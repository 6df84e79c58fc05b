//! Workload inputs and the reference they are checked against.
//!
//! Inputs come from the repository's own traffic simulator
//! (`DatasetPreset`), seeded by `--seed`; the system under test only
//! ever receives the generated events. Results are compared as 64-bit
//! digests of every field `FrameResult::bits_eq` compares, so a run can
//! check hundreds of thousands of frames without keeping them resident.

use std::time::Instant;

use ebbiot::core::{EbbiotConfig, EbbiotPipeline, FrameResult, RegionOfExclusion};
use ebbiot::events::{Event, DEFAULT_FRAME_DURATION_US};
use ebbiot::frame::BoundingBox;
use ebbiot::sim::{DatasetPreset, FleetConfig};

use crate::calib::Calibrator;
use crate::stats::Durations;

/// The paper's frame period `tF` (66 ms), in microseconds.
pub const FRAME_US: u64 = DEFAULT_FRAME_DURATION_US;

/// One camera's recording, cut into whole `tF` windows.
pub struct Camera {
    /// Stream name (`<SITE>-cam<k>`).
    pub name: String,
    /// Time-ordered events, all before `frames * FRAME_US`.
    pub events: Vec<Event>,
    /// `starts[k]..starts[k + 1]` are the events of window `k`.
    starts: Vec<usize>,
    /// Number of windows.
    pub frames: usize,
}

impl Camera {
    /// Simulates camera `camera` of a `preset` fleet seeded by `seed`,
    /// exactly `frames` windows long (events stamped at the span's end
    /// are dropped, so every event falls inside a window).
    pub fn generate(preset: DatasetPreset, seed: u64, camera: usize, frames: usize) -> Self {
        let fleet = FleetConfig::new(preset, camera + 1).with_base_seed(seed);
        let mut sim = preset.config();
        sim.duration_us = frames as u64 * FRAME_US;
        let mut events = sim.generate(fleet.camera_seed(camera)).events;
        events.truncate(events.partition_point(|e| e.t < sim.duration_us));
        let mut starts = Vec::with_capacity(frames + 1);
        let mut i = 0;
        for k in 0..=frames as u64 {
            while i < events.len() && events[i].t < k * FRAME_US {
                i += 1;
            }
            starts.push(i);
        }
        Self { name: fleet.camera_name(camera), events, starts, frames }
    }

    /// The recording's span in microseconds.
    pub fn span_us(&self) -> u64 {
        self.frames as u64 * FRAME_US
    }

    /// The events of window `k`.
    pub fn window(&self, k: usize) -> &[Event] {
        &self.events[self.starts[k]..self.starts[k + 1]]
    }
}

/// The pipeline configuration for a site: the paper's defaults plus the
/// site's region of exclusion, drawn one RPN cell around each flicker
/// distractor of the preset (ENG's foliage; LT4 has none).
pub fn pipeline_config(preset: DatasetPreset) -> EbbiotConfig {
    let sim = preset.config();
    let roe = sim
        .flickers
        .iter()
        .map(|f| {
            let b = f.region;
            BoundingBox::new(
                f32::from(b.x_min) - 6.0,
                f32::from(b.y_min) - 3.0,
                f32::from(b.width()) + 12.0,
                f32::from(b.height()) + 6.0,
            )
        })
        .collect();
    EbbiotConfig::paper_default(sim.geometry).with_roe(RegionOfExclusion::new(roe))
}

/// FNV-1a digest of every field `FrameResult::bits_eq` compares, floats
/// by their bit patterns.
pub fn digest(frame: &FrameResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    mix(frame.index as u64);
    mix(frame.t_start);
    mix(frame.duration);
    mix(frame.num_proposals as u64);
    mix(frame.num_events as u64);
    mix(frame.tracks.len() as u64);
    for t in &frame.tracks {
        mix(t.track_id);
        for v in [t.bbox.x, t.bbox.y, t.bbox.w, t.bbox.h, t.velocity.0, t.velocity.1] {
            mix(u64::from(v.to_bits()));
        }
        mix(u64::from(t.occluded));
    }
    h
}

/// Frames of `want` that `got` lacks or disagrees on, plus any frames
/// `got` has beyond `want`.
pub fn mismatches(got: &[u64], want: &[u64]) -> u64 {
    let wrong = want.iter().enumerate().filter(|&(i, w)| got.get(i) != Some(w)).count();
    (wrong + got.len().saturating_sub(want.len())) as u64
}

/// The reference output of one camera: the batch path
/// `Pipeline::process_recording` over the whole recording.
pub fn reference(config: &EbbiotConfig, camera: &Camera) -> Vec<u64> {
    EbbiotPipeline::new(config.clone())
        .process_recording(&camera.events, camera.span_us())
        .iter()
        .map(digest)
        .collect()
}

/// Checks one stream's frames, in delivery order, against its reference
/// digests as they arrive, keeping nothing per frame.
pub struct StreamCheck<'a> {
    want: &'a [u64],
    /// Frames delivered so far.
    pub seen: usize,
    /// Delivered frames that disagree with the reference or lie beyond it.
    wrong: u64,
}

impl<'a> StreamCheck<'a> {
    /// A check against the reference digests `want`.
    pub fn new(want: &'a [u64]) -> Self {
        Self { want, seen: 0, wrong: 0 }
    }

    /// Checks the next delivered frames.
    pub fn frames(&mut self, frames: &[FrameResult]) {
        for frame in frames {
            if self.want.get(self.seen) != Some(&digest(frame)) {
                self.wrong += 1;
            }
            self.seen += 1;
        }
    }

    /// Adds the stream to `out`'s tallies: every reference frame is
    /// attempted; wrong, extra and missing frames failed.
    pub fn end(self, out: &mut crate::report::Outcome) {
        out.attempted += self.want.len() as u64;
        out.failed += self.wrong + self.want.len().saturating_sub(self.seen) as u64;
    }
}

/// A sequential single-thread pass over whole cameras, one readout per
/// `Pipeline::push`, each camera run through a fresh pipeline and
/// checked against its reference; the cameras take turns, run after run.
/// Each push is timed right after a run of the reference kernel and
/// normalised to the host's full speed (see [`crate::calib`]): the
/// node's figures, and the replay and ingest workloads' per-frame
/// compute figures.
pub struct SequentialPass {
    /// Normalised push time attributed to each delivered frame (a push
    /// that delivers `n` frames gives each `1/n` of it). Frames `finish`
    /// delivers are not timed.
    pub frame: Durations,
    /// Normalised time from the call (when the closing readout was due)
    /// to the frame's delivery, per delivered frame.
    pub latency: Durations,
    /// Wall push time per delivered frame, as `frame` but not normalised.
    pub wall: Durations,
    /// The reference kernel's time before each push.
    pub kernel: Durations,
    calibrator: Calibrator,
    /// Camera runs so far; they cycle through the cameras.
    pub runs: usize,
}

impl SequentialPass {
    /// A pass that has run nothing yet.
    pub fn new() -> Self {
        Self {
            frame: Durations::new(),
            latency: Durations::new(),
            wall: Durations::new(),
            kernel: Durations::new(),
            calibrator: Calibrator::new(),
            runs: 0,
        }
    }

    /// Runs the next camera in the cycle and checks it against its
    /// reference. Allocates nothing but what the pipeline does.
    pub fn run_next(
        &mut self,
        config: &EbbiotConfig,
        cameras: &[Camera],
        expected: &[Vec<u64>],
        out: &mut crate::report::Outcome,
    ) {
        let c = self.runs % cameras.len();
        let camera = &cameras[c];
        let mut check = StreamCheck::new(&expected[c]);
        let mut pipeline = EbbiotPipeline::new(config.clone());
        for k in 0..camera.frames {
            let kernel = self.calibrator.time();
            let call = Instant::now();
            let frames = pipeline.push(camera.window(k));
            let took = call.elapsed();
            self.kernel.record_ns(kernel.as_nanos() as u64);
            for _ in &frames {
                let share = took / frames.len() as u32;
                self.frame.record_ns(Calibrator::normalise_ns(share, kernel));
                self.latency.record_ns(Calibrator::normalise_ns(took, kernel));
                self.wall.record_ns(share.as_nanos() as u64);
            }
            check.frames(&frames);
        }
        check.frames(&pipeline.finish(camera.span_us()));
        check.end(out);
        self.runs += 1;
    }

    /// Frames per second of normalised push time: every frame's cost
    /// counts, the heavy ones too.
    pub fn frames_per_s(&self) -> f64 {
        crate::stats::ratio(1e6, self.frame.mean_us())
    }
}

/// Logical op counts per frame `[ebbi, median, rpn]` of a pipeline
/// (`Pipeline::ops_per_frame`; the RPN figure includes ROE, as in Eq. 5).
pub fn block_ops(pipeline: &EbbiotPipeline) -> [f64; 3] {
    let ops = pipeline.ops_per_frame().expect("pipeline has processed frames");
    [ops.ebbi, ops.median, ops.rpn].map(|c| c.total() as f64)
}

//! The traced core pass: the benchmark drives the paper's blocks itself
//! (EBBI → median → RPN → ROE → tracker), timing each call, and rebuilds
//! the `FrameResult` exactly as `Pipeline::process_frame` does so the
//! traced output can be checked bit for bit against the untraced run.

use std::hint::black_box;
use std::time::Instant;

use ebbiot::core::{
    EbbiotConfig, EbbiotPipeline, FrameInput, FrameResult, OverlapTracker, RegionOfExclusion,
    RegionProposalNetwork, Tracker,
};
use ebbiot::events::{Event, OpsCounter};
use ebbiot::frame::{BinaryImage, BoundingBox, CountImage, EbbiAccumulator, MedianFilter};

use crate::input::{digest, FRAME_US};
use crate::stats::{mean, median, ratio};

/// What one traced frame cost and contained.
#[derive(Debug, Clone, Copy, Default)]
pub struct FrameTrace {
    /// Block times in microseconds: `[ebbi, median, rpn, roe, tracker]`.
    pub blocks_us: [f64; 5],
    /// A standalone `CountImage::downsample` of the denoised frame (the
    /// RPN's first step, timed again on its own; not part of the chain).
    pub downsample_us: f64,
    /// Set pixels of the EBBI over all pixels.
    pub fill: f64,
    /// Whether the frame is empty after the median filter.
    pub empty: bool,
    /// Wall time of the chain for this frame (without the downsample).
    pub wall_us: f64,
    /// Proposals after the ROE.
    pub proposals: usize,
    /// Live (confirmed or provisional) tracks after the step.
    pub live_tracks: usize,
}

/// The block chain of one camera.
pub struct BlockChain {
    accumulator: EbbiAccumulator,
    median: MedianFilter,
    rpn: RegionProposalNetwork,
    roe: RegionOfExclusion,
    tracker: OverlapTracker,
    ebbi: BinaryImage,
    denoised: BinaryImage,
    proposals: Vec<BoundingBox>,
    roe_ops: OpsCounter,
    probe_ops: OpsCounter,
    scale: (u16, u16),
    next_index: usize,
}

impl BlockChain {
    /// The chain `EbbiotPipeline::new(config)` runs.
    pub fn new(config: &EbbiotConfig) -> Self {
        assert_eq!(config.frame_us, FRAME_US, "the benchmark windows at the paper's tF");
        Self {
            accumulator: EbbiAccumulator::new(config.geometry),
            median: MedianFilter::new(config.median_patch),
            rpn: RegionProposalNetwork::new(config.rpn),
            roe: config.roe.clone(),
            tracker: OverlapTracker::new(config.geometry, config.ot),
            ebbi: BinaryImage::new(config.geometry),
            denoised: BinaryImage::new(config.geometry),
            proposals: Vec::new(),
            roe_ops: OpsCounter::new(),
            probe_ops: OpsCounter::new(),
            scale: (config.rpn.s1, config.rpn.s2),
            next_index: 0,
        }
    }

    /// Runs one window through the chain, recording its wall time in
    /// `trace`. With `TRACED`, each block is timed and the frame's
    /// content recorded too; without, the same calls run between just
    /// the two wall-time reads (the baseline for the tracing overhead).
    pub fn step<const TRACED: bool>(
        &mut self,
        events: &[Event],
        trace: &mut FrameTrace,
    ) -> FrameResult {
        let started = Instant::now();
        let mut lap = started;
        let mut split = |slot: &mut f64| {
            if TRACED {
                let now = Instant::now();
                *slot = crate::stats::us(now - lap);
                lap = now;
            }
        };
        let mut blocks = [0.0; 5];

        self.accumulator.accumulate_all(events);
        self.accumulator.readout_into(&mut self.ebbi);
        split(&mut blocks[0]);
        self.median.apply_into(&self.ebbi, &mut self.denoised);
        split(&mut blocks[1]);
        let raw = self.rpn.propose(&self.denoised);
        split(&mut blocks[2]);
        self.roe.filter_into(&raw, &mut self.proposals, &mut self.roe_ops);
        split(&mut blocks[3]);
        let index = self.next_index;
        self.next_index += 1;
        let t_start = index as u64 * FRAME_US;
        let input =
            FrameInput { index, t_start, duration: FRAME_US, events, proposals: &self.proposals };
        let tracks = Tracker::step(&mut self.tracker, &input);
        split(&mut blocks[4]);
        trace.wall_us = crate::stats::us(started.elapsed());

        if TRACED {
            let probe = Instant::now();
            black_box(CountImage::downsample(
                &self.denoised,
                self.scale.0,
                self.scale.1,
                &mut self.probe_ops,
            ));
            let pixels = f64::from(self.ebbi.width()) * f64::from(self.ebbi.height());
            *trace = FrameTrace {
                blocks_us: blocks,
                downsample_us: crate::stats::us(probe.elapsed()),
                wall_us: trace.wall_us,
                fill: self.ebbi.count_ones() as f64 / pixels,
                empty: self.denoised.count_ones() == 0,
                proposals: self.proposals.len(),
                live_tracks: Tracker::active_count(&self.tracker),
            };
        }
        FrameResult {
            index,
            t_start,
            duration: FRAME_US,
            tracks,
            num_proposals: self.proposals.len(),
            num_events: events.len(),
        }
    }
}

/// Frames per turn of the interleaved core pass.
const TURN_FRAMES: usize = 32;

/// The traced core pass: three lanes over the same windows, interleaved
/// a few dozen frames at a time (in rotating order) so that the host's
/// speed drifts, which last seconds, hit all three alike:
///
/// * `push` — an untraced `EbbiotPipeline`, one `Pipeline::push` per
///   readout, timed per call;
/// * `plain` — a [`BlockChain`] without block timers;
/// * `traced` — a [`BlockChain`] timing every block.
pub struct CorePass {
    /// Untraced push time per frame (NaN for frames `finish` delivered).
    pub push_us: Vec<f64>,
    /// Per-frame traces of the traced lane.
    pub traces: Vec<FrameTrace>,
    /// Summed per-frame wall time of the plain and traced lanes (s).
    pub plain_s: f64,
    /// See `plain_s`.
    pub traced_s: f64,
    /// Logical ops per frame `[ebbi, median, rpn]` of the push lane
    /// (`Pipeline::ops_per_frame`, weighted by frames).
    pub block_ops: [f64; 3],
}

/// Runs the core pass over `frames[c]` windows of each camera `c`, where
/// `windows(c, k, buf)` yields window `k` of camera `c`, and checks all
/// three lanes against `expected` (the flat concatenation of every
/// camera's reference digests).
pub fn core_pass(
    out: &mut crate::report::Outcome,
    config: &EbbiotConfig,
    frames: &[usize],
    expected: &[u64],
    mut windows: impl FnMut(usize, usize, &mut Vec<Event>),
) -> CorePass {
    let (mut push_digests, mut plain_digests, mut traced_digests) =
        (Vec::new(), Vec::new(), Vec::new());
    let mut pass = CorePass {
        push_us: Vec::new(),
        traces: Vec::new(),
        plain_s: 0.0,
        traced_s: 0.0,
        block_ops: [0.0; 3],
    };
    let mut turn: Vec<Vec<Event>> = vec![Vec::new(); TURN_FRAMES];
    let mut trace = FrameTrace::default();
    for (c, &n) in frames.iter().enumerate() {
        let mut pipeline = EbbiotPipeline::new(config.clone());
        let (mut plain, mut traced) = (BlockChain::new(config), BlockChain::new(config));
        for (t, first) in (0..n).step_by(TURN_FRAMES).enumerate() {
            let len = TURN_FRAMES.min(n - first);
            for (i, buf) in turn[..len].iter_mut().enumerate() {
                windows(c, first + i, buf);
            }
            for lane in (0..3).map(|l| (l + t) % 3) {
                for buf in &turn[..len] {
                    match lane {
                        0 => {
                            let started = Instant::now();
                            let delivered = pipeline.push(buf);
                            let us = crate::stats::us(started.elapsed());
                            for frame in &delivered {
                                pass.push_us.push(us / delivered.len() as f64);
                                push_digests.push(digest(frame));
                            }
                        }
                        1 => {
                            plain_digests.push(digest(&plain.step::<false>(buf, &mut trace)));
                            pass.plain_s += trace.wall_us / 1e6;
                        }
                        _ => {
                            traced_digests.push(digest(&traced.step::<true>(buf, &mut trace)));
                            pass.traced_s += trace.wall_us / 1e6;
                            pass.traces.push(trace);
                        }
                    }
                }
            }
        }
        for frame in pipeline.finish(n as u64 * FRAME_US) {
            pass.push_us.push(f64::NAN);
            push_digests.push(digest(&frame));
        }
        for (sum, block) in pass.block_ops.iter_mut().zip(crate::input::block_ops(&pipeline)) {
            *sum += block * n as f64;
        }
    }
    let total: usize = frames.iter().sum();
    pass.block_ops = pass.block_ops.map(|ops| ops / total as f64);
    for digests in [&push_digests, &plain_digests, &traced_digests] {
        out.check(digests, expected);
    }
    pass
}

/// Sets the `core.*`, `frame.downsample` and `trace.*` metrics from a
/// [`CorePass`].
pub fn core_metrics(metrics: &mut crate::report::Metrics, pass: &CorePass) {
    let t = &pass.traces;
    let per_frame = |f: fn(&FrameTrace) -> f64| t.iter().map(f).collect::<Vec<f64>>();
    let blocks: [f64; 5] =
        std::array::from_fn(|i| mean(&t.iter().map(|f| f.blocks_us[i]).collect::<Vec<_>>()));
    let push_mean = mean(&pass.push_us);
    let window = push_mean - blocks.iter().sum::<f64>();
    let names = [
        "core.ebbi.us_per_frame",
        "core.median.us_per_frame",
        "core.rpn.us_per_frame",
        "core.roe.us_per_frame",
        "core.tracker.us_per_frame",
    ];
    for (name, value) in names.into_iter().zip(blocks) {
        metrics.set(name, value);
    }
    metrics.set("core.window.us_per_frame", window);
    metrics.set("frame.downsample.us_per_frame", mean(&per_frame(|f| f.downsample_us)));

    let empty_us: Vec<f64> =
        t.iter().zip(&pass.push_us).filter(|(f, _)| f.empty).map(|(_, &us)| us).collect();
    metrics.set("core.empty_frame_share", ratio(empty_us.len() as f64, t.len() as f64));
    metrics.set("core.empty_frame.us_p50", median(&empty_us));
    metrics.set("core.fill_ratio_mean", mean(&per_frame(|f| f.fill)));
    metrics.set("core.proposals_per_frame", mean(&per_frame(|f| f.proposals as f64)));
    metrics.set("core.live_tracks_per_frame", mean(&per_frame(|f| f.live_tracks as f64)));

    // Eq. 5 charges the ROE to the RPN, so its time joins the RPN's.
    let block_us = [blocks[0], blocks[1], blocks[2] + blocks[3]];
    let ops_names =
        ["core.ebbi.ops_per_frame", "core.median.ops_per_frame", "core.rpn.ops_per_frame"];
    let ns_names = ["core.ebbi.ns_per_op", "core.median.ns_per_op", "core.rpn.ns_per_op"];
    for i in 0..3 {
        metrics.set(ops_names[i], pass.block_ops[i]);
        metrics.set(ns_names[i], ratio(block_us[i] * 1e3, pass.block_ops[i]));
    }
    metrics.set("core.host_duty_cycle", push_mean / FRAME_US as f64);
    metrics.set("trace.overhead_pct", 100.0 * (pass.traced_s / pass.plain_s - 1.0));

    // The waterfall: each frame's traced block times plus the mean
    // window remainder. By construction its mean is the untraced mean
    // push time; its median must match the untraced median within the
    // stated tolerance, or tracing has distorted where the time goes.
    let waterfall: Vec<f64> = t.iter().map(|f| f.blocks_us.iter().sum::<f64>() + window).collect();
    let untraced_p50 = median(&pass.push_us);
    let gap_pct = 100.0 * (median(&waterfall) - untraced_p50) / untraced_p50;
    metrics.set("trace.waterfall_gap_pct", gap_pct);
}

/// Fails the run unless its waterfall reconciles: |`trace.waterfall_gap_pct`|
/// within [`crate::report::WATERFALL_TOLERANCE_PCT`]. Meant for dense
/// input, where per-frame times are unimodal: where many frames are
/// empty and cheap, the median of a bimodal distribution with the mean
/// remainder added to each frame is no reconciliation.
pub fn require_reconciled(out: &mut crate::report::Outcome) {
    let gap_pct = out.metrics.get("trace.waterfall_gap_pct");
    let tolerance = crate::report::WATERFALL_TOLERANCE_PCT;
    if gap_pct.abs() > tolerance {
        out.errors.push(format!(
            "the waterfall does not reconcile: gap {gap_pct:.1}%, tolerance {tolerance}%"
        ));
    }
}

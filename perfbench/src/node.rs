//! `node-eng`: the paper's IoVT sensor node. One `EbbiotPipeline`, one
//! thread, closed loop: each call pushes the next 66 ms readout of an
//! ENG recording (busy site, three lanes, foliage under the ROE); 24
//! recordings of 7.5 s take turns, as sessions, for the run.
//! All the time goes to the core and frame layers; no engine, store or
//! server is involved.

use std::hint::black_box;
use std::time::Instant;

use ebbiot::core::{EbbiotConfig, EbbiotPipeline};
use ebbiot::sim::DatasetPreset;

use crate::calib::Calibrator;
use crate::chain::{core_metrics, core_pass, require_reconciled};
use crate::input::{pipeline_config, reference, Camera, SequentialPass};
use crate::report::Outcome;
use crate::stats::{mean, median};
use crate::Opts;

/// Pipeline constructions per set-up sample.
const SETUP_BATCH: usize = 32;

/// One set-up sample: the median of a batch of `EbbiotPipeline::new`
/// calls, each timed right after a run of the reference kernel and
/// scaled to the host's full speed, as pushes are (see `calib`).
fn setup_sample(config: &EbbiotConfig, calibrator: &mut Calibrator) -> f64 {
    let mut scaled_ns = [0; SETUP_BATCH];
    for slot in &mut scaled_ns {
        let kernel = calibrator.time();
        let started = Instant::now();
        black_box(EbbiotPipeline::new(black_box(config.clone())));
        *slot = Calibrator::normalise_ns(started.elapsed(), kernel);
    }
    scaled_ns.sort_unstable();
    scaled_ns[SETUP_BATCH / 2] as f64 / 1e9
}

pub fn run(opts: &Opts) -> Outcome {
    let cameras: Vec<Camera> = (0..opts.size.node_cameras)
        .map(|c| Camera::generate(DatasetPreset::Eng, opts.seed, c, opts.size.node_frames))
        .collect();
    let config = pipeline_config(DatasetPreset::Eng);
    let expected: Vec<Vec<u64>> = cameras.iter().map(|c| reference(&config, c)).collect();
    let mut out = Outcome::default();

    // The recordings are pushed in turn, again and again, each time as a
    // fresh session (a new pipeline, ended by `finish`), in whole cycles
    // until the run time is spent, so that every recording weighs the
    // same. Before each session one set-up sample is taken, so that the
    // samples are spread across the run; they are not part of the timed
    // phase. Each session's memory is the heap it adds at its peak; that
    // follows the session's busiest window (the pipeline buffers a
    // window's events), so the run reports the mean over many recordings.
    let mut sequential = SequentialPass::new();
    let mut calibrator = Calibrator::new();
    let (mut setup, mut session_heap) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while !sequential.runs.is_multiple_of(cameras.len())
        || started.elapsed().as_secs_f64() < opts.seconds
    {
        setup.push(setup_sample(&config, &mut calibrator));
        crate::heap::open();
        sequential.run_next(&config, &cameras, &expected, &mut out);
        session_heap.push(crate::heap::close_peak_mb());
    }

    let m = &mut out.metrics;
    m.set("setup_s", median(&setup));
    m.set("frames_per_s", sequential.frames_per_s());
    m.set("frame_us_p50", sequential.frame.percentile_us(50.0));
    m.set("frame_us_p99", sequential.frame.percentile_us(99.0));
    m.set("frame.wall_us_p50", sequential.wall.percentile_us(50.0));
    m.set("host.kernel_us_p50", sequential.kernel.percentile_us(50.0));
    m.set("frame_latency_ms_p50", sequential.latency.percentile_us(50.0) / 1e3);
    m.set("frame_latency_ms_p99", sequential.latency.percentile_us(99.0) / 1e3);
    m.set("peak_heap_mb", mean(&session_heap));
    out.samples = vec![
        ("setup", setup.len() as u64),
        ("frames", sequential.frame.len()),
        ("sessions", session_heap.len() as u64),
    ];

    if opts.trace {
        let window = |c: usize, k: usize, buf: &mut Vec<_>| {
            buf.clear();
            buf.extend_from_slice(cameras[c].window(k));
        };
        let lanes: Vec<usize> = cameras.iter().map(|c| c.frames).collect();
        let pass = core_pass(&mut out, &config, &lanes, &expected.concat(), window);
        core_metrics(&mut out.metrics, &pass);
        require_reconciled(&mut out);
        crate::probes::store_codec(&mut out.metrics, &cameras, config.geometry);
        let sessions: Vec<Vec<u8>> = cameras
            .iter()
            .map(|c| {
                crate::ingest::encode_session(c, config.geometry, crate::ingest::SLICE_US).bytes
            })
            .collect();
        crate::probes::server_decode(&mut out.metrics, &sessions, config.geometry);
        let frames = EbbiotPipeline::new(config.clone())
            .process_recording(&cameras[0].events, cameras[0].span_us());
        crate::probes::tracks_encode(&mut out.metrics, &frames);
        let m = &mut out.metrics;
        m.set("engine.sequential.frames_per_s", m.get("frames_per_s"));
        crate::not_on_path(m, crate::ENGINE_PATH);
        crate::not_on_path(m, crate::REPLAY_PATH);
        crate::not_on_path(m, crate::INGEST_PATH);
        out.samples.push(("traced_frames", lanes.iter().sum::<usize>() as u64));
    }
    out
}

//! `replay-lt4`: batch re-analysis of an archive. Many more LT4 cameras
//! than workers are spooled to an on-disk `FleetStore` during set-up,
//! then replayed at `ReplayMode::MaxSpeed` by `Replayer::replay_engine`
//! (streamed `FleetStore::readers`) into an `Engine` with one worker per
//! core and two-chunk stream queues, round after round until the run
//! time is spent. LT4 is the quiet
//! site with many empty frames; its replay is bound by the engine and
//! the front-end rather than by the single producer thread (ENG replay
//! is producer-bound, which would hide engine changes).

use std::time::Instant;

use ebbiot::core::EbbiotPipeline;
use ebbiot::engine::{Engine, EngineConfig, EngineOutput, StreamId};
use ebbiot::sim::DatasetPreset;
use ebbiot::store::{FleetStore, ReplayMode, Replayer, StoreOptions, StoredCamera};

use crate::calib;
use crate::chain::{core_metrics, core_pass};
use crate::input::{digest, pipeline_config, reference, Camera, SequentialPass};
use crate::report::{Metrics, Outcome};
use crate::stats::{available_parallelism, median, percentile, ratio, WorkDir};
use crate::Opts;

/// Chunks of one stream the engine may hold, queued or in processing.
const QUEUE_CHUNKS: usize = 2;

/// Camera runs of the single-thread baseline before each round.
const BASELINE_RUNS_PER_ROUND: usize = 4;

pub fn run(opts: &Opts) -> Outcome {
    let config = pipeline_config(DatasetPreset::Lt4);
    let cameras: Vec<Camera> = (0..opts.size.replay_cameras)
        .map(|c| Camera::generate(DatasetPreset::Lt4, opts.seed, c, opts.size.replay_frames))
        .collect();
    let frames: Vec<usize> = cameras.iter().map(|c| c.frames).collect();
    let expected: Vec<Vec<u64>> = cameras.iter().map(|c| reference(&config, c)).collect();
    let mut out = Outcome::default();

    // Set-up: spool the archive, open it and its readers, build the
    // engine — several times, reporting the median.
    let work = WorkDir::new("replay");
    let workers = available_parallelism();
    let streams = cameras.len();
    // Back-pressure holds at most `QUEUE_CHUNKS` chunks of a stream in
    // the engine, as a memory-bounded batch job would. With deeper queues
    // the producer decodes much of the archive ahead of the workers, and
    // how much is a race between it and the workers for the host's cores.
    let build_engine = || {
        let pipelines = (0..streams).map(|_| EbbiotPipeline::new(config.clone())).collect();
        let config =
            EngineConfig { queue_capacity: QUEUE_CHUNKS, ..EngineConfig::with_workers(workers) };
        Engine::new(config, pipelines)
    };
    let stored: Vec<StoredCamera<'_>> = cameras
        .iter()
        .map(|c| StoredCamera {
            name: &c.name,
            geometry: config.geometry,
            span_us: c.span_us(),
            events: &c.events,
        })
        .collect();
    let mut setup = Vec::new();
    let mut store = None;
    for rep in 0..opts.size.replay_setups {
        let dir = work.join(&format!("archive{rep}"));
        let started = Instant::now();
        FleetStore::write(&dir, &stored, StoreOptions::default()).expect("spool the archive");
        let opened = FleetStore::open(&dir).expect("open the archive");
        let readers = opened.readers().expect("open archive readers");
        let engine = build_engine();
        setup.push(started.elapsed().as_secs_f64());
        drop(readers);
        let _ = engine.join();
        store = Some(opened);
    }
    let store = store.expect("at least one set-up");
    let replayer = Replayer::new(ReplayMode::MaxSpeed);
    let (mut round_s, mut round_heap, mut delivered) = (Vec::new(), Vec::new(), 0);
    // Before each round, a few cameras of the single-thread baseline,
    // which cycles through all of them. Its pushes are paired with runs of
    // the reference kernel (see `calib`); a round's threads cannot be, so
    // each round is scaled to the host's full speed by the kernel's mean
    // time over the baseline just before it. On a shared host, ten runs'
    // wall-clock `frames_per_s` spread 0.12 and 0.22 in two sets (IQR over
    // median); scaled, 0.07.
    let mut sequential = SequentialPass::new();
    let started = Instant::now();
    while round_s.is_empty() || started.elapsed().as_secs_f64() < opts.seconds {
        let before = sequential.kernel.totals();
        for _ in 0..BASELINE_RUNS_PER_ROUND {
            sequential.run_next(&config, &cameras, &expected, &mut out);
        }
        let (samples, sum_ns) = sequential.kernel.totals();
        let kernel_ns = (sum_ns - before.1) / (samples - before.0) as f64;
        // Each round's memory: the heap its readers, engine and output add.
        crate::heap::open();
        let mut readers = store.readers().expect("open archive readers");
        let engine = build_engine();
        let round = Instant::now();
        let replay = replayer.replay_engine(&mut readers, engine).expect("replay the archive");
        let seconds = round.elapsed().as_secs_f64();
        round_heap.push(crate::heap::close_peak_mb());
        delivered += check_output(&mut out, &replay.output, &expected);
        round_s.push(seconds * calib::REFERENCE_NS / kernel_ns);
    }

    // Every frame of a round is delivered when the round's engine joins;
    // the whole archive was due when the round started.
    let round_ms: Vec<f64> = round_s.iter().map(|s| s * 1e3).collect();
    let m = &mut out.metrics;
    m.set("setup_s", median(&setup));
    m.set("frames_per_s", delivered as f64 / round_s.iter().sum::<f64>());
    m.set("frame_us_p50", sequential.frame.percentile_us(50.0));
    m.set("frame_us_p99", sequential.frame.percentile_us(99.0));
    m.set("frame.wall_us_p50", sequential.wall.percentile_us(50.0));
    m.set("host.kernel_us_p50", sequential.kernel.percentile_us(50.0));
    m.set("frame_latency_ms_p50", percentile(&round_ms, 50.0));
    m.set("frame_latency_ms_p99", percentile(&round_ms, 99.0));
    m.set("peak_heap_mb", median(&round_heap));
    out.samples = vec![
        ("setup", setup.len() as u64),
        ("rounds", round_s.len() as u64),
        ("frames_per_round", frames.iter().sum::<usize>() as u64),
        ("sequential_frames", sequential.frame.len()),
    ];

    if opts.trace {
        traced_round(&mut out, &store, build_engine(), &expected);
        let m = &mut out.metrics;
        let sequential_fps = sequential.frames_per_s();
        m.set("engine.sequential.frames_per_s", sequential_fps);
        m.set(
            "engine.parallel_efficiency",
            ratio(m.get("frames_per_s"), workers.min(streams) as f64 * sequential_fps),
        );
        m.set(
            "store.bytes_per_event",
            ratio(store.total_bytes() as f64, store.total_events() as f64),
        );

        let window = |c: usize, k: usize, buf: &mut Vec<_>| {
            buf.clear();
            buf.extend_from_slice(cameras[c].window(k));
        };
        let pass = core_pass(&mut out, &config, &frames, &expected.concat(), window);
        core_metrics(&mut out.metrics, &pass);

        let sessions: Vec<Vec<u8>> = cameras
            .iter()
            .map(|c| {
                crate::ingest::encode_session(c, config.geometry, crate::ingest::SLICE_US).bytes
            })
            .collect();
        crate::probes::server_decode(&mut out.metrics, &sessions, config.geometry);
        let reference_frames = EbbiotPipeline::new(config.clone())
            .process_recording(&cameras[0].events, cameras[0].span_us());
        crate::probes::tracks_encode(&mut out.metrics, &reference_frames);
        crate::not_on_path(&mut out.metrics, crate::INGEST_PATH);
    }
    out
}

/// Checks a round's per-stream output against the reference; returns the
/// frames delivered.
fn check_output(out: &mut Outcome, output: &EngineOutput, expected: &[Vec<u64>]) -> usize {
    let mut delivered = 0;
    for (i, want) in expected.iter().enumerate() {
        let got: Vec<u64> =
            output.streams.get(i).map_or(&[][..], Vec::as_slice).iter().map(digest).collect();
        delivered += got.len();
        out.check(&got, want);
    }
    delivered
}

/// One replay round driven by the benchmark's own copy of the
/// `Replayer::replay_engine` loop (earliest pending chunk first, decoded
/// straight into the `Vec` the engine takes), timing each
/// `ChunkReader::next_chunk_into` and `Engine::push` and the final
/// `Engine::join`. Sets the `store.*` read metrics, the `engine.*`
/// metrics and checks the output against the reference.
fn traced_round(
    out: &mut Outcome,
    store: &FleetStore,
    engine: Engine<ebbiot::core::OverlapTracker>,
    expected: &[Vec<u64>],
) {
    let mut readers = store.readers().expect("open archive readers");
    let (mut read_s, mut push_s, mut chunks, mut events) = (0.0, 0.0, 0u64, 0u64);
    let started = Instant::now();
    while let Some((stream, _)) = readers
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.peek_meta().map(|m| (i, m.t_first)))
        .min_by_key(|&(i, t)| (t, i))
    {
        let mut chunk = Vec::new();
        let read = Instant::now();
        readers[stream].next_chunk_into(&mut chunk).expect("read the archive");
        let push = Instant::now();
        read_s += (push - read).as_secs_f64();
        chunks += 1;
        events += chunk.len() as u64;
        engine.push(StreamId(stream), chunk);
        push_s += push.elapsed().as_secs_f64();
    }
    for (i, reader) in readers.iter().enumerate() {
        engine.finish_stream(StreamId(i), reader.span_us());
    }
    let producer_s = started.elapsed().as_secs_f64();
    let join = Instant::now();
    let output = engine.join();
    let join_ms = join.elapsed().as_secs_f64() * 1e3;
    let _ = check_output(out, &output, expected);

    let m = &mut out.metrics;
    m.set("store.read.us_per_chunk", ratio(read_s * 1e6, chunks as f64));
    m.set("store.decode.mev_per_s", ratio(events as f64 / 1e6, read_s));
    m.set("store.producer_busy_share", ratio(read_s, producer_s));
    m.set("engine.push_block.us_per_chunk", ratio(push_s * 1e6, chunks as f64));
    m.set("engine.join.ms", join_ms);
    engine_metrics(m, &output.snapshot);
    out.samples.push(("traced_chunks", chunks));
}

/// The `engine.*` metrics read from an engine's final `Snapshot`.
pub fn engine_metrics(m: &mut Metrics, snapshot: &ebbiot::engine::Snapshot) {
    let sum = |f: fn(&ebbiot::engine::WorkerSnapshot) -> u64| {
        snapshot.workers.iter().map(f).sum::<u64>() as f64
    };
    let wall = sum(|w| w.wall_ns);
    m.set("engine.worker_busy_share", ratio(sum(|w| w.busy_ns), wall));
    m.set("engine.worker_acquire_share", ratio(sum(|w| w.acquire_ns), wall));
    m.set("engine.worker_idle_share", ratio(sum(|w| w.idle_ns), wall));
    let chunks: u64 = snapshot.streams.iter().map(|s| s.chunks_in).sum();
    m.set(
        "engine.queue_wait.us_per_chunk",
        ratio(snapshot.queue_wait_ns() as f64 / 1e3, chunks as f64),
    );
    m.set("engine.batch_chunks_mean", snapshot.scheduler.batch_mean);
    m.set("engine.steals", snapshot.scheduler.steals as f64);
    m.set("engine.migrations", snapshot.streams.iter().map(|s| s.migrations).sum::<u64>() as f64);
    m.set("engine.queue_high_water_max", snapshot.max_queue_high_water() as f64);
}

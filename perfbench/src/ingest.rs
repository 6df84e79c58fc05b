//! `ingest-eng`: EBWP over loopback TCP into an `IngestServer` (one
//! engine worker per core, archive tee on, so the store writes here
//! while `replay-lt4` reads). One connection per core, each carrying one
//! distinct ENG camera session encoded during set-up. The load is an
//! open loop: EVENTS chunks are short fixed slices of sensor time, far
//! below one frame, sent when the slice is due at a fixed sensor-time
//! speed-up whether or not the server keeps up. Per-chunk costs (framing,
//! decode, engine hand-off) dominate. A dedicated reader per connection
//! timestamps each TRACKS frame on receipt.
//!
//! The server returns frames only in its reply to a later EVENTS frame
//! (it drains results right after pushing a chunk), so a frame's latency
//! includes waiting for the next chunk: `server.drain_lag_chunks_mean`
//! shows how many chunks that took.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ebbiot::core::EbbiotPipeline;
use ebbiot::events::SensorGeometry;
use ebbiot::server::{
    read_frame, write_frame, EventsChunk, Frame, Hello, IngestServer, ServerConfig,
};
use ebbiot::sim::DatasetPreset;
use ebbiot::store::FleetStore;

use crate::chain::{core_metrics, core_pass};
use crate::input::{digest, pipeline_config, reference, Camera, SequentialPass, FRAME_US};
use crate::report::Outcome;
use crate::stats::{available_parallelism, mean, median, percentile, ratio, WorkDir};
use crate::Opts;

/// Sensor time per EVENTS chunk (µs): a sensor packet, 1/16 of a frame.
pub const SLICE_US: u64 = 4_000;

/// Sensor seconds sent per wall second on every connection: a chunk
/// every 2 ms. The server answers with a frame only after a later chunk,
/// so a frame's latency is about one chunk period plus the server's
/// work. At 10× (a chunk every 0.4 ms) that work, slowed by other
/// tenants of a shared host, outran the period in busy minutes, frames
/// waited 3–5 chunks, and the median latency moved between 0.5 and
/// 2.1 ms with the host rather than the program.
pub const SPEEDUP: f64 = 2.0;

/// Connections at most (one per core up to this many).
const MAX_CONNECTIONS: usize = 4;

/// One client session, framed for the wire.
pub struct EncodedSession {
    /// HELLO, then every EVENTS frame, then FINISH.
    pub bytes: Vec<u8>,
    /// End of the HELLO frame in `bytes`.
    hello_end: usize,
    /// Byte range of each EVENTS frame, in send order; FINISH follows.
    chunks: Vec<(usize, usize)>,
    /// Sensor time (µs) at which each chunk is due: the end of its slice.
    due_us: Vec<u64>,
    /// For each frame, the chunk whose events close its window (the
    /// first chunk with a later window's event), or `chunks.len()` for
    /// frames only FINISH closes.
    closing: Vec<usize>,
    /// The session span (µs).
    span_us: u64,
}

/// Frames `camera` as a client session of `slice_us` slices.
pub fn encode_session(camera: &Camera, geometry: SensorGeometry, slice_us: u64) -> EncodedSession {
    let mut bytes = Vec::new();
    let hello = Hello { geometry, span_us: camera.span_us(), name: camera.name.clone() };
    write_frame(&mut bytes, &Frame::Hello(hello)).expect("write to memory");
    let hello_end = bytes.len();
    let (mut chunks, mut due_us, mut closing) = (Vec::new(), Vec::new(), Vec::new());
    let events = &camera.events;
    let mut i = 0;
    for slice_end in (1..=camera.span_us().div_ceil(slice_us)).map(|s| s * slice_us) {
        let start = i;
        while i < events.len() && events[i].t < slice_end {
            i += 1;
        }
        if i == start {
            continue; // EVENTS chunks are never empty: nothing to send
        }
        let begin = bytes.len();
        write_frame(&mut bytes, &Frame::Events(EventsChunk::encode(&events[start..i])))
            .expect("write to memory");
        let emitted = (events[i - 1].t / FRAME_US) as usize;
        closing.resize(emitted.max(closing.len()), chunks.len());
        chunks.push((begin, bytes.len()));
        due_us.push(slice_end);
    }
    closing.resize(camera.frames, chunks.len());
    write_frame(&mut bytes, &Frame::Finish { span_us: camera.span_us() }).expect("write to memory");
    EncodedSession { bytes, hello_end, chunks, due_us, closing, span_us: camera.span_us() }
}

/// What one connection's client saw.
struct ClientRun {
    /// Per frame index: receipt time and chunks sent by then.
    received: Vec<Option<(Instant, usize)>>,
    /// Digests in delivery order.
    digests: Vec<u64>,
    /// TRACKS frames received.
    replies: u64,
    /// How late each chunk was sent after it was due (ms).
    send_lag_ms: Vec<f64>,
    /// Last receipt (FINISHED).
    done: Option<Instant>,
    /// A connection or server-reported error.
    error: Option<String>,
}

impl ClientRun {
    /// Room for everything `session` can deliver, so that the client's
    /// bookkeeping allocates nothing in the timed phase.
    fn for_session(session: &EncodedSession) -> Self {
        let frames = session.closing.len();
        ClientRun {
            received: vec![None; frames],
            digests: Vec::with_capacity(frames + 1),
            replies: 0,
            send_lag_ms: Vec::with_capacity(session.chunks.len() + 1),
            done: None,
            error: None,
        }
    }
}

pub fn run(opts: &Opts) -> Outcome {
    let config = pipeline_config(DatasetPreset::Eng);
    let connections = available_parallelism().min(MAX_CONNECTIONS);
    let frames = ((opts.seconds * SPEEDUP * 1e6) as u64).div_ceil(FRAME_US) as usize;
    let cameras: Vec<Camera> = (0..connections)
        .map(|c| Camera::generate(DatasetPreset::Eng, opts.seed, c, frames))
        .collect();
    let expected: Vec<Vec<u64>> = cameras.iter().map(|c| reference(&config, c)).collect();
    let sessions: Vec<EncodedSession> =
        cameras.iter().map(|c| encode_session(c, config.geometry, SLICE_US)).collect();
    let mut out = Outcome::default();

    // Set-up: bind the server, connect every client and open its
    // session with HELLO, until the engine has attached every stream. A
    // session attaches its stream while it handles HELLO, so the reply to
    // a FLUSH sent right behind it shows the attach is done; blocking on
    // that reply neither polls nor spins against the server's threads.
    let work = WorkDir::new("ingest");
    let factory_config = config.clone();
    let factory =
        Arc::new(move |_: &Hello| Ok(EbbiotPipeline::new(factory_config.clone()).boxed()));
    let open = |rep: usize| {
        let started = Instant::now();
        let server_config = ServerConfig {
            workers: available_parallelism(),
            archive_dir: Some(work.join(&format!("archive{rep}"))),
            ..ServerConfig::default()
        };
        let server = IngestServer::bind("127.0.0.1:0", server_config, factory.clone())
            .expect("bind the ingest server");
        let clients: Vec<TcpStream> = sessions
            .iter()
            .map(|s| {
                let mut c = TcpStream::connect(server.local_addr()).expect("connect to the server");
                c.set_nodelay(true).expect("set TCP_NODELAY");
                c.write_all(&s.bytes[..s.hello_end]).expect("send HELLO");
                write_frame(&mut c, &Frame::Flush).expect("send FLUSH");
                c
            })
            .collect();
        for mut client in &clients {
            match read_frame(&mut client) {
                Ok(Some(Frame::Tracks(frames))) if frames.is_empty() => {}
                other => panic!("the server answered FLUSH with {other:?}"),
            }
        }
        (server, clients, started.elapsed().as_secs_f64())
    };

    // The single-thread baseline, half as long as the open loop in all,
    // half of it before the loop and half after, so that it spans the
    // run. The set-up samples are spread across both halves, each server
    // closed again before the baseline resumes; one more set-up serves
    // the timed phase.
    let mut sequential = SequentialPass::new();
    let mut baseline_half = |samples: usize, setup: &mut Vec<f64>, out: &mut Outcome| {
        let (first, runs) = (setup.len(), sequential.runs);
        let seconds = opts.seconds / 4.0;
        let started = Instant::now();
        loop {
            let elapsed = started.elapsed().as_secs_f64();
            let due = first + (elapsed / seconds * samples as f64).ceil() as usize;
            while setup.len() < (first + samples).min(due.max(first + 1)) {
                let (server, clients, took) = open(setup.len());
                setup.push(took);
                close_idle(server, clients);
            }
            if sequential.runs >= runs + cameras.len() && elapsed >= seconds {
                break;
            }
            sequential.run_next(&config, &cameras, &expected, out);
        }
    };
    let setups = opts.size.ingest_setups;
    let mut setup = Vec::with_capacity(setups);
    baseline_half((setups - 1) / 2, &mut setup, &mut out);
    let timed = setup.len();
    let (server, clients, seconds) = open(timed);
    setup.push(seconds);
    let archive = work.join(&format!("archive{timed}"));

    let runs: Vec<ClientRun> = sessions.iter().map(ClientRun::for_session).collect();
    crate::heap::open();
    let start = Instant::now();
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(&sessions)
            .zip(runs)
            .map(|((connection, session), run)| {
                scope.spawn(move || drive(connection, session, start, run))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let peak_heap = crate::heap::close_peak_mb();
    let shutdown = Instant::now();
    let report = server.shutdown();
    let join_ms = shutdown.elapsed().as_secs_f64() * 1e3;
    baseline_half(setups - 1 - timed, &mut setup, &mut out);

    let (mut latency_ms, mut drain_lag, mut send_lag_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut delivered, mut replies, mut chunks) = (0usize, 0u64, 0usize);
    let mut end = start;
    for ((run, session), want) in runs.iter().zip(&sessions).zip(&expected) {
        out.check(&run.digests, want);
        if let Some(error) = &run.error {
            eprintln!("perfbench: ingest session failed: {error}");
        }
        for (k, received) in run.received.iter().enumerate() {
            let Some((at, sent)) = *received else { continue };
            let closing = session.closing[k];
            let due_us = session.due_us.get(closing).copied().unwrap_or(session.span_us);
            latency_ms.push(at.saturating_duration_since(due(start, due_us)).as_secs_f64() * 1e3);
            if closing < session.chunks.len() {
                drain_lag.push(sent.saturating_sub(closing + 1) as f64);
            }
        }
        delivered += run.digests.len();
        replies += run.replies;
        chunks += session.chunks.len();
        send_lag_ms.extend(&run.send_lag_ms);
        end = end.max(run.done.unwrap_or(end));
    }

    let m = &mut out.metrics;
    m.set("setup_s", median(&setup));
    m.set("frames_per_s", ratio(delivered as f64, (end - start).as_secs_f64()));
    m.set("frame_us_p50", sequential.frame.percentile_us(50.0));
    m.set("frame_us_p99", sequential.frame.percentile_us(99.0));
    m.set("frame.wall_us_p50", sequential.wall.percentile_us(50.0));
    m.set("host.kernel_us_p50", sequential.kernel.percentile_us(50.0));
    m.set("frame_latency_ms_p50", percentile(&latency_ms, 50.0));
    m.set("frame_latency_ms_p99", percentile(&latency_ms, 99.0));
    m.set("peak_heap_mb", peak_heap);
    out.samples = vec![
        ("setup", setup.len() as u64),
        ("connections", connections as u64),
        ("chunks", chunks as u64),
        ("frames", latency_ms.len() as u64),
        ("sequential_frames", sequential.frame.len()),
    ];

    if opts.trace {
        let m = &mut out.metrics;
        let errors = report.sessions.iter().filter(|s| s.error.is_some()).count();
        m.set("server.session_errors", errors as f64);
        m.set("server.drain_lag_chunks_mean", mean(&drain_lag));
        m.set("server.tracks_replies_per_chunk", ratio(replies as f64, chunks as f64));
        m.set("ingest.send_lag_ms_p99", percentile(&send_lag_ms, 99.0));
        let snapshot = &report.snapshot;
        crate::replay::engine_metrics(m, snapshot);
        // Producers push inside the server's session threads; what the
        // engine exposes of that call is the time spent blocked on a
        // full stream queue.
        let blocked_ns: u64 = snapshot.streams.iter().map(|s| s.producer_block_ns).sum();
        let engine_chunks: u64 = snapshot.streams.iter().map(|s| s.chunks_in).sum();
        m.set(
            "engine.push_block.us_per_chunk",
            ratio(blocked_ns as f64 / 1e3, engine_chunks as f64),
        );
        m.set("engine.join.ms", join_ms);
        let sequential_fps = sequential.frames_per_s();
        m.set("engine.sequential.frames_per_s", sequential_fps);
        // At most one worker per session runs at a time.
        m.set(
            "engine.parallel_efficiency",
            ratio(m.get("frames_per_s"), connections as f64 * sequential_fps),
        );

        let frame_counts: Vec<usize> = cameras.iter().map(|c| c.frames).collect();
        let window = |c: usize, k: usize, buf: &mut Vec<_>| {
            buf.clear();
            buf.extend_from_slice(cameras[c].window(k));
        };
        let pass = core_pass(&mut out, &config, &frame_counts, &expected.concat(), window);
        core_metrics(&mut out.metrics, &pass);

        crate::probes::store_codec(&mut out.metrics, &cameras, config.geometry);
        // The archive tee is the store's work here: its bytes per event.
        let archived = FleetStore::open(&archive).expect("open the session archive");
        out.metrics.set(
            "store.bytes_per_event",
            ratio(archived.total_bytes() as f64, archived.total_events() as f64),
        );
        let wire: Vec<Vec<u8>> = sessions.into_iter().map(|s| s.bytes).collect();
        crate::probes::server_decode(&mut out.metrics, &wire, config.geometry);
        let frames = EbbiotPipeline::new(config.clone())
            .process_recording(&cameras[0].events, cameras[0].span_us());
        crate::probes::tracks_encode(&mut out.metrics, &frames);
        crate::not_on_path(&mut out.metrics, crate::REPLAY_PATH);
    }
    out
}

/// The wall-clock instant sensor time `t_us` is due at.
fn due(start: Instant, t_us: u64) -> Instant {
    start + Duration::from_secs_f64(t_us as f64 / 1e6 / SPEEDUP)
}

/// Sends one session on its schedule while a reader thread collects the
/// server's replies into `run`.
fn drive(
    connection: TcpStream,
    session: &EncodedSession,
    start: Instant,
    mut run: ClientRun,
) -> ClientRun {
    let sent = AtomicUsize::new(0);
    let mut send_lag_ms = std::mem::take(&mut run.send_lag_ms);
    std::thread::scope(|scope| {
        let read_half = connection.try_clone().expect("clone the client socket");
        let sent = &sent;
        let reader = scope.spawn(move || receive(read_half, sent, run));
        let mut writer = &connection;
        let schedule = session.chunks.iter().zip(&session.due_us).map(|(&r, &d)| (r, d));
        let finish = (
            (session.chunks.last().map_or(session.hello_end, |c| c.1), session.bytes.len()),
            session.span_us,
        );
        for (j, ((begin, end), due_us)) in schedule.chain([finish]).enumerate() {
            let at = due(start, due_us);
            let now = Instant::now();
            if now < at {
                std::thread::sleep(at - now);
            }
            send_lag_ms.push(Instant::now().saturating_duration_since(at).as_secs_f64() * 1e3);
            if writer.write_all(&session.bytes[begin..end]).is_err() {
                break; // the reader reports why the server hung up
            }
            sent.store(j + 1, Ordering::Release);
        }
        let mut run = reader.join().expect("client reader panicked");
        run.send_lag_ms = send_lag_ms;
        run
    })
}

/// Reads replies into `run` until FINISHED, stamping each frame on
/// receipt.
fn receive(connection: TcpStream, sent: &AtomicUsize, mut run: ClientRun) -> ClientRun {
    let mut reader = BufReader::new(connection);
    loop {
        match read_frame(&mut reader) {
            Ok(Some(Frame::Tracks(frames))) => {
                let at = Instant::now();
                let chunks_sent = sent.load(Ordering::Acquire);
                run.replies += 1;
                for frame in &frames {
                    if let Some(slot) = run.received.get_mut(frame.index) {
                        *slot = Some((at, chunks_sent));
                    }
                    run.digests.push(digest(frame));
                }
            }
            Ok(Some(Frame::Finished(_))) => {
                run.done = Some(Instant::now());
                return run;
            }
            Ok(Some(Frame::Error(message))) => {
                run.error = Some(message);
                return run;
            }
            Ok(Some(_)) => {
                run.error = Some("unexpected client-bound frame".into());
                return run;
            }
            Ok(None) => {
                run.error = Some("connection closed before FINISHED".into());
                return run;
            }
            Err(error) => {
                run.error = Some(error.to_string());
                return run;
            }
        }
    }
}

/// Ends set-up sessions that carried no events (FINISH at span 0, wait
/// for FINISHED) and shuts their server down.
fn close_idle(server: IngestServer, clients: Vec<TcpStream>) {
    for mut client in clients {
        write_frame(&mut client, &Frame::Finish { span_us: 0 }).expect("send FINISH");
        let mut reader = BufReader::new(client);
        while !matches!(read_frame(&mut reader), Ok(Some(Frame::Finished(_))) | Ok(None) | Err(_)) {
        }
    }
    let _ = server.shutdown();
}

//! Back-pressure integration: a stream whose bounded queue fills up
//! blocks its producer in `push`, never drops or reorders a chunk, and
//! the engine's `Snapshot` reports the queue-depth high-water mark.

use ebbiot_core::{EbbiotConfig, EbbiotPipeline};
use ebbiot_engine::{Engine, EngineConfig, StreamId};
use ebbiot_events::{Event, SensorGeometry};

fn pipelines(n: usize) -> Vec<EbbiotPipeline> {
    let config = EbbiotConfig::paper_default(SensorGeometry::davis240());
    (0..n).map(|_| EbbiotPipeline::new(config.clone())).collect()
}

/// A dense moving block in frame `f` — enough per-chunk work that a
/// capacity-1 queue actually backs up.
fn frame_chunk(f: u64) -> Vec<Event> {
    let mut events = Vec::new();
    for dy in 0..14u16 {
        for dx in 0..28u16 {
            events.push(Event::on(30 + (f as u16) * 2 + dx, 70 + dy, f * 66_000 + u64::from(dy)));
        }
    }
    events
}

const FRAMES: u64 = 40;

fn expected() -> Vec<ebbiot_core::FrameResult> {
    let mut reference = pipelines(1).pop().unwrap();
    let mut out = Vec::new();
    for f in 0..FRAMES {
        out.extend(reference.push(&frame_chunk(f)));
    }
    out.extend(reference.finish(FRAMES * 66_000));
    out
}

#[test]
fn blocking_push_under_full_queue_drops_and_reorders_nothing() {
    let expected = expected();
    // Two streams sharing ONE worker with capacity-1 queues: while the
    // worker chews on one stream the other's producer must block.
    let engine = Engine::new(
        EngineConfig { workers: 1, queue_capacity: 1, ..EngineConfig::default() },
        pipelines(2),
    );
    std::thread::scope(|scope| {
        for s in 0..2 {
            let engine = &engine;
            scope.spawn(move || {
                for f in 0..FRAMES {
                    engine.push(StreamId(s), frame_chunk(f));
                }
                engine.finish_stream(StreamId(s), FRAMES * 66_000);
            });
        }
    });
    let snapshot = engine.snapshot();
    let out = engine.join();
    for s in 0..2 {
        assert_eq!(out.streams[s], expected, "stream {s} complete and in order");
        assert_eq!(snapshot.streams[s].chunks_in, FRAMES, "every chunk admitted");
        assert_eq!(
            out.snapshot.streams[s].queue_high_water, 1,
            "snapshot reports the capacity-1 high-water mark"
        );
    }
}

#[test]
fn snapshot_high_water_stays_within_configured_capacity() {
    let engine = Engine::new(
        EngineConfig { workers: 2, queue_capacity: 3, ..EngineConfig::default() },
        pipelines(4),
    );
    for f in 0..FRAMES {
        for s in 0..4 {
            engine.push(StreamId(s), frame_chunk(f));
        }
    }
    for s in 0..4 {
        engine.finish_stream(StreamId(s), FRAMES * 66_000);
    }
    let out = engine.join();
    for stream in &out.snapshot.streams {
        assert!(stream.queue_high_water >= 1);
        assert!(stream.queue_high_water <= 3, "bound respected: {}", stream.queue_high_water);
    }
    assert!(out.snapshot.max_queue_high_water() <= 3);
}

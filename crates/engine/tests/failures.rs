//! Engine failure paths: a misconfigured engine is refused at
//! construction, and once a worker thread unwinds every caller blocked
//! on the engine — a producer on a full queue, a session waiting for its
//! state hand-off — panics instead of hanging. The CI "Scheduler" step
//! runs this file by name.

use std::panic::AssertUnwindSafe;
use std::sync::{mpsc, Arc};
use std::time::Duration;

use ebbiot_core::{EbbiotConfig, EbbiotPipeline, OverlapTracker};
use ebbiot_engine::{Engine, EngineConfig, StreamId};
use ebbiot_events::{Event, SensorGeometry};

fn pipelines(n: usize) -> Vec<EbbiotPipeline> {
    let config = EbbiotConfig::paper_default(SensorGeometry::davis240());
    (0..n).map(|_| EbbiotPipeline::new(config.clone())).collect()
}

/// One-worker engine whose only stream holds at most one chunk.
fn single_slot_engine() -> Arc<Engine<OverlapTracker>> {
    Arc::new(Engine::new(
        EngineConfig { workers: 1, queue_capacity: 1, ..EngineConfig::default() },
        pipelines(1),
    ))
}

/// A chunk that keeps the worker busy over many windows before its last
/// event, stamped `t = 0`, breaks time order and unwinds the worker.
fn poisoned_chunk() -> Vec<Event> {
    let mut events: Vec<Event> = (1..30u64)
        .flat_map(|f| {
            (0..200u16).map(move |i| Event::on(40 + i % 20, 80 + i / 20, f * 66_000 + u64::from(i)))
        })
        .collect();
    events.push(Event::on(10, 10, 0));
    events
}

/// Runs `call` on its own thread and reports whether it panicked,
/// failing the test when it has not returned within five seconds.
fn panics_without_hanging(call: impl FnOnce() + Send + 'static) -> bool {
    let (done, outcome) = mpsc::channel();
    std::thread::spawn(move || {
        let result = std::panic::catch_unwind(AssertUnwindSafe(call));
        let _ = done.send(result.is_err());
    });
    outcome.recv_timeout(Duration::from_secs(5)).expect("the call hung instead of returning")
}

#[test]
#[should_panic(expected = "queue capacity must be at least 1")]
fn zero_queue_capacity_is_refused_at_construction() {
    // No stream is ever attached: the check must not wait for one.
    let _: Engine<OverlapTracker> = Engine::new(
        EngineConfig { workers: 1, queue_capacity: 0, ..EngineConfig::default() },
        Vec::new(),
    );
}

#[test]
fn producer_blocked_on_a_full_queue_panics_when_the_worker_unwinds() {
    let engine = single_slot_engine();
    let producer = Arc::clone(&engine);
    assert!(
        panics_without_hanging(move || {
            producer.push(StreamId(0), vec![Event::on(10, 10, 70_000)]);
            producer.push(StreamId(0), poisoned_chunk());
            // The poisoned chunk never releases its slot: this push
            // blocks on the full queue until the worker's unwind marks
            // the stream failed.
            producer.push(StreamId(0), vec![Event::on(10, 10, 3_000_000)]);
        }),
        "a producer on a dead stream must panic"
    );
}

#[test]
fn detach_with_state_panics_when_the_worker_dies_before_the_handoff() {
    // Either the worker is already dead when the hand-off is asked for,
    // or the hand-off job queues behind the poisoned chunk and the
    // caller is waiting when the worker unwinds.
    for already_dead in [true, false] {
        let engine = single_slot_engine();
        engine.push(StreamId(0), vec![Event::on(10, 10, 70_000)]);
        if already_dead {
            engine.push(StreamId(0), vec![Event::on(10, 10, 0)]);
            std::thread::sleep(Duration::from_millis(200));
        } else {
            engine.push(StreamId(0), poisoned_chunk());
        }
        assert!(
            panics_without_hanging(move || {
                let _ = engine.detach_with_state(StreamId(0));
            }),
            "the hand-off of a dead stream must panic (already dead: {already_dead})"
        );
    }
}

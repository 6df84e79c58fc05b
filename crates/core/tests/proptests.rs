//! Property-based tests for the EBBIOT core: RPN coverage invariants,
//! overlap-tracker safety properties, and streaming `push`/`finish`
//! chunking invariance.

use ebbiot_core::{
    rpn::{RegionProposalNetwork, RpnConfig},
    tracker::{OtConfig, OverlapTracker},
    EbbiotConfig, EbbiotPipeline, RpnMode, TwoTimescaleConfig, TwoTimescalePipeline,
};
use ebbiot_events::{Event, SensorGeometry};
use ebbiot_frame::{BinaryImage, BoundingBox, PixelBox};
use proptest::prelude::*;

const W: u16 = 240;
const H: u16 = 180;

fn geometry() -> SensorGeometry {
    SensorGeometry::new(W, H)
}

/// Random small set of solid blobs (max 4), far enough apart to be
/// meaningful objects.
fn arb_blobs() -> impl Strategy<Value = Vec<PixelBox>> {
    proptest::collection::vec((0..W - 30, 0..H - 20, 8u16..30, 6u16..16), 0..4).prop_map(|specs| {
        specs
            .into_iter()
            .map(|(x, y, w, h)| PixelBox::new(x, y, (x + w).min(W), (y + h).min(H)))
            .collect()
    })
}

fn image_of(blobs: &[PixelBox]) -> BinaryImage {
    let mut img = BinaryImage::new(geometry());
    for b in blobs {
        img.fill_box(b);
    }
    img
}

// -- streaming push/finish fixtures ---------------------------------

/// Small geometry so the per-frame front-end stays cheap under many
/// proptest cases.
const SW: u16 = 48;
const SH: u16 = 36;
const FRAME_US: u64 = 66_000;
const MAX_FRAMES: u64 = 6;

fn streaming_pipeline() -> EbbiotPipeline {
    EbbiotPipeline::new(EbbiotConfig::paper_default(SensorGeometry::new(SW, SH)))
}

/// Random time-ordered events whose timestamps deliberately include
/// exact frame-boundary instants (`t = k * tF`), `t = k * tF ± 1`, and
/// arbitrary offsets — the window-assignment edge cases.
fn arb_stream_events() -> impl Strategy<Value = Vec<Event>> {
    proptest::collection::vec((0..SW, 0..SH, 0..MAX_FRAMES, 0u64..4), 0..250).prop_map(|specs| {
        let mut events: Vec<Event> = specs
            .into_iter()
            .map(|(x, y, frame, offset_kind)| {
                let offset = match offset_kind {
                    0 => 0, // exactly on the window's start boundary
                    1 => 1,
                    2 => FRAME_US - 1, // last instant of the window
                    _ => (u64::from(x) * 131 + u64::from(y) * 29) % FRAME_US,
                };
                Event::on(x, y, frame * FRAME_US + offset)
            })
            .collect();
        ebbiot_events::stream::sort_by_time(&mut events);
        events
    })
}

/// Drives a fresh pipeline with the given chunk sizes (0 = an empty
/// `push(&[])` interleaved at that point) and returns the streamed
/// frames.
fn stream_in_chunks(
    events: &[Event],
    sizes: &[usize],
    span_us: u64,
) -> Vec<ebbiot_core::FrameResult> {
    let mut pipeline = streaming_pipeline();
    let mut out = Vec::new();
    let mut offset = 0;
    for &size in sizes {
        let take = size.min(events.len() - offset);
        out.extend(pipeline.push(&events[offset..offset + take]));
        offset += take;
    }
    // Whatever the size plan didn't cover arrives as one final chunk.
    out.extend(pipeline.push(&events[offset..]));
    out.extend(pipeline.finish(span_us));
    out
}

/// Paper-extension two-timescale composite over the same small
/// geometry: slow exposure = 8 fast frames, re-proposed every 4.
fn two_timescale_config() -> TwoTimescaleConfig {
    TwoTimescaleConfig::paper_extension(EbbiotConfig::paper_default(SensorGeometry::new(SW, SH)))
}

fn two_timescale_pipeline() -> TwoTimescalePipeline {
    TwoTimescalePipeline::new(two_timescale_config())
}

fn arb_proposals() -> impl Strategy<Value = Vec<BoundingBox>> {
    proptest::collection::vec((0.0f32..200.0, 0.0f32..150.0, 8.0f32..60.0, 6.0f32..25.0), 0..6)
        .prop_map(|specs| {
            specs.into_iter().map(|(x, y, w, h)| BoundingBox::new(x, y, w, h)).collect()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_blob_is_covered_by_some_proposal(blobs in arb_blobs()) {
        let img = image_of(&blobs);
        let mut rpn = RegionProposalNetwork::new(RpnConfig::paper_default());
        let proposals = rpn.propose(&img);
        for blob in &blobs {
            let blob_box = blob.to_bounding_box();
            if blob_box.area() < 40.0 {
                continue; // below the min-area floor by construction
            }
            let covered = proposals.iter().any(|p| {
                p.intersection_area(&blob_box) >= 0.99 * blob_box.area()
            });
            prop_assert!(covered, "blob {blob_box} not covered by {proposals:?}");
        }
    }

    #[test]
    fn proposals_stay_inside_the_frame(blobs in arb_blobs()) {
        let img = image_of(&blobs);
        for config in [RpnConfig::paper_default(), RpnConfig::refined()] {
            let mut rpn = RegionProposalNetwork::new(config);
            for p in rpn.propose(&img) {
                prop_assert!(p.x >= 0.0 && p.y >= 0.0);
                prop_assert!(p.x_max() <= f32::from(W) + 1e-3);
                prop_assert!(p.y_max() <= f32::from(H) + 1e-3);
            }
        }
    }

    #[test]
    fn refined_proposals_are_contained_in_unrefined(blobs in arb_blobs()) {
        let img = image_of(&blobs);
        let mut raw = RegionProposalNetwork::new(RpnConfig::paper_default());
        let mut refined = RegionProposalNetwork::new(RpnConfig::refined());
        let raw_props = raw.propose(&img);
        for rp in refined.propose(&img) {
            let contained = raw_props.iter().any(|p| p.intersection_area(rp) >= 0.99 * rp.area());
            prop_assert!(contained);
        }
    }

    #[test]
    fn cca_mode_never_proposes_more_than_histogram_cells(blobs in arb_blobs()) {
        // Both modes propose >= 1 region for each sufficiently large blob
        // and never more regions than blobs (solid blobs cannot split).
        let img = image_of(&blobs);
        let mut cca = RegionProposalNetwork::new(RpnConfig {
            mode: RpnMode::ConnectedComponents,
            ..RpnConfig::paper_default()
        });
        let proposals = cca.propose(&img);
        prop_assert!(proposals.len() <= blobs.len().max(1),
            "{} proposals from {} solid blobs", proposals.len(), blobs.len());
    }

    #[test]
    fn tracker_never_exceeds_capacity(frames in proptest::collection::vec(arb_proposals(), 1..12)) {
        let mut tracker = OverlapTracker::new(geometry(), OtConfig::paper_default());
        for proposals in &frames {
            let _ = tracker.step(proposals);
            prop_assert!(tracker.active_count() <= 8);
        }
    }

    #[test]
    fn tracker_output_boxes_are_clipped_and_finite(frames in proptest::collection::vec(arb_proposals(), 1..12)) {
        let mut tracker = OverlapTracker::new(geometry(), OtConfig::paper_default());
        for proposals in &frames {
            for t in tracker.step(proposals) {
                prop_assert!(t.bbox.x >= 0.0 && t.bbox.y >= 0.0);
                prop_assert!(t.bbox.x_max() <= f32::from(W) + 1e-3);
                prop_assert!(t.bbox.y_max() <= f32::from(H) + 1e-3);
                prop_assert!(t.bbox.w.is_finite() && t.bbox.h.is_finite());
                prop_assert!(t.vx.is_finite() && t.vy.is_finite());
            }
        }
    }

    #[test]
    fn tracker_is_deterministic(frames in proptest::collection::vec(arb_proposals(), 1..8)) {
        let run = || {
            let mut tracker = OverlapTracker::new(geometry(), OtConfig::paper_default());
            frames.iter().map(|p| tracker.step(p)).collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn starved_tracker_pool_empties(proposals in arb_proposals()) {
        let mut tracker = OverlapTracker::new(geometry(), OtConfig::paper_default());
        let _ = tracker.step(&proposals);
        // After max_misses + 1 empty frames every track must be freed.
        for _ in 0..5 {
            let _ = tracker.step(&[]);
        }
        prop_assert_eq!(tracker.active_count(), 0);
    }

    // -- streaming push/finish chunking invariance -------------------

    #[test]
    fn chunked_push_with_empty_chunks_matches_batch(
        events in arb_stream_events(),
        sizes in proptest::collection::vec(0usize..40, 0..24),
        span_sel in 0u64..3,
    ) {
        // Size plans draw zeros, so empty `push(&[])` calls land at
        // arbitrary points of the stream, including back to back.
        let span_us = match span_sel {
            0 => 0, // shorter than the last event: no padding past the data
            1 => 2 * FRAME_US,
            _ => MAX_FRAMES * FRAME_US + FRAME_US / 2, // non-multiple of tF
        };
        let expected = streaming_pipeline().process_recording(&events, span_us);
        let streamed = stream_in_chunks(&events, &sizes, span_us);
        prop_assert_eq!(streamed, expected);
    }

    #[test]
    fn chunk_boundaries_on_frame_boundaries_match_batch(events in arb_stream_events()) {
        // One chunk per readout window, split exactly at `k * tF` — the
        // boundary-owning edge case (an event at `t = k * tF` belongs to
        // window `k`, not `k - 1`).
        let span_us = MAX_FRAMES * FRAME_US;
        let expected = streaming_pipeline().process_recording(&events, span_us);
        let mut pipeline = streaming_pipeline();
        let mut streamed = Vec::new();
        for window in 0..MAX_FRAMES {
            let chunk: Vec<Event> =
                events.iter().copied().filter(|e| e.t / FRAME_US == window).collect();
            streamed.extend(pipeline.push(&chunk));
        }
        streamed.extend(pipeline.finish(span_us));
        prop_assert_eq!(streamed, expected);
    }

    #[test]
    fn finish_with_span_shorter_than_last_event_matches_batch(
        events in arb_stream_events(),
        sizes in proptest::collection::vec(1usize..60, 1..12),
    ) {
        // `finish(tF)` after data reaching several windows further out:
        // the span adds nothing, data alone decides the frame count.
        let span_us = FRAME_US;
        let expected = streaming_pipeline().process_recording(&events, span_us);
        let streamed = stream_in_chunks(&events, &sizes, span_us);
        prop_assert_eq!(&streamed, &expected);
        if let Some(last) = events.last() {
            let windows = (last.t / FRAME_US + 1).max(1) as usize;
            prop_assert_eq!(streamed.len(), windows);
        } else {
            prop_assert_eq!(streamed.len(), 1, "empty stream pads to the span");
        }
    }

    #[test]
    fn window_runs_across_time_jumps_match_batch(
        bursts in proptest::collection::vec(
            (0u64..40, proptest::collection::vec((0..SW, 0..SH, 0u64..4), 0..30)),
            1..6,
        ),
        sizes in proptest::collection::vec(0usize..50, 0..16),
    ) {
        // Bursts separated by jumps of up to 40 windows, with events
        // exactly at `k * tF` and on the window's last instant: a run
        // may cross many windows at once, so `push` must emit every
        // skipped empty window before the run lands, for both pipelines.
        let mut events = Vec::new();
        let mut window = 0;
        for (jump, specs) in bursts {
            window += jump;
            events.extend(specs.into_iter()
                .map(|(x, y, kind)| {
                    let offset = match kind {
                        0 => 0,
                        1 => FRAME_US - 1,
                        2 => FRAME_US, // the next window's first instant
                        _ => u64::from(x) * 997 % FRAME_US,
                    };
                Event::on(x, y, window * FRAME_US + offset)
            }));
        }
        ebbiot_events::stream::sort_by_time(&mut events);
        let span_us = (window + 2) * FRAME_US;
        let expected = streaming_pipeline().process_recording(&events, span_us);
        prop_assert_eq!(stream_in_chunks(&events, &sizes, span_us), expected);

        let expected = two_timescale_pipeline().process_recording(&events, span_us);
        let mut pipeline = two_timescale_pipeline();
        let mut streamed = Vec::new();
        let mut offset = 0;
        for &size in &sizes {
            let take = size.min(events.len() - offset);
            streamed.extend(pipeline.push(&events[offset..offset + take]));
            offset += take;
        }
        streamed.extend(pipeline.push(&events[offset..]));
        streamed.extend(pipeline.finish(span_us));
        prop_assert_eq!(streamed, expected);
    }

    // -- two-timescale composite: chunking and checkpoint invariance --

    #[test]
    fn two_timescale_chunked_push_matches_batch(
        events in arb_stream_events(),
        sizes in proptest::collection::vec(0usize..40, 0..24),
        span_sel in 0u64..3,
    ) {
        // Same chunking-invariance contract as the plain pipeline, for
        // the fast/slow composite: arbitrary chunk sizes (empty pushes
        // included) never change the output.
        let span_us = match span_sel {
            0 => 0,
            1 => 2 * FRAME_US,
            _ => MAX_FRAMES * FRAME_US + FRAME_US / 2,
        };
        let expected = two_timescale_pipeline().process_recording(&events, span_us);
        let mut pipeline = two_timescale_pipeline();
        let mut streamed = Vec::new();
        let mut offset = 0;
        for &size in &sizes {
            let take = size.min(events.len() - offset);
            streamed.extend(pipeline.push(&events[offset..offset + take]));
            offset += take;
        }
        streamed.extend(pipeline.push(&events[offset..]));
        streamed.extend(pipeline.finish(span_us));
        prop_assert_eq!(streamed, expected);
    }

    #[test]
    fn two_timescale_checkpoint_anywhere_matches_uninterrupted(
        events in arb_stream_events(),
        cut_seed in any::<usize>(),
    ) {
        // Checkpoint at an arbitrary event position — in particular
        // between a fast frame boundary and the next slow exposure
        // boundary (slow_factor = 8 fast frames, restarted every
        // slow_stride = 4), where the composite holds both a partial
        // fast window and a partial slow accumulation — and resume from
        // the restored state: output must equal the uninterrupted run,
        // and re-checkpointing must reproduce the state exactly.
        let span_us = MAX_FRAMES * FRAME_US;
        let expected = two_timescale_pipeline().process_recording(&events, span_us);
        let cut = cut_seed % (events.len() + 1);
        let mut severed = two_timescale_pipeline();
        let mut streamed = severed.push(&events[..cut]);
        let state = severed.checkpoint();
        drop(severed);
        let mut resumed = TwoTimescalePipeline::restore(two_timescale_config(), &state)
            .expect("checkpoint restores");
        prop_assert_eq!(resumed.checkpoint(), state, "double checkpoint diverged at {}", cut);
        streamed.extend(resumed.push(&events[cut..]));
        streamed.extend(resumed.finish(span_us));
        prop_assert_eq!(streamed, expected);
    }

    #[test]
    fn track_ids_are_never_reused_within_a_run(
        frames in proptest::collection::vec(arb_proposals(), 1..10)
    ) {
        let mut tracker = OverlapTracker::new(geometry(), OtConfig::paper_default());
        let mut seen_max = 0u64;
        for proposals in &frames {
            let _ = tracker.step(proposals);
            for t in tracker.tracks() {
                // Ids grow monotonically: a new track never gets an id at
                // or below one we've already seen retired.
                prop_assert!(t.id >= 1);
            }
            let current_max = tracker.tracks().iter().map(|t| t.id).max().unwrap_or(seen_max);
            prop_assert!(current_max >= seen_max);
            seen_max = current_max.max(seen_max);
        }
    }
}

//! Standalone in-memory timings of the codec layers over a workload's
//! own events: the store's chunk read/decode and the wire protocol's
//! EVENTS decode and TRACKS encode. Each times one public call per
//! chunk or frame, with no sockets, files or threads involved.

use std::io::Cursor;
use std::time::Instant;

use ebbiot::core::FrameResult;
use ebbiot::events::SensorGeometry;
use ebbiot::server::{write_frame, Frame, FrameReader, FrameRef};
use ebbiot::store::{ChunkReader, RecordingWriter, StoreOptions};

use crate::input::Camera;
use crate::report::Metrics;
use crate::stats::{ratio, us};

/// Store read cost: each camera written as an in-memory `EBST` stream
/// with default chunking, then read back chunk by chunk through
/// `ChunkReader::next_chunk_into`. Sets `store.read.us_per_chunk`,
/// `store.decode.mev_per_s` and `store.bytes_per_event`.
pub fn store_codec(metrics: &mut Metrics, cameras: &[Camera], geometry: SensorGeometry) {
    let (mut read_s, mut chunks, mut events, mut bytes) = (0.0, 0u64, 0u64, 0u64);
    let mut out = Vec::new();
    for camera in cameras {
        let mut writer = RecordingWriter::new(
            Vec::new(),
            geometry,
            &camera.name,
            camera.span_us(),
            StoreOptions::default(),
        )
        .expect("in-memory store writer");
        writer.push_events(&camera.events).expect("simulated events are valid");
        let (file, _) = writer.finish().expect("in-memory store finish");
        bytes += file.len() as u64;
        let mut reader = ChunkReader::new(Cursor::new(file)).expect("reopen in-memory store");
        loop {
            let started = Instant::now();
            let more = reader.next_chunk_into(&mut out).expect("decode in-memory store");
            read_s += started.elapsed().as_secs_f64();
            if !more {
                break;
            }
            chunks += 1;
            events += out.len() as u64;
        }
    }
    metrics.set("store.read.us_per_chunk", ratio(read_s * 1e6, chunks as f64));
    metrics.set("store.decode.mev_per_s", ratio(events as f64 / 1e6, read_s));
    metrics.set("store.bytes_per_event", ratio(bytes as f64, events as f64));
}

/// Server EVENTS decode cost over pre-encoded sessions (HELLO, EVENTS…,
/// FINISH byte streams): `FrameReader::read_from` plus
/// `EventsRef::decode_into` per EVENTS frame, reading from memory. Sets
/// `server.decode.us_per_chunk` and `server.wire_bytes_per_event`.
pub fn server_decode(metrics: &mut Metrics, sessions: &[Vec<u8>], geometry: SensorGeometry) {
    let (mut decode_s, mut chunks, mut events, mut bytes) = (0.0, 0u64, 0u64, 0u64);
    let mut reader = FrameReader::new();
    let mut out = Vec::new();
    for session in sessions {
        bytes += session.len() as u64;
        let mut source = Cursor::new(session.as_slice());
        loop {
            let started = Instant::now();
            match reader.read_from(&mut source).expect("pre-encoded session decodes") {
                Some(FrameRef::Events(chunk)) => {
                    chunk.decode_into(&mut out, geometry).expect("pre-encoded chunk decodes");
                    decode_s += started.elapsed().as_secs_f64();
                    chunks += 1;
                    events += out.len() as u64;
                }
                Some(FrameRef::Control(_)) => {}
                None => break,
            }
        }
    }
    metrics.set("server.decode.us_per_chunk", ratio(decode_s * 1e6, chunks as f64));
    metrics.set("server.wire_bytes_per_event", ratio(bytes as f64, events as f64));
}

/// Server TRACKS encode cost: `write_frame` of a one-frame TRACKS reply
/// per frame into a reused buffer. Sets
/// `server.tracks_encode.us_per_frame`.
pub fn tracks_encode(metrics: &mut Metrics, frames: &[FrameResult]) {
    let mut sink = Vec::new();
    let mut total_us = 0.0;
    for frame in frames {
        let reply = Frame::Tracks(vec![frame.clone()]);
        sink.clear();
        let started = Instant::now();
        write_frame(&mut sink, &reply).expect("write to memory");
        total_us += us(started.elapsed());
    }
    metrics.set("server.tracks_encode.us_per_frame", ratio(total_us, frames.len() as f64));
}

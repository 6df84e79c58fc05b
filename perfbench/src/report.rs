//! The metric catalogue and the result line.
//!
//! Every metric the benchmark prints is declared here once, with its
//! unit; `BENCHMARK.json` at the repository root lists the same names
//! and the package tests check that the two agree.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by untraced runs (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("frames_per_s", "1/s"),
    ("frame_us_p50", "us"),
    ("frame_latency_ms_p50", "ms"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics, printed by traced runs (`--trace 1`). The two
/// 99th percentiles are end-to-end figures kept here, without a bound:
/// on a small shared host they follow the host's scheduling stalls more
/// than the program (see README.md).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("frame_us_p99", "us"),
    ("frame_latency_ms_p99", "ms"),
    ("frame.wall_us_p50", "us"),
    ("host.kernel_us_p50", "us"),
    ("core.ebbi.us_per_frame", "us"),
    ("core.median.us_per_frame", "us"),
    ("core.rpn.us_per_frame", "us"),
    ("core.roe.us_per_frame", "us"),
    ("core.tracker.us_per_frame", "us"),
    ("core.window.us_per_frame", "us"),
    ("frame.downsample.us_per_frame", "us"),
    ("core.empty_frame_share", "share"),
    ("core.empty_frame.us_p50", "us"),
    ("core.fill_ratio_mean", "share"),
    ("core.proposals_per_frame", "count"),
    ("core.live_tracks_per_frame", "count"),
    ("core.ebbi.ops_per_frame", "ops"),
    ("core.median.ops_per_frame", "ops"),
    ("core.rpn.ops_per_frame", "ops"),
    ("core.ebbi.ns_per_op", "ns"),
    ("core.median.ns_per_op", "ns"),
    ("core.rpn.ns_per_op", "ns"),
    ("core.host_duty_cycle", "share"),
    ("store.read.us_per_chunk", "us"),
    ("store.decode.mev_per_s", "Mev/s"),
    ("store.producer_busy_share", "share"),
    ("store.bytes_per_event", "B"),
    ("engine.push_block.us_per_chunk", "us"),
    ("engine.worker_busy_share", "share"),
    ("engine.worker_acquire_share", "share"),
    ("engine.worker_idle_share", "share"),
    ("engine.queue_wait.us_per_chunk", "us"),
    ("engine.join.ms", "ms"),
    ("engine.sequential.frames_per_s", "1/s"),
    ("engine.parallel_efficiency", "share"),
    ("engine.batch_chunks_mean", "count"),
    ("engine.steals", "count"),
    ("engine.migrations", "count"),
    ("engine.queue_high_water_max", "count"),
    ("server.decode.us_per_chunk", "us"),
    ("server.tracks_encode.us_per_frame", "us"),
    ("server.drain_lag_chunks_mean", "count"),
    ("server.tracks_replies_per_chunk", "count"),
    ("server.wire_bytes_per_event", "B"),
    ("server.session_errors", "count"),
    ("ingest.send_lag_ms_p99", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.waterfall_gap_pct", "%"),
    ("error_rate", "share"),
];

/// Largest |gap| between the traced waterfall (block means plus
/// `core.window`) and the untraced `frame_us_p50`, in percent, that the
/// benchmark accepts as reconciled. A larger gap fails a traced
/// `node-eng` run.
pub const WATERFALL_TOLERANCE_PCT: f64 = 15.0;

/// Metric values by name. Every name must be in the catalogue.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `value` under `name`.
    ///
    /// # Panics
    ///
    /// Panics on a name outside the catalogue or a non-finite value: both
    /// are bugs in the benchmark, never properties of the measured system.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not in the catalogue"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.insert(name, value);
    }

    /// The value recorded under `name`.
    ///
    /// # Panics
    ///
    /// Panics when nothing was recorded under `name`.
    pub fn get(&self, name: &str) -> f64 {
        *self.0.get(name).unwrap_or_else(|| panic!("metric {name} was not measured"))
    }
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Frames the workload should have delivered.
    pub attempted: u64,
    /// Frames missing, not bit-equal to the reference, or lost to a
    /// session error.
    pub failed: u64,
    /// Measured values (end-to-end always, per-layer in traced runs).
    pub metrics: Metrics,
    /// How many samples each figure rests on, for the host line.
    pub samples: Vec<(&'static str, u64)>,
    /// Checks other than frame comparisons that failed; any fails the run.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Adds a comparison of delivered frame digests against the
    /// reference to the attempted/failed tallies.
    pub fn check(&mut self, got: &[u64], want: &[u64]) {
        self.attempted += want.len() as u64;
        self.failed += crate::input::mismatches(got, want);
    }

    /// Whether every frame was checked and right and every other check
    /// passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.errors.is_empty()
    }

    /// The final result line: `correct`, `attempted`, `failed` and the
    /// catalogue's metrics for this run mode.
    pub fn result_line(&self, trace: bool) -> String {
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = catalogue
            .iter()
            .map(|(name, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    self.metrics.get(name)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The host line printed before the result: what the numbers were
/// measured on, so results from different hosts are never compared
/// silently. `build` is the JSON object `run.py` passes in
/// `PERFBENCH_BUILD` (rustc version, git revision, source digest).
pub fn host_line(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    outcome: &Outcome,
) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let build = std::env::var("PERFBENCH_BUILD").unwrap_or_else(|_| "null".to_string());
    let samples: Vec<String> =
        outcome.samples.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
    format!(
        "{{\"host\": {{\"available_parallelism\": {}, \"cpu_model\": {}, \"build\": {build}, \
         \"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \
         \"samples\": {{{}}}}}}}",
        crate::stats::available_parallelism(),
        json_str(&cpu),
        json_str(workload),
        samples.join(", ")
    )
}

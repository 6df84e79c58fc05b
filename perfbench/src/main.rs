//! The repository benchmark: drives the EBBIOT system through its public
//! entry points on three workloads, checks every output frame against a
//! sequential reference, and prints one JSON result line.
//!
//! ```text
//! perfbench --workload <node-eng|replay-lt4|ingest-eng> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of an untraced run;
//! `--trace 1` additionally runs the traced passes and prints the
//! per-layer metrics. `README.md` next to this package defines each metric.

mod calib;
mod chain;
mod heap;
mod ingest;
mod input;
mod node;
mod probes;
mod replay;
mod report;
mod stats;

use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// Input sizes.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// ENG recordings the node takes in turn.
    pub node_cameras: usize,
    /// Windows per node recording.
    pub node_frames: usize,
    /// Cameras in the replayed archive.
    pub replay_cameras: usize,
    /// Windows per replayed camera.
    pub replay_frames: usize,
    /// Set-ups per replay run (`setup_s` is their median).
    pub replay_setups: usize,
    /// Set-ups per ingest run (`setup_s` is their median).
    pub ingest_setups: usize,
}

impl Size {
    /// The benchmark's sizes: 96 ENG recordings of 7.5 s, in turn; an
    /// archive of 16 LT4 cameras of 30 s (many more cameras than
    /// workers). Both hold minutes of traffic, so that content varies
    /// little by seed: with 24 recordings (3 min) the median frame's
    /// event count moved 1 565–2 134 across eight seeds.
    const FULL: Size = Size {
        node_cameras: 96,
        node_frames: 114,
        replay_cameras: 16,
        replay_frames: 455,
        replay_setups: 9,
        ingest_setups: 21,
    };
    /// Test sizes: every path runs, in a fraction of a second.
    #[cfg(test)]
    const TINY: Size = Size {
        node_cameras: 2,
        node_frames: 30,
        replay_cameras: 4,
        replay_frames: 30,
        replay_setups: 1,
        ingest_setups: 2,
    };
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts =
        Opts { workload: String::new(), seed: 1, seconds: 25.0, trace: false, size: Size::FULL };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => opts.workload.clone_from(value),
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => opts.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(opts.seconds > 0.0 && opts.seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], got {}", opts.seconds));
    }
    Ok(opts)
}

/// Engine metrics, which have no meaning where no engine runs.
pub const ENGINE_PATH: &[&str] = &[
    "engine.push_block.us_per_chunk",
    "engine.worker_busy_share",
    "engine.worker_acquire_share",
    "engine.worker_idle_share",
    "engine.queue_wait.us_per_chunk",
    "engine.join.ms",
    "engine.parallel_efficiency",
    "engine.batch_chunks_mean",
    "engine.steals",
    "engine.migrations",
    "engine.queue_high_water_max",
];

/// Metrics of the replay producer, only on `replay-lt4`.
pub const REPLAY_PATH: &[&str] = &["store.producer_busy_share"];

/// Metrics of live sessions and their client, only on `ingest-eng`.
pub const INGEST_PATH: &[&str] = &[
    "server.drain_lag_chunks_mean",
    "server.tracks_replies_per_chunk",
    "server.session_errors",
    "ingest.send_lag_ms_p99",
];

/// Reports 0 for metrics of a layer the workload does not run, so that
/// every traced run prints the whole per-layer catalogue.
pub fn not_on_path(metrics: &mut report::Metrics, names: &[&'static str]) {
    for name in names {
        metrics.set(name, 0.0);
    }
}

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["node-eng", "replay-lt4", "ingest-eng"];

/// Runs one workload; traced runs also get their `error_rate`.
fn run(opts: &Opts) -> Result<report::Outcome, String> {
    let mut outcome = match opts.workload.as_str() {
        "node-eng" => node::run(opts),
        "replay-lt4" => replay::run(opts),
        "ingest-eng" => ingest::run(opts),
        other => return Err(format!("unknown workload {other:?} (one of {WORKLOADS:?})")),
    };
    if opts.trace {
        let rate = stats::ratio(outcome.failed as f64, outcome.attempted as f64);
        outcome.metrics.set("error_rate", rate);
    }
    Ok(outcome)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args).and_then(|opts| run(&opts).map(|outcome| (opts, outcome))) {
        Ok((opts, outcome)) => {
            let host =
                report::host_line(&opts.workload, opts.seed, opts.seconds, opts.trace, &outcome);
            for error in &outcome.errors {
                eprintln!("perfbench: {error}");
            }
            println!("{host}");
            println!("{}", outcome.result_line(opts.trace));
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::{END_TO_END, PER_LAYER};

    /// The unit `line` prints for `name`, if it prints `name`.
    fn printed_unit<'a>(line: &'a str, name: &str) -> Option<&'a str> {
        let at = line.find(&format!("\"{name}\": {{\"value\": "))?;
        let rest = &line[at..];
        let unit = &rest[rest.find("\"unit\": \"")? + 9..];
        Some(&unit[..unit.find('"')?])
    }

    #[test]
    fn tiny_runs_print_every_metric_with_its_unit_and_no_errors() {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let opts = Opts {
                    workload: workload.to_string(),
                    seed: 7,
                    seconds: 0.2,
                    trace,
                    size: Size::TINY,
                };
                let outcome = run(&opts).expect("known workload");
                let line = outcome.result_line(trace);
                let catalogue = if trace { PER_LAYER } else { END_TO_END };
                for (name, unit) in catalogue {
                    assert_eq!(
                        printed_unit(&line, name),
                        Some(*unit),
                        "{workload}: {name} in {line}"
                    );
                }
                assert!(outcome.attempted > 0, "{workload}: nothing checked");
                assert_eq!(outcome.failed, 0, "{workload} (trace {trace}): wrong frames");
                assert!(line.starts_with("{\"correct\": true, "), "{line}");
                assert!(outcome.errors.is_empty(), "{workload}: {:?}", outcome.errors);
                if trace {
                    assert_eq!(outcome.metrics.get("error_rate"), 0.0, "{workload}");
                }
                if trace && workload == "node-eng" {
                    let gap = outcome.metrics.get("trace.waterfall_gap_pct");
                    assert!(gap.abs() <= report::WATERFALL_TOLERANCE_PCT, "gap {gap}%");
                }
            }
        }
    }

    #[test]
    fn benchmark_json_declares_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(json.matches("\"unit\":").count(), END_TO_END.len() + PER_LAYER.len());
        for workload in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{workload}\"")), "{workload}");
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |a: &[&str]| a.iter().map(ToString::to_string).collect::<Vec<_>>();
        let ok = parse(&args(&[
            "--workload",
            "node-eng",
            "--seed",
            "3",
            "--seconds",
            "2",
            "--trace",
            "1",
        ]))
        .expect("valid arguments");
        assert_eq!((ok.seed, ok.seconds, ok.trace), (3, 2.0, true));
        assert!(parse(&args(&["--trace", "2"])).is_err());
        assert!(parse(&args(&["--seconds", "0"])).is_err());
        assert!(parse(&args(&["--seed"])).is_err());
        assert!(run(&Opts { workload: "nope".into(), ..ok }).is_err());
    }
}

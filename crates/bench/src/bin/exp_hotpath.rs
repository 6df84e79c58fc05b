//! **Hot-path kernel experiment** — word-parallel frame kernels vs their
//! scalar per-pixel references, on realistic EBBI content.
//!
//! ```text
//! cargo run --release -p ebbiot_bench --bin exp_hotpath -- \
//!     [--seed N] [--density D] [--budget-ms MS] [--davis346] [--smoke]
//! ```
//!
//! Builds a frame population mimicking traffic EBBIs (a few vehicle-sized
//! blobs plus salt noise at the requested density), then times each
//! kernel pair — 3x3 median, (6, 3) block downsample, box counting over
//! tracker-sized boxes, and the EBBI readout copy — reporting frames/s,
//! Mpixel/s and the word-parallel speedup. The downsample runs on the
//! *median-filtered* frames, the RPN's real input: its band kernel skips
//! empty words and cells, so its cost follows the content that survives
//! the median. Writes `BENCH_hotpath.json` (with the host it ran on) and
//! **asserts** that the median and the downsample kernels are each at
//! least 3x faster than their scalar references. Parity is asserted on
//! every timed input before timing starts. `--smoke` shrinks the timing
//! budget to CI size and skips the JSON artifact while still asserting
//! parity and the speedup floors.

use std::time::{Duration, Instant};

use ebbiot_bench::{synthetic_traffic_ebbi, tracker_box_tiling, JsonReport};
use ebbiot_events::{OpsCounter, SensorGeometry};
use ebbiot_frame::{reference, BinaryImage, CountImage, MedianFilter};
use rand::SeedableRng;

struct Args {
    seed: u64,
    density: f64,
    budget: Duration,
    geometry: SensorGeometry,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Args {
    let mut parsed = Args {
        seed: 42,
        density: 0.03,
        budget: Duration::from_millis(300),
        geometry: SensorGeometry::davis240(),
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_default();
        match arg.as_str() {
            "--seed" => parsed.seed = value().parse().expect("--seed <u64>"),
            "--density" => parsed.density = value().parse().expect("--density <f64>"),
            "--budget-ms" => {
                parsed.budget = Duration::from_millis(value().parse().expect("--budget-ms <u64>"));
            }
            "--davis346" => parsed.geometry = SensorGeometry::davis346(),
            "--smoke" => parsed.smoke = true,
            other => panic!("unknown argument {other}"),
        }
    }
    parsed
}

/// Adaptive wall-clock timer: runs `f` until the budget elapses,
/// returning mean seconds per iteration.
fn time_per_iter(budget: Duration, mut f: impl FnMut()) -> f64 {
    // Warm-up.
    f();
    let mut iters = 0u64;
    let started = Instant::now();
    loop {
        f();
        iters += 1;
        let elapsed = started.elapsed();
        if elapsed >= budget {
            return elapsed.as_secs_f64() / iters as f64;
        }
    }
}

#[allow(clippy::too_many_lines)]
fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = parse_args(&argv);
    if args.smoke {
        // CI-sized: parity and the speedup floor still hold with a
        // short timing budget, without touching the BENCH artifact.
        args.budget = args.budget.min(Duration::from_millis(50));
    }
    let geometry = args.geometry;
    let pixels = geometry.num_pixels() as f64;
    let mut rng = rand::rngs::StdRng::seed_from_u64(args.seed);
    let frames: Vec<BinaryImage> =
        (0..8).map(|_| synthetic_traffic_ebbi(geometry, args.density, &mut rng)).collect();
    let mean_density: f64 = frames.iter().map(BinaryImage::density).sum::<f64>() / 8.0;
    println!(
        "== Hot-path kernels on {geometry} EBBIs (mean alpha = {:.1}%, {} frames/rotation) ==\n",
        mean_density * 100.0,
        frames.len()
    );

    // Parity before timing: every frame in the rotation must agree.
    let mut scratch = BinaryImage::new(geometry);
    let mut denoised = Vec::with_capacity(frames.len());
    for img in &frames {
        let mut ops = OpsCounter::new();
        let mut f = MedianFilter::paper_default();
        f.apply_into(img, &mut scratch);
        assert_eq!(scratch, reference::median(img, 3, &mut ops), "median parity");
        assert_eq!(
            CountImage::downsample(&scratch, 6, 3, &mut ops),
            reference::downsample(&scratch, 6, 3, &mut ops),
            "downsample parity"
        );
        denoised.push(scratch.clone());
    }
    let denoised_density: f64 =
        denoised.iter().map(BinaryImage::density).sum::<f64>() / denoised.len() as f64;

    let mpix = |secs_per_iter: f64| pixels / secs_per_iter / 1e6;
    let mut report = JsonReport::new()
        .str("experiment", "hotpath")
        .str("host_cpu", &host_cpu())
        .u64("host_cores", std::thread::available_parallelism().map_or(1, |n| n.get() as u64))
        .str("rustc", &rustc_version())
        .str("geometry", &geometry.to_string())
        .f64("mean_density", mean_density)
        .f64("denoised_density", denoised_density)
        .u64("seed", args.seed);

    // 3x3 median: word-parallel vs scalar reference.
    let mut filter = MedianFilter::paper_default();
    let mut idx = 0usize;
    let median_word = time_per_iter(args.budget, || {
        filter.apply_into(&frames[idx % frames.len()], &mut scratch);
        idx += 1;
    });
    let mut ref_ops = OpsCounter::new();
    let mut idx = 0usize;
    let median_ref = time_per_iter(args.budget, || {
        reference::median_into(&frames[idx % frames.len()], 3, &mut scratch, &mut ref_ops);
        idx += 1;
    });
    let median_speedup = median_ref / median_word;
    println!(
        "median 3x3:    word {:>8.1} Mpix/s ({:>9.1} frames/s)  scalar {:>7.1} Mpix/s  speedup {:>6.1}x",
        mpix(median_word),
        1.0 / median_word,
        mpix(median_ref),
        median_speedup
    );
    report = report
        .f64("median_word_mpix_per_sec", mpix(median_word))
        .f64("median_reference_mpix_per_sec", mpix(median_ref))
        .f64("median_speedup", median_speedup);

    // (6, 3) block downsample of the denoised frames.
    let mut ops = OpsCounter::new();
    let mut idx = 0usize;
    let down_word = time_per_iter(args.budget, || {
        let _ = CountImage::downsample(&denoised[idx % denoised.len()], 6, 3, &mut ops);
        idx += 1;
    });
    let mut idx = 0usize;
    let down_ref = time_per_iter(args.budget, || {
        let _ = reference::downsample(&denoised[idx % denoised.len()], 6, 3, &mut ops);
        idx += 1;
    });
    let down_speedup = down_ref / down_word;
    println!(
        "downsample:    word {:>8.1} Mpix/s ({:>9.1} frames/s)  scalar {:>7.1} Mpix/s  speedup {:>6.1}x  (denoised frames)",
        mpix(down_word),
        1.0 / down_word,
        mpix(down_ref),
        down_speedup
    );
    report = report
        .f64("downsample_word_mpix_per_sec", mpix(down_word))
        .f64("downsample_reference_mpix_per_sec", mpix(down_ref))
        .f64("downsample_speedup", down_speedup);

    // Box counting over tracker-sized boxes tiled across the frame.
    let boxes = tracker_box_tiling(geometry);
    let mut idx = 0usize;
    let count_word = time_per_iter(args.budget, || {
        let img = &frames[idx % frames.len()];
        let mut total = 0usize;
        for b in &boxes {
            total += img.count_in_box(b);
        }
        std::hint::black_box(total);
        idx += 1;
    });
    let mut idx = 0usize;
    let count_ref = time_per_iter(args.budget, || {
        let img = &frames[idx % frames.len()];
        let mut total = 0usize;
        for b in &boxes {
            total += reference::count_in_box(img, b);
        }
        std::hint::black_box(total);
        idx += 1;
    });
    println!(
        "count_in_box:  word {:>8.1} kbox/s{:<14} scalar {:>7.1} kbox/s   speedup {:>6.1}x",
        64.0 / count_word / 1e3,
        "",
        64.0 / count_ref / 1e3,
        count_ref / count_word
    );
    report = report
        .f64("count_in_box_word_kbox_per_sec", 64.0 / count_word / 1e3)
        .f64("count_in_box_reference_kbox_per_sec", 64.0 / count_ref / 1e3)
        .f64("count_in_box_speedup", count_ref / count_word);

    // EBBI readout copy (word copy by construction; no scalar pair).
    let mut idx = 0usize;
    let copy = time_per_iter(args.budget, || {
        scratch.copy_from(&frames[idx % frames.len()]);
        idx += 1;
    });
    println!("readout copy:  word {:>8.1} Mpix/s ({:>9.1} frames/s)", mpix(copy), 1.0 / copy);
    report = report.f64("readout_copy_mpix_per_sec", mpix(copy));

    // Skipped in smoke mode so CI-sized runs never clobber the tracked
    // numbers.
    if args.smoke {
        drop(report);
        println!("\n--smoke: skipping BENCH_hotpath.json");
    } else {
        report
            .bool("median_speedup_at_least_3x", median_speedup >= 3.0)
            .bool("downsample_speedup_at_least_3x", down_speedup >= 3.0)
            .write(std::path::Path::new("BENCH_hotpath.json"))
            .expect("write BENCH_hotpath.json");
        println!("\nwrote BENCH_hotpath.json");
    }

    assert!(
        median_speedup >= 3.0,
        "word-parallel median must be >= 3x the scalar reference, measured {median_speedup:.2}x"
    );
    assert!(
        down_speedup >= 3.0,
        "band-kernel downsample must be >= 3x the scalar reference, measured {down_speedup:.2}x"
    );
}

/// The CPU model from `/proc/cpuinfo`, or `unknown` where there is none.
fn host_cpu() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// `rustc --version` of the toolchain on the path, or `unknown`.
fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |v| v.trim().to_owned())
}

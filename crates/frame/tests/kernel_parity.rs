//! Kernel parity: every word-parallel frame kernel must be bit-exact
//! (and op-count-exact) against its scalar reference transcription in
//! [`ebbiot_frame::reference`], over geometries chosen to stress the
//! row-aligned layout — widths that are not word multiples (17, 346, 1),
//! single-pixel frames, all-zeros/all-ones frames, and boxes straddling
//! word boundaries. Every mutating operation must also preserve the
//! tail-bit invariant (`BinaryImage::tail_bits_zero`).

use ebbiot_events::{OpsCounter, SensorGeometry};
use ebbiot_frame::{reference, BinaryImage, CountImage, Histogram, MedianFilter, PixelBox};
use proptest::prelude::*;

/// Geometries that stress the layout: non-word-multiple widths, exact
/// word widths, the paper sensors, degenerate 1-pixel frames, and
/// frames tall enough for 17-row bands (five count planes).
const GEOMS: [(u16, u16); 9] =
    [(17, 5), (64, 4), (65, 3), (1, 1), (1, 9), (130, 7), (346, 13), (131, 35), (200, 18)];

/// Downsampling factors: every small block, blocks one short of, equal
/// to and one past a word, and blocks spanning three words.
const S1: [u16; 12] = [1, 2, 3, 4, 5, 6, 7, 8, 63, 64, 65, 130];
/// Band heights: every small band, and bands needing four (15) or five
/// (16, 17) count planes.
const S2: [u16; 11] = [1, 2, 3, 4, 5, 6, 7, 8, 15, 16, 17];

/// A generated frame: geometry index, pixel seeds (mapped into bounds by
/// modulo), and a fill mode (0 = sparse, 1 = all ones, 2 = all zeros).
fn arb_frame() -> impl Strategy<Value = (BinaryImage, SensorGeometry)> {
    (0..GEOMS.len(), proptest::collection::vec((0u16..1024, 0u16..1024), 0..250), 0u8..6).prop_map(
        |(gi, seeds, mode)| {
            let (w, h) = GEOMS[gi];
            let geom = SensorGeometry::new(w, h);
            let mut img = BinaryImage::new(geom);
            match mode {
                1 => img.fill_box(&PixelBox::new(0, 0, w, h)),
                2 => {}
                _ => {
                    for (sx, sy) in seeds {
                        img.set(sx % w, sy % h, true);
                    }
                }
            }
            (img, geom)
        },
    )
}

fn arb_pixel_box() -> impl Strategy<Value = PixelBox> {
    (0u16..400, 0u16..40, 0u16..400, 0u16..40)
        .prop_map(|(x0, y0, x1, y1)| PixelBox::new(x0.min(x1), y0.min(y1), x0.max(x1), y0.max(y1)))
}

/// Every factor pair on every geometry, over full and dense frames, so
/// that carries into every count plane (a 17-row band of ones counts
/// 17 = 0b10001) and every block width are exercised on each run, not
/// just on the cases proptest happens to draw.
#[test]
fn downsample_and_projections_match_reference_for_every_factor_pair() {
    for (w, h) in GEOMS {
        let geom = SensorGeometry::new(w, h);
        let mut full = BinaryImage::new(geom);
        full.fill_box(&PixelBox::new(0, 0, w, h));
        let mut dense = BinaryImage::new(geom);
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for y in 0..h {
            for x in 0..w {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                if state & 3 != 0 {
                    dense.set(x, y, true);
                }
            }
        }
        for img in [&full, &dense] {
            for s1 in S1.map(|s| s.min(w)) {
                for s2 in S2.map(|s| s.min(h)) {
                    let mut ref_ops = OpsCounter::new();
                    let expected = reference::downsample(img, s1, s2, &mut ref_ops);
                    let mut ops = OpsCounter::new();
                    let got = CountImage::downsample(img, s1, s2, &mut ops);
                    assert_eq!(got, expected, "downsample {s1}x{s2} on {geom}");
                    assert_eq!(ops, ref_ops, "downsample ops {s1}x{s2} on {geom}");

                    let mut ref_ops = OpsCounter::new();
                    let (ref_hx, ref_hy) = reference::project(img, s1, s2, &mut ref_ops);
                    let (mut hx, mut hy) = (Histogram::default(), Histogram::default());
                    let mut ops = OpsCounter::new();
                    Histogram::project_blocks(img, s1, s2, &mut hx, &mut hy, &mut ops);
                    assert_eq!((hx, hy), (ref_hx, ref_hy), "projections {s1}x{s2} on {geom}");
                    assert_eq!(ops, ref_ops, "projection ops {s1}x{s2} on {geom}");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn median_matches_reference_for_all_patch_sizes((img, geom) in arb_frame(), p_idx in 0usize..3) {
        let p = [1u16, 3, 5][p_idx];
        let mut ref_ops = OpsCounter::new();
        let expected = reference::median(&img, p, &mut ref_ops);
        let mut filter = MedianFilter::new(p);
        let mut out = BinaryImage::new(geom);
        filter.apply_into(&img, &mut out);
        prop_assert_eq!(&out, &expected, "median p={} on {}", p, geom);
        prop_assert_eq!(*filter.ops(), ref_ops, "median op accounting p={} on {}", p, geom);
        prop_assert!(out.tail_bits_zero(), "tail invariant after median");
    }

    #[test]
    fn downsample_matches_reference(
        (img, geom) in arb_frame(),
        s1 in 0..S1.len(),
        s2 in 0..S2.len(),
    ) {
        let s1 = S1[s1].min(geom.width());
        let s2 = S2[s2].min(geom.height());
        let mut ref_ops = OpsCounter::new();
        let expected = reference::downsample(&img, s1, s2, &mut ref_ops);
        let mut ops = OpsCounter::new();
        let got = CountImage::downsample(&img, s1, s2, &mut ops);
        prop_assert_eq!(&got, &expected, "downsample {}x{} on {}", s1, s2, geom);
        prop_assert_eq!(ops, ref_ops, "downsample op accounting {}x{} on {}", s1, s2, geom);
        // Partial edge cells mean mass is conserved unconditionally.
        prop_assert_eq!(got.total(), img.count_ones() as u64);
    }

    #[test]
    fn projections_match_reference(
        (img, geom) in arb_frame(),
        s1 in 0..S1.len(),
        s2 in 0..S2.len(),
    ) {
        let s1 = S1[s1].min(geom.width());
        let s2 = S2[s2].min(geom.height());
        let mut ref_ops = OpsCounter::new();
        let (ref_hx, ref_hy) = reference::project(&img, s1, s2, &mut ref_ops);
        // Scratch histograms carrying bins of another size must be reset.
        let mut hx = Histogram::from_bins(vec![7; 3]);
        let mut hy = Histogram::default();
        let mut ops = OpsCounter::new();
        Histogram::project_blocks(&img, s1, s2, &mut hx, &mut hy, &mut ops);
        prop_assert_eq!(&hx, &ref_hx, "H_X {}x{} on {}", s1, s2, geom);
        prop_assert_eq!(&hy, &ref_hy, "H_Y {}x{} on {}", s1, s2, geom);
        prop_assert_eq!(ops, ref_ops, "projection op accounting {}x{} on {}", s1, s2, geom);
        prop_assert_eq!(hx.total(), img.count_ones() as u64);
        prop_assert_eq!(hy.total(), img.count_ones() as u64);
    }

    #[test]
    fn set_bounds_match_reference((img, _geom) in arb_frame(), b in arb_pixel_box()) {
        prop_assert_eq!(img.set_bounds_in(&b), reference::set_bounds_in(&img, &b), "{:?}", b);
    }

    #[test]
    fn box_queries_match_reference((img, _geom) in arb_frame(), b in arb_pixel_box()) {
        prop_assert_eq!(img.count_in_box(&b), reference::count_in_box(&img, &b));
        prop_assert_eq!(img.any_in_box(&b), reference::any_in_box(&img, &b));
    }

    #[test]
    fn fill_box_matches_reference_and_keeps_tail_invariant(
        (img, geom) in arb_frame(),
        b in arb_pixel_box(),
    ) {
        let mut fast = img.clone();
        fast.fill_box(&b);
        let mut scalar = img;
        reference::fill_box(&mut scalar, &b);
        prop_assert_eq!(&fast, &scalar, "fill_box {:?} on {}", b, geom);
        prop_assert!(fast.tail_bits_zero(), "tail invariant after fill_box");
    }

    #[test]
    fn every_mutating_op_preserves_the_tail_invariant(
        (mut img, geom) in arb_frame(),
        pokes in proptest::collection::vec((0u16..1024, 0u16..1024, 0u8..3), 0..40),
        b in arb_pixel_box(),
    ) {
        prop_assert!(img.tail_bits_zero(), "fresh/filled frame");
        for (sx, sy, op) in pokes {
            let (x, y) = (sx % geom.width(), sy % geom.height());
            match op {
                0 => img.set(x, y, true),
                1 => img.set(x, y, false),
                _ => {
                    let _ = img.latch(x, y);
                }
            }
            prop_assert!(img.tail_bits_zero(), "after point op {} at ({}, {})", op, x, y);
        }
        img.fill_box(&b);
        prop_assert!(img.tail_bits_zero(), "after fill_box");
        let mut copy = BinaryImage::new(geom);
        copy.copy_from(&img);
        prop_assert!(copy.tail_bits_zero(), "after copy_from");
        // count_ones must agree with a per-pixel scan (popcount honesty).
        let mut scalar = 0usize;
        for y in 0..geom.height() {
            for x in 0..geom.width() {
                if img.get(x, y) {
                    scalar += 1;
                }
            }
        }
        prop_assert_eq!(img.count_ones(), scalar);
        img.clear();
        prop_assert!(img.tail_bits_zero(), "after clear");
        prop_assert_eq!(img.count_ones(), 0);
    }
}

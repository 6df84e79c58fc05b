//! RPN parity: histogram-mode proposals, computed in one band pass with
//! no count image and the false-intersection check in the binary image,
//! must equal the count-image path (`propose_with_intermediates`:
//! `CountImage::downsample`, `Histogram::project` on both axes, the check
//! on the count image's cells) — proposals and ops alike. Refined
//! proposals must equal a per-pixel scan of each cell-aligned proposal.

use ebbiot_core::rpn::{RegionProposalNetwork, RpnConfig};
use ebbiot_events::SensorGeometry;
use ebbiot_frame::{BinaryImage, BoundingBox, PixelBox};
use proptest::prelude::*;

/// The paper sensor and the DAVIS346, whose 346 x 260 divides by
/// neither factor (partial edge cells, a 90-bit last row word).
const GEOMS: [(u16, u16); 2] = [(240, 180), (346, 260)];

/// Random blob frames with salt noise: up to five blobs of any size,
/// anywhere (edges and word boundaries included), and up to 60 noise
/// pixels, on one of [`GEOMS`].
fn arb_frame() -> impl Strategy<Value = BinaryImage> {
    (
        0..GEOMS.len(),
        proptest::collection::vec((0u16..1024, 0u16..1024, 1u16..60, 1u16..40), 0..6),
        proptest::collection::vec((0u16..1024, 0u16..1024), 0..60),
    )
        .prop_map(|(gi, blobs, noise)| {
            let (w, h) = GEOMS[gi];
            let mut img = BinaryImage::new(SensorGeometry::new(w, h));
            for (x, y, bw, bh) in blobs {
                let (x, y) = (x % w, y % h);
                img.fill_box(&PixelBox::new(x, y, (x + bw).min(w), (y + bh).min(h)));
            }
            for (x, y) in noise {
                img.set(x % w, y % h, true);
            }
            img
        })
}

/// RPN configurations: the paper's, refined, a denser threshold, and
/// factors from one pixel to blocks wider than a word.
fn arb_config() -> impl Strategy<Value = RpnConfig> {
    (0usize..6, 0u32..3, 0u8..2).prop_map(|(scale, threshold, refine)| {
        let (s1, s2) = [(6, 3), (1, 1), (4, 7), (64, 2), (70, 16), (17, 5)][scale];
        let refine_boxes = refine == 1;
        RpnConfig { s1, s2, threshold: threshold + 1, refine_boxes, ..RpnConfig::paper_default() }
    })
}

/// The refined counterpart of one cell-aligned proposal, by a per-pixel
/// scan: the bounding box of the set pixels inside it.
fn scan_bounds(img: &BinaryImage, b: &BoundingBox) -> Option<BoundingBox> {
    let mut bounds: Option<PixelBox> = None;
    for y in b.y as u16..b.y_max() as u16 {
        for x in b.x as u16..b.x_max() as u16 {
            if img.get(x, y) {
                match &mut bounds {
                    None => bounds = Some(PixelBox::single(x, y)),
                    Some(p) => p.include(x, y),
                }
            }
        }
    }
    bounds.map(|p| p.to_bounding_box())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn histogram_proposals_match_count_image_path(img in arb_frame(), config in arb_config()) {
        let mut fast = RegionProposalNetwork::new(config);
        let mut counted = RegionProposalNetwork::new(config);
        // Twice: the second frame runs on grown scratch.
        for _ in 0..2 {
            let got = fast.propose(&img).to_vec();
            let (expected, ..) = counted.propose_with_intermediates(&img);
            prop_assert_eq!(&got, &expected, "{:?} on {}", config, img.geometry());
            prop_assert_eq!(fast.ops(), counted.ops(), "{:?} on {}", config, img.geometry());
        }
    }

    #[test]
    fn refined_proposals_equal_a_per_pixel_scan(img in arb_frame()) {
        let cells = RegionProposalNetwork::new(RpnConfig::paper_default()).propose(&img).to_vec();
        let config = RpnConfig::refined();
        let expected: Vec<BoundingBox> = cells
            .iter()
            .filter_map(|b| scan_bounds(&img, b))
            .filter(|b| b.area() >= config.min_area)
            .collect();
        let got = RegionProposalNetwork::new(config).propose(&img).to_vec();
        prop_assert_eq!(got, expected, "on {}", img.geometry());
    }
}

#[test]
fn refined_boxes_straddling_word_boundaries_equal_a_per_pixel_scan() {
    // Blobs across the 64-, 128- and 192-bit boundaries of a 240-wide
    // row and the 256- and 320-bit ones of a 346-wide row, two of them
    // ending on the frame's right edge (the DAVIS346's partial last row
    // word). Blobs share no run on either axis, so every diagonal
    // candidate goes through the false-intersection check.
    let cases = [
        (
            SensorGeometry::davis240(),
            [
                PixelBox::new(60, 10, 70, 22),
                PixelBox::new(125, 50, 131, 61),
                PixelBox::new(190, 100, 197, 140),
                PixelBox::new(230, 170, 240, 180),
            ]
            .to_vec(),
        ),
        (
            SensorGeometry::davis346(),
            [
                PixelBox::new(250, 10, 262, 30),
                PixelBox::new(318, 100, 346, 107),
                PixelBox::new(60, 200, 200, 212),
            ]
            .to_vec(),
        ),
    ];
    for (geom, blobs) in cases {
        let mut img = BinaryImage::new(geom);
        for blob in &blobs {
            img.fill_box(blob);
        }
        let cells = RegionProposalNetwork::new(RpnConfig::paper_default()).propose(&img).to_vec();
        let expected: Vec<BoundingBox> =
            cells.iter().filter_map(|b| scan_bounds(&img, b)).collect();
        let got = RegionProposalNetwork::new(RpnConfig::refined()).propose(&img).to_vec();
        let mut tight: Vec<BoundingBox> = blobs.iter().map(PixelBox::to_bounding_box).collect();
        tight.sort_by(|a, b| (a.x, a.y).partial_cmp(&(b.x, b.y)).expect("finite"));
        assert_eq!(got, tight, "each blob's own box on {geom}");
        assert_eq!(got, expected, "on {geom}");
    }
}

//! Block-sum downsampling (Eq. 3 of the paper, extended to cover edges).
//!
//! The RPN does not operate on the full-resolution EBBI: it first produces
//! a scaled image `I_{s1,s2}(i, j) = sum of the (s1 x s2) block` of binary
//! pixels. Eq. 3 as written stops at `floor(A / s1) x floor(B / s2)`
//! cells, which on non-divisible geometries silently drops a right/bottom
//! strip of up to `s - 1` pixels — on a DAVIS346 (346 x 260, `s1 = 6`)
//! the RPN would be blind to a 4-pixel-wide strip and objects entering
//! from the right edge would be proposed late or never. We therefore
//! produce `ceil(A / s1) x ceil(B / s2)` cells, with trailing *partial*
//! cells summing only the pixels that exist. For the paper's 240 x 180
//! with `s1 = 6`, `s2 = 3` the division is exact and the result is
//! bit-identical to Eq. 3.
//!
//! # The band kernel
//!
//! One kernel, `for_each_cell_count`, serves every `(s1, s2)` and both
//! consumers (this count image and the RPN's direct projections in
//! [`crate::Histogram::project_blocks`]). Its cost follows the set words
//! of the input, not its area:
//!
//! * **Band planes.** The `s2` rows of a band are added vertically, one
//!   word column at a time, into bit-sliced count planes with
//!   carry-save adds: plane `k` holds bit `k` of each column's count,
//!   so `ceil(log2(s2 + 1))` planes suffice. All-zero row words are
//!   skipped before the add.
//! * **Zero skip.** The OR of the band's words in a column says which
//!   columns hold anything. A column whose OR-word is zero is skipped
//!   whole, and so is each cell whose bits under the OR-word are zero;
//!   neither is touched again. An empty band costs one load and one test
//!   per word.
//! * **Cell counts.** A remaining cell's count is
//!   `Σ_k popcount(plane_k & mask) << k`, one masked popcount per plane.
//!   Cells that straddle a word boundary (or are wider than a word,
//!   `s1 > 64`) receive one partial count per word they touch. The
//!   popcount is whatever `u64::count_ones` compiles to: without a
//!   `target-cpu` it is a software (SWAR) sequence of a dozen
//!   instructions, which is why visiting fewer cells is what pays.
//!
//! Op accounting keeps the paper's logical Eq. 5 charge — one addition
//! per input pixel and one write per cell — regardless of the physical
//! instruction count or of how many cells the zero skip passed over.

use ebbiot_events::OpsCounter;

use crate::BinaryImage;

/// A small dense image of per-block event counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountImage {
    width: u16,
    height: u16,
    /// Per-cell block sums, row-major.
    data: Vec<u32>,
    /// X scale factor `s1` the image was built with.
    pub s1: u16,
    /// Y scale factor `s2` the image was built with.
    pub s2: u16,
}

impl CountImage {
    /// Downsamples a binary image by factors `s1` (x) and `s2` (y).
    ///
    /// Each output cell holds the number of set pixels in its block;
    /// trailing cells that hang over the right/bottom edge sum only the
    /// pixels that exist (partial blocks). The `ops` counter is charged
    /// one addition per *input* pixel (the `A * B` term dominating
    /// `C_RPN` in Eq. 5) and one write per cell.
    ///
    /// # Panics
    ///
    /// Panics when either factor is zero or exceeds the image dimension.
    #[must_use]
    pub fn downsample(input: &BinaryImage, s1: u16, s2: u16, ops: &mut OpsCounter) -> Self {
        let (width, height) = cell_grid(input, s1, s2);
        let mut data = vec![0u32; width as usize * height as usize];
        for_each_cell_count(input, s1, s2, |i, j, n| data[j * width as usize + i] += n);
        // Logical Eq. 5 accounting: every input pixel belongs to exactly
        // one block, so the block sums cost one addition per input pixel;
        // one memory write per cell.
        ops.add(input.geometry().num_pixels() as u64);
        ops.write(u64::from(width) * u64::from(height));
        Self { width, height, data, s1, s2 }
    }

    /// Builds a count image from raw parts — the in-crate constructor
    /// used by the scalar reference kernel and tests.
    pub(crate) fn from_raw(width: u16, height: u16, data: Vec<u32>, s1: u16, s2: u16) -> Self {
        assert_eq!(data.len(), width as usize * height as usize, "cell data shape mismatch");
        Self { width, height, data, s1, s2 }
    }

    /// Downsampled width `ceil(A / s1)` (the last cell may be partial).
    #[must_use]
    pub const fn width(&self) -> u16 {
        self.width
    }

    /// Downsampled height `ceil(B / s2)` (the last cell may be partial).
    #[must_use]
    pub const fn height(&self) -> u16 {
        self.height
    }

    /// Reads cell `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[must_use]
    pub fn get(&self, i: u16, j: u16) -> u32 {
        assert!(i < self.width && j < self.height, "cell ({i}, {j}) out of bounds");
        self.data[j as usize * self.width as usize + i as usize]
    }

    /// Sum of all cells (equals the number of set pixels in the source
    /// image — partial edge cells mean no pixel is ever dropped).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.data.iter().map(|&v| u64::from(v)).sum()
    }

    /// Whether any cell in the half-open cell rectangle is non-zero.
    /// Used by the RPN validity check for intersection regions.
    #[must_use]
    pub fn any_nonzero_in(&self, i_min: u16, i_max: u16, j_min: u16, j_max: u16) -> bool {
        let i_end = i_max.min(self.width);
        let j_end = j_max.min(self.height);
        for j in j_min..j_end {
            for i in i_min..i_end {
                if self.get(i, j) > 0 {
                    return true;
                }
            }
        }
        false
    }

    /// Memory footprint in bits using the paper's Eq. 5 accounting:
    /// `ceil(log2(s1 * s2))` bits per cell (enough to store a block sum).
    #[must_use]
    pub fn payload_bits(&self) -> usize {
        let n = u32::from(self.s1) * u32::from(self.s2);
        // ceil(log2(n)) for n >= 2 is the bit length of n - 1; clamp to >= 1.
        let bits_per_cell = if n <= 1 { 1 } else { (32 - (n - 1).leading_zeros()) as usize };
        self.width as usize * self.height as usize * bits_per_cell
    }
}

/// The cell grid `ceil(A / s1) x ceil(B / s2)` of a downsampling.
///
/// # Panics
///
/// Panics when either factor is zero or exceeds the image dimension.
pub(crate) fn cell_grid(input: &BinaryImage, s1: u16, s2: u16) -> (u16, u16) {
    assert!(s1 > 0 && s2 > 0, "scale factors must be non-zero");
    assert!(s1 <= input.width() && s2 <= input.height(), "scale factors larger than the image");
    (input.width().div_ceil(s1), input.height().div_ceil(s2))
}

/// The band kernel (see the module docs): calls `visit(i, j, n)` with the
/// set-pixel count `n > 0` of the part of cell `(i, j)` that lies in one
/// word column, for every such part that is non-empty. A cell that spans
/// several word columns is visited once per non-empty part, so summing
/// the visits per cell gives its block sum; cells with no set pixel are
/// never visited. Bands and cells run in row-major order.
///
/// Factors must be valid for [`cell_grid`], which the callers check.
#[inline]
pub(crate) fn for_each_cell_count(
    input: &BinaryImage,
    s1: u16,
    s2: u16,
    mut visit: impl FnMut(usize, usize, u32),
) {
    let words_per_row = input.words_per_row();
    let width = usize::from(input.width());
    let s1 = usize::from(s1);
    // ceil(log2(s2 + 1)): the bit length of the largest column count.
    let planes_used = (u16::BITS - s2.leading_zeros()) as usize;
    let mut planes = [0u64; u16::BITS as usize];
    for (j, band) in input.words().chunks(words_per_row * usize::from(s2)).enumerate() {
        for w in 0..words_per_row {
            let planes = &mut planes[..planes_used];
            planes.fill(0);
            let mut any = 0u64;
            for &word in band[w..].iter().step_by(words_per_row) {
                if word == 0 {
                    continue;
                }
                any |= word;
                // Carry-save add of one row word into the column counts.
                let mut carry = word;
                for plane in planes.iter_mut() {
                    let next = *plane & carry;
                    *plane ^= carry;
                    carry = next;
                    if carry == 0 {
                        break;
                    }
                }
            }
            if any == 0 {
                continue;
            }
            let lo = w * 64;
            let hi = (lo + 64).min(width);
            let mut i = lo / s1;
            let mut x0 = i * s1;
            while x0 < hi {
                let x1 = (x0 + s1).min(hi);
                let start = x0.max(lo) - lo;
                let mask = (!0u64 >> (64 - (x1 - lo - start))) << start;
                if any & mask != 0 {
                    let mut n = 0u32;
                    for (k, plane) in planes.iter().enumerate() {
                        n += (plane & mask).count_ones() << k;
                    }
                    visit(i, j, n);
                }
                i += 1;
                x0 += s1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PixelBox;
    use ebbiot_events::SensorGeometry;

    fn image(w: u16, h: u16) -> BinaryImage {
        BinaryImage::new(SensorGeometry::new(w, h))
    }

    #[test]
    fn dimensions_follow_ceil_division() {
        let img = image(240, 180);
        let mut ops = OpsCounter::new();
        let ds = CountImage::downsample(&img, 6, 3, &mut ops);
        assert_eq!(ds.width(), 40);
        assert_eq!(ds.height(), 60);
        // DAVIS346: 346 / 6 and 260 / 3 do not divide; the remainder gets
        // partial edge cells instead of a blind strip.
        let img = image(346, 260);
        let ds = CountImage::downsample(&img, 6, 3, &mut ops);
        assert_eq!(ds.width(), 58);
        assert_eq!(ds.height(), 87);
    }

    #[test]
    fn trailing_partial_blocks_are_covered() {
        let mut img = image(10, 10);
        // One pixel in the 1-wide rightmost partial column and one in the
        // 2-tall bottom partial row: formerly invisible to the RPN.
        img.set(9, 0, true);
        img.set(0, 9, true);
        let mut ops = OpsCounter::new();
        let ds = CountImage::downsample(&img, 3, 4, &mut ops);
        assert_eq!(ds.width(), 4, "ceil(10 / 3)");
        assert_eq!(ds.height(), 3, "ceil(10 / 4)");
        assert_eq!(ds.get(3, 0), 1, "right-edge partial cell sees the pixel");
        assert_eq!(ds.get(0, 2), 1, "bottom-edge partial cell sees the pixel");
        assert_eq!(ds.total(), 2, "no pixel is dropped");
    }

    #[test]
    fn block_sums_count_set_pixels() {
        let mut img = image(12, 6);
        img.fill_box(&PixelBox::new(0, 0, 6, 3)); // fills cell (0,0) fully
        img.set(6, 0, true); // one pixel of cell (1, 0)
        let mut ops = OpsCounter::new();
        let ds = CountImage::downsample(&img, 6, 3, &mut ops);
        assert_eq!(ds.get(0, 0), 18);
        assert_eq!(ds.get(1, 0), 1);
        assert_eq!(ds.get(0, 1), 0);
        assert_eq!(ds.total(), 19);
    }

    #[test]
    fn total_matches_count_ones_always() {
        let mut img = image(24, 12);
        img.set(0, 0, true);
        img.set(23, 11, true);
        img.set(13, 7, true);
        let mut ops = OpsCounter::new();
        let ds = CountImage::downsample(&img, 6, 3, &mut ops);
        assert_eq!(ds.total(), 3);
        // Non-divisible geometry conserves mass too (the Eq. 3 fix).
        let mut img = image(13, 7);
        img.fill_box(&PixelBox::new(0, 0, 13, 7));
        let ds = CountImage::downsample(&img, 6, 3, &mut ops);
        assert_eq!(ds.total(), 13 * 7);
    }

    #[test]
    fn ops_charged_per_input_pixel() {
        let img = image(24, 12);
        let mut ops = OpsCounter::new();
        let ds = CountImage::downsample(&img, 6, 3, &mut ops);
        assert_eq!(ops.additions, 24 * 12, "A*B additions");
        assert_eq!(ops.mem_writes, u64::from(ds.width()) * u64::from(ds.height()));
    }

    #[test]
    fn any_nonzero_in_detects_and_clips() {
        let mut img = image(12, 6);
        img.set(7, 1, true); // cell (1, 0)
        let mut ops = OpsCounter::new();
        let ds = CountImage::downsample(&img, 6, 3, &mut ops);
        assert!(ds.any_nonzero_in(1, 2, 0, 1));
        assert!(!ds.any_nonzero_in(0, 1, 0, 2));
        assert!(ds.any_nonzero_in(0, 100, 0, 100), "clips to image");
    }

    #[test]
    fn payload_bits_matches_eq5_for_paper_parameters() {
        let img = image(240, 180);
        let mut ops = OpsCounter::new();
        let ds = CountImage::downsample(&img, 6, 3, &mut ops);
        // ceil(log2(18)) = 5 bits per cell, 40*60 cells = 12_000 bits.
        assert_eq!(ds.payload_bits(), 40 * 60 * 5);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_factor_panics() {
        let img = image(8, 8);
        let mut ops = OpsCounter::new();
        let _ = CountImage::downsample(&img, 0, 1, &mut ops);
    }

    #[test]
    fn unit_factors_copy_the_image() {
        let mut img = image(5, 4);
        img.set(2, 2, true);
        let mut ops = OpsCounter::new();
        let ds = CountImage::downsample(&img, 1, 1, &mut ops);
        assert_eq!(ds.width(), 5);
        assert_eq!(ds.height(), 4);
        assert_eq!(ds.get(2, 2), 1);
        assert_eq!(ds.get(0, 0), 0);
        assert_eq!(ds.total(), 1);
    }
}

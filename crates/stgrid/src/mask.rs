//! Rasterized regions as binary assignment matrices (Definition 4).

use serde::{Deserialize, Serialize};

/// A binary mask over the atomic raster: the assignment matrix `A^R` of a
/// rasterized region.
///
/// Cells are packed 64 to a `u64` word in row-major order: cell `(r, c)`
/// is cell `i = r * w + c`, stored as bit `i % 64` of word `i / 64`. Rows
/// are not padded, so a row may straddle two words. This is the wire's
/// packed form (LSB-first bytes, see `o4a-serve`'s `wire`) read as
/// little-endian words, so a mask crosses the wire by a copy.
///
/// The bits past cell `h * w - 1` in the last word are always zero. Every
/// constructor and operation keeps them so, which makes the derived `Eq`
/// and `Hash` over the words agree with cell-wise equality: masks key the
/// compiled-plan cache and the shard router's decomposition memo.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Mask {
    h: usize,
    w: usize,
    words: Vec<u64>,
}

/// The word-aligned pieces of the bit range `[start, end)`: each
/// `(word index, bits)` selects the range's bits within that word.
pub(crate) fn spans(start: usize, end: usize) -> impl Iterator<Item = (usize, u64)> {
    let mut i = start;
    std::iter::from_fn(move || {
        if i >= end {
            return None;
        }
        let (wi, lo) = (i / 64, i % 64);
        let hi = (end - wi * 64).min(64);
        i = (wi + 1) * 64;
        Some((wi, u64::MAX >> (64 - (hi - lo)) << lo))
    })
}

impl Mask {
    /// Creates an empty (all-zero) mask.
    pub fn empty(h: usize, w: usize) -> Self {
        assert!(h > 0 && w > 0, "mask dimensions must be positive");
        Mask {
            h,
            w,
            words: vec![0; (h * w).div_ceil(64)],
        }
    }

    /// Creates a full (all-one) mask — the matrix `S_1` of the paper.
    pub fn full(h: usize, w: usize) -> Self {
        let mut m = Mask::empty(h, w);
        for (wi, bits) in spans(0, h * w) {
            m.words[wi] = bits;
        }
        m
    }

    /// Creates a mask from an explicit bit buffer (row-major).
    pub fn from_bits(h: usize, w: usize, bits: Vec<bool>) -> Self {
        assert_eq!(bits.len(), h * w, "bit buffer does not match dimensions");
        let mut words = vec![0u64; bits.len().div_ceil(64)];
        for (i, _) in bits.iter().enumerate().filter(|(_, &b)| b) {
            words[i / 64] |= 1 << (i % 64);
        }
        Mask { h, w, words }
    }

    /// Creates a mask from its packed words (see the type docs for the
    /// layout). Returns `None` unless `words` holds exactly
    /// `ceil(h * w / 64)` words with every padding bit zero.
    pub fn from_words(h: usize, w: usize, words: Vec<u64>) -> Option<Self> {
        let cells = h.checked_mul(w)?;
        if words.len() != cells.div_ceil(64) {
            return None;
        }
        if !cells.is_multiple_of(64) && words[cells / 64] >> (cells % 64) != 0 {
            return None;
        }
        Some(Mask { h, w, words })
    }

    /// The packed words (see the type docs for the layout).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Creates a rectangular mask covering `[r0, r1) x [c0, c1)`.
    pub fn rect(h: usize, w: usize, r0: usize, c0: usize, r1: usize, c1: usize) -> Self {
        assert!(
            r1 <= h && c1 <= w && r0 <= r1 && c0 <= c1,
            "rect out of bounds"
        );
        let mut m = Mask::empty(h, w);
        for r in r0..r1 {
            for (wi, bits) in spans(r * w + c0, r * w + c1) {
                m.words[wi] |= bits;
            }
        }
        m
    }

    /// Mask height.
    #[inline]
    pub fn h(&self) -> usize {
        self.h
    }

    /// Mask width.
    #[inline]
    pub fn w(&self) -> usize {
        self.w
    }

    /// Reads one bit.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> bool {
        debug_assert!(row < self.h && col < self.w);
        let i = row * self.w + col;
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Writes one bit.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: bool) {
        debug_assert!(row < self.h && col < self.w);
        let i = row * self.w + col;
        if value {
            self.words[i / 64] |= 1 << (i % 64);
        } else {
            self.words[i / 64] &= !(1 << (i % 64));
        }
    }

    /// Number of set cells (the region's area in atomic grids).
    pub fn area(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether no cell is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterator over the set cells as `(row, col)`, in row-major order.
    pub fn iter_set(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let w = self.w;
        self.words.iter().enumerate().flat_map(move |(wi, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let i = wi * 64 + rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some((i / w, i % w))
            })
        })
    }

    /// Set union (in place).
    pub fn union_with(&mut self, other: &Mask) {
        self.check_dims(other);
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Set difference (in place): removes `other`'s cells.
    pub fn subtract(&mut self, other: &Mask) {
        self.check_dims(other);
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Set intersection (in place).
    pub fn intersect_with(&mut self, other: &Mask) {
        self.check_dims(other);
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// Whether the two masks share any cell.
    pub fn intersects(&self, other: &Mask) -> bool {
        self.check_dims(other);
        self.words
            .iter()
            .zip(&other.words)
            .any(|(&a, &b)| a & b != 0)
    }

    /// Whether every set cell of `self` is also set in `other`
    /// (`self ⊆ other`).
    pub fn is_subset_of(&self, other: &Mask) -> bool {
        self.check_dims(other);
        self.words
            .iter()
            .zip(&other.words)
            .all(|(&a, &b)| a & !b == 0)
    }

    /// Whether the rectangle `[r0, r1) x [c0, c1)` is fully covered.
    pub fn covers_rect(&self, r0: usize, c0: usize, r1: usize, c1: usize) -> bool {
        debug_assert!(r1 <= self.h && c1 <= self.w);
        (r0..r1).all(|r| {
            spans(r * self.w + c0, r * self.w + c1).all(|(wi, bits)| self.words[wi] & bits == bits)
        })
    }

    /// Clears the rectangle `[r0, r1) x [c0, c1)`.
    pub fn clear_rect(&mut self, r0: usize, c0: usize, r1: usize, c1: usize) {
        debug_assert!(r1 <= self.h && c1 <= self.w);
        for r in r0..r1 {
            for (wi, bits) in spans(r * self.w + c0, r * self.w + c1) {
                self.words[wi] &= !bits;
            }
        }
    }

    /// Bounding box of the set cells:
    /// `(row_min, col_min, row_max_exclusive, col_max_exclusive)`, or `None`
    /// if the mask is empty.
    pub fn bounding_box(&self) -> Option<(usize, usize, usize, usize)> {
        let mut bb: Option<(usize, usize, usize, usize)> = None;
        for (r, c) in self.iter_set() {
            bb = Some(match bb {
                None => (r, c, r + 1, c + 1),
                Some((r0, c0, r1, c1)) => (r0.min(r), c0.min(c), r1.max(r + 1), c1.max(c + 1)),
            });
        }
        bb
    }

    /// 4-connected components of the set cells, each returned as its own
    /// mask, in row-major order of their first cell.
    pub fn connected_components(&self) -> Vec<Mask> {
        let (h, w) = (self.h, self.w);
        // cells not yet claimed by a component
        let mut left = self.clone();
        let mut out = Vec::new();
        for (r0, c0) in self.iter_set() {
            if !left.get(r0, c0) {
                continue;
            }
            let mut comp = Mask::empty(h, w);
            let mut stack = vec![(r0, c0)];
            left.set(r0, c0, false);
            while let Some((r, c)) = stack.pop() {
                comp.set(r, c, true);
                let neighbours = [
                    (r > 0).then(|| (r - 1, c)),
                    (r + 1 < h).then_some((r + 1, c)),
                    (c > 0).then(|| (r, c - 1)),
                    (c + 1 < w).then_some((r, c + 1)),
                ];
                for (nr, nc) in neighbours.into_iter().flatten() {
                    if left.get(nr, nc) {
                        left.set(nr, nc, false);
                        stack.push((nr, nc));
                    }
                }
            }
            out.push(comp);
        }
        out
    }

    /// Whether the set cells form a single 4-connected component.
    pub fn is_connected(&self) -> bool {
        !self.is_empty() && self.connected_components().len() == 1
    }

    fn check_dims(&self, other: &Mask) {
        assert!(
            self.h == other.h && self.w == other.w,
            "mask dimension mismatch: {}x{} vs {}x{}",
            self.h,
            self.w,
            other.h,
            other.w
        );
    }
}

impl std::fmt::Display for Mask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for r in 0..self.h {
            for c in 0..self.w {
                write!(f, "{}", if self.get(r, c) { '#' } else { '.' })?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full() {
        let e = Mask::empty(3, 4);
        assert_eq!(e.area(), 0);
        assert!(e.is_empty());
        let f = Mask::full(3, 4);
        assert_eq!(f.area(), 12);
    }

    #[test]
    fn rect_area_and_bbox() {
        let m = Mask::rect(8, 8, 1, 2, 4, 6);
        assert_eq!(m.area(), 12);
        assert_eq!(m.bounding_box(), Some((1, 2, 4, 6)));
    }

    #[test]
    fn set_operations() {
        let mut a = Mask::rect(4, 4, 0, 0, 2, 2);
        let b = Mask::rect(4, 4, 1, 1, 3, 3);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.area(), 7);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.area(), 1);
        assert!(i.get(1, 1));
        a.subtract(&b);
        assert_eq!(a.area(), 3);
        assert!(!a.get(1, 1));
    }

    #[test]
    fn subset_and_intersects() {
        let small = Mask::rect(4, 4, 0, 0, 1, 1);
        let big = Mask::rect(4, 4, 0, 0, 2, 2);
        assert!(small.is_subset_of(&big));
        assert!(!big.is_subset_of(&small));
        assert!(small.intersects(&big));
        let far = Mask::rect(4, 4, 3, 3, 4, 4);
        assert!(!small.intersects(&far));
    }

    #[test]
    fn covers_and_clear_rect() {
        let mut m = Mask::rect(4, 4, 0, 0, 4, 4);
        assert!(m.covers_rect(1, 1, 3, 3));
        m.set(2, 2, false);
        assert!(!m.covers_rect(1, 1, 3, 3));
        m.clear_rect(0, 0, 2, 4);
        assert_eq!(m.area(), 7); // bottom half (8) minus the hole at (2,2)
    }

    #[test]
    fn connected_components_split() {
        let mut m = Mask::empty(4, 4);
        m.set(0, 0, true);
        m.set(0, 1, true);
        m.set(3, 3, true);
        let comps = m.connected_components();
        assert_eq!(comps.len(), 2);
        let areas: Vec<usize> = comps.iter().map(Mask::area).collect();
        assert!(areas.contains(&2) && areas.contains(&1));
        assert!(!m.is_connected());
    }

    #[test]
    fn diagonal_cells_not_connected() {
        let mut m = Mask::empty(2, 2);
        m.set(0, 0, true);
        m.set(1, 1, true);
        assert_eq!(m.connected_components().len(), 2);
    }

    #[test]
    fn iter_set_yields_coordinates() {
        let m = Mask::rect(3, 3, 1, 1, 2, 3);
        let cells: Vec<(usize, usize)> = m.iter_set().collect();
        assert_eq!(cells, vec![(1, 1), (1, 2)]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let mut a = Mask::empty(2, 2);
        let b = Mask::empty(3, 3);
        a.union_with(&b);
    }

    #[test]
    fn from_words_rejects_a_wrong_word_count() {
        // 5x7 = 35 cells in 1 word, 8x8 in 1, 33x65 = 2145 cells in 34
        assert!(Mask::from_words(5, 7, vec![0]).is_some());
        assert!(Mask::from_words(5, 7, vec![]).is_none());
        assert!(Mask::from_words(5, 7, vec![0, 0]).is_none());
        assert!(Mask::from_words(8, 8, vec![u64::MAX, 0]).is_none());
        assert!(Mask::from_words(33, 65, vec![0; 34]).is_some());
        assert!(Mask::from_words(33, 65, vec![0; 33]).is_none());
        assert!(Mask::from_words(33, 65, vec![0; 35]).is_none());
    }

    #[test]
    fn from_words_rejects_a_set_padding_bit() {
        let m = Mask::rect(5, 7, 1, 2, 4, 6);
        assert_eq!(Mask::from_words(5, 7, m.words().to_vec()), Some(m));
        // bits 35..64 pad a 5x7 mask
        assert!(Mask::from_words(5, 7, vec![(1 << 35) - 1]).is_some());
        assert!(Mask::from_words(5, 7, vec![1 << 35]).is_none());
        assert!(Mask::from_words(5, 7, vec![1 << 63]).is_none());
        // 8x8 has no padding bit
        assert_eq!(
            Mask::from_words(8, 8, vec![u64::MAX]),
            Some(Mask::full(8, 8))
        );
        // bits 33..64 of word 33 pad a 33x65 mask
        let mut words = Mask::full(33, 65).words().to_vec();
        assert_eq!(words[33], (1 << 33) - 1);
        for bit in [33, 40, 63] {
            words[33] |= 1 << bit;
            assert!(
                Mask::from_words(33, 65, words.clone()).is_none(),
                "bit {bit}"
            );
            words[33] &= !(1 << bit);
        }
    }

    #[test]
    fn words_hold_cells_row_major_lsb_first() {
        // 3x27: row 2 spans cells 54..81, across the word boundary at 64;
        // columns 5..20 of it are cells 59..74
        let m = Mask::rect(3, 27, 2, 5, 3, 20);
        assert_eq!(m.words(), [((1 << 5) - 1) << 59, (1 << 10) - 1]);
        assert!(m.covers_rect(2, 5, 3, 20));
        assert!(!m.covers_rect(2, 4, 3, 20));
        assert_eq!(m.iter_set().next(), Some((2, 5)));
        assert_eq!(m.iter_set().last(), Some((2, 19)));
        assert_eq!(Mask::full(3, 27).words(), [u64::MAX, (1 << 17) - 1]);
    }

    #[test]
    fn display_renders() {
        let m = Mask::rect(2, 2, 0, 0, 1, 1);
        assert_eq!(format!("{m}"), "#.\n..\n");
    }
}

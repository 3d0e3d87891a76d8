//! `Mask` against a one-`bool`-per-cell model.
//!
//! Random sequences of writes and set operations run on a mask and on the
//! model side by side; after every step each query must agree with the
//! model, equal models must give equal masks with equal hashes, and the
//! padding bits past the last cell must stay zero. The dimensions make
//! rows straddle words and leave `h * w` off a multiple of 64.

use o4a_grid::Mask;
use o4a_tensor::SeededRng;
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

const DIMS: [(usize, usize); 4] = [(5, 7), (27, 27), (33, 65), (81, 81)];

#[derive(Clone)]
struct Model {
    h: usize,
    w: usize,
    bits: Vec<bool>,
}

impl Model {
    fn get(&self, r: usize, c: usize) -> bool {
        self.bits[r * self.w + c]
    }

    fn fill_rect(&mut self, (r0, c0, r1, c1): Rect, v: bool) {
        for r in r0..r1 {
            for c in c0..c1 {
                self.bits[r * self.w + c] = v;
            }
        }
    }

    fn zip(&mut self, other: &Model, f: impl Fn(bool, bool) -> bool) {
        for (a, &b) in self.bits.iter_mut().zip(&other.bits) {
            *a = f(*a, b);
        }
    }

    fn cells(&self) -> Vec<(usize, usize)> {
        (0..self.bits.len())
            .filter(|&i| self.bits[i])
            .map(|i| (i / self.w, i % self.w))
            .collect()
    }

    /// 4-connected components as sorted cell lists, in row-major order
    /// of their first cell.
    fn components(&self) -> Vec<Vec<(usize, usize)>> {
        let mut seen = vec![false; self.bits.len()];
        let mut out = Vec::new();
        for start in 0..self.bits.len() {
            if !self.bits[start] || seen[start] {
                continue;
            }
            seen[start] = true;
            let mut comp = vec![start];
            let mut i = 0;
            while i < comp.len() {
                let (r, c) = (comp[i] / self.w, comp[i] % self.w);
                i += 1;
                let mut next = Vec::new();
                if r > 0 {
                    next.push(comp[i - 1] - self.w);
                }
                if r + 1 < self.h {
                    next.push(comp[i - 1] + self.w);
                }
                if c > 0 {
                    next.push(comp[i - 1] - 1);
                }
                if c + 1 < self.w {
                    next.push(comp[i - 1] + 1);
                }
                for j in next {
                    if self.bits[j] && !seen[j] {
                        seen[j] = true;
                        comp.push(j);
                    }
                }
            }
            comp.sort_unstable();
            out.push(comp.iter().map(|&i| (i / self.w, i % self.w)).collect());
        }
        out
    }
}

type Rect = (usize, usize, usize, usize);

fn random_rect(h: usize, w: usize, rng: &mut SeededRng) -> Rect {
    let (r0, c0) = (rng.index(h + 1), rng.index(w + 1));
    (
        r0,
        c0,
        r0 + rng.index(h - r0 + 1),
        c0 + rng.index(w - c0 + 1),
    )
}

fn hash_of(m: &Mask) -> u64 {
    let mut s = DefaultHasher::new();
    m.hash(&mut s);
    s.finish()
}

/// Every query of `m` agrees with `model`; `other` is the second operand.
fn check(m: &Mask, model: &Model, other: &Mask, other_model: &Model, rng: &mut SeededRng) {
    let (h, w) = (model.h, model.w);
    let cells = model.cells();
    assert_eq!(m.area(), cells.len(), "area");
    assert_eq!(m.is_empty(), cells.is_empty(), "is_empty");
    assert_eq!(m.iter_set().collect::<Vec<_>>(), cells, "iter_set order");

    // equal models, equal masks, equal hashes; padding stays zero
    let rebuilt = Mask::from_bits(h, w, model.bits.clone());
    assert_eq!(m, &rebuilt, "equal model, unequal mask");
    assert_eq!(hash_of(m), hash_of(&rebuilt), "equal masks, unequal hashes");
    let n = h * w;
    let last = *m.words().last().expect("at least one word");
    assert!(n % 64 == 0 || last >> (n % 64) == 0, "padding bit set");
    assert_eq!(Mask::from_words(h, w, m.words().to_vec()).as_ref(), Some(m));

    for _ in 0..4 {
        let (r0, c0, r1, c1) = random_rect(h, w, rng);
        let want = (r0..r1).all(|r| (c0..c1).all(|c| model.get(r, c)));
        assert_eq!(m.covers_rect(r0, c0, r1, c1), want, "covers_rect");
    }
    let bbox = cells.iter().fold(None, |bb: Option<Rect>, &(r, c)| {
        Some(match bb {
            None => (r, c, r + 1, c + 1),
            Some((r0, c0, r1, c1)) => (r0.min(r), c0.min(c), r1.max(r + 1), c1.max(c + 1)),
        })
    });
    assert_eq!(m.bounding_box(), bbox, "bounding_box");

    let comps: Vec<Vec<(usize, usize)>> = m
        .connected_components()
        .iter()
        .map(|c| c.iter_set().collect())
        .collect();
    assert_eq!(comps, model.components(), "connected_components");

    let shared = model
        .bits
        .iter()
        .zip(&other_model.bits)
        .any(|(&a, &b)| a && b);
    assert_eq!(m.intersects(other), shared, "intersects");
    let subset = model
        .bits
        .iter()
        .zip(&other_model.bits)
        .all(|(&a, &b)| !a || b);
    assert_eq!(m.is_subset_of(other), subset, "is_subset_of");
}

fn run_ops(h: usize, w: usize, seed: u64, steps: usize) {
    let mut rng = SeededRng::new(seed);
    let empty = Model {
        h,
        w,
        bits: vec![false; h * w],
    };
    let (mut a, mut am) = (Mask::empty(h, w), empty.clone());
    let (mut b, mut bm) = (Mask::empty(h, w), empty);
    for _ in 0..steps {
        match rng.index(9) {
            0 | 1 => {
                let (r, c, v) = (rng.index(h), rng.index(w), rng.bernoulli(0.7));
                a.set(r, c, v);
                am.bits[r * w + c] = v;
            }
            2 => {
                let rect = random_rect(h, w, &mut rng);
                let (r0, c0, r1, c1) = rect;
                b = Mask::rect(h, w, r0, c0, r1, c1);
                bm.bits.iter_mut().for_each(|x| *x = false);
                bm.fill_rect(rect, true);
            }
            3 => {
                a.union_with(&b);
                am.zip(&bm, |x, y| x || y);
            }
            4 => {
                a.subtract(&b);
                am.zip(&bm, |x, y| x && !y);
            }
            5 => {
                a.intersect_with(&b);
                am.zip(&bm, |x, y| x && y);
            }
            6 => {
                let rect = random_rect(h, w, &mut rng);
                let (r0, c0, r1, c1) = rect;
                a.clear_rect(r0, c0, r1, c1);
                am.fill_rect(rect, false);
            }
            7 => {
                std::mem::swap(&mut a, &mut b);
                std::mem::swap(&mut am, &mut bm);
            }
            _ => {
                if rng.bernoulli(0.5) {
                    b = Mask::full(h, w);
                    bm.bits.iter_mut().for_each(|x| *x = true);
                } else {
                    let bits: Vec<bool> = (0..h * w).map(|_| rng.bernoulli(0.5)).collect();
                    b = Mask::from_bits(h, w, bits.clone());
                    bm.bits = bits;
                }
            }
        }
        check(&a, &am, &b, &bm, &mut rng);
        check(&b, &bm, &a, &am, &mut rng);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mask_matches_the_bool_model(seed in 0u64..1_000_000) {
        let (h, w) = DIMS[seed as usize % DIMS.len()];
        run_ops(h, w, seed, 40);
    }
}

#[test]
fn every_dimension_runs() {
    for (i, (h, w)) in DIMS.into_iter().enumerate() {
        run_ops(h, w, 1000 + i as u64, 60);
    }
}

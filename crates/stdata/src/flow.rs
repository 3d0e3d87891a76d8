//! Citywide crowd flow (Definition 3): a time series of rasters.
//!
//! The paper's flow tensor is `X_t ∈ R^{H x W x C}`; the evaluation tasks
//! predict a single demand measurement, so this reproduction fixes `C = 1`
//! and stores a series as a dense `[T, H, W]` buffer.

use o4a_grid::Hierarchy;

/// A citywide crowd-flow series over an `h x w` raster with `t` time slots.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSeries {
    t: usize,
    h: usize,
    w: usize,
    data: Vec<f32>,
}

impl FlowSeries {
    /// Creates an all-zero series.
    pub fn zeros(t: usize, h: usize, w: usize) -> Self {
        assert!(
            t > 0 && h > 0 && w > 0,
            "series dimensions must be positive"
        );
        FlowSeries {
            t,
            h,
            w,
            data: vec![0.0; t * h * w],
        }
    }

    /// Creates a series from a flat `[T, H, W]` buffer.
    pub fn from_vec(t: usize, h: usize, w: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), t * h * w, "buffer does not match dimensions");
        FlowSeries { t, h, w, data }
    }

    /// Number of time slots.
    #[inline]
    pub fn len_t(&self) -> usize {
        self.t
    }

    /// Raster height.
    #[inline]
    pub fn h(&self) -> usize {
        self.h
    }

    /// Raster width.
    #[inline]
    pub fn w(&self) -> usize {
        self.w
    }

    /// Reads one value.
    #[inline]
    pub fn get(&self, t: usize, row: usize, col: usize) -> f32 {
        debug_assert!(t < self.t && row < self.h && col < self.w);
        self.data[(t * self.h + row) * self.w + col]
    }

    /// Writes one value.
    #[inline]
    pub fn set(&mut self, t: usize, row: usize, col: usize, value: f32) {
        debug_assert!(t < self.t && row < self.h && col < self.w);
        self.data[(t * self.h + row) * self.w + col] = value;
    }

    /// The raster at time `t` as a slice of length `h * w`.
    pub fn frame(&self, t: usize) -> &[f32] {
        debug_assert!(t < self.t);
        &self.data[t * self.h * self.w..(t + 1) * self.h * self.w]
    }

    /// The time series of a single grid cell.
    pub fn cell_series(&self, row: usize, col: usize) -> Vec<f32> {
        (0..self.t).map(|t| self.get(t, row, col)).collect()
    }

    /// Aggregates the series to a coarser layer of the hierarchy by summing
    /// the flows of merged grids (flows are counts, so aggregation is exact
    /// — this realizes `X_t^s` from `X_t^1`).
    pub fn aggregate_to_layer(&self, hier: &Hierarchy, layer: usize) -> FlowSeries {
        let (lh, lw) = hier.layer_dims(layer);
        let mut out = FlowSeries::zeros(self.t, lh, lw);
        for (t, layer_frame) in out.data.chunks_exact_mut(lh * lw).enumerate() {
            self.add_frame_to_layer(hier, layer, t, layer_frame);
        }
        out
    }

    /// Frame `t` aggregated to `layer` of the hierarchy: the same sums as
    /// frame `t` of [`FlowSeries::aggregate_to_layer`], without
    /// aggregating the other frames.
    pub fn aggregate_frame(&self, hier: &Hierarchy, layer: usize, t: usize) -> Vec<f32> {
        let (lh, lw) = hier.layer_dims(layer);
        let mut out = vec![0.0; lh * lw];
        self.add_frame_to_layer(hier, layer, t, &mut out);
        out
    }

    /// Adds frame `t` into `out`, a raster of `layer`, cell by cell in
    /// row-major order.
    fn add_frame_to_layer(&self, hier: &Hierarchy, layer: usize, t: usize, out: &mut [f32]) {
        assert_eq!(
            (self.h, self.w),
            (hier.h(), hier.w()),
            "series raster does not match hierarchy"
        );
        let s = hier.scale(layer);
        let lw = hier.layer_dims(layer).1;
        for (r, row) in self.frame(t).chunks_exact(self.w).enumerate() {
            let out_row = &mut out[(r / s) * lw..][..lw];
            for (c, &v) in row.iter().enumerate() {
                out_row[c / s] += v;
            }
        }
    }

    /// Aggregates to every layer of the hierarchy, returning one series per
    /// layer (layer 0 is a copy of `self`).
    pub fn pyramid(&self, hier: &Hierarchy) -> Vec<FlowSeries> {
        (0..hier.num_layers())
            .map(|l| {
                if l == 0 {
                    self.clone()
                } else {
                    self.aggregate_to_layer(hier, l)
                }
            })
            .collect()
    }

    /// Sum of a mask's cells at time `t` (the ground-truth flow of a
    /// rasterized region).
    pub fn region_flow(&self, t: usize, mask: &o4a_grid::Mask) -> f32 {
        debug_assert_eq!((mask.h(), mask.w()), (self.h, self.w));
        let frame = self.frame(t);
        mask.iter_set().map(|(r, c)| frame[r * self.w + c]).sum()
    }

    /// Mean flow per cell over the whole series.
    pub fn mean(&self) -> f32 {
        self.data.iter().sum::<f32>() / self.data.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use o4a_grid::Mask;

    fn small_series() -> FlowSeries {
        // 2 time slots over a 4x4 raster with distinct values
        let mut s = FlowSeries::zeros(2, 4, 4);
        for t in 0..2 {
            for r in 0..4 {
                for c in 0..4 {
                    s.set(t, r, c, (t * 100 + r * 4 + c) as f32);
                }
            }
        }
        s
    }

    #[test]
    fn get_set_frame() {
        let s = small_series();
        assert_eq!(s.get(1, 2, 3), 111.0);
        assert_eq!(s.frame(0)[5], 5.0);
    }

    #[test]
    fn aggregation_preserves_totals() {
        let s = small_series();
        let hier = Hierarchy::new(4, 4, 2, 3).unwrap();
        for layer in 0..3 {
            let agg = s.aggregate_to_layer(&hier, layer);
            for t in 0..2 {
                let total: f32 = agg.frame(t).iter().sum();
                let expect: f32 = s.frame(t).iter().sum();
                assert_eq!(total, expect, "layer {layer} t={t}");
            }
        }
    }

    #[test]
    fn aggregation_block_sums() {
        let s = small_series();
        let hier = Hierarchy::new(4, 4, 2, 3).unwrap();
        let agg = s.aggregate_to_layer(&hier, 1);
        // top-left 2x2 block at t=0: 0+1+4+5 = 10
        assert_eq!(agg.get(0, 0, 0), 10.0);
        assert_eq!(agg.h(), 2);
        assert_eq!(agg.w(), 2);
    }

    #[test]
    fn pyramid_layer_dims() {
        let s = small_series();
        let hier = Hierarchy::new(4, 4, 2, 3).unwrap();
        let pyr = s.pyramid(&hier);
        assert_eq!(pyr.len(), 3);
        assert_eq!((pyr[0].h(), pyr[0].w()), (4, 4));
        assert_eq!((pyr[1].h(), pyr[1].w()), (2, 2));
        assert_eq!((pyr[2].h(), pyr[2].w()), (1, 1));
    }

    #[test]
    fn region_flow_sums_mask() {
        let s = small_series();
        let mask = Mask::rect(4, 4, 0, 0, 2, 2);
        assert_eq!(s.region_flow(0, &mask), 10.0);
    }

    #[test]
    fn cell_series_extracts_time() {
        let s = small_series();
        assert_eq!(s.cell_series(1, 1), vec![5.0, 105.0]);
    }
}

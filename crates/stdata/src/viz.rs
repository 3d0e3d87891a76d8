//! Terminal visualization: ASCII heatmaps for rasters — quick looks at
//! flows, ACF maps and prediction errors without leaving the terminal.

const RAMP: &[u8] = b" .:-=+*#%@";

/// Renders a flat `h x w` raster as an ASCII heatmap, scaling values to
/// the ramp `" .:-=+*#%@"` between the raster's min and max.
pub fn heatmap(values: &[f32], h: usize, w: usize) -> String {
    assert_eq!(values.len(), h * w, "raster size mismatch");
    let lo = values.iter().copied().fold(f32::INFINITY, f32::min);
    let hi = values.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let span = (hi - lo).max(1e-9);
    let mut out = String::with_capacity(h * (w + 1));
    for r in 0..h {
        for c in 0..w {
            let v = (values[r * w + c] - lo) / span;
            let idx = ((v * (RAMP.len() - 1) as f32).round() as usize).min(RAMP.len() - 1);
            out.push(RAMP[idx] as char);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heatmap_shape_and_extremes() {
        let values = vec![0.0, 1.0, 2.0, 3.0];
        let map = heatmap(&values, 2, 2);
        let lines: Vec<&str> = map.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].len(), 2);
        // min maps to ' ', max maps to '@'
        assert_eq!(map.chars().next(), Some(' '));
        assert_eq!(lines[1].chars().nth(1), Some('@'));
    }

    #[test]
    fn constant_raster_does_not_panic() {
        let map = heatmap(&[5.0; 9], 3, 3);
        assert_eq!(map.lines().count(), 3);
    }

    #[test]
    #[should_panic(expected = "raster size mismatch")]
    fn heatmap_size_mismatch_panics() {
        heatmap(&[1.0, 2.0], 2, 2);
    }
}

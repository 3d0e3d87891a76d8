//! Weight persistence: serialize and restore a parameter list, such as
//! the one [`Module::params_mut`](crate::module::Module::params_mut)
//! collects from a network's parameter walk, so the stream holds the
//! parameters in the order training visits them.
//!
//! The format is a little-endian stream of raw `f32` parameter buffers,
//! prefixed by per-parameter lengths so loading validates that the target
//! module has the same architecture:
//!
//! ```text
//! magic "O4ANN001" | param_count u32 | (len u32)*  | (f32 values)*
//! ```
//!
//! Only values are stored — optimizer state and gradients are training
//! artifacts and are not part of a deployable model.

const MAGIC: &[u8; 8] = b"O4ANN001";

/// Errors restoring weights.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// Wrong magic prefix.
    BadMagic,
    /// Stream ended early or lengths disagree.
    Corrupt(&'static str),
    /// The target module's parameter shapes do not match the stream.
    ArchitectureMismatch {
        /// Parameter index that disagreed.
        index: usize,
        /// Length expected by the module.
        expected: usize,
        /// Length found in the stream.
        found: usize,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::BadMagic => write!(f, "bad weight-stream magic"),
            PersistError::Corrupt(what) => write!(f, "corrupt weight stream: {what}"),
            PersistError::ArchitectureMismatch {
                index,
                expected,
                found,
            } => write!(
                f,
                "architecture mismatch at parameter {index}: module expects {expected} \
                 values, stream holds {found}"
            ),
        }
    }
}

impl std::error::Error for PersistError {}

/// Serializes the values of a parameter list.
pub fn save_param_values(params: &[&mut crate::param::Param]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 + params.iter().map(|p| 4 + 4 * p.len()).sum::<usize>());
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&(params.len() as u32).to_le_bytes());
    for p in params {
        buf.extend_from_slice(&(p.len() as u32).to_le_bytes());
    }
    for p in params {
        for &v in p.value.data() {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
    buf
}

/// Restores a parameter list of the same architecture (counterpart of
/// [`save_param_values`]).
pub fn load_param_values(
    params: &mut [&mut crate::param::Param],
    bytes: &[u8],
) -> Result<(), PersistError> {
    if bytes.len() < 12 || &bytes[..8] != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let count = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")) as usize;
    if params.len() != count {
        return Err(PersistError::Corrupt("parameter count mismatch"));
    }
    let mut pos = 12usize;
    let mut lens = Vec::with_capacity(count);
    for (i, p) in params.iter().enumerate() {
        if pos + 4 > bytes.len() {
            return Err(PersistError::Corrupt("truncated length table"));
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        pos += 4;
        if len != p.len() {
            return Err(PersistError::ArchitectureMismatch {
                index: i,
                expected: p.len(),
                found: len,
            });
        }
        lens.push(len);
    }
    let total: usize = lens.iter().sum();
    if bytes.len() != pos + 4 * total {
        return Err(PersistError::Corrupt("value section length mismatch"));
    }
    for (p, &len) in params.iter_mut().zip(&lens) {
        let data = p.value.data_mut();
        for v in data.iter_mut().take(len) {
            *v = f32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes"));
            pos += 4;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, Linear, Relu};
    use crate::module::Module;
    use crate::Sequential;
    use o4a_tensor::SeededRng;

    fn net(seed: u64) -> Sequential {
        let mut rng = SeededRng::new(seed);
        Sequential::new()
            .push(Conv2d::same3x3(&mut rng, 2, 4))
            .push(Relu::new())
            .push(Linear::new(&mut rng, 4, 3))
    }

    #[test]
    fn roundtrip_restores_outputs() {
        let mut rng = SeededRng::new(9);
        let x = rng.uniform_tensor(&[1, 2, 3, 3], -1.0, 1.0);
        let mut a = {
            let mut rng = SeededRng::new(1);
            Sequential::new().push(Conv2d::same3x3(&mut rng, 2, 1))
        };
        let ya = a.forward(&x);
        let bytes = save_param_values(&a.params_mut());
        let mut b = {
            let mut rng = SeededRng::new(2);
            Sequential::new().push(Conv2d::same3x3(&mut rng, 2, 1))
        };
        assert!(
            !b.forward(&x).allclose(&ya, 1e-6),
            "nets differ before load"
        );
        load_param_values(&mut b.params_mut(), &bytes).unwrap();
        assert!(b.forward(&x).allclose(&ya, 1e-6), "weights must transfer");
    }

    #[test]
    fn rejects_bad_magic() {
        let mut n = net(1);
        let mut bytes = save_param_values(&n.params_mut());
        bytes[0] = b'X';
        assert_eq!(
            load_param_values(&mut n.params_mut(), &bytes),
            Err(PersistError::BadMagic)
        );
    }

    #[test]
    fn rejects_truncation() {
        let mut n = net(1);
        let bytes = save_param_values(&n.params_mut());
        for cut in [10usize, 14, bytes.len() - 2] {
            assert!(
                load_param_values(&mut n.params_mut(), &bytes[..cut]).is_err(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn rejects_architecture_mismatch() {
        let mut small = net(1);
        let bytes = save_param_values(&small.params_mut());
        let mut rng = SeededRng::new(3);
        let mut bigger = Sequential::new()
            .push(Conv2d::same3x3(&mut rng, 2, 8)) // wider conv
            .push(Relu::new())
            .push(Linear::new(&mut rng, 4, 3));
        assert!(matches!(
            load_param_values(&mut bigger.params_mut(), &bytes),
            Err(PersistError::ArchitectureMismatch { .. })
        ));
    }

    #[test]
    fn gradients_untouched_by_roundtrip() {
        let mut n = net(4);
        let mut rng = SeededRng::new(5);
        let x = rng.uniform_tensor(&[2, 2, 3, 3], -1.0, 1.0);
        // flatten conv output manually: use forward only through conv stage
        let y = {
            // Sequential forward through all layers requires the linear's
            // input to be rank 2; build a conv-only net for this test
            let mut conv = Conv2d::same3x3(&mut rng, 2, 2);
            let y = conv.forward(&x);
            conv.backward(&o4a_tensor::Tensor::ones(y.shape()));
            let bytes = save_param_values(&conv.params_mut());
            let grads_before: Vec<f32> = conv
                .params_mut()
                .iter()
                .flat_map(|p| p.grad.data().to_vec())
                .collect();
            load_param_values(&mut conv.params_mut(), &bytes).unwrap();
            let grads_after: Vec<f32> = conv
                .params_mut()
                .iter()
                .flat_map(|p| p.grad.data().to_vec())
                .collect();
            assert_eq!(grads_before, grads_after);
            y
        };
        let _ = (n.params_mut(), y);
    }
}

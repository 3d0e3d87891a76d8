//! Graph layers for the graph-based baselines (GWN, ST-MGCN, GMAN,
//! MC-STGCN, STMeta — all *-lite* in this reproduction).
//!
//! Tensors are rank-3 `[batch, nodes, features]`. Each layer loops over the
//! batch and works on `[nodes, features]` matrices.

use crate::module::Module;
use crate::param::Param;
use o4a_tensor::{glorot_uniform, SeededRng, Tensor};

fn batch_view(t: &Tensor) -> (usize, usize, usize) {
    assert_eq!(t.rank(), 3, "graph layers expect [batch, nodes, features]");
    (t.shape()[0], t.shape()[1], t.shape()[2])
}

fn slice_mat(t: &Tensor, b: usize, rows: usize, cols: usize) -> Tensor {
    let start = b * rows * cols;
    Tensor::from_vec(t.data()[start..start + rows * cols].to_vec(), &[rows, cols])
        .expect("batch slice shape")
}

/// Row-normalizes a non-negative adjacency matrix so each row sums to one
/// (rows of all zeros become uniform self-less rows of zeros).
pub fn row_normalize(adj: &Tensor) -> Tensor {
    assert_eq!(adj.rank(), 2);
    let (v, v2) = (adj.shape()[0], adj.shape()[1]);
    assert_eq!(v, v2, "adjacency must be square");
    let mut out = adj.clone();
    for i in 0..v {
        let row = &mut out.data_mut()[i * v..(i + 1) * v];
        let s: f32 = row.iter().sum();
        if s > 0.0 {
            for x in row.iter_mut() {
                *x /= s;
            }
        }
    }
    out
}

/// Builds the 4-neighbour (rook adjacency) graph of an `h x w` grid with
/// self-loops, row-normalized. This is the predefined graph used by the
/// graph baselines over the raster.
pub fn grid_adjacency(h: usize, w: usize) -> Tensor {
    let v = h * w;
    let mut adj = Tensor::zeros(&[v, v]);
    for i in 0..h {
        for j in 0..w {
            let a = i * w + j;
            adj.data_mut()[a * v + a] = 1.0;
            let link = |b: usize, adj: &mut Tensor| {
                adj.data_mut()[a * v + b] = 1.0;
            };
            if i > 0 {
                link(a - w, &mut adj);
            }
            if i + 1 < h {
                link(a + w, &mut adj);
            }
            if j > 0 {
                link(a - 1, &mut adj);
            }
            if j + 1 < w {
                link(a + 1, &mut adj);
            }
        }
    }
    row_normalize(&adj)
}

/// Graph convolution with a fixed adjacency: `Y_b = A X_b W`.
pub struct GraphConv {
    adj: Tensor,
    adj_t: Tensor,
    weight: Param,
    cache: Option<Tensor>,
}

impl GraphConv {
    /// Creates a graph convolution with the given (already normalized)
    /// adjacency matrix.
    pub fn new(rng: &mut SeededRng, adj: Tensor, f_in: usize, f_out: usize) -> Self {
        let adj_t = adj.transpose2().expect("adjacency rank 2");
        GraphConv {
            adj,
            adj_t,
            weight: Param::new(glorot_uniform(rng, &[f_in, f_out])),
            cache: None,
        }
    }
}

impl Module for GraphConv {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let (n, v, f) = batch_view(input);
        let f_out = self.weight.value.shape()[1];
        let mut out = Vec::with_capacity(n * v * f_out);
        for b in 0..n {
            let x = slice_mat(input, b, v, f);
            let ax = self.adj.matmul(&x).expect("A X shapes");
            let y = ax.matmul(&self.weight.value).expect("AX W shapes");
            out.extend_from_slice(y.data());
        }
        self.cache = Some(input.clone());
        Tensor::from_vec(out, &[n, v, f_out]).expect("graph conv output")
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self
            .cache
            .take()
            .expect("GraphConv backward before forward");
        let (n, v, f) = batch_view(&input);
        let f_out = self.weight.value.shape()[1];
        let wt = self.weight.value.transpose2().expect("W rank 2");
        let mut grad_in = Vec::with_capacity(n * v * f);
        for b in 0..n {
            let x = slice_mat(&input, b, v, f);
            let gy = slice_mat(grad_output, b, v, f_out);
            // dW += (A X)^T dY
            let ax = self.adj.matmul(&x).expect("A X");
            let gw = ax.transpose2().unwrap().matmul(&gy).expect("dW");
            self.weight.accumulate(&gw);
            // dX = A^T dY W^T
            let gx = self.adj_t.matmul(&gy).unwrap().matmul(&wt).expect("dX");
            grad_in.extend_from_slice(gx.data());
        }
        Tensor::from_vec(grad_in, &[n, v, f]).expect("graph conv grad")
    }

    fn visit_params<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Param)) {
        f(&mut self.weight);
    }
}

/// Graph convolution with a *learned* adjacency (GraphWaveNet-style
/// adaptive graph): `A = softmax_rows(ReLU(E1 E2^T))`, `Y_b = A X_b W`.
pub struct AdaptiveGraphConv {
    e1: Param,
    e2: Param,
    weight: Param,
    cache: Option<AdaptiveCache>,
}

struct AdaptiveCache {
    input: Tensor,
    m: Tensor, // E1 E2^T (pre-relu)
    a: Tensor, // softmax(relu(M))
}

impl AdaptiveGraphConv {
    /// Creates an adaptive graph convolution over `nodes` vertices with node
    /// embeddings of dimension `embed`.
    pub fn new(rng: &mut SeededRng, nodes: usize, embed: usize, f_in: usize, f_out: usize) -> Self {
        AdaptiveGraphConv {
            e1: Param::new(rng.normal_tensor(&[nodes, embed], 0.3)),
            e2: Param::new(rng.normal_tensor(&[nodes, embed], 0.3)),
            weight: Param::new(glorot_uniform(rng, &[f_in, f_out])),
            cache: None,
        }
    }

    fn build_adjacency(&self) -> (Tensor, Tensor) {
        let m = self
            .e1
            .value
            .matmul(&self.e2.value.transpose2().expect("E2 rank 2"))
            .expect("E1 E2^T");
        let relu = m.map(|v| v.max(0.0));
        let v = relu.shape()[0];
        let mut a = relu;
        for i in 0..v {
            let row = &mut a.data_mut()[i * v..(i + 1) * v];
            let mx = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut s = 0.0f32;
            for x in row.iter_mut() {
                *x = (*x - mx).exp();
                s += *x;
            }
            for x in row.iter_mut() {
                *x /= s;
            }
        }
        (m, a)
    }
}

impl Module for AdaptiveGraphConv {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let (n, v, f) = batch_view(input);
        let (m, a) = self.build_adjacency();
        let f_out = self.weight.value.shape()[1];
        let mut out = Vec::with_capacity(n * v * f_out);
        for b in 0..n {
            let x = slice_mat(input, b, v, f);
            let y = a
                .matmul(&x)
                .unwrap()
                .matmul(&self.weight.value)
                .expect("A X W");
            out.extend_from_slice(y.data());
        }
        self.cache = Some(AdaptiveCache {
            input: input.clone(),
            m,
            a,
        });
        Tensor::from_vec(out, &[n, v, f_out]).expect("adaptive output")
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let AdaptiveCache { input, m, a } = self
            .cache
            .take()
            .expect("AdaptiveGraphConv backward before forward");
        let (n, v, f) = batch_view(&input);
        let f_out = self.weight.value.shape()[1];
        let wt = self.weight.value.transpose2().expect("W rank 2");
        let at = a.transpose2().expect("A rank 2");
        let mut grad_in = Vec::with_capacity(n * v * f);
        let mut da = Tensor::zeros(&[v, v]);
        for b in 0..n {
            let x = slice_mat(&input, b, v, f);
            let gy = slice_mat(grad_output, b, v, f_out);
            // Z = X W ; Y = A Z
            let z = x.matmul(&self.weight.value).expect("X W");
            // dZ = A^T dY ; dA += dY Z^T
            let dz = at.matmul(&gy).expect("dZ");
            let da_b = gy.matmul(&z.transpose2().unwrap()).expect("dA");
            da.add_assign(&da_b).expect("dA accumulate");
            // dW += X^T dZ ; dX = dZ W^T
            let gw = x.transpose2().unwrap().matmul(&dz).expect("dW");
            self.weight.accumulate(&gw);
            let gx = dz.matmul(&wt).expect("dX");
            grad_in.extend_from_slice(gx.data());
        }
        // softmax rows backward: dR_i = (dA_i - (dA_i . A_i)) * A_i
        let mut dr = Tensor::zeros(&[v, v]);
        for i in 0..v {
            let arow = &a.data()[i * v..(i + 1) * v];
            let darow = &da.data()[i * v..(i + 1) * v];
            let dot: f32 = arow.iter().zip(darow).map(|(x, y)| x * y).sum();
            let drrow = &mut dr.data_mut()[i * v..(i + 1) * v];
            for ((d, &av), &dav) in drrow.iter_mut().zip(arow).zip(darow) {
                *d = (dav - dot) * av;
            }
        }
        // relu backward on M
        let dm = Tensor::from_vec(
            dr.data()
                .iter()
                .zip(m.data())
                .map(|(&g, &mv)| if mv > 0.0 { g } else { 0.0 })
                .collect(),
            &[v, v],
        )
        .expect("dM shape");
        // dE1 = dM E2 ; dE2 = dM^T E1
        let de1 = dm.matmul(&self.e2.value).expect("dE1");
        let de2 = dm
            .transpose2()
            .unwrap()
            .matmul(&self.e1.value)
            .expect("dE2");
        self.e1.accumulate(&de1);
        self.e2.accumulate(&de2);
        Tensor::from_vec(grad_in, &[n, v, f]).expect("adaptive grad")
    }

    fn visit_params<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Param)) {
        f(&mut self.e1);
        f(&mut self.e2);
        f(&mut self.weight);
    }
}

/// Scaled dot-product self-attention over graph nodes (GMAN-lite spatial
/// attention): `Y_b = softmax(Q K^T / sqrt(d)) V` with `Q = X Wq` etc.
pub struct NodeAttention {
    wq: Param,
    wk: Param,
    wv: Param,
    cache: Option<AttnCache>,
}

struct AttnCache {
    input: Tensor,
    q: Vec<Tensor>,
    k: Vec<Tensor>,
    v: Vec<Tensor>,
    a: Vec<Tensor>,
}

impl NodeAttention {
    /// Creates single-head attention mapping `f_in` features to `d` features.
    pub fn new(rng: &mut SeededRng, f_in: usize, d: usize) -> Self {
        NodeAttention {
            wq: Param::new(glorot_uniform(rng, &[f_in, d])),
            wk: Param::new(glorot_uniform(rng, &[f_in, d])),
            wv: Param::new(glorot_uniform(rng, &[f_in, d])),
            cache: None,
        }
    }
}

fn softmax_rows(t: &mut Tensor) {
    let cols = *t.shape().last().expect("non-empty shape");
    let rows = t.len() / cols;
    for i in 0..rows {
        let row = &mut t.data_mut()[i * cols..(i + 1) * cols];
        let mx = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut s = 0.0f32;
        for x in row.iter_mut() {
            *x = (*x - mx).exp();
            s += *x;
        }
        for x in row.iter_mut() {
            *x /= s;
        }
    }
}

impl Module for NodeAttention {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let (n, v, f) = batch_view(input);
        let d = self.wq.value.shape()[1];
        let scale = 1.0 / (d as f32).sqrt();
        let mut out = Vec::with_capacity(n * v * d);
        let (mut qs, mut ks, mut vs, mut ats) = (
            Vec::with_capacity(n),
            Vec::with_capacity(n),
            Vec::with_capacity(n),
            Vec::with_capacity(n),
        );
        for b in 0..n {
            let x = slice_mat(input, b, v, f);
            let q = x.matmul(&self.wq.value).expect("Q");
            let k = x.matmul(&self.wk.value).expect("K");
            let val = x.matmul(&self.wv.value).expect("V");
            let mut s = q.matmul(&k.transpose2().unwrap()).expect("QK^T");
            s.scale_in_place(scale);
            softmax_rows(&mut s);
            let y = s.matmul(&val).expect("A V");
            out.extend_from_slice(y.data());
            qs.push(q);
            ks.push(k);
            vs.push(val);
            ats.push(s);
        }
        self.cache = Some(AttnCache {
            input: input.clone(),
            q: qs,
            k: ks,
            v: vs,
            a: ats,
        });
        Tensor::from_vec(out, &[n, v, d]).expect("attention output")
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let AttnCache {
            input,
            q,
            k,
            v: vs,
            a,
        } = self
            .cache
            .take()
            .expect("NodeAttention backward before forward");
        let (n, nodes, f) = batch_view(&input);
        let d = self.wq.value.shape()[1];
        let scale = 1.0 / (d as f32).sqrt();
        let mut grad_in = Vec::with_capacity(n * nodes * f);
        for b in 0..n {
            let x = slice_mat(&input, b, nodes, f);
            let gy = slice_mat(grad_output, b, nodes, d);
            // Y = A V
            let dv = a[b].transpose2().unwrap().matmul(&gy).expect("dV");
            let da = gy.matmul(&vs[b].transpose2().unwrap()).expect("dA");
            // softmax backward (rows)
            let mut ds = Tensor::zeros(&[nodes, nodes]);
            for i in 0..nodes {
                let arow = &a[b].data()[i * nodes..(i + 1) * nodes];
                let darow = &da.data()[i * nodes..(i + 1) * nodes];
                let dot: f32 = arow.iter().zip(darow).map(|(x, y)| x * y).sum();
                let dsrow = &mut ds.data_mut()[i * nodes..(i + 1) * nodes];
                for ((o, &av), &dav) in dsrow.iter_mut().zip(arow).zip(darow) {
                    *o = (dav - dot) * av * scale;
                }
            }
            // S = Q K^T => dQ = dS K ; dK = dS^T Q
            let dq = ds.matmul(&k[b]).expect("dQ");
            let dk = ds.transpose2().unwrap().matmul(&q[b]).expect("dK");
            // params: Q = X Wq => dWq += X^T dQ; dX accumulates from all three
            let xt = x.transpose2().unwrap();
            self.wq.accumulate(&xt.matmul(&dq).expect("dWq"));
            self.wk.accumulate(&xt.matmul(&dk).expect("dWk"));
            self.wv.accumulate(&xt.matmul(&dv).expect("dWv"));
            let mut gx = dq
                .matmul(&self.wq.value.transpose2().unwrap())
                .expect("dX q");
            gx.add_assign(
                &dk.matmul(&self.wk.value.transpose2().unwrap())
                    .expect("dX k"),
            )
            .expect("gx add");
            gx.add_assign(
                &dv.matmul(&self.wv.value.transpose2().unwrap())
                    .expect("dX v"),
            )
            .expect("gx add");
            grad_in.extend_from_slice(gx.data());
        }
        Tensor::from_vec(grad_in, &[n, nodes, f]).expect("attention grad")
    }

    fn visit_params<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Param)) {
        f(&mut self.wq);
        f(&mut self.wk);
        f(&mut self.wv);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_module_gradients;

    #[test]
    fn grid_adjacency_rows_normalized() {
        let adj = grid_adjacency(3, 3);
        assert_eq!(adj.shape(), &[9, 9]);
        for i in 0..9 {
            let s: f32 = adj.data()[i * 9..(i + 1) * 9].iter().sum();
            assert!((s - 1.0).abs() < 1e-6, "row {i} sums to {s}");
        }
        // corner has 2 neighbours + self = 3 entries of 1/3
        assert!((adj.get(&[0, 0]).unwrap() - 1.0 / 3.0).abs() < 1e-6);
        assert!((adj.get(&[0, 1]).unwrap() - 1.0 / 3.0).abs() < 1e-6);
        assert!((adj.get(&[0, 3]).unwrap() - 1.0 / 3.0).abs() < 1e-6);
        assert_eq!(adj.get(&[0, 4]).unwrap(), 0.0); // diagonal is not rook-adjacent
    }

    #[test]
    fn row_normalize_handles_zero_rows() {
        let adj = Tensor::zeros(&[2, 2]);
        let out = row_normalize(&adj);
        assert!(out.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn graph_conv_identity_adjacency_is_linear() {
        let mut rng = SeededRng::new(1);
        let eye = {
            let mut t = Tensor::zeros(&[4, 4]);
            for i in 0..4 {
                t.data_mut()[i * 4 + i] = 1.0;
            }
            t
        };
        let mut gc = GraphConv::new(&mut rng, eye, 3, 2);
        let x = rng.uniform_tensor(&[2, 4, 3], -1.0, 1.0);
        let y = gc.forward(&x);
        assert_eq!(y.shape(), &[2, 4, 2]);
        // with identity A, each node output = x W
        let x0 = slice_mat(&x, 0, 4, 3);
        let expected = x0.matmul(&gc.weight.value).unwrap();
        assert!(slice_mat(&y, 0, 4, 2).allclose(&expected, 1e-5));
    }

    #[test]
    fn gradcheck_graph_conv() {
        let mut rng = SeededRng::new(2);
        let adj = grid_adjacency(2, 2);
        let gc = GraphConv::new(&mut rng, adj, 3, 3);
        let x = rng.uniform_tensor(&[2, 4, 3], -1.0, 1.0);
        check_module_gradients(gc, &x, 1e-3, 3e-2);
    }

    #[test]
    fn gradcheck_adaptive_graph_conv() {
        let mut rng = SeededRng::new(3);
        let gc = AdaptiveGraphConv::new(&mut rng, 4, 3, 3, 2);
        let x = rng.uniform_tensor(&[2, 4, 3], -1.0, 1.0);
        check_module_gradients(gc, &x, 1e-3, 3e-2);
    }

    #[test]
    fn gradcheck_node_attention() {
        let mut rng = SeededRng::new(4);
        let attn = NodeAttention::new(&mut rng, 3, 4);
        let x = rng.uniform_tensor(&[2, 5, 3], -1.0, 1.0);
        check_module_gradients(attn, &x, 1e-3, 3e-2);
    }

    #[test]
    fn attention_rows_stochastic() {
        let mut rng = SeededRng::new(5);
        let mut attn = NodeAttention::new(&mut rng, 3, 4);
        let x = rng.uniform_tensor(&[1, 6, 3], -1.0, 1.0);
        let _ = attn.forward(&x);
        let cache = attn.cache.as_ref().unwrap();
        for row in 0..6 {
            let s: f32 = cache.a[0].data()[row * 6..(row + 1) * 6].iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn adaptive_adjacency_learns() {
        // one gradient step changes the embeddings
        let mut rng = SeededRng::new(6);
        let mut gc = AdaptiveGraphConv::new(&mut rng, 4, 3, 2, 2);
        let x = rng.uniform_tensor(&[1, 4, 2], -1.0, 1.0);
        let y = gc.forward(&x);
        gc.backward(&Tensor::ones(y.shape()));
        let e1_grad = gc.e1.grad.norm_sq();
        assert!(e1_grad > 0.0, "embedding gradient should be non-zero");
    }
}

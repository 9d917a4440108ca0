//! Executable network graphs: the model zoo as *runnable* programs.
//!
//! [`crate::model::Model`] describes a network analytically — GEMM
//! shapes and arithmetic intensities, enough for planning. A
//! [`Network`] carries everything needed to *execute* it: convolution
//! and fully-connected nodes hold real FP16 weights (seeded, scaled
//! `1/√K` like trained networks), and the non-GEMM glue — ReLU, max/avg
//! pooling, flatten, channel concatenation, residual addition — exists
//! as explicit graph nodes. `aiga-core` compiles a `Network` into a
//! protected executable (`Model → ModelPlan → CompiledModel`): every
//! conv lowers to an im2col GEMM protected by the per-layer scheme the
//! planner picked from the *real* zoo shape.
//!
//! The graph is SSA-shaped: nodes are stored in execution order and
//! each input is a [`NodeRef`] to the network input or an earlier
//! node, which is what lets branch-and-merge topologies (SqueezeNet's
//! Fire modules, ResNet's residual blocks) execute — not just chains.
//!
//! Activations between nodes are FP16 (the engine's native element), so
//! [`Network::reference_f64`] mirrors the quantization points of the
//! compiled executor exactly: it differs only in accumulating GEMMs in
//! f64 instead of the engine's f32, which is what makes "matches the
//! f64 reference within FP16 tolerance" a meaningful, tight assertion.

use crate::conv::{conv_reference_f64, ConvParams, Tensor};
use crate::layer::{conv_out, LinearLayer};
use crate::model::Model;
use aiga_dtype::{Dtype, F16};
use aiga_gpu::engine::Matrix;

/// Max or average pooling.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoolKind {
    /// Maximum over the window (padding never wins).
    Max,
    /// Average over the window's in-bounds cells.
    Avg,
}

/// Pooling hyperparameters (square windows, as all zoo models use).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolParams {
    /// Max or average.
    pub kind: PoolKind,
    /// Window side length.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding on each side.
    pub padding: usize,
    /// Ceil-mode output extents (SqueezeNet's max pools).
    pub ceil: bool,
}

impl PoolParams {
    /// Output spatial extent for one input dimension (torchvision
    /// semantics: in ceil mode the last window must still *start*
    /// inside the input-plus-left-padding region, else it is dropped).
    pub fn out_extent(&self, input: usize) -> usize {
        let span = input + 2 * self.padding - self.kernel;
        if self.ceil {
            let mut out = span.div_ceil(self.stride) + 1;
            if (out - 1) * self.stride >= input + self.padding {
                out -= 1;
            }
            out
        } else {
            span / self.stride + 1
        }
    }
}

/// A reference to a value in the graph: the network input or the output
/// of an earlier node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeRef {
    /// The network's input tensor.
    Input,
    /// The output of node `i` (an index into [`Network::nodes`]).
    Node(usize),
}

/// One executable operation.
#[derive(Clone, Debug)]
pub enum NodeOp {
    /// Convolution with bound OIHW filters, lowered to a protected GEMM
    /// at execution time; `relu` fuses the activation into the output
    /// write-back.
    Conv {
        /// Convolution hyperparameters.
        params: ConvParams,
        /// OIHW filter weights.
        weights: Tensor,
        /// Fused ReLU epilogue.
        relu: bool,
    },
    /// Fully-connected layer with bound `K × N` weights.
    Fc {
        /// Weight matrix (`in_features × out_features`).
        weights: Matrix,
        /// Fused ReLU epilogue.
        relu: bool,
    },
    /// Spatial pooling.
    Pool(PoolParams),
    /// Global average pooling to `1 × 1`.
    GlobalAvgPool,
    /// Reshape `C × H × W` to a flat feature vector (zero-copy: the
    /// NCHW layout is already row-major per image).
    Flatten,
    /// Channel-wise concatenation of the inputs (equal spatial dims).
    Concat,
    /// Element-wise addition of two inputs (residual merge), with an
    /// optional fused ReLU.
    Add {
        /// Fused ReLU epilogue.
        relu: bool,
    },
    /// Feature-range slice of a flattened value: copies the features
    /// `[offset, offset + len)` of each image, where `len` is the
    /// node's output feature count. DLRM uses it to split the request
    /// row into its dense features and its categorical indices.
    Slice {
        /// First feature of the slice.
        offset: usize,
    },
    /// Embedding-bag lookups: feature `t` of the input value is a
    /// categorical index into `tables[t]` (mapped through
    /// [`embedding_index`]), and the op emits the looked-up rows
    /// concatenated — single-index bags, as in the DLRM benchmark
    /// configuration, where a bag with one index is a table-row
    /// gather.
    EmbeddingBag {
        /// One `rows × dim` embedding table per categorical feature.
        tables: Vec<Matrix>,
    },
    /// DLRM pairwise dot-product feature interaction: the inputs'
    /// features concatenate into `m` vectors of dimension `d` (the
    /// first input's feature count), and the op emits the first vector
    /// followed by the `m·(m−1)/2` pairwise dot products `⟨vᵢ, vⱼ⟩`
    /// for `i < j`, in `i`-major order.
    Interact,
}

/// Maps a categorical feature value to a valid embedding-table row:
/// rounds to the nearest integer and clamps into `[0, rows)`. Shared by
/// [`Network::reference_f64`] and the compiled executor so both resolve
/// out-of-range indices identically.
pub fn embedding_index(v: f32, rows: usize) -> usize {
    (v.max(0.0).round() as usize).min(rows - 1)
}

/// One node of an executable network.
#[derive(Clone, Debug)]
pub struct Node {
    /// Layer name (matches the analytic zoo naming).
    pub name: String,
    /// The operation.
    pub op: NodeOp,
    /// Value inputs, in operation order.
    pub inputs: Vec<NodeRef>,
    /// Output dimensions `(channels, height, width)`; flattened values
    /// report `(features, 1, 1)`.
    pub out_dims: (usize, usize, usize),
}

/// An executable network: nodes in execution order over one input shape.
#[derive(Clone, Debug)]
pub struct Network {
    /// Display name.
    pub name: String,
    /// Batch size this instance executes at.
    pub batch: usize,
    /// Input dimensions `(channels, height, width)`.
    pub input_dims: (usize, usize, usize),
    /// Nodes in execution order; the last node's output is the
    /// network's output.
    pub nodes: Vec<Node>,
    /// Storage dtype the network executes in: weights are quantized to
    /// this format's value grid and the compiled executor stores
    /// inter-node activations as its codes. Builders produce fp16
    /// networks; convert with [`Network::with_dtype`].
    pub dtype: Dtype,
}

fn features(dims: (usize, usize, usize)) -> usize {
    dims.0 * dims.1 * dims.2
}

impl Network {
    /// Lowers an analytic fully-connected chain (DLRM's MLPs) to an
    /// executable network with synthesized weights: one
    /// [`NetworkBuilder::fc`] per layer, ReLU between layers, batch and
    /// input width from the first layer. Panics if the layers do not
    /// chain (`K[i+1] != N[i]`).
    pub fn from_mlp(model: &Model, seed: u64) -> Network {
        for pair in model.layers.windows(2) {
            assert_eq!(
                pair[1].shape.k, pair[0].shape.n,
                "layers {} -> {} do not chain",
                pair[0].name, pair[1].name
            );
        }
        let first = &model.layers[0].shape;
        let (batch, k) = (first.m as usize, first.k as usize);
        let mut b = NetworkBuilder::new(model.name.clone(), batch, k, 1, 1, seed);
        for (i, l) in model.layers.iter().enumerate() {
            b.fc(
                l.name.clone(),
                l.shape.n as usize,
                i + 1 < model.layers.len(),
            );
        }
        b.build()
    }

    /// Re-targets the network to a storage dtype: every conv/fc weight
    /// is snapped to the dtype's value grid (encode → decode, kept in
    /// the FP16 weight containers — every fp8/int8 value and every
    /// normal-range bf16 value is exactly representable in fp16, so the
    /// snap is lossless re-quantization, not double rounding). The
    /// compiled executor re-encodes the snapped values into raw dtype
    /// codes, and [`Network::reference_f64`] quantizes activations on
    /// the same grid, so the two stay within low-precision tolerance of
    /// each other for every dtype.
    pub fn with_dtype(mut self, dtype: Dtype) -> Self {
        if self.dtype == dtype {
            return self;
        }
        let snap = |v: F16| F16::from_f32(dtype.decode(dtype.encode(v.to_f32())));
        for node in &mut self.nodes {
            match &mut node.op {
                NodeOp::Conv { weights, .. } => {
                    for v in &mut weights.data {
                        *v = snap(*v);
                    }
                }
                NodeOp::Fc { weights, .. } => {
                    for v in &mut weights.data {
                        *v = snap(*v);
                    }
                }
                NodeOp::EmbeddingBag { tables } => {
                    for t in tables {
                        for v in &mut t.data {
                            *v = snap(*v);
                        }
                    }
                }
                _ => {}
            }
        }
        self.dtype = dtype;
        self
    }

    /// Quantizes one activation value onto the network dtype's grid,
    /// through f32 exactly as the executor's write-back path rounds.
    fn quantize(&self, v: f64) -> F16 {
        match self.dtype {
            Dtype::F16 => F16::from_f32(v as f32),
            d => F16::from_f32(d.decode(d.encode(v as f32))),
        }
    }

    /// Flattened input feature count (`C·H·W` — one request row).
    pub fn input_features(&self) -> usize {
        features(self.input_dims)
    }

    /// Flattened output feature count of the final node.
    pub fn output_features(&self) -> usize {
        features(self.nodes.last().expect("network has nodes").out_dims)
    }

    /// Output dimensions of a value reference.
    pub fn dims_of(&self, r: NodeRef) -> (usize, usize, usize) {
        match r {
            NodeRef::Input => self.input_dims,
            NodeRef::Node(i) => self.nodes[i].out_dims,
        }
    }

    /// Number of GEMM-backed (conv/fc) nodes — the layers a plan covers.
    pub fn gemm_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.op, NodeOp::Conv { .. } | NodeOp::Fc { .. }))
            .count()
    }

    /// The analytic view: every conv/fc node as a [`LinearLayer`] in
    /// execution order, ready for the planner. This is the `Model` half
    /// of the `Model → ModelPlan → CompiledModel` compilation path; the
    /// plan's per-layer schemes apply to the GEMM nodes in this order.
    pub fn to_model(&self) -> Model {
        self.to_model_at(self.batch)
    }

    /// [`Self::to_model`] at another batch: the layer shapes this
    /// network's nodes have when `batch` images run through them — a
    /// shape projection, nothing rebuilt. How one network is planned at
    /// every batch it serves.
    pub fn to_model_at(&self, batch: usize) -> Model {
        let layers = self
            .nodes
            .iter()
            .filter_map(|node| match &node.op {
                NodeOp::Conv { params, .. } => {
                    let (c, h, w) = self.dims_of(node.inputs[0]);
                    let (layer, _, _) = LinearLayer::conv(
                        node.name.clone(),
                        batch as u64,
                        c as u64,
                        h as u64,
                        w as u64,
                        params.c_out as u64,
                        params.kernel as u64,
                        params.stride as u64,
                        params.padding as u64,
                    );
                    Some(layer)
                }
                NodeOp::Fc { weights, .. } => Some(LinearLayer::fc(
                    node.name.clone(),
                    batch as u64,
                    weights.rows as u64,
                    weights.cols as u64,
                )),
                _ => None,
            })
            .collect();
        Model::new(self.name.clone(), layers)
    }

    /// Executes the network in f64, mirroring the compiled executor's
    /// FP16 quantization points: inter-node activations are quantized
    /// to FP16 (through f32, the executor's write-back path) while GEMM
    /// accumulation stays exact in f64. The returned values are the
    /// final node's outputs for `input.rows` images, flattened NCHW —
    /// pre-quantization when the final node is a conv/fc (matching the
    /// executor's raw f32 output), quantized otherwise.
    pub fn reference_f64(&self, input: &Matrix) -> Vec<f64> {
        assert_eq!(input.cols, self.input_features(), "input feature width");
        let batch = input.rows;
        let (ic, ih, iw) = self.input_dims;
        // Dtype-coded inputs (e.g. a bf16 request matrix) are decoded
        // into the f16 value domain the reference tensors use; fp16
        // inputs pass through untouched.
        let input_data = if input.dtype == Dtype::F16 {
            input.data.clone()
        } else {
            input
                .data
                .iter()
                .map(|v| F16::from_f32(input.dtype.decode(v.to_bits())))
                .collect()
        };
        let input_t = Tensor {
            batch,
            channels: ic,
            height: ih,
            width: iw,
            data: input_data,
        };
        let mut vals: Vec<Tensor> = Vec::with_capacity(self.nodes.len());
        let last = self.nodes.len() - 1;
        for (i, node) in self.nodes.iter().enumerate() {
            let get = |r: NodeRef| -> &Tensor {
                match r {
                    NodeRef::Input => &input_t,
                    NodeRef::Node(j) => &vals[j],
                }
            };
            let (oc, oh, ow) = node.out_dims;
            let raw: Vec<f64> = match &node.op {
                NodeOp::Conv {
                    params,
                    weights,
                    relu,
                } => {
                    let mut out = conv_reference_f64(get(node.inputs[0]), weights, *params);
                    if *relu {
                        for v in &mut out {
                            *v = v.max(0.0);
                        }
                    }
                    out
                }
                NodeOp::Fc { weights, relu } => {
                    let src = get(node.inputs[0]);
                    let k = weights.rows;
                    let n = weights.cols;
                    let mut out = vec![0.0f64; batch * n];
                    for b in 0..batch {
                        for kk in 0..k {
                            let a = src.data[b * k + kk].to_f64();
                            if a == 0.0 {
                                continue;
                            }
                            for j in 0..n {
                                out[b * n + j] += a * weights.get(kk, j).to_f64();
                            }
                        }
                    }
                    if *relu {
                        for v in &mut out {
                            *v = v.max(0.0);
                        }
                    }
                    out
                }
                NodeOp::Pool(p) => {
                    let src = get(node.inputs[0]);
                    let mut out = vec![0.0f64; batch * oc * oh * ow];
                    for n in 0..batch {
                        for c in 0..oc {
                            for oy in 0..oh {
                                for ox in 0..ow {
                                    out[((n * oc + c) * oh + oy) * ow + ox] =
                                        pool_window_f64(src, n, c, oy, ox, p);
                                }
                            }
                        }
                    }
                    out
                }
                NodeOp::GlobalAvgPool => {
                    let src = get(node.inputs[0]);
                    let (c, h, w) = self.dims_of(node.inputs[0]);
                    let mut out = vec![0.0f64; batch * c];
                    for n in 0..batch {
                        for ch in 0..c {
                            let mut acc = 0.0f64;
                            for y in 0..h {
                                for x in 0..w {
                                    acc += src.get(n, ch, y, x).to_f64();
                                }
                            }
                            out[n * c + ch] = acc / (h * w) as f64;
                        }
                    }
                    out
                }
                NodeOp::Flatten => get(node.inputs[0])
                    .data
                    .iter()
                    .map(|v| v.to_f64())
                    .collect(),
                NodeOp::Concat => {
                    let mut out = Vec::with_capacity(batch * oc * oh * ow);
                    for n in 0..batch {
                        for &r in &node.inputs {
                            let src = get(r);
                            let f = features(self.dims_of(r));
                            out.extend(src.data[n * f..(n + 1) * f].iter().map(|v| v.to_f64()));
                        }
                    }
                    out
                }
                NodeOp::Add { relu } => {
                    let a = get(node.inputs[0]);
                    let b = get(node.inputs[1]);
                    a.data
                        .iter()
                        .zip(&b.data)
                        .map(|(x, y)| {
                            let v = x.to_f64() + y.to_f64();
                            if *relu {
                                v.max(0.0)
                            } else {
                                v
                            }
                        })
                        .collect()
                }
                NodeOp::Slice { offset } => {
                    let src = get(node.inputs[0]);
                    let f = features(self.dims_of(node.inputs[0]));
                    let len = oc * oh * ow;
                    let mut out = Vec::with_capacity(batch * len);
                    for n in 0..batch {
                        out.extend(
                            src.data[n * f + offset..n * f + offset + len]
                                .iter()
                                .map(|v| v.to_f64()),
                        );
                    }
                    out
                }
                NodeOp::EmbeddingBag { tables } => {
                    let src = get(node.inputs[0]);
                    let t_count = tables.len();
                    let dim = tables[0].cols;
                    let mut out = Vec::with_capacity(batch * t_count * dim);
                    for n in 0..batch {
                        for (t, table) in tables.iter().enumerate() {
                            let idx =
                                embedding_index(src.data[n * t_count + t].to_f32(), table.rows);
                            for j in 0..dim {
                                out.push(table.get(idx, j).to_f64());
                            }
                        }
                    }
                    out
                }
                NodeOp::Interact => {
                    let d = features(self.dims_of(node.inputs[0]));
                    let total: usize = node.inputs.iter().map(|&r| features(self.dims_of(r))).sum();
                    let m = total / d;
                    let mut out = Vec::with_capacity(batch * (d + m * (m - 1) / 2));
                    let mut flat = vec![0.0f64; total];
                    for n in 0..batch {
                        let mut at = 0;
                        for &r in &node.inputs {
                            let src = get(r);
                            let f = features(self.dims_of(r));
                            for v in &src.data[n * f..(n + 1) * f] {
                                flat[at] = v.to_f64();
                                at += 1;
                            }
                        }
                        out.extend_from_slice(&flat[..d]);
                        for vi in 0..m {
                            for vj in vi + 1..m {
                                let dot: f64 =
                                    (0..d).map(|x| flat[vi * d + x] * flat[vj * d + x]).sum();
                                out.push(dot);
                            }
                        }
                    }
                    out
                }
            };
            if i == last {
                let keep_raw = matches!(node.op, NodeOp::Conv { .. } | NodeOp::Fc { .. });
                if keep_raw {
                    return raw;
                }
                return raw.iter().map(|&v| self.quantize(v).to_f64()).collect();
            }
            // Quantize through f32 exactly as the executor writes back.
            vals.push(Tensor {
                batch,
                channels: oc,
                height: oh,
                width: ow,
                data: raw.iter().map(|&v| self.quantize(v)).collect(),
            });
        }
        unreachable!("network has at least one node");
    }
}

/// One pooling window over an FP16 tensor, evaluated in f64 (max skips
/// out-of-bounds cells; avg divides by the in-bounds cell count).
fn pool_window_f64(src: &Tensor, n: usize, c: usize, oy: usize, ox: usize, p: &PoolParams) -> f64 {
    let mut best = f64::NEG_INFINITY;
    let mut acc = 0.0f64;
    let mut cells = 0u32;
    for ky in 0..p.kernel {
        for kx in 0..p.kernel {
            let iy = (oy * p.stride + ky) as isize - p.padding as isize;
            let ix = (ox * p.stride + kx) as isize - p.padding as isize;
            if iy < 0 || ix < 0 || iy as usize >= src.height || ix as usize >= src.width {
                continue;
            }
            let v = src.get(n, c, iy as usize, ix as usize).to_f64();
            best = best.max(v);
            acc += v;
            cells += 1;
        }
    }
    match p.kind {
        PoolKind::Max => {
            if cells == 0 {
                0.0
            } else {
                best
            }
        }
        PoolKind::Avg => {
            if cells == 0 {
                0.0
            } else {
                acc / cells as f64
            }
        }
    }
}

/// Builds a [`Network`] incrementally, tracking dimensions through every
/// node and initializing weights deterministically from a seed (scale
/// `1/√K`, keeping activations O(1) through depth like trained nets).
#[derive(Clone, Debug)]
pub struct NetworkBuilder {
    name: String,
    batch: usize,
    input_dims: (usize, usize, usize),
    nodes: Vec<Node>,
    cursor: NodeRef,
    seed: u64,
    weighted: u64,
}

impl NetworkBuilder {
    /// Starts a network on `batch` inputs of `channels × h × w`.
    pub fn new(
        name: impl Into<String>,
        batch: usize,
        channels: usize,
        h: usize,
        w: usize,
        seed: u64,
    ) -> Self {
        assert!(batch >= 1 && channels >= 1 && h >= 1 && w >= 1);
        NetworkBuilder {
            name: name.into(),
            batch,
            input_dims: (channels, h, w),
            nodes: Vec::new(),
            cursor: NodeRef::Input,
            seed,
            weighted: 0,
        }
    }

    /// The reference to the most recently appended value (the network
    /// input before any node is added) — capture it to branch.
    pub fn cursor(&self) -> NodeRef {
        self.cursor
    }

    /// Dimensions of the cursor value.
    pub fn dims(&self) -> (usize, usize, usize) {
        self.dims_of(self.cursor)
    }

    fn dims_of(&self, r: NodeRef) -> (usize, usize, usize) {
        match r {
            NodeRef::Input => self.input_dims,
            NodeRef::Node(i) => self.nodes[i].out_dims,
        }
    }

    fn push(
        &mut self,
        name: impl Into<String>,
        op: NodeOp,
        inputs: Vec<NodeRef>,
        out_dims: (usize, usize, usize),
    ) -> NodeRef {
        self.nodes.push(Node {
            name: name.into(),
            op,
            inputs,
            out_dims,
        });
        self.cursor = NodeRef::Node(self.nodes.len() - 1);
        self.cursor
    }

    fn next_weight_seed(&mut self) -> u64 {
        let s = self.seed.wrapping_add(self.weighted.wrapping_mul(7919));
        self.weighted += 1;
        s
    }

    /// Appends a convolution reading the cursor.
    pub fn conv(
        &mut self,
        name: impl Into<String>,
        c_out: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        relu: bool,
    ) -> NodeRef {
        self.conv_on(self.cursor, name, c_out, kernel, stride, padding, relu)
    }

    /// Appends a convolution reading an explicit value (branches).
    #[allow(clippy::too_many_arguments)]
    pub fn conv_on(
        &mut self,
        src: NodeRef,
        name: impl Into<String>,
        c_out: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        relu: bool,
    ) -> NodeRef {
        let (c_in, h, w) = self.dims_of(src);
        let k = c_in * kernel * kernel;
        let seed = self.next_weight_seed();
        let scale = F16::from_f64(1.0 / (k as f64).sqrt());
        let raw = Tensor::random(c_out, c_in, kernel, kernel, seed);
        let weights = Tensor {
            data: raw.data.iter().map(|&v| v * scale).collect(),
            ..raw
        };
        let params = ConvParams {
            c_out,
            kernel,
            stride,
            padding,
        };
        let ho = conv_out(h as u64, kernel as u64, stride as u64, padding as u64) as usize;
        let wo = conv_out(w as u64, kernel as u64, stride as u64, padding as u64) as usize;
        self.push(
            name,
            NodeOp::Conv {
                params,
                weights,
                relu,
            },
            vec![src],
            (c_out, ho, wo),
        )
    }

    /// Appends a fully-connected layer consuming the flattened cursor.
    pub fn fc(&mut self, name: impl Into<String>, out_features: usize, relu: bool) -> NodeRef {
        let src = self.cursor;
        let k = features(self.dims_of(src));
        let seed = self.next_weight_seed();
        let scale = F16::from_f64(1.0 / (k as f64).sqrt());
        let raw = Matrix::random(k, out_features, seed);
        let weights = Matrix::from_fn(k, out_features, |r, c| raw.get(r, c) * scale);
        self.push(
            name,
            NodeOp::Fc { weights, relu },
            vec![src],
            (out_features, 1, 1),
        )
    }

    /// Appends a pooling node reading the cursor.
    pub fn pool(&mut self, name: impl Into<String>, p: PoolParams) -> NodeRef {
        let src = self.cursor;
        let (c, h, w) = self.dims_of(src);
        assert!(
            h + 2 * p.padding >= p.kernel && w + 2 * p.padding >= p.kernel,
            "pool window larger than padded input"
        );
        let dims = (c, p.out_extent(h), p.out_extent(w));
        self.push(name, NodeOp::Pool(p), vec![src], dims)
    }

    /// Ceil-mode max pooling (SqueezeNet's pools).
    pub fn max_pool_ceil(
        &mut self,
        name: impl Into<String>,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> NodeRef {
        self.pool(
            name,
            PoolParams {
                kind: PoolKind::Max,
                kernel,
                stride,
                padding,
                ceil: true,
            },
        )
    }

    /// Floor-mode max pooling.
    pub fn max_pool(
        &mut self,
        name: impl Into<String>,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> NodeRef {
        self.pool(
            name,
            PoolParams {
                kind: PoolKind::Max,
                kernel,
                stride,
                padding,
                ceil: false,
            },
        )
    }

    /// Global average pooling to `1 × 1`.
    pub fn global_avg_pool(&mut self, name: impl Into<String>) -> NodeRef {
        let src = self.cursor;
        let (c, _, _) = self.dims_of(src);
        self.push(name, NodeOp::GlobalAvgPool, vec![src], (c, 1, 1))
    }

    /// Flattens the cursor to a feature vector (zero-copy at execution).
    pub fn flatten(&mut self, name: impl Into<String>) -> NodeRef {
        let src = self.cursor;
        let f = features(self.dims_of(src));
        self.push(name, NodeOp::Flatten, vec![src], (f, 1, 1))
    }

    /// Channel-concatenates two or more values of equal spatial dims.
    pub fn concat(&mut self, name: impl Into<String>, inputs: Vec<NodeRef>) -> NodeRef {
        assert!(inputs.len() >= 2, "concat needs at least two inputs");
        let (_, h, w) = self.dims_of(inputs[0]);
        let mut c = 0;
        for &r in &inputs {
            let (ci, hi, wi) = self.dims_of(r);
            assert_eq!((hi, wi), (h, w), "concat inputs must share spatial dims");
            c += ci;
        }
        self.push(name, NodeOp::Concat, inputs, (c, h, w))
    }

    /// Appends a feature-range slice of a value: features
    /// `[offset, offset + len)` of each image.
    pub fn slice(
        &mut self,
        name: impl Into<String>,
        src: NodeRef,
        offset: usize,
        len: usize,
    ) -> NodeRef {
        let f = features(self.dims_of(src));
        assert!(len >= 1, "slice must keep at least one feature");
        assert!(
            offset + len <= f,
            "slice [{offset}, {}) exceeds {f} features",
            offset + len
        );
        self.push(name, NodeOp::Slice { offset }, vec![src], (len, 1, 1))
    }

    /// Appends embedding-bag lookups: one seeded `rows × dim` table per
    /// feature of `src` (scaled `1/√dim` like the GEMM weights), each
    /// feature used as a categorical index into its table.
    pub fn embedding_bag(
        &mut self,
        name: impl Into<String>,
        src: NodeRef,
        rows: usize,
        dim: usize,
    ) -> NodeRef {
        let t_count = features(self.dims_of(src));
        assert!(rows >= 1 && dim >= 1 && t_count >= 1);
        let scale = F16::from_f64(1.0 / (dim as f64).sqrt());
        let mut tables = Vec::with_capacity(t_count);
        for _ in 0..t_count {
            let seed = self.next_weight_seed();
            let raw = Matrix::random(rows, dim, seed);
            tables.push(Matrix::from_fn(rows, dim, |r, c| raw.get(r, c) * scale));
        }
        self.push(
            name,
            NodeOp::EmbeddingBag { tables },
            vec![src],
            (t_count * dim, 1, 1),
        )
    }

    /// Appends a DLRM pairwise-interaction node: the inputs concatenate
    /// into `m` vectors of the first input's dimension `d`, and the
    /// output is the first vector followed by the `m·(m−1)/2` pairwise
    /// dot products.
    pub fn interact(&mut self, name: impl Into<String>, inputs: Vec<NodeRef>) -> NodeRef {
        assert!(!inputs.is_empty(), "interact needs inputs");
        let d = features(self.dims_of(inputs[0]));
        let total: usize = inputs.iter().map(|&r| features(self.dims_of(r))).sum();
        assert_eq!(
            total % d,
            0,
            "interact inputs must concatenate into {d}-dim vectors"
        );
        let m = total / d;
        assert!(m >= 2, "interact needs at least two vectors");
        self.push(name, NodeOp::Interact, inputs, (d + m * (m - 1) / 2, 1, 1))
    }

    /// Element-wise residual addition of two equal-shaped values.
    pub fn add(&mut self, name: impl Into<String>, a: NodeRef, b: NodeRef, relu: bool) -> NodeRef {
        assert_ne!(a, b, "residual add needs two distinct values");
        let dims = self.dims_of(a);
        assert_eq!(dims, self.dims_of(b), "add inputs must share dims");
        self.push(name, NodeOp::Add { relu }, vec![a, b], dims)
    }

    /// Finishes the network.
    pub fn build(self) -> Network {
        assert!(!self.nodes.is_empty(), "network {} is empty", self.name);
        let net = Network {
            name: self.name,
            batch: self.batch,
            input_dims: self.input_dims,
            nodes: self.nodes,
            dtype: Dtype::F16,
        };
        assert!(
            net.gemm_count() >= 1,
            "network {} has no conv/fc layers",
            net.name
        );
        assert!(
            !matches!(net.nodes.last().unwrap().op, NodeOp::Flatten),
            "network {} must not end on a flatten",
            net.name
        );
        net
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_net(batch: usize) -> Network {
        let mut b = NetworkBuilder::new("tiny", batch, 2, 6, 6, 5);
        b.conv("c1", 4, 3, 1, 1, true);
        b.max_pool("p1", 2, 2, 0);
        b.global_avg_pool("gap");
        b.flatten("flat");
        b.fc("fc", 3, false);
        b.build()
    }

    #[test]
    fn from_mlp_lowers_a_chain_to_fc_nodes() {
        let model = crate::zoo::dlrm_mlp_bottom(8);
        let net = Network::from_mlp(&model, 7);
        assert_eq!((net.batch, net.input_features()), (8, 13));
        let lowered = net.to_model();
        assert_eq!(lowered.name, model.name);
        for (a, b) in lowered.layers.iter().zip(&model.layers) {
            assert_eq!((&a.name, a.shape), (&b.name, b.shape));
        }
        let relus: Vec<bool> = net
            .nodes
            .iter()
            .map(|n| matches!(n.op, NodeOp::Fc { relu: true, .. }))
            .collect();
        assert_eq!(relus, [true, true, false]);
    }

    #[test]
    #[should_panic(expected = "do not chain")]
    fn non_chaining_models_are_rejected() {
        let model = Model::new(
            "broken",
            vec![
                LinearLayer::fc("a", 8, 16, 32),
                LinearLayer::fc("b", 8, 64, 32), // K != previous N
            ],
        );
        Network::from_mlp(&model, 0);
    }

    #[test]
    fn builder_tracks_dims_and_features() {
        let net = tiny_net(2);
        assert_eq!(net.input_features(), 2 * 6 * 6);
        assert_eq!(net.output_features(), 3);
        assert_eq!(net.gemm_count(), 2);
        assert_eq!(net.nodes[0].out_dims, (4, 6, 6));
        assert_eq!(net.nodes[1].out_dims, (4, 3, 3));
        assert_eq!(net.nodes[2].out_dims, (4, 1, 1));
        assert_eq!(net.nodes[3].out_dims, (4, 1, 1));
    }

    #[test]
    fn to_model_exposes_the_gemm_layers_in_order() {
        let net = tiny_net(2);
        let model = net.to_model();
        assert_eq!(model.layers.len(), 2);
        assert_eq!(model.layers[0].name, "c1");
        // conv: M = 2·6·6, N = 4, K = 2·9.
        assert_eq!(model.layers[0].shape.m, 72);
        assert_eq!(model.layers[0].shape.n, 4);
        assert_eq!(model.layers[0].shape.k, 18);
        // fc: M = 2, N = 3, K = 4.
        assert_eq!(model.layers[1].shape.m, 2);
        assert_eq!(model.layers[1].shape.k, 4);
    }

    #[test]
    fn weights_are_deterministic_per_seed() {
        let a = tiny_net(1);
        let b = tiny_net(1);
        let (NodeOp::Conv { weights: wa, .. }, NodeOp::Conv { weights: wb, .. }) =
            (&a.nodes[0].op, &b.nodes[0].op)
        else {
            panic!("node 0 is a conv");
        };
        assert_eq!(wa.data, wb.data);
    }

    #[test]
    fn reference_runs_branching_topologies() {
        let mut b = NetworkBuilder::new("branchy", 1, 2, 5, 5, 9);
        let s = b.conv("squeeze", 3, 1, 1, 0, true);
        let e1 = b.conv_on(s, "e1", 2, 1, 1, 0, true);
        let e3 = b.conv_on(s, "e3", 2, 3, 1, 1, true);
        let cat = b.concat("cat", vec![e1, e3]);
        let short = b.conv_on(cat, "short", 4, 1, 1, 0, false);
        let main = b.conv_on(cat, "main", 4, 3, 1, 1, false);
        b.add("res", main, short, true);
        b.global_avg_pool("gap");
        let net = b.build();
        assert_eq!(net.output_features(), 4);
        let input = Matrix::random(1, net.input_features(), 77);
        let out = net.reference_f64(&input);
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|v| v.is_finite()));
        // ReLU'd residual output is non-negative before the average.
        assert!(out.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn pool_reference_matches_hand_window() {
        let mut b = NetworkBuilder::new("pool", 1, 1, 4, 4, 3);
        b.conv("c", 1, 1, 1, 0, false);
        b.max_pool("p", 2, 2, 0);
        let net = b.build();
        let input = Matrix::random(1, 16, 8);
        let got = net.reference_f64(&input);
        // Recompute: conv is 1x1 single-channel => scale by w00, then 2x2 max.
        let NodeOp::Conv { weights, .. } = &net.nodes[0].op else {
            panic!()
        };
        let w00 = weights.data[0].to_f64();
        let mut conv = [0.0f64; 16];
        for (c, inp) in conv.iter_mut().zip(&input.data) {
            let v = inp.to_f64() * w00;
            *c = F16::from_f32(v as f32).to_f64();
        }
        for oy in 0..2 {
            for ox in 0..2 {
                let m = (0..2)
                    .flat_map(|ky| (0..2).map(move |kx| conv[(2 * oy + ky) * 4 + 2 * ox + kx]))
                    .fold(f64::NEG_INFINITY, f64::max);
                assert_eq!(got[oy * 2 + ox], m);
            }
        }
    }

    #[test]
    fn ceil_pool_drops_windows_starting_in_the_right_padding() {
        // torchvision: kernel 2, stride 2, padding 1 over width 3 gives
        // 2 outputs, not ceil((3+2-2)/2)+1 = 3 — the third window would
        // start at index 4 >= input + left padding = 4 and is dropped.
        let p = PoolParams {
            kind: PoolKind::Max,
            kernel: 2,
            stride: 2,
            padding: 1,
            ceil: true,
        };
        assert_eq!(p.out_extent(3), 2);
        // Padding-0 ceil pools (SqueezeNet's) are unaffected: a partial
        // window starting inside the input is kept.
        let p0 = PoolParams { padding: 0, ..p };
        assert_eq!(p0.out_extent(3), 2);
        let p3 = PoolParams {
            kernel: 3,
            padding: 0,
            ..p
        };
        assert_eq!(p3.out_extent(6), 3);
        assert_eq!(p3.out_extent(13), 6);
    }

    #[test]
    #[should_panic(expected = "no conv/fc layers")]
    fn gemm_free_networks_are_rejected() {
        let mut b = NetworkBuilder::new("none", 1, 1, 4, 4, 0);
        b.max_pool("p", 2, 2, 0);
        b.build();
    }
}

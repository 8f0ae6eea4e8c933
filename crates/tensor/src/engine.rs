use std::sync::Arc;

use pico_model::{Block, LayerKind, Merge, Model, Region2, Rows, Segment, Shape, Unit};

use crate::ops;
use crate::scratch::{self, Scratch};
use crate::weights::{QuantizedLayer, QuantizedNetwork, QuantizedUnit};
use crate::{LayerWeights, NetworkWeights, Tensor, TensorError, UnitWeights};

/// Selects the compute kernels an [`Engine`] runs.
///
/// The f32 backends produce identical tensors for every layer, region,
/// and error case — `Reference` is the bit-exactness oracle, `Simd`
/// the production default (the vectorized micro-kernel where the host
/// has it, bit-identical by preserving per-lane addition chains; see
/// `simd.rs`), and `Im2colGemm` the same path forced onto the portable
/// scalar micro-kernel. `Int8` trades bit-exactness versus f32 for
/// integer arithmetic: it is deterministic and bit-exactly
/// *self*-consistent across region splits, but only tolerance-close to
/// `Reference` (the differential suite in
/// `tests/backend_equivalence.rs` holds all four together).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineBackend {
    /// The naive direct loops in `ops.rs`, kept verbatim as the oracle.
    Reference,
    /// im2col lowering + cache-blocked GEMM with scratch-buffer reuse,
    /// forced onto the portable scalar micro-kernel whatever the host
    /// offers (a development switch; `Simd` is never slower).
    Im2colGemm,
    /// The default: the same im2col path on the runtime-detected
    /// vectorized micro-kernel (AVX2 `f32x8`, probed once and cached;
    /// the scalar kernel on hosts without it). Bit-identical to
    /// `Reference`.
    #[default]
    Simd,
    /// Per-channel symmetric int8 GEMM with i32 accumulation and static
    /// calibration-time activation scales. Tolerance-gated versus the
    /// f32 oracle.
    Int8,
}

impl EngineBackend {
    /// Every backend, for differential test matrices.
    pub const ALL: [EngineBackend; 4] = [
        EngineBackend::Reference,
        EngineBackend::Im2colGemm,
        EngineBackend::Simd,
        EngineBackend::Int8,
    ];

    /// The backends that are bit-identical to `Reference` on every
    /// input — i.e. all f32 backends. `Int8` is excluded: it carries a
    /// documented tolerance instead.
    pub const BIT_EXACT: [EngineBackend; 3] = [
        EngineBackend::Reference,
        EngineBackend::Im2colGemm,
        EngineBackend::Simd,
    ];

    /// Parses the CLI/display name of a backend.
    pub fn parse(name: &str) -> Option<EngineBackend> {
        match name {
            "reference" => Some(EngineBackend::Reference),
            "im2col" => Some(EngineBackend::Im2colGemm),
            "simd" => Some(EngineBackend::Simd),
            "int8" => Some(EngineBackend::Int8),
            _ => None,
        }
    }
}

impl std::fmt::Display for EngineBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineBackend::Reference => write!(f, "reference"),
            EngineBackend::Im2colGemm => write!(f, "im2col"),
            EngineBackend::Simd => write!(f, "simd"),
            EngineBackend::Int8 => write!(f, "int8"),
        }
    }
}

/// Executes a model (or any contiguous segment / row region of it) with
/// concrete weights — the per-device compute step of the Fig. 6
/// stage workflow.
///
/// Monolithic inference ([`Engine::infer`]) is implemented as a region
/// inference over the full output, so partitioned and monolithic
/// execution share every line of arithmetic; stitching per-device
/// outputs reproduces the single-device result bit-exactly. This holds
/// under every [`EngineBackend`]; the fast backends additionally reuse
/// caller-provided [`Scratch`] buffers
/// ([`Engine::infer_region2_with`]).
#[derive(Debug, Clone)]
pub struct Engine<'m> {
    model: &'m Model,
    weights: Arc<NetworkWeights>,
    backend: EngineBackend,
    /// Int8 weights, built lazily the first time the backend switches
    /// to `Int8` and shared by clones/forks from then on.
    quant: Option<Arc<QuantizedNetwork>>,
}

impl<'m> Engine<'m> {
    /// Creates an engine from explicit weights, with the default
    /// (`Simd`) backend.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::WeightMismatch`] when the weights do not
    /// cover the model's units.
    pub fn new(model: &'m Model, weights: NetworkWeights) -> Result<Self, TensorError> {
        if weights.len() != model.len() {
            return Err(TensorError::WeightMismatch {
                detail: format!(
                    "weights cover {} units, model has {}",
                    weights.len(),
                    model.len()
                ),
            });
        }
        Ok(Engine {
            model,
            weights: Arc::new(weights),
            backend: EngineBackend::default(),
            quant: None,
        })
    }

    /// Creates an engine with synthetic seeded weights and the default
    /// (`Simd`) backend.
    pub fn with_seed(model: &'m Model, seed: u64) -> Self {
        Engine {
            model,
            weights: Arc::new(NetworkWeights::generate(model, seed)),
            backend: EngineBackend::default(),
            quant: None,
        }
    }

    /// Returns this engine with its compute backend switched.
    ///
    /// Switching to [`EngineBackend::Int8`] quantizes the weights once
    /// (per-channel symmetric scales plus a deterministic calibration
    /// forward pass for static activation scales); clones and
    /// [`Engine::fork_backend`] forks share the result.
    pub fn with_backend(mut self, backend: EngineBackend) -> Self {
        self.backend = backend;
        if backend == EngineBackend::Int8 && self.quant.is_none() {
            // The model validated its own shapes at construction and
            // `new` checked weight coverage, so the calibration pass
            // cannot fail.
            let q = QuantizedNetwork::quantize(self.model, &self.weights)
                .expect("validated model and weights quantize cleanly");
            self.quant = Some(Arc::new(q));
        }
        self
    }

    /// A cheap engine fork sharing this engine's weights but
    /// dispatching to `backend` — how the pipeline runtime
    /// gives each worker its own backend without duplicating weights.
    pub fn fork_backend(&self, backend: EngineBackend) -> Engine<'m> {
        self.clone().with_backend(backend)
    }

    /// The compute backend this engine dispatches to.
    pub fn backend(&self) -> EngineBackend {
        self.backend
    }

    /// The quantized weights, present once the backend has been
    /// switched to `Int8`.
    pub fn quantized(&self) -> Option<&QuantizedNetwork> {
        self.quant.as_deref()
    }

    /// The model this engine executes.
    pub fn model(&self) -> &'m Model {
        self.model
    }

    /// The engine's weights.
    pub fn weights(&self) -> &NetworkWeights {
        &self.weights
    }

    /// Whole-model inference on a full input map.
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches from the first incompatible layer.
    pub fn infer(&self, input: &Tensor) -> Result<Tensor, TensorError> {
        let seg = self.model.full_segment();
        let h = self.model.output_shape().height;
        self.infer_region(seg, Rows::full(h), input)
    }

    /// Full-height inference of one segment from its full input map.
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches from the first incompatible layer.
    pub fn infer_segment(&self, seg: Segment, input: &Tensor) -> Result<Tensor, TensorError> {
        let h = self.model.unit_output_shape(seg.end - 1).height;
        self.infer_region(seg, Rows::full(h), input)
    }

    /// Computes global output rows `out_rows` of segment `seg` from an
    /// input tile (full-width strip partitioning, the paper's scheme).
    ///
    /// The tile may be the full segment input or any row slice of it
    /// that covers the receptive field
    /// ([`Model::segment_input_rows`]); tiles remember their global
    /// offset, so scatter → compute → gather works with plain
    /// [`Tensor::slice_rows`] / [`Tensor::stitch_rows`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::MissingHalo`] when the tile lacks required
    /// rows and [`TensorError::ShapeMismatch`] on channel/width
    /// disagreement.
    pub fn infer_region(
        &self,
        seg: Segment,
        out_rows: Rows,
        input: &Tensor,
    ) -> Result<Tensor, TensorError> {
        self.model
            .check_segment(seg)
            .map_err(|_| TensorError::WeightMismatch {
                detail: format!("segment {seg} out of bounds"),
            })?;
        let out_shape = self.model.unit_output_shape(seg.end - 1);
        self.infer_region2(
            seg,
            Region2::new(out_rows, Rows::full(out_shape.width)),
            input,
        )
    }

    /// Computes a rectangular global output region of segment `seg`
    /// from an input tile — 2-D grid partitioning (DeepThings-style),
    /// of which row strips are the `cols = full` special case.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::MissingHalo`] when the tile lacks required
    /// rows/columns and [`TensorError::ShapeMismatch`] on channel
    /// disagreement.
    pub fn infer_region2(
        &self,
        seg: Segment,
        out: Region2,
        input: &Tensor,
    ) -> Result<Tensor, TensorError> {
        // `Scratch::new` is allocation-free; one-shot callers pay only
        // the buffers this single call grows.
        self.infer_region2_with(&mut Scratch::new(), seg, out, input)
    }

    /// [`Engine::infer_region2`] with a caller-owned [`Scratch`] pool.
    ///
    /// Workers that keep one `Scratch` per thread across their task
    /// stream reach a steady state where the im2col backends (`Simd`,
    /// `Im2colGemm`, `Int8`) allocate nothing but the returned tensor's
    /// buffer — and callers that hand even that back via
    /// [`Scratch::give`] allocate nothing at all (asserted by the counting-allocator regression tests; see
    /// `tests/alloc_regression*.rs`), graph blocks included: their path
    /// bookkeeping, shortcut slices and merged maps are pooled too. The
    /// `Reference` backend ignores the pool's recycled buffers.
    ///
    /// # Errors
    ///
    /// Identical to [`Engine::infer_region2`].
    pub fn infer_region2_with(
        &self,
        scratch: &mut Scratch,
        seg: Segment,
        out: Region2,
        input: &Tensor,
    ) -> Result<Tensor, TensorError> {
        self.model
            .check_segment(seg)
            .map_err(|_| TensorError::WeightMismatch {
                detail: format!("segment {seg} out of bounds"),
            })?;
        let in_shape = self.model.unit_input_shape(seg.start);
        if input.shape().channels != in_shape.channels {
            return Err(TensorError::ShapeMismatch {
                op: format!("segment {seg}"),
                expected: in_shape,
                found: input.shape(),
            });
        }
        let out_shape = self.model.unit_output_shape(seg.end - 1);
        let out = out.clamp_to(out_shape.height, out_shape.width);
        // The trace buffer is moved out of the pool for the call so the
        // pool stays borrowable; its capacity is reused across tasks.
        let mut trace = scratch.take_trace();
        self.model.segment_region_trace_into(seg, out, &mut trace);
        // Thread each layer's output into the next and recycle the
        // spent buffer: after one warmup task the pool serves every
        // intermediate without touching the allocator.
        let mut cur: Option<Tensor> = None;
        let mut result = Ok(());
        for (k, i) in seg.iter().enumerate() {
            let next = match &cur {
                Some(t) => self.unit_region(scratch, i, t, trace[k]),
                None => self.unit_region(scratch, i, input, trace[k]),
            };
            let next = match next {
                Ok(t) => t,
                Err(e) => {
                    result = Err(e);
                    break;
                }
            };
            if let Some(spent) = cur.take() {
                scratch.give(spent.into_vec());
            }
            cur = Some(next);
        }
        scratch.give_trace(trace);
        result?;
        match cur {
            Some(t) => Ok(t),
            // Segments are non-empty (`check_segment`), but stay total.
            None => Ok(input.clone()),
        }
    }

    /// Runs one unit over region `out` of its global output map.
    fn unit_region(
        &self,
        scratch: &mut Scratch,
        index: usize,
        input: &Tensor,
        out: Region2,
    ) -> Result<Tensor, TensorError> {
        let in_shape = self.model.unit_input_shape(index);
        let quant = match self.backend {
            EngineBackend::Int8 => {
                Some(
                    self.quant
                        .as_deref()
                        .ok_or_else(|| TensorError::WeightMismatch {
                            detail: "int8 backend without quantized weights".to_owned(),
                        })?,
                )
            }
            _ => None,
        };
        match (self.model.unit(index), self.weights.unit(index)) {
            (Unit::Layer(l), UnitWeights::Layer(w)) => {
                let qw = match quant.map(|q| q.unit(index)) {
                    Some(QuantizedUnit::Layer(q)) => q.as_ref(),
                    Some(QuantizedUnit::Block(_)) => {
                        return Err(TensorError::WeightMismatch {
                            detail: format!("unit {index} quantized weights do not match its kind"),
                        })
                    }
                    None => None,
                };
                layer_region(self.backend, scratch, &l.kind, input, in_shape, w, qw, out)
            }
            (Unit::Block(b), UnitWeights::Block(pw)) => {
                let pq = match quant.map(|q| q.unit(index)) {
                    Some(QuantizedUnit::Block(p)) => Some(p.as_slice()),
                    Some(QuantizedUnit::Layer(_)) => {
                        return Err(TensorError::WeightMismatch {
                            detail: format!("unit {index} quantized weights do not match its kind"),
                        })
                    }
                    None => None,
                };
                block_region(self.backend, scratch, b, pw, pq, input, in_shape, out)
            }
            _ => Err(TensorError::WeightMismatch {
                detail: format!("unit {index} weights do not match its kind"),
            }),
        }
    }
}

/// Dispatches one layer's region computation to the selected backend.
/// Convolutions and FC layers apply a fused ReLU; pooling does not.
///
/// `Simd` and `Im2colGemm` share the scratch conv/fc paths and differ
/// only in the micro-kernel (both bit-identical). `Int8` routes
/// weighted layers to the quantized kernels; pooling has no weights and
/// stays on the f32 path under every fast backend.
#[allow(clippy::too_many_arguments)]
fn layer_region(
    backend: EngineBackend,
    scratch: &mut Scratch,
    kind: &LayerKind,
    input: &Tensor,
    in_shape: Shape,
    weights: &LayerWeights,
    quant: Option<&QuantizedLayer>,
    out: Region2,
) -> Result<Tensor, TensorError> {
    let missing_q = |what: &str| TensorError::WeightMismatch {
        detail: format!("int8 backend missing quantized {what} weights"),
    };
    let simd = backend == EngineBackend::Simd;
    match (kind, backend) {
        (LayerKind::Conv(spec), EngineBackend::Reference) => {
            ops::conv_region(input, in_shape, spec, weights, out, true)
        }
        (LayerKind::Conv(spec), EngineBackend::Int8) => {
            let q = quant.ok_or_else(|| missing_q("conv"))?;
            scratch::conv_region_q(input, in_shape, spec, q, out, true, scratch)
        }
        (LayerKind::Conv(spec), _) => {
            scratch::conv_region(input, in_shape, spec, weights, out, true, simd, scratch)
        }
        (LayerKind::Pool(spec), EngineBackend::Reference) => {
            ops::pool_region(input, in_shape, spec, out)
        }
        (LayerKind::Pool(spec), _) => scratch::pool_region(input, in_shape, spec, out, scratch),
        (LayerKind::Fc(fc), EngineBackend::Reference) => {
            ops::fc_full(input, fc.in_features, fc.out_features, weights, true)
        }
        (LayerKind::Fc(fc), EngineBackend::Int8) => {
            let q = quant.ok_or_else(|| missing_q("fc"))?;
            scratch::fc_full_q(input, fc.in_features, fc.out_features, q, true, scratch)
        }
        (LayerKind::Fc(fc), _) => scratch::fc_full(
            input,
            fc.in_features,
            fc.out_features,
            weights,
            true,
            simd,
            scratch,
        ),
    }
}

/// Runs a block over region `out`: each path back-propagates the region
/// requirement through its own layers, computes forward from the shared
/// input tile, and the path outputs merge (add or concat). The path
/// bookkeeping, the shortcut slice and the merged map all come from
/// `scratch`, so a warm block allocates nothing.
#[allow(clippy::too_many_arguments)]
fn block_region(
    backend: EngineBackend,
    scratch: &mut Scratch,
    block: &Block,
    path_weights: &[Vec<LayerWeights>],
    path_quant: Option<&[Vec<Option<QuantizedLayer>>]>,
    input: &Tensor,
    in_shape: Shape,
    out: Region2,
) -> Result<Tensor, TensorError> {
    // Moved out for the block and handed back after the merge (an
    // error drops it; the next block regrows it).
    let mut bufs = scratch.take_block();
    let scratch::BlockBufs {
        shapes,
        regions,
        outputs,
    } = &mut bufs;
    for (pi, (path, weights)) in block.paths.iter().zip(path_weights).enumerate() {
        if path.is_empty() {
            // Identity shortcut: the block input region itself.
            let buf = scratch.take_empty(input.shape().channels * out.area());
            outputs.push(input.slice_region_into(out, buf)?);
            continue;
        }
        // Forward shapes along the path (global dims).
        shapes.clear();
        shapes.push(in_shape);
        for layer in path {
            let prev = *shapes.last().expect("shapes starts non-empty");
            shapes.push(
                layer
                    .output_shape(prev)
                    .map_err(|e| TensorError::WeightMismatch {
                        detail: format!("path layer rejected validated shape: {e}"),
                    })?,
            );
        }
        // Backward region requirements.
        regions.clear();
        regions.resize(path.len(), Region2::new(Rows::empty(), Rows::empty()));
        let mut need = out.clamp_to(shapes[path.len()].height, shapes[path.len()].width);
        for l in (0..path.len()).rev() {
            regions[l] = need;
            need = path[l].input_region(need, shapes[l]);
        }
        // Forward computation, recycling spent path intermediates.
        let mut cur: Option<Tensor> = None;
        for (l, layer) in path.iter().enumerate() {
            let qw = path_quant.and_then(|p| p[pi][l].as_ref());
            let src = cur.as_ref().unwrap_or(input);
            let next = layer_region(
                backend,
                scratch,
                &layer.kind,
                src,
                shapes[l],
                &weights[l],
                qw,
                regions[l],
            )?;
            if let Some(spent) = cur.take() {
                scratch.give(spent.into_vec());
            }
            cur = Some(next);
        }
        if let Some(t) = cur {
            outputs.push(t);
        }
    }
    let merged = match block.merge {
        Merge::Add => {
            let len = outputs.first().map_or(0, |t| t.data().len());
            ops::add_into(outputs, scratch.take_empty(len))
        }
        Merge::Concat => {
            let len = outputs.iter().map(|t| t.data().len()).sum();
            ops::concat_channels_into(outputs, scratch.take_empty(len))
        }
    };
    scratch.give_block(bufs);
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use pico_model::{zoo, ConvSpec, Layer, PoolSpec};

    /// A small conv/pool chain for fast exact-equality tests.
    fn tiny_chain() -> Model {
        Model::new(
            "tiny",
            Shape::new(2, 16, 16),
            vec![
                Layer::conv("c1", ConvSpec::square(2, 4, 3, 1, 1)).into(),
                Layer::conv("c2", ConvSpec::square(4, 4, 3, 1, 1)).into(),
                Layer::pool("p1", PoolSpec::max(2, 2)).into(),
                Layer::conv("c3", ConvSpec::square(4, 8, 3, 1, 1)).into(),
            ],
        )
        .unwrap()
    }

    /// A graph model: residual + strided residual + inception-ish concat.
    fn tiny_graph() -> Model {
        Model::new(
            "tiny-graph",
            Shape::new(4, 16, 16),
            vec![
                Unit::Block(Block::residual(
                    "res1",
                    vec![
                        Layer::conv("r1a", ConvSpec::square(4, 4, 3, 1, 1)),
                        Layer::conv("r1b", ConvSpec::square(4, 4, 3, 1, 1)),
                    ],
                    vec![],
                )),
                Unit::Block(Block::residual(
                    "res2",
                    vec![
                        Layer::conv("r2a", ConvSpec::square(4, 8, 3, 2, 1)),
                        Layer::conv("r2b", ConvSpec::square(8, 8, 3, 1, 1)),
                    ],
                    vec![Layer::conv("r2p", ConvSpec::square(4, 8, 1, 2, 0))],
                )),
                Unit::Block(Block::new(
                    "mix",
                    vec![
                        vec![Layer::conv("m1", ConvSpec::pointwise(8, 4))],
                        vec![
                            Layer::conv("m2a", ConvSpec::pointwise(8, 4)),
                            Layer::conv("m2b", ConvSpec::square(4, 4, 3, 1, 1)),
                        ],
                        vec![
                            Layer::pool(
                                "m3p",
                                PoolSpec {
                                    kind: pico_model::PoolKind::Avg,
                                    kernel: (3, 3),
                                    stride: (1, 1),
                                    padding: (1, 1),
                                },
                            ),
                            Layer::conv("m3c", ConvSpec::pointwise(8, 4)),
                        ],
                    ],
                    Merge::Concat,
                )),
            ],
        )
        .unwrap()
    }

    fn assert_split_matches(model: &Model, parts: usize) {
        let engine = Engine::with_seed(model, 11);
        let input = Tensor::random(model.input_shape(), 22);
        let full = engine.infer(&input).unwrap();
        let seg = model.full_segment();
        let h = model.output_shape().height;
        let tiles: Vec<Tensor> = pico_model::rows_split_even(Rows::full(h), parts)
            .into_iter()
            .map(|r| {
                // Ship only the receptive-field tile, like a real device.
                let need = model.segment_input_rows(seg, r);
                let tile = input.slice_rows(need).unwrap();
                engine.infer_region(seg, r, &tile).unwrap()
            })
            .collect();
        let stitched = Tensor::stitch_rows(&tiles).unwrap();
        assert_eq!(stitched, full, "{} split into {parts}", model.name());
    }

    #[test]
    fn chain_split_matches_monolithic() {
        let m = tiny_chain();
        for parts in [2, 3, 5] {
            assert_split_matches(&m, parts);
        }
    }

    #[test]
    fn graph_split_matches_monolithic() {
        let m = tiny_graph();
        for parts in [2, 4] {
            assert_split_matches(&m, parts);
        }
    }

    #[test]
    fn mnist_toy_split_matches_monolithic() {
        assert_split_matches(&zoo::mnist_toy(), 3);
    }

    #[test]
    fn depthwise_separable_split_matches_monolithic() {
        // A MobileNet-style dw+pw stack through the halo machinery.
        let m = Model::new(
            "mobile-ish",
            Shape::new(4, 16, 16),
            vec![
                Layer::conv("dw1", ConvSpec::depthwise(4, 3, 1, 1)).into(),
                Layer::conv("pw1", ConvSpec::pointwise(4, 8)).into(),
                Layer::conv("dw2", ConvSpec::depthwise(8, 3, 2, 1)).into(),
                Layer::conv("pw2", ConvSpec::pointwise(8, 8)).into(),
            ],
        )
        .unwrap();
        for parts in [2, 3] {
            assert_split_matches(&m, parts);
        }
    }

    #[test]
    fn grid_split_matches_monolithic() {
        // 2-D grid tiles (DeepThings-style) stitched back equal the
        // monolithic result, for chain and graph models.
        for m in [tiny_chain(), tiny_graph()] {
            let engine = Engine::with_seed(&m, 13);
            let input = Tensor::random(m.input_shape(), 31);
            let full = engine.infer(&input).unwrap();
            let seg = m.full_segment();
            let out = m.output_shape();
            for (gr, gc) in [(2, 2), (1, 3), (3, 2)] {
                let tiles: Vec<Tensor> = pico_model::grid_split_even(out.height, out.width, gr, gc)
                    .into_iter()
                    .map(|region| {
                        let need = m.segment_input_region(seg, region);
                        let tile = input.slice_region(need).unwrap();
                        engine.infer_region2(seg, region, &tile).unwrap()
                    })
                    .collect();
                let stitched = Tensor::stitch_grid(&tiles, gc).unwrap();
                assert_eq!(stitched, full, "{} grid {gr}x{gc}", m.name());
            }
        }
    }

    #[test]
    fn grid_region_missing_col_halo_errors() {
        let m = tiny_chain();
        let engine = Engine::with_seed(&m, 1);
        let input = Tensor::random(m.input_shape(), 2);
        let seg = m.full_segment();
        // A tile with enough rows but not enough columns.
        let tile = input
            .slice_region(Region2::new(Rows::full(16), Rows::new(8, 16)))
            .unwrap();
        // Output columns 2..4 need input columns well below the tile's
        // left edge at 8.
        let out = Region2::new(Rows::new(4, 8), Rows::new(2, 4));
        assert!(matches!(
            engine.infer_region2(seg, out, &tile),
            Err(TensorError::MissingHalo { .. })
        ));
    }

    #[test]
    fn segment_chaining_matches_whole() {
        // Running [0, 2) then [2, 4) equals running [0, 4).
        let m = tiny_chain();
        let engine = Engine::with_seed(&m, 1);
        let input = Tensor::random(m.input_shape(), 2);
        let mid = engine.infer_segment(Segment::new(0, 2), &input).unwrap();
        let out = engine.infer_segment(Segment::new(2, 4), &mid).unwrap();
        assert_eq!(out, engine.infer(&input).unwrap());
    }

    #[test]
    fn region_with_insufficient_tile_errors() {
        let m = tiny_chain();
        let engine = Engine::with_seed(&m, 1);
        let input = Tensor::random(m.input_shape(), 2);
        let seg = m.full_segment();
        // Bottom half output needs more than the bottom half input.
        let tile = input.slice_rows(Rows::new(8, 16)).unwrap();
        assert!(matches!(
            engine.infer_region(seg, Rows::new(4, 8), &tile),
            Err(TensorError::MissingHalo { .. })
        ));
    }

    #[test]
    fn wrong_channels_rejected() {
        let m = tiny_chain();
        let engine = Engine::with_seed(&m, 1);
        let input = Tensor::random(Shape::new(3, 16, 16), 2);
        assert!(matches!(
            engine.infer(&input),
            Err(TensorError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn weight_count_mismatch_rejected() {
        let m = tiny_chain();
        let other = zoo::toy(2);
        let w = NetworkWeights::generate(&other, 0);
        assert!(matches!(
            Engine::new(&m, w),
            Err(TensorError::WeightMismatch { .. })
        ));
    }

    #[test]
    fn fc_model_infers_end_to_end() {
        let m = Model::new(
            "fc-tail",
            Shape::new(1, 8, 8),
            vec![
                Layer::conv("c", ConvSpec::square(1, 2, 3, 1, 1)).into(),
                Layer::pool("p", PoolSpec::max(2, 2)).into(),
                Layer::fc("fc", 2 * 4 * 4, 10).into(),
            ],
        )
        .unwrap();
        let engine = Engine::with_seed(&m, 3);
        let out = engine.infer(&Tensor::random(m.input_shape(), 4)).unwrap();
        assert_eq!(out.shape(), Shape::new(10, 1, 1));
    }

    #[test]
    fn deterministic_outputs() {
        let m = tiny_chain();
        let a = Engine::with_seed(&m, 5)
            .infer(&Tensor::random(m.input_shape(), 6))
            .unwrap();
        let b = Engine::with_seed(&m, 5)
            .infer(&Tensor::random(m.input_shape(), 6))
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn activations_stay_bounded() {
        // He-scaled weights keep magnitudes sane through the chain.
        let m = tiny_chain();
        let out = Engine::with_seed(&m, 7)
            .infer(&Tensor::random(m.input_shape(), 8))
            .unwrap();
        assert!(out.data().iter().all(|v| v.is_finite() && v.abs() < 1e4));
    }

    #[test]
    fn simd_backend_is_bit_identical_to_reference() {
        for m in [tiny_chain(), tiny_graph()] {
            let oracle = Engine::with_seed(&m, 11).with_backend(EngineBackend::Reference);
            let simd = Engine::with_seed(&m, 11).with_backend(EngineBackend::Simd);
            let input = Tensor::random(m.input_shape(), 22);
            assert_eq!(simd.infer(&input).unwrap(), oracle.infer(&input).unwrap());
        }
    }

    #[test]
    fn int8_split_stitch_is_bit_exactly_self_consistent() {
        // Static activation scales quantize every element identically
        // in a tile or a full map, so int8 split/stitch reproduces the
        // int8 monolithic result exactly — the property cooperative
        // inference needs from a degraded-precision mode.
        for m in [tiny_chain(), tiny_graph()] {
            let engine = Engine::with_seed(&m, 11).with_backend(EngineBackend::Int8);
            let input = Tensor::random(m.input_shape(), 22);
            let full = engine.infer(&input).unwrap();
            let seg = m.full_segment();
            let h = m.output_shape().height;
            let tiles: Vec<Tensor> = pico_model::rows_split_even(Rows::full(h), 3)
                .into_iter()
                .map(|r| {
                    let need = m.segment_input_rows(seg, r);
                    let tile = input.slice_rows(need).unwrap();
                    engine.infer_region(seg, r, &tile).unwrap()
                })
                .collect();
            assert_eq!(Tensor::stitch_rows(&tiles).unwrap(), full, "{}", m.name());
        }
    }

    #[test]
    fn int8_tracks_reference_within_tolerance() {
        let m = tiny_chain();
        let input = Tensor::random(m.input_shape(), 6);
        let exact = Engine::with_seed(&m, 11)
            .with_backend(EngineBackend::Reference)
            .infer(&input)
            .unwrap();
        let coarse = Engine::with_seed(&m, 11)
            .with_backend(EngineBackend::Int8)
            .infer(&input)
            .unwrap();
        let scale = exact.data().iter().fold(0.0f32, |a, &v| a.max(v.abs()));
        let worst = exact
            .data()
            .iter()
            .zip(coarse.data())
            .map(|(e, c)| (e - c).abs())
            .fold(0.0f32, f32::max);
        // Empirical end-to-end budget: a few percent of the output
        // range (per-layer bounds compound through the chain).
        assert!(
            worst <= 0.05 * scale.max(1.0),
            "worst={worst} scale={scale}"
        );
    }

    #[test]
    fn fork_backend_shares_weights_and_switches_kernels() {
        let m = tiny_chain();
        let base = Engine::with_seed(&m, 11);
        let forked = base.fork_backend(EngineBackend::Simd);
        assert_eq!(forked.backend(), EngineBackend::Simd);
        let input = Tensor::random(m.input_shape(), 2);
        assert_eq!(forked.infer(&input).unwrap(), base.infer(&input).unwrap());
        // Int8 forks build (and then share) the quantized weights.
        let q1 = base.fork_backend(EngineBackend::Int8);
        assert!(q1.quantized().is_some());
        let q2 = q1.fork_backend(EngineBackend::Int8);
        assert_eq!(q1.infer(&input).unwrap(), q2.infer(&input).unwrap());
    }
}

#[cfg(test)]
mod nonsquare_tests {
    use super::*;
    use pico_model::{grid_split_even, ConvSpec, Layer, PoolSpec};

    /// Inception-style asymmetric kernels through split/stitch: the
    /// horizontal halo differs from the vertical one, which is exactly
    /// what the per-axis receptive arithmetic must get right.
    fn factorized_model() -> Model {
        Model::new(
            "factorized",
            Shape::new(3, 17, 17),
            vec![
                Layer::conv(
                    "c1x7",
                    ConvSpec {
                        in_channels: 3,
                        out_channels: 4,
                        kernel: (1, 7),
                        stride: (1, 1),
                        padding: (0, 3),
                        groups: 1,
                    },
                )
                .into(),
                Layer::conv(
                    "c7x1",
                    ConvSpec {
                        in_channels: 4,
                        out_channels: 4,
                        kernel: (7, 1),
                        stride: (1, 1),
                        padding: (3, 0),
                        groups: 1,
                    },
                )
                .into(),
                Layer::pool("p", PoolSpec::max(2, 2)).into(),
            ],
        )
        .unwrap()
    }

    #[test]
    fn nonsquare_kernels_split_exactly_in_rows() {
        let m = factorized_model();
        let engine = Engine::with_seed(&m, 21);
        let input = Tensor::random(m.input_shape(), 22);
        let full = engine.infer(&input).unwrap();
        let seg = m.full_segment();
        let h = m.output_shape().height;
        let tiles: Vec<Tensor> = pico_model::rows_split_even(Rows::full(h), 3)
            .into_iter()
            .map(|r| {
                let need = m.segment_input_rows(seg, r);
                engine
                    .infer_region(seg, r, &input.slice_rows(need).unwrap())
                    .unwrap()
            })
            .collect();
        assert_eq!(Tensor::stitch_rows(&tiles).unwrap(), full);
    }

    #[test]
    fn nonsquare_kernels_split_exactly_in_grids() {
        let m = factorized_model();
        let engine = Engine::with_seed(&m, 23);
        let input = Tensor::random(m.input_shape(), 24);
        let full = engine.infer(&input).unwrap();
        let seg = m.full_segment();
        let out = m.output_shape();
        let tiles: Vec<Tensor> = grid_split_even(out.height, out.width, 2, 2)
            .into_iter()
            .map(|region| {
                let need = m.segment_input_region(seg, region);
                engine
                    .infer_region2(seg, region, &input.slice_region(need).unwrap())
                    .unwrap()
            })
            .collect();
        assert_eq!(Tensor::stitch_grid(&tiles, 2).unwrap(), full);
    }

    #[test]
    fn depthwise_grid_split_exact() {
        let m = Model::new(
            "dw-grid",
            Shape::new(4, 14, 14),
            vec![
                Layer::conv("dw", ConvSpec::depthwise(4, 3, 1, 1)).into(),
                Layer::conv("pw", ConvSpec::pointwise(4, 6)).into(),
            ],
        )
        .unwrap();
        let engine = Engine::with_seed(&m, 31);
        let input = Tensor::random(m.input_shape(), 32);
        let full = engine.infer(&input).unwrap();
        let seg = m.full_segment();
        let tiles: Vec<Tensor> = grid_split_even(14, 14, 2, 2)
            .into_iter()
            .map(|region| {
                let need = m.segment_input_region(seg, region);
                engine
                    .infer_region2(seg, region, &input.slice_region(need).unwrap())
                    .unwrap()
            })
            .collect();
        assert_eq!(Tensor::stitch_grid(&tiles, 2).unwrap(), full);
    }
}

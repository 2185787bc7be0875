//! The quantized decoder-only transformer and its forward core.
//!
//! Everything that runs the model is a [`Model::forward_rows`] pass: a
//! ragged batch of row groups — per sequence, the tokens to push from its
//! [`DecodeState`]'s position and which rows want logits — stacked per layer
//! so that all rows cross each weight matrix once, with attention per group
//! over its own paged KV cache. The single-sequence entry points
//! (`decode_step*`, `prefill*`, `verify_chunk_into`, `forward*`) are
//! one-group passes over a workspace private to the state; a batch driver
//! (`opal-serve`) owns one [`Workspace`] per thread and hands every
//! sequence's rows of a step to one pass.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use opal_quant::{EncodeScratch, QuantError, Quantizer};
use opal_softmax::Log2Softmax;
use opal_tensor::ops;
use opal_tensor::{CodeWeights, Matrix};

use crate::config::{Arch, ModelConfig};
use crate::kv::{AdoptError, BlockPool, KvBlock, PageScratch, PagedKv};
use crate::mx_codes::{ActCodec, MxActs};
use crate::scheme::{QuantScheme, SoftmaxKind, WeightScheme};
use crate::weights::{generate_weights, LayerWeights, ModelWeights};

/// Query rows of one group that share a visit of the paged KV cache: the
/// score and weight buffers of a visit hold `QUERY_TILE × n_heads × len`
/// floats each (64 KiB for the pair at `len` 1024 on one head), and a
/// 32-row prompt chunk walks the pages four times instead of 32.
const QUERY_TILE: usize = 8;

/// The observation points inside a decoder block (Fig. 5): the inputs of
/// every MxV the paper quantizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Site {
    /// Post-LayerNorm input shared by the Q/K/V projections (low-bit).
    QkvInput,
    /// Query vectors after RoPE (input of `Q·Kᵀ`, high-bit).
    Query,
    /// Key vectors after RoPE (input of `Q·Kᵀ`, high-bit).
    Key,
    /// Value vectors (input of `Attn·V`, high-bit).
    Value,
    /// Attention output entering the projection layer (high-bit).
    ProjInput,
    /// Post-LayerNorm input of FC1 (low-bit).
    Fc1Input,
    /// FFN hidden activation entering FC2 (high-bit).
    Fc2Input,
}

impl Site {
    /// The six sites reported in Fig. 4, in the paper's column order.
    pub fn fig4_sites() -> [(Site, &'static str); 6] {
        [
            (Site::Query, "query"),
            (Site::Key, "key"),
            (Site::Value, "value"),
            (Site::ProjInput, "proj"),
            (Site::Fc1Input, "fc1"),
            (Site::Fc2Input, "fc2"),
        ]
    }
}

/// Observer of intermediate activations during decoding.
pub trait Recorder {
    /// Called once per site per decoded token with the (unquantized)
    /// activation vector.
    fn record(&mut self, layer: usize, site: Site, x: &[f32]);
}

/// Collects per-channel second moments `E[x_i²]` — the OWQ sensitivity
/// statistic — at the four weight-input sites.
#[derive(Debug, Default)]
pub struct SecondMomentRecorder {
    /// An ordered map, not a hashed one: a `HashMap`'s per-process seed
    /// would free these sums in a different order in every process, and
    /// [`Model::new`] would leave the heap laid out differently each time.
    sums: BTreeMap<(usize, Site), (Vec<f64>, u64)>,
}

impl SecondMomentRecorder {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// The mean second moment per channel at `(layer, site)`, or `None` if
    /// never recorded.
    pub fn second_moment(&self, layer: usize, site: Site) -> Option<Vec<f32>> {
        self.sums
            .get(&(layer, site))
            .map(|(s, n)| s.iter().map(|&v| (v / *n as f64) as f32).collect())
    }
}

impl Recorder for SecondMomentRecorder {
    fn record(&mut self, layer: usize, site: Site, x: &[f32]) {
        let entry = self.sums.entry((layer, site)).or_insert_with(|| (vec![0.0; x.len()], 0));
        for (s, &v) in entry.0.iter_mut().zip(x) {
            *s += f64::from(v) * f64::from(v);
        }
        entry.1 += 1;
    }
}

/// Captures raw activation rows at every site of one target layer (used to
/// build the Fig. 3 / Fig. 4 tensors).
#[derive(Debug)]
pub struct ActivationCapture {
    target_layer: usize,
    rows: HashMap<Site, Vec<Vec<f32>>>,
    max_rows: usize,
}

impl ActivationCapture {
    /// Captures up to `max_rows` activation vectors per site at
    /// `target_layer`.
    pub fn new(target_layer: usize, max_rows: usize) -> Self {
        ActivationCapture { target_layer, rows: HashMap::new(), max_rows }
    }

    /// The captured activations at `site` as a matrix (one row per token),
    /// or `None` if nothing was captured.
    pub fn activations(&self, site: Site) -> Option<Matrix> {
        let rows = self.rows.get(&site)?;
        let first = rows.first()?;
        let mut m = Matrix::zeros(rows.len(), first.len());
        for (r, row) in rows.iter().enumerate() {
            m.row_mut(r).copy_from_slice(row);
        }
        Some(m)
    }
}

impl Recorder for ActivationCapture {
    fn record(&mut self, layer: usize, site: Site, x: &[f32]) {
        if layer != self.target_layer {
            return;
        }
        let rows = self.rows.entry(site).or_default();
        if rows.len() < self.max_rows {
            rows.push(x.to_vec());
        }
    }
}

/// A layer's weight matrix in the form its products take.
#[derive(Clone)]
pub(crate) enum LayerWeight {
    /// Dense `f32`, stored transposed (`d_out × d_in`) so a token step is a
    /// matvec: bf16 weights, and OWQ weights under `f32` activations.
    Dense(Matrix),
    /// OWQ codes, multiplied with MX activation codes on the INT datapath
    /// ([`ops::matmul_codes`]).
    Codes(CodeWeights),
}

impl LayerWeight {
    /// Bytes the matrix holds on the heap.
    #[cfg(test)]
    fn heap_bytes(&self) -> usize {
        match self {
            LayerWeight::Dense(m) => m.len() * size_of::<f32>(),
            LayerWeight::Codes(c) => c.heap_bytes(),
        }
    }
}

/// `out = x · W` from the operand [`Model::encode_site`] left for `w`'s
/// form: the `f32` rows `dense`, or the codes in `mx`.
fn project(w: &LayerWeight, dense: &Matrix, mx: &MxActs, out: &mut Matrix) {
    match w {
        LayerWeight::Dense(m) => dense.matmul_t_into(m, out),
        LayerWeight::Codes(c) => ops::matmul_codes(&mx.codes, c, out.as_mut_slice()),
    }
}

#[derive(Clone)]
pub(crate) struct ReadyLayer {
    pub(crate) wq: LayerWeight,
    pub(crate) wk: LayerWeight,
    pub(crate) wv: LayerWeight,
    pub(crate) wo: LayerWeight,
    pub(crate) w_gate: Option<LayerWeight>,
    pub(crate) w_up: LayerWeight,
    pub(crate) w_down: LayerWeight,
    pub(crate) attn_gain: Vec<f32>,
    pub(crate) attn_bias: Vec<f32>,
    pub(crate) ffn_gain: Vec<f32>,
    pub(crate) ffn_bias: Vec<f32>,
}

/// Which rows of a [`RowGroup`] get next-token logits, and where they go.
#[derive(Debug)]
pub enum LogitsOut<'a> {
    /// No row: a mid-prompt chunk, whose logits nobody reads.
    None,
    /// The last row's, into a `vocab`-long slice: a decode step, or the
    /// chunk that completes a prompt.
    Last(&'a mut [f32]),
    /// Every row's, into a matrix reshaped in place to `rows × vocab`
    /// (allocation-free once grown): a speculative verify pass.
    All(&'a mut Matrix),
}

/// One sequence's share of a [`Model::forward_rows`] pass: the tokens to
/// push from the state's current position, one row each. A decode step is a
/// one-row group, a speculative verify `k + 1` rows with
/// [`LogitsOut::All`], a prompt chunk `n` rows with [`LogitsOut::Last`] or
/// [`LogitsOut::None`]; a group without tokens sits the pass out.
#[derive(Debug)]
pub struct RowGroup<'a> {
    /// The sequence the rows extend.
    pub state: &'a mut DecodeState,
    /// The tokens to push, in position order.
    pub tokens: &'a [u32],
    /// Which of the rows want logits.
    pub logits: LogitsOut<'a>,
}

impl RowGroup<'_> {
    /// The same group under a shorter borrow — the accessor to hand
    /// [`Model::forward_rows`] when the caller's per-sequence records *are*
    /// `RowGroup`s.
    pub fn reborrow(&mut self) -> RowGroup<'_> {
        RowGroup {
            state: self.state,
            tokens: self.tokens,
            logits: match &mut self.logits {
                LogitsOut::None => LogitsOut::None,
                LogitsOut::Last(out) => LogitsOut::Last(out),
                LogitsOut::All(out) => LogitsOut::All(out),
            },
        }
    }
}

/// Reshapes a scratch matrix to `rows × cols` in place, reusing the backing
/// buffer (zero-filled; allocation-free once grown to the largest shape
/// seen). Same-width reshapes — the common case, the row count changing
/// between passes — go through [`Matrix::resize_rows`]; a width change
/// rebuilds the layout around the same `Vec`.
fn ensure_shape(m: &mut Matrix, rows: usize, cols: usize) {
    if m.cols() == cols && !m.is_empty() {
        m.resize_rows(rows);
        return;
    }
    let mut data = std::mem::replace(m, Matrix::zeros(0, 0)).into_vec();
    data.clear();
    data.resize(rows * cols, 0.0);
    *m = Matrix::from_vec(rows, cols, data);
}

/// Calls `f(first row, group)` for every group of the pass that has rows,
/// in order: group `i`'s rows are `first row .. first row + tokens.len()` of
/// the stacked matrices.
fn for_each_group<T>(
    seqs: &mut [T],
    group: &impl for<'a> Fn(&'a mut T) -> RowGroup<'a>,
    mut f: impl FnMut(usize, RowGroup<'_>),
) {
    let mut row0 = 0;
    for seq in seqs {
        let g = group(seq);
        let rows = g.tokens.len();
        if rows > 0 {
            f(row0, g);
        }
        row0 += rows;
    }
}

/// Reports the rows of the stacked `sites` to the recorder, if there is
/// one: row by row, a row's sites in the order given.
fn record_rows(recorder: &mut Option<&mut dyn Recorder>, layer: usize, sites: &[(Site, &Matrix)]) {
    let Some(rec) = recorder.as_deref_mut() else { return };
    for r in 0..sites[0].1.rows() {
        for &(site, m) in sites {
            rec.record(layer, site, m.row(r));
        }
    }
}

/// The buffers of a [`Model::forward_rows`] pass: one row per token in
/// flight, over all the sequences of the pass.
///
/// Every intermediate of a pass lands here — norm rows, the stacked
/// projections, the attention scores of up to eight query rows of one
/// group at a time, a quantized page dequantized for the V sum, the rows
/// that want logits — so whoever drives passes owns one of these per
/// thread (the serving engine: one for its own thread and one per pool
/// worker) and the sequences own only their position and KV tables.
/// Buffers are reshaped, never reallocated once grown, to the live row
/// count at the start of each pass: passes allocate nothing once the
/// workspace has seen its largest row count and longest context. Nothing in here outlives a pass, so a
/// workspace can serve any sequence, any model of the same or another
/// shape, and a pass that unwound half way.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Residual streams, `rows × d_model`.
    hs: Matrix,
    /// Norm outputs feeding QKV or FC1, `rows × d_model`.
    xs: Matrix,
    /// Quantized norm outputs, `rows × d_model` (`f32` activation schemes).
    xqs: Matrix,
    /// Query projections (pre-quantization), `rows × d_model`.
    qs: Matrix,
    /// Key projections (pre-quantization), `rows × d_model`.
    ks: Matrix,
    /// Value projections (pre-quantization), `rows × d_model`.
    vs: Matrix,
    /// Quantized queries, `rows × d_model`.
    qqs: Matrix,
    /// Attention contexts, `rows × d_model`.
    ctxs: Matrix,
    /// Quantized contexts, `rows × d_model` (`f32` activation schemes).
    ctxqs: Matrix,
    /// Output of the attention and FFN down projections (used one after
    /// the other), `rows × d_model`.
    proj: Matrix,
    /// FFN gate/activation buffer, `rows × d_ff`.
    gates: Matrix,
    /// FFN up-projections, `rows × d_ff`.
    ups: Matrix,
    /// Quantized FFN activations, `rows × d_ff` (`f32` activation schemes).
    act_qs: Matrix,
    /// The activation codes of the site being multiplied, on the INT
    /// datapath: they stand in for `xqs`, `ctxqs` and `act_qs` there.
    mx: MxActs,
    /// Rotary angles of each row's position, `rows × head_dim` (see
    /// [`ops::rope_angles_into`]): computed once per pass, applied by every
    /// layer and head.
    rope: Matrix,
    /// Attention scores of up to [`QUERY_TILE`] query rows of one group,
    /// `rows × n_heads × len` (`len` the last row's context); holds
    /// `QUERY_TILE × n_heads` times the longest context seen.
    scores: Vec<f32>,
    /// Their attention weights, laid out like `scores`.
    weights: Vec<f32>,
    /// The paged-KV walk's scratch: the V tile, the K sums carried across
    /// the blocks a head straddles, and a nibble-packed page's codes
    /// unpacked one per byte.
    page: PageScratch,
    /// Final-norm outputs of the rows that want logits, `wanted × d_model`.
    hn: Matrix,
    /// Their next-token logits, `wanted × vocab`.
    logits: Matrix,
    /// Quantizer encode workspace (block plans, sort buffers) for the
    /// tensor-global formats; block-local formats ignore it. It carries
    /// capacity, never state, from one row to the next.
    quant: EncodeScratch,
}

impl Workspace {
    /// An empty workspace; the first pass sizes it.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Decoding state of one sequence: its position counter and paged KV block
/// tables.
///
/// Each sequence owns its `DecodeState`; the [`Model`] stays immutable
/// during decoding, which is what lets a batch scheduler step many states
/// against one model, in one pass ([`Model::forward_rows`]) or from
/// parallel threads. The KV cache is paged (see [`crate::kv`]): per-layer
/// tables of refcounted fixed-size blocks drawn from a [`BlockPool`] —
/// private and unbounded under [`Model::begin_decode`], engine-shared and
/// bounded under [`Model::begin_decode_paged`], where tables of different
/// sequences may map common prefix blocks read-only.
pub struct DecodeState {
    pos: usize,
    kv: PagedKv,
    /// The [`Workspace`] of the single-sequence entry points
    /// ([`Model::decode_step`], [`Model::prefill`], ...), boxed by the first
    /// of them this state goes through. A state driven through
    /// [`Model::forward_rows`] with its driver's workspace never has one.
    workspace: Option<Box<Workspace>>,
}

impl DecodeState {
    /// Number of tokens decoded so far.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// KV blocks per layer currently mapped by this sequence.
    pub fn blocks_per_layer(&self) -> usize {
        self.kv.layers.first().map_or(0, Vec::len)
    }

    /// The block at `index` of `layer`'s table (a refcount bump — this is
    /// how the serve engine publishes prompt blocks into its prefix cache).
    ///
    /// # Panics
    ///
    /// Panics if `layer` or `index` is out of range.
    pub fn block(&self, layer: usize, index: usize) -> Arc<KvBlock> {
        Arc::clone(&self.kv.layers[layer][index])
    }

    /// Whether an append at the current position would copy-on-write a
    /// shared tail block (schedulers use this to reserve the extra block).
    pub fn tail_block_shared(&self) -> bool {
        self.kv.tail_shared()
    }

    /// Rolls the sequence back to `len` positions, dropping the cached
    /// rows past it: block-table entries past `ceil(len / block_size)`
    /// return to the pool (or merely release this sequence's reference
    /// when a prefix-cache entry or sharing peer still maps them), and
    /// decoding resumes at position `len`. This is the rejected-tail
    /// cleanup of speculative decoding: the verify pass appends K+1 rows
    /// via [`Model::verify_chunk_into`], and the unaccepted suffix is
    /// discarded here in O(dropped blocks). Rows at positions `>= len`
    /// inside a kept tail block need no clearing — reads are bounded by
    /// the sequence length, so they are recycled-page garbage like any
    /// freshly allocated block's rows.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the current position.
    pub fn truncate(&mut self, len: usize) {
        assert!(len <= self.pos, "cannot truncate {} forward to {len}", self.pos);
        self.kv.truncate(len);
        self.pos = len;
    }

    /// Visits every `(layer, block)` entry of this sequence's block tables
    /// by reference, in layer-then-table order.
    ///
    /// Unlike [`DecodeState::block`] this never clones an `Arc`, so
    /// auditors can read true `Arc::strong_count` values — cross-checking
    /// pool accounting against table and prefix-cache references — without
    /// the audit itself perturbing the refcounts it is checking.
    pub fn with_blocks(&self, mut f: impl FnMut(usize, &Arc<KvBlock>)) {
        for (layer, table) in self.kv.layers.iter().enumerate() {
            for block in table {
                f(layer, block);
            }
        }
    }

    /// Maps an already-computed token prefix into this fresh state: the
    /// first `len` positions of every layer are backed by `prefix[layer]`
    /// read-only (refcount bumps, no copies, no prefill), and decoding
    /// resumes at position `len`. The first divergent write into a shared
    /// partial tail block copies it on write.
    ///
    /// The blocks must hold exactly the K/V rows the model would produce
    /// for the shared tokens — callers (the serve engine's prefix trie) key
    /// them by token ids, which determines those rows bit-exactly.
    ///
    /// # Panics
    ///
    /// Panics if the state already holds positions, `len` is zero, the
    /// per-layer block counts don't cover exactly `len` positions, or the
    /// donor blocks are incompatible (see
    /// [`DecodeState::try_adopt_shared_prefix`] for the fallible form).
    pub fn adopt_shared_prefix(&mut self, prefix: Vec<Vec<Arc<KvBlock>>>, len: usize) {
        // tidy: allow(panic) -- infallible wrapper; engines sharing one pool can't mismatch
        self.try_adopt_shared_prefix(prefix, len).expect("incompatible shared prefix");
    }

    /// As [`DecodeState::adopt_shared_prefix`], but returns a typed error
    /// when the donor blocks are incompatible with this sequence's pool:
    /// [`AdoptError::SchemeMismatch`] when their page format differs (an
    /// exact walk cannot read packed codes and vice versa — checked first,
    /// so mixed-scheme sharing is rejected even across pools), and
    /// [`AdoptError::ForeignPool`] when they belong to a different
    /// [`BlockPool`] instance.
    ///
    /// # Errors
    ///
    /// Returns an [`AdoptError`] as described above; `self` is unchanged
    /// on error.
    ///
    /// # Panics
    ///
    /// Panics if the state already holds positions, `len` is zero, or the
    /// per-layer block counts don't cover exactly `len` positions — those
    /// are caller bugs, not runtime conditions.
    pub fn try_adopt_shared_prefix(
        &mut self,
        prefix: Vec<Vec<Arc<KvBlock>>>,
        len: usize,
    ) -> Result<(), AdoptError> {
        assert_eq!(self.pos, 0, "shared prefix must be adopted before any token");
        assert!(len > 0, "empty shared prefix");
        assert_eq!(prefix.len(), self.kv.layers.len(), "layer count mismatch");
        let blocks = len.div_ceil(self.kv.pool.block_size());
        let ours = self.kv.pool.scheme();
        for table in &prefix {
            assert_eq!(table.len(), blocks, "prefix blocks must cover exactly len positions");
            for b in table {
                if b.scheme() != ours {
                    return Err(AdoptError::SchemeMismatch { ours, theirs: b.scheme() });
                }
                if !b.from_pool(&self.kv.pool) {
                    return Err(AdoptError::ForeignPool);
                }
            }
        }
        self.kv.layers = prefix;
        self.pos = len;
        Ok(())
    }
}

impl std::fmt::Debug for DecodeState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DecodeState(pos={}, layers={}, blocks/layer={})",
            self.pos,
            self.kv.layers.len(),
            self.blocks_per_layer()
        )
    }
}

/// A decoder-only transformer executing under a [`QuantScheme`].
///
/// The model is built from deterministic synthetic weights (see
/// [`crate::weights`]); with [`crate::WeightScheme::Owq`] the weights are
/// calibrated and quantized at construction. All activation quantization
/// happens token-by-token at the Fig. 5 hook points during decoding.
///
/// # Example
///
/// ```
/// use opal_model::{Model, ModelConfig, QuantScheme};
///
/// let model = Model::new(ModelConfig::tiny(), QuantScheme::bf16(), 42)?;
/// let logits = model.forward(&[1, 2, 3]);
/// assert_eq!(logits.rows(), 3);
/// assert_eq!(logits.cols(), model.config().vocab);
/// # Ok::<(), opal_quant::QuantError>(())
/// ```
pub struct Model {
    pub(crate) config: ModelConfig,
    pub(crate) scheme: QuantScheme,
    pub(crate) embedding: Matrix,
    pub(crate) unembedding: Matrix,
    pub(crate) final_norm_gain: Vec<f32>,
    pub(crate) final_norm_bias: Vec<f32>,
    pub(crate) layers: Vec<ReadyLayer>,
    pub(crate) outlier_channels: Vec<usize>,
    pub(crate) low_q: Option<Box<dyn Quantizer + Send + Sync>>,
    pub(crate) high_q: Option<Box<dyn Quantizer + Send + Sync>>,
    /// The activation encoders of the INT datapath: `Some` when MX-family
    /// activations meet OWQ weights, whose layers then hold
    /// [`LayerWeight::Codes`].
    pub(crate) codec: Option<ActCodec>,
    pub(crate) log2_softmax: Option<Log2Softmax>,
    pub(crate) rope_theta: f32,
    /// Final logit scale. A random (untrained) unembedding produces logits
    /// with standard deviation ≈ √d_model, which would make the model
    /// near-deterministic (PPL → 1) and hide quantization effects entirely;
    /// scaling to ≈2.5 standard deviations gives the teacher an entropy
    /// profile comparable to a trained LLM on natural text (PPL in the
    /// single digits against a few-hundred-token vocabulary).
    pub(crate) logit_scale: f32,
}

impl Model {
    /// Prompt positions [`Model::prefill_into`] fuses per layer pass.
    ///
    /// Large enough that each transposed weight matrix streamed through a
    /// pass is amortized over many positions (the locality win of the fused
    /// GEMM), small enough that the `chunk × d_ff` scratch rows stay
    /// cache-resident for realistic configurations.
    pub const DEFAULT_PREFILL_CHUNK: usize = 32;

    /// Builds a model with synthetic weights from `seed`, quantized
    /// according to `scheme`.
    ///
    /// With OWQ weights this runs a short calibration pass (48 tokens of a
    /// deterministic stream) on the unquantized model to collect the OWQ
    /// channel sensitivities, exactly mirroring the paper's use of a
    /// calibration set.
    ///
    /// # Errors
    ///
    /// Returns a [`QuantError`] if the scheme's quantizer parameters are
    /// invalid.
    pub fn new(config: ModelConfig, scheme: QuantScheme, seed: u64) -> Result<Self, QuantError> {
        let raw = generate_weights(&config, seed);
        Self::from_weights(config, scheme, raw, seed)
    }

    /// Builds a model from explicit raw weights (mainly for tests).
    ///
    /// # Errors
    ///
    /// Returns a [`QuantError`] if the scheme's quantizer parameters are
    /// invalid.
    pub fn from_weights(
        config: ModelConfig,
        scheme: QuantScheme,
        raw: ModelWeights,
        seed: u64,
    ) -> Result<Self, QuantError> {
        let (low_q, high_q) = match &scheme.acts {
            Some(a) => (Some(a.low_quantizer()?), Some(a.high_quantizer()?)),
            None => (None, None),
        };
        let log2_softmax = match scheme.softmax {
            SoftmaxKind::Exact => None,
            SoftmaxKind::Log2 { bits } => Some(Log2Softmax::new(bits)),
        };
        let codec = match (&scheme.acts, scheme.weights) {
            (Some(acts), WeightScheme::Owq { .. }) => ActCodec::for_scheme(acts)?,
            _ => None,
        };

        let processed = match scheme.weights.quantizer()? {
            None => process_bf16(&raw),
            Some(owq) => {
                // Calibration pass on the unquantized model.
                let fp = Model {
                    config: config.clone(),
                    scheme: QuantScheme::bf16(),
                    embedding: raw.embedding.clone(),
                    unembedding: raw.unembedding.clone(),
                    final_norm_gain: raw.final_norm_gain.clone(),
                    final_norm_bias: raw.final_norm_bias.clone(),
                    layers: process_identity(&raw),
                    outlier_channels: raw.outlier_channels.clone(),
                    low_q: None,
                    high_q: None,
                    codec: None,
                    log2_softmax: None,
                    rope_theta: 10_000.0,
                    logit_scale: 2.5 / (config.d_model as f32).sqrt(),
                };
                let mut rec = SecondMomentRecorder::new();
                let mut state = fp.begin_decode();
                let mut token = (seed % config.vocab as u64) as u32;
                for _ in 0..48.min(4 * config.vocab) {
                    let logits = fp.decode_step_recorded(&mut state, token, Some(&mut rec));
                    token = ops::argmax(&logits).unwrap_or(0) as u32;
                    // Perturb deterministically to avoid degenerate loops.
                    token = (token.wrapping_mul(31).wrapping_add(state.pos() as u32))
                        % config.vocab as u32;
                }
                // The calibration model is the last thing allocated and
                // the first freed: memory freed at the top of the heap is
                // what goes back to the system, so a process that builds a
                // model is left holding the model, not the high-water mark
                // of building it.
                drop((state, fp));
                process_owq(raw.layers, &owq, &rec, codec.is_some())
            }
        };

        let logit_scale = 2.5 / (config.d_model as f32).sqrt();
        Ok(Model {
            config,
            scheme,
            embedding: raw.embedding,
            unembedding: raw.unembedding,
            final_norm_gain: raw.final_norm_gain,
            final_norm_bias: raw.final_norm_bias,
            layers: processed,
            outlier_channels: raw.outlier_channels,
            low_q,
            high_q,
            codec,
            log2_softmax,
            rope_theta: 10_000.0,
            logit_scale,
        })
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Builds the low-cost *draft sibling* for speculative decoding: a
    /// model sharing this model's configuration, embedding, unembedding,
    /// final norm and the processed weights of its first `n_layers`
    /// decoder blocks, under the same activation/softmax scheme. Running
    /// a fraction of the depth makes its forward pass proportionally
    /// cheaper while staying correlated with the full model's greedy
    /// choices — and the sibling is never trusted: a serving engine
    /// verifies every proposal against the full model, so the draft
    /// affects speed, not output.
    ///
    /// # Panics
    ///
    /// Panics if `n_layers` is zero or exceeds this model's layer count.
    pub fn draft_truncated(&self, n_layers: usize) -> Model {
        assert!(
            n_layers >= 1 && n_layers <= self.layers.len(),
            "draft depth {n_layers} outside 1..={}",
            self.layers.len()
        );
        let mut config = self.config.clone();
        config.n_layers = n_layers;
        // The boxed activation quantizers are not cloneable; rebuild them
        // from the scheme, whose parameters were validated when `self`
        // was constructed.
        let (low_q, high_q) = match &self.scheme.acts {
            Some(a) => (
                // tidy: allow(panic) -- the same parameters built self's quantizers
                Some(a.low_quantizer().expect("scheme validated at construction")),
                // tidy: allow(panic) -- the same parameters built self's quantizers
                Some(a.high_quantizer().expect("scheme validated at construction")),
            ),
            None => (None, None),
        };
        let log2_softmax = match self.scheme.softmax {
            SoftmaxKind::Exact => None,
            SoftmaxKind::Log2 { bits } => Some(Log2Softmax::new(bits)),
        };
        Model {
            config,
            scheme: self.scheme.clone(),
            embedding: self.embedding.clone(),
            unembedding: self.unembedding.clone(),
            final_norm_gain: self.final_norm_gain.clone(),
            final_norm_bias: self.final_norm_bias.clone(),
            layers: self.layers[..n_layers].to_vec(),
            outlier_channels: self.outlier_channels.clone(),
            low_q,
            high_q,
            codec: self.codec,
            log2_softmax,
            rope_theta: self.rope_theta,
            logit_scale: self.logit_scale,
        }
    }

    /// The active quantization scheme.
    pub fn scheme(&self) -> &QuantScheme {
        &self.scheme
    }

    /// The persistent activation-outlier channel indices.
    pub fn outlier_channels(&self) -> &[usize] {
        &self.outlier_channels
    }

    /// Starts a fresh decoding session over a private, unbounded
    /// [`BlockPool`] (block size [`BlockPool::DEFAULT_BLOCK_SIZE`]).
    pub fn begin_decode(&self) -> DecodeState {
        let pool = Arc::new(BlockPool::new(
            BlockPool::DEFAULT_BLOCK_SIZE,
            self.config.d_model,
            usize::MAX,
        ));
        self.begin_decode_paged(&pool)
    }

    /// Starts a fresh decoding session whose KV blocks come from `pool` —
    /// the entry point for engines that bound KV memory across a batch and
    /// share prompt-prefix blocks between sequences.
    ///
    /// # Panics
    ///
    /// Panics if the pool's row width differs from the model's `d_model`.
    pub fn begin_decode_paged(&self, pool: &Arc<BlockPool>) -> DecodeState {
        assert_eq!(pool.width(), self.config.d_model, "pool row width must equal d_model");
        DecodeState {
            pos: 0,
            kv: PagedKv::new(Arc::clone(pool), self.config.n_layers),
            workspace: None,
        }
    }

    /// Decodes one token, returning the next-token logits.
    ///
    /// # Panics
    ///
    /// Panics if `token` is out of vocabulary range.
    pub fn decode_step(&self, state: &mut DecodeState, token: u32) -> Vec<f32> {
        self.decode_step_recorded(state, token, None)
    }

    /// As [`Model::decode_step`], writing the logits into a caller-provided
    /// slice instead of allocating.
    ///
    /// # Panics
    ///
    /// Panics if `token` is out of range or `out.len()` differs from the
    /// vocabulary size.
    pub fn decode_step_into(&self, state: &mut DecodeState, token: u32, out: &mut [f32]) {
        self.forward_one(state, &[token], LogitsOut::Last(out), None);
    }

    /// Feeds a whole prompt through the decoder, returning the logits after
    /// its last token.
    ///
    /// Allocating convenience wrapper over [`Model::prefill_into`]; see
    /// there for the fused-chunk execution model.
    ///
    /// # Panics
    ///
    /// Panics if `prompt` is empty or contains out-of-range tokens.
    pub fn prefill(&self, state: &mut DecodeState, prompt: &[u32]) -> Vec<f32> {
        let mut out = vec![0.0; self.config.vocab];
        self.prefill_into(state, prompt, &mut out);
        out
    }

    /// Feeds a whole prompt through the decoder, writing the logits after
    /// its last token into `out` — the allocation-free entry point behind
    /// [`Model::prefill`].
    ///
    /// This is the shared prompt-consumption path of the single-sequence
    /// generation loops ([`crate::sampling::generate`], the pipeline's
    /// greedy loop), and the same core the batched `opal-serve` scheduler
    /// drives, so they are guaranteed to agree token-for-token with a raw
    /// [`Model::decode_step`] loop.
    ///
    /// The prompt is consumed in fused multi-token chunks of
    /// [`Model::DEFAULT_PREFILL_CHUNK`] positions via
    /// [`Model::prefill_chunk`] — one layer pass per chunk instead of one
    /// per token — and only the final prompt token materializes vocab-sized
    /// logits: the unembedding product — by far the widest in the model — is
    /// skipped for every earlier position, whose logits nobody reads.
    ///
    /// # Panics
    ///
    /// Panics if `prompt` is empty, contains out-of-range tokens, or
    /// `out.len()` differs from the vocabulary size.
    pub fn prefill_into(&self, state: &mut DecodeState, prompt: &[u32], out: &mut [f32]) {
        assert!(!prompt.is_empty(), "empty prompt");
        let chunk = Self::DEFAULT_PREFILL_CHUNK;
        let mut i = 0;
        while prompt.len() - i > chunk {
            self.prefill_chunk(state, &prompt[i..i + chunk]);
            i += chunk;
        }
        self.prefill_chunk_into(state, &prompt[i..], out);
    }

    /// Consumes one chunk of prompt positions in a single fused pass per
    /// layer, without materializing logits (the mid-prompt form of
    /// [`Model::prefill_chunk_into`]): a one-group [`Model::forward_rows`]
    /// pass, so the KV caches and any later logits are bit-identical to
    /// stepping the same tokens one at a time (`tests/decode_golden.rs`
    /// pins this for chunk sizes 1/3/8/whole prompt across scheme families).
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty or contains out-of-range ids.
    pub fn prefill_chunk(&self, state: &mut DecodeState, tokens: &[u32]) {
        assert!(!tokens.is_empty(), "empty prefill chunk");
        self.forward_one(state, tokens, LogitsOut::None, None);
    }

    /// As [`Model::prefill_chunk`], additionally writing the next-token
    /// logits of the chunk's final position into `out` — the form used for
    /// a prompt's last chunk.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty, contains out-of-range ids, or
    /// `out.len()` differs from the vocabulary size.
    pub fn prefill_chunk_into(&self, state: &mut DecodeState, tokens: &[u32], out: &mut [f32]) {
        assert!(!tokens.is_empty(), "empty prefill chunk");
        self.forward_one(state, tokens, LogitsOut::Last(out), None);
    }

    /// The fused multi-row *verify* pass of speculative decoding: advances
    /// `state` by `tokens.len()` positions exactly like
    /// [`Model::prefill_chunk`], but materializes the next-token logits of
    /// **every** position into `out` (reshaped to `tokens.len() × vocab`
    /// in place; allocation-free once grown). Row `r` holds the logits
    /// after `tokens[..=r]`, bit-identical to what
    /// [`Model::decode_step_into`] would return having consumed those same
    /// tokens one at a time — so a caller can accept the longest drafted
    /// prefix whose picks match and roll the rejected tail back with
    /// [`DecodeState::truncate`], with output pinned to the non-speculative
    /// stream.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty or contains out-of-range ids.
    pub fn verify_chunk_into(&self, state: &mut DecodeState, tokens: &[u32], out: &mut Matrix) {
        assert!(!tokens.is_empty(), "empty prefill chunk");
        self.forward_one(state, tokens, LogitsOut::All(out), None);
    }

    /// As [`Model::decode_step`], optionally reporting activations to a
    /// [`Recorder`].
    ///
    /// # Panics
    ///
    /// Panics if `token` is out of vocabulary range.
    pub fn decode_step_recorded(
        &self,
        state: &mut DecodeState,
        token: u32,
        recorder: Option<&mut dyn Recorder>,
    ) -> Vec<f32> {
        let mut out = vec![0.0; self.config.vocab];
        self.forward_one(state, &[token], LogitsOut::Last(&mut out), recorder);
        out
    }

    /// A one-group [`Model::forward_rows`] pass over the state's private
    /// [`Workspace`]: what every single-sequence entry point above is.
    fn forward_one(
        &self,
        state: &mut DecodeState,
        tokens: &[u32],
        logits: LogitsOut<'_>,
        recorder: Option<&mut dyn Recorder>,
    ) {
        // The group borrows the whole state, so the workspace steps outside
        // it for the pass (a move of the box; a pass that unwinds just
        // leaves the next one to box a new workspace).
        let mut ws = state.workspace.take().unwrap_or_default();
        let mut one = [RowGroup { state, tokens, logits }];
        self.forward_rows(&mut one, RowGroup::reborrow, &mut ws, recorder);
        let [RowGroup { state, .. }] = one;
        state.workspace = Some(ws);
    }

    /// The forward core: one pass over a ragged batch of rows. Every
    /// sequence in `seqs` contributes the group `group(seq)` describes —
    /// its [`DecodeState`], the tokens to push from its current position,
    /// and which rows want logits — and all rows of all groups cross each
    /// weight matrix **once**: per layer they are stacked into the
    /// [`Workspace`]'s matrices, each projection is one
    /// [`Matrix::matmul_t_into`] (or, on the INT datapath of MX activations
    /// over OWQ weights, one [`ops::matmul_codes`] of the site's activation
    /// codes), and only attention runs per group, row by
    /// row against that sequence's own paged KV cache (row `r` of a group
    /// attends to cached positions `0..=pos + r`, the group's rows appended
    /// just before included). A decode step, a speculative verify pass and
    /// a prompt chunk differ only in their [`RowGroup`]; a serving step is
    /// the rows of every sequence in flight, so the weight stack streams
    /// once per step instead of once per sequence.
    ///
    /// `group` is called several times per sequence per pass and must
    /// describe the same group each time; it is an accessor, not an
    /// iterator, so the driver's own records (`&mut [Active]` in
    /// `opal-serve`) are walked in place with no per-pass list of borrows.
    /// The pass allocates nothing once `ws` has seen its largest row count
    /// and longest context (the paged KV cache allocates one recycled block
    /// per [`BlockPool::block_size`] positions).
    ///
    /// **Which rows share a pass is invisible in the output.** Norms,
    /// quantizers (the [`EncodeScratch`] carries capacity, never state) and
    /// RoPE are row-wise with the single-token kernels; a
    /// [`Matrix::matmul_t_into`] row is bitwise the
    /// [`Matrix::matvec_into`] it replaces, and an [`ops::matmul_codes`]
    /// row is bitwise its scalar spec whatever rows share the call (its
    /// sums are exact integers); attention for a row scans the
    /// same cache rows in the same order a token-by-token loop would at
    /// that position — K/V rows never depend on attention, so appending a
    /// group's rows before attending changes nothing. Ordering of every
    /// loop and reduction matches the seed implementation (kept in
    /// [`crate::reference`], whose INT-datapath products are that same
    /// scalar spec) except inside [`opal_tensor::ops::dot`], whose
    /// 4-accumulator reduction reassociates `f64` partial sums ~29 bits
    /// below `f32` resolution; `tests/decode_golden.rs` pins the output
    /// bit-for-bit against logit patterns captured from the seed build, and
    /// this module's grouping proptest pins arbitrary groupings against
    /// each sequence run alone token by token.
    ///
    /// Every state's position advances only as the pass returns. A pass
    /// that panics half way (a bounded [`BlockPool`] running dry, say)
    /// leaves each `pos` where it was, with rows past it possibly written:
    /// `state.truncate(state.pos())` drops those, and the state is as it
    /// was before the pass — which is how a driver re-runs the survivors of
    /// a poisoned pass one by one.
    ///
    /// The `recorder`, if any, sees every site of every row, per layer in
    /// row order.
    ///
    /// # Panics
    ///
    /// Panics, before touching any state, if a token is out of vocabulary
    /// range or a [`LogitsOut::Last`] slice is not `vocab` long.
    pub fn forward_rows<T>(
        &self,
        seqs: &mut [T],
        group: impl for<'a> Fn(&'a mut T) -> RowGroup<'a>,
        ws: &mut Workspace,
        mut recorder: Option<&mut dyn Recorder>,
    ) {
        let d = self.config.d_model;
        let ff = self.config.d_ff;
        let dh = self.config.head_dim();
        let vocab = self.config.vocab;
        let n_heads = self.config.n_heads;

        // Rows in flight, rows wanting logits, the longest context any row
        // attends over, and the largest KV block.
        let (mut n, mut wanted, mut longest, mut block) = (0, 0, 0, 0);
        for seq in seqs.iter_mut() {
            let g = group(seq);
            for &t in g.tokens {
                assert!((t as usize) < vocab, "token {t} out of range");
            }
            let rows = g.tokens.len();
            n += rows;
            wanted += match &g.logits {
                LogitsOut::None => 0,
                LogitsOut::Last(out) => {
                    assert_eq!(out.len(), vocab, "logits length mismatch");
                    rows.min(1)
                }
                LogitsOut::All(_) => rows,
            };
            if rows > 0 {
                longest = longest.max(g.state.pos + rows);
                block = block.max(g.state.kv.pool.block_size());
            }
        }
        if n == 0 {
            return;
        }

        let Workspace { hs, xs, qs, ks, vs, qqs, ctxs, proj, .. } = &mut *ws;
        for m in [hs, xs, qs, ks, vs, qqs, ctxs, proj] {
            ensure_shape(m, n, d);
        }
        for m in [&mut ws.gates, &mut ws.ups] {
            ensure_shape(m, n, ff);
        }
        if self.codec.is_none() {
            ensure_shape(&mut ws.xqs, n, d);
            ensure_shape(&mut ws.ctxqs, n, d);
            ensure_shape(&mut ws.act_qs, n, ff);
        }
        ensure_shape(&mut ws.rope, n, dh);
        // Room for a full query tile at the longest context, whatever the
        // groups' row counts: a decode-only pass sizes the buffers a later
        // prompt chunk at the same context needs.
        let attn = QUERY_TILE * n_heads * longest;
        if ws.scores.len() < attn {
            ws.scores.resize(attn, 0.0);
            ws.weights.resize(attn, 0.0);
        }
        ws.page.fit(block, dh, QUERY_TILE);

        for_each_group(seqs, &group, |row0, g| {
            for (r, &t) in g.tokens.iter().enumerate() {
                ws.hs.row_mut(row0 + r).copy_from_slice(self.embedding.row(t as usize));
                ops::rope_angles_into(g.state.pos + r, self.rope_theta, ws.rope.row_mut(row0 + r));
            }
        });

        for (l, lw) in self.layers.iter().enumerate() {
            // ---- attention ----
            for r in 0..n {
                self.norm_into(ws.hs.row(r), &lw.attn_gain, &lw.attn_bias, ws.xs.row_mut(r));
            }
            record_rows(&mut recorder, l, &[(Site::QkvInput, &ws.xs)]);
            self.encode_site(Site::QkvInput, &ws.xs, &mut ws.xqs, &mut ws.mx, &mut ws.quant);
            project(&lw.wq, &ws.xqs, &ws.mx, &mut ws.qs);
            project(&lw.wk, &ws.xqs, &ws.mx, &mut ws.ks);
            project(&lw.wv, &ws.xqs, &ws.mx, &mut ws.vs);
            for r in 0..n {
                let angles = ws.rope.row(r);
                for head in 0..n_heads {
                    let s = head * dh;
                    ops::rope_apply(&mut ws.qs.row_mut(r)[s..s + dh], angles);
                    ops::rope_apply(&mut ws.ks.row_mut(r)[s..s + dh], angles);
                }
            }
            record_rows(
                &mut recorder,
                l,
                &[(Site::Query, &ws.qs), (Site::Key, &ws.ks), (Site::Value, &ws.vs)],
            );
            self.quant_high_block(&ws.qs, &mut ws.qqs, &mut ws.quant);

            for_each_group(seqs, &group, |row0, g| {
                let rows = g.tokens.len();
                let DecodeState { pos, kv, .. } = g.state;
                let pos0 = *pos;
                let bs = kv.pool.block_size();
                // Quantize the group's K/V rows straight into its paged
                // cache, one contiguous segment per block they span (the
                // block quantizer is row-wise, so the split is
                // bit-invisible).
                let mut off = 0;
                while off < rows {
                    let p = pos0 + off;
                    let seg = (bs - p % bs).min(rows - off);
                    let (from, to) = ((row0 + off) * d, (row0 + off + seg) * d);
                    let (ks, vs) = (&ws.ks.as_slice()[from..to], &ws.vs.as_slice()[from..to]);
                    if kv.quantized() {
                        // Quantized KV: the page encoder *is* the
                        // cache-side quantizer, so the post-RoPE rows go in
                        // raw and the scheme's codes come back out on the
                        // walk.
                        kv.append_rows_quant(l, p, seg, ks, vs, &mut ws.quant);
                    } else {
                        let (k_dst, v_dst) = kv.rows_mut(l, p, seg);
                        self.quant_high_flat(ks, d, k_dst, &mut ws.quant);
                        self.quant_high_flat(vs, d, v_dst, &mut ws.quant);
                    }
                    off += seg;
                }
                // Row `r` attends to its causal prefix: the cached
                // positions `0..=pos0 + r`, the rows appended just above
                // included.
                let (lo, hi) = (row0 * d, (row0 + rows) * d);
                let (qs, ctxs) = (&ws.qqs.as_slice()[lo..hi], &mut ws.ctxs.as_mut_slice()[lo..hi]);
                let buffers = (&mut ws.scores[..], &mut ws.weights[..], &mut ws.page);
                self.attend_rows(kv, l, pos0, qs, buffers, ctxs);
            });
            record_rows(&mut recorder, l, &[(Site::ProjInput, &ws.ctxs)]);
            self.encode_site(Site::ProjInput, &ws.ctxs, &mut ws.ctxqs, &mut ws.mx, &mut ws.quant);
            project(&lw.wo, &ws.ctxqs, &ws.mx, &mut ws.proj);
            for (hh, oo) in ws.hs.as_mut_slice().iter_mut().zip(ws.proj.as_slice()) {
                *hh += oo;
            }

            // ---- FFN ----
            for r in 0..n {
                self.norm_into(ws.hs.row(r), &lw.ffn_gain, &lw.ffn_bias, ws.xs.row_mut(r));
            }
            record_rows(&mut recorder, l, &[(Site::Fc1Input, &ws.xs)]);
            self.encode_site(Site::Fc1Input, &ws.xs, &mut ws.xqs, &mut ws.mx, &mut ws.quant);
            // The activation always lands in `ws.gates`.
            match &lw.w_gate {
                Some(gate) => {
                    project(gate, &ws.xqs, &ws.mx, &mut ws.gates);
                    project(&lw.w_up, &ws.xqs, &ws.mx, &mut ws.ups);
                    for (g, &u) in ws.gates.as_mut_slice().iter_mut().zip(ws.ups.as_slice()) {
                        *g = ops::silu(*g) * u;
                    }
                }
                None => {
                    project(&lw.w_up, &ws.xqs, &ws.mx, &mut ws.gates);
                    for g in ws.gates.as_mut_slice() {
                        *g = ops::relu(*g);
                    }
                }
            }
            record_rows(&mut recorder, l, &[(Site::Fc2Input, &ws.gates)]);
            self.encode_site(Site::Fc2Input, &ws.gates, &mut ws.act_qs, &mut ws.mx, &mut ws.quant);
            project(&lw.w_down, &ws.act_qs, &ws.mx, &mut ws.proj);
            for (hh, dd) in ws.hs.as_mut_slice().iter_mut().zip(ws.proj.as_slice()) {
                *hh += dd;
            }
        }

        // The rows that want logits: final norm into one matrix, one
        // unembedding product for all of them (row for row the per-token
        // matvec), scaled, then handed to their groups.
        if wanted > 0 {
            ensure_shape(&mut ws.hn, wanted, d);
            ensure_shape(&mut ws.logits, wanted, vocab);
            let mut next = 0;
            for_each_group(seqs, &group, |row0, g| {
                let rows = g.tokens.len();
                let first = match g.logits {
                    LogitsOut::None => rows,
                    LogitsOut::Last(_) => rows - 1,
                    LogitsOut::All(_) => 0,
                };
                for r in row0 + first..row0 + rows {
                    let (gain, bias) = (&self.final_norm_gain, &self.final_norm_bias);
                    self.norm_into(ws.hs.row(r), gain, bias, ws.hn.row_mut(next));
                    next += 1;
                }
            });
            ws.hn.matmul_t_into(&self.unembedding, &mut ws.logits);
            for v in ws.logits.as_mut_slice() {
                *v *= self.logit_scale;
            }
            let mut next = 0;
            for_each_group(seqs, &group, |_, g| match g.logits {
                LogitsOut::None => {}
                LogitsOut::Last(out) => {
                    out.copy_from_slice(ws.logits.row(next));
                    next += 1;
                }
                LogitsOut::All(out) => {
                    let rows = g.tokens.len();
                    ensure_shape(out, rows, vocab);
                    let span = next * vocab..(next + rows) * vocab;
                    out.as_mut_slice().copy_from_slice(&ws.logits.as_slice()[span]);
                    next += rows;
                }
            });
        }

        // Last, so that a pass that unwound anywhere above moved no one.
        for_each_group(seqs, &group, |_, g| g.state.pos += g.tokens.len());
    }

    /// Attention of a group's query rows (`qs`, `m` rows of `d_model`, at
    /// positions `pos0..pos0 + m`) over `layer`'s cached positions, all
    /// heads, row `i` over its causal prefix `0..pos0 + i + 1`, written into
    /// `ctxs` (`m` rows). The one attention routine of the forward core: a
    /// decode step is one row, a verify pass or a prompt chunk a group.
    ///
    /// Up to [`QUERY_TILE`] rows share each visit of the paged cache: their
    /// scores straight off the K pages into the `rows × n_heads × len` front
    /// of `scores` (`len = ` the last row's context), one softmax per (row,
    /// head) over that row's own prefix into the same front of `weights`,
    /// the weights past the prefix zeroed, then the weighted V sums. Every
    /// (row, head) sees the kernels and the position order it always did,
    /// so how many rows and heads share a visit is bit-invisible.
    fn attend_rows(
        &self,
        kv: &PagedKv,
        layer: usize,
        pos0: usize,
        qs: &[f32],
        (scores, weights, page): (&mut [f32], &mut [f32], &mut PageScratch),
        ctxs: &mut [f32],
    ) {
        let (d, n_heads) = (self.config.d_model, self.config.n_heads);
        let inv_sqrt_dh = 1.0 / (self.config.head_dim() as f32).sqrt();
        let visits = qs.chunks(QUERY_TILE * d).zip(ctxs.chunks_mut(QUERY_TILE * d));
        for (v, (qs, ctxs)) in visits.enumerate() {
            let pos0 = pos0 + v * QUERY_TILE;
            let m = qs.len() / d;
            let len = pos0 + m;
            let (scores, weights) =
                (&mut scores[..m * n_heads * len], &mut weights[..m * n_heads * len]);
            kv.scores_into(layer, pos0, qs, n_heads, inv_sqrt_dh, page, scores);
            let rows =
                scores.chunks_exact(n_heads * len).zip(weights.chunks_exact_mut(n_heads * len));
            for (i, (s, w)) in rows.enumerate() {
                let causal = pos0 + i + 1;
                for (s, w) in s.chunks_exact(len).zip(w.chunks_exact_mut(len)) {
                    let (w, masked) = w.split_at_mut(causal);
                    match &self.log2_softmax {
                        None => ops::softmax_into(&s[..causal], w),
                        Some(sm) => sm.probs_into(&s[..causal], w),
                    }
                    masked.fill(0.0);
                }
            }
            kv.weighted_values_into(layer, pos0, weights, n_heads, page, ctxs);
        }
    }

    /// Full-sequence forward pass: runs the incremental decoder over
    /// `tokens` and stacks the per-position next-token logits.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty or contains out-of-range ids.
    pub fn forward(&self, tokens: &[u32]) -> Matrix {
        assert!(!tokens.is_empty(), "empty token sequence");
        let mut state = self.begin_decode();
        let mut out = Matrix::zeros(tokens.len(), self.config.vocab);
        for (i, &t) in tokens.iter().enumerate() {
            self.decode_step_into(&mut state, t, out.row_mut(i));
        }
        out
    }

    /// As [`Model::forward`] with a recorder attached.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty or contains out-of-range ids.
    pub fn forward_recorded(&self, tokens: &[u32], recorder: &mut dyn Recorder) -> Matrix {
        assert!(!tokens.is_empty(), "empty token sequence");
        let mut state = self.begin_decode();
        let mut out = Matrix::zeros(tokens.len(), self.config.vocab);
        for (i, &t) in tokens.iter().enumerate() {
            let logits = self.decode_step_recorded(&mut state, t, Some(recorder));
            out.row_mut(i).copy_from_slice(&logits);
        }
        out
    }

    fn norm_into(&self, x: &[f32], gain: &[f32], bias: &[f32], out: &mut [f32]) {
        match self.config.arch {
            Arch::Llama => ops::rms_norm_into(x, gain, 1e-5, out),
            Arch::Opt => ops::layer_norm_into(x, gain, bias, 1e-5, out),
        }
    }

    pub(crate) fn norm(&self, x: &[f32], gain: &[f32], bias: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0; x.len()];
        self.norm_into(x, gain, bias, &mut out);
        out
    }

    /// Quantizes the rows of `x` for the weight products of `site`: to
    /// activation codes in `mx` on the INT datapath, else round-tripped to
    /// `f32` in `dense` through the site's quantizer (low-bit after a
    /// norm, high-bit elsewhere). [`project`] multiplies whichever it
    /// filled.
    fn encode_site(
        &self,
        site: Site,
        x: &Matrix,
        dense: &mut Matrix,
        mx: &mut MxActs,
        scratch: &mut EncodeScratch,
    ) {
        let low = matches!(site, Site::QkvInput | Site::Fc1Input);
        match &self.codec {
            Some(codec) => mx.encode(if low { codec.low } else { codec.high }, x, scratch),
            None if low => self.quant_low_block(x, dense, scratch),
            None => self.quant_high_block(x, dense, scratch),
        }
    }

    /// Bytes the decoder layers' weight matrices hold on the heap.
    #[cfg(test)]
    fn layer_weight_bytes(&self) -> usize {
        let layer = |l: &ReadyLayer| {
            [&l.wq, &l.wk, &l.wv, &l.wo, &l.w_up, &l.w_down]
                .into_iter()
                .chain(&l.w_gate)
                .map(LayerWeight::heap_bytes)
                .sum::<usize>()
        };
        self.layers.iter().map(layer).sum()
    }

    /// Low-bit quantization of every row of a stacked matrix through the
    /// shared [`EncodeScratch`], row for row the single-vector quantizer.
    fn quant_low_block(&self, x: &Matrix, out: &mut Matrix, scratch: &mut EncodeScratch) {
        match &self.low_q {
            Some(q) => q.quantize_dequantize_block_scratch(
                x.as_slice(),
                x.cols(),
                out.as_mut_slice(),
                scratch,
            ),
            None => bf16_roundtrip_into(x.as_slice(), out.as_mut_slice()),
        }
    }

    /// High-bit quantization of every row of a stacked matrix (see
    /// [`Model::quant_low_block`]).
    fn quant_high_block(&self, x: &Matrix, out: &mut Matrix, scratch: &mut EncodeScratch) {
        self.quant_high_flat(x.as_slice(), x.cols(), out.as_mut_slice(), scratch);
    }

    /// High-bit quantization of `width`-wide rows of a flat row-major
    /// block, writing straight into a flat destination — used to quantize a
    /// group's K/V rows directly into the contiguous cache.
    fn quant_high_flat(
        &self,
        x: &[f32],
        width: usize,
        out: &mut [f32],
        scratch: &mut EncodeScratch,
    ) {
        match &self.high_q {
            Some(q) => q.quantize_dequantize_block_scratch(x, width, out, scratch),
            None => bf16_roundtrip_into(x, out),
        }
    }

    pub(crate) fn quant_low(&self, x: &[f32]) -> Vec<f32> {
        match &self.low_q {
            Some(q) => q.quantize_dequantize(x),
            None => bf16_roundtrip(x),
        }
    }

    pub(crate) fn quant_high(&self, x: &[f32]) -> Vec<f32> {
        match &self.high_q {
            Some(q) => q.quantize_dequantize(x),
            None => bf16_roundtrip(x),
        }
    }
}

impl std::fmt::Debug for Model {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Model({} under {}, {} layers, d={})",
            self.config.name, self.scheme.name, self.config.n_layers, self.config.d_model
        )
    }
}

fn bf16_roundtrip(x: &[f32]) -> Vec<f32> {
    x.iter().map(|&v| opal_numerics::Bf16::from_f32(v).to_f32()).collect()
}

fn bf16_roundtrip_into(x: &[f32], out: &mut [f32]) {
    for (o, &v) in out.iter_mut().zip(x) {
        *o = opal_numerics::Bf16::from_f32(v).to_f32();
    }
}

fn bf16_matrix(m: &Matrix) -> Matrix {
    m.map(|v| opal_numerics::Bf16::from_f32(v).to_f32())
}

fn process_identity(raw: &ModelWeights) -> Vec<ReadyLayer> {
    let dense = |m: &Matrix| LayerWeight::Dense(m.transpose());
    raw.layers
        .iter()
        .map(|l| ReadyLayer {
            wq: dense(&l.wq),
            wk: dense(&l.wk),
            wv: dense(&l.wv),
            wo: dense(&l.wo),
            w_gate: l.w_gate.as_ref().map(dense),
            w_up: dense(&l.w_up),
            w_down: dense(&l.w_down),
            attn_gain: l.attn_norm_gain.clone(),
            attn_bias: l.attn_norm_bias.clone(),
            ffn_gain: l.ffn_norm_gain.clone(),
            ffn_bias: l.ffn_norm_bias.clone(),
        })
        .collect()
}

fn process_bf16(raw: &ModelWeights) -> Vec<ReadyLayer> {
    let dense = |m: &Matrix| LayerWeight::Dense(bf16_matrix(m).transpose());
    raw.layers
        .iter()
        .map(|l| ReadyLayer {
            wq: dense(&l.wq),
            wk: dense(&l.wk),
            wv: dense(&l.wv),
            wo: dense(&l.wo),
            w_gate: l.w_gate.as_ref().map(dense),
            w_up: dense(&l.w_up),
            w_down: dense(&l.w_down),
            attn_gain: l.attn_norm_gain.clone(),
            attn_bias: l.attn_norm_bias.clone(),
            ffn_gain: l.ffn_norm_gain.clone(),
            ffn_bias: l.ffn_norm_bias.clone(),
        })
        .collect()
}

/// `processed`ᵀ, written over `raw` — the matrix `processed` was computed
/// from, element for element — and returned in `raw`'s buffer.
fn transposed_over(raw: Matrix, processed: &Matrix) -> Matrix {
    let (rows, cols) = (processed.rows(), processed.cols());
    assert_eq!((raw.rows(), raw.cols()), (rows, cols), "processing keeps the shape");
    let mut data = raw.into_vec();
    for (c, out_row) in data.chunks_exact_mut(rows.max(1)).enumerate() {
        for (r, o) in out_row.iter_mut().enumerate() {
            *o = processed[(r, c)];
        }
    }
    Matrix::from_vec(cols, rows, data)
}

/// Quantizes the raw layers: to OWQ codes for the INT datapath (`codes`);
/// else dequantized in place, every ready matrix in the buffer of the raw
/// matrix it replaces, so the quantized model needs no copy of its own
/// beside the raw one, only one matrix of quantizer output at a time.
///
/// Codes are a quarter of the raw matrix they come from, and each is made
/// while the raw matrices still below it in the heap are live; freeing those
/// leaves the codes on top of ~3 MiB of holes the process keeps resident.
/// So the codes are copied once all raw matrices are gone: the copies land
/// in that space, the originals free the top of the heap, and it goes back
/// to the system (on the served proxy the set-up's resident size after nine
/// builds fell 11.0 → 8.4 MiB this way).
fn process_owq(
    layers: Vec<LayerWeights>,
    owq: &opal_quant::OwqQuantizer,
    rec: &SecondMomentRecorder,
    codes: bool,
) -> Vec<ReadyLayer> {
    let quantized_t = |w: Matrix, stats: &[f32]| -> LayerWeight {
        let q = owq.quantize(&w, stats);
        if codes {
            LayerWeight::Codes(q.into_codes())
        } else {
            LayerWeight::Dense(transposed_over(w, &q.dequantize()))
        }
    };
    let layers = layers
        .into_iter()
        .enumerate()
        .map(|(l, lw)| {
            let d = lw.wq.rows();
            let ff = lw.w_up.cols();
            let qkv_stats = rec.second_moment(l, Site::QkvInput).unwrap_or_else(|| vec![1.0; d]);
            let proj_stats = rec.second_moment(l, Site::ProjInput).unwrap_or_else(|| vec![1.0; d]);
            let fc1_stats = rec.second_moment(l, Site::Fc1Input).unwrap_or_else(|| vec![1.0; d]);
            let fc2_stats = rec.second_moment(l, Site::Fc2Input).unwrap_or_else(|| vec![1.0; ff]);
            ReadyLayer {
                wq: quantized_t(lw.wq, &qkv_stats),
                wk: quantized_t(lw.wk, &qkv_stats),
                wv: quantized_t(lw.wv, &qkv_stats),
                wo: quantized_t(lw.wo, &proj_stats),
                w_gate: lw.w_gate.map(|g| quantized_t(g, &fc1_stats)),
                w_up: quantized_t(lw.w_up, &fc1_stats),
                w_down: quantized_t(lw.w_down, &fc2_stats),
                attn_gain: lw.attn_norm_gain,
                attn_bias: lw.attn_norm_bias,
                ffn_gain: lw.ffn_norm_gain,
                ffn_bias: lw.ffn_norm_bias,
            }
        })
        .collect::<Vec<_>>();
    if codes {
        layers.to_vec()
    } else {
        layers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::KvScheme;
    use crate::scheme::QuantScheme;

    fn tiny_model(scheme: QuantScheme) -> Model {
        Model::new(ModelConfig::tiny(), scheme, 42).expect("valid scheme")
    }

    #[test]
    fn forward_shapes() {
        let m = tiny_model(QuantScheme::bf16());
        let logits = m.forward(&[1, 2, 3, 4]);
        assert_eq!(logits.rows(), 4);
        assert_eq!(logits.cols(), 64);
        for r in 0..4 {
            assert!(logits.row(r).iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn decode_matches_forward() {
        let m = tiny_model(QuantScheme::bf16());
        let tokens = [5u32, 9, 1, 33, 7];
        let full = m.forward(&tokens);
        let mut state = m.begin_decode();
        for (i, &t) in tokens.iter().enumerate() {
            let step = m.decode_step(&mut state, t);
            for (a, b) in full.row(i).iter().zip(&step) {
                assert_eq!(a, b, "position {i}");
            }
        }
    }

    #[test]
    fn deterministic_across_builds() {
        let a = tiny_model(QuantScheme::mxopal_w4a47());
        let b = tiny_model(QuantScheme::mxopal_w4a47());
        let la = a.forward(&[3, 1, 4]);
        let lb = b.forward(&[3, 1, 4]);
        assert_eq!(la.as_slice(), lb.as_slice());
    }

    #[test]
    fn transposed_over_is_the_transpose_in_the_raw_buffer() {
        for (rows, cols) in [(3, 5), (5, 3), (1, 4), (4, 4), (0, 3)] {
            let raw = Matrix::from_fn(rows, cols, |r, c| (r * cols + c) as f32);
            let processed = raw.map(|v| -2.0 * v);
            let buffer = raw.as_slice().as_ptr();
            let t = transposed_over(raw, &processed);
            assert_eq!(t.as_slice(), processed.transpose().as_slice(), "{rows}x{cols}");
            assert_eq!((t.rows(), t.cols()), (cols, rows));
            assert_eq!(t.as_slice().as_ptr(), buffer, "{rows}x{cols}: a new buffer");
        }
    }

    #[test]
    fn quantization_changes_logits_but_stays_close() {
        let base = tiny_model(QuantScheme::bf16());
        let quant = tiny_model(QuantScheme::mxopal_w4a47());
        let tokens = [2u32, 8, 20, 11];
        let lb = base.forward(&tokens);
        let lq = quant.forward(&tokens);
        assert_ne!(lb.as_slice(), lq.as_slice());
        // Logit perturbation should be bounded (not exploding).
        let mse = opal_tensor::stats::mse(lb.as_slice(), lq.as_slice());
        let var = opal_tensor::stats::variance(lb.as_slice());
        assert!(mse < var, "quantization noise ({mse}) must not swamp signal ({var})");
    }

    #[test]
    fn post_norm_activations_have_outliers() {
        // The core premise: the tensors quantized to low bits exhibit
        // channel outliers.
        let m = tiny_model(QuantScheme::bf16());
        let mut cap = ActivationCapture::new(0, 8);
        m.forward_recorded(&[1, 2, 3, 4, 5, 6, 7, 8], &mut cap);
        let x = cap.activations(Site::QkvInput).expect("captured");
        let kurt = opal_tensor::stats::excess_kurtosis(x.as_slice());
        assert!(kurt > 5.0, "post-norm activations must be heavy-tailed, kurtosis {kurt}");
    }

    #[test]
    fn recorder_sites_all_fire() {
        let m = tiny_model(QuantScheme::bf16());
        let mut cap = ActivationCapture::new(1, 4);
        m.forward_recorded(&[1, 2, 3], &mut cap);
        for (site, _) in Site::fig4_sites() {
            assert!(cap.activations(site).is_some(), "site {site:?} not recorded");
        }
        assert!(cap.activations(Site::QkvInput).is_some());
    }

    #[test]
    fn owq_calibration_runs() {
        let m = tiny_model(QuantScheme::owq_w4a16());
        let logits = m.forward(&[1, 2, 3]);
        assert!(logits.row(2).iter().all(|v| v.is_finite()));
    }

    #[test]
    fn log2_softmax_scheme_runs() {
        let m = tiny_model(QuantScheme::mxopal_w4a47().with_log2_softmax(5));
        let logits = m.forward(&[4, 4, 4, 4]);
        assert!(logits.row(3).iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_vocab_token() {
        let m = tiny_model(QuantScheme::bf16());
        let mut s = m.begin_decode();
        m.decode_step(&mut s, 64);
    }

    #[test]
    fn verify_chunk_matches_sequential_decode_bitwise() {
        for scheme in [QuantScheme::bf16(), QuantScheme::mxopal_w4a47()] {
            let m = tiny_model(scheme);
            let prompt = [3u32, 14, 15, 9, 2];
            let tail = [6u32, 5, 35, 8];
            // Sequential: prefill then decode the tail token by token.
            let mut seq_state = m.begin_decode();
            let mut last = vec![0.0; m.config().vocab];
            m.prefill_into(&mut seq_state, &prompt, &mut last);
            let mut seq_logits = Vec::new();
            for &t in &tail {
                m.decode_step_into(&mut seq_state, t, &mut last);
                seq_logits.push(last.clone());
            }
            // Fused: one verify pass over the same tail.
            let mut ver_state = m.begin_decode();
            m.prefill_into(&mut ver_state, &prompt, &mut last);
            let mut rows = Matrix::zeros(0, 0);
            m.verify_chunk_into(&mut ver_state, &tail, &mut rows);
            assert_eq!(rows.rows(), tail.len());
            for (r, want) in seq_logits.iter().enumerate() {
                for (c, (a, b)) in rows.row(r).iter().zip(want).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "row {r} col {c}");
                }
            }
            assert_eq!(ver_state.pos(), seq_state.pos());
        }
    }

    /// One model per scheme family, built once for all proptest cases.
    fn grouping_models() -> &'static [Model; 3] {
        static MODELS: std::sync::OnceLock<[Model; 3]> = std::sync::OnceLock::new();
        MODELS.get_or_init(|| {
            [
                QuantScheme::bf16(),
                QuantScheme::mxopal_w4a47(),
                QuantScheme::mxopal_w4a47().with_log2_softmax(5),
            ]
            .map(tiny_model)
        })
    }

    /// What one sequence of a grouping case holds after being fed
    /// `tokens`: the logits after every position and the image of every
    /// cached row, `[layer][pos]`.
    struct Alone {
        logits: Vec<Vec<f32>>,
        rows: Vec<Vec<Vec<u32>>>,
    }

    fn kv_rows(state: &DecodeState) -> Vec<Vec<Vec<u32>>> {
        let layers = 0..state.kv.layers.len();
        layers.map(|l| (0..state.pos).map(|p| state.kv.row_image(l, p)).collect()).collect()
    }

    /// The oracle: the sequence alone, token by token.
    fn run_alone(m: &Model, pool: &Arc<BlockPool>, tokens: &[u32]) -> Alone {
        let mut state = m.begin_decode_paged(pool);
        let logits = tokens.iter().map(|&t| m.decode_step(&mut state, t)).collect();
        Alone { logits, rows: kv_rows(&state) }
    }

    fn same_bits(got: &[f32], want: &[f32]) -> bool {
        got.len() == want.len() && got.iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// One grouping case: `shapes` is per sequence (start position, rows in
    /// the pass, logits mode, token seed). The first difference from the
    /// sequences run alone comes back as the error.
    fn grouping_case(
        m: &Model,
        kv: KvScheme,
        bs: usize,
        shapes: &[(usize, usize, usize, u32)],
    ) -> Result<(), String> {
        let (d, vocab) = (m.config().d_model, m.config().vocab);
        let pool = || Arc::new(BlockPool::with_scheme(bs, d, usize::MAX, kv));
        let tokens: Vec<Vec<u32>> = shapes
            .iter()
            .map(|&(start, rows, _, seed)| {
                (0..(start + rows) as u32).map(|j| (seed + j * 7 + j * j) % vocab as u32).collect()
            })
            .collect();
        let alone: Vec<Alone> = tokens.iter().map(|t| run_alone(m, &pool(), t)).collect();

        // The grouped run: every sequence brought to its start position on
        // its own, then all their rows in one pass over one pool.
        let shared = pool();
        let mut states: Vec<DecodeState> = shapes
            .iter()
            .zip(&tokens)
            .map(|(&(start, ..), t)| {
                let mut state = m.begin_decode_paged(&shared);
                if start > 0 {
                    m.prefill_chunk(&mut state, &t[..start]);
                }
                state
            })
            .collect();
        let mut last: Vec<Vec<f32>> = vec![vec![0.0; vocab]; shapes.len()];
        let mut all: Vec<Matrix> = vec![Matrix::zeros(0, 0); shapes.len()];
        let mut groups: Vec<RowGroup<'_>> = states
            .iter_mut()
            .zip(&tokens)
            .zip(shapes)
            .zip(last.iter_mut().zip(all.iter_mut()))
            .map(|(((state, t), &(start, _, mode, _)), (last, all))| RowGroup {
                state,
                tokens: &t[start..],
                logits: match mode {
                    0 => LogitsOut::None,
                    1 => LogitsOut::Last(last),
                    _ => LogitsOut::All(all),
                },
            })
            .collect();
        m.forward_rows(&mut groups, RowGroup::reborrow, &mut Workspace::new(), None);
        drop(groups);

        for (i, &(start, rows, mode, _)) in shapes.iter().enumerate() {
            if states[i].pos() != start + rows {
                return Err(format!("seq {i}: at {}, not {}", states[i].pos(), start + rows));
            }
            if kv_rows(&states[i]) != alone[i].rows {
                return Err(format!("seq {i}: cached K/V rows differ"));
            }
            let want = &alone[i].logits[start..];
            let same = match mode {
                _ if rows == 0 => true,
                0 => true,
                1 => same_bits(&last[i], &want[rows - 1]),
                _ => {
                    all[i].rows() == rows
                        && want.iter().enumerate().all(|(r, want)| same_bits(all[i].row(r), want))
                }
            };
            if !same {
                return Err(format!("seq {i}: logits differ (mode {mode})"));
            }
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Any ragged grouping of sequences into one `forward_rows` pass —
        /// different start positions, row counts (none included) and
        /// logits modes, every KV page format and block size — leaves each
        /// sequence with bitwise the logits and the cached rows it gets
        /// alone, token by token.
        #[test]
        fn forward_rows_groupings_are_bitwise_each_sequence_alone(
            scheme_ix in 0usize..3,
            kv_ix in 0usize..3,
            bs_ix in 0usize..3,
            shapes in proptest::collection::vec(
                (0usize..7, 0usize..=9, 0usize..3, 0u32..997),
                1..=5,
            ),
        ) {
            let kv = [KvScheme::Exact, KvScheme::mxopal(), KvScheme::mxopal4()][kv_ix];
            let bs = [1usize, 3, 16][bs_ix];
            let outcome = grouping_case(&grouping_models()[scheme_ix], kv, bs, &shapes);
            proptest::prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
        }
    }

    /// The served geometry (the Llama2-7B proxy: one 128-wide head, so
    /// eight 16-lane chunks per head row), W4A4/7 with log2 softmax over
    /// MX-OPAL pages of 16 rows, built once for all cases.
    fn proxy_model() -> &'static Model {
        static MODEL: std::sync::OnceLock<Model> = std::sync::OnceLock::new();
        MODEL.get_or_init(|| {
            let config = ModelConfig::llama2_7b().proxy(128, 4, 192);
            let scheme = QuantScheme::mxopal_w4a47().with_log2_softmax(5);
            Model::new(config, scheme, 7).expect("valid scheme")
        })
    }

    /// The served proxy under W4A4/7 holds its decoder layers as OWQ codes:
    /// a byte per weight plus the per-channel grids and bfloat16 rows, under
    /// a mebibyte where the dequantized `f32` matrices took 3.02 MiB.
    #[test]
    fn served_proxy_holds_at_most_a_mebibyte_of_layer_weights() {
        let bytes = proxy_model().layer_weight_bytes();
        assert!(bytes <= 1 << 20, "{bytes} bytes of layer weights");
        let bf16 = Model::new(proxy_model().config().clone(), QuantScheme::bf16(), 7)
            .expect("valid scheme")
            .layer_weight_bytes();
        assert_eq!(bf16, 4 * (4 * 128 * 128 + 3 * 128 * 344) * 4, "the f32 matrices");
    }

    /// Groupings at the served geometry: starts that cross pages, a group of
    /// 33 rows (four full query tiles and a leftover row), groups of 9 and
    /// 1, and a sequence with no rows, all in one pass.
    #[test]
    fn proxy_groupings_are_bitwise_each_sequence_alone() {
        let shapes = [(40, 33, 2, 11), (15, 9, 2, 5), (31, 1, 1, 3), (0, 17, 1, 8), (7, 0, 0, 2)];
        let outcome = grouping_case(proxy_model(), KvScheme::mxopal(), 16, &shapes);
        assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4))]

        /// Random groupings at the served geometry, as
        /// `forward_rows_groupings_are_bitwise_each_sequence_alone` runs
        /// them at the tiny one.
        #[test]
        fn proxy_random_groupings_are_bitwise_each_sequence_alone(
            shapes in proptest::collection::vec(
                (0usize..=40, 0usize..=33, 0usize..3, 0u32..997),
                1..=3,
            ),
        ) {
            let outcome = grouping_case(proxy_model(), KvScheme::mxopal(), 16, &shapes);
            proptest::prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
        }
    }

    /// The rollback a driver relies on when a fused pass unwinds: one group
    /// of three runs its (bounded) pool dry half way through the layers,
    /// the pass panics, nobody's position has moved, and the other two —
    /// truncated to where they stood and re-run alone — end bit for bit
    /// where an unperturbed run of each ends.
    #[test]
    fn survivors_of_a_panicked_pass_rerun_alone_bit_identically() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        for kv in [KvScheme::Exact, KvScheme::mxopal()] {
            let m = &grouping_models()[1];
            let (d, vocab, nl) = (m.config().d_model, m.config().vocab, m.config().n_layers);
            let bs = 4;
            let starts = [3usize, 5, 2];
            let tokens: [Vec<u32>; 3] = [0u32, 1, 2]
                .map(|i| (0..9u32).map(|j| (i * 17 + j * 5 + 1) % vocab as u32).collect());
            let unbounded = || Arc::new(BlockPool::with_scheme(bs, d, usize::MAX, kv));
            let want: Vec<Alone> = tokens.iter().map(|t| run_alone(m, &unbounded(), t)).collect();

            // The victim (the middle group) goes from 5 to 9 positions: three
            // blocks per layer, and its pool is one block short of that in
            // the last layer, so it panics after every group has appended
            // to every layer before.
            let pools =
                [unbounded(), Arc::new(BlockPool::with_scheme(bs, d, 3 * nl - 1, kv)), unbounded()];
            let mut states: Vec<DecodeState> = (0..3)
                .map(|i| {
                    let mut state = m.begin_decode_paged(&pools[i]);
                    m.prefill_chunk(&mut state, &tokens[i][..starts[i]]);
                    state
                })
                .collect();
            let mut ws = Workspace::new();
            let mut logits = vec![vec![0.0f32; vocab]; 3];
            let pass = |states: &mut [DecodeState],
                        logits: &mut [Vec<f32>],
                        ws: &mut Workspace,
                        only: Option<usize>| {
                let mut groups: Vec<RowGroup<'_>> = states
                    .iter_mut()
                    .zip(logits.iter_mut())
                    .enumerate()
                    .filter(|(i, _)| only.is_none_or(|o| o == *i))
                    .map(|(i, (state, out))| RowGroup {
                        state,
                        tokens: &tokens[i][starts[i]..],
                        logits: LogitsOut::Last(out),
                    })
                    .collect();
                catch_unwind(AssertUnwindSafe(|| {
                    m.forward_rows(&mut groups, RowGroup::reborrow, ws, None)
                }))
            };
            assert!(
                pass(&mut states, &mut logits, &mut ws, None).is_err(),
                "the pool was not short"
            );
            for (state, &start) in states.iter().zip(&starts) {
                assert_eq!(state.pos(), start, "a panicked pass moved a position");
            }
            assert!(states[0].blocks_per_layer() > starts[0].div_ceil(bs), "nothing was appended");
            for i in 0..3 {
                let before = states[i].pos();
                states[i].truncate(before);
                assert_eq!(states[i].blocks_per_layer(), before.div_ceil(bs));
                let rerun = pass(&mut states, &mut logits, &mut ws, Some(i));
                assert_eq!(rerun.is_err(), i == 1, "group {i}: only the victim panics again");
            }
            for i in [0, 2] {
                assert_eq!(states[i].pos(), 9);
                assert!(same_bits(&logits[i], &want[i].logits[8]), "survivor {i} logits");
                assert!(kv_rows(&states[i]) == want[i].rows, "survivor {i} KV rows");
            }
        }
    }

    #[test]
    fn truncate_then_redecode_is_bit_identical() {
        let m = tiny_model(QuantScheme::mxopal_w4a47());
        let tokens = [1u32, 2, 3, 4, 5, 6];
        // Baseline: decode straight through.
        let mut base = m.begin_decode();
        let mut want = vec![0.0; m.config().vocab];
        for &t in &tokens {
            m.decode_step_into(&mut base, t, &mut want);
        }
        // Speculative shape: decode 4, verify 5 bogus rows, roll back,
        // then decode the real remainder.
        let mut spec = m.begin_decode();
        let mut got = vec![0.0; m.config().vocab];
        for &t in &tokens[..4] {
            m.decode_step_into(&mut spec, t, &mut got);
        }
        let mut rows = Matrix::zeros(0, 0);
        m.verify_chunk_into(&mut spec, &[60, 61, 62, 63, 59], &mut rows);
        spec.truncate(4);
        assert_eq!(spec.pos(), 4);
        for &t in &tokens[4..] {
            m.decode_step_into(&mut spec, t, &mut got);
        }
        for (c, (a, b)) in got.iter().zip(&want).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "col {c}");
        }
    }

    #[test]
    fn draft_truncated_shares_shallow_stack() {
        let m = tiny_model(QuantScheme::mxopal_w4a47());
        let draft = m.draft_truncated(1);
        assert_eq!(draft.config().n_layers, 1);
        let logits = draft.forward(&[1, 2, 3]);
        assert!(logits.row(2).iter().all(|v| v.is_finite()));
        // A full-depth sibling reproduces the parent's logits exactly.
        let mirror = m.draft_truncated(m.config().n_layers);
        let a = m.forward(&[7, 8, 9]);
        let b = mirror.forward(&[7, 8, 9]);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn draft_truncated_rejects_zero_depth() {
        tiny_model(QuantScheme::bf16()).draft_truncated(0);
    }

    #[test]
    fn second_moment_recorder_math() {
        let mut rec = SecondMomentRecorder::new();
        rec.record(0, Site::QkvInput, &[1.0, 2.0]);
        rec.record(0, Site::QkvInput, &[3.0, 0.0]);
        let sm = rec.second_moment(0, Site::QkvInput).unwrap();
        assert_eq!(sm, vec![5.0, 2.0]); // (1+9)/2, (4+0)/2
        assert!(rec.second_moment(1, Site::QkvInput).is_none());
    }
}

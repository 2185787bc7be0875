//! Paged key/value cache: fixed-size refcounted blocks from a shared pool.
//!
//! The flat per-sequence KV buffers scaled memory with
//! `max_batch × longest-sequence` and stored identical prompt prefixes once
//! per request. This module pages the cache instead, vLLM-style:
//!
//! * a [`BlockPool`] owns every page — `block_size` rows of `width` elements
//!   for K and the same for V — behind a free-list allocator with a hard
//!   `max_blocks` bound and `in_use`/`peak` accounting,
//! * each sequence's [`DecodeState`](crate::DecodeState) holds a per-layer
//!   *block table* (`Vec<Arc<KvBlock>>`) that attention walks instead of a
//!   contiguous slice,
//! * blocks are refcounted ([`Arc`]), so two sequences with a common token
//!   prefix can map the same prefix blocks read-only, and
//! * writes are **copy-on-write**: appending a row into a block something
//!   else still references (a prefix-sharing peer, the serve engine's
//!   prefix trie) clones the filled rows into a fresh block first —
//!   [`Arc::get_mut`] is the entire aliasing proof, no `unsafe` anywhere.
//!
//! Pages come in three storage formats, fixed per pool by a [`KvScheme`]:
//!
//! * **`f32`** ([`KvScheme::Exact`] as built) — `f32` rows, bit-identical
//!   to the pre-paged cache,
//! * **bfloat16** ([`KvScheme::Bf16`]) — the 16 bits of each value of a
//!   model whose K/V sites round to bfloat16, read as the `f32` each widens
//!   to (exact), and
//! * **quantized** — MX-OPAL or MXINT pages holding one `i8` per code,
//!   whatever the code width, with per-quant-block shared exponents (plus
//!   bf16 outlier slots for MX-OPAL). Rows are encoded once at append
//!   time with the allocation-free `opal-quant` row encoders, and attention
//!   walks them in the quantized domain: the q·k inner product runs over
//!   integer codes with one power-of-two scale multiply per shared-exponent
//!   block ([`opal_tensor::ops::dot_codes`]), and V aggregation dequantizes
//!   on the walk.
//!
//! A model whose K/V sites are MX-OPAL or MXINT already rounds every K and
//! V row to that format before caching it, so its exact cache *is* a
//! quantized pool in the site's own format ([`crate::Model::kv_scheme`]):
//! the page encoder is the site quantizer, the pages hold exactly the
//! values the model computed, and the walk scores and sums them bitwise as
//! the `f32` walk does (see `PagedKv::scores_into`). A model whose K/V
//! sites are bfloat16 caches the bfloat16 values themselves, half the bytes
//! of their `f32` images and the same numbers on the walk.
//!
//! Two methods know the page formats (`PagedKv::scores_into`,
//! `PagedKv::weighted_values_into`), and both take a group of query rows.
//! Every format shares one walk: page by page, one visit per (page, head)
//! serving every query row of the group. K scores are a tile of the page's
//! rows against the group's query rows ([`opal_tensor::ops::dot_tile`] over
//! `f32` or bfloat16 rows, [`opal_tensor::ops::dot_codes_tile`] over codes);
//! the V sum keeps each context in registers across the page's rows
//! ([`opal_tensor::ops::axpy_tile`] straight off an `f32` or bfloat16
//! page, bfloat16 rows widened in registers,
//! [`opal_tensor::ops::axpy_codes_tile`] from a quantized page dequantized
//! once into an `f32` tile). A head that straddles shared-exponent blocks
//! takes one tile call per block it touches, straight off the page's code
//! rows. Bitwise, this is one `ops::dot` (or quantized dot) and one scaled
//! add per (query row, cached row, head). Copy-on-write clones codes
//! exactly like it clones `f32` rows, so prefix sharing is
//! format-agnostic.
//!
//! Dropping the last `Arc` to a block returns its storage to the pool's
//! free list, so releasing a sequence (retirement, cancellation, or a
//! memory-pressure preemption) frees exactly the blocks nobody else maps.

use opal_numerics::shift::step_size;
use opal_numerics::Bf16;
use opal_quant::{EncodeScratch, MxIntQuantizer, MxOpalQuantizer};
use opal_tensor::ops;
use std::sync::{Arc, Mutex};

/// Storage format for the KV-cache pages of one [`BlockPool`].
///
/// The scheme is fixed at pool construction: every page the pool hands out
/// has the same layout, and blocks are only shareable between sequences on
/// the same pool (see [`AdoptError::ForeignPool`]). `Exact` is the
/// default and keeps decode bit-identical to the unquantized cache; a
/// model resolves it to the K/V site's own format
/// ([`crate::Model::kv_scheme`]: `Bf16` pages for bfloat16 sites, the
/// site's codes for MX sites), which `Model::begin_decode` and
/// `opal-serve`'s engine build their pools in. The lossy presets trade
/// bounded accuracy for ~3.5× smaller pages than `f32` rows, which a
/// bounded pool converts directly into more resident sequences.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum KvScheme {
    /// Lossless in the K/V site's format: the values the model computed,
    /// bit for bit. [`crate::Model::kv_scheme`] resolves it to the site's
    /// own format — `MxOpal`/`MxInt` codes at `high_bits` over the site's
    /// blocks, `Bf16` pages for bfloat16 sites — or, for MinMax sites,
    /// `f32` rows; a [`BlockPool`] built straight from it stores `f32`
    /// rows, the forced reference the other formats are tested against.
    #[default]
    Exact,
    /// bfloat16 pages: each K/V element stored as its 16 bits and read as
    /// the `f32` it widens to. Lossless on a model whose K/V sites round to
    /// bfloat16 (the bf16 and W4A16/W3A16 schemes, which
    /// [`crate::Model::kv_scheme`] resolves `Exact` to): 16 stored bits per
    /// element, half an `f32` page.
    Bf16,
    /// MX-OPAL pages: `bits`-bit integer codes over shared-exponent blocks
    /// of `qblock` elements, with the top `outliers` magnitudes per block
    /// preserved exactly in bf16 side slots.
    MxOpal {
        /// Code width in bits (2..=8), one `i8` per code.
        bits: u32,
        /// Elements per shared-exponent block.
        qblock: usize,
        /// bf16 outliers preserved per block (must be `< qblock`).
        outliers: usize,
    },
    /// MXINT pages: `bits`-bit integer codes over shared-exponent blocks of
    /// `qblock` elements, no outlier slots.
    MxInt {
        /// Code width in bits (2..=8), one `i8` per code.
        bits: u32,
        /// Elements per shared-exponent block.
        qblock: usize,
    },
}

impl KvScheme {
    /// The preset MX-OPAL KV scheme: 8-bit codes, 128-element blocks, 4
    /// bf16 outliers per block (~9.2 stored bits per element).
    pub fn mxopal() -> Self {
        KvScheme::MxOpal { bits: 8, qblock: 128, outliers: 4 }
    }

    /// Whether pages under this scheme store integer codes rather than
    /// `f32` or bfloat16 values.
    pub fn quantized(&self) -> bool {
        !matches!(self, KvScheme::Exact | KvScheme::Bf16)
    }

    /// Bytes of storage behind one K *or* V page of `block_size` rows ×
    /// `width` elements (codes, shared exponents, and outlier slots; not
    /// counting per-`Vec` headers).
    pub fn page_bytes(&self, block_size: usize, width: usize) -> usize {
        match *self {
            KvScheme::Exact => block_size * width * std::mem::size_of::<f32>(),
            KvScheme::Bf16 => block_size * width * std::mem::size_of::<Bf16>(),
            KvScheme::MxOpal { qblock, outliers, .. } => {
                let qpr = width.div_ceil(qblock);
                // i8 per code; i16 scale + u8 outlier count per quant
                // block; (u16 index, bf16 value) per outlier slot.
                block_size * (width + qpr * 3 + qpr * outliers * 4)
            }
            KvScheme::MxInt { qblock, .. } => {
                let qpr = width.div_ceil(qblock);
                block_size * (width + qpr * 3)
            }
        }
    }

    /// Average stored bits per cached element for rows of `width`.
    pub fn bits_per_element(&self, width: usize) -> f64 {
        self.page_bytes(1, width) as f64 * 8.0 / width as f64
    }
}

/// Why [`DecodeState::try_adopt_shared_prefix`] refused a donor block
/// table.
///
/// [`DecodeState::try_adopt_shared_prefix`]: crate::DecodeState::try_adopt_shared_prefix
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdoptError {
    /// The donor blocks belong to a different [`BlockPool`] instance, so
    /// their storage would escape this pool's accounting. A pool has one
    /// page format, so this also rejects every block of another format.
    ForeignPool,
}

impl std::fmt::Display for AdoptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdoptError::ForeignPool => write!(f, "shared block from a foreign pool"),
        }
    }
}

impl std::error::Error for AdoptError {}

/// Validated row codec for a quantized pool (constructed once at
/// [`BlockPool::with_scheme`] so the hot append path never re-validates).
#[derive(Clone, Copy, Debug)]
enum Codec {
    Opal(MxOpalQuantizer),
    Int(MxIntQuantizer),
}

/// One recycled page pair (K page, V page) on the free list.
type FreePage = (PageStore, PageStore);

#[derive(Debug)]
struct PoolInner {
    free: Vec<FreePage>,
    in_use: usize,
    peak: usize,
    max_blocks: usize,
}

/// A workspace-wide allocator of fixed-size KV pages.
///
/// One pool serves every layer of every sequence decoding under it
/// (`opal-serve` creates one per engine; [`crate::Model::begin_decode`]
/// creates a private unbounded one per state). Allocation pops the free
/// list — pages are recycled without zeroing, callers never read past the
/// rows they wrote — and a hard `max_blocks` bound caps total KV memory at
/// `max_blocks × 2 ×` [`KvScheme::page_bytes`].
#[derive(Debug)]
pub struct BlockPool {
    block_size: usize,
    width: usize,
    scheme: KvScheme,
    codec: Option<Codec>,
    inner: Mutex<PoolInner>,
}

impl BlockPool {
    /// Block size of the private pool behind [`crate::Model::begin_decode`].
    pub const DEFAULT_BLOCK_SIZE: usize = 32;

    /// Creates an exact (`f32`-page) pool of up to `max_blocks` pages of
    /// `block_size` rows × `width` elements (per K and V each).
    /// `usize::MAX` means unbounded.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` or `width` is zero.
    pub fn new(block_size: usize, width: usize, max_blocks: usize) -> Self {
        Self::with_scheme(block_size, width, max_blocks, KvScheme::Exact)
    }

    /// As [`BlockPool::new`] with an explicit page storage scheme, stored
    /// as given: [`KvScheme::Exact`] is `f32` rows here. A pool for a
    /// model's K/V comes from [`crate::Model::kv_pool`], which resolves
    /// `Exact` to the K/V site's own format.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` or `width` is zero, or if a quantized
    /// scheme's parameters are invalid (`bits` ∉ 2..=8, zero `qblock`, or
    /// `outliers >= qblock`).
    pub fn with_scheme(
        block_size: usize,
        width: usize,
        max_blocks: usize,
        scheme: KvScheme,
    ) -> Self {
        assert!(block_size > 0, "block_size must be at least 1");
        assert!(width > 0, "row width must be at least 1");
        let codec = match scheme {
            KvScheme::Exact | KvScheme::Bf16 => None,
            KvScheme::MxOpal { bits, qblock, outliers } => {
                let q = MxOpalQuantizer::new(bits, qblock, outliers);
                // tidy: allow(panic) -- pool construction validates the scheme once
                Some(Codec::Opal(q.expect("invalid MX-OPAL scheme")))
            }
            KvScheme::MxInt { bits, qblock } => {
                // tidy: allow(panic) -- pool construction validates the scheme once
                Some(Codec::Int(MxIntQuantizer::new(bits, qblock).expect("invalid MXINT scheme")))
            }
        };
        BlockPool {
            block_size,
            width,
            scheme,
            codec,
            inner: Mutex::new(PoolInner { free: Vec::new(), in_use: 0, peak: 0, max_blocks }),
        }
    }

    /// Rows per block.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Elements per row (the model's `d_model`).
    pub fn width(&self) -> usize {
        self.width
    }

    /// The page storage scheme every block of this pool uses.
    pub fn scheme(&self) -> KvScheme {
        self.scheme
    }

    /// Blocks currently allocated (live block tables plus any prefix-cache
    /// references; a block shared by many sequences counts once).
    pub fn in_use(&self) -> usize {
        self.guard().in_use
    }

    /// High-water mark of [`BlockPool::in_use`] over the pool's lifetime.
    pub fn peak(&self) -> usize {
        self.guard().peak
    }

    /// The configured block bound (`usize::MAX` when unbounded).
    pub fn capacity(&self) -> usize {
        self.guard().max_blocks
    }

    /// Blocks still allocatable before the pool is exhausted.
    pub fn free_blocks(&self) -> usize {
        let inner = self.guard();
        inner.max_blocks.saturating_sub(inner.in_use)
    }

    /// `(bits, qblock, outlier slots per qblock)` of a quantized pool.
    fn quant_params(&self) -> (u32, usize, usize) {
        match self.scheme {
            KvScheme::MxOpal { bits, qblock, outliers } => (bits, qblock, outliers),
            KvScheme::MxInt { bits, qblock } => (bits, qblock, 0),
            KvScheme::Exact | KvScheme::Bf16 => unreachable!("quant_params on a dense pool"),
        }
    }

    /// Shared-exponent blocks per row of a quantized pool.
    fn qblocks_per_row(&self) -> usize {
        let (_, qblock, _) = self.quant_params();
        self.width.div_ceil(qblock)
    }

    /// Builds one zeroed page pair matching the pool's scheme.
    fn fresh_pages(&self) -> FreePage {
        match self.scheme {
            KvScheme::Exact => {
                let cap = self.block_size * self.width;
                (PageStore::Exact(vec![0.0; cap]), PageStore::Exact(vec![0.0; cap]))
            }
            KvScheme::Bf16 => {
                let cap = self.block_size * self.width;
                (PageStore::Bf16(vec![Bf16::ZERO; cap]), PageStore::Bf16(vec![Bf16::ZERO; cap]))
            }
            _ => {
                let (_, _, nout) = self.quant_params();
                let (w, qpr) = (self.width, self.qblocks_per_row());
                (
                    PageStore::Quant(QuantPage::zeroed(self.block_size, w, qpr, nout)),
                    PageStore::Quant(QuantPage::zeroed(self.block_size, w, qpr, nout)),
                )
            }
        }
    }

    /// Allocates one block, recycling a free page when available.
    ///
    /// # Panics
    ///
    /// Panics if the pool is exhausted. A scheduler driving a bounded pool
    /// must reserve blocks (and preempt or evict) *before* stepping
    /// sequences — see `opal-serve`'s memory-aware admission — so this
    /// firing indicates a reservation bug, not a recoverable condition.
    pub fn alloc(self: &Arc<Self>) -> Arc<KvBlock> {
        let (k, v) = {
            let mut inner = self.guard();
            assert!(
                inner.in_use < inner.max_blocks,
                "KV block pool exhausted ({} blocks): the scheduler must reserve blocks \
                 before stepping",
                inner.max_blocks
            );
            inner.in_use += 1;
            inner.peak = inner.peak.max(inner.in_use);
            inner.free.pop().unwrap_or_else(|| self.fresh_pages())
        };
        Arc::new(KvBlock { pool: Arc::clone(self), k, v })
    }

    fn guard(&self) -> std::sync::MutexGuard<'_, PoolInner> {
        // A worker panic mid-step poisons nothing we care about: the inner
        // counters are updated atomically under the lock and the free list
        // holds plain storage, so recover the guard instead of cascading.
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// One page's backing storage: `f32` rows, bfloat16 rows or quantized
/// code rows.
#[derive(Debug)]
enum PageStore {
    Exact(Vec<f32>),
    Bf16(Vec<Bf16>),
    Quant(QuantPage),
}

impl PageStore {
    /// The `f32` rows of an exact page.
    #[cfg(test)]
    fn exact(&self) -> &[f32] {
        match self {
            PageStore::Exact(rows) => rows,
            _ => unreachable!("f32 row access on another page format"),
        }
    }

    fn exact_mut(&mut self) -> &mut [f32] {
        match self {
            PageStore::Exact(rows) => rows,
            _ => unreachable!("f32 row access on another page format"),
        }
    }

    /// The code rows of a quantized page.
    #[cfg(test)]
    fn quant(&self) -> &QuantPage {
        match self {
            PageStore::Quant(page) => page,
            _ => unreachable!("quantized row access on a dense page"),
        }
    }

    /// [`ops::dot_tile`] over a dense page's rows (`f32` or bfloat16) from
    /// column `lo`, `stride` apart.
    fn dot_tile<'a>(
        &self,
        lo: usize,
        stride: usize,
        queries: impl IntoIterator<Item = (&'a [f32], &'a mut [f32])>,
    ) {
        match self {
            PageStore::Exact(rows) => ops::dot_tile(&rows[lo..], stride, queries),
            PageStore::Bf16(rows) => ops::dot_tile(&rows[lo..], stride, queries),
            PageStore::Quant(_) => unreachable!("dense tile on a quantized page"),
        }
    }

    /// [`ops::axpy_tile`] over a dense page's rows (`f32` or bfloat16) from
    /// column `lo`, `stride` apart.
    fn axpy_tile<'a>(
        &self,
        lo: usize,
        stride: usize,
        rows: impl IntoIterator<Item = (&'a [f32], &'a mut [f32])>,
        fresh: bool,
    ) {
        match self {
            PageStore::Exact(page) => ops::axpy_tile(&page[lo..], stride, rows, fresh),
            PageStore::Bf16(page) => ops::axpy_tile(&page[lo..], stride, rows, fresh),
            PageStore::Quant(_) => unreachable!("dense tile on a quantized page"),
        }
    }

    /// Copies the first `rows` rows of `src` into `self` (copy-on-write
    /// body; both pages come from the same pool, hence the same layout).
    fn copy_rows_from(&mut self, src: &PageStore, rows: usize, w: usize, qpr: usize, nout: usize) {
        match (self, src) {
            (PageStore::Exact(dst), PageStore::Exact(s)) => {
                dst[..rows * w].copy_from_slice(&s[..rows * w]);
            }
            (PageStore::Bf16(dst), PageStore::Bf16(s)) => {
                dst[..rows * w].copy_from_slice(&s[..rows * w]);
            }
            (PageStore::Quant(dst), PageStore::Quant(s)) => {
                dst.codes[..rows * w].copy_from_slice(&s.codes[..rows * w]);
                dst.scales[..rows * qpr].copy_from_slice(&s.scales[..rows * qpr]);
                dst.out_len[..rows * qpr].copy_from_slice(&s.out_len[..rows * qpr]);
                let slots = rows * qpr * nout;
                dst.out_idx[..slots].copy_from_slice(&s.out_idx[..slots]);
                dst.out_val[..slots].copy_from_slice(&s.out_val[..slots]);
            }
            _ => unreachable!("copy-on-write across page formats"),
        }
    }
}

/// Storage for one quantized page: `block_size` rows of `width` elements,
/// each row split into `qpr` shared-exponent blocks.
///
/// Layout per row: `width` `i8` codes (one per element), `qpr` effective
/// `i16` scales (the post-clamp shared exponents the codes were quantized
/// against; `0` for an all-zero block, whose codes are all `0`), and — for
/// MX-OPAL — `qpr × nout` fixed outlier slots of `(u16 in-block index,
/// bf16 exact value)` with a `u8` live count per quant block. Codes at
/// outlier positions are `0`, so a walk adds outlier contributions without
/// double-counting.
#[derive(Debug)]
struct QuantPage {
    codes: Vec<i8>,
    scales: Vec<i16>,
    out_idx: Vec<u16>,
    out_val: Vec<Bf16>,
    out_len: Vec<u8>,
}

impl QuantPage {
    fn zeroed(rows: usize, width: usize, qpr: usize, nout: usize) -> Self {
        QuantPage {
            codes: vec![0; rows * width],
            scales: vec![0; rows * qpr],
            out_idx: vec![0; rows * qpr * nout],
            out_val: vec![Bf16::default(); rows * qpr * nout],
            out_len: vec![0; rows * qpr],
        }
    }

    /// Row `row` of the page as a borrowed [`QuantRow`] view.
    #[cfg(test)]
    fn row(
        &self,
        row: usize,
        w: usize,
        qpr: usize,
        nout: usize,
        bits: u32,
        qblock: usize,
    ) -> QuantRow<'_> {
        QuantRow {
            codes: &self.codes[row * w..(row + 1) * w],
            scales: &self.scales[row * qpr..(row + 1) * qpr],
            out_idx: &self.out_idx[row * qpr * nout..(row + 1) * qpr * nout],
            out_val: &self.out_val[row * qpr * nout..(row + 1) * qpr * nout],
            out_len: &self.out_len[row * qpr..(row + 1) * qpr],
            width: w,
            bits,
            qblock,
            nout,
        }
    }
}

/// The parts of columns `lo..hi` inside each shared-exponent block of
/// `qblock` columns they touch, in column order: `(block, lo, hi)` of each.
fn segments(lo: usize, hi: usize, qblock: usize) -> impl Iterator<Item = (usize, usize, usize)> {
    (lo / qblock..=(hi - 1) / qblock)
        .map(move |qb| (qb, lo.max(qb * qblock), hi.min((qb + 1) * qblock)))
}

/// Query rows whose K scores [`Segment::finish_scores`] completes together.
const QUERY_GROUP: usize = 8;

/// One shared-exponent block's part of a head on a quantized page: the
/// page, the block, and where the segment's lanes sit.
struct Segment<'a> {
    page: &'a QuantPage,
    /// The shared-exponent block, the blocks per row and the outlier slots
    /// per block.
    qb: usize,
    qpr: usize,
    nout: usize,
    /// Lane `j` is block lane `j - base` (wrapping): one unsigned compare
    /// keeps a slot to the lanes.
    base: usize,
}

impl Segment<'_> {
    /// Calls `f(j, value)` for each live outlier slot of cached row `r`, in
    /// slot order, whose lane `j` lies below `width`.
    #[inline]
    fn row_outliers(&self, r: usize, width: usize, mut f: impl FnMut(usize, Bf16)) {
        let at = r * self.qpr + self.qb;
        let so = at * self.nout;
        let live = so + usize::from(self.page.out_len[at]);
        for s in so..live {
            let j = self.base.wrapping_add(usize::from(self.page.out_idx[s]));
            if j < width {
                f(j, self.page.out_val[s]);
            }
        }
    }

    /// Finishes the K scores of `M` query rows (`qs`, rows of `width`, the
    /// head at columns `lo..hi`, lanes counted from `lo`) over the
    /// segment's `steps.len()` cached rows, from their code sums (`sums`,
    /// one run of `pitch` per query row): per cached row, each query row's
    /// sum at the row's power-of-two step (exact), after what earlier
    /// segments left in `carry` (same layout) unless the segment is the
    /// head's `first`, then the row's live outlier terms in slot order, all
    /// in `f64`. The head's `last` segment rounds once and multiplies by
    /// `scale` into `out` (query row `i`'s scores at `i * out_pitch + at`),
    /// the others leave the sum in `carry`. The `M` sums stay in registers
    /// across a row's slots, and each slot is decoded once for all of them.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn finish_scores<const M: usize>(
        &self,
        (first, last, scale): (bool, bool, f32),
        qs: &[f32],
        (lo, hi, width): (usize, usize, usize),
        steps: &[f32],
        sums: &[f64],
        pitch: usize,
        carry: &mut [f64],
        out: &mut [f32],
        (out_pitch, at): (usize, usize),
    ) {
        let mut q: [&[f32]; M] = [&[]; M];
        for (i, q) in q.iter_mut().enumerate() {
            *q = &qs[i * width + lo..i * width + hi];
        }
        for (r, &step) in steps.iter().enumerate() {
            let step = f64::from(step);
            let mut acc = [0.0f64; M];
            for (i, acc) in acc.iter_mut().enumerate() {
                *acc = step * sums[i * pitch + r];
                if !first {
                    *acc += carry[i * pitch + r];
                }
            }
            self.row_outliers(r, hi - lo, |j, val| {
                let val = f64::from(val.to_f32());
                for (acc, q) in acc.iter_mut().zip(&q) {
                    *acc += f64::from(q[j]) * val;
                }
            });
            for (i, &acc) in acc.iter().enumerate() {
                if last {
                    out[i * out_pitch + at + r] = acc as f32 * scale;
                } else {
                    carry[i * pitch + r] = acc;
                }
            }
        }
    }
}

/// A borrowed view of one quantized KV row and the per-row arithmetic the
/// page walk is held to: one call per (query row, cached row, head).
#[cfg(test)]
#[derive(Clone, Copy, Debug)]
struct QuantRow<'a> {
    codes: &'a [i8],
    scales: &'a [i16],
    out_idx: &'a [u16],
    out_val: &'a [Bf16],
    out_len: &'a [u8],
    width: usize,
    bits: u32,
    qblock: usize,
    nout: usize,
}

#[cfg(test)]
impl QuantRow<'_> {
    /// q·k over columns `start..start + q.len()` in the quantized domain:
    /// one [`ops::dot_codes`] over each overlapping shared-exponent block's
    /// codes and one power-of-two scale multiply, plus exact bf16 outlier
    /// terms, all summed in `f64` from `-0.0` in a fixed order (ascending
    /// blocks, then slot order).
    fn dot_range(&self, q: &[f32], start: usize) -> f32 {
        let end = start + q.len();
        debug_assert!(end <= self.width, "column range out of row");
        let mut acc = -0.0f64;
        for (qb, lo, hi) in segments(start, end, self.qblock) {
            let step = step_size(i32::from(self.scales[qb]), self.bits);
            let codes = &self.codes[lo..hi];
            acc += f64::from(step) * ops::dot_codes(&q[lo - start..hi - start], codes);
            let so = qb * self.nout;
            for slot in so..so + usize::from(self.out_len[qb]) {
                let idx = qb * self.qblock + usize::from(self.out_idx[slot]);
                if idx >= lo && idx < hi {
                    acc += f64::from(q[idx - start]) * f64::from(self.out_val[slot].to_f32());
                }
            }
        }
        acc as f32
    }

    /// `ctx[j] += w · dequant(row[start + j])` for `j` in `0..ctx.len()`:
    /// each code rescaled by its block's power-of-two step, then weighted
    /// and added; each live outlier slot then adds its exact bf16 value
    /// (its code is `0`).
    fn axpy_range(&self, w: f32, start: usize, ctx: &mut [f32]) {
        let end = start + ctx.len();
        debug_assert!(end <= self.width, "column range out of row");
        for (qb, lo, hi) in segments(start, end, self.qblock) {
            let step = step_size(i32::from(self.scales[qb]), self.bits);
            for (c, &code) in ctx[lo - start..hi - start].iter_mut().zip(&self.codes[lo..hi]) {
                *c += w * (f32::from(code) * step);
            }
            let so = qb * self.nout;
            for slot in so..so + usize::from(self.out_len[qb]) {
                let idx = qb * self.qblock + usize::from(self.out_idx[slot]);
                if idx >= lo && idx < hi {
                    ctx[idx - start] += w * self.out_val[slot].to_f32();
                }
            }
        }
    }
}

/// One fixed-size KV page: `block_size` rows × `width` elements for K and
/// V, stored per the pool's [`KvScheme`].
///
/// Blocks are handed out as `Arc<KvBlock>` so prefix sharing is a refcount
/// bump; the storage returns to its pool's free list when the last
/// reference drops.
#[derive(Debug)]
pub struct KvBlock {
    pool: Arc<BlockPool>,
    k: PageStore,
    v: PageStore,
}

impl KvBlock {
    /// Whether this block came from `pool`.
    pub fn from_pool(&self, pool: &Arc<BlockPool>) -> bool {
        Arc::ptr_eq(&self.pool, pool)
    }
}

impl Drop for KvBlock {
    fn drop(&mut self) {
        let k = std::mem::replace(&mut self.k, PageStore::Exact(Vec::new()));
        let v = std::mem::replace(&mut self.v, PageStore::Exact(Vec::new()));
        let mut inner = self.pool.guard();
        inner.in_use -= 1;
        inner.free.push((k, v));
    }
}

/// The buffers the page walk ([`PagedKv::scores_into`],
/// [`PagedKv::weighted_values_into`]) reuses from one visit to the next:
/// grown by [`PageScratch::fit`], never shrunk, and never read before the
/// walk writes them.
#[derive(Debug, Default)]
pub(crate) struct PageScratch {
    /// A quantized page's rows of one head segment decoded to `f32`, for a
    /// group of query rows: `block_size × head_dim`.
    tile: Vec<f32>,
    /// A quantized page's power-of-two steps of one segment, per row.
    steps: Vec<f32>,
    /// The code sums of one segment, per (query row, cached row):
    /// `query rows × block_size`.
    sums: Vec<f64>,
    /// Per head, whether the group's query rows sum exactly in `f32`
    /// ([`ops::ExactInF32`]), checked once a walk: `n_heads`.
    exact: Vec<ops::ExactInF32>,
    /// The `f64` q·k sum of each (query row, cached row) carried across the
    /// shared-exponent blocks a head straddles: `query rows × block_size`.
    carry: Vec<f64>,
}

impl PageScratch {
    /// Grows the buffers for walks of up to `query_rows` query rows over
    /// pages of `block_size` rows and `n_heads` heads `head_dim` wide.
    pub(crate) fn fit(
        &mut self,
        block_size: usize,
        (n_heads, head_dim): (usize, usize),
        query_rows: usize,
    ) {
        grow(&mut self.exact, n_heads, ops::ExactInF32::check(std::iter::empty()));
        grow(&mut self.tile, block_size * head_dim, 0.0);
        grow(&mut self.steps, block_size, 0.0);
        grow(&mut self.sums, query_rows * block_size, 0.0);
        grow(&mut self.carry, query_rows * block_size, 0.0);
    }
}

/// Grows `v` to at least `len` elements.
fn grow<T: Clone>(v: &mut Vec<T>, len: usize, fill: T) {
    if v.len() < len {
        v.resize(len, fill);
    }
}

/// A sequence's paged KV cache: one block table per layer over a shared
/// [`BlockPool`].
///
/// All layers advance in lockstep (every appended position writes one row
/// per layer), so the tables always hold `ceil(pos / block_size)` blocks
/// each. Reads are bounded by the caller's sequence length — rows past it
/// are recycled-page garbage by design.
#[derive(Debug)]
pub(crate) struct PagedKv {
    pub(crate) pool: Arc<BlockPool>,
    /// `layers[l]` is layer `l`'s block table.
    pub(crate) layers: Vec<Vec<Arc<KvBlock>>>,
}

impl PagedKv {
    pub(crate) fn new(pool: Arc<BlockPool>, n_layers: usize) -> Self {
        PagedKv { pool, layers: (0..n_layers).map(|_| Vec::new()).collect() }
    }

    /// Drops every cached row at position `>= len`, returning now-unused
    /// tail blocks to the pool: each layer's table keeps its first
    /// `ceil(len / block_size)` blocks (rows past `len` inside a kept tail
    /// block are recycled-page garbage by design, like rows past the
    /// sequence length always were). Dropping a block that a prefix-cache
    /// entry or a sharing peer still maps only releases this table's
    /// reference — the storage stays live for the other holders.
    pub(crate) fn truncate(&mut self, len: usize) {
        let keep = len.div_ceil(self.pool.block_size());
        for table in &mut self.layers {
            table.truncate(keep);
        }
    }

    /// Whether this cache stores `f32` rows, which the model writes itself
    /// ([`PagedKv::rows_mut`]); every other format encodes the rows it is
    /// given ([`PagedKv::append_rows`]).
    pub(crate) fn f32_rows(&self) -> bool {
        self.pool.scheme == KvScheme::Exact
    }

    /// Makes `layers[layer]` cover position `pos` with an exclusively
    /// owned tail block: allocates on first touch and copy-on-writes a
    /// shared tail (cloning the `rows_filled` rows written so far), then
    /// returns the block index. Shared paging/CoW body of [`rows_mut`]
    /// and [`append_rows`].
    ///
    /// [`rows_mut`]: PagedKv::rows_mut
    /// [`append_rows`]: PagedKv::append_rows
    fn provision(&mut self, layer: usize, pos: usize, rows_filled: usize) -> usize {
        let bs = self.pool.block_size();
        let bi = pos / bs;
        let (nout, qpr) = self.quant_geometry().map_or((0, 0), |(_, _, nout, qpr)| (nout, qpr));
        let table = &mut self.layers[layer];
        debug_assert!(bi <= table.len(), "append must be contiguous");
        if bi == table.len() {
            debug_assert_eq!(rows_filled, 0, "a fresh block starts at its first row");
            // tidy: allow(alloc) -- block provisioning, amortized over block_size appends
            table.push(self.pool.alloc());
        } else if Arc::get_mut(&mut table[bi]).is_none() {
            // Copy-on-write: the tail block is mapped by someone else (a
            // prefix-sharing peer or the prefix cache). Clone the rows
            // filled so far into a fresh block and divert this sequence's
            // table to it; the shared original stays untouched.
            let w = self.pool.width();
            // tidy: allow(alloc) -- copy-on-write provisioning, amortized
            let mut fresh = self.pool.alloc();
            {
                // tidy: allow(panic) -- alloc() returns a fresh Arc with refcount 1
                let fb = Arc::get_mut(&mut fresh).expect("freshly allocated block is unshared");
                fb.k.copy_rows_from(&table[bi].k, rows_filled, w, qpr, nout);
                fb.v.copy_rows_from(&table[bi].v, rows_filled, w, qpr, nout);
            }
            table[bi] = fresh;
        }
        bi
    }

    /// Writable K/V row spans for positions `pos..pos + n` of `layer` in
    /// an `f32` pool, allocating the block on first touch and
    /// copy-on-writing it when it is shared. The span must not cross a
    /// block boundary (callers split chunks into per-block segments).
    pub(crate) fn rows_mut(
        &mut self,
        layer: usize,
        pos: usize,
        n: usize,
    ) -> (&mut [f32], &mut [f32]) {
        let bs = self.pool.block_size();
        let w = self.pool.width();
        let r = pos % bs;
        debug_assert!(n > 0 && r + n <= bs, "row span must stay inside one block");
        let bi = self.provision(layer, pos, r);
        // tidy: allow(panic) -- provision() just made the tail block exclusive
        let block = Arc::get_mut(&mut self.layers[layer][bi]).expect("tail block made exclusive");
        (&mut block.k.exact_mut()[r * w..(r + n) * w], &mut block.v.exact_mut()[r * w..(r + n) * w])
    }

    /// Encodes rows `pos..pos + n` of `layer` from the `f32` sources
    /// `k_src`/`v_src` (each `n × width`) into the tail page of a bfloat16
    /// or quantized pool — each element rounded to bfloat16
    /// ([`ops::bf16_image`], `Bf16::from_f32` on every lane), or each row
    /// encoded by the pool's codec — with the same first-touch allocation
    /// and copy-on-write rules as [`PagedKv::rows_mut`]. The span must not
    /// cross a block boundary.
    pub(crate) fn append_rows(
        &mut self,
        layer: usize,
        pos: usize,
        n: usize,
        k_src: &[f32],
        v_src: &[f32],
        enc: &mut EncodeScratch,
    ) {
        let bs = self.pool.block_size();
        let w = self.pool.width();
        let r = pos % bs;
        debug_assert!(n > 0 && r + n <= bs, "row span must stay inside one block");
        debug_assert!(k_src.len() == n * w && v_src.len() == n * w, "source row shape mismatch");
        let (nout, qpr) = self.quant_geometry().map_or((0, 0), |(_, _, nout, qpr)| (nout, qpr));
        let codec = self.pool.codec;
        let bi = self.provision(layer, pos, r);
        // tidy: allow(panic) -- provision() just made the tail block exclusive
        let block = Arc::get_mut(&mut self.layers[layer][bi]).expect("tail block made exclusive");
        for (page, src) in [(&mut block.k, k_src), (&mut block.v, v_src)] {
            let page = match page {
                PageStore::Bf16(rows) => {
                    ops::bf16_image(src, &mut rows[r * w..(r + n) * w]);
                    continue;
                }
                PageStore::Quant(page) => page,
                PageStore::Exact(_) => unreachable!("append_rows on an f32 pool"),
            };
            for i in 0..n {
                let codes = &mut page.codes[(r + i) * w..(r + i + 1) * w];
                let (q0, q1) = ((r + i) * qpr, (r + i + 1) * qpr);
                let (s0, s1) = (q0 * nout, q1 * nout);
                match codec {
                    Some(Codec::Opal(q)) => q.encode_row_scratch(
                        &src[i * w..(i + 1) * w],
                        codes,
                        &mut page.scales[q0..q1],
                        &mut page.out_idx[s0..s1],
                        &mut page.out_val[s0..s1],
                        &mut page.out_len[q0..q1],
                        enc,
                    ),
                    Some(Codec::Int(q)) => {
                        q.encode_row(&src[i * w..(i + 1) * w], codes, &mut page.scales[q0..q1])
                    }
                    None => unreachable!("a quantized pool without a codec"),
                }
            }
        }
    }

    /// The pages holding the first `len` cached positions of `layer`, in
    /// position order: `(position of the page's first row, how many of its
    /// rows lie inside len, the block)`.
    fn pages(&self, layer: usize, len: usize) -> impl Iterator<Item = (usize, usize, &KvBlock)> {
        let bs = self.pool.block_size();
        self.layers[layer].iter().enumerate().map_while(move |(i, block)| {
            let t0 = i * bs;
            (t0 < len).then(|| (t0, bs.min(len - t0), &**block))
        })
    }

    /// `(bits, qblock, outlier slots per qblock, qblocks per row)` of a
    /// quantized pool, `None` for a dense (`f32` or bfloat16) one.
    fn quant_geometry(&self) -> Option<(u32, usize, usize, usize)> {
        self.pool.scheme.quantized().then(|| {
            let (bits, qblock, nout) = self.pool.quant_params();
            (bits, qblock, nout, self.pool.qblocks_per_row())
        })
    }

    /// Attention scores of the `m = qs.len() / width` query rows at
    /// positions `pos0..pos0 + m` against the cached K rows of `layer`, all
    /// heads, each row against its causal prefix: with `len = pos0 + m`,
    /// `out[(i * n_heads + h) * len + t] = (q_{i,h} · k_{t,h}) * scale` for
    /// `t < pos0 + i + 1`, `q_i` the `n_heads` head vectors of query row `i`
    /// end to end. Entries past a row's prefix are unspecified (the page walk
    /// computes and leaves them; rows `< len` were all written before the
    /// pass attends, so they are never recycled-page garbage). `scratch`
    /// must be fitted to the pool's geometry and at least `m` query rows.
    ///
    /// One walk for every page format: **page by page, every query row per
    /// visit**. A dense page (`f32` or bfloat16 rows) takes one
    /// [`ops::dot_tile`] per head, then the scale. A quantized page takes
    /// one [`ops::dot_codes_tile`] per (head, segment), a segment being the
    /// part of the head inside one shared-exponent block (one, unless the
    /// head straddles blocks), over the page's codes. Each (query row,
    /// cached row) sum then meets its
    /// segment's power-of-two step and the segment's exact bf16 outlier
    /// terms in `f64`, carried across the head's segments in `scratch` and
    /// rounded once at the head's end — per cached row for up to eight
    /// query rows at once, each outlier slot decoded once for them
    /// (`Segment::finish_scores`). Bitwise that is one
    /// `ops::dot` per (query row, cached row, head) on dense pages, and the
    /// per-row `QuantRow::dot_range` the tests hold the walk to on quantized
    /// ones — which is `ops::dot` over the decoded rows whenever `dot`'s
    /// `f64` partial sums are exact, as on every site-format page
    /// (`opal_tensor`'s `tests/kv_exactness.rs`). A head's code sums take
    /// exact `f32` lanes when [`ops::ExactInF32`] passes the group's query
    /// rows on it (checked once per call), `dot`'s `f64` lanes otherwise:
    /// the same bits.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn scores_into(
        &self,
        layer: usize,
        pos0: usize,
        qs: &[f32],
        n_heads: usize,
        scale: f32,
        scratch: &mut PageScratch,
        out: &mut [f32],
    ) {
        let (w, bs) = (self.pool.width(), self.pool.block_size());
        let dh = w / n_heads;
        let m = qs.len() / w;
        let len = pos0 + m;
        debug_assert!(m > 0 && qs.len() == m * w && out.len() == m * n_heads * len, "score shape");
        let queries = || qs.chunks_exact(w);
        let quant = self.quant_geometry();
        let PageScratch { exact, steps, sums, carry, .. } = scratch;
        let (sums, carry) = (&mut sums[..m * bs], &mut carry[..m * bs]);
        if quant.is_some() {
            for (h, exact) in exact[..n_heads].iter_mut().enumerate() {
                *exact = ops::ExactInF32::check(queries().map(|q| &q[h * dh..(h + 1) * dh]));
            }
        }
        for (t0, rows, block) in self.pages(layer, len) {
            for (h, &exact) in exact[..n_heads].iter().enumerate() {
                let (lo, hi) = (h * dh, (h + 1) * dh);
                let at = h * len + t0;
                let (PageStore::Quant(page), Some((bits, qblock, nout, qpr))) = (&block.k, quant)
                else {
                    let outs = out.chunks_exact_mut(n_heads * len).map(|o| &mut o[at..at + rows]);
                    let q_rows = queries().map(|q| &q[lo..hi]);
                    block.k.dot_tile(lo, w, q_rows.zip(outs));
                    for out in out.chunks_exact_mut(n_heads * len) {
                        for score in &mut out[at..at + rows] {
                            *score *= scale;
                        }
                    }
                    continue;
                };
                for (qb, s0, s1) in segments(lo, hi, qblock) {
                    let outs = sums.chunks_exact_mut(bs).map(|o| &mut o[..rows]);
                    let q_rows = queries().map(|q| &q[s0..s1]);
                    ops::dot_codes_tile(&page.codes[s0..], w, q_rows.zip(outs), exact);
                    let steps = &mut steps[..rows];
                    for (r, step) in steps.iter_mut().enumerate() {
                        *step = step_size(i32::from(page.scales[r * qpr + qb]), bits);
                    }
                    let base = (qb * qblock).wrapping_sub(lo);
                    let segment = Segment { page, qb, qpr, nout, base };
                    let ends = (s0 == lo, s1 == hi, scale);
                    let (cols, steps, outs) = ((lo, hi, w), &*steps, (n_heads * len, at));
                    // Up to eight query rows at a time: their sums stay in
                    // registers while each slot is decoded once for all.
                    let mut i = 0;
                    while i < m {
                        let run = (m - i).min(QUERY_GROUP);
                        let sums = &sums[i * bs..];
                        let (carry, out) = (&mut carry[i * bs..], &mut out[i * n_heads * len..]);
                        let qs = &qs[i * w..];
                        macro_rules! finish {
                            ($($rows:literal)*) => {
                                match run {
                                    $($rows => segment.finish_scores::<$rows>(
                                        ends, qs, cols, steps, sums, bs, carry, out, outs,
                                    ),)*
                                    _ => unreachable!("a query group holds 1..=8 rows"),
                                }
                            };
                        }
                        finish!(1 2 3 4 5 6 7 8);
                        i += run;
                    }
                }
            }
        }
    }

    /// The attention-weighted sums of the cached V rows of `layer` for the
    /// `m = ctx.len() / width` query rows at positions `pos0..pos0 + m`, all
    /// heads, *written* into `ctx` (`m` rows): with `len = pos0 + m`,
    /// `ctx[i * width + h * dh + j] = Σ_t weights[(i * n_heads + h) * len + t]
    /// · v_{t, h * dh + j}` over `t < pos0 + i + 1`, from `+0.0`, rows in
    /// position order, a row whose weight is exactly `0.0` skipped. The
    /// weights past each row's prefix must be `0.0`: the page walk reads
    /// them. `scratch` must be fitted to the pool's geometry.
    ///
    /// The counterpart of [`PagedKv::scores_into`], on the same walk, the
    /// first page writing each context: per head one [`ops::axpy_tile`]
    /// straight off a dense page's rows (a bfloat16 page's widened in
    /// registers, never decoded into `scratch`), or per (head, segment) one
    /// [`ops::axpy_codes_tile`] that dequantizes the segment's codes by
    /// their rows' steps into `scratch`'s tile, with their outliers written
    /// over their lanes, first. Each context element belongs to one segment
    /// and sees the same addends in the same order as under the per-row
    /// `QuantRow::axpy_range`, so the walk is bitwise it.
    pub(crate) fn weighted_values_into(
        &self,
        layer: usize,
        pos0: usize,
        weights: &[f32],
        n_heads: usize,
        scratch: &mut PageScratch,
        ctx: &mut [f32],
    ) {
        let w = self.pool.width();
        let dh = w / n_heads;
        let m = ctx.len() / w;
        let len = pos0 + m;
        debug_assert!(m > 0 && ctx.len() == m * w && weights.len() == m * n_heads * len, "shape");
        let queries = || weights.chunks_exact(n_heads * len);
        let quant = self.quant_geometry();
        let PageScratch { tile, steps, .. } = scratch;
        for (t0, rows, block) in self.pages(layer, len) {
            for h in 0..n_heads {
                let (lo, hi) = (h * dh, (h + 1) * dh);
                let at = h * len + t0;
                let (PageStore::Quant(page), Some((bits, qblock, nout, qpr))) = (&block.v, quant)
                else {
                    let rows_of = queries()
                        .map(|weights| &weights[at..at + rows])
                        .zip(ctx.chunks_exact_mut(w).map(|c| &mut c[lo..hi]));
                    block.v.axpy_tile(lo, w, rows_of, t0 == 0);
                    continue;
                };
                for (qb, s0, s1) in segments(lo, hi, qblock) {
                    let n = s1 - s0;
                    let steps = &mut steps[..rows];
                    for (r, step) in steps.iter_mut().enumerate() {
                        *step = step_size(i32::from(page.scales[r * qpr + qb]), bits);
                    }
                    let base = (qb * qblock).wrapping_sub(s0);
                    let segment = Segment { page, qb, qpr, nout, base };
                    // The rows are dequantized once for every query row;
                    // each live slot writes its bf16 value over its lane,
                    // where the code is 0.
                    let patch = |tile: &mut [f32]| {
                        for r in 0..rows {
                            segment.row_outliers(r, n, |j, value| tile[r * n + j] = value.to_f32());
                        }
                    };
                    let tile = &mut tile[..rows * n];
                    let rows_of = queries()
                        .map(|weights| &weights[at..at + rows])
                        .zip(ctx.chunks_exact_mut(w).map(|c| &mut c[s0..s1]));
                    let codes = &page.codes[s0..];
                    ops::axpy_codes_tile(codes, w, steps, patch, tile, rows_of, t0 == 0);
                }
            }
        }
    }

    /// Everything the cache stores for position `pos` of `layer`, K then V,
    /// as one word list: the `f32` bit patterns of a dense row (a bfloat16
    /// row's widened, so it images as the `f32` row of its values), or a
    /// quantized row's codes, scales and live outlier slots (slots past a
    /// block's live count are recycled-page garbage by design). Equal
    /// images are bit-equal rows.
    #[cfg(test)]
    pub(crate) fn row_image(&self, layer: usize, pos: usize) -> Vec<u32> {
        let (bs, w) = (self.pool.block_size(), self.pool.width());
        let (block, r) = (&self.layers[layer][pos / bs], pos % bs);
        let mut image = Vec::new();
        for page in [&block.k, &block.v] {
            match page {
                PageStore::Exact(rows) => {
                    image.extend(rows[r * w..(r + 1) * w].iter().map(|x| x.to_bits()));
                    continue;
                }
                PageStore::Bf16(rows) => {
                    image.extend(rows[r * w..(r + 1) * w].iter().map(|x| x.to_f32().to_bits()));
                    continue;
                }
                PageStore::Quant(_) => {}
            }
            let (bits, qblock, nout) = self.pool.quant_params();
            let row = page.quant().row(r, w, self.pool.qblocks_per_row(), nout, bits, qblock);
            image.extend(row.codes.iter().map(|&c| c as u32));
            image.extend(row.scales.iter().map(|&s| s as u32));
            for (qb, &live) in row.out_len.iter().enumerate() {
                image.push(u32::from(live));
                for slot in qb * nout..qb * nout + usize::from(live) {
                    image.push(u32::from(row.out_idx[slot]));
                    image.push(row.out_val[slot].to_f32().to_bits());
                }
            }
        }
        image
    }

    /// Whether any layer's tail block is mapped by someone else (an append
    /// at a non-boundary position would copy-on-write).
    pub(crate) fn tail_shared(&self) -> bool {
        self.layers.iter().any(|t| t.last().is_some_and(|b| Arc::strong_count(b) > 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opal_quant::Quantizer;

    fn pool(bs: usize, max: usize) -> Arc<BlockPool> {
        Arc::new(BlockPool::new(bs, 4, max))
    }

    #[test]
    fn alloc_free_accounting() {
        let p = pool(2, 8);
        assert_eq!((p.in_use(), p.peak(), p.free_blocks()), (0, 0, 8));
        let a = p.alloc();
        let b = p.alloc();
        assert_eq!((p.in_use(), p.peak(), p.free_blocks()), (2, 2, 6));
        drop(a);
        assert_eq!((p.in_use(), p.peak()), (1, 2));
        drop(b);
        assert_eq!((p.in_use(), p.peak()), (0, 2));
        // Recycled storage: a fresh alloc reuses a freed page.
        let _c = p.alloc();
        assert_eq!((p.in_use(), p.peak()), (1, 2));
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn alloc_past_capacity_panics() {
        let p = pool(2, 1);
        let _a = p.alloc();
        let _b = p.alloc();
    }

    #[test]
    fn rows_mut_allocates_and_cows() {
        let p = pool(2, usize::MAX);
        let mut kv = PagedKv::new(Arc::clone(&p), 1);
        // Fill positions 0 and 1 (one block).
        kv.rows_mut(0, 0, 1).0.copy_from_slice(&[1.0; 4]);
        kv.rows_mut(0, 1, 1).0.copy_from_slice(&[2.0; 4]);
        assert_eq!(p.in_use(), 1);
        // Share the block, then append position 2 (new block — no CoW).
        let shared = kv.layers[0][0].clone();
        kv.rows_mut(0, 2, 1).0.copy_from_slice(&[3.0; 4]);
        assert_eq!(p.in_use(), 2);
        assert!(Arc::ptr_eq(&shared, &kv.layers[0][0]), "full shared block must stay mapped");

        // Share the partial tail; the next append must copy-on-write it.
        let tail = kv.layers[0][1].clone();
        assert!(kv.tail_shared());
        kv.rows_mut(0, 3, 1).0.copy_from_slice(&[4.0; 4]);
        assert_eq!(p.in_use(), 3, "CoW allocates a fresh block");
        assert!(!Arc::ptr_eq(&tail, &kv.layers[0][1]), "table must divert to the copy");
        assert_eq!(&tail.k.exact()[..4], &[3.0; 4], "donor block must be untouched");
        assert_eq!(&kv.layers[0][1].k.exact()[..4], &[3.0; 4], "filled rows must be copied");
        assert_eq!(&kv.layers[0][1].k.exact()[4..], &[4.0; 4]);
        assert!(!kv.tail_shared());
    }

    /// Deterministic pseudo-random row (no external RNG in tests).
    fn test_row(w: usize, seed: u32) -> Vec<f32> {
        let mut s = seed.wrapping_mul(2654435761).wrapping_add(12345);
        (0..w)
            .map(|_| {
                s = s.wrapping_mul(1103515245).wrapping_add(12345);
                ((s >> 8) as f32 / (1u32 << 24) as f32 - 0.5) * 4.0
            })
            .collect()
    }

    fn quant_pool(scheme: KvScheme, bs: usize, w: usize) -> Arc<BlockPool> {
        Arc::new(BlockPool::with_scheme(bs, w, usize::MAX, scheme))
    }

    /// The cached K row (or V row) at `pos` of layer 0 as a [`QuantRow`].
    fn qrow(kv: &PagedKv, pos: usize, value: bool) -> QuantRow<'_> {
        let (bits, qblock, nout) = kv.pool.quant_params();
        let bs = kv.pool.block_size();
        let block = &kv.layers[0][pos / bs];
        let page = if value { block.v.quant() } else { block.k.quant() };
        page.row(pos % bs, kv.pool.width(), kv.pool.qblocks_per_row(), nout, bits, qblock)
    }

    /// The cached exact K row at `pos` of layer 0.
    fn exact_k_row(kv: &PagedKv, pos: usize) -> &[f32] {
        let (bs, w) = (kv.pool.block_size(), kv.pool.width());
        &kv.layers[0][pos / bs].k.exact()[pos % bs * w..(pos % bs + 1) * w]
    }

    /// The cached K (or V) row at `pos` of layer 0 of a dense pool, as the
    /// `f32` values it holds (a bfloat16 row widened).
    fn dense_row(kv: &PagedKv, pos: usize, value: bool) -> Vec<f32> {
        let (bs, w) = (kv.pool.block_size(), kv.pool.width());
        let block = &kv.layers[0][pos / bs];
        let at = pos % bs * w..(pos % bs + 1) * w;
        match if value { &block.v } else { &block.k } {
            PageStore::Exact(rows) => rows[at].to_vec(),
            PageStore::Bf16(rows) => rows[at].iter().map(|x| x.to_f32()).collect(),
            PageStore::Quant(_) => unreachable!("a dense row of a quantized page"),
        }
    }

    #[test]
    fn quant_walk_matches_reference_decode() {
        let w = 20;
        for scheme in [
            KvScheme::MxOpal { bits: 4, qblock: 8, outliers: 2 },
            KvScheme::MxOpal { bits: 8, qblock: 8, outliers: 2 },
            KvScheme::MxInt { bits: 8, qblock: 8 },
            KvScheme::MxInt { bits: 4, qblock: 8 },
        ] {
            let p = quant_pool(scheme, 3, w);
            let mut kv = PagedKv::new(Arc::clone(&p), 1);
            let mut enc = EncodeScratch::new();
            let rows: Vec<Vec<f32>> = (0..5).map(|i| test_row(w, i)).collect();
            for (i, row) in rows.iter().enumerate() {
                kv.append_rows(0, i, 1, row, row, &mut enc);
            }
            // Reference: the fused quantize-dequantize of each row.
            for (i, row) in rows.iter().enumerate() {
                let qrow = qrow(&kv, i, false);
                let mut reference = vec![0.0f32; w];
                match scheme {
                    KvScheme::MxOpal { bits, qblock, outliers } => {
                        let q = MxOpalQuantizer::new(bits, qblock, outliers).unwrap();
                        q.quantize_dequantize_scratch(row, &mut reference, &mut enc);
                    }
                    KvScheme::MxInt { bits, qblock } => {
                        let q = MxIntQuantizer::new(bits, qblock).unwrap();
                        q.quantize_dequantize_scratch(row, &mut reference, &mut enc);
                    }
                    KvScheme::Exact | KvScheme::Bf16 => unreachable!(),
                }
                // dot_range against a one-hot query reads back one element.
                for (j, &want) in reference.iter().enumerate() {
                    let mut onehot = vec![0.0f32; w];
                    onehot[j] = 1.0;
                    let got = qrow.dot_range(&onehot, 0);
                    assert_eq!(got.to_bits(), want.to_bits(), "{scheme:?} col {j}");
                }
                // axpy_range with weight 1 into a zero context dequantizes
                // the whole row.
                let mut ctx = vec![0.0f32; w];
                qrow.axpy_range(1.0, 0, &mut ctx);
                for (j, (&got, &want)) in ctx.iter().zip(&reference).enumerate() {
                    assert!((got - want).abs() < 1e-6, "{scheme:?} col {j}");
                }
            }
        }
    }

    #[test]
    fn quant_dot_range_respects_column_offsets() {
        let w = 16;
        let scheme = KvScheme::MxOpal { bits: 4, qblock: 8, outliers: 2 };
        let p = quant_pool(scheme, 2, w);
        let mut kv = PagedKv::new(Arc::clone(&p), 1);
        let mut enc = EncodeScratch::new();
        let row = test_row(w, 7);
        kv.append_rows(0, 0, 1, &row, &row, &mut enc);
        let q = MxOpalQuantizer::new(4, 8, 2).unwrap();
        let mut reference = vec![0.0f32; w];
        q.quantize_dequantize_scratch(&row, &mut reference, &mut enc);
        let qrow = qrow(&kv, 0, false);
        // A head slice straddling the quant-block boundary at column 8.
        let query = test_row(8, 9);
        let got = qrow.dot_range(&query, 4);
        let want: f64 =
            query.iter().zip(&reference[4..12]).map(|(&a, &b)| f64::from(a) * f64::from(b)).sum();
        assert!((f64::from(got) - want).abs() < 1e-4);
    }

    #[test]
    fn page_walks_are_bitwise_the_per_row_per_head_kernels() {
        // `scores_into` / `weighted_values_into` over a group of query rows
        // against one `ops::dot` or `dot_range` (and one scaled add or
        // `axpy_range`) per (query row, cached row, head), each query row
        // over its own causal prefix, the context written from `+0.0`:
        // every page format on the one page walk — `f32` pages, bfloat16
        // pages (against their rows widened; heads at odd columns of an
        // odd-width row too), heads that
        // fit their shared-exponent blocks (the served proxy's one 128-wide
        // head under `mxopal()` and MXINT-4/7's site pages included), heads
        // that straddle blocks (that head under 32-wide blocks; `qblock` 8
        // under 12-wide heads), heads that share a block, and codes of 4
        // bits or fewer (heads at odd columns of an odd-width row included)
        // — pages of one row, groups that start and end inside pages and
        // cross page edges, and weights that are exactly zero.
        let mxint_site = KvScheme::MxInt { bits: 7, qblock: 128 };
        let low_bits = KvScheme::MxOpal { bits: 4, qblock: 32, outliers: 2 };
        let straddling = KvScheme::MxOpal { bits: 8, qblock: 8, outliers: 2 };
        let shared_block = KvScheme::MxOpal { bits: 6, qblock: 16, outliers: 3 };
        let low_odd = KvScheme::MxOpal { bits: 4, qblock: 8, outliers: 2 };
        let low_int = KvScheme::MxInt { bits: 3, qblock: 16 };
        for (w, n_heads, scheme) in [
            (128usize, 4usize, KvScheme::Exact),
            (128, 1, KvScheme::Exact),
            (128, 4, KvScheme::Bf16),
            (128, 1, KvScheme::Bf16),
            (27, 3, KvScheme::Bf16),
            (128, 4, KvScheme::mxopal()),
            (128, 4, mxint_site),
            (128, 4, low_bits),
            (128, 1, KvScheme::mxopal()),
            (128, 1, KvScheme::MxInt { bits: 8, qblock: 32 }),
            (24, 2, straddling),
            (24, 3, shared_block),
            (27, 3, low_odd),
            (24, 2, low_int),
        ] {
            let dh = w / n_heads;
            for bs in [1usize, 3, 16] {
                let pool = quant_pool(scheme, bs, w);
                let mut kv = PagedKv::new(Arc::clone(&pool), 1);
                let mut enc = EncodeScratch::new();
                // Rows past the longest group walked: a walk that overruns
                // its length reads real data and shows.
                for pos in 0..40 {
                    let (mut k, mut v) = (test_row(w, pos as u32), test_row(w, 1000 + pos as u32));
                    k[pos * 5 % w] *= 30.0;
                    v[pos * 11 % w] *= -30.0;
                    if pos == 7 {
                        // Two small values and zeros: on an MX-OPAL page,
                        // outliers over an all-zero block.
                        v.fill(0.0);
                        (v[3], v[w - 2]) = (1.0e-3, -2.0e-3);
                    }
                    if kv.f32_rows() {
                        let (k_dst, v_dst) = kv.rows_mut(0, pos, 1);
                        k_dst.copy_from_slice(&k);
                        v_dst.copy_from_slice(&v);
                    } else {
                        kv.append_rows(0, pos, 1, &k, &v, &mut enc);
                    }
                }
                // The V tile *writes* an outlier over its lane, which the
                // per-row walk *adds* to: the same bits only because the
                // encoder leaves code 0 under every live slot.
                if scheme.quantized() {
                    for row in (0..40).flat_map(|pos| [qrow(&kv, pos, false), qrow(&kv, pos, true)])
                    {
                        for (qb, &live) in row.out_len.iter().enumerate() {
                            for &idx in
                                &row.out_idx[qb * row.nout..qb * row.nout + usize::from(live)]
                            {
                                let lane = qb * row.qblock + usize::from(idx);
                                assert_eq!(row.codes[lane], 0, "{scheme:?}: outlier lane");
                            }
                        }
                    }
                }
                for (pos0, m) in
                    [(0usize, 1usize), (4, 1), (36, 1), (0, 2), (14, 2), (15, 5), (0, 9), (28, 9)]
                {
                    let what = format!("{scheme:?} w {w} heads {n_heads} bs {bs} at {pos0} x {m}");
                    let len = pos0 + m;
                    let qs: Vec<f32> = (0..m).flat_map(|i| test_row(w, 77 + i as u32)).collect();
                    let mut scores = vec![f32::NAN; m * n_heads * len];
                    // Stale scratch: the walk writes before it reads.
                    let mut scratch = PageScratch::default();
                    scratch.fit(bs, (n_heads, dh), m);
                    scratch.tile.fill(f32::NAN);
                    scratch.steps.fill(f32::NAN);
                    scratch.sums.fill(f64::NAN);
                    scratch.carry.fill(f64::NAN);
                    kv.scores_into(0, pos0, &qs, n_heads, 0.25, &mut scratch, &mut scores);
                    let weights: Vec<f32> = (0..m * n_heads * len)
                        .map(|x| match (x % len, x / (n_heads * len)) {
                            (t, i) if t > pos0 + i => 0.0,
                            _ if x % 3 == 1 => 0.0,
                            _ => 0.5f32.powi(x as i32 % 7),
                        })
                        .collect();
                    let mut ctx = vec![f32::NAN; m * w];
                    kv.weighted_values_into(0, pos0, &weights, n_heads, &mut scratch, &mut ctx);

                    let mut want_ctx = vec![0.0f32; m * w];
                    for (i, want_ctx) in want_ctx.chunks_exact_mut(w).enumerate() {
                        for h in 0..n_heads {
                            let (lo, hi) = (h * dh, (h + 1) * dh);
                            for t in 0..=pos0 + i {
                                let x = (i * n_heads + h) * len + t;
                                let (q, wt) = (&qs[i * w + lo..i * w + hi], weights[x]);
                                let want = if scheme.quantized() {
                                    if wt != 0.0 {
                                        qrow(&kv, t, true).axpy_range(
                                            wt,
                                            lo,
                                            &mut want_ctx[lo..hi],
                                        );
                                    }
                                    qrow(&kv, t, false).dot_range(q, lo) * 0.25
                                } else {
                                    let v_row = dense_row(&kv, t, true);
                                    for (c, &vv) in want_ctx[lo..hi].iter_mut().zip(&v_row[lo..hi])
                                    {
                                        if wt != 0.0 {
                                            *c += wt * vv;
                                        }
                                    }
                                    ops::dot(q, &dense_row(&kv, t, false)[lo..hi]) * 0.25
                                };
                                let got = scores[x];
                                assert_eq!(
                                    got.to_bits(),
                                    want.to_bits(),
                                    "{what}: score q{i} h{h} t{t}"
                                );
                            }
                        }
                    }
                    for (j, (got, want)) in ctx.iter().zip(&want_ctx).enumerate() {
                        assert_eq!(got.to_bits(), want.to_bits(), "{what}: ctx[{j}]");
                    }
                }
            }
        }
    }

    #[test]
    fn quant_cow_leaves_donor_unchanged() {
        let scheme = KvScheme::MxOpal { bits: 4, qblock: 8, outliers: 2 };
        let w = 8;
        let p = quant_pool(scheme, 2, w);
        let mut kv = PagedKv::new(Arc::clone(&p), 1);
        let mut enc = EncodeScratch::new();
        let r0 = test_row(w, 1);
        kv.append_rows(0, 0, 1, &r0, &r0, &mut enc);
        // Share the partial block, then append: must copy-on-write.
        let donor = kv.layers[0][0].clone();
        let donor_codes = donor.k.quant().codes.clone();
        let r1 = test_row(w, 2);
        kv.append_rows(0, 1, 1, &r1, &r1, &mut enc);
        assert!(!Arc::ptr_eq(&donor, &kv.layers[0][0]), "table must divert to the copy");
        assert_eq!(donor.k.quant().codes, donor_codes, "donor codes must be untouched");
        // Row 0 of the copy matches the donor's row 0.
        assert_eq!(&kv.layers[0][0].k.quant().codes[..w], &donor_codes[..w]);
        assert_eq!(p.in_use(), 2);
    }

    #[test]
    fn truncate_returns_tail_blocks_and_keeps_prefix_readable() {
        let p = pool(2, usize::MAX);
        let mut kv = PagedKv::new(Arc::clone(&p), 2);
        for layer in 0..2 {
            for i in 0..5u32 {
                kv.rows_mut(layer, i as usize, 1).0.copy_from_slice(&[i as f32; 4]);
            }
        }
        assert_eq!(p.in_use(), 6, "3 blocks per layer for 5 rows of block size 2");
        kv.truncate(3);
        assert_eq!(p.in_use(), 4, "2 blocks per layer survive a truncate to 3 rows");
        let rows: Vec<&[f32]> = (0..3).map(|pos| exact_k_row(&kv, pos)).collect();
        assert_eq!(rows, vec![&[0.0; 4], &[1.0; 4], &[2.0; 4]]);
        // The cache accepts appends again at the truncated position.
        kv.rows_mut(0, 3, 1).0.copy_from_slice(&[9.0; 4]);
        assert_eq!(exact_k_row(&kv, 3), &[9.0; 4]);
        // Truncating to a block boundary keeps exactly the full blocks.
        kv.truncate(2);
        assert_eq!(kv.layers[0].len(), 1);
        // Truncating to zero rows empties every table.
        kv.truncate(0);
        assert_eq!(p.in_use(), 0);
    }

    #[test]
    fn truncate_releases_only_this_tables_reference() {
        let p = pool(2, usize::MAX);
        let mut kv = PagedKv::new(Arc::clone(&p), 1);
        for i in 0..4 {
            kv.rows_mut(0, i, 1).0.copy_from_slice(&[i as f32; 4]);
        }
        let shared_tail = kv.layers[0][1].clone();
        kv.truncate(2);
        assert_eq!(p.in_use(), 2, "the shared tail block stays allocated for its other holder");
        assert_eq!(&shared_tail.k.exact()[..4], &[2.0; 4], "donor storage is untouched");
        drop(shared_tail);
        assert_eq!(p.in_use(), 1);
    }

    #[test]
    fn packed_append_spanning_blocks_roundtrips() {
        // Multi-row appends of 4-bit codes, odd width.
        let w = 9;
        let scheme = KvScheme::MxInt { bits: 4, qblock: 4 };
        let p = quant_pool(scheme, 4, w);
        let mut kv = PagedKv::new(Arc::clone(&p), 1);
        let mut enc = EncodeScratch::new();
        let rows: Vec<Vec<f32>> = (0..6).map(|i| test_row(w, 100 + i)).collect();
        let flat: Vec<f32> = rows.iter().flatten().copied().collect();
        kv.append_rows(0, 0, 4, &flat[..4 * w], &flat[..4 * w], &mut enc);
        kv.append_rows(0, 4, 2, &flat[4 * w..], &flat[4 * w..], &mut enc);
        let q = MxIntQuantizer::new(4, 4).unwrap();
        for (i, row) in rows.iter().enumerate() {
            let mut reference = vec![0.0f32; w];
            q.quantize_dequantize_scratch(row, &mut reference, &mut enc);
            let mut ctx = vec![0.0f32; w];
            qrow(&kv, i, false).axpy_range(1.0, 0, &mut ctx);
            for (j, (&got, &want)) in ctx.iter().zip(&reference).enumerate() {
                assert!((got - want).abs() < 1e-6, "col {j}: {got} vs {want}");
            }
        }
    }
}

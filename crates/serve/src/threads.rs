//! Intra-step threading behind one call, [`Threads::advance`]: the
//! fan-out gate, the work-balanced split and the worker pool.

use opal_model::{Model, ModelConfig, Workspace};

use crate::config::{ServeConfig, StepMode};
use crate::pool::WorkerPool;
use crate::sequence::{advance_chunk, Active};

/// The threads that step the batch: the caller's forward-pass buffers and,
/// once a step has fanned out, the worker pool.
#[derive(Default)]
pub(crate) struct Threads {
    /// Lazily-spawned persistent decode workers, shut down (channels
    /// closed, threads joined) on drop.
    pool: Option<WorkerPool>,
    /// Forward-pass buffers of the stepping thread (each pool worker owns
    /// its own): sized by the largest step seen, shared by every sequence.
    workspace: Workspace,
}

impl Threads {
    /// Advances every sequence of `batch` by one step ([`advance_chunk`]),
    /// on as many threads as [`planned_threads`] allows.
    pub(crate) fn advance(&mut self, model: &Model, config: &ServeConfig, batch: &mut [Active]) {
        let units: u64 = batch.iter().map(seq_units).sum();
        let workers = planned_threads(config, model.config(), batch.len(), units);
        if workers <= 1 {
            advance_chunk(model, batch, &mut self.workspace);
            return;
        }
        // Pool size is fixed at first fan-out, to the most threads any step
        // can plan: every configured thread under `ForcePool`, no more than
        // the host's cores under `Auto` — don't park threads that can never
        // receive work (num_threads = 16 on a 4-core box would otherwise
        // idle 12 stacks for the engine's lifetime).
        let most = planned_threads(config, model.config(), usize::MAX, u64::MAX);
        let pool = self.pool.get_or_insert_with(|| WorkerPool::new(most - 1));
        // Never cut more chunks than pool + caller.
        let workers = workers.min(pool.len() + 1);
        pool.step_chunks(model, split_by_work(batch, workers).into_iter(), &mut self.workspace);
    }
}

/// Minimum weight work (multiply-accumulates) a worker's chunk must carry
/// for [`StepMode::Auto`] to hand it to a pool thread instead of running it
/// inline.
///
/// A chunk's rows share one pass over the weights, so splitting a batch
/// buys less than it did when every sequence streamed the stack itself: two
/// half-batches stream it twice, in parallel, and what is saved is half the
/// rows' arithmetic. On the `llama7b-proxy128` config (815k MACs/token by
/// `approx_macs_per_token`; bf16, 2 vCPUs) a fused serial step costs about
/// 50 µs of stream plus 105 µs per row, a dispatch a few µs. Forced
/// two-thread dispatch over serial, alternating drains: 1.12–1.19× at batch
/// 2–3, 1.5–1.8× at 4, 1.2–1.4× at 5–6, 1.4–1.5× at 8, 1.5–1.8× at 16 while
/// the second vCPU was ours; 0.8–1.0× at every batch up to 8 in the
/// stretches when it was not (a shared host: no gate fixes that). 1.6M MACs
/// is two proxy rows per worker: the first fan-out at batch 4 there (eight
/// for four workers), leaving out the batches where the gain is inside the
/// host's noise; the tiny test config (≈30k MACs/token) stays serial at
/// any batch a test uses. The gate sees cores and MACs, not load: a core
/// another process holds still counts, which is how `bench_decode` read
/// `optimized-4t` at 0.51–0.74× `optimized-1t` on that host.
const FANOUT_MIN_MACS_PER_WORKER: u64 = 1_600_000;

/// Hardware threads of this host, asked once per process:
/// `available_parallelism` reads the cgroup quota files on Linux (~18 µs
/// and four allocations a call), and [`StepMode::Auto`] consults it on
/// every step.
fn host_cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Matvec multiply-accumulates per decoded token: the decoder stack's
/// weight MACs (identical to its parameter count) plus the unembedding row.
fn approx_macs_per_token(config: &ModelConfig) -> u64 {
    config.decoder_params() + (config.d_model * config.vocab) as u64
}

/// Decode-equivalent forward passes this sequence will run this step: its
/// granted prefill positions (each one layer sweep of the fused chunk)
/// plus one if it will sample (a prefill position costs about as much as a
/// decoded token), plus up to `k` fused verify rows when a speculative
/// step will fire — a pure function of pre-fan-out scheduler state, so
/// chunk cuts stay deterministic.
fn seq_units(seq: &Active) -> u64 {
    let samples = seq.prefilled + seq.grant >= seq.prefill_end;
    let spec_rows = match &seq.spec {
        Some(spec) if samples && !seq.prefilling() => spec.k as u64,
        _ => 0,
    };
    seq.grant as u64 + u64::from(samples) + spec_rows
}

/// Exclusive end indices (all but the last) cutting `units` into `chunks`
/// contiguous groups of near-equal sum, each with at least one element.
fn balanced_cuts(units: &[u64], chunks: usize) -> Vec<usize> {
    let n = units.len();
    let chunks = chunks.clamp(1, n.max(1));
    let total: u64 = units.iter().sum();
    let mut cuts = Vec::with_capacity(chunks.saturating_sub(1));
    let mut acc = 0u64;
    let mut end = 0usize;
    for k in 1..chunks {
        let target = total * k as u64 / chunks as u64;
        // Leave at least one element for each group still to cut.
        let max_end = n - (chunks - k);
        let min_end = end + 1;
        while end < max_end && (end < min_end || acc + units[end] <= target) {
            acc += units[end];
            end += 1;
        }
        cuts.push(end);
    }
    cuts
}

/// Cuts the active batch into at most `workers` contiguous chunks weighted
/// by per-sequence work ([`seq_units`]), not by sequence count: a sequence
/// carrying a large prefill grant would otherwise turn its equal-count
/// chunk into the step's straggler, idling the threads the work-based
/// fan-out plan just justified. Cut placement is a pure function of
/// scheduler state fixed before the fan-out, so dispatch stays
/// deterministic (and chunk shape never affects output — sequences are
/// independent and accounting runs post-join in batch order).
fn split_by_work(seqs: &mut [Active], workers: usize) -> Vec<&mut [Active]> {
    let units: Vec<u64> = seqs.iter().map(seq_units).collect();
    let cuts = balanced_cuts(&units, workers);
    let mut chunks = Vec::with_capacity(cuts.len() + 1);
    let mut rest = seqs;
    let mut prev = 0usize;
    for &cut in &cuts {
        let (chunk, tail) = rest.split_at_mut(cut - prev);
        chunks.push(chunk);
        rest = tail;
        prev = cut;
    }
    chunks.push(rest);
    chunks
}

/// How many threads (caller included) a step over `batch` sequences
/// carrying `units` decode-equivalent forward passes ([`seq_units`]) of a
/// `served` model should use. [`StepMode::ForcePool`] caps only by batch
/// size; [`StepMode::Auto`] also by the host's cores (more workers than
/// hardware threads time-slice one another) and by work, giving each
/// worker at least [`FANOUT_MIN_MACS_PER_WORKER`] of matvec MACs. The
/// attention scan's seq-length term is deliberately ignored — it only
/// grows the true work, so the gate errs toward serial.
fn planned_threads(config: &ServeConfig, served: &ModelConfig, batch: usize, units: u64) -> usize {
    let cap = config.num_threads.min(batch);
    match config.step_mode {
        StepMode::ForcePool => cap,
        StepMode::Auto => {
            let cap = cap.min(host_cores());
            if cap <= 1 {
                return 1;
            }
            let total_macs = approx_macs_per_token(served).saturating_mul(units);
            cap.min((total_macs / FANOUT_MIN_MACS_PER_WORKER).max(1) as usize)
        }
    }
}

#[cfg(test)]
mod tests {
    use opal_model::{ModelConfig, QuantScheme};

    use super::*;

    #[test]
    fn balanced_cuts_weight_chunks_by_work() {
        // Uniform work: same boundaries as equal-count chunking.
        assert_eq!(balanced_cuts(&[1; 16], 4), vec![4, 8, 12]);
        // One heavy sequence (a big prefill grant) gets its own chunk
        // instead of dragging three decoders along as the straggler.
        assert_eq!(balanced_cuts(&[8, 1, 1, 1], 2), vec![1]);
        assert_eq!(balanced_cuts(&[1, 1, 1, 8], 2), vec![3]);
        // Every group keeps at least one element, even with zero work.
        assert_eq!(balanced_cuts(&[0, 0, 0], 3), vec![1, 2]);
        assert_eq!(balanced_cuts(&[5, 5], 4), vec![1]);
        assert_eq!(balanced_cuts(&[3], 1), Vec::<usize>::new());
    }

    #[test]
    fn planned_threads_respects_gates() {
        let m = Model::new(ModelConfig::tiny(), QuantScheme::bf16(), 11).expect("valid scheme");
        let plan = |threads: usize, step_mode: StepMode, batch: usize| {
            let cfg = ServeConfig { num_threads: threads, step_mode, ..ServeConfig::default() };
            planned_threads(&cfg, m.config(), batch, batch as u64)
        };
        // The force mode caps only by batch size.
        assert_eq!(plan(4, StepMode::ForcePool, 16), 4);
        assert_eq!(plan(4, StepMode::ForcePool, 2), 2);
        assert_eq!(plan(4, StepMode::ForcePool, 1), 1);
        // Auto never exceeds cores or the force-mode cap, and the tiny test
        // model never carries enough per-token work to fan out at all.
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        for batch in [1usize, 4, 16] {
            let p = plan(4, StepMode::Auto, batch);
            assert!(p <= cores.min(4).min(batch));
            assert_eq!(p, 1, "tiny model steps must stay on the caller thread");
        }
        // A model the size of the bench proxy fans out wherever cores allow.
        let proxy =
            Model::new(ModelConfig::llama2_7b().proxy(128, 4, 192), QuantScheme::bf16(), 11)
                .expect("valid scheme");
        let cfg = ServeConfig { num_threads: 4, ..ServeConfig::default() };
        assert_eq!(planned_threads(&cfg, proxy.config(), 16, 16), 4.min(cores));
    }
}

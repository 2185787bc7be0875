//! The four serving workloads: what each serves, through which engine
//! configuration, and why it is in the benchmark.

use opal::OperatingPoint;
use opal_hw::accelerator::{Accelerator, AcceleratorKind};
use opal_model::{KvScheme, Model, ModelConfig, QuantScheme};
use opal_serve::{DraftSource, ServeConfig, SpecConfig, StepMode};

use crate::gen::{self, Shape, VOCAB};

/// Weight seed of the served model (the `llama7b-proxy128` of
/// `BENCH_decode.json`).
pub const WEIGHT_SEED: u64 = 21;
/// KV page size in positions, everywhere.
pub const BLOCK_SIZE: usize = 16;

/// The served architecture: Llama2-7B's ratios at width 128, 4 layers.
pub fn model_config() -> ModelConfig {
    ModelConfig::llama2_7b().proxy(128, 4, VOCAB as usize)
}

/// Numerics of the served model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheme {
    /// bfloat16 weights and activations, exact softmax.
    Bf16,
    /// The paper's W4A4/7 point: OWQ 4-bit weights, MX-OPAL 4/7-bit
    /// activations, 5-bit log2 softmax.
    Opal47,
}

impl Scheme {
    pub fn quant(self) -> QuantScheme {
        match self {
            Scheme::Bf16 => QuantScheme::bf16(),
            Scheme::Opal47 => OperatingPoint::W4A47.scheme(),
        }
    }

    pub fn build(self) -> Model {
        Model::new(model_config(), self.quant(), WEIGHT_SEED)
            .expect("the benchmark's schemes are valid")
    }
}

/// How requests are sent.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Loop {
    /// `clients` callers, each sending its next request when the previous
    /// one completes: a slow engine receives less load.
    Closed { clients: usize },
    /// Requests sent on a schedule at `rate` per second whatever the
    /// engine does: its queue can grow.
    Open { rate: f64 },
}

/// One workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
    pub shape: Shape,
    pub scheme: Scheme,
    pub quantized_kv: bool,
    pub looping: Loop,
    pub max_batch: usize,
    pub prefill_chunk: usize,
    /// KV pool bound in bytes (`None`: unbounded).
    pub kv_budget_bytes: Option<usize>,
    pub prefix_sharing: bool,
    pub speculate: bool,
    /// How many completed requests the output check re-runs alone, and how
    /// many of their leading tokens it compares.
    pub check_sample: usize,
    pub check_tokens: usize,
}

impl Workload {
    pub fn kv_scheme(&self) -> KvScheme {
        if self.quantized_kv {
            KvScheme::mxopal()
        } else {
            KvScheme::Exact
        }
    }

    /// Due times of the requests, in seconds from the start of a window of
    /// `seconds`; empty for a closed loop, whose clients send when free.
    pub fn arrivals(&self, seed: u64, seconds: f64) -> Vec<f64> {
        match self.looping {
            Loop::Open { rate } => gen::arrivals(seed, rate, seconds),
            Loop::Closed { .. } => Vec::new(),
        }
    }

    /// Bytes of one K page plus one V page.
    pub fn block_bytes(&self) -> usize {
        2 * self.kv_scheme().page_bytes(BLOCK_SIZE, model_config().d_model)
    }

    pub fn serve_config(&self) -> ServeConfig {
        ServeConfig {
            max_batch: self.max_batch,
            max_tokens: 512,
            num_threads: 1,
            step_mode: StepMode::Auto,
            prefill_chunk: self.prefill_chunk,
            block_size: BLOCK_SIZE,
            max_blocks: self.kv_budget_bytes.map_or(usize::MAX, |b| b / self.block_bytes()),
            kv_scheme: self.kv_scheme(),
            prefix_sharing: self.prefix_sharing,
            spec: self.speculate.then_some(SpecConfig { draft: DraftSource::NGram, k: 4 }),
            ..ServeConfig::default()
        }
    }

    /// The output check's engine: one sequence at a time, no speculation,
    /// no sharing, unbounded pool; same model and KV format.
    pub fn solo_config(&self) -> ServeConfig {
        ServeConfig {
            max_batch: 1,
            max_tokens: 512,
            block_size: BLOCK_SIZE,
            kv_scheme: self.kv_scheme(),
            prefix_sharing: false,
            ..ServeConfig::default()
        }
    }
}

/// The accelerator whose energy model the engine runs inside every step.
pub fn accelerator() -> Accelerator {
    Accelerator::new(AcceleratorKind::OpalW4A47)
}

pub const ALL: [Workload; 4] = [
    Workload {
        name: "decode_closed_b16",
        why: "bf16, 16 closed-loop clients, short unshared prompts, 128 new tokens: single-row decode \
              GEMVs and per-sequence step overhead; quantization, log2 softmax, quantized KV, trie \
              and speculation bypassed",
        shape: Shape::ShortDecode,
        scheme: Scheme::Bf16,
        quantized_kv: false,
        looping: Loop::Closed { clients: 16 },
        max_batch: 16,
        prefill_chunk: 8,
        kv_budget_bytes: None,
        prefix_sharing: false,
        speculate: false,
        check_sample: 8,
        check_tokens: 128,
    },
    Workload {
        name: "prefill_shared_open",
        why: "W4A4/7, open loop at 4 req/s, 224-288-token prompts, 3 in 4 sharing one of 4 prefixes, \
              8 new tokens, bounded pool: prefill GEMM, MX-OPAL encode, admission, trie \
              adopt/evict; the only queue",
        shape: Shape::SharedPrefill,
        scheme: Scheme::Opal47,
        quantized_kv: false,
        looping: Loop::Open { rate: 4.0 },
        max_batch: 8,
        prefill_chunk: 32,
        kv_budget_bytes: Some(1200 * 2 * 16 * 128 * 4),
        prefix_sharing: true,
        speculate: false,
        check_sample: 8,
        check_tokens: 8,
    },
    Workload {
        name: "longctx_kvq_closed",
        why: "W4A4/7, MX-OPAL KV pages in a 6 MiB pool that exact pages would overflow, 4 \
              closed-loop clients, 512-token prompts, 512 new tokens: attention over 512-1024 \
              positions, page codec, wide log2 softmax",
        shape: Shape::LongContext,
        scheme: Scheme::Opal47,
        quantized_kv: true,
        looping: Loop::Closed { clients: 4 },
        max_batch: 4,
        prefill_chunk: 32,
        kv_budget_bytes: Some(6 << 20),
        prefix_sharing: false,
        speculate: false,
        check_sample: 4,
        check_tokens: 96,
    },
    Workload {
        name: "spec_lowbatch_closed",
        why: "W4A4/7, 2 closed-loop clients, repetitive prompts, n-gram speculation k=4, 192 new \
              tokens: the paper's low-batch regime via 5-row fused verify and KV rollback; \
              smallest steps, most scheduler weight",
        shape: Shape::Repetitive,
        scheme: Scheme::Opal47,
        quantized_kv: false,
        looping: Loop::Closed { clients: 2 },
        max_batch: 2,
        prefill_chunk: 8,
        kv_budget_bytes: None,
        prefix_sharing: false,
        speculate: true,
        check_sample: 8,
        check_tokens: 192,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_bounds_are_the_stated_ones() {
        let open = by_name("prefill_shared_open").unwrap().serve_config();
        assert_eq!(open.max_blocks, 1200);
        let long = by_name("longctx_kvq_closed").unwrap();
        let blocks = long.serve_config().max_blocks;
        // Four sequences of 1024 positions over 4 layers need 1024 blocks.
        assert!(blocks >= 1024, "{blocks} MX-OPAL blocks in 6 MiB");
        // ... which exact pages of the same budget could not hold.
        let exact = (6 << 20) / (2 * KvScheme::Exact.page_bytes(BLOCK_SIZE, 128));
        assert!(exact < 1024, "{exact} exact blocks in 6 MiB");
    }

    #[test]
    fn names_fit_the_benchmark_contract() {
        for w in &ALL {
            assert!(w.name.len() <= 64 && w.why.len() <= 200, "{}: {}", w.name, w.why.len());
            assert!(!w.why.contains('\n'));
        }
    }
}

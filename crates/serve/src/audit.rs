//! The KV-memory auditor: the pool's accounting, the resident block
//! tables and the prefix trie, cross-checked.

use std::collections::HashMap;
use std::sync::Arc;

use opal_model::kv::{BlockPool, KvBlock};
use opal_model::DecodeState;

use crate::request::RequestId;
use crate::trie::PrefixTrie;

/// Result of [`ServeEngine::audit`](crate::ServeEngine::audit): the
/// reconciliation of pool accounting, block tables, and prefix-trie
/// refcounts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditReport {
    /// Human-readable descriptions of every violated invariant; empty for
    /// a consistent engine.
    pub violations: Vec<String>,
}

impl AuditReport {
    /// Whether every invariant held.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// [`ServeEngine::audit`](crate::ServeEngine::audit) of the resident
/// sequences' block `tables` (`n_layers` each) and the prefix `trie`.
pub(crate) fn audit<'a>(
    tables: impl Iterator<Item = (RequestId, &'a DecodeState)>,
    trie: &PrefixTrie,
    pool: &BlockPool,
    n_layers: usize,
) -> AuditReport {
    struct Refs {
        table: usize,
        trie: usize,
        strong: usize,
    }
    fn refs<'s>(seen: &'s mut HashMap<*const KvBlock, Refs>, block: &Arc<KvBlock>) -> &'s mut Refs {
        let strong = Arc::strong_count(block);
        seen.entry(Arc::as_ptr(block)).or_insert(Refs { table: 0, trie: 0, strong })
    }
    let mut seen = HashMap::new();
    let mut violations = Vec::new();
    let bs = pool.block_size();
    for (id, state) in tables {
        let mut per_layer = vec![0usize; n_layers];
        state.with_blocks(|layer, block| {
            per_layer[layer] += 1;
            refs(&mut seen, block).table += 1;
        });
        let expected = state.pos().div_ceil(bs);
        for (layer, &mapped) in per_layer.iter().enumerate() {
            if mapped != expected {
                violations.push(format!(
                    "{id}: layer {layer} maps {mapped} blocks for {} positions \
                     (expected {expected} at block_size {bs})",
                    state.pos()
                ));
            }
        }
    }
    trie.for_each_block(|block| refs(&mut seen, block).trie += 1);
    for (ptr, refs) in &seen {
        if refs.strong != refs.table + refs.trie {
            violations.push(format!(
                "block {ptr:?}: strong_count {} != {} table refs + {} trie refs",
                refs.strong, refs.table, refs.trie
            ));
        }
    }
    let pool_in_use = pool.in_use();
    if seen.len() != pool_in_use {
        violations.push(format!(
            "pool reports {pool_in_use} blocks in use but {} are reachable \
             from tables and trie",
            seen.len()
        ));
    }
    AuditReport { violations }
}

#[cfg(test)]
mod tests {
    use opal_model::{KvScheme, Model, ModelConfig, QuantScheme};

    use super::*;

    #[test]
    fn reports_a_hidden_holder_and_a_leaked_block() {
        let m = Model::new(ModelConfig::tiny(), QuantScheme::bf16(), 11).expect("valid scheme");
        let nl = m.config().n_layers;
        let pool = Arc::new(m.kv_pool(4, usize::MAX, KvScheme::Exact));
        let mut state = m.begin_decode_paged(&pool);
        m.prefill_chunk(&mut state, &[1, 2, 3, 4, 5]);
        let trie = PrefixTrie::new();
        let run = || audit(std::iter::once((RequestId(0), &state)), &trie, &pool, nl);
        let clean = run();
        assert!(clean.is_clean(), "{:?}", clean.violations);
        assert_eq!(pool.in_use(), 2 * nl);

        // Refcounts: a clone of a table's block held outside tables and trie.
        let hidden = state.block(0, 0);
        let report = run();
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert!(report.violations[0].contains("strong_count 2 != 1 table refs + 0 trie refs"));
        drop(hidden);

        // Residency: a block allocated from the pool that nothing maps.
        let leaked = pool.alloc();
        let report = run();
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert!(report.violations[0].contains(&format!(
            "pool reports {} blocks in use but {} are reachable",
            2 * nl + 1,
            2 * nl
        )));
        drop(leaked);
        assert!(run().is_clean());
    }
}

//! `opal-tidy`: the workspace invariant linter.
//!
//! A tidy-style static-analysis pass (in the spirit of rust-lang's own
//! `tidy` source checks) that walks every `crates/*/src` file and enforces
//! the policy declared in `tools/tidy/tidy.policy`:
//!
//! 1. **hot-path allocation** — no allocating calls inside declared
//!    allocation-free hot functions (`// tidy: allow(alloc) -- reason`
//!    escapes); a declared path that matches no file, or pattern that
//!    matches no `fn` in its file, is reported as stale;
//! 2. **unsafe discipline** — `unsafe` only in allowlisted files, every
//!    use with an adjacent `// SAFETY:` comment;
//! 3. **panic discipline** — no `unwrap`/`expect`/`panic!` family in
//!    non-test library code (`// tidy: allow(panic) -- reason` escapes);
//! 4. **determinism** — wall-clock reads only in the declared clock shim;
//!    no `HashMap`/`HashSet` in modules promising bit-identical output;
//! 5. **lock order** — nested `.lock()` acquisitions must follow the
//!    declared global ranking.
//!
//! The pass is purely lexical: a small comment/string/raw-string-aware
//! lexer produces a blanked *code view* (see [`lexer::SourceView`]), so no
//! pattern ever matches inside prose, string data, or doc examples. Run it
//! with `cargo run -p opal-tidy`; it exits non-zero on any violation.

use std::path::{Path, PathBuf};

pub mod lexer;
pub mod lints;
pub mod policy;

pub use lints::{Lint, Violation};
pub use policy::Policy;

/// The policy manifest's path, relative to the workspace root.
pub const POLICY_PATH: &str = "tools/tidy/tidy.policy";

/// Lints one file's source text under `policy`. `rel_path` is the
/// workspace-relative path used both for diagnostics and for policy
/// matching.
pub fn check_source(rel_path: &str, source: &str, policy: &Policy) -> Vec<Violation> {
    let view = lexer::SourceView::lex(source);
    let fns = lints::function_spans(&view);
    check_lexed(rel_path, &view, &fns, policy)
}

/// [`check_source`] over an already lexed file and its `fns`.
fn check_lexed(
    rel_path: &str,
    view: &lexer::SourceView,
    fns: &[lints::FnSpan],
    policy: &Policy,
) -> Vec<Violation> {
    let tests = lints::test_spans(view);
    let mut out = Vec::new();
    lints::check_escape_hygiene(rel_path, view, &mut out);
    lints::lint_hot_alloc(rel_path, view, policy, fns, &tests, &mut out);
    lints::lint_unsafe(rel_path, view, policy, &mut out);
    lints::lint_panic(rel_path, view, &tests, &mut out);
    lints::lint_determinism(rel_path, view, policy, &tests, &mut out);
    lints::lint_lock_order(rel_path, view, policy, fns, &tests, &mut out);
    out.sort_by_key(|v| v.line);
    out
}

/// Collects every library source under `crates/*/src`, skipping `bin/`
/// directories (binaries are exempt from the library lints, like tests
/// and benches).
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    let mut stack = vec![crates_dir];
    while let Some(dir) = stack.pop() {
        let entries = match std::fs::read_dir(&dir) {
            Ok(e) => e,
            Err(_) => continue,
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            if path.is_dir() {
                // Only descend into each crate's `src`, and skip `bin/`.
                let is_crate_root = path.parent() == Some(root.join("crates").as_path());
                if is_crate_root {
                    stack.push(path.join("src"));
                } else if name != "bin" && path.exists() {
                    stack.push(path);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Runs the whole pass over the workspace at `root`. Returns every
/// violation plus the number of files checked.
pub fn run(root: &Path, policy: &Policy) -> std::io::Result<(Vec<Violation>, usize)> {
    let files = workspace_sources(root)?;
    let mut all = Vec::new();
    let mut rels = Vec::new();
    for path in &files {
        let source = std::fs::read_to_string(path)?;
        let rel = path.strip_prefix(root).unwrap_or(path).to_string_lossy().replace('\\', "/");
        let view = lexer::SourceView::lex(&source);
        let fns = lints::function_spans(&view);
        all.extend(check_lexed(&rel, &view, &fns, policy));
        all.extend(lints::stale_hot_patterns(&rel, policy, &fns));
        rels.push(rel);
    }
    all.extend(lints::stale_hot_paths(policy, &rels));
    Ok((all, files.len()))
}

#[cfg(test)]
mod fixtures {
    //! Fixture-based tests: each lint family is fed a violating snippet
    //! (as a string fixture) and must fire, then a compliant or escaped
    //! variant and must stay quiet.

    use super::*;

    fn test_policy() -> Policy {
        Policy::parse(
            "[hot_alloc]\n\
             crates/model/src/infer.rs: decode_core, *_into\n\
             [unsafe_files]\n\
             crates/serve/src/pool.rs\n\
             [determinism]\n\
             crates/scenario/src/replay.rs\n\
             [clock]\n\
             crates/serve/src/clock.rs\n\
             [locks]\n\
             inner: 10 kv-block-pool\n\
             trie_guard: 20 prefix-trie\n",
        )
        .expect("fixture policy parses")
    }

    fn lint_names(violations: &[Violation]) -> Vec<&'static str> {
        violations.iter().map(|v| v.lint.name()).collect()
    }

    #[test]
    fn alloc_lint_fires_in_hot_fn_only() {
        let p = test_policy();
        let bad = "fn decode_core(x: &[f32]) -> Vec<f32> {\n    let v = x.to_vec();\n    v\n}\n";
        let hits = check_source("crates/model/src/infer.rs", bad, &p);
        assert!(lint_names(&hits).contains(&"alloc"), "to_vec in hot fn must fire: {hits:?}");

        // Same code in a non-hot function: quiet.
        let cold = "fn helper(x: &[f32]) -> Vec<f32> {\n    x.to_vec()\n}\n";
        assert!(check_source("crates/model/src/infer.rs", cold, &p).is_empty());

        // Wildcard coverage and escape.
        let escaped = "fn softmax_into(out: &mut Vec<f32>) {\n    \
                       // tidy: allow(alloc) -- amortized: capacity reused across calls\n    \
                       out.push(1.0);\n}\n";
        assert!(check_source("crates/model/src/infer.rs", escaped, &p).is_empty());

        let wildcard = "fn softmax_into(out: &mut Vec<f32>) {\n    out.push(1.0);\n}\n";
        let hits = check_source("crates/model/src/infer.rs", wildcard, &p);
        assert_eq!(lint_names(&hits), vec!["alloc"]);
    }

    #[test]
    fn alloc_lint_ignores_strings_and_comments() {
        let p = test_policy();
        let src = "fn decode_core() {\n    // calls Vec::new() conceptually\n    \
                   let s = \"Vec::new()\";\n    let _ = s;\n}\n";
        assert!(check_source("crates/model/src/infer.rs", src, &p).is_empty());
    }

    #[test]
    fn unsafe_lint_needs_allowlist_and_safety_comment() {
        let p = test_policy();
        let outside = "fn f() {\n    unsafe { core::hint::unreachable_unchecked() }\n}\n";
        let hits = check_source("crates/model/src/infer.rs", outside, &p);
        assert!(lint_names(&hits).contains(&"unsafe"), "unsafe outside allowlist: {hits:?}");

        let undocumented = "fn f() {\n    let x = unsafe { *p };\n}\n";
        let hits = check_source("crates/serve/src/pool.rs", undocumented, &p);
        assert_eq!(lint_names(&hits), vec!["unsafe"]);

        let documented =
            "fn f() {\n    // SAFETY: p is valid for reads; see dispatch protocol.\n    \
                          let x = unsafe { *p };\n}\n";
        assert!(check_source("crates/serve/src/pool.rs", documented, &p).is_empty());
    }

    #[test]
    fn panic_lint_exempts_tests_and_honors_escapes() {
        let p = test_policy();
        let bad = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
        let hits = check_source("crates/serve/src/engine.rs", bad, &p);
        assert_eq!(lint_names(&hits), vec!["panic"]);

        let in_tests = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        \
                        Some(1).unwrap();\n        panic!(\"boom\");\n    }\n}\n";
        assert!(check_source("crates/serve/src/engine.rs", in_tests, &p).is_empty());

        let escaped = "fn f(x: Option<u32>) -> u32 {\n    \
                       x.expect(\"invariant: x is set by admit()\") \
                       // tidy: allow(panic) -- scheduler invariant, audited per step\n}\n";
        assert!(check_source("crates/serve/src/engine.rs", escaped, &p).is_empty());

        // An escape without a reason is itself a violation.
        let unjustified = "fn f(x: Option<u32>) -> u32 {\n    \
                           // tidy: allow(panic)\n    x.unwrap()\n}\n";
        let hits = check_source("crates/serve/src/engine.rs", unjustified, &p);
        assert!(
            hits.iter().any(|v| v.message.contains("justification")),
            "unjustified escape must be reported: {hits:?}"
        );
    }

    #[test]
    fn determinism_lint_covers_clock_and_hash_iteration() {
        let p = test_policy();
        let clock = "fn f() {\n    let t = std::time::Instant::now();\n}\n";
        let hits = check_source("crates/serve/src/engine.rs", clock, &p);
        assert_eq!(lint_names(&hits), vec!["determinism"]);

        // The declared clock shim may read the wall clock.
        assert!(check_source("crates/serve/src/clock.rs", clock, &p).is_empty());

        let hash = "use std::collections::HashMap;\nfn f() {\n    \
                    let m: HashMap<u32, u32> =\n        HashMap::new();\n}\n";
        let hits = check_source("crates/scenario/src/replay.rs", hash, &p);
        assert!(hits.iter().all(|v| v.lint == Lint::Determinism));
        assert_eq!(hits.len(), 3, "use + type + ctor lines: {hits:?}");

        // HashMap outside a determinism module is fine.
        assert!(check_source("crates/serve/src/trie.rs", hash, &p).is_empty());
    }

    #[test]
    fn lock_order_lint_checks_rank_and_declaration() {
        let p = test_policy();
        // trie (rank 20) then inner (rank 10) while the guard is held:
        // out of order.
        let bad = "fn f(&self) {\n    let g = self.trie_guard.lock();\n    \
                   let h = self.inner.lock();\n    drop((g, h));\n}\n";
        let hits = check_source("crates/serve/src/engine.rs", bad, &p);
        assert_eq!(lint_names(&hits), vec!["lock_order"], "{hits:?}");

        // The declared order is fine.
        let good = "fn f(&self) {\n    let g = self.inner.lock();\n    \
                    let h = self.trie_guard.lock();\n    drop((g, h));\n}\n";
        assert!(check_source("crates/serve/src/engine.rs", good, &p).is_empty());

        // Sequential (non-nested) acquisition in separate blocks is fine.
        let seq = "fn f(&self) {\n    {\n        let g = self.trie_guard.lock();\n    }\n    \
                   let h = self.inner.lock();\n}\n";
        assert!(check_source("crates/serve/src/engine.rs", seq, &p).is_empty());

        // An undeclared receiver must be added to the manifest.
        let unknown = "fn f(&self) {\n    let g = self.mystery.lock();\n}\n";
        let hits = check_source("crates/serve/src/engine.rs", unknown, &p);
        assert!(hits.iter().any(|v| v.message.contains("undeclared")), "{hits:?}");
    }

    #[test]
    fn stale_hot_alloc_entries_are_reported_at_their_policy_line() {
        let p = test_policy();
        let fns = |src: &str| lints::function_spans(&lexer::SourceView::lex(src));
        let file = "crates/model/src/infer.rs";
        // `*_into` matches `softmax_into`; `decode_core` matches nothing.
        let src = "fn softmax_into(out: &mut [f32]) {\n    out[0] = 1.0;\n}\n";
        let stale = lints::stale_hot_patterns(file, &p, &fns(src));
        assert_eq!(stale.len(), 1, "{stale:?}");
        assert_eq!((stale[0].file.as_str(), stale[0].line), (POLICY_PATH, 2));
        assert!(stale[0].message.contains("`decode_core`"), "{}", stale[0].message);
        let both = "fn decode_core() {}\nfn softmax_into() {}\n";
        assert!(lints::stale_hot_patterns(file, &p, &fns(both)).is_empty());
        // Files the policy does not name have no patterns to go stale.
        assert!(lints::stale_hot_patterns("crates/serve/src/pool.rs", &p, &[]).is_empty());

        // A declared path that matches no linted file.
        let stale = lints::stale_hot_paths(&p, &["crates/model/src/kv.rs".to_string()]);
        assert_eq!(stale.len(), 1, "{stale:?}");
        assert_eq!(stale[0].line, 2);
        assert!(stale[0].message.contains("crates/model/src/infer.rs"), "{}", stale[0].message);
        let present = ["x/crates/model/src/infer.rs".to_string()];
        assert!(lints::stale_hot_paths(&p, &present).is_empty());
    }

    #[test]
    fn array_types_in_a_signature_do_not_hide_the_body() {
        // The `;` of `[u8; 32]` is not the end of a bodyless declaration.
        let p = test_policy();
        let src = "fn decode_core(x: &[u8; 32]) -> Vec<u8> {\n    x.to_vec()\n}\n";
        let hits = check_source("crates/model/src/infer.rs", src, &p);
        assert_eq!(lint_names(&hits), vec!["alloc"], "{hits:?}");
        let decl = "trait T {\n    fn decode_core(x: &[u8; 32]);\n}\nfn f() {}\n";
        let fns = lints::function_spans(&lexer::SourceView::lex(decl));
        assert_eq!(fns.iter().map(|f| f.name.as_str()).collect::<Vec<_>>(), ["f"]);
    }

    #[test]
    fn violations_carry_position_and_render() {
        let p = test_policy();
        let bad = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
        let hits = check_source("crates/serve/src/engine.rs", bad, &p);
        assert_eq!(hits[0].line, 2);
        let rendered = hits[0].to_string();
        assert!(rendered.contains("crates/serve/src/engine.rs:2"), "{rendered}");
        assert!(rendered.contains("[panic]"), "{rendered}");
    }
}

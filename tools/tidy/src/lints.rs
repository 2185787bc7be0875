//! The five lint families, all running over a [`SourceView`].
//!
//! Escapes: a finding on line `L` is suppressed when line `L` (or a
//! directly preceding run of comment-only lines) carries
//! `// tidy: allow(<lint>) -- <reason>`. The reason is mandatory — an
//! escape without one is itself reported.

use crate::lexer::{find_token, SourceView};
use crate::policy::{fn_pattern_matches, Policy};
use crate::POLICY_PATH;

/// The lint family a violation belongs to (also the name accepted by
/// `// tidy: allow(<name>)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lint {
    /// Heap allocation inside a declared hot function.
    Alloc,
    /// `unsafe` outside the allowlist or without a `// SAFETY:` comment.
    Unsafe,
    /// Panicking call in non-test library code.
    Panic,
    /// Iteration-order or wall-clock nondeterminism in a module that
    /// promises bit-identical output.
    Determinism,
    /// Nested lock acquisition violating the declared global order.
    LockOrder,
}

impl Lint {
    /// The name used in escape comments and diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Lint::Alloc => "alloc",
            Lint::Unsafe => "unsafe",
            Lint::Panic => "panic",
            Lint::Determinism => "determinism",
            Lint::LockOrder => "lock_order",
        }
    }
}

/// One finding: a file, a 1-based line, the family and a message.
#[derive(Debug)]
pub struct Violation {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Lint family.
    pub lint: Lint,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.lint.name(), self.message)
    }
}

/// Whether a finding on 0-based `line` is escaped for `lint`. Checks the
/// line's own trailing comment, then walks up through directly preceding
/// comment-only lines. Only escapes carrying a ` -- reason` count.
fn allowed(view: &SourceView, line: usize, lint: Lint) -> bool {
    let needle = format!("tidy: allow({})", lint.name());
    let justified = |l: usize| {
        view.comments[l]
            .find(needle.as_str())
            .is_some_and(|at| view.comments[l][at..].contains("--"))
    };
    if justified(line) {
        return true;
    }
    let mut l = line;
    while l > 0 {
        l -= 1;
        if !view.code[l].trim().is_empty() {
            return false; // a code line breaks the comment run
        }
        if view.comments[l].trim().is_empty() {
            return false; // a blank line breaks it too
        }
        if justified(l) {
            return true;
        }
    }
    false
}

/// Reports every `tidy: allow(..)` escape that lacks a `-- reason`, and
/// every escape naming an unknown lint.
pub fn check_escape_hygiene(file: &str, view: &SourceView, out: &mut Vec<Violation>) {
    for (i, comment) in view.comments.iter().enumerate() {
        let Some(at) = comment.find("tidy: allow(") else { continue };
        let rest = &comment[at + "tidy: allow(".len()..];
        let Some(end) = rest.find(')') else {
            out.push(Violation {
                file: file.to_string(),
                line: i + 1,
                lint: Lint::Panic,
                message: "malformed tidy escape: missing `)`".to_string(),
            });
            continue;
        };
        let name = &rest[..end];
        let known = ["alloc", "unsafe", "panic", "determinism", "lock_order"];
        if !known.contains(&name) {
            out.push(Violation {
                file: file.to_string(),
                line: i + 1,
                lint: Lint::Panic,
                message: format!("tidy escape names unknown lint `{name}`"),
            });
        }
        if !rest[end..].contains("--") {
            out.push(Violation {
                file: file.to_string(),
                line: i + 1,
                lint: Lint::Panic,
                message: format!("tidy escape `allow({name})` has no `-- <reason>` justification"),
            });
        }
    }
}

/// A half-open 0-based line span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub start: usize,
    pub end: usize,
}

impl Span {
    fn contains(&self, line: usize) -> bool {
        (self.start..=self.end).contains(&line)
    }
}

/// A function body found lexically: its name and line span (signature
/// line through closing brace).
#[derive(Debug)]
pub struct FnSpan {
    pub name: String,
    pub span: Span,
}

/// Finds the first `{` at or after (`line`, `col`) and returns the line
/// holding its matching `}`. Stops early (returns `None`) if a `;` outside
/// any `(…)` / `[…]` is hit first — a bodyless trait method or declaration
/// (the `;` of an array type such as `&[u8; 32]` in a signature is not).
fn brace_match(view: &SourceView, line: usize, col: usize) -> Option<(usize, usize)> {
    let mut depth = 0usize;
    let mut nesting = 0usize;
    let mut started = false;
    let mut l = line;
    let mut c = col;
    while l < view.lines() {
        let chars: Vec<char> = view.code[l].chars().collect();
        while c < chars.len() {
            match chars[c] {
                '{' => {
                    depth += 1;
                    started = true;
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    if started && depth == 0 {
                        return Some((l, c));
                    }
                }
                '(' | '[' if !started => nesting += 1,
                ')' | ']' if !started => nesting = nesting.saturating_sub(1),
                ';' if !started && nesting == 0 => return None,
                _ => {}
            }
            c += 1;
        }
        l += 1;
        c = 0;
    }
    None
}

/// Lexically extracts every `fn name … { … }` body span (nested functions
/// included, each under its own name).
pub fn function_spans(view: &SourceView) -> Vec<FnSpan> {
    let mut spans = Vec::new();
    for l in 0..view.lines() {
        let line = &view.code[l];
        let mut from = 0usize;
        while let Some(rel) = line[from..].find("fn ") {
            let at = from + rel;
            from = at + 3;
            let boundary = at == 0
                || !line[..at]
                    .chars()
                    .next_back()
                    .is_some_and(|ch| ch.is_alphanumeric() || ch == '_');
            if !boundary {
                continue;
            }
            let name: String = line[at + 3..]
                .chars()
                .take_while(|ch| ch.is_alphanumeric() || *ch == '_')
                .collect();
            if name.is_empty() {
                continue;
            }
            if let Some((end, _)) = brace_match(view, l, at) {
                spans.push(FnSpan { name, span: Span { start: l, end } });
            }
        }
    }
    spans
}

/// Line spans exempt from the panic/alloc/determinism lints:
/// `#[cfg(test)]` items (typically `mod tests { … }`).
pub fn test_spans(view: &SourceView) -> Vec<Span> {
    let mut spans = Vec::new();
    for l in 0..view.lines() {
        if let Some(at) = view.code[l].find("#[cfg(test)]") {
            if let Some((end, _)) = brace_match(view, l, at) {
                spans.push(Span { start: l, end });
            }
        }
    }
    spans
}

fn in_any(spans: &[Span], line: usize) -> bool {
    spans.iter().any(|s| s.contains(line))
}

/// Allocation-introducing patterns denied inside declared hot functions.
const ALLOC_PATTERNS: &[&str] = &[
    "Vec::new",
    "vec!",
    "with_capacity",
    ".push(",
    ".collect",
    ".to_vec",
    ".clone(",
    "format!",
    "Box::new",
    "String::from",
    "String::new",
    ".to_string",
    ".to_owned",
];

/// Lint 1: no heap allocation inside declared hot functions.
pub fn lint_hot_alloc(
    file: &str,
    view: &SourceView,
    policy: &Policy,
    fns: &[FnSpan],
    tests: &[Span],
    out: &mut Vec<Violation>,
) {
    let Some(hot) = policy.hot_file(file) else { return };
    for f in fns {
        if !hot.functions.iter().any(|p| fn_pattern_matches(p, &f.name)) {
            continue;
        }
        for l in f.span.start..=f.span.end.min(view.lines() - 1) {
            if in_any(tests, l) {
                continue;
            }
            for pat in ALLOC_PATTERNS {
                if find_token(&view.code[l], pat).is_some() && !allowed(view, l, Lint::Alloc) {
                    out.push(Violation {
                        file: file.to_string(),
                        line: l + 1,
                        lint: Lint::Alloc,
                        message: format!(
                            "`{pat}` in hot function `{}` (declared allocation-free)",
                            f.name
                        ),
                    });
                }
            }
        }
    }
}

/// Stale `[hot_alloc]` patterns of `file`: each declared pattern that
/// matches none of the file's `fns` guards nothing, and is reported against
/// the policy line that declares it. (A whole-file check: [`crate::run`]
/// makes it, not [`crate::check_source`], which also lints fragments.)
pub fn stale_hot_patterns(file: &str, policy: &Policy, fns: &[FnSpan]) -> Vec<Violation> {
    let Some(hot) = policy.hot_file(file) else { return Vec::new() };
    hot.functions
        .iter()
        .filter(|p| !fns.iter().any(|f| fn_pattern_matches(p, &f.name)))
        .map(|p| Violation {
            file: POLICY_PATH.to_string(),
            line: hot.line,
            lint: Lint::Alloc,
            message: format!("[hot_alloc] `{p}` matches no fn in {file}: a stale entry"),
        })
        .collect()
}

/// The other half of a stale `[hot_alloc]` entry: a declared path that
/// matches none of the linted files (`rel_paths`) guards nothing either.
pub fn stale_hot_paths(policy: &Policy, rel_paths: &[String]) -> Vec<Violation> {
    policy
        .hot
        .iter()
        .filter(|h| !rel_paths.iter().any(|r| r.ends_with(h.path.as_str())))
        .map(|h| Violation {
            file: POLICY_PATH.to_string(),
            line: h.line,
            lint: Lint::Alloc,
            message: format!("[hot_alloc] `{}` matches no linted file: a stale entry", h.path),
        })
        .collect()
}

/// Lint 2: `unsafe` only in allowlisted files, each use with an adjacent
/// `// SAFETY:` comment (same line or within the 8 preceding lines).
pub fn lint_unsafe(file: &str, view: &SourceView, policy: &Policy, out: &mut Vec<Violation>) {
    let allowlisted = Policy::matches(&policy.unsafe_files, file);
    for l in 0..view.lines() {
        if find_token(&view.code[l], "unsafe").is_none() {
            continue;
        }
        if !allowlisted {
            out.push(Violation {
                file: file.to_string(),
                line: l + 1,
                lint: Lint::Unsafe,
                message: "`unsafe` outside the policy's unsafe_files allowlist".to_string(),
            });
            continue;
        }
        let documented = (l.saturating_sub(8)..=l).any(|k| view.comments[k].contains("SAFETY:"));
        if !documented {
            out.push(Violation {
                file: file.to_string(),
                line: l + 1,
                lint: Lint::Unsafe,
                message: "`unsafe` without an adjacent `// SAFETY:` comment".to_string(),
            });
        }
    }
}

/// Panicking patterns denied in non-test library code.
const PANIC_PATTERNS: &[&str] = &[".unwrap()", ".expect(", "panic!", "todo!", "unimplemented!"];

/// Lint 3: no panicking calls in non-test library code.
pub fn lint_panic(file: &str, view: &SourceView, tests: &[Span], out: &mut Vec<Violation>) {
    for l in 0..view.lines() {
        if in_any(tests, l) {
            continue;
        }
        for pat in PANIC_PATTERNS {
            if find_token(&view.code[l], pat).is_some() && !allowed(view, l, Lint::Panic) {
                out.push(Violation {
                    file: file.to_string(),
                    line: l + 1,
                    lint: Lint::Panic,
                    message: format!("`{pat}` in library code (tests are exempt)"),
                });
            }
        }
    }
}

/// Lint 4: determinism. Wall-clock reads (`Instant::now` / `SystemTime`)
/// are denied everywhere except the declared clock shim; `HashMap` /
/// `HashSet` are additionally denied in modules that promise
/// bit-deterministic output.
pub fn lint_determinism(
    file: &str,
    view: &SourceView,
    policy: &Policy,
    tests: &[Span],
    out: &mut Vec<Violation>,
) {
    let clock_home = Policy::matches(&policy.clock_files, file);
    let deterministic = Policy::matches(&policy.determinism, file);
    for l in 0..view.lines() {
        if in_any(tests, l) {
            continue;
        }
        if !clock_home {
            for pat in ["Instant::now", "SystemTime"] {
                if find_token(&view.code[l], pat).is_some() && !allowed(view, l, Lint::Determinism)
                {
                    out.push(Violation {
                        file: file.to_string(),
                        line: l + 1,
                        lint: Lint::Determinism,
                        message: format!(
                            "`{pat}` outside the clock shim (route wall-clock reads \
                             through the declared clock module)"
                        ),
                    });
                }
            }
        }
        if deterministic {
            for pat in ["HashMap", "HashSet"] {
                if find_token(&view.code[l], pat).is_some() && !allowed(view, l, Lint::Determinism)
                {
                    out.push(Violation {
                        file: file.to_string(),
                        line: l + 1,
                        lint: Lint::Determinism,
                        message: format!(
                            "`{pat}` in a module promising bit-deterministic output \
                             (iteration order is unstable; use BTreeMap/Vec)"
                        ),
                    });
                }
            }
        }
    }
}

/// Lint 5: lock order. Within each function, a `.lock()` on a declared
/// receiver while a lower-or-equal-ranked guard is still live (let-bound,
/// in scope) violates the declared global acquisition order. Undeclared
/// receivers are violations too — every Mutex must be in the manifest.
pub fn lint_lock_order(
    file: &str,
    view: &SourceView,
    policy: &Policy,
    fns: &[FnSpan],
    tests: &[Span],
    out: &mut Vec<Violation>,
) {
    for f in fns {
        // Guards held: (brace depth at binding, rank, receiver).
        let mut held: Vec<(usize, u32, String)> = Vec::new();
        let mut depth = 0usize;
        for l in f.span.start..=f.span.end.min(view.lines() - 1) {
            let line = view.code[l].as_str();
            // Scan the line once for depth *and* lock calls, in order.
            let chars: Vec<char> = line.chars().collect();
            let mut col = 0usize;
            while col < chars.len() {
                match chars[col] {
                    '{' => depth += 1,
                    '}' => {
                        depth = depth.saturating_sub(1);
                        held.retain(|&(d, _, _)| d <= depth);
                    }
                    '.' if line[col..].starts_with(".lock()") && !in_any(tests, l) => {
                        // Receiver: trailing ident before the dot.
                        let recv: String = line[..col]
                            .chars()
                            .rev()
                            .take_while(|c| c.is_alphanumeric() || *c == '_')
                            .collect::<Vec<_>>()
                            .into_iter()
                            .rev()
                            .collect();
                        let escaped = allowed(view, l, Lint::LockOrder);
                        match policy.lock_class(&recv) {
                            None if !escaped => out.push(Violation {
                                file: file.to_string(),
                                line: l + 1,
                                lint: Lint::LockOrder,
                                message: format!(
                                    "`.lock()` on undeclared receiver `{recv}` — add it \
                                     to the [locks] section of tidy.policy"
                                ),
                            }),
                            Some(class) => {
                                if let Some((_, r, other)) =
                                    held.iter().find(|(_, r, _)| *r >= class.rank)
                                {
                                    if !escaped {
                                        out.push(Violation {
                                            file: file.to_string(),
                                            line: l + 1,
                                            lint: Lint::LockOrder,
                                            message: format!(
                                                "lock `{}` (rank {}) acquired while holding \
                                                 `{other}` (rank {r}) — violates the declared \
                                                 acquisition order",
                                                class.name, class.rank
                                            ),
                                        });
                                    }
                                }
                                // A let-bound guard lives to the end of
                                // the current block; a temporary is
                                // released within the statement.
                                if view.code[l].trim_start().starts_with("let ") {
                                    held.push((depth, class.rank, class.name.clone()));
                                }
                            }
                            None => {}
                        }
                    }
                    _ => {}
                }
                col += 1;
            }
        }
    }
}

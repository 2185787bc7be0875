//! Spans recorded by the benchmark around its calls into each layer. They
//! are kept in memory and written out once, when the run ends.

use std::io::Write as _;
use std::path::Path;

use crate::json::{obj, Value};

/// One timed interval. `parent` is the span that caused it; the spans of
/// one request share `request`, its index in the workload's stream.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub id: u32,
    pub parent: Option<u32>,
    pub request: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work counted at this boundary (rows, tokens, blocks ...).
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Clone, Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
}

impl Trace {
    /// Records a span and returns its id.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        parent: Option<u32>,
        request: Option<u32>,
        (start_ns, end_ns): (u64, u64),
        counts: Vec<(&'static str, f64)>,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span { name: name.into(), id, parent, request, start_ns, end_ns, counts });
        id
    }

    /// Self time of every span, by id: its duration minus the part of its
    /// interval that its child spans cover (children that overlap each
    /// other are not subtracted twice, and a child is clipped to its
    /// parent).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p as usize];
                let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
                if a < b {
                    children[p as usize].push((a, b));
                }
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(s, kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0, s.start_ns);
                for &(a, b) in kids.iter() {
                    if b > reach {
                        covered += b - a.max(reach);
                        reach = b;
                    }
                }
                s.duration_ns() - covered
            })
            .collect()
    }

    /// Writes one JSON object per span, in id order.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let self_ns = self.self_times_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, own) in self.spans.iter().zip(self_ns) {
            writeln!(out, "{}", span_json(s, own).render())?;
        }
        out.flush()
    }
}

fn span_json(s: &Span, self_ns: u64) -> Value {
    let id = |v: Option<u32>| v.map_or(Value::Null, |v| Value::Num(f64::from(v)));
    let us = |ns: u64| Value::Num(ns as f64 / 1e3);
    let mut v = obj([
        ("name", Value::Str(s.name.clone())),
        ("id", Value::Num(f64::from(s.id))),
        ("parent", id(s.parent)),
        ("request", id(s.request)),
        ("start_us", us(s.start_ns)),
        ("end_us", us(s.end_ns)),
        ("self_us", us(self_ns)),
    ]);
    if let Value::Obj(fields) = &mut v {
        fields.extend(s.counts.iter().map(|&(k, n)| (k.to_owned(), Value::Num(n))));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_of(spans: &[(Option<u32>, u64, u64)]) -> Trace {
        let mut t = Trace::default();
        for &(parent, a, b) in spans {
            t.push("s", parent, None, (a, b), Vec::new());
        }
        t
    }

    #[test]
    fn self_time_is_duration_less_covered_children() {
        let t = trace_of(&[
            (None, 0, 100),    // 0: root
            (Some(0), 10, 30), // 1
            (Some(0), 20, 50), // 2: overlaps 1, union is 10..50
            (Some(0), 70, 80), // 3
            (Some(2), 25, 45), // 4: grandchild, no effect on root
        ]);
        assert_eq!(t.self_times_ns(), vec![50, 20, 10, 10, 20]);
    }

    #[test]
    fn a_child_is_clipped_to_its_parent() {
        let t = trace_of(&[(None, 100, 200), (Some(0), 50, 120), (Some(0), 190, 400)]);
        assert_eq!(t.self_times_ns()[0], 70);
        // A child wholly outside covers nothing.
        let t = trace_of(&[(None, 100, 200), (Some(0), 300, 400)]);
        assert_eq!(t.self_times_ns()[0], 100);
    }

    #[test]
    fn a_span_is_written_with_its_counts() {
        let mut t = Trace::default();
        let root = t.push("run", None, None, (0, 5_000), Vec::new());
        t.push("serve.step", Some(root), Some(3), (1_000, 3_500), vec![("rows", 17.0)]);
        let line = span_json(&t.spans[1], 2_500).render();
        assert_eq!(
            line,
            "{\"name\": \"serve.step\", \"id\": 1, \"parent\": 0, \"request\": 3, \
             \"start_us\": 1, \"end_us\": 3.5, \"self_us\": 2.5, \"rows\": 17}"
        );
        assert_eq!(crate::json::parse(&line).unwrap().get("rows"), Some(&Value::Num(17.0)));
    }
}

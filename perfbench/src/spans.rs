//! The benchmark's own tracer: spans around each call it makes into a
//! crate's public API, kept in memory and written out when the run ends.
//!
//! A span records its name, the layer it belongs to, an optional tag
//! (the admission decision, say), the workload cell it served, its
//! parent and its start and end. A layer's self time is the time its
//! spans cover minus the part their child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Marks "no parent" and the handle a disabled tracer returns.
const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub tag: &'static str,
    pub cell: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    enabled: bool,
    /// The workload cell (repeat) that new spans serve.
    cell: u32,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            cell: 0,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turn recording on or off between spans (the traced run alternates
    /// traced and untraced rounds to measure the tracer's own cost).
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggled inside an open span");
        self.enabled = on;
    }

    /// Tag the spans that follow with workload cell `cell`.
    pub fn set_cell(&mut self, cell: u32) {
        self.cell = cell;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str, layer: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(NONE);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            layer,
            tag: "",
            cell: self.cell,
            parent: self.open.last().copied().unwrap_or(NONE),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        SpanId(id)
    }

    pub fn end(&mut self, id: SpanId) {
        self.end_tagged(id, "");
    }

    /// Close the innermost open span, recording `tag` on it.
    pub fn end_tagged(&mut self, id: SpanId, tag: &'static str) {
        if id.0 == NONE {
            return;
        }
        let now = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id.0),
            "spans must close innermost first"
        );
        let s = &mut self.spans[id.0 as usize];
        s.end_ns = now;
        s.tag = tag;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every closed span called `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e9)
            .collect()
    }

    /// Self time per layer in nanoseconds, plus the summed duration of
    /// the root spans they partition.
    pub fn self_times(&self) -> (BTreeMap<&'static str, u64>, u64) {
        let mut child = vec![0u64; self.spans.len()];
        let mut roots = 0u64;
        for s in &self.spans {
            if s.parent == NONE {
                roots += s.dur_ns();
            } else {
                child[s.parent as usize] += s.dur_ns();
            }
        }
        let mut by_layer = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            *by_layer.entry(s.layer).or_insert(0) += s.dur_ns().saturating_sub(c);
        }
        (by_layer, roots)
    }

    /// Write every span as a tab-separated line (`id parent cell layer
    /// name tag start_ns end_ns`, parent `-` for roots).
    pub fn write_tsv(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "# perfbench spans, workload {workload}")?;
        writeln!(w, "id\tparent\tcell\tlayer\tname\ttag\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.cell, s.layer, s.name, s.tag, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: layer,
            layer,
            tag: "",
            cell: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            span("bench", NONE, 0, 100),
            span("simnet", 0, 10, 70),
            span("check", 0, 70, 90),
            span("bench", NONE, 200, 250),
            span("simnet", 3, 200, 240),
        ];
        let (by_layer, roots) = t.self_times();
        assert_eq!(roots, 150);
        assert_eq!(by_layer["bench"], 20 + 10);
        assert_eq!(by_layer["simnet"], 60 + 40);
        assert_eq!(by_layer["check"], 20);
        assert_eq!(by_layer.values().sum::<u64>(), roots);
    }

    #[test]
    fn nesting_and_disabled_recording() {
        let mut t = Tracer::new(true);
        t.set_cell(1);
        let a = t.begin("cell", "bench");
        let b = t.begin("run", "simnet");
        t.end_tagged(b, "x");
        t.end(a);
        assert_eq!(t.spans()[1].parent, 0);
        assert_eq!(t.spans()[1].tag, "x");
        assert_eq!(t.spans()[0].parent, NONE);
        assert_eq!(t.spans()[1].cell, 1);
        t.set_enabled(false);
        let c = t.begin("cell", "bench");
        t.end(c);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.durations_s("run").len(), 1);
    }
}

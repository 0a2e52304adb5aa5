//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Each thread keeps its own [`Tracer`]; they are merged when the run
//! ends and written out as one JSON object per line. Nothing is
//! recorded inside the program: splits within one public call come from
//! what the program returns (phase times, publish reports, the wire
//! server's histograms).

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One call into a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer call, e.g. `service.apply_batch`.
    pub name: &'static str,
    /// Batch epoch, request id or call index the span belongs to.
    pub id: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the run's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's origin.
    pub end_ns: u64,
}

/// An in-memory span log with a shared time origin.
#[derive(Debug, Clone)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty log whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        ns_since(self.origin)
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Opens a span that starts now; [`close`](Self::close) ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.record(name, 0, parent, now, now)
    }

    /// Ends the span `idx` now and sets its id.
    pub fn close(&mut self, idx: usize, id: u64) {
        let now = self.now_ns();
        let span = &mut self.spans[idx];
        span.end_ns = now;
        span.id = id;
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    /// Each span's self time: its duration minus the part of it that
    /// its child spans cover (overlapping children count once).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                let total = s.end_ns.saturating_sub(s.start_ns);
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for (a, b) in kids {
                    let a = a.max(reach);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                total - covered.min(total)
            })
            .collect()
    }

    /// Writes every span, with its self time, as one JSON object per
    /// line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"idx\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.name, s.id, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }

    /// Per span name: count, median duration and median self time, in
    /// microseconds, sorted by name.
    pub fn summary(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut by_name: std::collections::BTreeMap<&str, (Vec<f64>, Vec<f64>)> =
            Default::default();
        for (s, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            let e = by_name.entry(s.name).or_default();
            e.0.push((s.end_ns - s.start_ns) as f64 / 1e3);
            e.1.push(self_ns as f64 / 1e3);
        }
        by_name
            .into_iter()
            .map(|(name, (d, own))| {
                let med = |v: &[f64]| crate::stats::median(v).unwrap_or(0.0);
                (name, d.len(), med(&d), med(&own))
            })
            .collect()
    }
}

/// Nanoseconds elapsed since `origin`.
pub fn ns_since(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(Instant::now());
        let root = t.record("root", 0, None, 0, 100);
        t.record("a", 0, Some(root), 10, 30);
        t.record("b", 0, Some(root), 20, 50); // overlaps a: union 10..50
        t.record("c", 0, Some(root), 90, 120); // clipped to the root: 90..100
        let leaf = t.record("leaf", 0, None, 200, 260);
        let own = t.self_times_ns();
        assert_eq!(own[root], 100 - 40 - 10);
        assert_eq!(own[1], 20);
        assert_eq!(own[leaf], 60);
    }

    #[test]
    fn grandchildren_do_not_count_against_the_root() {
        let mut t = Tracer::new(Instant::now());
        let root = t.record("root", 0, None, 0, 100);
        let mid = t.record("mid", 0, Some(root), 0, 60);
        t.record("inner", 0, Some(mid), 10, 50);
        let own = t.self_times_ns();
        assert_eq!(own, vec![40, 20, 40]);
    }

    #[test]
    fn absorbing_keeps_parent_links() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        a.record("x", 0, None, 0, 10);
        let mut b = Tracer::new(origin);
        let p = b.record("p", 1, None, 0, 10);
        b.record("q", 1, Some(p), 2, 4);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.self_times_ns()[1], 8);
    }
}

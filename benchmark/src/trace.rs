//! Spans recorded from outside the program: one around each call into a
//! crate's public function. Kept in memory and written out at exit.

use std::io::Write;
use std::time::Instant;

/// One timed call. `parent` indexes the recorder's span list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub workload: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Work the call reported doing (events, rows, ...), when it has one.
    pub count: Option<u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span list with a stack of open spans.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one and returns its index.
    pub fn begin(&mut self, workload: &'static str, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            workload,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            count: None,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize, count: Option<u64>) {
        let now = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = now;
        self.spans[id].count = count;
    }

    /// One JSON object per line: name, workload, start, end, parent,
    /// self time and count.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let self_ns = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"workload\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{},\"self_ns\":{},\"count\":{}}}",
                s.name,
                s.workload,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                self_ns[i],
                opt(s.count)
            )?;
        }
        out.flush()
    }
}

/// Each span's self time: its duration minus the part of it that its
/// direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] = out[p].saturating_sub(s.duration_ns());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            workload: "w",
            start_ns,
            end_ns,
            parent,
            count: None,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root 0..100 with children 10..30 and 40..90; the second child
        // has its own child 50..60, which the root must not lose twice.
        let spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(40, 90, Some(0)),
            span(50, 60, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn recorder_nests_by_open_order() {
        let mut r = Recorder::new();
        let a = r.begin("w", "a");
        let b = r.begin("w", "b");
        r.end(b, Some(7));
        r.end(a, None);
        assert_eq!(r.spans[b].parent, Some(a));
        assert_eq!(r.spans[a].parent, None);
        assert_eq!(r.spans[b].count, Some(7));
        assert!(r.spans[a].duration_ns() >= r.spans[b].duration_ns());
    }
}

//! In-memory span recorder for the traced run. Spans are recorded only
//! from the benchmark's own code, around its calls into each layer, and
//! written out once the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

#[derive(Debug)]
pub struct Spans {
    t0: Instant,
    spans: Vec<Span>,
    /// Indices of the spans still open, innermost last.
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Spans {
    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn open(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Close a span and every span opened inside it.
    pub fn close(&mut self, id: usize) {
        let end = self.now();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end;
            if top == id {
                break;
            }
        }
    }

    pub fn time<R>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> R) -> R {
        let id = self.open(name);
        let r = f(self);
        self.close(id);
        r
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Summed duration of every span with this name, in ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.named(name).map(|s| s.end_ns - s.start_ns).sum()
    }

    /// Duration of each span with this name, in ns, in order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.named(name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Write one JSON object per span: id, name, start/end ns since the
    /// run began, parent id.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sum() {
        let mut s = Spans::default();
        s.time("outer", |s| {
            s.time("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            s.time("inner", |_| ());
        });
        assert_eq!(s.spans[1].parent, Some(0));
        assert_eq!(s.spans[2].parent, Some(0));
        assert_eq!(s.durations_ns("inner").len(), 2);
        assert!(s.total_ns("outer") >= s.total_ns("inner"));
        assert!(s.total_ns("inner") >= 2_000_000);
    }
}

//! In-memory spans for the traced layer walk.
//!
//! The walk is single-threaded, so spans nest strictly: each records its
//! name, start, end and parent, and is written out once, when the run
//! ends. Hot loops are timed per fixed-size block, one span per block,
//! never per access.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One finished (or still open, `end_ns == 0`) span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer or phase name.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// Span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span starting now; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
        });
        self.spans.len() - 1
    }

    /// Ends span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Records a finished block that started at `start_ns` and ends now,
    /// returning its duration in nanoseconds.
    pub fn block(&mut self, name: &'static str, parent: Option<usize>, start_ns: u64) -> u64 {
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
        });
        end_ns - start_ns
    }

    /// Total duration of every span called `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .sum()
    }

    /// Per-name `(count, total_ns, self_ns)`, where a span's self time is
    /// its duration minus the time its direct children cover.
    pub fn summary(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut by_name: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let slot = match by_name.iter().position(|e| e.0 == s.name) {
                Some(i) => &mut by_name[i],
                None => {
                    by_name.push((s.name, 0, 0, 0));
                    by_name.last_mut().expect("just pushed")
                }
            };
            slot.1 += 1;
            slot.2 += dur;
            slot.3 += dur.saturating_sub(children);
        }
        by_name
    }

    /// Writes every span as one JSON line, then one `summary` line per
    /// name with its count, total and self time.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error of creating or writing `path`.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        for (name, count, total, own) in self.summary() {
            let _ = writeln!(
                out,
                "{{\"summary\":\"{name}\",\"count\":{count},\"total_ns\":{total},\"self_ns\":{own}}}"
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new();
        let root = t.open("root", None);
        let start = t.now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let child = t.block("leaf", Some(root), start);
        t.close(root);
        let summary = t.summary();
        let (_, n, total, own) = summary.iter().find(|e| e.0 == "root").copied().unwrap();
        assert_eq!(n, 1);
        assert_eq!(total - own, child);
        assert_eq!(t.total_ns("leaf"), child);
    }
}

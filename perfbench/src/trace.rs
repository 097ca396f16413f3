//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A traced run keeps every `SPAN_SAMPLE`-th operation's spans in a
//! per-thread buffer allocated before the window, computes durations and
//! self times from them after the window, and writes them out as TSV.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::inputs::Kind;

/// One operation in this many is traced (its spans are kept).
pub const SPAN_SAMPLE: u64 = 32;

/// Span names, one per layer boundary the benchmark crosses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// Service request root: channel creation, submit, reply wait.
    Request,
    /// Time inside `Server::submit` (route + channel send).
    ServerSubmit,
    /// `Server::submit` return to reply received.
    ServerReplyWait,
    /// One dictionary call.
    Dict(Kind),
}

impl Name {
    fn as_str(self) -> &'static str {
        match self {
            Name::Request => "request",
            Name::ServerSubmit => "server.submit",
            Name::ServerReplyWait => "server.reply_wait",
            Name::Dict(Kind::Find) => "dict.find",
            Name::Dict(Kind::Insert) => "dict.insert",
            Name::Dict(Kind::Remove) => "dict.remove",
            Name::Dict(Kind::Scan) => "dict.scan",
        }
    }
}

/// One span: operation (trace) id, index within the trace, parent index,
/// name, the operation's kind, and start/end in ns since the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Operation id shared by the spans of one request.
    pub trace: u64,
    /// Index of this span within its trace.
    pub span: u8,
    /// Index of the parent span, if any.
    pub parent: Option<u8>,
    /// Layer boundary.
    pub name: Name,
    /// Operation kind of the request.
    pub op: Kind,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A per-thread span buffer. Spans beyond its capacity are counted as
/// dropped rather than allocated for.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    /// Spans that did not fit.
    pub dropped: u64,
}

impl Recorder {
    /// A buffer for `capacity` spans, touched before the window.
    pub fn new(epoch: Instant, capacity: usize) -> Self {
        let blank = Span {
            trace: 0,
            span: 0,
            parent: None,
            name: Name::Request,
            op: Kind::Find,
            start: 0,
            end: 0,
        };
        let mut spans = vec![blank; capacity];
        spans.clear();
        Self {
            epoch,
            spans,
            dropped: 0,
        }
    }

    /// Nanoseconds from the epoch to `t`.
    #[inline]
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Keeps one span.
    #[inline]
    pub fn push(&mut self, span: Span) {
        if self.spans.len() < self.spans.capacity() {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }

    /// The spans kept.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Durations (ns) of the spans named `name`, optionally only of one
/// operation kind, sorted ascending.
pub fn durations(spans: &[&[Span]], name: Name, op: Option<Kind>) -> Vec<u64> {
    let mut out: Vec<u64> = spans
        .iter()
        .flat_map(|s| s.iter())
        .filter(|s| s.name == name && op.is_none_or(|k| s.op == k))
        .map(Span::dur)
        .collect();
    out.sort_unstable();
    out
}

/// Self time of a span: its duration minus the part of its interval that
/// `children` cover (overlaps counted once, parts outside the parent
/// ignored).
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(parent.0), e.min(parent.1)))
        .filter(|&(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.0;
    for (s, e) in iv {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (parent.1 - parent.0).saturating_sub(covered)
}

/// Self times (ns, ascending) of the spans named `name`. Each buffer must
/// hold every span of a trace contiguously, parent first.
pub fn self_times(spans: &[&[Span]], name: Name) -> Vec<u64> {
    let mut out = Vec::new();
    for buf in spans {
        let mut i = 0;
        while i < buf.len() {
            let root = buf[i];
            let mut j = i + 1;
            while j < buf.len() && buf[j].trace == root.trace {
                j += 1;
            }
            if root.name == name {
                let children: Vec<(u64, u64)> = buf[i + 1..j]
                    .iter()
                    .filter(|c| c.parent == Some(root.span))
                    .map(|c| (c.start, c.end))
                    .collect();
                out.push(self_time((root.start, root.end), &children));
            }
            i = j;
        }
    }
    out.sort_unstable();
    out
}

/// Writes every span as one TSV line.
pub fn write_tsv(path: &Path, spans: &[&[Span]]) -> std::io::Result<()> {
    let mut text = String::from("thread\ttrace\tspan\tparent\tname\top\tstart_ns\tend_ns\n");
    for (thread, buf) in spans.iter().enumerate() {
        for s in buf.iter() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            let _ = writeln!(
                text,
                "{thread}\t{}\t{}\t{parent}\t{}\t{:?}\t{}\t{}",
                s.trace,
                s.span,
                s.name.as_str(),
                s.op,
                s.start,
                s.end
            );
        }
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::File::create(path)?;
    f.write_all(text.as_bytes())?;
    f.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, span: u8, parent: Option<u8>, name: Name, start: u64, end: u64) -> Span {
        Span {
            trace,
            span,
            parent,
            name,
            op: Kind::Find,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_covered_part_once() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 20), (30, 60)]), 60);
        // Overlapping and out-of-range children.
        assert_eq!(self_time((0, 100), &[(10, 50), (40, 60), (90, 200)]), 40);
        assert_eq!(self_time((10, 20), &[(0, 100)]), 0);
    }

    #[test]
    fn self_times_follow_parent_links() {
        let buf = [
            span(1, 0, None, Name::Request, 0, 100),
            span(1, 1, Some(0), Name::ServerSubmit, 5, 25),
            span(1, 2, Some(0), Name::ServerReplyWait, 25, 95),
            span(2, 0, None, Name::Request, 200, 250),
            span(3, 0, None, Name::Dict(Kind::Find), 300, 310),
        ];
        assert_eq!(self_times(&[&buf], Name::Request), vec![10, 50]);
        assert_eq!(self_times(&[&buf], Name::Dict(Kind::Find)), vec![10]);
        assert_eq!(durations(&[&buf], Name::ServerReplyWait, None), vec![70]);
    }

    #[test]
    fn recorder_drops_beyond_capacity() {
        let mut r = Recorder::new(Instant::now(), 2);
        for t in 0..3 {
            r.push(span(t, 0, None, Name::Request, 0, 1));
        }
        assert_eq!((r.spans().len(), r.dropped), (2, 1));
    }
}

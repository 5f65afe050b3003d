//! Spans for the traced run.
//!
//! A span has a name, a start, an end and the name of the span that
//! caused it; the spans of one request share its id (the index of its
//! record). Spans stay in memory while the run measures and are written
//! out, one JSON object per line, when it ends. A span's self time is
//! its duration minus the part of it that its children cover.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub req: u64,
    pub name: &'static str,
    /// Name of the causing span of the same request; empty for a root.
    pub parent: &'static str,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn us(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64() * 1e6
    }
}

/// Per-thread span buffer; does nothing when tracing is off.
#[derive(Debug, Default)]
pub struct Spans {
    pub on: bool,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            spans: Vec::new(),
        }
    }

    pub fn push(
        &mut self,
        req: u64,
        name: &'static str,
        parent: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if self.on {
            self.spans.push(Span {
                req,
                name,
                parent,
                start,
                end,
            });
        }
    }
}

/// Self time of every span with `name`, in microseconds: its duration
/// minus the union of its children's intervals.
pub fn self_times_us(spans: &[Span], name: &str) -> Vec<f64> {
    let mut children: HashMap<(u64, &str), Vec<(Instant, Instant)>> = HashMap::new();
    for s in spans.iter().filter(|s| !s.parent.is_empty()) {
        children
            .entry((s.req, s.parent))
            .or_default()
            .push((s.start, s.end));
    }
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| {
            let mut kids = children.get(&(s.req, s.name)).cloned().unwrap_or_default();
            kids.sort();
            let mut covered = 0.0;
            let mut cursor = s.start;
            for (a, b) in kids {
                let a = a.max(cursor).min(s.end);
                let b = b.min(s.end);
                if b > a {
                    covered += b.duration_since(a).as_secs_f64();
                    cursor = b;
                }
            }
            s.us() - covered * 1e6
        })
        .collect()
}

/// Write the spans as JSON lines, times in microseconds since `epoch`.
pub fn write(path: &Path, spans: &[Span], epoch: Instant) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let at = |t: Instant| t.saturating_duration_since(epoch).as_secs_f64() * 1e6;
    for s in spans {
        writeln!(
            out,
            "{{\"req\":{},\"name\":\"{}\",\"parent\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
            s.req,
            s.name,
            s.parent,
            at(s.start),
            at(s.end)
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let span = |name, parent, a, b| Span {
            req: 1,
            name,
            parent,
            start: at(a),
            end: at(b),
        };
        let spans = vec![
            span("replay", "", 0, 100),
            span("parse", "replay", 10, 30),
            // Overlapping children count once.
            span("solve", "replay", 20, 50),
            span("build", "solve", 20, 25),
            // Another request's child does not count.
            Span {
                req: 2,
                ..span("parse", "replay", 60, 90)
            },
        ];
        let own = self_times_us(&spans, "replay");
        assert_eq!(own.len(), 1);
        assert!((own[0] - 60.0).abs() < 1e-6, "{own:?}");
        assert!((self_times_us(&spans, "solve")[0] - 25.0).abs() < 1e-6);
        assert_eq!(self_times_us(&spans, "parse").len(), 2);
    }
}

//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, start, end, parent and request id. Root spans
//! wrap one call (a query, a mutation batch, an HTTP request, a load
//! step); child spans come from the phase timings that call returns
//! (`QueryRunStats`, `MutationPhases`). Those timings are durations
//! only, so children are laid end to end from the parent's start in
//! pipeline order. Spans stay in memory and are written out at the end
//! of the run.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use parj_core::{MutationPhases, QueryRunStats};

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span buffer. Ids are unique across buffers built with
/// distinct `lane`s, so buffers merge without renumbering.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    next: u64,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new(epoch: Instant, lane: u64) -> Trace {
        Trace {
            epoch,
            next: (lane << 40) + 1,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the run's trace epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn span(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.next;
        self.next += 1;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }

    /// Lays `(name, micros)` children end to end from `start_ns`.
    fn children(
        &mut self,
        parent: u64,
        request: u64,
        start_ns: u64,
        parts: &[(&'static str, u64)],
    ) {
        let mut at = start_ns;
        for &(name, micros) in parts {
            if micros == 0 {
                continue;
            }
            let end = at + micros * 1_000;
            self.span(name, parent, request, at, end);
            at = end;
        }
    }

    /// Engine phase children of one query call.
    pub fn query_phases(&mut self, parent: u64, request: u64, start_ns: u64, s: &QueryRunStats) {
        self.children(
            parent,
            request,
            start_ns,
            &[
                ("engine.parse", s.phases.parse_micros),
                ("engine.translate", s.phases.translate_micros),
                ("engine.cache_lookup", s.phases.cache_lookup_micros),
                ("engine.optimize", s.phases.optimize_micros),
                ("engine.execute", s.exec_micros),
                ("engine.decode", s.decode_micros),
            ],
        );
    }

    /// Delta phase children of one mutation batch.
    pub fn mutation_phases(
        &mut self,
        parent: u64,
        request: u64,
        start_ns: u64,
        p: &MutationPhases,
    ) {
        self.children(
            parent,
            request,
            start_ns,
            &[
                ("delta.encode", p.encode_micros),
                ("delta.apply", p.apply_micros),
                ("delta.compact", p.compact_micros),
                ("delta.invalidate", p.invalidate_micros),
            ],
        );
    }

    pub fn absorb(&mut self, other: Trace) {
        self.spans.extend(other.spans);
    }

    /// Share of the root spans named in `roots` that no direct child
    /// covers, pooled over all of them.
    pub fn unattributed_share(&self, roots: &[&str]) -> f64 {
        use std::collections::HashMap;
        let mut covered: HashMap<u64, u64> = HashMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                *covered.entry(s.parent).or_default() += s.end_ns - s.start_ns;
            }
        }
        let (mut total, mut bare) = (0u64, 0u64);
        for s in self
            .spans
            .iter()
            .filter(|s| s.parent == 0 && roots.contains(&s.name))
        {
            let d = s.end_ns - s.start_ns;
            total += d;
            bare += d.saturating_sub(covered.get(&s.id).copied().unwrap_or(0));
        }
        crate::stats::ratio(bare as f64, total as f64)
    }

    /// One JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_cover_their_parent() {
        let mut t = Trace::new(Instant::now(), 0);
        let root = t.span("request", 0, 1, 0, 10_000);
        let stats = QueryRunStats {
            exec_micros: 6,
            decode_micros: 2,
            ..QueryRunStats::default()
        };
        t.query_phases(root, 1, 0, &stats);
        assert!((t.unattributed_share(&["request"]) - 0.2).abs() < 1e-9);
        assert_eq!(t.spans.len(), 3);
    }
}

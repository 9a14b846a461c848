//! In-memory spans around calls into each layer's public functions.
//!
//! A span is name, start, end and the span that caused it; spans of one job
//! share the job fingerprint as `tag`.  Spans are kept in memory and written
//! out as JSONL when the run ends.  Self time is a span's duration minus the
//! part of that interval its child spans cover.

use std::time::Instant;

/// One closed span.  Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub tag: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn duration_ms(&self) -> f64 {
        self.duration_ns() as f64 / 1e6
    }
}

/// Collects spans on one thread; recorders of other threads are merged in
/// with [`Recorder::adopt`].
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder::with_epoch(Instant::now())
    }

    /// A recorder sharing another's clock origin (for a second thread).
    pub fn with_epoch(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &str, parent: Option<usize>, tag: &str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            tag: tag.to_string(),
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Close a span; returns its duration in milliseconds.
    pub fn close(&mut self, id: usize) -> f64 {
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].duration_ms()
    }

    /// Rename and retag a span once its outcome is known (a cell's cache
    /// hit/miss shows only in the counters after it ran).
    pub fn retag(&mut self, id: usize, tag: &str) {
        self.spans[id].tag = tag.to_string();
    }

    /// Merge the spans of another recorder (same epoch) under `parent`:
    /// its root spans become children of `parent`, ids are shifted.
    pub fn adopt(&mut self, other: Recorder, parent: Option<usize>) {
        let shift = self.spans.len();
        for mut span in other.spans {
            span.id += shift;
            span.parent = match span.parent {
                Some(p) => Some(p + shift),
                None => parent,
            };
            self.spans.push(span);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per span, in id order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = match s.parent {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"name\":{},\"tag\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
                s.id,
                parent,
                mobile_congest::harness::json::json_str(&s.name),
                mobile_congest::harness::json::json_str(&s.tag),
                s.start_ns,
                s.end_ns,
            ));
        }
        out
    }
}

/// Self time of every span, in id order: duration minus the union of its
/// children's intervals (clipped to the span, so overlapping siblings — a
/// reader thread beside a submitter — are not subtracted twice).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in intervals.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            tag: String::new(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // run [0,100] ⊃ a [10,40] ⊃ a1 [15,25]; run ⊃ b [50,90].
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(1), 15, 25),
            span(3, Some(0), 50, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn overlapping_siblings_are_covered_once_and_clipped_to_the_parent() {
        // Children [10,60] and [40,80] overlap; [90,130] sticks out.
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 60),
            span(2, Some(0), 40, 80),
            span(3, Some(0), 90, 130),
        ];
        // Covered: [10,80] = 70 and [90,100] = 10.
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn recorder_nests_adopts_and_serialises() {
        let mut rec = Recorder::new();
        let root = rec.open("run", None, "");
        let cell = rec.open("cell", Some(root), "clique");
        rec.close(cell);
        rec.retag(cell, "clique hit");
        let mut other = Recorder::with_epoch(rec.epoch());
        let read = other.open("read", None, "fp");
        let inner = other.open("parse", Some(read), "fp");
        other.close(inner);
        other.close(read);
        rec.adopt(other, Some(root));
        rec.close(root);
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(
            (spans[1].parent, spans[1].tag.as_str()),
            (Some(root), "clique hit")
        );
        assert_eq!(
            spans[2].parent,
            Some(root),
            "adopted roots hang under the parent"
        );
        assert_eq!(
            spans[3].parent,
            Some(2),
            "adopted children keep their parent"
        );
        assert!(spans[0].end_ns >= spans[3].end_ns);
        let jsonl = rec.to_jsonl();
        assert_eq!(jsonl.lines().count(), 4);
        let first = mobile_congest::harness::json::parse(jsonl.lines().next().unwrap()).unwrap();
        assert_eq!(first.get("name").and_then(|v| v.as_str()), Some("run"));
    }
}

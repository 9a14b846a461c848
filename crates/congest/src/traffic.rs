//! Per-round message traffic, stored as a flat reusable word arena.
//!
//! A [`Traffic`] value holds, for every directed arc of the communication
//! graph, the (optional) payload sent over that arc in a single round.  This is
//! the unit that flows through the network: protocols build a `Traffic`, the
//! network lets the adversary interpose on it, and the (possibly corrupted)
//! `Traffic` is what the receivers observe.
//!
//! # Representation
//!
//! The seed engine stored one `Option<Vec<u64>>` per arc — every message was
//! its own heap allocation, rebuilt every round.  `Traffic` now keeps a single
//! flat `words` arena plus one fixed-size span record per arc; sending copies
//! the payload words into the arena, and [`Traffic::clear`] /
//! [`Traffic::begin_round`] recycle both buffers without releasing their
//! capacity.  A round loop that reuses one `Traffic` therefore performs **no
//! steady-state allocations**, which is what the campaign engine’s ≥2×
//! round-throughput win comes from (the bench package measures the round
//! engine as `congest.exchange_ns_per_arc_word`).
//!
//! Re-sending on an arc reuses its span in place when the new payload fits and
//! appends to the arena otherwise; superseded words are reclaimed at the next
//! `clear`.  All logical accessors ([`Traffic::get_arc`], equality, diffs)
//! see only the live spans.

use netgraph::{ArcId, Graph, NodeId};

/// A message payload: a short sequence of machine words.
///
/// The CONGEST model allows `B = O(log n)` bits per edge per round; the
/// simulator treats one `u64` word as `Θ(log n)` bits and reports how many
/// bandwidth-normalised rounds a payload of `w` words would cost.
pub type Payload = Vec<u64>;

/// Per-node protocol output: an arbitrary word sequence.
pub type Output = Vec<u64>;

/// Span of one arc's payload inside the word arena.
///
/// `len_plus_one == 0` encodes "no message"; otherwise the payload is
/// `words[off .. off + len_plus_one - 1]` (so empty-but-present payloads are
/// distinguishable from absent ones, as with the seed's `Option<Vec>`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Span {
    off: u32,
    len_plus_one: u32,
}

impl Span {
    #[inline]
    fn len(self) -> usize {
        (self.len_plus_one as usize).saturating_sub(1)
    }
}

/// The messages sent over every directed arc in one communication round.
#[derive(Debug, Default)]
pub struct Traffic {
    /// Per-arc span into `words` (`len_plus_one == 0` ⇒ no message).
    spans: Vec<Span>,
    /// The shared word arena all present payloads live in.
    words: Vec<u64>,
}

impl Clone for Traffic {
    fn clone(&self) -> Self {
        Traffic {
            spans: self.spans.clone(),
            words: self.words.clone(),
        }
    }

    /// Buffer-reusing clone: compilers that need a pristine copy of the sent
    /// traffic each round (`received.clone_from(&sent)`) keep both arenas'
    /// capacity across rounds.
    fn clone_from(&mut self, source: &Self) {
        self.spans.clone_from(&source.spans);
        self.words.clone_from(&source.words);
    }
}

impl Traffic {
    /// Empty traffic for a graph (no messages on any arc).
    pub fn new(g: &Graph) -> Self {
        Traffic {
            spans: vec![Span::default(); g.arc_count()],
            words: Vec::new(),
        }
    }

    /// Number of arcs (2·m).
    pub fn arc_slots(&self) -> usize {
        self.spans.len()
    }

    /// Drop every message, keeping the arc slots and all buffer capacity.
    pub fn clear(&mut self) {
        self.spans.fill(Span::default());
        self.words.clear();
    }

    /// Prepare this buffer for a fresh round on `g`: drop every message and
    /// (re)size the arc slots to `g.arc_count()`, reusing all capacity.
    /// This is what [`crate::algorithm::CongestAlgorithm::send_into`]
    /// implementations call first.
    pub fn begin_round(&mut self, g: &Graph) {
        self.spans.clear();
        self.spans.resize(g.arc_count(), Span::default());
        self.words.clear();
    }

    /// Allocated capacity of the word arena, in words.  Exposed so
    /// buffer-reuse tests can assert that a steady-state round loop stops
    /// allocating (a `Vec` only reallocates to grow).
    pub fn word_capacity(&self) -> usize {
        self.words.capacity()
    }

    /// Copy `payload` into the arc's slot, reusing the existing span when the
    /// new payload fits.
    fn write_arc(&mut self, arc: ArcId, payload: &[u64]) {
        assert!(
            arc < self.spans.len(),
            "arc {arc} out of range for {} slots",
            self.spans.len()
        );
        let span = self.spans[arc];
        let off = if span.len_plus_one != 0 && payload.len() <= span.len() {
            span.off as usize
        } else {
            self.words.len()
        };
        if off == self.words.len() {
            // Strict bound: `len_plus_one = len + 1` must also fit in u32.
            assert!(
                off + payload.len() < u32::MAX as usize,
                "traffic word arena overflow"
            );
            self.words.extend_from_slice(payload);
        } else {
            self.words[off..off + payload.len()].copy_from_slice(payload);
        }
        self.spans[arc] = Span {
            off: off as u32,
            len_plus_one: payload.len() as u32 + 1,
        };
    }

    /// Set the message sent from `from` to `to`.
    ///
    /// # Panics
    ///
    /// Panics if `(from, to)` is not an edge of the graph.
    pub fn send(&mut self, g: &Graph, from: NodeId, to: NodeId, payload: impl AsRef<[u64]>) {
        let arc = g
            .arc_between(from, to)
            .unwrap_or_else(|| panic!("({from},{to}) is not an edge"));
        self.write_arc(arc, payload.as_ref());
    }

    /// The message sent from `from` to `to`, if any.
    pub fn get(&self, g: &Graph, from: NodeId, to: NodeId) -> Option<&[u64]> {
        let arc = g.arc_between(from, to)?;
        self.get_arc(arc)
    }

    /// The message on a specific arc, if any.
    #[inline]
    pub fn get_arc(&self, arc: ArcId) -> Option<&[u64]> {
        let span = *self.spans.get(arc)?;
        if span.len_plus_one == 0 {
            None
        } else {
            let off = span.off as usize;
            Some(&self.words[off..off + span.len()])
        }
    }

    /// The message on a specific arc for rewriting in place at its current
    /// length — the one-time-pad compilers XOR their keystream straight into
    /// the arena through this instead of copying each payload out and back.
    #[inline]
    pub fn arc_mut(&mut self, arc: ArcId) -> Option<&mut [u64]> {
        let span = *self.spans.get(arc)?;
        if span.len_plus_one == 0 {
            None
        } else {
            let off = span.off as usize;
            Some(&mut self.words[off..off + span.len()])
        }
    }

    /// Overwrite the message on a specific arc (used by the adversary).
    ///
    /// # Panics
    ///
    /// Panics if `arc` is out of range.
    pub fn set_arc(&mut self, arc: ArcId, payload: Option<&[u64]>) {
        match payload {
            Some(p) => self.write_arc(arc, p),
            None => {
                assert!(
                    arc < self.spans.len(),
                    "arc {arc} out of range for {} slots",
                    self.spans.len()
                );
                self.spans[arc] = Span::default();
            }
        }
    }

    /// Copy the message on `from` (or its absence) onto `to`, within the
    /// arena: in place when it fits `to`'s span, appended otherwise.
    ///
    /// # Panics
    ///
    /// Panics if either arc is out of range.
    pub(crate) fn copy_arc(&mut self, from: ArcId, to: ArcId) {
        let (src, dst) = (self.spans[from], self.spans[to]);
        if src.len_plus_one == 0 {
            self.spans[to] = Span::default();
            return;
        }
        let (start, len) = (src.off as usize, src.len());
        let off = if dst.len_plus_one != 0 && len <= dst.len() {
            self.words.copy_within(start..start + len, dst.off as usize);
            dst.off
        } else {
            let off = self.words.len();
            assert!(off + len < u32::MAX as usize, "traffic word arena overflow");
            self.words.extend_from_within(start..start + len);
            off as u32
        };
        self.spans[to] = Span {
            off,
            len_plus_one: src.len_plus_one,
        };
    }

    /// Iterate over all present messages as `(arc, payload)`.
    pub fn iter_present(&self) -> impl Iterator<Item = (ArcId, &[u64])> {
        self.spans.iter().enumerate().filter_map(|(a, span)| {
            if span.len_plus_one == 0 {
                None
            } else {
                let off = span.off as usize;
                Some((a, &self.words[off..off + span.len()]))
            }
        })
    }

    /// Iterate over all present messages as `(arc, payload length)`, reading
    /// only the spans — the per-round bookkeeping (metrics, traffic-weighing
    /// adversaries) needs lengths, never the words.
    pub fn iter_lens(&self) -> impl Iterator<Item = (ArcId, usize)> + '_ {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, span)| span.len_plus_one != 0)
            .map(|(a, span)| (a, span.len()))
    }

    /// Number of non-empty messages.
    #[cfg(test)]
    pub(crate) fn message_count(&self) -> usize {
        self.spans.iter().filter(|s| s.len_plus_one != 0).count()
    }

    /// Largest payload length (in words) over all messages, 0 if empty.
    pub fn max_words(&self) -> usize {
        self.spans.iter().map(|s| s.len()).max().unwrap_or(0)
    }

    /// Iterate the messages *received by* node `v` as `(sender, payload)`
    /// without copying, walking the graph's CSR index.
    pub fn inbox<'a>(
        &'a self,
        g: &'a Graph,
        v: NodeId,
    ) -> impl Iterator<Item = (NodeId, &'a [u64])> + 'a {
        g.csr()
            .neighbors(v)
            .iter()
            .filter_map(move |entry| self.get_arc(entry.arc_in).map(|p| (entry.neighbor, p)))
    }

    /// Whether two traffic snapshots agree on every arc.
    pub fn agrees_with(&self, other: &Traffic) -> bool {
        self == other
    }
}

/// Logical equality: same per-arc messages, regardless of arena layout.
impl PartialEq for Traffic {
    fn eq(&self, other: &Self) -> bool {
        let arcs = self.spans.len().max(other.spans.len());
        (0..arcs).all(|a| self.get_arc(a) == other.get_arc(a))
    }
}

impl Eq for Traffic {}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::generators;

    #[test]
    fn send_and_receive() {
        let g = generators::path(3);
        let mut t = Traffic::new(&g);
        t.send(&g, 0, 1, vec![42]);
        t.send(&g, 2, 1, [7, 8]);
        assert_eq!(t.get(&g, 0, 1), Some(&[42u64][..]));
        assert_eq!(t.get(&g, 1, 0), None);
        assert_eq!(t.message_count(), 2);
        assert_eq!(t.max_words(), 2);
        let inbox: Vec<(NodeId, &[u64])> = t.inbox(&g, 1).collect();
        assert_eq!(inbox.len(), 2);
        assert!(inbox.contains(&(0, &[42][..])));
        assert!(inbox.contains(&(2, &[7, 8][..])));
        assert!(t.inbox(&g, 0).next().is_none());
    }

    #[test]
    #[should_panic]
    fn send_on_non_edge_panics() {
        let g = generators::path(3);
        let mut t = Traffic::new(&g);
        t.send(&g, 0, 2, vec![1]);
    }

    #[test]
    fn diff_and_agreement() {
        let g = generators::cycle(4);
        let mut a = Traffic::new(&g);
        let mut b = Traffic::new(&g);
        assert!(a.agrees_with(&b));
        a.send(&g, 0, 1, vec![1]);
        b.send(&g, 0, 1, vec![1]);
        assert!(a.agrees_with(&b));
        b.send(&g, 1, 2, vec![9]);
        assert!(!a.agrees_with(&b));
    }

    #[test]
    fn arc_level_access() {
        let g = generators::path(2);
        let mut t = Traffic::new(&g);
        let arc = g.arc_between(1, 0).unwrap();
        t.set_arc(arc, Some(&[5]));
        assert_eq!(t.get_arc(arc), Some(&[5u64][..]));
        assert_eq!(t.get(&g, 1, 0), Some(&[5u64][..]));
        t.arc_mut(arc).expect("message present")[0] ^= 1;
        assert_eq!(t.get_arc(arc), Some(&[4u64][..]));
        assert_eq!(t.arc_mut(arc ^ 1), None);
        t.set_arc(arc, None);
        assert_eq!(t.message_count(), 0);
        assert_eq!(t.arc_mut(arc), None);
    }

    #[test]
    fn empty_payload_is_present_but_empty() {
        let g = generators::path(2);
        let mut t = Traffic::new(&g);
        t.send(&g, 0, 1, Vec::<u64>::new());
        assert_eq!(t.get(&g, 0, 1), Some(&[][..]));
        assert_eq!(t.message_count(), 1);
        assert_eq!(t.max_words(), 0);
    }

    #[test]
    fn overwrites_reuse_spans_and_equality_is_logical() {
        let g = generators::path(3);
        let mut a = Traffic::new(&g);
        a.send(&g, 0, 1, vec![1, 2, 3]);
        a.send(&g, 0, 1, vec![9]); // shrinking overwrite reuses the span
        let mut b = Traffic::new(&g);
        b.send(&g, 2, 1, vec![5]); // different arena layout
        b.send(&g, 0, 1, vec![9]);
        b.set_arc(g.arc_between(2, 1).unwrap(), None);
        assert_eq!(a, b, "equality must ignore arena layout");
        a.send(&g, 0, 1, vec![4, 5, 6, 7]); // growing overwrite appends
        assert_eq!(a.get(&g, 0, 1), Some(&[4u64, 5, 6, 7][..]));
    }

    #[test]
    fn round_reuse_stops_allocating() {
        let g = generators::complete(8);
        let mut t = Traffic::new(&g);
        let fill = |t: &mut Traffic| {
            for e in g.edges() {
                t.send(&g, e.u, e.v, [e.u as u64, e.v as u64]);
                t.send(&g, e.v, e.u, [e.v as u64]);
            }
        };
        // Warm-up round grows the arena once.
        t.begin_round(&g);
        fill(&mut t);
        let cap = t.word_capacity();
        assert!(cap > 0);
        for _ in 0..100 {
            t.begin_round(&g);
            fill(&mut t);
        }
        assert_eq!(
            t.word_capacity(),
            cap,
            "steady-state rounds must not grow the arena"
        );
    }
}

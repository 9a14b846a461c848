//! Execution metrics: rounds, messages, congestion, bandwidth, corruption.
//!
//! Every experiment reports these alongside the protocol's output so the
//! round-overhead shapes claimed by the paper's theorems can be compared
//! against measurements.

use crate::traffic::Traffic;
use netgraph::{ArcId, EdgeId, Graph};

/// Counters accumulated over an execution on a [`crate::network::Network`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Number of communication rounds executed (calls to `exchange`).
    pub rounds: usize,
    /// Bandwidth-normalised rounds: each exchange is charged
    /// `ceil(max payload words / bandwidth_words)`.
    pub bandwidth_rounds: usize,
    /// Total number of (non-empty) messages sent.
    pub messages: usize,
    /// Total number of payload words sent.
    pub words: usize,
    /// Per-edge count of messages (both directions) — the congestion profile.
    pub edge_messages: Vec<usize>,
    /// Number of edge-rounds the adversary controlled.
    pub corrupted_edge_rounds: usize,
    /// Number of individual messages the adversary actually altered or dropped.
    pub corrupted_messages: usize,
}

impl Metrics {
    /// Fresh metrics for a graph.
    pub fn new(g: &Graph) -> Self {
        Metrics {
            edge_messages: vec![0; g.edge_count()],
            ..Default::default()
        }
    }

    /// Maximum number of messages that crossed any single edge (the congestion
    /// of the executed algorithm, in the paper's sense).
    pub fn max_edge_congestion(&self) -> usize {
        self.edge_messages.iter().copied().max().unwrap_or(0)
    }

    /// Compress the dense per-edge congestion profile into percentiles plus
    /// the `k` hottest edges.  `edge_messages` is `Θ(m)` and blows up JSONL
    /// output on large graphs; this summary is what reports should carry.
    pub fn congestion_summary(&self, k: usize) -> CongestionSummary {
        let mut sorted = self.edge_messages.clone();
        sorted.sort_unstable();
        // Nearest-rank percentile: index ⌈p·n⌉ − 1 on the sorted counts.
        let pct = |p: f64| -> usize {
            if sorted.is_empty() {
                return 0;
            }
            let rank = (p * sorted.len() as f64).ceil() as usize;
            sorted[rank.clamp(1, sorted.len()) - 1]
        };
        let mut by_load: Vec<EdgeId> = (0..self.edge_messages.len()).collect();
        // Deterministic: ties broken by edge id.
        by_load.sort_by_key(|&e| (std::cmp::Reverse(self.edge_messages[e]), e));
        let topk = by_load
            .into_iter()
            .take(k)
            .map(|e| (e, self.edge_messages[e]))
            .filter(|&(_, c)| c > 0)
            .collect();
        CongestionSummary {
            p50: pct(0.50),
            p90: pct(0.90),
            p99: pct(0.99),
            max: *sorted.last().unwrap_or(&0),
            topk,
        }
    }

    pub(crate) fn record_exchange(&mut self, traffic: &Traffic, bandwidth_words: usize) {
        self.rounds += 1;
        // One walk over the spans; the word arena is never touched.
        self.record_volume(traffic.iter_lens(), bandwidth_words, 1);
    }

    /// Charge the traffic volume of `times` rounds that each carried the
    /// messages `lens` lists as `(arc, payload length)`.  Messages, words,
    /// bandwidth rounds and per-edge counts are all sums over rounds, so
    /// `times` identical rounds settle in one walk; the round counter is not
    /// touched (see [`crate::network::PatternRounds`]).
    #[inline]
    pub(crate) fn record_volume(
        &mut self,
        lens: impl Iterator<Item = (ArcId, usize)>,
        bandwidth_words: usize,
        times: usize,
    ) {
        let mut max_words = 0;
        for (arc, len) in lens {
            max_words = max_words.max(len);
            self.messages += times;
            self.words += times * len;
            self.edge_messages[Graph::edge_of(arc)] += times;
        }
        self.bandwidth_rounds += times * max_words.div_ceil(bandwidth_words).max(1);
    }

    pub(crate) fn record_corruption(&mut self, edges: &[EdgeId], altered_messages: usize) {
        self.corrupted_edge_rounds += edges.len();
        self.corrupted_messages += altered_messages;
    }
}

/// Bounded congestion digest of [`Metrics::edge_messages`]: nearest-rank
/// percentiles over all edges plus the `k` hottest `(edge, count)` pairs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CongestionSummary {
    /// Median per-edge message count.
    pub p50: usize,
    /// 90th-percentile per-edge message count.
    pub p90: usize,
    /// 99th-percentile per-edge message count.
    pub p99: usize,
    /// Hottest edge's message count (= [`Metrics::max_edge_congestion`]).
    pub max: usize,
    /// The `k` hottest edges with their counts, hottest first (ties broken by
    /// edge id; zero-load edges omitted).
    pub topk: Vec<(EdgeId, usize)>,
}

impl CongestionSummary {
    /// Mean load over the retained top-k edges (0.0 when none carried traffic).
    pub fn topk_mean(&self) -> f64 {
        if self.topk.is_empty() {
            return 0.0;
        }
        self.topk.iter().map(|&(_, c)| c as f64).sum::<f64>() / self.topk.len() as f64
    }
}

impl std::fmt::Display for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rounds={} bw_rounds={} msgs={} words={} max_cong={} corrupted_edge_rounds={} corrupted_msgs={}",
            self.rounds,
            self.bandwidth_rounds,
            self.messages,
            self.words,
            self.max_edge_congestion(),
            self.corrupted_edge_rounds,
            self.corrupted_messages,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::generators;

    #[test]
    fn record_exchange_counts() {
        let g = generators::path(3);
        let mut m = Metrics::new(&g);
        let mut t = Traffic::new(&g);
        t.send(&g, 0, 1, vec![1, 2, 3]);
        t.send(&g, 1, 0, vec![4]);
        m.record_exchange(&t, 2);
        assert_eq!(m.rounds, 1);
        assert_eq!(m.bandwidth_rounds, 2); // 3 words / 2 per round
        assert_eq!(m.messages, 2);
        assert_eq!(m.words, 4);
        assert_eq!(m.edge_messages[g.edge_between(0, 1).unwrap()], 2);
        assert_eq!(m.max_edge_congestion(), 2);
    }

    #[test]
    fn empty_exchange_still_counts_a_round() {
        let g = generators::path(2);
        let mut m = Metrics::new(&g);
        m.record_exchange(&Traffic::new(&g), 2);
        assert_eq!(m.rounds, 1);
        assert_eq!(m.bandwidth_rounds, 1);
        assert_eq!(m.messages, 0);
    }

    #[test]
    fn single_pass_matches_the_two_pass_fold() {
        // The pre-single-pass `record_exchange`, kept as the oracle.
        fn two_pass(m: &mut Metrics, traffic: &Traffic, bandwidth_words: usize) {
            m.rounds += 1;
            let max_words = traffic.max_words();
            m.bandwidth_rounds += max_words.div_ceil(bandwidth_words).max(1);
            for (arc, payload) in traffic.iter_present() {
                m.messages += 1;
                m.words += payload.len();
                m.edge_messages[Graph::edge_of(arc)] += 1;
            }
        }
        let g = generators::complete(5);
        let mut mixed = Traffic::new(&g);
        mixed.send(&g, 0, 1, [1, 2, 3, 4, 5]);
        mixed.send(&g, 1, 0, Vec::<u64>::new()); // empty but present
        mixed.send(&g, 2, 3, [7]);
        mixed.send(&g, 4, 0, [8, 9]);
        mixed.set_arc(g.arc_between(2, 3).unwrap(), None); // present, then dropped
        let only_empty = {
            let mut t = Traffic::new(&g);
            t.send(&g, 3, 4, Vec::<u64>::new());
            t
        };
        let idle = Traffic::new(&g);
        for bandwidth_words in [1, 2, 3] {
            let (mut got, mut want) = (Metrics::new(&g), Metrics::new(&g));
            for t in [&mixed, &idle, &only_empty, &mixed] {
                got.record_exchange(t, bandwidth_words);
                two_pass(&mut want, t, bandwidth_words);
            }
            assert_eq!(got, want, "bandwidth_words = {bandwidth_words}");
            // An empty round, and a round of empty payloads, still cost one.
            assert_eq!(
                got.bandwidth_rounds,
                2 * 5usize.div_ceil(bandwidth_words) + 2
            );
            assert_eq!(got.messages, 2 * 3 + 1);
        }
    }

    #[test]
    fn corruption_counters() {
        let g = generators::path(3);
        let mut m = Metrics::new(&g);
        m.record_corruption(&[0, 1], 3);
        m.record_corruption(&[1], 1);
        assert_eq!(m.corrupted_edge_rounds, 3);
        assert_eq!(m.corrupted_messages, 4);
    }

    #[test]
    fn congestion_summary_percentiles_and_topk() {
        let g = generators::complete(5); // 10 edges
        let mut m = Metrics::new(&g);
        m.edge_messages = vec![0, 1, 1, 2, 2, 3, 3, 4, 9, 20];
        let s = m.congestion_summary(3);
        assert_eq!(s.max, 20);
        assert_eq!(s.p50, 2);
        assert_eq!(s.p90, 9);
        assert_eq!(s.p99, 20);
        assert_eq!(s.topk, vec![(9, 20), (8, 9), (7, 4)]);
        assert!((s.topk_mean() - 11.0).abs() < 1e-9);
    }

    #[test]
    fn congestion_summary_ties_break_by_edge_id() {
        let g = generators::path(4); // 3 edges
        let mut m = Metrics::new(&g);
        m.edge_messages = vec![5, 5, 5];
        let s = m.congestion_summary(2);
        assert_eq!(s.topk, vec![(0, 5), (1, 5)]);
    }

    #[test]
    fn congestion_summary_empty_and_idle_edges() {
        let m = Metrics::default();
        let s = m.congestion_summary(4);
        assert_eq!((s.p50, s.p90, s.p99, s.max), (0, 0, 0, 0));
        assert!(s.topk.is_empty());
        assert_eq!(s.topk_mean(), 0.0);
        let g = generators::path(3);
        let idle = Metrics::new(&g);
        assert!(idle.congestion_summary(4).topk.is_empty());
    }

    #[test]
    fn display_is_nonempty() {
        let g = generators::path(2);
        let m = Metrics::new(&g);
        assert!(!format!("{m}").is_empty());
    }
}

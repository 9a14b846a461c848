//! The campaign compile-artifact cache: one [`Verdict`] per
//! `(GraphDef, CompilerDef)` pair, shared across the worker pool and across
//! `campaignd` batches.
//!
//! A campaign grid runs every compiler against every graph under several
//! adversaries and seed repetitions, but [`Compiler::prepare`] — the
//! compiler's judgement of the graph, then tree packings, wrapped compiler
//! instances — is keyed by the `(graph, compiler)` pair alone.  The cache
//! computes each pair's verdict **exactly once** (the preparing worker holds
//! the pair's shard lock, so concurrent workers block rather than duplicate
//! the work) and hands every other cell of the pair a clone: an `Arc` share
//! of the artifacts, or the typed error.
//!
//! The graph the artifacts carry is a `Graph` clone, a reference-count bump,
//! so it is not what the cache saves: the graph's structural memos (CSR
//! index, minimum cut, diameter) are shared by every clone of the campaign's
//! graph, cached or not, and are computed once per graph by whichever cell
//! or `prepare` asks first.
//!
//! Keys are the **spec-layer canonical JSON** of the two defs
//! ([`crate::spec::graph_to_json`] / [`crate::spec::compiler_to_json`]), not
//! a hash — collisions are impossible by construction, so a hit can never
//! hand a cell the wrong artifacts.  [`Campaign::from_spec`](crate::Campaign::from_spec),
//! the only way to make a campaign, computes the keys from the very defs its
//! cells run, so campaigns sharing one cache (as `campaignd` shares it) can
//! never be served another grid's verdict.
//!
//! Rejections are verdicts like any other ([`ScenarioError`] is `Clone`): a
//! structurally incompatible pair — the clique compiler on a torus, say —
//! costs one `prepare` for the whole campaign, and the cached error *is* the
//! outcome of every cell of the pair (a role mismatch aside, which
//! `ScenarioBuilder::build` ranks first), exactly what the uncached path's
//! own `prepare` returns.
//!
//! Determinism: prepared artifacts are a pure function of `(graph,
//! compiler)`, so campaign fingerprints are byte-identical with the cache on
//! or off at any thread count (regression-tested in this module; the bench
//! package's `harness.cache_*` probes measure it).  Traced campaigns bypass
//! the cache — `prepare` emits packing spans into the cell's event stream,
//! and a cache hit would elide them from all but the first cell.

use congest_sim::scenario::{CompileArtifacts, Compiler, ScenarioError, Verdict};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of independently locked shards.  Sixteen keeps lock contention
/// negligible at any realistic worker count while staying cheap to allocate.
const SHARDS: usize = 16;

/// A sharded, insert-once map from `(GraphDef, CompilerDef)` canonical JSON
/// keys to [`Verdict`]s, with hit/miss counters.
///
/// Entries are never evicted or replaced — once a key is populated it is
/// read-only, which is what makes handing `Arc` shares to a worker pool
/// sound without any further synchronisation.
pub struct ArtifactCache {
    shards: Vec<Mutex<HashMap<String, Verdict>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for ArtifactCache {
    fn default() -> Self {
        ArtifactCache::new()
    }
}

impl std::fmt::Debug for ArtifactCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactCache")
            .field("entries", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

impl ArtifactCache {
    /// An empty cache.
    pub fn new() -> Self {
        ArtifactCache {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The cache key for a `(graph, compiler)` pair of canonical-JSON def
    /// encodings.  The separator is a newline, which canonical JSON never
    /// contains raw, so distinct pairs always get distinct keys.
    pub fn pair_key(graph_json: &str, compiler_json: &str) -> String {
        format!("{graph_json}\n{compiler_json}")
    }

    fn shard(&self, key: &str) -> &Mutex<HashMap<String, Verdict>> {
        // FNV-1a over the key bytes picks the shard; any stable spread works.
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for &b in key.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        &self.shards[(h % SHARDS as u64) as usize]
    }

    /// The cached preparation for `key`, computing it via `prepare` on a
    /// miss.  The shard lock is held across the computation, so each key is
    /// prepared exactly once no matter how many workers race on it.
    pub fn get_or_prepare(
        &self,
        key: &str,
        prepare: impl FnOnce() -> Result<CompileArtifacts, ScenarioError>,
    ) -> Verdict {
        let mut shard = self.shard(key).lock().expect("artifact-cache shard lock");
        if let Some(cached) = shard.get(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return cached.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let outcome = prepare().map(Arc::new);
        shard.insert(key.to_string(), outcome.clone());
        outcome
    }

    /// [`ArtifactCache::get_or_prepare`] driving [`Compiler::prepare`] with a
    /// disabled tracer — the form the campaign engine uses (cached cells
    /// never trace; see the module docs).
    pub fn prepare_with(
        &self,
        key: &str,
        compiler: &dyn Compiler,
        graph: &netgraph::Graph,
    ) -> Verdict {
        self.get_or_prepare(key, || {
            compiler.prepare(graph, &mut obs::Tracer::disabled())
        })
    }

    /// Number of distinct `(graph, compiler)` pairs cached so far.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("artifact-cache shard lock").len())
            .sum()
    }

    /// Whether nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to run `prepare`.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Fraction of lookups served from the cache (`0.0` before any lookup).
    pub fn hit_rate(&self) -> f64 {
        let (h, m) = (self.hits() as f64, self.misses() as f64);
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_sim::scenario::Uncompiled;
    use netgraph::generators;

    #[test]
    fn each_key_prepares_exactly_once() {
        let cache = ArtifactCache::new();
        let g = generators::complete(6);
        let mut calls = 0;
        for _ in 0..5 {
            let out = cache.get_or_prepare("k", || {
                calls += 1;
                let mut tracer = obs::TraceSpec::off().build_tracer();
                Uncompiled.prepare(&g, &mut tracer)
            });
            assert!(out.is_ok());
        }
        assert_eq!(calls, 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 4);
        assert_eq!(cache.len(), 1);
        assert!((cache.hit_rate() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn failed_preparations_are_cached_and_replayed() {
        let cache = ArtifactCache::new();
        let err = ScenarioError::UnsupportedGraph {
            compiler: "clique(f=1)".into(),
            reason: "the clique compiler requires the complete graph".into(),
        };
        let mut calls = 0;
        for _ in 0..3 {
            let out = cache.get_or_prepare("bad", || {
                calls += 1;
                Err(err.clone())
            });
            assert_eq!(out.unwrap_err(), err);
        }
        assert_eq!(calls, 1, "the error must be cached, not recomputed");
    }

    #[test]
    fn distinct_keys_get_distinct_entries() {
        let cache = ArtifactCache::new();
        let g6 = generators::complete(6);
        let g8 = generators::complete(8);
        let a = cache
            .prepare_with("K6\nuncompiled", &Uncompiled, &g6)
            .unwrap();
        let b = cache
            .prepare_with("K8\nuncompiled", &Uncompiled, &g8)
            .unwrap();
        assert_eq!(a.graph().node_count(), 6);
        assert_eq!(b.graph().node_count(), 8);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn concurrent_lookups_share_one_preparation() {
        let cache = Arc::new(ArtifactCache::new());
        let g = generators::complete(8);
        let calls = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                let calls = Arc::clone(&calls);
                let g = &g;
                scope.spawn(move || {
                    let out = cache.get_or_prepare("shared", || {
                        calls.fetch_add(1, Ordering::Relaxed);
                        let mut tracer = obs::TraceSpec::off().build_tracer();
                        Uncompiled.prepare(g, &mut tracer)
                    });
                    assert!(out.is_ok());
                });
            }
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(cache.hits() + cache.misses(), 8);
        assert_eq!(cache.misses(), 1);
    }
}

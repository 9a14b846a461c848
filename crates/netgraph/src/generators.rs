//! Graph generators for the experiment suite.
//!
//! The paper's compilers target several graph families with different
//! connectivity/expansion guarantees:
//!
//! * the **complete graph** (CONGESTED CLIQUE compilers, Theorems 1.6 / 4.11),
//! * **expanders** with minimum degree `Ω(f/φ²)` (Theorems 1.7 / 4.12),
//! * general **`k`-edge-connected** graphs (Theorems 1.4, 3.5, 4.1),
//! * low-connectivity baselines (paths, cycles, grids) on which the secure
//!   unicast/broadcast experiments run.

use crate::graph::{Graph, NodeId};
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The graph families a [`GraphDef`] can name — the generator zoo as *data*
/// rather than function calls, so experiment grids can be written to disk,
/// diffed and resolved on another machine.
///
/// Each family maps to one generator function in this module; the meaning of
/// [`GraphDef::n`] and the named [`GraphDef::params`] entries per family is
/// documented on [`GraphDef::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphFamily {
    /// [`path`]: `n` nodes in a line.
    Path,
    /// [`cycle`]: `n` nodes in a ring.
    Cycle,
    /// [`complete`]: the clique `K_n`.
    Complete,
    /// [`grid`]: `n` rows × `cols` columns.
    Grid,
    /// [`torus`]: `n` rows × `cols` columns with wrap-around.
    Torus,
    /// [`circulant`]: `C_n(1..k)`.
    Circulant,
    /// [`hypercube`]: the `n`-dimensional cube.
    Hypercube,
    /// [`watts_strogatz`]: small world on `n` nodes, lattice degree `k`,
    /// rewiring probability `beta`, seeded internally.
    WattsStrogatz,
    /// [`expander_d_regular`]: seeded random `d`-regular expander on `n`
    /// nodes.
    ExpanderDRegular,
    /// [`ring_of_cliques`]: `n` cliques of `size` nodes joined in a ring.
    RingOfCliques,
    /// [`barbell`]: two `n`-cliques joined by a `path`-edge path.
    Barbell,
    /// [`wheel`]: hub plus an `(n-1)`-cycle.
    Wheel,
    /// [`complete_minus_matching`]: `K_n` minus a perfect matching.
    CompleteMinusMatching,
}

impl GraphFamily {
    /// Every family, in the stable registry order.
    pub const ALL: [GraphFamily; 13] = [
        GraphFamily::Path,
        GraphFamily::Cycle,
        GraphFamily::Complete,
        GraphFamily::Grid,
        GraphFamily::Torus,
        GraphFamily::Circulant,
        GraphFamily::Hypercube,
        GraphFamily::WattsStrogatz,
        GraphFamily::ExpanderDRegular,
        GraphFamily::RingOfCliques,
        GraphFamily::Barbell,
        GraphFamily::Wheel,
        GraphFamily::CompleteMinusMatching,
    ];

    /// The stable lowercase label used by serialized specs.
    pub fn label(self) -> &'static str {
        match self {
            GraphFamily::Path => "path",
            GraphFamily::Cycle => "cycle",
            GraphFamily::Complete => "complete",
            GraphFamily::Grid => "grid",
            GraphFamily::Torus => "torus",
            GraphFamily::Circulant => "circulant",
            GraphFamily::Hypercube => "hypercube",
            GraphFamily::WattsStrogatz => "watts-strogatz",
            GraphFamily::ExpanderDRegular => "expander-d-regular",
            GraphFamily::RingOfCliques => "ring-of-cliques",
            GraphFamily::Barbell => "barbell",
            GraphFamily::Wheel => "wheel",
            GraphFamily::CompleteMinusMatching => "complete-minus-matching",
        }
    }

    /// Inverse of [`GraphFamily::label`].
    pub fn from_label(label: &str) -> Option<GraphFamily> {
        GraphFamily::ALL.into_iter().find(|f| f.label() == label)
    }
}

/// Everything that can go wrong resolving a [`GraphDef`] into a [`Graph`]:
/// the generator assertions, surfaced as typed errors so a bad spec cell is a
/// reportable skip instead of a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphDefError {
    /// A named parameter the family requires is absent.
    MissingParam {
        /// The family's label.
        family: &'static str,
        /// The missing parameter name.
        param: &'static str,
    },
    /// The size/parameter combination violates a generator precondition.
    InvalidSize {
        /// The family's label.
        family: &'static str,
        /// Human-readable explanation (the generator's assertion, as data).
        reason: String,
    },
}

impl core::fmt::Display for GraphDefError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            GraphDefError::MissingParam { family, param } => {
                write!(f, "graph family `{family}` requires parameter `{param}`")
            }
            GraphDefError::InvalidSize { family, reason } => {
                write!(f, "graph family `{family}`: {reason}")
            }
        }
    }
}

impl std::error::Error for GraphDefError {}

/// A serializable description of one generated graph: the family, the primary
/// size `n`, named secondary parameters and a seed for the randomized
/// families.  Resolve it with [`GraphDef::build`]; the campaign zoos are
/// defined in terms of these defs so the data form and the runtime graphs
/// cannot drift.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphDef {
    /// Which generator to run.
    pub family: GraphFamily,
    /// The primary size parameter (nodes for most families; rows for
    /// grid/torus, dimension for the hypercube, cliques for the ring).
    pub n: usize,
    /// Named secondary parameters (`cols`, `k`, `d`, `beta`, `size`,
    /// `path`), in a stable order.
    pub params: Vec<(String, f64)>,
    /// Seed for the randomized families (ignored by deterministic ones).
    pub seed: u64,
}

impl GraphDef {
    /// A def with no secondary parameters.
    pub fn new(family: GraphFamily, n: usize) -> Self {
        GraphDef {
            family,
            n,
            params: Vec::new(),
            seed: 0,
        }
    }

    /// Attach a named secondary parameter (builder-style).
    pub fn with_param(mut self, name: &str, value: f64) -> Self {
        self.params.push((name.to_string(), value));
        self
    }

    /// Set the seed for the randomized families (builder-style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// `K_n`.
    pub fn complete(n: usize) -> Self {
        GraphDef::new(GraphFamily::Complete, n)
    }

    /// `C_n(1..k)`.
    pub fn circulant(n: usize, k: usize) -> Self {
        GraphDef::new(GraphFamily::Circulant, n).with_param("k", k as f64)
    }

    /// `rows × cols` grid.
    pub fn grid(rows: usize, cols: usize) -> Self {
        GraphDef::new(GraphFamily::Grid, rows).with_param("cols", cols as f64)
    }

    /// `rows × cols` torus.
    pub fn torus(rows: usize, cols: usize) -> Self {
        GraphDef::new(GraphFamily::Torus, rows).with_param("cols", cols as f64)
    }

    /// Seeded Watts–Strogatz small world.
    pub fn watts_strogatz(n: usize, k: usize, beta: f64, seed: u64) -> Self {
        GraphDef::new(GraphFamily::WattsStrogatz, n)
            .with_param("k", k as f64)
            .with_param("beta", beta)
            .with_seed(seed)
    }

    /// Seeded random `d`-regular expander.
    pub fn expander(n: usize, d: usize, seed: u64) -> Self {
        GraphDef::new(GraphFamily::ExpanderDRegular, n)
            .with_param("d", d as f64)
            .with_seed(seed)
    }

    /// Ring of `cliques` cliques of `size` nodes.
    pub fn ring_of_cliques(cliques: usize, size: usize) -> Self {
        GraphDef::new(GraphFamily::RingOfCliques, cliques).with_param("size", size as f64)
    }

    /// Two `clique`-cliques joined by a `path_len`-edge path.
    pub fn barbell(clique: usize, path_len: usize) -> Self {
        GraphDef::new(GraphFamily::Barbell, clique).with_param("path", path_len as f64)
    }

    /// Look up a named secondary parameter.
    pub fn param(&self, name: &str) -> Option<f64> {
        self.params.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    fn usize_param(&self, name: &'static str) -> Result<usize, GraphDefError> {
        let v = self.param(name).ok_or(GraphDefError::MissingParam {
            family: self.family.label(),
            param: name,
        })?;
        // Reject lossy coercions instead of silently truncating: a spec
        // saying `"k": -1` or `"cols": 4.7` must not build a quietly
        // different topology.
        if v.fract() != 0.0 || v < 0.0 || v > u32::MAX as f64 {
            return Err(self.invalid(format!(
                "parameter `{name}` must be a non-negative integer (got {v})"
            )));
        }
        Ok(v as usize)
    }

    fn invalid(&self, reason: impl Into<String>) -> GraphDefError {
        GraphDefError::InvalidSize {
            family: self.family.label(),
            reason: reason.into(),
        }
    }

    /// The display name campaign grids use for this graph, matching the
    /// historical hand-built zoo names (`K12`, `circ(18,4)`, `grid4x4`,
    /// `torus4x5`, `expander(24,8)`, `small-world(24,6)`,
    /// `ring-of-cliques(4,5)`, `barbell(5,2)`, …).
    pub fn display_name(&self) -> String {
        let p = |name: &str| self.param(name).unwrap_or(0.0) as usize;
        match self.family {
            GraphFamily::Path => format!("path{}", self.n),
            GraphFamily::Cycle => format!("cycle{}", self.n),
            GraphFamily::Complete => format!("K{}", self.n),
            GraphFamily::Grid => format!("grid{}x{}", self.n, p("cols")),
            GraphFamily::Torus => format!("torus{}x{}", self.n, p("cols")),
            GraphFamily::Circulant => format!("circ({},{})", self.n, p("k")),
            GraphFamily::Hypercube => format!("hcube({})", self.n),
            GraphFamily::WattsStrogatz => format!("small-world({},{})", self.n, p("k")),
            GraphFamily::ExpanderDRegular => format!("expander({},{})", self.n, p("d")),
            GraphFamily::RingOfCliques => format!("ring-of-cliques({},{})", self.n, p("size")),
            GraphFamily::Barbell => format!("barbell({},{})", self.n, p("path")),
            GraphFamily::Wheel => format!("wheel({})", self.n),
            GraphFamily::CompleteMinusMatching => format!("K{}-minus-M", self.n),
        }
    }

    /// Resolve the def into a concrete [`Graph`].
    ///
    /// Per-family conventions: `n` is the node count except for
    /// [`GraphFamily::Grid`]/[`GraphFamily::Torus`] (rows, with a `cols`
    /// param), [`GraphFamily::Hypercube`] (dimension),
    /// [`GraphFamily::RingOfCliques`] (cliques, with a `size` param) and
    /// [`GraphFamily::Barbell`] (clique size, with a `path` param).
    /// [`GraphFamily::Circulant`] takes `k`, [`GraphFamily::WattsStrogatz`]
    /// takes `k` + `beta` + the seed, [`GraphFamily::ExpanderDRegular`]
    /// takes `d` + the seed.  The generator assertions come back as typed
    /// [`GraphDefError`]s, never panics.
    pub fn build(&self) -> Result<Graph, GraphDefError> {
        match self.family {
            GraphFamily::Path => Ok(path(self.n)),
            GraphFamily::Cycle => {
                if self.n < 3 {
                    return Err(self.invalid("a cycle needs at least 3 nodes"));
                }
                Ok(cycle(self.n))
            }
            GraphFamily::Complete => Ok(complete(self.n)),
            GraphFamily::Grid => Ok(grid(self.n, self.usize_param("cols")?)),
            GraphFamily::Torus => {
                let cols = self.usize_param("cols")?;
                if self.n < 3 || cols < 3 {
                    return Err(self.invalid("a torus needs both dimensions >= 3"));
                }
                Ok(torus(self.n, cols))
            }
            GraphFamily::Circulant => {
                let k = self.usize_param("k")?;
                if 2 * k >= self.n {
                    return Err(self.invalid(format!("circulant requires 2k < n (k={k})")));
                }
                Ok(circulant(self.n, k))
            }
            GraphFamily::Hypercube => {
                if self.n >= 26 {
                    // 2^26 nodes is already far beyond any experiment; above
                    // ~2^63 the shift itself would overflow.
                    return Err(self.invalid("hypercube dimension must be below 26"));
                }
                Ok(hypercube(self.n))
            }
            GraphFamily::WattsStrogatz => {
                let k = self.usize_param("k")?;
                let beta = self.param("beta").ok_or(GraphDefError::MissingParam {
                    family: self.family.label(),
                    param: "beta",
                })?;
                if k < 2 || !k.is_multiple_of(2) {
                    return Err(self.invalid("k must be even and >= 2"));
                }
                if k >= self.n {
                    return Err(self.invalid("k must be smaller than n"));
                }
                let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
                Ok(watts_strogatz(&mut rng, self.n, k, beta))
            }
            GraphFamily::ExpanderDRegular => {
                let d = self.usize_param("d")?;
                if d >= self.n {
                    return Err(self.invalid("degree must be smaller than n"));
                }
                if !(self.n * d).is_multiple_of(2) {
                    return Err(self.invalid("n*d must be even"));
                }
                Ok(expander_d_regular(self.n, d, self.seed))
            }
            GraphFamily::RingOfCliques => {
                let size = self.usize_param("size")?;
                if self.n < 3 {
                    return Err(self.invalid("a ring needs at least 3 cliques"));
                }
                if size < 2 {
                    return Err(self.invalid("cliques need at least 2 nodes"));
                }
                Ok(ring_of_cliques(self.n, size))
            }
            GraphFamily::Barbell => {
                if self.n < 1 {
                    return Err(self.invalid("a barbell needs cliques of at least 1 node"));
                }
                Ok(barbell(self.n, self.usize_param("path")?))
            }
            GraphFamily::Wheel => {
                if self.n < 4 {
                    return Err(self.invalid("wheel needs at least 4 nodes"));
                }
                Ok(wheel(self.n))
            }
            GraphFamily::CompleteMinusMatching => Ok(complete_minus_matching(self.n)),
        }
    }

    /// Candidate defs exactly **one size step smaller**, for shrinkers that
    /// minimize a failing scenario along the graph axis (the red-team
    /// counterexample shrinker's `GraphDef` param descent).
    ///
    /// The descent order is: the primary size `n` first, then each integer
    /// secondary parameter in stored order.  Every step decrements by 1; when
    /// the one-step candidate violates a family constraint (Watts–Strogatz
    /// `k` parity, expander `n·d` parity, …) a two-step candidate is tried
    /// instead, so parity-constrained families still descend.  Every returned
    /// candidate [`build`](GraphDef::build)s successfully, keeps `n >= 2`,
    /// and keeps integer parameters `>= 1`; continuous parameters (`beta`)
    /// are left untouched.  Minimality for a shrinker is defined **relative
    /// to this set**: a def is graph-minimal when no candidate preserves its
    /// failure.
    pub fn shrink_candidates(&self) -> Vec<GraphDef> {
        let mut out: Vec<GraphDef> = Vec::new();
        let mut push_first_viable = |candidates: [Option<GraphDef>; 2]| {
            for def in candidates.into_iter().flatten() {
                if def.build().is_ok() {
                    out.push(def);
                    return;
                }
            }
        };
        // Primary size first: n-1, falling back to n-2 when parity or a
        // family constraint rules the one-step candidate out.
        let step_n = |dn: usize| -> Option<GraphDef> {
            (self.n >= dn + 2).then(|| {
                let mut def = self.clone();
                def.n = self.n - dn;
                def
            })
        };
        push_first_viable([step_n(1), step_n(2)]);
        // Then each integer secondary parameter, in stored order.
        for (i, (_, value)) in self.params.iter().enumerate() {
            if value.fract() != 0.0 {
                continue;
            }
            let step_param = |dv: f64| -> Option<GraphDef> {
                (*value >= dv + 1.0).then(|| {
                    let mut def = self.clone();
                    def.params[i].1 = value - dv;
                    def
                })
            };
            push_first_viable([step_param(1.0), step_param(2.0)]);
        }
        out
    }
}

/// The campaign graph zoo (`scenario::matrix::graph_zoo_defs(2024)`, which
/// lives above this crate) for this crate's own oracle tests.
#[cfg(test)]
pub(crate) fn test_zoo() -> Vec<Graph> {
    [
        GraphDef::complete(12),
        GraphDef::circulant(18, 4),
        GraphDef::grid(4, 4),
        GraphDef::torus(4, 5),
        GraphDef::expander(24, 8, 2024),
        GraphDef::watts_strogatz(24, 6, 0.2, 2024 ^ 0x5A11),
        GraphDef::ring_of_cliques(4, 5),
        GraphDef::barbell(5, 2),
    ]
    .iter()
    .map(|def| def.build().expect("zoo graph builds"))
    .collect()
}

/// A path `0 - 1 - … - (n-1)`.
pub fn path(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for i in 1..n {
        g.add_edge(i - 1, i);
    }
    g
}

/// A cycle on `n >= 3` nodes.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "a cycle needs at least 3 nodes");
    let mut g = path(n);
    g.add_edge(n - 1, 0);
    g
}

/// The complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            g.add_edge(i, j);
        }
    }
    g
}

/// An `rows × cols` grid graph.
pub fn grid(rows: usize, cols: usize) -> Graph {
    let mut g = Graph::new(rows * cols);
    let id = |r: usize, c: usize| r * cols + c;
    for r in 0..rows {
        for c in 0..cols {
            if r + 1 < rows {
                g.add_edge(id(r, c), id(r + 1, c));
            }
            if c + 1 < cols {
                g.add_edge(id(r, c), id(r, c + 1));
            }
        }
    }
    g
}

/// A 2-D torus: an `rows × cols` grid with wrap-around edges in both
/// dimensions.  4-regular and 4-edge-connected, the canonical
/// constant-degree topology whose connectivity sits exactly at the `f = 1`
/// cycle-cover threshold (`2f + 1 = 3 ≤ 4`).
///
/// # Panics
///
/// Panics if either dimension is below 3 (smaller wrap-arounds collapse into
/// duplicate or self-loop edges).
pub fn torus(rows: usize, cols: usize) -> Graph {
    assert!(rows >= 3 && cols >= 3, "a torus needs both dimensions >= 3");
    let mut g = Graph::new(rows * cols);
    let id = |r: usize, c: usize| r * cols + c;
    for r in 0..rows {
        for c in 0..cols {
            g.add_edge(id(r, c), id((r + 1) % rows, c));
            g.add_edge(id(r, c), id(r, (c + 1) % cols));
        }
    }
    g
}

/// A Watts–Strogatz small-world graph: the ring lattice `C_n(1, …, k/2)` with
/// every lattice edge rewired to a uniformly random non-neighbour with
/// probability `beta`.  `beta = 0` is the (high-diameter) circulant lattice,
/// `beta = 1` approaches a random graph; intermediate values give the
/// small-world regime the compilers' round overheads are sensitive to.
///
/// Rewiring keeps every node's lattice stubs, so the graph stays connected
/// with overwhelming probability at moderate `beta`; degrees vary around `k`.
///
/// # Panics
///
/// Panics if `k` is odd, `k < 2`, or `k >= n`.
pub fn watts_strogatz<R: Rng + ?Sized>(rng: &mut R, n: usize, k: usize, beta: f64) -> Graph {
    assert!(k >= 2 && k.is_multiple_of(2), "k must be even and >= 2");
    assert!(k < n, "k must be smaller than n");
    let beta = beta.clamp(0.0, 1.0);
    let mut g = Graph::new(n);
    for i in 0..n {
        for off in 1..=(k / 2) {
            let j = (i + off) % n;
            if rng.gen_bool(beta) {
                // Rewire (i, j) to (i, random) avoiding self-loops and
                // duplicates; fall back to the lattice edge when the node is
                // saturated.
                let mut rewired = false;
                for _ in 0..8 {
                    let t = rng.gen_range(0..n);
                    if t != i && !g.has_edge(i, t) {
                        g.add_edge(i, t);
                        rewired = true;
                        break;
                    }
                }
                if !rewired && !g.has_edge(i, j) {
                    g.add_edge(i, j);
                }
            } else {
                g.add_edge(i, j);
            }
        }
    }
    g
}

/// A seeded random `d`-regular expander: [`random_regular`] driven by an
/// internal ChaCha stream, so graph grids can name an expander by `(n, d,
/// seed)` without threading an RNG through the spec.  For `d ≥ 3` these are
/// expanders with high probability (`connectivity::sweep_conductance`
/// estimates the conductance of a given draw).
///
/// # Panics
///
/// Panics if `n * d` is odd or `d >= n` (see [`random_regular`]).
pub fn expander_d_regular(n: usize, d: usize, seed: u64) -> Graph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xE7A9_D000);
    random_regular(&mut rng, n, d)
}

/// A ring of cliques ("caveman" graph): `cliques` complete graphs of
/// `size` nodes each, with consecutive cliques joined by a single bridge
/// edge and the last clique bridged back to the first.  Locally dense but
/// globally 2-edge-connected — the adversarial playground for
/// [`EclipseNode`-style](https://en.wikipedia.org/wiki/Eclipse_attack)
/// attacks on bridge endpoints.
///
/// # Panics
///
/// Panics if `cliques < 3` or `size < 2`.
pub fn ring_of_cliques(cliques: usize, size: usize) -> Graph {
    assert!(cliques >= 3, "a ring needs at least 3 cliques");
    assert!(size >= 2, "cliques need at least 2 nodes");
    let mut g = Graph::new(cliques * size);
    for c in 0..cliques {
        let base = c * size;
        for i in 0..size {
            for j in (i + 1)..size {
                g.add_edge(base + i, base + j);
            }
        }
        // Bridge: the last node of this clique to the first node of the next.
        let next = ((c + 1) % cliques) * size;
        g.add_edge(base + size - 1, next);
    }
    g
}

/// The `d`-dimensional hypercube (`2^d` nodes).
pub fn hypercube(d: usize) -> Graph {
    let n = 1usize << d;
    let mut g = Graph::new(n);
    for u in 0..n {
        for bit in 0..d {
            let v = u ^ (1 << bit);
            if v > u {
                g.add_edge(u, v);
            }
        }
    }
    g
}

/// Erdős–Rényi `G(n, p)` random graph.
pub fn erdos_renyi<R: Rng + ?Sized>(rng: &mut R, n: usize, p: f64) -> Graph {
    let mut g = Graph::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_bool(p.clamp(0.0, 1.0)) {
                g.add_edge(i, j);
            }
        }
    }
    g
}

/// A random `d`-regular(ish) graph generated by the configuration model with
/// rejection of self-loops and duplicate edges.  For `d ≥ 3` and moderate `n`
/// these graphs are expanders with high probability; `connectivity::sweep_conductance`
/// estimates the conductance of a given draw rather than assuming it.
///
/// The result may have a few nodes of degree `d - 1` when the matching gets
/// stuck; the compilers read the graph they get, so this does not matter.
///
/// # Panics
///
/// Panics if `n * d` is odd or `d >= n`.
pub fn random_regular<R: Rng + ?Sized>(rng: &mut R, n: usize, d: usize) -> Graph {
    assert!(d < n, "degree must be smaller than n");
    assert!((n * d).is_multiple_of(2), "n*d must be even");
    // Retry the pairing a few times; repair leftover deficiencies by matching
    // deficient nodes with each other and, if needed, via double edge swaps.
    let mut best = Graph::new(n);
    for _attempt in 0..20 {
        let mut stubs: Vec<NodeId> = (0..n).flat_map(|u| std::iter::repeat_n(u, d)).collect();
        stubs.shuffle(rng);
        let mut g = Graph::new(n);
        let mut ok = true;
        for pair in stubs.chunks(2) {
            let (a, b) = (pair[0], pair[1]);
            if a == b || g.has_edge(a, b) {
                ok = false;
                continue;
            }
            g.add_edge(a, b);
        }
        if ok {
            return g;
        }
        repair_degrees(&mut g, d, rng);
        if g.min_degree() >= d.saturating_sub(0) {
            return g;
        }
        if g.edge_count() > best.edge_count() {
            best = g;
        }
    }
    repair_degrees(&mut best, d, rng);
    best
}

/// Raise the degree of deficient nodes toward `d`: first by adding edges
/// between non-adjacent deficient nodes, then by double edge swaps (remove an
/// existing edge `(a, b)` with both endpoints at full degree and non-adjacent
/// to the deficient pair, add `(u, a)` and `(v, b)`).
fn repair_degrees<R: Rng + ?Sized>(g: &mut Graph, d: usize, rng: &mut R) {
    for _ in 0..(4 * g.node_count()) {
        let deficient: Vec<NodeId> = g.nodes().filter(|&u| g.degree(u) < d).collect();
        if deficient.is_empty() {
            return;
        }
        // Try to connect two deficient, non-adjacent nodes.
        let mut progressed = false;
        'outer: for &u in &deficient {
            for &v in &deficient {
                if u != v && !g.has_edge(u, v) {
                    g.add_edge(u, v);
                    progressed = true;
                    break 'outer;
                }
            }
        }
        if progressed {
            continue;
        }
        // Double edge swap: pick one deficient node u and a random edge (a, b)
        // with a, b not adjacent to u; rebuild the graph without (a, b) and
        // with (u, a); this keeps total degree but moves a stub toward u.
        let u = deficient[rng.gen_range(0..deficient.len())];
        let candidates: Vec<usize> = (0..g.edge_count())
            .filter(|&e| {
                let edge = g.edge(e);
                !edge.touches(u) && !g.has_edge(u, edge.u) && g.degree(edge.u) >= d
            })
            .collect();
        if candidates.is_empty() {
            return;
        }
        let e = candidates[rng.gen_range(0..candidates.len())];
        let edge = g.edge(e);
        let mut rebuilt = g.remove_edges(&[e]);
        rebuilt.add_edge(u, edge.u);
        *g = rebuilt;
    }
}

/// The Harary-style circulant graph `C_n(1, 2, …, k)`: node `i` is connected to
/// `i ± 1, i ± 2, …, i ± k` (mod n).  This graph is `2k`-edge-connected and
/// `2k`-regular — the standard family of graphs with prescribed edge
/// connectivity used in the byzantine-compiler experiments.
///
/// # Panics
///
/// Panics if `2k >= n`.
pub fn circulant(n: usize, k: usize) -> Graph {
    assert!(2 * k < n, "circulant requires 2k < n");
    let mut g = Graph::new(n);
    for i in 0..n {
        for off in 1..=k {
            g.add_edge(i, (i + off) % n);
        }
    }
    g
}

/// A barbell graph: two cliques of size `clique` joined by a path of length
/// `path_len`.  Deliberately poorly connected — used as a baseline where
/// high-connectivity compilers must be expected to fail or degrade.
pub fn barbell(clique: usize, path_len: usize) -> Graph {
    let n = 2 * clique + path_len;
    let mut g = Graph::new(n);
    for i in 0..clique {
        for j in (i + 1)..clique {
            g.add_edge(i, j);
            g.add_edge(clique + path_len + i, clique + path_len + j);
        }
    }
    // Path joining node (clique-1) to node (clique+path_len).
    let mut prev = clique - 1;
    for p in 0..path_len {
        g.add_edge(prev, clique + p);
        prev = clique + p;
    }
    g.add_edge(prev, clique + path_len);
    g
}

/// A wheel: a cycle on `n - 1` outer nodes all connected to a hub (node 0).
///
/// # Panics
///
/// Panics if `n < 4`.
pub fn wheel(n: usize) -> Graph {
    assert!(n >= 4, "wheel needs at least 4 nodes");
    let mut g = Graph::new(n);
    for i in 1..n {
        g.add_edge(0, i);
        let next = if i + 1 < n { i + 1 } else { 1 };
        g.add_edge(i, next);
    }
    g
}

/// `K_n` minus a perfect (or near-perfect) matching — still `(n-2)`-connected,
/// used to exercise the clique compiler on "almost clique" topologies.
pub fn complete_minus_matching(n: usize) -> Graph {
    let mut g = complete(n);
    let mut keep = Vec::new();
    for e in 0..g.edge_count() {
        let edge = g.edge(e);
        // Remove edges (2i, 2i+1).
        if !(edge.u.is_multiple_of(2) && edge.v == edge.u + 1) {
            keep.push(e);
        }
    }
    g = g.edge_subgraph(&keep);
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn path_and_cycle_counts() {
        assert_eq!(path(5).edge_count(), 4);
        assert_eq!(cycle(5).edge_count(), 5);
        assert_eq!(cycle(3).edge_count(), 3);
    }

    #[test]
    #[should_panic]
    fn tiny_cycle_rejected() {
        cycle(2);
    }

    #[test]
    fn complete_graph_counts() {
        let g = complete(6);
        assert_eq!(g.edge_count(), 15);
        assert_eq!(g.min_degree(), 5);
        assert_eq!(g.max_degree(), 5);
    }

    #[test]
    fn grid_counts() {
        let g = grid(3, 4);
        assert_eq!(g.node_count(), 12);
        assert_eq!(g.edge_count(), 3 * 3 + 2 * 4); // vertical + horizontal
    }

    #[test]
    fn hypercube_regular() {
        let g = hypercube(4);
        assert_eq!(g.node_count(), 16);
        assert_eq!(g.min_degree(), 4);
        assert_eq!(g.max_degree(), 4);
        assert_eq!(g.edge_count(), 32);
    }

    #[test]
    fn circulant_regularity_and_connectivity_structure() {
        let g = circulant(11, 3);
        assert_eq!(g.min_degree(), 6);
        assert_eq!(g.max_degree(), 6);
        assert_eq!(g.edge_count(), 33);
    }

    #[test]
    #[should_panic]
    fn circulant_requires_small_k() {
        circulant(6, 3);
    }

    #[test]
    fn random_regular_has_requested_degrees_mostly() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let g = random_regular(&mut rng, 40, 6);
        assert!(g.min_degree() >= 5);
        assert!(g.max_degree() <= 6);
    }

    #[test]
    fn erdos_renyi_extreme_probabilities() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        assert_eq!(erdos_renyi(&mut rng, 10, 0.0).edge_count(), 0);
        assert_eq!(erdos_renyi(&mut rng, 10, 1.0).edge_count(), 45);
    }

    #[test]
    fn barbell_shape() {
        let g = barbell(4, 2);
        assert_eq!(g.node_count(), 10);
        // Two K4s (6 edges each) + path of 3 edges.
        assert_eq!(g.edge_count(), 6 + 6 + 3);
        assert_eq!(g.min_degree(), 2);
    }

    #[test]
    fn wheel_shape() {
        let g = wheel(6);
        assert_eq!(g.degree(0), 5);
        assert_eq!(g.degree(1), 3);
        assert_eq!(g.edge_count(), 10);
    }

    #[test]
    fn complete_minus_matching_degrees() {
        let g = complete_minus_matching(6);
        assert_eq!(g.edge_count(), 15 - 3);
        assert_eq!(g.min_degree(), 4);
    }

    #[test]
    fn torus_is_4_regular_and_4_connected() {
        let g = torus(4, 5);
        assert_eq!(g.node_count(), 20);
        assert_eq!(g.min_degree(), 4);
        assert_eq!(g.max_degree(), 4);
        assert_eq!(g.edge_count(), 2 * 20);
        assert_eq!(crate::connectivity::edge_connectivity(&g), 4);
    }

    #[test]
    #[should_panic]
    fn tiny_torus_rejected() {
        torus(2, 5);
    }

    #[test]
    fn watts_strogatz_zero_beta_is_the_lattice() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let g = watts_strogatz(&mut rng, 20, 4, 0.0);
        let lattice = circulant(20, 2);
        assert_eq!(g.edge_count(), lattice.edge_count());
        assert_eq!(g.min_degree(), 4);
        assert_eq!(g.max_degree(), 4);
    }

    #[test]
    fn watts_strogatz_rewired_stays_connected_with_stable_edge_budget() {
        for seed in 0..5 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let g = watts_strogatz(&mut rng, 30, 6, 0.3);
            // Every lattice stub either survives or is rewired (or, rarely,
            // dropped when both the retries and the fallback hit duplicates),
            // so the edge budget stays within a few percent of `n·k/2`.
            assert!(g.edge_count() <= 30 * 3);
            assert!(g.edge_count() >= 30 * 3 - 4);
            assert!(
                g.diameter().is_some(),
                "seed {seed}: rewired graph must stay connected"
            );
        }
    }

    #[test]
    fn expander_d_regular_is_seeded_and_near_regular() {
        let a = expander_d_regular(40, 6, 9);
        let b = expander_d_regular(40, 6, 9);
        let c = expander_d_regular(40, 6, 10);
        assert_eq!(format!("{:?}", a.edges()), format!("{:?}", b.edges()));
        assert_ne!(format!("{:?}", a.edges()), format!("{:?}", c.edges()));
        assert!(a.min_degree() >= 5);
        assert!(a.max_degree() <= 6);
        assert!(a.diameter().is_some());
    }

    #[test]
    fn ring_of_cliques_shape_and_connectivity() {
        let g = ring_of_cliques(4, 5);
        assert_eq!(g.node_count(), 20);
        // 4 cliques of C(5,2)=10 edges plus 4 bridges.
        assert_eq!(g.edge_count(), 4 * 10 + 4);
        assert_eq!(g.min_degree(), 4);
        assert_eq!(g.max_degree(), 5); // bridge endpoints
        assert_eq!(crate::connectivity::edge_connectivity(&g), 2);
        assert!(g.diameter().is_some());
    }

    #[test]
    #[should_panic]
    fn ring_of_cliques_needs_three_cliques() {
        ring_of_cliques(2, 4);
    }

    #[test]
    fn graph_defs_build_the_same_graphs_as_direct_calls() {
        let cases: Vec<(GraphDef, Graph)> = vec![
            (GraphDef::complete(9), complete(9)),
            (GraphDef::circulant(18, 4), circulant(18, 4)),
            (GraphDef::grid(4, 5), grid(4, 5)),
            (GraphDef::torus(4, 5), torus(4, 5)),
            (GraphDef::expander(24, 8, 7), expander_d_regular(24, 8, 7)),
            (GraphDef::ring_of_cliques(4, 5), ring_of_cliques(4, 5)),
            (GraphDef::barbell(5, 2), barbell(5, 2)),
            (GraphDef::new(GraphFamily::Hypercube, 4), hypercube(4)),
        ];
        for (def, expected) in cases {
            let built = def.build().expect("valid def");
            assert_eq!(
                format!("{:?}", built.edges()),
                format!("{:?}", expected.edges()),
                "def {} drifted from its generator",
                def.display_name()
            );
        }
        // The seeded small world matches a generator call on the same stream.
        let def = GraphDef::watts_strogatz(24, 6, 0.2, 11);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let expected = watts_strogatz(&mut rng, 24, 6, 0.2);
        assert_eq!(
            format!("{:?}", def.build().unwrap().edges()),
            format!("{:?}", expected.edges())
        );
    }

    #[test]
    fn graph_def_display_names_match_the_zoo_convention() {
        assert_eq!(GraphDef::complete(12).display_name(), "K12");
        assert_eq!(GraphDef::circulant(18, 4).display_name(), "circ(18,4)");
        assert_eq!(GraphDef::grid(4, 4).display_name(), "grid4x4");
        assert_eq!(GraphDef::torus(4, 5).display_name(), "torus4x5");
        assert_eq!(
            GraphDef::expander(24, 8, 0).display_name(),
            "expander(24,8)"
        );
        assert_eq!(
            GraphDef::watts_strogatz(24, 6, 0.2, 0).display_name(),
            "small-world(24,6)"
        );
        assert_eq!(
            GraphDef::ring_of_cliques(4, 5).display_name(),
            "ring-of-cliques(4,5)"
        );
        assert_eq!(GraphDef::barbell(5, 2).display_name(), "barbell(5,2)");
    }

    #[test]
    fn graph_def_assertions_become_typed_errors() {
        assert!(matches!(
            GraphDef::new(GraphFamily::Cycle, 2).build(),
            Err(GraphDefError::InvalidSize { .. })
        ));
        assert!(matches!(
            GraphDef::torus(2, 5).build(),
            Err(GraphDefError::InvalidSize { .. })
        ));
        assert!(matches!(
            GraphDef::circulant(6, 3).build(),
            Err(GraphDefError::InvalidSize { .. })
        ));
        assert!(matches!(
            GraphDef::new(GraphFamily::Grid, 3).build(),
            Err(GraphDefError::MissingParam { param: "cols", .. })
        ));
        assert!(matches!(
            GraphDef::watts_strogatz(20, 3, 0.2, 1).build(),
            Err(GraphDefError::InvalidSize { .. })
        ));
        assert!(matches!(
            GraphDef::ring_of_cliques(2, 4).build(),
            Err(GraphDefError::InvalidSize { .. })
        ));
        // Spec-reachable inputs that used to panic (underflow / shift
        // overflow) or silently truncate are typed errors too.
        assert!(matches!(
            GraphDef::barbell(0, 2).build(),
            Err(GraphDefError::InvalidSize { .. })
        ));
        assert!(matches!(
            GraphDef::new(GraphFamily::Hypercube, 64).build(),
            Err(GraphDefError::InvalidSize { .. })
        ));
        assert!(matches!(
            GraphDef::new(GraphFamily::Circulant, 10)
                .with_param("k", -1.0)
                .build(),
            Err(GraphDefError::InvalidSize { .. })
        ));
        assert!(matches!(
            GraphDef::new(GraphFamily::Grid, 4)
                .with_param("cols", 4.7)
                .build(),
            Err(GraphDefError::InvalidSize { .. })
        ));
    }

    #[test]
    fn graph_family_labels_round_trip() {
        for family in GraphFamily::ALL {
            assert_eq!(GraphFamily::from_label(family.label()), Some(family));
        }
        assert_eq!(GraphFamily::from_label("no-such-family"), None);
    }
}

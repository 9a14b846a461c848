//! Scenario-as-data: serializable campaign specs and the registries that
//! resolve them into runtime grids.
//!
//! A [`CampaignSpec`] is the plain-data form of a [`Campaign`]: a seed, a
//! repetition count and a grid of [`GraphDef`] × [`AdversaryDef`] ×
//! [`CompilerDef`] axes plus one [`PayloadDef`].  Specs encode to and parse
//! from JSON through the shared [`crate::json`] implementation (hand-rolled;
//! the workspace is offline), so a campaign can be saved, diffed, sharded
//! across machines and resumed.  [`Campaign::from_spec`] resolves a spec
//! through the registries — `netgraph::generators` for graphs, the
//! `scenario::matrix` defs for adversaries, `mobile_congest_core::adapters`
//! for compilers — and is the only way to build a campaign.
//!
//! ```
//! use mobile_congest_harness::{Campaign, CampaignSpec};
//!
//! let spec = CampaignSpec::from_json(
//!     r#"{
//!         "kind": "campaign-spec",
//!         "seed": 7,
//!         "repetitions": 2,
//!         "grid": {
//!             "graphs": [{"family": "complete", "n": 6}],
//!             "adversaries": [{"kind": "random-mobile", "f": 1}],
//!             "compilers": [{"id": "uncompiled"}],
//!             "payload": {"kind": "exchange-ids"}
//!         }
//!     }"#,
//! )
//! .unwrap();
//! assert_eq!(CampaignSpec::from_json(&spec.to_json()).unwrap(), spec);
//!
//! let report = Campaign::from_spec(&spec).unwrap().run();
//! assert_eq!(report.cells.len(), 2);
//! ```
//!
//! [`Campaign`]: crate::Campaign
//! [`Campaign::from_spec`]: crate::Campaign::from_spec

use crate::json::{self, JsonValue, ObjectWriter, Reader};
use async_exec::{CrashWindow, DropModel, LatencyModel, PartitionWindow, ScheduleDef};
use congest_sim::adversary::CorruptionMode;
use congest_sim::scenario::matrix::AdversaryDef;
use congest_sim::scenario::BoxedAlgorithm;
use mobile_congest_core::adapters::CompilerDef;
use netgraph::{Graph, GraphDef, GraphDefError, GraphFamily};

/// Everything that can go wrong encoding, parsing or resolving a spec.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The document is not valid JSON.
    Json(json::JsonError),
    /// A required field is absent (or has the wrong type).
    Missing {
        /// Dotted path of the field (e.g. `grid.graphs[2].family`).
        field: String,
    },
    /// A registry lookup failed: no graph family / adversary kind / compiler
    /// id / payload kind under this label.
    UnknownLabel {
        /// Which registry was consulted.
        registry: &'static str,
        /// The label that failed to resolve.
        label: String,
    },
    /// A graph def failed to resolve into a graph.
    Graph(GraphDefError),
    /// A structurally invalid spec (empty axis, zero repetitions, …).
    Invalid {
        /// Human-readable explanation.
        reason: String,
    },
}

impl core::fmt::Display for SpecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SpecError::Json(e) => write!(f, "{e}"),
            SpecError::Missing { field } => write!(f, "spec field `{field}` missing or mistyped"),
            SpecError::UnknownLabel { registry, label } => {
                write!(f, "no {registry} registered under `{label}`")
            }
            SpecError::Graph(e) => write!(f, "{e}"),
            SpecError::Invalid { reason } => write!(f, "invalid spec: {reason}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<json::JsonError> for SpecError {
    fn from(e: json::JsonError) -> Self {
        SpecError::Json(e)
    }
}

impl From<GraphDefError> for SpecError {
    fn from(e: GraphDefError) -> Self {
        SpecError::Graph(e)
    }
}

/// A serializable description of the payload algorithm every cell runs —
/// the payload registry as data.  Resolve per-graph with
/// [`PayloadDef::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PayloadDef {
    /// The 1-round id-exchange demo payload
    /// ([`congest_sim::scenario::doctest_payload`]).
    ExchangeIds,
    /// [`congest_algorithms::FloodBroadcast`]: flood `value` from `source`.
    FloodBroadcast {
        /// Originating node.
        source: usize,
        /// The broadcast word.
        value: u64,
    },
    /// [`congest_algorithms::LeaderElection`]: max-id flooding.
    LeaderElection,
    /// [`congest_algorithms::TokenDissemination`]: all-to-all gossip of one
    /// token per node (node `v` starts with token `v`, matching the E8
    /// usage), forwarding at most `batch` tokens per edge per round.  The
    /// token set is derived per graph — the algorithm requires exactly
    /// `node_count` tokens, so a fixed count could never span a multi-size
    /// grid.
    TokenDissemination {
        /// Tokens forwarded per edge per round (clamped to at least 1).
        batch: usize,
    },
}

impl PayloadDef {
    /// The stable lowercase label used by serialized specs.
    pub fn label(&self) -> &'static str {
        match self {
            PayloadDef::ExchangeIds => "exchange-ids",
            PayloadDef::FloodBroadcast { .. } => "flood-broadcast",
            PayloadDef::LeaderElection => "leader-election",
            PayloadDef::TokenDissemination { .. } => "token-dissemination",
        }
    }

    /// Check the payload against one concrete grid graph — the front-loaded
    /// half of the contract: [`Campaign::from_spec`](crate::Campaign::from_spec)
    /// validates the payload against **every** graph of the grid, so a spec
    /// that would panic inside a worker (a flood source beyond the smallest
    /// graph's node count, or a flooding payload on a disconnected graph,
    /// which could never finish) is a typed [`SpecError`] before anything
    /// runs.  Only `exchange-ids` runs on a disconnected graph.
    pub fn validate(&self, graph_name: &str, graph: &Graph) -> Result<(), SpecError> {
        let reason = match *self {
            PayloadDef::FloodBroadcast { source, .. } if source >= graph.node_count() => format!(
                "payload flood-broadcast source {source} is not a node of `{graph_name}` ({} nodes)",
                graph.node_count()
            ),
            PayloadDef::ExchangeIds => return Ok(()),
            _ if !netgraph::traversal::is_connected(graph) => format!(
                "payload {} needs a connected graph, and `{graph_name}` is disconnected",
                self.label()
            ),
            _ => return Ok(()),
        };
        Err(SpecError::Invalid { reason })
    }

    /// Build a fresh payload instance for one cell's graph.
    pub fn build(&self, graph: &Graph) -> BoxedAlgorithm {
        use congest_algorithms::{FloodBroadcast, LeaderElection, TokenDissemination};
        match *self {
            PayloadDef::ExchangeIds => {
                Box::new(congest_sim::scenario::doctest_payload(graph.clone()))
            }
            PayloadDef::FloodBroadcast { source, value } => {
                Box::new(FloodBroadcast::new(graph.clone(), source, value))
            }
            PayloadDef::LeaderElection => Box::new(LeaderElection::new(graph.clone())),
            PayloadDef::TokenDissemination { batch } => Box::new(TokenDissemination::new(
                graph.clone(),
                (0..graph.node_count() as u64).collect(),
                batch,
            )),
        }
    }
}

/// The grid axes of a campaign: what runs against what.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSpec {
    /// The graph axis.
    pub graphs: Vec<GraphDef>,
    /// The adversary axis.
    pub adversaries: Vec<AdversaryDef>,
    /// The compiler axis.
    pub compilers: Vec<CompilerDef>,
    /// The payload every cell runs.
    pub payload: PayloadDef,
}

/// The plain-data form of a whole campaign: everything `Campaign::from_spec`
/// needs to reconstruct the grid, and nothing it doesn't (thread count is an
/// execution knob, not part of the experiment's identity).
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// The campaign base seed (drives every per-cell seed).
    pub seed: u64,
    /// Seed repetitions per grid cell.
    pub repetitions: usize,
    /// The grid axes.
    pub grid: GridSpec,
}

impl CampaignSpec {
    /// Total number of cells the described campaign will run.
    pub fn cell_count(&self) -> usize {
        self.grid.graphs.len()
            * self.grid.adversaries.len()
            * self.grid.compilers.len()
            * self.repetitions.max(1)
    }

    /// Encode the spec as multi-line JSON (one grid entry per line — stable,
    /// diffable, and the canonical input to [`CampaignSpec::fingerprint`]).
    pub fn to_json(&self) -> String {
        fn axis<T>(out: &mut String, name: &str, defs: &[T], encode: fn(&T) -> String) {
            out.push_str(&format!("    \"{name}\": [\n"));
            for (i, def) in defs.iter().enumerate() {
                let sep = if i + 1 < defs.len() { "," } else { "" };
                out.push_str(&format!("      {}{sep}\n", encode(def)));
            }
            out.push_str("    ],\n");
        }
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"kind\": \"campaign-spec\",\n");
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"repetitions\": {},\n", self.repetitions));
        out.push_str("  \"grid\": {\n");
        axis(&mut out, "graphs", &self.grid.graphs, graph_to_json);
        axis(
            &mut out,
            "adversaries",
            &self.grid.adversaries,
            adversary_to_json,
        );
        axis(
            &mut out,
            "compilers",
            &self.grid.compilers,
            compiler_to_json,
        );
        out.push_str(&format!(
            "    \"payload\": {}\n",
            payload_to_json(&self.grid.payload)
        ));
        out.push_str("  }\n}\n");
        out
    }

    /// Parse a spec from JSON (the inverse of [`CampaignSpec::to_json`];
    /// whitespace and field order inside each def are free).
    pub fn from_json(input: &str) -> Result<CampaignSpec, SpecError> {
        fn axis<T>(
            grid: &Reader<'_>,
            name: &str,
            decode: fn(&JsonValue) -> Result<T, SpecError>,
        ) -> Result<Vec<T>, SpecError> {
            grid.array(name)?.iter().map(decode).collect()
        }
        let doc = json::parse(input)?;
        let doc = Reader::new(&doc, "");
        doc.kind_if_present("campaign-spec")?;
        let seed = doc.u64("seed")?;
        let repetitions = doc.usize("repetitions")?;
        let grid = Reader::new(doc.value("grid")?, "grid");
        let spec = CampaignSpec {
            seed,
            repetitions,
            grid: GridSpec {
                graphs: axis(&grid, "graphs", graph_from_json)?,
                adversaries: axis(&grid, "adversaries", adversary_from_json)?,
                compilers: axis(&grid, "compilers", compiler_from_json)?,
                payload: payload_from_json(grid.value("payload")?)?,
            },
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Structural validation: every axis non-empty, at least one repetition.
    pub fn validate(&self) -> Result<(), SpecError> {
        for (axis, len) in [
            ("graphs", self.grid.graphs.len()),
            ("adversaries", self.grid.adversaries.len()),
            ("compilers", self.grid.compilers.len()),
        ] {
            if len == 0 {
                return Err(SpecError::Invalid {
                    reason: format!("grid.{axis} is empty"),
                });
            }
        }
        if self.repetitions == 0 {
            return Err(SpecError::Invalid {
                reason: "repetitions must be at least 1".into(),
            });
        }
        Ok(())
    }

    /// A stable 64-bit fingerprint of the spec (FNV-1a over the canonical
    /// [`CampaignSpec::to_json`] form), rendered as 16 hex digits.  Two specs
    /// fingerprint equal iff they describe the same campaign; trajectory
    /// files are keyed by it so `--resume` never mixes campaigns.
    pub fn fingerprint(&self) -> String {
        json::fnv1a_hex(self.to_json().bytes())
    }
}

// ---------------------------------------------------------------------------
// Per-def JSON encoding: one object per def, compact, field order stable.
// ---------------------------------------------------------------------------

/// Encode one [`GraphDef`] as a compact one-line JSON object (the form
/// [`CampaignSpec::to_json`] embeds; field order is stable).  A zero `seed`
/// is the default and is omitted.
pub fn graph_to_json(def: &GraphDef) -> String {
    json::object(|w| {
        w.str("family", def.family.label()).u64("n", def.n as u64);
        for (name, value) in &def.params {
            w.f64(name, *value);
        }
        if def.seed != 0 {
            w.u64("seed", def.seed);
        }
    })
}

/// Parse one [`GraphDef`] from its JSON object form.
pub fn graph_from_json(v: &JsonValue) -> Result<GraphDef, SpecError> {
    let r = Reader::new(v, "graphs[]");
    let label = r.str("family")?;
    let family = GraphFamily::from_label(label).ok_or_else(|| SpecError::UnknownLabel {
        registry: "graph family",
        label: label.into(),
    })?;
    let mut def = GraphDef::new(family, r.usize("n")?);
    for (key, value) in v.as_object().into_iter().flatten() {
        match key.as_str() {
            "family" | "n" => {}
            "seed" => def.seed = value.as_u64().ok_or_else(|| r.missing("seed"))?,
            param => {
                let value = value.as_f64().ok_or_else(|| r.missing(param))?;
                def.params.push((param.to_string(), value));
            }
        }
    }
    Ok(def)
}

/// Encode a [`CorruptionMode`] (string label, or `{\"constant\": w}`).
pub fn mode_to_json(mode: CorruptionMode) -> String {
    match mode {
        CorruptionMode::ReplaceRandom => json::json_str("replace-random"),
        CorruptionMode::FlipLowBit => json::json_str("flip-low-bit"),
        CorruptionMode::Drop => json::json_str("drop"),
        CorruptionMode::Constant(word) => json::object(|w| {
            w.u64("constant", word);
        }),
    }
}

/// Parse a [`CorruptionMode`] from its JSON form.
pub fn mode_from_json(v: &JsonValue) -> Result<CorruptionMode, SpecError> {
    let r = Reader::new(v, "adversaries[]");
    if let Ok(word) = r.u64("constant") {
        return Ok(CorruptionMode::Constant(word));
    }
    match v.as_str() {
        Some("replace-random") => Ok(CorruptionMode::ReplaceRandom),
        Some("flip-low-bit") => Ok(CorruptionMode::FlipLowBit),
        Some("drop") => Ok(CorruptionMode::Drop),
        Some(other) => Err(SpecError::UnknownLabel {
            registry: "corruption mode",
            label: other.into(),
        }),
        None => Err(r.missing("mode")),
    }
}

/// Encode one [`AdversaryDef`] as a compact one-line JSON object.
pub fn adversary_to_json(def: &AdversaryDef) -> String {
    json::object(|w| {
        w.str(
            "kind",
            match def {
                AdversaryDef::RandomMobile { .. } => "random-mobile",
                AdversaryDef::SweepMobile { .. } => "sweep-mobile",
                AdversaryDef::GreedyHeaviest { .. } => "greedy-heaviest",
                AdversaryDef::AdaptiveHeaviest { .. } => "adaptive-heaviest",
                AdversaryDef::Eclipse { .. } => "eclipse",
                AdversaryDef::Burst { .. } => "burst",
                AdversaryDef::Eavesdropper { .. } => "eavesdropper",
                AdversaryDef::Synthesized { .. } => "synthesized",
            },
        );
        match def {
            AdversaryDef::RandomMobile { f }
            | AdversaryDef::SweepMobile { f }
            | AdversaryDef::AdaptiveHeaviest { f }
            | AdversaryDef::Eavesdropper { f } => {
                w.u64("f", *f as u64);
            }
            AdversaryDef::GreedyHeaviest { f, mode } => {
                w.u64("f", *f as u64).raw("mode", &mode_to_json(*mode));
            }
            AdversaryDef::Eclipse { node, f, mode } => {
                w.u64("node", *node as u64)
                    .u64("f", *f as u64)
                    .raw("mode", &mode_to_json(*mode));
            }
            AdversaryDef::Burst {
                quiet,
                burst,
                per_round,
                total,
            } => {
                w.u64("quiet", *quiet as u64)
                    .u64("burst", *burst as u64)
                    .u64("per_round", *per_round as u64)
                    .u64("total", *total as u64);
            }
            AdversaryDef::Synthesized { schedule, mode } => {
                w.arr("schedule", |rounds| {
                    for round in schedule {
                        rounds.usizes(round);
                    }
                })
                .raw("mode", &mode_to_json(*mode));
            }
        }
    })
}

/// Parse one [`AdversaryDef`] from its JSON object form (omitted optional
/// fields default to the identically-named zoo adversary's values).
pub fn adversary_from_json(v: &JsonValue) -> Result<AdversaryDef, SpecError> {
    let r = Reader::new(v, "adversaries[]");
    let mode = |default: CorruptionMode| r.get("mode").map_or(Ok(default), mode_from_json);
    match r.str("kind")? {
        "random-mobile" => Ok(AdversaryDef::RandomMobile { f: r.usize("f")? }),
        "sweep-mobile" => Ok(AdversaryDef::SweepMobile { f: r.usize("f")? }),
        // When `mode` is omitted, default to what the identically-named zoo
        // adversary uses (`adversary_zoo_defs`) — the display name in every
        // report is the same either way, so a silent behavioural divergence
        // from the zoo would be invisible.
        "greedy-heaviest" => Ok(AdversaryDef::GreedyHeaviest {
            f: r.usize("f")?,
            mode: mode(CorruptionMode::FlipLowBit)?,
        }),
        "adaptive-heaviest" => Ok(AdversaryDef::AdaptiveHeaviest { f: r.usize("f")? }),
        "eclipse" => Ok(AdversaryDef::Eclipse {
            node: r.usize("node")?,
            f: r.usize("f")?,
            mode: mode(CorruptionMode::Drop)?,
        }),
        "burst" => Ok(AdversaryDef::Burst {
            quiet: r.usize("quiet")?,
            burst: r.usize("burst")?,
            per_round: r.usize("per_round")?,
            total: r.usize("total")?,
        }),
        "eavesdropper" => Ok(AdversaryDef::Eavesdropper { f: r.usize("f")? }),
        "synthesized" => Ok(AdversaryDef::Synthesized {
            schedule: r
                .array("schedule")?
                .iter()
                .enumerate()
                .map(|(i, round)| r.usizes(&format!("schedule[{i}]"), round))
                .collect::<Result<Vec<_>, _>>()?,
            // Omitted mode defaults to the minimal hard-to-detect
            // corruption the red-team search aims for.
            mode: mode(CorruptionMode::FlipLowBit)?,
        }),
        other => Err(SpecError::UnknownLabel {
            registry: "adversary kind",
            label: other.into(),
        }),
    }
}

/// Encode one [`CompilerDef`] as a compact one-line JSON object.
pub fn compiler_to_json(def: &CompilerDef) -> String {
    json::object(|w| {
        w.str("id", def.label());
        match *def {
            CompilerDef::Uncompiled | CompilerDef::FaultFree => {}
            CompilerDef::Async { ref schedule } => schedule_to_fields(schedule, w),
            CompilerDef::Clique { f, seed } | CompilerDef::Rewind { f, seed } => {
                w.u64("f", f as u64).u64("seed", seed);
            }
            CompilerDef::TreePacking {
                f,
                trees,
                seed,
                packing,
            } => {
                w.u64("f", f as u64);
                if let Some(k) = trees {
                    w.u64("trees", k as u64);
                }
                w.u64("seed", seed).str("packing", packing.label());
            }
            CompilerDef::CycleCover { f } => {
                w.u64("f", f as u64);
            }
            CompilerDef::Expander {
                f,
                k,
                bfs_rounds,
                seed,
            } => {
                w.u64("f", f as u64)
                    .u64("k", k as u64)
                    .u64("bfs_rounds", bfs_rounds as u64)
                    .u64("seed", seed);
            }
            CompilerDef::StaticToMobile { t, words, seed } => {
                w.u64("t", t as u64)
                    .u64("words", words as u64)
                    .u64("seed", seed);
            }
            CompilerDef::CongestionSensitive { f, words, seed } => {
                w.u64("f", f as u64)
                    .u64("words", words as u64)
                    .u64("seed", seed);
            }
        }
    })
}

/// Append a [`ScheduleDef`]'s non-default parts to a compiler object.  The
/// synchronous default encodes as nothing at all, so `{"id": "async"}`
/// round-trips to `ScheduleDef::synchronous()`.
fn schedule_to_fields(schedule: &ScheduleDef, w: &mut ObjectWriter<'_>) {
    match schedule.latency {
        LatencyModel::Synchronous => {}
        LatencyModel::Fixed { ticks } => {
            w.str("latency", "fixed").u64("ticks", ticks);
        }
        LatencyModel::Uniform { min, max } => {
            w.str("latency", "uniform").u64("min", min).u64("max", max);
        }
    }
    if schedule.reorder_window > 0 {
        w.u64("reorder", schedule.reorder_window);
    }
    if let DropModel::EveryKth { k } = schedule.drops {
        w.u64("drop_every", k);
    }
    if !schedule.partitions.is_empty() {
        w.arr("partitions", |windows| {
            for p in &schedule.partitions {
                windows.obj(|w| {
                    w.u64("from", p.from)
                        .u64("until", p.until)
                        .usizes("island", &p.island);
                });
            }
        });
    }
    if !schedule.crashes.is_empty() {
        w.arr("crashes", |windows| {
            for c in &schedule.crashes {
                windows.obj(|w| {
                    w.u64("node", c.node as u64)
                        .u64("from", c.from)
                        .u64("until", c.until);
                });
            }
        });
    }
}

/// Parse a [`ScheduleDef`] out of an `{"id": "async", ...}` compiler object;
/// every field is optional and defaults to the synchronous schedule's value.
fn schedule_from_json(r: &Reader<'_>) -> Result<ScheduleDef, SpecError> {
    let mut schedule = ScheduleDef::synchronous();
    match r.optional("latency", Reader::str)? {
        None => {}
        Some("fixed") => {
            schedule.latency = LatencyModel::Fixed {
                ticks: r.u64("ticks")?,
            }
        }
        Some("uniform") => {
            schedule.latency = LatencyModel::Uniform {
                min: r.u64("min")?,
                max: r.u64("max")?,
            }
        }
        Some(other) => {
            return Err(SpecError::UnknownLabel {
                registry: "latency model",
                label: other.into(),
            })
        }
    }
    if let Some(window) = r.optional("reorder", Reader::u64)? {
        schedule.reorder_window = window;
    }
    if let Some(k) = r.optional("drop_every", Reader::u64)? {
        schedule.drops = DropModel::EveryKth { k };
    }
    for p in r.optional("partitions", Reader::array)?.unwrap_or_default() {
        let p = Reader::new(p, "compilers[].partitions[]");
        schedule.partitions.push(PartitionWindow {
            island: p.usizes("island", p.value("island")?)?,
            from: p.u64("from")?,
            until: p.u64("until")?,
        });
    }
    for c in r.optional("crashes", Reader::array)?.unwrap_or_default() {
        let c = Reader::new(c, "compilers[].crashes[]");
        schedule.crashes.push(CrashWindow {
            node: c.usize("node")?,
            from: c.u64("from")?,
            until: c.u64("until")?,
        });
    }
    Ok(schedule)
}

/// Parse one [`CompilerDef`] from its JSON object form.
pub fn compiler_from_json(v: &JsonValue) -> Result<CompilerDef, SpecError> {
    let r = Reader::new(v, "compilers[]");
    match r.str("id")? {
        "uncompiled" => Ok(CompilerDef::Uncompiled),
        "async" => Ok(CompilerDef::Async {
            schedule: schedule_from_json(&r)?,
        }),
        "fault-free" => Ok(CompilerDef::FaultFree),
        "clique" => Ok(CompilerDef::Clique {
            f: r.usize("f")?,
            seed: r.u64("seed")?,
        }),
        "tree-packing" => Ok(CompilerDef::TreePacking {
            f: r.usize("f")?,
            trees: r.optional("trees", Reader::usize)?,
            seed: r.u64("seed")?,
            // Omitted means the default construction (v2).
            packing: match r.optional("packing", Reader::str)? {
                None => netgraph::PackingVersion::default(),
                Some(label) => netgraph::PackingVersion::from_label(label).ok_or_else(|| {
                    SpecError::UnknownLabel {
                        registry: "packing version",
                        label: label.into(),
                    }
                })?,
            },
        }),
        "cycle-cover" => Ok(CompilerDef::CycleCover { f: r.usize("f")? }),
        "expander" => Ok(CompilerDef::Expander {
            f: r.usize("f")?,
            k: r.usize("k")?,
            bfs_rounds: r.usize("bfs_rounds")?,
            seed: r.u64("seed")?,
        }),
        "rewind" => Ok(CompilerDef::Rewind {
            f: r.usize("f")?,
            seed: r.u64("seed")?,
        }),
        "static-to-mobile" => Ok(CompilerDef::StaticToMobile {
            t: r.usize("t")?,
            words: r.usize("words")?,
            seed: r.u64("seed")?,
        }),
        "congestion-sensitive" => Ok(CompilerDef::CongestionSensitive {
            f: r.usize("f")?,
            words: r.usize("words")?,
            seed: r.u64("seed")?,
        }),
        other => Err(SpecError::UnknownLabel {
            registry: "compiler id",
            label: other.into(),
        }),
    }
}

/// Encode one [`PayloadDef`] as a compact one-line JSON object.
pub fn payload_to_json(def: &PayloadDef) -> String {
    json::object(|w| {
        w.str("kind", def.label());
        match *def {
            PayloadDef::ExchangeIds | PayloadDef::LeaderElection => {}
            PayloadDef::FloodBroadcast { source, value } => {
                w.u64("source", source as u64).u64("value", value);
            }
            PayloadDef::TokenDissemination { batch } => {
                w.u64("batch", batch as u64);
            }
        }
    })
}

/// Parse one [`PayloadDef`] from its JSON object form.
pub fn payload_from_json(v: &JsonValue) -> Result<PayloadDef, SpecError> {
    let r = Reader::new(v, "grid.payload");
    match r.str("kind")? {
        "exchange-ids" => Ok(PayloadDef::ExchangeIds),
        "flood-broadcast" => Ok(PayloadDef::FloodBroadcast {
            source: r.usize("source")?,
            value: r.u64("value")?,
        }),
        "leader-election" => Ok(PayloadDef::LeaderElection),
        "token-dissemination" => Ok(PayloadDef::TokenDissemination {
            batch: r.usize("batch")?,
        }),
        other => Err(SpecError::UnknownLabel {
            registry: "payload kind",
            label: other.into(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> CampaignSpec {
        CampaignSpec {
            seed: 2024,
            repetitions: 2,
            grid: GridSpec {
                graphs: vec![
                    GraphDef::complete(8),
                    GraphDef::circulant(10, 2),
                    GraphDef::watts_strogatz(20, 4, 0.25, 99),
                ],
                adversaries: vec![
                    AdversaryDef::RandomMobile { f: 1 },
                    AdversaryDef::GreedyHeaviest {
                        f: 1,
                        mode: CorruptionMode::Constant(424242),
                    },
                    AdversaryDef::Eclipse {
                        node: 3,
                        f: 2,
                        mode: CorruptionMode::Drop,
                    },
                    AdversaryDef::Burst {
                        quiet: 6,
                        burst: 2,
                        per_round: 4,
                        total: 12,
                    },
                    AdversaryDef::Eavesdropper { f: 2 },
                ],
                compilers: vec![
                    CompilerDef::Uncompiled,
                    CompilerDef::Clique { f: 1, seed: 5 },
                    CompilerDef::TreePacking {
                        f: 1,
                        trees: Some(9),
                        seed: 5,
                        packing: netgraph::PackingVersion::V2Augmented,
                    },
                    CompilerDef::Expander {
                        f: 1,
                        k: 5,
                        bfs_rounds: 6,
                        seed: 13,
                    },
                    CompilerDef::StaticToMobile {
                        t: 4,
                        words: 2,
                        seed: 5,
                    },
                ],
                payload: PayloadDef::FloodBroadcast {
                    source: 0,
                    value: 4242,
                },
            },
        }
    }

    #[test]
    fn spec_json_round_trips_exactly() {
        let spec = sample_spec();
        let parsed = CampaignSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(parsed, spec);
        // Idempotent: format(parse(format(spec))) == format(spec).
        assert_eq!(parsed.to_json(), spec.to_json());
    }

    #[test]
    fn fingerprint_is_stable_and_distinguishes_specs() {
        let spec = sample_spec();
        assert_eq!(spec.fingerprint(), spec.fingerprint());
        assert_eq!(spec.fingerprint().len(), 16);
        let mut other = spec.clone();
        other.seed += 1;
        assert_ne!(spec.fingerprint(), other.fingerprint());
    }

    #[test]
    fn unknown_labels_are_typed_errors() {
        let bad_family = r#"{"kind":"campaign-spec","seed":1,"repetitions":1,"grid":{
            "graphs":[{"family":"moebius","n":8}],
            "adversaries":[{"kind":"random-mobile","f":1}],
            "compilers":[{"id":"uncompiled"}],
            "payload":{"kind":"exchange-ids"}}}"#;
        assert!(matches!(
            CampaignSpec::from_json(bad_family),
            Err(SpecError::UnknownLabel {
                registry: "graph family",
                ..
            })
        ));
        let bad_compiler = bad_family
            .replace("moebius", "complete")
            .replace("uncompiled", "quantum");
        assert!(matches!(
            CampaignSpec::from_json(&bad_compiler),
            Err(SpecError::UnknownLabel {
                registry: "compiler id",
                ..
            })
        ));
    }

    #[test]
    fn missing_fields_and_empty_axes_are_typed_errors() {
        assert!(matches!(
            CampaignSpec::from_json(r#"{"repetitions":1,"grid":{}}"#),
            Err(SpecError::Missing { .. })
        ));
        let empty_axis = r#"{"kind":"campaign-spec","seed":1,"repetitions":1,"grid":{
            "graphs":[],
            "adversaries":[{"kind":"random-mobile","f":1}],
            "compilers":[{"id":"uncompiled"}],
            "payload":{"kind":"exchange-ids"}}}"#;
        assert!(matches!(
            CampaignSpec::from_json(empty_axis),
            Err(SpecError::Invalid { .. })
        ));
        assert!(matches!(
            CampaignSpec::from_json("not json"),
            Err(SpecError::Json(_))
        ));
    }

    #[test]
    fn payload_defs_build_runnable_instances() {
        let g = netgraph::generators::complete(5);
        for def in [
            PayloadDef::ExchangeIds,
            PayloadDef::FloodBroadcast {
                source: 0,
                value: 7,
            },
            PayloadDef::LeaderElection,
            PayloadDef::TokenDissemination { batch: 5 },
        ] {
            let payload = def.build(&g);
            assert!(payload.rounds() > 0, "{} has rounds", def.label());
        }
    }

    #[test]
    fn payload_validation_catches_out_of_range_sources() {
        let g = netgraph::generators::complete(8);
        let def = PayloadDef::FloodBroadcast {
            source: 50,
            value: 1,
        };
        assert!(matches!(
            def.validate("K8", &g),
            Err(SpecError::Invalid { .. })
        ));
        assert!(PayloadDef::FloodBroadcast {
            source: 7,
            value: 1
        }
        .validate("K8", &g)
        .is_ok());
    }

    #[test]
    fn omitted_adversary_mode_defaults_to_the_zoo_mode() {
        // `{"kind":"greedy-heaviest","f":1}` must mean the SAME adversary as
        // the zoo's greedy-heaviest — the display names are identical, so a
        // different default mode would diverge invisibly.
        let spec = CampaignSpec::from_json(
            r#"{"kind":"campaign-spec","seed":1,"repetitions":1,"grid":{
                "graphs":[{"family":"complete","n":6}],
                "adversaries":[{"kind":"greedy-heaviest","f":1},
                               {"kind":"eclipse","node":0,"f":1}],
                "compilers":[{"id":"uncompiled"}],
                "payload":{"kind":"exchange-ids"}}}"#,
        )
        .unwrap();
        assert_eq!(
            spec.grid.adversaries[0],
            AdversaryDef::GreedyHeaviest {
                f: 1,
                mode: CorruptionMode::FlipLowBit,
            }
        );
        assert_eq!(
            spec.grid.adversaries[1],
            AdversaryDef::Eclipse {
                node: 0,
                f: 1,
                mode: CorruptionMode::Drop,
            }
        );
    }

    #[test]
    fn an_overflowing_float_parameter_is_refused_by_name() {
        // `1e999` parses as `inf`, which the canonical form cannot write
        // back: the spec would be stored and then never load again.
        let err = CampaignSpec::from_json(
            r#"{"kind":"campaign-spec","seed":1,"repetitions":1,"grid":{
                "graphs":[{"family":"watts-strogatz","n":12,"k":2,"beta":1e999}],
                "adversaries":[{"kind":"random-mobile","f":1}],
                "compilers":[{"id":"uncompiled"}],
                "payload":{"kind":"exchange-ids"}}}"#,
        )
        .unwrap_err();
        assert_eq!(
            err,
            SpecError::Missing {
                field: "graphs[].beta".into()
            }
        );
    }
}

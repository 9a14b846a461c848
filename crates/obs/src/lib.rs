//! Deterministic event tracing + per-phase profiling for the execution stack.
//!
//! The design separates two clocks:
//!
//! * **Virtual time** — the round index (synchronous networks) or tick index
//!   (the async executor).  It is the *only* clock that appears inside
//!   [`Event`]s, so a trace is a pure function of `(scenario, seed)`: the same
//!   run produces a byte-identical event stream at any campaign thread count,
//!   async host count, or wall-clock speed.
//! * **Wall time** — measured around phase spans with [`std::time::Instant`]
//!   and accumulated *out of band* into a [`PhaseProfile`].  Wall durations
//!   never enter the event stream and the profile's `Debug` form prints only
//!   span counts, so campaign fingerprints (which are `Debug`-derived) stay
//!   deterministic.
//!
//! Events are either phase **spans** ([`EventKind::SpanOpen`] /
//! [`EventKind::SpanClose`] around graph build, CSR indexing, packing
//! construction, key scheduling, per-round exchange, correction, decode) or
//! **points** (corruption applied, rewind triggered, augmenting-chain step,
//! async slot delivered/dropped/delayed, node crash/recover).
//!
//! An enabled [`Tracer`] keeps every event in one bounded in-memory ring of
//! [`RING_CAP`] events: once full, the oldest event is evicted and counted in
//! [`TraceStats::sink_dropped`].  [`RunTrace::write_jsonl`] turns the retained
//! events into one JSON object per line.
//!
//! The [`Tracer`] front end is branch-cheap when disabled: every method
//! early-returns on a single `bool`, takes no [`std::time::Instant`], and
//! allocates nothing, which is what keeps the no-op configuration within the
//! ≤ 1 % overhead budget on the E16 grid.
//!
//! ```
//! use obs::{Event, EventKind, Phase, Tracer, TraceSpec};
//!
//! let mut tracer = TraceSpec::ring().build_tracer();
//! tracer.set_time(0);
//! tracer.span_open(Phase::Packing);
//! tracer.point(EventKind::AugmentingChainStep { step: 0 });
//! tracer.span_close(Phase::Packing);
//! let outcome = tracer.finish();
//! assert_eq!(outcome.stats.unclosed, 0);
//! assert_eq!(outcome.events.len(), 3);
//! assert_eq!(outcome.events[0], Event { time: 0, kind: EventKind::SpanOpen(Phase::Packing) });
//! ```

use std::collections::VecDeque;
use std::fmt;
use std::io::Write;
use std::time::Instant;

/// The instrumented phases of the execution stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Graph/network construction (adjacency, adversary state, buffers).
    GraphBuild,
    /// Forcing the CSR adjacency index of the graph.
    CsrIndex,
    /// Tree-packing (or star/cycle-cover) construction.
    Packing,
    /// One-time-pad key exchange + extraction (secure compilers).
    KeySchedule,
    /// One network round exchange (adversary interposition included).
    RoundExchange,
    /// Sketch-based message correction (majority or ℓ0-threshold).
    Correction,
    /// Root-side sketch decoding inside a correction.
    Decode,
}

/// Number of [`Phase`] variants (array-indexed profiles).
pub const PHASE_COUNT: usize = 7;

impl Phase {
    /// All phases, in profile-table order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::GraphBuild,
        Phase::CsrIndex,
        Phase::Packing,
        Phase::KeySchedule,
        Phase::RoundExchange,
        Phase::Correction,
        Phase::Decode,
    ];

    /// Stable snake_case name used in JSONL output and profile tables.
    pub fn name(self) -> &'static str {
        match self {
            Phase::GraphBuild => "graph_build",
            Phase::CsrIndex => "csr_index",
            Phase::Packing => "packing",
            Phase::KeySchedule => "key_schedule",
            Phase::RoundExchange => "round_exchange",
            Phase::Correction => "correction",
            Phase::Decode => "decode",
        }
    }

    /// Dense index into per-phase arrays.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Event classes, the facets [`RunTrace::class_count`] counts.  Spans form
/// their own class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventClass {
    /// Span open/close events.
    Span,
    /// Adversary corruption applications.
    Corruption,
    /// Rewind-compiler rewinds.
    Rewind,
    /// Tree-packing augmenting-chain steps.
    Augment,
    /// Async per-arc slot outcomes (delivered/dropped/delayed).
    Slot,
    /// Async node crash/recover transitions.
    Node,
}

/// A typed trace event.  Carries **virtual time only** — never wall-clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A phase span begins.
    SpanOpen(Phase),
    /// A phase span ends.
    SpanClose(Phase),
    /// The adversary touched an edge this round (eavesdrop or corrupt).
    CorruptionApplied {
        /// Undirected edge id.
        edge: usize,
    },
    /// The rewind compiler popped (or retried) a committed round.
    RewindTriggered {
        /// Committed-prefix length *after* the rewind decision.
        committed: usize,
    },
    /// One successful augmenting-chain improvement in tree-packing v2.
    AugmentingChainStep {
        /// Improvement-round index within `improve_packing`.
        step: usize,
    },
    /// The async executor delivered a queued slot into an exchange.
    SlotDelivered {
        /// Directed arc id.
        arc: usize,
    },
    /// The async executor dropped a send (loss schedule).
    SlotDropped {
        /// Directed arc id.
        arc: usize,
    },
    /// The async executor deferred a send past its issue tick.
    SlotDelayed {
        /// Directed arc id.
        arc: usize,
    },
    /// A node crashed (async crash schedule).
    NodeCrash {
        /// Node id.
        node: usize,
    },
    /// A crashed node recovered.
    NodeRecover {
        /// Node id.
        node: usize,
    },
}

impl EventKind {
    /// The class of this event.
    pub fn class(&self) -> EventClass {
        match self {
            EventKind::SpanOpen(_) | EventKind::SpanClose(_) => EventClass::Span,
            EventKind::CorruptionApplied { .. } => EventClass::Corruption,
            EventKind::RewindTriggered { .. } => EventClass::Rewind,
            EventKind::AugmentingChainStep { .. } => EventClass::Augment,
            EventKind::SlotDelivered { .. }
            | EventKind::SlotDropped { .. }
            | EventKind::SlotDelayed { .. } => EventClass::Slot,
            EventKind::NodeCrash { .. } | EventKind::NodeRecover { .. } => EventClass::Node,
        }
    }
}

/// A trace event stamped with virtual time (round or tick index).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Virtual time: the round index (synchronous) or tick index (async).
    pub time: u64,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// Stable one-line JSON encoding (field order is part of the format).
    pub fn to_json_line(&self) -> String {
        let t = self.time;
        match self.kind {
            EventKind::SpanOpen(p) => {
                format!(
                    "{{\"t\":{t},\"ev\":\"span_open\",\"phase\":\"{}\"}}",
                    p.name()
                )
            }
            EventKind::SpanClose(p) => {
                format!(
                    "{{\"t\":{t},\"ev\":\"span_close\",\"phase\":\"{}\"}}",
                    p.name()
                )
            }
            EventKind::CorruptionApplied { edge } => {
                format!("{{\"t\":{t},\"ev\":\"corruption\",\"edge\":{edge}}}")
            }
            EventKind::RewindTriggered { committed } => {
                format!("{{\"t\":{t},\"ev\":\"rewind\",\"committed\":{committed}}}")
            }
            EventKind::AugmentingChainStep { step } => {
                format!("{{\"t\":{t},\"ev\":\"augment\",\"step\":{step}}}")
            }
            EventKind::SlotDelivered { arc } => {
                format!("{{\"t\":{t},\"ev\":\"slot_delivered\",\"arc\":{arc}}}")
            }
            EventKind::SlotDropped { arc } => {
                format!("{{\"t\":{t},\"ev\":\"slot_dropped\",\"arc\":{arc}}}")
            }
            EventKind::SlotDelayed { arc } => {
                format!("{{\"t\":{t},\"ev\":\"slot_delayed\",\"arc\":{arc}}}")
            }
            EventKind::NodeCrash { node } => {
                format!("{{\"t\":{t},\"ev\":\"crash\",\"node\":{node}}}")
            }
            EventKind::NodeRecover { node } => {
                format!("{{\"t\":{t},\"ev\":\"recover\",\"node\":{node}}}")
            }
        }
    }
}

/// Per-phase wall-clock aggregate.  Wall nanos live *only* here — events and
/// the `Debug` form (used by campaign fingerprints) carry span counts only.
#[derive(Clone, Copy, Default)]
pub struct PhaseProfile {
    counts: [u64; PHASE_COUNT],
    nanos: [u128; PHASE_COUNT],
}

impl PhaseProfile {
    /// Record one closed span of `phase` lasting `nanos` wall-nanoseconds.
    pub fn add(&mut self, phase: Phase, nanos: u128) {
        self.counts[phase.index()] += 1;
        self.nanos[phase.index()] += nanos;
    }

    /// Fold another profile into this one (campaign-level aggregation).
    pub fn merge(&mut self, other: &PhaseProfile) {
        for i in 0..PHASE_COUNT {
            self.counts[i] += other.counts[i];
            self.nanos[i] += other.nanos[i];
        }
    }

    /// True when no span has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// Closed-span count for a phase.
    pub fn count(&self, phase: Phase) -> u64 {
        self.counts[phase.index()]
    }

    /// Accumulated wall nanos for a phase.
    pub fn nanos(&self, phase: Phase) -> u128 {
        self.nanos[phase.index()]
    }

    /// `(phase name, span count, wall nanos)` for every phase with activity.
    pub fn rows(&self) -> Vec<(&'static str, u64, u128)> {
        Phase::ALL
            .iter()
            .filter(|p| self.counts[p.index()] > 0)
            .map(|&p| (p.name(), self.counts[p.index()], self.nanos[p.index()]))
            .collect()
    }
}

impl fmt::Debug for PhaseProfile {
    /// Deterministic: span counts only, never wall durations.  Campaign
    /// fingerprints are `format!("{:?}")` over cells, so durations here would
    /// break the equal-at-any-thread-count invariant.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PhaseProfile{{")?;
        let mut first = true;
        for p in Phase::ALL {
            let c = self.counts[p.index()];
            if c > 0 {
                if !first {
                    write!(f, " ")?;
                }
                write!(f, "{}:{}", p.name(), c)?;
                first = false;
            }
        }
        write!(f, "}}")
    }
}

/// Bookkeeping counters for one tracer's lifetime.  The field set is part of
/// [`RunTrace`]'s `Debug` form, which campaign fingerprints cover.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Events offered to the tracer while enabled.
    pub offered: u64,
    /// Events that reached the ring; every offered event does, so this
    /// always equals `offered`.
    pub recorded: u64,
    /// Always 0: the tracer keeps every event (nothing samples them out).
    pub sampled_out: u64,
    /// Events the ring evicted once it held [`RING_CAP`] events.
    pub sink_dropped: u64,
    /// Spans still open when the tracer finished.
    pub unclosed: u64,
    /// `span_close` calls that did not match the innermost open span.
    pub mismatched: u64,
}

/// Everything a finished tracer yields: the retained event stream, the
/// wall-clock profile, and the counters.
#[derive(Clone, Default)]
pub struct RunTrace {
    /// Retained events, oldest first (empty when tracing was off).
    pub events: Vec<Event>,
    /// Out-of-band per-phase wall profile.
    pub profile: PhaseProfile,
    /// Lifetime counters.
    pub stats: TraceStats,
}

impl RunTrace {
    /// FNV-1a digest over the JSONL encoding of the retained events.
    /// Deterministic for deterministic streams; used by `Debug` so campaign
    /// fingerprints cover the trace without embedding megabytes of events.
    pub fn events_digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for ev in &self.events {
            for b in ev.to_json_line().as_bytes() {
                h ^= *b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            h ^= b'\n' as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Serialize the retained events as JSONL.
    pub fn write_jsonl<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        for ev in &self.events {
            writeln!(w, "{}", ev.to_json_line())?;
        }
        Ok(())
    }

    /// Number of retained events of one class — the facet counters
    /// downstream scoring reads (e.g. the red-team `Fitness` lattice counts
    /// [`EventClass::Rewind`] triggers and [`EventClass::Corruption`]
    /// applications).  Counts **retained** events only: ring eviction past
    /// [`RING_CAP`] events reduces it.
    pub fn class_count(&self, class: EventClass) -> usize {
        self.events
            .iter()
            .filter(|ev| ev.kind.class() == class)
            .count()
    }
}

impl fmt::Debug for RunTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "RunTrace{{events:{} digest:{:016x} stats:{:?}}}",
            self.events.len(),
            self.events_digest(),
            self.stats
        )
    }
}

/// How a scenario or campaign should trace.  `Copy` so it threads through
/// builder APIs without ceremony.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSpec {
    /// Whether tracing is on at all (off ⇒ the no-op fast path).
    pub enabled: bool,
}

impl TraceSpec {
    /// Tracing off: the disabled tracer, no timing, no events.
    pub fn off() -> Self {
        TraceSpec { enabled: false }
    }

    /// Ring-buffer tracing: the most recent [`RING_CAP`] events are kept.
    pub fn ring() -> Self {
        TraceSpec { enabled: true }
    }

    /// Build the tracer this spec describes.
    pub fn build_tracer(&self) -> Tracer {
        if self.enabled {
            Tracer {
                enabled: true,
                open: Vec::with_capacity(8),
                ..Tracer::disabled()
            }
        } else {
            Tracer::disabled()
        }
    }
}

impl Default for TraceSpec {
    fn default() -> Self {
        TraceSpec::off()
    }
}

/// Capacity of an enabled tracer's ring, in events.
pub const RING_CAP: usize = 1 << 16;

/// The instrumentation front end.  One per `Network`; all methods early-return
/// when disabled (no `Instant::now()`, no allocation).
pub struct Tracer {
    enabled: bool,
    time: u64,
    events: VecDeque<Event>,
    open: Vec<(Phase, Instant)>,
    profile: PhaseProfile,
    stats: TraceStats,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Tracer{{enabled:{} time:{} stats:{:?}}}",
            self.enabled, self.time, self.stats
        )
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::disabled()
    }
}

impl Tracer {
    /// The no-op tracer: every call is a single branch.
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            time: 0,
            events: VecDeque::new(),
            open: Vec::new(),
            profile: PhaseProfile::default(),
            stats: TraceStats::default(),
        }
    }

    /// Whether events are being collected.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Set the virtual clock (round or tick index).
    #[inline]
    pub fn set_time(&mut self, time: u64) {
        if self.enabled {
            self.time = time;
        }
    }

    /// Current virtual time.
    #[inline]
    pub fn time(&self) -> u64 {
        self.time
    }

    fn emit(&mut self, kind: EventKind) {
        self.stats.offered += 1;
        if self.events.len() == RING_CAP {
            self.events.pop_front();
            self.stats.sink_dropped += 1;
        }
        self.events.push_back(Event {
            time: self.time,
            kind,
        });
        self.stats.recorded += 1;
    }

    /// Open a phase span.
    #[inline]
    pub fn span_open(&mut self, phase: Phase) {
        if !self.enabled {
            return;
        }
        self.emit(EventKind::SpanOpen(phase));
        self.open.push((phase, Instant::now()));
    }

    /// Close a phase span, folding its wall duration into the profile.
    #[inline]
    pub fn span_close(&mut self, phase: Phase) {
        if !self.enabled {
            return;
        }
        match self.open.pop() {
            Some((p, started)) if p == phase => {
                self.profile.add(phase, started.elapsed().as_nanos());
            }
            Some((p, started)) => {
                // Mismatched nesting: attribute the time to the span actually
                // on top, count the mismatch, and keep going.
                self.stats.mismatched += 1;
                self.profile.add(p, started.elapsed().as_nanos());
            }
            None => {
                self.stats.mismatched += 1;
            }
        }
        self.emit(EventKind::SpanClose(phase));
    }

    /// Record a point event.
    #[inline]
    pub fn point(&mut self, kind: EventKind) {
        if !self.enabled {
            return;
        }
        self.emit(kind);
    }

    /// Wall-clock profile accumulated so far.
    pub fn profile(&self) -> &PhaseProfile {
        &self.profile
    }

    /// Lifetime counters so far (unclosed not yet folded in).
    pub fn stats(&self) -> TraceStats {
        self.stats
    }

    /// Finish: count still-open spans as unclosed, and return the retained
    /// events + profile + stats.
    pub fn finish(mut self) -> RunTrace {
        self.stats.unclosed = self.open.len() as u64;
        RunTrace {
            events: self.events.into(),
            profile: self.profile,
            stats: self.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        t.set_time(9);
        t.span_open(Phase::RoundExchange);
        t.point(EventKind::CorruptionApplied { edge: 1 });
        t.span_close(Phase::RoundExchange);
        let out = t.finish();
        assert!(out.events.is_empty());
        assert_eq!(out.stats, TraceStats::default());
        assert!(out.profile.is_empty());
    }

    #[test]
    fn span_bracketing_and_profile_counts() {
        let mut t = TraceSpec::ring().build_tracer();
        t.span_open(Phase::GraphBuild);
        t.span_close(Phase::GraphBuild);
        t.set_time(3);
        t.span_open(Phase::RoundExchange);
        t.span_close(Phase::RoundExchange);
        let out = t.finish();
        assert_eq!(out.stats.unclosed, 0);
        assert_eq!(out.stats.mismatched, 0);
        assert_eq!(out.profile.count(Phase::GraphBuild), 1);
        assert_eq!(out.profile.count(Phase::RoundExchange), 1);
        assert_eq!(out.events.len(), 4);
        assert_eq!(out.events[2].time, 3);
    }

    #[test]
    fn unclosed_spans_are_counted() {
        let mut t = TraceSpec::ring().build_tracer();
        t.span_open(Phase::Packing);
        let out = t.finish();
        assert_eq!(out.stats.unclosed, 1);
    }

    #[test]
    fn mismatched_close_is_counted_not_fatal() {
        let mut t = TraceSpec::ring().build_tracer();
        t.span_open(Phase::Correction);
        t.span_close(Phase::Decode);
        let out = t.finish();
        assert_eq!(out.stats.mismatched, 1);
        assert_eq!(out.stats.unclosed, 0);
    }

    #[test]
    fn ring_keeps_the_most_recent_ring_cap_events() {
        let mut t = TraceSpec::ring().build_tracer();
        for i in 0..RING_CAP + 3 {
            t.point(EventKind::SlotDropped { arc: i });
        }
        let out = t.finish();
        assert_eq!(out.events.len(), RING_CAP);
        assert_eq!(out.events[0].kind, EventKind::SlotDropped { arc: 3 });
        assert_eq!(
            out.events[RING_CAP - 1].kind,
            EventKind::SlotDropped { arc: RING_CAP + 2 }
        );
        assert_eq!(out.stats.sink_dropped, 3);
        assert_eq!(out.stats.offered, (RING_CAP + 3) as u64);
        assert_eq!(out.stats.recorded, out.stats.offered);
        assert_eq!(out.stats.sampled_out, 0);
    }

    #[test]
    fn write_jsonl_writes_stable_lines() {
        let mut t = TraceSpec::ring().build_tracer();
        t.set_time(7);
        t.span_open(Phase::Decode);
        t.point(EventKind::NodeCrash { node: 4 });
        t.span_close(Phase::Decode);
        let mut out = Vec::new();
        t.finish().write_jsonl(&mut out).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "{\"t\":7,\"ev\":\"span_open\",\"phase\":\"decode\"}\n\
             {\"t\":7,\"ev\":\"crash\",\"node\":4}\n\
             {\"t\":7,\"ev\":\"span_close\",\"phase\":\"decode\"}\n"
        );
    }

    #[test]
    fn json_lines_cover_every_kind() {
        let kinds = [
            EventKind::SpanOpen(Phase::GraphBuild),
            EventKind::SpanClose(Phase::CsrIndex),
            EventKind::CorruptionApplied { edge: 1 },
            EventKind::RewindTriggered { committed: 2 },
            EventKind::AugmentingChainStep { step: 3 },
            EventKind::SlotDelivered { arc: 4 },
            EventKind::SlotDropped { arc: 5 },
            EventKind::SlotDelayed { arc: 6 },
            EventKind::NodeCrash { node: 7 },
            EventKind::NodeRecover { node: 8 },
        ];
        for kind in kinds {
            let line = Event { time: 1, kind }.to_json_line();
            assert!(line.starts_with("{\"t\":1,\"ev\":\""), "{line}");
            assert!(line.ends_with('}'), "{line}");
        }
    }

    #[test]
    fn profile_debug_prints_counts_not_nanos() {
        let mut p = PhaseProfile::default();
        p.add(Phase::Packing, 123_456_789);
        p.add(Phase::Packing, 1);
        let dbg = format!("{p:?}");
        assert_eq!(dbg, "PhaseProfile{packing:2}");
    }

    #[test]
    fn run_trace_digest_is_stream_stable() {
        let mk = || {
            let mut t = TraceSpec::ring().build_tracer();
            t.set_time(2);
            t.span_open(Phase::Correction);
            t.point(EventKind::RewindTriggered { committed: 1 });
            t.span_close(Phase::Correction);
            t.finish()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.events_digest(), b.events_digest());
        let dbg = format!("{a:?}");
        assert!(dbg.contains("events:3"), "{dbg}");
    }

    #[test]
    fn profile_merge_accumulates() {
        let mut a = PhaseProfile::default();
        a.add(Phase::Decode, 10);
        let mut b = PhaseProfile::default();
        b.add(Phase::Decode, 5);
        b.add(Phase::Packing, 7);
        a.merge(&b);
        assert_eq!(a.count(Phase::Decode), 2);
        assert_eq!(a.nanos(Phase::Decode), 15);
        assert_eq!(a.count(Phase::Packing), 1);
        let rows = a.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "packing");
    }
}

//! Deterministic asynchronous execution: nodes as concurrent processes under
//! a virtual-time discrete-event scheduler.
//!
//! The lockstep round engine (`congest_sim::algorithm::run_on_network`)
//! executes a CONGEST algorithm in perfectly synchronous rounds: everything
//! sent in round `r` is delivered in round `r`.  The mobile-adversary model
//! of the paper is strictly stronger than that world — message delay,
//! reordering, partial synchrony, crash-recovery and stragglers all matter —
//! so this crate adds a second executor in which **every node runs as a real
//! concurrent process** (a host thread holding one payload instance per
//! node), exchanging messages over channels, while a **virtual clock** makes
//! every run deterministic and byte-replayable regardless of how many host
//! threads the machine offers.
//!
//! # The model
//!
//! * Virtual time advances in integer **ticks**.  Each directed arc carries
//!   one *slot* per payload round, in order (per-arc FIFO): the slot is the
//!   round's message, or an explicit empty slot when the sender wrote
//!   nothing.  A node executes its round-`r` send as soon as it has consumed
//!   every round-`r−1` inbox slot (an α-synchronizer), and consumes round `r`
//!   once the round-`r` slot of **every** in-arc has arrived.
//! * Delivery behaviour is **data**: a [`ScheduleDef`] assigns each slot a
//!   latency (plus a bounded reorder jitter hashed from the run seed, the
//!   arc, and the sequence number — never from the adversary's RNG), may
//!   drop slot contents ([`DropModel`]), may delay slots across a partition
//!   boundary until the partition heals ([`PartitionWindow`]), and may crash
//!   nodes for windows of ticks ([`CrashWindow`]; arrivals queue per-arc and
//!   are consumed after recovery).
//! * Every tick with activity performs **one network exchange**: the slots
//!   arriving that tick are assembled into a [`Traffic`] and passed through
//!   the *same* [`Network::exchange_in_place`] the lockstep engine uses, so
//!   the adversary marks edges, spends budget, corrupts payloads and logs
//!   views with bit-identical randomness.
//!
//! # The parity contract
//!
//! On the synchronous schedule ([`ScheduleDef::synchronous`]: zero latency,
//! no reordering, no drops, no partitions, no crashes) every node sends
//! round `r` at tick `r` and every slot arrives at tick `r`, so tick `r`'s
//! exchange carries exactly the lockstep engine's round-`r` traffic.
//! Outputs, metrics, corruption histories and eavesdropper views are
//! therefore **byte-identical** to `run_on_network` — pinned by this crate's
//! tests and by the umbrella `tests/async_exec.rs` parity suite over the
//! zoo grid.
//!
//! The construction leans on the `CongestAlgorithm` locality contract
//! (a node's outgoing messages depend only on its own previous inbox and
//! randomness): the executor builds one full payload instance per node,
//! feeds instance `v` only the arcs into `v`, harvests only the arcs out of
//! `v`, and reads `outputs()[v]` — so instances never need to share state
//! across host threads.
//!
//! ```
//! use async_exec::{AsyncExecutor, ScheduleDef};
//! use congest_sim::algorithm::run_on_network;
//! use congest_sim::network::Network;
//! use congest_sim::scenario::{doctest_payload, Compiler};
//! use netgraph::generators;
//!
//! let g = generators::grid(3, 3);
//! // Lockstep reference …
//! let mut reference = doctest_payload(g.clone());
//! let mut lock_net = Network::fault_free(g.clone());
//! let lock_out = run_on_network(&mut reference, &mut lock_net);
//! // … and the async executor on the synchronous schedule.
//! let mut async_net = Network::fault_free(g.clone());
//! let executor = AsyncExecutor::new(ScheduleDef::synchronous());
//! let artifacts = executor.prepare(&g, &mut obs::Tracer::disabled()).unwrap();
//! let (out, notes) = executor
//!     .execute(&artifacts, &|| Box::new(doctest_payload(g.clone())), &mut async_net)
//!     .unwrap();
//! assert_eq!(out, lock_out);
//! assert_eq!(format!("{:?}", async_net.metrics()), format!("{:?}", lock_net.metrics()));
//! assert_eq!(notes.label(), "async");
//! ```

#![warn(missing_docs)]

use congest_sim::network::Network;
use congest_sim::scenario::{
    validate_role, BoxedAlgorithm, CompileArtifacts, Compiler, CompilerKind, CompilerNotes,
    ScenarioError,
};
use congest_sim::traffic::{Output, Traffic};
use netgraph::{ArcId, Graph, NodeId};
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::mpsc;

/// Per-slot base latency, in virtual ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyModel {
    /// Zero latency: a slot arrives the tick it is sent (the lockstep twin).
    Synchronous,
    /// Every slot takes exactly `ticks` ticks.
    Fixed {
        /// The fixed delay.
        ticks: u64,
    },
    /// Each slot's delay is drawn uniformly from `min..=max`, hashed from
    /// the run seed, the arc and the sequence number (deterministic, and
    /// independent of the adversary's RNG).
    Uniform {
        /// Smallest delay.
        min: u64,
        /// Largest delay.
        max: u64,
    },
}

impl LatencyModel {
    /// The largest delay this model can assign.
    fn max_delay(&self) -> u64 {
        match *self {
            LatencyModel::Synchronous => 0,
            LatencyModel::Fixed { ticks } => ticks,
            LatencyModel::Uniform { max, .. } => max,
        }
    }
}

/// Which slot contents are lost in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropModel {
    /// Nothing is dropped.
    None,
    /// Every `k`-th *present* message on each arc loses its content (the
    /// slot still arrives — the synchronizer observes the loss, the payload
    /// sees an omission).
    EveryKth {
        /// The drop period (`k >= 1`; `k = 1` drops everything).
        k: u64,
    },
}

/// A temporary network partition: during ticks `from..until`, slots crossing
/// the boundary between `island` and the rest of the graph are held back and
/// arrive when the partition heals (at tick `until`), content intact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionWindow {
    /// First tick of the partition.
    pub from: u64,
    /// First tick after the partition (the heal tick).
    pub until: u64,
    /// The nodes on one side of the cut.
    pub island: Vec<NodeId>,
}

/// A crash-recovery window: the node executes no sends or receives during
/// ticks `from..until`; arrivals queue per-arc FIFO and are consumed after
/// recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashWindow {
    /// The crashed node.
    pub node: NodeId,
    /// First crashed tick.
    pub from: u64,
    /// First tick after recovery.
    pub until: u64,
}

/// The delivery schedule — asynchrony as *data*, alongside `GraphDef` /
/// `AdversaryDef` / `CompilerDef` in the spec layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleDef {
    /// Base latency per slot.
    pub latency: LatencyModel,
    /// Bound on the additional per-slot jitter (`0` = in order across arcs;
    /// per-arc FIFO is always preserved).
    pub reorder_window: u64,
    /// Content-drop schedule.
    pub drops: DropModel,
    /// Partition windows.
    pub partitions: Vec<PartitionWindow>,
    /// Crash-recovery windows.
    pub crashes: Vec<CrashWindow>,
}

impl Default for ScheduleDef {
    fn default() -> Self {
        ScheduleDef::synchronous()
    }
}

impl ScheduleDef {
    /// The zero-delay, in-order, loss-free schedule — the lockstep engine's
    /// twin, and the schedule the parity suite pins byte-for-byte.
    pub fn synchronous() -> Self {
        ScheduleDef {
            latency: LatencyModel::Synchronous,
            reorder_window: 0,
            drops: DropModel::None,
            partitions: Vec::new(),
            crashes: Vec::new(),
        }
    }

    /// Fixed latency of `ticks` (builder-style).
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Set the reorder window (builder-style).
    pub fn with_reorder_window(mut self, window: u64) -> Self {
        self.reorder_window = window;
        self
    }

    /// Add a crash-recovery window (builder-style).
    pub fn with_crash(mut self, window: CrashWindow) -> Self {
        self.crashes.push(window);
        self
    }

    /// Compact display name: `sync` for the default, otherwise a
    /// comma-joined parameter list (`lat=2,ro=1`, `lat=0..3`, `drop1in5`,
    /// `part1`, `crash1`).
    pub fn display_name(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        match self.latency {
            LatencyModel::Synchronous => {}
            LatencyModel::Fixed { ticks } => parts.push(format!("lat={ticks}")),
            LatencyModel::Uniform { min, max } => parts.push(format!("lat={min}..{max}")),
        }
        if self.reorder_window > 0 {
            parts.push(format!("ro={}", self.reorder_window));
        }
        if let DropModel::EveryKth { k } = self.drops {
            parts.push(format!("drop1in{k}"));
        }
        if !self.partitions.is_empty() {
            parts.push(format!("part{}", self.partitions.len()));
        }
        if !self.crashes.is_empty() {
            parts.push(format!("crash{}", self.crashes.len()));
        }
        if parts.is_empty() {
            "sync".to_string()
        } else {
            parts.join(",")
        }
    }

    /// Validate the schedule against a graph of `n` nodes.
    pub fn validate(&self, n: usize) -> Result<(), String> {
        if let LatencyModel::Uniform { min, max } = self.latency {
            if min > max {
                return Err(format!("uniform latency has min {min} > max {max}"));
            }
        }
        if let DropModel::EveryKth { k } = self.drops {
            if k == 0 {
                return Err("drop period k must be at least 1".to_string());
            }
        }
        for c in &self.crashes {
            if c.node >= n {
                return Err(format!(
                    "crash window names node {} of a {n}-node graph",
                    c.node
                ));
            }
            if c.from > c.until {
                return Err(format!(
                    "crash window for node {} has from {} > until {}",
                    c.node, c.from, c.until
                ));
            }
        }
        for p in &self.partitions {
            if p.from > p.until {
                return Err(format!(
                    "partition window has from {} > until {}",
                    p.from, p.until
                ));
            }
            if let Some(&v) = p.island.iter().find(|&&v| v >= n) {
                return Err(format!(
                    "partition island names node {v} of a {n}-node graph"
                ));
            }
        }
        Ok(())
    }

    /// Whether `node` is crashed at tick `t`.
    fn crashed(&self, node: NodeId, t: u64) -> bool {
        self.crashes
            .iter()
            .any(|c| c.node == node && c.from <= t && t < c.until)
    }

    /// The delay assigned to sequence number `seq` on `arc`, hashed from the
    /// run seed (never from the adversary's corruption RNG).
    fn delay(&self, run_seed: u64, arc: ArcId, seq: usize) -> u64 {
        let h = mix(run_seed
            .wrapping_add((arc as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add((seq as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9)));
        let base = match self.latency {
            LatencyModel::Synchronous => 0,
            LatencyModel::Fixed { ticks } => ticks,
            LatencyModel::Uniform { min, max } => min + h % (max - min + 1),
        };
        let jitter = if self.reorder_window == 0 {
            0
        } else {
            mix(h ^ 0xD6E8_FEB8_6659_FD93) % (self.reorder_window + 1)
        };
        base + jitter
    }

    /// Push `arrival` of a slot on the arc `(u, v)` past every partition
    /// window whose cut the arc crosses, until it lands outside all of them.
    fn partition_heal(&self, (u, v): (NodeId, NodeId), mut arrival: u64) -> u64 {
        if self.partitions.is_empty() {
            return arrival;
        }
        // A heal can land the slot inside a later window; iterate to a fixed
        // point (each pass can only move the arrival forward).
        for _ in 0..=self.partitions.len() {
            let mut moved = false;
            for p in &self.partitions {
                let crosses = p.island.contains(&u) != p.island.contains(&v);
                if crosses && p.from <= arrival && arrival < p.until {
                    arrival = p.until;
                    moved = true;
                }
            }
            if !moved {
                break;
            }
        }
        arrival
    }

    /// An upper bound on the virtual time a well-formed run can need: past
    /// it the event loop gives up and reports the unfinished nodes.
    fn horizon(&self, rounds: usize) -> u64 {
        let max_delay = self.latency.max_delay() + self.reorder_window;
        let crash_tail = self.crashes.iter().map(|c| c.until).max().unwrap_or(0);
        let part_tail = self.partitions.iter().map(|p| p.until).max().unwrap_or(0);
        (rounds as u64 + 1) * (max_delay + 1) + crash_tail + part_tail + 64
    }
}

/// SplitMix64 finalizer: the per-slot hash behind latency and jitter.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What the drop model decides for the `count`-th present message on an arc
/// (1-based).
fn should_drop(drops: DropModel, count: u64) -> bool {
    match drops {
        DropModel::None => false,
        DropModel::EveryKth { k } => count.is_multiple_of(k),
    }
}

/// The asynchronous virtual-time executor, pluggable anywhere a
/// [`Compiler`] fits (the `Scenario` builder, campaign grids, specs).
///
/// `kind()` is [`CompilerKind::Baseline`]: like
/// `congest_sim::scenario::Uncompiled`, it adds no defence of its own and
/// runs under byzantine and eavesdropping adversaries alike.  It hosts one
/// payload instance per node, so [`Compiler::execute`] calls its payload
/// factory `n` times.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsyncExecutor {
    schedule: ScheduleDef,
    hosts: usize,
}

impl AsyncExecutor {
    /// An executor driving `schedule`, with the host-thread count chosen
    /// from the machine (results never depend on it).
    pub fn new(schedule: ScheduleDef) -> Self {
        AsyncExecutor { schedule, hosts: 0 }
    }

    /// Pin the number of host threads the nodes are multiplexed onto
    /// (clamped to the node count; `0` = automatic).  Changing this never
    /// changes any byte of the results — pinned by the determinism tests.
    pub fn with_hosts(mut self, hosts: usize) -> Self {
        self.hosts = hosts;
        self
    }

    /// The schedule this executor drives.
    pub fn schedule(&self) -> &ScheduleDef {
        &self.schedule
    }
}

/// One arc's slot content: a present payload or an explicit absence.
type ArcSlot = (ArcId, Option<Vec<u64>>);

/// One node's receive order: `(node, round, inbox slots)`.
type ReceiveJob = (NodeId, usize, Vec<ArcSlot>);

/// One in-flight slot: a round's message (or explicit absence) on one arc.
struct SlotMsg {
    arc: ArcId,
    seq: usize,
    payload: Option<Vec<u64>>,
}

/// Work orders from the virtual-time scheduler to a host process.
enum HostRequest {
    /// Execute `send_into(round)` on each named node's instance and return
    /// the slots on its out-arcs.
    Send {
        /// `(node, round)` jobs.
        jobs: Vec<(NodeId, usize)>,
    },
    /// Deliver each inbox (post-corruption) and execute `receive(round)`.
    Receive {
        /// `(node, round, inbox slots)` jobs.
        jobs: Vec<ReceiveJob>,
    },
    /// Return every hosted node's output and shut down.
    Harvest,
}

/// Replies from a host process back to the scheduler.
enum HostReply {
    /// Out-arc slots per sent node.
    Sent(Vec<(NodeId, Vec<ArcSlot>)>),
    /// Acknowledgement that a batch of receive jobs completed.
    Received,
    /// `(node, output)` pairs for every hosted node.
    Harvested(Vec<(NodeId, Output)>),
}

/// The body of one host process: owns a set of node instances, executes
/// send/receive orders against a private [`Traffic`] buffer, and answers on
/// the shared reply channel.
fn host_loop(
    g: Graph,
    mut instances: Vec<(NodeId, BoxedAlgorithm)>,
    rx: mpsc::Receiver<HostRequest>,
    reply: mpsc::Sender<HostReply>,
) {
    let mut buf = Traffic::new(&g);
    while let Ok(req) = rx.recv() {
        match req {
            HostRequest::Send { jobs } => {
                let mut batches = Vec::with_capacity(jobs.len());
                for (node, round) in jobs {
                    let inst = instances
                        .iter_mut()
                        .find(|(v, _)| *v == node)
                        .expect("send job routed to the wrong host");
                    // The instance writes the whole graph's round; only the
                    // arcs out of its own node are harvested (the locality
                    // contract makes the rest redundant).
                    inst.1.send_into(round, &mut buf);
                    let slots: Vec<ArcSlot> = g
                        .csr()
                        .neighbors(node)
                        .iter()
                        .map(|e| (e.arc_out, buf.get_arc(e.arc_out).map(|p| p.to_vec())))
                        .collect();
                    batches.push((node, slots));
                }
                let _ = reply.send(HostReply::Sent(batches));
            }
            HostRequest::Receive { jobs } => {
                for (node, round, inbox) in jobs {
                    buf.begin_round(&g);
                    for (arc, payload) in &inbox {
                        if let Some(p) = payload {
                            buf.set_arc(*arc, Some(p));
                        }
                    }
                    let inst = instances
                        .iter_mut()
                        .find(|(v, _)| *v == node)
                        .expect("receive job routed to the wrong host");
                    inst.1.receive(round, &buf);
                }
                let _ = reply.send(HostReply::Received);
            }
            HostRequest::Harvest => {
                let outputs = instances
                    .iter()
                    .map(|(v, inst)| (*v, inst.outputs().swap_remove(*v)))
                    .collect();
                let _ = reply.send(HostReply::Harvested(outputs));
                break;
            }
        }
    }
}

impl Compiler for AsyncExecutor {
    fn name(&self) -> String {
        format!("async({})", self.schedule.display_name())
    }

    fn kind(&self) -> CompilerKind {
        CompilerKind::Baseline
    }

    // The executor derives everything per run from the schedule and the run
    // seed, so past the schedule check graph-only artifacts are all there is
    // to cache.
    fn prepare(
        &self,
        graph: &Graph,
        _tracer: &mut obs::Tracer,
    ) -> Result<CompileArtifacts, ScenarioError> {
        self.schedule
            .validate(graph.node_count())
            .map_err(|reason| ScenarioError::InvalidParameter {
                compiler: self.name(),
                reason,
            })?;
        Ok(CompileArtifacts::graph_only(graph))
    }

    fn execute(
        &self,
        _artifacts: &CompileArtifacts,
        make: &dyn Fn() -> BoxedAlgorithm,
        net: &mut Network,
    ) -> Result<(Vec<Output>, CompilerNotes), ScenarioError> {
        validate_role(self, net.role())?;
        let g = net.graph().clone();
        let n = g.node_count();
        if n == 0 {
            return Ok((Vec::new(), CompilerNotes::None));
        }
        let run_seed = net.run_seed();
        let schedule = &self.schedule;

        // One full payload instance per node (the locality contract makes
        // per-node sharding exact; see the module docs).
        let mut instances: Vec<BoxedAlgorithm> = (0..n).map(|_| make()).collect();
        let rounds = instances[0].rounds();

        let host_count = if self.hosts == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
                .min(n)
        } else {
            self.hosts.min(n)
        };
        let mut per_host: Vec<Vec<(NodeId, BoxedAlgorithm)>> =
            (0..host_count).map(|_| Vec::new()).collect();
        for (v, inst) in instances.drain(..).enumerate().rev() {
            per_host[v % host_count].push((v, inst));
        }
        let host_of = |v: NodeId| v % host_count;

        let arc_count = g.arc_count();
        let mut arc_ends: Vec<(NodeId, NodeId)> = vec![(0, 0); arc_count];
        for v in 0..n {
            for e in g.csr().neighbors(v) {
                arc_ends[e.arc_out] = (v, e.neighbor);
            }
        }

        let (reply_tx, reply_rx) = mpsc::channel::<HostReply>();
        let mut outcome: Option<(Vec<Output>, CompilerNotes)> = None;
        std::thread::scope(|scope| {
            let mut req_txs: Vec<mpsc::Sender<HostRequest>> = Vec::with_capacity(host_count);
            for insts in per_host.drain(..) {
                let (tx, rx) = mpsc::channel::<HostRequest>();
                req_txs.push(tx);
                let graph = g.clone();
                let reply = reply_tx.clone();
                scope.spawn(move || host_loop(graph, insts, rx, reply));
            }

            // Scheduler state: per-node round cursors, per-arc FIFO
            // bookkeeping, the in-flight event queue and the per-arc queues
            // of arrived (post-corruption) slots awaiting consumption.
            let mut next_send = vec![0usize; n];
            let mut next_recv = vec![0usize; n];
            let mut last_arrival: Vec<Option<u64>> = vec![None; arc_count];
            let mut present_count: Vec<u64> = vec![0; arc_count];
            let mut in_flight: BTreeMap<u64, Vec<SlotMsg>> = BTreeMap::new();
            let mut arrived: Vec<VecDeque<(usize, Option<Vec<u64>>)>> =
                vec![VecDeque::new(); arc_count];
            let mut exchange_buf = Traffic::new(&g);

            let (mut exchanges, mut delivered, mut dropped, mut delayed) =
                (0usize, 0usize, 0usize, 0usize);
            let horizon = schedule.horizon(rounds);
            let mut ticks_used: u64 = 0;
            let mut t: u64 = 0;
            // Crash/recover events fire once per window even though idle
            // ticks are skipped; all tracing happens on this scheduler
            // thread, so streams never depend on the host count.
            let mut crash_emitted = vec![false; schedule.crashes.len()];
            let mut recover_emitted = vec![false; schedule.crashes.len()];

            // Fan a job list out to the hosts and merge the replies (sorted
            // by node, so the result is independent of the host count).
            let dispatch_sends = |jobs: &[(NodeId, usize)],
                                  req_txs: &[mpsc::Sender<HostRequest>]|
             -> Vec<(NodeId, Vec<ArcSlot>)> {
                let mut per: Vec<Vec<(NodeId, usize)>> = vec![Vec::new(); host_count];
                for &(v, r) in jobs {
                    per[host_of(v)].push((v, r));
                }
                let mut waiting = 0usize;
                for (h, batch) in per.into_iter().enumerate() {
                    if !batch.is_empty() {
                        req_txs[h]
                            .send(HostRequest::Send { jobs: batch })
                            .expect("host process alive");
                        waiting += 1;
                    }
                }
                let mut merged = Vec::with_capacity(jobs.len());
                for _ in 0..waiting {
                    match reply_rx.recv().expect("host process alive") {
                        HostReply::Sent(batches) => merged.extend(batches),
                        _ => unreachable!("send phase got a non-send reply"),
                    }
                }
                merged.sort_by_key(|(v, _)| *v);
                merged
            };

            while (0..n).any(|v| next_recv[v] < rounds) && t <= horizon {
                if net.tracer_mut().is_enabled() {
                    net.tracer_mut().set_time(t);
                    for (i, c) in schedule.crashes.iter().enumerate() {
                        if !crash_emitted[i] && t >= c.from {
                            crash_emitted[i] = true;
                            net.tracer_mut()
                                .point(obs::EventKind::NodeCrash { node: c.node });
                        }
                        if !recover_emitted[i] && t >= c.until {
                            recover_emitted[i] = true;
                            net.tracer_mut()
                                .point(obs::EventKind::NodeRecover { node: c.node });
                        }
                    }
                }
                // -- send phase: every live node that has consumed its
                // previous round fires its next one on its host process.
                let send_jobs: Vec<(NodeId, usize)> = (0..n)
                    .filter(|&v| {
                        !schedule.crashed(v, t)
                            && next_send[v] < rounds
                            && next_send[v] == next_recv[v]
                    })
                    .map(|v| (v, next_send[v]))
                    .collect();
                let sent = if send_jobs.is_empty() {
                    Vec::new()
                } else {
                    dispatch_sends(&send_jobs, &req_txs)
                };
                for (v, slots) in sent {
                    let seq = next_send[v];
                    next_send[v] += 1;
                    for (arc, mut payload) in slots {
                        if payload.is_some() {
                            present_count[arc] += 1;
                            if should_drop(schedule.drops, present_count[arc]) {
                                payload = None;
                                dropped += 1;
                                net.tracer_mut().point(obs::EventKind::SlotDropped { arc });
                            }
                        }
                        let mut arrival = t + schedule.delay(run_seed, arc, seq);
                        arrival = schedule.partition_heal(arc_ends[arc], arrival);
                        if let Some(last) = last_arrival[arc] {
                            arrival = arrival.max(last + 1); // per-arc FIFO
                        }
                        last_arrival[arc] = Some(arrival);
                        if arrival > t {
                            delayed += 1;
                            net.tracer_mut().point(obs::EventKind::SlotDelayed { arc });
                        }
                        in_flight
                            .entry(arrival)
                            .or_default()
                            .push(SlotMsg { arc, seq, payload });
                    }
                }

                // -- exchange phase: this tick's arrivals cross the (adver-
                // sarial) network in one exchange, exactly as a lockstep
                // round would.  Send-only ticks still exchange (an empty
                // round is still a round the adversary acts in).
                let arriving = in_flight.remove(&t).unwrap_or_default();
                let had_arrivals = !arriving.is_empty();
                if !send_jobs.is_empty() || had_arrivals {
                    exchanges += 1;
                    ticks_used = t + 1;
                    exchange_buf.begin_round(&g);
                    for m in &arriving {
                        if let Some(p) = &m.payload {
                            exchange_buf.set_arc(m.arc, Some(p));
                        }
                    }
                    net.exchange_in_place(&mut exchange_buf);
                    // The exchange stamps its events with the network round;
                    // slot events go back on the tick clock.
                    net.tracer_mut().set_time(t);
                    for m in arriving {
                        // Re-read the post-exchange state whatever the slot
                        // carried before: a byzantine adversary can rewrite,
                        // fabricate onto an empty slot, or delete outright.
                        let payload = exchange_buf.get_arc(m.arc).map(|p| p.to_vec());
                        if payload.is_some() {
                            delivered += 1;
                            net.tracer_mut()
                                .point(obs::EventKind::SlotDelivered { arc: m.arc });
                        }
                        arrived[m.arc].push_back((m.seq, payload));
                    }
                }

                // -- receive phase: nodes whose next round's slot has
                // arrived on every in-arc consume the round.
                let mut recv_jobs: Vec<ReceiveJob> = Vec::new();
                for v in 0..n {
                    if schedule.crashed(v, t) || next_recv[v] >= next_send[v] {
                        continue;
                    }
                    let r = next_recv[v];
                    let ready = g
                        .csr()
                        .neighbors(v)
                        .iter()
                        .all(|e| arrived[e.arc_in].front().is_some_and(|(s, _)| *s == r));
                    if !ready {
                        continue;
                    }
                    let inbox: Vec<ArcSlot> = g
                        .csr()
                        .neighbors(v)
                        .iter()
                        .map(|e| {
                            let (seq, payload) =
                                arrived[e.arc_in].pop_front().expect("checked above");
                            debug_assert_eq!(seq, r, "per-arc FIFO violated");
                            (e.arc_in, payload)
                        })
                        .collect();
                    recv_jobs.push((v, r, inbox));
                }
                let had_receives = !recv_jobs.is_empty();
                if had_receives {
                    ticks_used = t + 1;
                    let mut per: Vec<Vec<ReceiveJob>> = vec![Vec::new(); host_count];
                    for job in recv_jobs {
                        next_recv[job.0] += 1;
                        per[host_of(job.0)].push(job);
                    }
                    let mut waiting = 0usize;
                    for (h, batch) in per.into_iter().enumerate() {
                        if !batch.is_empty() {
                            req_txs[h]
                                .send(HostRequest::Receive { jobs: batch })
                                .expect("host process alive");
                            waiting += 1;
                        }
                    }
                    for _ in 0..waiting {
                        match reply_rx.recv().expect("host process alive") {
                            HostReply::Received => {}
                            _ => unreachable!("receive phase got a non-receive reply"),
                        }
                    }
                }

                // -- advance the clock.  After a fully idle tick nothing can
                // happen until the next in-flight arrival or the next crash
                // recovery, so jump straight there (and if neither exists,
                // the run is wedged — leave the loop to report it).
                if send_jobs.is_empty() && !had_arrivals && !had_receives {
                    let next_arrival = in_flight.keys().next().copied();
                    let next_recovery = schedule
                        .crashes
                        .iter()
                        .map(|c| c.until)
                        .filter(|&u| u > t)
                        .min();
                    t = match (next_arrival, next_recovery) {
                        (Some(a), Some(r)) => a.min(r).max(t + 1),
                        (Some(a), None) => a.max(t + 1),
                        (None, Some(r)) => r.max(t + 1),
                        (None, None) => break,
                    };
                } else {
                    t += 1;
                }
            }

            // -- harvest: every host returns its nodes' outputs.
            for tx in &req_txs {
                tx.send(HostRequest::Harvest).expect("host process alive");
            }
            let mut harvested: Vec<(NodeId, Output)> = Vec::with_capacity(n);
            for _ in 0..host_count {
                match reply_rx.recv().expect("host process alive") {
                    HostReply::Harvested(outs) => harvested.extend(outs),
                    _ => unreachable!("harvest got a non-harvest reply"),
                }
            }
            harvested.sort_by_key(|(v, _)| *v);
            let outputs: Vec<Output> = harvested.into_iter().map(|(_, o)| o).collect();

            let unfinished = (0..n).filter(|&v| next_recv[v] < rounds).count();
            outcome = Some((
                outputs,
                CompilerNotes::Async {
                    ticks: ticks_used as usize,
                    exchanges,
                    delivered_slots: delivered,
                    dropped_slots: dropped,
                    delayed_slots: delayed,
                    completed: unfinished == 0,
                    unfinished_nodes: unfinished,
                },
            ));
        });
        Ok(outcome.expect("scheduler scope always produces an outcome"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_algorithms::{FloodBroadcast, LeaderElection};
    use congest_sim::adversary::{AdversaryRole, CorruptionBudget, RandomMobile};
    use congest_sim::algorithm::run_on_network;
    use netgraph::generators;

    fn adversarial_net(g: &Graph, seed: u64) -> Network {
        Network::new(
            g.clone(),
            AdversaryRole::Byzantine,
            Box::new(RandomMobile::new(1, seed)),
            CorruptionBudget::Mobile { f: 1 },
            seed,
        )
    }

    #[test]
    fn synchronous_schedule_matches_lockstep_byte_for_byte() {
        let g = generators::grid(3, 4);
        let make =
            || -> BoxedAlgorithm { Box::new(FloodBroadcast::new(generators::grid(3, 4), 0, 99)) };

        let mut lock_net = adversarial_net(&g, 11);
        let mut reference = make();
        let lock_out = run_on_network(&mut *reference, &mut lock_net);

        let mut async_net = adversarial_net(&g, 11);
        let (out, notes) = AsyncExecutor::new(ScheduleDef::synchronous())
            .with_hosts(3)
            .execute(&CompileArtifacts::graph_only(&g), &make, &mut async_net)
            .unwrap();

        assert_eq!(out, lock_out);
        assert_eq!(
            format!("{:?}", async_net.metrics()),
            format!("{:?}", lock_net.metrics())
        );
        assert_eq!(
            format!("{:?}", async_net.corruption_history()),
            format!("{:?}", lock_net.corruption_history())
        );
        match notes {
            CompilerNotes::Async {
                ticks,
                exchanges,
                completed,
                dropped_slots,
                delayed_slots,
                ..
            } => {
                assert_eq!(ticks, reference.rounds());
                assert_eq!(exchanges, reference.rounds());
                assert!(completed);
                assert_eq!(dropped_slots, 0);
                assert_eq!(delayed_slots, 0);
            }
            other => panic!("expected async notes, got {other:?}"),
        }
    }

    #[test]
    fn host_count_never_changes_a_byte() {
        let g = generators::circulant(10, 2);
        let schedule = ScheduleDef::synchronous()
            .with_latency(LatencyModel::Uniform { min: 0, max: 3 })
            .with_reorder_window(2);
        let make =
            || -> BoxedAlgorithm { Box::new(LeaderElection::new(generators::circulant(10, 2))) };
        let mut baseline = None;
        for hosts in [1, 2, 8] {
            let mut net = adversarial_net(&g, 7);
            let result = AsyncExecutor::new(schedule.clone())
                .with_hosts(hosts)
                .execute(&CompileArtifacts::graph_only(&g), &make, &mut net)
                .unwrap();
            let bytes = format!(
                "{result:?}/{:?}/{:?}",
                net.metrics(),
                net.corruption_history()
            );
            match &baseline {
                None => baseline = Some(bytes),
                Some(b) => assert_eq!(&bytes, b, "host count {hosts} diverged"),
            }
        }
    }

    #[test]
    fn fixed_latency_delays_but_preserves_outputs_without_an_adversary() {
        let g = generators::grid(3, 3);
        let make =
            || -> BoxedAlgorithm { Box::new(FloodBroadcast::new(generators::grid(3, 3), 0, 5)) };
        let mut expected = make();
        let expected_rounds = expected.rounds();
        let fault_free = congest_sim::algorithm::run_fault_free(&mut *expected);

        let mut net = Network::fault_free(g.clone());
        let (out, notes) = AsyncExecutor::new(
            ScheduleDef::synchronous().with_latency(LatencyModel::Fixed { ticks: 2 }),
        )
        .execute(&CompileArtifacts::graph_only(&g), &make, &mut net)
        .unwrap();
        assert_eq!(out, fault_free);
        match notes {
            CompilerNotes::Async {
                ticks,
                delayed_slots,
                completed,
                ..
            } => {
                assert!(completed);
                assert!(ticks > expected_rounds, "latency must stretch virtual time");
                assert!(delayed_slots > 0);
            }
            other => panic!("expected async notes, got {other:?}"),
        }
    }

    #[test]
    fn crash_recovery_stalls_then_completes_and_agrees() {
        let g = generators::grid(3, 3);
        let make =
            || -> BoxedAlgorithm { Box::new(FloodBroadcast::new(generators::grid(3, 3), 0, 5)) };
        let mut expected = make();
        let fault_free = congest_sim::algorithm::run_fault_free(&mut *expected);

        let mut net = Network::fault_free(g.clone());
        let (out, notes) = AsyncExecutor::new(ScheduleDef::synchronous().with_crash(CrashWindow {
            node: 4,
            from: 1,
            until: 5,
        }))
        .execute(&CompileArtifacts::graph_only(&g), &make, &mut net)
        .unwrap();
        assert_eq!(out, fault_free, "a healed crash loses no content");
        match notes {
            CompilerNotes::Async {
                ticks, completed, ..
            } => {
                assert!(completed);
                assert!(ticks >= 5, "the crash window must stall virtual time");
            }
            other => panic!("expected async notes, got {other:?}"),
        }
    }

    #[test]
    fn drops_are_counted_and_propagation_suffers() {
        let g = generators::grid(3, 3);
        let make =
            || -> BoxedAlgorithm { Box::new(FloodBroadcast::new(generators::grid(3, 3), 0, 5)) };
        let mut expected = make();
        let fault_free = congest_sim::algorithm::run_fault_free(&mut *expected);
        let mut net = Network::fault_free(g.clone());
        // FloodBroadcast forwards once per arc, so `k = 1` (drop everything)
        // is the schedule that actually bites.
        let (out, notes) = AsyncExecutor::new(ScheduleDef {
            drops: DropModel::EveryKth { k: 1 },
            ..ScheduleDef::synchronous()
        })
        .execute(&CompileArtifacts::graph_only(&g), &make, &mut net)
        .unwrap();
        assert_ne!(out, fault_free, "total loss must stop the broadcast");
        match notes {
            CompilerNotes::Async {
                dropped_slots,
                completed,
                ..
            } => {
                assert!(dropped_slots > 0);
                assert!(completed, "drops lose content, never synchronization");
            }
            other => panic!("expected async notes, got {other:?}"),
        }
    }

    #[test]
    fn validate_rejects_malformed_schedules() {
        let g = generators::grid(3, 3);
        let bad_crash = AsyncExecutor::new(ScheduleDef::synchronous().with_crash(CrashWindow {
            node: 99,
            from: 0,
            until: 1,
        }));
        let prepare = |executor: &AsyncExecutor| executor.prepare(&g, &mut obs::Tracer::disabled());
        assert!(matches!(
            prepare(&bad_crash),
            Err(ScenarioError::InvalidParameter { .. })
        ));
        let bad_latency = AsyncExecutor::new(
            ScheduleDef::synchronous().with_latency(LatencyModel::Uniform { min: 3, max: 1 }),
        );
        assert!(matches!(
            prepare(&bad_latency),
            Err(ScenarioError::InvalidParameter { .. })
        ));
        // A baseline runs under either role, and a well-formed schedule
        // prepares.
        let sync = AsyncExecutor::new(ScheduleDef::synchronous());
        assert!(prepare(&sync).is_ok());
        for role in [AdversaryRole::Byzantine, AdversaryRole::Eavesdropper] {
            assert_eq!(validate_role(&sync, role), Ok(()));
        }
    }

    #[test]
    fn display_names_are_compact_and_distinct() {
        assert_eq!(ScheduleDef::synchronous().display_name(), "sync");
        assert_eq!(
            ScheduleDef::synchronous()
                .with_latency(LatencyModel::Fixed { ticks: 2 })
                .with_reorder_window(1)
                .display_name(),
            "lat=2,ro=1"
        );
        assert_eq!(
            AsyncExecutor::new(ScheduleDef {
                drops: DropModel::EveryKth { k: 5 },
                ..ScheduleDef::synchronous()
            })
            .name(),
            "async(drop1in5)"
        );
    }
}

//! The job protocol, with no I/O: no thread, store, clock, lock or log.
//! A [`Job`] takes each event — `Submit`, `Resubmit`, `Cancel`, `Pickup`,
//! the runner's check before a batch, `BatchSent`, `Appended`, `Recover` —
//! and returns the [`Effect`]s that [`crate::server`] carries out under the
//! jobs lock.  A cell is runnable while it is neither done nor claimed, and
//! done only once its append returned.  The "Campaign server" section of
//! `docs/ARCHITECTURE.md` tabulates every transition, and the explorer in
//! this module's tests checks its invariants in every interleaving of the
//! runner, the committer, cancels, resubmits and a crash.

use crate::api_types::{JobState, JobStatus};
use crate::store::StoredJob;
use harness::{Campaign, CampaignCell, CampaignSpec, CellRecord, RecordOutcome};
use mobile_congest_harness as harness;
use std::collections::{btree_map::Entry, BTreeMap, BTreeSet};
use std::sync::Arc;

/// One thing the server must do after a transition.  It carries out a
/// transition's effects in order, under the jobs lock.
pub(crate) enum Effect {
    /// Write this state to the store.  A refused write fails the job instead
    /// of the effects after it; writing `failed` is best-effort.
    Write(JobState),
    /// Put the job on the runner's FIFO.
    Schedule,
    /// Wake the long-polling watchers.
    Wake,
    /// Log this line.
    Log(String),
}

use Effect::{Log, Schedule, Wake, Write};

/// An executed batch on its way from the runner to the committer: its
/// records, each encoded once, for the append and then for the report.
#[cfg_attr(test, derive(Clone))]
pub(crate) struct Batch {
    pub(crate) records: Vec<CellRecord>,
    pub(crate) lines: Vec<String>,
}

impl Batch {
    /// Flatten and encode executed cells.
    pub(crate) fn of(cells: &[CampaignCell]) -> Batch {
        let records: Vec<CellRecord> = cells.iter().map(CellRecord::of).collect();
        let lines = records.iter().map(CellRecord::to_json).collect();
        Batch { records, lines }
    }
}

/// One job: its spec and grid, and its protocol state.
#[cfg_attr(test, derive(Clone))]
pub(crate) struct Job {
    pub(crate) spec: CampaignSpec,
    pub(crate) campaign: Arc<Campaign>,
    /// The status document, kept current as events land, so a status poll
    /// never scans the cell map.
    status: JobStatus,
    /// The done cells: each record with its cached `to_json` line, so the
    /// report fingerprint never re-encodes a record.
    done: BTreeMap<usize, (CellRecord, String)>,
    /// Cells claimed by the runner and not yet returned by the committer.
    claimed: BTreeSet<usize>,
    /// The claimed cells the runner has not yet sent.
    held: BTreeSet<usize>,
}

impl Job {
    /// `Submit`: a new job, queued and scheduled.
    pub(crate) fn submit(stored: StoredJob, campaign: Arc<Campaign>) -> (Job, Vec<Effect>) {
        let cells = campaign.cell_count();
        let log = format!("job {} submitted: {cells} cells", stored.fingerprint);
        (Job::recover(stored, campaign).0, vec![Schedule, Log(log)])
    }

    /// `Recover(stored)`.  A record off its grid position (past the grid, or
    /// at another repetition than its index gives) would split or invent a
    /// summary group: it counts as torn, and its cell re-runs.
    pub(crate) fn recover(stored: StoredJob, campaign: Arc<Campaign>) -> (Job, Vec<Effect>) {
        let status = JobStatus {
            fingerprint: stored.fingerprint,
            state: stored.state,
            cells_total: campaign.cell_count(),
            cells_done: 0,
            executed: 0,
            skipped: 0,
            failed: 0,
            disagreements: 0,
            report_fingerprint: None,
            error: None,
        };
        let mut job = Job {
            spec: stored.spec,
            campaign,
            status,
            done: BTreeMap::new(),
            claimed: BTreeSet::new(),
            held: BTreeSet::new(),
        };
        let (total, repetitions) = (job.status.cells_total, job.spec.repetitions);
        let mut torn = stored.torn_lines;
        for record in stored.cells {
            if record.index >= total || record.repetition != record.index % repetitions {
                torn += 1;
            } else {
                let line = record.to_json();
                job.publish(record, line);
            }
        }
        let mut effects = Vec::new();
        if torn > 0 {
            let fp = &job.status.fingerprint;
            effects.push(Log(format!(
                "job {fp}: skipped {torn} torn log line(s); their cells will re-run"
            )));
        }
        if !job.parked() {
            job.status.state = JobState::Queued;
            let pending = job.pending().len();
            if pending == 0 {
                // Silently: nobody watches a job being recovered.
                let _ = job.finish();
            } else {
                let (fp, done) = (&job.status.fingerprint, job.done.len());
                let log =
                    format!("recovered job {fp}: {done} cells done, requeued {pending} cell(s)");
                effects.extend([Schedule, Log(log)]);
            }
        }
        (job, effects)
    }

    /// `Resubmit`: a parked job is unparked, `queued` written first so that a
    /// restart cannot bring the parked state back.  Then a complete job is
    /// done, and any other is scheduled if some cell is runnable.  A job
    /// that is not parked only reports its status.
    pub(crate) fn resubmit(&mut self) -> Vec<Effect> {
        if !self.parked() {
            return Vec::new();
        }
        self.status.error = None;
        let mut effects = vec![Write(JobState::Queued)];
        if self.complete() {
            effects.extend(self.finish());
        } else {
            self.status.state = JobState::Queued;
            let pending = self.pending().len();
            effects.extend((pending > 0).then_some(Schedule));
            effects.push(Log(format!(
                "job {} resumed: requeued {pending} cell(s)",
                self.status.fingerprint
            )));
        }
        effects
    }

    /// `Cancel`: a live job parks as `cancelled`.  Its stored cells stay, and
    /// the runner stops at its next check.
    pub(crate) fn cancel(&mut self) -> Vec<Effect> {
        if self.status.state.is_terminal() {
            return Vec::new();
        }
        self.status.state = JobState::Cancelled;
        let log = format!("job {} cancelled", self.status.fingerprint);
        vec![Write(JobState::Cancelled), Wake, Log(log)]
    }

    /// A store error fails the job.  Execution itself cannot: a cell's
    /// failure is a recorded outcome.
    pub(crate) fn fail(&mut self, error: String) -> Vec<Effect> {
        let log = format!("job {} failed: {error}", self.status.fingerprint);
        self.status.state = JobState::Failed;
        self.status.error = Some(error);
        self.status.report_fingerprint = None;
        vec![Write(JobState::Failed), Wake, Log(log)]
    }

    /// `Pickup`: the runner claims every runnable cell, in index order.
    pub(crate) fn pickup(&mut self) -> Vec<usize> {
        let pending = self.pending();
        self.claimed.extend(&pending);
        self.held.extend(&pending);
        pending
    }

    /// The runner's check before each batch: a live job goes on `running`; a
    /// parked one stops here, and gives back the cells the runner holds.
    pub(crate) fn check(&mut self) -> bool {
        if self.status.state.is_terminal() {
            for index in std::mem::take(&mut self.held) {
                self.claimed.remove(&index);
            }
            return false;
        }
        // In memory only: recovery requeues `queued` and `running` alike.
        self.status.state = JobState::Running;
        true
    }

    /// `BatchSent`: the runner hands an executed batch to the committer.
    /// Its cells stay claimed until their append returns.
    pub(crate) fn sent(&mut self, batch: &Batch) {
        for record in &batch.records {
            self.held.remove(&record.index);
        }
    }

    /// `Appended`: the append of `batch` returned.  Its cells leave the
    /// claims; on `Ok` they are done, and a live job holding every cell is
    /// done too.
    pub(crate) fn appended(&mut self, batch: Batch, append: Result<(), String>) -> Vec<Effect> {
        for record in &batch.records {
            self.claimed.remove(&record.index);
        }
        if let Err(error) = append {
            return self.fail(error);
        }
        for (record, line) in batch.records.into_iter().zip(batch.lines) {
            self.publish(record, line);
        }
        if !self.status.state.is_terminal() && self.complete() {
            return self.finish();
        }
        Vec::new()
    }

    /// Make a record done, unless its cell already is, and tally its outcome.
    fn publish(&mut self, record: CellRecord, line: String) {
        if let Entry::Vacant(slot) = self.done.entry(record.index) {
            match &record.outcome {
                RecordOutcome::Ok { agrees, .. } => {
                    self.status.executed += 1;
                    self.status.disagreements += usize::from(*agrees == Some(false));
                }
                RecordOutcome::Skipped { .. } => self.status.skipped += 1,
                RecordOutcome::Failed { .. } => self.status.failed += 1,
            }
            self.status.cells_done += 1;
            slot.insert((record, line));
        }
    }

    /// The job is done: its report fingerprint is FNV-1a over one `to_json`
    /// line per cell, each followed by a newline, in index order.
    fn finish(&mut self) -> Vec<Effect> {
        let lines = self
            .done
            .values()
            .map(|(_, line)| line.bytes().chain(Some(b'\n')));
        let report = harness::json::fnv1a_hex(lines.flatten());
        let (fp, cells) = (&self.status.fingerprint, self.done.len());
        let log = format!("job {fp} done: {cells} cells, report fingerprint {report}");
        self.status.report_fingerprint = Some(report);
        self.status.state = JobState::Done;
        vec![Wake, Log(log)]
    }

    fn parked(&self) -> bool {
        matches!(self.status.state, JobState::Cancelled | JobState::Failed)
    }

    /// The runnable cells of the grid, in index order.
    fn pending(&self) -> Vec<usize> {
        let runnable = |i: &usize| !self.done.contains_key(i) && !self.claimed.contains(i);
        (0..self.status.cells_total).filter(runnable).collect()
    }

    fn complete(&self) -> bool {
        self.status.cells_done == self.status.cells_total
    }

    /// The done records, in index order.
    pub(crate) fn records(&self) -> impl Iterator<Item = &CellRecord> {
        self.done.values().map(|(record, _)| record)
    }

    pub(crate) fn status(&self) -> &JobStatus {
        &self.status
    }
}

#[cfg(test)]
mod tests {
    //! The explorer: stateless model checking in the sense of Godefroid's
    //! VeriSoft (POPL 1997), by hand.  It drives the real [`Job`] through
    //! every interleaving of the server's threads, as the server would —
    //! the runner (pickup, pre-batch check, execute with `BatchSent`, and a
    //! send that blocks while the one slot is full), the committer (receive,
    //! then an append that returns `Ok`, or `Err` with the batch durable, or
    //! `Err` with the batch lost), `Cancel`, `Resubmit`, and a crash followed
    //! by `Recover` — deduplicates states by hash, and checks the protocol's
    //! invariants in every state it reaches.

    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::collections::HashSet;
    use std::hash::{Hash, Hasher};
    use std::rc::Rc;

    impl Job {
        /// The claimed cells, in index order.
        pub(crate) fn claimed(&self) -> Vec<usize> {
            self.claimed.iter().copied().collect()
        }
    }

    /// Cancels and resubmits, together, per exploration.
    const CANCELS_OR_RESUBMITS: u8 = 2;
    /// The runner splits a pickup into at most this many batches.
    const BATCHES: usize = 3;

    /// One exploration's fixed inputs: a job of `n` cells, each cell's
    /// executed record, and the report fingerprint of the one-shot run.
    struct Grid {
        spec: CampaignSpec,
        campaign: Arc<Campaign>,
        records: Vec<CellRecord>,
        one_shot: String,
    }

    impl Grid {
        fn new(cells: usize) -> Grid {
            let spec = CampaignSpec::from_json(&format!(
                r#"{{"kind":"campaign-spec","seed":11,"repetitions":{cells},"grid":{{
                "graphs":[{{"family":"complete","n":6}}],
                "adversaries":[{{"kind":"random-mobile","f":1}}],
                "compilers":[{{"id":"uncompiled"}}],
                "payload":{{"kind":"exchange-ids"}}}}}}"#
            ))
            .unwrap();
            let campaign = Arc::new(Campaign::from_spec(&spec).unwrap().threads(1));
            let all = Batch::of(&campaign.run().cells);
            let lines = all.lines.iter().flat_map(|l| l.bytes().chain(Some(b'\n')));
            let one_shot = harness::json::fnv1a_hex(lines);
            Grid {
                spec,
                campaign,
                records: all.records,
                one_shot,
            }
        }

        fn batch(&self, cells: &[usize]) -> Batch {
            let records: Vec<CellRecord> = cells.iter().map(|&i| self.records[i].clone()).collect();
            let lines = records.iter().map(CellRecord::to_json).collect();
            Batch { records, lines }
        }

        /// The store as [`crate::store::Store::load_jobs`] would replay it.
        fn stored(&self, state: JobState, log: &[usize]) -> StoredJob {
            StoredJob {
                fingerprint: self.spec.fingerprint(),
                spec: self.spec.clone(),
                state,
                cells: log.iter().map(|&i| self.records[i].clone()).collect(),
                torn_lines: 0,
            }
        }
    }

    #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
    enum Runner {
        /// Waiting on the FIFO.
        Idle,
        /// Before the pre-batch check of `plan[next]`.
        Check,
        /// Checked: about to execute `plan[next]`.
        Execute,
        /// Executed and sent (`BatchSent`), blocked while the slot is full.
        /// Execute and `BatchSent` are one step: between them the runner
        /// touches nothing another thread reads.
        Send,
    }

    #[derive(Clone, Copy, PartialEq)]
    enum Append {
        Ok,
        ErrDurable,
        ErrLost,
    }

    /// The steps taken to reach a state, newest first.
    struct Step {
        label: String,
        before: Trace,
    }
    type Trace = Option<Rc<Step>>;

    /// The server around one job: its threads, its channels and its store.
    #[derive(Clone)]
    struct World {
        job: Job,
        /// The job's entries in the runner's FIFO.
        fifo: usize,
        /// The runner's batches since its last pickup, and the next one.
        plan: Vec<Vec<usize>>,
        next: usize,
        runner: Runner,
        /// The batch the runner is sending, then the channel's one slot,
        /// then the batch at the committer.
        sending: Option<Batch>,
        slot: Option<Batch>,
        appending: Option<Batch>,
        /// The store: the last state written (none written reads as
        /// `queued`), and every cell an append wrote, in order.
        stored: JobState,
        log: Vec<usize>,
        /// Cells executed since a failed append or a crash last lost them:
        /// none may execute again.
        ran: BTreeSet<usize>,
        cancels_or_resubmits: u8,
        failed_append: bool,
        crashed: bool,
    }

    fn cells(batch: &Option<Batch>) -> Vec<usize> {
        batch
            .iter()
            .flat_map(|b| &b.records)
            .map(|r| r.index)
            .collect()
    }

    impl World {
        fn submitted(grid: &Grid) -> World {
            let (job, effects) =
                Job::submit(grid.stored(JobState::Queued, &[]), grid.campaign.clone());
            let mut world = World {
                job,
                fifo: 0,
                plan: Vec::new(),
                next: 0,
                runner: Runner::Idle,
                sending: None,
                slot: None,
                appending: None,
                stored: JobState::Queued,
                log: Vec::new(),
                ran: BTreeSet::new(),
                cancels_or_resubmits: 0,
                failed_append: false,
                crashed: false,
            };
            world.apply(effects);
            world
        }

        /// Carry out effects as `server.rs` does; the model's store never
        /// refuses a write.
        fn apply(&mut self, effects: Vec<Effect>) {
            for effect in effects {
                match effect {
                    Write(state) => self.stored = state,
                    Schedule => self.fifo += 1,
                    Wake | Log(_) => {}
                }
            }
        }

        fn key(&self) -> u64 {
            let job = &self.job;
            let mut hasher = DefaultHasher::new();
            let status = (job.status.state.label(), job.status.error.is_some());
            (
                status,
                job.done.keys().collect::<Vec<_>>(),
                &job.claimed,
                &job.held,
            )
                .hash(&mut hasher);
            (self.fifo, &self.plan, self.next, self.runner).hash(&mut hasher);
            (
                cells(&self.sending),
                cells(&self.slot),
                cells(&self.appending),
            )
                .hash(&mut hasher);
            (self.stored.label(), &self.log, &self.ran).hash(&mut hasher);
            (self.cancels_or_resubmits, self.failed_append, self.crashed).hash(&mut hasher);
            hasher.finish()
        }

        /// The runner is done with its pickup.
        fn idle(&mut self) {
            (self.runner, self.plan, self.next) = (Runner::Idle, Vec::new(), 0);
        }

        fn quiescent(&self) -> bool {
            self.runner == Runner::Idle
                && self.fifo == 0
                && self.slot.is_none()
                && self.appending.is_none()
        }

        /// Every state one step of any thread leads to, each with its step.
        fn successors(&self, grid: &Grid) -> Result<Vec<(String, World)>, String> {
            let mut next = Vec::new();
            let mut w = self.clone();
            match self.runner {
                Runner::Idle if self.fifo > 0 => {
                    w.fifo -= 1;
                    let pending = w.job.pickup();
                    let size = pending.len().div_ceil(BATCHES).max(1);
                    w.plan = pending.chunks(size).map(<[usize]>::to_vec).collect();
                    w.next = 0;
                    w.runner = if w.plan.is_empty() {
                        Runner::Idle
                    } else {
                        Runner::Check
                    };
                    next.push((format!("pickup {pending:?}"), w));
                }
                Runner::Check => {
                    w.runner = Runner::Execute;
                    if !w.job.check() {
                        w.idle();
                    }
                    next.push(("check".to_string(), w));
                }
                Runner::Execute => {
                    let batch = grid.batch(&w.plan[w.next]);
                    for cell in &w.plan[w.next] {
                        if !w.ran.insert(*cell) {
                            return Err(format!(
                                "cell {cell} executes again, but no failed append or crash lost it"
                            ));
                        }
                    }
                    w.job.sent(&batch);
                    w.sending = Some(batch);
                    w.runner = Runner::Send;
                    next.push((format!("execute {:?}", w.plan[w.next]), w));
                }
                Runner::Send if self.slot.is_none() => {
                    w.slot = w.sending.take();
                    w.next += 1;
                    w.runner = Runner::Check;
                    if w.next == w.plan.len() {
                        w.idle();
                    }
                    next.push(("send".to_string(), w));
                }
                _ => {}
            }
            if self.appending.is_none() && self.slot.is_some() {
                let mut w = self.clone();
                w.appending = w.slot.take();
                next.push(("receive".to_string(), w));
            }
            if self.appending.is_some() {
                let failures = [Append::ErrDurable, Append::ErrLost];
                let outcomes = [Append::Ok]
                    .into_iter()
                    .chain(failures.into_iter().filter(|_| !self.failed_append));
                for outcome in outcomes {
                    let mut w = self.clone();
                    let batch = w.appending.take().expect("a batch at the committer");
                    let indices: Vec<usize> = batch.records.iter().map(|r| r.index).collect();
                    if outcome != Append::ErrLost {
                        w.log.extend(&indices);
                    }
                    let append = if outcome == Append::Ok {
                        Ok(())
                    } else {
                        w.failed_append = true;
                        w.ran.retain(|cell| !indices.contains(cell));
                        Err("injected append failure".to_string())
                    };
                    let effects = w.job.appended(batch, append);
                    w.apply(effects);
                    let label = ["append ok", "append err (durable)", "append err (lost)"];
                    next.push((label[outcome as usize].to_string(), w));
                }
            }
            if self.cancels_or_resubmits < CANCELS_OR_RESUBMITS {
                if !self.job.status.state.is_terminal() {
                    let mut w = self.clone();
                    w.cancels_or_resubmits += 1;
                    let effects = w.job.cancel();
                    w.apply(effects);
                    next.push(("cancel".to_string(), w));
                }
                if self.job.parked() {
                    let mut w = self.clone();
                    w.cancels_or_resubmits += 1;
                    let effects = w.job.resubmit();
                    w.apply(effects);
                    next.push(("resubmit".to_string(), w));
                }
            }
            if !self.crashed {
                next.push(("crash, recover".to_string(), self.crash(grid)?));
            }
            Ok(next)
        }

        /// A crash keeps the store and nothing else; `Recover` rebuilds the
        /// job from it: a parked job stays parked, a complete one is done,
        /// and any other is requeued with exactly its missing cells.
        fn crash(&self, grid: &Grid) -> Result<World, String> {
            let stored = grid.stored(self.stored, &self.log);
            let (job, effects) = Job::recover(stored, grid.campaign.clone());
            let mut w = self.clone();
            (w.job, w.fifo, w.crashed) = (job, 0, true);
            w.idle();
            (w.sending, w.slot, w.appending) = (None, None, None);
            w.ran.retain(|cell| self.log.contains(cell));
            w.apply(effects);
            let missing: Vec<usize> = (0..grid.records.len())
                .filter(|c| !self.log.contains(c))
                .collect();
            let state = w.job.status.state;
            let parked = matches!(self.stored, JobState::Cancelled | JobState::Failed);
            let (want, fifo) = match () {
                _ if parked => (self.stored, 0),
                _ if missing.is_empty() => (JobState::Done, 0),
                _ => (JobState::Queued, 1),
            };
            if state != want || w.fifo != fifo || (fifo == 1 && w.job.pending() != missing) {
                return Err(format!(
                    "stored {} with cells {:?} recovers {state} with {} scheduled run(s) and \
                     runnable cells {:?}, not {want} with {fifo} and {missing:?}",
                    self.stored,
                    self.log,
                    w.fifo,
                    w.job.pending()
                ));
            }
            Ok(w)
        }

        /// The protocol's invariants in this state.
        fn check(&self, grid: &Grid) -> Result<(), String> {
            let job = &self.job;
            let state = job.status.state;
            if let Some(cell) = job.done.keys().find(|c| !self.log.contains(c)) {
                return Err(format!(
                    "cell {cell} is done before an append of it returned"
                ));
            }
            let mut in_flight: BTreeSet<usize> = self
                .plan
                .get(self.next..)
                .unwrap_or(&[])
                .concat()
                .into_iter()
                .collect();
            for batch in [&self.sending, &self.slot, &self.appending] {
                in_flight.extend(cells(batch));
            }
            if job.claimed != in_flight {
                return Err(format!(
                    "claimed {:?}, but the runner and the committer hold {in_flight:?}",
                    job.claimed
                ));
            }
            let live = matches!(state, JobState::Queued | JobState::Running);
            if live
                && !job.complete()
                && job.claimed.is_empty()
                && self.fifo == 0
                && self.runner == Runner::Idle
            {
                return Err(format!(
                    "stranded: the job is {state} with {} of {} cells, but nothing of it is \
                     claimed, queued or held by the runner",
                    job.done.len(),
                    grid.records.len()
                ));
            }
            if state == JobState::Done
                && job.status.report_fingerprint.as_deref() != Some(&grid.one_shot)
            {
                return Err(format!(
                    "done with report {:?}, but the one-shot run's is {}",
                    job.status.report_fingerprint, grid.one_shot
                ));
            }
            if self.quiescent() && live {
                return Err(format!("quiescent, but the job is {state}"));
            }
            if self.quiescent() && job.parked() {
                self.resubmitted_reaches_done(grid)?;
            }
            Ok(())
        }

        /// Resubmit a parked job and run the runner and the committer, with
        /// every append `Ok`, until nothing moves: the job must be done.
        fn resubmitted_reaches_done(&self, grid: &Grid) -> Result<(), String> {
            let mut w = self.clone();
            let effects = w.job.resubmit();
            w.apply(effects);
            (w.crashed, w.failed_append, w.cancels_or_resubmits) =
                (true, true, CANCELS_OR_RESUBMITS);
            while !w.quiescent() {
                let mut next = w.successors(grid)?.into_iter();
                w = next.next().ok_or("a thread is stuck")?.1;
            }
            match w.job.status.state {
                JobState::Done => Ok(()),
                state => Err(format!("a parked job resubmitted ends {state}, not done")),
            }
        }
    }

    /// Every reachable state of one `cells`-cell job, checked; returns how
    /// many there are.
    fn explore(cells: usize) -> usize {
        let grid = Grid::new(cells);
        let mut starts = vec![(World::submitted(&grid), "submit".to_string())];
        // Older stores also hold `running` and `done` labels.
        for legacy in [JobState::Running, JobState::Done] {
            for subset in 0..1usize << cells {
                let log: Vec<usize> = (0..cells).filter(|c| subset >> c & 1 == 1).collect();
                let mut w = World::submitted(&grid);
                (w.stored, w.log) = (legacy, log.clone());
                let label = format!("recover stored {legacy} with cells {log:?}");
                let w = w
                    .crash(&grid)
                    .unwrap_or_else(|e| panic!("{cells} cells, {label}: {e}"));
                starts.push((w, label));
            }
        }
        let mut seen = HashSet::new();
        let mut stack: Vec<(World, Trace)> = Vec::new();
        for (world, label) in starts {
            if seen.insert(world.key()) {
                stack.push((
                    world,
                    Some(Rc::new(Step {
                        label,
                        before: None,
                    })),
                ));
            }
        }
        let fail = |error: String, trace: &Trace| -> ! {
            let mut steps = Vec::new();
            let mut at = trace;
            while let Some(step) = at {
                steps.push(step.label.clone());
                at = &step.before;
            }
            steps.reverse();
            panic!("{cells} cells: {error}\n  after: {}", steps.join(", "))
        };
        while let Some((world, trace)) = stack.pop() {
            if let Err(error) = world.check(&grid) {
                fail(error, &trace);
            }
            match world.successors(&grid) {
                Err(error) => fail(error, &trace),
                Ok(next) => {
                    for (step, w) in next {
                        if seen.insert(w.key()) {
                            stack.push((
                                w,
                                Some(Rc::new(Step {
                                    label: step,
                                    before: trace.clone(),
                                })),
                            ));
                        }
                    }
                }
            }
        }
        seen.len()
    }

    #[test]
    fn every_interleaving_of_the_job_protocol_keeps_its_invariants() {
        for cells in 3..=5 {
            let states = explore(cells);
            println!("job protocol explorer: {cells} cells, {states} states");
        }
    }
}

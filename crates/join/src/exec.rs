//! The pipelined, zero-communication parallel executor.
//!
//! Execution follows §3 of the paper: every worker repeatedly draws a
//! **morsel** — a fixed-size contiguous chunk of the driver relation
//! (step 0 of the left-deep plan) — from a single atomic cursor, then
//! runs the *entire* pipeline for that morsel against the read-only
//! store, probing each subsequent replica with the adaptive search of
//! Algorithm 1 using its own per-step cursors. Workers share nothing
//! mutable: no exchange, no queues, no rehashing, no termination
//! protocol ("parallel execution without any form of communication or
//! synchronization between the workers"). Morsel-driven dispatch
//! keeps skewed key ranges from pinning one worker while its siblings
//! idle, because the next chunk always goes to whichever worker frees
//! up first. The grid is sized per run from the driver domain and the
//! participant count (see `grid_size`), capped at
//! [`ExecOptions::morsel_size`] keys, so a parallel run gets several
//! morsels per participant whatever the store size.
//!
//! There is one entry point, [`execute`], over a store plus an
//! optional delta overlay. It resolves the plan once on the calling
//! thread, then dispatches one way: a run with one participant executes
//! inline on the caller; a larger run goes to a
//! [`WorkerPool`](crate::WorkerPool) — the engine's persistent one (no
//! thread churn per query), or one made for the call — where the
//! calling thread participates and idle pool workers join it.
//! [`execute_count`] and [`execute_collect`] are sink wrappers over it.
//!
//! Results are **deterministic**: each participant keeps one sink per
//! morsel it ran, and the coordinator concatenates sinks in morsel
//! order. Morsel order is driver-domain order, so the merged output is
//! byte-identical no matter how many workers ran or how morsels
//! interleaved — pinned by the facade determinism suite.
//!
//! The driver domain is either the keys array of the first replica
//! (Example 3.1) or, when the first pattern has a constant key, the
//! value vector of that key's group (Example 3.2) — which is how highly
//! selective queries still parallelize.

use std::panic::AssertUnwindSafe;
use parj_sync::atomic::{AtomicUsize, Ordering};
use parj_sync::{Arc, LockLevel, OrderedMutex};

use parj_dict::Id;
use parj_store::{
    DeltaOverlay, Group, GroupIter, MergedGroup, MergedIter, Replica, ReplicaView, StoreView,
    TripleStore, WalkCursor,
};

use crate::calibrate::CalibrationResult;
use crate::guard::{GuardTrip, QueryGuard, GUARD_BATCH};
use crate::pool::{Participant, WorkerPool};
use crate::plan::{CompiledStep, DriverMode, KeyMode, PhysicalPlan, ValueMode, VarId};
use crate::search::{adaptive_search, ProbeStrategy};
use crate::stats::SearchStats;
use crate::threshold::ThresholdTable;

/// Aggregated internals of one plan execution, handed to a
/// [`Recorder`] after the workers finish. Plain borrowed data: the
/// recorder decides what to keep, the executor allocates nothing extra
/// for runs without one.
#[derive(Debug, Clone, Copy)]
pub struct ExecRecord<'a> {
    /// Result rows emitted (summed across workers).
    pub result_rows: u64,
    /// `step_rows[d]` = binding tuples entering probe step `d`;
    /// `step_rows[num_probe_steps]` = result rows emitted.
    pub step_rows: &'a [u64],
    /// Search counters per probe step (parallel to the plan's probe
    /// steps), merged across workers.
    pub step_search: &'a [SearchStats],
    /// Driver-side counters (group membership checks of Example 3.2
    /// style drivers).
    pub driver_search: SearchStats,
    /// All counters merged — probe steps plus driver.
    pub total_search: SearchStats,
    /// Work units per participating worker (rows emitted + array words
    /// touched): the load-balance signal of the morsel distribution.
    /// Under dynamic morsel pulling these converge toward uniform even
    /// on skewed drivers. Empty when the run failed before workers
    /// reported.
    pub worker_units: &'a [u64],
    /// Driver morsels actually executed (pulled off the shared cursor
    /// and run) across all workers.
    pub morsels: u64,
    /// Driver keys per morsel of the grid this run was cut into (the
    /// last morsel may be shorter). Zero when no worker ran.
    pub morsel_size: usize,
    /// Participants that ran at least one morsel.
    pub participants: u64,
}

/// Receives per-execution internals (once per [`execute`] call, after
/// the join completes or fails). Implementations must be cheap and
/// lock-light: the engine's metrics registry is the intended consumer.
///
/// This is the executor's entire observability surface — when
/// [`ExecOptions::recorder`] is `None`, the only residual cost is
/// moving per-worker vectors the worker loop already maintains.
pub trait Recorder: Send + Sync {
    /// Called once per plan execution with the aggregated internals.
    fn record_exec(&self, record: &ExecRecord<'_>);
}

/// Default upper bound on driver keys per morsel (~16K). A run with
/// one participant is cut at exactly this size; a parallel run derives
/// a finer grid from its driver domain (see `grid_size`) and never
/// exceeds it.
pub const DEFAULT_MORSEL_SIZE: usize = 16_384;

/// Morsels a parallel run aims to give each participant: enough that
/// the last morsel to finish is short next to one participant's share.
const MORSELS_PER_PARTICIPANT: usize = 8;

/// Smallest derived morsel, in driver keys: below it the shared-cursor
/// `fetch_add` and the per-morsel sink swap stop being noise.
const MIN_MORSEL_KEYS: usize = 256;

/// Driver keys per morsel for one run over `domain` keys with
/// `participants` workers and a caller cap of `cap` keys.
///
/// One participant gets `cap` (a single-participant run gains nothing
/// from more sinks). Otherwise the domain is cut into about
/// `participants × MORSELS_PER_PARTICIPANT` morsels, clamped to
/// `[min(MIN_MORSEL_KEYS, cap), cap]`. The count therefore follows the
/// participants rather than the store size, and a domain below the cap
/// still spreads over every participant.
fn grid_size(domain: usize, participants: usize, cap: usize) -> usize {
    if participants <= 1 {
        return cap;
    }
    let target = participants.saturating_mul(MORSELS_PER_PARTICIPANT);
    domain.div_ceil(target).clamp(MIN_MORSEL_KEYS.min(cap), cap)
}

/// Why an [`ExecOptionsBuilder`] rejected its inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecOptionsError {
    /// `threads` was zero — the executor needs at least one worker.
    ZeroThreads,
    /// `morsel_size` was zero — workers cannot pull empty morsels.
    ZeroMorselSize,
}

impl std::fmt::Display for ExecOptionsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecOptionsError::ZeroThreads => write!(f, "threads must be at least 1"),
            ExecOptionsError::ZeroMorselSize => {
                write!(f, "morsel_size must be at least 1")
            }
        }
    }
}

impl std::error::Error for ExecOptionsError {}

/// Execution options.
#[derive(Clone)]
pub struct ExecOptions {
    /// Worker threads. In the paper "each worker corresponds exactly to
    /// one thread"; the optimum on their machine was 2× the core count
    /// (hyper-threading, §5.1). Must be ≥ 1; use [`ExecOptions::builder`]
    /// to get that checked at construction.
    pub threads: usize,
    /// Upper bound on driver keys per morsel. Workers pull contiguous
    /// chunks of the driver off a shared atomic cursor; a run with one
    /// participant uses chunks of exactly this size, a parallel run
    /// derives a finer grid from its driver domain and thread count
    /// and never exceeds it. Must be ≥ 1. Results are byte-identical
    /// for every value — only scheduling granularity changes.
    pub morsel_size: usize,
    /// Probe strategy (Table 5's four columns).
    pub strategy: ProbeStrategy,
    /// Driver domains below this many keys run on one participant
    /// whatever `threads` says — §3's "very simple and selective
    /// queries could be executed with fewer resources". Applied after
    /// the driver is resolved, so the domain is sized from the one
    /// build the run uses. `0` disables it.
    pub small_query_threshold: usize,
    /// Lifecycle guard shared by all workers of this run (cancellation,
    /// deadline, row budget). `None` runs unguarded — the executor still
    /// installs a private guard internally so a panicking worker stops
    /// its siblings.
    pub guard: Option<Arc<QueryGuard>>,
    /// Observer for per-execution internals; `None` skips all recording
    /// work beyond moving vectors the workers maintain anyway.
    pub recorder: Option<Arc<dyn Recorder>>,
}

impl std::fmt::Debug for ExecOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecOptions")
            .field("threads", &self.threads)
            .field("morsel_size", &self.morsel_size)
            .field("strategy", &self.strategy)
            .field("small_query_threshold", &self.small_query_threshold)
            .field("guard", &self.guard)
            .field("recorder", &self.recorder.as_ref().map(|_| "Recorder"))
            .finish()
    }
}

impl Default for ExecOptions {
    fn default() -> Self {
        Self {
            threads: 1,
            morsel_size: DEFAULT_MORSEL_SIZE,
            strategy: ProbeStrategy::AdaptiveBinary,
            small_query_threshold: 0,
            guard: None,
            recorder: None,
        }
    }
}

impl ExecOptions {
    /// Options with `threads` workers and defaults otherwise.
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads,
            ..Self::default()
        }
    }

    /// A builder that validates sizes at construction instead of the
    /// executor clamping them at use sites.
    pub fn builder() -> ExecOptionsBuilder {
        ExecOptionsBuilder {
            opts: ExecOptions::default(),
        }
    }

    /// Checks the invariants [`ExecOptionsBuilder::build`] enforces.
    pub fn validate(&self) -> Result<(), ExecOptionsError> {
        if self.threads == 0 {
            return Err(ExecOptionsError::ZeroThreads);
        }
        if self.morsel_size == 0 {
            return Err(ExecOptionsError::ZeroMorselSize);
        }
        Ok(())
    }
}

/// Builder for [`ExecOptions`] with validation at [`ExecOptionsBuilder::build`].
#[derive(Debug, Clone)]
pub struct ExecOptionsBuilder {
    opts: ExecOptions,
}

impl ExecOptionsBuilder {
    /// Sets the worker thread count (validated ≥ 1 at build).
    pub fn threads(mut self, threads: usize) -> Self {
        self.opts.threads = threads;
        self
    }

    /// Sets the upper bound on driver keys per morsel (validated ≥ 1
    /// at build).
    pub fn morsel_size(mut self, morsel_size: usize) -> Self {
        self.opts.morsel_size = morsel_size;
        self
    }

    /// Sets the probe strategy.
    pub fn strategy(mut self, strategy: ProbeStrategy) -> Self {
        self.opts.strategy = strategy;
        self
    }

    /// Sets the small-query threshold in driver keys (`0` disables).
    pub fn small_query_threshold(mut self, keys: usize) -> Self {
        self.opts.small_query_threshold = keys;
        self
    }

    /// Attaches a lifecycle guard.
    pub fn guard(mut self, guard: Option<Arc<QueryGuard>>) -> Self {
        self.opts.guard = guard;
        self
    }

    /// Attaches a per-execution recorder.
    pub fn recorder(mut self, recorder: Option<Arc<dyn Recorder>>) -> Self {
        self.opts.recorder = recorder;
        self
    }

    /// Validates and returns the options.
    pub fn build(self) -> Result<ExecOptions, ExecOptionsError> {
        self.opts.validate()?;
        Ok(self.opts)
    }
}

/// Why an execution stopped before completing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecFailureKind {
    /// The guard's cancel token was tripped externally.
    Cancelled,
    /// The guard's wall-clock deadline passed.
    DeadlineExceeded {
        /// Time elapsed since the guard was armed.
        elapsed: std::time::Duration,
    },
    /// The guard's result-row budget was exhausted.
    BudgetExceeded {
        /// Rows counted when the budget tripped.
        rows: u64,
    },
    /// A worker panicked; the panic was contained and sibling workers
    /// were cancelled. The store is read-only during execution, so it
    /// remains fully usable afterwards.
    WorkerPanicked {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The supplied [`ExecOptions`] were invalid (e.g. zero threads or
    /// morsel size). Raised instead of panicking when options bypass
    /// [`ExecOptions::builder`]'s validation.
    InvalidOptions {
        /// What was wrong with the options.
        message: String,
    },
}

impl ExecFailureKind {
    fn from_trip(trip: GuardTrip) -> Self {
        match trip {
            GuardTrip::Cancelled => ExecFailureKind::Cancelled,
            GuardTrip::DeadlineExceeded { elapsed } => ExecFailureKind::DeadlineExceeded { elapsed },
            GuardTrip::BudgetExceeded { rows } => ExecFailureKind::BudgetExceeded { rows },
        }
    }

    /// Panic > budget > deadline > cancel: when workers report
    /// different trips (e.g. a panic cancels siblings, who then report
    /// `Cancelled`), the most specific cause wins deterministically.
    fn severity(&self) -> u8 {
        match self {
            ExecFailureKind::Cancelled => 0,
            ExecFailureKind::DeadlineExceeded { .. } => 1,
            ExecFailureKind::BudgetExceeded { .. } => 2,
            ExecFailureKind::WorkerPanicked { .. } => 3,
            ExecFailureKind::InvalidOptions { .. } => 4,
        }
    }
}

/// An execution that stopped early, with the partial progress made.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecFailure {
    /// What stopped the run.
    pub kind: ExecFailureKind,
    /// Search counters merged from the workers that returned.
    pub stats: SearchStats,
    /// Result rows credited to the guard before the stop (overshoots
    /// the budget by at most `threads × GUARD_BATCH`).
    pub rows: u64,
}

impl std::fmt::Display for ExecFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            ExecFailureKind::Cancelled => write!(f, "query cancelled after {} rows", self.rows),
            ExecFailureKind::DeadlineExceeded { elapsed } => {
                write!(f, "query deadline exceeded after {elapsed:.2?} ({} rows)", self.rows)
            }
            ExecFailureKind::BudgetExceeded { rows } => {
                write!(f, "query result budget exceeded at {rows} rows")
            }
            ExecFailureKind::WorkerPanicked { message } => {
                write!(f, "query worker panicked: {message}")
            }
            ExecFailureKind::InvalidOptions { message } => {
                write!(f, "invalid execution options: {message}")
            }
        }
    }
}

impl std::error::Error for ExecFailure {}

/// Result of a guarded execution.
pub type ExecResult<T> = Result<T, Box<ExecFailure>>;

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Receives result rows on a worker thread. One sink exists per worker;
/// they are merged (or summed) after the join, which is exactly the
/// paper's "silent mode" aggregation model.
pub trait Sink {
    /// Called once per result row with the projected bindings.
    fn push(&mut self, row: &[Id]);
}

/// Counts rows — the paper's silent mode.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountSink {
    /// Rows seen.
    pub count: u64,
}

impl Sink for CountSink {
    #[inline]
    fn push(&mut self, _row: &[Id]) {
        self.count += 1;
    }
}

/// Materializes rows into a flat buffer (`arity` ids per row).
#[derive(Debug, Default, Clone)]
pub struct CollectSink {
    /// Flattened row-major results.
    pub data: Vec<Id>,
    /// Rows pushed. For projections of arity ≥ 1 this equals
    /// `data.len() / arity`; for arity-0 projections (ASK-style
    /// shapes) the flat buffer stays empty and this counter is the
    /// only record of how many rows the worker produced.
    pub rows: u64,
}

impl Sink for CollectSink {
    #[inline]
    fn push(&mut self, row: &[Id]) {
        self.data.extend_from_slice(row);
        self.rows += 1;
    }
}

/// Adapts a closure into a [`Sink`] (streaming result handling).
pub struct FnSink<F: FnMut(&[Id])>(pub F);

impl<F: FnMut(&[Id])> Sink for FnSink<F> {
    #[inline]
    fn push(&mut self, row: &[Id]) {
        (self.0)(row);
    }
}

/// Per-step resolved context shared read-only by all workers.
struct StepCtx<'a> {
    /// Probe source: the untouched/compacted CSR replica (the
    /// zero-overhead hot path) or the base replica plus resident
    /// delta runs that every probe merges on the fly.
    source: ReplicaView<'a>,
    threshold: i64,
    mode: CompiledStep,
}

/// Driver-domain storage: borrowed straight from a clean raw replica,
/// or materialized once per query on the submitting thread (a packed
/// group, or a delta overlay dirtying the driver predicate) and shared
/// by every participant.
enum GroupRef<'a> {
    Borrowed(&'a [Id]),
    Shared(Arc<Vec<Id>>),
}

impl GroupRef<'_> {
    #[inline]
    fn as_slice(&self) -> &[Id] {
        match self {
            GroupRef::Borrowed(s) => s,
            GroupRef::Shared(v) => v,
        }
    }
}

/// The resolved driver of step 0.
enum ResolvedDriver<'a> {
    Keys {
        replica: &'a Replica,
        bind_key: VarId,
        value: ValueMode,
    },
    /// Key scan over a delta-dirtied predicate: the distinct key union
    /// of base and add runs, materialized once on the submitting
    /// thread so the morsel grid is identical for every participant.
    /// Keys whose whole group was tombstoned still appear — their
    /// merged group is empty, so they emit nothing and only pad the
    /// scan domain.
    DirtyKeys {
        keys: Arc<Vec<Id>>,
        base: Option<&'a Replica>,
        add: Option<&'a Replica>,
        del: Option<&'a Replica>,
        bind_key: VarId,
        value: ValueMode,
    },
    Group {
        group: GroupRef<'a>,
        bind_value: VarId,
    },
    Exist {
        present: bool,
    },
}

impl ResolvedDriver<'_> {
    fn domain(&self) -> usize {
        match self {
            ResolvedDriver::Keys { replica, .. } => replica.num_keys(),
            ResolvedDriver::DirtyKeys { keys, .. } => keys.len(),
            ResolvedDriver::Group { group, .. } => group.as_slice().len(),
            ResolvedDriver::Exist { .. } => 1,
        }
    }

    /// The domain this driver materialized, for other participants to
    /// share instead of materializing it again.
    fn shared_domain(&self) -> Option<Arc<Vec<Id>>> {
        match self {
            ResolvedDriver::DirtyKeys { keys, .. } => Some(Arc::clone(keys)),
            ResolvedDriver::Group {
                group: GroupRef::Shared(values),
                ..
            } => Some(Arc::clone(values)),
            _ => None,
        }
    }
}

/// The sorted value group for `key` in an optional delta run, counting
/// the lookup as a group probe. Missing run or absent key → empty.
/// Delta runs are always raw (only base/compacted replicas compress).
#[inline]
fn overlay_group<'a>(
    rep: Option<&'a Replica>,
    key: Id,
    stats: &mut SearchStats,
) -> &'a [Id] {
    match rep {
        Some(r) => {
            stats.group_probes += 1;
            r.values_for_key(key)
        }
        None => &[],
    }
}

/// A value group a worker binds from or probes: a clean replica's
/// [`Group`] or a delta-dirtied view's [`MergedGroup`].
/// [`Worker::step`] is generic over it and monomorphised, so the clean
/// path compiles to a plain replica probe.
trait ProbeGroup<'a>: Copy {
    /// The group's values in increasing order.
    type Values: Iterator<Item = Id>;

    /// True when the key has no group at all, so the step ends before
    /// any membership check is made or counted.
    fn absent(&self) -> bool;

    /// Iterates the group's values in increasing order.
    fn values(&self) -> Self::Values;

    /// Membership of `value`, counting one group probe per sorted run
    /// searched.
    fn probe(&self, value: Id, stats: &mut SearchStats) -> bool;
}

impl<'a> ProbeGroup<'a> for Group<'a> {
    type Values = GroupIter<'a>;

    #[inline]
    fn absent(&self) -> bool {
        self.is_empty()
    }

    #[inline]
    fn values(&self) -> GroupIter<'a> {
        self.iter()
    }

    /// Binary search on raw groups, skip-table block pick plus a
    /// streaming block walk on packed ones.
    #[inline]
    fn probe(&self, value: Id, stats: &mut SearchStats) -> bool {
        stats.group_probes += 1;
        self.contains(value)
    }
}

impl<'a> ProbeGroup<'a> for MergedGroup<'a> {
    type Values = MergedIter<'a>;

    /// The key is in neither the base nor the add run. A key whose base
    /// values are all tombstoned is present: its checks run and count.
    #[inline]
    fn absent(&self) -> bool {
        self.base.is_empty() && self.add.is_empty()
    }

    #[inline]
    fn values(&self) -> MergedIter<'a> {
        self.iter()
    }

    #[inline]
    fn probe(&self, value: Id, stats: &mut SearchStats) -> bool {
        let (hit, runs) = MergedGroup::probe(self, value);
        stats.group_probes += runs;
        hit
    }
}

/// Worker-local execution state; one per thread. The only shared
/// mutable state is the lifecycle guard, polled every [`GUARD_BATCH`]
/// bindings.
struct Worker<'a, S> {
    ctxs: &'a [StepCtx<'a>],
    strategy: ProbeStrategy,
    projection: &'a [VarId],
    bindings: Vec<Id>,
    /// Sequential-search cursor into each probe step's keys.
    cursors: Vec<usize>,
    /// Positional-walk cursor into each probe step's values, plus one
    /// trailing slot for the driver replica: ascending probes continue
    /// a packed replica's walk instead of restarting it.
    walks: Vec<WalkCursor>,
    rowbuf: Vec<Id>,
    /// Search counters per probe step, plus one trailing slot for
    /// driver-side group checks. Kept per step so profiling costs
    /// nothing extra on the normal path (the merge happens once at
    /// worker exit).
    step_stats: Vec<SearchStats>,
    /// `step_rows[d]` = binding tuples entering probe step `d`;
    /// `step_rows[num_steps]` = result rows emitted.
    step_rows: Vec<u64>,
    sink: S,
    /// Shared lifecycle guard (always present; unguarded runs get a
    /// private unlimited one for panic isolation).
    guard: &'a QueryGuard,
    /// Bindings left before the next guard poll.
    countdown: u32,
    /// Rows emitted since the last poll, credited in batches.
    pending_rows: u64,
    /// Set when the guard tripped; loops unwind promptly once set.
    stop: bool,
    /// The trip that set `stop`, reported to the executor.
    trip: Option<GuardTrip>,
}

impl<'a, S: Sink> Worker<'a, S> {
    fn new(
        ctxs: &'a [StepCtx<'a>],
        strategy: ProbeStrategy,
        plan: &'a PhysicalPlan,
        sink: S,
        guard: &'a QueryGuard,
    ) -> Self {
        Worker {
            ctxs,
            strategy,
            projection: &plan.projection,
            bindings: vec![0; plan.num_vars],
            cursors: vec![0; ctxs.len()],
            walks: vec![WalkCursor::default(); ctxs.len() + 1],
            rowbuf: Vec::with_capacity(plan.projection.len()),
            step_stats: vec![SearchStats::default(); ctxs.len() + 2],
            step_rows: vec![0; ctxs.len() + 1],
            sink,
            guard,
            countdown: GUARD_BATCH,
            pending_rows: 0,
            stop: false,
            trip: None,
        }
    }

    /// All counters merged (the executor's aggregate view).
    fn total_stats(&self) -> SearchStats {
        let mut total = SearchStats::default();
        for s in &self.step_stats {
            total.merge(s);
        }
        total
    }

    /// Counts one binding against the poll batch. The hot path is a
    /// decrement and a branch; the guard's atomics are only touched
    /// when the batch is exhausted.
    #[inline]
    fn tick(&mut self) {
        self.countdown -= 1;
        if self.countdown == 0 {
            self.poll_guard();
        }
    }

    #[cold]
    fn poll_guard(&mut self) {
        self.countdown = GUARD_BATCH;
        let produced = std::mem::take(&mut self.pending_rows);
        if let Err(trip) = self.guard.poll(produced) {
            self.trip = Some(trip);
            self.stop = true;
        }
    }

    /// Credits rows still pending at worker exit. Only the row budget
    /// is enforced here: it caps result size, so it must hold even for
    /// queries too small to ever hit a poll boundary. A deadline or
    /// cancellation first noticed after the work finished does not
    /// discard a complete result.
    fn final_check(&mut self) {
        let produced = std::mem::take(&mut self.pending_rows);
        if let Err(trip @ GuardTrip::BudgetExceeded { .. }) = self.guard.poll(produced) {
            if self.trip.is_none() {
                self.trip = Some(trip);
            }
        }
    }

    #[inline]
    fn emit(&mut self) {
        self.pending_rows += 1;
        self.rowbuf.clear();
        for &v in self.projection {
            self.rowbuf.push(self.bindings[v as usize]);
        }
        self.sink.push(&self.rowbuf);
    }

    /// Runs probe steps `depth..` for the current bindings.
    fn descend(&mut self, depth: usize) {
        if self.stop {
            return;
        }
        self.tick();
        self.step_rows[depth] += 1;
        if depth == self.ctxs.len() {
            self.emit();
            return;
        }
        let ctx = &self.ctxs[depth];
        let (source, threshold, mode) = (ctx.source, ctx.threshold, ctx.mode);
        let key = match mode.key {
            KeyMode::Const(c) => c,
            KeyMode::Var(v) => self.bindings[v as usize],
        };
        match source {
            ReplicaView::Clean(replica) => {
                let group = self.search(replica, key, depth, threshold);
                self.step(group, mode.value, key, depth, depth + 1);
            }
            ReplicaView::Dirty { base, add, del } => {
                // Merge the delta runs into the probe on the fly.
                let base = match base {
                    Some(replica) => self.search(replica, key, depth, threshold),
                    None => Group::Raw(&[]),
                };
                let stats = &mut self.step_stats[depth];
                let group = MergedGroup {
                    base,
                    add: overlay_group(add, key, stats),
                    del: overlay_group(del, key, stats),
                };
                self.step(group, mode.value, key, depth, depth + 1);
            }
        }
    }

    /// Algorithm 1's adaptive search for `key` in `replica`, continuing
    /// probe step `depth`'s cursors; the key's group, or an empty one.
    #[inline]
    fn search(
        &mut self,
        replica: &'a Replica,
        key: Id,
        depth: usize,
        threshold: i64,
    ) -> Group<'a> {
        match adaptive_search(
            replica.keys(),
            key,
            &mut self.cursors[depth],
            threshold,
            self.strategy,
            replica.idpos(),
            &mut self.step_stats[depth],
        ) {
            Some(pos) => replica.group_at_cursor(pos, &mut self.walks[depth]),
            None => Group::Raw(&[]),
        }
    }

    /// Applies one step's value mode to `key`'s `group` and descends
    /// into `next` for each binding that survives. Probe step `d` calls
    /// it with `slot = d` and `next = d + 1`; the key-scan driver with
    /// its trailing stats slot and `next = 0`.
    #[inline]
    fn step<G: ProbeGroup<'a>>(
        &mut self,
        group: G,
        mode: ValueMode,
        key: Id,
        slot: usize,
        next: usize,
    ) {
        if group.absent() {
            return;
        }
        let value = match mode {
            ValueMode::Bind(v) => {
                // The iterator borrows from the replica ('a), not from
                // `self`, so recursion is free to re-borrow.
                for val in group.values() {
                    self.bindings[v as usize] = val;
                    self.descend(next);
                }
                return;
            }
            ValueMode::CheckVar(v) => self.bindings[v as usize],
            ValueMode::CheckConst(c) => c,
            ValueMode::CheckEqKey => key,
        };
        if group.probe(value, &mut self.step_stats[slot]) {
            self.descend(next);
        }
    }

    /// Processes one morsel `[lo, hi)` of the driver domain.
    fn run_range(&mut self, driver: &ResolvedDriver<'a>, lo: usize, hi: usize) {
        // Driver-side checks count in the trailing stats slot; the
        // driver replica's walk cursor is the trailing walk slot.
        let slot = self.ctxs.len() + 1;
        let walk = self.ctxs.len();
        match driver {
            ResolvedDriver::Keys {
                replica,
                bind_key,
                value,
            } => {
                for pos in lo..hi {
                    if self.stop {
                        break;
                    }
                    self.tick();
                    let key = replica.key_at(pos);
                    self.bindings[*bind_key as usize] = key;
                    let group = replica.group_at_cursor(pos, &mut self.walks[walk]);
                    self.step(group, *value, key, slot, 0);
                }
            }
            ResolvedDriver::DirtyKeys {
                keys,
                base,
                add,
                del,
                bind_key,
                value,
            } => {
                for &key in &keys[lo..hi] {
                    if self.stop {
                        break;
                    }
                    self.tick();
                    self.bindings[*bind_key as usize] = key;
                    // Dirty drivers pay one binary search per run and
                    // key (the merged key list has no positions into
                    // any single replica).
                    let stats = &mut self.step_stats[slot];
                    let base = match base {
                        Some(r) => {
                            stats.group_probes += 1;
                            match r.position_of(key) {
                                Some(pos) => r.group_at_cursor(pos, &mut self.walks[walk]),
                                None => Group::Raw(&[]),
                            }
                        }
                        None => Group::Raw(&[]),
                    };
                    let group = MergedGroup {
                        base,
                        add: overlay_group(*add, key, stats),
                        del: overlay_group(*del, key, stats),
                    };
                    self.step(group, *value, key, slot, 0);
                }
            }
            ResolvedDriver::Group { group, bind_value } => {
                for &val in &group.as_slice()[lo..hi] {
                    if self.stop {
                        break;
                    }
                    self.bindings[*bind_value as usize] = val;
                    self.descend(0);
                }
            }
            ResolvedDriver::Exist { present } => {
                if *present && lo == 0 {
                    self.descend(0);
                }
            }
        }
    }
}

/// Resolves replicas and the driver; `None` when a referenced predicate
/// has no partition (empty result). A driver domain that must be
/// materialized (a packed constant-key group, or a delta-dirtied driver
/// predicate) is taken from `shared` when another participant already
/// built it, so each query materializes it once — and sizes its run
/// from that same build.
fn prepare_exec<'a>(
    view: StoreView<'a>,
    plan: &PhysicalPlan,
    strategy: ProbeStrategy,
    thresholds: &ThresholdTable,
    shared: Option<&Arc<Vec<Id>>>,
) -> Option<(Vec<StepCtx<'a>>, ResolvedDriver<'a>)> {
    let materialize = |build: &dyn Fn() -> Vec<Id>| match shared {
        Some(domain) => Arc::clone(domain),
        None => {
            #[cfg(test)]
            tests::note_materialized(plan);
            Arc::new(build())
        }
    };
    let mut ctxs: Vec<StepCtx<'a>> = Vec::with_capacity(plan.compiled.len());
    for (step, mode) in plan.steps.iter().skip(1).zip(&plan.compiled) {
        let source = view.replica(step.predicate, step.order)?;
        let t = thresholds.get(step.predicate, step.order);
        let threshold = match strategy {
            ProbeStrategy::AdaptiveIndex => t.index,
            _ => t.binary,
        };
        ctxs.push(StepCtx {
            source,
            threshold,
            mode: *mode,
        });
    }
    let step0 = &plan.steps[0];
    let driver_source = view.replica(step0.predicate, step0.order)?;
    let driver = match plan.driver {
        DriverMode::ScanKeys { bind_key, value } => match driver_source {
            ReplicaView::Clean(replica) => ResolvedDriver::Keys {
                replica,
                bind_key,
                value,
            },
            ReplicaView::Dirty { base, add, del } => ResolvedDriver::DirtyKeys {
                keys: materialize(&|| driver_source.merged_keys()),
                base,
                add,
                del,
                bind_key,
                value,
            },
        },
        DriverMode::ScanGroup { key, bind_value } => match driver_source {
            ReplicaView::Clean(replica) => {
                // Morsel sharding slices the driver domain by range, so
                // a block-compressed group is materialized once per query
                // (raw groups stay borrowed).
                let g = replica.group_for_key(key);
                let group = match g.as_raw() {
                    Some(s) => GroupRef::Borrowed(s),
                    None => GroupRef::Shared(materialize(&|| g.to_vec())),
                };
                ResolvedDriver::Group { group, bind_value }
            }
            ReplicaView::Dirty { .. } => ResolvedDriver::Group {
                group: GroupRef::Shared(materialize(&|| {
                    let mut owned = Vec::new();
                    driver_source.merged_values_into(key, &mut owned);
                    owned
                })),
                bind_value,
            },
        },
        DriverMode::Existence { key, value } => ResolvedDriver::Exist {
            present: driver_source.contains_pair(key, value),
        },
    };
    Some((ctxs, driver))
}

/// Participants a run over a `domain`-key driver gets. §3 suggests
/// that "very simple and selective queries could be executed with
/// fewer resources": a driver below [`ExecOptions::small_query_threshold`]
/// keys runs on one participant, where the hand-off to helpers would
/// cost more than the query itself (the overhead §5.2.3 discusses).
/// Anything larger gets [`ExecOptions::threads`].
fn participants(opts: &ExecOptions, domain: usize) -> usize {
    if domain < opts.small_query_threshold {
        1
    } else {
        opts.threads
    }
}

/// Runs the plan on one participant over the morsel grid a run with
/// `opts` executes (the same `grid_size` cut of the driver domain,
/// after the small-query rule), returning each morsel's **work units**
/// (rows emitted + array words touched).
///
/// Workers draw morsels dynamically from one atomic cursor, so on
/// ideal hardware the parallel makespan with `K` threads is bounded
/// below by `max(total/K, max_morsel)` — the benchmark harness reports
/// `total / max(total/K, max_morsel)` as the achievable speedup of the
/// morsel distribution, independently of how many cores the measuring
/// host happens to have.
///
/// Invalid [`ExecOptions`] (zero threads or morsel size) are rejected
/// with the same [`ExecOptionsError`] the executor itself reports,
/// instead of being conflated with the legitimately-empty answer of an
/// unanswerable plan (`Ok(vec![])`). This diagnostic helper never
/// panics.
pub fn morsel_loads(
    store: &TripleStore,
    delta: Option<&DeltaOverlay>,
    plan: &PhysicalPlan,
    opts: &ExecOptions,
    thresholds: &ThresholdTable,
) -> Result<Vec<u64>, ExecOptionsError> {
    opts.validate()?;
    let view = StoreView::new(store, delta);
    let Some((ctxs, driver)) = prepare_exec(view, plan, opts.strategy, thresholds, None) else {
        return Ok(Vec::new());
    };
    let domain = driver.domain();
    let size = grid_size(domain, participants(opts, domain), opts.morsel_size);
    let guard = QueryGuard::unlimited();
    let mut worker = Worker::new(&ctxs, opts.strategy, plan, CountSink::default(), &guard);
    let mut loads = Vec::new();
    let mut prev = 0u64;
    let mut lo = 0usize;
    while lo < domain {
        let hi = (lo + size).min(domain);
        worker.run_range(&driver, lo, hi);
        let now = worker.sink.count + worker.total_stats().words_touched();
        loads.push(now - prev);
        prev = now;
        lo = hi;
    }
    Ok(loads)
}

/// Immutable per-run shape every participant shares: resolved probe
/// contexts, the driver, and the morsel grid.
struct RunShape<'a> {
    ctxs: &'a [StepCtx<'a>],
    driver: &'a ResolvedDriver<'a>,
    plan: &'a PhysicalPlan,
    strategy: ProbeStrategy,
    /// Keys per morsel, from `grid_size`.
    morsel_size: usize,
    domain: usize,
}

/// Everything one finished participant hands back to the coordinator:
/// its per-morsel sinks (tagged with morsel index for the
/// deterministic merge) plus its private counters.
struct ParticipantOutput<S> {
    morsels: Vec<(usize, S)>,
    stats: SearchStats,
    trip: Option<GuardTrip>,
    step_stats: Vec<SearchStats>,
    step_rows: Vec<u64>,
}

/// One participant's whole run: pull morsels off the shared cursor
/// until it drains (or the guard trips), keeping one sink per morsel.
/// Sequential-search cursors persist across the morsels one
/// participant runs — which morsels those are varies run to run, but
/// cursor state only changes *search cost*, never which rows match.
fn run_participant<S, F>(
    shape: &RunShape<'_>,
    guard: &QueryGuard,
    cursor: &AtomicUsize,
    factory: &F,
) -> ParticipantOutput<S>
where
    S: Sink,
    F: Fn() -> S,
{
    let mut w = Worker::new(shape.ctxs, shape.strategy, shape.plan, factory(), guard);
    // Check limits once up front so pre-cancelled tokens and
    // already-expired deadlines stop even queries too small to reach a
    // poll boundary.
    w.poll_guard();
    let mut morsels: Vec<(usize, S)> = Vec::new();
    while !w.stop {
        // ordering: Relaxed — the cursor is the only shared word;
        // morsel *contents* are read-only during execution, so no
        // publication edge is needed (the same ticket protocol is
        // modeled by loom_parallel in parj-store and loom_pool here).
        let m = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(lo) = m.checked_mul(shape.morsel_size) else {
            break;
        };
        if lo >= shape.domain {
            break;
        }
        let hi = (lo + shape.morsel_size).min(shape.domain);
        w.run_range(shape.driver, lo, hi);
        // One sink per morsel: the coordinator merges sinks in morsel
        // order, making results independent of worker interleaving.
        let full = std::mem::replace(&mut w.sink, factory());
        morsels.push((m, full));
    }
    w.final_check();
    let stats = w.total_stats();
    ParticipantOutput {
        morsels,
        stats,
        trip: w.trip,
        step_stats: w.step_stats,
        step_rows: w.step_rows,
    }
}

/// What the participants of one run hand back, behind a mutex:
/// finished participants push their outputs; the coordinator drains it
/// once no participant is still running.
struct RunOutput<S> {
    parts: Vec<ParticipantOutput<S>>,
    panicked: Option<String>,
}

/// Runs one participant with its panic contained: a panic trips the
/// shared guard (stopping siblings at their next poll) and is recorded
/// for the coordinator's merge, so it never unwinds a pool worker or
/// the caller.
fn run_contained<S, F>(
    shape: &RunShape<'_>,
    guard: &QueryGuard,
    cursor: &AtomicUsize,
    factory: &F,
    output: &OrderedMutex<RunOutput<S>>,
) where
    S: Sink,
    F: Fn() -> S,
{
    match std::panic::catch_unwind(AssertUnwindSafe(|| {
        run_participant(shape, guard, cursor, factory)
    })) {
        Ok(p) => output.lock().parts.push(p),
        Err(payload) => {
            guard.cancel();
            let mut out = output.lock();
            if out.panicked.is_none() {
                out.panicked = Some(panic_message(payload.as_ref()));
            }
        }
    }
}

/// Folds participant outputs into the caller-facing result: merged
/// counters, the worst failure (panic > budget > deadline > cancel),
/// one recorder callback, and the deterministic morsel-ordered sinks.
fn merge_participants<S: Sink>(
    parts: Vec<ParticipantOutput<S>>,
    panicked: Option<String>,
    opts: &ExecOptions,
    guard: &QueryGuard,
    n_ctxs: usize,
    morsel_size: usize,
) -> ExecResult<(Vec<S>, SearchStats)> {
    let mut total = SearchStats::default();
    let mut worst: Option<ExecFailureKind> =
        panicked.map(|message| ExecFailureKind::WorkerPanicked { message });
    let note = |kind: ExecFailureKind, worst: &mut Option<ExecFailureKind>| {
        if worst.as_ref().is_none_or(|w| kind.severity() > w.severity()) {
            *worst = Some(kind);
        }
    };

    // Aggregates for the recorder, built only when one is attached —
    // runs without a recorder pay nothing here.
    let recording = opts.recorder.is_some();
    let mut agg_step_stats = vec![SearchStats::default(); if recording { n_ctxs + 2 } else { 0 }];
    let mut agg_step_rows = vec![0u64; if recording { n_ctxs + 1 } else { 0 }];
    let mut worker_units: Vec<u64> = Vec::new();
    let mut morsel_count = 0u64;
    let mut active = 0u64;

    let mut tagged: Vec<(usize, S)> = Vec::new();
    for out in parts {
        total.merge(&out.stats);
        if let Some(trip) = out.trip {
            note(ExecFailureKind::from_trip(trip), &mut worst);
        }
        morsel_count += out.morsels.len() as u64;
        active += u64::from(!out.morsels.is_empty());
        if recording {
            for (agg, s) in agg_step_stats.iter_mut().zip(&out.step_stats) {
                agg.merge(s);
            }
            for (agg, r) in agg_step_rows.iter_mut().zip(&out.step_rows) {
                *agg += r;
            }
            let rows = out.step_rows.last().copied().unwrap_or(0);
            worker_units.push(rows + out.stats.words_touched());
        }
        tagged.extend(out.morsels);
    }
    // Deterministic merge: morsel index order *is* driver-domain order,
    // so the concatenated sinks are byte-identical no matter which
    // worker ran which morsel, how many workers participated, or how
    // the pulls interleaved.
    tagged.sort_unstable_by_key(|(m, _)| *m);

    if let Some(rec) = &opts.recorder {
        // Recorded on success *and* failure: partial progress is what
        // the outcome counters need to explain a timeout or budget trip.
        rec.record_exec(&ExecRecord {
            result_rows: agg_step_rows.last().copied().unwrap_or(0),
            step_rows: &agg_step_rows,
            step_search: &agg_step_stats[..n_ctxs],
            driver_search: agg_step_stats[n_ctxs + 1],
            total_search: total,
            worker_units: &worker_units,
            morsels: morsel_count,
            morsel_size,
            participants: active,
        });
    }
    if let Some(kind) = worst {
        return Err(Box::new(ExecFailure {
            kind,
            stats: total,
            rows: guard.rows(),
        }));
    }
    Ok((tagged.into_iter().map(|(_, s)| s).collect(), total))
}

/// Fires the recorder's empty record for plans that short-circuit
/// before any worker runs (a referenced predicate has no partition).
fn record_empty(opts: &ExecOptions) {
    if let Some(rec) = &opts.recorder {
        rec.record_exec(&ExecRecord {
            result_rows: 0,
            step_rows: &[],
            step_search: &[],
            driver_search: SearchStats::default(),
            total_search: SearchStats::default(),
            worker_units: &[],
            morsels: 0,
            morsel_size: 0,
            participants: 0,
        });
    }
}

fn invalid_options(e: ExecOptionsError) -> Box<ExecFailure> {
    Box::new(ExecFailure {
        kind: ExecFailureKind::InvalidOptions {
            message: e.to_string(),
        },
        stats: SearchStats::default(),
        rows: 0,
    })
}

/// Executes `plan` against `store` (plus an optional delta overlay),
/// creating sinks via `factory`, and returns the morsel-ordered sinks
/// plus merged search counters.
///
/// The plan is resolved once, on the calling thread. A run that gets
/// one participant — one thread, a driver below the small-query
/// threshold, or a single morsel — executes inline and touches no pool.
/// Otherwise the calling thread participates and up to `participants −
/// 1` idle workers of `pool` join it, pulling morsels off the run's
/// shared cursor; with no `pool`, a [`WorkerPool`] is made for this
/// call and dropped (its threads joined) before it returns.
///
/// Pool participants are `'static` jobs, so the execution context
/// arrives as `Arc`s; each helper re-derives the read-only probe
/// contexts from them (cheap replica lookups) and shares the caller's
/// materialized driver domain. Probes on delta-touched predicates merge
/// the resident add/del runs on the fly; untouched predicates keep the
/// zero-overhead clean path.
///
/// Concatenating the returned sinks yields rows in driver-domain
/// order — byte-identical across thread counts, morsel sizes, pools and
/// a compacted store. A participant panic fails only this query: it is
/// caught, cancels the query's guard, and surfaces as
/// [`ExecFailureKind::WorkerPanicked`].
pub fn execute<S, F>(
    pool: Option<&WorkerPool>,
    store: &Arc<TripleStore>,
    delta: Option<&Arc<DeltaOverlay>>,
    plan: &Arc<PhysicalPlan>,
    opts: &ExecOptions,
    thresholds: &Arc<ThresholdTable>,
    factory: F,
) -> ExecResult<(Vec<S>, SearchStats)>
where
    S: Sink + Send + 'static,
    F: Fn() -> S + Send + Sync + 'static,
{
    opts.validate().map_err(invalid_options)?;
    let view = StoreView::new(store, delta.map(|d| d.as_ref()));
    let Some((ctxs, driver)) = prepare_exec(view, plan, opts.strategy, thresholds, None) else {
        record_empty(opts);
        return Ok((Vec::new(), SearchStats::default()));
    };
    let n_ctxs = ctxs.len();
    // Sized once here; every participant cuts the same grid.
    let domain = driver.domain();
    let participants = participants(opts, domain);
    let morsel_size = grid_size(domain, participants, opts.morsel_size);
    let helpers = participants.saturating_sub(1).min(domain.div_ceil(morsel_size).max(1) - 1);

    // Every run is guarded: callers without limits get a private
    // unlimited guard so a panicking participant still stops siblings.
    let guard: Arc<QueryGuard> = match &opts.guard {
        Some(g) => Arc::clone(g),
        None => Arc::new(QueryGuard::unlimited()),
    };
    let output = Arc::new(OrderedMutex::new(
        LockLevel::ExecOutput,
        "exec.run_output",
        RunOutput::<S> {
            parts: Vec::new(),
            panicked: None,
        },
    ));
    let cursor = Arc::new(AtomicUsize::new(0));
    if helpers == 0 {
        let shape = RunShape {
            ctxs: &ctxs,
            driver: &driver,
            plan,
            strategy: opts.strategy,
            morsel_size,
            domain,
        };
        run_contained(&shape, &guard, &cursor, &factory, &output);
    } else {
        let shared_domain = driver.shared_domain();
        drop((ctxs, driver));
        let body: Participant = {
            let store = Arc::clone(store);
            let delta: Option<Arc<DeltaOverlay>> = delta.map(Arc::clone);
            let plan = Arc::clone(plan);
            let thresholds = Arc::clone(thresholds);
            let guard = Arc::clone(&guard);
            let output = Arc::clone(&output);
            let cursor = Arc::clone(&cursor);
            let strategy = opts.strategy;
            Arc::new(move || {
                // Nothing borrowed crosses the 'static job boundary:
                // each participant re-derives the probe contexts from
                // its own Arcs and shares the caller's driver domain.
                let view = StoreView::new(&store, delta.as_deref());
                let Some((ctxs, driver)) =
                    prepare_exec(view, &plan, strategy, &thresholds, shared_domain.as_ref())
                else {
                    return;
                };
                let shape = RunShape {
                    ctxs: &ctxs,
                    driver: &driver,
                    plan: &plan,
                    strategy,
                    morsel_size,
                    domain,
                };
                run_contained(&shape, &guard, &cursor, &factory, &output);
            })
        };
        // The pool's rendezvous returns only after every participant
        // that joined has finished, so draining `output` afterwards
        // sees the complete set.
        match pool {
            Some(pool) => pool.run(helpers, body),
            None => WorkerPool::new(helpers).run(helpers, body),
        }
    }
    let (parts, panicked) = {
        let mut out = output.lock();
        (std::mem::take(&mut out.parts), out.panicked.take())
    };
    merge_participants(parts, panicked, opts, &guard, n_ctxs, morsel_size)
}

/// Builds a threshold table from the paper's default calibration windows
/// (used when the caller has not run [`crate::calibrate`]).
pub fn default_thresholds(store: &TripleStore) -> ThresholdTable {
    ThresholdTable::from_calibration(store, &CalibrationResult::paper_defaults())
}

/// Silent-mode execution: [`execute`] with counting sinks, returning
/// only the result count (and counters).
pub fn execute_count(
    pool: Option<&WorkerPool>,
    store: &Arc<TripleStore>,
    delta: Option<&Arc<DeltaOverlay>>,
    plan: &Arc<PhysicalPlan>,
    opts: &ExecOptions,
    thresholds: &Arc<ThresholdTable>,
) -> ExecResult<(u64, SearchStats)> {
    let (sinks, stats) = execute(pool, store, delta, plan, opts, thresholds, CountSink::default)?;
    Ok((sinks.iter().map(|s| s.count).sum(), stats))
}

/// Materializing execution: [`execute`] with collecting sinks, whose
/// buffers are concatenated in morsel order — driver-domain order, the
/// same at every thread count — into one flat [`crate::RowBatch`],
/// never exploded into per-row allocations.
///
/// Zero-arity plans (pure existence) carry no id payload; the batch
/// still reports the real match count through its explicit zero-arity
/// row counter.
pub fn execute_collect(
    pool: Option<&WorkerPool>,
    store: &Arc<TripleStore>,
    delta: Option<&Arc<DeltaOverlay>>,
    plan: &Arc<PhysicalPlan>,
    opts: &ExecOptions,
    thresholds: &Arc<ThresholdTable>,
) -> ExecResult<(crate::RowBatch, SearchStats)> {
    let (sinks, stats) = execute(pool, store, delta, plan, opts, thresholds, CollectSink::default)?;
    let arity = plan.projection.len();
    let mut rows = crate::RowBatch::new(arity);
    for sink in &sinks {
        if arity == 0 {
            rows.extend_rows(sink.rows as usize);
        } else {
            rows.extend_flat(&sink.data);
        }
    }
    Ok((rows, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Atom, PlanStep};
    use parj_dict::Term;
    use parj_store::{SortOrder, StoreBuilder};

    /// [`execute_count`] without a pool or overlay, default thresholds.
    fn run_count(
        store: &Arc<TripleStore>,
        plan: &PhysicalPlan,
        opts: &ExecOptions,
    ) -> ExecResult<(u64, SearchStats)> {
        let thresholds = Arc::new(default_thresholds(store));
        execute_count(None, store, None, &Arc::new(plan.clone()), opts, &thresholds)
    }

    /// Addresses of the plans whose driver domain was materialized, one
    /// entry per materialization. Tests run concurrently, so each test
    /// counts only entries for a plan it owns.
    static MATERIALIZED: std::sync::Mutex<Vec<usize>> = std::sync::Mutex::new(Vec::new());

    pub(super) fn note_materialized(plan: &PhysicalPlan) {
        if let Ok(mut log) = MATERIALIZED.lock() {
            log.push(plan as *const PhysicalPlan as usize);
        }
    }

    fn materializations(plan: &Arc<PhysicalPlan>) -> usize {
        let at = Arc::as_ptr(plan) as usize;
        MATERIALIZED.lock().unwrap().iter().filter(|&&p| p == at).count()
    }

    #[test]
    fn driver_is_materialized_once_per_query() {
        // A packed constant-key group and a delta-dirtied key scan both
        // need their driver domain built before morsels can slice it.
        // The caller builds it once — the same build sizes the run for
        // the small-query rule — and every pool participant shares it,
        // at any helper count.
        let mut b = StoreBuilder::new();
        for i in 0..2000u32 {
            b.add_term_triple(&Term::iri("hub"), &Term::iri("p0"), &Term::iri(format!("m{i}")));
            b.add_term_triple(
                &Term::iri(format!("m{i}")),
                &Term::iri("p1"),
                &Term::iri(format!("t{}", i % 37)),
            );
        }
        let store = Arc::new(b.build_with(parj_store::StoreOptions {
            compress_min_values: Some(16),
            ..Default::default()
        }));
        let (p0, p1, hub) = (pid(&store, "p0"), pid(&store, "p1"), rid(&store, "hub"));
        assert!(store.replica(p0, SortOrder::SO).unwrap().is_compressed());
        let steps = |driver: Atom| {
            vec![
                PlanStep {
                    predicate: p0,
                    order: SortOrder::SO,
                    key: driver,
                    value: Atom::Var(0),
                },
                PlanStep {
                    predicate: p1,
                    order: SortOrder::SO,
                    key: Atom::Var(0),
                    value: Atom::Var(1),
                },
            ]
        };
        let group_plan = Arc::new(PhysicalPlan::new(steps(Atom::Const(hub)), 2, vec![0, 1]).unwrap());
        let mut delta = parj_store::DeltaOverlay::new(&store);
        delta.apply_pred(&store, p1, &[(rid(&store, "m5"), rid(&store, "t9"))], &[]);
        let delta = Arc::new(delta);
        // ?m p1 ?t with p1 dirty: a DirtyKeys driver of 2 000 keys.
        let dirty_plan = Arc::new(
            PhysicalPlan::new(
                vec![PlanStep {
                    predicate: p1,
                    order: SortOrder::SO,
                    key: Atom::Var(0),
                    value: Atom::Var(1),
                }],
                2,
                vec![0, 1],
            )
            .unwrap(),
        );
        let thresholds = Arc::new(default_thresholds(&store));
        let pool = WorkerPool::new(3);
        let spread = ExecOptions {
            threads: 4,
            morsel_size: 7,
            ..ExecOptions::default()
        };
        // The engine's default small-query rule at two threads: the
        // 2 000-key dirty driver is below 2 048 keys, so the run gets
        // one participant — sized from the one build it runs on.
        let small = ExecOptions {
            threads: 2,
            small_query_threshold: 2048,
            ..ExecOptions::default()
        };
        for (plan, delta, opts, inline) in [
            (&group_plan, None, &spread, false),
            (&dirty_plan, Some(&delta), &spread, false),
            (&dirty_plan, Some(&delta), &small, true),
        ] {
            let rec = Arc::new(CaptureRecorder::default());
            let opts = ExecOptions {
                recorder: Some(Arc::clone(&rec) as Arc<dyn Recorder>),
                ..opts.clone()
            };
            let before = materializations(plan);
            let (sinks, _) = execute(
                Some(&pool),
                &store,
                delta,
                plan,
                &opts,
                &thresholds,
                CollectSink::default,
            )
            .expect("pooled run");
            assert_eq!(materializations(plan) - before, 1, "one build per query");
            let morsels = rec.seen.lock().unwrap()[0].5;
            assert_eq!(morsels == 1, inline, "{morsels} morsels");
            let rows: Vec<Id> = sinks.iter().flat_map(|s| s.data.iter().copied()).collect();
            let one = collect_rows(&store, delta, plan, &ExecOptions::default()).concat();
            assert_eq!(rows, one);
            assert!(!rows.is_empty());
        }
    }

    /// A small university graph: professors teach courses and work for
    /// universities; students take courses and are advised by profs.
    fn store() -> Arc<TripleStore> {
        let mut b = StoreBuilder::new();
        let mut add = |s: &str, p: &str, o: &str| {
            b.add_term_triple(&Term::iri(s), &Term::iri(p), &Term::iri(o));
        };
        for (prof, unis) in [("ProfA", "U1"), ("ProfB", "U2"), ("ProfC", "U2")] {
            add(prof, "worksFor", unis);
        }
        for (prof, course) in [
            ("ProfA", "Math"),
            ("ProfA", "Physics"),
            ("ProfB", "Chem"),
            ("ProfC", "Lit"),
        ] {
            add(prof, "teaches", course);
        }
        for (stud, course) in [
            ("Stud1", "Math"),
            ("Stud1", "Chem"),
            ("Stud2", "Math"),
            ("Stud3", "Lit"),
            ("Stud3", "Physics"),
        ] {
            add(stud, "takes", course);
        }
        for (stud, prof) in [("Stud1", "ProfA"), ("Stud2", "ProfA"), ("Stud3", "ProfC")] {
            add(stud, "advisor", prof);
        }
        Arc::new(b.build())
    }

    fn pid(store: &TripleStore, name: &str) -> Id {
        store.dict().predicate_id(&Term::iri(name)).unwrap()
    }

    fn rid(store: &TripleStore, name: &str) -> Id {
        store.dict().resource_id(&Term::iri(name)).unwrap()
    }

    /// Brute-force oracle over the store's triples for a conjunctive
    /// pattern list given as (subject, predicate-id, object) atoms.
    fn oracle(store: &TripleStore, patterns: &[(Atom, Id, Atom)], num_vars: usize) -> Vec<Vec<Id>> {
        let triples: Vec<_> = store.iter_triples().collect();
        let mut results = Vec::new();
        let mut bindings: Vec<Option<Id>> = vec![None; num_vars];
        fn rec(
            patterns: &[(Atom, Id, Atom)],
            triples: &[parj_dict::EncodedTriple],
            bindings: &mut [Option<Id>],
            results: &mut Vec<Vec<Id>>,
        ) {
            let Some(&(s, p, o)) = patterns.first() else {
                results.push(bindings.iter().map(|b| b.unwrap_or(0)).collect());
                return;
            };
            for t in triples {
                if t.p != p {
                    continue;
                }
                let mut local = bindings.to_vec();
                let ok = |atom: Atom, id: Id, b: &mut [Option<Id>]| match atom {
                    Atom::Const(c) => c == id,
                    Atom::Var(v) => match b[v as usize] {
                        Some(x) => x == id,
                        None => {
                            b[v as usize] = Some(id);
                            true
                        }
                    },
                };
                if ok(s, t.s, &mut local) && ok(o, t.o, &mut local) {
                    rec(&patterns[1..], triples, &mut local, results);
                }
            }
        }
        rec(patterns, &triples, &mut bindings, &mut results);
        results.sort();
        results.dedup();
        results
    }

    fn check_plan_against_oracle(
        store: &Arc<TripleStore>,
        steps: Vec<PlanStep>,
        num_vars: usize,
        patterns: &[(Atom, Id, Atom)],
    ) {
        let projection: Vec<VarId> = (0..num_vars as VarId).collect();
        let plan = Arc::new(PhysicalPlan::new(steps, num_vars, projection).unwrap());
        let thresholds = Arc::new(default_thresholds(store));
        let expected = oracle(store, patterns, num_vars);
        for strategy in [
            ProbeStrategy::AlwaysBinary,
            ProbeStrategy::AdaptiveBinary,
            ProbeStrategy::AlwaysIndex,
            ProbeStrategy::AdaptiveIndex,
            ProbeStrategy::AlwaysSequential,
        ] {
            for threads in [1, 4] {
                let opts = ExecOptions {
                    threads,
                    morsel_size: 3,
                    strategy,
                    ..ExecOptions::default()
                };
                let (mut batch, _) =
                    execute_collect(None, store, None, &plan, &opts, &thresholds).expect("runs");
                batch.sort_unstable();
                batch.dedup();
                assert_eq!(
                    batch.into_rows(),
                    expected,
                    "strategy {strategy} threads {threads} disagreed with oracle"
                );
            }
        }
    }

    #[test]
    fn example_31_subject_subject_join() {
        // ?x teaches ?z . ?x worksFor ?y
        let s = store();
        let teaches = pid(&s, "teaches");
        let works = pid(&s, "worksFor");
        check_plan_against_oracle(
            &s,
            vec![
                PlanStep {
                    predicate: teaches,
                    order: SortOrder::SO,
                    key: Atom::Var(0),
                    value: Atom::Var(1),
                },
                PlanStep {
                    predicate: works,
                    order: SortOrder::SO,
                    key: Atom::Var(0),
                    value: Atom::Var(2),
                },
            ],
            3,
            &[
                (Atom::Var(0), teaches, Atom::Var(1)),
                (Atom::Var(0), works, Atom::Var(2)),
            ],
        );
    }

    /// Builds an overlay with mutations and a from-scratch rebuilt
    /// store holding the same visible triples (same dictionary ids).
    fn dirty_and_rebuilt() -> (Arc<TripleStore>, Arc<DeltaOverlay>, Arc<TripleStore>) {
        let base = store();
        let mut ov = parj_store::DeltaOverlay::new(&base);
        let teaches = pid(&base, "teaches");
        let works = pid(&base, "worksFor");
        // ProfB stops teaching Chem and starts teaching Math + Lit;
        // ProfC moves to U1.
        let (profb, profc) = (rid(&base, "ProfB"), rid(&base, "ProfC"));
        let (math, lit, chem) = (rid(&base, "Math"), rid(&base, "Lit"), rid(&base, "Chem"));
        let (u1, u2) = (rid(&base, "U1"), rid(&base, "U2"));
        let mut ins = vec![(profb, math), (profb, lit)];
        ins.sort_unstable();
        ov.apply_pred(&base, teaches, &ins, &[(profb, chem)]);
        ov.apply_pred(&base, works, &[(profc, u1)], &[(profc, u2)]);
        assert_eq!(ov.check_invariants(&base), Ok(()));

        let mut b = StoreBuilder::new();
        *b.dict_mut() = base.dict().clone();
        for t in ov.iter_merged_triples(&base) {
            b.add_encoded(t);
        }
        let rebuilt = b.build();
        assert_eq!(rebuilt.num_triples(), ov.visible_triples(&base));
        (base, Arc::new(ov), Arc::new(rebuilt))
    }

    /// Runs `plan` without an engine pool and splits the morsel-ordered
    /// sinks into rows.
    fn collect_rows(
        store: &Arc<TripleStore>,
        delta: Option<&Arc<DeltaOverlay>>,
        plan: &PhysicalPlan,
        opts: &ExecOptions,
    ) -> Vec<Vec<Id>> {
        let thresholds = Arc::new(default_thresholds(store));
        let plan = Arc::new(plan.clone());
        let (sinks, _) =
            execute(None, store, delta, &plan, opts, &thresholds, CollectSink::default)
                .expect("runs");
        let arity = plan.projection.len().max(1);
        let mut rows = Vec::new();
        for sink in &sinks {
            for row in sink.data.chunks(arity) {
                rows.push(row.to_vec());
            }
        }
        rows
    }

    #[test]
    fn compressed_store_rows_equal_raw_byte_for_byte() {
        // The same graph built raw and block-compressed must emit the
        // *unsorted* row stream identically at every strategy, thread
        // count and morsel size — compression is invisible to results.
        let build = |compress: Option<usize>| {
            let mut b = StoreBuilder::new();
            for i in 0..3000u32 {
                b.add_term_triple(
                    &Term::iri(format!("s{}", i % 6)),
                    &Term::iri("p0"),
                    &Term::iri(format!("m{}", i % 500)),
                );
                b.add_term_triple(
                    &Term::iri(format!("m{}", i % 500)),
                    &Term::iri("p1"),
                    &Term::iri(format!("t{}", (i * 7) % 90)),
                );
            }
            Arc::new(b.build_with(parj_store::StoreOptions {
                compress_min_values: compress,
                ..Default::default()
            }))
        };
        let raw = build(None);
        let zip = build(Some(16));
        let p0 = pid(&raw, "p0");
        let p1 = pid(&raw, "p1");
        assert!(
            zip.replica(p0, SortOrder::SO).unwrap().is_compressed(),
            "long-run replica must compress"
        );
        // ?x p0 ?y . ?y p1 ?z
        let plan = PhysicalPlan::new(
            vec![
                PlanStep {
                    predicate: p0,
                    order: SortOrder::SO,
                    key: Atom::Var(0),
                    value: Atom::Var(1),
                },
                PlanStep {
                    predicate: p1,
                    order: SortOrder::SO,
                    key: Atom::Var(1),
                    value: Atom::Var(2),
                },
            ],
            3,
            vec![0, 1, 2],
        )
        .unwrap();
        for strategy in [
            ProbeStrategy::AdaptiveIndex,
            ProbeStrategy::AdaptiveBinary,
            ProbeStrategy::AlwaysSequential,
        ] {
            for threads in [1usize, 4] {
                for morsel in [7usize, 16_384] {
                    let opts = ExecOptions {
                        threads,
                        morsel_size: morsel,
                        strategy,
                        ..ExecOptions::default()
                    };
                    let a = collect_rows(&raw, None, &plan, &opts);
                    let b = collect_rows(&zip, None, &plan, &opts);
                    assert_eq!(
                        a, b,
                        "strategy {strategy} threads {threads} morsel {morsel}"
                    );
                    assert!(!a.is_empty());
                }
            }
        }
    }

    #[test]
    fn dirty_view_rows_equal_rebuilt_store_byte_for_byte() {
        // The merged probe order must equal a compacted replica's
        // order, so the *unsorted* row stream — not just the row set —
        // matches a from-scratch rebuild at every dispatch shape.
        let (base, ov, rebuilt) = dirty_and_rebuilt();
        let teaches = pid(&base, "teaches");
        let works = pid(&base, "worksFor");
        let plan = PhysicalPlan::new(
            vec![
                PlanStep {
                    predicate: teaches,
                    order: SortOrder::SO,
                    key: Atom::Var(0),
                    value: Atom::Var(1),
                },
                PlanStep {
                    predicate: works,
                    order: SortOrder::SO,
                    key: Atom::Var(0),
                    value: Atom::Var(2),
                },
            ],
            3,
            vec![0, 1, 2],
        )
        .unwrap();
        for strategy in [ProbeStrategy::AdaptiveIndex, ProbeStrategy::AlwaysSequential] {
            for threads in [1usize, 4] {
                for morsel in [1usize, 2, 16_384] {
                    let opts = ExecOptions {
                        threads,
                        morsel_size: morsel,
                        strategy,
                        ..ExecOptions::default()
                    };
                    let dirty = collect_rows(&base, Some(&ov), &plan, &opts);
                    let clean = collect_rows(&rebuilt, None, &plan, &opts);
                    assert_eq!(
                        dirty, clean,
                        "strategy {strategy} threads {threads} morsel {morsel}"
                    );
                    assert!(!dirty.is_empty(), "join must produce rows");
                }
            }
        }
    }

    #[test]
    fn dirty_group_scan_and_existence_drivers() {
        let (base, ov, rebuilt) = dirty_and_rebuilt();
        let works = pid(&base, "worksFor");
        let teaches = pid(&base, "teaches");
        let u1 = rid(&base, "U1");
        let (profb, chem, math) = (rid(&base, "ProfB"), rid(&base, "Chem"), rid(&base, "Math"));
        // Group-scan driver on the dirtied worksFor O-S replica:
        // ?x worksFor U1 . ?x teaches ?y — U1 now includes ProfC.
        let plan = PhysicalPlan::new(
            vec![
                PlanStep {
                    predicate: works,
                    order: SortOrder::OS,
                    key: Atom::Const(u1),
                    value: Atom::Var(0),
                },
                PlanStep {
                    predicate: teaches,
                    order: SortOrder::SO,
                    key: Atom::Var(0),
                    value: Atom::Var(1),
                },
            ],
            2,
            vec![0, 1],
        )
        .unwrap();
        let opts = ExecOptions::with_threads(2);
        let dirty = collect_rows(&base, Some(&ov), &plan, &opts);
        let clean = collect_rows(&rebuilt, None, &plan, &opts);
        assert_eq!(dirty, clean);
        assert!(dirty.len() >= 2, "ProfA and ProfC both work for U1 now");

        // Existence driver: deleted pair answers absent, inserted pair
        // answers present.
        for (s, o, expect) in [(profb, chem, false), (profb, math, true)] {
            let plan = PhysicalPlan::new(
                vec![PlanStep {
                    predicate: teaches,
                    order: SortOrder::SO,
                    key: Atom::Const(s),
                    value: Atom::Const(o),
                }],
                0,
                vec![],
            )
            .unwrap();
            let thresholds = Arc::new(default_thresholds(&base));
            let (count, _) = execute_count(
                None,
                &base,
                Some(&ov),
                &Arc::new(plan),
                &ExecOptions::with_threads(1),
                &thresholds,
            )
            .expect("runs");
            assert_eq!(count > 0, expect, "existence of ({s},{o})");
        }
    }

    #[test]
    fn example_32_constant_driver_group_scan() {
        // ?x worksFor U2 . ?x teaches ?z — driver is the U2 group of the
        // O-S replica (Example 3.2).
        let s = store();
        let teaches = pid(&s, "teaches");
        let works = pid(&s, "worksFor");
        let u2 = rid(&s, "U2");
        check_plan_against_oracle(
            &s,
            vec![
                PlanStep {
                    predicate: works,
                    order: SortOrder::OS,
                    key: Atom::Const(u2),
                    value: Atom::Var(0),
                },
                PlanStep {
                    predicate: teaches,
                    order: SortOrder::SO,
                    key: Atom::Var(0),
                    value: Atom::Var(1),
                },
            ],
            2,
            &[
                (Atom::Var(0), works, Atom::Const(u2)),
                (Atom::Var(0), teaches, Atom::Var(1)),
            ],
        );
    }

    #[test]
    fn example_41_three_step_chain() {
        // ?x teaches ?z . ?z takenBy... modeled as: ?s advisor ?p .
        // ?p teaches ?c . ?s takes ?c  (triangle: students taking a
        // course their advisor teaches).
        let s = store();
        let advisor = pid(&s, "advisor");
        let teaches = pid(&s, "teaches");
        let takes = pid(&s, "takes");
        check_plan_against_oracle(
            &s,
            vec![
                PlanStep {
                    predicate: advisor,
                    order: SortOrder::SO,
                    key: Atom::Var(0),
                    value: Atom::Var(1),
                },
                PlanStep {
                    predicate: teaches,
                    order: SortOrder::SO,
                    key: Atom::Var(1),
                    value: Atom::Var(2),
                },
                PlanStep {
                    predicate: takes,
                    order: SortOrder::SO,
                    key: Atom::Var(0),
                    value: Atom::Var(2),
                },
            ],
            3,
            &[
                (Atom::Var(0), advisor, Atom::Var(1)),
                (Atom::Var(1), teaches, Atom::Var(2)),
                (Atom::Var(0), takes, Atom::Var(2)),
            ],
        );
    }

    #[test]
    fn object_object_join_via_os_replica() {
        // ?a teaches ?c . ?s takes ?c : object-object join; second step
        // keyed on the object via the O-S replica.
        let s = store();
        let teaches = pid(&s, "teaches");
        let takes = pid(&s, "takes");
        check_plan_against_oracle(
            &s,
            vec![
                PlanStep {
                    predicate: teaches,
                    order: SortOrder::SO,
                    key: Atom::Var(0),
                    value: Atom::Var(1),
                },
                PlanStep {
                    predicate: takes,
                    order: SortOrder::OS,
                    key: Atom::Var(1),
                    value: Atom::Var(2),
                },
            ],
            3,
            &[
                (Atom::Var(0), teaches, Atom::Var(1)),
                (Atom::Var(2), takes, Atom::Var(1)),
            ],
        );
    }

    #[test]
    fn existence_driver() {
        let s = store();
        let works = pid(&s, "worksFor");
        let (pa, u1) = (rid(&s, "ProfA"), rid(&s, "U1"));
        let plan = PhysicalPlan::new(
            vec![PlanStep {
                predicate: works,
                order: SortOrder::SO,
                key: Atom::Const(pa),
                value: Atom::Const(u1),
            }],
            0,
            vec![],
        )
        .unwrap();
        let (count, _) = run_count(&s, &plan, &ExecOptions::with_threads(4)).expect("runs");
        assert_eq!(count, 1);
        // Absent triple.
        let u2 = rid(&s, "U2");
        let plan = PhysicalPlan::new(
            vec![PlanStep {
                predicate: works,
                order: SortOrder::SO,
                key: Atom::Const(pa),
                value: Atom::Const(u2),
            }],
            0,
            vec![],
        )
        .unwrap();
        let (count, _) = run_count(&s, &plan, &ExecOptions::default()).expect("runs");
        assert_eq!(count, 0);
    }

    #[test]
    fn missing_predicate_partition_yields_empty() {
        let s = store();
        let plan = PhysicalPlan::new(
            vec![PlanStep {
                predicate: 999,
                order: SortOrder::SO,
                key: Atom::Var(0),
                value: Atom::Var(1),
            }],
            2,
            vec![0, 1],
        )
        .unwrap();
        let (count, _) = run_count(&s, &plan, &ExecOptions::default()).expect("runs");
        assert_eq!(count, 0);
    }

    #[test]
    fn stats_are_collected() {
        let s = store();
        let teaches = pid(&s, "teaches");
        let works = pid(&s, "worksFor");
        let plan = PhysicalPlan::new(
            vec![
                PlanStep {
                    predicate: teaches,
                    order: SortOrder::SO,
                    key: Atom::Var(0),
                    value: Atom::Var(1),
                },
                PlanStep {
                    predicate: works,
                    order: SortOrder::SO,
                    key: Atom::Var(0),
                    value: Atom::Var(2),
                },
            ],
            3,
            vec![0],
        )
        .unwrap();
        let opts = ExecOptions {
            strategy: ProbeStrategy::AlwaysBinary,
            ..Default::default()
        };
        let (_, stats) = run_count(&s, &plan, &opts).expect("runs");
        // 4 teaches tuples → 4 probes of worksFor.
        assert_eq!(stats.binary_searches, 4);
        assert_eq!(stats.sequential_searches, 0);
        let opts = ExecOptions {
            strategy: ProbeStrategy::AlwaysSequential,
            ..Default::default()
        };
        let (_, stats) = run_count(&s, &plan, &opts).expect("runs");
        assert_eq!(stats.sequential_searches, 4);
        assert_eq!(stats.binary_searches, 0);
    }

    #[test]
    fn many_threads_on_tiny_domain() {
        // More threads than driver keys: no worker may panic or
        // double-count.
        let s = store();
        let teaches = pid(&s, "teaches");
        let plan = PhysicalPlan::new(
            vec![PlanStep {
                predicate: teaches,
                order: SortOrder::SO,
                key: Atom::Var(0),
                value: Atom::Var(1),
            }],
            2,
            vec![0, 1],
        )
        .unwrap();
        let (count, _) = run_count(
            &s,
            &plan,
            &ExecOptions {
                threads: 16,
                morsel_size: 1,
                ..ExecOptions::default()
            },
        )
        .expect("runs");
        assert_eq!(count, 4);
    }

    #[test]
    fn constant_key_probe_step() {
        // Second step keyed on a constant: probed once per input tuple;
        // the cursor makes repeats cheap (sequential hit distance 0).
        let s = store();
        let teaches = pid(&s, "teaches");
        let works = pid(&s, "worksFor");
        let u2 = rid(&s, "U2");
        // ?x teaches ?c . ?x worksFor U2 — but written with the O-S
        // replica probed by Const(u2) each time and ?x as a value check.
        let plan = PhysicalPlan::new(
            vec![
                PlanStep {
                    predicate: teaches,
                    order: SortOrder::SO,
                    key: Atom::Var(0),
                    value: Atom::Var(1),
                },
                PlanStep {
                    predicate: works,
                    order: SortOrder::OS,
                    key: Atom::Const(u2),
                    value: Atom::Var(0),
                },
            ],
            2,
            vec![0, 1],
        )
        .unwrap();
        let (count, stats) = run_count(&s, &plan, &ExecOptions::default()).expect("runs");
        assert_eq!(count, 2); // ProfB/Chem, ProfC/Lit
        // 4 driver tuples → 4 probes of the constant key.
        assert_eq!(stats.total_searches(), 4);
    }

    /// Sink that panics on the first row it sees.
    #[derive(Debug)]
    struct PanicSink;

    impl Sink for PanicSink {
        fn push(&mut self, _row: &[Id]) {
            panic!("sink exploded");
        }
    }

    fn teaches_plan(s: &TripleStore) -> Arc<PhysicalPlan> {
        let teaches = pid(s, "teaches");
        let plan = PhysicalPlan::new(
            vec![PlanStep {
                predicate: teaches,
                order: SortOrder::SO,
                key: Atom::Var(0),
                value: Atom::Var(1),
            }],
            2,
            vec![0, 1],
        )
        .unwrap();
        Arc::new(plan)
    }

    #[test]
    fn panicking_sink_is_contained() {
        let s = store();
        let plan = teaches_plan(&s);
        for threads in [1, 4] {
            let opts = ExecOptions::with_threads(threads);
            let thresholds = Arc::new(default_thresholds(&s));
            let err = execute(None, &s, None, &plan, &opts, &thresholds, || PanicSink)
                .expect_err("sink panic must surface as an error");
            match &err.kind {
                ExecFailureKind::WorkerPanicked { message } => {
                    assert!(message.contains("sink exploded"), "got {message:?}");
                }
                other => panic!("expected WorkerPanicked, got {other:?}"),
            }
        }
        // The store is read-only during execution: it stays usable.
        let (count, _) = run_count(&s, &plan, &ExecOptions::with_threads(4)).expect("runs");
        assert_eq!(count, 4);
    }

    #[test]
    fn pre_cancelled_guard_stops_immediately() {
        let s = store();
        let plan = teaches_plan(&s);
        let guard = Arc::new(QueryGuard::unlimited());
        guard.cancel();
        let opts = ExecOptions {
            guard: Some(Arc::clone(&guard)),
            ..ExecOptions::with_threads(2)
        };
        let err = run_count(&s, &plan, &opts).expect_err("cancelled before start");
        assert_eq!(err.kind, ExecFailureKind::Cancelled);
        assert_eq!(err.rows, 0);
    }

    #[test]
    fn row_budget_enforced_even_below_poll_batch() {
        // The query yields 4 rows — far under GUARD_BATCH — so the
        // budget can only be caught by the worker-exit check.
        let s = store();
        let plan = teaches_plan(&s);
        let guard = Arc::new(QueryGuard::with_limits(None, Some(2)));
        let opts = ExecOptions {
            guard: Some(guard),
            ..ExecOptions::default()
        };
        let err = run_count(&s, &plan, &opts).expect_err("budget of 2 rows");
        match err.kind {
            ExecFailureKind::BudgetExceeded { rows } => assert_eq!(rows, 4),
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_stops_before_work() {
        let s = store();
        let plan = teaches_plan(&s);
        let guard = Arc::new(QueryGuard::with_limits(
            Some(std::time::Duration::ZERO),
            None,
        ));
        std::thread::sleep(std::time::Duration::from_millis(2));
        let opts = ExecOptions {
            guard: Some(guard),
            ..ExecOptions::with_threads(2)
        };
        let err = run_count(&s, &plan, &opts).expect_err("deadline already passed");
        assert!(
            matches!(err.kind, ExecFailureKind::DeadlineExceeded { .. }),
            "got {:?}",
            err.kind
        );
    }

    #[test]
    fn completed_query_beats_late_cancel() {
        // Cancelling after the run finished must not matter for the
        // next run with a fresh guard.
        let s = store();
        let plan = teaches_plan(&s);
        let guard = Arc::new(QueryGuard::unlimited());
        let opts = ExecOptions {
            guard: Some(Arc::clone(&guard)),
            ..ExecOptions::default()
        };
        let (count, _) = run_count(&s, &plan, &opts).expect("runs");
        assert_eq!(count, 4);
        guard.cancel();
        let opts = ExecOptions::default();
        let (count, _) = run_count(&s, &plan, &opts).expect("fresh guard unaffected");
        assert_eq!(count, 4);
    }

    #[test]
    fn builder_validates_sizes() {
        assert_eq!(
            ExecOptions::builder().threads(0).build().unwrap_err(),
            ExecOptionsError::ZeroThreads
        );
        assert_eq!(
            ExecOptions::builder().morsel_size(0).build().unwrap_err(),
            ExecOptionsError::ZeroMorselSize
        );
        let opts = ExecOptions::builder()
            .threads(3)
            .morsel_size(2)
            .strategy(ProbeStrategy::AlwaysBinary)
            .build()
            .expect("valid");
        assert_eq!(opts.threads, 3);
        assert_eq!(opts.morsel_size, 2);
        assert_eq!(opts.strategy, ProbeStrategy::AlwaysBinary);
    }

    proptest::proptest! {
        /// The derived grid stays inside `[min(MIN, cap), cap]`, equals
        /// the cap with one participant, and gives every participant at
        /// least `MORSELS_PER_PARTICIPANT` morsels once the domain is
        /// large enough to allow it without going under the floor. (The
        /// size rounds up, so beyond 32 participants — a target above
        /// `MIN_MORSEL_KEYS` — the domain must also reach target² keys.)
        #[test]
        fn grid_size_bounds(
            domain in 0usize..5_000_000,
            participants in 1usize..64,
            cap in 1usize..100_000,
        ) {
            let size = grid_size(domain, participants, cap);
            proptest::prop_assert!(size <= cap);
            proptest::prop_assert!(size >= MIN_MORSEL_KEYS.min(cap));
            proptest::prop_assert_eq!(grid_size(domain, 1, cap), cap);
            let target = participants * MORSELS_PER_PARTICIPANT;
            if domain >= target * MIN_MORSEL_KEYS.max(target) {
                proptest::prop_assert!(domain.div_ceil(size) >= target);
            }
        }
    }

    /// `driver_keys` subjects, each with one `p` edge to one of 37
    /// targets: a key-scan driver of exactly `driver_keys` keys.
    fn scan_store(driver_keys: u32) -> (Arc<TripleStore>, Arc<PhysicalPlan>) {
        let mut b = StoreBuilder::new();
        for i in 0..driver_keys {
            b.add_term_triple(
                &Term::iri(format!("s{i}")),
                &Term::iri("p"),
                &Term::iri(format!("t{}", i % 37)),
            );
        }
        let store = b.build();
        let plan = PhysicalPlan::new(
            vec![PlanStep {
                predicate: pid(&store, "p"),
                order: SortOrder::SO,
                key: Atom::Var(0),
                value: Atom::Var(1),
            }],
            2,
            vec![0, 1],
        )
        .unwrap();
        (Arc::new(store), Arc::new(plan))
    }

    #[test]
    fn small_driver_spreads_over_the_pool() {
        // A ~5 000-key driver sits far below the 16 384-key cap. Cut at
        // the cap it was one morsel on the submitting thread; the
        // derived grid gives both participants several morsels.
        let (store, plan) = scan_store(5_000);
        let pool = WorkerPool::new(1);
        let rec = Arc::new(CaptureRecorder::default());
        let opts = ExecOptions {
            threads: 2,
            recorder: Some(Arc::clone(&rec) as Arc<dyn Recorder>),
            ..ExecOptions::default()
        };
        let rows = collect_pooled(&pool, &store, &plan, &opts).expect("pooled runs");
        assert_eq!(rows.len(), 2 * 5_000);
        assert!(pool.stats().jobs > 0, "the run must go through the pool");
        let seen = rec.seen.lock().unwrap();
        assert!(seen[0].5 >= 4, "{} morsels", seen[0].5);
        assert_eq!(seen[0].6, 5_000usize.div_ceil(16), "keys per morsel");
    }

    #[test]
    fn morsel_loads_match_the_executed_grid() {
        // The diagnostic grid is the grid that runs, at one participant
        // (the cap) and at two (derived), on a per-call pool and on an
        // engine-owned one.
        let (store, plan) = scan_store(3_000);
        let thresholds = Arc::new(default_thresholds(&store));
        let pool = WorkerPool::new(1);
        for threads in [1usize, 2] {
            let opts = ExecOptions {
                threads,
                morsel_size: 1_000,
                ..ExecOptions::default()
            };
            let loads = morsel_loads(&store, None, &plan, &opts, &thresholds).expect("valid");
            for pooled in [false, true] {
                let rec = Arc::new(CaptureRecorder::default());
                let opts = ExecOptions {
                    recorder: Some(Arc::clone(&rec) as Arc<dyn Recorder>),
                    ..opts.clone()
                };
                let pool = pooled.then_some(&pool);
                execute_count(pool, &store, None, &plan, &opts, &thresholds).expect("runs");
                let morsels = rec.seen.lock().unwrap()[0].5;
                assert_eq!(loads.len() as u64, morsels, "threads {threads} pooled {pooled}");
            }
            assert_eq!(loads.len(), if threads == 1 { 3 } else { 12 });
        }
    }

    /// Owned copy of an [`ExecRecord`]: (result_rows, step_rows,
    /// step_search, total_search, worker_units, morsels, morsel_size,
    /// participants).
    type OwnedRecord = (
        u64,
        Vec<u64>,
        Vec<SearchStats>,
        SearchStats,
        Vec<u64>,
        u64,
        usize,
        u64,
    );

    /// Captures the one record an execution emits, as owned data.
    #[derive(Default)]
    struct CaptureRecorder {
        seen: std::sync::Mutex<Vec<OwnedRecord>>,
    }

    impl Recorder for CaptureRecorder {
        fn record_exec(&self, r: &ExecRecord<'_>) {
            self.seen.lock().unwrap().push((
                r.result_rows,
                r.step_rows.to_vec(),
                r.step_search.to_vec(),
                r.total_search,
                r.worker_units.to_vec(),
                r.morsels,
                r.morsel_size,
                r.participants,
            ));
        }
    }

    #[test]
    fn recorder_sees_aggregated_internals() {
        // ?x teaches ?c . ?x worksFor ?u — 4 driver tuples, 3 results.
        let s = store();
        let teaches = pid(&s, "teaches");
        let works = pid(&s, "worksFor");
        let plan = PhysicalPlan::new(
            vec![
                PlanStep {
                    predicate: teaches,
                    order: SortOrder::SO,
                    key: Atom::Var(0),
                    value: Atom::Var(1),
                },
                PlanStep {
                    predicate: works,
                    order: SortOrder::SO,
                    key: Atom::Var(0),
                    value: Atom::Var(2),
                },
            ],
            3,
            vec![0, 1, 2],
        )
        .unwrap();
        // With morsel_size 1 each distinct driver key is one morsel.
        let domain = s.replica(teaches, SortOrder::SO).unwrap().num_keys();
        for threads in [1usize, 4] {
            let rec = Arc::new(CaptureRecorder::default());
            let opts = ExecOptions::builder()
                .threads(threads)
                .morsel_size(1)
                .recorder(Some(Arc::clone(&rec) as Arc<dyn Recorder>))
                .build()
                .unwrap();
            let (count, total) = run_count(&s, &plan, &opts).expect("runs");
            assert_eq!(count, 4);
            let seen = rec.seen.lock().unwrap();
            assert_eq!(seen.len(), 1, "exactly one record per execution");
            let (rows, step_rows, step_search, rec_total, units, morsels, size, active) =
                &seen[0];
            assert_eq!(*rows, 4);
            // One probe step: step_rows = [driver tuples, results].
            assert_eq!(step_rows, &vec![4, 4]);
            assert_eq!(step_search.len(), 1);
            assert_eq!(*rec_total, total);
            // One unit entry per participant: the caller, plus the pool
            // helpers that joined before the cursor drained — never more
            // than the morsel count.
            assert!(
                !units.is_empty() && units.len() <= threads.min(domain),
                "{} unit entries",
                units.len()
            );
            assert_eq!(
                *morsels, domain as u64,
                "every in-domain morsel executed exactly once"
            );
            assert_eq!(*size, 1);
            assert!(*active >= 1 && *active <= units.len() as u64);
            let unit_sum: u64 = units.iter().sum();
            assert_eq!(unit_sum, 4 + total.words_touched());
        }
    }

    #[test]
    fn recorder_fires_on_failed_runs_too() {
        let s = store();
        let plan = teaches_plan(&s);
        let rec = Arc::new(CaptureRecorder::default());
        let guard = Arc::new(QueryGuard::with_limits(None, Some(2)));
        let opts = ExecOptions::builder()
            .guard(Some(guard))
            .recorder(Some(Arc::clone(&rec) as Arc<dyn Recorder>))
            .build()
            .unwrap();
        run_count(&s, &plan, &opts).expect_err("budget of 2 rows");
        assert_eq!(rec.seen.lock().unwrap().len(), 1);
    }

    #[test]
    fn zero_arity_count() {
        // Projection empty but variables exist: every match counts.
        let s = store();
        let teaches = pid(&s, "teaches");
        let plan = PhysicalPlan::new(
            vec![PlanStep {
                predicate: teaches,
                order: SortOrder::SO,
                key: Atom::Var(0),
                value: Atom::Var(1),
            }],
            2,
            vec![],
        )
        .unwrap();
        let (count, _) = run_count(&s, &plan, &ExecOptions::default()).expect("runs");
        assert_eq!(count, 4);
    }

    /// Runs `plan` on `pool` with collect sinks and flattens the
    /// morsel-ordered sinks into one row vector.
    fn collect_pooled(
        pool: &WorkerPool,
        store: &Arc<TripleStore>,
        plan: &Arc<PhysicalPlan>,
        opts: &ExecOptions,
    ) -> ExecResult<Vec<Id>> {
        let thresholds = Arc::new(default_thresholds(store));
        let (sinks, _) =
            execute(Some(pool), store, None, plan, opts, &thresholds, CollectSink::default)?;
        let mut flat = Vec::new();
        for s in &sinks {
            flat.extend_from_slice(&s.data);
        }
        Ok(flat)
    }

    #[test]
    fn pooled_matches_inline_byte_identical() {
        // The same query on one participant (inline on the caller), on
        // an engine-owned pool and on a per-call pool must produce
        // identical flattened rows — the morsel-order merge makes every
        // run equal to the inline one.
        let s = store();
        let teaches = pid(&s, "teaches");
        let works = pid(&s, "worksFor");
        let plan = Arc::new(
            PhysicalPlan::new(
                vec![
                    PlanStep {
                        predicate: teaches,
                        order: SortOrder::SO,
                        key: Atom::Var(0),
                        value: Atom::Var(1),
                    },
                    PlanStep {
                        predicate: works,
                        order: SortOrder::SO,
                        key: Atom::Var(0),
                        value: Atom::Var(2),
                    },
                ],
                3,
                vec![0, 1, 2],
            )
            .unwrap(),
        );
        let pool = WorkerPool::new(3);
        let inline = collect_pooled(&pool, &s, &plan, &ExecOptions::default()).expect("inline");
        assert_eq!(pool.stats().jobs, 0, "a one-participant run touches no pool");
        for threads in [1usize, 2, 4, 9] {
            for morsel_size in [1usize, 2, 16384] {
                let opts = ExecOptions {
                    threads,
                    morsel_size,
                    ..ExecOptions::default()
                };
                let pooled = collect_pooled(&pool, &s, &plan, &opts).expect("pooled runs");
                assert_eq!(
                    pooled, inline,
                    "pooled vs inline diverged at threads {threads} morsel {morsel_size}"
                );
                let per_call = collect_rows(&s, None, &plan, &opts).concat();
                assert_eq!(
                    per_call, inline,
                    "per-call pool vs inline diverged at threads {threads} morsel {morsel_size}"
                );
            }
        }
        assert!(pool.stats().jobs > 0, "multi-morsel runs must use the pool");
    }

    #[test]
    fn pooled_panic_fails_only_owner_and_pool_survives() {
        // Satellite regression: a panicking query on the pool surfaces
        // as WorkerPanicked, the worker returns to service, and 100
        // subsequent queries on the same pool succeed with no thread
        // growth or loss.
        let s = store();
        let plan = teaches_plan(&s);
        let pool = WorkerPool::new(2);
        let workers_before = pool.workers();
        let thresholds = Arc::new(default_thresholds(&s));
        // morsel_size 1 → multiple morsels → helpers requested → the
        // panic happens inside pool workers, not only the submitter.
        let opts = ExecOptions {
            threads: 3,
            morsel_size: 1,
            ..ExecOptions::default()
        };
        let err = execute(Some(&pool), &s, None, &plan, &opts, &thresholds, || PanicSink)
            .expect_err("sink panic must surface as an error");
        match &err.kind {
            ExecFailureKind::WorkerPanicked { message } => {
                assert!(message.contains("sink exploded"), "got {message:?}");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        for _ in 0..100 {
            let rows = collect_pooled(&pool, &s, &plan, &opts).expect("pool still serves");
            assert_eq!(rows.len(), 8, "4 rows × arity 2");
        }
        assert_eq!(pool.workers(), workers_before, "no pool thread leak");
    }

    #[test]
    fn pooled_guard_paths_match_inline() {
        // Early-exit paths classify the same inline and through the
        // pool: the same failure kind, no hang, and the pool stays
        // usable.
        let s = store();
        let plan = teaches_plan(&s);
        let pool = WorkerPool::new(2);
        for threads in [1usize, 3] {
            let opts = |guard: Arc<QueryGuard>| ExecOptions {
                threads,
                morsel_size: 1,
                guard: Some(guard),
                ..ExecOptions::default()
            };

            let cancelled = Arc::new(QueryGuard::unlimited());
            cancelled.cancel();
            let err = collect_pooled(&pool, &s, &plan, &opts(cancelled)).expect_err("cancelled");
            assert_eq!(err.kind, ExecFailureKind::Cancelled, "threads {threads}");

            let budget = Arc::new(QueryGuard::with_limits(None, Some(2)));
            let err = collect_pooled(&pool, &s, &plan, &opts(budget)).expect_err("over budget");
            assert!(
                matches!(err.kind, ExecFailureKind::BudgetExceeded { .. }),
                "threads {threads}: expected BudgetExceeded, got {:?}",
                err.kind
            );

            let fine = Arc::new(QueryGuard::unlimited());
            let rows = collect_pooled(&pool, &s, &plan, &opts(fine)).expect("pool still serves");
            assert_eq!(rows.len(), 8);
        }
    }
}

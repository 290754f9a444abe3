//! # parj-join — the PARJ adaptive join and parallel executor
//!
//! This crate is the paper's primary contribution (Bilidas & Koubarakis,
//! EDBT 2019, §3–4): pipelined left-deep joins over the vertically
//! partitioned store of `parj-store`, where every probe of a replica's
//! sorted keys array **adaptively** chooses between
//!
//! * **sequential search** continuing from a per-(worker, step) cursor —
//!   merge-join-like behaviour that exploits the full *or partial*
//!   ordering RDF data exhibits (Example 4.1 of the paper), and
//! * **binary search** over the whole array (or an **ID-to-Position
//!   lookup**, §4.2) — index-nested-loop behaviour for selective probes,
//!
//! using Algorithm 1: one subtraction and one comparison of the *value
//! distance* `|arr[cursor] − value|` against a per-replica threshold.
//! The thresholds come from the calibration micro-benchmark of
//! Algorithm 2 ([`calibrate`]).
//!
//! Parallelism follows §3: the driver relation of the left-deep plan (or
//! the value vector of a constant key, Example 3.2) is split into
//! **morsels**; workers draw morsel indexes from one atomic cursor and
//! run the **entire pipeline** on read-only shared data — no exchange,
//! no rehashing, no synchronization, no graph partitioning. [`execute`]
//! is the one entry point, over a store plus an optional delta overlay:
//! a run with one participant executes inline on the caller, a larger
//! one on a [`WorkerPool`] (the engine's persistent pool, or one made
//! for the call). Per-morsel sinks merge in morsel order, so results
//! are byte-identical regardless of thread count, morsel size, or
//! interleaving. [`execute_count`] and [`execute_collect`] are sink
//! wrappers over it.
//!
//! ```
//! use std::sync::Arc;
//! use parj_dict::Term;
//! use parj_store::{SortOrder, StoreBuilder};
//! use parj_join::{
//!     default_thresholds, execute_count, Atom, ExecOptions, PhysicalPlan, PlanStep,
//! };
//!
//! // ?x teaches ?z . ?x worksFor ?y   (Example 3.1 of the paper)
//! let mut b = StoreBuilder::new();
//! for (s, p, o) in [("A", "teaches", "Math"), ("B", "teaches", "Chem"),
//!                   ("A", "worksFor", "U1"), ("B", "worksFor", "U2")] {
//!     b.add_term_triple(&Term::iri(s), &Term::iri(p), &Term::iri(o));
//! }
//! let store = Arc::new(b.build());
//! let teaches = store.dict().predicate_id(&Term::iri("teaches")).unwrap();
//! let works_for = store.dict().predicate_id(&Term::iri("worksFor")).unwrap();
//! let plan = Arc::new(PhysicalPlan::new(
//!     vec![
//!         PlanStep { predicate: teaches, order: SortOrder::SO,
//!                    key: Atom::Var(0), value: Atom::Var(2) },
//!         PlanStep { predicate: works_for, order: SortOrder::SO,
//!                    key: Atom::Var(0), value: Atom::Var(1) },
//!     ],
//!     3,
//!     vec![0, 1, 2],
//! ).unwrap());
//! let thresholds = Arc::new(default_thresholds(&store));
//! // No pool and no delta overlay: a one-thread run executes inline.
//! let (count, _stats) =
//!     execute_count(None, &store, None, &plan, &ExecOptions::default(), &thresholds).unwrap();
//! assert_eq!(count, 2);
//! ```
//!
//! ## Query lifecycle
//!
//! Every execution can carry a [`QueryGuard`] ([`ExecOptions::guard`])
//! enforcing cooperative cancellation, a wall-clock deadline, and a
//! result-row budget; workers poll it every [`GUARD_BATCH`] bindings.
//! Worker panics are contained with `catch_unwind` and surface as
//! [`ExecFailureKind::WorkerPanicked`] instead of aborting the process.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calibrate;
mod exec;
mod guard;
mod plan;
mod pool;
mod rows;
mod search;
mod stats;
mod threshold;

pub use calibrate::{calibrate, CalibrationConfig, CalibrationResult};
pub use exec::{
    default_thresholds, execute, execute_collect, execute_count, morsel_loads, CollectSink,
    CountSink, ExecFailure, ExecFailureKind, ExecOptions, ExecOptionsBuilder, ExecOptionsError,
    ExecRecord, ExecResult, FnSink, Recorder, Sink, DEFAULT_MORSEL_SIZE,
};
pub use pool::{Participant, PoolStats, WorkerPool};
pub use guard::{CancelToken, GuardTrip, QueryGuard, GUARD_BATCH};
pub use plan::{Atom, PhysicalPlan, PlanError, PlanStep, VarId};
pub use rows::RowBatch;
pub use search::{adaptive_search, binary_search_cursor, sequential_search, ProbeStrategy};
pub use stats::SearchStats;
pub use threshold::{ReplicaThresholds, ThresholdTable};

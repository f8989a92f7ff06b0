//! # dta-sim — end-to-end scenario harness
//!
//! The paper pitches DTA at data-center scale: "in a K = 28 fat tree"
//! thousands of reporters stream telemetry toward translator-equipped ToRs
//! (§2). This crate turns that deployment into a single declarative value:
//! a [`ScenarioSpec`] names the fabric (`fat_tree_k`), the reporter fleet
//! and its traffic blend ([`TrafficMix`]), the per-link-class fault model
//! ([`FaultPlan`] — loss, reorder, duplication), the translator pipeline
//! ([`TranslatorMode`] — single-threaded over simulated RoCE, or the
//! sharded multi-threaded pipeline writing collector memory directly), and
//! one RNG seed. [`run_scenario`] assembles the deployment, drives it to
//! completion on the simulated clock, and returns a [`ScenarioReport`]
//! (per-primitive send counts, fabric/fault/link statistics, translator
//! and collector counters, a post-run query audit) plus the collector's
//! raw memory.
//!
//! Two properties make the harness useful as a *test* substrate rather
//! than just a demo:
//!
//! * **Bit-reproducibility** — the same spec yields the same report and
//!   the same collector bytes, every run. No wall clock, no OS entropy, no
//!   iteration-order dependence; the sharded pipeline's scheduling-
//!   dependent counters are excluded from the report by construction. In
//!   sharded mode, byte-level memory determinism additionally requires
//!   [`TrafficMix::slot_disjoint_keys`] (colliding-slot writes from
//!   different shards race by thread timing; single-threaded runs are
//!   unconditional).
//! * **Fault equivalence** — with [`TrafficMix::slot_disjoint_keys`] set,
//!   the final collector memory under a fault schedule is byte-identical
//!   between the single-threaded and N-shard translators, because both see
//!   the same delivered report sequence and sharding preserves per-key
//!   order (see `tests/scenario_suite.rs`).
//!
//! See `DESIGN.md` ("Scenario harness") for the determinism rules and how
//! to add a scenario.

pub mod corpus;
pub mod query;
pub mod scenario;
pub mod spec;
pub mod traffic;

pub use corpus::{
    load_dir, load_file, load_str, mode_label, parse_mode_label, parse_str, render_spec, Axis,
    Cell, CorpusDoc, Invariant, InvariantSet, ParseError,
};

pub use query::{CollectorReaders, LatencyHistogram, QueryService, QueryStats};
pub use scenario::{
    memory_fingerprint, run_scenario, QueryOutcomes, ScenarioOutcome, ScenarioReport,
    COLLECTOR_IP, TRANSLATOR_IP,
};
pub use spec::{
    CollectorFaultPlan, CollectorPlan, CongestionPlan, FaultPlan, QueryMix, QueryPlan,
    RebalancePlan, ScenarioSpec, TrafficMix, TranslatorMode, MAX_LANES_PER_HOST,
};
pub use traffic::{generate, PrimitiveCounts, Workload};

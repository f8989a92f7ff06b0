//! The DTA translator — the paper's core contribution.
//!
//! The translator is the collector's last-hop (ToR) switch. It intercepts
//! DTA reports addressed to the collector, and converts them into standard
//! RoCEv2 operations against the collector's registered memory, "completely
//! substituting the DTA headers with the specific RoCEv2 headers required by
//! the DTA operation" (§5.2). Along the way it:
//!
//! * emits the `N` redundant copies for Key-Write / Key-Increment /
//!   Postcarding (the switch's multicast engine: here a loop over the
//!   replica id),
//! * aggregates per-flow postcards in an SRAM cache so a 5-hop path costs a
//!   single RDMA WRITE ([`postcard_cache`]),
//! * batches Append entries so one WRITE carries `B` reports ([`append`]),
//! * rate-limits RDMA generation toward congested collectors, optionally
//!   NACKing reporters ([`ratelimit`]),
//! * and keeps per-QP packet sequence numbers, resynchronizing after NAKs.
//!
//! (Its Tofino resource footprint, Table 3, is an analytic table:
//! `dta_analysis::resources`.)
//!
//! The single-threaded dataplane lives in [`translator`]; [`shard`] runs
//! `N` of them as a key-partitioned multi-threaded pipeline (the software
//! analogue of the Tofino's parallel pipes), with [`spsc`] providing the
//! bounded ingest→shard report queues.

// Lint floor (enforced by `dta-lint` + clippy -D warnings, see DESIGN.md
// "Static analysis"): unsafe operations must be explicitly scoped even
// inside unsafe fns, and every public type must be debuggable.
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_debug_implementations)]

pub mod append;
pub mod failover;
pub mod fleet_query;
mod link;
mod outstanding;
pub mod node;
pub mod partition;
pub mod postcard_cache;
pub mod ratelimit;
mod rebalance;
pub mod shard;
pub mod spsc;
pub mod translator;

pub use append::AppendBatcher;
pub use failover::{
    CollectorRoutingTable, FailoverStats, FleetAdmin, FleetConfig, FleetEvent, FleetNode,
    FleetRunReport,
};
pub use fleet_query::FleetQueryEngine;
pub use link::LinkKind;
pub use partition::Partitioner;
pub use postcard_cache::{CacheEmission, PostcardCache};
pub use ratelimit::{RateLimiter, RateLimiterConfig};
pub use rebalance::{RebalanceConfig, RebalanceStats};
pub use shard::{
    NackRecord, ReportOrigin, ShardRunReport, ShardedConfig, ShardedRunReport, ShardedTranslator,
};
pub use translator::{Translator, TranslatorConfig, TranslatorOutput, TranslatorStats};

//! The DTA collector.
//!
//! The collector is "1.3K lines of C++ using standard Infiniband RDMA
//! libraries, with support for per-primitive memory structures and querying
//! the reported telemetry data" (§5.3). This crate is its Rust counterpart,
//! hosted on the simulated RDMA NIC of `dta-rdma`:
//!
//! * [`layout`] — the shared memory geometry: how keys map to slot virtual
//!   addresses for each primitive. The translator (writer) and the collector
//!   (reader) compute addresses with these same functions, statelessly,
//!   through global hash functions — the core trick that makes the stores
//!   write-only.
//! * [`keywrite`] — the N-redundant checksummed key-value store
//!   (Algorithm 1 & 2, analysed in Appendix A.5).
//! * [`postcarding`] — the chunked XOR-encoded postcard store (§4,
//!   Appendix A.6).
//! * [`append`] — ring-buffer lists and the polling reader (Algorithm 3 & 4).
//! * [`cms`] — the Key-Increment count-min store (Algorithm 5 & 6).
//! * [`service`] — glues the stores to the RDMA NIC: region registration,
//!   CM publishing, and an ingress loop.
//! * [`engine`] — the unified [`engine::QueryEngine`] read API over all
//!   four primitives, serving either live regions or pooled snapshot
//!   images through one dispatch path.

// Lint floor (enforced by `dta-lint` + clippy -D warnings, see DESIGN.md
// "Static analysis"): unsafe operations must be explicitly scoped even
// inside unsafe fns, and every public type must be debuggable.
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_debug_implementations)]

pub mod append;
pub mod cms;
pub mod engine;
pub mod keywrite;
pub mod layout;
pub mod node;
pub mod postcarding;
pub mod service;

pub use append::AppendReader;
pub use cms::KeyIncrementStore;
pub use engine::{
    QueryEngine, QueryRequest, QueryResponse, QueryResult, SlotSource, SnapshotQueryEngine,
    SnapshotView, StoreQueryEngine,
};
pub use keywrite::{KeyWriteStore, QueryOutcome, QueryPolicy};
pub use layout::{AppendLayout, CmsLayout, KwLayout, PostcardLayout};
pub use node::{CollectorNode, CollectorNodeStats};
pub use postcarding::{
    hop_checksum, hop_checksums, PostcardQueryOutcome, PostcardStore, ValueCodec,
};
pub use service::{CollectorService, ServiceConfig, SERVICE_APPEND, SERVICE_CMS, SERVICE_KW, SERVICE_POSTCARD};

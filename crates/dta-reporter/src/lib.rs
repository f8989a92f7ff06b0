//! The DTA reporter — the switch-side export path.
//!
//! "DTA reports are generated entirely in the data plane and the logic is in
//! charge of encapsulating the telemetry report into a UDP packet followed
//! by the two DTA-specific headers" (§5.1). The reporter is deliberately
//! dumb: no RDMA state, no redundancy generation — that is the whole point
//! of goal #4 (minimal switch resources).
//!
//! * [`reporter`] — packet crafting: telemetry payload → DTA/UDP frame.
//!
//! (The Figure 9 footprint comparison — DTA vs RDMA-generating vs plain-UDP
//! reporters — is an analytic table: `dta_analysis::resources`.)

pub mod reporter;

pub use reporter::{
    Reporter, ReporterConfig, ReporterFleetNode, RetransmitPolicy, RetxStats,
};

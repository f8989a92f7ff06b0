//! # dta — Direct Telemetry Access in Rust
//!
//! A from-scratch reproduction of *Direct Telemetry Access* (SIGCOMM 2023):
//! a telemetry collection system that moves hundreds of millions of switch
//! reports per second into queryable collector memory over RDMA, with zero
//! collector-CPU involvement.
//!
//! The paper's hardware (Tofino switches, BlueField-2 RDMA NICs, 100G
//! links) is replaced by faithful software substrates — see `DESIGN.md` for
//! the substitution table. The public API re-exports each subsystem:
//!
//! * [`core`] — the DTA wire protocol (headers, primitives, framing).
//! * [`hash`] — the CRC engine and hash families.
//! * [`net`] — the event-driven network simulator (links, faults,
//!   fat-trees).
//! * [`rdma`] — the software RoCEv2 stack (verbs, QPs, memory regions, NIC).
//! * [`telemetry`] — monitoring systems producing reports (INT, Marple,
//!   NetSeer, Trajectory Sampling).
//! * [`reporter`] — the switch-side DTA exporter.
//! * [`translator`] — the DTA→RDMA translator (the paper's contribution).
//! * [`collector`] — the collector's write-only stores and query engines.
//! * [`sim`] — the end-to-end scenario harness (reporter fleets → faulty
//!   fat-tree fabric → translator ToR → collector, from one declarative
//!   spec).
//! * [`analysis`] — closed-form error bounds, the CPU-collector cost model,
//!   the Tofino resource tables and experiment tooling.
//!
//! ## Quickstart
//!
//! ```rust
//! use dta::collector::service::{CollectorService, ServiceConfig, SERVICE_KW};
//! use dta::core::{DtaReport, TelemetryKey};
//! use dta::rdma::cm::CmRequester;
//! use dta::translator::{Translator, TranslatorConfig};
//!
//! // Collector publishes its Key-Write service; the translator connects.
//! let mut collector = CollectorService::new(ServiceConfig::default());
//! let mut translator = Translator::new(TranslatorConfig::default());
//! let req = CmRequester::new(0x77, 0);
//! let reply = collector.handle_cm(&req.request(SERVICE_KW));
//! let (qp, params) = req.complete(&reply).unwrap();
//! translator.connect_key_write(qp, params);
//!
//! // A switch reports a key-value pair; the translator converts it into
//! // RDMA writes, which land in collector memory with no CPU involvement.
//! let key = TelemetryKey::from_u64(42);
//! let report = DtaReport::key_write(0, key, 2, vec![0xAB; 4]);
//! for pkt in translator.process(0, &report).packets {
//!     collector.nic_ingress(&pkt);
//! }
//!
//! // The operator queries the key back.
//! let store = collector.keywrite.as_ref().unwrap();
//! let out = store.query(&key, 2, dta::collector::QueryPolicy::Plurality);
//! assert!(out.is_found());
//! ```

pub use dta_analysis as analysis;
pub use dta_collector as collector;
pub use dta_core as core;
pub use dta_hash as hash;
pub use dta_net as net;
pub use dta_rdma as rdma;
pub use dta_reporter as reporter;
pub use dta_sim as sim;
pub use dta_telemetry as telemetry;
pub use dta_translator as translator;

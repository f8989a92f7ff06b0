//! An INTCollector-style collector.
//!
//! INTCollector (CNSM'18) splits INT processing into a fast path (per-packet
//! event detection: report only when a metric changes materially) and a slow
//! path (periodic flushes of per-flow state to a time-series database —
//! InfluxDB in the original). It is "to the best of our knowledge the only
//! open source INT collector" (§6.1).

use std::collections::{BTreeMap, HashMap};

use dta_core::FlowTuple;

/// Per-flow INT state kept by the fast path.
#[derive(Debug, Clone, Copy)]
struct FlowState {
    last_value: u32,
    last_flush_ns: u64,
    pending: u32,
}

/// A point exported to the backing TSDB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TsdbPoint {
    /// Export timestamp.
    pub ts_ns: u64,
    /// Flow the metric belongs to.
    pub flow: FlowTuple,
    /// Metric value.
    pub value: u32,
}

/// The INTCollector pipeline: event detection + periodic TSDB flush.
pub struct IntCollector {
    /// Relative change that triggers an event (fast-path filter).
    pub event_threshold: f64,
    /// Periodic flush interval.
    pub flush_interval_ns: u64,
    state: HashMap<FlowTuple, FlowState>,
    /// The "TSDB": flushed points, queryable per flow.
    tsdb: BTreeMap<FlowTuple, Vec<TsdbPoint>>,
    /// Reports seen.
    pub reports: u64,
    /// Events (threshold crossings) detected.
    pub events: u64,
}

impl IntCollector {
    /// Collector with the given event threshold and flush interval.
    pub fn new(event_threshold: f64, flush_interval_ns: u64) -> Self {
        assert!(flush_interval_ns > 0);
        IntCollector {
            event_threshold,
            flush_interval_ns,
            state: HashMap::new(),
            tsdb: BTreeMap::new(),
            reports: 0,
            events: 0,
        }
    }

    /// Ingest one INT report.
    pub fn ingest(&mut self, ts_ns: u64, flow: FlowTuple, value: u32) {
        self.reports += 1;
        let st = self.state.entry(flow).or_insert(FlowState {
            last_value: value,
            last_flush_ns: ts_ns,
            pending: value,
        });
        st.pending = value;
        // Event detection: material relative change in the metric.
        let base = st.last_value.max(1) as f64;
        let delta = (value as f64 - st.last_value as f64).abs() / base;
        let event = delta > self.event_threshold;
        if event {
            self.events += 1;
        }
        // Flush on event or on the periodic timer (the slow path).
        if event || ts_ns.saturating_sub(st.last_flush_ns) >= self.flush_interval_ns {
            let point = TsdbPoint { ts_ns, flow, value };
            st.last_value = value;
            st.last_flush_ns = ts_ns;
            self.tsdb.entry(flow).or_default().push(point);
        }
    }

    /// Points flushed for a flow.
    pub fn query(&self, flow: &FlowTuple) -> &[TsdbPoint] {
        self.tsdb.get(flow).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Total TSDB points (the collector's write amplification measure).
    pub fn tsdb_points(&self) -> usize {
        self.tsdb.values().map(|v| v.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow() -> FlowTuple {
        FlowTuple::tcp(1, 1, 2, 2)
    }

    #[test]
    fn stable_metric_flushes_only_periodically() {
        let mut c = IntCollector::new(0.5, 1_000_000);
        for i in 0..100u64 {
            c.ingest(i * 1_000, flow(), 500); // constant value, 1us apart
        }
        assert_eq!(c.events, 0);
        // 100us of constant samples with a 1ms flush interval: no flushes.
        assert_eq!(c.tsdb_points(), 0);
        // Crossing the interval flushes once.
        c.ingest(2_000_000, flow(), 500);
        assert_eq!(c.tsdb_points(), 1);
    }

    #[test]
    fn spike_triggers_immediate_event() {
        let mut c = IntCollector::new(0.5, u64::MAX / 2);
        c.ingest(0, flow(), 100);
        c.ingest(1, flow(), 100);
        assert_eq!(c.events, 0);
        c.ingest(2, flow(), 1000); // 10x spike
        assert_eq!(c.events, 1);
        assert_eq!(c.query(&flow()).len(), 1);
        assert_eq!(c.query(&flow())[0].value, 1000);
    }

    #[test]
    fn event_filtering_reduces_tsdb_load() {
        let mut noisy = IntCollector::new(0.0, u64::MAX / 2); // everything is an event
        let mut filtered = IntCollector::new(0.9, u64::MAX / 2);
        for i in 0..1000u64 {
            let v = 100 + (i % 10) as u32; // small jitter
            noisy.ingest(i, flow(), v);
            filtered.ingest(i, flow(), v);
        }
        assert!(filtered.tsdb_points() * 10 < noisy.tsdb_points());
    }
}

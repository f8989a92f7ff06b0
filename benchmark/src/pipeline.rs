//! The single-threaded write path under test, wired the way every harness
//! in the repo wires it: `Translator::process_batch` over 256-report
//! batches, every emitted packet executed by `CollectorService::
//! nic_ingress_burst`. Each call into a layer sits in a span.

use std::time::Instant;

use dta_collector::service::{
    CollectorService, ServiceConfig, SERVICE_APPEND, SERVICE_CMS, SERVICE_KW, SERVICE_POSTCARD,
};
use dta_core::DtaReport;
use dta_rdma::cm::CmRequester;
use dta_rdma::packet::RocePacket;
use dta_translator::{Translator, TranslatorConfig, TranslatorOutput};

use crate::trace::{SpanId, Tracer, ROOT};

/// Reports per `process_batch` call: the steady-state batch a translator
/// pulls off its ingress queue (and the unit a span's batch id names).
pub const BATCH: usize = 256;

/// Collector + connected translator + the reusable output buffers.
#[derive(Debug)]
pub struct Pipeline {
    /// The collector (stores, NIC, CM).
    pub col: CollectorService,
    /// The translator, connected to every service the collector enables.
    pub tr: Translator,
    out: TranslatorOutput,
    responses: Vec<RocePacket>,
    next_batch: u64,
}

impl Pipeline {
    /// Build a collector from `svc`, a translator from `trc`, and run the
    /// CM handshake for each enabled service.
    pub fn connect(svc: ServiceConfig, trc: TranslatorConfig, tracer: &mut Tracer) -> Self {
        let mut col = tracer.span("collector.service_new", ROOT, 0, || {
            (CollectorService::new(svc), 1)
        });
        let mut tr = tracer.span("translator.new", ROOT, 0, || (Translator::new(trc), 1));
        tracer.span("translator.connect", ROOT, 0, || {
            for (service, qpn) in [
                (SERVICE_KW, 1u32),
                (SERVICE_POSTCARD, 2),
                (SERVICE_APPEND, 3),
                (SERVICE_CMS, 4),
            ] {
                let req = CmRequester::new(qpn, 0);
                let reply = col.handle_cm(&req.request(service));
                let Ok((qp, params)) = req.complete(&reply) else {
                    continue; // primitive disabled at the collector
                };
                match service {
                    SERVICE_KW => tr.connect_key_write(qp, params),
                    SERVICE_POSTCARD => tr.connect_postcarding(qp, params),
                    SERVICE_APPEND => tr.connect_append(qp, params),
                    SERVICE_CMS => tr.connect_key_increment(qp, params),
                    _ => unreachable!(),
                }
            }
            ((), 4)
        });
        Pipeline {
            col,
            tr,
            out: TranslatorOutput::default(),
            responses: Vec::new(),
            next_batch: 0,
        }
    }

    /// Translate and execute `reports` in [`BATCH`]-sized batches.
    #[inline]
    pub fn ingest(&mut self, reports: &[DtaReport], tracer: &mut Tracer, parent: SpanId) {
        for batch in reports.chunks(BATCH) {
            let id = self.next_batch;
            self.next_batch += 1;
            let s = tracer.begin("translator.process_batch", parent, id);
            self.tr.process_batch(0, batch, &mut self.out);
            tracer.end(s, batch.len() as u64);
            let s = tracer.begin("rdma.nic_ingress_burst", parent, id);
            self.responses.clear();
            self.col
                .nic_ingress_burst(&self.out.packets, &mut self.responses);
            tracer.end(s, self.out.packets.len() as u64);
        }
    }

    /// The translator's periodic timer: flush partial Append batches and
    /// postcard-cache rows, and execute what that emits.
    #[inline]
    pub fn flush(&mut self, tracer: &mut Tracer, parent: SpanId) {
        let id = self.next_batch;
        let s = tracer.begin("translator.flush", parent, id);
        let flushed = self.tr.flush(0);
        tracer.end(s, 1);
        if !flushed.packets.is_empty() {
            let s = tracer.begin("rdma.nic_ingress_burst", parent, id);
            self.responses.clear();
            self.col
                .nic_ingress_burst(&flushed.packets, &mut self.responses);
            tracer.end(s, flushed.packets.len() as u64);
        }
    }

    /// One timed chunk: `reps` passes over `reports`, closed by a flush.
    /// Returns its nanoseconds. The chunk's root span is named `root`.
    pub fn chunk(
        &mut self,
        root: &'static str,
        reports: &[DtaReport],
        reps: usize,
        tracer: &mut Tracer,
    ) -> u64 {
        let t0 = Instant::now();
        let span = tracer.begin(root, ROOT, self.next_batch);
        for _ in 0..reps {
            self.ingest(reports, tracer, span);
        }
        self.flush(tracer, span);
        tracer.end(span, (reps * reports.len()) as u64);
        t0.elapsed().as_nanos() as u64
    }
}

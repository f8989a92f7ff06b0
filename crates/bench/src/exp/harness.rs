//! Shared harness: a fully connected collector + translator pair.

use dta_collector::service::{
    CollectorService, ServiceConfig, SERVICE_APPEND, SERVICE_CMS, SERVICE_KW, SERVICE_POSTCARD,
};
use dta_core::DtaReport;
use dta_rdma::cm::CmRequester;
use dta_rdma::nic::RxOutcome;
use dta_translator::{Translator, TranslatorConfig};

/// A connected collector/translator pair plus delivery stats.
pub struct Pair {
    /// The collector.
    pub collector: CollectorService,
    /// The translator.
    pub translator: Translator,
    /// RoCE packets delivered to the NIC.
    pub delivered: u64,
    /// RoCE packets rejected by the NIC.
    pub rejected: u64,
}

impl Pair {
    /// Build and connect all four services.
    pub fn new(svc: ServiceConfig, tr: TranslatorConfig) -> Self {
        let mut collector = CollectorService::new(svc);
        let mut translator = Translator::new(tr);
        let services = [
            (SERVICE_KW, collector.keywrite.is_some()),
            (SERVICE_POSTCARD, collector.postcarding.is_some()),
            (SERVICE_APPEND, collector.append.is_some()),
            (SERVICE_CMS, collector.key_increment.is_some()),
        ];
        for (i, (service, enabled)) in services.into_iter().enumerate() {
            if !enabled {
                continue;
            }
            let req = CmRequester::new(0x40 + i as u32, 0);
            let reply = collector.handle_cm(&req.request(service));
            let (qp, params) = req.complete(&reply).expect("service published");
            translator.connect(service, qp, params);
        }
        Pair { collector, translator, delivered: 0, rejected: 0 }
    }

    /// Translate one report and execute the resulting RDMA ops.
    pub fn process(&mut self, now_ns: u64, report: &DtaReport) {
        let out = self.translator.process(now_ns, report);
        for pkt in &out.packets {
            match self.collector.nic_ingress(pkt) {
                RxOutcome::Executed(_) => self.delivered += 1,
                _ => self.rejected += 1,
            }
        }
    }

    /// Flush translator-held state through to the collector.
    pub fn flush(&mut self, now_ns: u64) {
        let out = self.translator.flush(now_ns);
        for pkt in &out.packets {
            match self.collector.nic_ingress(pkt) {
                RxOutcome::Executed(_) => self.delivered += 1,
                _ => self.rejected += 1,
            }
        }
    }
}

//! Counter consistency across the translator, the RDMA NIC and the
//! collector under a mixed four-primitive load. (The accuracy of the
//! stores against the closed-form bounds is measured beside the A.5/A.6
//! experiments in `dta-bench`.)

use dta::core::TelemetryKey;

#[test]
fn stress_all_primitives_counter_consistency() {
    use dta::collector::service::{
        CollectorService, ServiceConfig, SERVICE_APPEND, SERVICE_CMS, SERVICE_KW,
        SERVICE_POSTCARD,
    };
    use dta::core::DtaReport;
    use dta::rdma::cm::CmRequester;
    use dta::translator::{Translator, TranslatorConfig};

    let mut c = CollectorService::new(ServiceConfig::default());
    let mut t = Translator::new(TranslatorConfig {
        append_batch: 16,
        postcard_redundancy: 2,
        ..TranslatorConfig::default()
    });
    for (sid, qpn) in [
        (SERVICE_KW, 1u32),
        (SERVICE_POSTCARD, 2),
        (SERVICE_APPEND, 3),
        (SERVICE_CMS, 4),
    ] {
        let req = CmRequester::new(qpn, 0);
        let reply = c.handle_cm(&req.request(sid));
        let (qp, params) = req.complete(&reply).unwrap();
        t.connect(sid, qp, params);
    }

    // 40K mixed reports.
    let per_kind = 10_000u64;
    for i in 0..per_kind {
        let key = TelemetryKey::from_u64(i);
        for pkt in t.process(0, &DtaReport::key_write(0, key, 2, vec![1; 4])).packets {
            c.nic_ingress(&pkt);
        }
        for pkt in t
            .process(0, &DtaReport::postcard(0, key, (i % 5) as u8, 5, 7))
            .packets
        {
            c.nic_ingress(&pkt);
        }
        for pkt in t
            .process(0, &DtaReport::append(0, (i % 16) as u32, (i as u32).to_be_bytes().to_vec()))
            .packets
        {
            c.nic_ingress(&pkt);
        }
        for pkt in t.process(0, &DtaReport::key_increment(0, key, 2, 1)).packets {
            c.nic_ingress(&pkt);
        }
    }
    // Counter consistency: every RDMA message the translator emitted was
    // executed by the NIC (no loss in this run), and memory instructions
    // equal executed verbs.
    assert_eq!(t.stats.reports_in, 4 * per_kind);
    assert_eq!(c.nic.stats.executed, t.stats.rdma_out);
    assert_eq!(c.memory_instructions(), c.nic.stats.executed);
    assert_eq!(c.nic.stats.errors, 0);
    assert_eq!(c.nic.stats.naks, 0);

    // Expected message counts: KW = 2/report; postcards aggregate 5→2
    // (N=2, only when a flow completes all 5 hops — here each key sends one
    // hop, so flows complete every 5 keys... count via cache stats instead);
    // Append = 1/16 reports; KI = 2/report.
    let kw_msgs = 2 * per_kind;
    let ki_msgs = 2 * per_kind;
    // 10K appends round-robin over 16 lists = 625 per list = 39 full
    // batches of 16 each, with one entry left staged per list.
    let append_msgs = (per_kind / 16 / 16) * 16;
    let pc_msgs = 2 * (t.postcard_cache().stats.complete_emissions
        + t.postcard_cache().stats.early_emissions);
    assert_eq!(t.stats.rdma_out, kw_msgs + ki_msgs + append_msgs + pc_msgs);
}

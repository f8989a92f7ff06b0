//! Probe: where one K=4 smoke scenario run spends its time (workload
//! synthesis vs fabric simulation vs post-run audit), plus the raw event
//! rate of the `dta-net` engine loop.
use std::time::Instant;

fn main() {
    let spec = dta_sim::ScenarioSpec::preset("smoke", dta_sim::TranslatorMode::SingleThreaded);
    // Whole-run baseline: per-run min/median so CPU-steal spikes on shared
    // hosts don't swamp the signal.
    let runs = 40;
    let mut reports = 0;
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            let out = dta_sim::run_scenario(&spec);
            let ns = t0.elapsed().as_nanos() as f64;
            reports = out.report.sent.total();
            std::hint::black_box(&out);
            ns
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    dta_sim::scenario::PHASE_NS.with(|ph| {
        let ph = ph.borrow();
        let names = ["generate", "fabric", "svc+translator", "fleet", "engine", "extract", "audit", "snapshot"];
        for (n, v) in names.iter().zip(ph.iter()) {
            println!("  {n}: {:.1} us/run", *v as f64 / runs as f64 / 1e3);
        }
    });
    println!(
        "run_scenario: min {:.1} / med {:.1} us/run, {} reports/run, min {:.1} ns/report",
        samples[0] / 1e3,
        samples[runs / 2] / 1e3,
        reports,
        samples[0] / reports as f64
    );

    // Near-empty run: fixed setup + audit cost, almost no engine work.
    let tiny = dta_sim::ScenarioSpec { ops_per_reporter: 1, ..spec.clone() };
    let t1b = Instant::now();
    for _ in 0..runs {
        std::hint::black_box(dta_sim::run_scenario(&tiny));
    }
    println!("run_scenario(ops=1): {:.1} us/run", t1b.elapsed().as_nanos() as f64 / runs as f64 / 1e3);

    // Workload synthesis alone.
    let t1 = Instant::now();
    for _ in 0..runs {
        std::hint::black_box(dta_sim::generate(&spec));
    }
    println!("generate: {:.1} us/run", t1.elapsed().as_nanos() as f64 / runs as f64 / 1e3);

    // Raw engine: a K=4 fat tree where every host blasts packets at a sink
    // host; no translator, no collector — pure event churn.
    use dta_net::{FatTree, LinkConfig, Network, Packet, SimTime};
    let ft = FatTree::new(4);
    let mut net = Network::new(ft.topology.shortest_path_routing());
    for (a, b) in ft.topology.edges() {
        net.add_duplex_link(a, b, LinkConfig::dc_100g());
    }
    let sink = ft.host(0, 0, 0);
    net.add_node(sink, Box::<dta_net::node::SinkNode>::default());
    let payload = bytes::Bytes::from(vec![0u8; 100]);
    let t2 = Instant::now();
    let mut events = 0u64;
    let mut sent = 0u64;
    for round in 0..2000u32 {
        for pod in 0..4 {
            for e in 0..2 {
                for h in 0..2 {
                    let host = ft.host(pod, e, h);
                    if host == sink {
                        continue;
                    }
                    net.send_from(host, Packet::new(host, sink, payload.clone()));
                    sent += 1;
                }
            }
        }
        if round % 64 == 0 {
            events += net.run_to_idle();
        }
    }
    events += net.run_to_idle();
    let ns = t2.elapsed().as_nanos() as f64;
    println!(
        "raw engine: {} packets, {} events, {:.1} ns/event, {:.1} ns/delivered-packet",
        sent,
        events,
        ns / events as f64,
        ns / net.stats.delivered as f64
    );
    std::hint::black_box(net.now().as_nanos());
    let _ = SimTime::ZERO;
}

//! One-shot capture of scenario goldens (report debug string + FNV-1a of
//! collector memory) used to pin engine-rewrite equivalence tests — paste
//! the output into `dta-sim/tests/engine_golden.rs` after a *deliberate*
//! behaviour change. The fingerprint is `dta_sim::memory_fingerprint`, the
//! same function the test recomputes. Fleet runs also print one
//! fingerprint per unmerged `fleet_memory` entry.
use dta_sim::{FaultPlan, ScenarioSpec, TranslatorMode};

fn main() {
    let sharded4 = TranslatorMode::Sharded { shards: 4 };
    for (name, spec) in [
        ("k4_single_clean", {
            let mut s = ScenarioSpec::smoke(TranslatorMode::SingleThreaded);
            s.seed = 0xD7A0_0001;
            s
        }),
        ("k4_single_faulted", {
            let mut s = ScenarioSpec::smoke(TranslatorMode::SingleThreaded);
            s.faults = FaultPlan::unreliable_report_path(0.1, 0.1, 0.1);
            s.reporters = 8;
            s.ops_per_reporter = 16;
            s.seed = 0xD7A0_0002;
            s
        }),
        ("k4_sharded_clean", {
            let mut s = ScenarioSpec::smoke(sharded4);
            s.seed = 0xD7A0_0003;
            s
        }),
        ("fleet_failover_single", ScenarioSpec {
            seed: 0xD7A0_0004,
            ..ScenarioSpec::failover(TranslatorMode::SingleThreaded)
        }),
        ("fleet_failover_sharded", ScenarioSpec {
            seed: 0xD7A0_0004,
            ..ScenarioSpec::failover(sharded4)
        }),
        ("fleet_rebalance_single", ScenarioSpec {
            seed: 0xD7A0_0004,
            ..ScenarioSpec::rebalance(TranslatorMode::SingleThreaded)
        }),
        ("fleet_rebalance_sharded", ScenarioSpec {
            seed: 0xD7A0_0004,
            ..ScenarioSpec::rebalance(sharded4)
        }),
    ] {
        let out = dta_sim::run_scenario(&spec);
        let mem_hash = dta_sim::memory_fingerprint(&out.memory);
        println!("== {name}");
        println!("report_debug = {:?}", format!("{:?}", out.report));
        println!("memory_fnv = {mem_hash:#018x}");
        let fleet: Vec<String> = out
            .fleet_memory
            .iter()
            .map(|m| format!("{:#018x}", dta_sim::memory_fingerprint(m)))
            .collect();
        println!("fleet_memory_fnv = [{}]", fleet.join(", "));
    }
}

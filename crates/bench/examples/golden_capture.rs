//! One-shot capture of scenario goldens (report debug string + FNV-1a of
//! collector memory) used to pin engine-rewrite equivalence tests — paste
//! the output into `dta-sim/tests/engine_golden.rs` after a *deliberate*
//! behaviour change. The fingerprint is `dta_sim::memory_fingerprint`, the
//! same function the test recomputes. Fleet runs also print one
//! fingerprint per unmerged `fleet_memory` entry.
use dta_sim::{memory_fingerprint, run_scenario, FaultPlan, ScenarioSpec, TranslatorMode};

fn main() {
    let single = TranslatorMode::SingleThreaded;
    let sharded4 = TranslatorMode::Sharded { shards: 4 };
    let faulted = ScenarioSpec {
        faults: FaultPlan::unreliable_report_path(0.1, 0.1, 0.1),
        reporters: 8,
        ops_per_reporter: 16,
        ..ScenarioSpec::preset("smoke", single)
    };
    for (name, seed, spec) in [
        ("k4_single_clean", 0xD7A0_0001, ScenarioSpec::preset("smoke", single)),
        ("k4_single_faulted", 0xD7A0_0002, faulted),
        ("k4_sharded_clean", 0xD7A0_0003, ScenarioSpec::preset("smoke", sharded4)),
        ("fleet_failover_single", 0xD7A0_0004, ScenarioSpec::preset("failover", single)),
        ("fleet_failover_sharded", 0xD7A0_0004, ScenarioSpec::preset("failover", sharded4)),
        ("fleet_rebalance_single", 0xD7A0_0004, ScenarioSpec::preset("rebalance", single)),
        ("fleet_rebalance_sharded", 0xD7A0_0004, ScenarioSpec::preset("rebalance", sharded4)),
    ] {
        let out = run_scenario(&ScenarioSpec { seed, ..spec });
        println!("== {name}");
        println!("report_debug = {:?}", format!("{:?}", out.report));
        println!("memory_fnv = {:#018x}", memory_fingerprint(&out.memory));
        let fleet: Vec<String> =
            out.fleet_memory.iter().map(|m| format!("{:#018x}", memory_fingerprint(m))).collect();
        println!("fleet_memory_fnv = [{}]", fleet.join(", "));
    }
}

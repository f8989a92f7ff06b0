//! Round-trip property: a random valid [`ScenarioSpec`], rendered to the
//! corpus file format and re-parsed, is *identical*. This pins
//! [`dta_sim::render_spec`] and the corpus parser against each other —
//! a plan field added to the spec but not to both sides shows up here as
//! a round-trip mismatch (or, for a renderer gap, as a default-valued
//! field diff), not as silent corpus drift.
//!
//! Specs are generated preset-first: one of the six valid presets, then
//! mutations across every section — including the `Option`-al plans
//! (rate limit, retransmit, collector fault, rebalance) that only some
//! presets carry — constrained to stay `validate()`-clean so the property
//! covers exactly the corpus the loader accepts.

use dta_sim::{parse_str, render_spec, ScenarioSpec, TranslatorMode};
use proptest::prelude::*;

proptest! {
    #[test]
    fn rendered_specs_reparse_identically(
        base in 0usize..6,
        seed in any::<u64>(),
        tick_ns in 1_000u64..10_000,
        drain_ns in 200_000u64..900_000,
        drop in 0.0f64..0.3,
        reorder in 0.0f64..0.3,
        duplicate in 0.0f64..0.3,
        size_limit in prop_oneof![(64usize..9000).prop_map(Some), Just(None)],
        kw_redundancy in 1u8..5,
        kw_keys in 1usize..4096,
        append_lists in 1u32..16,
        sharded in any::<bool>(),
        shards in 2usize..9,
        lossy in any::<bool>(),
        spurious in any::<bool>(),
        translator_rl in any::<bool>(),
        burst in 1u64..8192,
        mtu_sel in 0usize..3,
        query_rate in 1u32..64,
        query_seed in any::<u64>(),
        query_kw_weight in 1u32..100,
    ) {
        let mode = if sharded {
            TranslatorMode::Sharded { shards }
        } else {
            TranslatorMode::SingleThreaded
        };
        let mut spec = match base {
            0 => ScenarioSpec { mode, ..ScenarioSpec::default() },
            1 => ScenarioSpec::preset("smoke", mode),
            2 => ScenarioSpec::preset("congested", mode),
            3 => ScenarioSpec::preset("failover", mode),
            4 => ScenarioSpec::preset("rebalance", mode),
            _ => ScenarioSpec::preset("query_under_load", mode),
        };
        spec.seed = seed;
        spec.tick_ns = tick_ns;
        spec.drain_ns = spec.drain_ns.max(drain_ns);
        // Report-path faults are valid in every mode; the RDMA hop is not,
        // so it stays at the preset's (clean) value.
        spec.faults.report_uplinks.drop_chance = drop;
        spec.faults.report_uplinks.duplicate_chance = duplicate;
        spec.faults.fabric.reorder_chance = reorder;
        spec.faults.fabric.size_limit = size_limit;
        spec.traffic.kw_redundancy = kw_redundancy;
        // kw_write_once presets need the pool to cover the whole schedule.
        let floor = if spec.traffic.kw_write_once {
            (spec.reporters * spec.ops_per_reporter) as usize
        } else {
            1
        };
        spec.traffic.kw_keys = kw_keys.max(floor);
        spec.traffic.append_lists = append_lists;
        if lossy {
            spec.congestion.rdma_link.discipline = dta_net::QueueDiscipline::Lossy;
        }
        // Spurious excludes rejoin; only the failover preset's fault plan
        // (kill, no rejoin) may take it.
        if let Some(f) = spec.collectors.fault.as_mut() {
            if f.rejoin_at_ns.is_none() {
                f.spurious = spurious;
            }
        }
        if translator_rl {
            let mut rl = dta_translator::RateLimiterConfig::bluefield2();
            rl.burst = burst;
            spec.translator.rate_limit = Some(rl);
        }
        spec.translator.mtu = [256, 1024, 4096][mtu_sel];
        // Key-Write traffic is nonzero in every preset, so a Key-Write
        // mix weight is always valid to mutate.
        if let Some(q) = spec.query.as_mut() {
            q.rate = query_rate;
            q.seed = query_seed;
            q.mix.key_write = query_kw_weight;
        }

        prop_assert!(
            spec.validate().is_ok(),
            "generator must only emit valid specs: {:?}",
            spec.validate()
        );
        let text = render_spec(&spec);
        let doc = match parse_str("roundtrip.toml", &text) {
            Ok(doc) => doc,
            Err(e) => return Err(format!("rendered spec failed to parse: {e}\n{text}")),
        };
        prop_assert_eq!(doc.spec, spec, "render -> parse round-trip diverged");
    }
}

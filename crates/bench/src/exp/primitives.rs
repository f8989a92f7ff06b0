//! Per-primitive experiments: Figures 10–16.

use std::hint::black_box;

use dta_analysis::table::{fmt_pct, fmt_rate};
use dta_analysis::Table;
use dta_collector::layout::{AppendLayout, KwLayout};
use dta_collector::{AppendReader, KeyWriteStore, QueryPolicy};
use dta_core::TelemetryKey;
use dta_hash::Checksummer;
use dta_rdma::mr::{MemoryRegion, MrAccess};
use dta_rdma::nic::{NicConfig, NicPerfModel};
use dta_translator::PostcardCache;

use super::analysis::kw_window;
use super::parallel::{parallel_append_poll, parallel_kw_query};
use super::system::{append_wire_bytes, kw_wire_bytes, postcard_wire_bytes};

/// Mean wall-clock nanoseconds per call of `body` over `iters` calls.
#[expect(clippy::disallowed_types, reason = "Figures 11b/16b report host ns per call")]
fn ns_per_call(iters: usize, mut body: impl FnMut(usize)) -> f64 {
    let start = std::time::Instant::now();
    for i in 0..iters {
        body(i);
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// The two-row Figure 11b / 16b table: `part` timed alone, the rest of the
/// operation by difference (clamped: on a noisy host the two loops can
/// cross). Timing whole loops, not each ~ns step, keeps the timer's own
/// cost out of the small row.
fn breakdown_table(
    title: &str,
    unit: &str,
    part: &str,
    part_ns: f64,
    rest: &str,
    whole_ns: f64,
) -> Table {
    let mut t = Table::new(title, &["Component", unit]);
    t.row(&[part.to_string(), format!("{part_ns:.1}")]);
    t.row(&[rest.to_string(), format!("{:.1}", (whole_ns - part_ns).max(0.0))]);
    t
}

/// Figure 10: Key-Write collection rate vs redundancy, 4 B vs 20 B.
pub fn figure10() -> Table {
    let nic = NicPerfModel::new(NicConfig::bluefield2());
    let mut t = Table::new(
        "Figure 10 — Key-Write collection rate vs redundancy",
        &["N", "INT postcards 4B [rps]", "5-hop path 20B [rps]"],
    );
    for n in 1..=4u32 {
        t.row(&[
            n.to_string(),
            fmt_rate(nic.report_rate(kw_wire_bytes(4), 1.0, n as f64)),
            fmt_rate(nic.report_rate(kw_wire_bytes(20), 1.0, n as f64)),
        ]);
    }
    t
}

/// Figure 11: Key-Write query rate vs cores (11a) and per-query breakdown
/// (11b), measured on the real store.
pub fn figure11(quick: bool) -> Vec<Table> {
    // Scaled-down store: the paper uses 4 GiB / 100M queries; we keep the
    // load factor (α ≈ 0.1) and shrink both by ~1000x.
    let slots: u64 = if quick { 1 << 16 } else { 1 << 21 };
    let keys_n: usize = (slots / 10) as usize;
    let layout = KwLayout { base_va: 0, slots, value_bytes: 4 };
    let region = MemoryRegion::new(0, layout.region_len() as usize, 1, MrAccess::WRITE);
    let store = KeyWriteStore::new(layout, region, 4);
    let keys: Vec<TelemetryKey> = (0..keys_n as u64).map(TelemetryKey::from_u64).collect();
    for k in &keys {
        store.insert_direct(k, &[1, 2, 3, 4], 4);
    }

    let mut rate_table = Table::new(
        "Figure 11a — Key-Write query rate vs cores",
        &["Cores", "N=1 [q/s]", "N=2 [q/s]", "N=4 [q/s]"],
    );
    let max_cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(4);
    for cores in [1usize, 2, 4, 8] {
        if cores > max_cores {
            break;
        }
        let mut row = vec![cores.to_string()];
        for n in [1usize, 2, 4] {
            let st = parallel_kw_query(&store, &keys, n, QueryPolicy::Plurality, cores);
            row.push(fmt_rate(st.rate()));
        }
        rate_table.row(&row);
    }

    let sample = &keys[..keys.len().min(20_000)];
    let csum = Checksummer::new();
    let checksum_ns = ns_per_call(sample.len(), |i| {
        black_box(csum.checksum32(black_box(sample[i].as_bytes())));
    });
    let query_ns = ns_per_call(sample.len(), |i| {
        black_box(store.query(&sample[i], 2, QueryPolicy::Plurality));
    });
    let bd_table = breakdown_table(
        "Figure 11b — Per-query execution breakdown (N=2)",
        "ns/query",
        "Checksum",
        checksum_ns,
        "Get Slot(s)",
        query_ns,
    );
    vec![rate_table, bd_table]
}

/// Figure 12: query success rate vs load factor for N ∈ {1,2,4,8},
/// measured on the real store.
pub fn figure12(quick: bool) -> Table {
    let trials = if quick { 400 } else { 2_000 };
    let slots: u64 = if quick { 1 << 12 } else { 1 << 14 };
    let mut t = Table::new(
        "Figure 12 — Query success rate vs load factor",
        &["α", "N=1", "N=2", "N=4", "N=8"],
    );
    for alpha in [0.1, 0.2, 0.4, 0.6, 0.8, 1.0] {
        let mut row = vec![format!("{alpha:.1}")];
        let age = (alpha * slots as f64).round() as u64;
        for n in [1usize, 2, 4, 8] {
            let acc = kw_window(slots, n, 4, age, trials, QueryPolicy::Plurality, 42 + n as u64);
            row.push(fmt_pct(acc.found));
        }
        t.row(&row);
    }
    t
}

/// Figure 13: data longevity — queryability vs age for various store sizes,
/// measured on the real store.
pub fn figure13(quick: bool) -> Table {
    // Paper: 1/3/5/10/30 GiB stores, ages up to 100M newer flows, 24B slots
    // (20B path + 4B csum). Scale by 4096: slot counts and ages shrink
    // together, preserving α = age / slots.
    const SCALE: u64 = 4096;
    let trials = if quick { 300 } else { 1_500 };
    let gib = |g: u64| g * (1 << 30) / 24 / SCALE; // slots after scaling
    let mut t = Table::new(
        "Figure 13 — Queryability vs report age (N=2, 20B values, scaled /4096)",
        &["Age [#newer flows]", "1GiB", "3GiB", "5GiB", "10GiB", "30GiB"],
    );
    for age_m in [10u64, 20, 40, 60, 80, 100] {
        let age = age_m * 1_000_000 / SCALE;
        let mut row = vec![format!("{age_m}M")];
        for g in [1u64, 3, 5, 10, 30] {
            let acc = kw_window(gib(g), 2, 20, age, trials, QueryPolicy::Plurality, 7 + g);
            row.push(fmt_pct(acc.found));
        }
        t.row(&row);
    }
    t
}

/// Figure 14: Postcarding throughput vs translator cache size and number of
/// interleaved flows, from the real aggregation cache.
pub fn figure14(quick: bool) -> Table {
    let nic = NicPerfModel::new(NicConfig::bluefield2());
    let peak_paths = nic.report_rate(postcard_wire_bytes(5), 1.0, 1.0);
    let inserts_per_run = if quick { 150_000 } else { 1_000_000 };
    let mut t = Table::new(
        "Figure 14 — Postcarding collection vs cache size (5-hop paths)",
        &["Cache slots", "0 intermediate", "100", "1K", "5K", "10K"],
    );
    for cache_slots in [8 * 1024usize, 16 * 1024, 32 * 1024, 64 * 1024, 128 * 1024] {
        let mut row = vec![format!("{}K", cache_slots / 1024)];
        for intermediate in [0usize, 100, 1_000, 5_000, 10_000] {
            let rate = postcard_completeness(cache_slots, intermediate, inserts_per_run);
            row.push(fmt_rate(peak_paths * rate));
        }
        t.row(&row);
    }
    t
}

/// Fraction of flows whose 5 postcards aggregate without premature emission
/// when `intermediate` other flows are concurrently in flight ("The number
/// of other flows appearing at the translator while aggregating per-flow
/// postcards increases the risk of premature cache emission").
///
/// Model: `intermediate + 1` concurrent flows emit postcards round-robin
/// (each flow's 5 postcards are spread across 5 rounds); a completed flow is
/// immediately replaced by a fresh one. Completeness is measured from the
/// cache's own emission counters.
fn postcard_completeness(
    cache_slots: usize,
    intermediate: usize,
    target_inserts: usize,
) -> f64 {
    let mut cache = PostcardCache::new(cache_slots, 5);
    let concurrent = intermediate + 1;
    let mut flows: Vec<(u64, u8)> = (0..concurrent as u64).map(|i| (i, 0)).collect();
    let mut next_id = concurrent as u64;
    let mut inserts = 0usize;
    while inserts < target_inserts {
        for slot in flows.iter_mut() {
            let key = TelemetryKey::from_u64(slot.0);
            let _ = cache.insert(&key, slot.1, 5, slot.1 as u32);
            inserts += 1;
            slot.1 += 1;
            if slot.1 == 5 {
                *slot = (next_id, 0);
                next_id += 1;
            }
        }
    }
    let s = cache.stats;
    let total = s.complete_emissions + s.early_emissions;
    s.complete_emissions as f64 / total.max(1) as f64
}

/// Figure 15: Append throughput vs batch size and list size.
pub fn figure15() -> Table {
    let nic = NicPerfModel::new(NicConfig::bluefield2());
    let mut t = Table::new(
        "Figure 15 — Append collection vs batch size (4B events)",
        &["Batch", "64MiB lists [rps]", "2GiB lists [rps]"],
    );
    for batch in [1usize, 2, 4, 8, 16] {
        let rate = nic.report_rate(append_wire_bytes(batch, 4), batch as f64, 1.0);
        // List size does not affect collection speed ("The collection speed
        // is not impacted by the list sizes"): same value in both columns,
        // measured through the same model.
        t.row(&[batch.to_string(), fmt_rate(rate), fmt_rate(rate)]);
    }
    t
}

/// Figure 16: Append list-polling rate vs cores (16a) and poll breakdown
/// (16b), measured on the real reader.
pub fn figure16(quick: bool) -> Vec<Table> {
    let entries: u64 = if quick { 1 << 14 } else { 1 << 18 };
    let layout = AppendLayout { base_va: 0, lists: 1, entries_per_list: entries, entry_bytes: 4 };
    let max_cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(4);

    let mut rate_table = Table::new(
        "Figure 16a — Append polling rate vs cores",
        &["Cores", "No collection [polls/s]", "Active collection [polls/s]"],
    );
    for cores in [1usize, 2, 4, 8, 16] {
        if cores > max_cores {
            break;
        }
        // One list (and one reader) per core, as in the paper.
        let mut readers: Vec<AppendReader> = (0..cores)
            .map(|_| {
                let region =
                    MemoryRegion::new(0, layout.region_len() as usize, 1, MrAccess::WRITE);
                AppendReader::new(layout, region)
            })
            .collect();
        let idle = parallel_append_poll(&mut readers, entries);

        // Active collection: a writer thread hammers the same regions while
        // readers poll.
        let regions: Vec<MemoryRegion> = (0..cores)
            .map(|_| MemoryRegion::new(0, layout.region_len() as usize, 1, MrAccess::WRITE))
            .collect();
        let mut readers: Vec<AppendReader> =
            regions.iter().map(|r| AppendReader::new(layout, r.clone())).collect();
        let stop = std::sync::atomic::AtomicBool::new(false);
        let active = std::thread::scope(|s| {
            s.spawn(|| {
                let mut i = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let region = &regions[(i % cores as u64) as usize];
                    let va = (i * 4) % (layout.region_len() - 4);
                    let _ = region.write(va, &(i as u32).to_be_bytes());
                    i += 1;
                }
            });
            let st = parallel_append_poll(&mut readers, entries);
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            st
        });
        rate_table.row(&[
            cores.to_string(),
            fmt_rate(idle.rate()),
            fmt_rate(active.rate()),
        ]);
    }

    let region = MemoryRegion::new(0, layout.region_len() as usize, 1, MrAccess::WRITE);
    let mut reader = AppendReader::new(layout, region);
    let polls = entries.min(100_000) as usize;
    // The wrap-around advance `poll` performs, on a tail of its own.
    let mut tail = 0u64;
    let increment_ns = ns_per_call(polls, |_| {
        tail = (black_box(tail) + 1) % black_box(entries);
    });
    let poll_ns = ns_per_call(polls, |_| {
        black_box(reader.poll(0));
    });
    let bd_table = breakdown_table(
        "Figure 16b — Per-poll execution breakdown",
        "ns/poll",
        "Increment Tail",
        increment_ns,
        "Retrieval",
        poll_ns,
    );
    vec![rate_table, bd_table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure10_rate_inversely_proportional_to_n() {
        let t = figure10();
        assert_eq!(t.len(), 4);
        let csv = t.to_csv();
        assert!(csv.contains("110.0M"), "N=1 must hit the message rate:\n{csv}");
    }

    #[test]
    fn figure12_success_falls_with_load_and_rises_with_n_at_low_load() {
        let t = figure12(true);
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn success_rate_falls_with_age() {
        let t = figure13(true);
        let rows: Vec<Vec<f64>> = t
            .to_csv()
            .lines()
            .skip(1)
            .map(|l| l.split(',').skip(1).map(|c| c.trim_end_matches('%').parse().unwrap()).collect())
            .collect();
        // A column queries the same keys at every age, and an older key's
        // slots saw a superset of the overwrites, so success never rises.
        for (younger, older) in rows.iter().zip(&rows[1..]) {
            for (y, o) in younger.iter().zip(older) {
                assert!(o <= y, "success rose with age: {y}% -> {o}%\n{}", t.to_csv());
            }
        }
        // A bigger store sees a lower load at the same age; one point of
        // slack covers the trial noise between two stores.
        for row in &rows {
            for pair in row.windows(2) {
                assert!(pair[1] >= pair[0] - 1.0, "a bigger store lost: {row:?}");
            }
        }
        assert!(rows[0][0] > rows[5][0], "fresh must beat aged: {}", t.to_csv());
        assert!(rows[0][4] > 95.0, "fresh data should be queryable: {:?}", rows[0]);
    }

    #[test]
    fn figure14_completeness_falls_with_intermediate_flows() {
        let few = postcard_completeness(8 * 1024, 0, 30_000);
        let many = postcard_completeness(8 * 1024, 10_000, 60_000);
        assert!(few > 0.99, "no interference -> ~all complete, got {few}");
        assert!(many < few, "interference must hurt: {many} vs {few}");
    }

    #[test]
    fn figure14_bigger_cache_helps() {
        let small = postcard_completeness(1024, 5_000, 60_000);
        let big = postcard_completeness(128 * 1024, 5_000, 60_000);
        assert!(big > small, "cache size must help: {big} vs {small}");
    }

    #[test]
    fn figure15_batching_reaches_a_billion() {
        let csv = figure15().to_csv();
        let last = csv.lines().last().unwrap();
        assert!(last.starts_with("16,"));
        assert!(last.contains('B'), "batch 16 should exceed 1B rps: {last}");
    }

    /// A figure's `--quick` output: a non-empty rate table, then the two
    /// named breakdown components, both finite and non-negative.
    fn assert_rate_and_breakdown(tables: &[Table], components: [&str; 2]) {
        assert_eq!(tables.len(), 2);
        assert!(!tables[0].is_empty(), "rate table has a row per core count");
        let csv = tables[1].to_csv();
        let rows: Vec<(&str, f64)> = csv
            .lines()
            .skip(1)
            .map(|l| l.rsplit_once(',').expect("two columns"))
            .map(|(name, ns)| (name, ns.parse().expect("a number")))
            .collect();
        assert_eq!(rows.len(), 2, "{csv}");
        for ((name, ns), want) in rows.into_iter().zip(components) {
            assert_eq!(name, want);
            assert!(ns.is_finite() && ns >= 0.0, "{name}: {ns}");
        }
    }

    #[test]
    fn figure11_quick_prints_rates_and_checksum_vs_slots() {
        assert_rate_and_breakdown(&figure11(true), ["Checksum", "Get Slot(s)"]);
    }

    #[test]
    fn figure16_quick_prints_rates_and_tail_vs_retrieval() {
        assert_rate_and_breakdown(&figure16(true), ["Increment Tail", "Retrieval"]);
    }
}

//! Ablation studies of DTA's design choices (DESIGN.md §6).
//!
//! These go beyond the paper's figures: each table isolates one design
//! decision the paper makes and quantifies the alternative.

use std::cell::Cell;

use dta_analysis::keywrite::kw_wrong_return_bound;
use dta_analysis::postcarding::kw_vs_postcarding_wrong_output;
use dta_analysis::resources::{translator_footprint, TranslatorFeatures};
use dta_analysis::table::{fmt_pct, fmt_rate};
use dta_analysis::Table;
use dta_collector::QueryPolicy;
use dta_net::splitmix64;
use dta_rdma::nic::{NicConfig, NicPerfModel};

use super::analysis::{kw_window, window};
use super::system::append_wire_bytes;

/// Ablation 1: Key-Write query policy (Appendix A.5 discusses plurality vs
/// consensus). Measured on the real store; at each load every policy reads
/// the same writes.
pub fn ablation_query_policy(quick: bool) -> Table {
    let trials = if quick { 150 } else { 600 };
    let slots: u64 = 1 << 12;
    let mut t = Table::new(
        "Ablation — KW query policy (N=4, b=32): found / wrong rates",
        &["α", "FirstMatch", "Plurality", "Consensus(2)"],
    );
    for alpha in [0.1, 0.5, 1.0] {
        let mut row = vec![format!("{alpha:.1}")];
        let age = (alpha * slots as f64).round() as u64;
        for policy in [QueryPolicy::FirstMatch, QueryPolicy::Plurality, QueryPolicy::Consensus(2)] {
            row.push(fmt_pct(kw_window(slots, 4, 4, age, trials, policy, 0xA).found));
        }
        t.row(&row);
    }
    t
}

/// Wrong-return rate of Plurality at N=2 and α=1.0 over an abstract
/// 1024-slot table of `(b-bit checksum, writer)` pairs, in the sliding
/// window `kw_window` runs. The real store's checksum is 32 bits wide, so
/// this is the one loop that can vary `b`.
fn checksum_width_wrong_rate(b: u32, trials: u64, seed: u64) -> f64 {
    const SLOTS: u64 = 1 << 10;
    // Key x's checksum and its two slots, all drawn from x.
    let place = |mut x: u64| -> (u32, [usize; 2]) {
        let checksum = (splitmix64(&mut x) >> (64 - b)) as u32;
        (checksum, [0; 2].map(|_| (splitmix64(&mut x) % SLOTS) as usize))
    };
    let table = vec![Cell::new((0u32, u64::MAX)); SLOTS as usize];
    let write = |x| {
        let (checksum, slots) = place(x);
        for s in slots {
            table[s].set((checksum, x));
        }
    };
    let judge = |victim| {
        let (checksum, slots) = place(victim);
        let [first, second] = slots.map(|s| Some(table[s].get()).filter(|e| e.0 == checksum));
        match (first, second) {
            (Some(u), Some(v)) if u.1 != v.1 => None, // a tie: empty
            (u, v) => u.or(v).map(|(_, writer)| writer == victim),
        }
    };
    window(SLOTS, trials, seed, write, judge).wrong
}

/// Ablation 2: checksum width `b` — the memory/accuracy trade of A.5.
pub fn ablation_checksum_width(quick: bool) -> Table {
    let trials = if quick { 1_000 } else { 5_000 };
    let mut t = Table::new(
        "Ablation — checksum width b (N=2, α=1.0): wrong-return rates",
        &["b [bits]", "Analytic bound", "Monte-Carlo wrong", "Slot overhead"],
    );
    for b in [4u32, 8, 16, 32] {
        t.row(&[
            b.to_string(),
            format!("{:.2e}", kw_wrong_return_bound(2, b, 1.0)),
            format!("{:.2e}", checksum_width_wrong_rate(b, trials, 0xB + u64::from(b))),
            format!("+{}B", b.div_ceil(8)),
        ]);
    }
    t
}

/// Ablation 3: Postcarding's XOR encoding vs naive KW-per-postcard — the §4
/// comparison as a sweep.
pub fn ablation_postcard_encoding() -> Table {
    let mut t = Table::new(
        "Ablation — Postcarding XOR encoding vs KW-per-postcard (|V|=2^18, B=5, α=0.1)",
        &["N", "KW wrong (2b bits/slot)", "Postcarding wrong (b bits/slot)", "Bits saved/path", "Writes saved"],
    );
    for n in [1u32, 2, 4] {
        let (kw, pc) = kw_vs_postcarding_wrong_output(n, 32, 0.1, 1 << 18, 5);
        // KW stores csum(32) + value(32) per hop = 5*64; Postcarding stores
        // 5*32 padded to 256 bits.
        t.row(&[
            n.to_string(),
            format!("{kw:.1e}"),
            format!("{pc:.1e}"),
            format!("{}", 5 * 64 - 256),
            format!("{}x", 5), // one chunk write instead of 5 per copy
        ]);
    }
    t
}

/// Ablation 4: Append batch size — collection speed (F15) against the
/// stateful-ALU cost (T3): "batching also has the potential for a tenfold
/// increase in collection throughput, and we conclude that it is a
/// worthwhile tradeoff".
pub fn ablation_batch_tradeoff() -> Table {
    let nic = NicPerfModel::new(NicConfig::bluefield2());
    let mut t = Table::new(
        "Ablation — Append batch size: throughput vs stateful-ALU footprint",
        &["Batch", "Throughput [rps]", "Stateful ALU", "Rps per ALU-%"],
    );
    for batch in [1u32, 2, 4, 8, 16] {
        let rate = nic.report_rate(append_wire_bytes(batch as usize, 4), batch as f64, 1.0);
        let alu = translator_footprint(TranslatorFeatures {
            append_batch: batch,
            ..TranslatorFeatures::paper_eval()
        })
        .stateful_alu;
        t.row(&[
            batch.to_string(),
            fmt_rate(rate),
            format!("{alu:.1}%"),
            fmt_rate(rate / alu),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policies_trade_availability_for_certainty() {
        let t = ablation_query_policy(true);
        assert_eq!(t.len(), 3);
        // At every load, Consensus(2) finds no more than FirstMatch.
        for line in t.to_csv().lines().skip(1) {
            let cells: Vec<&str> = line.split(',').collect();
            let parse = |s: &str| s.trim_end_matches('%').parse::<f64>().unwrap();
            assert!(parse(cells[3]) <= parse(cells[1]) + 8.0, "consensus should not find more: {line}");
        }
    }

    #[test]
    fn plurality_at_full_load_tracks_the_closed_form() {
        // The keys must be scrambled: under a linear CRC sequential ids
        // spread evenly over the slots, and then none survives α = 1.0.
        let csv = ablation_query_policy(true).to_csv();
        let row = csv.lines().find(|l| l.starts_with("1.0,")).unwrap();
        let plurality: f64 = row.split(',').nth(2).unwrap().trim_end_matches('%').parse().unwrap();
        let bound = 100.0 * dta_analysis::keywrite::kw_success_rate(4, 32, 1.0);
        assert!(plurality > 2.0, "Plurality at α=1.0 found nothing: {row}");
        assert!((plurality - bound).abs() <= 5.0, "Plurality {plurality}% vs closed form {bound:.1}%");
    }

    #[test]
    fn narrow_checksums_measurably_wrong() {
        let t = ablation_checksum_width(true);
        let csv = t.to_csv();
        let b4 = csv.lines().find(|l| l.starts_with("4,")).unwrap();
        let b32 = csv.lines().find(|l| l.starts_with("32,")).unwrap();
        // b=4 shows real wrong returns; b=32 shows none.
        assert!(!b4.contains("0.00e0"), "b=4 should err: {b4}");
        assert!(b32.contains("0.00e0"), "b=32 should not err in 1k trials: {b32}");
    }

    #[test]
    fn batching_efficiency_improves_then_saturates() {
        let t = ablation_batch_tradeoff();
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn postcard_encoding_always_wins() {
        let t = ablation_postcard_encoding();
        assert_eq!(t.len(), 3);
    }
}

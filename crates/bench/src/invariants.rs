//! The corpus invariant checks: one `match` arm per [`Invariant`], so a new
//! variant does not compile until it has a check. The `sweep` binary and the
//! root `tests/corpus.rs` both run corpus files through [`check_file`].

use dta_analysis::sweep::{kw_audit_vs_bound, FileCoverage, Violation};
use dta_collector::KwLayout;
use dta_sim::{memory_fingerprint, run_scenario, CorpusDoc, Invariant, ScenarioOutcome};

/// Run every cell of `doc`'s grid and check each invariant the file
/// declares: per cell in declaration order, then `cross_mode_memory_equal`
/// once per group of cells that differ only in `mode`.
pub fn check_file(doc: &CorpusDoc) -> FileCoverage {
    let cells = doc.cells();
    let mut cov = FileCoverage {
        file: doc.file.clone(),
        cells_total: cells.len() as u64,
        runs: 0,
        axes: doc.sweep.iter().map(|a| (a.name().to_string(), a.len() as u64)).collect(),
        invariants: doc.invariants.enabled().map(|inv| inv.name().to_string()).collect(),
        checks: 0,
        violations: Vec::new(),
    };
    let fail = |cov: &mut FileCoverage, cell: String, inv: Invariant, detail: String| {
        cov.violations.push(Violation {
            file: doc.file.clone(),
            cell,
            invariant: inv.name().to_string(),
            detail,
        });
    };

    // (mode group, cell, memory fingerprint) for the cross-mode comparison.
    let mut mode_groups: Vec<(String, String, u64)> = Vec::new();
    for cell in &cells {
        let outcome = run_scenario(&cell.spec);
        cov.runs += 1;
        let r = &outcome.report;
        let fp = memory_fingerprint(&outcome.memory);
        for inv in doc.invariants.enabled() {
            let detail = match inv {
                Invariant::BitReproducible => {
                    let again = run_scenario(&cell.spec);
                    cov.runs += 1;
                    let fp2 = memory_fingerprint(&again.memory);
                    (again.report != *r || fp2 != fp || !same_fleet_memory(&outcome, &again))
                        .then(|| format!("second run diverged (memory {fp:#018x} vs {fp2:#018x})"))
                }
                Invariant::CrossModeMemoryEqual => {
                    // Judged once per group, after every cell has run.
                    mode_groups.push((cell.mode_group_id(), cell.id(), fp));
                    continue;
                }
                Invariant::NoUnsent => (r.reports_unsent != 0)
                    .then(|| format!("reports_unsent = {}", r.reports_unsent)),
                Invariant::NoFabricDrops => {
                    (r.net.dropped != 0 || r.faults.dropped != 0).then(|| {
                        format!(
                            "net.dropped = {}, faults.dropped = {}",
                            r.net.dropped, r.faults.dropped
                        )
                    })
                }
                Invariant::LedgerClosure => {
                    let reporter = r.reporter.ledger_closes();
                    let failover = r.failover.ledger_closes();
                    let rebalance = r.rebalance.as_ref().is_none_or(|s| s.closes());
                    (!(reporter && failover && rebalance)).then(|| {
                        format!(
                            "reporter = {reporter}, failover = {failover}, rebalance = {rebalance}"
                        )
                    })
                }
                Invariant::FanoutLookupsZero => (r.queries.fanout_lookups != 0)
                    .then(|| format!("fanout_lookups = {}", r.queries.fanout_lookups)),
                Invariant::KwAuditClean => {
                    (r.queries.kw_missing != 0 || r.queries.kw_ambiguous != 0).then(|| {
                        format!(
                            "kw_missing = {}, kw_ambiguous = {}",
                            r.queries.kw_missing, r.queries.kw_ambiguous
                        )
                    })
                }
                Invariant::QueriesAnswered => match &r.query {
                    Some(q) if q.answered > 0 => None,
                    Some(q) => Some(format!("query stream issued {} but answered 0", q.issued)),
                    None => Some("no [query] plan in spec (invariant needs one)".to_string()),
                },
                Invariant::KwAuditVsBound => {
                    let q = &r.queries;
                    let audited = q.kw_found + q.kw_ambiguous + q.kw_missing;
                    let service = &cell.spec.service;
                    let slots =
                        KwLayout::with_capacity(0, service.kw_bytes, service.kw_value_bytes).slots;
                    let observed =
                        if audited == 0 { 1.0 } else { q.kw_found as f64 / audited as f64 };
                    let redundancy = u32::from(cell.spec.traffic.kw_redundancy);
                    kw_audit_vs_bound(slots, redundancy, audited, observed)
                }
            };
            cov.checks += 1;
            if let Some(detail) = detail {
                fail(&mut cov, cell.id(), inv, detail);
            }
        }
    }

    let mut groups: Vec<(&str, Vec<(&str, u64)>)> = Vec::new();
    for (g, c, fp) in &mode_groups {
        match groups.iter_mut().find(|(name, _)| name == g) {
            Some((_, members)) => members.push((c, *fp)),
            None => groups.push((g, vec![(c, *fp)])),
        }
    }
    for (group, members) in groups {
        cov.checks += 1;
        let (c0, fp0) = members[0];
        for &(c, fp) in &members[1..] {
            if fp != fp0 {
                let detail = format!("memory {fp:#018x} != {fp0:#018x} of [{c0}] (group [{group}])");
                fail(&mut cov, c.to_string(), Invariant::CrossModeMemoryEqual, detail);
            }
        }
    }
    cov
}

/// Whether two runs left byte-identical memory at every fleet collector.
fn same_fleet_memory(a: &ScenarioOutcome, b: &ScenarioOutcome) -> bool {
    a.fleet_memory.len() == b.fleet_memory.len()
        && a.fleet_memory
            .iter()
            .zip(&b.fleet_memory)
            .all(|(x, y)| memory_fingerprint(x) == memory_fingerprint(y))
}

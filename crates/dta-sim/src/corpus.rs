//! Declarative scenario corpus: file-backed [`ScenarioSpec`]s.
//!
//! Every scenario the harness can express is reachable from a plain text
//! file in a TOML subset (see `DESIGN.md`, "Scenario corpus"), so scenario
//! coverage is a growing, greppable artifact under `scenarios/` instead of
//! a handful of hand-written Rust presets. A corpus file is:
//!
//! * a **base spec** — `key = value` assignments and `[section]` tables
//!   covering every plan a [`ScenarioSpec`] carries ([`crate::TrafficMix`],
//!   [`crate::FaultPlan`], [`crate::CongestionPlan`],
//!   [`crate::CollectorPlan`] / [`crate::CollectorFaultPlan`],
//!   [`crate::RebalancePlan`], translator/collector sizing). Anything not
//!   named keeps the [`ScenarioSpec::default`] value, so files stay short;
//! * an optional **`[sweep]` grid** — per-axis value lists (seed, mode,
//!   victim, kill time, fault rates) whose cartesian product expands into
//!   many concrete cells;
//! * an optional **`[invariants]` set** — per-file assertions the `sweep`
//!   runner enforces on every cell (bit-reproducibility, cross-mode memory
//!   equality, ledger closure, `fanout_lookups == 0`, ...);
//! * optional **`tags`** — free-form labels tests select on (e.g.
//!   `cross_mode_identical` drives the differential corpus test).
//!
//! The parser is hand-rolled (the build environment has no crates.io) and
//! *strict*: unknown sections or keys, type mismatches, and
//! out-of-range values are errors carrying the offending file, line, and
//! key — a corpus typo fails loudly, never silently half-applies.
//! [`load_str`] additionally validates the base spec and **every expanded
//! cell** through [`ScenarioSpec::validate`], so an invalid cell cannot
//! hide in an unexercised corner of a grid.
//!
//! [`render_spec`] is the inverse of the spec-table parser: it emits a
//! complete document (every field, every section) that re-parses to an
//! identical spec. The round-trip property test pins parser and renderer
//! against each other, so a new plan field cannot be added to one side
//! only.

use std::fmt;

use dta_net::{FaultConfig, LinkConfig, QueueDiscipline};
use dta_reporter::RetransmitPolicy;
use dta_translator::RateLimiterConfig;

use crate::spec::{CollectorFaultPlan, QueryPlan, RebalancePlan, ScenarioSpec, TranslatorMode};

/// A parse or validation failure, carrying enough context to act on:
/// `file:line: message`, with the message naming the offending key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// File the error was found in (as passed to the loader).
    pub file: String,
    /// 1-based line, or 0 when the error is document-level (e.g. a
    /// [`ScenarioSpec::validate`] rejection of the assembled spec).
    pub line: usize,
    /// What went wrong, naming the key/section involved.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "{}:{}: {}", self.file, self.line, self.message)
        } else {
            write!(f, "{}: {}", self.file, self.message)
        }
    }
}

impl std::error::Error for ParseError {}

/// One scalar (or list of scalars) on the right of a `key = value` line.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Str(String),
    Int(u64),
    Float(f64),
    Bool(bool),
    List(Vec<Value>),
}

impl Value {
    fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Bool(_) => "boolean",
            Value::List(_) => "list",
        }
    }
}

/// The invariant assertions a corpus file opts into; the `sweep` runner
/// enforces each enabled one on every cell (or cell group) and counts it
/// in the coverage report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InvariantSet {
    /// Run each cell twice; the [`crate::ScenarioReport`]s and collector
    /// memory must be byte-identical.
    pub bit_reproducible: bool,
    /// Cells differing only in the `mode` axis must leave byte-identical
    /// collector memory. Requires a `mode` sweep axis with >= 2 values.
    pub cross_mode_memory_equal: bool,
    /// `reports_unsent == 0`: the emission window covered the schedule.
    pub no_unsent: bool,
    /// `net.dropped == 0` and zero injected drops — for clean-fabric files.
    pub no_fabric_drops: bool,
    /// Every bounded ledger closes: the reporter retransmit window
    /// ([`dta_reporter::RetxStats::ledger_closes`]), the failover replay
    /// ledger, and the rebalance migration ledger.
    pub ledger_closure: bool,
    /// `queries.fanout_lookups == 0`: every key queried back from its
    /// routed owner (the post-rebalance single-owner property).
    pub fanout_lookups_zero: bool,
    /// `kw_missing == 0 && kw_ambiguous == 0`: every written Key-Write key
    /// queried back unambiguously.
    pub kw_audit_clean: bool,
    /// `query.answered > 0`: a [`crate::QueryPlan`] cell actually served
    /// queries during the write phase (guards against a start/stop window
    /// that misses every epoch).
    pub queries_answered: bool,
    /// Cross-check the observed Key-Write audit success rate against the
    /// `dta-analysis::montecarlo` abstract-store prediction for the same
    /// load (slots, redundancy, keys written).
    pub kw_audit_vs_montecarlo: bool,
}

impl InvariantSet {
    /// Names of the enabled invariants, in declaration order.
    pub fn enabled(&self) -> Vec<&'static str> {
        let mut out = Vec::new();
        let mut push = |on: bool, name| {
            if on {
                out.push(name);
            }
        };
        push(self.bit_reproducible, "bit_reproducible");
        push(self.cross_mode_memory_equal, "cross_mode_memory_equal");
        push(self.no_unsent, "no_unsent");
        push(self.no_fabric_drops, "no_fabric_drops");
        push(self.ledger_closure, "ledger_closure");
        push(self.fanout_lookups_zero, "fanout_lookups_zero");
        push(self.kw_audit_clean, "kw_audit_clean");
        push(self.queries_answered, "queries_answered");
        push(self.kw_audit_vs_montecarlo, "kw_audit_vs_montecarlo");
        out
    }

    /// Whether any invariant is enabled.
    pub fn any(&self) -> bool {
        !self.enabled().is_empty()
    }
}

/// One sweep axis: what it varies and over which values.
#[derive(Debug, Clone, PartialEq)]
pub enum Axis {
    /// `spec.seed`.
    Seed(Vec<u64>),
    /// `spec.mode` (`"single"`, `"sharded2"`, `"sharded4"`, ...).
    Mode(Vec<TranslatorMode>),
    /// `spec.collectors.fault.victim` (requires a `[collectors.fault]`).
    Victim(Vec<u32>),
    /// `spec.collectors.fault.kill_at_ns` (requires a `[collectors.fault]`).
    KillAt(Vec<u64>),
    /// Report-path drop chance (uplinks + fabric).
    Drop(Vec<f64>),
    /// Report-path pairwise-reorder chance (uplinks + fabric).
    Reorder(Vec<f64>),
    /// Report-path duplicate-delivery chance (uplinks + fabric).
    Duplicate(Vec<f64>),
}

impl Axis {
    /// Axis name as it appears under `[sweep]` and in coverage reports.
    pub fn name(&self) -> &'static str {
        match self {
            Axis::Seed(_) => "seed",
            Axis::Mode(_) => "mode",
            Axis::Victim(_) => "victim",
            Axis::KillAt(_) => "kill_at_ns",
            Axis::Drop(_) => "drop",
            Axis::Reorder(_) => "reorder",
            Axis::Duplicate(_) => "duplicate",
        }
    }

    /// Number of values on the axis.
    pub fn len(&self) -> usize {
        match self {
            Axis::Seed(v) => v.len(),
            Axis::Mode(v) => v.len(),
            Axis::Victim(v) => v.len(),
            Axis::KillAt(v) => v.len(),
            Axis::Drop(v) | Axis::Reorder(v) | Axis::Duplicate(v) => v.len(),
        }
    }

    /// Whether the axis has no values (never true for a parsed axis).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Display label of value `i` (coverage-report coordinate).
    fn label(&self, i: usize) -> String {
        match self {
            Axis::Seed(v) => v[i].to_string(),
            Axis::Mode(v) => mode_label(v[i]),
            Axis::Victim(v) => v[i].to_string(),
            Axis::KillAt(v) => v[i].to_string(),
            Axis::Drop(v) | Axis::Reorder(v) | Axis::Duplicate(v) => format!("{:?}", v[i]),
        }
    }

    /// Apply value `i` onto `spec`.
    fn apply(&self, i: usize, spec: &mut ScenarioSpec) {
        match self {
            Axis::Seed(v) => spec.seed = v[i],
            Axis::Mode(v) => spec.mode = v[i],
            Axis::Victim(v) => {
                if let Some(f) = spec.collectors.fault.as_mut() {
                    f.victim = v[i];
                }
            }
            Axis::KillAt(v) => {
                if let Some(f) = spec.collectors.fault.as_mut() {
                    f.kill_at_ns = v[i];
                }
            }
            Axis::Drop(v) => {
                spec.faults.report_uplinks.drop_chance = v[i];
                spec.faults.fabric.drop_chance = v[i];
            }
            Axis::Reorder(v) => {
                spec.faults.report_uplinks.reorder_chance = v[i];
                spec.faults.fabric.reorder_chance = v[i];
            }
            Axis::Duplicate(v) => {
                spec.faults.report_uplinks.duplicate_chance = v[i];
                spec.faults.fabric.duplicate_chance = v[i];
            }
        }
    }
}

/// One expanded grid cell: a concrete runnable spec plus its coordinates.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The concrete spec (base spec with every axis value applied).
    pub spec: ScenarioSpec,
    /// `(axis, value-label)` pairs in axis declaration order; empty for the
    /// base cell of a sweep-less file.
    pub coords: Vec<(&'static str, String)>,
}

impl Cell {
    /// `axis=value,axis=value` coordinate string (stable cell identity).
    pub fn id(&self) -> String {
        if self.coords.is_empty() {
            return "base".to_string();
        }
        self.coords
            .iter()
            .map(|(a, v)| format!("{a}={v}"))
            .collect::<Vec<_>>()
            .join(",")
    }

    /// [`Cell::id`] with the `mode` axis removed — cells sharing this key
    /// differ only in translator mode (the cross-mode comparison group).
    pub fn mode_group_id(&self) -> String {
        self.coords
            .iter()
            .filter(|(a, _)| *a != "mode")
            .map(|(a, v)| format!("{a}={v}"))
            .collect::<Vec<_>>()
            .join(",")
    }
}

/// A parsed corpus file: base spec, tags, sweep grid, invariants.
#[derive(Debug, Clone)]
pub struct CorpusDoc {
    /// File name the document was parsed from (error context, report key).
    pub file: String,
    /// The base scenario (defaults filled in).
    pub spec: ScenarioSpec,
    /// Free-form labels (`cross_mode_identical`, ...).
    pub tags: Vec<String>,
    /// Sweep axes in declaration order (empty = single-cell file).
    pub sweep: Vec<Axis>,
    /// Per-file assertions the sweep runner enforces.
    pub invariants: InvariantSet,
}

impl CorpusDoc {
    /// Whether the document carries `tag`.
    pub fn has_tag(&self, tag: &str) -> bool {
        self.tags.iter().any(|t| t == tag)
    }

    /// Total cells the sweep grid expands to (1 for a sweep-less file).
    pub fn cell_count(&self) -> usize {
        self.sweep.iter().map(Axis::len).product::<usize>().max(1)
    }

    /// Expand the full grid: the cartesian product of every axis, axes
    /// varying slowest-first in declaration order. A sweep-less file
    /// yields its base spec as the single cell.
    pub fn cells(&self) -> Vec<Cell> {
        let total = self.cell_count();
        let mut out = Vec::with_capacity(total);
        for mut idx in 0..total {
            let mut picks = vec![0usize; self.sweep.len()];
            for (slot, axis) in self.sweep.iter().enumerate().rev() {
                picks[slot] = idx % axis.len();
                idx /= axis.len();
            }
            let mut spec = self.spec.clone();
            let mut coords = Vec::with_capacity(self.sweep.len());
            for (axis, &pick) in self.sweep.iter().zip(&picks) {
                axis.apply(pick, &mut spec);
                coords.push((axis.name(), axis.label(pick)));
            }
            out.push(Cell { spec, coords });
        }
        out
    }

    /// A deterministic 1-cell-per-mode smoke selection: the first grid
    /// cell for each distinct `mode`-axis value (every other axis at its
    /// first value), or the base spec when the file has no mode axis.
    /// This is what the corpus conformance test runs.
    pub fn smoke_cells(&self) -> Vec<Cell> {
        let modes = self
            .sweep
            .iter()
            .find_map(|a| match a {
                Axis::Mode(m) => Some(m.len()),
                _ => None,
            })
            .unwrap_or(1);
        let cells = self.cells();
        (0..modes)
            .map(|want| {
                cells
                    .iter()
                    .find(|c| {
                        c.coords
                            .iter()
                            .find(|(a, _)| *a == "mode")
                            .is_none_or(|(_, v)| {
                                let label = self
                                    .sweep
                                    .iter()
                                    .find_map(|a| match a {
                                        Axis::Mode(m) => Some(mode_label(m[want])),
                                        _ => None,
                                    })
                                    .unwrap();
                                *v == label
                            })
                    })
                    .expect("grid is non-empty")
                    .clone()
            })
            .collect()
    }
}

/// `mode`-axis label of a translator mode (`single`, `sharded4`, ...).
pub fn mode_label(mode: TranslatorMode) -> String {
    match mode {
        TranslatorMode::SingleThreaded => "single".to_string(),
        TranslatorMode::Sharded { shards } => format!("sharded{shards}"),
    }
}

/// Parse a `mode`-axis label back into a translator mode.
pub fn parse_mode_label(s: &str) -> Option<TranslatorMode> {
    if s == "single" {
        return Some(TranslatorMode::SingleThreaded);
    }
    let shards: usize = s.strip_prefix("sharded")?.parse().ok()?;
    (shards >= 1).then_some(TranslatorMode::Sharded { shards })
}

// ---------------------------------------------------------------------------
// Lexing: lines -> (section path, key, Value)
// ---------------------------------------------------------------------------

fn err(file: &str, line: usize, message: impl Into<String>) -> ParseError {
    ParseError { file: file.to_string(), line, message: message.into() }
}

/// Parse one scalar token (no lists).
fn parse_scalar(file: &str, line: usize, tok: &str) -> Result<Value, ParseError> {
    let tok = tok.trim();
    if let Some(rest) = tok.strip_prefix('"') {
        let Some(inner) = rest.strip_suffix('"') else {
            return Err(err(file, line, format!("unterminated string: {tok}")));
        };
        if inner.contains('"') {
            return Err(err(file, line, format!("embedded quote in string: {tok}")));
        }
        return Ok(Value::Str(inner.to_string()));
    }
    match tok {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    // Numbers: integers may use `_` separators; anything with `.`, `e`,
    // or `E` is a float. Negative numbers are rejected up front — every
    // spec field is unsigned.
    if tok.starts_with('-') {
        return Err(err(file, line, format!("negative values are not accepted: {tok}")));
    }
    let clean: String = tok.chars().filter(|&c| c != '_').collect();
    if clean.contains(['.', 'e', 'E']) {
        return clean
            .parse::<f64>()
            .map(Value::Float)
            .map_err(|_| err(file, line, format!("malformed number: {tok}")));
    }
    clean
        .parse::<u64>()
        .map(Value::Int)
        .map_err(|_| err(file, line, format!("malformed value: {tok}")))
}

/// Parse a value: scalar or a one-line `[a, b, c]` list of scalars.
fn parse_value(file: &str, line: usize, raw: &str) -> Result<Value, ParseError> {
    let raw = raw.trim();
    if let Some(rest) = raw.strip_prefix('[') {
        let Some(inner) = rest.strip_suffix(']') else {
            return Err(err(file, line, format!("unterminated list: {raw}")));
        };
        let inner = inner.trim();
        if inner.is_empty() {
            return Ok(Value::List(Vec::new()));
        }
        let items = inner
            .split(',')
            .map(|tok| parse_scalar(file, line, tok))
            .collect::<Result<Vec<_>, _>>()?;
        return Ok(Value::List(items));
    }
    parse_scalar(file, line, raw)
}

/// One meaningful line of a document.
#[derive(Debug)]
struct Item {
    line: usize,
    section: String,
    key: String,
    value: Value,
}

/// Scan the document into `(section, key, value)` items.
fn scan(file: &str, text: &str) -> Result<Vec<Item>, ParseError> {
    let mut items = Vec::new();
    let mut section = String::new();
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        // Strip comments outside strings: a `#` inside quotes is content.
        let mut in_str = false;
        let mut code = raw;
        for (pos, c) in raw.char_indices() {
            match c {
                '"' => in_str = !in_str,
                '#' if !in_str => {
                    code = &raw[..pos];
                    break;
                }
                _ => {}
            }
        }
        let code = code.trim();
        if code.is_empty() {
            continue;
        }
        if let Some(rest) = code.strip_prefix('[') {
            let Some(name) = rest.strip_suffix(']') else {
                return Err(err(file, line, format!("malformed section header: {code}")));
            };
            let name = name.trim();
            if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.') {
                return Err(err(file, line, format!("malformed section name: [{name}]")));
            }
            section = name.to_string();
            continue;
        }
        let Some((key, value)) = code.split_once('=') else {
            return Err(err(file, line, format!("expected `key = value`, got: {code}")));
        };
        let key = key.trim();
        if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(err(file, line, format!("malformed key: {key}")));
        }
        items.push(Item {
            line,
            section: section.clone(),
            key: key.to_string(),
            value: parse_value(file, line, value)?,
        });
    }
    Ok(items)
}

// ---------------------------------------------------------------------------
// Typed field extraction
// ---------------------------------------------------------------------------

fn want_u64(file: &str, it: &Item) -> Result<u64, ParseError> {
    match &it.value {
        Value::Int(v) => Ok(*v),
        other => Err(err(
            file,
            it.line,
            format!("key `{}` wants an integer, got {}", it.key, other.type_name()),
        )),
    }
}

fn want_u32(file: &str, it: &Item) -> Result<u32, ParseError> {
    let v = want_u64(file, it)?;
    u32::try_from(v)
        .map_err(|_| err(file, it.line, format!("key `{}` out of range: {v}", it.key)))
}

fn want_u8(file: &str, it: &Item) -> Result<u8, ParseError> {
    let v = want_u64(file, it)?;
    u8::try_from(v)
        .map_err(|_| err(file, it.line, format!("key `{}` out of range: {v}", it.key)))
}

fn want_usize(file: &str, it: &Item) -> Result<usize, ParseError> {
    let v = want_u64(file, it)?;
    usize::try_from(v)
        .map_err(|_| err(file, it.line, format!("key `{}` out of range: {v}", it.key)))
}

fn want_f64(file: &str, it: &Item) -> Result<f64, ParseError> {
    match &it.value {
        Value::Float(v) => Ok(*v),
        Value::Int(v) => Ok(*v as f64), // integer literals coerce to float
        other => Err(err(
            file,
            it.line,
            format!("key `{}` wants a number, got {}", it.key, other.type_name()),
        )),
    }
}

fn want_bool(file: &str, it: &Item) -> Result<bool, ParseError> {
    match &it.value {
        Value::Bool(v) => Ok(*v),
        other => Err(err(
            file,
            it.line,
            format!("key `{}` wants a boolean, got {}", it.key, other.type_name()),
        )),
    }
}

fn want_str<'a>(file: &str, it: &'a Item) -> Result<&'a str, ParseError> {
    match &it.value {
        Value::Str(v) => Ok(v),
        other => Err(err(
            file,
            it.line,
            format!("key `{}` wants a string, got {}", it.key, other.type_name()),
        )),
    }
}

fn want_list<'a>(file: &str, it: &'a Item) -> Result<&'a [Value], ParseError> {
    match &it.value {
        Value::List(v) if !v.is_empty() => Ok(v),
        Value::List(_) => {
            Err(err(file, it.line, format!("sweep axis `{}` must not be empty", it.key)))
        }
        other => Err(err(
            file,
            it.line,
            format!("key `{}` wants a list, got {}", it.key, other.type_name()),
        )),
    }
}

// ---------------------------------------------------------------------------
// Document assembly
// ---------------------------------------------------------------------------

/// Parse a document: syntax + key-level checks, **no**
/// [`ScenarioSpec::validate`] (see [`load_str`] for the validating entry
/// point; the parse/validate split lets the round-trip property test
/// exercise the parser on specs `validate()` would reject).
pub fn parse_str(file: &str, text: &str) -> Result<CorpusDoc, ParseError> {
    let items = scan(file, text)?;
    let mut spec = ScenarioSpec::default();
    let mut tags = Vec::new();
    let mut sweep: Vec<Axis> = Vec::new();
    let mut invariants = InvariantSet::default();

    // Deferred multi-key state.
    let mut mode_str: Option<(usize, String)> = None;
    let mut shards: Option<(usize, u64)> = None;
    let mut link_discipline: Option<(usize, String)> = None;
    let mut link_xoff: Option<usize> = None;
    let mut link_xon: Option<usize> = None;

    let fault_cfg = |cfg: &mut FaultConfig, file: &str, it: &Item| -> Result<bool, ParseError> {
        match it.key.as_str() {
            "drop_chance" => cfg.drop_chance = want_f64(file, it)?,
            "corrupt_chance" => cfg.corrupt_chance = want_f64(file, it)?,
            "reorder_chance" => cfg.reorder_chance = want_f64(file, it)?,
            "duplicate_chance" => cfg.duplicate_chance = want_f64(file, it)?,
            "size_limit" => cfg.size_limit = Some(want_usize(file, it)?),
            _ => return Ok(false),
        }
        Ok(true)
    };

    for it in &items {
        let unknown = || {
            let whole = if it.section.is_empty() {
                it.key.clone()
            } else {
                format!("{}.{}", it.section, it.key)
            };
            Err(err(file, it.line, format!("unknown key `{whole}`")))
        };
        match it.section.as_str() {
            "" => match it.key.as_str() {
                "fat_tree_k" => spec.fat_tree_k = want_u32(file, it)?,
                "reporters" => spec.reporters = want_u32(file, it)?,
                "ops_per_reporter" => spec.ops_per_reporter = want_u32(file, it)?,
                "seed" => spec.seed = want_u64(file, it)?,
                "tick_ns" => spec.tick_ns = want_u64(file, it)?,
                "reports_per_tick" => spec.reports_per_tick = want_usize(file, it)?,
                "drain_ns" => spec.drain_ns = want_u64(file, it)?,
                "mode" => mode_str = Some((it.line, want_str(file, it)?.to_string())),
                "shards" => shards = Some((it.line, want_u64(file, it)?)),
                "tags" => {
                    for v in want_list(file, it)? {
                        match v {
                            Value::Str(s) => tags.push(s.clone()),
                            other => {
                                return Err(err(
                                    file,
                                    it.line,
                                    format!("tags must be strings, got {}", other.type_name()),
                                ))
                            }
                        }
                    }
                }
                _ => return unknown(),
            },
            "traffic" => {
                let t = &mut spec.traffic;
                match it.key.as_str() {
                    "key_write" => t.key_write = want_u32(file, it)?,
                    "append" => t.append = want_u32(file, it)?,
                    "key_increment" => t.key_increment = want_u32(file, it)?,
                    "postcarding" => t.postcarding = want_u32(file, it)?,
                    "kw_redundancy" => t.kw_redundancy = want_u8(file, it)?,
                    "inc_redundancy" => t.inc_redundancy = want_u8(file, it)?,
                    "kw_keys" => t.kw_keys = want_usize(file, it)?,
                    "inc_keys" => t.inc_keys = want_usize(file, it)?,
                    "append_lists" => t.append_lists = want_u32(file, it)?,
                    "slot_disjoint_keys" => t.slot_disjoint_keys = want_bool(file, it)?,
                    "kw_write_once" => t.kw_write_once = want_bool(file, it)?,
                    "inc_slot_disjoint" => t.inc_slot_disjoint = want_bool(file, it)?,
                    _ => return unknown(),
                }
            }
            "faults.report_uplinks" => {
                if !fault_cfg(&mut spec.faults.report_uplinks, file, it)? {
                    return unknown();
                }
            }
            "faults.fabric" => {
                if !fault_cfg(&mut spec.faults.fabric, file, it)? {
                    return unknown();
                }
            }
            "faults.rdma_hop" => {
                if !fault_cfg(&mut spec.faults.rdma_hop, file, it)? {
                    return unknown();
                }
            }
            "congestion" => match it.key.as_str() {
                "nack_on_drop" => spec.congestion.nack_on_drop = want_bool(file, it)?,
                _ => return unknown(),
            },
            "congestion.rate_limit" => {
                let rl = spec
                    .congestion
                    .rate_limit
                    .get_or_insert(RateLimiterConfig::bluefield2());
                match it.key.as_str() {
                    "msgs_per_sec" => rl.msgs_per_sec = want_f64(file, it)?,
                    "burst" => rl.burst = want_u64(file, it)?,
                    _ => return unknown(),
                }
            }
            "congestion.retransmit" => {
                let rx = spec
                    .congestion
                    .retransmit
                    .get_or_insert(RetransmitPolicy::default());
                match it.key.as_str() {
                    "window" => rx.window = want_usize(file, it)?,
                    "max_retries" => rx.max_retries = want_u32(file, it)?,
                    "pace_ns" => rx.pace_ns = want_u64(file, it)?,
                    _ => return unknown(),
                }
            }
            "congestion.rdma_link" => {
                let l = &mut spec.congestion.rdma_link;
                match it.key.as_str() {
                    "bandwidth_bps" => l.bandwidth_bps = want_u64(file, it)?,
                    "latency_ns" => l.latency_ns = want_u64(file, it)?,
                    "queue_bytes" => l.queue_bytes = want_usize(file, it)?,
                    "discipline" => {
                        link_discipline = Some((it.line, want_str(file, it)?.to_string()))
                    }
                    "xoff_bytes" => link_xoff = Some(want_usize(file, it)?),
                    "xon_bytes" => link_xon = Some(want_usize(file, it)?),
                    _ => return unknown(),
                }
            }
            "collectors" => {
                let c = &mut spec.collectors;
                match it.key.as_str() {
                    "count" => c.count = want_u32(file, it)?,
                    "timeout_ns" => c.timeout_ns = want_u64(file, it)?,
                    "min_unacked" => c.min_unacked = want_u64(file, it)?,
                    "ledger_capacity" => c.ledger_capacity = want_usize(file, it)?,
                    _ => return unknown(),
                }
            }
            "collectors.fault" => {
                let f = spec
                    .collectors
                    .fault
                    .get_or_insert(CollectorFaultPlan::kill(0, 0));
                match it.key.as_str() {
                    "victim" => f.victim = want_u32(file, it)?,
                    "kill_at_ns" => f.kill_at_ns = want_u64(file, it)?,
                    "rejoin_at_ns" => f.rejoin_at_ns = Some(want_u64(file, it)?),
                    "spurious" => f.spurious = want_bool(file, it)?,
                    _ => return unknown(),
                }
            }
            "rebalance" => {
                let rb = spec.rebalance.get_or_insert(RebalancePlan::default());
                match it.key.as_str() {
                    "start_at_ns" => rb.start_at_ns = want_u64(file, it)?,
                    "fence_capacity" => rb.fence_capacity = want_usize(file, it)?,
                    "ledger_capacity" => rb.ledger_capacity = want_usize(file, it)?,
                    "drain_batch" => rb.drain_batch = want_usize(file, it)?,
                    "retry_ns" => rb.retry_ns = want_u64(file, it)?,
                    _ => return unknown(),
                }
            }
            "rebalance.faults" => {
                let mf = &mut spec
                    .rebalance
                    .get_or_insert(RebalancePlan::default())
                    .faults;
                match it.key.as_str() {
                    "drop_chance" => mf.drop_chance = want_f64(file, it)?,
                    "duplicate_chance" => mf.duplicate_chance = want_f64(file, it)?,
                    "reorder_chance" => mf.reorder_chance = want_f64(file, it)?,
                    _ => return unknown(),
                }
            }
            "query" => {
                let q = spec.query.get_or_insert(QueryPlan::default());
                match it.key.as_str() {
                    "rate" => q.rate = want_u32(file, it)?,
                    "start_ns" => q.start_ns = want_u64(file, it)?,
                    "stop_ns" => q.stop_ns = want_u64(file, it)?,
                    "seed" => q.seed = want_u64(file, it)?,
                    _ => return unknown(),
                }
            }
            "query.mix" => {
                let m = &mut spec.query.get_or_insert(QueryPlan::default()).mix;
                match it.key.as_str() {
                    "key_write" => m.key_write = want_u32(file, it)?,
                    "append" => m.append = want_u32(file, it)?,
                    "key_increment" => m.key_increment = want_u32(file, it)?,
                    "postcarding" => m.postcarding = want_u32(file, it)?,
                    _ => return unknown(),
                }
            }
            "translator" => {
                let t = &mut spec.translator;
                match it.key.as_str() {
                    "postcard_cache_slots" => t.postcard_cache_slots = want_usize(file, it)?,
                    "postcard_hops" => t.postcard_hops = want_u8(file, it)?,
                    "postcard_bits" => t.postcard_bits = want_u32(file, it)?,
                    "postcard_values" => t.postcard_values = want_u32(file, it)?,
                    "postcard_redundancy" => t.postcard_redundancy = want_usize(file, it)?,
                    "append_batch" => t.append_batch = want_usize(file, it)?,
                    "mtu" => t.mtu = want_usize(file, it)?,
                    "key_scratch_entries" => t.key_scratch_entries = want_usize(file, it)?,
                    _ => return unknown(),
                }
            }
            "translator.rate_limit" => {
                let rl = spec
                    .translator
                    .rate_limit
                    .get_or_insert(RateLimiterConfig::bluefield2());
                match it.key.as_str() {
                    "msgs_per_sec" => rl.msgs_per_sec = want_f64(file, it)?,
                    "burst" => rl.burst = want_u64(file, it)?,
                    _ => return unknown(),
                }
            }
            "service" => {
                let s = &mut spec.service;
                match it.key.as_str() {
                    "kw_bytes" => s.kw_bytes = want_u64(file, it)?,
                    "kw_value_bytes" => s.kw_value_bytes = want_u32(file, it)?,
                    "postcard_bytes" => s.postcard_bytes = want_u64(file, it)?,
                    "postcard_hops" => s.postcard_hops = want_u8(file, it)?,
                    "postcard_bits" => s.postcard_bits = want_u32(file, it)?,
                    "postcard_values" => s.postcard_values = want_u32(file, it)?,
                    "append_lists" => s.append_lists = want_u32(file, it)?,
                    "append_entries" => s.append_entries = want_u64(file, it)?,
                    "append_entry_bytes" => s.append_entry_bytes = want_u32(file, it)?,
                    "cms_slots" => s.cms_slots = want_u64(file, it)?,
                    "max_redundancy" => s.max_redundancy = want_usize(file, it)?,
                    _ => return unknown(),
                }
            }
            "service.nic" => {
                let n = &mut spec.service.nic;
                match it.key.as_str() {
                    "msg_rate" => n.msg_rate = want_f64(file, it)?,
                    "line_rate_bps" => n.line_rate_bps = want_f64(file, it)?,
                    "num_nics" => n.num_nics = want_u32(file, it)?,
                    "ack_coalesce" => n.ack_coalesce = want_u32(file, it)?,
                    _ => return unknown(),
                }
            }
            "sweep" => {
                let vals = want_list(file, it)?;
                let ints = |vals: &[Value]| -> Result<Vec<u64>, ParseError> {
                    vals.iter()
                        .map(|v| match v {
                            Value::Int(n) => Ok(*n),
                            other => Err(err(
                                file,
                                it.line,
                                format!(
                                    "sweep axis `{}` wants integers, got {}",
                                    it.key,
                                    other.type_name()
                                ),
                            )),
                        })
                        .collect()
                };
                let floats = |vals: &[Value]| -> Result<Vec<f64>, ParseError> {
                    vals.iter()
                        .map(|v| match v {
                            Value::Float(n) => Ok(*n),
                            Value::Int(n) => Ok(*n as f64),
                            other => Err(err(
                                file,
                                it.line,
                                format!(
                                    "sweep axis `{}` wants numbers, got {}",
                                    it.key,
                                    other.type_name()
                                ),
                            )),
                        })
                        .collect()
                };
                let axis = match it.key.as_str() {
                    "seed" => Axis::Seed(ints(vals)?),
                    "mode" => {
                        let modes = vals
                            .iter()
                            .map(|v| match v {
                                Value::Str(s) => parse_mode_label(s).ok_or_else(|| {
                                    err(
                                        file,
                                        it.line,
                                        format!(
                                            "bad mode `{s}` (want `single` or `sharded<N>`)"
                                        ),
                                    )
                                }),
                                other => Err(err(
                                    file,
                                    it.line,
                                    format!(
                                        "sweep axis `mode` wants strings, got {}",
                                        other.type_name()
                                    ),
                                )),
                            })
                            .collect::<Result<Vec<_>, _>>()?;
                        Axis::Mode(modes)
                    }
                    "victim" => Axis::Victim(
                        ints(vals)?
                            .into_iter()
                            .map(|v| {
                                u32::try_from(v).map_err(|_| {
                                    err(file, it.line, format!("victim out of range: {v}"))
                                })
                            })
                            .collect::<Result<Vec<_>, _>>()?,
                    ),
                    "kill_at_ns" => Axis::KillAt(ints(vals)?),
                    "drop" => Axis::Drop(floats(vals)?),
                    "reorder" => Axis::Reorder(floats(vals)?),
                    "duplicate" => Axis::Duplicate(floats(vals)?),
                    _ => return unknown(),
                };
                if sweep.iter().any(|a| a.name() == axis.name()) {
                    return Err(err(
                        file,
                        it.line,
                        format!("duplicate sweep axis `{}`", it.key),
                    ));
                }
                sweep.push(axis);
            }
            "invariants" => {
                let on = want_bool(file, it)?;
                match it.key.as_str() {
                    "bit_reproducible" => invariants.bit_reproducible = on,
                    "cross_mode_memory_equal" => invariants.cross_mode_memory_equal = on,
                    "no_unsent" => invariants.no_unsent = on,
                    "no_fabric_drops" => invariants.no_fabric_drops = on,
                    "ledger_closure" => invariants.ledger_closure = on,
                    "fanout_lookups_zero" => invariants.fanout_lookups_zero = on,
                    "kw_audit_clean" => invariants.kw_audit_clean = on,
                    "queries_answered" => invariants.queries_answered = on,
                    "kw_audit_vs_montecarlo" => invariants.kw_audit_vs_montecarlo = on,
                    _ => return unknown(),
                }
            }
            _ => {
                return Err(err(
                    file,
                    it.line,
                    format!("unknown section `[{}]`", it.section),
                ))
            }
        }
    }

    // Finalize the translator mode.
    match (mode_str, shards) {
        (None, None) => {}
        (None, Some((line, _))) => {
            return Err(err(file, line, "`shards` without `mode = \"sharded\"`"));
        }
        (Some((_, m)), None) if m == "single" => spec.mode = TranslatorMode::SingleThreaded,
        (Some((line, m)), Some(_)) if m == "single" => {
            return Err(err(file, line, "`mode = \"single\"` does not take `shards`"));
        }
        (Some((line, m)), None) if m == "sharded" => {
            return Err(err(file, line, "`mode = \"sharded\"` needs a `shards` key"));
        }
        (Some((_, m)), Some((sline, s))) if m == "sharded" => {
            let s = usize::try_from(s)
                .ok()
                .filter(|&s| s >= 1)
                .ok_or_else(|| err(file, sline, format!("bad shard count: {s}")))?;
            spec.mode = TranslatorMode::Sharded { shards: s };
        }
        (Some((line, m)), _) => {
            return Err(err(
                file,
                line,
                format!("bad enum variant `{m}` for key `mode` (want `single` or `sharded`)"),
            ));
        }
    }

    // Finalize the RoCE-hop queue discipline.
    if link_discipline.is_some() || link_xoff.is_some() || link_xon.is_some() {
        let dflt = match LinkConfig::dc_100g_lossless().discipline {
            QueueDiscipline::Lossless { xoff_bytes, xon_bytes } => (xoff_bytes, xon_bytes),
            QueueDiscipline::Lossy => unreachable!(),
        };
        match link_discipline {
            Some((_, ref d)) if d == "lossy" => {
                if link_xoff.is_some() || link_xon.is_some() {
                    let line = link_discipline.map(|(l, _)| l).unwrap_or(0);
                    return Err(err(
                        file,
                        line,
                        "xoff_bytes/xon_bytes only apply to discipline = \"lossless\"",
                    ));
                }
                spec.congestion.rdma_link.discipline = QueueDiscipline::Lossy;
            }
            Some((_, ref d)) if d == "lossless" => {
                spec.congestion.rdma_link.discipline = QueueDiscipline::Lossless {
                    xoff_bytes: link_xoff.unwrap_or(dflt.0),
                    xon_bytes: link_xon.unwrap_or(dflt.1),
                };
            }
            Some((line, d)) => {
                return Err(err(
                    file,
                    line,
                    format!(
                        "bad enum variant `{d}` for key `discipline` (want `lossy` or `lossless`)"
                    ),
                ));
            }
            None => {
                // xoff/xon against the current discipline (must be lossless).
                match &mut spec.congestion.rdma_link.discipline {
                    QueueDiscipline::Lossless { xoff_bytes, xon_bytes } => {
                        if let Some(x) = link_xoff {
                            *xoff_bytes = x;
                        }
                        if let Some(x) = link_xon {
                            *xon_bytes = x;
                        }
                    }
                    QueueDiscipline::Lossy => {
                        return Err(err(
                            file,
                            0,
                            "xoff_bytes/xon_bytes only apply to discipline = \"lossless\"",
                        ));
                    }
                }
            }
        }
    }

    // Sweep-level consistency: axes that poke a fault plan need one, and
    // the cross-mode invariant needs modes to compare.
    for axis in &sweep {
        if matches!(axis, Axis::Victim(_) | Axis::KillAt(_)) && spec.collectors.fault.is_none() {
            return Err(err(
                file,
                0,
                format!("sweep axis `{}` needs a [collectors.fault] section", axis.name()),
            ));
        }
    }
    if invariants.cross_mode_memory_equal {
        let modes = sweep.iter().find_map(|a| match a {
            Axis::Mode(m) => Some(m.len()),
            _ => None,
        });
        if modes.unwrap_or(0) < 2 {
            return Err(err(
                file,
                0,
                "invariant `cross_mode_memory_equal` needs a sweep `mode` axis with >= 2 values",
            ));
        }
    }

    Ok(CorpusDoc { file: file.to_string(), spec, tags, sweep, invariants })
}

/// Parse **and validate**: the base spec and every expanded sweep cell go
/// through [`ScenarioSpec::validate`]; the first rejection is reported with
/// the offending cell's coordinates.
pub fn load_str(file: &str, text: &str) -> Result<CorpusDoc, ParseError> {
    let doc = parse_str(file, text)?;
    doc.spec
        .validate()
        .map_err(|m| err(file, 0, format!("invalid base spec: {m}")))?;
    for cell in doc.cells() {
        cell.spec.validate().map_err(|m| {
            err(file, 0, format!("invalid sweep cell [{}]: {m}", cell.id()))
        })?;
    }
    Ok(doc)
}

/// The checked-in `scenarios/<name>.toml` files the suites and benches run
/// by name, embedded at build time. The files are the only source of
/// these deployments; `corpus_suite` validates every one of them.
const PRESETS: [(&str, &str); 6] = [
    ("smoke", include_str!("../../../scenarios/smoke.toml")),
    ("congested", include_str!("../../../scenarios/congested.toml")),
    ("failover", include_str!("../../../scenarios/failover.toml")),
    ("rebalance", include_str!("../../../scenarios/rebalance.toml")),
    ("query_under_load", include_str!("../../../scenarios/query_under_load.toml")),
    ("large", include_str!("../../../scenarios/large.toml")),
];

impl ScenarioSpec {
    /// The base spec of the preset scenario `name` (see [`PRESETS`]; each
    /// file's header says what the deployment is for), run under `mode`.
    ///
    /// # Panics
    /// Panics on a name that is not a preset, or if the embedded file does
    /// not parse — both are bugs in this repository, not input errors.
    pub fn preset(name: &str, mode: TranslatorMode) -> ScenarioSpec {
        let (_, text) = PRESETS
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no preset scenario named {name:?}"));
        let doc = parse_str(name, text).unwrap_or_else(|e| panic!("preset scenario: {e}"));
        ScenarioSpec { mode, ..doc.spec }
    }
}

/// [`load_str`] over a file on disk.
pub fn load_file(path: &std::path::Path) -> Result<CorpusDoc, ParseError> {
    let name = path.display().to_string();
    let text = std::fs::read_to_string(path)
        .map_err(|e| err(&name, 0, format!("cannot read: {e}")))?;
    load_str(&name, &text)
}

/// Load every `*.toml` under `dir` (non-recursive), sorted by file name so
/// corpus iteration order — and therefore sweep sampling — is
/// deterministic. Any unreadable or invalid file fails the whole load.
pub fn load_dir(dir: &std::path::Path) -> Result<Vec<CorpusDoc>, ParseError> {
    let name = dir.display().to_string();
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| err(&name, 0, format!("cannot read dir: {e}")))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "toml") && p.is_file())
        .collect();
    paths.sort();
    paths.iter().map(|p| load_file(p)).collect()
}

// ---------------------------------------------------------------------------
// Rendering: ScenarioSpec -> document text
// ---------------------------------------------------------------------------

/// Render `spec` as a complete corpus document body: every field of every
/// section, explicitly. [`parse_str`] on the output yields `spec` exactly
/// (the round-trip property test pins this). Sweep/invariant/tag sections
/// are corpus-file metadata, not spec state, so they are not emitted —
/// append them to the returned string when authoring a corpus file.
pub fn render_spec(spec: &ScenarioSpec) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let f = |v: f64| format!("{v:?}");
    writeln!(s, "fat_tree_k = {}", spec.fat_tree_k).unwrap();
    writeln!(s, "reporters = {}", spec.reporters).unwrap();
    writeln!(s, "ops_per_reporter = {}", spec.ops_per_reporter).unwrap();
    writeln!(s, "seed = {}", spec.seed).unwrap();
    writeln!(s, "tick_ns = {}", spec.tick_ns).unwrap();
    writeln!(s, "reports_per_tick = {}", spec.reports_per_tick).unwrap();
    writeln!(s, "drain_ns = {}", spec.drain_ns).unwrap();
    match spec.mode {
        TranslatorMode::SingleThreaded => writeln!(s, "mode = \"single\"").unwrap(),
        TranslatorMode::Sharded { shards } => {
            writeln!(s, "mode = \"sharded\"").unwrap();
            writeln!(s, "shards = {shards}").unwrap();
        }
    }

    let t = &spec.traffic;
    writeln!(s, "\n[traffic]").unwrap();
    writeln!(s, "key_write = {}", t.key_write).unwrap();
    writeln!(s, "append = {}", t.append).unwrap();
    writeln!(s, "key_increment = {}", t.key_increment).unwrap();
    writeln!(s, "postcarding = {}", t.postcarding).unwrap();
    writeln!(s, "kw_redundancy = {}", t.kw_redundancy).unwrap();
    writeln!(s, "inc_redundancy = {}", t.inc_redundancy).unwrap();
    writeln!(s, "kw_keys = {}", t.kw_keys).unwrap();
    writeln!(s, "inc_keys = {}", t.inc_keys).unwrap();
    writeln!(s, "append_lists = {}", t.append_lists).unwrap();
    writeln!(s, "slot_disjoint_keys = {}", t.slot_disjoint_keys).unwrap();
    writeln!(s, "kw_write_once = {}", t.kw_write_once).unwrap();
    writeln!(s, "inc_slot_disjoint = {}", t.inc_slot_disjoint).unwrap();

    for (name, cfg) in [
        ("report_uplinks", &spec.faults.report_uplinks),
        ("fabric", &spec.faults.fabric),
        ("rdma_hop", &spec.faults.rdma_hop),
    ] {
        writeln!(s, "\n[faults.{name}]").unwrap();
        writeln!(s, "drop_chance = {}", f(cfg.drop_chance)).unwrap();
        writeln!(s, "corrupt_chance = {}", f(cfg.corrupt_chance)).unwrap();
        writeln!(s, "reorder_chance = {}", f(cfg.reorder_chance)).unwrap();
        writeln!(s, "duplicate_chance = {}", f(cfg.duplicate_chance)).unwrap();
        if let Some(limit) = cfg.size_limit {
            writeln!(s, "size_limit = {limit}").unwrap();
        }
    }

    let c = &spec.congestion;
    writeln!(s, "\n[congestion]").unwrap();
    writeln!(s, "nack_on_drop = {}", c.nack_on_drop).unwrap();
    if let Some(rl) = &c.rate_limit {
        writeln!(s, "\n[congestion.rate_limit]").unwrap();
        writeln!(s, "msgs_per_sec = {}", f(rl.msgs_per_sec)).unwrap();
        writeln!(s, "burst = {}", rl.burst).unwrap();
    }
    if let Some(rx) = &c.retransmit {
        writeln!(s, "\n[congestion.retransmit]").unwrap();
        writeln!(s, "window = {}", rx.window).unwrap();
        writeln!(s, "max_retries = {}", rx.max_retries).unwrap();
        writeln!(s, "pace_ns = {}", rx.pace_ns).unwrap();
    }
    writeln!(s, "\n[congestion.rdma_link]").unwrap();
    writeln!(s, "bandwidth_bps = {}", c.rdma_link.bandwidth_bps).unwrap();
    writeln!(s, "latency_ns = {}", c.rdma_link.latency_ns).unwrap();
    writeln!(s, "queue_bytes = {}", c.rdma_link.queue_bytes).unwrap();
    match c.rdma_link.discipline {
        QueueDiscipline::Lossy => writeln!(s, "discipline = \"lossy\"").unwrap(),
        QueueDiscipline::Lossless { xoff_bytes, xon_bytes } => {
            writeln!(s, "discipline = \"lossless\"").unwrap();
            writeln!(s, "xoff_bytes = {xoff_bytes}").unwrap();
            writeln!(s, "xon_bytes = {xon_bytes}").unwrap();
        }
    }

    let cp = &spec.collectors;
    writeln!(s, "\n[collectors]").unwrap();
    writeln!(s, "count = {}", cp.count).unwrap();
    writeln!(s, "timeout_ns = {}", cp.timeout_ns).unwrap();
    writeln!(s, "min_unacked = {}", cp.min_unacked).unwrap();
    writeln!(s, "ledger_capacity = {}", cp.ledger_capacity).unwrap();
    if let Some(fault) = &cp.fault {
        writeln!(s, "\n[collectors.fault]").unwrap();
        writeln!(s, "victim = {}", fault.victim).unwrap();
        writeln!(s, "kill_at_ns = {}", fault.kill_at_ns).unwrap();
        if let Some(rejoin) = fault.rejoin_at_ns {
            writeln!(s, "rejoin_at_ns = {rejoin}").unwrap();
        }
        writeln!(s, "spurious = {}", fault.spurious).unwrap();
    }
    if let Some(rb) = &spec.rebalance {
        writeln!(s, "\n[rebalance]").unwrap();
        writeln!(s, "start_at_ns = {}", rb.start_at_ns).unwrap();
        writeln!(s, "fence_capacity = {}", rb.fence_capacity).unwrap();
        writeln!(s, "ledger_capacity = {}", rb.ledger_capacity).unwrap();
        writeln!(s, "drain_batch = {}", rb.drain_batch).unwrap();
        writeln!(s, "retry_ns = {}", rb.retry_ns).unwrap();
        writeln!(s, "\n[rebalance.faults]").unwrap();
        writeln!(s, "drop_chance = {}", f(rb.faults.drop_chance)).unwrap();
        writeln!(s, "duplicate_chance = {}", f(rb.faults.duplicate_chance)).unwrap();
        writeln!(s, "reorder_chance = {}", f(rb.faults.reorder_chance)).unwrap();
    }
    if let Some(q) = &spec.query {
        writeln!(s, "\n[query]").unwrap();
        writeln!(s, "rate = {}", q.rate).unwrap();
        writeln!(s, "start_ns = {}", q.start_ns).unwrap();
        writeln!(s, "stop_ns = {}", q.stop_ns).unwrap();
        writeln!(s, "seed = {}", q.seed).unwrap();
        writeln!(s, "\n[query.mix]").unwrap();
        writeln!(s, "key_write = {}", q.mix.key_write).unwrap();
        writeln!(s, "append = {}", q.mix.append).unwrap();
        writeln!(s, "key_increment = {}", q.mix.key_increment).unwrap();
        writeln!(s, "postcarding = {}", q.mix.postcarding).unwrap();
    }

    let tc = &spec.translator;
    writeln!(s, "\n[translator]").unwrap();
    writeln!(s, "postcard_cache_slots = {}", tc.postcard_cache_slots).unwrap();
    writeln!(s, "postcard_hops = {}", tc.postcard_hops).unwrap();
    writeln!(s, "postcard_bits = {}", tc.postcard_bits).unwrap();
    writeln!(s, "postcard_values = {}", tc.postcard_values).unwrap();
    writeln!(s, "postcard_redundancy = {}", tc.postcard_redundancy).unwrap();
    writeln!(s, "append_batch = {}", tc.append_batch).unwrap();
    writeln!(s, "mtu = {}", tc.mtu).unwrap();
    writeln!(s, "key_scratch_entries = {}", tc.key_scratch_entries).unwrap();
    if let Some(rl) = &tc.rate_limit {
        writeln!(s, "\n[translator.rate_limit]").unwrap();
        writeln!(s, "msgs_per_sec = {}", f(rl.msgs_per_sec)).unwrap();
        writeln!(s, "burst = {}", rl.burst).unwrap();
    }

    let sv = &spec.service;
    writeln!(s, "\n[service]").unwrap();
    writeln!(s, "kw_bytes = {}", sv.kw_bytes).unwrap();
    writeln!(s, "kw_value_bytes = {}", sv.kw_value_bytes).unwrap();
    writeln!(s, "postcard_bytes = {}", sv.postcard_bytes).unwrap();
    writeln!(s, "postcard_hops = {}", sv.postcard_hops).unwrap();
    writeln!(s, "postcard_bits = {}", sv.postcard_bits).unwrap();
    writeln!(s, "postcard_values = {}", sv.postcard_values).unwrap();
    writeln!(s, "append_lists = {}", sv.append_lists).unwrap();
    writeln!(s, "append_entries = {}", sv.append_entries).unwrap();
    writeln!(s, "append_entry_bytes = {}", sv.append_entry_bytes).unwrap();
    writeln!(s, "cms_slots = {}", sv.cms_slots).unwrap();
    writeln!(s, "max_redundancy = {}", sv.max_redundancy).unwrap();
    writeln!(s, "\n[service.nic]").unwrap();
    writeln!(s, "msg_rate = {}", f(sv.nic.msg_rate)).unwrap();
    writeln!(s, "line_rate_bps = {}", f(sv.nic.line_rate_bps)).unwrap();
    writeln!(s, "num_nics = {}", sv.nic.num_nics).unwrap();
    writeln!(s, "ack_coalesce = {}", sv.nic.ack_coalesce).unwrap();
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CollectorPlan, FaultPlan};

    #[test]
    fn empty_document_is_the_default_spec() {
        let doc = load_str("empty.toml", "").unwrap();
        assert_eq!(doc.spec, ScenarioSpec::default());
        assert!(doc.tags.is_empty());
        assert!(doc.sweep.is_empty());
        assert!(!doc.invariants.any());
        assert_eq!(doc.cell_count(), 1);
        assert_eq!(doc.cells()[0].id(), "base");
    }

    #[test]
    fn presets_render_and_reparse_identically() {
        let modes = [TranslatorMode::SingleThreaded, TranslatorMode::Sharded { shards: 4 }];
        let mut specs = vec![("default", ScenarioSpec::default())];
        for (name, _) in PRESETS {
            specs.extend(modes.map(|mode| (name, ScenarioSpec::preset(name, mode))));
        }
        for (name, spec) in specs {
            let text = render_spec(&spec);
            let doc = parse_str(name, &text)
                .unwrap_or_else(|e| panic!("{name} failed to reparse: {e}"));
            assert_eq!(doc.spec, spec, "{name} did not round-trip");
        }
    }

    #[test]
    fn sweep_grid_expands_in_declaration_order() {
        let doc = load_str(
            "g.toml",
            "[traffic]\nslot_disjoint_keys = true\n\
             [sweep]\nseed = [1, 2]\nmode = [\"single\", \"sharded4\"]\n",
        )
        .unwrap();
        assert_eq!(doc.cell_count(), 4);
        let cells = doc.cells();
        let ids: Vec<String> = cells.iter().map(|c| c.id()).collect();
        assert_eq!(
            ids,
            [
                "seed=1,mode=single",
                "seed=1,mode=sharded4",
                "seed=2,mode=single",
                "seed=2,mode=sharded4"
            ]
        );
        assert_eq!(cells[1].spec.seed, 1);
        assert_eq!(cells[1].spec.mode, TranslatorMode::Sharded { shards: 4 });
        assert_eq!(cells[3].mode_group_id(), "seed=2");
        // Smoke cells: one per mode value, all other axes at first value.
        let smoke = doc.smoke_cells();
        assert_eq!(smoke.len(), 2);
        assert_eq!(smoke[0].id(), "seed=1,mode=single");
        assert_eq!(smoke[1].id(), "seed=1,mode=sharded4");
    }

    #[test]
    fn fault_axes_rewrite_the_report_path() {
        let doc = load_str("f.toml", "[sweep]\ndrop = [0.0, 0.1]\nreorder = [0.05]\n").unwrap();
        let cells = doc.cells();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[1].spec.faults.report_uplinks.drop_chance, 0.1);
        assert_eq!(cells[1].spec.faults.fabric.drop_chance, 0.1);
        assert_eq!(cells[1].spec.faults.fabric.reorder_chance, 0.05);
        assert_eq!(cells[1].spec.faults.rdma_hop, dta_net::FaultConfig::none());
    }

    #[test]
    fn unknown_keys_and_sections_name_the_offender() {
        let e = load_str("bad.toml", "[traffic]\nkeywrite = 4\n").unwrap_err();
        assert!(e.message.contains("traffic.keywrite"), "{e}");
        assert_eq!(e.line, 2);
        let e = load_str("bad.toml", "[trafic]\nkey_write = 4\n").unwrap_err();
        assert!(e.message.contains("[trafic]"), "{e}");
        let e = load_str("bad.toml", "mode = \"turbo\"\n").unwrap_err();
        assert!(e.message.contains("turbo") && e.message.contains("mode"), "{e}");
        let e = load_str("bad.toml", "reporters = \"eight\"\n").unwrap_err();
        assert!(e.message.contains("reporters") && e.message.contains("integer"), "{e}");
    }

    #[test]
    fn invalid_cells_are_caught_at_load_time() {
        // Base spec is valid; the sharded cell would carry rdma_hop faults.
        let text = "[faults.rdma_hop]\ndrop_chance = 0.1\n\
                    [sweep]\nmode = [\"single\", \"sharded4\"]\n";
        let e = load_str("cell.toml", text).unwrap_err();
        assert!(e.message.contains("mode=sharded4"), "{e}");
        assert!(e.message.contains("rdma_hop"), "{e}");
        // parse_str alone accepts it — validation is load_str's job.
        assert!(parse_str("cell.toml", text).is_ok());
    }

    #[test]
    fn victim_axis_requires_a_fault_plan() {
        let e = load_str("v.toml", "[sweep]\nvictim = [0, 1]\n").unwrap_err();
        assert!(e.message.contains("victim") && e.message.contains("collectors.fault"), "{e}");
    }

    #[test]
    fn cross_mode_invariant_requires_a_mode_axis() {
        let e = load_str("x.toml", "[invariants]\ncross_mode_memory_equal = true\n").unwrap_err();
        assert!(e.message.contains("cross_mode_memory_equal"), "{e}");
        assert!(load_str(
            "x.toml",
            "[traffic]\nslot_disjoint_keys = true\n\
             [sweep]\nmode = [\"single\", \"sharded2\"]\n\
             [invariants]\ncross_mode_memory_equal = true\n"
        )
        .is_ok());
    }

    #[test]
    fn victim_and_kill_axes_apply_to_the_fault_plan() {
        let text = "\
ops_per_reporter = 48
drain_ns = 600_000
[traffic]
key_write = 1
append = 0
key_increment = 1
postcarding = 0
kw_keys = 2048
slot_disjoint_keys = true
kw_write_once = true
inc_slot_disjoint = true
[collectors]
count = 3
timeout_ns = 8000
[collectors.fault]
victim = 1
kill_at_ns = 12_000
spurious = false
[service.nic]
ack_coalesce = 8
[sweep]
victim = [0, 2]
kill_at_ns = [9_000, 12_000]
";
        let doc = load_str("fo.toml", text).unwrap();
        assert_eq!(doc.spec, ScenarioSpec::preset("failover", TranslatorMode::SingleThreaded));
        let cells = doc.cells();
        assert_eq!(cells.len(), 4);
        let f = cells[3].spec.collectors.fault.unwrap();
        assert_eq!((f.victim, f.kill_at_ns), (2, 12_000));
        assert_eq!(cells[3].id(), "victim=2,kill_at_ns=12000");
    }

    #[test]
    fn tags_parse_and_select() {
        let doc =
            load_str("t.toml", "tags = [\"cross_mode_identical\", \"grid\"]\n").unwrap();
        assert!(doc.has_tag("cross_mode_identical"));
        assert!(!doc.has_tag("nope"));
    }

    #[test]
    fn comments_and_underscores_are_tolerated() {
        let doc = load_str(
            "c.toml",
            "# a comment\nseed = 1_000_000 # trailing\n[collectors] # section comment\ncount = 1\n",
        )
        .unwrap();
        assert_eq!(doc.spec.seed, 1_000_000);
        assert_eq!(doc.spec.collectors, CollectorPlan::single());
    }

    #[test]
    fn document_level_validation_wraps_spec_validate() {
        // min_unacked at the coalescing floor: ScenarioSpec::validate's
        // message, wrapped with the file context.
        let text = "[traffic]\nappend = 0\npostcarding = 0\n\
                    [collectors]\ncount = 3\nmin_unacked = 2\n";
        let e = load_str("floor.toml", text).unwrap_err();
        assert_eq!(e.file, "floor.toml");
        assert!(e.message.contains("min_unacked"), "{e}");
    }

    #[test]
    fn faults_sections_cover_every_channel() {
        let doc = load_str(
            "f.toml",
            "[faults.report_uplinks]\ndrop_chance = 0.1\nsize_limit = 1500\n\
             [faults.fabric]\nreorder_chance = 0.2\n\
             [faults.rdma_hop]\nduplicate_chance = 0.3\n",
        )
        .unwrap();
        let want = FaultPlan {
            report_uplinks: dta_net::FaultConfig {
                drop_chance: 0.1,
                size_limit: Some(1500),
                ..dta_net::FaultConfig::none()
            },
            fabric: dta_net::FaultConfig {
                reorder_chance: 0.2,
                ..dta_net::FaultConfig::none()
            },
            rdma_hop: dta_net::FaultConfig {
                duplicate_chance: 0.3,
                ..dta_net::FaultConfig::none()
            },
        };
        assert_eq!(doc.spec.faults, want);
    }
}

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
//! * an optional **`[invariants]` set** — per-file [`Invariant`]s checked
//!   on every cell (bit-reproducibility, cross-mode memory equality, ledger
//!   closure, `fanout_lookups == 0`, ...) by `dta_bench::invariants`, which
//!   the `sweep` bin and the root `tests/corpus.rs` both call.
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
//! identical spec. Both walk one table, `KEYS`, in which every spec key is
//! declared once with how it reads and how it renders — so a new plan
//! field is one `key!` line and cannot be added to one side only. The
//! round-trip property test checks what the table cannot: that what a key
//! renders is what it reads back.

use std::fmt;

use dta_net::{LinkConfig, QueueDiscipline};
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

/// Declares [`Invariant`] and its [`Invariant::ALL`] table from one list of
/// `Variant = "name"` rows, so a row's variant, doc and `[invariants]` key
/// are written once.
macro_rules! invariants {
    ($($(#[doc = $doc:literal])+ $variant:ident = $name:literal,)+) => {
        /// One assertion a corpus file can declare under `[invariants]`.
        /// `dta_bench::invariants::check_file` holds each one's check, in a
        /// `match` with one arm per variant.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Invariant {
            $($(#[doc = $doc])+ $variant,)+
        }

        impl Invariant {
            /// Every invariant with its `[invariants]` key, in declaration
            /// order (the order the coverage report lists them in).
            pub const ALL: &'static [(Invariant, &'static str)] =
                &[$((Invariant::$variant, $name),)+];
        }
    };
}

invariants! {
    /// Run each cell twice; the [`crate::ScenarioReport`]s and collector
    /// memory must be byte-identical.
    BitReproducible = "bit_reproducible",
    /// Cells differing only in the `mode` axis must leave byte-identical
    /// collector memory. Requires a `mode` sweep axis with >= 2 values.
    CrossModeMemoryEqual = "cross_mode_memory_equal",
    /// `reports_unsent == 0`: the emission window covered the schedule.
    NoUnsent = "no_unsent",
    /// `net.dropped == 0` and zero injected drops — for clean-fabric files.
    NoFabricDrops = "no_fabric_drops",
    /// Every bounded ledger closes: the reporter retransmit window
    /// ([`dta_reporter::RetxStats::ledger_closes`]), the failover replay
    /// ledger, and the rebalance migration ledger.
    LedgerClosure = "ledger_closure",
    /// `queries.fanout_lookups == 0`: every key queried back from its
    /// routed owner (the post-rebalance single-owner property).
    FanoutLookupsZero = "fanout_lookups_zero",
    /// `kw_missing == 0 && kw_ambiguous == 0`: every written Key-Write key
    /// queried back unambiguously.
    KwAuditClean = "kw_audit_clean",
    /// `query.answered > 0`: a [`crate::QueryPlan`] cell actually served
    /// queries during the write phase (guards against a start/stop window
    /// that misses every epoch).
    QueriesAnswered = "queries_answered",
    /// Check the observed Key-Write audit success rate against the
    /// Appendix A.5 closed form `dta_analysis::keywrite::kw_success_rate`
    /// at the same load (slots, redundancy, keys written).
    KwAuditVsBound = "kw_audit_vs_bound",
}

// `InvariantSet` keeps one bit per row in a `u16`, indexed by discriminant
// (`invariants!` lists `ALL` in variant order).
const _: () = assert!(Invariant::ALL.len() <= 16);

impl Invariant {
    /// The invariant's `[invariants]` key.
    pub fn name(self) -> &'static str {
        Self::ALL[self as usize].1
    }
}

/// The invariants a corpus file opts into: one bit per [`Invariant`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InvariantSet(u16);

impl InvariantSet {
    /// Whether `inv` is enabled.
    pub fn contains(self, inv: Invariant) -> bool {
        self.0 & (1 << inv as u16) != 0
    }

    /// The enabled invariants, in declaration order.
    pub fn enabled(self) -> impl Iterator<Item = Invariant> {
        Invariant::ALL.iter().map(|&(inv, _)| inv).filter(move |&inv| self.contains(inv))
    }

    /// Whether any invariant is enabled.
    pub fn any(self) -> bool {
        self.enabled().next().is_some()
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

/// A parsed corpus file: base spec, sweep grid, invariants.
#[derive(Debug, Clone)]
pub struct CorpusDoc {
    /// File name the document was parsed from (error context, report key).
    pub file: String,
    /// The base scenario (defaults filled in).
    pub spec: ScenarioSpec,
    /// Sweep axes in declaration order (empty = single-cell file).
    pub sweep: Vec<Axis>,
    /// Per-file assertions every cell is checked against.
    pub invariants: InvariantSet,
}

impl CorpusDoc {
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

/// A field type the grammar can carry: how it reads from an [`Item`] (the
/// error names the key) and how it renders (`None` omits the line).
trait Scalar: Sized {
    fn read(it: &Item) -> Result<Self, String>;
    fn show(&self) -> Option<String>;
}

impl Scalar for u64 {
    fn read(it: &Item) -> Result<Self, String> {
        match &it.value {
            Value::Int(v) => Ok(*v),
            other => {
                Err(format!("key `{}` wants an integer, got {}", it.key, other.type_name()))
            }
        }
    }
    fn show(&self) -> Option<String> {
        Some(self.to_string())
    }
}

macro_rules! narrowed_scalar {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            fn read(it: &Item) -> Result<Self, String> {
                let v = u64::read(it)?;
                <$t>::try_from(v).map_err(|_| format!("key `{}` out of range: {v}", it.key))
            }
            fn show(&self) -> Option<String> {
                Some(self.to_string())
            }
        }
    )*};
}
narrowed_scalar!(u32, u8, usize);

impl Scalar for f64 {
    fn read(it: &Item) -> Result<Self, String> {
        match &it.value {
            Value::Float(v) => Ok(*v),
            Value::Int(v) => Ok(*v as f64), // integer literals coerce to float
            other => Err(format!("key `{}` wants a number, got {}", it.key, other.type_name())),
        }
    }
    /// `{:?}` keeps the `.0` on whole numbers, so the value re-parses as a float.
    fn show(&self) -> Option<String> {
        Some(format!("{self:?}"))
    }
}

impl Scalar for bool {
    fn read(it: &Item) -> Result<Self, String> {
        match &it.value {
            Value::Bool(v) => Ok(*v),
            other => Err(format!("key `{}` wants a boolean, got {}", it.key, other.type_name())),
        }
    }
    fn show(&self) -> Option<String> {
        Some(self.to_string())
    }
}

/// An optional field: naming the key sets it, `None` renders nothing.
impl<T: Scalar> Scalar for Option<T> {
    fn read(it: &Item) -> Result<Self, String> {
        T::read(it).map(Some)
    }
    fn show(&self) -> Option<String> {
        self.as_ref().and_then(T::show)
    }
}

fn want_str(it: &Item) -> Result<&str, String> {
    match &it.value {
        Value::Str(v) => Ok(v),
        other => Err(format!("key `{}` wants a string, got {}", it.key, other.type_name())),
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
// The key table: every spec key, declared once
// ---------------------------------------------------------------------------

/// One spec key: [`render_spec`] calls `show`, [`parse_str`] calls `read`,
/// and [`ScenarioSpec::validate`] range-checks the `*_chance` keys' `show`.
pub(crate) struct Key {
    /// Section path as written between `[` `]`; `""` is the top of the file.
    pub(crate) section: &'static str,
    pub(crate) name: &'static str,
    /// The value as document text; `None` omits the line (an absent plan,
    /// an unset optional field).
    pub(crate) show: fn(&ScenarioSpec) -> Option<String>,
    /// Store the item's value; the error names the key.
    read: fn(&mut Draft, &Item) -> Result<(), String>,
}

/// The spec under assembly, plus the five keys that only mean something
/// together (`mode` + `shards`, `discipline` + `xoff_bytes`/`xon_bytes`):
/// they may come in any order, so their values wait here, with the line
/// an error would point at, until [`parse_str`] has read the whole document.
#[derive(Default)]
struct Draft {
    spec: ScenarioSpec,
    mode: Option<(usize, String)>,
    shards: Option<(usize, u64)>,
    discipline: Option<(usize, String)>,
    xoff_bytes: Option<usize>,
    xon_bytes: Option<usize>,
}

/// `key!(section, name, path.to.field)` is a field that always exists;
/// `key!(section, name, path.to.plan ? init => field)` is a field of an
/// optional plan: naming any key of the plan creates it from `init`, and
/// an absent plan renders nothing.
macro_rules! key {
    ($section:literal, $name:ident, $($plan:ident).+ ? $init:expr => $($field:ident).+) => {
        Key {
            section: $section,
            name: stringify!($name),
            show: |s| s.$($plan).+.as_ref().and_then(|p| p.$($field).+.show()),
            read: |d, it| {
                let plan = d.spec.$($plan).+.get_or_insert_with(|| $init);
                Scalar::read(it).map(|v| plan.$($field).+ = v)
            },
        }
    };
    ($section:literal, $name:ident, $($field:ident).+) => {
        Key {
            section: $section,
            name: stringify!($name),
            show: |s| s.$($field).+.show(),
            read: |d, it| Scalar::read(it).map(|v| d.spec.$($field).+ = v),
        }
    };
}

/// The keys of one `[faults.*]` section, over the link class at `$cfg`.
macro_rules! fault_keys {
    ($section:literal, $($cfg:ident).+) => {
        [
            key!($section, drop_chance, $($cfg).+.drop_chance),
            key!($section, corrupt_chance, $($cfg).+.corrupt_chance),
            key!($section, reorder_chance, $($cfg).+.reorder_chance),
            key!($section, duplicate_chance, $($cfg).+.duplicate_chance),
            key!($section, size_limit, $($cfg).+.size_limit),
        ]
    };
}

/// Every spec key, in the order [`render_spec`] emits them (the table is
/// in pieces only so the `[faults.*]` group can be spliced in; read it
/// through [`keys`]). `[sweep]` and `[invariants]` are file
/// metadata, not spec keys, and are read by [`parse_str`] itself.
static KEYS: &[&[Key]] = &[
    &[
        key!("", fat_tree_k, fat_tree_k),
        key!("", reporters, reporters),
        key!("", ops_per_reporter, ops_per_reporter),
        key!("", seed, seed),
        key!("", tick_ns, tick_ns),
        key!("", reports_per_tick, reports_per_tick),
        key!("", drain_ns, drain_ns),
        Key {
            section: "",
            name: "mode",
            show: |s| match s.mode {
                TranslatorMode::SingleThreaded => Some("\"single\"".into()),
                TranslatorMode::Sharded { .. } => Some("\"sharded\"".into()),
            },
            read: |d, it| want_str(it).map(|m| d.mode = Some((it.line, m.to_string()))),
        },
        Key {
            section: "",
            name: "shards",
            show: |s| match s.mode {
                TranslatorMode::SingleThreaded => None,
                TranslatorMode::Sharded { shards } => shards.show(),
            },
            read: |d, it| u64::read(it).map(|n| d.shards = Some((it.line, n))),
        },
        key!("traffic", key_write, traffic.key_write),
        key!("traffic", append, traffic.append),
        key!("traffic", key_increment, traffic.key_increment),
        key!("traffic", postcarding, traffic.postcarding),
        key!("traffic", kw_redundancy, traffic.kw_redundancy),
        key!("traffic", inc_redundancy, traffic.inc_redundancy),
        key!("traffic", kw_keys, traffic.kw_keys),
        key!("traffic", inc_keys, traffic.inc_keys),
        key!("traffic", append_lists, traffic.append_lists),
        key!("traffic", slot_disjoint_keys, traffic.slot_disjoint_keys),
        key!("traffic", kw_write_once, traffic.kw_write_once),
        key!("traffic", inc_slot_disjoint, traffic.inc_slot_disjoint),
    ],
    &fault_keys!("faults.report_uplinks", faults.report_uplinks),
    &fault_keys!("faults.fabric", faults.fabric),
    &fault_keys!("faults.rdma_hop", faults.rdma_hop),
    &[
        key!("congestion", nack_on_drop, congestion.nack_on_drop),
        key!("congestion.rate_limit", msgs_per_sec,
            congestion.rate_limit ? RateLimiterConfig::bluefield2() => msgs_per_sec),
        key!("congestion.rate_limit", burst,
            congestion.rate_limit ? RateLimiterConfig::bluefield2() => burst),
        key!("congestion.retransmit", window,
            congestion.retransmit ? RetransmitPolicy::default() => window),
        key!("congestion.retransmit", max_retries,
            congestion.retransmit ? RetransmitPolicy::default() => max_retries),
        key!("congestion.retransmit", pace_ns,
            congestion.retransmit ? RetransmitPolicy::default() => pace_ns),
        key!("congestion.rdma_link", bandwidth_bps, congestion.rdma_link.bandwidth_bps),
        key!("congestion.rdma_link", latency_ns, congestion.rdma_link.latency_ns),
        key!("congestion.rdma_link", queue_bytes, congestion.rdma_link.queue_bytes),
        Key {
            section: "congestion.rdma_link",
            name: "discipline",
            show: |s| match s.congestion.rdma_link.discipline {
                QueueDiscipline::Lossy => Some("\"lossy\"".into()),
                QueueDiscipline::Lossless { .. } => Some("\"lossless\"".into()),
            },
            read: |d, it| want_str(it).map(|v| d.discipline = Some((it.line, v.to_string()))),
        },
        Key {
            section: "congestion.rdma_link",
            name: "xoff_bytes",
            show: |s| match s.congestion.rdma_link.discipline {
                QueueDiscipline::Lossy => None,
                QueueDiscipline::Lossless { xoff_bytes, .. } => xoff_bytes.show(),
            },
            read: |d, it| usize::read(it).map(|v| d.xoff_bytes = Some(v)),
        },
        Key {
            section: "congestion.rdma_link",
            name: "xon_bytes",
            show: |s| match s.congestion.rdma_link.discipline {
                QueueDiscipline::Lossy => None,
                QueueDiscipline::Lossless { xon_bytes, .. } => xon_bytes.show(),
            },
            read: |d, it| usize::read(it).map(|v| d.xon_bytes = Some(v)),
        },
        key!("collectors", count, collectors.count),
        key!("collectors", timeout_ns, collectors.timeout_ns),
        key!("collectors", min_unacked, collectors.min_unacked),
        key!("collectors", ledger_capacity, collectors.ledger_capacity),
        key!("collectors.fault", victim,
            collectors.fault ? CollectorFaultPlan::kill(0, 0) => victim),
        key!("collectors.fault", kill_at_ns,
            collectors.fault ? CollectorFaultPlan::kill(0, 0) => kill_at_ns),
        key!("collectors.fault", rejoin_at_ns,
            collectors.fault ? CollectorFaultPlan::kill(0, 0) => rejoin_at_ns),
        key!("collectors.fault", spurious,
            collectors.fault ? CollectorFaultPlan::kill(0, 0) => spurious),
        key!("rebalance", start_at_ns, rebalance ? RebalancePlan::default() => start_at_ns),
        key!("rebalance", fence_capacity,
            rebalance ? RebalancePlan::default() => driver.fence_capacity),
        key!("rebalance", ledger_capacity,
            rebalance ? RebalancePlan::default() => driver.ledger_capacity),
        key!("rebalance", drain_batch, rebalance ? RebalancePlan::default() => driver.drain_batch),
        key!("rebalance", retry_ns, rebalance ? RebalancePlan::default() => driver.retry_ns),
        key!("rebalance.faults", drop_chance,
            rebalance ? RebalancePlan::default() => driver.faults.drop_chance),
        key!("rebalance.faults", duplicate_chance,
            rebalance ? RebalancePlan::default() => driver.faults.duplicate_chance),
        key!("rebalance.faults", reorder_chance,
            rebalance ? RebalancePlan::default() => driver.faults.reorder_chance),
        key!("query", rate, query ? QueryPlan::default() => rate),
        key!("query", start_ns, query ? QueryPlan::default() => start_ns),
        key!("query", stop_ns, query ? QueryPlan::default() => stop_ns),
        key!("query", seed, query ? QueryPlan::default() => seed),
        key!("query.mix", key_write, query ? QueryPlan::default() => mix.key_write),
        key!("query.mix", append, query ? QueryPlan::default() => mix.append),
        key!("query.mix", key_increment, query ? QueryPlan::default() => mix.key_increment),
        key!("query.mix", postcarding, query ? QueryPlan::default() => mix.postcarding),
        key!("translator", postcard_cache_slots, translator.postcard_cache_slots),
        key!("translator", postcard_hops, translator.postcard_hops),
        key!("translator", postcard_bits, translator.postcard_bits),
        key!("translator", postcard_values, translator.postcard_values),
        key!("translator", postcard_redundancy, translator.postcard_redundancy),
        key!("translator", append_batch, translator.append_batch),
        key!("translator", mtu, translator.mtu),
        key!("translator", key_scratch_entries, translator.key_scratch_entries),
        key!("translator.rate_limit", msgs_per_sec,
            translator.rate_limit ? RateLimiterConfig::bluefield2() => msgs_per_sec),
        key!("translator.rate_limit", burst,
            translator.rate_limit ? RateLimiterConfig::bluefield2() => burst),
        key!("service", kw_bytes, service.kw_bytes),
        key!("service", kw_value_bytes, service.kw_value_bytes),
        key!("service", postcard_bytes, service.postcard_bytes),
        key!("service", postcard_hops, service.postcard_hops),
        key!("service", postcard_bits, service.postcard_bits),
        key!("service", postcard_values, service.postcard_values),
        key!("service", append_lists, service.append_lists),
        key!("service", append_entries, service.append_entries),
        key!("service", append_entry_bytes, service.append_entry_bytes),
        key!("service", cms_slots, service.cms_slots),
        key!("service", max_redundancy, service.max_redundancy),
        key!("service.nic", msg_rate, service.nic.msg_rate),
        key!("service.nic", line_rate_bps, service.nic.line_rate_bps),
        key!("service.nic", num_nics, service.nic.num_nics),
        key!("service.nic", ack_coalesce, service.nic.ack_coalesce),
    ],
];

pub(crate) fn keys() -> impl Iterator<Item = &'static Key> {
    KEYS.iter().copied().flatten()
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
    let mut draft = Draft::default();
    let mut sweep: Vec<Axis> = Vec::new();
    let mut invariants = InvariantSet::default();

    for it in &items {
        let unknown = || {
            let whole = if it.section.is_empty() {
                it.key.clone()
            } else {
                format!("{}.{}", it.section, it.key)
            };
            Err(err(file, it.line, format!("unknown key `{whole}`")))
        };
        if let Some(key) = keys().find(|k| k.section == it.section && k.name == it.key) {
            (key.read)(&mut draft, it).map_err(|m| err(file, it.line, m))?;
            continue;
        }
        match it.section.as_str() {
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
                let on = bool::read(it).map_err(|m| err(file, it.line, m))?;
                let Some(&(inv, _)) = Invariant::ALL.iter().find(|(_, name)| *name == it.key)
                else {
                    return unknown();
                };
                let bit = 1 << inv as u16;
                invariants.0 = if on { invariants.0 | bit } else { invariants.0 & !bit };
            }
            s if keys().any(|k| k.section == s) => return unknown(),
            _ => {
                return Err(err(
                    file,
                    it.line,
                    format!("unknown section `[{}]`", it.section),
                ))
            }
        }
    }
    let Draft { mut spec, mode, shards, discipline, xoff_bytes, xon_bytes } = draft;

    // Finalize the translator mode.
    match (mode, shards) {
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

    // Finalize the RoCE-hop queue discipline. Nothing else sets it, so
    // thresholds named without a `discipline` adjust the default hop,
    // which is lossless.
    if discipline.is_some() || xoff_bytes.is_some() || xon_bytes.is_some() {
        let dflt = match LinkConfig::dc_100g_lossless().discipline {
            QueueDiscipline::Lossless { xoff_bytes, xon_bytes } => (xoff_bytes, xon_bytes),
            QueueDiscipline::Lossy => unreachable!(),
        };
        match discipline {
            Some((line, d)) if d == "lossy" => {
                if xoff_bytes.is_some() || xon_bytes.is_some() {
                    return Err(err(
                        file,
                        line,
                        "xoff_bytes/xon_bytes only apply to discipline = \"lossless\"",
                    ));
                }
                spec.congestion.rdma_link.discipline = QueueDiscipline::Lossy;
            }
            Some((line, d)) if d != "lossless" => {
                return Err(err(
                    file,
                    line,
                    format!(
                        "bad enum variant `{d}` for key `discipline` (want `lossy` or `lossless`)"
                    ),
                ));
            }
            _ => {
                spec.congestion.rdma_link.discipline = QueueDiscipline::Lossless {
                    xoff_bytes: xoff_bytes.unwrap_or(dflt.0),
                    xon_bytes: xon_bytes.unwrap_or(dflt.1),
                };
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
    if invariants.contains(Invariant::CrossModeMemoryEqual) {
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

    Ok(CorpusDoc { file: file.to_string(), spec, sweep, invariants })
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
/// these deployments; the root `tests/corpus.rs` runs every one of them.
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

/// Render `spec` as a complete corpus document body: every key of `KEYS`
/// that has a value, in table order, explicitly. [`parse_str`] on the
/// output yields `spec` exactly (the round-trip property test pins this). Sweep/invariant/tag sections
/// are corpus-file metadata, not spec state, so they are not emitted —
/// append them to the returned string when authoring a corpus file.
pub fn render_spec(spec: &ScenarioSpec) -> String {
    let mut s = String::new();
    let mut section = "";
    for key in keys() {
        let Some(value) = (key.show)(spec) else { continue };
        if key.section != section {
            section = key.section;
            s.push_str(&format!("\n[{section}]\n"));
        }
        s.push_str(&format!("{} = {value}\n", key.name));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CollectorPlan, FaultPlan};
    use dta_translator::RebalanceConfig;

    #[test]
    fn empty_document_is_the_default_spec() {
        let doc = load_str("empty.toml", "").unwrap();
        assert_eq!(doc.spec, ScenarioSpec::default());
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
    }

    #[test]
    fn every_invariant_parses_by_its_name_alone() {
        let modes = "[sweep]\nmode = [\"single\", \"sharded2\"]\n[invariants]\n";
        for &(inv, name) in Invariant::ALL {
            assert_eq!(inv.name(), name);
            let doc = parse_str("i.toml", &format!("{modes}{name} = true\n")).unwrap();
            assert_eq!(doc.invariants.enabled().collect::<Vec<_>>(), [inv]);
            let doc = parse_str("i.toml", &format!("{modes}{name} = true\n{name} = false\n"));
            assert!(!doc.unwrap().invariants.any());
        }
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
    fn section_prefixes_are_not_sections() {
        // `[faults]` and `[congestion.rate]` only exist as prefixes of real
        // sections: naming them is an unknown *section*, while a misspelt
        // key inside a real one is an unknown *key*.
        for (text, want) in [
            ("[faults]\ndrop_chance = 0.1\n", "unknown section `[faults]`"),
            ("[congestion.rate]\nburst = 4\n", "unknown section `[congestion.rate]`"),
            ("[faults.fabric]\ndrop = 0.1\n", "unknown key `faults.fabric.drop`"),
            ("[congestion.rate_limit]\nbursts = 4\n", "unknown key `congestion.rate_limit.bursts`"),
            ("[sweep]\nseeds = [1]\n", "unknown key `sweep.seeds`"),
            ("[invariants]\nno_unsnet = true\n", "unknown key `invariants.no_unsnet`"),
        ] {
            let e = parse_str("p.toml", text).unwrap_err();
            assert_eq!((e.line, e.message.as_str()), (2, want));
        }
    }

    #[test]
    fn keys_that_mean_something_together_resolve_in_any_order() {
        let dflt = LinkConfig::dc_100g_lossless().discipline;
        let QueueDiscipline::Lossless { xoff_bytes, xon_bytes } = dflt else { unreachable!() };
        let link = |text: &str| {
            let text = format!("[congestion.rdma_link]\n{text}");
            parse_str("l.toml", &text).map(|d| d.spec.congestion.rdma_link.discipline)
        };
        assert_eq!(
            parse_str("m.toml", "shards = 4\nmode = \"sharded\"\n").unwrap().spec.mode,
            TranslatorMode::Sharded { shards: 4 }
        );
        assert_eq!(
            link("xon_bytes = 5\ndiscipline = \"lossless\"\n"),
            Ok(QueueDiscipline::Lossless { xoff_bytes, xon_bytes: 5 })
        );
        // Thresholds alone adjust the default (lossless) hop.
        assert_eq!(
            link("xoff_bytes = 9\n"),
            Ok(QueueDiscipline::Lossless { xoff_bytes: 9, xon_bytes })
        );
        assert_eq!(link("discipline = \"lossy\"\n"), Ok(QueueDiscipline::Lossy));
        // The errors point at the key that decides: `discipline`, `shards`.
        let e = link("xoff_bytes = 9\ndiscipline = \"lossy\"\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("only apply to discipline = \"lossless\""), "{e}");
        let e = parse_str("m.toml", "seed = 3\nshards = 2\n").unwrap_err();
        assert_eq!((e.line, e.message.as_str()), (2, "`shards` without `mode = \"sharded\"`"));
    }

    #[test]
    fn key_table_has_no_duplicate_keys() {
        let mut seen = std::collections::BTreeSet::new();
        for key in keys() {
            assert!(seen.insert((key.section, key.name)), "[{}] {} twice", key.section, key.name);
        }
    }

    #[test]
    fn full_spec_renders_every_key_and_reparses() {
        // Every optional plan present, every optional field set, both
        // two-key enums in their wider variant: each key of the table has
        // a value, so each renders one line and must read back.
        let rate_limit = Some(RateLimiterConfig { msgs_per_sec: 2.5e6, burst: 9 });
        let mut spec = ScenarioSpec {
            mode: TranslatorMode::Sharded { shards: 3 },
            rebalance: Some(RebalancePlan {
                driver: RebalanceConfig { drain_batch: 5, ..RebalanceConfig::default() },
                ..RebalancePlan::default()
            }),
            query: Some(QueryPlan { rate: 3, ..QueryPlan::default() }),
            ..ScenarioSpec::default()
        };
        for cfg in [&mut spec.faults.report_uplinks, &mut spec.faults.fabric, &mut spec.faults.rdma_hop] {
            cfg.size_limit = Some(1500);
        }
        spec.congestion.rate_limit = rate_limit;
        spec.congestion.retransmit = Some(RetransmitPolicy::default());
        spec.congestion.rdma_link.discipline =
            QueueDiscipline::Lossless { xoff_bytes: 7000, xon_bytes: 3000 };
        spec.collectors.fault =
            Some(CollectorFaultPlan { rejoin_at_ns: Some(9_000), ..CollectorFaultPlan::kill(1, 5_000) });
        spec.translator.rate_limit = rate_limit;

        let text = render_spec(&spec);
        let assignments = text.lines().filter(|l| l.contains(" = ")).count();
        assert_eq!(assignments, keys().count(), "{text}");
        assert_eq!(parse_str("full.toml", &text).unwrap().spec, spec);
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

//! The perf-regression gate: `repro -- gate --baseline BENCH_x.json --fresh PATH`.
//!
//! Every committed `BENCH_*.json` is gated by the one engine here.
//! [`compare`] parses both documents, demands the *same* schema string
//! (a drift is an explicit regenerate-the-baseline error, not a confusing
//! missing-field failure downstream), looks the schema family up in
//! [`SCHEMAS`] and applies that family's rules. A rule is one check on
//! one field, read either from the document itself or from every row of
//! a keyed array.
//!
//! Keyed arrays get coverage for free: a baseline row missing from the
//! fresh run fails (a silently dropped kernel must not pass the gate) and
//! a fresh-only row is noted (that is what adding a kernel looks like).
//! A rule the engine cannot evaluate — a number missing on one side, a
//! guard that differs between the runs — says so in a note.
//!
//! The engine never matches on a schema name: everything one document
//! gates is a row in its [`SCHEMAS`] entry.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use crate::minijson::{parse, JsonValue};

/// Fresh wall time may be at most this multiple of the baseline. Generous
/// enough to absorb CI-runner noise, tight enough to catch real (2×-style)
/// regressions.
pub const MAX_WALL_RATIO: f64 = 1.30;

/// Per-detector catalog walls below this (summed over families) are too
/// small to ratio-gate honestly — a cheap baseline finishes the whole grid
/// in a couple of milliseconds, where a page fault or scheduler tick reads
/// as a 2x "regression". The gate notes such rows instead; the expensive
/// detectors (matrix profile, MERLIN, HOT SAX, 1-NN, isolation forest) are
/// all far above the floor and stay gated.
pub const WALL_NOISE_FLOOR_NS: u64 = 20_000_000;

/// One measurement's baseline-vs-fresh numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareRow {
    /// Row name (a kernel, the fleet round, an ingest stage, …).
    pub name: String,
    /// Baseline wall number in ns (`None` if absent there).
    pub base_ns: Option<u64>,
    /// Fresh wall number in ns (`None` if absent there).
    pub fresh_ns: Option<u64>,
    /// `fresh / base` when both sides are present and the base is nonzero.
    pub ratio: Option<f64>,
    /// Baseline allocation count (`None` = not measured).
    pub base_allocs: Option<u64>,
    /// Fresh allocation count (`None` = not measured).
    pub fresh_allocs: Option<u64>,
}

/// The comparison outcome: every row plus the failed checks (empty =
/// the gate passes).
#[derive(Debug, Clone, Default)]
pub struct CompareReport {
    /// Per-measurement rows, baseline order first.
    pub rows: Vec<CompareRow>,
    /// Human-readable failures; the gate passes iff this is empty.
    pub failures: Vec<String>,
    /// Non-fatal observations (new rows, skipped checks, dispatch drift).
    pub notes: Vec<String>,
    /// The gating check kinds that were evaluated at least once.
    pub ran: Vec<&'static str>,
}

impl CompareReport {
    /// True when every check passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    fn fail(&mut self, message: String) {
        self.failures.push(message);
    }

    fn note(&mut self, message: String) {
        self.notes.push(message);
    }

    /// Notes why a check was not evaluated; returns `false` (not evaluated).
    fn skip(&mut self, message: String) -> bool {
        self.note(message);
        false
    }

    fn ran(&mut self, kind: &'static str) {
        if !self.ran.contains(&kind) {
            self.ran.push(kind);
        }
    }
}

/// A keyed array: rows match across the two documents by the string
/// values of `key`, and are labelled `prefix` + those values joined by
/// `/` + `suffix`.
#[derive(Debug, Clone, Copy)]
struct Keyed {
    array: &'static str,
    key: &'static [&'static str],
    prefix: &'static str,
    suffix: &'static str,
}

const fn keyed(
    array: &'static str,
    key: &'static [&'static str],
    prefix: &'static str,
    suffix: &'static str,
) -> Keyed {
    Keyed {
        array,
        key,
        prefix,
        suffix,
    }
}

impl Keyed {
    fn label(&self, key: &str) -> String {
        format!("{}{key}{}", self.prefix, self.suffix)
    }
}

/// Where a rule reads its field: the document itself, under a label
/// for messages (and the table row), or every row of a keyed array.
#[derive(Debug, Clone, Copy)]
enum At {
    Top(&'static str),
    Rows(Keyed),
}

/// What a rule demands of its field.
#[derive(Debug, Clone, Copy)]
enum Check {
    /// `fresh / base ≤ MAX_WALL_RATIO` unless both sides sit under
    /// `floor` ns (then noted); with `sum`, rows are first summed per
    /// value of their first key field. Adds a table row.
    Wall { floor: u64, sum: bool },
    /// Adds a table row with an informational ratio; never fails.
    Show,
    /// The fresh count is exactly zero, and present when the baseline has
    /// it. Fills the allocation columns of the rule's table row.
    Zero,
    /// `fresh / base` at most this.
    MaxRatio(f64),
    /// `base / fresh` at most the limit, gated only when the top-level
    /// guard field is equal in both documents.
    MaxDrop(f64, &'static str),
    /// Equal to the baseline; field `*` compares the whole row.
    Equal,
    /// The fresh value is `true`.
    True,
    /// The fresh value is above zero; the string is its unit.
    Positive(&'static str),
    /// Fresh value ≤ [`tsad_ingest::budget_bound`] of the fresh
    /// document's top-level budget field named here.
    Budget(&'static str),
    /// Notes (never fails) a difference in the field or in the companion
    /// field named here.
    Drift(&'static str),
}

impl Check {
    /// The kind's name in the PASS line; `None` for kinds that never fail.
    fn kind(self) -> Option<&'static str> {
        Some(match self {
            Check::Wall { .. } => "wall ratio",
            Check::Zero => "exact zero",
            Check::MaxRatio(_) => "max ratio",
            Check::MaxDrop(..) => "max drop",
            Check::Equal => "equal to baseline",
            Check::True => "must be true",
            Check::Positive(_) => "must be positive",
            Check::Budget(_) => "absolute budget",
            Check::Show | Check::Drift(_) => return None,
        })
    }
}

/// One check on one field (`a.b` reads a nested object, `*` is the whole
/// row). `only` lists the row keys the check gates (empty: every row);
/// table columns are filled for every row either way.
#[derive(Debug, Clone, Copy)]
struct Rule {
    at: At,
    field: &'static str,
    only: &'static [&'static str],
    check: Check,
}

const fn top(label: &'static str, field: &'static str, check: Check) -> Rule {
    Rule::new(At::Top(label), field, check)
}

const fn rows(keyed: Keyed, field: &'static str, check: Check) -> Rule {
    Rule::new(At::Rows(keyed), field, check)
}

impl Rule {
    const fn new(at: At, field: &'static str, check: Check) -> Rule {
        let only = &[];
        Rule {
            at,
            field,
            only,
            check,
        }
    }

    const fn only(mut self, keys: &'static [&'static str]) -> Rule {
        self.only = keys;
        self
    }
}

/// One committed document family.
#[derive(Debug)]
pub struct Schema {
    /// Schema string prefix (`tsad-bench-kernels/`); the version follows.
    prefix: &'static str,
    /// The command that regenerates the committed document.
    regen: &'static str,
    /// The committed document's file name at the repository root.
    pub file: &'static str,
    rules: &'static [Rule],
}

const WALL: Check = Check::Wall {
    floor: 0,
    sum: false,
};
const DISPATCH: Check = Check::Drift("lane_width");

const KERNELS: Keyed = keyed("kernels", &["name"], "", "");
const STAGES: Keyed = keyed("stages", &["stage"], "ingest_", "_p99");
const LOADGEN: Keyed = keyed("loadgen", &["transport"], "loadgen ", "");
const POLICIES: Keyed = keyed("policies", &["policy"], "wal_append_", "");
const CATALOG: Keyed = keyed("rows", &["detector", "family"], "", "");
const FAULT_ROWS: Keyed = keyed("rows", &["profile", "dataset", "detector"], "", "");

/// Every gated document family.
pub static SCHEMAS: &[Schema] = &[
    Schema {
        prefix: "tsad-bench-kernels/",
        regen: "cargo run --release -p tsad-bench --bin repro -- bench-json",
        file: "BENCH_kernels.json",
        rules: &[
            // the 1-thread column is the least scheduler-sensitive number
            rows(KERNELS, "median_ns_per_iter_1_thread", WALL),
            rows(KERNELS, "allocs_per_iter", Check::Zero).only(&[
                "sliding_dot_product",
                "stomp",
                "merlin",
            ]),
            rows(KERNELS, "dispatch", DISPATCH),
        ],
    },
    Schema {
        prefix: "tsad-bench-fleet/",
        regen: "cargo run --release -p tsad-bench --bin repro -- fleet-json",
        file: "BENCH_fleet.json",
        rules: &[
            top("fleet geometry", "series", Check::Equal),
            top("fleet geometry", "shards", Check::Equal),
            top("fleet_ingest_round", "median_ns_per_round_1_thread", WALL),
            top("fleet_ingest_round", "allocs_per_point", Check::Zero),
            top("fleet", "dispatch", DISPATCH),
            // the accounted footprint is deterministic: the margin only
            // covers deliberate, reviewed growth of detector state
            top("fleet footprint", "bytes_per_series", Check::MaxRatio(1.10)),
            top(
                "fleet checkpoint: suspend/resume not bitwise",
                "suspend_resume_bitwise",
                Check::True,
            ),
        ],
    },
    Schema {
        prefix: "tsad-bench-ingest/",
        regen: "cargo run --release -p tsad-bench --bin repro -- ingest-json",
        file: "BENCH_ingest.json",
        rules: &[
            top("ingest geometry", "batch_points", Check::Equal),
            top("ingest geometry", "series", Check::Equal),
            top("ingest budgets", "budget_parse_ns", Check::Equal),
            top("ingest budgets", "budget_route_ns", Check::Equal),
            top("ingest budgets", "budget_overhead_ns", Check::Equal),
            top("ingest", "dispatch", DISPATCH),
            // sub-10μs quantiles are too jittery for a relative gate: the
            // ratios are informational, the absolute budgets the contract
            rows(STAGES, "p99_ns", Check::Show),
            rows(STAGES, "count", Check::Positive("samples")),
            rows(STAGES, "p99_ns", Check::Budget("budget_parse_ns")).only(&["parse"]),
            rows(STAGES, "p99_ns", Check::Budget("budget_route_ns")).only(&["route"]),
            rows(STAGES, "p99_ns", Check::Budget("budget_overhead_ns")).only(&["overhead"]),
            top("ingest request path", "allocs_per_request", Check::Zero),
            rows(LOADGEN, "errors", Check::Zero),
            // loopback sockets are noisier than in-process medians, and
            // TSAD_THREADS resizes the server's workers: a wide margin,
            // and only between runs at the same thread count
            rows(LOADGEN, "rps", Check::MaxDrop(1.5, "host_threads")),
        ],
    },
    Schema {
        prefix: "tsad-bench-wal/",
        regen: "cargo run --release -p tsad-bench --bin repro -- wal-json",
        file: "BENCH_wal.json",
        rules: &[
            top("wal geometry", "batches", Check::Equal),
            top("wal geometry", "batch_points", Check::Equal),
            top("wal geometry", "segment_bytes", Check::Equal),
            // the fsync-bound policies measure the runner's disk, not the
            // code: their ratios are shown, only `off` is gated
            rows(POLICIES, "wall_ns_per_batch", WALL).only(&["off"]),
            rows(POLICIES, "allocs_per_batch", Check::Zero),
            top(
                "wal recovery: recovered state not bitwise-equal",
                "recovery.bitwise",
                Check::True,
            ),
            top(
                "wal recovery: torn tail not repaired",
                "recovery.torn_tail_truncated",
                Check::True,
            ),
            top(
                "wal recovery: replayed",
                "recovery.replayed_batches",
                Check::Positive("batches"),
            ),
        ],
    },
    Schema {
        prefix: "tsad-bench-catalog/",
        regen: "cargo run --release -p tsad-bench --bin repro -- catalog-json",
        file: "BENCH_catalog.json",
        rules: &[
            rows(CATALOG, "hits", Check::Equal),
            rows(CATALOG, "series", Check::Equal),
            // single cells are too small to gate: one wall per detector
            rows(CATALOG, "wall_ns", DETECTOR_WALL),
        ],
    },
    Schema {
        prefix: "tsad-bench-faults/",
        regen: "cargo run --release -p tsad-bench --bin repro -- faults-json",
        file: "BENCH_faults.json",
        // every number is a deterministic function of the seed
        rules: &[rows(FAULT_ROWS, "*", Check::Equal)],
    },
];

const DETECTOR_WALL: Check = Check::Wall {
    floor: WALL_NOISE_FLOOR_NS,
    sum: true,
};

fn schema_string<'a>(side: &str, doc: &'a JsonValue) -> Result<&'a str, String> {
    doc.get("schema")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("{side}: missing \"schema\""))
}

fn family(side: &str, doc: &JsonValue) -> Result<&'static Schema, String> {
    let schema = schema_string(side, doc)?;
    SCHEMAS
        .iter()
        .find(|s| schema.starts_with(s.prefix))
        .ok_or_else(|| format!("{side}: unexpected schema {schema:?}"))
}

/// The [`SCHEMAS`] entry a rendered document belongs to (for its
/// committed file name and regenerate command).
pub fn schema_of(doc: &str) -> Result<&'static Schema, String> {
    family("document", &parse(doc).map_err(|e| e.to_string())?)
}

/// Compares a committed baseline against a fresh run of the same schema.
/// Errors are malformed inputs or a schema mismatch; regression
/// *failures* come back inside the report.
pub fn compare(baseline: &str, fresh: &str) -> Result<CompareReport, String> {
    let base = parse(baseline).map_err(|e| format!("baseline: {e}"))?;
    let new = parse(fresh).map_err(|e| format!("fresh: {e}"))?;
    compare_docs(&base, &new)
}

fn compare_docs(base: &JsonValue, new: &JsonValue) -> Result<CompareReport, String> {
    let schema = family("fresh", new)?;
    let (base_schema, new_schema) = (
        schema_string("baseline", base)?,
        schema_string("fresh", new)?,
    );
    if base_schema != new_schema {
        return Err(format!(
            "schema mismatch: committed baseline is \"{base_schema}\" but the fresh run \
             produced \"{new_schema}\" — regenerate the committed document with `{}`",
            schema.regen
        ));
    }
    let docs = [base, new];
    let mut report = CompareReport::default();
    let mut covered = Vec::new();
    for rule in schema.rules {
        let keyed = match rule.at {
            At::Top(label) => {
                apply(&mut report, rule, label, "", [Some(base), Some(new)], docs);
                continue;
            }
            At::Rows(keyed) => keyed,
        };
        let mut sides = [
            keyed_rows(base, "baseline", &keyed)?,
            keyed_rows(new, "fresh", &keyed)?,
        ];
        if !covered.contains(&keyed.array) {
            covered.push(keyed.array);
            coverage(&mut report, &keyed, &sides);
        }
        if let Check::Wall { sum: true, .. } = rule.check {
            sides = sides.map(|rows| sum_by_first_key(rows, rule.field));
        }
        let [b, f] = &sides;
        let fresh_only = f.iter().map(|(k, _)| k).filter(|k| find(b, k).is_none());
        for key in b.iter().map(|(k, _)| k).chain(fresh_only) {
            apply(
                &mut report,
                rule,
                &keyed.label(key),
                key,
                [find(b, key), find(f, key)],
                docs,
            );
        }
    }
    Ok(report)
}

fn find<'a>(rows: &'a [(String, JsonValue)], key: &str) -> Option<&'a JsonValue> {
    rows.iter().find(|(k, _)| k == key).map(|(_, row)| row)
}

/// The rows of a keyed array as `(key, row)`, key values joined by `/`.
fn keyed_rows(
    doc: &JsonValue,
    side: &str,
    keyed: &Keyed,
) -> Result<Vec<(String, JsonValue)>, String> {
    let array = keyed.array;
    let rows = doc
        .get(array)
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| format!("{side}: missing \"{array}\" array"))?;
    rows.iter()
        .map(|row| {
            let key = keyed
                .key
                .iter()
                .map(|k| {
                    row.get(k)
                        .and_then(JsonValue::as_str)
                        .ok_or_else(|| format!("{side}: {array} row without a string \"{k}\""))
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok((key.join("/"), row.clone()))
        })
        .collect()
}

/// Sums `field` over rows sharing the first key value, first-seen order.
fn sum_by_first_key(rows: Vec<(String, JsonValue)>, field: &str) -> Vec<(String, JsonValue)> {
    let mut sums: Vec<(String, u64)> = Vec::new();
    for (key, row) in rows {
        let group = key.split('/').next().unwrap_or_default().to_string();
        let value = row.get(field).and_then(JsonValue::as_u64).unwrap_or(0);
        match sums.iter_mut().find(|(g, _)| *g == group) {
            Some((_, total)) => *total += value,
            None => sums.push((group, value)),
        }
    }
    sums.into_iter()
        .map(|(group, total)| {
            let row = [(field.to_string(), JsonValue::Num(total as f64))];
            (group, JsonValue::Obj(row.into_iter().collect()))
        })
        .collect()
}

fn coverage(report: &mut CompareReport, keyed: &Keyed, [b, f]: &[Vec<(String, JsonValue)>; 2]) {
    report.ran("row coverage");
    for (key, _) in b.iter().filter(|(k, _)| find(f, k).is_none()) {
        report.fail(format!(
            "{}: present in baseline but missing from fresh run (row vanished)",
            keyed.label(key)
        ));
    }
    for (key, _) in f.iter().filter(|(k, _)| find(b, k).is_none()) {
        report.note(format!(
            "{}: new row, not in baseline (allowed)",
            keyed.label(key)
        ));
    }
}

/// Reads `path` (`a.b` nests, `*` is the value itself).
fn field<'a>(value: Option<&'a JsonValue>, path: &str) -> Option<&'a JsonValue> {
    if path == "*" {
        return value;
    }
    path.split('.').try_fold(value?, |v, k| v.get(k))
}

fn ratio(base: Option<u64>, fresh: Option<u64>) -> Option<f64> {
    match (base, fresh) {
        (Some(b), Some(f)) if b > 0 => Some(f as f64 / b as f64),
        _ => None,
    }
}

/// Applies one rule to one (baseline, fresh) pair of rows (or of whole
/// documents, for [`At::Top`]); `None` is a row one side lacks, which
/// coverage has already reported, so only table columns are filled.
fn apply(
    report: &mut CompareReport,
    rule: &Rule,
    label: &str,
    key: &str,
    rows: [Option<&JsonValue>; 2],
    docs: [&JsonValue; 2],
) {
    let [bv, fv] = rows.map(|row| field(row, rule.field));
    let [b, f] = [bv, fv].map(|v| v.and_then(JsonValue::as_u64));
    match rule.check {
        Check::Wall { .. } | Check::Show => report.rows.push(CompareRow {
            name: label.to_string(),
            base_ns: b,
            fresh_ns: f,
            ratio: ratio(b, f),
            base_allocs: None,
            fresh_allocs: None,
        }),
        Check::Zero => {
            if let Some(row) = report.rows.iter_mut().find(|r| r.name == label) {
                (row.base_allocs, row.fresh_allocs) = (b, f);
            }
        }
        _ => {}
    }
    if rows.contains(&None) || !(rule.only.is_empty() || rule.only.contains(&key)) {
        return;
    }
    let name = rule.field;
    // each arm returns whether the check was evaluated; one it had to
    // skip has said why in a note
    let evaluated = match rule.check {
        Check::Wall { floor, .. } => wall(report, label, name, b, f, floor),
        Check::Zero => zero(report, label, name, b, f),
        Check::MaxRatio(limit) => match (b, f) {
            (Some(b), Some(f)) if b > 0 => {
                let grew = f as f64 / b as f64;
                if grew > limit {
                    report.fail(format!(
                        "{label}: {name} grew {grew:.2}x ({b} -> {f}, limit {limit:.2}x)"
                    ));
                }
                true
            }
            _ => report.skip(format!("{label}: {name} not comparable")),
        },
        Check::MaxDrop(limit, guard) => {
            let [gb, gf] = docs.map(|d| d.get(guard).and_then(JsonValue::as_u64));
            match (b, f) {
                _ if gb.is_none() || gb != gf => report.skip(format!(
                    "{label}: {name} not gated: {guard} {} (baseline) vs {} (fresh)",
                    show(docs[0].get(guard)),
                    show(docs[1].get(guard)),
                )),
                (Some(b), Some(f)) if b > 0 => {
                    let drop = b as f64 / f.max(1) as f64;
                    report.note(format!("{label}: {name} {b} -> {f}"));
                    if drop > limit {
                        report.fail(format!(
                            "{label}: throughput {name} dropped {drop:.2}x ({b} -> {f}, \
                             limit {limit:.2}x)"
                        ));
                    }
                    true
                }
                _ => report.skip(format!("{label}: {name} not comparable")),
            }
        }
        Check::Equal => {
            if bv != fv {
                let what = if name == "*" { "row" } else { name };
                report.fail(format!("{label}: {what} changed: {}", diff(bv, fv)));
            }
            true
        }
        Check::True => {
            match fv.and_then(JsonValue::as_bool) {
                Some(true) => {}
                Some(false) => report.fail(format!("{label} ({name} is false)")),
                None => report.fail(format!("{label} ({name} missing from fresh run)")),
            }
            true
        }
        Check::Positive(unit) => {
            match f {
                Some(n) if n > 0 => report.note(format!("{label} {n} {unit} ({name})")),
                Some(n) => report.fail(format!("{label} zero {unit} ({name} is {n})")),
                None => report.fail(format!(
                    "{label} zero {unit} ({name} missing from fresh run)"
                )),
            }
            true
        }
        Check::Budget(budget_field) => {
            match (f, docs[1].get(budget_field).and_then(JsonValue::as_u64)) {
                (_, None) => report.fail(format!("{label}: {budget_field} missing from fresh run")),
                (None, _) => report.fail(format!("{label}: {name} missing from fresh run")),
                (Some(p99), Some(budget)) => {
                    let bound = tsad_ingest::budget_bound(budget);
                    if p99 > bound {
                        report.fail(format!(
                            "{label}: {name} {p99} ns busts the {budget} ns budget \
                             {budget_field} (bucket bound {bound} ns)"
                        ));
                    }
                }
            }
            true
        }
        Check::Show => true,
        Check::Drift(companion) => {
            let [cb, cf] = rows.map(|row| field(row, companion));
            if (bv, cb) != (fv, cf) {
                report.note(format!(
                    "{label}: {name}/{companion} differs — baseline {}/{} vs fresh {}/{}",
                    show(bv),
                    show(cb),
                    show(fv),
                    show(cf)
                ));
            }
            true
        }
    };
    if let (true, Some(kind)) = (evaluated, rule.check.kind()) {
        report.ran(kind);
    }
}

/// The relative wall-time gate: fails beyond [`MAX_WALL_RATIO`]; skips
/// (with a note) a missing side or both sides under `floor` ns.
fn wall(
    report: &mut CompareReport,
    label: &str,
    name: &str,
    b: Option<u64>,
    f: Option<u64>,
    floor: u64,
) -> bool {
    match (b, f) {
        (Some(b), Some(f)) if b < floor && f < floor => report.skip(format!(
            "{label}: {name} under the {} ms noise floor on both sides; ratio not gated",
            floor / 1_000_000
        )),
        (Some(b), Some(f)) if b > 0 => {
            let ratio = f as f64 / b as f64;
            if ratio > MAX_WALL_RATIO {
                report.fail(format!(
                    "{label}: wall-time regression {ratio:.2}x in {name} (fresh {f} ns vs \
                     baseline {b} ns, limit {MAX_WALL_RATIO:.2}x)"
                ));
            }
            true
        }
        _ => report.skip(format!("{label}: {name} wall time not comparable")),
    }
}

/// The exact-zero gate: any nonzero fresh count fails, and so does a
/// measurement that silently disappears — counts are exact and portable,
/// so there is no noise margin at all. Skips (with a note) a count
/// measured on neither side.
fn zero(
    report: &mut CompareReport,
    label: &str,
    name: &str,
    b: Option<u64>,
    f: Option<u64>,
) -> bool {
    match f {
        Some(0) => {}
        Some(n) => report.fail(format!("{label}: {name} is {n} (contract: 0)")),
        None if b.is_some() => report.fail(format!(
            "{label}: {name} not measured in fresh run (baseline has it)"
        )),
        None => return report.skip(format!("{label}: {name} not measured on either side")),
    }
    true
}

/// A value as it reads in a message: integers without a fraction, `-` for
/// a missing value.
fn show(value: Option<&JsonValue>) -> String {
    match value {
        None => "-".to_string(),
        Some(JsonValue::Num(x)) if x.fract() == 0.0 => format!("{x:.0}"),
        Some(JsonValue::Num(x)) => x.to_string(),
        Some(JsonValue::Str(s)) => format!("{s:?}"),
        Some(JsonValue::Bool(b)) => b.to_string(),
        Some(other) => format!("{other:?}"),
    }
}

/// `baseline X vs fresh Y`; for two objects, only the fields that differ.
fn diff(b: Option<&JsonValue>, f: Option<&JsonValue>) -> String {
    let (Some(JsonValue::Obj(bo)), Some(JsonValue::Obj(fo))) = (b, f) else {
        return format!("baseline {} vs fresh {}", show(b), show(f));
    };
    let keys: BTreeSet<&String> = bo.keys().chain(fo.keys()).collect();
    let changed: Vec<String> = keys
        .into_iter()
        .filter(|k| bo.get(*k) != fo.get(*k))
        .map(|k| {
            format!(
                "{k} baseline {} vs fresh {}",
                show(bo.get(k)),
                show(fo.get(k))
            )
        })
        .collect();
    changed.join(", ")
}

fn fmt_opt(v: Option<u64>) -> String {
    v.map_or_else(|| "-".to_string(), |n| n.to_string())
}

/// Renders the per-row delta table plus the note/failure lists; the PASS
/// line names the check kinds that ran.
pub fn render(report: &CompareReport) -> String {
    let mut out = String::new();
    if !report.rows.is_empty() {
        let _ = writeln!(
            out,
            "{:<32} {:>14} {:>14} {:>7} {:>12} {:>12}",
            "row", "base ns", "fresh ns", "ratio", "base allocs", "fresh allocs"
        );
    }
    for r in &report.rows {
        let _ = writeln!(
            out,
            "{:<32} {:>14} {:>14} {:>7} {:>12} {:>12}",
            r.name,
            fmt_opt(r.base_ns),
            fmt_opt(r.fresh_ns),
            r.ratio
                .map_or_else(|| "-".to_string(), |x| format!("{x:.2}x")),
            fmt_opt(r.base_allocs),
            fmt_opt(r.fresh_allocs),
        );
    }
    for note in &report.notes {
        let _ = writeln!(out, "note: {note}");
    }
    if report.passed() {
        let _ = writeln!(out, "PASS: {} held", report.ran.join(", "));
    } else {
        for failure in &report.failures {
            let _ = writeln!(out, "FAIL: {failure}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::bench_json::{render as render_bench, run as run_bench, BenchConfig};

    #[test]
    fn wall_ratio_gate_fails_beyond_margin_and_returns_the_ratio() {
        let mut report = CompareReport::default();
        wall(&mut report, "x", "ns", Some(100), Some(120), 0);
        assert!((ratio(Some(100), Some(120)).unwrap() - 1.2).abs() < 1e-12);
        assert!(report.passed());
        wall(&mut report, "x", "ns", Some(100), Some(200), 0);
        assert!((ratio(Some(100), Some(200)).unwrap() - 2.0).abs() < 1e-12);
        assert!(!report.passed());
        assert!(report.failures[0].contains("2.00x"));
    }

    #[test]
    fn missing_wall_numbers_note_instead_of_failing() {
        let mut report = CompareReport::default();
        wall(&mut report, "x", "ns", None, Some(1), 0);
        assert_eq!(ratio(None, Some(1)), None);
        wall(&mut report, "x", "ns", Some(0), Some(1), 0);
        assert_eq!(ratio(Some(0), Some(1)), None);
        assert!(report.passed());
        assert_eq!(report.notes.len(), 2);
    }

    #[test]
    fn alloc_gate_is_exact_and_catches_vanished_measurements() {
        let mut report = CompareReport::default();
        zero(&mut report, "x", "allocs", Some(0), Some(0));
        assert!(report.passed());
        zero(&mut report, "x", "allocs", Some(0), Some(1));
        zero(&mut report, "y", "allocs", Some(0), None);
        assert_eq!(report.failures.len(), 2);
        let mut report = CompareReport::default();
        zero(&mut report, "z", "allocs", None, None);
        assert!(report.passed());
        assert_eq!(report.notes.len(), 1);
    }

    #[test]
    fn schema_equality_error_names_both_versions_and_the_fix() {
        let v1 = r#"{"schema": "tsad-bench-kernels/v1", "kernels": []}"#;
        let v2 = r#"{"schema": "tsad-bench-kernels/v2", "kernels": []}"#;
        let err = compare(v1, v2).unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");
        assert!(err.contains("tsad-bench-kernels/v1"));
        assert!(err.contains("tsad-bench-kernels/v2"));
        assert!(err.contains("regenerate"));
        assert!(err.contains("repro -- bench-json"));
        assert!(compare(v1, v1).is_ok());
        let other = r#"{"schema": "tsad-bench-other/v1"}"#;
        assert!(compare(other, other).is_err());
    }

    #[test]
    fn dispatch_drift_is_a_note_not_a_failure() {
        let rule = top("x", "dispatch", DISPATCH);
        let avx2 = parse(r#"{"dispatch": "avx2", "lane_width": 4}"#).unwrap();
        let scalar = parse(r#"{"dispatch": "scalar", "lane_width": 1}"#).unwrap();
        let mut report = CompareReport::default();
        apply(
            &mut report,
            &rule,
            "x",
            "",
            [Some(&avx2), Some(&avx2)],
            [&avx2, &avx2],
        );
        assert!(report.notes.is_empty());
        apply(
            &mut report,
            &rule,
            "x",
            "",
            [Some(&avx2), Some(&scalar)],
            [&avx2, &scalar],
        );
        assert!(report.passed());
        assert!(report.notes[0].contains("avx2") && report.notes[0].contains("scalar"));
    }

    // ─── kernel gate ────────────────────────────────────────────────────

    fn doc_with_merlin(stomp_ns: u64, stomp_allocs: &str, merlin_allocs: &str) -> String {
        format!(
            r#"{{
  "schema": "tsad-bench-kernels/v4",
  "seed": 42,
  "threads": 4,
  "host_threads": 1,
  "kernels": [
    {{
      "name": "stomp",
      "params": "n=4096, m=128",
      "iters": 5,
      "median_ns_per_iter_1_thread": {stomp_ns},
      "median_ns_per_iter_4_threads": {stomp_ns},
      "allocs_per_iter": {stomp_allocs},
      "speedup": null,
      "dispatch": "avx2",
      "lane_width": 4,
      "obs": {{"schema": "tsad-obs/v1", "counters": {{}}, "gauges": {{}}, "histograms": {{}}}}
    }},
    {{
      "name": "merlin",
      "params": "n=800",
      "iters": 5,
      "median_ns_per_iter_1_thread": 1000000,
      "median_ns_per_iter_4_threads": 900000,
      "allocs_per_iter": {merlin_allocs},
      "speedup": null,
      "dispatch": "avx2",
      "lane_width": 4,
      "obs": {{"schema": "tsad-obs/v1", "counters": {{}}, "gauges": {{}}, "histograms": {{}}}}
    }}
  ]
}}"#
        )
    }

    fn doc(stomp_ns: u64, stomp_allocs: &str) -> String {
        doc_with_merlin(stomp_ns, stomp_allocs, "0")
    }

    #[test]
    fn identical_documents_pass() {
        let base = doc(22_000_000, "0");
        let report = compare(&base, &base).unwrap();
        assert!(report.passed(), "failures: {:?}", report.failures);
        assert_eq!(report.rows.len(), 2);
        assert!((report.rows[0].ratio.unwrap() - 1.0).abs() < 1e-12);
        let table = render(&report);
        assert!(table.contains("PASS"));
        assert!(table.contains("stomp"));
        assert!(table.contains("1.00x"));
    }

    #[test]
    fn injected_2x_slowdown_fails_the_gate() {
        let base = doc(22_000_000, "0");
        let slow = doc(44_000_000, "0"); // synthetic 2x wall-time regression
        let report = compare(&base, &slow).unwrap();
        assert!(!report.passed());
        assert!(
            report.failures.iter().any(|f| f.contains("2.00x")),
            "failures: {:?}",
            report.failures
        );
        assert!(render(&report).contains("FAIL"));
        // and the mirror image (a 2x speedup) passes
        let report = compare(&slow, &base).unwrap();
        assert!(report.passed(), "failures: {:?}", report.failures);
    }

    #[test]
    fn small_jitter_within_the_margin_passes() {
        let base = doc(22_000_000, "0");
        let jitter = doc(26_000_000, "0"); // +18%, inside the 30% margin
        let report = compare(&base, &jitter).unwrap();
        assert!(report.passed(), "failures: {:?}", report.failures);
    }

    #[test]
    fn alloc_increase_on_a_gated_kernel_fails() {
        let base = doc(22_000_000, "0");
        for bad in ["1", "null"] {
            let report = compare(&base, &doc(22_000_000, bad)).unwrap();
            assert!(!report.passed(), "allocs {bad} passed");
            assert!(
                report
                    .failures
                    .iter()
                    .any(|f| f.contains("allocs_per_iter")),
                "failures: {:?}",
                report.failures
            );
        }
        // merlin is gated too since its buffers moved into scratch pools
        for bad in ["1", "null"] {
            let report = compare(&base, &doc_with_merlin(22_000_000, "0", bad)).unwrap();
            assert!(!report.passed(), "merlin allocs {bad} passed");
            assert!(report
                .failures
                .iter()
                .any(|f| f.contains("merlin") && f.contains("allocs_per_iter")));
        }
    }

    #[test]
    fn schema_drift_is_a_clear_error_not_a_parse_failure() {
        let base = doc(22_000_000, "0").replace("tsad-bench-kernels/v4", "tsad-bench-kernels/v3");
        let err = compare(&base, &doc(22_000_000, "0")).unwrap_err();
        assert!(err.contains("schema mismatch"), "unhelpful error: {err}");
        assert!(err.contains("tsad-bench-kernels/v3"));
        assert!(err.contains("tsad-bench-kernels/v4"));
        assert!(err.contains("regenerate"), "no fix hint in: {err}");
    }

    #[test]
    fn dispatch_drift_is_noted_but_passes() {
        let base = doc(22_000_000, "0");
        let scalar = base
            .replace("\"dispatch\": \"avx2\"", "\"dispatch\": \"scalar\"")
            .replace("\"lane_width\": 4", "\"lane_width\": 1");
        let report = compare(&base, &scalar).unwrap();
        assert!(report.passed(), "failures: {:?}", report.failures);
        assert!(
            report
                .notes
                .iter()
                .any(|n| n.contains("dispatch") && n.contains("avx2") && n.contains("scalar")),
            "notes: {:?}",
            report.notes
        );
    }

    #[test]
    fn missing_kernel_fails_but_new_kernel_is_noted() {
        let base = doc(22_000_000, "0");
        let only_stomp = r#"{
  "schema": "tsad-bench-kernels/v4",
  "kernels": [
    {"name": "stomp", "median_ns_per_iter_1_thread": 22000000, "allocs_per_iter": 0}
  ]
}"#;
        let report = compare(&base, only_stomp).unwrap();
        assert!(!report.passed());
        assert!(report.failures.iter().any(|f| f.contains("merlin")));
        // fresh-only kernels are allowed
        let report = compare(only_stomp, &base).unwrap();
        assert!(report.passed(), "failures: {:?}", report.failures);
        assert!(report.notes.iter().any(|n| n.contains("merlin")));
    }

    #[test]
    fn malformed_inputs_are_errors_not_failures() {
        assert!(compare("not json", &doc(1, "0")).is_err());
        assert!(compare(&doc(1, "0"), "{}").is_err());
        let wrong_schema = doc(1, "0").replace("tsad-bench-kernels/v4", "something-else/v9");
        assert!(compare(&wrong_schema, &doc(1, "0")).is_err());
    }

    fn fleet_doc(ns: u64, allocs: &str, bytes: u64, bitwise: &str) -> String {
        format!(
            r#"{{
  "schema": "tsad-bench-fleet/v2",
  "seed": 42,
  "series": 100000,
  "shards": 64,
  "dispatch": "avx2",
  "lane_width": 4,
  "median_ns_per_round_1_thread": {ns},
  "allocs_per_point": {allocs},
  "bytes_per_series": {bytes},
  "suspend_resume_bitwise": {bitwise}
}}"#
        )
    }

    #[test]
    fn identical_fleet_documents_pass() {
        let doc = fleet_doc(50_000_000, "0", 240, "true");
        let report = compare(&doc, &doc).unwrap();
        assert!(report.passed(), "failures: {:?}", report.failures);
        assert_eq!(report.rows.len(), 1);
        assert!((report.rows[0].ratio.unwrap() - 1.0).abs() < 1e-12);
        assert!(render(&report).contains("fleet_ingest_round"));
    }

    #[test]
    fn fleet_wall_regression_and_speedup_behave_like_kernels() {
        let base = fleet_doc(50_000_000, "0", 240, "true");
        let slow = fleet_doc(100_000_000, "0", 240, "true");
        let report = compare(&base, &slow).unwrap();
        assert!(!report.passed());
        assert!(report.failures.iter().any(|f| f.contains("2.00x")));
        let report = compare(&slow, &base).unwrap();
        assert!(report.passed(), "failures: {:?}", report.failures);
    }

    #[test]
    fn fleet_alloc_gate_is_exact() {
        let base = fleet_doc(1000, "0", 240, "true");
        for bad in ["1", "null"] {
            let report = compare(&base, &fleet_doc(1000, bad, 240, "true")).unwrap();
            assert!(!report.passed(), "allocs {bad} passed");
            assert!(report
                .failures
                .iter()
                .any(|f| f.contains("allocs_per_point")));
        }
    }

    #[test]
    fn fleet_footprint_growth_fails_but_margin_passes() {
        let base = fleet_doc(1000, "0", 240, "true");
        // +8% is inside the 10% margin
        let report = compare(&base, &fleet_doc(1000, "0", 259, "true")).unwrap();
        assert!(report.passed(), "failures: {:?}", report.failures);
        // +20% is not
        let report = compare(&base, &fleet_doc(1000, "0", 288, "true")).unwrap();
        assert!(!report.passed());
        assert!(report
            .failures
            .iter()
            .any(|f| f.contains("bytes_per_series")));
    }

    #[test]
    fn fleet_bitwise_flag_must_hold() {
        let base = fleet_doc(1000, "0", 240, "true");
        let report = compare(&base, &fleet_doc(1000, "0", 240, "false")).unwrap();
        assert!(!report.passed());
        assert!(report
            .failures
            .iter()
            .any(|f| f.contains("suspend_resume_bitwise")));
    }

    #[test]
    fn fleet_geometry_change_fails_the_gate() {
        let base = fleet_doc(1000, "0", 240, "true");
        let rescaled = base.replace("\"series\": 100000", "\"series\": 50000");
        let report = compare(&base, &rescaled).unwrap();
        assert!(!report.passed());
        assert!(report.failures.iter().any(|f| f.contains("geometry")));
    }

    #[test]
    fn fleet_schema_drift_is_a_regenerate_error() {
        let base = fleet_doc(1000, "0", 240, "true").replace("/v2", "/v1");
        let err = compare(&base, &fleet_doc(1000, "0", 240, "true")).unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");
        assert!(err.contains("fleet-json"), "no fix hint in: {err}");
    }

    #[test]
    fn fleet_dispatch_drift_is_noted_but_passes() {
        let base = fleet_doc(1000, "0", 240, "true");
        let scalar = base
            .replace("\"dispatch\": \"avx2\"", "\"dispatch\": \"scalar\"")
            .replace("\"lane_width\": 4", "\"lane_width\": 1");
        let report = compare(&base, &scalar).unwrap();
        assert!(report.passed(), "failures: {:?}", report.failures);
        assert!(
            report
                .notes
                .iter()
                .any(|n| n.contains("dispatch") && n.contains("scalar")),
            "notes: {:?}",
            report.notes
        );
    }

    #[test]
    fn fleet_malformed_inputs_are_errors() {
        let good = fleet_doc(1000, "0", 240, "true");
        assert!(compare("nope", &good).is_err());
        assert!(compare(&good, "{}").is_err());
        let wrong = good.replace("tsad-bench-fleet/v2", "tsad-bench-kernels/v4");
        assert!(compare(&wrong, &good).is_err());
    }

    #[test]
    fn a_real_fleet_run_compares_clean_against_itself() {
        use crate::experiments::fleet::{render_json, run as run_fleet, FleetBenchConfig};
        let rendered = render_json(&run_fleet(42, &FleetBenchConfig::smoke()).unwrap());
        let report = compare(&rendered, &rendered).unwrap();
        assert!(report.passed(), "failures: {:?}", report.failures);
    }

    #[test]
    fn a_real_bench_run_compares_clean_against_itself() {
        // end-to-end: generate a real (smoke-sized) document and push it
        // through the parser + gate
        let rendered = render_bench(&run_bench(42, &BenchConfig::smoke()).unwrap());
        let report = compare(&rendered, &rendered).unwrap();
        assert!(report.passed(), "failures: {:?}", report.failures);
        assert_eq!(report.rows.len(), 4);
        assert!(report.rows.iter().all(|r| r.ratio == Some(1.0)));
    }

    // ─── ingest gate ────────────────────────────────────────────────────

    fn ingest_doc(parse_p99: u64, allocs: &str, http_rps: u64, errors: u64) -> String {
        format!(
            r#"{{
  "schema": "tsad-bench-ingest/v1",
  "seed": 42,
  "series": 4096,
  "batch_points": 64,
  "host_threads": 1,
  "dispatch": "avx2",
  "lane_width": 4,
  "budget_parse_ns": 5000,
  "budget_route_ns": 10000,
  "budget_overhead_ns": 100000,
  "stages": [
    {{"stage": "parse", "count": 512, "p50_ns": 900, "p95_ns": 1500, "p99_ns": {parse_p99}, "max_ns": 8000}},
    {{"stage": "route", "count": 512, "p50_ns": 200, "p95_ns": 400, "p99_ns": 511, "max_ns": 2000}},
    {{"stage": "push", "count": 512, "p50_ns": 3000, "p95_ns": 5000, "p99_ns": 8191, "max_ns": 20000}},
    {{"stage": "respond", "count": 512, "p50_ns": 800, "p95_ns": 1200, "p99_ns": 2047, "max_ns": 4000}},
    {{"stage": "request", "count": 512, "p50_ns": 6000, "p95_ns": 9000, "p99_ns": 16383, "max_ns": 40000}},
    {{"stage": "overhead", "count": 512, "p50_ns": 3000, "p95_ns": 5000, "p99_ns": 8191, "max_ns": 20000}}
  ],
  "allocs_per_request": {allocs},
  "loadgen": [
    {{"transport": "http", "requests": 2000, "errors": {errors}, "rps": {http_rps}, "p99_ns": 100000}},
    {{"transport": "tcp", "requests": 2000, "errors": 0, "rps": 90000, "p99_ns": 80000}}
  ]
}}"#
        )
    }

    #[test]
    fn identical_ingest_documents_pass() {
        let doc = ingest_doc(2047, "0", 50_000, 0);
        let report = compare(&doc, &doc).unwrap();
        assert!(report.passed(), "failures: {:?}", report.failures);
        // one row per stage
        assert_eq!(report.rows.len(), 6);
        assert!(render(&report).contains("ingest_parse_p99"));
    }

    #[test]
    fn ingest_budget_bust_fails_absolutely() {
        let base = ingest_doc(2047, "0", 50_000, 0);
        // 9000 ns > budget_bound(5000) = 8191: busted even though the
        // baseline also carried it (absolute, not relative)
        let report = compare(&base, &ingest_doc(9000, "0", 50_000, 0)).unwrap();
        assert!(!report.passed());
        assert!(
            report
                .failures
                .iter()
                .any(|f| f.contains("parse") && f.contains("budget")),
            "failures: {:?}",
            report.failures
        );
        // right at the bucket bound passes
        let report = compare(&base, &ingest_doc(8191, "0", 50_000, 0)).unwrap();
        assert!(report.passed(), "failures: {:?}", report.failures);
    }

    #[test]
    fn ingest_alloc_gate_is_exact() {
        let base = ingest_doc(2047, "0", 50_000, 0);
        for bad in ["1", "null"] {
            let report = compare(&base, &ingest_doc(2047, bad, 50_000, 0)).unwrap();
            assert!(!report.passed(), "allocs {bad} passed");
            assert!(report
                .failures
                .iter()
                .any(|f| f.contains("allocs_per_request")));
        }
    }

    #[test]
    fn ingest_throughput_drop_fails_but_noise_passes() {
        let base = ingest_doc(2047, "0", 60_000, 0);
        // 2x drop fails
        let report = compare(&base, &ingest_doc(2047, "0", 30_000, 0)).unwrap();
        assert!(!report.passed());
        assert!(report.failures.iter().any(|f| f.contains("throughput")));
        // -20% is inside the 1.5x margin
        let report = compare(&base, &ingest_doc(2047, "0", 48_000, 0)).unwrap();
        assert!(report.passed(), "failures: {:?}", report.failures);
        // and a speedup obviously passes
        let report = compare(&base, &ingest_doc(2047, "0", 120_000, 0)).unwrap();
        assert!(report.passed(), "failures: {:?}", report.failures);
    }

    #[test]
    fn ingest_throughput_is_not_gated_across_thread_counts() {
        // TSAD_THREADS resizes the worker set; a 2x rps drop against a
        // baseline from a different thread count is noted, not failed
        // (the CI matrix compares 1- and 4-thread runs to one baseline).
        let base = ingest_doc(2047, "0", 60_000, 0);
        let fresh =
            ingest_doc(2047, "0", 30_000, 0).replace("\"host_threads\": 1", "\"host_threads\": 4");
        let report = compare(&base, &fresh).unwrap();
        assert!(report.passed(), "failures: {:?}", report.failures);
        assert!(
            report
                .notes
                .iter()
                .any(|n| n.contains("host_threads 1 (baseline) vs 4 (fresh)")),
            "notes: {:?}",
            report.notes
        );
        // errors still fail even when rps is not comparable
        let fresh =
            ingest_doc(2047, "0", 30_000, 7).replace("\"host_threads\": 1", "\"host_threads\": 4");
        let report = compare(&base, &fresh).unwrap();
        assert!(!report.passed());
    }

    #[test]
    fn ingest_loadgen_errors_fail_the_gate() {
        let base = ingest_doc(2047, "0", 50_000, 0);
        let report = compare(&base, &ingest_doc(2047, "0", 50_000, 3)).unwrap();
        assert!(!report.passed());
        assert!(report
            .failures
            .iter()
            .any(|f| f.contains("http") && f.contains("errors")));
    }

    #[test]
    fn ingest_schema_drift_and_geometry_changes_are_caught() {
        let base = ingest_doc(2047, "0", 50_000, 0);
        let v2 = base.replace("tsad-bench-ingest/v1", "tsad-bench-ingest/v2");
        let err = compare(&base, &v2).unwrap_err();
        assert!(err.contains("ingest-json"), "no fix hint in: {err}");
        let rescaled = base.replace("\"batch_points\": 64", "\"batch_points\": 128");
        let report = compare(&base, &rescaled).unwrap();
        assert!(!report.passed());
        assert!(report.failures.iter().any(|f| f.contains("geometry")));
    }

    #[test]
    fn a_real_ingest_run_compares_clean_against_itself() {
        use crate::experiments::ingest_bench::{render_json, run, IngestBenchConfig};
        let rendered = render_json(&run(42, &IngestBenchConfig::smoke()).unwrap());
        let report = compare(&rendered, &rendered).unwrap();
        assert!(report.passed(), "failures: {:?}", report.failures);
    }

    // ─── wal gate ───────────────────────────────────────────────────────

    fn wal_doc(off_ns: u64, off_allocs: &str, bitwise: &str, torn: &str) -> String {
        format!(
            r#"{{
  "schema": "tsad-bench-wal/v1",
  "seed": 42,
  "batches": 2000,
  "batch_points": 64,
  "segment_bytes": 1048576,
  "policies": [
    {{"policy": "per-batch", "wall_ns_per_batch": 2000000, "points_per_sec": 32000, "fsyncs": 2001, "bytes_written": 3000000, "allocs_per_batch": 0}},
    {{"policy": "group", "wall_ns_per_batch": 400000, "points_per_sec": 160000, "fsyncs": 251, "bytes_written": 3000000, "allocs_per_batch": 0}},
    {{"policy": "off", "wall_ns_per_batch": {off_ns}, "points_per_sec": 8000000, "fsyncs": 3, "bytes_written": 3000000, "allocs_per_batch": {off_allocs}}}
  ],
  "recovery": {{"bitwise": {bitwise}, "replayed_batches": 41, "truncated_bytes": 7, "torn_tail_truncated": {torn}}}
}}"#
        )
    }

    #[test]
    fn identical_wal_documents_pass() {
        let doc = wal_doc(8000, "0", "true", "true");
        let report = compare(&doc, &doc).unwrap();
        assert!(report.passed(), "failures: {:?}", report.failures);
        assert_eq!(report.rows.len(), 3);
        assert!(render(&report).contains("wal_append_off"));
        assert!(report
            .notes
            .iter()
            .any(|n| n.contains("replayed 41 batches")));
    }

    #[test]
    fn wal_wall_gate_applies_to_the_fsync_free_policy_only() {
        let base = wal_doc(8000, "0", "true", "true");
        // 2x on the off row fails
        let report = compare(&base, &wal_doc(16000, "0", "true", "true")).unwrap();
        assert!(!report.passed());
        assert!(report
            .failures
            .iter()
            .any(|f| f.contains("wal_append_off") && f.contains("2.00x")));
        // 2x on the fsync-bound rows is informational: runner disks vary
        let slow_fsync = base
            .replace(
                "\"wall_ns_per_batch\": 2000000",
                "\"wall_ns_per_batch\": 4000000",
            )
            .replace(
                "\"wall_ns_per_batch\": 400000",
                "\"wall_ns_per_batch\": 800000",
            );
        let report = compare(&base, &slow_fsync).unwrap();
        assert!(report.passed(), "failures: {:?}", report.failures);
    }

    #[test]
    fn wal_alloc_gate_is_exact_per_policy() {
        let base = wal_doc(8000, "0", "true", "true");
        for bad in ["1", "null"] {
            let report = compare(&base, &wal_doc(8000, bad, "true", "true")).unwrap();
            assert!(!report.passed(), "allocs {bad} passed");
            assert!(report
                .failures
                .iter()
                .any(|f| f.contains("allocs_per_batch")));
        }
    }

    #[test]
    fn wal_recovery_contracts_are_absolute() {
        let base = wal_doc(8000, "0", "true", "true");
        // a baseline that also carries bitwise=false does not excuse it
        let bad = wal_doc(8000, "0", "false", "true");
        let report = compare(&bad, &bad).unwrap();
        assert!(!report.passed());
        assert!(report.failures.iter().any(|f| f.contains("bitwise")));
        let report = compare(&base, &wal_doc(8000, "0", "true", "false")).unwrap();
        assert!(!report.passed());
        assert!(report
            .failures
            .iter()
            .any(|f| f.contains("torn tail not repaired")));
        // zero replayed batches means the harness never exercised recovery
        let hollow = base.replace("\"replayed_batches\": 41", "\"replayed_batches\": 0");
        let report = compare(&base, &hollow).unwrap();
        assert!(!report.passed());
        assert!(report.failures.iter().any(|f| f.contains("zero batches")));
    }

    #[test]
    fn wal_geometry_change_and_schema_drift_are_caught() {
        let base = wal_doc(8000, "0", "true", "true");
        let rescaled = base.replace("\"batches\": 2000", "\"batches\": 100");
        let report = compare(&base, &rescaled).unwrap();
        assert!(!report.passed());
        assert!(report.failures.iter().any(|f| f.contains("geometry")));
        let v2 = base.replace("tsad-bench-wal/v1", "tsad-bench-wal/v2");
        let err = compare(&base, &v2).unwrap_err();
        assert!(err.contains("wal-json"), "no fix hint in: {err}");
    }

    #[test]
    fn wal_missing_policy_fails_the_gate() {
        let base = wal_doc(8000, "0", "true", "true");
        let gone = base.replace(
            "{\"policy\": \"group\", \"wall_ns_per_batch\": 400000, \"points_per_sec\": 160000, \"fsyncs\": 251, \"bytes_written\": 3000000, \"allocs_per_batch\": 0},\n",
            "",
        );
        let report = compare(&base, &gone).unwrap();
        assert!(!report.passed());
        assert!(report
            .failures
            .iter()
            .any(|f| f.contains("wal_append_group") && f.contains("missing")));
    }

    #[test]
    fn a_real_wal_run_compares_clean_against_itself() {
        use crate::experiments::wal_bench::{render_json, run, WalBenchConfig};
        let rendered = render_json(&run(42, &WalBenchConfig::smoke()).unwrap());
        let report = compare(&rendered, &rendered).unwrap();
        assert!(report.passed(), "failures: {:?}", report.failures);
    }

    // ─── the committed documents and the rule tables ────────────────────

    const COMMITTED: [(&str, &str); 6] = [
        (
            "BENCH_kernels.json",
            include_str!("../../../BENCH_kernels.json"),
        ),
        (
            "BENCH_fleet.json",
            include_str!("../../../BENCH_fleet.json"),
        ),
        (
            "BENCH_ingest.json",
            include_str!("../../../BENCH_ingest.json"),
        ),
        ("BENCH_wal.json", include_str!("../../../BENCH_wal.json")),
        (
            "BENCH_catalog.json",
            include_str!("../../../BENCH_catalog.json"),
        ),
        (
            "BENCH_faults.json",
            include_str!("../../../BENCH_faults.json"),
        ),
    ];

    fn committed(schema: &Schema) -> JsonValue {
        let (_, text) = COMMITTED
            .iter()
            .find(|(file, _)| *file == schema.file)
            .expect("every schema has a committed document");
        parse(text).unwrap()
    }

    #[test]
    fn committed_documents_gate_clean_against_themselves() {
        for (file, text) in COMMITTED {
            assert_eq!(schema_of(text).unwrap().file, file);
            let report = compare(text, text).unwrap();
            assert!(report.passed(), "{file}: {:?}", report.failures);
            assert!(render(&report).contains("PASS"), "{file}");
        }
        assert_eq!(SCHEMAS.len(), COMMITTED.len());
    }

    fn obj(value: &mut JsonValue) -> &mut std::collections::BTreeMap<String, JsonValue> {
        match value {
            JsonValue::Obj(map) => map,
            other => panic!("not an object: {other:?}"),
        }
    }

    /// The row (or document) a rule reads, in a mutable document.
    fn target<'a>(doc: &'a mut JsonValue, rule: &Rule) -> &'a mut JsonValue {
        let At::Rows(keyed) = rule.at else {
            return doc;
        };
        let JsonValue::Arr(rows) = obj(doc).get_mut(keyed.array).unwrap() else {
            panic!("{} is not an array", keyed.array);
        };
        rows.iter_mut()
            .find(|row| {
                let key: Vec<&str> = keyed
                    .key
                    .iter()
                    .map(|k| row.get(k).and_then(JsonValue::as_str).unwrap())
                    .collect();
                rule.only.is_empty() || rule.only.contains(&key.join("/").as_str())
            })
            .unwrap()
    }

    /// The value at a field path (`*` is the row); a rule naming a field
    /// the committed document lacks would be dead, so that panics.
    fn slot<'a>(value: &'a mut JsonValue, path: &str) -> &'a mut JsonValue {
        if path == "*" {
            return value;
        }
        path.split('.').fold(value, |v, k| {
            obj(v)
                .get_mut(k)
                .unwrap_or_else(|| panic!("no field {path}"))
        })
    }

    #[test]
    fn every_rule_fails_on_a_mutation_that_violates_it() {
        for schema in SCHEMAS {
            let base = committed(schema);
            for rule in schema.rules {
                let mut fresh = base.clone();
                let row = target(&mut fresh, rule);
                let value = slot(row, rule.field);
                let old = value.clone();
                *value = match rule.check {
                    Check::Wall { .. } => JsonValue::Num(1e15),
                    Check::Show | Check::MaxRatio(_) => {
                        JsonValue::Num(old.as_f64().unwrap() * 10.0 + 10.0)
                    }
                    Check::Zero => JsonValue::Num(1.0),
                    Check::MaxDrop(..) | Check::Positive(_) => JsonValue::Num(0.0),
                    Check::Equal => match old {
                        JsonValue::Num(x) => JsonValue::Num(x + 1.0),
                        JsonValue::Bool(b) => JsonValue::Bool(!b),
                        JsonValue::Str(s) => JsonValue::Str(s + "x"),
                        mut row => {
                            obj(&mut row).insert("mutated".into(), JsonValue::Bool(true));
                            row
                        }
                    },
                    Check::True => JsonValue::Bool(false),
                    Check::Budget(budget) => {
                        let budget = base.get(budget).and_then(JsonValue::as_u64).unwrap();
                        JsonValue::Num((tsad_ingest::budget_bound(budget) + 1) as f64)
                    }
                    Check::Drift(_) => JsonValue::Str("mutated".into()),
                };
                let report = compare_docs(&base, &fresh).unwrap();
                let name = if rule.field == "*" { "row" } else { rule.field };
                let context = format!("{} {rule:?}: {report:?}", schema.prefix);
                match rule.check {
                    Check::Show => assert!(
                        report.rows.iter().any(|r| r.ratio.is_some_and(|x| x > 1.0)),
                        "{context}"
                    ),
                    Check::Drift(_) => {
                        assert!(report.passed(), "{context}");
                        assert!(report.notes.iter().any(|n| n.contains(name)), "{context}");
                    }
                    _ => {
                        assert!(!report.passed(), "{context}");
                        assert!(
                            report.failures.iter().all(|f| f.contains(name)),
                            "{context}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn every_keyed_array_fails_on_a_vanished_row() {
        for schema in SCHEMAS {
            let base = committed(schema);
            for rule in schema.rules {
                let At::Rows(keyed) = rule.at else { continue };
                let mut fresh = base.clone();
                let JsonValue::Arr(rows) = obj(&mut fresh).get_mut(keyed.array).unwrap() else {
                    panic!("{} is not an array", keyed.array);
                };
                rows.remove(0);
                let report = compare_docs(&base, &fresh).unwrap();
                assert!(
                    report.failures.iter().any(|f| f.contains("vanished")),
                    "{}: {:?}",
                    schema.prefix,
                    report.failures
                );
            }
        }
    }

    #[test]
    fn skipped_checks_say_so_and_stay_out_of_the_pass_line() {
        let base = ingest_doc(2047, "0", 60_000, 0);
        let table = render(&compare(&base, &base).unwrap());
        assert!(table.starts_with("row "), "{table}");
        assert!(table.contains("max drop") && table.contains("absolute budget"));
        assert!(!table.contains("allocation contracts"), "{table}");
        // the rps gate is skipped, with a note, when host_threads is
        // missing from either side or differs
        for fresh in [
            base.replace("\"host_threads\": 1,", ""),
            base.replace("\"host_threads\": 1", "\"host_threads\": 4"),
        ] {
            let report = compare(&base, &fresh).unwrap();
            assert!(report.passed(), "failures: {:?}", report.failures);
            assert!(
                report
                    .notes
                    .iter()
                    .any(|n| n.contains("rps not gated: host_threads 1")),
                "notes: {:?}",
                report.notes
            );
            assert!(!render(&report).contains("max drop"));
        }
        // a document with no table rows renders no table header
        let faults = COMMITTED[5].1;
        let table = render(&compare(faults, faults).unwrap());
        assert_eq!(table, "PASS: row coverage, equal to baseline held\n");
    }

    #[test]
    fn faults_schema_drift_is_a_regenerate_error() {
        // identical rows under a different schema version: the old
        // prefix-only faults comparator accepted this
        let v1 = r#"{"schema": "tsad-bench-faults/v1", "rows": [
            {"profile": "clean", "dataset": "d", "detector": "x", "ucr_hit": true}]}"#;
        let v2 = v1.replace("faults/v1", "faults/v2");
        let err = compare(v1, &v2).unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");
        assert!(
            err.contains("regenerate") && err.contains("faults-json"),
            "{err}"
        );
    }
}

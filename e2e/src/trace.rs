//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans live in memory until the run ends. A layer's *self time* is
//! its span minus the part of that interval its children cover; the
//! ledger is the per-name sum of self times. Spans inside the library
//! crates are a later change — everything here is recorded from the
//! benchmark's side of the public API.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;

/// Every `LOOKUP_SAMPLING`-th reader request records a span (a run
/// issues millions); the ledger scales sampled names back up.
pub const LOOKUP_SAMPLING: u64 = 64;

/// Names whose spans are sampled, with the factor to scale them by.
pub fn sampling_of(name: &str) -> u64 {
    match name {
        "request.lookup" => LOOKUP_SAMPLING,
        _ => 1,
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// 0 for a root.
    pub parent: u64,
    /// Shared by the spans of one request (`update.submit` and
    /// `update.visible` of one update); 0 when the span is alone.
    pub req: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The in-memory span sink of one workload run. When off, every call
/// is a branch and nothing is stored.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    pub fn now_ns(&self) -> u64 {
        self.ns(Instant::now())
    }

    pub fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span and returns its id (0 when off).
    pub fn record(&self, parent: u64, req: u64, name: &str, start_ns: u64, end_ns: u64) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.fresh_id();
        self.push(Span {
            id,
            parent,
            req,
            name: name.to_string(),
            start_ns,
            end_ns,
        });
        id
    }

    pub fn push(&self, span: Span) {
        if self.on {
            self.spans.lock().expect("span sink poisoned").push(span);
        }
    }

    /// Adds spans a worker thread kept locally while it ran.
    pub fn extend(&self, spans: Vec<Span>) {
        if self.on {
            self.spans.lock().expect("span sink poisoned").extend(spans);
        }
    }

    /// Appends a span over `start..end` to a worker thread's own list
    /// (handed over with [`extend`](Tracer::extend) when the thread
    /// ends); nothing when off. `id` 0 takes a fresh id.
    #[allow(clippy::too_many_arguments)]
    pub fn note(
        &self,
        into: &mut Vec<Span>,
        id: u64,
        parent: u64,
        req: u64,
        name: &str,
        start: Instant,
        end: Instant,
    ) {
        if self.on {
            into.push(Span {
                id: if id == 0 { self.fresh_id() } else { id },
                parent,
                req,
                name: name.to_string(),
                start_ns: self.ns(start),
                end_ns: self.ns(end),
            });
        }
    }

    /// Times `body` as a span under `parent`. The id is allocated
    /// first so `body` can parent its own spans to it.
    pub fn scope<R>(&self, parent: u64, name: &str, body: impl FnOnce(u64) -> R) -> R {
        if !self.on {
            return body(0);
        }
        let id = self.fresh_id();
        let start_ns = self.now_ns();
        let result = body(id);
        self.push(Span {
            id,
            parent,
            req: 0,
            name: name.to_string(),
            start_ns,
            end_ns: self.now_ns(),
        });
        result
    }

    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("span sink poisoned"));
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

pub fn span_to_json(span: &Span, workload: &str) -> Json {
    let mut pairs = vec![
        ("id", Json::Num(span.id as f64)),
        ("parent", Json::Num(span.parent as f64)),
        ("name", Json::str(&span.name)),
        ("workload", Json::str(workload)),
        ("start_ns", Json::Num(span.start_ns as f64)),
        ("end_ns", Json::Num(span.end_ns as f64)),
    ];
    if span.req != 0 {
        pairs.push(("req", Json::Num(span.req as f64)));
    }
    Json::obj(pairs)
}

/// Reads back what [`span_to_json`] wrote, with the span's workload.
pub fn span_from_json(value: &Json) -> Option<(String, Span)> {
    let num = |key: &str| value.get(key).and_then(Json::as_f64).map(|v| v as u64);
    Some((
        value.get("workload")?.as_str()?.to_string(),
        Span {
            id: num("id")?,
            parent: num("parent")?,
            req: num("req").unwrap_or(0),
            name: value.get("name")?.as_str()?.to_string(),
            start_ns: num("start_ns")?,
            end_ns: num("end_ns")?,
        },
    ))
}

/// Per-span self time, in the order of `spans`: the span's duration
/// minus what its children cover of it. Unsampled children count by
/// the union of their intervals (so concurrent or overlapping children
/// are not subtracted twice); sampled children count by their summed
/// duration times the sampling factor. Never negative.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, span) in spans.iter().enumerate() {
        if span.parent != 0 {
            children.entry(span.parent).or_default().push(i);
        }
    }
    spans
        .iter()
        .map(|span| {
            let Some(kids) = children.get(&span.id) else {
                return span.duration();
            };
            let mut intervals = Vec::new();
            let mut sampled = 0u64;
            for &k in kids {
                let kid = &spans[k];
                let factor = sampling_of(&kid.name);
                if factor > 1 {
                    sampled += kid.duration() * factor;
                } else {
                    let lo = kid.start_ns.max(span.start_ns);
                    let hi = kid.end_ns.min(span.end_ns);
                    if hi > lo {
                        intervals.push((lo, hi));
                    }
                }
            }
            intervals.sort_unstable();
            let mut covered = sampled;
            let mut reach = 0u64;
            for (lo, hi) in intervals {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            span.duration().saturating_sub(covered)
        })
        .collect()
}

/// One row of the ledger: everything recorded under one span name.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerRow {
    pub name: String,
    /// Spans the run executed (recorded × sampling factor).
    pub count: u64,
    pub total_ms: f64,
    pub self_ms: f64,
}

/// The per-name self-time table of one workload's spans, largest self
/// time first.
pub fn ledger(spans: &[Span]) -> Vec<LedgerRow> {
    let selfs = self_times(spans);
    let mut rows: BTreeMap<&str, LedgerRow> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(selfs) {
        let factor = sampling_of(&span.name);
        let row = rows.entry(&span.name).or_insert_with(|| LedgerRow {
            name: span.name.clone(),
            count: 0,
            total_ms: 0.0,
            self_ms: 0.0,
        });
        row.count += factor;
        row.total_ms += (span.duration() * factor) as f64 / 1e6;
        row.self_ms += (self_ns * factor) as f64 / 1e6;
    }
    let mut rows: Vec<LedgerRow> = rows.into_values().collect();
    rows.sort_by(|a, b| b.self_ms.total_cmp(&a.self_ms).then(a.name.cmp(&b.name)));
    rows
}

/// Which part of the chain a span name belongs to. Self times are
/// shared out within a stage: the batch stage's phases are not
/// comparable with a serve window's requests, which run beside engine
/// threads the benchmark cannot see into. The last group holds
/// containers and waits — intervals that enclose or overlap other work
/// (an update waiting to show, a generator thread asleep between dues)
/// — listed without a share.
const STAGES: [&str; 4] = ["set-up", "batch", "serve", "containers and waits"];

fn stage_of(name: &str) -> usize {
    match name {
        "workload" | "serve.window" | "load.reader" | "load.writer" | "update.visible" => 3,
        n if n.starts_with("setup.") => 0,
        n if n.starts_with("serve.") || n.starts_with("request.") || n.starts_with("update.") => 2,
        _ => 1,
    }
}

/// Renders a ledger as aligned tables, one per stage, with each row's
/// share of its stage's summed self time.
pub fn render_ledger(workload: &str, rows: &[LedgerRow]) -> String {
    let width = rows.iter().map(|r| r.name.len()).max().unwrap_or(4).max(4);
    let mut out = format!("{workload}\n");
    for (stage, title) in STAGES.iter().enumerate() {
        let members: Vec<&LedgerRow> = rows.iter().filter(|r| stage_of(&r.name) == stage).collect();
        if members.is_empty() {
            continue;
        }
        let all: f64 = members.iter().map(|r| r.self_ms).sum();
        out.push_str(&format!(
            "  {title}\n    {:<width$}  {:>9}  {:>12}  {:>12}  {:>6}\n",
            "span", "count", "total ms", "self ms", "share"
        ));
        for row in members {
            let share = if stage == 3 || all <= 0.0 {
                "     -".to_string()
            } else {
                format!("{:>5.1}%", row.self_ms / all * 100.0)
            };
            out.push_str(&format!(
                "    {:<width$}  {:>9}  {:>12.1}  {:>12.1}  {share}\n",
                row.name, row.count, row.total_ms, row.self_ms
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: 0,
            name: name.into(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, "root", 0, 100),
            // Two children overlapping on [30, 40): union covers 50.
            span(2, 1, "a", 10, 40),
            span(3, 1, "b", 30, 60),
            // A grandchild comes off `a`, not off the root.
            span(4, 2, "c", 15, 25),
            // A child sticking out of its parent is clipped to it.
            span(5, 1, "d", 90, 130),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 20, 30, 10, 40]);
    }

    #[test]
    fn self_time_never_goes_negative_and_scales_sampled_children() {
        let spans = vec![
            span(1, 0, "load.reader", 0, 1_000),
            // One recorded lookup of 10 ns stands for 64 of them.
            span(2, 1, "request.lookup", 100, 110),
            span(3, 1, "request.adhoc", 200, 300),
        ];
        assert_eq!(self_times(&spans)[0], 1_000 - 100 - 10 * LOOKUP_SAMPLING);
        let crowded = vec![
            span(1, 0, "load.reader", 0, 100),
            span(2, 1, "request.lookup", 0, 50),
        ];
        assert_eq!(self_times(&crowded)[0], 0);
    }

    #[test]
    fn ledger_groups_by_name_and_orders_by_self_time() {
        let spans = vec![
            span(1, 0, "workload", 0, 10_000_000),
            span(2, 1, "engine.iteration", 0, 6_000_000),
            span(3, 2, "core.phase4", 1_000_000, 5_000_000),
            span(4, 1, "engine.iteration", 6_000_000, 9_000_000),
        ];
        let rows = ledger(&spans);
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["engine.iteration", "core.phase4", "workload"]);
        assert_eq!(rows[0].count, 2);
        assert!((rows[0].total_ms - 9.0).abs() < 1e-9);
        assert!((rows[0].self_ms - 5.0).abs() < 1e-9);
        assert!((rows[2].self_ms - 1.0).abs() < 1e-9);
        // Shares are within a stage; the root span is a container.
        let table = render_ledger("w", &rows);
        assert!(table.contains("batch") && table.contains("containers and waits"));
        let share_of = |name: &str| {
            let line = table.lines().find(|l| l.contains(name)).unwrap();
            line.split_whitespace().last().unwrap().to_string()
        };
        assert_eq!(share_of("engine.iteration"), "55.6%");
        assert_eq!(share_of("core.phase4"), "44.4%");
        assert_eq!(share_of("workload"), "-");
    }

    #[test]
    fn tracer_off_stores_nothing_and_spans_round_trip_as_json() {
        let off = Tracer::new(false);
        assert_eq!(off.record(0, 0, "x", 0, 1), 0);
        assert_eq!(off.scope(0, "y", |id| id), 0);
        assert!(off.take().is_empty());

        let on = Tracer::new(true);
        let outer = on.scope(0, "outer", |id| {
            on.record(id, 7, "inner", 1, 2);
            id
        });
        let spans = on.take();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!((inner.parent, inner.req), (outer, 7));
        let (workload, back) = span_from_json(&span_to_json(inner, "w")).unwrap();
        assert_eq!((workload.as_str(), &back), ("w", inner));
    }
}

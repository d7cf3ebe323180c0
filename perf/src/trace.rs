//! Harness-side spans: one per call into a layer, kept in memory and
//! written out once as Chrome trace-event JSON when the run ends.
//!
//! Spans are recorded around public calls only; phase timers inside the
//! engines are a later change. A span's name is `<layer>.<what>` (the layer
//! is the crate the call enters), so summing self times by the prefix gives
//! the per-layer budget.

use serde_json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One finished (or still open) span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `<layer>.<what>`.
    pub name: String,
    /// Microseconds since the tracer's epoch.
    pub start_us: f64,
    /// Microseconds since the tracer's epoch (`start_us` while still open).
    pub end_us: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Lane in the viewer: 0 is the harness thread, clients use 1, 2, ….
    pub lane: u32,
}

/// The layer a span belongs to: its name up to the first `.`.
fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Collects spans for one workload run. Disabled tracers record nothing,
/// so end-to-end runs pay a branch per call and no allocation.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn us(&self, t: Instant) -> f64 {
        t.duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span on the harness thread.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let now = self.us(Instant::now());
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_us: now,
            end_us: now,
            parent: self.open.last().copied(),
            lane: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_us = self.us(Instant::now());
        out
    }

    /// Index of the innermost open span (what a client thread's spans
    /// should name as their parent).
    pub fn current(&self) -> Option<usize> {
        self.open.last().copied()
    }

    /// Adds a span measured elsewhere (a client thread keeps its own
    /// `Instant`s and hands them over after the round); returns its index.
    pub fn add(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        lane: u32,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name: name.to_string(),
            start_us: self.us(start),
            end_us: self.us(end),
            parent,
            lane,
        });
        Some(self.spans.len() - 1)
    }

    /// Self time per layer (the part of a span name before the first `.`),
    /// in seconds.
    pub fn layer_self_seconds(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for (span, self_us) in self.spans.iter().zip(self_times_us(&self.spans)) {
            *out.entry(layer(&span.name).to_string()).or_insert(0.0) += self_us / 1e6;
        }
        out
    }

    /// The spans as a Chrome trace-event document (`chrome://tracing`,
    /// Perfetto): complete events with the causing span and the workload
    /// in `args`.
    pub fn to_chrome_json(&self, workload: &str) -> String {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut args = vec![
                    ("id".to_string(), Value::U64(id as u64)),
                    ("workload".to_string(), Value::Str(workload.to_string())),
                ];
                if let Some(p) = s.parent {
                    args.push(("parent".to_string(), Value::U64(p as u64)));
                }
                Value::Object(vec![
                    ("name".to_string(), Value::Str(s.name.clone())),
                    ("cat".to_string(), Value::Str(layer(&s.name).to_string())),
                    ("ph".to_string(), Value::Str("X".to_string())),
                    ("ts".to_string(), Value::F64(s.start_us)),
                    ("dur".to_string(), Value::F64(s.end_us - s.start_us)),
                    ("pid".to_string(), Value::U64(1)),
                    ("tid".to_string(), Value::U64(s.lane as u64)),
                    ("args".to_string(), Value::Object(args)),
                ])
            })
            .collect();
        let doc = Value::Object(vec![
            ("traceEvents".to_string(), Value::Array(events)),
            ("displayTimeUnit".to_string(), Value::Str("ms".to_string())),
        ]);
        serde_json::to_string(&doc).expect("a value tree always renders")
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children may overlap each other (two
/// clients inside one round), so the covered part is the length of the
/// union of their intervals, clipped to the parent.
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_us.max(parent.start_us);
            let end = s.end_us.min(parent.end_us);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for &(start, end) in kids.iter() {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            (s.end_us - s.start_us) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_us: f64, end_us: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_us,
            end_us,
            parent,
            lane: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_the_union_of_children() {
        let spans = vec![
            span("harness.pass", 0.0, 100.0, None),
            // Two sequential children: 10..30 and 40..50.
            span("cluster.run", 10.0, 30.0, Some(0)),
            span("serve.round", 40.0, 90.0, Some(0)),
            // Grandchild inside the first child only.
            span("sync.barrier", 12.0, 20.0, Some(1)),
            // Two overlapping client spans inside the round: 45..70 ∪ 60..85.
            span("serve.job", 45.0, 70.0, Some(2)),
            span("serve.job", 60.0, 85.0, Some(2)),
            // A child that sticks out of its parent is clipped to it.
            span("serve.wait", 80.0, 95.0, Some(5)),
        ];
        let st = self_times_us(&spans);
        assert_eq!(st[0], 100.0 - 20.0 - 50.0);
        assert_eq!(st[1], 20.0 - 8.0);
        assert_eq!(st[2], 50.0 - 40.0);
        assert_eq!(st[3], 8.0);
        assert_eq!(st[4], 25.0);
        assert_eq!(st[5], 25.0 - 5.0);
        assert_eq!(st[6], 15.0);
    }

    #[test]
    fn layers_sum_self_time_by_name_prefix() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            span("harness.pass", 0.0, 4e6, None),
            span("cluster.run", 0.0, 3e6, Some(0)),
            span("cluster.construct", 3e6, 3.5e6, Some(0)),
        ];
        let layers = t.layer_self_seconds();
        assert_eq!(layers["cluster"], 3.5);
        assert_eq!(layers["harness"], 0.5);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let x = t.span("a.b", |t| t.span("c.d", |_| 7));
        assert_eq!(x, 7);
        assert!(t.spans.is_empty());
        assert!(t
            .add("e.f", Instant::now(), Instant::now(), None, 1)
            .is_none());
    }

    #[test]
    fn chrome_json_is_valid_and_names_the_parent() {
        let mut t = Tracer::new(true);
        t.span("harness.pass", |t| t.span("cluster.run", |_| ()));
        let doc: Value = serde_json::from_str(&t.to_chrome_json("burst_1k")).unwrap();
        let Some(Value::Array(events)) = doc.get("traceEvents") else {
            panic!("no traceEvents array");
        };
        assert_eq!(events.len(), 2);
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent"), Some(&Value::U64(0)));
        assert_eq!(
            args.get("workload"),
            Some(&Value::Str("burst_1k".to_string()))
        );
    }
}

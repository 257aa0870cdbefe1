//! Outside-in host-time spans around every call the benchmark makes into
//! a simulator layer.
//!
//! Every rep records its spans (they are the benchmark's only timers), so
//! the end-to-end numbers and the per-layer numbers come from the same
//! clock reads. Spans live in memory; the traced rep's spans are exported
//! at exit as Chrome `trace_event` JSON.

use std::collections::BTreeMap;
use std::time::Instant;

use maple_trace::Json;

/// One timed layer call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified call name, e.g. `soc.run`.
    pub name: String,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Rep the span belongs to.
    pub rep: u32,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Host time attributed to one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed duration in seconds.
    pub total_s: f64,
    /// Summed self time in seconds: each span's duration minus the part
    /// its child spans cover.
    pub self_s: f64,
}

/// An in-memory span recorder for one rep.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    rep: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// An empty recorder for rep `rep`, whose clock starts now.
    #[must_use]
    pub fn new(rep: u32) -> Self {
        Spans {
            origin: Instant::now(),
            rep,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: impl Into<String>) {
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(idx);
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics when no span is open (a bug in the benchmark).
    pub fn end(&mut self) {
        let idx = self.open.pop().expect("end() matches a begin()");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Times `f` as a span named `name`.
    pub fn span<T>(&mut self, name: impl Into<String>, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Summed seconds of every span whose name satisfies `pred`.
    #[must_use]
    pub fn seconds(&self, pred: impl Fn(&str) -> bool) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| pred(&s.name))
            .map(Span::dur_ns)
            .sum();
        ns as f64 * 1e-9
    }

    /// Count, total and self time per span name.
    #[must_use]
    pub fn totals(&self) -> BTreeMap<String, NameTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<String, NameTotals> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name.clone()).or_default();
            t.count += 1;
            t.total_s += s.dur_ns() as f64 * 1e-9;
            t.self_s += s.dur_ns().saturating_sub(children) as f64 * 1e-9;
        }
        out
    }

    /// The spans as a Chrome `trace_event` document: one complete (`X`)
    /// event per span, thread id = rep, category = the layer prefix.
    #[must_use]
    pub fn chrome_json(&self) -> Json {
        let events: Vec<Json> = self
            .spans
            .iter()
            .map(|s| {
                let layer = s.name.split('.').next().unwrap_or(&s.name);
                let parent = s
                    .parent
                    .map_or(Json::Null, |p| Json::from(self.spans[p].name.as_str()));
                Json::obj(vec![
                    ("name", Json::from(s.name.as_str())),
                    ("cat", Json::from(layer)),
                    ("ph", Json::from("X")),
                    ("ts", Json::from(s.start_ns as f64 / 1e3)),
                    ("dur", Json::from(s.dur_ns() as f64 / 1e3)),
                    ("pid", Json::from(1u64)),
                    ("tid", Json::from(u64::from(s.rep))),
                    (
                        "args",
                        Json::obj(vec![
                            ("start_ns", Json::from(s.start_ns)),
                            ("end_ns", Json::from(s.end_ns)),
                            ("parent", parent),
                            ("rep", Json::from(u64::from(s.rep))),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj(vec![
            ("traceEvents", Json::Array(events)),
            ("displayTimeUnit", Json::from("ms")),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::new(3);
        s.begin("rep");
        s.span("soc.run", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        s.end();
        let t = s.totals();
        let rep = t["rep"];
        let run = t["soc.run"];
        assert_eq!(rep.count, 1);
        assert!(run.total_s >= 0.002);
        assert!((rep.self_s - (rep.total_s - run.total_s)).abs() < 1e-9);
        assert_eq!(s.spans[1].parent, Some(0));
        assert_eq!(s.spans[1].rep, 3);
        let doc = s.chrome_json().render();
        let parsed = Json::parse(&doc).expect("chrome trace parses");
        assert_eq!(
            parsed
                .get("traceEvents")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(2)
        );
    }
}

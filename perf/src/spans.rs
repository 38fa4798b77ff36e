//! Spans recorded from outside the engine, around calls into its layers.
//!
//! Spans stay in memory for the whole run and are written once, at exit.
//! A span's *self time* is its duration minus the part its direct children
//! cover, so a parent that only sequences calls reads as glue, not as work.

use crate::json::Json;
use crate::stats::median;
use std::time::Instant;

/// One timed call. `layer` is the engine module the call enters
/// (`task.spill`, `io.frame`, …); `name` is the metric stem it feeds.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    /// Identifies the benchmark run (the `--seed`): spans of one run share it.
    pub run_id: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work done inside the span, as counts taken where the work happens.
    pub records: u64,
    pub bytes: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Work a span reports when it closes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Work {
    pub records: u64,
    pub bytes: u64,
}

/// In-memory span recorder with a stack of open spans.
pub struct Recorder {
    origin: Instant,
    run_id: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(run_id: u64) -> Self {
        Recorder {
            origin: Instant::now(),
            run_id,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Time `f` as a span nested under whatever span is open. `f` returns
    /// its result and the work it did.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce(&mut Recorder) -> (T, Work),
    ) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            run_id: self.run_id,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            records: 0,
            bytes: 0,
        });
        self.open.push(id);
        let (out, work) = f(self);
        let end_ns = self.now_ns();
        self.open.pop();
        let s = &mut self.spans[id];
        s.end_ns = end_ns;
        s.records = work.records;
        s.bytes = work.bytes;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Median over the spans named `name` of `f(span)`.
    pub fn median_of(&self, name: &str, f: impl Fn(&Span) -> f64) -> f64 {
        let samples: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(f)
            .collect();
        assert!(!samples.is_empty(), "no span named {name}");
        median(&samples)
    }

    /// Median nanoseconds per record over the spans named `name`.
    pub fn ns_per_record(&self, name: &str) -> f64 {
        self.median_of(name, |s| s.duration_ns() as f64 / s.records.max(1) as f64)
    }

    /// Median MB/s (10^6 bytes per second) over the spans named `name`.
    pub fn mb_per_s(&self, name: &str) -> f64 {
        self.median_of(name, |s| {
            s.bytes as f64 / 1e6 / (s.duration_ns().max(1) as f64 / 1e9)
        })
    }

    /// Median duration in seconds over the spans named `name`.
    pub fn seconds(&self, name: &str) -> f64 {
        self.median_of(name, |s| s.duration_ns() as f64 / 1e9)
    }

    /// The recorded spans as a JSON array, each with its derived `self_ns`.
    pub fn to_json(&self) -> Json {
        let selfs = self_times(&self.spans);
        Json::Arr(
            self.spans
                .iter()
                .zip(selfs)
                .map(|(s, self_ns)| {
                    Json::obj([
                        ("name", Json::str(s.name)),
                        ("layer", Json::str(s.layer)),
                        ("run_id", Json::Num(s.run_id as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        ("self_ns", Json::Num(self_ns as f64)),
                        ("records", Json::Num(s.records as f64)),
                        ("bytes", Json::Num(s.bytes as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every span: its duration minus its direct children's.
/// Children of one parent never overlap (the recorder is a stack), so the
/// covered part of the interval is the plain sum.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] = out[p].saturating_sub(s.duration_ns());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            layer: "l",
            run_id: 1,
            parent,
            start_ns,
            end_ns,
            records: 0,
            bytes: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100] ⊃ a [10,40] ⊃ a1 [15,25]; root ⊃ b [50,90]
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 40),
            span(Some(1), 15, 25),
            span(Some(0), 50, 90),
        ];
        // root: 100 - 30 - 40 (a1 is a grandchild: already inside a)
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn recorder_nests_and_keeps_work_counts() {
        let mut rec = Recorder::new(42);
        let got = rec.span("outer", "x", |rec| {
            let inner = rec.span("inner", "x.y", |_| {
                (
                    7,
                    Work {
                        records: 3,
                        bytes: 30,
                    },
                )
            });
            (inner + 1, Work::default())
        });
        assert_eq!(got, 8);
        let s = rec.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].name, s[0].parent), ("outer", None));
        assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
        assert_eq!((s[1].records, s[1].bytes, s[1].run_id), (3, 30, 42));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let selfs = self_times(s);
        assert_eq!(selfs[0], s[0].duration_ns() - s[1].duration_ns());
    }
}

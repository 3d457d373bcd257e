//! In-memory spans for the traced pass. The benchmark opens a span
//! around each call it makes into a layer's public functions; nothing
//! inside the program is instrumented. Spans are written out as JSON
//! when the run ends.

use std::time::Instant;

use crate::json::Json;

/// Which clock a span's times are on: wall time since the recorder
/// started, or the service trace's virtual clock (ns since the replayed
/// segment's first tick).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    Wall,
    Virtual,
}

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub clock: Clock,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Operation id: spans of one BFS, one request or one batch share it.
    pub op: u64,
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    #[must_use]
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a wall-clock span; close it with [`Recorder::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        let start_ns = self.now();
        self.record(name, Clock::Wall, start_ns, start_ns, parent, op)
    }

    /// Close a wall-clock span and return its duration in ns.
    pub fn end(&mut self, id: usize) -> u64 {
        let now = self.now();
        let s = &mut self.spans[id];
        s.end_ns = now;
        now - s.start_ns
    }

    /// Add a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        clock: Clock,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            clock,
            start_ns,
            end_ns,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::str(s.name)),
                        (
                            "clock",
                            Json::str(match s.clock {
                                Clock::Wall => "wall",
                                Clock::Virtual => "virtual",
                            }),
                        ),
                        ("start_ns", Json::Int(s.start_ns)),
                        ("end_ns", Json::Int(s.end_ns)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
                        ),
                        ("op", Json::Int(s.op)),
                    ])
                })
                .collect(),
        )
    }
}

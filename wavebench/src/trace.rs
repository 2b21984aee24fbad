//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! The traced run replays each frame's layers one after another once its
//! traced window has ended, so a span's children are the calls that break
//! its work down, timed after it rather than inside its interval. A layer's self time is its
//! span's duration minus its children's durations: the part of the call
//! the children do not explain.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use wavefuse_trace::JsonValue;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call name, e.g. `dtcwt.forward`.
    pub name: &'static str,
    /// Frame (or fleet round) the call belongs to; shared by its spans.
    pub unit: u64,
    /// Index of the span whose work this call breaks down.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Input pixels the call processed (0 where not meaningful).
    pub px: u64,
    /// Multiply-accumulates the call computed, from filter lengths and
    /// level geometry (0 where not meaningful).
    pub macs: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over every span of that name.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    /// Spans recorded.
    pub calls: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus children), ns; may be negative
    /// when children cost more replayed alone than inside the parent.
    pub self_ns: i64,
    /// Summed input pixels.
    pub px: u64,
    /// Summed computed MACs.
    pub macs: u64,
}

/// Span recorder; keeps every span in memory until [`Tracer::write_jsonl`].
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    unit: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            unit: 0,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    /// Sets the frame/round id stamped on the following spans.
    pub fn set_unit(&mut self, unit: u64) {
        self.unit = unit;
    }

    /// Runs `f` as span `name` under `parent`, returning its result and
    /// the new span's index (to parent later spans on).
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        self.spans.push(Span {
            name,
            unit: self.unit,
            parent,
            start_ns: (t0 - self.epoch).as_nanos() as u64,
            end_ns: (t1 - self.epoch).as_nanos() as u64,
            px: 0,
            macs: 0,
        });
        (r, self.spans.len() - 1)
    }

    /// A recorded span.
    pub fn span(&self, index: usize) -> &Span {
        &self.spans[index]
    }

    /// Attaches work counts to a recorded span.
    pub fn add_work(&mut self, span: usize, px: u64, macs: u64) {
        self.spans[span].px += px;
        self.spans[span].macs += macs;
    }

    /// Totals and self times per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += s.dur_ns() as i64 - children as i64;
            t.px += s.px;
            t.macs += s.macs;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let line = JsonValue::Obj(vec![
                ("id".into(), JsonValue::Num(i as f64)),
                ("name".into(), JsonValue::Str(s.name.into())),
                ("unit".into(), JsonValue::Num(s.unit as f64)),
                (
                    "parent".into(),
                    s.parent
                        .map_or(JsonValue::Null, |p| JsonValue::Num(p as f64)),
                ),
                ("start_ns".into(), JsonValue::Num(s.start_ns as f64)),
                ("end_ns".into(), JsonValue::Num(s.end_ns as f64)),
                ("px".into(), JsonValue::Num(s.px as f64)),
                ("macs".into(), JsonValue::Num(s.macs as f64)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

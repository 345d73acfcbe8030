//! The deterministic span collector: virtual-clock tracks, the span tree,
//! and the counters/gauges registry.
//!
//! Everything here is driven by *modeled* quantities — work units and
//! simulated nanoseconds — never wall-clock time, so a trace recorded at any
//! thread count is bit-identical to one recorded at any other.

use std::collections::BTreeMap;

/// Number of virtual-clock ticks per simulated second (1 tick = 1 ns).
pub const TICKS_PER_SECOND: f64 = 1_000_000_000.0;

/// Identifies a track — one horizontal lane of the trace with its own
/// virtual clock and span stack. Maps to a Chrome `tid`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TrackId(pub usize);

/// Identifies a recorded span inside its [`Tracer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub usize);

/// The span taxonomy: every span carries one of these stable phase tags so
/// exports and the reconciliation tests can aggregate without string
/// matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// Root span of one windowed run.
    Run,
    /// Map phase (parents) and per-split map tasks (leaves).
    Map,
    /// Shuffle barrier between map and contraction.
    Shuffle,
    /// Foreground contraction-tree update work.
    ContractionFg,
    /// Background contraction-tree update work (split processing).
    ContractionBg,
    /// Final reduce work.
    Reduce,
    /// Data-movement cost charged for window slides.
    Movement,
    /// Fault recovery: shard rebuilds and read-retry backoff.
    Recovery,
    /// Memo-cache repair (re-replication, master rebuild).
    Repair,
    /// Memo-cache scrub pass.
    Scrub,
    /// Garbage collection of dead cache objects.
    Gc,
    /// A read served (or failed) by the distributed memoization cache.
    CacheRead,
    /// A write into the distributed memoization cache.
    CacheWrite,
    /// A cluster-simulator stage schedule.
    SimStage,
    /// A pipeline or query stage boundary.
    Stage,
    /// Windowed-join delta probing (slider-join): index probes and
    /// cross-product recomputes.
    Join,
}

impl SpanKind {
    /// Every kind, in a stable order (used by exporters).
    pub const ALL: [SpanKind; 16] = [
        SpanKind::Run,
        SpanKind::Map,
        SpanKind::Shuffle,
        SpanKind::ContractionFg,
        SpanKind::ContractionBg,
        SpanKind::Reduce,
        SpanKind::Movement,
        SpanKind::Recovery,
        SpanKind::Repair,
        SpanKind::Scrub,
        SpanKind::Gc,
        SpanKind::CacheRead,
        SpanKind::CacheWrite,
        SpanKind::SimStage,
        SpanKind::Stage,
        SpanKind::Join,
    ];

    /// Stable lower-case label, used as the Chrome `cat` field and in the
    /// metrics snapshot.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Run => "run",
            SpanKind::Map => "map",
            SpanKind::Shuffle => "shuffle",
            SpanKind::ContractionFg => "contraction-fg",
            SpanKind::ContractionBg => "contraction-bg",
            SpanKind::Reduce => "reduce",
            SpanKind::Movement => "movement",
            SpanKind::Recovery => "recovery",
            SpanKind::Repair => "repair",
            SpanKind::Scrub => "scrub",
            SpanKind::Gc => "gc",
            SpanKind::CacheRead => "cache-read",
            SpanKind::CacheWrite => "cache-write",
            SpanKind::SimStage => "sim-stage",
            SpanKind::Stage => "stage",
            SpanKind::Join => "join",
        }
    }
}

/// One recorded span. `start`/`end` are virtual-clock ticks on the span's
/// track; `work` is the modeled work units charged directly to this span
/// (zero for pure container spans). A timed leaf charges simulated time
/// instead: its width is that many nanoseconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Track the span lives on.
    pub track: TrackId,
    /// Enclosing span on the same track, if any.
    pub parent: Option<SpanId>,
    /// Phase tag.
    pub kind: SpanKind,
    /// Human-readable name (`"split 3"`, `"partition 0"`, …).
    pub name: String,
    /// Windowed-run index the span belongs to.
    pub run: u64,
    /// Virtual start tick.
    pub start: u64,
    /// Virtual end tick (`>= start`).
    pub end: u64,
    /// Modeled work units charged directly to this span.
    pub work: u64,
    /// True for a timed leaf ([`Tracer::leaf_ns`]): the span's width is
    /// the simulated nanoseconds charged directly to it.
    pub timed: bool,
    /// Small, ordered key/value payload (byte counts, task counts, …).
    pub args: Vec<(&'static str, u64)>,
}

impl Span {
    /// Width of the span on the virtual clock.
    pub fn ticks(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// Simulated nanoseconds charged directly to this span: a timed
    /// leaf's width, 0 for any other span.
    pub fn ns(&self) -> u64 {
        if self.timed {
            self.ticks()
        } else {
            0
        }
    }
}

#[derive(Debug)]
struct TrackState {
    name: String,
    cursor: u64,
    stack: Vec<SpanId>,
}

/// Converts seconds to virtual-clock ticks (1 ns per tick), rounding to
/// the nearest tick. This is the one place simulated time is rounded: a
/// seconds-valued setting, or a duration made from work, bytes and rates,
/// passes through it once. Clamped to the representable range so
/// pathological inputs cannot wrap (NaN and negatives give 0; callers
/// validate settings before they get here).
pub fn seconds_to_ticks(seconds: f64) -> u64 {
    let ns = (seconds * TICKS_PER_SECOND).round();
    if !ns.is_finite() || ns <= 0.0 {
        0
    } else if ns >= 9_007_199_254_740_992.0 {
        // 2^53: beyond here f64 cannot represent every integer anyway.
        9_007_199_254_740_992
    } else {
        // Guarded above: `ns` is a non-negative integer below 2^53.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        {
            ns as u64
        }
    }
}

/// Seconds of `ticks` virtual-clock ticks, for display only: simulated
/// time is kept and summed in ticks.
pub fn ticks_to_seconds(ticks: u64) -> f64 {
    ticks as f64 / TICKS_PER_SECOND
}

/// The deterministic trace collector. All emission happens on the control
/// thread of the engine (never inside worker closures), so the recorded
/// order — and therefore every export — is independent of `SLIDER_THREADS`.
#[derive(Debug, Default)]
pub struct Tracer {
    tracks: Vec<TrackState>,
    spans: Vec<Span>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    run: u64,
}

impl Tracer {
    /// Creates an empty tracer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finds or creates the track named `name`.
    pub fn track(&mut self, name: &str) -> TrackId {
        if let Some(i) = self.tracks.iter().position(|t| t.name == name) {
            return TrackId(i);
        }
        self.tracks.push(TrackState {
            name: name.to_string(),
            cursor: 0,
            stack: Vec::new(),
        });
        TrackId(self.tracks.len() - 1)
    }

    /// Tags subsequently recorded spans with windowed-run index `run`.
    pub fn set_run(&mut self, run: u64) {
        self.run = run;
    }

    /// Current run tag.
    pub fn run(&self) -> u64 {
        self.run
    }

    /// Opens a container span on `track`. Its width on the virtual clock is
    /// determined by the leaves recorded before the matching [`Tracer::end`].
    pub fn begin(&mut self, track: TrackId, kind: SpanKind, name: impl Into<String>) -> SpanId {
        let cursor = self.tracks[track.0].cursor;
        let parent = self.tracks[track.0].stack.last().copied();
        let id = SpanId(self.spans.len());
        self.spans.push(Span {
            track,
            parent,
            kind,
            name: name.into(),
            run: self.run,
            start: cursor,
            end: cursor,
            work: 0,
            timed: false,
            args: Vec::new(),
        });
        self.tracks[track.0].stack.push(id);
        id
    }

    /// Closes a container span opened with [`Tracer::begin`], setting its
    /// end to the track's current cursor.
    pub fn end(&mut self, id: SpanId) {
        let track = self.spans[id.0].track;
        let stack = &mut self.tracks[track.0].stack;
        if let Some(pos) = stack.iter().rposition(|s| *s == id) {
            stack.truncate(pos);
        }
        let cursor = self.tracks[track.0].cursor;
        let span = &mut self.spans[id.0];
        span.end = cursor.max(span.start);
    }

    /// Records a leaf span charged with `work` modeled work units; the
    /// track's virtual clock advances by the same amount (1 tick per unit).
    pub fn leaf(
        &mut self,
        track: TrackId,
        kind: SpanKind,
        name: impl Into<String>,
        work: u64,
    ) -> SpanId {
        let id = self.leaf_ticks(track, kind, name, work);
        self.spans[id.0].work = work;
        id
    }

    /// Records a timed leaf span charged with `ns` simulated nanoseconds;
    /// the track's virtual clock advances by the same amount (1 tick per
    /// ns).
    pub fn leaf_ns(
        &mut self,
        track: TrackId,
        kind: SpanKind,
        name: impl Into<String>,
        ns: u64,
    ) -> SpanId {
        let id = self.leaf_ticks(track, kind, name, ns);
        self.spans[id.0].timed = true;
        id
    }

    fn leaf_ticks(
        &mut self,
        track: TrackId,
        kind: SpanKind,
        name: impl Into<String>,
        ticks: u64,
    ) -> SpanId {
        let start = self.tracks[track.0].cursor;
        let end = start.saturating_add(ticks);
        self.tracks[track.0].cursor = end;
        let parent = self.tracks[track.0].stack.last().copied();
        let id = SpanId(self.spans.len());
        self.spans.push(Span {
            track,
            parent,
            kind,
            name: name.into(),
            run: self.run,
            start,
            end,
            work: 0,
            timed: false,
            args: Vec::new(),
        });
        id
    }

    /// Attaches an ordered `key = value` argument to `span`.
    pub fn arg(&mut self, span: SpanId, key: &'static str, value: u64) {
        self.spans[span.0].args.push((key, value));
    }

    /// Adds `delta` to the named monotonic counter.
    pub fn add(&mut self, counter: &str, delta: u64) {
        if delta == 0 {
            return;
        }
        let slot = self.counters.entry(counter.to_string()).or_insert(0);
        *slot = slot.saturating_add(delta);
    }

    /// Sets the named gauge to `value` (last write wins).
    pub fn gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Recorded spans, in emission order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Track names, indexed by [`TrackId`].
    pub fn track_names(&self) -> Vec<String> {
        self.tracks.iter().map(|t| t.name.clone()).collect()
    }

    /// Stable ordered view of the counters registry.
    pub fn counters(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }

    /// Stable ordered view of the gauges registry.
    pub fn gauges(&self) -> &BTreeMap<String, f64> {
        &self.gauges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaves_advance_the_virtual_clock() {
        let mut t = Tracer::new();
        let tr = t.track("engine");
        let run = t.begin(tr, SpanKind::Run, "run #0");
        t.leaf(tr, SpanKind::Map, "split 0", 10);
        t.leaf(tr, SpanKind::Map, "split 1", 5);
        t.end(run);
        let spans = t.spans();
        assert_eq!(spans[0].ticks(), 15);
        assert_eq!(spans[1].start, 0);
        assert_eq!(spans[2].start, 10);
        assert_eq!(spans[2].end, 15);
        assert_eq!(spans[1].parent, Some(SpanId(0)));
    }

    #[test]
    fn tracks_have_independent_clocks() {
        let mut t = Tracer::new();
        let a = t.track("a");
        let b = t.track("b");
        t.leaf(a, SpanKind::Map, "x", 7);
        let s = t.leaf(b, SpanKind::Reduce, "y", 3);
        assert_eq!(t.spans()[s.0].start, 0);
        assert_eq!(t.track("a"), a);
    }

    #[test]
    fn seconds_to_ticks_is_clamped_and_exact() {
        assert_eq!(seconds_to_ticks(0.0), 0);
        assert_eq!(seconds_to_ticks(-1.0), 0);
        assert_eq!(seconds_to_ticks(f64::NAN), 0);
        assert_eq!(seconds_to_ticks(1.5), 1_500_000_000);
        assert_eq!(seconds_to_ticks(1.0e80), 9_007_199_254_740_992);
    }

    #[test]
    fn counters_ignore_zero_and_saturate() {
        let mut t = Tracer::new();
        t.add("x", 0);
        assert!(t.counters().is_empty());
        t.add("x", u64::MAX);
        t.add("x", 5);
        assert_eq!(t.counters()["x"], u64::MAX);
    }
}

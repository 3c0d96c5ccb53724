//! In-memory span tracing from outside the program.
//!
//! A [`Tracer`] records spans — name, start, end, parent, answer id — with
//! one open-span stack per thread, so nested calls on one thread form a
//! tree and concurrent analysts never interleave. Three kinds of code
//! open spans: the benchmark's workload code (one root span per answer), the
//! decorators in [`crate::timed`] (one span per call into a backend,
//! snapshot or oracle), and [`TraceProbe`], the benchmark's
//! implementation of the program's own `pmw_obs::Probe` trait, which turns
//! the phase spans the program already emits into spans of this tree and
//! sums its counters and gauges.
//!
//! Spans are kept in memory and written out once, at the end of a run.

use pmw_obs::{Counter, Gauge, Phase, Probe};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::ThreadId;
use std::time::Instant;

/// Layer of a root span: one answered request (or one MWEM release).
pub const ROOT: &str = "answer";

/// One recorded span. Times are nanoseconds since the tracer was made;
/// `end_ns` stays `None` while the span is open.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub parent: Option<usize>,
    /// The root span's answer id, shared by every span below it. `None`
    /// for work no answer owns (the serving writer thread).
    pub answer: Option<u64>,
    pub layer: &'static str,
    pub name: &'static str,
    pub thread: usize,
    pub start_ns: u64,
    pub end_ns: Option<u64>,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns
            .map_or(0, |end| end.saturating_sub(self.start_ns))
    }
}

/// Smallest and summed reading of one gauge.
#[derive(Debug, Clone, Copy)]
pub struct GaugeStats {
    pub min: f64,
    pub sum: f64,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    stacks: HashMap<ThreadId, Vec<usize>>,
    threads: HashMap<ThreadId, usize>,
    next_answer: u64,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, GaugeStats>,
    outcomes: BTreeMap<&'static str, u64>,
}

/// The span recorder. Share it behind an [`Arc`].
pub struct Tracer {
    origin: Instant,
    inner: Mutex<Inner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("a traced thread panicked")
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&self, layer: &'static str, name: &'static str, root: bool) -> usize {
        let start_ns = self.now_ns();
        let tid = std::thread::current().id();
        let mut inner = self.lock();
        let next_thread = inner.threads.len();
        let thread = *inner.threads.entry(tid).or_insert(next_thread);
        let parent = inner.stacks.get(&tid).and_then(|s| s.last().copied());
        let answer = if root {
            inner.next_answer += 1;
            Some(inner.next_answer)
        } else {
            parent.and_then(|p| inner.spans[p].answer)
        };
        let id = inner.spans.len();
        inner.spans.push(Span {
            parent,
            answer,
            layer,
            name,
            thread,
            start_ns,
            end_ns: None,
        });
        inner.stacks.entry(tid).or_default().push(id);
        id
    }

    /// Open a root span: a new answer id for everything below it.
    pub fn answer(self: &Arc<Self>) -> SpanGuard {
        let id = self.open(ROOT, ROOT, true);
        SpanGuard {
            tracer: Arc::clone(self),
            id,
        }
    }

    /// Open a child span of the innermost open span on this thread.
    pub fn span(self: &Arc<Self>, layer: &'static str, name: &'static str) -> SpanGuard {
        let id = self.open(layer, name, false);
        SpanGuard {
            tracer: Arc::clone(self),
            id,
        }
    }

    /// Close the innermost open span on this thread that `is_target`
    /// picks, and every span opened above it that was never closed (the
    /// program abandons a phase span when a round returns early). Nothing
    /// happens when no open span matches.
    fn close(&self, is_target: impl Fn(usize, &Span) -> bool) {
        let end_ns = self.now_ns();
        let tid = std::thread::current().id();
        let mut inner = self.lock();
        let Inner { spans, stacks, .. } = &mut *inner;
        let Some(stack) = stacks.get_mut(&tid) else {
            return;
        };
        if let Some(pos) = stack.iter().rposition(|&i| is_target(i, &spans[i])) {
            for i in stack.drain(pos..) {
                spans[i].end_ns = Some(end_ns);
            }
        }
    }

    pub fn count(&self, name: &'static str, delta: u64) {
        *self.lock().counters.entry(name).or_insert(0) += delta;
    }

    fn gauge(&self, name: &'static str, value: f64) {
        let mut inner = self.lock();
        let g = inner.gauges.entry(name).or_insert(GaugeStats {
            min: f64::INFINITY,
            sum: 0.0,
        });
        g.min = g.min.min(value);
        g.sum += value;
    }

    fn outcome(&self, label: &'static str) {
        *self.lock().outcomes.entry(label).or_insert(0) += 1;
    }

    /// Everything recorded so far.
    pub fn finish(&self) -> TraceData {
        let inner = self.lock();
        TraceData {
            spans: inner.spans.clone(),
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
            outcomes: inner.outcomes.clone(),
        }
    }
}

/// Closes its span when dropped.
pub struct SpanGuard {
    tracer: Arc<Tracer>,
    id: usize,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let id = self.id;
        self.tracer.close(|i, _| i == id);
    }
}

/// The benchmark's `Probe`: phase spans become spans of layer `layer`
/// (`"mechanism"` for the probe handed to a mechanism, `"sketch"` for the
/// one handed to a `SampledBackend`); counters, gauges and round outcomes
/// are summed in the tracer.
#[derive(Clone)]
pub struct TraceProbe {
    tracer: Arc<Tracer>,
    layer: &'static str,
}

impl TraceProbe {
    pub fn new(tracer: &Arc<Tracer>, layer: &'static str) -> Self {
        Self {
            tracer: Arc::clone(tracer),
            layer,
        }
    }
}

impl Probe for TraceProbe {
    fn round_end(&self, _round: usize, outcome: &'static str) {
        self.tracer.outcome(outcome);
    }

    fn span_begin(&self, phase: Phase) {
        self.tracer.open(self.layer, phase.as_str(), false);
    }

    fn span_end(&self, phase: Phase) {
        let (layer, name) = (self.layer, phase.as_str());
        self.tracer
            .close(|_, span| span.layer == layer && span.name == name);
    }

    fn gauge(&self, gauge: Gauge, value: f64) {
        self.tracer.gauge(gauge.as_str(), value);
    }

    fn counter(&self, counter: Counter, delta: u64) {
        self.tracer.count(counter.as_str(), delta);
    }
}

/// Totals of one `(layer, name)` over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// A finished trace.
#[derive(Debug, Clone, Default)]
pub struct TraceData {
    pub spans: Vec<Span>,
    pub counters: BTreeMap<&'static str, u64>,
    pub gauges: BTreeMap<&'static str, GaugeStats>,
    pub outcomes: BTreeMap<&'static str, u64>,
}

impl TraceData {
    /// Each span's self time: its duration minus the part of it that the
    /// union of its children's intervals covers. Open spans count as 0.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(span, kids)| {
                let Some(end) = span.end_ns else { return 0 };
                let mut intervals: Vec<(u64, u64)> = kids
                    .iter()
                    .filter_map(|&k| {
                        let c = &self.spans[k];
                        c.end_ns
                            .map(|e| (c.start_ns.max(span.start_ns), e.min(end)))
                    })
                    .filter(|(s, e)| e > s)
                    .collect();
                intervals.sort_unstable();
                let mut covered = 0;
                let mut cursor = span.start_ns;
                for (s, e) in intervals {
                    let s = s.max(cursor);
                    if e > s {
                        covered += e - s;
                        cursor = e;
                    }
                }
                span.duration_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Calls, total time and self time per `(layer, name)`.
    pub fn totals(&self) -> BTreeMap<(&'static str, &'static str), SpanTotals> {
        let self_times = self.self_times();
        let mut out: BTreeMap<_, SpanTotals> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self_times) {
            let t = out.entry((span.layer, span.name)).or_default();
            t.calls += 1;
            t.total_ns += span.duration_ns();
            t.self_ns += self_ns;
        }
        out
    }

    /// Share of root-span time that no child span covers.
    pub fn unattributed_frac(&self) -> f64 {
        let totals = self.totals();
        match totals.get(&(ROOT, ROOT)) {
            Some(root) if root.total_ns > 0 => root.self_ns as f64 / root.total_ns as f64,
            _ => 0.0,
        }
    }

    /// One JSON object per span.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{},\"answer\":{},\"layer\":\"{}\",\"name\":\"{}\",\
                 \"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
                opt(s.parent.map(|p| p as u64)),
                opt(s.answer),
                s.layer,
                s.name,
                s.thread,
                s.start_ns,
                opt(s.end_ns)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        parent: Option<usize>,
        layer: &'static str,
        name: &'static str,
        s: u64,
        e: u64,
    ) -> Span {
        Span {
            parent,
            answer: Some(1),
            layer,
            name,
            thread: 0,
            start_ns: s,
            end_ns: Some(e),
        }
    }

    /// root [0,100) ⊃ a [10,40) ⊃ a1 [15,25); root ⊃ b [50,90) ⊃ b1 [50,60),
    /// b2 [70,90).
    fn tree() -> TraceData {
        TraceData {
            spans: vec![
                span(None, ROOT, ROOT, 0, 100),
                span(Some(0), "mechanism", "a", 10, 40),
                span(Some(1), "backend", "a1", 15, 25),
                span(Some(0), "mechanism", "b", 50, 90),
                span(Some(3), "sketch", "b1", 50, 60),
                span(Some(3), "sketch", "b2", 70, 90),
            ],
            ..TraceData::default()
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let t = tree();
        // root: 100 − (30 + 40); a: 30 − 10; b: 40 − (10 + 20).
        assert_eq!(t.self_times(), vec![30, 20, 10, 10, 10, 20]);
        let totals = t.totals();
        assert_eq!(
            totals[&("mechanism", "b")],
            SpanTotals {
                calls: 1,
                total_ns: 40,
                self_ns: 10
            }
        );
        assert!((t.unattributed_frac() - 0.3).abs() < 1e-12);
        // Self times partition the root: they sum to its duration.
        assert_eq!(t.self_times().iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let t = TraceData {
            spans: vec![
                span(None, ROOT, ROOT, 0, 100),
                span(Some(0), "x", "p", 10, 50),
                span(Some(0), "x", "q", 30, 70),
                span(Some(0), "x", "r", 90, 120),
            ],
            ..TraceData::default()
        };
        // Covered: [10,70) and [90,100) → 70 of 100.
        assert_eq!(t.self_times()[0], 30);
    }

    #[test]
    fn probe_spans_nest_and_abandoned_spans_close_with_their_parent() {
        let tracer = Arc::new(Tracer::new());
        let probe = TraceProbe::new(&tracer, "mechanism");
        {
            let _root = tracer.answer();
            probe.span_begin(Phase::HypothesisSolve);
            {
                let _inner = tracer.span("snapshot", "hypothesis_minimizer");
            }
            probe.span_end(Phase::HypothesisSolve);
            // Abandoned by an early return: closed when the root closes.
            probe.span_begin(Phase::SvScreen);
            probe.span_end(Phase::OracleSolve); // unmatched: ignored
            probe.counter(Counter::UpdateRounds, 2);
            probe.gauge(Gauge::Ess, 5.0);
            probe.gauge(Gauge::Ess, 3.0);
            probe.round_end(0, "free");
        }
        {
            let _second = tracer.answer();
        }
        let data = tracer.finish();
        let names: Vec<_> = data
            .spans
            .iter()
            .map(|s| (s.layer, s.name, s.parent))
            .collect();
        assert_eq!(
            names,
            vec![
                (ROOT, ROOT, None),
                ("mechanism", "hypothesis_solve", Some(0)),
                ("snapshot", "hypothesis_minimizer", Some(1)),
                ("mechanism", "sv_screen", Some(0)),
                (ROOT, ROOT, None),
            ]
        );
        assert!(data.spans.iter().all(|s| s.end_ns.is_some()));
        let answers: Vec<_> = data.spans.iter().map(|s| s.answer).collect();
        assert_eq!(answers, vec![Some(1), Some(1), Some(1), Some(1), Some(2)]);
        assert_eq!(data.counters["update_rounds"], 2);
        assert_eq!(data.gauges["ess"].min, 3.0);
        assert_eq!(data.outcomes["free"], 1);
    }

    #[test]
    fn threads_keep_separate_stacks() {
        let tracer = Arc::new(Tracer::new());
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let _root = tracer.answer();
                    barrier.wait(); // both roots open at once
                    let _child = tracer.span("snapshot", "estimate_mean");
                });
            }
        });
        let data = tracer.finish();
        for (i, s) in data.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                assert_eq!(data.spans[p].thread, s.thread, "span {i} crossed threads");
                assert_eq!(data.spans[p].answer, s.answer);
            }
        }
        assert_eq!(data.spans.iter().filter(|s| s.parent.is_none()).count(), 2);
    }
}

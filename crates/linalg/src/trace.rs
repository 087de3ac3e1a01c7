//! Zero-dependency observability: RAII spans, atomic counters, and
//! log-bucketed latency histograms, with two exporters (a human-readable
//! summary table and Chrome-trace JSON loadable in `chrome://tracing` or
//! Perfetto).
//!
//! The recorder is runtime-switchable and **off by default**. Every probe
//! starts with one relaxed atomic load; when disabled that load is the
//! entire cost — no clock reads, no allocation (pinned by the
//! `apply_alloc` test), no branches beyond the check itself. Hot paths can
//! therefore stay instrumented permanently.
//!
//! Span events are buffered in a thread-local vector and flushed into a
//! global sink when the buffer fills or the thread exits; pool workers,
//! which park instead of exiting (their TLS destructors may never run),
//! emit through the flush-on-drop track spans instead, so nothing is
//! lost either way. The
//! sink is capped; overflow is counted in [`Counter::EventsDropped`] and
//! reported in the summary rather than silently discarded.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Spans buffered per thread before a flush into the global sink.
const FLUSH_THRESHOLD: usize = 1024;
/// Global cap on retained span events; overflow increments
/// [`Counter::EventsDropped`].
const MAX_EVENTS: usize = 1 << 18;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is the recorder currently on? One relaxed load — safe to call on the
/// hottest path.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns the recorder on or off at runtime.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------------
// counters
// ---------------------------------------------------------------------------

/// Fixed set of global counters. Atomic adds merge losslessly across
/// threads, so totals are deterministic however work was sharded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Counter {
    /// Black-box substrate solves issued (one per RHS vector).
    Solves = 0,
    /// Column panels dispatched to pool workers by `ParallelApply` — its
    /// only parallel axis; applies served inline add none.
    ColPanels = 1,
    /// Workspace matrices that actually grew their backing storage
    /// (steady-state serving should show zero).
    WorkspaceGrows = 2,
    /// Span events discarded because the sink hit its cap of `2^18`
    /// retained events.
    EventsDropped = 3,
    /// Iterative solves that burned their iteration budget and were
    /// re-run once with a larger one (the bounded-retry policy).
    SolveRetries = 4,
    /// Iterative solves still unconverged after the bounded retry
    /// (typed-error paths surface these; infallible paths warn).
    SolvesFailed = 5,
    /// Blocked applies re-executed on the serial path after a worker
    /// panic poisoned the parallel attempt.
    DegradedApplies = 6,
    /// Model loads that fell back to the explicit-CSR rep because the
    /// `.fwt` side file was missing, corrupt, or from the future.
    DegradedLoads = 7,
}

const N_COUNTERS: usize = 8;

const COUNTER_NAMES: [&str; N_COUNTERS] = [
    "solves",
    "col_panels",
    "workspace_grows",
    "events_dropped",
    "solve_retries",
    "solves_failed",
    "degraded_applies",
    "degraded_loads",
];

#[allow(clippy::declare_interior_mutable_const)] // const used only as array seed
const ATOMIC_ZERO: AtomicU64 = AtomicU64::new(0);

static COUNTERS: [AtomicU64; N_COUNTERS] = [ATOMIC_ZERO; N_COUNTERS];

/// Adds `v` to a counter. No-op (one relaxed load) when disabled.
#[inline]
pub fn add(c: Counter, v: u64) {
    if enabled() {
        COUNTERS[c as usize].fetch_add(v, Ordering::Relaxed);
    }
}

/// Current value of a counter.
pub fn counter(c: Counter) -> u64 {
    COUNTERS[c as usize].load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// histograms
// ---------------------------------------------------------------------------

/// Fixed set of latency histograms (log2-bucketed nanoseconds).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Hist {
    /// One `apply_into` call (per-vector serving latency).
    ApplyVectorNs = 0,
    /// One `apply_block_into` call (blocked serving latency).
    ApplyBlockNs = 1,
    /// One black-box solve (per RHS vector; batch of `k` records `k`
    /// equal shares of the batch wall time).
    SolveNs = 2,
}

const N_HISTS: usize = 3;
const N_BUCKETS: usize = 64;

const HIST_NAMES: [&str; N_HISTS] = ["apply_vector_ns", "apply_block_ns", "solve_ns"];

struct HistData {
    buckets: [AtomicU64; N_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)] // const used only as array seed
const HIST_ZERO: HistData = HistData {
    buckets: [ATOMIC_ZERO; N_BUCKETS],
    count: ATOMIC_ZERO,
    sum: ATOMIC_ZERO,
    max: ATOMIC_ZERO,
};

static HISTS: [HistData; N_HISTS] = [HIST_ZERO; N_HISTS];

/// `floor(log2(ns)) + 1`, so bucket `i` covers `[2^(i-1), 2^i)`.
fn bucket_of(ns: u64) -> usize {
    (64 - ns.leading_zeros() as usize).min(N_BUCKETS - 1)
}

/// Records one sample. No-op (one relaxed load) when disabled.
#[inline]
pub fn record_ns(h: Hist, ns: u64) {
    if enabled() {
        record_ns_always(h, ns);
    }
}

/// Records `count` samples of `ns_each` nanoseconds in O(1) atomic work
/// — how a batched solve of `k` columns attributes `k` equal shares of
/// its wall time. No-op when disabled.
#[inline]
pub fn record_ns_many(h: Hist, ns_each: u64, count: u64) {
    if enabled() && count > 0 {
        let d = &HISTS[h as usize];
        d.buckets[bucket_of(ns_each)].fetch_add(count, Ordering::Relaxed);
        d.count.fetch_add(count, Ordering::Relaxed);
        d.sum.fetch_add(ns_each.saturating_mul(count), Ordering::Relaxed);
        d.max.fetch_max(ns_each, Ordering::Relaxed);
    }
}

fn record_ns_always(h: Hist, ns: u64) {
    let d = &HISTS[h as usize];
    d.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
    d.count.fetch_add(1, Ordering::Relaxed);
    d.sum.fetch_add(ns, Ordering::Relaxed);
    d.max.fetch_max(ns, Ordering::Relaxed);
}

/// Number of samples recorded in a histogram.
pub fn hist_count(h: Hist) -> u64 {
    HISTS[h as usize].count.load(Ordering::Relaxed)
}

/// Largest sample recorded in a histogram, in nanoseconds.
pub fn hist_max_ns(h: Hist) -> u64 {
    HISTS[h as usize].max.load(Ordering::Relaxed)
}

/// Sum of all samples, in nanoseconds.
pub fn hist_sum_ns(h: Hist) -> u64 {
    HISTS[h as usize].sum.load(Ordering::Relaxed)
}

/// Quantile estimate (`0 < q <= 1`): the upper bound of the log2 bucket
/// containing the `q`-th sample, clamped to the largest recorded sample
/// ([`hist_max_ns`]) — so the estimate is within 2x of the true value and
/// never above the observed max. Returns 0 on an empty histogram.
pub fn hist_quantile_ns(h: Hist, q: f64) -> u64 {
    let d = &HISTS[h as usize];
    let total = d.count.load(Ordering::Relaxed);
    if total == 0 {
        return 0;
    }
    let max = d.max.load(Ordering::Relaxed);
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (i, b) in d.buckets.iter().enumerate() {
        seen += b.load(Ordering::Relaxed);
        if seen >= rank {
            // upper edge of bucket i = 2^i (bucket 0 holds only ns=0)
            return if i == 0 { 0 } else { (1u64 << i.min(63)).min(max) };
        }
    }
    max
}

/// RAII timer feeding a histogram on drop. Costs one relaxed load when
/// the recorder is disabled.
pub struct HistTimer {
    inner: Option<(Hist, Instant)>,
}

/// Starts a histogram timer; the sample is recorded when the guard drops.
#[inline]
pub fn time_hist(h: Hist) -> HistTimer {
    HistTimer { inner: if enabled() { Some((h, Instant::now())) } else { None } }
}

impl Drop for HistTimer {
    fn drop(&mut self) {
        if let Some((h, start)) = self.inner.take() {
            record_ns_always(h, start.elapsed().as_nanos() as u64);
        }
    }
}

// ---------------------------------------------------------------------------
// spans
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
struct Event {
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
    track: u64,
    arg: Option<u64>,
}

static NEXT_TRACK: AtomicU64 = AtomicU64::new(1);

fn sink() -> &'static Mutex<Vec<Event>> {
    static SINK: OnceLock<Mutex<Vec<Event>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(Vec::new()))
}

struct LocalBuf {
    events: Vec<Event>,
    track: u64,
}

impl LocalBuf {
    fn new() -> Self {
        LocalBuf { events: Vec::new(), track: NEXT_TRACK.fetch_add(1, Ordering::Relaxed) }
    }

    fn flush(&mut self) {
        if self.events.is_empty() {
            return;
        }
        let mut sink = sink().lock().unwrap();
        let room = MAX_EVENTS.saturating_sub(sink.len());
        let take = self.events.len().min(room);
        sink.extend_from_slice(&self.events[..take]);
        drop(sink);
        let dropped = self.events.len() - take;
        if dropped > 0 {
            COUNTERS[Counter::EventsDropped as usize].fetch_add(dropped as u64, Ordering::Relaxed);
        }
        self.events.clear();
    }
}

impl Drop for LocalBuf {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL: RefCell<LocalBuf> = RefCell::new(LocalBuf::new());
}

fn push_event(ev: Event) {
    // A re-entrant or torn-down TLS access just drops the event.
    let _ = LOCAL.try_with(|b| {
        let mut b = b.borrow_mut();
        b.events.push(ev);
        if b.events.len() >= FLUSH_THRESHOLD {
            b.flush();
        }
    });
}

/// Flushes the calling thread's buffered span events into the global
/// sink. Exporters call this for the main thread; worker threads flush
/// automatically on exit.
pub fn flush_thread() {
    let _ = LOCAL.try_with(|b| b.borrow_mut().flush());
}

/// RAII span guard: records a complete event (name, start, duration, and
/// the recording thread's track) when dropped. Costs one relaxed load
/// when the recorder is disabled.
pub struct Span {
    inner: Option<SpanInner>,
}

struct SpanInner {
    name: &'static str,
    start_ns: u64,
    start: Instant,
    track: Option<u64>,
    arg: Option<u64>,
    flush_on_drop: bool,
}

fn span_inner(name: &'static str, track: Option<u64>, arg: Option<u64>) -> Span {
    if !enabled() {
        return Span { inner: None };
    }
    Span {
        inner: Some(SpanInner {
            name,
            start_ns: now_ns(),
            start: Instant::now(),
            track,
            arg,
            flush_on_drop: false,
        }),
    }
}

/// Opens a span on the calling thread's track.
#[inline]
pub fn span(name: &'static str) -> Span {
    span_inner(name, None, None)
}

/// Opens a span carrying one integer argument (e.g. an FWT level or a
/// shard index), shown in the trace viewer and Chrome JSON `args`.
#[inline]
pub fn span_arg(name: &'static str, arg: u64) -> Span {
    span_inner(name, None, Some(arg))
}

/// Opens a span pinned to an explicit track id instead of the calling
/// thread's. Pool-worker stints (`ParallelApply` shards, FWT level
/// chunks) use this so a shard's events land on a stable per-shard
/// track regardless of which persistent executor thread ran it.
///
/// A tracked span also flushes its thread's event buffer when it drops.
/// This is what makes worker events lossless: the executor's workers
/// park between dispatches and live until process exit, so their TLS
/// destructors (the other flush point) may never run — the outermost
/// span of a worker stint must push everything the worker buffered into
/// the global sink before the dispatch completes.
#[inline]
pub fn span_track(name: &'static str, track: u64, arg: u64) -> Span {
    let mut s = span_inner(name, Some(track), Some(arg));
    if let Some(inner) = &mut s.inner {
        inner.flush_on_drop = true;
    }
    s
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(s) = self.inner.take() {
            let dur_ns = s.start.elapsed().as_nanos() as u64;
            let track =
                s.track.unwrap_or_else(|| LOCAL.try_with(|b| b.borrow().track).unwrap_or(0));
            push_event(Event { name: s.name, start_ns: s.start_ns, dur_ns, track, arg: s.arg });
            if s.flush_on_drop {
                flush_thread();
            }
        }
    }
}

/// Track id used by the pool-dispatching executors for worker slot `i`:
/// stable regardless of which pool thread serves the slot, disjoint
/// from natural thread tracks.
pub fn worker_track(slot: usize) -> u64 {
    1_000_000 + slot as u64
}

// ---------------------------------------------------------------------------
// reset
// ---------------------------------------------------------------------------

/// Clears every counter, histogram, and buffered/retained span event.
/// Does not change the enabled flag. Call between runs that share a
/// process (tests, benches).
pub fn reset() {
    flush_thread();
    sink().lock().unwrap().clear();
    for c in COUNTERS.iter() {
        c.store(0, Ordering::Relaxed);
    }
    for h in HISTS.iter() {
        for b in h.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        h.count.store(0, Ordering::Relaxed);
        h.sum.store(0, Ordering::Relaxed);
        h.max.store(0, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// exporters
// ---------------------------------------------------------------------------

/// Formats nanoseconds with an adaptive unit, spelled in ASCII (`ns`,
/// `us`, `ms`, `s`): the trace summary, the report rows `cli sparsify`
/// prints and the bench crate's timed rows all print durations this way.
pub fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}us", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

/// Human-readable summary: counters, histogram quantiles, and per-name
/// span aggregates. Flushes the calling thread first.
pub fn summary() -> String {
    flush_thread();
    let mut out = String::new();
    out.push_str("== trace summary ==\n");

    out.push_str("counters:\n");
    for (i, name) in COUNTER_NAMES.iter().enumerate() {
        let v = COUNTERS[i].load(Ordering::Relaxed);
        if v > 0 {
            out.push_str(&format!("  {name:<18} {v}\n"));
        }
    }

    out.push_str("latency histograms (p50/p90/p99 are log2-bucket upper bounds, capped at max):\n");
    out.push_str(&format!(
        "  {:<18} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
        "histogram", "count", "mean", "p50", "p90", "p99", "max"
    ));
    for (i, name) in HIST_NAMES.iter().enumerate() {
        let h = match i {
            0 => Hist::ApplyVectorNs,
            1 => Hist::ApplyBlockNs,
            _ => Hist::SolveNs,
        };
        let count = hist_count(h);
        if count == 0 {
            continue;
        }
        let mean = hist_sum_ns(h) / count;
        out.push_str(&format!(
            "  {:<18} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
            name,
            count,
            format_ns(mean as f64),
            format_ns(hist_quantile_ns(h, 0.50) as f64),
            format_ns(hist_quantile_ns(h, 0.90) as f64),
            format_ns(hist_quantile_ns(h, 0.99) as f64),
            format_ns(hist_max_ns(h) as f64),
        ));
    }

    // per-name span aggregates, deterministic order (sorted by name)
    let events = sink().lock().unwrap();
    let mut by_name: Vec<(&'static str, u64, u64, u64, u64)> = Vec::new();
    for ev in events.iter() {
        match by_name.iter_mut().find(|row| row.0 == ev.name) {
            Some(row) => {
                row.1 += 1;
                row.2 += ev.dur_ns;
                row.3 = row.3.min(ev.dur_ns);
                row.4 = row.4.max(ev.dur_ns);
            }
            None => by_name.push((ev.name, 1, ev.dur_ns, ev.dur_ns, ev.dur_ns)),
        }
    }
    drop(events);
    by_name.sort_by_key(|row| row.0);
    if !by_name.is_empty() {
        out.push_str("spans:\n");
        out.push_str(&format!(
            "  {:<28} {:>8} {:>10} {:>9} {:>9} {:>9}\n",
            "span", "count", "total", "mean", "min", "max"
        ));
        for (name, count, total, min, max) in by_name {
            out.push_str(&format!(
                "  {:<28} {:>8} {:>10} {:>9} {:>9} {:>9}\n",
                name,
                count,
                format_ns(total as f64),
                format_ns((total / count) as f64),
                format_ns(min as f64),
                format_ns(max as f64),
            ));
        }
    }
    out
}

/// Chrome-trace-format JSON (`chrome://tracing` / Perfetto loadable):
/// one "X" complete event per span with per-thread tracks, plus thread
/// name metadata. Flushes the calling thread first.
pub fn chrome_json() -> String {
    flush_thread();
    let events = sink().lock().unwrap();
    let mut tracks: Vec<u64> = Vec::new();
    for ev in events.iter() {
        if !tracks.contains(&ev.track) {
            tracks.push(ev.track);
        }
    }
    tracks.sort_unstable();

    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for &t in &tracks {
        if !first {
            out.push(',');
        }
        first = false;
        let label = if t >= 1_000_000 {
            format!("worker-{}", t - 1_000_000)
        } else if t == 1 {
            "main".to_string()
        } else {
            format!("thread-{t}")
        };
        out.push_str(&format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{t},\
             \"args\":{{\"name\":\"{label}\"}}}}"
        ));
    }
    for ev in events.iter() {
        if !first {
            out.push(',');
        }
        first = false;
        let ts = ev.start_ns as f64 / 1e3;
        let dur = (ev.dur_ns as f64 / 1e3).max(0.001);
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{ts:.3},\"dur\":{dur:.3}",
            ev.name, ev.track
        ));
        if let Some(arg) = ev.arg {
            out.push_str(&format!(",\"args\":{{\"arg\":{arg}}}"));
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Every test in this module shares the process-global recorder, so
    // they run under one lock to stay deterministic under the default
    // multi-threaded test harness.
    fn with_recorder(f: impl FnOnce()) {
        static GUARD: Mutex<()> = Mutex::new(());
        let _g = GUARD.lock().unwrap();
        set_enabled(true);
        reset();
        f();
        set_enabled(false);
        reset();
    }

    #[test]
    fn disabled_probes_are_inert() {
        set_enabled(false);
        add(Counter::Solves, 5);
        record_ns(Hist::SolveNs, 100);
        drop(span("noop"));
        drop(time_hist(Hist::ApplyVectorNs));
        // nothing recorded while disabled
        assert_eq!(counter(Counter::Solves), 0);
        assert_eq!(hist_count(Hist::SolveNs), 0);
    }

    #[test]
    fn counters_accumulate() {
        with_recorder(|| {
            add(Counter::Solves, 3);
            add(Counter::Solves, 4);
            add(Counter::ColPanels, 16);
            assert_eq!(counter(Counter::Solves), 7);
            assert_eq!(counter(Counter::ColPanels), 16);
        });
    }

    #[test]
    fn histogram_quantiles_bracket_samples() {
        with_recorder(|| {
            for ns in [100u64, 200, 400, 800, 100_000] {
                record_ns(Hist::ApplyVectorNs, ns);
            }
            assert_eq!(hist_count(Hist::ApplyVectorNs), 5);
            assert_eq!(hist_max_ns(Hist::ApplyVectorNs), 100_000);
            let p50 = hist_quantile_ns(Hist::ApplyVectorNs, 0.50);
            // third sample is 400ns; its bucket upper bound is 512
            assert_eq!(p50, 512);
            let p99 = hist_quantile_ns(Hist::ApplyVectorNs, 0.99);
            assert!(p99 >= 100_000, "p99 {p99} must cover the slowest sample");
            // quantile estimates never exceed 2x the true value
            assert!(p99 <= 2 * 100_000);
        });
    }

    #[test]
    fn quantiles_never_exceed_the_observed_max() {
        with_recorder(|| {
            // 300ns sits in the [256, 512) bucket, whose upper edge (512)
            // is above every sample
            for _ in 0..5 {
                record_ns(Hist::ApplyVectorNs, 300);
            }
            assert_eq!(hist_max_ns(Hist::ApplyVectorNs), 300);
            for q in [0.5, 0.9, 0.99, 1.0] {
                let v = hist_quantile_ns(Hist::ApplyVectorNs, q);
                assert!(v <= 300, "q={q}: {v}ns above the 300ns max");
            }
        });
    }

    #[test]
    fn bucket_of_is_monotonic() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), N_BUCKETS - 1);
        let mut prev = 0;
        for ns in [0u64, 1, 7, 63, 64, 65, 1 << 20, 1 << 40] {
            let b = bucket_of(ns);
            assert!(b >= prev);
            prev = b;
        }
    }

    #[test]
    fn spans_reach_exporters() {
        with_recorder(|| {
            {
                let _outer = span("outer");
                let _inner = span_arg("inner", 3);
            }
            drop(span_track("worker.shard", worker_track(2), 0));
            let json = chrome_json();
            assert!(json.contains("\"name\":\"outer\""));
            assert!(json.contains("\"name\":\"inner\""));
            assert!(json.contains("\"args\":{\"arg\":3}"));
            assert!(json.contains("worker-2"));
            assert!(json.contains("\"ph\":\"X\""));
            let text = summary();
            assert!(text.contains("outer"));
            assert!(text.contains("worker.shard"));
        });
    }

    #[test]
    fn ns_formatting() {
        assert_eq!(format_ns(12.0), "12ns");
        assert_eq!(format_ns(1500.0), "1.50us");
        assert_eq!(format_ns(2.5e6), "2.50ms");
        assert_eq!(format_ns(3.1e9), "3.10s");
    }

    #[test]
    fn summary_of_a_traced_apply_spells_units_in_ascii() {
        with_recorder(|| {
            let op = crate::Csr::identity(64);
            let (x, mut y) = (vec![1.0; 64], vec![0.0; 64]);
            let mut ws = crate::ApplyWorkspace::new();
            crate::CouplingOp::apply_into(&op, &x, &mut y, &mut ws);
            let block = crate::Mat::zeros(64, 4);
            drop(crate::CouplingOp::apply_block(&op, &block));
            // microsecond and millisecond samples, whatever the machine
            record_ns(Hist::ApplyVectorNs, 7_740);
            record_ns(Hist::SolveNs, 2_500_000);
            let text = summary();
            assert!(text.contains("apply_vector_ns") && text.contains("apply_block.csr"), "{text}");
            assert!(text.contains("7.74us") && text.contains("2.50ms"), "{text}");
            assert!(!text.contains('\u{b5}'), "micro sign in the summary:\n{text}");
        });
    }

    #[test]
    fn reset_clears_everything() {
        with_recorder(|| {
            add(Counter::ColPanels, 9);
            record_ns(Hist::ApplyBlockNs, 123);
            drop(span("gone"));
            reset();
            assert_eq!(counter(Counter::ColPanels), 0);
            assert_eq!(hist_count(Hist::ApplyBlockNs), 0);
            assert!(!chrome_json().contains("gone"));
        });
    }
}

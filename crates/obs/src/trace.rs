//! Span-based tracing with thread-local event buffers and Chrome
//! `trace_event` JSON export.
//!
//! Instrumented sites call [`span`] (RAII) or [`record`] and pay a single
//! relaxed atomic load plus an untaken branch while tracing is disabled —
//! no allocation, no lock, no clock read — so the training hot path is
//! bit-for-bit unaffected. When enabled, each thread appends finished
//! spans to its own buffer (a per-thread `Mutex` that only its owner
//! touches on the hot path, so the lock is always uncontended there);
//! [`take_events`] drains every buffer for a flush, and
//! [`write_chrome_trace`] serialises the result as an array of complete
//! ("X") `trace_event` records loadable in `chrome://tracing` / Perfetto.

use parking_lot::Mutex;
use std::borrow::Cow;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Cap on buffered events per thread (only the ring's own test lowers
/// it); at the cap each thread's buffer becomes a ring that overwrites its
/// OLDEST event (counted in [`dropped_events`]), so a forgotten flush
/// cannot eat unbounded memory and the trace keeps the most recent window
/// — the part that explains a crash.
pub const MAX_EVENTS_PER_THREAD: usize = 1 << 20;

static ENABLED: AtomicBool = AtomicBool::new(false);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);
static EVENT_LIMIT: AtomicUsize = AtomicUsize::new(MAX_EVENTS_PER_THREAD);
static PID: AtomicU64 = AtomicU64::new(1);

/// Set the process identity stamped on subsequently recorded events — the
/// `pid` track in the merged Chrome trace. The coordinator keeps the
/// default 1; distributed workers call `set_pid(rank + 2)` so every rank
/// renders as its own process track. Already-buffered events keep the pid
/// they were recorded under.
pub fn set_pid(pid: u64) {
    PID.store(pid, Ordering::Relaxed);
}

/// The process identity currently stamped on recorded events.
pub fn pid() -> u64 {
    PID.load(Ordering::Relaxed)
}

/// Current per-thread retained-event bound.
fn event_limit() -> usize {
    EVENT_LIMIT.load(Ordering::Relaxed)
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the trace epoch — the clock every recorded
/// timestamp is measured on. Pins the epoch on first call. This is what
/// the distributed clock-offset handshake exchanges: the coordinator
/// stamps its `now_us()` into the welcome payload, the worker samples its
/// own on receipt, and the difference shifts worker events onto the
/// coordinator's timeline (error bounded by the one-way network delay).
pub fn now_us() -> f64 {
    Instant::now()
        .saturating_duration_since(epoch())
        .as_secs_f64()
        * 1e6
}

/// Turn span collection on or off. All instrumented sites observe the flag
/// with a relaxed load; flipping it does not disturb events already
/// buffered.
pub fn set_enabled(on: bool) {
    if on {
        // Pin the trace epoch the first time tracing is switched on so
        // timestamps are small offsets, not process-lifetime offsets.
        let _ = epoch();
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether span collection is currently on. Instrumentation sites branch on
/// this before doing any work.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Number of (oldest-first) events overwritten because a thread buffer hit
/// its limit ([`MAX_EVENTS_PER_THREAD`]).
pub fn dropped_events() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// One finished span: `[ts_us, ts_us + dur_us)` on thread `tid` of
/// process `pid`.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Span name, e.g. `"fwd:conv1"` or `"barrier_wait"`.
    pub name: Cow<'static, str>,
    /// Category, e.g. `"omprt"`, `"layer"`, `"driver"`, `"ckpt"`.
    pub cat: &'static str,
    /// Start, microseconds since the trace epoch.
    pub ts_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Stable per-thread id (dense, assigned at first event).
    pub tid: u64,
    /// Process identity (see [`set_pid`]): 1 for a solo process or the
    /// dist coordinator, `rank + 2` for distributed workers.
    pub pid: u64,
}

/// Per-thread event store: a plain Vec until [`event_limit`] is reached,
/// then a ring overwriting from `head` (the oldest slot).
#[derive(Default)]
struct RingBuf {
    events: Vec<Event>,
    head: usize,
}

impl RingBuf {
    fn push(&mut self, ev: Event) {
        let limit = event_limit();
        if self.events.len() < limit {
            self.events.push(ev);
            return;
        }
        // At capacity (or above it, if the limit was lowered mid-run):
        // overwrite the oldest slot and count the casualty.
        if self.head >= self.events.len() {
            self.head = 0;
        }
        self.events[self.head] = ev;
        self.head += 1;
        DROPPED.fetch_add(1, Ordering::Relaxed);
    }

    fn drain_into(&mut self, out: &mut Vec<Event>) {
        // Rotation does not matter downstream: take_events sorts globally
        // by start time.
        out.append(&mut self.events);
        self.head = 0;
    }
}

struct ThreadBuf {
    tid: u64,
    events: Mutex<RingBuf>,
}

fn sinks() -> &'static Mutex<Vec<Arc<ThreadBuf>>> {
    static SINKS: OnceLock<Mutex<Vec<Arc<ThreadBuf>>>> = OnceLock::new();
    SINKS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL: Arc<ThreadBuf> = {
        let buf = Arc::new(ThreadBuf {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            events: Mutex::new(RingBuf::default()),
        });
        sinks().lock().push(buf.clone());
        buf
    };
}

fn push(name: Cow<'static, str>, cat: &'static str, ts_us: f64, dur_us: f64) {
    LOCAL.with(|buf| {
        let ev = Event {
            name,
            cat,
            ts_us,
            dur_us,
            tid: buf.tid,
            pid: pid(),
        };
        buf.events.lock().push(ev);
    });
}

fn to_us(start: Instant, dur: std::time::Duration) -> (f64, f64) {
    let ts = start.saturating_duration_since(epoch());
    (ts.as_secs_f64() * 1e6, dur.as_secs_f64() * 1e6)
}

/// RAII guard for an in-progress span; records the event when dropped.
pub struct Span {
    name: Cow<'static, str>,
    cat: &'static str,
    start: Instant,
}

impl Drop for Span {
    fn drop(&mut self) {
        let (ts_us, dur_us) = to_us(self.start, self.start.elapsed());
        push(
            std::mem::replace(&mut self.name, Cow::Borrowed("")),
            self.cat,
            ts_us,
            dur_us,
        );
    }
}

/// Open a span named `name` in category `cat`; the span closes (and the
/// event is recorded) when the returned guard drops. Returns `None` — at
/// the cost of one relaxed load — while tracing is disabled.
#[inline]
pub fn span(name: &'static str, cat: &'static str) -> Option<Span> {
    if !enabled() {
        return None;
    }
    Some(Span {
        name: Cow::Borrowed(name),
        cat,
        start: Instant::now(),
    })
}

/// Record an already-measured span (for sites that time with their own
/// `Instant`, like the per-layer pass loop in `Net`).
#[inline]
pub fn record(name: &'static str, cat: &'static str, start: Instant, dur: std::time::Duration) {
    if !enabled() {
        return;
    }
    let (ts_us, dur_us) = to_us(start, dur);
    push(Cow::Borrowed(name), cat, ts_us, dur_us);
}

/// [`record`] with an owned name. Gate on [`enabled`] before formatting.
#[inline]
pub fn record_owned(name: String, cat: &'static str, start: Instant, dur: std::time::Duration) {
    if !enabled() {
        return;
    }
    let (ts_us, dur_us) = to_us(start, dur);
    push(Cow::Owned(name), cat, ts_us, dur_us);
}

/// Foreign events handed over by [`inject_events`] (e.g. a distributed
/// worker's trace shipped to the coordinator), merged into the next
/// [`take_events`] drain.
fn injected() -> &'static Mutex<Vec<Event>> {
    static INJECTED: OnceLock<Mutex<Vec<Event>>> = OnceLock::new();
    INJECTED.get_or_init(|| Mutex::new(Vec::new()))
}

/// Add already-built events (typically deserialized from another process,
/// carrying their own `pid`/`tid`/timestamps) to the store drained by
/// [`take_events`] — how the dist coordinator folds worker trace buffers
/// into the single merged Chrome trace it writes.
pub fn inject_events(events: Vec<Event>) {
    injected().lock().extend(events);
}

/// Drain every thread's buffer — plus any [`inject_events`] hand-offs —
/// and return all events sorted by start time. Buffers belonging to
/// threads that have exited are pruned from the sink list once emptied.
pub fn take_events() -> Vec<Event> {
    let mut out = Vec::new();
    let mut list = sinks().lock();
    list.retain(|buf| {
        buf.events.lock().drain_into(&mut out);
        // strong_count == 1 ⇒ the owning thread's TLS slot is gone.
        Arc::strong_count(buf) > 1
    });
    drop(list);
    out.append(&mut injected().lock());
    out.sort_by(|a, b| a.ts_us.total_cmp(&b.ts_us));
    out
}

fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

fn write_event_records(
    w: &mut impl Write,
    events: &[Event],
    comma_after_last: bool,
) -> io::Result<()> {
    let mut line = String::new();
    for (i, e) in events.iter().enumerate() {
        line.clear();
        line.push_str("{\"name\":\"");
        escape_json(&e.name, &mut line);
        line.push_str("\",\"cat\":\"");
        escape_json(e.cat, &mut line);
        line.push_str("\",\"ph\":\"X\",\"pid\":");
        let _ = std::fmt::Write::write_fmt(
            &mut line,
            format_args!(
                "{},\"tid\":{},\"ts\":{:.3},\"dur\":{:.3}}}{}",
                e.pid,
                e.tid,
                e.ts_us,
                e.dur_us,
                if i + 1 < events.len() || comma_after_last {
                    ","
                } else {
                    ""
                }
            ),
        );
        writeln!(w, "{line}")?;
    }
    Ok(())
}

/// Write `events` as a Chrome `trace_event` JSON array of complete ("X")
/// events — the format `chrome://tracing` and Perfetto load directly.
pub fn write_chrome_trace(w: &mut impl Write, events: &[Event]) -> io::Result<()> {
    writeln!(w, "[")?;
    write_event_records(w, events, false)?;
    writeln!(w, "]")?;
    Ok(())
}

/// [`write_chrome_trace`], plus a final counter ("C") record named
/// `dropped_events` carrying `dropped` — how many events the ring buffers
/// overwrote — so a flushed trace self-reports whether it is complete.
/// `tracecheck` validates the counter's presence and value.
pub fn write_chrome_trace_with_dropped(
    w: &mut impl Write,
    events: &[Event],
    dropped: u64,
) -> io::Result<()> {
    writeln!(w, "[")?;
    write_event_records(w, events, true)?;
    write_dropped_record(w, dropped)?;
    writeln!(w, "]")?;
    Ok(())
}

/// The `dropped_events` counter ("C") record, comma-free — always the last
/// record in the array.
fn write_dropped_record(w: &mut impl Write, dropped: u64) -> io::Result<()> {
    writeln!(
        w,
        "{{\"name\":\"dropped_events\",\"cat\":\"obs\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\
         \"ts\":0.000,\"args\":{{\"dropped\":{dropped}}}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bound retained events per thread to `n`: beyond it the oldest are
    /// overwritten and counted in [`dropped_events`].
    fn set_event_limit(n: usize) {
        EVENT_LIMIT.store(n, Ordering::Relaxed);
    }

    // Trace state is process-global; keep the tests that toggle it serial.
    fn serial() -> parking_lot::MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(())).lock()
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = serial();
        set_enabled(false);
        let _ = take_events();
        assert!(span("x", "t").is_none());
        record(
            "y",
            "t",
            Instant::now(),
            std::time::Duration::from_micros(5),
        );
        assert!(take_events().is_empty());
    }

    #[test]
    fn span_records_on_drop_with_duration() {
        let _g = serial();
        set_enabled(true);
        let _ = take_events();
        {
            let _s = span("work", "test");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        set_enabled(false);
        let events = take_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "work");
        assert_eq!(events[0].cat, "test");
        assert!(events[0].dur_us >= 1_000.0, "dur {}", events[0].dur_us);
    }

    #[test]
    fn multi_thread_events_get_distinct_tids_and_sorted_ts() {
        let _g = serial();
        set_enabled(true);
        let _ = take_events();
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    for _ in 0..10 {
                        let _s = span("r", "omprt");
                    }
                });
            }
        });
        set_enabled(false);
        let events = take_events();
        assert_eq!(events.len(), 30);
        let tids: std::collections::BTreeSet<u64> = events.iter().map(|e| e.tid).collect();
        assert_eq!(tids.len(), 3);
        assert!(events.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
        // Dead threads' buffers are pruned once drained.
        assert!(take_events().is_empty());
    }

    #[test]
    fn chrome_trace_escapes_and_terminates() {
        let events = vec![
            Event {
                name: Cow::Borrowed("a\"b\\c\nd"),
                cat: "t",
                ts_us: 1.0,
                dur_us: 2.0,
                tid: 0,
                pid: 1,
            },
            Event {
                name: Cow::Borrowed("plain"),
                cat: "t",
                ts_us: 3.0,
                dur_us: 4.0,
                tid: 1,
                pid: 1,
            },
        ];
        let mut buf = Vec::new();
        write_chrome_trace(&mut buf, &events).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.starts_with("[\n"));
        assert!(s.trim_end().ends_with(']'));
        assert!(s.contains("a\\\"b\\\\c\\nd"));
        assert!(s.contains("\"ph\":\"X\""));
        assert!(s.contains("\"tid\":1"));
        // Exactly one separator comma between the two records.
        assert_eq!(s.matches("},").count(), 1);
    }

    #[test]
    fn event_limit_keeps_newest_and_counts_dropped() {
        let _g = serial();
        set_enabled(true);
        let _ = take_events();
        set_event_limit(4);
        let before = dropped_events();
        for i in 0..10 {
            record_owned(
                format!("e{i}"),
                "t",
                Instant::now(),
                std::time::Duration::from_micros(1),
            );
        }
        set_enabled(false);
        set_event_limit(MAX_EVENTS_PER_THREAD);
        let events = take_events();
        assert_eq!(events.len(), 4);
        // Drop-OLDEST: the survivors are the last four recorded.
        let names: std::collections::BTreeSet<&str> =
            events.iter().map(|e| e.name.as_ref()).collect();
        assert_eq!(
            names,
            ["e6", "e7", "e8", "e9"].into_iter().collect(),
            "ring should retain the newest events"
        );
        assert_eq!(dropped_events() - before, 6);
    }

    #[test]
    fn chrome_trace_with_dropped_appends_counter_record() {
        let events = vec![Event {
            name: Cow::Borrowed("x"),
            cat: "t",
            ts_us: 1.0,
            dur_us: 2.0,
            tid: 0,
            pid: 1,
        }];
        let mut buf = Vec::new();
        write_chrome_trace_with_dropped(&mut buf, &events, 7).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("\"name\":\"dropped_events\""));
        assert!(s.contains("\"ph\":\"C\""));
        assert!(s.contains("\"dropped\":7"));
        assert!(s.trim_end().ends_with(']'));
        // Both records present, separated by exactly one comma each.
        assert_eq!(s.matches("},").count(), 1);

        // Zero events still yields a well-formed array with the counter.
        let mut empty = Vec::new();
        write_chrome_trace_with_dropped(&mut empty, &[], 0).unwrap();
        let s = String::from_utf8(empty).unwrap();
        assert!(s.contains("\"dropped\":0"));
        assert_eq!(s.matches("},").count(), 0);
    }
}

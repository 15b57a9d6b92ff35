//! Structured solver telemetry for the bsolo reproduction.
//!
//! The solver runs N-way parallel branch-and-bound plus a local-search
//! walker; the flat `SolverStats` counters merged at join say *how much*
//! happened but not *when* or *where*. This crate adds the missing event
//! stream without touching hot-path cost when disabled:
//!
//! * [`Tracer`] — the handle the solver threads through engine, bound
//!   pipeline, search state, and LS. It is either off or buffered: the
//!   off path is a single branch, allocation-free, and `#[inline]`; the
//!   buffered one appends to a plain `Vec<Event>`. Each worker owns its
//!   buffer behind an `Rc` (the handle is deliberately `!Send`), so the
//!   hot path never takes a lock; the drained `Vec<Event>` is what
//!   crosses threads at join.
//! * [`TraceEvent`] — the typed vocabulary: engine decisions, conflicts
//!   and restarts, bound calls with method/outcome/margin, incumbent
//!   publications and adoptions, LS restarts, and the cube lifecycle
//!   (dequeue wait, dive, re-split, close, clause publish/import,
//!   quarantine).
//! * Exporters: [`write_jsonl`] (one event per line, stable schema) and
//!   [`write_chrome`] (Chrome `trace_event` JSON that opens in
//!   `chrome://tracing` / Perfetto with one lane per worker).
//! * [`MetricsRegistry`] — an aggregation pass over a drained event
//!   stream: per-kind counters plus fixed-bucket duration histograms for
//!   bound-call time, queue wait, and dive length.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

/// Outcome of one lower-bound pipeline call, as seen by the search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BoundOutcome {
    /// The bound pruned the current node (`lb >= upper`).
    Pruned,
    /// The residual subproblem was proven infeasible.
    Infeasible,
    /// The node stayed open; the search keeps branching.
    Open,
}

impl BoundOutcome {
    /// Stable lower-case name used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            BoundOutcome::Pruned => "pruned",
            BoundOutcome::Infeasible => "infeasible",
            BoundOutcome::Open => "open",
        }
    }
}

/// The typed event vocabulary.
///
/// Payload fields that are durations (`dur_ns`, `wait_ns`) are wall-time
/// measurements and therefore vary run to run; [`Event::stable_key`]
/// excludes them so deterministic-join event sequences can be compared
/// across runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// One engine branching decision (`Engine::decide`).
    Decision,
    /// One engine conflict (propagation or ad-hoc bound conflict).
    Conflict,
    /// One engine restart (Luby cadence).
    Restart,
    /// One lower-bound pipeline call.
    Bound {
        /// Bounding method (`plain`, `mis`, `lgr`, `lpr`).
        method: &'static str,
        /// What the bound did to the node.
        outcome: BoundOutcome,
        /// `lb - path_cost` at the call (0 when infeasible).
        margin: i64,
        /// Time spent inside the bound kernel.
        dur_ns: u64,
    },
    /// This worker found a new incumbent (counted in `solutions_found`).
    Solution {
        /// Objective value of the incumbent.
        cost: i64,
    },
    /// This worker adopted an incumbent published by another worker.
    Adopt {
        /// Objective value of the adopted incumbent.
        cost: i64,
    },
    /// Local-search restart.
    LsRestart,
    /// A worker dequeued a cube and started its subtree search.
    CubeStart {
        /// Number of decision literals fixed by the cube.
        depth: u32,
    },
    /// A worker finished a cube subtree.
    CubeEnd {
        /// Cube depth, mirrored from the matching [`TraceEvent::CubeStart`].
        depth: u32,
        /// `true` when the subtree was closed (refuted or exhausted),
        /// `false` when the cube was re-split and re-queued.
        closed: bool,
        /// Wall time from dequeue to finish.
        dur_ns: u64,
    },
    /// A cube was re-split into child cubes that went back on the queue.
    Resplit {
        /// Number of child cubes produced.
        arms: u32,
    },
    /// Published learned clauses to the shared pool.
    ClausesShared {
        /// Number of clauses published by this call.
        n: u64,
    },
    /// Imported learned clauses from the shared pool.
    ClausesImported {
        /// Number of clauses imported by this call.
        n: u64,
    },
    /// Time a worker spent blocked on the cube queue.
    QueueWait {
        /// Wall time spent waiting.
        wait_ns: u64,
    },
    /// A primal dive finished.
    DiveEnd {
        /// Number of dive decisions taken.
        len: u32,
        /// `true` when the dive ended in an unrecoverable conflict.
        refuted: bool,
        /// Wall time spent diving.
        dur_ns: u64,
    },
    /// Decisions consumed by the deterministic cube splitter, recorded
    /// in bulk on the driver lane so event totals reconcile with
    /// `SolverStats::decisions`.
    SplitterDecisions {
        /// Number of splitter lookahead decisions.
        n: u64,
    },
    /// A worker thread died (panicked) and was contained; the solve
    /// continues with the survivors (counted in
    /// `SolverStats::workers_lost`).
    WorkerLost,
    /// A dying worker's in-flight cube was quarantined — left unexplored
    /// but accounted for, so the final status degrades honestly (counted
    /// in `SolverStats::cubes_quarantined`).
    CubeQuarantined {
        /// Number of decision literals fixed by the quarantined cube.
        depth: u32,
    },
}

impl TraceEvent {
    /// Stable lower-snake-case kind name used by the exporters.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Decision => "decision",
            TraceEvent::Conflict => "conflict",
            TraceEvent::Restart => "restart",
            TraceEvent::Bound { .. } => "bound",
            TraceEvent::Solution { .. } => "solution",
            TraceEvent::Adopt { .. } => "adopt",
            TraceEvent::LsRestart => "ls_restart",
            TraceEvent::CubeStart { .. } => "cube_start",
            TraceEvent::CubeEnd { .. } => "cube_end",
            TraceEvent::Resplit { .. } => "resplit",
            TraceEvent::ClausesShared { .. } => "clauses_shared",
            TraceEvent::ClausesImported { .. } => "clauses_imported",
            TraceEvent::QueueWait { .. } => "queue_wait",
            TraceEvent::DiveEnd { .. } => "dive_end",
            TraceEvent::SplitterDecisions { .. } => "splitter_decisions",
            TraceEvent::WorkerLost => "worker_lost",
            TraceEvent::CubeQuarantined { .. } => "cube_quarantined",
        }
    }
}

/// One recorded event: a timestamp relative to the run epoch, the lane
/// (0 = driver/sequential, 1..=N = B&B workers, 64 = the LS walker), and
/// the typed payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since the tracer epoch (solve start).
    pub t_ns: u64,
    /// Worker lane the event was recorded on.
    pub lane: u32,
    /// Typed payload.
    pub data: TraceEvent,
}

impl Event {
    /// Run-to-run stable key: lane + kind + the deterministic payload
    /// fields, with all wall-time measurements (`t_ns`, `dur_ns`,
    /// `wait_ns`) excluded. Under `deterministic_join` two runs must
    /// produce identical `stable_key` sequences.
    pub fn stable_key(&self) -> String {
        let mut s = format!("{}:{}", self.lane, self.data.kind());
        match &self.data {
            TraceEvent::Bound { method, outcome, margin, .. } => {
                let _ = write!(s, ":{method}:{}:{margin}", outcome.name());
            }
            TraceEvent::Solution { cost } | TraceEvent::Adopt { cost } => {
                let _ = write!(s, ":{cost}");
            }
            TraceEvent::ClausesShared { n }
            | TraceEvent::ClausesImported { n }
            | TraceEvent::SplitterDecisions { n } => {
                let _ = write!(s, ":{n}");
            }
            TraceEvent::CubeStart { depth } | TraceEvent::CubeQuarantined { depth } => {
                let _ = write!(s, ":{depth}");
            }
            TraceEvent::CubeEnd { depth, closed, .. } => {
                let _ = write!(s, ":{depth}:{closed}");
            }
            TraceEvent::Resplit { arms } => {
                let _ = write!(s, ":{arms}");
            }
            TraceEvent::DiveEnd { len, refuted, .. } => {
                let _ = write!(s, ":{len}:{refuted}");
            }
            TraceEvent::Decision
            | TraceEvent::Conflict
            | TraceEvent::Restart
            | TraceEvent::LsRestart
            | TraceEvent::WorkerLost
            | TraceEvent::QueueWait { .. } => {}
        }
        s
    }
}

/// The handle the solver threads through its layers.
///
/// Cloning shares the underlying buffer (engine, bound pipeline and
/// search state of one worker all append to the same lane). The handle
/// holds an `Rc` and is `!Send` on purpose: a buffer belongs to exactly
/// one worker thread, and only the drained `Vec<Event>` crosses threads.
#[derive(Clone, Debug)]
pub struct Tracer {
    /// Recorded events in emission order; `None` when tracing is off.
    buf: Option<Rc<RefCell<Vec<Event>>>>,
    epoch: Instant,
    lane: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::off()
    }
}

impl Tracer {
    /// A disabled tracer: `emit` is a branch and nothing else.
    pub fn off() -> Self {
        Tracer { buf: None, epoch: Instant::now(), lane: 0 }
    }

    /// A buffered tracer for `lane`, timestamping relative to `epoch`.
    pub fn buffered(lane: u32, epoch: Instant) -> Self {
        Tracer { buf: Some(Rc::new(RefCell::new(Vec::new()))), epoch, lane }
    }

    /// Whether events are being recorded. Callers can use this to skip
    /// payload computation that only matters when tracing.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.buf.is_some()
    }

    /// Lane this tracer records on.
    pub fn lane(&self) -> u32 {
        self.lane
    }

    /// Nanoseconds since the epoch (saturating at `u64::MAX`).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record `data` at the current time. The disabled path is a single
    /// `None` check and never allocates.
    #[inline]
    pub fn emit(&self, data: TraceEvent) {
        if let Some(buf) = &self.buf {
            let t_ns = self.now_ns();
            buf.borrow_mut().push(Event { t_ns, lane: self.lane, data });
        }
    }

    /// Take the recorded events out of the shared buffer, leaving it
    /// empty. Call once per worker at join; the returned `Vec` is `Send`.
    pub fn drain(&self) -> Vec<Event> {
        match &self.buf {
            Some(buf) => std::mem::take(&mut *buf.borrow_mut()),
            None => Vec::new(),
        }
    }
}

fn sorted_by_time(events: &[Event]) -> Vec<&Event> {
    let mut ordered: Vec<&Event> = events.iter().collect();
    ordered.sort_by_key(|e| (e.t_ns, e.lane));
    ordered
}

/// Serialize events as JSONL: one JSON object per line with the stable
/// schema `{"t_ns":..,"lane":..,"kind":..,...payload}`. Events are
/// written in timestamp order regardless of merge order.
pub fn write_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for e in sorted_by_time(events) {
        let _ =
            write!(out, "{{\"t_ns\":{},\"lane\":{},\"kind\":\"{}\"", e.t_ns, e.lane, e.data.kind());
        match &e.data {
            TraceEvent::Bound { method, outcome, margin, dur_ns } => {
                let _ = write!(
                    out,
                    ",\"method\":\"{method}\",\"outcome\":\"{}\",\"margin\":{margin},\"dur_ns\":{dur_ns}",
                    outcome.name()
                );
            }
            TraceEvent::Solution { cost } | TraceEvent::Adopt { cost } => {
                let _ = write!(out, ",\"cost\":{cost}");
            }
            TraceEvent::ClausesShared { n }
            | TraceEvent::ClausesImported { n }
            | TraceEvent::SplitterDecisions { n } => {
                let _ = write!(out, ",\"n\":{n}");
            }
            TraceEvent::CubeStart { depth } | TraceEvent::CubeQuarantined { depth } => {
                let _ = write!(out, ",\"depth\":{depth}");
            }
            TraceEvent::CubeEnd { depth, closed, dur_ns } => {
                let _ = write!(out, ",\"depth\":{depth},\"closed\":{closed},\"dur_ns\":{dur_ns}");
            }
            TraceEvent::Resplit { arms } => {
                let _ = write!(out, ",\"arms\":{arms}");
            }
            TraceEvent::QueueWait { wait_ns } => {
                let _ = write!(out, ",\"wait_ns\":{wait_ns}");
            }
            TraceEvent::DiveEnd { len, refuted, dur_ns } => {
                let _ = write!(out, ",\"len\":{len},\"refuted\":{refuted},\"dur_ns\":{dur_ns}");
            }
            TraceEvent::Decision
            | TraceEvent::Conflict
            | TraceEvent::Restart
            | TraceEvent::LsRestart
            | TraceEvent::WorkerLost => {}
        }
        out.push_str("}\n");
    }
    out
}

fn chrome_us(t_ns: u64) -> f64 {
    t_ns as f64 / 1000.0
}

fn push_chrome(out: &mut String, first: &mut bool, entry: &str) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
    out.push_str("  ");
    out.push_str(entry);
}

/// Serialize events in Chrome `trace_event` format (JSON array form).
///
/// The file opens directly in `chrome://tracing` or Perfetto with one
/// lane (`tid`) per worker: cube subtrees, queue waits and dives render
/// as duration spans; incumbents, adoptions, re-splits, restarts and
/// clause traffic render as instant markers. High-frequency per-node
/// events (decisions, conflicts, bound calls) are deliberately left to
/// the JSONL exporter — a trace viewer does not need millions of
/// sub-microsecond instants.
pub fn write_chrome(events: &[Event]) -> String {
    let mut lanes: Vec<u32> = events.iter().map(|e| e.lane).collect();
    lanes.sort_unstable();
    lanes.dedup();
    let mut out = String::from("[\n");
    let mut first = true;
    for lane in &lanes {
        let name = lane_name(*lane);
        push_chrome(
            &mut out,
            &mut first,
            &format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{lane},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{name}\"}}}}"
            ),
        );
    }
    for e in sorted_by_time(events) {
        let lane = e.lane;
        let entry = match &e.data {
            TraceEvent::CubeEnd { depth, closed, dur_ns } => Some(format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{lane},\"ts\":{:.3},\"dur\":{:.3},\
                 \"name\":\"cube\",\"args\":{{\"depth\":{depth},\"closed\":{closed}}}}}",
                chrome_us(e.t_ns.saturating_sub(*dur_ns)),
                chrome_us(*dur_ns),
            )),
            TraceEvent::QueueWait { wait_ns } => Some(format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{lane},\"ts\":{:.3},\"dur\":{:.3},\
                 \"name\":\"queue-wait\",\"args\":{{}}}}",
                chrome_us(e.t_ns.saturating_sub(*wait_ns)),
                chrome_us(*wait_ns),
            )),
            TraceEvent::DiveEnd { len, refuted, dur_ns } => Some(format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{lane},\"ts\":{:.3},\"dur\":{:.3},\
                 \"name\":\"dive\",\"args\":{{\"len\":{len},\"refuted\":{refuted}}}}}",
                chrome_us(e.t_ns.saturating_sub(*dur_ns)),
                chrome_us(*dur_ns),
            )),
            TraceEvent::Solution { cost } => {
                Some(instant(lane, e.t_ns, "incumbent", &format!("\"cost\":{cost}")))
            }
            TraceEvent::Adopt { cost } => {
                Some(instant(lane, e.t_ns, "adopt", &format!("\"cost\":{cost}")))
            }
            TraceEvent::Resplit { arms } => {
                Some(instant(lane, e.t_ns, "resplit", &format!("\"arms\":{arms}")))
            }
            TraceEvent::Restart => Some(instant(lane, e.t_ns, "restart", "")),
            TraceEvent::LsRestart => Some(instant(lane, e.t_ns, "ls-restart", "")),
            TraceEvent::ClausesShared { n } => {
                Some(instant(lane, e.t_ns, "clauses-shared", &format!("\"n\":{n}")))
            }
            TraceEvent::ClausesImported { n } => {
                Some(instant(lane, e.t_ns, "clauses-imported", &format!("\"n\":{n}")))
            }
            TraceEvent::SplitterDecisions { n } => {
                Some(instant(lane, e.t_ns, "splitter-decisions", &format!("\"n\":{n}")))
            }
            TraceEvent::WorkerLost => Some(instant(lane, e.t_ns, "worker-lost", "")),
            TraceEvent::CubeQuarantined { depth } => {
                Some(instant(lane, e.t_ns, "cube-quarantined", &format!("\"depth\":{depth}")))
            }
            TraceEvent::CubeStart { .. }
            | TraceEvent::Decision
            | TraceEvent::Conflict
            | TraceEvent::Bound { .. } => None,
        };
        if let Some(entry) = entry {
            push_chrome(&mut out, &mut first, &entry);
        }
    }
    out.push_str("\n]\n");
    out
}

fn lane_name(lane: u32) -> String {
    match lane {
        0 => "driver".to_string(),
        l if l >= LS_LANE_BASE => format!("ls-{}", l - LS_LANE_BASE),
        l => format!("bb-{}", l - 1),
    }
}

/// The first local-search lane. B&B lanes are `0` (the sequential
/// search or the parallel driver) and `1..=N` (workers); the walker that
/// polishes the incumbents of B&B lane `L` traces on `LS_LANE_BASE + L`,
/// and the portfolio's seed walker and racing walker on `LS_LANE_BASE`.
pub const LS_LANE_BASE: u32 = 64;

fn instant(lane: u32, t_ns: u64, name: &str, args: &str) -> String {
    format!(
        "{{\"ph\":\"i\",\"pid\":1,\"tid\":{lane},\"ts\":{:.3},\"s\":\"g\",\
         \"name\":\"{name}\",\"args\":{{{args}}}}}",
        chrome_us(t_ns),
    )
}

/// Upper bucket bounds (ns) for [`DurationHistogram`]: decade buckets
/// from 1 µs to 10 s plus an overflow bucket.
pub const HISTOGRAM_BOUNDS_NS: [u64; 8] =
    [1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000, 1_000_000_000, 10_000_000_000];

/// Fixed-bucket duration histogram (decade buckets, see
/// [`HISTOGRAM_BOUNDS_NS`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DurationHistogram {
    /// `counts[i]` counts samples `<= HISTOGRAM_BOUNDS_NS[i]`; the final
    /// slot counts overflows.
    pub counts: [u64; HISTOGRAM_BOUNDS_NS.len() + 1],
    /// Total number of samples.
    pub samples: u64,
    /// Sum of all samples in nanoseconds.
    pub total_ns: u64,
}

impl DurationHistogram {
    /// Add one duration sample.
    pub fn observe(&mut self, dur_ns: u64) {
        let slot = HISTOGRAM_BOUNDS_NS
            .iter()
            .position(|&b| dur_ns <= b)
            .unwrap_or(HISTOGRAM_BOUNDS_NS.len());
        self.counts[slot] += 1;
        self.samples += 1;
        self.total_ns = self.total_ns.saturating_add(dur_ns);
    }

    fn bucket_label(i: usize) -> String {
        if i == HISTOGRAM_BOUNDS_NS.len() {
            ">10s".to_string()
        } else {
            let b = HISTOGRAM_BOUNDS_NS[i];
            if b < 1_000_000 {
                format!("<={}us", b / 1_000)
            } else if b < 1_000_000_000 {
                format!("<={}ms", b / 1_000_000)
            } else {
                format!("<={}s", b / 1_000_000_000)
            }
        }
    }
}

/// Aggregation pass over a drained event stream: per-kind counters,
/// weighted totals for bulk events, and duration histograms for bound
/// calls, queue waits and dives.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    /// Event counts per kind (one count per event, unweighted).
    pub counters: BTreeMap<&'static str, u64>,
    /// Weighted totals for bulk events (`clauses_shared` sums `n`, …).
    pub totals: BTreeMap<&'static str, u64>,
    /// Duration histograms keyed by metric name (`lb_time`,
    /// `queue_wait`, `dive`).
    pub histograms: BTreeMap<&'static str, DurationHistogram>,
}

impl MetricsRegistry {
    /// Build the registry from a drained event stream.
    pub fn from_events(events: &[Event]) -> Self {
        let mut reg = MetricsRegistry::default();
        for e in events {
            *reg.counters.entry(e.data.kind()).or_insert(0) += 1;
            match &e.data {
                TraceEvent::Bound { dur_ns, .. } => {
                    reg.histograms.entry("lb_time").or_default().observe(*dur_ns);
                }
                TraceEvent::QueueWait { wait_ns } => {
                    reg.histograms.entry("queue_wait").or_default().observe(*wait_ns);
                }
                TraceEvent::DiveEnd { dur_ns, .. } => {
                    reg.histograms.entry("dive").or_default().observe(*dur_ns);
                }
                TraceEvent::ClausesShared { n }
                | TraceEvent::ClausesImported { n }
                | TraceEvent::SplitterDecisions { n } => {
                    *reg.totals.entry(e.data.kind()).or_insert(0) += n;
                }
                _ => {}
            }
        }
        reg
    }

    /// Render the registry as human-readable lines (one metric per
    /// line), suitable for prefixing with `c ` in competition output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (kind, count) in &self.counters {
            let _ = write!(out, "counter {kind} = {count}");
            if let Some(total) = self.totals.get(kind) {
                let _ = write!(out, " (total n = {total})");
            }
            out.push('\n');
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "histogram {name}: samples = {}, total = {:.3}ms",
                h.samples,
                h.total_ns as f64 / 1e6
            );
            for (i, c) in h.counts.iter().enumerate() {
                if *c > 0 {
                    let _ = writeln!(out, "  {:>8} : {c}", DurationHistogram::bucket_label(i));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t_ns: u64, lane: u32, data: TraceEvent) -> Event {
        Event { t_ns, lane, data }
    }

    #[test]
    fn off_tracer_records_nothing() {
        let t = Tracer::off();
        assert!(!t.enabled());
        t.emit(TraceEvent::Decision);
        assert!(t.drain().is_empty());
    }

    #[test]
    fn buffered_tracer_round_trips_and_clones_share_the_buffer() {
        let epoch = Instant::now();
        let t = Tracer::buffered(3, epoch);
        let t2 = t.clone();
        t.emit(TraceEvent::Decision);
        t2.emit(TraceEvent::Solution { cost: 7 });
        let events = t.drain();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].lane, 3);
        assert_eq!(events[1].data, TraceEvent::Solution { cost: 7 });
        assert!(t2.drain().is_empty(), "drain empties the shared buffer");
    }

    #[test]
    fn stable_key_ignores_wall_time() {
        let a = ev(10, 1, TraceEvent::CubeEnd { depth: 2, closed: true, dur_ns: 100 });
        let b = ev(99, 1, TraceEvent::CubeEnd { depth: 2, closed: true, dur_ns: 777 });
        assert_eq!(a.stable_key(), b.stable_key());
        let c = ev(10, 1, TraceEvent::CubeEnd { depth: 3, closed: true, dur_ns: 100 });
        assert_ne!(a.stable_key(), c.stable_key());
    }

    #[test]
    fn jsonl_is_one_sorted_line_per_event() {
        let events = vec![
            ev(20, 1, TraceEvent::Conflict),
            ev(
                10,
                0,
                TraceEvent::Bound {
                    method: "mis",
                    outcome: BoundOutcome::Pruned,
                    margin: 4,
                    dur_ns: 1234,
                },
            ),
            ev(30, 0, TraceEvent::Solution { cost: 7 }),
        ];
        let text = write_jsonl(&events);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"t_ns\":10,\"lane\":0,\"kind\":\"bound\",\"method\":\"mis\",\
             \"outcome\":\"pruned\",\"margin\":4,\"dur_ns\":1234}"
        );
        assert_eq!(lines[1], "{\"t_ns\":20,\"lane\":1,\"kind\":\"conflict\"}");
        assert_eq!(lines[2], "{\"t_ns\":30,\"lane\":0,\"kind\":\"solution\",\"cost\":7}");
        assert_eq!(events[1].stable_key(), "0:bound:mis:pruned:4");
    }

    #[test]
    fn chrome_export_has_thread_names_spans_and_instants() {
        let events = vec![
            ev(5_000, 1, TraceEvent::Solution { cost: 3 }),
            ev(9_000, 1, TraceEvent::CubeEnd { depth: 1, closed: true, dur_ns: 8_000 }),
            ev(2_000, 2, TraceEvent::QueueWait { wait_ns: 2_000 }),
            ev(3_000, 0, TraceEvent::Decision),
        ];
        let text = write_chrome(&events);
        assert!(text.starts_with("[\n"));
        assert!(text.trim_end().ends_with(']'));
        assert!(text.contains("\"thread_name\""));
        assert!(text.contains("\"name\":\"bb-0\""));
        assert!(text.contains("\"name\":\"cube\""));
        assert!(text.contains("\"name\":\"queue-wait\""));
        assert!(text.contains("\"name\":\"incumbent\""));
        assert!(!text.contains("decision"), "per-node events stay out of the viewer");
    }

    #[test]
    fn metrics_counts_and_buckets() {
        let events = vec![
            ev(1, 0, TraceEvent::Decision),
            ev(2, 0, TraceEvent::Decision),
            ev(
                3,
                0,
                TraceEvent::Bound {
                    method: "lgr",
                    outcome: BoundOutcome::Open,
                    margin: 0,
                    dur_ns: 500,
                },
            ),
            ev(4, 1, TraceEvent::QueueWait { wait_ns: 2_000_000 }),
            ev(5, 1, TraceEvent::ClausesShared { n: 12 }),
        ];
        let reg = MetricsRegistry::from_events(&events);
        assert_eq!(reg.counters["decision"], 2);
        assert_eq!(reg.counters["clauses_shared"], 1);
        assert_eq!(reg.totals["clauses_shared"], 12);
        assert_eq!(reg.histograms["lb_time"].counts[0], 1);
        assert_eq!(reg.histograms["queue_wait"].counts[4], 1);
        let text = reg.render();
        assert!(text.contains("counter decision = 2"));
        assert!(text.contains("histogram lb_time"));
    }

    #[test]
    fn scheduler_events_round_trip_all_exporters() {
        // Cube-queue traffic: a wait for a cube, arms pushed back by a
        // re-split, and a cube quarantined by a dying worker.
        let events = vec![
            ev(1_500, 1, TraceEvent::QueueWait { wait_ns: 1_500 }),
            ev(20_000, 2, TraceEvent::Resplit { arms: 4 }),
            ev(30_000, 2, TraceEvent::CubeQuarantined { depth: 3 }),
        ];
        assert_eq!(events[0].stable_key(), "1:queue_wait");
        assert_eq!(events[1].stable_key(), "2:resplit:4");
        assert_eq!(events[2].stable_key(), "2:cube_quarantined:3");
        let jsonl = write_jsonl(&events);
        assert!(jsonl.contains("\"kind\":\"queue_wait\",\"wait_ns\":1500"));
        assert!(jsonl.contains("\"kind\":\"resplit\",\"arms\":4"));
        assert!(jsonl.contains("\"kind\":\"cube_quarantined\",\"depth\":3"));
        let chrome = write_chrome(&events);
        assert!(chrome.contains("\"name\":\"queue-wait\""));
        assert!(chrome.contains("\"name\":\"resplit\""));
        assert!(chrome.contains("\"name\":\"cube-quarantined\""));
        let reg = MetricsRegistry::from_events(&events);
        assert_eq!(reg.counters["resplit"], 1);
        assert_eq!(reg.counters["cube_quarantined"], 1);
        assert_eq!(reg.histograms["queue_wait"].samples, 1);
    }

    #[test]
    fn histogram_overflow_bucket() {
        let mut h = DurationHistogram::default();
        h.observe(20_000_000_000);
        assert_eq!(h.counts[HISTOGRAM_BOUNDS_NS.len()], 1);
    }
}

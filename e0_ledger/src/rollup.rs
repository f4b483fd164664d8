//! Exclusive (self) time per span name, rolled up from a drained trace.
//!
//! A span's self time is its duration minus the part of it that its child
//! spans on the same thread cover. Spans nest per `tid`, so each thread
//! keeps its own stack. The input may be unbalanced the ways the
//! `genfv_obs::TraceSink` contract allows: an `End` with no matching open
//! span is ignored, and spans still open at the end of the trace (the
//! recording handle hit its capacity cap) are closed at the last
//! timestamp seen.

use genfv_obs::{Phase, TraceEvent};
use std::collections::BTreeMap;

/// Calls and exclusive time of one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SelfTime {
    /// Spans closed (including those closed at the end of the trace).
    pub count: u64,
    /// Exclusive time, in the trace's unit (µs for `ObsConfig::Full`).
    pub self_us: u64,
}

/// A trace's self time by span name, and by thread.
#[derive(Clone, Debug, Default)]
pub struct Rollup {
    /// Self time per span name, across all threads.
    pub by_name: BTreeMap<&'static str, SelfTime>,
    /// Self time summed per thread: the time the thread spent inside any
    /// span.
    pub by_tid: BTreeMap<u64, u64>,
}

impl Rollup {
    /// Adds another rollup into this one.
    pub fn absorb(&mut self, other: &Rollup) {
        for (name, t) in &other.by_name {
            let entry = self.by_name.entry(name).or_default();
            entry.count += t.count;
            entry.self_us += t.self_us;
        }
        for (tid, us) in &other.by_tid {
            *self.by_tid.entry(*tid).or_default() += us;
        }
    }

    /// Self time of every span whose name starts with `prefix`, in µs.
    pub fn self_us_prefixed(&self, prefix: &str) -> u64 {
        self.by_name.iter().filter(|(n, _)| n.starts_with(prefix)).map(|(_, t)| t.self_us).sum()
    }

    /// Self time of span `name`, in µs.
    pub fn self_us(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |t| t.self_us)
    }

    /// Spans named `name` closed.
    pub fn count(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |t| t.count)
    }

    fn close(&mut self, open: Open, end: u64, parent: Option<&mut Open>, tid: u64) {
        let duration = end.saturating_sub(open.begin);
        let own = duration.saturating_sub(open.children);
        let entry = self.by_name.entry(open.name).or_default();
        entry.count += 1;
        entry.self_us += own;
        *self.by_tid.entry(tid).or_default() += own;
        if let Some(parent) = parent {
            parent.children += duration;
        }
    }
}

struct Open {
    name: &'static str,
    begin: u64,
    children: u64,
}

/// Rolls `events` (in timestamp order, as `genfv_obs` drains them) up
/// into self time per span name and per thread.
pub fn rollup(events: &[TraceEvent]) -> Rollup {
    let mut out = Rollup::default();
    let mut stacks: BTreeMap<u64, Vec<Open>> = BTreeMap::new();
    let mut last_ts = 0;
    for ev in events {
        last_ts = last_ts.max(ev.ts);
        let stack = stacks.entry(ev.tid).or_default();
        match ev.phase {
            Phase::Begin => stack.push(Open { name: ev.name, begin: ev.ts, children: 0 }),
            Phase::End => {
                if stack.last().is_some_and(|open| open.name == ev.name) {
                    let open = stack.pop().expect("checked non-empty");
                    out.close(open, ev.ts, stack.last_mut(), ev.tid);
                }
            }
            Phase::Instant => {}
        }
    }
    for (tid, mut stack) in stacks {
        while let Some(open) = stack.pop() {
            out.close(open, last_ts, stack.last_mut(), tid);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use genfv_obs::{Obs, ObsConfig};

    fn ev(name: &'static str, phase: Phase, ts: u64, tid: u64) -> TraceEvent {
        TraceEvent { name, detail: None, phase, ts, tid }
    }

    fn st(count: u64, self_us: u64) -> SelfTime {
        SelfTime { count, self_us }
    }

    #[test]
    fn nested_spans_subtract_their_children() {
        let events = [
            ev("job", Phase::Begin, 0, 0),
            ev("prove", Phase::Begin, 10, 0),
            ev("solve.step", Phase::Begin, 20, 0),
            ev("solve.step", Phase::End, 50, 0),
            ev("prove", Phase::End, 60, 0),
            ev("job", Phase::End, 100, 0),
        ];
        let r = rollup(&events);
        assert_eq!(r.by_name["job"], st(1, 50));
        assert_eq!(r.by_name["prove"], st(1, 20));
        assert_eq!(r.by_name["solve.step"], st(1, 30));
        assert_eq!(r.by_tid[&0], 100, "a thread's self times sum to its root span");
    }

    #[test]
    fn same_name_siblings_accumulate() {
        let events = [
            ev("prove", Phase::Begin, 0, 0),
            ev("solve.base", Phase::Begin, 1, 0),
            ev("solve.base", Phase::End, 4, 0),
            ev("solve.base", Phase::Begin, 5, 0),
            ev("solve.base", Phase::End, 9, 0),
            ev("prove", Phase::End, 10, 0),
        ];
        let r = rollup(&events);
        assert_eq!(r.by_name["solve.base"], st(2, 7));
        assert_eq!(r.by_name["prove"], st(1, 3));
    }

    #[test]
    fn threads_keep_separate_stacks() {
        // A portfolio race: the job thread waits in `portfolio.epoch` while
        // two worker threads solve cubes over the same interval.
        let events = [
            ev("portfolio.epoch", Phase::Begin, 0, 0),
            ev("solve.cube", Phase::Begin, 1, 1),
            ev("solve.cube", Phase::Begin, 2, 2),
            ev("solve.cube", Phase::End, 8, 1),
            ev("solve.cube", Phase::End, 9, 2),
            ev("portfolio.epoch", Phase::End, 10, 0),
        ];
        let r = rollup(&events);
        assert_eq!(r.by_name["portfolio.epoch"], st(1, 10), "other threads are not children");
        assert_eq!(r.by_name["solve.cube"], st(2, 14));
        assert_eq!((r.by_tid[&0], r.by_tid[&1], r.by_tid[&2]), (10, 7, 7));
    }

    #[test]
    fn stray_end_is_ignored() {
        let events = [
            ev("solve.step", Phase::End, 3, 0),
            ev("prove", Phase::Begin, 4, 0),
            ev("bmc", Phase::End, 5, 0),
            ev("prove", Phase::End, 9, 0),
        ];
        let r = rollup(&events);
        assert_eq!(r.by_name.len(), 1);
        assert_eq!(r.by_name["prove"], st(1, 5));
    }

    #[test]
    fn capacity_dropped_trace_closes_open_spans_at_the_last_timestamp() {
        // The handle stops recording after four events: `job` and `prove`
        // never see their ends.
        let obs = Obs::with_capacity(ObsConfig::Deterministic, 4);
        {
            let _job = obs.span("job");
            let _prove = obs.span("prove");
            {
                let _solve = obs.span("solve.step");
            }
            let _dropped = obs.span("solve.step");
        }
        let events = obs.take_events();
        assert_eq!((events.len(), obs.dropped_events()), (4, 4));
        // Ticks: job@0, prove@1, solve.step 2..3; open spans close at 3.
        let r = rollup(&events);
        assert_eq!(r.by_name["solve.step"], st(1, 1));
        assert_eq!(r.by_name["prove"], st(1, 1));
        assert_eq!(r.by_name["job"], st(1, 1));
        assert_eq!(r.by_tid[&0], 3);
    }

    #[test]
    fn absorb_adds_counts_and_times() {
        let one = rollup(&[ev("prove", Phase::Begin, 0, 0), ev("prove", Phase::End, 5, 0)]);
        let mut sum = one.clone();
        sum.absorb(&one);
        assert_eq!(sum.by_name["prove"], st(2, 10));
        assert_eq!(sum.by_tid[&0], 10);
        assert_eq!(sum.self_us_prefixed("pro"), 10);
        assert_eq!((sum.count("prove"), sum.self_us("absent")), (2, 0));
    }
}

//! Trace sinks: the [`TraceSink`] contract and the two bundled
//! implementations (Chrome `trace_event` JSON exporter, aggregated
//! human-readable tree).

use crate::json::escape_json;
use crate::span::{Phase, TraceEvent};

/// Consumer of a drained trace.
///
/// # Contract
///
/// * [`event`](TraceSink::event) is called once per recorded event, in
///   nondecreasing timestamp order; events with equal timestamps from
///   the same thread keep their recording order.
/// * Within one `tid`, `Begin`/`End` events nest properly *unless* the
///   producing handle hit its capacity cap (the producer reports the
///   loss via `Obs::dropped_events`); sinks must tolerate unbalanced
///   input — close still-open spans at `finish` and ignore stray `End`s
///   — rather than panic.
/// * [`finish`](TraceSink::finish) is called exactly once, after the
///   last event. Sinks that build an artifact (JSON, a rendered tree)
///   seal it there; feeding more events afterwards is a caller bug and
///   may be ignored.
///
/// Timestamps are µs for [`crate::ObsConfig::Full`] traces and logical
/// ticks for [`crate::ObsConfig::Deterministic`] ones; sinks that print
/// durations should let callers pick the unit (see
/// [`TreeRenderer::logical`]).
pub trait TraceSink {
    /// Consume one event.
    fn event(&mut self, ev: &TraceEvent);
    /// Seal the sink after the last event.
    fn finish(&mut self) {}
}

/// Chrome `trace_event` JSON exporter (object form:
/// `{"traceEvents": [...]}`), loadable in Perfetto or
/// `chrome://tracing`. Begin events carry the span's `detail` as
/// `args.detail`.
pub struct ChromeTrace {
    out: String,
    first: bool,
    sealed: bool,
}

impl Default for ChromeTrace {
    fn default() -> Self {
        Self::new()
    }
}

impl ChromeTrace {
    /// An empty exporter.
    pub fn new() -> Self {
        ChromeTrace { out: String::from("{\"traceEvents\":[\n"), first: true, sealed: false }
    }

    /// One-shot export of an event slice.
    pub fn export(events: &[TraceEvent]) -> String {
        let mut sink = ChromeTrace::new();
        for ev in events {
            sink.event(ev);
        }
        sink.finish();
        sink.into_json()
    }

    /// The sealed JSON document ([`TraceSink::finish`] is applied if the
    /// caller forgot).
    pub fn into_json(mut self) -> String {
        if !self.sealed {
            self.finish();
        }
        self.out
    }
}

impl TraceSink for ChromeTrace {
    fn event(&mut self, ev: &TraceEvent) {
        if self.sealed {
            return;
        }
        if !self.first {
            self.out.push_str(",\n");
        }
        self.first = false;
        let ph = match ev.phase {
            Phase::Begin => "B",
            Phase::End => "E",
            Phase::Instant => "i",
        };
        self.out.push_str("{\"name\":\"");
        escape_json(ev.name, &mut self.out);
        self.out.push_str("\",\"cat\":\"genfv\",\"ph\":\"");
        self.out.push_str(ph);
        self.out.push_str(&format!("\",\"ts\":{},\"pid\":1,\"tid\":{}", ev.ts, ev.tid));
        if ev.phase == Phase::Instant {
            self.out.push_str(",\"s\":\"t\"");
        }
        if let Some(detail) = &ev.detail {
            self.out.push_str(",\"args\":{\"detail\":\"");
            escape_json(detail, &mut self.out);
            self.out.push_str("\"}");
        }
        self.out.push('}');
    }

    fn finish(&mut self) {
        if !self.sealed {
            self.out.push_str("\n]}\n");
            self.sealed = true;
        }
    }
}

/// One aggregated node of the rendered tree.
struct TreeNode {
    name: &'static str,
    count: u64,
    total: u64,
    children: Vec<TreeNode>,
}

impl TreeNode {
    fn new(name: &'static str) -> Self {
        TreeNode { name, count: 0, total: 0, children: Vec::new() }
    }

    fn child(&mut self, name: &'static str) -> &mut TreeNode {
        if let Some(i) = self.children.iter().position(|c| c.name == name) {
            &mut self.children[i]
        } else {
            self.children.push(TreeNode::new(name));
            self.children.last_mut().expect("just pushed")
        }
    }
}

/// Human-readable aggregated span tree: siblings with the same name
/// collapse into one line with a count and total time, so ten thousand
/// `solve.step` calls render as one row under their parent.
pub struct TreeRenderer {
    root: TreeNode,
    /// Per-tid stack of (path into the tree, begin ts).
    stacks: Vec<(u64, Vec<(usize, u64)>)>,
    /// Print tick counts instead of durations (deterministic traces).
    logical: bool,
    last_ts: u64,
}

impl Default for TreeRenderer {
    fn default() -> Self {
        Self::new()
    }
}

impl TreeRenderer {
    /// A renderer that prints µs-derived durations.
    pub fn new() -> Self {
        TreeRenderer { root: TreeNode::new(""), stacks: Vec::new(), logical: false, last_ts: 0 }
    }

    /// A renderer for logical-clock traces: prints counts only (span
    /// structure without wall times).
    pub fn logical() -> Self {
        TreeRenderer { logical: true, ..Self::new() }
    }

    fn node_at<'a>(root: &'a mut TreeNode, path: &[(usize, u64)]) -> &'a mut TreeNode {
        let mut node = root;
        for &(idx, _) in path {
            node = &mut node.children[idx];
        }
        node
    }

    fn stack_for(&mut self, tid: u64) -> &mut Vec<(usize, u64)> {
        if let Some(i) = self.stacks.iter().position(|(t, _)| *t == tid) {
            &mut self.stacks[i].1
        } else {
            self.stacks.push((tid, Vec::new()));
            &mut self.stacks.last_mut().expect("just pushed").1
        }
    }

    /// Render the aggregated tree (call after [`TraceSink::finish`]).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for child in &self.root.children {
            self.render_node(child, 0, &mut out);
        }
        if out.is_empty() {
            out.push_str("(empty trace)\n");
        }
        out
    }

    fn render_node(&self, node: &TreeNode, depth: usize, out: &mut String) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(node.name);
        if node.count != 1 {
            out.push_str(&format!(" ×{}", node.count));
        }
        if !self.logical {
            out.push_str(&format!(" — {}", fmt_us(node.total)));
        }
        out.push('\n');
        for child in &node.children {
            self.render_node(child, depth + 1, out);
        }
    }
}

fn fmt_us(us: u64) -> String {
    if us >= 10_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 10_000 {
        format!("{:.2}ms", us as f64 / 1e3)
    } else {
        format!("{us}µs")
    }
}

impl TraceSink for TreeRenderer {
    fn event(&mut self, ev: &TraceEvent) {
        self.last_ts = self.last_ts.max(ev.ts);
        match ev.phase {
            Phase::Begin => {
                // Walk (and extend) the aggregation tree along this
                // thread's open-span path, then push the child index.
                let stack_path: Vec<(usize, u64)> = {
                    let stack = self.stack_for(ev.tid);
                    stack.clone()
                };
                let parent = Self::node_at(&mut self.root, &stack_path);
                let idx = if let Some(i) = parent.children.iter().position(|c| c.name == ev.name) {
                    i
                } else {
                    parent.children.push(TreeNode::new(ev.name));
                    parent.children.len() - 1
                };
                self.stack_for(ev.tid).push((idx, ev.ts));
            }
            Phase::End => {
                let popped = self.stack_for(ev.tid).pop();
                if let Some((_, begin_ts)) = popped {
                    let path: Vec<(usize, u64)> = {
                        let stack = self.stack_for(ev.tid);
                        stack.clone()
                    };
                    let parent = Self::node_at(&mut self.root, &path);
                    if let Some(node) = parent.children.iter_mut().find(|c| c.name == ev.name) {
                        node.count += 1;
                        node.total += ev.ts.saturating_sub(begin_ts);
                    }
                }
            }
            Phase::Instant => {
                let stack_path: Vec<(usize, u64)> = {
                    let stack = self.stack_for(ev.tid);
                    stack.clone()
                };
                let parent = Self::node_at(&mut self.root, &stack_path);
                let node = parent.child(ev.name);
                node.count += 1;
            }
        }
    }

    fn finish(&mut self) {
        // Close any spans left open (capacity-capped traces): credit
        // them with the duration up to the last seen timestamp.
        let last_ts = self.last_ts;
        let stacks = std::mem::take(&mut self.stacks);
        for (_tid, stack) in stacks {
            for depth in (0..stack.len()).rev() {
                let path = &stack[..depth];
                let (idx, begin_ts) = stack[depth];
                let parent = Self::node_at(&mut self.root, path);
                let node = &mut parent.children[idx];
                node.count += 1;
                node.total += last_ts.saturating_sub(begin_ts);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_chrome_trace;
    use crate::{Obs, ObsConfig};

    fn sample_events() -> Vec<TraceEvent> {
        let obs = Obs::new(ObsConfig::Deterministic);
        {
            let _flow = obs.span_with("flow.flow2", || "fifo \"deep\"".to_string());
            for _ in 0..2 {
                let _prove = obs.span("prove");
                let _solve = obs.span("solve.step");
                obs.instant("glue.shared");
            }
        }
        obs.take_events()
    }

    #[test]
    fn chrome_export_is_valid_and_escaped() {
        let json = ChromeTrace::export(&sample_events());
        let check = validate_chrome_trace(&json).expect("exporter must emit valid traces");
        assert_eq!(check.events, sample_events().len());
        assert!(check.balanced);
        assert_eq!(check.max_depth, 3);
        assert_eq!(check.depth_of_prefix("solve."), Some(3));
        assert!(json.contains("fifo \\\"deep\\\""), "details must be JSON-escaped");
    }

    #[test]
    fn tree_renderer_aggregates_siblings() {
        let mut tree = TreeRenderer::logical();
        for ev in sample_events() {
            tree.event(&ev);
        }
        tree.finish();
        let rendered = tree.render();
        assert!(rendered.contains("flow.flow2\n"));
        assert!(rendered.contains("  prove ×2\n"));
        assert!(rendered.contains("    solve.step ×2\n"));
        assert!(rendered.contains("    glue.shared ×2"), "instants nest under open spans");
    }

    #[test]
    fn tree_renderer_tolerates_unbalanced_input() {
        let mut events = sample_events();
        events.retain(|e| e.phase != Phase::End); // drop every End
        let mut tree = TreeRenderer::logical();
        for ev in &events {
            tree.event(ev);
        }
        tree.finish();
        let rendered = tree.render();
        assert!(rendered.contains("flow.flow2"), "open spans close at finish");
    }
}

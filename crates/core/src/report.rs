//! Human-readable reporting of flow results (the tables printed by the
//! experiment binaries).

use crate::flows::{FlowReport, TargetOutcome};
use std::fmt::Write as _;

/// Renders a one-line summary per target.
pub fn summarize_targets(report: &FlowReport) -> String {
    let mut out = String::new();
    for t in &report.targets {
        let line = match &t.outcome {
            TargetOutcome::Proven { k, lemmas_used } => {
                format!("PROVEN  k={k} lemmas={lemmas_used}")
            }
            TargetOutcome::Falsified { at } => format!("FALSIFIED at cycle {at}"),
            TargetOutcome::StillUnproven { k, .. } => format!("UNPROVEN (step fails at k={k})"),
            TargetOutcome::Unknown { reason } => format!("UNKNOWN ({reason})"),
        };
        let _ = writeln!(out, "  {:<24} {}", t.name, line);
    }
    out
}

/// Renders the full flow report (targets, lemmas, metrics, events).
pub fn render_report(report: &FlowReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "design  : {}", report.design);
    let _ = writeln!(out, "model   : {}", report.model);
    let _ = writeln!(out, "targets :");
    out.push_str(&summarize_targets(report));
    if !report.lemmas.is_empty() {
        let _ = writeln!(out, "lemmas  :");
        for l in &report.lemmas {
            let _ = writeln!(out, "  {} — `{}`", l.name, l.text);
        }
    }
    let m = &report.metrics;
    let _ = writeln!(
        out,
        "metrics : llm_calls={} prompt_tok={} completion_tok={} candidates={} \
         rejected(compile/false/non-ind)={}/{}/{} lemmas={} proof_time={:.1?} total={:.1?}",
        m.llm_calls,
        m.prompt_tokens,
        m.completion_tokens,
        m.candidates_parsed,
        m.rejected_compile,
        m.rejected_false,
        m.rejected_not_inductive,
        m.lemmas_accepted,
        m.proof_time,
        m.total_time,
    );
    out.push_str(&render_solver_reuse(report));
    out
}

/// Renders the incremental-session reuse line: how many sessions
/// (bit-blasts) served how many queries, and what the persistent solvers
/// retained. The interesting ratio is `solver_calls : bitblasts` — the
/// rebuild-per-query architecture this replaced sat at 1:1 by definition.
pub fn render_solver_reuse(report: &FlowReport) -> String {
    let s = &report.metrics.solver;
    let mut out = String::new();
    if s.solver_calls == 0 {
        return out;
    }
    let _ = writeln!(
        out,
        "solver  : sessions(bitblasts)={} queries={} rebuilds_avoided={} \
         clauses_retained={} selectors={}({} retired) conflicts={}",
        s.bitblasts,
        s.solver_calls,
        s.rebuilds_avoided,
        s.clauses_retained,
        s.selectors_created,
        s.selectors_retired,
        s.conflicts,
    );
    out
}

/// Renders the event log.
pub fn render_events(report: &FlowReport) -> String {
    let mut out = String::new();
    for e in &report.events {
        let _ = writeln!(out, "{e}");
    }
    out
}

/// A minimal fixed-width table builder used by the experiment binaries.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<I: IntoIterator<Item = S>, S: Into<String>>(header: I) -> Self {
        Table { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row (must match the header arity).
    pub fn row<I: IntoIterator<Item = S>, S: Into<String>>(&mut self, cells: I) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row arity mismatch");
        self.rows.push(row);
        self
    }

    /// Renders with padded columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                let _ = write!(line, "{:<w$}  ", cells[i], w = widths[i]);
            }
            line.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
        let _ = writeln!(out, "{}", "-".repeat(widths.iter().sum::<usize>() + 2 * cols));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["design", "time"]);
        t.row(["sync_counters", "1.2ms"]);
        t.row(["ecc", "250ms"]);
        let s = t.render();
        assert!(s.contains("design"));
        assert!(s.lines().count() >= 4);
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[2].starts_with("sync_counters"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_rejects_bad_rows() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only-one"]);
    }
}

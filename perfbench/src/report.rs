//! What one workload run measured, and how it is printed.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json` or the README.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit, e.g. `us`, `s`, `count`.
    pub unit: &'static str,
}

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (pipeline ops, lookups, reloads).
    pub attempted: u64,
    /// Operations that errored, were shed, timed out, or whose output
    /// differed from the expected one.
    pub failed: u64,
    /// Broken invariants of the measurement itself (accounting that
    /// does not add up, a negative derived time). Any entry makes the
    /// run incorrect and suppresses the numbers.
    pub problems: Vec<String>,
    /// The end-to-end metrics of `BENCHMARK.json` (untraced pass).
    pub end_to_end: Vec<Metric>,
    /// The workload's own end-to-end figures under their specific
    /// names (`posts_per_s`, `max_qps`, `reload_ms`, `fail_ratio`, …);
    /// printed for people, not part of the result line.
    pub named: Vec<Metric>,
    /// The per-layer metrics (traced pass).
    pub layers: Vec<Metric>,
    /// Free-form notes printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    /// Record an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.end_to_end.push(metric(name, value, unit));
    }

    /// Record a workload-specific figure.
    pub fn named(&mut self, name: &str, value: f64, unit: &'static str) {
        self.named.push(metric(name, value, unit));
    }

    /// Record a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push(metric(name, value, unit));
    }

    /// Count `n` attempted operations of which `failed` failed.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Whether every output checked out and the accounting holds.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// Failed ÷ attempted.
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            return 1.0;
        }
        self.failed as f64 / self.attempted as f64
    }

    /// The human-readable lines: every figure by name with its unit.
    pub fn human_lines(&self, workload: &str) -> Vec<String> {
        let mut lines: Vec<String> = self.notes.iter().map(|n| format!("# {n}")).collect();
        for m in self
            .named
            .iter()
            .chain(&self.end_to_end)
            .chain(&self.layers)
        {
            lines.push(format!(
                "{workload}  {:<32} {:>16} {}",
                m.name,
                fmt_num(m.value),
                m.unit
            ));
        }
        lines.push(format!(
            "{workload}  {:<32} {:>16} (failed {} of {})",
            "fail_ratio",
            fmt_num(self.fail_ratio()),
            self.failed,
            self.attempted
        ));
        for p in &self.problems {
            lines.push(format!("{workload}  FAILED CHECK: {p}"));
        }
        lines
    }

    /// The single-line JSON result: `correct`, `attempted`, `failed`,
    /// and `metrics` (end-to-end or per-layer). When a measurement
    /// check broke, the metrics are withheld.
    pub fn result_line(&self, traced: bool) -> String {
        let metrics = if traced {
            &self.layers
        } else {
            &self.end_to_end
        };
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        if self.problems.is_empty() {
            for (i, m) in metrics.iter().enumerate() {
                let sep = if i == 0 { "" } else { ", " };
                let _ = write!(
                    out,
                    "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                );
            }
        }
        out.push_str("}}");
        out
    }
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

fn fmt_num(v: f64) -> String {
    if v.is_finite() && v.abs() >= 1000.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.6}")
    }
}

/// Every digit of a finite value; non-finite values (which a correct
/// run never produces) become `null` so the line stays valid JSON.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object_with_the_contract_keys() {
        let mut r = Report::default();
        r.count(3, 0);
        r.e2e("setup_s", 0.25, "s");
        r.layer("index.build_ms", 1.5, "ms");
        let line = r.result_line(false);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert!(r.result_line(true).contains("index.build_ms"));
        r.problems.push("accounting".into());
        assert!(r.result_line(false).ends_with("\"metrics\": {}}"));
        assert!(!r.correct());
    }
}

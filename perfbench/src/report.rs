//! The run report: correctness tally, named metrics with units, and the
//! context lines (host, commit, seed, sample counts) printed with them.

use std::fmt::Write as _;

/// Counts operations attempted and failed, with the first few failure
/// reasons kept for the report. Every operation counts once: a non-200,
/// a refusal or a wrong answer is a failure, and nothing is retried.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    attempted: u64,
    failed: u64,
    reasons: Vec<String>,
}

impl Tally {
    /// How many failure reasons the report keeps.
    const KEPT_REASONS: usize = 8;

    /// Records one operation that succeeded.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Records one operation that failed, and why.
    pub fn fail(&mut self, reason: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        if self.reasons.len() < Self::KEPT_REASONS {
            self.reasons.push(reason.into());
        }
    }

    /// Records one operation by outcome.
    pub fn record(&mut self, outcome: Result<(), String>) {
        match outcome {
            Ok(()) => self.ok(),
            Err(reason) => self.fail(reason),
        }
    }

    /// Turns an operation already counted as a success into a failure
    /// (a check after the timed phase found it wrong).
    pub fn demote(&mut self, reason: impl Into<String>) {
        self.failed = (self.failed + 1).min(self.attempted);
        if self.reasons.len() < Self::KEPT_REASONS {
            self.reasons.push(reason.into());
        }
    }

    /// Operations attempted.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations that failed.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Correct results divided by attempts (`0` when nothing ran).
    pub fn success_rate(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }

    /// The kept failure reasons.
    pub fn reasons(&self) -> &[String] {
        &self.reasons
    }
}

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one run prints.
#[derive(Debug, Default)]
pub struct Report {
    /// Per-operation correctness.
    pub tally: Tally,
    /// Checks that are not tied to one operation (a failed one makes the
    /// run incorrect).
    pub run_checks: Vec<(String, Result<(), String>)>,
    /// The metrics, in print order; these go into the JSON result.
    pub metrics: Vec<Metric>,
    /// Metrics printed for reading but left out of the JSON result,
    /// because on a shared host they spread too widely across runs to
    /// hold any regression bound.
    pub ungated: Vec<Metric>,
    /// Context lines printed before the metrics.
    pub notes: Vec<(String, String)>,
}

impl Report {
    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Adds a context line.
    pub fn note(&mut self, key: &str, value: impl Into<String>) {
        self.notes.push((key.to_string(), value.into()));
    }

    /// Records a run-level check.
    pub fn check(&mut self, name: &str, outcome: Result<(), String>) {
        self.run_checks.push((name.to_string(), outcome));
    }

    /// Whether every operation and every run-level check passed, and
    /// every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.tally.failed() == 0
            && self.tally.attempted() > 0
            && self.run_checks.iter().all(|(_, r)| r.is_ok())
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The human-readable block: notes, checks, then one line per metric.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (key, value) in &self.notes {
            let _ = writeln!(out, "# {key}: {value}");
        }
        for (name, outcome) in &self.run_checks {
            match outcome {
                Ok(()) => {
                    let _ = writeln!(out, "# check {name}: ok");
                }
                Err(e) => {
                    let _ = writeln!(out, "# check {name}: FAILED: {e}");
                }
            }
        }
        for reason in self.tally.reasons() {
            let _ = writeln!(out, "# failed op: {reason}");
        }
        let _ = writeln!(
            out,
            "# ops: attempted={} failed={}",
            self.tally.attempted(),
            self.tally.failed()
        );
        for m in &self.metrics {
            let _ = writeln!(out, "{} = {} {}", m.name, m.value, m.unit);
        }
        for m in &self.ungated {
            let _ = writeln!(out, "{} = {} {} (not gated)", m.name, m.value, m.unit);
        }
        out
    }

    /// The final one-line JSON object.
    pub fn render_json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push_str(", ");
            }
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_string()
            };
            let _ = write!(
                metrics,
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.tally.attempted(),
            self.tally.failed(),
        )
    }
}

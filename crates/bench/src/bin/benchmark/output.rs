//! Metric names, units and bounds, and the shape of what a run prints.

use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One end-to-end metric: what a user of the pipeline would see.
#[derive(Debug)]
pub struct EndToEndMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression.
    pub bound: f64,
}

/// The gated metrics.  Every workload reports all of them, with tracing
/// off.
pub const END_TO_END: &[EndToEndMetric] = &[
    EndToEndMetric {
        name: "edges_per_s",
        unit: "edges/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEndMetric {
        name: "edges_per_s_w1",
        unit: "edges/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEndMetric {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndMetric {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
];

/// The per-layer metrics a traced run reports, as `(name, unit, better)`.
/// Every workload reports every name; a layer the workload does not
/// exercise reads 0.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    ("design.build_ns", "ns", Better::Lower),
    ("design.predict_ns", "ns", Better::Lower),
    ("split.prepare_ns", "ns", Better::Lower),
    ("source.expand_ns", "ns", Better::Lower),
    ("source.edges", "count", Better::Higher),
    ("source.chunks", "count", Better::Lower),
    ("rmat.prepare_ns", "ns", Better::Lower),
    ("rmat.sample_ns", "ns", Better::Lower),
    ("rmat.fill_kernel_ns", "ns", Better::Lower),
    ("rmat.edges", "count", Better::Higher),
    ("permute.build_ns", "ns", Better::Lower),
    ("permute.apply_ns", "ns", Better::Lower),
    ("permute.edges", "count", Better::Higher),
    ("metrics.observe_ns", "ns", Better::Lower),
    ("metrics.observe_shared_ns", "ns", Better::Lower),
    ("metrics.merge_ns", "ns", Better::Lower),
    ("metrics.finalize_ns", "ns", Better::Lower),
    ("metrics.histogram_bytes", "bytes", Better::Lower),
    ("validate.compare_ns", "ns", Better::Lower),
    ("codec.encode_ns", "ns", Better::Lower),
    ("codec.encode_bytes", "bytes", Better::Lower),
    ("codec.decode_ns", "ns", Better::Lower),
    ("codec.frames", "count", Better::Lower),
    ("writer.checksum_ns", "ns", Better::Lower),
    ("writer.checksum_bytes", "bytes", Better::Lower),
    ("sink.create_ns", "ns", Better::Lower),
    ("sink.consume_ns", "ns", Better::Lower),
    ("sink.consume_chunk_p50_ns", "ns", Better::Lower),
    ("sink.consume_chunk_p99_ns", "ns", Better::Lower),
    ("sink.finish_ns", "ns", Better::Lower),
    ("sink.bytes", "bytes", Better::Lower),
    ("sink.bytes_per_edge", "bytes/edge", Better::Lower),
    ("sink.write_residual_ns", "ns", Better::Lower),
    ("sink.handoff_wait_ns", "ns", Better::Lower),
    ("replay.open_ns", "ns", Better::Lower),
    ("replay.stream_ns", "ns", Better::Lower),
    ("replay.verify_only_ns", "ns", Better::Lower),
    ("replay.bytes", "bytes", Better::Lower),
    ("manifest.write_ns", "ns", Better::Lower),
    ("manifest.read_ns", "ns", Better::Lower),
    ("manifest.journal_append_ns", "ns", Better::Lower),
    ("pipeline.pass_w1_ns", "ns", Better::Lower),
    ("pipeline.staged_total_ns", "ns", Better::Lower),
    ("pipeline.coverage", "ratio", Better::Higher),
    ("pipeline.overhead_ns", "ns", Better::Lower),
];

/// Pass accounting: how many passes ran, and which failed their checks.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed pass, naming the pass and the check.
    pub failures: Vec<String>,
}

impl Tally {
    /// Count one pass: its value when it passed, `None` — and a failure
    /// recorded by name — when it did not.
    pub fn record<T>(&mut self, label: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        result
            .map_err(|reason| {
                self.failed += 1;
                self.failures.push(format!("{label}: {reason}"));
            })
            .ok()
    }
}

/// What a run knows about where and how it ran, printed with every result.
#[derive(Debug, Default)]
pub struct Provenance {
    pub fields: Vec<(&'static str, String)>,
}

impl Provenance {
    /// Add a field whose value is already JSON (a number, `true`, an
    /// array).
    pub fn raw(&mut self, key: &'static str, value: impl ToString) {
        self.fields.push((key, value.to_string()));
    }

    /// Add a string field.
    pub fn text(&mut self, key: &'static str, value: &str) {
        self.fields.push((key, json_string(value)));
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(key, value)| format!("{}: {value}", json_string(key)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// The result of one run of one workload.
#[derive(Debug)]
pub struct Outcome {
    pub workload: &'static str,
    /// `(name, unit, value)` of every metric of the mode that ran, in
    /// table order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Reported but not gated: `(name, unit, value)`.
    pub ungated: Vec<(&'static str, &'static str, f64)>,
    /// Further lines for the reader: the samples behind the medians.
    pub notes: Vec<String>,
    pub tally: Tally,
    pub provenance: Provenance,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    /// The human-readable part: one line per metric, by name, with unit.
    pub fn describe(&self) -> String {
        let mut text = String::new();
        let _ = writeln!(text, "workload {}", self.workload);
        let _ = writeln!(text, "provenance {}", self.provenance.to_json());
        for (name, unit, value) in &self.metrics {
            let _ = writeln!(text, "  {name:<28} {value:>20.4} {unit}");
        }
        for (name, unit, value) in &self.ungated {
            let _ = writeln!(text, "  {name:<28} {value:>20.4} {unit} (not gated)");
        }
        for note in &self.notes {
            let _ = writeln!(text, "  {note}");
        }
        let _ = writeln!(
            text,
            "passes: {} attempted, {} failed",
            self.tally.attempted, self.tally.failed
        );
        for failure in &self.tally.failures {
            let _ = writeln!(text, "FAILED {failure}");
        }
        text
    }

    /// The machine-readable last line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(name),
                    json_number(*value),
                    json_string(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with all its digits; JSON has no NaN or infinity, so a
/// value that is not finite reads 0.
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

pub fn json_string(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len() + 2);
    out.push('"');
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Read one metric's value back out of a [`Outcome::result_line`] — what
/// `--repeat-check` does with the lines its child runs print.
pub fn metric_in_line(line: &str, name: &str) -> Option<f64> {
    let key = format!("{}: {{\"value\": ", json_string(name));
    let rest = &line[line.find(&key)? + key.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> Outcome {
        let mut provenance = Provenance::default();
        provenance.raw("seed", 7);
        provenance.text("rustc", "rustc \"1.0\"");
        Outcome {
            workload: "kron_count",
            metrics: vec![
                ("edges_per_s", "edges/s", 1234.5678),
                ("setup_s", "s", 0.25),
            ],
            ungated: vec![("scaling.ratio", "ratio", 1.5)],
            notes: vec!["pass seconds at 1 worker(s): 0.7100 0.7300".into()],
            tally: Tally {
                attempted: 5,
                failed: 0,
                failures: Vec::new(),
            },
            provenance,
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = outcome().result_line();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": \
             {\"edges_per_s\": {\"value\": 1234.5678, \"unit\": \"edges/s\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert!(!line.contains('\n'));
        assert_eq!(metric_in_line(&line, "edges_per_s"), Some(1234.5678));
        assert_eq!(metric_in_line(&line, "setup_s"), Some(0.25));
        assert_eq!(metric_in_line(&line, "absent"), None);
    }

    #[test]
    fn a_failed_pass_is_named_and_makes_the_run_incorrect() {
        let mut outcome = outcome();
        assert_eq!(outcome.tally.record("pass 1 w1", Ok(7)), Some(7));
        let failed: Result<(), String> = Err("delivered 1 edges, expected 2".into());
        assert_eq!(outcome.tally.record("pass 2 w2", failed), None);
        assert!(!outcome.correct());
        assert!(outcome
            .result_line()
            .starts_with("{\"correct\": false, \"attempted\": 7, \"failed\": 1,"));
        let text = outcome.describe();
        assert!(text.contains("FAILED pass 2 w2: delivered 1 edges, expected 2"));
        assert!(text.contains("edges_per_s"));
        assert!(text.contains("edges/s"));
        assert!(text.contains("(not gated)"));
        assert!(text.contains("pass seconds at 1 worker(s): 0.7100 0.7300"));
    }

    #[test]
    fn numbers_and_strings_stay_valid_json() {
        assert_eq!(json_number(f64::NAN), "0");
        assert_eq!(json_number(f64::INFINITY), "0");
        assert_eq!(json_number(590_123_456.75), "590123456.75");
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(
            outcome().provenance.to_json(),
            "{\"seed\": 7, \"rustc\": \"rustc \\\"1.0\\\"\"}"
        );
    }

    #[test]
    fn metric_tables_obey_the_naming_limits() {
        let legal_name = |name: &str| {
            name.len() <= 64
                && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let legal_unit = |unit: &str| {
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = Vec::new();
        for metric in END_TO_END {
            assert!(legal_name(metric.name) && legal_unit(metric.unit));
            assert!(metric.bound > 0.0 && metric.bound <= 0.25);
            names.push(metric.name);
        }
        for (name, unit, _) in PER_LAYER {
            assert!(legal_name(name) && legal_unit(unit), "{name} {unit}");
            names.push(name);
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "metric names are used once");
    }
}

//! Metric names, units and the result line.

use crate::Args;
use std::process::ExitCode;

/// End-to-end metrics: printed as JSON by the untraced run (`--trace 0`).
/// `frame_p99_ms` is printed on every run but is not among them: on the
/// reference VM its run-to-run spread exceeds the largest bound
/// `BENCHMARK.json` may set (0.25).
pub const END_TO_END: [(&str, &str); 6] = [
    ("frames_per_s", "frames/s"),
    ("frame_p50_ms", "ms"),
    ("server_cpu_ms_per_frame", "ms"),
    ("process_cpu_ms_per_frame", "ms"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics: printed as JSON by the traced run (`--trace 1`).
/// Every one is defined, and non-zero, on every workload.
pub const PER_LAYER: [(&str, &str); 23] = [
    ("crc.ms_per_frame", "ms"),
    ("wire.encode_ms", "ms"),
    ("wire.verify_ms", "ms"),
    ("wire.up_bytes_per_frame", "bytes"),
    ("protocol.encode_ms", "ms"),
    ("protocol.decode_ms", "ms"),
    ("protocol.down_bytes_per_frame", "bytes"),
    ("transport_queue_ms", "ms"),
    ("shard.cpu_ms_per_frame", "ms"),
    ("pipeline.extract_ms", "ms"),
    ("imgproc.label_ms", "ms"),
    ("imgproc.components_per_frame", "count"),
    ("tracking.observe_ms", "ms"),
    ("tracking.active_tracks", "count"),
    ("stream.push_ms", "ms"),
    ("stream.window_ms", "ms"),
    ("stream.verdicts_per_frame", "count"),
    ("inference.predict_ms", "ms"),
    ("client.open_ms", "ms"),
    ("client.close_ms", "ms"),
    ("registry.swap_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("trace.reconcile_err_frac", "ratio"),
];

/// Everything one run measured, plus its verdict on itself.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, String)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused, timed out or mismatched.
    pub failed: u64,
    /// Served verdicts that differ from the in-process replay, plus frames
    /// where the decomposed chain differs from `push_payload`.
    pub mismatched: u64,
    /// Reasons the run does not measure the program (generator behind its
    /// schedule, CPU split or outcome tally not adding up).
    pub invalid: Vec<String>,
}

impl Report {
    /// Records a metric (a later value of the same name replaces it).
    pub fn set(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.retain(|(n, _, _)| n != name);
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// Marks the run invalid.
    pub fn invalidate(&mut self, reason: impl Into<String>) {
        self.invalid.push(reason.into());
    }

    /// The result line for `trace`; an error names a required metric that
    /// is missing or not finite.
    pub fn json(&self, trace: bool) -> Result<String, String> {
        let wanted: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut fields = Vec::with_capacity(wanted.len());
        for (name, unit) in wanted {
            let value = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            fields.push(format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#));
        }
        Ok(format!(
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
            self.mismatched == 0,
            self.attempted.max(1),
            self.failed,
            fields.join(",")
        ))
    }

    /// Prints every metric with its unit, then the result line; returns the
    /// exit code.
    pub fn print(&self, args: &Args) -> ExitCode {
        println!(
            "servebench {} seed {} ({} s, {})",
            args.workload,
            args.seed,
            args.seconds.as_secs_f64(),
            if args.trace { "traced" } else { "untraced" }
        );
        for (name, value, unit) in &self.metrics {
            println!("  {name:<34} {value:>14.6} {unit}");
        }
        if !self.invalid.is_empty() {
            for reason in &self.invalid {
                eprintln!("servebench: run INVALID: {reason}");
            }
            return ExitCode::from(3);
        }
        match self.json(args.trace) {
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("servebench: run INVALID: {e}");
                return ExitCode::from(3);
            }
        }
        if self.mismatched > 0 {
            eprintln!(
                "servebench: {} frames differ from the in-process replay",
                self.mismatched
            );
            return ExitCode::from(1);
        }
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
        value.get(key).unwrap_or_else(|| panic!("missing {key}"))
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let mut report = Report {
            attempted: 10,
            failed: 1,
            ..Report::default()
        };
        for (name, unit) in END_TO_END {
            report.set(name, 1.25, unit);
        }
        report.set("extra", 3.0, "ms");
        let line = report.json(false).unwrap();
        let value: Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = value
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(field(&value, "correct").as_bool(), Some(true));
        assert_eq!(field(&value, "attempted").as_u64(), Some(10));
        let metrics = field(&value, "metrics");
        assert_eq!(metrics.as_object().unwrap().len(), END_TO_END.len());
        assert_eq!(field(field(metrics, "setup_s"), "unit").as_str(), Some("s"));
        assert_eq!(
            field(field(metrics, "frames_per_s"), "value").as_f64(),
            Some(1.25)
        );
        assert!(report.json(true).is_err(), "per-layer metrics are missing");
        report.set("setup_s", f64::NAN, "s");
        assert!(report.json(false).is_err());
    }

    /// `BENCHMARK.json` at the repository root lists exactly the workloads
    /// and metrics this binary runs and prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json exists");
        let value: Value = serde_json::from_str(&text).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            field(&value, key)
                .as_array()
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        field(m, "name").as_str().unwrap().to_string(),
                        field(m, "unit").as_str().unwrap().to_string(),
                    )
                })
                .collect()
        };
        let expect = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), expect(&END_TO_END));
        assert_eq!(listed("per_layer"), expect(&PER_LAYER));
        let workloads: Vec<&str> = field(&value, "workloads")
            .as_array()
            .unwrap()
            .iter()
            .map(|w| field(w, "name").as_str().unwrap())
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }
}

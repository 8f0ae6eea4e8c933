//! Machine-readable bench reports: a hand-rolled JSON writer paired
//! with a **strict** reader built on the workspace's own parser
//! ([`pico_telemetry::json`]).
//!
//! The emitted document (`BENCH_kernels.json` in CI) is the interface
//! between a bench run and whatever inspects it later; `from_json`
//! therefore rejects missing fields, wrong types, and suite-name
//! mismatches instead of guessing, and the golden-shape tests assert
//! that `to_json` → `from_json` is the identity.

use pico_telemetry::json::{self, Value};
use pico_telemetry::TelemetryError;

use crate::harness::BenchRecord;

/// All records of one suite run, in execution order.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Suite name (`kernels`, `planner`).
    pub suite: String,
    /// Records in the order they were measured.
    pub records: Vec<BenchRecord>,
}

impl BenchReport {
    /// Creates an empty report for `suite`.
    pub fn new(suite: &str) -> Self {
        BenchReport {
            suite: suite.to_string(),
            records: Vec::new(),
        }
    }

    /// The record named `name`, if present.
    pub fn record(&self, name: &str) -> Option<&BenchRecord> {
        self.records.iter().find(|r| r.name == name)
    }

    /// Median-time ratio `slow / fast` between two named records —
    /// the machine-independent number the CI gate checks (how many
    /// times faster `fast` is).
    pub fn ratio(&self, slow: &str, fast: &str) -> Option<f64> {
        let s = self.record(slow)?;
        let f = self.record(fast)?;
        if f.median_ns == 0 {
            return None;
        }
        Some(s.median_ns as f64 / f.median_ns as f64)
    }

    /// The report's structural shape — suite plus record names in order
    /// — which reruns must reproduce exactly even though timings move.
    pub fn shape(&self) -> (String, Vec<String>) {
        (
            self.suite.clone(),
            self.records.iter().map(|r| r.name.clone()).collect(),
        )
    }

    /// Serializes the report as a single-line JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"suite\":\"");
        out.push_str(&json::escape(&self.suite));
        out.push_str("\",\"records\":[");
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"suite\":\"{}\",\"name\":\"{}\",\"warmup\":{},\"iters\":{},\"runs\":{},\"median_ns\":{},\"min_ns\":{},\"flops\":{}}}",
                json::escape(&r.suite),
                json::escape(&r.name),
                r.warmup,
                r.iters,
                r.runs,
                r.median_ns,
                r.min_ns,
                json::fmt_f64(r.flops),
            ));
        }
        out.push_str("]}");
        out
    }

    /// Parses a report, strictly.
    ///
    /// # Errors
    ///
    /// Returns [`TelemetryError::Parse`] for malformed JSON, a missing
    /// or mistyped field, or a record whose `suite` disagrees with the
    /// document's.
    pub fn from_json(text: &str) -> Result<Self, TelemetryError> {
        let doc = json::parse(text)?;
        let suite = require_str(&doc, "suite")?.to_string();
        let records_v = doc
            .get("records")
            .and_then(Value::as_arr)
            .ok_or_else(|| schema_err("missing or non-array 'records'"))?;
        let mut records = Vec::with_capacity(records_v.len());
        for rv in records_v {
            let rec_suite = require_str(rv, "suite")?;
            if rec_suite != suite {
                return Err(schema_err("record suite disagrees with document suite"));
            }
            records.push(BenchRecord {
                suite: rec_suite.to_string(),
                name: require_str(rv, "name")?.to_string(),
                warmup: require_usize(rv, "warmup")?,
                iters: require_usize(rv, "iters")?,
                runs: require_usize(rv, "runs")?,
                median_ns: require_u64(rv, "median_ns")?,
                min_ns: require_u64(rv, "min_ns")?,
                flops: require_f64(rv, "flops")?,
            });
        }
        Ok(BenchReport { suite, records })
    }
}

fn schema_err(reason: &str) -> TelemetryError {
    TelemetryError::Parse {
        offset: 0,
        reason: reason.to_string(),
    }
}

fn require_str<'v>(v: &'v Value, key: &str) -> Result<&'v str, TelemetryError> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| schema_err(&format!("missing or non-string '{key}'")))
}

fn require_f64(v: &Value, key: &str) -> Result<f64, TelemetryError> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| schema_err(&format!("missing or non-numeric '{key}'")))
}

fn require_u64(v: &Value, key: &str) -> Result<u64, TelemetryError> {
    let n = require_f64(v, key)?;
    if n < 0.0 || n.fract() != 0.0 || n > u64::MAX as f64 {
        return Err(schema_err(&format!(
            "'{key}' is not a non-negative integer"
        )));
    }
    Ok(n as u64)
}

fn require_usize(v: &Value, key: &str) -> Result<usize, TelemetryError> {
    let n = require_u64(v, key)?;
    usize::try_from(n).map_err(|_| schema_err(&format!("'{key}' overflows usize")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        BenchReport {
            suite: "kernels".into(),
            records: vec![
                BenchRecord {
                    suite: "kernels".into(),
                    name: "conv3x3_c64/reference".into(),
                    warmup: 2,
                    iters: 10,
                    runs: 5,
                    median_ns: 4_200_000,
                    min_ns: 4_100_000,
                    flops: 1.9e7,
                },
                BenchRecord {
                    suite: "kernels".into(),
                    name: "conv3x3_c64/im2col".into(),
                    warmup: 2,
                    iters: 10,
                    runs: 5,
                    median_ns: 1_000_000,
                    min_ns: 950_000,
                    flops: 1.9e7,
                },
            ],
        }
    }

    #[test]
    fn json_round_trip_is_identity() {
        let r = sample();
        let parsed = BenchReport::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn ratio_divides_medians() {
        let r = sample();
        let ratio = r
            .ratio("conv3x3_c64/reference", "conv3x3_c64/im2col")
            .unwrap();
        assert!((ratio - 4.2).abs() < 1e-12);
        assert_eq!(r.ratio("nope", "conv3x3_c64/im2col"), None);
    }

    #[test]
    fn shape_ignores_timings() {
        let mut a = sample();
        let b = sample();
        a.records[0].median_ns = 77;
        a.records[1].min_ns = 3;
        assert_eq!(a.shape(), b.shape());
    }

    #[test]
    fn strict_parser_rejects_schema_violations() {
        let bad = [
            // Not JSON at all.
            "nonsense",
            // Missing suite.
            r#"{"records":[]}"#,
            // Records not an array.
            r#"{"suite":"kernels","records":{}}"#,
            // Record missing a field.
            r#"{"suite":"k","records":[{"suite":"k","name":"a","warmup":0,"iters":1,"runs":1,"median_ns":1}]}"#,
            // Non-integer nanoseconds.
            r#"{"suite":"k","records":[{"suite":"k","name":"a","warmup":0,"iters":1,"runs":1,"median_ns":1.5,"min_ns":1,"flops":0}]}"#,
            // Suite mismatch between document and record.
            r#"{"suite":"k","records":[{"suite":"other","name":"a","warmup":0,"iters":1,"runs":1,"median_ns":1,"min_ns":1,"flops":0}]}"#,
        ];
        for text in bad {
            assert!(
                BenchReport::from_json(text).is_err(),
                "accepted invalid document: {text}"
            );
        }
    }

    #[test]
    fn escaped_names_survive_round_trip() {
        let r = BenchReport {
            suite: "e\"2e".into(),
            records: vec![BenchRecord {
                suite: "e\"2e".into(),
                name: "line\nbreak".into(),
                warmup: 0,
                iters: 1,
                runs: 1,
                median_ns: 1,
                min_ns: 1,
                flops: 0.0,
            }],
        };
        assert_eq!(BenchReport::from_json(&r.to_json()).unwrap(), r);
    }
}

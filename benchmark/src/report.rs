//! The result line: one JSON object, the last line of standard output.

use pico_telemetry::json::{self, Value};

/// One measured value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Frozen metric name (see `spec`).
    pub name: &'static str,
    /// The value as measured, all digits.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What one run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Every output checked was right and no operation failed.
    pub correct: bool,
    /// Operations attempted in the timed window.
    pub attempted: u64,
    /// Operations rejected, errored or wrong.
    pub failed: u64,
    /// The run's metrics, by name.
    pub metrics: Vec<Metric>,
}

impl Summary {
    /// The single-line JSON object the driver reads: exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json::fmt_f64(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A result line read back: `(correct, attempted, failed, [(name, value, unit)])`.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedSummary {
    /// The `correct` flag.
    pub correct: bool,
    /// The `attempted` count.
    pub attempted: u64,
    /// The `failed` count.
    pub failed: u64,
    /// `(name, value, unit)` in document order.
    pub metrics: Vec<(String, f64, String)>,
}

impl ParsedSummary {
    /// A metric's value by name.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }
}

/// Parses a result line, insisting on the exact key set.
///
/// # Errors
///
/// Describes the first way the line departs from the contract.
pub fn parse_summary(line: &str) -> Result<ParsedSummary, String> {
    let doc = json::parse(line).map_err(|e| format!("result line is not JSON: {e}"))?;
    let Value::Obj(members) = &doc else {
        return Err("result line is not a JSON object".to_owned());
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("result keys are {keys:?}"));
    }
    let correct = match doc.get("correct") {
        Some(Value::Bool(b)) => *b,
        _ => return Err("`correct` is not a boolean".to_owned()),
    };
    let count = |key: &str| -> Result<u64, String> {
        match doc.get(key).and_then(Value::as_f64) {
            Some(n) if n >= 0.0 && n.fract() == 0.0 => Ok(n as u64),
            _ => Err(format!("`{key}` is not a whole number")),
        }
    };
    let Some(Value::Obj(entries)) = doc.get("metrics") else {
        return Err("`metrics` is not an object".to_owned());
    };
    let mut metrics = Vec::with_capacity(entries.len());
    for (name, entry) in entries {
        let value = entry
            .get("value")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("metric {name} has no numeric value"))?;
        let unit = entry
            .get("unit")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("metric {name} has no unit"))?;
        metrics.push((name.clone(), value, unit.to_owned()));
    }
    Ok(ParsedSummary {
        correct,
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_line_parses_back_exactly() {
        let s = Summary {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "latency_p50_ms",
                    value: 1.203_456_789_012,
                    unit: "ms",
                },
                Metric {
                    name: "setup_s",
                    value: 0.8127,
                    unit: "s",
                },
            ],
        };
        let line = s.to_json_line();
        assert!(!line.contains('\n'));
        let back = parse_summary(&line).unwrap();
        assert!(back.correct);
        assert_eq!((back.attempted, back.failed), (1000, 0));
        assert_eq!(back.metrics.len(), 2);
        assert_eq!(back.value("latency_p50_ms"), Some(1.203_456_789_012));
        assert_eq!(back.metrics[1].2, "s");
    }

    #[test]
    fn departures_from_the_contract_are_named() {
        assert!(parse_summary("not json").is_err());
        assert!(parse_summary("[1]").is_err());
        let extra = r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {}, "x": 1}"#;
        assert!(parse_summary(extra).unwrap_err().contains("keys"));
        let frac = r#"{"correct": true, "attempted": 1.5, "failed": 0, "metrics": {}}"#;
        assert!(parse_summary(frac).unwrap_err().contains("attempted"));
        let unitless =
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"a": {"value": 1}}}"#;
        assert!(parse_summary(unitless).unwrap_err().contains("unit"));
    }
}

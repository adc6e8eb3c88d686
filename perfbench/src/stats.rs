//! The benchmark's own arithmetic: percentile choice, reply classification,
//! metric naming and the result line. Kept free of I/O so it is unit-tested
//! on its own (`cargo test --manifest-path perfbench/Cargo.toml`).

/// How one attempted request ended, from the client's point of view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Well-formed reply whose deterministic bytes equal the serial
    /// in-process reference.
    Ok,
    /// Well-formed reply whose deterministic bytes differ from the
    /// reference (or a reply that is not framed as the request expects).
    Mismatch,
    /// `ERR BUSY …`: shed by the admission gate.
    Busy,
    /// Any other `ERR …` reply.
    Err,
    /// The connection failed (refused, reset, timed out, closed early).
    Transport,
}

impl Outcome {
    pub fn is_ok(self) -> bool {
        self == Outcome::Ok
    }
}

/// Classify a reply read back for one request. `lines` is the full reply
/// (one line, or `OK …` through `END`); `expected` is the reference
/// payload, compared against [`payload`] of the reply. A transport error is
/// classified by the caller, which never gets lines for it.
pub fn classify(lines: &[String], expected: &[String]) -> Outcome {
    let Some(first) = lines.first() else {
        return Outcome::Transport;
    };
    if let Some(msg) = first.strip_prefix("ERR ") {
        return if msg.starts_with("BUSY") {
            Outcome::Busy
        } else {
            Outcome::Err
        };
    }
    if payload(lines) == expected {
        Outcome::Ok
    } else {
        Outcome::Mismatch
    }
}

/// The deterministic part of a reply: for an `OK … END` campaign reply its
/// `SUMMARY`/`DEPLOY` lines (the `TELEMETRY` line carries wall-clock times
/// and is excluded); for a one-line reply (`STATS …`), the line itself.
/// A bracketed reply without its closing `END` yields a marker that never
/// equals a reference payload.
pub fn payload(lines: &[String]) -> Vec<String> {
    match lines.first() {
        Some(first) if first == "OK" || first.starts_with("OK ") => {
            if lines.last().map(String::as_str) != Some("END") {
                return vec!["<truncated reply>".to_string()];
            }
            lines
                .iter()
                .filter(|l| l.starts_with("SUMMARY ") || l.starts_with("DEPLOY"))
                .cloned()
                .collect()
        }
        _ => lines.to_vec(),
    }
}

/// Latency samples of one run. A request that did not end in
/// [`Outcome::Ok`] counts as missing any latency limit: it ranks above
/// every completed request.
#[derive(Clone, Debug, Default)]
pub struct Latencies {
    ok_ms: Vec<f64>,
    failed: usize,
}

impl Latencies {
    pub fn record(&mut self, outcome: Outcome, ms: f64) {
        if outcome.is_ok() {
            self.ok_ms.push(ms);
        } else {
            self.failed += 1;
        }
    }

    /// Requests attempted (the sample count behind every percentile).
    pub fn count(&self) -> usize {
        self.ok_ms.len() + self.failed
    }

    /// Nearest-rank percentile over all attempted requests: the smallest
    /// sample with at least `q` of the samples at or below it. `None` when
    /// there are no samples or the rank lands on a failed request (whose
    /// latency is unbounded).
    pub fn percentile(&self, q: f64) -> Option<f64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let rank = nearest_rank(q, n);
        let mut ok = self.ok_ms.clone();
        ok.sort_by(f64::total_cmp);
        ok.get(rank - 1).copied()
    }

    /// Samples strictly above the `q` percentile's rank — the guide's
    /// "at least ten samples beyond it" check.
    pub fn beyond(&self, q: f64) -> usize {
        let n = self.count();
        if n == 0 {
            0
        } else {
            n - nearest_rank(q, n)
        }
    }
}

/// 1-based nearest rank `⌈q·n⌉`, clamped to `1..=n`.
pub fn nearest_rank(q: f64, n: usize) -> usize {
    assert!(n > 0 && (0.0..=1.0).contains(&q), "bad percentile query");
    // The small slack keeps exact products (0.9 × 100 = 90.00000000000001)
    // from rounding up a whole rank.
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Median of `values` (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean; 0 for no values.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when the denominator is 0 (a ratio of no attempts).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Metric names: start with a letter or digit, at most 64 characters from
/// letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Units: 1 to 16 characters from letters, digits, `_`, `/`, `%`, `.`, `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`. Errors on an invalid or repeated name or unit,
/// or a value JSON cannot carry.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut seen = std::collections::HashSet::new();
    let mut body = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !valid_name(m.name) || !seen.insert(m.name) {
            return Err(format!("invalid or repeated metric name {:?}", m.name));
        }
        if !valid_unit(m.unit) {
            return Err(format!("invalid unit {:?} for {}", m.unit, m.name));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        // `{:?}` prints the shortest representation that round-trips, so
        // every measured digit survives.
        body.push(format!(
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn nearest_rank_picks_the_smallest_covering_sample() {
        assert_eq!(nearest_rank(0.5, 1), 1);
        assert_eq!(nearest_rank(0.5, 2), 1);
        assert_eq!(nearest_rank(0.5, 3), 2);
        assert_eq!(nearest_rank(0.9, 10), 9);
        assert_eq!(nearest_rank(0.9, 100), 90);
        assert_eq!(nearest_rank(0.9, 101), 91);
        assert_eq!(nearest_rank(1.0, 7), 7);
        assert_eq!(nearest_rank(0.0, 7), 1);
    }

    #[test]
    fn percentiles_rank_failures_above_every_completed_request() {
        let mut l = Latencies::default();
        for ms in (1..=10).rev() {
            l.record(Outcome::Ok, ms as f64);
        }
        assert_eq!(l.percentile(0.5), Some(5.0));
        assert_eq!(l.percentile(0.9), Some(9.0));
        assert_eq!(l.beyond(0.9), 1);
        // One failure: the 11th sample ranks last, so p90 (rank 10) is the
        // slowest completed request and p100 is unbounded.
        l.record(Outcome::Busy, 0.1);
        assert_eq!(l.count(), 11);
        assert_eq!(l.percentile(0.9), Some(10.0));
        assert_eq!(l.percentile(1.0), None);
        // Mostly failures: even the median is unbounded.
        let mut bad = Latencies::default();
        bad.record(Outcome::Ok, 1.0);
        bad.record(Outcome::Transport, 0.0);
        bad.record(Outcome::Mismatch, 0.0);
        assert_eq!(bad.percentile(0.5), None);
        assert_eq!(Latencies::default().percentile(0.5), None);
    }

    #[test]
    fn replies_are_classified_by_kind() {
        let expected = lines(&["SUMMARY h", "SUMMARY r", "DEPLOY node,seed,coupons"]);
        let ok = lines(&[
            "OK rows=0",
            "SUMMARY h",
            "SUMMARY r",
            "DEPLOY node,seed,coupons",
            "TELEMETRY wall_ms=3.2",
            "END",
        ]);
        assert_eq!(classify(&ok, &expected), Outcome::Ok);
        let other_bytes = lines(&["OK rows=0", "SUMMARY h", "SUMMARY r2", "END"]);
        assert_eq!(classify(&other_bytes, &expected), Outcome::Mismatch);
        let truncated = lines(&["OK rows=0", "SUMMARY h", "SUMMARY r"]);
        assert_eq!(classify(&truncated, &expected), Outcome::Mismatch);
        let busy = lines(&["ERR BUSY retry-after-ms=50"]);
        assert_eq!(classify(&busy, &expected), Outcome::Busy);
        let err = lines(&["ERR internal: worlds collided"]);
        assert_eq!(classify(&err, &expected), Outcome::Err);
        assert_eq!(classify(&[], &expected), Outcome::Transport);
        // One-line replies compare whole.
        let stats = lines(&["STATS benefit=1 activated=2"]);
        assert_eq!(classify(&stats, &stats), Outcome::Ok);
        assert_eq!(
            classify(&lines(&["STATS benefit=1 activated=3"]), &stats),
            Outcome::Mismatch
        );
        assert_eq!(classify(&lines(&["PONG"]), &expected), Outcome::Mismatch);
    }

    #[test]
    fn metric_names_and_units_follow_the_charset() {
        for ok in ["setup_s", "lane.simulate_b1_ms", "core.id-ms", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in ["", "_x", ".x", "a b", "a/b", "é", long.as_str()] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"a".repeat(64)));
        for ok in ["ms", "s", "1/s", "count", "%", "bytes", "MB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "seconds-elapsed-x", "ms,"] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_four_keys_and_full_digits() {
        let m = [
            Metric {
                name: "latency_ms",
                unit: "ms",
                value: 1.2034567891,
            },
            Metric {
                name: "setup_s",
                unit: "s",
                value: 3.0,
            },
        ];
        let line = result_line(true, 10, 0, &m).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034567891, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 3.0, \"unit\": \"s\"}}}"
        );
        let dup = [m[0].clone(), m[0].clone()];
        assert!(result_line(true, 1, 0, &dup).is_err());
        let nan = [Metric {
            name: "x",
            unit: "ms",
            value: f64::NAN,
        }];
        assert!(result_line(true, 1, 0, &nan).is_err());
    }

    #[test]
    fn median_mean_and_ratio() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0]), 1.5);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}

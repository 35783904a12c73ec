//! Summary statistics and the metric set the benchmark prints.
//!
//! Every percentile carries the sample size it was taken from and every
//! ratio carries its base, so a reader can tell a p99 of 20 samples from a
//! p99 of 2,000 and a ratio of 0/0 from a ratio of 0/10,000.

use std::fmt::Write as _;

/// A nearest-rank percentile together with the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample value at the requested rank (0 for an empty sample).
    pub value: f64,
    /// Number of samples the percentile was taken from.
    pub n: usize,
}

/// Nearest-rank percentile `q` (in `(0, 1]`) of `sample`.
///
/// Failed operations enter the sample as `f64::INFINITY`, so they sort above
/// every completed one and count as missing any latency limit; a percentile
/// that lands on one reads as infinite.
pub fn percentile(sample: &[f64], q: f64) -> Percentile {
    if sample.is_empty() {
        return Percentile { value: 0.0, n: 0 };
    }
    let mut sorted = sample.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    let index = rank.clamp(1, sorted.len()) - 1;
    Percentile {
        value: sorted[index],
        n: sorted.len(),
    }
}

/// The largest value of `sample` (0 for an empty sample).
pub fn max(sample: &[f64]) -> f64 {
    sample.iter().copied().fold(0.0, f64::max)
}

/// A ratio kept with its base: `part / base`, 0 when the base is 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ratio {
    /// The counted part.
    pub part: u64,
    /// What it is counted against.
    pub base: u64,
}

impl Ratio {
    /// The ratio's value.
    pub fn value(self) -> f64 {
        if self.base == 0 {
            0.0
        } else {
            self.part as f64 / self.base as f64
        }
    }
}

/// Whether `name` is a valid metric or workload name: 1 to 64 characters of
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    let allowed = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(allowed)
}

/// Whether `unit` is a valid unit: 1 to 16 characters of
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    let allowed = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(allowed)
}

/// Render `v` as a JSON number with every digit Rust keeps. JSON has no
/// infinity, so an unbounded value (a percentile that landed on a failed
/// operation) reads as the largest finite `f64`; NaN, which only an empty
/// quotient could produce, reads as 0.
pub fn json_number(v: f64) -> String {
    if v.is_nan() {
        "0.0".into()
    } else if v.is_infinite() {
        format!("{:?}", f64::MAX.copysign(v))
    } else {
        format!("{v:?}")
    }
}

/// Quote `s` as a JSON string.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Named metrics with units, in insertion order, plus a free-text note per
/// metric (sample count, ratio base) for the human-readable report.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(&'static str, f64, &'static str, String)>,
}

impl Metrics {
    /// Add a metric. Names and units are compile-time constants of this
    /// benchmark, so an invalid or repeated one is a bug here.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        assert!(valid_name(name), "invalid metric name {name:?}");
        assert!(valid_unit(unit), "invalid unit {unit:?} of {name}");
        assert!(
            self.entries.iter().all(|(n, ..)| *n != name),
            "metric {name} pushed twice"
        );
        self.entries.push((name, value, unit, note));
    }

    /// A percentile, noting its sample size.
    pub fn percentile(&mut self, name: &'static str, p: Percentile, unit: &'static str) {
        self.push(name, p.value, unit, format!("n={}", p.n));
    }

    /// A ratio, noting its base.
    pub fn ratio(&mut self, name: &'static str, r: Ratio) {
        self.push(name, r.value(), "ratio", format!("{}/{}", r.part, r.base));
    }

    /// One aligned line per metric: name, value, unit and note.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, value, unit, note) in &self.entries {
            let _ = writeln!(out, "  {name:<34} {value:>16.6} {unit:<9} {note}");
        }
        out
    }

    /// Metric names with their units, in insertion order.
    #[cfg(test)]
    pub fn names(&self) -> Vec<(&'static str, &'static str)> {
        self.entries.iter().map(|(n, _, u, _)| (*n, *u)).collect()
    }

    /// The `{"name": {"value": v, "unit": u}, ...}` object.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .entries
            .iter()
            .map(|(name, value, unit, _)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(name),
                    json_number(*value),
                    json_string(unit)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_and_keeps_the_sample_size() {
        let sample: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(
            percentile(&sample, 0.5),
            Percentile {
                value: 50.0,
                n: 100
            }
        );
        assert_eq!(percentile(&sample, 0.99).value, 99.0);
        assert_eq!(percentile(&sample, 1.0).value, 100.0);
        assert_eq!(percentile(&[7.0], 0.99), Percentile { value: 7.0, n: 1 });
        assert_eq!(percentile(&[], 0.5), Percentile { value: 0.0, n: 0 });
    }

    #[test]
    fn failed_operations_sort_above_every_completed_one() {
        let mut sample: Vec<f64> = (1..=99).map(f64::from).collect();
        sample.push(f64::INFINITY);
        assert_eq!(percentile(&sample, 0.99).value, 99.0);
        assert!(percentile(&sample, 1.0).value.is_infinite());
        assert_eq!(json_number(f64::INFINITY), format!("{:?}", f64::MAX));
    }

    #[test]
    fn ratio_keeps_its_base() {
        let r = Ratio { part: 1, base: 4 };
        assert_eq!(r.value(), 0.25);
        assert_eq!(Ratio { part: 0, base: 0 }.value(), 0.0);
        let mut m = Metrics::default();
        m.ratio("txn_abort_ratio", r);
        assert!(m.render().contains("1/4"));
    }

    #[test]
    fn metric_name_charset() {
        for ok in ["query_p50_ms", "rde.switch_ms.p50", "a-b", "9x"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_x", ".x", "a b", "a/b", "ms²", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("MB"));
        assert!(!valid_unit("") && !valid_unit("per second") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn metrics_reject_a_bad_name() {
        Metrics::default().push("bad name", 1.0, "ms", String::new());
    }

    #[test]
    fn json_keeps_every_digit() {
        let mut m = Metrics::default();
        m.push("latency_ms", 1.2034567891234, "ms", String::new());
        m.push("setup_s", 2.0, "s", String::new());
        assert_eq!(
            m.to_json(),
            "{\"latency_ms\": {\"value\": 1.2034567891234, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}}"
        );
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}

//! Sample summaries and the metric registry every run reports through.

use std::fmt::Write as _;

/// Percentiles a tail may be reported at, highest first, in tenths of a
/// percent (integers, so rank arithmetic is exact).
const TAIL_PERMILLE: [usize; 6] = [999, 995, 990, 980, 950, 900];

/// A timing summary: the median plus the highest percentile that still
/// has at least ten samples ranked beyond it, with the sample count.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// `(percentile, value)`, or `None` below a hundred samples.
    pub tail: Option<(f64, f64)>,
    pub max: f64,
}

/// The nearest rank (1-based) of the `permille` percentile of `n`
/// samples.
fn rank(n: usize, permille: usize) -> usize {
    (permille * n).div_ceil(1000).clamp(1, n)
}

/// Summarises `samples`; `None` when there are none.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let mid = n / 2;
    let p50 = if n % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    };
    let tail = TAIL_PERMILLE
        .iter()
        .find(|&&pm| n - rank(n, pm) >= 10)
        .map(|&pm| (pm as f64 / 10.0, sorted[rank(n, pm) - 1]));
    Some(Summary {
        n,
        p50,
        tail,
        max: sorted[n - 1],
    })
}

/// Median of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).map_or(0.0, |s| s.p50)
}

/// Tail label for a percentile: `99` → `p99`, `99.9` → `p99.9`.
pub fn tail_label(p: f64) -> String {
    if p.fract() == 0.0 {
        format!("p{}", p as u64)
    } else {
        format!("p{p}")
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub better: Better,
}

/// Whether `name` obeys the metric-name grammar: starts with a letter or
/// digit, at most 64 of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let first_ok = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` obeys the unit grammar: 1 to 16 of letters, digits,
/// `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// An ordered set of metrics with unique, grammar-checked names.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    items: Vec<Metric>,
}

impl Metrics {
    /// Adds a metric. Panics on a malformed or duplicate name, a
    /// malformed unit or a non-finite value: each is a benchmark bug.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        better: Better,
    ) {
        let name = name.into();
        assert!(valid_name(&name), "metric name {name:?} breaks the grammar");
        assert!(
            valid_unit(unit),
            "unit {unit:?} of {name} breaks the grammar"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(self.get(&name).is_none(), "metric {name} reported twice");
        self.items.push(Metric {
            name,
            value,
            unit,
            better,
        });
    }

    pub fn lower(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.push(name, value, unit, Better::Lower);
    }

    pub fn higher(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.push(name, value, unit, Better::Higher);
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.items.iter().find(|m| m.name == name)
    }

    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.items.iter()
    }

    /// Keeps only the named metrics, in the given order; panics if one
    /// is missing.
    pub fn select(&self, names: &[&str]) -> Metrics {
        let items = names
            .iter()
            .map(|n| {
                self.get(n)
                    .unwrap_or_else(|| panic!("metric {n} was not measured"))
                    .clone()
            })
            .collect();
        Metrics { items }
    }

    /// `{"name": {"value": v, "unit": u}, ...}`
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, m) in self.items.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            );
        }
        out.push('}');
        out
    }
}

/// A finite float as a JSON number with all its digits.
pub fn json_num(x: f64) -> String {
    let s = format!("{x:?}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
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

/// A field of a parsed JSON object.
pub fn field<'v>(v: &'v serde::Value, key: &str) -> Option<&'v serde::Value> {
    match v {
        serde::Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// A parsed JSON number as a whole number.
pub fn as_u64(v: Option<&serde::Value>) -> Option<u64> {
    match v? {
        serde::Value::U64(n) => Some(*n),
        serde::Value::I64(n) => u64::try_from(*n).ok(),
        _ => None,
    }
}

/// A deterministic 64-bit generator (SplitMix64) for seeded choices.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed ^ 0x6d61_6e74_7261_6263)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_reports_count_median_and_a_supported_tail() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&xs).unwrap();
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.5);
        // 1000 samples: p99 leaves exactly ten beyond it, p99.5 only five.
        assert_eq!(s.tail, Some((99.0, 990.0)));
        assert_eq!(s.max, 1000.0);
    }

    #[test]
    fn tail_always_has_ten_samples_beyond_it() {
        for n in [
            1usize, 5, 19, 20, 21, 99, 100, 199, 200, 500, 999, 2000, 10_000,
        ] {
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let s = summarize(&xs).unwrap();
            assert_eq!(s.n, n);
            match s.tail {
                None => assert!(n < 100, "n={n} should support p90"),
                Some((p, v)) => {
                    let beyond = xs.iter().filter(|&&x| x > v).count();
                    assert!(beyond >= 10, "n={n} p{p}: only {beyond} beyond");
                    // No higher candidate would still qualify.
                    let pm = (p * 10.0).round() as usize;
                    for &q in TAIL_PERMILLE.iter().filter(|&&q| q > pm) {
                        assert!(n - rank(n, q) < 10, "n={n}: p{} fits", q as f64 / 10.0);
                    }
                }
            }
        }
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn odd_and_even_medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn name_and_unit_grammar() {
        for ok in [
            "setup_s",
            "latency_ms.p50",
            "http.replay_ms.p50",
            "1x",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".x", "_x", "a b", "a/b", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "B/row", "%", "rows/s"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "milliseconds-long-unit"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn duplicate_names_are_refused() {
        let mut m = Metrics::default();
        m.lower("x", 1.0, "ms");
        m.lower("x", 2.0, "ms");
    }

    #[test]
    #[should_panic(expected = "breaks the grammar")]
    fn bad_names_are_refused() {
        Metrics::default().lower("bad name", 1.0, "ms");
    }

    #[test]
    fn json_keeps_every_digit() {
        let mut m = Metrics::default();
        m.lower("a", 1.0, "s");
        m.higher("b", 0.1 + 0.2, "1/s");
        assert_eq!(
            m.to_json(),
            "{\"a\": {\"value\": 1.0, \"unit\": \"s\"}, \
             \"b\": {\"value\": 0.30000000000000004, \"unit\": \"1/s\"}}"
        );
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn splitmix_is_deterministic() {
        let a: Vec<u64> = {
            let mut r = SplitMix::new(1998);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let mut r = SplitMix::new(1998);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert!((0..100).all(|_| r.below(7) < 7));
    }
}

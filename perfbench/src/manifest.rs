//! The metric lists of `BENCHMARK.json`, read from the manifest itself so
//! the runs and the manifest cannot drift apart.

use serde::Value;

use crate::stats::{field, Better, Metrics};

const MANIFEST: &str = include_str!("../../BENCHMARK.json");

/// One metric the manifest promises.
#[derive(Clone, Debug, PartialEq)]
pub struct Promised {
    pub name: String,
    pub unit: String,
    pub better: Better,
}

fn text<'v>(v: &'v Value, key: &str) -> &'v str {
    match field(v, key) {
        Some(Value::Str(s)) => s,
        other => panic!("BENCHMARK.json: {key} is {other:?}, not a string"),
    }
}

fn list<'v>(v: &'v Value, key: &str) -> &'v [Value] {
    match field(v, key) {
        Some(Value::Seq(items)) => items,
        other => panic!("BENCHMARK.json: {key} is {other:?}, not a list"),
    }
}

fn parsed() -> Value {
    serde_json::from_str(MANIFEST).expect("BENCHMARK.json parses")
}

/// The metrics of an untraced (`trace == false`) or traced run.
pub fn promised(trace: bool) -> Vec<Promised> {
    let v = parsed();
    let key = if trace { "per_layer" } else { "end_to_end" };
    list(&v, key)
        .iter()
        .map(|m| Promised {
            name: text(m, "name").to_string(),
            unit: text(m, "unit").to_string(),
            better: match text(m, "better") {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => panic!("BENCHMARK.json: better is {other:?}"),
            },
        })
        .collect()
}

/// The workload names, in manifest order.
#[cfg(test)]
fn workloads() -> Vec<String> {
    list(&parsed(), "workloads")
        .iter()
        .map(|w| text(w, "name").to_string())
        .collect()
}

/// The promised subset of `measured`, in manifest order. Panics when a
/// metric is missing or disagrees with the manifest on its unit or
/// direction: either is a benchmark bug.
pub fn select(measured: &Metrics, trace: bool) -> Metrics {
    let promised = promised(trace);
    let names: Vec<&str> = promised.iter().map(|p| p.name.as_str()).collect();
    let chosen = measured.select(&names);
    for (p, m) in promised.iter().zip(chosen.iter()) {
        assert_eq!(
            m.unit, p.unit,
            "{}: unit differs from BENCHMARK.json",
            p.name
        );
        assert_eq!(
            m.better, p.better,
            "{}: direction differs from BENCHMARK.json",
            p.name
        );
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{valid_name, valid_unit};

    #[test]
    fn every_promised_metric_has_a_valid_unique_name_unit_and_direction() {
        let mut seen = std::collections::BTreeSet::new();
        for trace in [false, true] {
            let promised = promised(trace);
            assert!(!promised.is_empty());
            for p in promised {
                assert!(valid_name(&p.name), "{}", p.name);
                assert!(valid_unit(&p.unit), "{}: {}", p.name, p.unit);
                assert!(seen.insert(p.name.clone()), "{} listed twice", p.name);
            }
        }
        assert!(promised(false)
            .iter()
            .any(|p| p.name == "setup_s" && p.unit == "s" && p.better == Better::Lower));
    }

    #[test]
    fn manifest_workloads_are_the_ones_implemented() {
        assert_eq!(workloads(), crate::workloads::NAMES);
    }

    #[test]
    fn every_bound_lies_in_zero_to_a_quarter() {
        let v = parsed();
        for m in list(&v, "end_to_end") {
            let bound = match field(m, "bound") {
                Some(Value::F64(b)) => *b,
                other => panic!("bound is {other:?}"),
            };
            assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", text(m, "name"));
        }
    }
}

//! `BENCHMARK.json`: the benchmark's declaration of its command, workloads
//! and metrics. The binary embeds the file at build time and prints
//! exactly the metrics it declares, with the units it declares, so the
//! declaration and the output cannot drift apart.

use newtond::json::{self, Value};

/// The declaration, as committed at the repository root.
pub const SPEC_JSON: &str = include_str!("../../BENCHMARK.json");

const TOP_KEYS: [&str; 6] =
    ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"];

/// Most a metric may worsen (as a share of the parent's median) before a
/// change counts as a regression.
const MAX_BOUND: f64 = 0.25;

#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    pub name: String,
    pub why: String,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Regression bound; end-to-end metrics only.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub command: Vec<String>,
    pub paths: Vec<String>,
    pub run_seconds: u64,
    pub workloads: Vec<Workload>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Spec {
    pub fn workload(&self, name: &str) -> Option<&Workload> {
        self.workloads.iter().find(|w| w.name == name)
    }
}

/// The embedded declaration. It is checked by the test suite, so a
/// failure here is a broken build, not bad input.
pub fn spec() -> Spec {
    parse(SPEC_JSON).expect("BENCHMARK.json is validated by the test suite")
}

/// A workload or metric name: starts with a letter or digit, then at most
/// 63 more letters, digits, `_`, `.` or `-`.
pub fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.` or `-`.
pub fn valid_unit(s: &str) -> bool {
    (1..=16).contains(&s.len())
        && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// A repository-relative path of at most 200 letters, digits, `_`, `.`,
/// `-` and `/` that stays inside the repository.
fn valid_path(s: &str) -> bool {
    (1..=200).contains(&s.len())
        && !s.starts_with('/')
        && s.split('/').all(|part| part != "..")
        && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-' | '/'))
}

fn keys_exactly(v: &Value, keys: &[&str], what: &str) -> Result<(), String> {
    let Value::Obj(members) = v else { return Err(format!("{what} is not an object")) };
    let mut seen: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    seen.sort_unstable();
    let mut want = keys.to_vec();
    want.sort_unstable();
    if seen != want {
        return Err(format!("{what} has keys {seen:?}, expected {want:?}"));
    }
    Ok(())
}

fn string(v: &Value, key: &str, what: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("{what}: \"{key}\" is not a string"))
}

fn array<'a>(v: &'a Value, key: &str, range: (usize, usize)) -> Result<&'a [Value], String> {
    let items = v.get(key).and_then(Value::as_array).ok_or(format!("\"{key}\" is not a list"))?;
    if !(range.0..=range.1).contains(&items.len()) {
        return Err(format!(
            "\"{key}\" has {} entries, allowed {}..={}",
            items.len(),
            range.0,
            range.1
        ));
    }
    Ok(items)
}

fn metric(v: &Value, end_to_end: bool) -> Result<Metric, String> {
    let keys: &[&str] =
        if end_to_end { &["name", "unit", "better", "bound"] } else { &["name", "unit", "better"] };
    keys_exactly(v, keys, "metric")?;
    let name = string(v, "name", "metric")?;
    if !valid_name(&name) {
        return Err(format!("bad metric name {name:?}"));
    }
    let unit = string(v, "unit", &name)?;
    if !valid_unit(&unit) {
        return Err(format!("{name}: bad unit {unit:?}"));
    }
    let higher_is_better = match string(v, "better", &name)?.as_str() {
        "higher" => true,
        "lower" => false,
        other => return Err(format!("{name}: \"better\" must be higher or lower, not {other:?}")),
    };
    let bound = if end_to_end {
        let b = v.get("bound").and_then(Value::as_f64).ok_or(format!("{name}: bound"))?;
        if !(b > 0.0 && b <= MAX_BOUND) {
            return Err(format!("{name}: bound {b} outside (0, {MAX_BOUND}]"));
        }
        Some(b)
    } else {
        None
    };
    Ok(Metric { name, unit, higher_is_better, bound })
}

/// Parse a declaration and check it against the rules above: key sets,
/// name and unit syntax, list sizes, bounds, and a `setup_s` metric.
pub fn parse(src: &str) -> Result<Spec, String> {
    let v = json::parse(src).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    keys_exactly(&v, &TOP_KEYS, "BENCHMARK.json")?;
    let strings = |key: &str, range| -> Result<Vec<String>, String> {
        array(&v, key, range)?
            .iter()
            .map(|s| s.as_str().map(str::to_string).ok_or(format!("\"{key}\" holds a non-string")))
            .collect()
    };
    let command = strings("command", (1, 32))?;
    if let Some(bad) = command.iter().find(|c| c.len() > 200 || c.starts_with('/')) {
        return Err(format!("bad command word {bad:?}"));
    }
    let paths = strings("paths", (1, 16))?;
    if let Some(bad) = paths.iter().find(|p| !valid_path(p)) {
        return Err(format!("bad path {bad:?}"));
    }
    let run_seconds = v
        .get("run_seconds")
        .and_then(Value::as_u64)
        .filter(|s| (1..=60).contains(s))
        .ok_or("run_seconds must be a whole number from 1 to 60")?;
    let workloads = array(&v, "workloads", (2, 8))?
        .iter()
        .map(|w| {
            keys_exactly(w, &["name", "why"], "workload")?;
            let name = string(w, "name", "workload")?;
            let why = string(w, "why", &name)?;
            if !valid_name(&name) || why.is_empty() || why.len() > 200 || why.contains('\n') {
                return Err(format!("bad workload {name:?}"));
            }
            Ok(Workload { name, why })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let end_to_end = array(&v, "end_to_end", (1, 16))?
        .iter()
        .map(|m| metric(m, true))
        .collect::<Result<Vec<_>, String>>()?;
    let per_layer = array(&v, "per_layer", (1, 128))?
        .iter()
        .map(|m| metric(m, false))
        .collect::<Result<Vec<_>, String>>()?;
    let setup = end_to_end.iter().find(|m| m.name == "setup_s");
    if !setup.is_some_and(|m| m.unit == "s" && !m.higher_is_better) {
        return Err("end_to_end must declare setup_s in s, lower is better".into());
    }
    let mut names: Vec<&str> = workloads
        .iter()
        .map(|w| w.name.as_str())
        .chain(end_to_end.iter().chain(&per_layer).map(|m| m.name.as_str()))
        .collect();
    names.sort_unstable();
    if let Some(dup) = names.windows(2).find(|w| w[0] == w[1]) {
        return Err(format!("name {:?} is used twice", dup[0]));
    }
    Ok(Spec { command, paths, run_seconds, workloads, end_to_end, per_layer })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_schema() {
        for ok in ["throughput", "net.route_ns_per_pkt", "p50-ms", "9lives", "a_b.c-d"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "-x", "has space", "per/sec", "ümlaut", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
        for ok in ["ms", "s", "1/s", "%", "MiB", "count", "ratio"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "pkt:s", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn the_committed_declaration_is_valid() {
        let spec = parse(SPEC_JSON).unwrap_or_else(|e| panic!("{e}"));
        let workloads: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(workloads, ["stream", "epochs", "churn"]);
        assert!(spec.paths.iter().all(|p| p == "perfbench"), "{:?}", spec.paths);
        // A full evaluation is 4 + 22 × workloads runs, which at the
        // declared length (plus set-up, checks and two builds) must fit
        // in 57 minutes.
        let runs = 4 + 22 * spec.workloads.len() as u64;
        assert!(runs * (spec.run_seconds + 5) < 3420 - 2 * 300, "{runs} runs too long");
        // Every metric the workloads compute is declared, and vice versa.
        let declared: Vec<&str> = spec.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(declared, crate::END_TO_END);
        let declared: Vec<&str> = spec.per_layer.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(declared, crate::PER_LAYER);
    }

    #[test]
    fn parse_rejects_invalid_declarations() {
        let good = SPEC_JSON;
        assert!(parse(good).is_ok());
        let cases = [
            (r#""run_seconds": "#, r#""run_seconds": 61, "extra_key": "#),
            (r#""run_seconds": "#, r#""run_seconds": 0, "run_seconds": "#),
            (r#""bound": 0.1"#, r#""bound": 0.5"#),
            (r#""name": "setup_s""#, r#""name": "setup""#),
            (r#""name": "throughput""#, r#""name": "has space""#),
            (r#""unit": "ms""#, r#""unit": "milliseconds!""#),
            (r#""better": "lower""#, r#""better": "smaller""#),
            (r#""paths": ["perfbench"]"#, r#""paths": ["../perfbench"]"#),
        ];
        for (from, to) in cases {
            assert!(good.contains(from), "fixture {from:?} missing");
            let bad = good.replacen(from, to, 1);
            assert!(parse(&bad).is_err(), "accepted {to:?}");
        }
        assert!(parse("{}").is_err());
        assert!(parse("not json").is_err());
        // A duplicated metric name is refused.
        let dup = good.replacen(r#""name": "peak_rss_mib""#, r#""name": "latency_p50_ms""#, 1);
        assert!(parse(&dup).is_err());
    }
}

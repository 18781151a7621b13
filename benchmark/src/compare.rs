//! `compare A.json B.json`: applies the bounds of `BENCHMARK.json` to two
//! result files, one row per (workload, end-to-end metric).

use crate::json::Json;
use crate::metrics::END_TO_END;
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// An exact counter moved in the better direction: fine, but explain it.
    Changed,
    /// Run-to-run spread is wider than the bound, so "no worse" cannot be told.
    Unresolved,
    Regressed,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Changed => "changed",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worse_by(a: f64, b: f64, lower_is_better: bool) -> f64 {
    let delta = if lower_is_better { b - a } else { a - b };
    delta / a.abs()
}

pub fn verdict(
    a: &Summary,
    b: &Summary,
    lower_is_better: bool,
    bound: f64,
    exact: bool,
) -> Verdict {
    let worse = worse_by(a.value, b.value, lower_is_better);
    if exact {
        return match worse {
            w if w > 0.0 => Verdict::Regressed,
            w if w < 0.0 => Verdict::Changed,
            _ => Verdict::Ok,
        };
    }
    if worse > bound {
        Verdict::Regressed
    } else if a.spread().max(b.spread()) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// `(name, lower_is_better, bound)` of every end-to-end metric.
pub fn bounds(spec: &Json) -> Result<Vec<(String, bool, f64)>, String> {
    spec.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?
        .iter()
        .map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("better")?.as_str()? == "lower",
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect::<Option<_>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end entry".to_string())
}

fn summary(workload: &Json, metric: &str) -> Option<Summary> {
    let m = workload.get("end_to_end")?.get(metric)?;
    Some(Summary {
        value: m.get("value")?.as_f64()?,
        median: m.get("median")?.as_f64()?,
        q1: m.get("q1")?.as_f64()?,
        q3: m.get("q3")?.as_f64()?,
        n: m.get("n")?.as_u64()? as usize,
    })
}

/// Prints the table; `Ok(true)` if anything regressed.
pub fn compare(spec: &Json, a: &Json, b: &Json) -> Result<bool, String> {
    let text = |file: &Json, key: &str| {
        file.get(key)
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string()
    };
    if text(a, "schema") != crate::SCHEMA || text(b, "schema") != crate::SCHEMA {
        return Err(format!(
            "both files must be '{}' result files",
            crate::SCHEMA
        ));
    }
    if text(a, "scale") != text(b, "scale") {
        return Err(format!(
            "refusing to compare a '{}' run with a '{}' run",
            text(a, "scale"),
            text(b, "scale")
        ));
    }
    let seed = |file: &Json| file.get("seed").and_then(Json::as_u64);
    if seed(a) != seed(b) {
        println!("note: seeds differ ({:?} vs {:?}); exact counters are only expected to match on one seed", seed(a), seed(b));
    }
    let bounds = bounds(spec)?;
    let workloads = |file: &Json| {
        file.get("workloads")
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .unwrap_or_default()
    };
    let mut regressed = false;
    let mut row = |workload: &str, metric: &str, cells: [String; 5], verdict: &str| {
        regressed |= verdict == Verdict::Regressed.name();
        let [a, b, ratio, iqr_a, iqr_b] = cells;
        println!("{workload:<16} {metric:<19} {a:>13} {b:>13} {ratio:>22} {iqr_a:>7} {iqr_b:>7}  {verdict}");
    };
    let must = |holds: bool| {
        if holds {
            Verdict::Ok
        } else {
            Verdict::Regressed
        }
    };
    let heads = ["A value", "B value", "B/A (base A)", "A iqr%", "B iqr%"];
    row("workload", "metric", heads.map(String::from), "verdict");
    for wa in workloads(a) {
        let name = text(&wa, "name");
        let Some(wb) = workloads(b).into_iter().find(|w| text(w, "name") == name) else {
            return Err(format!("workload {name} is missing from the second file"));
        };
        for (metric, lower, bound) in &bounds {
            let exact = END_TO_END.iter().any(|(n, _, exact)| n == metric && *exact);
            let (Some(sa), Some(sb)) = (summary(&wa, metric), summary(&wb, metric)) else {
                return Err(format!("{name}: metric {metric} is missing from a file"));
            };
            let cells = [
                format!("{:.4}", sa.value),
                format!("{:.4}", sb.value),
                format!("{:.4} of {:.4}", sb.value / sa.value, sa.value),
                format!("{:.2}", sa.spread() * 100.0),
                format!("{:.2}", sb.spread() * 100.0),
            ];
            row(
                &name,
                metric,
                cells,
                verdict(&sa, &sb, *lower, *bound, exact).name(),
            );
        }
        let failed = |w: &Json| w.get("failed").and_then(Json::as_u64).unwrap_or(0);
        let cells = [
            failed(&wa).to_string(),
            failed(&wb).to_string(),
            "must be 0".into(),
            String::new(),
            String::new(),
        ];
        row(&name, "failed", cells, must(failed(&wb) == 0).name());
        // On one seed the inputs are the same files, so the answers must be too.
        if seed(a) == seed(b) {
            let cells = [
                String::new(),
                String::new(),
                "must be equal".into(),
                String::new(),
                String::new(),
            ];
            row(
                &name,
                "reference answer",
                cells,
                must(text(&wa, "reference") == text(&wb, "reference")).name(),
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(median: f64, iqr: f64) -> Summary {
        Summary {
            value: median,
            median,
            q1: median - iqr / 2.0,
            q3: median + iqr / 2.0,
            n: 5,
        }
    }

    #[test]
    fn timing_verdicts_follow_bound_and_spread() {
        assert_eq!(
            verdict(&s(1.0, 0.01), &s(1.05, 0.01), true, 0.10, false),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&s(1.0, 0.01), &s(1.11, 0.01), true, 0.10, false),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&s(1.0, 0.01), &s(0.5, 0.01), true, 0.10, false),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&s(1.0, 0.2), &s(1.05, 0.01), true, 0.10, false),
            Verdict::Unresolved
        );
        // higher-is-better flips the direction
        assert_eq!(
            verdict(&s(100.0, 1.0), &s(80.0, 1.0), false, 0.10, false),
            Verdict::Regressed
        );
    }

    #[test]
    fn exact_metrics_must_be_equal() {
        assert_eq!(
            verdict(&s(71256.0, 0.0), &s(71256.0, 0.0), true, 0.05, true),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&s(71256.0, 0.0), &s(71257.0, 0.0), true, 0.05, true),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&s(71256.0, 0.0), &s(71000.0, 0.0), true, 0.05, true),
            Verdict::Changed
        );
    }

    #[test]
    fn refuses_to_mix_scales() {
        let file = |scale: &str| {
            Json::obj([
                ("schema", Json::Str(crate::SCHEMA.into())),
                ("scale", Json::Str(scale.into())),
                ("workloads", Json::Arr(vec![])),
            ])
        };
        let spec = Json::obj([("end_to_end", Json::Arr(vec![]))]);
        assert!(compare(&spec, &file("full"), &file("smoke"))
            .unwrap_err()
            .contains("refusing"));
        assert_eq!(compare(&spec, &file("full"), &file("full")), Ok(false));
    }
}

//! Metric records and the result line.

use crate::engine::Phase;
use crate::measure::{self, LatencySummary};

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Everything a workload hands back to the reporter.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The measured phase (in a traced run: the untraced half).
    pub phase: Phase,
    /// Operations checked outside the measured phase (warm-up, the traced
    /// half, the final full-store comparison): counted in `attempted`.
    pub extra: Phase,
    pub setup_s: Vec<f64>,
    pub space_amp: f64,
    pub write_amp: f64,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
}

/// The seven end-to-end metrics of an untraced run. Throughput and the
/// latency percentiles are medians over the run's windows; the returned
/// summary covers every sample of the run.
pub fn end_to_end(out: &Outcome) -> (Vec<Metric>, LatencySummary) {
    let windows = &out.phase.windows;
    let per_window: Vec<LatencySummary> =
        windows.iter().map(|w| measure::summarize(&w.lat)).collect();
    let median_of = |f: &dyn Fn(usize) -> f64| {
        measure::median(&(0..windows.len()).map(f).collect::<Vec<f64>>())
    };
    let kops = median_of(&|i| measure::ratio(windows[i].ops as f64, windows[i].secs) / 1e3);
    let p50 = median_of(&|i| per_window[i].p50_us);
    let p99 = median_of(&|i| per_window[i].p99_us);
    let metrics = vec![
        metric("setup_s", measure::median(&out.setup_s), "s"),
        metric("throughput_kops", kops, "kops/s"),
        metric("op_p50_us", p50, "us"),
        metric("op_p99_us", p99, "us"),
        metric("space_amp", out.space_amp, "ratio"),
        metric("write_amp", out.write_amp, "ratio"),
        metric("peak_rss_mb", measure::peak_rss_mb(), "MB"),
    ];
    (metrics, measure::summarize(&out.phase.latencies()))
}

/// Print every metric by name with its unit, then the JSON result line
/// (which must be the last line of standard output).
pub fn print(attempted: u64, failed: u64, correct: bool, metrics: &[Metric]) {
    for m in metrics {
        println!("METRIC {} {} {}", m.name, m.value, m.unit);
    }
    println!("{}", json_line(attempted, failed, correct, metrics));
}

pub fn json_line(attempted: u64, failed: u64, correct: bool, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// JSON has no NaN or infinity; a non-finite value is reported as 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_fixed_keys() {
        let line =
            json_line(10, 1, true, &[metric("setup_s", 0.25, "s"), metric("x", f64::NAN, "ms")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"x\": {\"value\": 0, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn window_medians_from_a_hand_made_phase() {
        let window = |ops: u64, secs: f64, ns: u64| {
            let mut lat = measure::Histogram::default();
            (0..ops).for_each(|i| lat.record(ns + i % 2));
            crate::engine::Window { ops, secs, lat }
        };
        // The slow middle window moves no median.
        let out = Outcome {
            phase: Phase {
                attempted: 3000,
                windows: vec![
                    window(1000, 1.0, 2000),
                    window(1000, 4.0, 9000),
                    window(1000, 0.5, 1000),
                ],
                ..Default::default()
            },
            setup_s: vec![3.0, 1.0, 2.0],
            space_amp: 1.5,
            write_amp: 2.5,
            ..Default::default()
        };
        let (m, all) = end_to_end(&out);
        let get = |n: &str| m.iter().find(|x| x.name == n).unwrap().value;
        assert_eq!(get("throughput_kops"), 1.0);
        assert_eq!(get("setup_s"), 2.0);
        assert_eq!(get("op_p50_us"), 2.0);
        assert_eq!(get("op_p99_us"), 2.0);
        assert_eq!(all.samples, 3000);
        assert_eq!(get("space_amp"), 1.5);
        assert_eq!(get("write_amp"), 2.5);
    }
}

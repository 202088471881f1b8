//! Failure accounting, metric collection and the result line.

/// Failed checks of one run. The first one is kept verbatim for the report.
#[derive(Debug, Default)]
pub struct Failures {
    pub count: u64,
    pub first: Option<String>,
}

impl Failures {
    pub fn note(&mut self, what: String) {
        self.count += 1;
        if self.first.is_none() {
            eprintln!("perfbench: FAILED: {what}");
            self.first = Some(what);
        }
    }
}

/// Metrics in the order they were added.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is {value}");
        self.0.push((name, value, unit));
    }

    /// One human-readable line per metric, on stdout.
    pub fn print(&self) {
        for (name, value, unit) in &self.0 {
            println!("{name:<36} {value:>16.6} {unit}");
        }
    }

    /// The last line of the run: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0,
            metrics.join(", ")
        )
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

//! What one benchmark run reports: output checks, end-to-end and per-layer
//! metrics (each with its unit and sample count), and the traced pass's
//! per-layer self-time table.

use std::fmt::Write as _;

/// One named figure.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value was computed from.
    pub samples: usize,
}

/// One row of the per-layer self-time table.
#[derive(Debug, Clone)]
pub struct LayerRow {
    /// Layer (module) name.
    pub layer: String,
    /// Self time, seconds.
    pub self_s: f64,
    /// How the row was obtained.
    pub how: &'static str,
}

/// Largest share of the traced wall the per-layer rows may leave
/// unattributed.
pub const MAX_RESIDUAL: f64 = 0.05;

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Output checks, in the order they ran.
    pub checks: Vec<(String, bool)>,
    /// End-to-end metrics (untraced pass).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced pass).
    pub per_layer: Vec<Metric>,
    /// Per-layer self times of the traced pass.
    pub rows: Vec<LayerRow>,
    /// Wall time the rows must account for, seconds.
    pub traced_wall_s: f64,
    /// Operations attempted (runs or requests).
    pub attempted: u64,
    /// Operations failed (panicked runs, failed, dropped or shed requests).
    pub failed: u64,
    /// Free-form lines printed above the tables.
    pub notes: Vec<String>,
}

impl Report {
    /// Record an output check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    /// Record an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.end_to_end.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Record a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.per_layer.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Record a self-time row.
    pub fn row(&mut self, layer: &str, self_s: f64, how: &'static str) {
        self.rows.push(LayerRow {
            layer: layer.to_string(),
            self_s,
            how,
        });
    }

    /// A free-form note.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Unattributed share of the traced wall (`None` without a traced pass).
    pub fn residual_share(&self) -> Option<f64> {
        (self.traced_wall_s > 0.0).then(|| {
            let covered: f64 = self.rows.iter().map(|r| r.self_s).sum();
            (self.traced_wall_s - covered) / self.traced_wall_s
        })
    }

    /// Whether every check passed and every value is finite.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
            && self
                .end_to_end
                .iter()
                .chain(&self.per_layer)
                .all(|m| m.value.is_finite())
    }

    /// The human-readable part of the output.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for n in &self.notes {
            let _ = writeln!(s, "# {n}");
        }
        for (name, ok) in &self.checks {
            let _ = writeln!(
                s,
                "check {:<58} {}",
                name,
                if *ok { "ok" } else { "FAILED" }
            );
        }
        for (title, ms) in [
            ("end-to-end", &self.end_to_end),
            ("per-layer", &self.per_layer),
        ] {
            if ms.is_empty() {
                continue;
            }
            let _ = writeln!(s, "{title} metrics:");
            for m in ms.iter() {
                let _ = writeln!(
                    s,
                    "  {:<34} {:>16.6} {:<8} n={}",
                    m.name, m.value, m.unit, m.samples
                );
            }
        }
        if let Some(res) = self.residual_share() {
            let _ = writeln!(
                s,
                "per-layer self time (traced wall {:.3} s; rows must leave at most {:.0}% unattributed):",
                self.traced_wall_s,
                MAX_RESIDUAL * 100.0
            );
            for r in &self.rows {
                let _ = writeln!(
                    s,
                    "  {:<34} {:>10.4} s {:>6.1}%  {}",
                    r.layer,
                    r.self_s,
                    100.0 * r.self_s / self.traced_wall_s,
                    r.how
                );
            }
            let _ = writeln!(
                s,
                "  {:<34} {:>10.4} s {:>6.1}%",
                "unattributed",
                res * self.traced_wall_s,
                100.0 * res
            );
        }
        s
    }

    /// The final JSON line: the end-to-end metrics, or the per-layer ones
    /// for a traced run.
    pub fn json(&self, traced: bool) -> String {
        let ms = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in ms.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, v, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

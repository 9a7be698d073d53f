//! The result line: every metric with its unit, the code-path stamp,
//! and the attempted/failed counts.

use crate::host::HostSpeed;
use crate::stats::num;

/// How an end-to-end metric follows the host's speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// A time: divided by the host factor.
    Time,
    /// A rate: multiplied by the host factor.
    Rate,
    /// Not a time (memory): left as measured.
    None,
}

/// End-to-end metrics, in output order, with their units and how each
/// is normalised to the nominal host speed; untraced runs print these.
/// Tail latencies are not among them: on a shared two-core virtual
/// machine their run-to-run spread on `serve_mix` (0.2 to 1.1× the
/// median over ten runs) exceeds any usable bound, so they go to the
/// stamp line with their percentile and sample count instead.
pub const END_TO_END: [(&str, &str, Scale); 8] = [
    ("wall_s", "s", Scale::Time),
    ("pairs_per_s", "1/s", Scale::Rate),
    ("cpu_s", "s", Scale::Time),
    ("peak_rss_mb", "MB", Scale::None),
    ("setup_s", "s", Scale::Time),
    ("cold_p50_ms", "ms", Scale::Time),
    ("warm_p50_ms", "ms", Scale::Time),
    ("slo_rps", "1/s", Scale::Rate),
];

/// Plans whose replay is reported per plan: every plan `reproduce`,
/// `long_trace` or `serve_mix` runs.
pub const PLANS: [&str; 4] = ["direct", "pas-perfect", "pas-finite", "path"];

/// Per-layer metric names and units, plans expanded.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("workloads.model_build_s", "s"),
        ("workloads.gen_s", "s"),
        ("workloads.records_per_s", "1/s"),
        ("trace.stats_s", "s"),
        ("sim.laneset_new_s", "s"),
        ("sim.finish_s", "s"),
        ("sim.cpu_per_pair_ns", "ns"),
        ("sim.cpu_per_pair_ns.single", "ns"),
        ("store.open_s", "s"),
        ("store.get_s", "s"),
        ("store.put_s", "s"),
        ("store.hits.hot", "count"),
        ("store.hits.pack", "count"),
        ("store.misses", "count"),
        ("store.hit_ratio", "ratio"),
        ("serve.parse_s", "s"),
        ("serve.execute_s.cold", "s"),
        ("serve.execute_s.warm", "s"),
        ("serve.encode_s", "s"),
        ("serve.http_s", "s"),
        ("serve.shed", "count"),
        ("loadgen.late_ms", "ms"),
        ("loadgen.sent", "count"),
        ("trace.coverage", "ratio"),
        ("trace.overhead", "ratio"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_owned(), u))
    .collect();
    for plan in PLANS {
        out.push((format!("sim.replay_s.{plan}"), "s"));
        out.push((format!("sim.lane_records.{plan}"), "count"));
        out.push((format!("sim.ns_per_lane_record.{plan}"), "ns"));
        out.push((format!("sim.lanes.{plan}"), "count"));
    }
    out
}

/// What one run prints.
#[derive(Debug, Default)]
pub struct Report {
    values: Vec<(String, f64)>,
    stamp: Vec<(String, String)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed (errors, refusals, timeouts, wrong output).
    pub failed: u64,
    /// First output mismatch, if any.
    pub mismatch: Option<String>,
}

impl Report {
    /// Sets metric `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.retain(|(n, _)| n != name);
        self.values.push((name.to_owned(), value));
    }

    /// Adds a raw JSON value to the code-path stamp.
    pub fn stamp(&mut self, key: &str, json: String) {
        self.stamp.push((key.to_owned(), json));
    }

    /// Records an output mismatch; the run then fails.
    pub fn mismatch(&mut self, what: String) {
        if self.mismatch.is_none() {
            self.mismatch = Some(what);
        }
    }

    /// Brings every end-to-end metric to the nominal host speed of
    /// `host` (see [`crate::host`]), stamping the values as measured
    /// and the host factor.
    pub fn normalize(&mut self, host: &HostSpeed) {
        let factor = host.factor();
        let mut raw = Vec::new();
        for (name, _, scale) in END_TO_END {
            let Some(value) = self.value(name) else {
                continue;
            };
            raw.push(format!("\"{name}\":{}", num(value)));
            match scale {
                Scale::Time => self.set(name, value / factor),
                Scale::Rate => self.set(name, value * factor),
                Scale::None => {}
            }
        }
        self.stamp("host", host.stamp());
        self.stamp("measured", format!("{{{}}}", raw.join(",")));
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The stamp line, then the result line; metrics the workload does
    /// not exercise read 0.
    pub fn render(&self, traced: bool) -> String {
        let names: Vec<(String, &str)> = if traced {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u, _)| (n.to_owned(), u))
                .collect()
        };
        let metrics: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let value = self.value(name).unwrap_or(0.0);
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    num(value)
                )
            })
            .collect();
        let stamp: Vec<String> = self
            .stamp
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        let mismatch = match &self.mismatch {
            Some(m) => format!("\"{}\"", m.replace('\\', "\\\\").replace('"', "'")),
            None => "null".to_owned(),
        };
        format!(
            "stamp {{{},\"mismatch\":{mismatch}}}\n{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            stamp.join(","),
            self.mismatch.is_none(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

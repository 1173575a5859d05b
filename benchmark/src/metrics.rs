//! The metric tables: every name a run can print, with its unit.
//!
//! `BENCHMARK.json` at the repository root declares the same names (plus
//! direction and bound); a unit test keeps the two in step.

use crate::json::Json;

/// End-to-end metrics, printed by the untraced pass (`--trace 0`). Every
/// workload emits every one of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("host_qps", "1/s"),
    ("lat_p50_ms", "ms"),
    ("lat_tail_ms", "ms"),
    ("sim_qps", "1/s"),
    ("sim_qpj", "1/J"),
];

/// Per-layer metrics, printed by the traced pass (`--trace 1`). A layer a
/// workload does not exercise reports 0: it did no work there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("quality.recall_at_10", "ratio"),
    ("trace_overhead_share", "ratio"),
    // set-up stages
    ("setup.corpus_s", "s"),
    ("setup.ivf_build_s", "s"),
    ("setup.from_index_s", "s"),
    ("setup.ground_truth_s", "s"),
    ("setup.server_start_s", "s"),
    // DrimEngine::search_batch by batch size, and what it is made of
    ("engine.search_batch_ms_b1", "ms"),
    ("engine.search_batch_ms_b8", "ms"),
    ("engine.search_batch_ms_b32", "ms"),
    ("engine.search_batch_ms_b256", "ms"),
    ("engine.residual_ms", "ms"),
    ("cl.run_ms", "ms"),
    ("sched.plan_ms", "ms"),
    ("sched.tasks", "count"),
    ("sched.postponed", "count"),
    ("sched.plan_imbalance", "ratio"),
    // isolated kernel calls on workload-shaped inputs (host time)
    ("lc.host_ns_per_group", "ns"),
    ("dc.host_ns_per_point", "ns"),
    ("ts.host_ns_per_candidate", "ns"),
    ("merge.host_ns_per_query", "ns"),
    // simulated PIM domain, from BatchReport
    ("sim.phase_share.rc", "ratio"),
    ("sim.phase_share.lc", "ratio"),
    ("sim.phase_share.dc", "ratio"),
    ("sim.phase_share.ts", "ratio"),
    ("sim.host_share", "ratio"),
    ("sim.xfer_share", "ratio"),
    ("sim.imbalance", "ratio"),
    ("sim.push_bytes_per_query", "B"),
    ("sim.gather_bytes_per_query", "B"),
    ("sim.lock_pruned_share", "ratio"),
    ("sim.sqt_hit_rate", "ratio"),
    ("sim.energy_share.static", "ratio"),
    ("sim.energy_share.pipeline", "ratio"),
    ("sim.energy_share.mram", "ratio"),
    ("sim.energy_share.wram", "ratio"),
    ("sim.energy_share.transfer", "ratio"),
    ("sim.energy_share.host", "ratio"),
    ("sim.postponed", "count"),
    ("sim.tombstone_filtered_per_query", "count"),
    // trace mode
    ("trace.build_s", "s"),
    ("trace.run_batch_ms_p50", "ms"),
    ("trace.speedup_vs_cpu_model", "ratio"),
    // ann-serve front end
    ("ann_serve.submit_us_p50", "us"),
    ("ann_serve.submit_us_p99", "us"),
    ("ann_serve.batches", "count"),
    ("ann_serve.mean_batch", "count"),
    ("ann_serve.deadline_close_share", "ratio"),
    ("ann_serve.cache_hit_rate", "ratio"),
    ("ann_serve.collapsed", "count"),
    ("ann_serve.evictions", "count"),
    ("ann_serve.deduped_in_batch", "count"),
    ("ann_serve.rejected", "count"),
    ("ann_serve.shed", "count"),
    ("ann_serve.wait_est_ms", "ms"),
    // streaming mutation
    ("ann_serve.mutations_applied_per_s", "1/s"),
    ("ann_serve.mutations_failed", "count"),
    ("ann_serve.maintenance_runs", "count"),
    ("ann_serve.maintenance_moved_bytes", "B"),
    ("ann_serve.final_epoch", "count"),
    ("engine.insert_us_p50", "us"),
    ("engine.delete_us_p50", "us"),
    ("engine.maintain_ms_max", "ms"),
    ("engine.compacted_lists", "count"),
    ("engine.split_slices", "count"),
    ("engine.maintain_moved_bytes", "B"),
    // the load generator itself
    ("loadgen.late_ms_p99", "ms"),
    ("loadgen.late_ms_max", "ms"),
];

/// Values of one table's metrics for one run.
pub struct MetricSet {
    table: &'static [(&'static str, &'static str)],
    values: Vec<Option<f64>>,
}

impl MetricSet {
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Self {
        MetricSet {
            table,
            values: vec![None; table.len()],
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .table
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the table"));
        assert!(value.is_finite(), "metric {name} = {value}");
        self.values[i] = Some(value);
    }

    /// `(name, unit, value)` for every metric of the table; `missing`
    /// decides what an unset one reads as.
    pub fn rows(&self, missing: impl Fn(&str) -> f64) -> Vec<(&'static str, &'static str, f64)> {
        self.table
            .iter()
            .zip(&self.values)
            .map(|(&(n, u), v)| (n, u, v.unwrap_or_else(|| missing(n))))
            .collect()
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self, missing: impl Fn(&str) -> f64) -> Json {
        Json::Obj(
            self.rows(missing)
                .into_iter()
                .map(|(n, u, v)| {
                    (
                        n.to_string(),
                        Json::Obj(vec![
                            ("value".into(), Json::Num(v)),
                            ("unit".into(), Json::Str(u.into())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        doc.get(section)
            .and_then(Json::as_arr)
            .expect("section")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    fn table(t: &[(&str, &str)]) -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        assert_eq!(declared("end_to_end"), table(END_TO_END));
        assert_eq!(declared("per_layer"), table(PER_LAYER));
    }

    #[test]
    fn unset_layer_metrics_read_as_no_work() {
        let mut m = MetricSet::new(PER_LAYER);
        m.set("cl.run_ms", 1.5);
        let rows = m.rows(|_| 0.0);
        assert_eq!(rows.len(), PER_LAYER.len());
        assert!(rows
            .iter()
            .any(|&(n, u, v)| n == "cl.run_ms" && u == "ms" && v == 1.5));
        assert!(rows.iter().any(|&(n, _, v)| n == "sched.tasks" && v == 0.0));
    }
}

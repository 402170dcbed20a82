//! The benchmark's vocabulary. Workload and metric names with their units
//! are read from `BENCHMARK.json` at the repository root, compiled into
//! the binary; this file adds the written-down predictions of which
//! end-to-end metric each layer metric should move on which workload.

use crate::json::Value;

/// `BENCHMARK.json`, as built into the binary.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Workloads the binary runs that `BENCHMARK.json` leaves out, to be run
/// by hand. `compile_paper` (Section 8.2's cold compile passes) is one:
/// its CPU time follows the memory traffic of whatever else runs on the
/// host, and on a shared host its run-to-run quartile spread reached the
/// largest regression bound a metric may have.
pub const BY_HAND: [&str; 1] = ["compile_paper"];

/// The names `BENCHMARK.json` declares.
#[derive(Clone, Debug)]
pub struct Catalog {
    /// Seconds one run measures.
    pub run_seconds: f64,
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// End-to-end metrics `(name, unit)`, reported with tracing off.
    pub end_to_end: Vec<(String, String)>,
    /// Per-layer metrics `(name, unit)`, reported by the traced run.
    pub per_layer: Vec<(String, String)>,
}

impl Catalog {
    /// Reads the catalog from the text of a `BENCHMARK.json`.
    pub fn parse(text: &str) -> Result<Catalog, String> {
        let doc = Value::parse(text)?;
        let section = |key: &str| -> Result<&[Value], String> {
            doc.get(key)
                .and_then(Value::as_list)
                .ok_or(format!("BENCHMARK.json has no list {key:?}"))
        };
        let field = |entry: &Value, key: &str| -> Result<String, String> {
            entry
                .get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or(format!("an entry lacks {key:?}"))
        };
        let metrics = |key: &str| -> Result<Vec<(String, String)>, String> {
            section(key)?
                .iter()
                .map(|m| Ok((field(m, "name")?, field(m, "unit")?)))
                .collect()
        };
        let run_seconds = match doc.get("run_seconds") {
            Some(Value::Num(s)) => *s,
            _ => return Err("BENCHMARK.json has no number \"run_seconds\"".to_string()),
        };
        Ok(Catalog {
            run_seconds,
            workloads: section("workloads")?
                .iter()
                .map(|w| field(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The catalog built into the binary.
    pub fn builtin() -> Catalog {
        Catalog::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses")
    }
}

/// One written-down prediction: a layer metric, the end-to-end metric it
/// should move, the workloads where it should, and what should stay put.
#[derive(Clone, Copy, Debug)]
pub struct Prediction {
    /// Per-layer metric (or metric prefix).
    pub layer_metric: &'static str,
    /// End-to-end metric it should move.
    pub moves: &'static str,
    /// Workloads where it should move that metric.
    pub on: &'static [&'static str],
    /// Where it should not move anything.
    pub not_on: &'static [&'static str],
}

/// The layer → metric → workload predictions, written before measuring.
pub const PREDICTIONS: [Prediction; 9] = [
    Prediction {
        layer_metric: "par.fork_us, par.thread_ratio",
        moves: "cpu_ms_per_op, wall.op_ms_p50",
        on: &["train_p2", "serve_mixed"],
        not_on: &["compile_paper"],
    },
    Prediction {
        layer_metric: "kernels.ns_per_amp.*",
        moves: "cpu_ms_per_op (train_p2_shots), wall.op_ms_p90 (serve_mixed)",
        on: &["train_p2_shots", "serve_mixed"],
        not_on: &["train_p2 (barely)", "compile_paper"],
    },
    Prediction {
        layer_metric: "measurement.probs_us, measurement.collapse_us",
        moves: "cpu_ms_per_op",
        on: &["train_p2"],
        not_on: &["compile_paper"],
    },
    Prediction {
        layer_metric: "shots.trajectories, shots.ns_per_trajectory",
        moves: "cpu_ms_per_op",
        on: &["train_p2_shots"],
        not_on: &["train_p2 (trajectories stay 0)", "compile_paper"],
    },
    Prediction {
        layer_metric: "exec.*, lowered.ops",
        moves: "cpu_ms_per_op",
        on: &["train_p2", "train_p2_shots"],
        not_on: &["compile_paper"],
    },
    Prediction {
        layer_metric: "cache.*",
        moves: "setup_s (all workloads), cpu_ms_per_op (compile_paper)",
        on: &["train_p2", "train_p2_shots", "serve_mixed", "compile_paper"],
        not_on: &[],
    },
    Prediction {
        layer_metric: "transform.ms, compile.ms, lower.ms, compile.programs",
        moves: "cpu_ms_per_op (compile_paper), setup_s (others)",
        on: &["compile_paper"],
        not_on: &["steady-state cpu_ms_per_op of train_p2, train_p2_shots, serve_mixed"],
    },
    Prediction {
        layer_metric: "service.*",
        moves: "wall.op_ms_p90, cpu_ms_per_op",
        on: &["serve_mixed"],
        not_on: &["train_p2", "train_p2_shots", "compile_paper"],
    },
    Prediction {
        layer_metric: "train.self_ms",
        moves: "cpu_ms_per_op",
        on: &["train_p2"],
        not_on: &["serve_mixed", "compile_paper"],
    },
];

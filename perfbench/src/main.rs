//! `perfbench` — the repository benchmark: end-to-end and per-layer
//! numbers for the online query path and for training, measured from
//! outside the program through its public API.
//!
//! ```text
//! bash perfbench/run.sh --workload hot|cold|ensemble_k2|train \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics on an untraced run;
//! `--trace 1` runs the workload untraced and then traced (timing
//! wrappers, spans, layer replays) and reports the per-layer metrics.
//! Every answer is checked; the last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. See `NOTES.md` for why
//! each workload exists and which layer it loads.

mod host;
mod serving;
mod setup;
mod timed;
mod train;

use std::collections::HashMap;
use std::path::PathBuf;

/// `(name, unit, better)` of every end-to-end metric, in the order of
/// `BENCHMARK.json`. Every workload reports every one of them.
pub const END_TO_END: &[(&str, &str, &str)] =
    &[("setup_s", "s", "lower"), ("cpu_us_per_op", "us", "lower")];

/// `(name, unit, better)` of every per-layer metric, in the order of
/// `BENCHMARK.json`. A layer that does no work on a workload reads 0.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("serve.loop_cpu_us_per_query", "us", "lower"),
    ("serve.loop_runq_wait_us_per_query", "us", "lower"),
    ("serve.exec_overhead_us_per_query", "us", "lower"),
    ("serve.exec_runq_wait_us_per_query", "us", "lower"),
    ("serve.queries_per_exec_batch", "count", "higher"),
    ("serve.busy_share", "fraction", "lower"),
    ("serve.engine_cpu_share", "fraction", "higher"),
    ("serve.unattributed_cpu_us_per_query", "us", "lower"),
    ("wire.request_decode_us", "us", "lower"),
    ("wire.response_encode_us", "us", "lower"),
    ("wire.request_bytes", "bytes", "lower"),
    ("router.self_us_per_query", "us", "lower"),
    ("router.shard_us_per_query", "us", "lower"),
    ("router.groups_per_query", "count", "lower"),
    ("router.balance_ratio", "ratio", "lower"),
    ("engine.busy_us_per_query", "us", "lower"),
    ("engine.decompose_us_per_query", "us", "lower"),
    ("engine.index_us_per_query", "us", "lower"),
    ("ensemble.index_us_per_query", "us", "lower"),
    ("decomp_cache.hit_ratio", "fraction", "higher"),
    ("plan_cache.hit_ratio", "fraction", "higher"),
    ("plan_cache.evictions_per_query", "count", "lower"),
    ("grid.decompose_us_per_query", "us", "lower"),
    ("grid.groups_per_query", "count", "lower"),
    ("compiled.compile_us_per_query", "us", "lower"),
    ("compiled.execute_us_per_query", "us", "lower"),
    ("compiled.terms_per_query", "count", "lower"),
    ("store.publish_us", "us", "lower"),
    ("setup.flow_s", "s", "lower"),
    ("setup.search_s", "s", "lower"),
    ("setup.model_s", "s", "lower"),
    ("setup.artifacts_s", "s", "lower"),
    ("setup.predict_s", "s", "lower"),
    ("setup.plan_s", "s", "lower"),
    ("setup.publish_s", "s", "lower"),
    ("train.forward_ms", "ms", "lower"),
    ("train.loss_ms", "ms", "lower"),
    ("train.backward_ms", "ms", "lower"),
    ("train.optim_ms", "ms", "lower"),
    ("train.worker_cpu_share", "fraction", "higher"),
    ("tensor.pool_hit_ratio", "fraction", "higher"),
    ("host.client_cpu_us_per_query", "us", "lower"),
    ("host.runq_wait_share", "fraction", "lower"),
    ("bench.trace_overhead", "fraction", "lower"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory for the artifacts a cold start writes and reads back.
    pub scratch: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scratch = PathBuf::from(".bench_build/perfbench-scratch");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(e.to_string()))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(e.to_string()))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(String::new())),
                })
            }
            "--scratch" => scratch = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        scratch,
    })
}

/// What a workload run produced: metric values by name, the operation
/// counts, and whether every checked answer was right.
#[derive(Default)]
pub struct Report {
    values: HashMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
}

impl Report {
    /// Records a metric; `name` must be in [`END_TO_END`] or [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.0 == name),
            "metric {name} is not in the catalog"
        );
        self.values.insert(name, value);
    }

    /// Records 0 for every per-layer metric under the given prefixes:
    /// layers this workload never calls.
    pub fn absent(&mut self, prefixes: &[&str]) {
        for (name, _, _) in PER_LAYER {
            if prefixes.iter().any(|p| name.starts_with(p)) {
                self.values.insert(name, 0.0);
            }
        }
    }

    /// Prints every metric of the mode as a text table, then the JSON
    /// result line. Panics if the workload left a metric unset.
    fn print(&self, trace: bool) {
        let catalog = if trace { PER_LAYER } else { END_TO_END };
        let mut json = Vec::new();
        for (name, unit, _) in catalog {
            let v = *self
                .values
                .get(name)
                .unwrap_or_else(|| panic!("workload did not report {name}"));
            let v = if v.is_finite() { v } else { 0.0 };
            println!("metric {name:<38} {v:>16.4} {unit}");
            json.push(format!(
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            json.join(", ")
        );
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    host::print_header(&args);
    let report = match args.workload.as_str() {
        "hot" => serving::run(serving::Workload::Hot, &args),
        "cold" => serving::run(serving::Workload::Cold, &args),
        "ensemble_k2" => serving::run(serving::Workload::EnsembleK2, &args),
        "train" => train::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let _ = std::fs::remove_dir_all(&args.scratch);
    report.print(args.trace);
    if !report.correct {
        eprintln!("perfbench: wrong answers or failed operations");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalog and `BENCHMARK.json` name the same metrics with the
    /// same units and directions.
    #[test]
    fn catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER) {
            let entry =
                format!("\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let metrics = json.matches("\"unit\":").count();
        assert_eq!(metrics, END_TO_END.len() + PER_LAYER.len());
    }
}

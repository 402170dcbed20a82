//! `perfbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload against the workspace's public APIs for `--seconds`,
//! checks its outputs, and prints every metric by name with its unit. With
//! `--trace 0` it reports the end-to-end metrics; with `--trace 1` it runs
//! the traced variant and reports the per-layer metrics. The second-to-last
//! stdout line is the run's record (host block, sample counts, oracle
//! verdicts, predictions); the last line is the result object. Traced runs
//! also write their spans to `perfbench/out/`.

mod workloads;

use std::io::Write;
use std::process::ExitCode;

use perfbench::catalog::{Catalog, BY_HAND, PREDICTIONS};
use perfbench::json::Value;
use perfbench::trace::Span;
use workloads::{Args, Report};

fn parse_args(catalog: &Catalog) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    // Without `--seconds`, the window the bounds were set on.
    let mut seconds = catalog.run_seconds;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("seconds must lie in (0, 600], got {seconds}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !catalog.workloads.contains(&workload) && !BY_HAND.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {:?} or {BY_HAND:?}",
            catalog.workloads
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run(args: &Args) -> Report {
    match args.workload.as_str() {
        "train_p2" => workloads::train::run(args, false),
        "train_p2_shots" => workloads::train::run(args, true),
        "serve_mixed" => workloads::serve::run(args),
        "compile_paper" => workloads::compile::run(args),
        other => unreachable!("workload {other} was validated"),
    }
}

fn predictions_for(workload: &str) -> Value {
    Value::List(
        PREDICTIONS
            .iter()
            .filter(|p| p.on.contains(&workload))
            .map(|p| {
                let not_on = p.not_on.iter().map(|&w| Value::from(w)).collect();
                Value::obj()
                    .with("layer", p.layer_metric)
                    .with("moves", p.moves)
                    .with("not_on", Value::List(not_on))
            })
            .collect(),
    )
}

/// Writes the traced run's spans, one JSON object per line.
fn write_spans(args: &Args, spans: &[Span]) -> std::io::Result<String> {
    let dir = std::path::Path::new("perfbench").join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for s in spans {
        let line = Value::obj()
            .with("op", s.op)
            .with("name", s.name)
            .with("layer", s.layer)
            .with("start_ns", s.start_ns)
            .with("end_ns", s.end_ns)
            .with("parent", s.parent.map_or(Value::Null, Value::from));
        writeln!(out, "{}", line.render())?;
    }
    out.flush()?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let catalog = Catalog::builtin();
    let args = match parse_args(&catalog) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = run(&args);

    let names = if args.trace {
        &catalog.per_layer
    } else {
        &catalog.end_to_end
    };
    let mut metrics = Value::obj();
    for (name, unit) in names {
        let value = report.metrics.get(name.as_str()).copied().unwrap_or(0.0);
        metrics = metrics.with(
            name,
            Value::obj()
                .with("value", value)
                .with("unit", unit.as_str()),
        );
    }
    let mut record = Value::obj()
        .with("workload", args.workload.as_str())
        .with("seed", args.seed)
        .with("seconds", args.seconds)
        .with("trace", args.trace)
        .with("host", perfbench::host::host_block())
        .with("predictions", predictions_for(&args.workload));
    for (k, v) in &report.detail {
        record = record.with(k, v.clone());
    }
    // Figures the run measured beyond its catalog (e.g. the wall-clock
    // latencies of an untraced run) go into the record.
    let mut other = Value::obj();
    for (&name, &value) in &report.metrics {
        if !names.iter().any(|(n, _)| n == name) {
            other = other.with(name, value);
        }
    }
    record = record.with("other_metrics", other);
    if args.trace {
        match write_spans(&args, &report.spans) {
            Ok(path) => record = record.with("spans_file", path),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
    }
    println!("{}", Value::obj().with("record", record).render());
    let result = Value::obj()
        .with("correct", report.failed == 0)
        .with("attempted", report.attempted.max(1))
        .with("failed", report.failed)
        .with("metrics", metrics);
    println!("{}", result.render());
    ExitCode::SUCCESS
}

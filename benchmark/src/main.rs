//! One stage-attributed end-to-end benchmark of the DRIM-ANN reproduction:
//! offline batches, open-loop serving, hot-cache serving, serving under
//! churn, and the paper-scale trace. See `README.md` beside this crate and
//! `BENCHMARK.json` at the repository root.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload serve_open --seed 42 --seconds 8 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; everything for humans
//! goes to standard error. Any failed check exits non-zero and prints no
//! metrics.

mod check;
mod json;
mod layers;
mod loadgen;
mod metrics;
mod spans;
mod stats;
mod workloads;
mod world;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use json::Json;
use spans::SpanLog;
use workloads::{Ctx, WORKLOADS};

const USAGE: &str = "usage: drim-benchmark [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke] [--out <file.jsonl>]
       drim-benchmark --check <parent.jsonl> <change.jsonl>

workloads: offline_batch serve_open serve_hot serve_churn trace_paper (default: all five, in turn)
--seed     workload seed; the same seed gives the same inputs (default 42)
--seconds  length of the timed window (default 8)
--trace    0: end-to-end metrics, spans off; 1: per-layer metrics from a traced pass,
           spans written to benchmark/out/trace-<workload>.json
--smoke    tenth-size corpus, 1 s window, no minimum sample counts: wiring check only
--out      also append each result line (with workload, seed, trace) to this file
--check    compare two --out files against the bounds in BENCHMARK.json";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    out: Option<PathBuf>,
    check: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: None,
        traced: false,
        smoke: false,
        out: None,
        check: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} is out of range"));
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => a.smoke = true,
            "--out" => a.out = Some(PathBuf::from(value("a path")?)),
            "--check" => a.check = Some((value("two files")?, value("two files")?)),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

/// `BENCHMARK.json` of the tree this binary was built from.
fn benchmark_json() -> Result<String, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
}

fn run_one(name: &str, args: &Args) -> Result<(), String> {
    let cx = Ctx {
        seed: args.seed,
        window: Duration::from_secs_f64(args.seconds.unwrap_or(if args.smoke { 1.0 } else { 8.0 })),
        traced: args.traced,
        smoke: args.smoke,
    };
    let started = Instant::now();
    let mut log = SpanLog::new(started, cx.traced);
    let out = workloads::run(name, &cx, &mut log)?;

    eprintln!(
        "# {name}  seed {}  window {:.1} s  {}  ({:.1} s wall, host threads {})",
        cx.seed,
        cx.window.as_secs_f64(),
        if cx.traced {
            "traced pass: per-layer metrics"
        } else {
            "untraced pass: end-to-end metrics"
        },
        started.elapsed().as_secs_f64(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    for (n, unit, v) in out.metrics.rows(|_| 0.0) {
        eprintln!("{n:<36} {v:>18.6} {unit}");
    }
    eprintln!("attempted {}  failed {}", out.attempted, out.failed);
    if cx.traced {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/trace-{name}.json"));
        log.write_json(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("{} spans -> {}", log.len(), path.display());
    }

    // End-to-end metrics must all be present: a hole there is a bug, not
    // an idle layer.
    let strict = !cx.traced;
    let result = vec![
        ("correct".to_string(), Json::Bool(true)),
        ("attempted".to_string(), Json::Num(out.attempted as f64)),
        ("failed".to_string(), Json::Num(out.failed as f64)),
        (
            "metrics".to_string(),
            out.metrics.to_json(|n| {
                assert!(!strict, "end-to-end metric {n} was not measured");
                0.0
            }),
        ),
    ];
    if let Some(path) = &args.out {
        let mut tagged = vec![
            ("workload".to_string(), Json::Str(name.to_string())),
            ("seed".to_string(), Json::Num(cx.seed as f64)),
            (
                "trace".to_string(),
                Json::Num(f64::from(u8::from(cx.traced))),
            ),
        ];
        tagged.extend(result.iter().cloned());
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        writeln!(f, "{}", Json::Obj(tagged).to_line())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", Json::Obj(result).to_line());
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((parent, change)) = &args.check {
        return match benchmark_json().and_then(|b| check::check(&b, parent, change)) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    // Threads are pinned here, never by environment: everything this thread
    // drives (set-up, offline batches, the trace runner, the layer probes)
    // uses two pool threads whatever DRIM_ANN_THREADS says.
    let outcome = rayon::with_num_threads(2, || names.iter().try_for_each(|n| run_one(n, &args)));
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

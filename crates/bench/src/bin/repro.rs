//! `repro` — regenerate every table and figure of the DRIM-ANN paper.
//!
//! ```text
//! repro [--full|--quick] [table1|fig2|fig7|fig8|fig9|fig10|fig11a|fig11b|
//!        fig12a|fig12b|fig13|fig14|fig15|table3|ablations|all]
//! ```
//!
//! Output: paper-style text tables on stdout (numbers rounded) plus one CSV
//! per figure (numbers exact) under `results/<scale>/`, where `<scale>` is
//! `default`, `quick` or `full` after the flag that chose it. An unknown
//! target or flag exits with status 2 before anything runs; a CSV that
//! cannot be written makes the run exit 1 after the remaining targets.

use bench::experiments as ex;
use bench::table::Table;
use datasets::catalog;
use std::path::PathBuf;

/// Every target `repro` can regenerate, in `all` order.
const TARGETS: [&str; 15] = [
    "table1",
    "fig2",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11a",
    "fig11b",
    "fig12a",
    "fig12b",
    "fig13",
    "fig14",
    "fig15",
    "table3",
    "ablations",
];

/// A scale and the name of its output directory.
type Scale = (&'static str, ex::PaperScale);

/// Scale and target list from the command line. Nothing runs unless every
/// argument is known: a typo must not look like a successful regeneration.
fn parse_args(args: &[String]) -> Result<(Scale, Vec<&'static str>), String> {
    let mut scale = ("default", ex::PaperScale::default());
    let mut targets = Vec::new();
    let mut all = false;
    for a in args {
        match a.as_str() {
            "--full" => scale = ("full", ex::PaperScale::full()),
            "--quick" => scale = ("quick", ex::PaperScale::quick()),
            "all" => all = true,
            other => match TARGETS.iter().find(|t| **t == other) {
                Some(t) => targets.push(*t),
                None if other.starts_with("--") => {
                    return Err(format!("unknown flag `{other}` (valid: --full, --quick)"))
                }
                None => {
                    return Err(format!(
                        "unknown target `{other}` (valid: {}, all)",
                        TARGETS.join(", ")
                    ))
                }
            },
        }
    }
    if all || targets.is_empty() {
        targets = TARGETS.to_vec();
    }
    Ok((scale, targets))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ((scale_name, scale), targets) = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("repro: {e}");
        std::process::exit(2);
    });

    let outdir = PathBuf::from("results").join(scale_name);
    let mut write_failed = false;
    let mut emit = |name: &str, t: Table| {
        println!("{}", t.render());
        if let Err(e) = t.write_csv(&outdir, name) {
            eprintln!("repro: could not write {name}.csv: {e}");
            write_failed = true;
        }
    };

    for target in targets {
        let t0 = std::time::Instant::now();
        match target {
            "table1" => emit("table1", ex::table1()),
            "fig2" => emit("fig2", ex::fig2()),
            "fig7" => emit("fig7", ex::fig7_8(&catalog::sift100m(), &scale)),
            "fig8" => emit("fig8", ex::fig7_8(&catalog::deep100m(), &scale)),
            "fig9" => emit("fig9", ex::fig9(&scale)),
            "fig10" => emit("fig10", ex::fig10(&scale)),
            "fig11a" => emit("fig11a", ex::fig11a(&scale)),
            "fig11b" => emit("fig11b", ex::fig11b(&scale)),
            "fig12a" => emit("fig12a", ex::fig12a(&scale)),
            "fig12b" => emit("fig12b", ex::fig12b(&scale)),
            "fig13" => emit("fig13", ex::fig13(&scale)),
            "fig14" => {
                emit("fig14a", ex::fig14a(&scale));
                emit("fig14b", ex::fig14b(&scale));
            }
            "fig15" => emit("fig15", ex::fig15(&scale)),
            "table3" => emit("table3", ex::table3(&scale)),
            "ablations" => emit("ablations", ex::ablations(&scale)),
            other => unreachable!("`{other}` is in TARGETS but has no runner"),
        }
        eprintln!("[{target} done in {:.1}s]\n", t0.elapsed().as_secs_f64());
    }
    if write_failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(Scale, Vec<&'static str>), String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn unknown_targets_and_flags_are_rejected_before_anything_runs() {
        let ((name, scale), targets) = parse(&["--quick", "fig12b", "table1"]).unwrap();
        assert_eq!(
            (name, scale.batch),
            ("quick", ex::PaperScale::quick().batch)
        );
        assert_eq!(targets, ["fig12b", "table1"]);
        assert_eq!(parse(&[]).unwrap().0 .0, "default");
        assert_eq!(parse(&[]).unwrap().1, TARGETS);
        let ((name, scale), targets) = parse(&["--full"]).unwrap();
        assert_eq!(
            (name, scale.batch, targets),
            ("full", 10_000, TARGETS.to_vec())
        );
        assert_eq!(parse(&["fig9", "all"]).unwrap().1, TARGETS);

        // one bad argument rejects the whole line, valid neighbours included
        let err = parse(&["fig9", "fig99"]).unwrap_err();
        assert!(err.contains("fig99") && err.contains("fig12b"), "{err}");
        let err = parse(&["--fast", "fig9"]).unwrap_err();
        assert!(err.contains("--fast") && err.contains("--quick"), "{err}");
    }
}

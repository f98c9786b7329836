//! `sc24-bench` — run one workload, all of them, or compare two result
//! sets.
//!
//! ```text
//! sc24-bench --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
//! sc24-bench all [--seed N] [--seconds S] [--smoke] [--out DIR]
//! sc24-bench compare DIR_A DIR_B
//! ```

use std::process::{Command, ExitCode};

use sc24_bench::registry::WORKLOADS;
use sc24_bench::{bench_dir, compare, repo_root, run_and_report, RunConfig};

const USAGE: &str = "usage:\n  \
    sc24-bench --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]\n  \
    sc24-bench all [--seed N] [--seconds S] [--smoke] [--out DIR]\n  \
    sc24-bench compare DIR_A DIR_B";

/// Every workload in its own child process, then every traced run.
fn all(mut cfg: RunConfig, out_given: bool) -> Result<bool, String> {
    if !out_given {
        let id = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        cfg.out = bench_dir().join("out").join(id.to_string());
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut ok = true;
    for trace in ["0", "1"] {
        for w in &WORKLOADS {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name, "--trace", trace])
                .args(["--seed", &cfg.seed.to_string()])
                .args(["--seconds", &cfg.seconds.to_string()])
                .arg("--out")
                .arg(&cfg.out);
            if cfg.smoke {
                cmd.arg("--smoke");
            }
            eprintln!("== {} (trace {trace})", w.name);
            let status = cmd.status().map_err(|e| format!("spawn {}: {e}", w.name))?;
            ok &= status.success();
        }
    }
    eprintln!("results in {}", cfg.out.display());
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("compare") => match args.get(1..3) {
            Some([a, b]) if args.len() == 3 => {
                let benchmark = repo_root().join("BENCHMARK.json");
                match compare::compare_dirs(a.as_ref(), b.as_ref(), &benchmark) {
                    Ok(c) => {
                        print!("{}", c.render());
                        u8::from(!c.ok())
                    }
                    Err(e) => {
                        eprintln!("sc24-bench compare: {e}");
                        2
                    }
                }
            }
            _ => {
                eprintln!("{USAGE}");
                2
            }
        },
        Some("all") => {
            let rest = &args[1..];
            let out_given = rest.iter().any(|a| a == "--out");
            match RunConfig::from_args(rest).and_then(|cfg| all(cfg, out_given)) {
                Ok(ok) => u8::from(!ok),
                Err(e) => {
                    eprintln!("sc24-bench: {e}\n{USAGE}");
                    2
                }
            }
        }
        _ => match RunConfig::from_args(&args) {
            Ok(cfg) => run_and_report(&cfg) as u8,
            Err(e) => {
                eprintln!("sc24-bench: {e}\n{USAGE}");
                2
            }
        },
    };
    ExitCode::from(code)
}

//! `sc24-trace <workload> [--seed N] [--smoke] [--out DIR]` — the
//! traced run of one workload; the same as
//! `sc24-bench --workload <workload> --trace 1`.

use std::process::ExitCode;

use sc24_bench::{run_and_report, RunConfig};

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0].starts_with("--") {
        eprintln!("usage: sc24-trace <workload> [--seed N] [--smoke] [--out DIR]");
        return ExitCode::from(2);
    }
    let workload = args.remove(0);
    args.extend(["--workload".into(), workload, "--trace".into(), "1".into()]);
    match RunConfig::from_args(&args) {
        Ok(cfg) => ExitCode::from(run_and_report(&cfg) as u8),
        Err(e) => {
            eprintln!("sc24-trace: {e}");
            ExitCode::from(2)
        }
    }
}

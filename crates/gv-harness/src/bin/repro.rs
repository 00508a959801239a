//! `repro <experiment> [flags]`: regenerate one of the paper's tables or
//! figures, or run an extension study, printing it and saving it under
//! `results/`. `repro --help` lists the experiments and flags.
//!
//! Exit codes: 0 success; 1 a checker or gate failed; 2 unusable
//! command line or input file.

use std::process::ExitCode;

use gv_harness::repro::{find, help, Opts, USAGE};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "-h" || a == "--help") {
        print!("{}", help());
        return ExitCode::SUCCESS;
    }
    match Opts::parse(args) {
        Ok(opts) => find(&opts.name).expect("parsed names are registered")(&opts).emit(),
        Err(e) => {
            eprintln!("repro: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

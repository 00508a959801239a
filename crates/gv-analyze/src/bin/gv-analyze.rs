//! Standalone trace checker and schedule replayer.
//!
//! ```text
//! gv-analyze [--format text|json] <trace.gvtrace> [...]
//! gv-analyze [--format text|json] --replay <schedule.gvsched> [...]
//! ```
//!
//! The default mode reads dump files produced by the harness (`--analyze
//! --dump-trace`, see `repro all`) or by [`gv_analyze::model::to_dump`],
//! runs every checker, and prints one line per diagnostic. `--replay`
//! re-executes a `.gvsched` schedule file (scenario + choice vector, as
//! written by the explorer for a shrunk counterexample) through the live
//! simulator and checks the resulting trace; if the file carries an
//! `expect <checker>` line, the replay must reproduce that diagnostic.
//! `--format json` emits one JSON array of findings instead of text.
//! Exit codes: 0 = all inputs clean (or all expectations met), 1 =
//! diagnostics found (or an expectation missed), 2 = usage or parse error.

use std::process::ExitCode;

use gv_analyze::explore::Schedule;
use gv_analyze::Diagnostic;
use gv_sim::SimDuration;

fn usage() -> ExitCode {
    eprintln!("usage: gv-analyze [--format text|json] <trace.gvtrace> [more traces...]");
    eprintln!("       gv-analyze [--format text|json] --replay <schedule.gvsched> [...]");
    eprintln!("checks dumped GVM analysis traces for data races, protocol");
    eprintln!("violations, device-invariant breaches, deadlocks, and liveness;");
    eprintln!("--replay re-executes an explorer counterexample schedule");
    ExitCode::from(2)
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_finding(source: &str, d: &Diagnostic) -> String {
    format!(
        "{{\"checker\":\"{}\",\"severity\":\"error\",\"time_ms\":{:.6},\"source\":\"{}\",\"message\":\"{}\"}}",
        json_escape(d.checker),
        d.time.as_millis_f64(),
        json_escape(source),
        json_escape(&d.message)
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json = false;
    let mut replay = false;
    let mut paths: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-h" | "--help" => return usage(),
            "--replay" => replay = true,
            "--format" => match it.next().map(String::as_str) {
                Some("json") => json = true,
                Some("text") => json = false,
                _ => return usage(),
            },
            "--format=json" => json = true,
            "--format=text" => json = false,
            other if other.starts_with('-') => return usage(),
            other => paths.push(other.to_string()),
        }
    }
    if paths.is_empty() {
        return usage();
    }

    let mut findings: Vec<String> = Vec::new();
    let mut dirty = false;
    for path in &paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{path}: cannot read: {e}");
                return ExitCode::from(2);
            }
        };
        let diagnostics = if replay {
            let sched = match Schedule::decode(&text) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("{path}: {e}");
                    return ExitCode::from(2);
                }
            };
            let result = match sched.replay(SimDuration::from_secs(10)) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("{path}: {e}");
                    return ExitCode::from(2);
                }
            };
            match (&sched.expect, result.expected_hit) {
                (Some(checker), Some(true)) => {
                    if !json {
                        println!(
                            "{path}: replay of '{}' reproduced the expected '{checker}' diagnostic",
                            sched.scenario
                        );
                    }
                    // The failure is the *expected* outcome: exit clean.
                    for d in &result.diagnostics {
                        if !json {
                            println!("  {d}");
                        }
                        findings.push(json_finding(path, d));
                    }
                    continue;
                }
                (Some(checker), _) => {
                    if !json {
                        println!(
                            "{path}: replay of '{}' did NOT reproduce the expected '{checker}' \
                             diagnostic",
                            sched.scenario
                        );
                    }
                    dirty = true;
                    continue;
                }
                (None, _) => {
                    if !json {
                        println!(
                            "{path}: replay of '{}' with {} scripted choice(s): {} diagnostic(s)",
                            sched.scenario,
                            sched.choices.len(),
                            result.diagnostics.len()
                        );
                    }
                    result.diagnostics
                }
            }
        } else {
            let records = match gv_analyze::model::parse_dump(&text) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("{path}: {e}");
                    return ExitCode::from(2);
                }
            };
            let report = gv_analyze::analyze(&records);
            if !json {
                println!("{path}: {}", report.summary());
            }
            report.diagnostics
        };
        for d in &diagnostics {
            if !json {
                println!("  {d}");
            }
            findings.push(json_finding(path, d));
        }
        dirty |= !diagnostics.is_empty();
    }
    if json {
        println!("[{}]", findings.join(","));
    }
    if dirty {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

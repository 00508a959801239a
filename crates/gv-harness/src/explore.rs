//! Schedule exploration — `repro explore`: model-check the scenario
//! catalog under many interleavings and gate on any checker diagnostic.
//!
//! The default pass DFS-explores every catalog scenario (`vecadd2`,
//! `vecadd3`, `vecadd2-faulty`, plus `bug-lost-wakeup` with the
//! `seeded-bug` feature) under the budget, into `results/explore.txt` and
//! `results/BENCH_explore.json`. Any counterexample is shrunk, saved as
//! `results/counterexample-<scenario>.gvsched`, and fails the run (exit
//! 1), unless `--expect-bug` is given: the run then fails when NO
//! counterexample is found. Either way, the shrunk schedule must replay to
//! the same diagnostic.
//!
//! `--replay` re-executes a `.gvsched` file and exits 0 iff its recorded
//! expectation (or cleanliness) is reproduced.

use std::fmt::Write as _;

use gv_analyze::explore::{explore, find_scenario, scenarios, Schedule};
use gv_sim::SimDuration;

use crate::report::{bench_record, Artifact, Report};
use crate::repro::Opts;

/// Run `repro explore` as `opts` asks.
pub fn run(opts: &Opts) -> Report {
    if let Some(path) = &opts.replay {
        return replay(path);
    }
    let cfg = &opts.explore;
    let selected: Vec<String> = if opts.scenarios.is_empty() {
        scenarios().iter().map(|s| s.name.to_string()).collect()
    } else {
        opts.scenarios.clone()
    };

    let mut text = format!(
        "schedule exploration: mode={:?} budget={} pb={} por={}\n\n",
        cfg.mode, cfg.budget, cfg.preemption_bound, cfg.por
    );
    let mut rows = Vec::new();
    let mut schedules = Vec::new();
    let mut found_bug = false;
    let mut failed = false;
    for name in &selected {
        let scenario = find_scenario(name).expect("scenario names are checked when parsed");
        let outcome = explore(&scenario, cfg);
        let checker = outcome.counterexample.as_ref().map(|c| c.checker.clone());
        let verdict = checker
            .as_ref()
            .map_or("clean".to_string(), |c| format!("FAIL[{c}]"));
        let _ = writeln!(
            text,
            "{:<18} {:>4} schedules, {:>3} distinct behaviors, {:>3} pruned: {}",
            scenario.name, outcome.schedules_run, outcome.distinct, outcome.pruned, verdict
        );
        rows.push(format!(
            "{{\"scenario\": \"{}\", \"schedules\": {}, \"distinct\": {}, \"pruned\": {}, \"counterexample\": {}}}",
            scenario.name,
            outcome.schedules_run,
            outcome.distinct,
            outcome.pruned,
            checker.map_or("null".to_string(), |c| format!("\"{c}\""))
        ));
        let Some(cex) = outcome.counterexample else {
            continue;
        };
        found_bug = true;
        failed |= !opts.expect_bug;
        let sched = cex.schedule();
        let file = format!("counterexample-{}.gvsched", scenario.name);
        let _ = writeln!(
            text,
            "  counterexample (choices {:?}) written to results/{file}",
            cex.choices
        );
        for d in &cex.diagnostics {
            let _ = writeln!(text, "  {d}");
        }
        match sched.replay(SimDuration::from_secs(10)) {
            Ok(r) if r.expected_hit == Some(true) => {
                text.push_str("  replay reproduces the diagnostic\n");
            }
            _ => {
                text.push_str("  REPLAY FAILED to reproduce the diagnostic\n");
                failed = true;
            }
        }
        schedules.push((file, sched.encode()));
    }
    if opts.expect_bug && !found_bug {
        text.push_str("\nexpected a counterexample but every schedule was clean\n");
        failed = true;
    }

    let head = [
        ("mode", format!("\"{:?}\"", cfg.mode)),
        ("budget", cfg.budget.to_string()),
        ("preemption_bound", cfg.preemption_bound.to_string()),
    ];
    let json = bench_record("schedule_exploration", &head, "results", &rows, &[]);
    let mut artifact =
        Artifact::new("explore", text.clone(), None).with_file("BENCH_explore.json", json);
    artifact.files.extend(schedules);
    Report {
        stdout: text,
        artifacts: vec![artifact],
        code: u8::from(failed),
    }
}

/// Replay one `.gvsched` file: exit 0 when it reproduces its recorded
/// outcome, 1 when it does not, 2 when it cannot be read or run.
fn replay(path: &str) -> Report {
    let result = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read: {e}"))
        .and_then(|text| Schedule::decode(&text))
        .and_then(|sched| Ok((sched.replay(SimDuration::from_secs(10))?, sched)));
    let (result, sched) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{path}: {e}");
            return Report {
                code: 2,
                ..Report::default()
            };
        }
    };
    let mut stdout = String::new();
    for d in &result.diagnostics {
        let _ = writeln!(stdout, "{d}");
    }
    let ok = match result.expected_hit {
        Some(hit) => hit,
        None => result.diagnostics.is_empty(),
    };
    let _ = writeln!(
        stdout,
        "{path}: replay of '{}' {} its recorded outcome",
        sched.scenario,
        if ok { "matched" } else { "did NOT match" }
    );
    Report {
        stdout,
        artifacts: Vec::new(),
        code: u8::from(!ok),
    }
}

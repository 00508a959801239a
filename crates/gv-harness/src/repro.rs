//! Generators for every table and figure in the paper's evaluation, and
//! the [`REGISTRY`] of experiments behind the `repro <name>` entry point.
//!
//! Each generator runs the relevant experiments and renders a plain-text
//! artifact (plus CSV rows) that mirrors the published table/figure,
//! printing paper-reported values alongside the simulated measurements
//! wherever the paper states them. `scale_down = 1` is the paper-sized
//! configuration; larger values shrink costs proportionally for smoke runs.

use gv_analyze::explore::{find_scenario, scenarios, ExploreConfig, Mode};
use gv_kernels::{Benchmark, BenchmarkId};
use gv_model::{ExecutionProfile, SpeedupModel};

use crate::profile::{self, MeasuredProfile};
use crate::report::{ms, pct, x, Artifact, Report, TextTable};
use crate::scenario::{ExecutionMode, Scenario};
use crate::timeline;
use crate::turnaround::{self, TurnaroundConfig};
use crate::{
    ablation, analysis, cluster, coalesce, explore, ft, overhead, pipeline, quota, remote_compare,
    sched, sensitivity, zerocopy,
};

/// Table II: initial benchmark profiles and parameters.
pub fn table2(scenario: &Scenario, scale_down: u32) -> Artifact {
    let vecadd = profile::measure(scenario, BenchmarkId::VecAdd, scale_down);
    let ep = profile::measure(scenario, BenchmarkId::Ep, scale_down);
    let paper_vecadd = ExecutionProfile::vecadd_paper();
    let paper_ep = ExecutionProfile::ep_paper();

    let mut t = TextTable::new(vec![
        "Parameter",
        "VectorAdd (sim)",
        "VectorAdd (paper)",
        "EP (sim)",
        "EP (paper)",
    ]);
    let row = |t: &mut TextTable, name: &str, sim: [f64; 2], paper: [f64; 2]| {
        t.row(vec![
            name.to_string(),
            ms(sim[0]),
            ms(paper[0]),
            ms(sim[1]),
            ms(paper[1]),
        ]);
    };
    t.row(vec![
        "Problem Size".to_string(),
        vecadd.problem_size.clone(),
        "Vector Size = 50M (float)".to_string(),
        ep.problem_size.clone(),
        "Class B (M=30)".to_string(),
    ]);
    t.row(vec![
        "Grid Size".to_string(),
        vecadd.grid_size.to_string(),
        "50K".to_string(),
        ep.grid_size.to_string(),
        "4".to_string(),
    ]);
    let (vp, epv) = (&vecadd.profile, &ep.profile);
    row(
        &mut t,
        "Tinit (ms)",
        [vp.t_init, epv.t_init],
        [paper_vecadd.t_init, paper_ep.t_init],
    );
    row(
        &mut t,
        "Tdata_in (ms)",
        [vp.t_data_in, epv.t_data_in],
        [paper_vecadd.t_data_in, paper_ep.t_data_in],
    );
    row(
        &mut t,
        "Tcomp (ms)",
        [vp.t_comp, epv.t_comp],
        [paper_vecadd.t_comp, paper_ep.t_comp],
    );
    row(
        &mut t,
        "Tdata_out (ms)",
        [vp.t_data_out, epv.t_data_out],
        [paper_vecadd.t_data_out, paper_ep.t_data_out],
    );
    row(
        &mut t,
        "Tctx_switch (ms)",
        [vp.t_ctx_switch, epv.t_ctx_switch],
        [paper_vecadd.t_ctx_switch, paper_ep.t_ctx_switch],
    );
    let text = format!(
        "TABLE II — INITIAL BENCHMARK PROFILES AND PARAMETERS\n\
         (simulated on {}, scale 1/{scale_down})\n\n{}",
        scenario.device.name,
        t.render()
    );
    Artifact::new("table2", text, Some(t.to_csv()))
}

/// Table III: experimental vs theoretical speedup at 8 processes.
///
/// The theoretical column feeds the *simulated* Table II profile into the
/// paper's Eq. (5), exactly as the paper feeds its measured profile.
pub fn table3(scenario: &Scenario, scale_down: u32) -> Artifact {
    let n = scenario.node.cores;
    let mut t = TextTable::new(vec![
        "",
        "VectorAdd (sim)",
        "VectorAdd (paper)",
        "EP (sim)",
        "EP (paper)",
    ]);

    let run = |id: BenchmarkId| -> (f64, f64, f64, MeasuredProfile) {
        let prof = profile::measure(scenario, id, scale_down);
        let point = turnaround::at_n(scenario, id, n, scale_down);
        let model = SpeedupModel::new(prof.profile);
        let experimental = point.speedup();
        let theoretical = model.speedup(n as u32);
        let deviation = model.deviation(n as u32, experimental);
        (experimental, theoretical, deviation, prof)
    };
    let (va_exp, va_theo, va_dev, _) = run(BenchmarkId::VecAdd);
    let (ep_exp, ep_theo, ep_dev, _) = run(BenchmarkId::Ep);

    t.row(vec![
        "Experimental Speedup".to_string(),
        x(va_exp),
        "2.300".to_string(),
        x(ep_exp),
        "7.394".to_string(),
    ]);
    t.row(vec![
        "Theoretical Speedup".to_string(),
        x(va_theo),
        "2.721".to_string(),
        x(ep_theo),
        "8.341".to_string(),
    ]);
    t.row(vec![
        "Theoretical Deviation".to_string(),
        pct(va_dev),
        "18.306%".to_string(),
        pct(ep_dev),
        "12.810%".to_string(),
    ]);
    let text = format!(
        "TABLE III — SPEEDUP COMPARISONS BETWEEN THE EXPERIMENT AND THE MODEL\n\
         (launched with {n} processes, scale 1/{scale_down})\n\n{}\n\
         Note: the paper's printed theoretical 2.721 for VectorAdd is not\n\
         derivable from its own Table II inputs via Eq. (5) (they give 3.62);\n\
         see EXPERIMENTS.md §Table III.\n",
        t.render()
    );
    Artifact::new("table3", text, Some(t.to_csv()))
}

/// Table IV: the application-benchmark catalogue.
pub fn table4() -> Artifact {
    let mut t = TextTable::new(vec!["Benchmark", "Problem Size", "Grid Size", "Class"]);
    for id in BenchmarkId::applications() {
        let d = Benchmark::describe(id);
        t.row(vec![
            d.name.to_string(),
            d.problem_size.to_string(),
            d.grid_size.to_string(),
            d.class.to_string(),
        ]);
    }
    let text = format!(
        "TABLE IV — DETAILS OF APPLICATION BENCHMARKS\n\n{}",
        t.render()
    );
    Artifact::new("table4", text, Some(t.to_csv()))
}

fn turnaround_artifact(
    scenario: &Scenario,
    ids: &[BenchmarkId],
    scale_down: u32,
    name: &'static str,
    title: &str,
) -> Artifact {
    let mut text = format!("{title}\n\n");
    let mut csv = String::from("benchmark,nprocs,no_virtualization_ms,virtualization_ms,speedup\n");
    for &id in ids {
        let cfg = TurnaroundConfig {
            benchmark: id,
            max_procs: scenario.node.cores,
            scale_down,
        };
        let series = turnaround::sweep(scenario, &cfg);
        let mut t = TextTable::new(vec![
            "processes",
            "no virtualization (ms)",
            "virtualization (ms)",
            "speedup",
        ]);
        for p in &series.points {
            t.row(vec![
                p.nprocs.to_string(),
                ms(p.no_vt_ms),
                ms(p.vt_ms),
                x(p.speedup()),
            ]);
            csv.push_str(&format!(
                "{},{},{:.3},{:.3},{:.3}\n",
                series.benchmark,
                p.nprocs,
                p.no_vt_ms,
                p.vt_ms,
                p.speedup()
            ));
        }
        text.push_str(&format!("{}:\n{}\n", series.benchmark, t.render()));
    }
    Artifact::new(name, text, Some(csv))
}

/// Fig. 9: turnaround vs process count for the I/O-intensive (VectorAdd)
/// and compute-intensive (EP) microbenchmarks, with the analytical model's
/// Eq. (1)/Eq. (4) predictions (fed by the measured profile) overlaid.
pub fn fig9(scenario: &Scenario, scale_down: u32) -> Artifact {
    let mut text = format!(
        "FIGURE 9 — TURNAROUND TIME COMPARISON, I/O-INTENSIVE AND \
         COMPUTE-INTENSIVE MICROBENCHMARKS (scale 1/{scale_down})\n\n"
    );
    let mut csv =
        String::from("benchmark,nprocs,no_vt_ms,vt_ms,model_no_vt_ms,model_vt_ms,speedup\n");
    for id in [BenchmarkId::VecAdd, BenchmarkId::Ep] {
        let prof = profile::measure(scenario, id, scale_down);
        let model = SpeedupModel::new(prof.profile);
        let cfg = TurnaroundConfig {
            benchmark: id,
            max_procs: scenario.node.cores,
            scale_down,
        };
        let series = turnaround::sweep(scenario, &cfg);
        let mut t = TextTable::new(vec![
            "processes",
            "no virtualization (ms)",
            "virtualization (ms)",
            "Eq.(1) model (ms)",
            "Eq.(4) model (ms)",
            "speedup",
        ]);
        for p in &series.points {
            let n = p.nprocs as u32;
            t.row(vec![
                p.nprocs.to_string(),
                ms(p.no_vt_ms),
                ms(p.vt_ms),
                ms(model.total_no_vt(n)),
                ms(model.total_vt(n)),
                x(p.speedup()),
            ]);
            csv.push_str(&format!(
                "{},{},{:.3},{:.3},{:.3},{:.3},{:.3}\n",
                series.benchmark,
                p.nprocs,
                p.no_vt_ms,
                p.vt_ms,
                model.total_no_vt(n),
                model.total_vt(n),
                p.speedup()
            ));
        }
        text.push_str(&format!("{}:\n{}\n", series.benchmark, t.render()));
    }
    Artifact::new("fig9", text, Some(csv))
}

/// Fig. 10: virtualization overhead vs data size.
pub fn fig10(scenario: &Scenario, sizes_mb: &[u64]) -> Artifact {
    let pts = overhead::sweep(scenario, sizes_mb);
    let mut t = TextTable::new(vec![
        "data size (MB)",
        "turnaround (ms)",
        "base layer / GPU (ms)",
        "overhead",
    ]);
    let mut csv = String::from("data_mb,turnaround_ms,base_layer_ms,overhead_frac\n");
    for p in &pts {
        t.row(vec![
            format!("{:.0}", p.data_mb),
            ms(p.turnaround_ms),
            ms(p.base_layer_ms),
            pct(p.overhead_frac),
        ]);
        csv.push_str(&format!(
            "{:.0},{:.3},{:.3},{:.4}\n",
            p.data_mb, p.turnaround_ms, p.base_layer_ms, p.overhead_frac
        ));
    }
    let max_ov = pts.iter().map(|p| p.overhead_frac).fold(0.0, f64::max);
    let text = format!(
        "FIGURE 10 — VIRTUALIZATION OVERHEADS (1 process, VectorAdd-shaped)\n\n{}\n\
         Max overhead over sweep: {} (paper: <25% at 400 MB)\n",
        t.render(),
        pct(max_ov)
    );
    Artifact::new("fig10", text, Some(csv))
}

/// Figs. 11–15: per-application turnaround sweeps (all five, or one).
pub fn fig11_15(scenario: &Scenario, scale_down: u32, only: Option<BenchmarkId>) -> Artifact {
    let ids: Vec<BenchmarkId> = match only {
        Some(id) => vec![id],
        None => BenchmarkId::applications().to_vec(),
    };
    turnaround_artifact(
        scenario,
        &ids,
        scale_down,
        "fig11_15",
        &format!(
            "FIGURES 11–15 — APPLICATION BENCHMARK TURNAROUND TIMES \
             (scale 1/{scale_down})"
        ),
    )
}

/// Fig. 16: speedups of all five applications at 8 processes.
pub fn fig16(scenario: &Scenario, scale_down: u32) -> Artifact {
    let n = scenario.node.cores;
    let mut t = TextTable::new(vec!["Benchmark", "Class", "Speedup @8 procs"]);
    let mut csv = String::from("benchmark,class,speedup\n");
    let mut speedups = Vec::new();
    for id in BenchmarkId::applications() {
        let d = Benchmark::describe(id);
        let p = turnaround::at_n(scenario, id, n, scale_down);
        let s = p.speedup();
        speedups.push((d.name, s));
        t.row(vec![d.name.to_string(), d.class.to_string(), x(s)]);
        csv.push_str(&format!("{},{},{:.3}\n", d.name, d.class, s));
    }
    let text = format!(
        "FIGURE 16 — SPEEDUPS WITH GPU VIRTUALIZATION, 8 PROCESSES\n\n{}\n\
         Paper reports speedups between 1.4 and 4.1, with MG and CG the\n\
         largest winners (small grids → concurrent kernel execution).\n",
        t.render()
    );
    Artifact::new("fig16", text, Some(csv))
}

/// Figs. 4–6: the execution diagrams as measured ASCII Gantt charts, plus
/// one Chrome-trace JSON per diagram (open in Perfetto). Conventional
/// sharing serializes context episodes (Fig. 4); virtualized
/// compute-intensive tasks overlap kernels (Fig. 5); virtualized
/// I/O-intensive tasks pipeline transfers (Fig. 6).
pub fn fig4_6(scale_down: u32) -> Artifact {
    let scale = scale_down.max(8); // diagrams read best scaled
    let sc = Scenario::traced();
    let n = 3;
    let (mut parts, mut files) = (Vec::new(), Vec::new());
    for (title, id, mode) in [
        (
            "FIGURE 4 — CONVENTIONAL SHARING (EP): context-switch serialization",
            BenchmarkId::Ep,
            ExecutionMode::Direct,
        ),
        (
            "FIGURE 5 — VIRTUALIZED COMPUTE-INTENSIVE (EP): concurrent kernels",
            BenchmarkId::Ep,
            ExecutionMode::Virtualized,
        ),
        (
            "FIGURE 6 — VIRTUALIZED I/O-INTENSIVE (VectorAdd): pipelined transfers",
            BenchmarkId::VecAdd,
            ExecutionMode::Virtualized,
        ),
    ] {
        let task = Benchmark::scaled_task(id, &sc.device, scale);
        let r = sc.run_uniform(mode, &task, n);
        let tracer = r.tracer.as_ref().expect("traced scenario");
        let tag = match mode {
            ExecutionMode::Direct => "direct",
            ExecutionMode::Virtualized => "gvm",
        };
        let chrome = timeline::chrome_trace(&tracer.analysis_snapshot());
        files.push((format!("trace_{id:?}_{tag}.json"), chrome));
        let tl = r.timeline.as_ref().expect("traced scenario");
        parts.push(format!(
            "{title}\n({} processes, {}, turnaround {:.1} ms)\n\n{}\n\
             kernels overlap: {} | copy overlaps foreign kernel: {} | bidirectional DMA: {}\n",
            n,
            mode,
            r.turnaround_ms,
            tl.render_gantt(96),
            tl.kernels_overlap(),
            tl.copy_overlaps_foreign_kernel(),
            tl.bidirectional_overlap(),
        ));
    }
    Artifact {
        files,
        ..Artifact::new("fig4_6", parts.join("\n"), None)
    }
}

/// A parsed `repro` command line.
#[derive(Debug, Clone, Default)]
pub struct Opts {
    /// The experiment: a [`REGISTRY`] name.
    pub name: String,
    /// Scale-down divisor: 1 is paper-sized, `--quick` is 64.
    pub scale: u32,
    /// `--analyze`: check the experiment's traces with `gv-analyze`.
    pub analyze: bool,
    /// `--dump-trace`: with `all --analyze`, save the analyzed traces.
    pub dump_trace: bool,
    /// `fig11_15 <benchmark>`: sweep only that application.
    pub only: Option<BenchmarkId>,
    /// `explore --scenario a,b,...`: catalog scenarios to explore (empty:
    /// all of them).
    pub scenarios: Vec<String>,
    /// `explore --budget/--pb/--seed/--mode/--no-por`.
    pub explore: ExploreConfig,
    /// `explore --expect-bug`: fail unless a counterexample is found.
    pub expect_bug: bool,
    /// `explore --replay <file.gvsched>`.
    pub replay: Option<String>,
}

impl Opts {
    /// Parse the arguments after the program name. The error is a
    /// one-line description of the first unusable argument, or of a flag
    /// the chosen experiment would ignore.
    pub fn parse<S: Into<String>>(args: impl IntoIterator<Item = S>) -> Result<Opts, String> {
        let mut o = Opts {
            scale: 1,
            ..Opts::default()
        };
        let mut quick = false;
        let mut explore_flag = None;
        let mut args = args.into_iter().map(Into::into);
        while let Some(arg) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
            if EXPLORE_FLAGS.contains(&arg.as_str()) {
                explore_flag.get_or_insert_with(|| arg.clone());
            }
            match arg.as_str() {
                "--quick" => quick = true,
                "--scale" => o.scale = positive(&arg, value()?)?,
                "--analyze" => o.analyze = true,
                "--dump-trace" => o.dump_trace = true,
                "--scenario" => o.scenarios = value()?.split(',').map(str::to_string).collect(),
                "--budget" => o.explore.budget = positive(&arg, value()?)?,
                "--pb" => o.explore.preemption_bound = positive(&arg, value()?)?,
                "--seed" => o.explore.seed = positive(&arg, value()?)?,
                "--mode" => {
                    o.explore.mode = match value()?.as_str() {
                        "dfs" => Mode::Dfs,
                        "random" => Mode::Random,
                        m => return Err(format!("unknown --mode '{m}' (dfs|random)")),
                    }
                }
                "--no-por" => o.explore.por = false,
                "--expect-bug" => o.expect_bug = true,
                "--replay" => o.replay = Some(value()?),
                flag if flag.starts_with('-') => return Err(format!("unknown flag '{flag}'")),
                _ if o.name.is_empty() => o.name = arg,
                _ if o.name == "fig11_15" && o.only.is_none() => {
                    o.only = Some(
                        BenchmarkId::parse(&arg)
                            .ok_or_else(|| format!("unknown benchmark '{arg}'"))?,
                    )
                }
                _ => return Err(format!("unexpected argument '{arg}'")),
            }
        }
        if o.name.is_empty() {
            return Err("missing experiment name".into());
        }
        if find(&o.name).is_none() {
            return Err(format!("unknown experiment '{}'", o.name));
        }
        if o.analyze && !ANALYZED.contains(&o.name.as_str()) {
            return Err(format!("--analyze does not apply to '{}'", o.name));
        }
        if let Some(flag) = explore_flag.filter(|_| o.name != "explore") {
            return Err(format!("{flag} applies only to 'explore'"));
        }
        if o.dump_trace && !(o.name == "all" && o.analyze) {
            return Err("--dump-trace needs `all --analyze`".into());
        }
        if let Some(s) = o.scenarios.iter().find(|s| find_scenario(s).is_none()) {
            let have: Vec<&str> = scenarios().iter().map(|s| s.name).collect();
            return Err(format!("unknown scenario '{s}' (have: {have:?})"));
        }
        if quick {
            o.scale = 64;
        }
        Ok(o)
    }
}

/// The experiments `--analyze` gates on the trace checkers.
const ANALYZED: [&str; 7] = [
    "all", "sched", "pipeline", "cluster", "quota", "zerocopy", "coalesce",
];

/// The flags only `explore` reads.
const EXPLORE_FLAGS: [&str; 8] = [
    "--scenario",
    "--budget",
    "--pb",
    "--seed",
    "--mode",
    "--no-por",
    "--expect-bug",
    "--replay",
];

/// A flag's value as a positive integer.
fn positive<T: std::str::FromStr + Default + PartialEq>(
    flag: &str,
    v: String,
) -> Result<T, String> {
    v.parse()
        .ok()
        .filter(|n| *n != T::default())
        .ok_or_else(|| format!("{flag} needs a positive integer, got '{v}'"))
}

/// One runnable experiment.
pub type Experiment = fn(&Opts) -> Report;

/// Every experiment `repro <name>` runs.
pub static REGISTRY: &[(&str, Experiment)] = &[
    ("all", all),
    ("table2", |o| table2(&Scenario::default(), o.scale).into()),
    ("table3", |o| table3(&Scenario::default(), o.scale).into()),
    ("table4", |_| table4().into()),
    ("fig4_6", |o| fig4_6(o.scale).into()),
    ("fig9", |o| fig9(&Scenario::default(), o.scale).into()),
    ("fig10", |o| {
        let sizes: Vec<u64> = overhead::paper_sizes()
            .into_iter()
            .map(|s| (s / u64::from(o.scale)).max(1))
            .collect();
        fig10(&Scenario::default(), &sizes).into()
    }),
    ("fig11_15", |o| {
        fig11_15(&Scenario::default(), o.scale, o.only).into()
    }),
    ("fig16", |o| fig16(&Scenario::default(), o.scale).into()),
    ("ablations", |o| {
        ablation::artifact(&Scenario::default(), o.scale).into()
    }),
    ("remote", |o| {
        remote_compare::artifact(&Scenario::default(), o.scale).into()
    }),
    ("sensitivity", |o| {
        sensitivity::artifact(&Scenario::default(), o.scale).into()
    }),
    ("sched", |o| gated("policy", sched::sweep, o)),
    ("pipeline", |o| gated("pipeline", pipeline::sweep, o)),
    ("ft", |o| {
        ft::artifact(&ft::scenarios(&Scenario::default(), o.scale), o.scale).into()
    }),
    ("cluster", |o| {
        let (points, clean) = cluster::matrix(&Scenario::default(), o.scale, o.analyze);
        Report::gated(cluster::artifact(&points, o.scale), clean, "cluster")
    }),
    ("quota", |o| {
        let (points, clean) = quota::sweep(&Scenario::default(), o.scale, o.analyze);
        let mut r = Report::gated(quota::artifact(&points, o.scale), clean, "quota");
        if o.analyze && clean {
            r.stdout
                .push_str("gv-analyze: every swept trace is clean (quota checker green)\n");
        }
        r
    }),
    ("zerocopy", |o| gated("zerocopy", zerocopy::sweep, o)),
    ("coalesce", |o| gated("coalesce", coalesce::sweep, o)),
    ("explore", explore::run),
];

/// A sweep of the default scenario that fails on any diagnostic in the
/// `what` traces it analyzed.
fn gated(what: &str, sweep: fn(&Scenario, u32, bool) -> (Artifact, bool), o: &Opts) -> Report {
    let (a, clean) = sweep(&Scenario::default(), o.scale, o.analyze);
    Report::gated(a, clean, what)
}

/// The paper's tables and figures, in the order `repro all` prints them.
pub const ALL: [&str; 7] = [
    "table2", "table3", "table4", "fig9", "fig10", "fig11_15", "fig16",
];

/// The experiment registered as `name`.
pub fn find(name: &str) -> Option<Experiment> {
    REGISTRY.iter().find(|(n, _)| *n == name).map(|&(_, f)| f)
}

/// `repro all`: every [`ALL`] member, then with `--analyze` the
/// `gv-analyze` pass over representative traces.
fn all(o: &Opts) -> Report {
    let mut out = Report::default();
    for name in ALL {
        let r = find(name).expect("every `all` member is registered")(o);
        out.stdout.push_str(&r.stdout);
        out.stdout.push('\n');
        out.artifacts.extend(r.artifacts);
    }
    out.stdout.push_str(
        "(artifacts saved under results/; run `repro fig4_6`, `repro ablations`\n \
         and `repro sensitivity` for the execution diagrams and extensions)\n",
    );
    if o.analyze {
        let r = analysis::pass(o.scale, o.dump_trace);
        out.stdout.push_str(&r.stdout);
        out.artifacts.extend(r.artifacts);
        out.code = r.code;
    }
    out
}

/// The one-line usage printed under every command-line error.
pub const USAGE: &str = "usage: repro <experiment> [--quick | --scale N] [--analyze] \
                         [--dump-trace] [explore flags]; `repro --help` lists both";

/// `repro --help`: the usage, the registered experiments, and every flag.
pub fn help() -> String {
    let names: Vec<&str> = REGISTRY.iter().map(|&(n, _)| n).collect();
    format!(
        "{USAGE}\n\nexperiments: {}\n\n\
         --quick           shrink every cost 64x (overrides --scale)\n\
         --scale N         shrink every cost Nx (default 1: paper-sized)\n\
         --analyze         check traces with gv-analyze, exit 1 on any diagnostic\n\
         \x20                 ({})\n\
         --dump-trace      with `all --analyze`: save results/trace-*.gvtrace\n\
         fig11_15 <name>   one application (mm|mg|blackscholes|cg|electrostatics)\n\n\
         explore [--scenario a,b,...] [--budget N] [--pb N] [--seed N]\n\
         \x20       [--mode dfs|random] [--no-por] [--expect-bug]\n\
         explore --replay <file.gvsched>\n",
        names.join(", "),
        ANALYZED.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_matches_paper_catalogue() {
        let a = table4();
        assert!(a.text.contains("2Kx2K Matrix"));
        assert!(a.text.contains("S(NA=1400, Nit=15)"));
        assert!(a.csv.unwrap().lines().count() == 6); // header + 5 apps
    }

    #[test]
    fn quick_fig9_has_both_series() {
        let sc = Scenario::default();
        let mut sc = sc;
        sc.node.cores = 3; // shrink the sweep for the test
        let a = fig9(&sc, 256);
        assert!(a.text.contains("VectorAdd"));
        assert!(a.text.contains("EP"));
        // csv: header + 2 benchmarks × 3 points
        assert_eq!(a.csv.unwrap().lines().count(), 7);
    }

    fn parse(line: &str) -> Result<Opts, String> {
        Opts::parse(line.split_whitespace())
    }

    #[test]
    fn opts_parse_valid_forms() {
        let o = parse("table3").unwrap();
        assert_eq!((o.name.as_str(), o.scale, o.analyze), ("table3", 1, false));
        assert_eq!(parse("fig9 --quick").unwrap().scale, 64);
        assert_eq!(parse("--scale 16 fig9").unwrap().scale, 16);
        assert_eq!(parse("fig9 --scale 16 --quick").unwrap().scale, 64);
        let o = parse("all --quick --analyze --dump-trace").unwrap();
        assert!(o.analyze && o.dump_trace);
        let o = parse("explore --scenario vecadd2,vecadd3 --budget 50 --pb 3 --seed 9 --mode random --no-por --expect-bug").unwrap();
        assert_eq!(o.scenarios, ["vecadd2", "vecadd3"]);
        let c = &o.explore;
        assert_eq!((c.budget, c.preemption_bound, c.seed), (50, 3, 9));
        assert_eq!(c.mode, Mode::Random);
        assert!(!c.por && o.expect_bug);
        let o = parse("explore --replay x.gvsched").unwrap();
        assert_eq!(o.replay.as_deref(), Some("x.gvsched"));
    }

    #[test]
    fn opts_parse_fig11_15_benchmark_filter() {
        assert_eq!(parse("fig11_15").unwrap().only, None);
        let o = parse("fig11_15 --quick mg").unwrap();
        assert_eq!(
            (o.name.as_str(), o.only),
            ("fig11_15", Some(BenchmarkId::Mg))
        );
        // The filter is not an experiment name, nor does any other
        // experiment take one.
        assert!(parse("mg").unwrap_err().contains("unknown experiment 'mg'"));
        assert!(parse("fig11_15 table3")
            .unwrap_err()
            .contains("unknown benchmark"));
        assert!(parse("fig11_15 mg cg")
            .unwrap_err()
            .contains("unexpected argument 'cg'"));
        assert!(parse("fig16 mg")
            .unwrap_err()
            .contains("unexpected argument 'mg'"));
    }

    #[test]
    fn opts_parse_rejects_malformed_input() {
        for (line, why) in [
            (
                "fig10 --scale 0",
                "--scale needs a positive integer, got '0'",
            ),
            (
                "fig10 --scale abc",
                "--scale needs a positive integer, got 'abc'",
            ),
            ("fig10 --scale -4", "--scale needs a positive integer"),
            ("fig10 --scale", "--scale needs a value"),
            ("explore --budget abc", "--budget needs a positive integer"),
            ("explore --budget 0", "--budget needs a positive integer"),
            ("explore --pb x", "--pb needs a positive integer"),
            ("explore --pb 0", "--pb needs a positive integer"),
            ("explore --seed 0", "--seed needs a positive integer"),
            ("explore --seed 1.5", "--seed needs a positive integer"),
            ("explore --mode bfs", "unknown --mode 'bfs'"),
            ("explore --scenario nosuch", "unknown scenario 'nosuch'"),
            ("table3 --analyse", "unknown flag '--analyse'"),
            ("table3 --analyze", "--analyze does not apply to 'table3'"),
            ("fig9 --budget 5", "--budget applies only to 'explore'"),
            (
                "ft --replay x.gvsched",
                "--replay applies only to 'explore'",
            ),
            ("all --dump-trace", "--dump-trace needs `all --analyze`"),
            ("sched --analyze --dump-trace", "--dump-trace needs"),
            ("nosuch", "unknown experiment 'nosuch'"),
            ("", "missing experiment name"),
            ("--quick", "missing experiment name"),
        ] {
            let err = parse(line).unwrap_err();
            assert!(err.contains(why), "{line}: got '{err}', want '{why}'");
        }
    }

    #[test]
    fn registry_names_are_unique_and_cover_all() {
        let names: std::collections::HashSet<&str> = REGISTRY.iter().map(|&(n, _)| n).collect();
        assert_eq!(names.len(), REGISTRY.len(), "duplicate experiment name");
        for name in ALL {
            assert!(
                find(name).is_some(),
                "`all` member {name} is not registered"
            );
        }
        for name in names {
            assert!(help().contains(name), "--help omits {name}");
        }
    }
}

//! Device-sensitivity study (extension): how do the paper's speedups move
//! across Fermi-generation devices and node widths?
//!
//! The paper evaluates one device (Tesla C2070) and one node width (8
//! cores). Because the virtualization gain is a function of *asymmetry* —
//! how much idle GPU a single process leaves — both knobs matter for
//! anyone provisioning CPU:GPU ratios. This module sweeps them.

use gv_gpu::DeviceConfig;
use gv_kernels::BenchmarkId;
use serde::Serialize;

use crate::report::{x, Artifact, TextTable};
use crate::scenario::Scenario;
use crate::turnaround;

/// Speedup of one benchmark at `nprocs` on one device preset.
#[derive(Debug, Clone, Serialize)]
pub struct SensitivityPoint {
    /// Device preset name.
    pub device: &'static str,
    /// Benchmark name.
    pub benchmark: String,
    /// Process count.
    pub nprocs: usize,
    /// Virtualization speedup.
    pub speedup: f64,
}

/// The device presets swept.
pub fn presets() -> Vec<DeviceConfig> {
    vec![
        DeviceConfig::tesla_c2070_paper(),
        DeviceConfig::tesla_c2050(),
        DeviceConfig::gtx_480(),
    ]
}

/// Sweep benchmarks × presets at a fixed node width.
pub fn device_sweep(
    base: &Scenario,
    benchmarks: &[BenchmarkId],
    nprocs: usize,
    scale_down: u32,
) -> Vec<SensitivityPoint> {
    let mut out = Vec::new();
    for device in presets() {
        let scenario = Scenario {
            device: device.clone(),
            ..base.clone()
        };
        for &id in benchmarks {
            let p = turnaround::at_n(&scenario, id, nprocs, scale_down);
            out.push(SensitivityPoint {
                device: device.name,
                benchmark: gv_kernels::Benchmark::describe(id).name.to_string(),
                nprocs,
                speedup: p.speedup(),
            });
        }
    }
    out
}

/// Sweep node widths (1..=max cores) on the paper device for one benchmark.
pub fn width_sweep(
    base: &Scenario,
    id: BenchmarkId,
    widths: &[usize],
    scale_down: u32,
) -> Vec<SensitivityPoint> {
    widths
        .iter()
        .map(|&n| {
            let p = turnaround::at_n(base, id, n, scale_down);
            SensitivityPoint {
                device: base.device.name,
                benchmark: gv_kernels::Benchmark::describe(id).name.to_string(),
                nprocs: n,
                speedup: p.speedup(),
            }
        })
        .collect()
}

/// `repro sensitivity`: three benchmarks across the presets at 8
/// processes, and EP and VectorAdd across node widths.
pub fn artifact(sc: &Scenario, scale_down: u32) -> Artifact {
    // Floor at 1/4 scale: eight paper-sized VectorAdd working sets
    // (8 × 600 MB) exceed the GTX 480 preset's 1.5 GB of device memory —
    // the sweep must fit the smallest card it visits.
    let scale = scale_down.max(4);
    let mut t1 = TextTable::new(vec!["Device", "Benchmark", "Speedup @8"]);
    let ids = [BenchmarkId::VecAdd, BenchmarkId::Ep, BenchmarkId::Cg];
    for p in device_sweep(sc, &ids, 8, scale) {
        t1.row(vec![
            p.device.to_string(),
            p.benchmark.clone(),
            x(p.speedup),
        ]);
    }

    let mut t2 = TextTable::new(vec!["Benchmark", "n", "Speedup"]);
    for id in [BenchmarkId::Ep, BenchmarkId::VecAdd] {
        for p in width_sweep(sc, id, &[1, 2, 4, 6, 8], scale) {
            t2.row(vec![
                p.benchmark.clone(),
                p.nprocs.to_string(),
                x(p.speedup),
            ]);
        }
    }

    let text = format!(
        "SENSITIVITY — DEVICE PRESETS AND NODE WIDTHS (scale 1/{scale})\n\n\
         Across Fermi-generation devices (8 processes):\n{}\n\
         Across node widths (paper C2070):\n{}\n\
         Reading: the virtualization gain tracks asymmetry — more cores per\n\
         GPU and more idle SMs per kernel both raise it; device clock and\n\
         SM-count differences within the Fermi family barely move it.\n",
        t1.render(),
        t2.render()
    );
    Artifact::new("sensitivity", text, Some(t1.to_csv()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_distinct_devices() {
        let p = presets();
        assert_eq!(p.len(), 3);
        let names: Vec<_> = p.iter().map(|d| d.name).collect();
        assert!(names.contains(&"GeForce GTX 480"));
    }

    #[test]
    fn ep_speedup_grows_with_width_on_every_preset() {
        let sc = Scenario::default();
        let pts = width_sweep(&sc, BenchmarkId::Ep, &[2, 4], 64);
        assert_eq!(pts.len(), 2);
        assert!(
            pts[1].speedup > pts[0].speedup,
            "EP speedup should grow with node width: {pts:?}"
        );
    }

    #[test]
    fn device_sweep_covers_grid() {
        let sc = Scenario::default();
        let pts = device_sweep(&sc, &[BenchmarkId::Ep], 2, 64);
        assert_eq!(pts.len(), 3);
        for p in &pts {
            assert!(p.speedup > 1.0, "{p:?}");
        }
    }
}

//! Device-invariant checking over GPU engine and memory events.
//!
//! The device scheduler emits begin/end records for every DMA transfer and
//! kernel, plus alloc/free records from the driver layer. This checker
//! verifies the hardware model's invariants held over the whole trace:
//!
//! * **Copy-engine exclusivity** — each (device, engine) pair serves one
//!   transfer at a time (engine 0 = H2D, engine 1 = dedicated D2H; devices
//!   with a unified copy engine fold everything onto engine 0).
//! * **Kernel window** — the number of concurrently-resident kernels never
//!   exceeds the device's `max_concurrent_kernels` cap.
//! * **Span pairing** — every transfer, kernel and context-switch begin has
//!   a matching end, a device switches to one context at a time, and the
//!   trace ends with nothing in flight.
//! * **Allocation balance** — every allocation id is freed exactly once
//!   and the trace ends with zero live bytes per device.

use std::collections::HashMap;

use gv_sim::{AnalysisRecord, SimTime};

use crate::Diagnostic;

#[derive(Default)]
struct DeviceLint {
    max_kernels: Option<u32>,
    /// Active transfer label per engine index.
    engines: HashMap<u8, Vec<(String, SimTime)>>,
    /// Active kernel labels.
    kernels: Vec<(String, SimTime)>,
    /// Context switch in progress: target context and start time.
    switching: Option<(u32, SimTime)>,
    /// Live allocation id → bytes.
    live: HashMap<u64, u64>,
}

/// Replay all device records and report every invariant violation.
pub fn check(records: &[AnalysisRecord]) -> Vec<Diagnostic> {
    let mut diagnostics = Vec::new();
    let mut devices: HashMap<u32, DeviceLint> = HashMap::new();
    let diag = |diagnostics: &mut Vec<Diagnostic>, time: SimTime, message: String| {
        diagnostics.push(Diagnostic {
            checker: "device",
            time,
            message,
        });
    };

    for rec in records {
        match rec {
            AnalysisRecord::DeviceRegistered {
                device,
                max_concurrent_kernels,
            } => {
                devices.entry(*device).or_default().max_kernels = Some(*max_concurrent_kernels);
            }
            AnalysisRecord::CopyBegin {
                time,
                device,
                engine,
                label,
                ..
            } => {
                let active = devices
                    .entry(*device)
                    .or_default()
                    .engines
                    .entry(*engine)
                    .or_default();
                if let Some((other, since)) = active.first() {
                    diag(
                        &mut diagnostics,
                        *time,
                        format!(
                            "device {device} engine {engine}: transfer '{label}' started while \
                             '{other}' (running since {:.6}ms) still occupies the engine",
                            since.as_millis_f64()
                        ),
                    );
                }
                active.push((label.clone(), *time));
            }
            AnalysisRecord::CopyEnd {
                time,
                device,
                engine,
                label,
            } => {
                let active = devices
                    .entry(*device)
                    .or_default()
                    .engines
                    .entry(*engine)
                    .or_default();
                match active.iter().position(|(l, _)| l == label) {
                    Some(i) => {
                        active.remove(i);
                    }
                    None => diag(
                        &mut diagnostics,
                        *time,
                        format!(
                            "device {device} engine {engine}: completion of '{label}' without a \
                             matching start"
                        ),
                    ),
                }
            }
            AnalysisRecord::KernelBegin {
                time,
                device,
                label,
                ..
            } => {
                let lint = devices.entry(*device).or_default();
                if let Some(cap) = lint.max_kernels {
                    if lint.kernels.len() >= cap as usize {
                        diag(
                            &mut diagnostics,
                            *time,
                            format!(
                                "device {device}: kernel '{label}' admitted with {} kernels \
                                 already resident (cap {cap})",
                                lint.kernels.len()
                            ),
                        );
                    }
                }
                lint.kernels.push((label.clone(), *time));
            }
            AnalysisRecord::KernelEnd {
                time,
                device,
                label,
            } => {
                let lint = devices.entry(*device).or_default();
                match lint.kernels.iter().position(|(l, _)| l == label) {
                    Some(i) => {
                        lint.kernels.remove(i);
                    }
                    None => diag(
                        &mut diagnostics,
                        *time,
                        format!(
                            "device {device}: completion of kernel '{label}' without a matching \
                             launch"
                        ),
                    ),
                }
            }
            AnalysisRecord::CtxSwitchBegin { time, device, ctx } => {
                let lint = devices.entry(*device).or_default();
                if let Some((other, since)) = lint.switching {
                    diag(
                        &mut diagnostics,
                        *time,
                        format!(
                            "device {device}: switch to context {ctx} started while the switch \
                             to context {other} (since {:.6}ms) is in progress",
                            since.as_millis_f64()
                        ),
                    );
                }
                lint.switching = Some((*ctx, *time));
            }
            AnalysisRecord::CtxSwitchEnd { time, device, ctx } => {
                let lint = devices.entry(*device).or_default();
                match lint.switching {
                    Some((open, _)) if open == *ctx => lint.switching = None,
                    _ => diag(
                        &mut diagnostics,
                        *time,
                        format!(
                            "device {device}: completion of the switch to context {ctx} \
                             without a matching start"
                        ),
                    ),
                }
            }
            AnalysisRecord::Alloc {
                time,
                device,
                id,
                bytes,
            } => {
                let lint = devices.entry(*device).or_default();
                if lint.live.insert(*id, *bytes).is_some() {
                    diag(
                        &mut diagnostics,
                        *time,
                        format!("device {device}: allocation id {id} allocated while still live"),
                    );
                }
            }
            AnalysisRecord::Free { time, device, id } => {
                let lint = devices.entry(*device).or_default();
                if lint.live.remove(id).is_none() {
                    diag(
                        &mut diagnostics,
                        *time,
                        format!("device {device}: free of id {id} which is not live"),
                    );
                }
            }
            _ => {}
        }
    }

    // End-of-trace: nothing may still be in flight or allocated.
    let mut devs: Vec<_> = devices.iter().collect();
    devs.sort_by_key(|(d, _)| **d);
    for (device, lint) in devs {
        let mut engines: Vec<_> = lint.engines.iter().collect();
        engines.sort_by_key(|(e, _)| **e);
        for (engine, active) in engines {
            for (label, since) in active {
                diag(
                    &mut diagnostics,
                    *since,
                    format!("device {device} engine {engine}: transfer '{label}' never completed"),
                );
            }
        }
        for (label, since) in &lint.kernels {
            diag(
                &mut diagnostics,
                *since,
                format!("device {device}: kernel '{label}' never completed"),
            );
        }
        if let Some((ctx, since)) = lint.switching {
            diag(
                &mut diagnostics,
                since,
                format!("device {device}: switch to context {ctx} never completed"),
            );
        }
        if !lint.live.is_empty() {
            let mut ids: Vec<_> = lint.live.iter().map(|(id, b)| (*id, *b)).collect();
            ids.sort_unstable();
            let bytes: u64 = ids.iter().map(|(_, b)| b).sum();
            diag(
                &mut diagnostics,
                SimTime::ZERO,
                format!(
                    "device {device}: {} allocation(s) never freed ({bytes} bytes leaked; \
                     ids {:?})",
                    ids.len(),
                    ids.iter().map(|(id, _)| *id).collect::<Vec<_>>()
                ),
            );
        }
    }

    diagnostics
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg(device: u32, cap: u32) -> AnalysisRecord {
        AnalysisRecord::DeviceRegistered {
            device,
            max_concurrent_kernels: cap,
        }
    }

    fn copyb(t: u64, engine: u8, label: &str) -> AnalysisRecord {
        AnalysisRecord::CopyBegin {
            time: SimTime::from_nanos(t),
            device: 0,
            engine,
            stream: 1,
            label: label.to_string(),
        }
    }

    fn copye(t: u64, engine: u8, label: &str) -> AnalysisRecord {
        AnalysisRecord::CopyEnd {
            time: SimTime::from_nanos(t),
            device: 0,
            engine,
            label: label.to_string(),
        }
    }

    fn kernb(t: u64, label: &str) -> AnalysisRecord {
        AnalysisRecord::KernelBegin {
            time: SimTime::from_nanos(t),
            device: 0,
            stream: 1,
            label: label.to_string(),
        }
    }

    fn kerne(t: u64, label: &str) -> AnalysisRecord {
        AnalysisRecord::KernelEnd {
            time: SimTime::from_nanos(t),
            device: 0,
            label: label.to_string(),
        }
    }

    #[test]
    fn serialized_copies_pass() {
        let recs = vec![
            reg(0, 4),
            copyb(1, 0, "cmd-1"),
            copye(2, 0, "cmd-1"),
            copyb(3, 0, "cmd-2"),
            copye(4, 0, "cmd-2"),
        ];
        assert!(check(&recs).is_empty());
    }

    #[test]
    fn opposite_engines_overlap_legally() {
        let recs = vec![
            reg(0, 4),
            copyb(1, 0, "cmd-1"),
            copyb(2, 1, "cmd-2"),
            copye(3, 0, "cmd-1"),
            copye(4, 1, "cmd-2"),
        ];
        assert!(check(&recs).is_empty());
    }

    #[test]
    fn same_engine_overlap_flagged() {
        let recs = vec![
            reg(0, 4),
            copyb(1, 0, "cmd-1"),
            copyb(2, 0, "cmd-2"),
            copye(3, 0, "cmd-1"),
            copye(4, 0, "cmd-2"),
        ];
        let d = check(&recs);
        assert_eq!(d.len(), 1);
        assert!(
            d[0].message.contains("'cmd-2' started while 'cmd-1'"),
            "{}",
            d[0].message
        );
    }

    #[test]
    fn kernel_cap_exceeded_flagged() {
        let recs = vec![
            reg(0, 2),
            kernb(1, "k-1"),
            kernb(2, "k-2"),
            kernb(3, "k-3"),
            kerne(4, "k-1"),
            kerne(5, "k-2"),
            kerne(6, "k-3"),
        ];
        let d = check(&recs);
        assert_eq!(d.len(), 1);
        assert!(
            d[0].message.contains("'k-3' admitted with 2 kernels"),
            "{}",
            d[0].message
        );
    }

    #[test]
    fn unterminated_transfer_flagged() {
        let recs = vec![reg(0, 4), copyb(1, 0, "cmd-1")];
        let d = check(&recs);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("never completed"));
    }

    fn switch(t: u64, begin: bool, ctx: u32) -> AnalysisRecord {
        let time = SimTime::from_nanos(t);
        if begin {
            AnalysisRecord::CtxSwitchBegin {
                time,
                device: 0,
                ctx,
            }
        } else {
            AnalysisRecord::CtxSwitchEnd {
                time,
                device: 0,
                ctx,
            }
        }
    }

    #[test]
    fn paired_context_switches_pass() {
        let recs = vec![
            reg(0, 4),
            switch(1, true, 2),
            switch(2, false, 2),
            switch(3, true, 1),
            switch(4, false, 1),
        ];
        assert!(check(&recs).is_empty());
    }

    #[test]
    fn misnested_context_switches_flagged() {
        let recs = vec![
            reg(0, 4),
            switch(1, true, 2),
            switch(2, true, 3),
            switch(3, false, 2),
        ];
        let d = check(&recs);
        assert_eq!(d.len(), 3, "{d:?}");
        assert!(d[0]
            .message
            .contains("started while the switch to context 2"));
        assert!(d[1].message.contains("context 2 without a matching start"));
        assert!(d[2].message.contains("context 3 never completed"));
    }

    #[test]
    fn alloc_free_balance_checked() {
        let recs = vec![
            reg(0, 4),
            AnalysisRecord::Alloc {
                time: SimTime::from_nanos(1),
                device: 0,
                id: 1,
                bytes: 256,
            },
            AnalysisRecord::Alloc {
                time: SimTime::from_nanos(2),
                device: 0,
                id: 2,
                bytes: 512,
            },
            AnalysisRecord::Free {
                time: SimTime::from_nanos(3),
                device: 0,
                id: 1,
            },
        ];
        let d = check(&recs);
        assert_eq!(d.len(), 1);
        assert!(
            d[0].message
                .contains("1 allocation(s) never freed (512 bytes leaked"),
            "{}",
            d[0].message
        );
    }

    #[test]
    fn double_free_flagged() {
        let recs = vec![
            AnalysisRecord::Alloc {
                time: SimTime::from_nanos(1),
                device: 0,
                id: 1,
                bytes: 64,
            },
            AnalysisRecord::Free {
                time: SimTime::from_nanos(2),
                device: 0,
                id: 1,
            },
            AnalysisRecord::Free {
                time: SimTime::from_nanos(3),
                device: 0,
                id: 1,
            },
        ];
        let d = check(&recs);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("free of id 1 which is not live"));
    }
}

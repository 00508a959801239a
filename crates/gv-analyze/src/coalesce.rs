//! Fused-DMA manifest invariants over the flush planner's records.
//!
//! When the coalescing planner merges adjacent same-direction staging
//! transfers of co-flushed ranks into one large DMA submission, the GVM
//! emits an [`AnalysisRecord::CoalesceOp`] manifest describing the fused
//! batch: member ranks in submission order, each member's byte span within
//! the batch, the pool buffer and lease generation backing it, and the
//! engine command id of its sub-op. This checker replays those manifests
//! against the rest of the trace and verifies:
//!
//! * **Exact partition** — the member spans tile the fused batch exactly:
//!   offsets ascend gaplessly from 0, lengths sum to the declared total,
//!   and every parallel vector has the same arity. A batch of fewer than
//!   two members should never have been fused at all.
//! * **Distinct ranks** — one sub-span per rank; the planner must never
//!   fold two transfers of the same rank into one manifest (per-stream
//!   ordering would be lost).
//! * **Command fan-out** — every member's command id has a matching
//!   `CopyBegin` on the manifest's device and direction engine (0 = H2D,
//!   1 = D2H): per-sub-op completion fan-out requires each member to keep
//!   its own engine command.
//! * **Generation currency** — when a member's pool buffer has a
//!   [`AnalysisRecord::DescGrant`] history, the generation stamped into
//!   the manifest must be the latest granted one (fusing a stale lease is
//!   the zero-copy use-after-recycle family).
//! * **Quota boundary** — in a quota-enforcing GVM (any
//!   [`AnalysisRecord::QuotaSet`] for the instance), every fused member
//!   must hold a positive charged balance at submission time: fusing an
//!   unadmitted rank's transfer crosses the quota admission boundary.
//! * **Swap boundary** — a GVM that has demand-swapped working sets
//!   ([`AnalysisRecord::SwapOut`]/[`AnalysisRecord::SwapIn`]) must not
//!   fuse at all; lease windows can move under swap, so the planner is
//!   required to disable itself there.

use std::collections::{HashMap, HashSet};

use gv_sim::{AnalysisRecord, SimTime};

use crate::Diagnostic;

fn diag(time: SimTime, message: String) -> Diagnostic {
    Diagnostic {
        checker: "coalesce",
        time,
        message,
    }
}

/// Replay `records` and report every fused-manifest violation.
pub fn check(records: &[AnalysisRecord]) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // Pass 1: engine command ids seen per (device, engine). `CopyBegin`
    // for a submitted batch can land after the manifest record, so the
    // lookup must span the whole trace before manifests are replayed.
    let mut copies: HashSet<(u32, u8, u64)> = HashSet::new();
    for rec in records {
        if let AnalysisRecord::CopyBegin {
            device,
            engine,
            label,
            ..
        } = rec
        {
            if let Some(id) = label
                .strip_prefix("cmd-")
                .and_then(|s| s.parse::<u64>().ok())
            {
                copies.insert((*device, *engine, id));
            }
        }
    }

    // Pass 2: replay in trace order, tracking the state a manifest is
    // checked against at its submission time.
    // (gvm, buf) → latest granted lease generation.
    let mut grants: HashMap<(String, u64), u64> = HashMap::new();
    // gvm → quota enforcement declared (any QuotaSet record).
    let mut quota_gvms: HashSet<String> = HashSet::new();
    // (gvm, rank) → running charged bytes per the last ledger record.
    let mut charged: HashMap<(String, u64), u64> = HashMap::new();
    // gvm → time of the first demand swap (out or in).
    let mut swapped: HashMap<String, SimTime> = HashMap::new();

    for rec in records {
        match rec {
            AnalysisRecord::DescGrant {
                gvm,
                buf,
                generation,
                ..
            } => {
                grants.insert((gvm.clone(), *buf), *generation);
            }
            AnalysisRecord::QuotaSet { gvm, .. } => {
                quota_gvms.insert(gvm.clone());
            }
            AnalysisRecord::QuotaCharge {
                gvm,
                rank,
                charged: total,
                ..
            }
            | AnalysisRecord::QuotaCredit {
                gvm,
                rank,
                charged: total,
                ..
            } => {
                charged.insert((gvm.clone(), *rank as u64), *total);
            }
            AnalysisRecord::SwapOut { time, gvm, .. }
            | AnalysisRecord::SwapIn { time, gvm, .. } => {
                swapped.entry(gvm.clone()).or_insert(*time);
            }
            AnalysisRecord::CoalesceOp {
                time,
                gvm,
                device,
                h2d,
                total,
                ranks,
                offsets,
                lens,
                bufs,
                gens,
                cmds,
            } => {
                check_manifest(
                    &mut out,
                    Manifest {
                        time: *time,
                        gvm,
                        device: *device,
                        h2d: *h2d,
                        total: *total,
                        ranks,
                        offsets,
                        lens,
                        bufs,
                        gens,
                        cmds,
                    },
                    &copies,
                    &grants,
                    &quota_gvms,
                    &charged,
                    &swapped,
                );
            }
            _ => {}
        }
    }
    out
}

/// Borrowed view of one `CoalesceOp` record's fields.
struct Manifest<'a> {
    time: SimTime,
    gvm: &'a str,
    device: u32,
    h2d: bool,
    total: u64,
    ranks: &'a [u64],
    offsets: &'a [u64],
    lens: &'a [u64],
    bufs: &'a [u64],
    gens: &'a [u64],
    cmds: &'a [u64],
}

fn check_manifest(
    out: &mut Vec<Diagnostic>,
    m: Manifest<'_>,
    copies: &HashSet<(u32, u8, u64)>,
    grants: &HashMap<(String, u64), u64>,
    quota_gvms: &HashSet<String>,
    charged: &HashMap<(String, u64), u64>,
    swapped: &HashMap<String, SimTime>,
) {
    let dir = if m.h2d { "H2D" } else { "D2H" };
    let n = m.ranks.len();
    if m.offsets.len() != n
        || m.lens.len() != n
        || m.bufs.len() != n
        || m.gens.len() != n
        || m.cmds.len() != n
    {
        out.push(diag(
            m.time,
            format!(
                "gvm '{}' {dir} manifest on device {} has mismatched arity: \
                 {} ranks vs {} offsets / {} lens / {} bufs / {} gens / {} cmds",
                m.gvm,
                m.device,
                n,
                m.offsets.len(),
                m.lens.len(),
                m.bufs.len(),
                m.gens.len(),
                m.cmds.len()
            ),
        ));
        return;
    }
    if n < 2 {
        out.push(diag(
            m.time,
            format!(
                "gvm '{}' {dir} manifest on device {} fuses only {n} member(s); \
                 a coalesced submission requires at least 2",
                m.gvm, m.device
            ),
        ));
    }

    // Exact partition: offsets ascend gaplessly from 0, lens sum to total.
    let mut expect = 0u64;
    for i in 0..n {
        if m.offsets[i] != expect {
            out.push(diag(
                m.time,
                format!(
                    "gvm '{}' {dir} manifest on device {}: member {i} (rank {}) \
                     starts at offset {} but the previous span ends at {} \
                     (overlap or gap in the fused batch)",
                    m.gvm, m.device, m.ranks[i], m.offsets[i], expect
                ),
            ));
        }
        expect = m.offsets[i].saturating_add(m.lens[i]);
        if m.lens[i] == 0 {
            out.push(diag(
                m.time,
                format!(
                    "gvm '{}' {dir} manifest on device {}: member {i} (rank {}) \
                     contributes 0 bytes",
                    m.gvm, m.device, m.ranks[i]
                ),
            ));
        }
    }
    let sum: u64 = m.lens.iter().sum();
    if sum != m.total {
        out.push(diag(
            m.time,
            format!(
                "gvm '{}' {dir} manifest on device {}: member lengths sum to {} \
                 but the batch declares {} total bytes",
                m.gvm, m.device, sum, m.total
            ),
        ));
    }

    // Distinct ranks.
    let mut seen = HashSet::new();
    for (i, rank) in m.ranks.iter().enumerate() {
        if !seen.insert(*rank) {
            out.push(diag(
                m.time,
                format!(
                    "gvm '{}' {dir} manifest on device {}: rank {rank} appears \
                     more than once (member {i}); per-rank transfer order \
                     cannot be preserved",
                    m.gvm, m.device
                ),
            ));
        }
    }

    // Command fan-out: every member keeps its own engine command.
    let engine = if m.h2d { 0u8 } else { 1u8 };
    for (i, cmd) in m.cmds.iter().enumerate() {
        if !copies.contains(&(m.device, engine, *cmd)) {
            out.push(diag(
                m.time,
                format!(
                    "gvm '{}' {dir} manifest on device {}: member {i} (rank {}) \
                     names command {cmd} but no CopyBegin 'cmd-{cmd}' exists on \
                     that device's engine {engine}",
                    m.gvm, m.device, m.ranks[i]
                ),
            ));
        }
    }

    // Generation currency against the grant history.
    for i in 0..n {
        if let Some(latest) = grants.get(&(m.gvm.to_string(), m.bufs[i])) {
            if *latest != m.gens[i] {
                out.push(diag(
                    m.time,
                    format!(
                        "gvm '{}' {dir} manifest on device {}: member {i} \
                         (rank {}) fuses pool buf {} at generation {} but the \
                         latest grant is generation {latest} (stale lease)",
                        m.gvm, m.device, m.ranks[i], m.bufs[i], m.gens[i]
                    ),
                ));
            }
        }
    }

    // Quota boundary: in a quota-enforcing GVM every member must be
    // admitted (positive charged balance) at submission time.
    if quota_gvms.contains(m.gvm) {
        for (i, rank) in m.ranks.iter().enumerate() {
            let bal = charged
                .get(&(m.gvm.to_string(), *rank))
                .copied()
                .unwrap_or(0);
            if bal == 0 {
                out.push(diag(
                    m.time,
                    format!(
                        "gvm '{}' {dir} manifest on device {}: member {i} \
                         (rank {rank}) has no charged device-memory balance at \
                         submission; fusing crossed the quota admission boundary",
                        m.gvm, m.device
                    ),
                ));
            }
        }
    }

    // Swap boundary: a swapping GVM must not fuse.
    if let Some(first) = swapped.get(m.gvm) {
        out.push(diag(
            m.time,
            format!(
                "gvm '{}' {dir} manifest on device {}: instance demand-swapped \
                 at t={:.6}ms and later fused transfers; coalescing must be \
                 disabled under swap",
                m.gvm,
                m.device,
                first.as_millis_f64()
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gv_sim::SimDuration;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    /// A well-formed two-member H2D manifest plus its two engine commands.
    fn valid_trace() -> Vec<AnalysisRecord> {
        vec![
            AnalysisRecord::CopyBegin {
                time: t(10),
                device: 0,
                engine: 0,
                stream: 1,
                label: "cmd-4".into(),
            },
            AnalysisRecord::CopyBegin {
                time: t(11),
                device: 0,
                engine: 0,
                stream: 2,
                label: "cmd-5".into(),
            },
            AnalysisRecord::CoalesceOp {
                time: t(9),
                gvm: "gvm".into(),
                device: 0,
                h2d: true,
                total: 12288,
                ranks: vec![0, 1],
                offsets: vec![0, 4096],
                lens: vec![4096, 8192],
                bufs: vec![3, 7],
                gens: vec![1, 1],
                cmds: vec![4, 5],
            },
        ]
    }

    fn with_op(mutate: impl FnOnce(&mut AnalysisRecord)) -> Vec<AnalysisRecord> {
        let mut recs = valid_trace();
        mutate(&mut recs[2]);
        recs
    }

    #[test]
    fn clean_manifest_passes() {
        assert!(check(&valid_trace()).is_empty());
    }

    #[test]
    fn gap_and_overlap_are_flagged() {
        let recs = with_op(|r| {
            if let AnalysisRecord::CoalesceOp { offsets, .. } = r {
                offsets[1] = 8192; // gap: previous span ends at 4096
            }
        });
        let diags = check(&recs);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("overlap or gap"));

        let recs = with_op(|r| {
            if let AnalysisRecord::CoalesceOp { offsets, .. } = r {
                offsets[1] = 2048; // overlap
            }
        });
        assert!(check(&recs)[0].message.contains("overlap or gap"));
    }

    #[test]
    fn length_sum_must_match_total() {
        let recs = with_op(|r| {
            if let AnalysisRecord::CoalesceOp { total, .. } = r {
                *total = 999;
            }
        });
        let diags = check(&recs);
        assert!(
            diags.iter().any(|d| d.message.contains("sum to")),
            "{diags:?}"
        );
    }

    #[test]
    fn duplicate_rank_is_flagged() {
        let recs = with_op(|r| {
            if let AnalysisRecord::CoalesceOp { ranks, .. } = r {
                ranks[1] = 0;
            }
        });
        let diags = check(&recs);
        assert!(
            diags.iter().any(|d| d.message.contains("more than once")),
            "{diags:?}"
        );
    }

    #[test]
    fn missing_engine_command_is_flagged() {
        // Wrong engine: manifest says H2D but cmd-5 only exists on engine 0;
        // flip the manifest to D2H so both lookups miss.
        let recs = with_op(|r| {
            if let AnalysisRecord::CoalesceOp { h2d, .. } = r {
                *h2d = false;
            }
        });
        let diags = check(&recs);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags[0].message.contains("no CopyBegin"));
    }

    #[test]
    fn single_member_manifest_is_flagged() {
        let recs = with_op(|r| {
            if let AnalysisRecord::CoalesceOp {
                total,
                ranks,
                offsets,
                lens,
                bufs,
                gens,
                cmds,
                ..
            } = r
            {
                *total = 4096;
                for v in [ranks, offsets, lens, bufs, gens, cmds] {
                    v.truncate(1);
                }
            }
        });
        let diags = check(&recs);
        assert!(
            diags.iter().any(|d| d.message.contains("at least 2")),
            "{diags:?}"
        );
    }

    #[test]
    fn stale_generation_is_flagged() {
        let mut recs = valid_trace();
        recs.insert(
            0,
            AnalysisRecord::DescGrant {
                time: t(1),
                gvm: "gvm".into(),
                rank: 1,
                segment: "/gvm-shm-1".into(),
                buf: 7,
                len: 8192,
                generation: 2, // manifest fuses buf 7 at generation 1
            },
        );
        let diags = check(&recs);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("stale lease"));
    }

    #[test]
    fn unadmitted_member_under_quota_is_flagged() {
        let mut recs = valid_trace();
        // Quota-enforcing gvm: rank 0 charged, rank 1 never charged.
        recs.insert(
            0,
            AnalysisRecord::QuotaSet {
                time: t(0),
                gvm: "gvm".into(),
                rank: 0,
                quota: 1 << 20,
                demand: 4096,
            },
        );
        recs.insert(
            1,
            AnalysisRecord::QuotaCharge {
                time: t(1),
                gvm: "gvm".into(),
                rank: 0,
                bytes: 4096,
                charged: 4096,
            },
        );
        let diags = check(&recs);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("quota admission boundary"));
        assert!(diags[0].message.contains("rank 1"));
    }

    #[test]
    fn fusing_in_a_swapping_gvm_is_flagged() {
        let mut recs = valid_trace();
        recs.insert(
            0,
            AnalysisRecord::SwapOut {
                time: t(2),
                gvm: "gvm".into(),
                device: 0,
                buf: 9,
                bytes: 8192,
            },
        );
        let diags = check(&recs);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("disabled under swap"));
    }

    #[test]
    fn arity_mismatch_short_circuits() {
        let recs = with_op(|r| {
            if let AnalysisRecord::CoalesceOp { cmds, .. } = r {
                cmds.pop();
            }
        });
        let diags = check(&recs);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("mismatched arity"));
    }

    #[test]
    fn foreign_gvm_state_does_not_leak() {
        // Grants/quota/swap on another instance must not affect this one.
        let mut recs = valid_trace();
        recs.insert(
            0,
            AnalysisRecord::SwapOut {
                time: t(2),
                gvm: "other".into(),
                device: 0,
                buf: 9,
                bytes: 8192,
            },
        );
        recs.insert(
            0,
            AnalysisRecord::QuotaSet {
                time: t(0),
                gvm: "other".into(),
                rank: 0,
                quota: 0,
                demand: 0,
            },
        );
        assert!(check(&recs).is_empty());
    }
}

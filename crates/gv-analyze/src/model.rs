//! Line-oriented dump format for [`AnalysisRecord`] traces.
//!
//! The harness writes one record per line so a run's analysis trace can be
//! archived and re-checked offline with the `gv-analyze` binary. The format
//! is deliberately hand-rolled (no external dependencies) and versioned by
//! the header line:
//!
//! ```text
//! gv-analyze-trace v1
//! device dev=0 maxk=16
//! shm t=2002000 pid=1 off=0 len=1024 rw=w clock=3,1 proc=spmd-0 seg=/gvm-0
//! proto t=2002000 rank=0 seq=1 kind=REQ gvm=gvm
//! flush t=4000000 ranks=0,1,2 gvm=gvm
//! evict t=9000000 rank=1 gvm=gvm
//! copyb t=100 dev=0 eng=0 stream=2 label=cmd-7
//! copye t=200 dev=0 eng=0 label=cmd-7
//! kernb t=300 dev=0 stream=2 label=vecadd-3
//! kerne t=400 dev=0 label=vecadd-3
//! ctxb t=410 dev=0 ctx=1
//! ctxe t=420 dev=0 ctx=1
//! alloc t=50 dev=0 id=1 bytes=4096
//! free t=500 dev=0 id=1
//! poolacq t=60 buf=3 bytes=8192 hit=1
//! plan t=70 rank=2 xfer=11 payload=8192 k=2 cap=4 adaptive=1
//! chunk t=80 dev=0 rank=2 xfer=11 dir=in off=0 len=4096 payload=8192 buf=3 label=cmd-12
//! poolrec t=600 buf=3
//! cdev dev=0 mem=6442450944 slots=16
//! cplace t=700 vgpu=3 tenant=1 gang=2 dev=0 wave=0 mem=4096
//! cevict t=800 vgpu=3 dev=0
//! qset t=0 rank=2 quota=8192 demand=4096 gvm=gvm
//! qcharge t=820 rank=2 bytes=4096 charged=4096 gvm=gvm
//! qcredit t=840 rank=2 bytes=4096 charged=0 gvm=gvm
//! swapout t=860 dev=0 buf=5 bytes=4096 gvm=gvm
//! swapin t=880 dev=0 buf=5 bytes=4096 gvm=gvm
//! dlwait t=900 pid=2 kind=recv holders=1 proc=spmd-0 res=/gvm-req
//! dlock t=900 cycle=1,2,1
//! nlost t=850 res=ready-cq
//! fault t=950 label=evict:rank1
//! runend t=1000 completed=0 deadlocked=1
//! ```
//!
//! Free-text fields (process and segment names, command labels) are
//! percent-escaped so embedded whitespace cannot break the framing.

use gv_sim::{AnalysisRecord, Pid, SimTime, VClock, WaitKind};
use gv_virt::protocol::RequestKind;

/// Header line identifying the format and version.
pub const HEADER: &str = "gv-analyze-trace v1";

/// A malformed dump file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DumpParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong.
    pub reason: String,
}

impl std::fmt::Display for DumpParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dump parse error at line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for DumpParseError {}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '%' => out.push_str("%25"),
            ' ' => out.push_str("%20"),
            '\n' => out.push_str("%0A"),
            _ => out.push(c),
        }
    }
    out
}

fn unesc(s: &str) -> String {
    s.replace("%20", " ")
        .replace("%0A", "\n")
        .replace("%25", "%")
}

fn clock_str(c: &VClock) -> String {
    c.components()
        .iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

/// Serialize `records` to the dump format (header included).
pub fn to_dump(records: &[AnalysisRecord]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "{HEADER}");
    for rec in records {
        match rec {
            AnalysisRecord::ShmAccess {
                time,
                pid,
                process,
                segment,
                offset,
                len,
                is_write,
                clock,
            } => {
                let _ = writeln!(
                    out,
                    "shm t={} pid={} off={} len={} rw={} clock={} proc={} seg={}",
                    time.as_nanos(),
                    pid.index(),
                    offset,
                    len,
                    if *is_write { 'w' } else { 'r' },
                    clock_str(clock),
                    esc(process),
                    esc(segment),
                );
            }
            AnalysisRecord::Proto {
                time,
                gvm,
                rank,
                kind,
                seq,
            } => {
                let _ = writeln!(
                    out,
                    "proto t={} rank={rank} seq={seq} kind={kind} gvm={}",
                    time.as_nanos(),
                    esc(gvm)
                );
            }
            AnalysisRecord::ProtoSched {
                time,
                gvm,
                policy,
                partial,
            } => {
                let _ = writeln!(
                    out,
                    "sched t={} partial={} policy={} gvm={}",
                    time.as_nanos(),
                    u8::from(*partial),
                    esc(policy),
                    esc(gvm),
                );
            }
            AnalysisRecord::ProtoFlush { time, gvm, ranks } => {
                let list = ranks
                    .iter()
                    .map(|r| r.to_string())
                    .collect::<Vec<_>>()
                    .join(",");
                let _ = writeln!(
                    out,
                    "flush t={} ranks={list} gvm={}",
                    time.as_nanos(),
                    esc(gvm)
                );
            }
            AnalysisRecord::ProtoEvict { time, gvm, rank } => {
                let _ = writeln!(
                    out,
                    "evict t={} rank={rank} gvm={}",
                    time.as_nanos(),
                    esc(gvm)
                );
            }
            AnalysisRecord::DeviceRegistered {
                device,
                max_concurrent_kernels,
            } => {
                let _ = writeln!(out, "device dev={device} maxk={max_concurrent_kernels}");
            }
            AnalysisRecord::CopyBegin {
                time,
                device,
                engine,
                stream,
                label,
            } => {
                let _ = writeln!(
                    out,
                    "copyb t={} dev={device} eng={engine} stream={stream} label={}",
                    time.as_nanos(),
                    esc(label)
                );
            }
            AnalysisRecord::CopyEnd {
                time,
                device,
                engine,
                label,
            } => {
                let _ = writeln!(
                    out,
                    "copye t={} dev={device} eng={engine} label={}",
                    time.as_nanos(),
                    esc(label)
                );
            }
            AnalysisRecord::KernelBegin {
                time,
                device,
                stream,
                label,
            } => {
                let _ = writeln!(
                    out,
                    "kernb t={} dev={device} stream={stream} label={}",
                    time.as_nanos(),
                    esc(label)
                );
            }
            AnalysisRecord::KernelEnd {
                time,
                device,
                label,
            } => {
                let _ = writeln!(
                    out,
                    "kerne t={} dev={device} label={}",
                    time.as_nanos(),
                    esc(label)
                );
            }
            AnalysisRecord::CtxSwitchBegin { time, device, ctx } => {
                let _ = writeln!(out, "ctxb t={} dev={device} ctx={ctx}", time.as_nanos());
            }
            AnalysisRecord::CtxSwitchEnd { time, device, ctx } => {
                let _ = writeln!(out, "ctxe t={} dev={device} ctx={ctx}", time.as_nanos());
            }
            AnalysisRecord::Fault { time, label } => {
                let _ = writeln!(out, "fault t={} label={}", time.as_nanos(), esc(label));
            }
            AnalysisRecord::Alloc {
                time,
                device,
                id,
                bytes,
            } => {
                let _ = writeln!(
                    out,
                    "alloc t={} dev={device} id={id} bytes={bytes}",
                    time.as_nanos()
                );
            }
            AnalysisRecord::Free { time, device, id } => {
                let _ = writeln!(out, "free t={} dev={device} id={id}", time.as_nanos());
            }
            AnalysisRecord::StageChunk {
                time,
                device,
                rank,
                xfer,
                h2d,
                offset,
                len,
                payload,
                buf,
                label,
            } => {
                let _ = writeln!(
                    out,
                    "chunk t={} dev={device} rank={rank} xfer={xfer} dir={} off={offset} \
                     len={len} payload={payload} buf={buf} label={}",
                    time.as_nanos(),
                    if *h2d { "in" } else { "out" },
                    esc(label)
                );
            }
            AnalysisRecord::StagePlan {
                time,
                rank,
                xfer,
                payload,
                k,
                cap,
                adaptive,
            } => {
                let _ = writeln!(
                    out,
                    "plan t={} rank={rank} xfer={xfer} payload={payload} k={k} cap={cap} \
                     adaptive={}",
                    time.as_nanos(),
                    u8::from(*adaptive)
                );
            }
            AnalysisRecord::PoolAcquire {
                time,
                buf,
                bytes,
                hit,
            } => {
                let _ = writeln!(
                    out,
                    "poolacq t={} buf={buf} bytes={bytes} hit={}",
                    time.as_nanos(),
                    u8::from(*hit)
                );
            }
            AnalysisRecord::PoolRecycle { time, buf } => {
                let _ = writeln!(out, "poolrec t={} buf={buf}", time.as_nanos());
            }
            AnalysisRecord::ClusterDevice {
                device,
                mem_bytes,
                kernel_slots,
            } => {
                let _ = writeln!(
                    out,
                    "cdev dev={device} mem={mem_bytes} slots={kernel_slots}"
                );
            }
            AnalysisRecord::ClusterPlace {
                time,
                vgpu,
                tenant,
                gang,
                device,
                wave,
                mem_bytes,
            } => {
                let gang = gang.map_or_else(|| "-".to_string(), |g| g.to_string());
                let _ = writeln!(
                    out,
                    "cplace t={} vgpu={vgpu} tenant={tenant} gang={gang} dev={device} \
                     wave={wave} mem={mem_bytes}",
                    time.as_nanos()
                );
            }
            AnalysisRecord::ClusterEvict { time, vgpu, device } => {
                let _ = writeln!(out, "cevict t={} vgpu={vgpu} dev={device}", time.as_nanos());
            }
            AnalysisRecord::QuotaSet {
                time,
                gvm,
                rank,
                quota,
                demand,
            } => {
                let _ = writeln!(
                    out,
                    "qset t={} rank={rank} quota={quota} demand={demand} gvm={}",
                    time.as_nanos(),
                    esc(gvm)
                );
            }
            AnalysisRecord::QuotaCharge {
                time,
                gvm,
                rank,
                bytes,
                charged,
            } => {
                let _ = writeln!(
                    out,
                    "qcharge t={} rank={rank} bytes={bytes} charged={charged} gvm={}",
                    time.as_nanos(),
                    esc(gvm)
                );
            }
            AnalysisRecord::QuotaCredit {
                time,
                gvm,
                rank,
                bytes,
                charged,
            } => {
                let _ = writeln!(
                    out,
                    "qcredit t={} rank={rank} bytes={bytes} charged={charged} gvm={}",
                    time.as_nanos(),
                    esc(gvm)
                );
            }
            AnalysisRecord::SwapOut {
                time,
                gvm,
                device,
                buf,
                bytes,
            } => {
                let _ = writeln!(
                    out,
                    "swapout t={} dev={device} buf={buf} bytes={bytes} gvm={}",
                    time.as_nanos(),
                    esc(gvm)
                );
            }
            AnalysisRecord::SwapIn {
                time,
                gvm,
                device,
                buf,
                bytes,
            } => {
                let _ = writeln!(
                    out,
                    "swapin t={} dev={device} buf={buf} bytes={bytes} gvm={}",
                    time.as_nanos(),
                    esc(gvm)
                );
            }
            AnalysisRecord::DescGrant {
                time,
                gvm,
                rank,
                segment,
                buf,
                generation,
                len,
            } => {
                let _ = writeln!(
                    out,
                    "dgrant t={} rank={rank} buf={buf} gen={generation} len={len} seg={} gvm={}",
                    time.as_nanos(),
                    esc(segment),
                    esc(gvm),
                );
            }
            AnalysisRecord::DescUse {
                time,
                gvm,
                rank,
                buf,
                generation,
                ok,
            } => {
                let _ = writeln!(
                    out,
                    "duse t={} rank={rank} buf={buf} gen={generation} ok={} gvm={}",
                    time.as_nanos(),
                    u8::from(*ok),
                    esc(gvm),
                );
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
                let list = |v: &[u64]| {
                    v.iter()
                        .map(|x| x.to_string())
                        .collect::<Vec<_>>()
                        .join(",")
                };
                let _ = writeln!(
                    out,
                    "cop t={} dev={device} dir={} total={total} ranks={} offs={} lens={} \
                     bufs={} gens={} cmds={} gvm={}",
                    time.as_nanos(),
                    if *h2d { "in" } else { "out" },
                    list(ranks),
                    list(offsets),
                    list(lens),
                    list(bufs),
                    list(gens),
                    list(cmds),
                    esc(gvm),
                );
            }
            AnalysisRecord::DeadlockWaiter {
                time,
                pid,
                process,
                kind,
                resource,
                holders,
            } => {
                let list = holders
                    .iter()
                    .map(|p| p.index().to_string())
                    .collect::<Vec<_>>()
                    .join(",");
                let _ = writeln!(
                    out,
                    "dlwait t={} pid={} kind={} holders={list} proc={} res={}",
                    time.as_nanos(),
                    pid.index(),
                    kind.label(),
                    esc(process),
                    esc(resource),
                );
            }
            AnalysisRecord::Deadlock { time, cycle } => {
                let list = cycle
                    .iter()
                    .map(|p| p.index().to_string())
                    .collect::<Vec<_>>()
                    .join(",");
                let _ = writeln!(out, "dlock t={} cycle={list}", time.as_nanos());
            }
            AnalysisRecord::NotifyLost { time, resource } => {
                let _ = writeln!(out, "nlost t={} res={}", time.as_nanos(), esc(resource));
            }
            AnalysisRecord::RunEnd {
                time,
                completed,
                deadlocked,
            } => {
                let _ = writeln!(
                    out,
                    "runend t={} completed={} deadlocked={}",
                    time.as_nanos(),
                    u8::from(*completed),
                    u8::from(*deadlocked),
                );
            }
        }
    }
    out
}

struct Fields<'a> {
    line_no: usize,
    fields: Vec<(&'a str, &'a str)>,
}

impl<'a> Fields<'a> {
    fn parse(line_no: usize, rest: &'a str) -> Result<Self, DumpParseError> {
        let mut fields = Vec::new();
        for tok in rest.split_whitespace() {
            let (k, v) = tok.split_once('=').ok_or_else(|| DumpParseError {
                line: line_no,
                reason: format!("expected key=value, got '{tok}'"),
            })?;
            fields.push((k, v));
        }
        Ok(Fields { line_no, fields })
    }

    fn get(&self, key: &str) -> Result<&'a str, DumpParseError> {
        self.fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .ok_or_else(|| DumpParseError {
                line: self.line_no,
                reason: format!("missing field '{key}'"),
            })
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, DumpParseError> {
        self.get(key)?.parse().map_err(|_| DumpParseError {
            line: self.line_no,
            reason: format!("field '{key}' is not a valid number"),
        })
    }

    fn time(&self) -> Result<SimTime, DumpParseError> {
        Ok(SimTime::from_nanos(self.num::<u64>("t")?))
    }

    fn num_list<T: std::str::FromStr>(&self, key: &str) -> Result<Vec<T>, DumpParseError> {
        let raw = self.get(key)?;
        if raw.is_empty() {
            return Ok(Vec::new());
        }
        raw.split(',')
            .map(|p| {
                p.parse().map_err(|_| DumpParseError {
                    line: self.line_no,
                    reason: format!("field '{key}' has a non-numeric element '{p}'"),
                })
            })
            .collect()
    }
}

/// Parse a dump produced by [`to_dump`].
pub fn parse_dump(text: &str) -> Result<Vec<AnalysisRecord>, DumpParseError> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, h)) if h.trim() == HEADER => {}
        other => {
            return Err(DumpParseError {
                line: 1,
                reason: format!(
                    "missing header '{HEADER}' (got {:?})",
                    other.map(|(_, l)| l).unwrap_or("<empty>")
                ),
            })
        }
    }

    let mut records = Vec::new();
    for (idx, line) in lines {
        let line_no = idx + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
        let f = Fields::parse(line_no, rest)?;
        let rec = match tag {
            "shm" => AnalysisRecord::ShmAccess {
                time: f.time()?,
                pid: Pid::from_index(f.num("pid")?),
                process: unesc(f.get("proc")?),
                segment: unesc(f.get("seg")?),
                offset: f.num("off")?,
                len: f.num("len")?,
                is_write: match f.get("rw")? {
                    "w" => true,
                    "r" => false,
                    other => {
                        return Err(DumpParseError {
                            line: line_no,
                            reason: format!("field 'rw' must be 'r' or 'w', got '{other}'"),
                        })
                    }
                },
                clock: VClock::from_components(f.num_list("clock")?),
            },
            "proto" => {
                let raw = f.get("kind")?;
                let kind = RequestKind::from_label(raw)
                    .map(RequestKind::label)
                    .ok_or_else(|| DumpParseError {
                        line: line_no,
                        reason: format!("unknown request kind '{raw}'"),
                    })?;
                AnalysisRecord::Proto {
                    time: f.time()?,
                    gvm: unesc(f.get("gvm")?),
                    rank: f.num("rank")?,
                    kind,
                    seq: f.num("seq")?,
                }
            }
            "sched" => AnalysisRecord::ProtoSched {
                time: f.time()?,
                gvm: unesc(f.get("gvm")?),
                policy: unesc(f.get("policy")?),
                partial: match f.get("partial")? {
                    "1" => true,
                    "0" => false,
                    other => {
                        return Err(DumpParseError {
                            line: line_no,
                            reason: format!("field 'partial' must be '0' or '1', got '{other}'"),
                        })
                    }
                },
            },
            "flush" => AnalysisRecord::ProtoFlush {
                time: f.time()?,
                gvm: unesc(f.get("gvm")?),
                ranks: f.num_list("ranks")?,
            },
            "evict" => AnalysisRecord::ProtoEvict {
                time: f.time()?,
                gvm: unesc(f.get("gvm")?),
                rank: f.num("rank")?,
            },
            "device" => AnalysisRecord::DeviceRegistered {
                device: f.num("dev")?,
                max_concurrent_kernels: f.num("maxk")?,
            },
            "copyb" => AnalysisRecord::CopyBegin {
                time: f.time()?,
                device: f.num("dev")?,
                engine: f.num("eng")?,
                stream: f.num("stream")?,
                label: unesc(f.get("label")?),
            },
            "copye" => AnalysisRecord::CopyEnd {
                time: f.time()?,
                device: f.num("dev")?,
                engine: f.num("eng")?,
                label: unesc(f.get("label")?),
            },
            "kernb" => AnalysisRecord::KernelBegin {
                time: f.time()?,
                device: f.num("dev")?,
                stream: f.num("stream")?,
                label: unesc(f.get("label")?),
            },
            "kerne" => AnalysisRecord::KernelEnd {
                time: f.time()?,
                device: f.num("dev")?,
                label: unesc(f.get("label")?),
            },
            "ctxb" => AnalysisRecord::CtxSwitchBegin {
                time: f.time()?,
                device: f.num("dev")?,
                ctx: f.num("ctx")?,
            },
            "ctxe" => AnalysisRecord::CtxSwitchEnd {
                time: f.time()?,
                device: f.num("dev")?,
                ctx: f.num("ctx")?,
            },
            "fault" => AnalysisRecord::Fault {
                time: f.time()?,
                label: unesc(f.get("label")?),
            },
            "alloc" => AnalysisRecord::Alloc {
                time: f.time()?,
                device: f.num("dev")?,
                id: f.num("id")?,
                bytes: f.num("bytes")?,
            },
            "free" => AnalysisRecord::Free {
                time: f.time()?,
                device: f.num("dev")?,
                id: f.num("id")?,
            },
            "chunk" => AnalysisRecord::StageChunk {
                time: f.time()?,
                device: f.num("dev")?,
                rank: f.num("rank")?,
                xfer: f.num("xfer")?,
                h2d: match f.get("dir")? {
                    "in" => true,
                    "out" => false,
                    other => {
                        return Err(DumpParseError {
                            line: line_no,
                            reason: format!("field 'dir' must be 'in' or 'out', got '{other}'"),
                        })
                    }
                },
                offset: f.num("off")?,
                len: f.num("len")?,
                payload: f.num("payload")?,
                buf: f.num("buf")?,
                label: unesc(f.get("label")?),
            },
            "plan" => AnalysisRecord::StagePlan {
                time: f.time()?,
                rank: f.num("rank")?,
                xfer: f.num("xfer")?,
                payload: f.num("payload")?,
                k: f.num("k")?,
                cap: f.num("cap")?,
                adaptive: match f.get("adaptive")? {
                    "1" => true,
                    "0" => false,
                    other => {
                        return Err(DumpParseError {
                            line: line_no,
                            reason: format!("field 'adaptive' must be '0' or '1', got '{other}'"),
                        })
                    }
                },
            },
            "poolacq" => AnalysisRecord::PoolAcquire {
                time: f.time()?,
                buf: f.num("buf")?,
                bytes: f.num("bytes")?,
                hit: match f.get("hit")? {
                    "1" => true,
                    "0" => false,
                    other => {
                        return Err(DumpParseError {
                            line: line_no,
                            reason: format!("field 'hit' must be '0' or '1', got '{other}'"),
                        })
                    }
                },
            },
            "poolrec" => AnalysisRecord::PoolRecycle {
                time: f.time()?,
                buf: f.num("buf")?,
            },
            "cdev" => AnalysisRecord::ClusterDevice {
                device: f.num("dev")?,
                mem_bytes: f.num("mem")?,
                kernel_slots: f.num("slots")?,
            },
            "cplace" => AnalysisRecord::ClusterPlace {
                time: f.time()?,
                vgpu: f.num("vgpu")?,
                tenant: f.num("tenant")?,
                gang: match f.get("gang")? {
                    "-" => None,
                    _ => Some(f.num("gang")?),
                },
                device: f.num("dev")?,
                wave: f.num("wave")?,
                mem_bytes: f.num("mem")?,
            },
            "cevict" => AnalysisRecord::ClusterEvict {
                time: f.time()?,
                vgpu: f.num("vgpu")?,
                device: f.num("dev")?,
            },
            "qset" => AnalysisRecord::QuotaSet {
                time: f.time()?,
                gvm: unesc(f.get("gvm")?),
                rank: f.num("rank")?,
                quota: f.num("quota")?,
                demand: f.num("demand")?,
            },
            "qcharge" => AnalysisRecord::QuotaCharge {
                time: f.time()?,
                gvm: unesc(f.get("gvm")?),
                rank: f.num("rank")?,
                bytes: f.num("bytes")?,
                charged: f.num("charged")?,
            },
            "qcredit" => AnalysisRecord::QuotaCredit {
                time: f.time()?,
                gvm: unesc(f.get("gvm")?),
                rank: f.num("rank")?,
                bytes: f.num("bytes")?,
                charged: f.num("charged")?,
            },
            "swapout" => AnalysisRecord::SwapOut {
                time: f.time()?,
                gvm: unesc(f.get("gvm")?),
                device: f.num("dev")?,
                buf: f.num("buf")?,
                bytes: f.num("bytes")?,
            },
            "swapin" => AnalysisRecord::SwapIn {
                time: f.time()?,
                gvm: unesc(f.get("gvm")?),
                device: f.num("dev")?,
                buf: f.num("buf")?,
                bytes: f.num("bytes")?,
            },
            "dgrant" => AnalysisRecord::DescGrant {
                time: f.time()?,
                gvm: unesc(f.get("gvm")?),
                rank: f.num("rank")?,
                segment: unesc(f.get("seg")?),
                buf: f.num("buf")?,
                generation: f.num("gen")?,
                len: f.num("len")?,
            },
            "duse" => AnalysisRecord::DescUse {
                time: f.time()?,
                gvm: unesc(f.get("gvm")?),
                rank: f.num("rank")?,
                buf: f.num("buf")?,
                generation: f.num("gen")?,
                ok: match f.get("ok")? {
                    "1" => true,
                    "0" => false,
                    other => {
                        return Err(DumpParseError {
                            line: line_no,
                            reason: format!("field 'ok' must be '0' or '1', got '{other}'"),
                        })
                    }
                },
            },
            "cop" => AnalysisRecord::CoalesceOp {
                time: f.time()?,
                gvm: unesc(f.get("gvm")?),
                device: f.num("dev")?,
                h2d: match f.get("dir")? {
                    "in" => true,
                    "out" => false,
                    other => {
                        return Err(DumpParseError {
                            line: line_no,
                            reason: format!("field 'dir' must be 'in' or 'out', got '{other}'"),
                        })
                    }
                },
                total: f.num("total")?,
                ranks: f.num_list("ranks")?,
                offsets: f.num_list("offs")?,
                lens: f.num_list("lens")?,
                bufs: f.num_list("bufs")?,
                gens: f.num_list("gens")?,
                cmds: f.num_list("cmds")?,
            },
            "dlwait" => {
                let raw = f.get("kind")?;
                let kind = WaitKind::from_label(raw).ok_or_else(|| DumpParseError {
                    line: line_no,
                    reason: format!("unknown wait kind '{raw}'"),
                })?;
                AnalysisRecord::DeadlockWaiter {
                    time: f.time()?,
                    pid: Pid::from_index(f.num("pid")?),
                    process: unesc(f.get("proc")?),
                    kind,
                    resource: unesc(f.get("res")?),
                    holders: f
                        .num_list::<usize>("holders")?
                        .into_iter()
                        .map(Pid::from_index)
                        .collect(),
                }
            }
            "dlock" => AnalysisRecord::Deadlock {
                time: f.time()?,
                cycle: f
                    .num_list::<usize>("cycle")?
                    .into_iter()
                    .map(Pid::from_index)
                    .collect(),
            },
            "nlost" => AnalysisRecord::NotifyLost {
                time: f.time()?,
                resource: unesc(f.get("res")?),
            },
            "runend" => AnalysisRecord::RunEnd {
                time: f.time()?,
                completed: match f.get("completed")? {
                    "1" => true,
                    "0" => false,
                    other => {
                        return Err(DumpParseError {
                            line: line_no,
                            reason: format!("field 'completed' must be '0' or '1', got '{other}'"),
                        })
                    }
                },
                deadlocked: match f.get("deadlocked")? {
                    "1" => true,
                    "0" => false,
                    other => {
                        return Err(DumpParseError {
                            line: line_no,
                            reason: format!("field 'deadlocked' must be '0' or '1', got '{other}'"),
                        })
                    }
                },
            },
            other => {
                return Err(DumpParseError {
                    line: line_no,
                    reason: format!("unknown record tag '{other}'"),
                })
            }
        };
        records.push(rec);
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<AnalysisRecord> {
        vec![
            AnalysisRecord::DeviceRegistered {
                device: 0,
                max_concurrent_kernels: 16,
            },
            AnalysisRecord::ShmAccess {
                time: SimTime::from_nanos(2_002_000),
                pid: Pid::from_index(3),
                process: "spmd 1".to_string(), // space exercises escaping
                segment: "/gvm-shm-1".to_string(),
                offset: 0,
                len: 1024,
                is_write: true,
                clock: VClock::from_components(vec![3, 0, 1]),
            },
            AnalysisRecord::ProtoSched {
                time: SimTime::from_nanos(5),
                gvm: "gvm a".to_string(), // space exercises escaping
                policy: "sjf".to_string(),
                partial: true,
            },
            AnalysisRecord::Proto {
                time: SimTime::from_nanos(10),
                gvm: "gvm a".to_string(),
                rank: 2,
                kind: "STR",
                seq: 7,
            },
            AnalysisRecord::ProtoFlush {
                time: SimTime::from_nanos(20),
                gvm: "gvm a".to_string(),
                ranks: vec![0, 1, 2],
            },
            AnalysisRecord::ProtoEvict {
                time: SimTime::from_nanos(30),
                gvm: "gvm a".to_string(),
                rank: 1,
            },
            AnalysisRecord::CopyBegin {
                time: SimTime::from_nanos(40),
                device: 0,
                engine: 1,
                stream: 4,
                label: "cmd-9".to_string(),
            },
            AnalysisRecord::CopyEnd {
                time: SimTime::from_nanos(50),
                device: 0,
                engine: 1,
                label: "cmd-9".to_string(),
            },
            AnalysisRecord::KernelBegin {
                time: SimTime::from_nanos(60),
                device: 0,
                stream: 4,
                label: "vecadd-3".to_string(),
            },
            AnalysisRecord::KernelEnd {
                time: SimTime::from_nanos(70),
                device: 0,
                label: "vecadd-3".to_string(),
            },
            AnalysisRecord::CtxSwitchBegin {
                time: SimTime::from_nanos(72),
                device: 0,
                ctx: 2,
            },
            AnalysisRecord::CtxSwitchEnd {
                time: SimTime::from_nanos(74),
                device: 0,
                ctx: 2,
            },
            AnalysisRecord::Fault {
                time: SimTime::from_nanos(76),
                label: "mq-drop:/gvm req#0".to_string(), // space exercises escaping
            },
            AnalysisRecord::Alloc {
                time: SimTime::from_nanos(80),
                device: 0,
                id: 5,
                bytes: 4096,
            },
            AnalysisRecord::Free {
                time: SimTime::from_nanos(90),
                device: 0,
                id: 5,
            },
            AnalysisRecord::PoolAcquire {
                time: SimTime::from_nanos(95),
                buf: 3,
                bytes: 8192,
                hit: true,
            },
            AnalysisRecord::StagePlan {
                time: SimTime::from_nanos(98),
                rank: 2,
                xfer: 11,
                payload: 8192,
                k: 2,
                cap: 4,
                adaptive: true,
            },
            AnalysisRecord::StageChunk {
                time: SimTime::from_nanos(100),
                device: 0,
                rank: 2,
                xfer: 11,
                h2d: true,
                offset: 4096,
                len: 4096,
                payload: 8192,
                buf: 3,
                label: "cmd-12".to_string(),
            },
            AnalysisRecord::StageChunk {
                time: SimTime::from_nanos(105),
                device: 0,
                rank: 2,
                xfer: 12,
                h2d: false,
                offset: 0,
                len: 8192,
                payload: 8192,
                buf: 0,
                label: String::new(),
            },
            AnalysisRecord::PoolRecycle {
                time: SimTime::from_nanos(110),
                buf: 3,
            },
            AnalysisRecord::ClusterDevice {
                device: 1,
                mem_bytes: 6_442_450_944,
                kernel_slots: 16,
            },
            AnalysisRecord::ClusterPlace {
                time: SimTime::from_nanos(120),
                vgpu: 42,
                tenant: 3,
                gang: Some(2),
                device: 1,
                wave: 0,
                mem_bytes: 4096,
            },
            AnalysisRecord::ClusterPlace {
                time: SimTime::from_nanos(125),
                vgpu: 43,
                tenant: 3,
                gang: None, // gangless placement exercises the '-' encoding
                device: 1,
                wave: 1,
                mem_bytes: 8192,
            },
            AnalysisRecord::ClusterEvict {
                time: SimTime::from_nanos(130),
                vgpu: 42,
                device: 1,
            },
            AnalysisRecord::QuotaSet {
                time: SimTime::from_nanos(131),
                gvm: "gvm a".to_string(), // space exercises escaping
                rank: 2,
                quota: 8192,
                demand: 4096,
            },
            AnalysisRecord::QuotaCharge {
                time: SimTime::from_nanos(132),
                gvm: "gvm a".to_string(),
                rank: 2,
                bytes: 4096,
                charged: 4096,
            },
            AnalysisRecord::SwapOut {
                time: SimTime::from_nanos(133),
                gvm: "gvm a".to_string(),
                device: 1,
                buf: 5,
                bytes: 4096,
            },
            AnalysisRecord::SwapIn {
                time: SimTime::from_nanos(134),
                gvm: "gvm a".to_string(),
                device: 1,
                buf: 5,
                bytes: 4096,
            },
            AnalysisRecord::QuotaCredit {
                time: SimTime::from_nanos(134),
                gvm: "gvm a".to_string(),
                rank: 2,
                bytes: 4096,
                charged: 0,
            },
            AnalysisRecord::DescGrant {
                time: SimTime::from_nanos(134),
                gvm: "gvm a".to_string(), // space exercises escaping
                rank: 2,
                segment: "/gvm-shm-2".to_string(),
                buf: 7,
                generation: 3,
                len: 8192,
            },
            AnalysisRecord::DescUse {
                time: SimTime::from_nanos(135),
                gvm: "gvm a".to_string(),
                rank: 2,
                buf: 7,
                generation: 2,
                ok: false,
            },
            AnalysisRecord::CoalesceOp {
                time: SimTime::from_nanos(136),
                gvm: "gvm a".to_string(),
                device: 0,
                h2d: true,
                total: 12288,
                ranks: vec![0, 2],
                offsets: vec![0, 4096],
                lens: vec![4096, 8192],
                bufs: vec![3, 7],
                gens: vec![1, 3],
                cmds: vec![12, 13],
            },
            AnalysisRecord::NotifyLost {
                time: SimTime::from_nanos(135),
                resource: "ready cq".to_string(), // space exercises escaping
            },
            AnalysisRecord::DeadlockWaiter {
                time: SimTime::from_nanos(140),
                pid: Pid::from_index(2),
                process: "spmd 0".to_string(),
                kind: WaitKind::Recv,
                resource: "/gvm-req".to_string(),
                holders: vec![Pid::from_index(1), Pid::from_index(3)],
            },
            AnalysisRecord::DeadlockWaiter {
                time: SimTime::from_nanos(140),
                pid: Pid::from_index(3),
                process: "gvm".to_string(),
                kind: WaitKind::Park,
                resource: String::new(), // empty resource exercises the empty field
                holders: Vec::new(),
            },
            AnalysisRecord::Deadlock {
                time: SimTime::from_nanos(140),
                cycle: vec![Pid::from_index(2), Pid::from_index(3), Pid::from_index(2)],
            },
            AnalysisRecord::RunEnd {
                time: SimTime::from_nanos(150),
                completed: false,
                deadlocked: true,
            },
        ]
    }

    #[test]
    fn roundtrip_preserves_records() {
        let recs = sample();
        let dump = to_dump(&recs);
        let back = parse_dump(&dump).unwrap();
        assert_eq!(back, recs);
    }

    #[test]
    fn missing_header_rejected() {
        let err = parse_dump("proto t=1 rank=0 seq=1 kind=REQ\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.reason.contains("missing header"));
    }

    #[test]
    fn bad_field_reports_line_number() {
        let text = format!("{HEADER}\nproto t=1 rank=zero seq=1 kind=REQ gvm=gvm\n");
        let err = parse_dump(&text).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.reason.contains("rank"));
    }

    #[test]
    fn unknown_tag_rejected() {
        let text = format!("{HEADER}\nwarp t=1\n");
        let err = parse_dump(&text).unwrap_err();
        assert!(err.reason.contains("unknown record tag"));
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let text = format!("{HEADER}\n\n# a comment\nevict t=5 rank=2 gvm=gvm\n");
        let recs = parse_dump(&text).unwrap();
        assert_eq!(recs.len(), 1);
    }
}

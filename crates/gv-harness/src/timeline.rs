//! Engine timelines: auditing the overlap the paper's Figs. 4–6 illustrate.
//!
//! A recording run's trace holds a begin and an end record for every DMA
//! transfer, kernel, and context switch. This module pairs them into a
//! per-engine timeline, renders an ASCII Gantt chart (the reproduction of
//! the paper's Fig. 4 / Fig. 5–6 execution diagrams), computes overlap
//! facts that tests assert on — under virtualization, transfers of one
//! process overlap kernels of another; under conventional sharing, context
//! episodes strictly serialize — and exports the same records as a Chrome
//! trace.

use std::borrow::Cow;
use std::fmt::Write;

use gv_sim::{AnalysisRecord, SimDuration, SimTime};

/// One completed engine activity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The stream the activity ran on (0 for context switches).
    pub track: u32,
    /// Start time.
    pub start: SimTime,
    /// End time.
    pub end: SimTime,
}

impl Span {
    /// Span length.
    pub fn duration(&self) -> SimDuration {
        self.end.duration_since(self.start)
    }

    /// Do two spans overlap in time (open intervals)?
    pub fn overlaps(&self, other: &Span) -> bool {
        self.start < other.end && other.start < self.end
    }
}

/// All spans of one run, split by engine.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// H2D engine transfers.
    pub h2d: Vec<Span>,
    /// D2H engine transfers.
    pub d2h: Vec<Span>,
    /// Kernel window residencies.
    pub kernels: Vec<Span>,
    /// Context-switch intervals.
    pub switches: Vec<Span>,
}

/// One span boundary. `lane` is its Chrome category. An end carries the
/// track and start of the begin it closes (FIFO per device, lane and
/// name); `closes` is `None` for a begin or an end with nothing open.
struct Edge<'a> {
    lane: &'static str,
    name: Cow<'a, str>,
    begin: bool,
    time: SimTime,
    track: u32,
    closes: Option<SimTime>,
}

/// The span boundaries among `records`, in record order. Copy lanes come
/// from the engine index: 0 is `h2d`, 1 is `d2h`.
fn edges(records: &[AnalysisRecord]) -> Vec<Edge<'_>> {
    use AnalysisRecord as R;
    let copy = |engine: &u8| if *engine == 0 { "h2d" } else { "d2h" };
    let mut open: Vec<(u32, &str, Cow<str>, u32, SimTime)> = Vec::new();
    let mut out = Vec::new();
    for rec in records {
        let (device, lane, name, time) = match rec {
            R::CopyBegin {
                time,
                device,
                engine,
                label,
                ..
            }
            | R::CopyEnd {
                time,
                device,
                engine,
                label,
            } => (device, copy(engine), label.into(), time),
            R::KernelBegin {
                time,
                device,
                label,
                ..
            }
            | R::KernelEnd {
                time,
                device,
                label,
            } => (device, "kernel", label.into(), time),
            R::CtxSwitchBegin { time, device, ctx } | R::CtxSwitchEnd { time, device, ctx } => {
                (device, "ctx-switch", format!("to-ctx-{ctx}").into(), time)
            }
            _ => continue,
        };
        let (device, time) = (*device, *time);
        let begin = match rec {
            R::CopyBegin { stream, .. } | R::KernelBegin { stream, .. } => Some(*stream),
            R::CtxSwitchBegin { .. } => Some(0),
            _ => None,
        };
        let (track, closes) = match begin {
            Some(track) => {
                open.push((device, lane, Cow::clone(&name), track, time));
                (track, None)
            }
            None => open
                .iter()
                .position(|o| (o.0, o.1, &o.2) == (device, lane, &name))
                .map(|i| open.remove(i))
                .map_or((0, None), |o| (o.3, Some(o.4))),
        };
        out.push(Edge {
            lane,
            name,
            begin: begin.is_some(),
            time,
            track,
            closes,
        });
    }
    out
}

impl Timeline {
    /// Pair a trace's engine span records into per-lane spans, each lane
    /// ordered by `(start, stream)`.
    pub fn from_records(records: &[AnalysisRecord]) -> Timeline {
        let mut tl = Timeline::default();
        for e in edges(records) {
            let Some(start) = e.closes else { continue };
            let lane = match e.lane {
                "h2d" => &mut tl.h2d,
                "d2h" => &mut tl.d2h,
                "kernel" => &mut tl.kernels,
                _ => &mut tl.switches,
            };
            lane.push(Span {
                track: e.track,
                start,
                end: e.time,
            });
        }
        for lane in [&mut tl.h2d, &mut tl.d2h, &mut tl.kernels, &mut tl.switches] {
            lane.sort_by_key(|s| (s.start, s.track));
        }
        tl
    }

    /// Earliest span start.
    pub fn start(&self) -> SimTime {
        self.all().map(|s| s.start).min().unwrap_or(SimTime::ZERO)
    }

    /// Latest span end.
    pub fn end(&self) -> SimTime {
        self.all().map(|s| s.end).max().unwrap_or(SimTime::ZERO)
    }

    fn all(&self) -> impl Iterator<Item = &Span> {
        self.h2d
            .iter()
            .chain(&self.d2h)
            .chain(&self.kernels)
            .chain(&self.switches)
    }

    /// Do any two kernel spans (from different streams) overlap? — the
    /// concurrent-kernel-execution witness.
    pub fn kernels_overlap(&self) -> bool {
        for (i, a) in self.kernels.iter().enumerate() {
            for b in &self.kernels[i + 1..] {
                if a.track != b.track && a.overlaps(b) {
                    return true;
                }
            }
        }
        false
    }

    /// Does any transfer overlap any kernel of a *different* stream? — the
    /// copy/compute-overlap witness.
    pub fn copy_overlaps_foreign_kernel(&self) -> bool {
        self.h2d.iter().chain(&self.d2h).any(|c| {
            self.kernels
                .iter()
                .any(|k| k.track != c.track && c.overlaps(k))
        })
    }

    /// Does any H2D transfer overlap any D2H transfer? — the bidirectional
    /// DMA witness.
    pub fn bidirectional_overlap(&self) -> bool {
        self.h2d
            .iter()
            .any(|a| self.d2h.iter().any(|b| a.overlaps(b)))
    }

    /// Total busy time of a span list in ms.
    pub fn busy_ms(spans: &[Span]) -> f64 {
        spans.iter().map(|s| s.duration().as_millis_f64()).sum()
    }

    /// Render an ASCII Gantt chart with `width` columns: one row per
    /// engine lane (H2D / D2H / one lane per kernel stream / switches).
    pub fn render_gantt(&self, width: usize) -> String {
        let start = self.start();
        let end = self.end();
        let total = end.duration_since(start).as_secs_f64();
        if total <= 0.0 {
            return String::from("(empty timeline)\n");
        }
        let col = |t: SimTime| -> usize {
            let frac = t.duration_since(start).as_secs_f64() / total;
            ((frac * width as f64) as usize).min(width - 1)
        };
        let mut out = String::new();
        let mut lane = |label: String, spans: &[Span], ch: char| {
            let mut row = vec![' '; width];
            for s in spans {
                let (a, b) = (col(s.start), col(s.end));
                for c in row.iter_mut().take(b + 1).skip(a) {
                    *c = ch;
                }
            }
            out.push_str(&format!(
                "{label:>12} |{}|\n",
                row.iter().collect::<String>()
            ));
        };
        lane("H2D".to_string(), &self.h2d, '=');
        lane("D2H".to_string(), &self.d2h, '-');
        let mut tracks: Vec<u32> = self.kernels.iter().map(|s| s.track).collect();
        tracks.sort_unstable();
        tracks.dedup();
        for t in tracks {
            let spans: Vec<Span> = self
                .kernels
                .iter()
                .filter(|s| s.track == t)
                .cloned()
                .collect();
            lane(format!("kernel s{t}"), &spans, '#');
        }
        lane("ctx switch".to_string(), &self.switches, 'X');
        out.push_str(&format!(
            "{:>12}  0 ms {:>width$.1} ms\n",
            "",
            end.duration_since(start).as_millis_f64(),
            width = width.saturating_sub(4)
        ));
        out
    }
}

/// Serialize a trace's engine spans as Chrome trace-event JSON (load in
/// `chrome://tracing` or Perfetto), in record order: each begin or end
/// becomes a `B` or `E` event on its stream's track, context switches on
/// track 0.
pub fn chrome_trace(records: &[AnalysisRecord]) -> String {
    let mut out = String::from("[");
    for (i, e) in edges(records).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{},\"pid\":1,\"tid\":{}}}",
            e.name.replace('"', "'"),
            e.lane,
            if e.begin { 'B' } else { 'E' },
            e.time.as_nanos() / 1_000, // µs
            e.track
        );
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    /// Begin/end records for `(lane, label, stream, start ms, end ms)`
    /// spans on device 0, all begins first. A `ctx-switch` span ignores
    /// `label` and takes `stream` as its target context.
    fn records(spans: &[(&str, &str, u32, u64, u64)]) -> Vec<AnalysisRecord> {
        let mut begins = Vec::new();
        let mut ends = Vec::new();
        for &(lane, label, stream, a, b) in spans {
            let (label, device) = (label.to_string(), 0);
            match lane {
                "kernel" => {
                    begins.push(AnalysisRecord::KernelBegin {
                        time: t(a),
                        device,
                        stream,
                        label: label.clone(),
                    });
                    ends.push(AnalysisRecord::KernelEnd {
                        time: t(b),
                        device,
                        label,
                    });
                }
                "ctx-switch" => {
                    begins.push(AnalysisRecord::CtxSwitchBegin {
                        time: t(a),
                        device,
                        ctx: stream,
                    });
                    ends.push(AnalysisRecord::CtxSwitchEnd {
                        time: t(b),
                        device,
                        ctx: stream,
                    });
                }
                _ => {
                    let engine = u8::from(lane == "d2h");
                    begins.push(AnalysisRecord::CopyBegin {
                        time: t(a),
                        device,
                        engine,
                        stream,
                        label: label.clone(),
                    });
                    ends.push(AnalysisRecord::CopyEnd {
                        time: t(b),
                        device,
                        engine,
                        label,
                    });
                }
            }
        }
        begins.extend(ends);
        begins
    }

    #[test]
    fn overlap_witnesses() {
        // Kernel on stream 1 [0,10]; H2D on stream 2 [5,8]; kernel on
        // stream 2 [8,12].
        let tl = Timeline::from_records(&records(&[
            ("kernel", "k-1", 1, 0, 10),
            ("h2d", "cmd-2", 2, 5, 8),
            ("kernel", "k-2", 2, 8, 12),
        ]));
        assert!(tl.kernels_overlap());
        assert!(tl.copy_overlaps_foreign_kernel());
        assert!(!tl.bidirectional_overlap());
        assert_eq!(tl.end(), t(12));
    }

    #[test]
    fn serialized_timeline_has_no_overlap() {
        let tl = Timeline::from_records(&records(&[
            ("kernel", "k-1", 1, 0, 5),
            ("ctx-switch", "", 2, 5, 7),
            ("kernel", "k-2", 2, 7, 12),
        ]));
        assert!(!tl.kernels_overlap());
        assert!(!tl.copy_overlaps_foreign_kernel());
        assert_eq!(
            tl.switches,
            [Span {
                track: 0,
                start: t(5),
                end: t(7)
            }]
        );
        assert_eq!(Timeline::busy_ms(&tl.switches), 2.0);
    }

    #[test]
    fn touching_spans_do_not_overlap() {
        let a = Span {
            track: 0,
            start: t(0),
            end: t(2),
        };
        let b = Span {
            track: 0,
            start: t(2),
            end: t(4),
        };
        assert!(!a.overlaps(&b));
        assert_eq!(b.duration(), SimDuration::from_millis(2));
    }

    #[test]
    fn gantt_renders_lanes() {
        let tl = Timeline::from_records(&records(&[
            ("h2d", "cmd-1", 1, 0, 4),
            ("kernel", "k-1", 1, 4, 10),
        ]));
        let g = tl.render_gantt(40);
        assert!(g.contains("H2D"));
        assert!(g.contains("kernel s1"));
        assert!(g.contains('='));
        assert!(g.contains('#'));
    }

    #[test]
    fn empty_timeline_renders_placeholder() {
        let tl = Timeline::default();
        assert_eq!(tl.render_gantt(40), "(empty timeline)\n");
    }

    #[test]
    fn chrome_trace_renders_spans_in_record_order() {
        let mut recs = records(&[
            ("h2d", "cmd-1", 3, 1, 2),
            ("kernel", "vec\"add-0", 3, 2, 5),
            ("d2h", "cmd-2", 4, 5, 6),
            ("ctx-switch", "", 7, 6, 8),
        ]);
        recs.insert(
            0,
            AnalysisRecord::DeviceRegistered {
                device: 0,
                max_concurrent_kernels: 16,
            },
        );
        let ev = |name: &str, cat: &str, ph: char, ms: u64, tid: u32| {
            format!(
                "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"{ph}\",\"ts\":{},\"pid\":1,\"tid\":{tid}}}",
                ms * 1000
            )
        };
        let want = [
            ev("cmd-1", "h2d", 'B', 1, 3),
            ev("vec'add-0", "kernel", 'B', 2, 3),
            ev("cmd-2", "d2h", 'B', 5, 4),
            ev("to-ctx-7", "ctx-switch", 'B', 6, 0),
            ev("cmd-1", "h2d", 'E', 2, 3),
            ev("vec'add-0", "kernel", 'E', 5, 3),
            ev("cmd-2", "d2h", 'E', 6, 4),
            ev("to-ctx-7", "ctx-switch", 'E', 8, 0),
        ];
        assert_eq!(chrome_trace(&recs), format!("[{}]", want.join(",")));
        assert_eq!(chrome_trace(&[]), "[]");
    }
}

//! Spans of the traced run, held in memory and written out when it ends.
//!
//! Each request gets one `pump` span (the real service path) and the spans of
//! its twin: `decode`, `route` (data requests), one apply span (`get`,
//! `update` or `scan`) and `encode`. The twin stages name the `pump` span they
//! attribute as their parent; what the pump spent beyond them is the mailbox
//! hop.

use std::fmt::Write as _;
use std::path::Path;

use flit_pmem::StatsSnapshot;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    Pump,
    Decode,
    Route,
    Get,
    Update,
    Scan,
    Encode,
}

impl Stage {
    fn name(self) -> &'static str {
        match self {
            Stage::Pump => "pump",
            Stage::Decode => "proto.decode",
            Stage::Route => "server.route",
            Stage::Get => "map.get",
            Stage::Update => "map.update",
            Stage::Scan => "map.scan",
            Stage::Encode => "proto.encode",
        }
    }

    fn parent(self) -> &'static str {
        match self {
            Stage::Pump => "-",
            _ => "pump",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub req: u32,
    pub stage: Stage,
    pub start_ns: u64,
    pub end_ns: u64,
    pub pwbs: u64,
    pub pfences: u64,
}

impl Span {
    pub fn new(req: u32, stage: Stage, start_ns: u64, end_ns: u64, d: &StatsSnapshot) -> Self {
        Self {
            req,
            stage,
            start_ns,
            end_ns,
            pwbs: d.pwbs,
            pfences: d.pfences,
        }
    }

    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Everything the traced run recorded.
pub struct Trace {
    pub spans: Vec<Span>,
    /// Data requests the twin routed to each shard.
    pub per_shard: Vec<u64>,
    pub req_bytes: u64,
    pub reply_bytes: u64,
    pub requests: u64,
    /// Persistence counters over the traced window, summed over shards.
    pub stats: StatsSnapshot,
    /// Per-request time of the traced pump, instrumentation included.
    pub traced_busy_ns: u64,
}

/// Count, pwbs and pfences of one stage's spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageCounts {
    pub spans: u64,
    pub pwbs: u64,
    pub pfences: u64,
}

impl Trace {
    pub fn new(shards: usize) -> Self {
        Self {
            spans: Vec::new(),
            per_shard: vec![0; shards],
            req_bytes: 0,
            reply_bytes: 0,
            requests: 0,
            stats: StatsSnapshot::default(),
            traced_busy_ns: 0,
        }
    }

    /// Median duration of one stage's spans, in nanoseconds.
    pub fn median_ns(&self, stage: Stage) -> f64 {
        let mut ns: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.stage == stage)
            .map(Span::ns)
            .collect();
        median_u64(&mut ns)
    }

    pub fn counts(&self, stage: Stage) -> StageCounts {
        self.spans
            .iter()
            .filter(|s| s.stage == stage)
            .fold(StageCounts::default(), |c, s| StageCounts {
                spans: c.spans + 1,
                pwbs: c.pwbs + s.pwbs,
                pfences: c.pfences + s.pfences,
            })
    }

    /// Median over data requests of the pump's time not covered by the
    /// twin's stages: the mailbox hop.
    pub fn mailbox_median_ns(&self) -> f64 {
        // Spans arrive request by request, the pump's first.
        let mut rest = Vec::new();
        let mut current: Option<(i64, bool)> = None;
        for s in &self.spans {
            let ns = s.ns() as i64;
            match s.stage {
                Stage::Pump => {
                    rest.extend(current.filter(|c| c.1).map(|c| c.0));
                    current = Some((ns, false));
                }
                stage => {
                    if let Some(c) = current.as_mut() {
                        c.0 -= ns;
                        c.1 |= stage == Stage::Route;
                    }
                }
            }
        }
        rest.extend(current.filter(|c| c.1).map(|c| c.0));
        if rest.is_empty() {
            return 0.0;
        }
        rest.sort_unstable();
        rest[rest.len() / 2] as f64
    }

    /// Max over mean of data requests per shard.
    pub fn shard_skew(&self) -> f64 {
        let total: u64 = self.per_shard.iter().sum();
        let max = self.per_shard.iter().copied().max().unwrap_or(0);
        if total == 0 {
            return 0.0;
        }
        max as f64 / (total as f64 / self.per_shard.len() as f64)
    }

    /// Write the spans of the first `max_requests` requests as tab-separated
    /// lines: request, span, parent, start, end (ns from the traced run's
    /// start), pwbs, pfences.
    pub fn write(&self, path: &Path, max_requests: u32) -> std::io::Result<()> {
        let mut out = String::from("req\tspan\tparent\tstart_ns\tend_ns\tpwbs\tpfences\n");
        for s in self.spans.iter().take_while(|s| s.req < max_requests) {
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.req,
                s.stage.name(),
                s.stage.parent(),
                s.start_ns,
                s.end_ns,
                s.pwbs,
                s.pfences
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

fn median_u64(v: &mut [u64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    v[v.len() / 2] as f64
}

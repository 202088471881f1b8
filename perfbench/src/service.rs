//! The service phases of a run: set-up, the measured closed loop through
//! `KvServer::pump`, the traced twin run, and reopen/recovery of every shard
//! pool. All of it drives the server only through its public API.

use std::path::Path;
use std::time::Instant;

use flit::{CommitMode, Policy};
use flit_datastructs::{Automatic, ConcurrentMap, HashTable, RecoverInImage};
use flit_hamt::Hamt;
use flit_pmem::StatsSnapshot;
use flit_server::{recover_shard_pool, KvServer, Op, Reply, ServerConfig};

use crate::report::{median, Failures};
use crate::requests::{Kind, Mix, Model, Requests};
use crate::trace::{Span, Stage, Trace};

/// A map the benchmark can serve from and recover: every server map type,
/// plus how many snapshot roots it still retains.
pub trait BenchMap<P: Policy>: ConcurrentMap<P> + RecoverInImage {
    /// Whether the map answers `Scan` (the in-place maps answer `Unsupported`).
    const SCANS: bool;

    fn retained_roots(&self) -> usize {
        0
    }
}

impl<P: Policy> BenchMap<P> for HashTable<P, Automatic> {
    const SCANS: bool = false;
}

impl<P: Policy> BenchMap<P> for Hamt<P> {
    const SCANS: bool = true;

    fn retained_roots(&self) -> usize {
        Hamt::retained_roots(self).len()
    }
}

/// Rounds per run: each builds, measures, reopens and sweeps once.
pub const ROUNDS: usize = 5;

/// How one service workload builds its server.
pub struct ServerSpec<F> {
    pub shards: usize,
    pub mix: Mix,
    /// A fresh policy (and so a fresh backend) per shard.
    pub policy: F,
}

impl<F> ServerSpec<F> {
    /// Build the server on fresh pools under `dir` and run the prefill
    /// through `Shard::apply`. Returns the server and its set-up time.
    pub fn build<P: Policy, M: BenchMap<P>>(
        &self,
        dir: &Path,
        prefill: &[(u64, u64)],
    ) -> (KvServer<P, M>, f64)
    where
        F: Fn() -> P,
    {
        let start = Instant::now();
        let config = ServerConfig::new(self.shards, self.mix.keys as usize);
        let server = KvServer::<P, M>::create_on_pools(config, dir, CommitMode::Immediate, |_| {
            (self.policy)()
        })
        .unwrap_or_else(|e| panic!("cannot create shard pools under {}: {e}", dir.display()));
        {
            let handles = server.handles();
            for &(k, v) in prefill {
                let sid = server.route(k);
                let reply = server.shard(sid).apply(&handles[sid], &Op::Put(k, v));
                assert_eq!(reply, Reply::Inserted, "prefill put of distinct key {k}");
            }
        }
        (server, start.elapsed().as_secs_f64())
    }
}

/// Persistence counters summed over every shard's backend.
pub fn stats_of<P: Policy, M: ConcurrentMap<P>>(server: &KvServer<P, M>) -> StatsSnapshot {
    server
        .shards()
        .iter()
        .map(|s| s.db().stats_snapshot().unwrap_or_default())
        .fold(StatsSnapshot::default(), add)
}

fn add(a: StatsSnapshot, b: StatsSnapshot) -> StatsSnapshot {
    StatsSnapshot {
        pwbs: a.pwbs + b.pwbs,
        pfences: a.pfences + b.pfences,
        read_side_pwbs: a.read_side_pwbs + b.read_side_pwbs,
        elided_pfences: a.elided_pfences + b.elided_pfences,
        elided_pwbs: a.elided_pwbs + b.elided_pwbs,
    }
}

/// `server_ops_total{op}` summed over shards, in [`Kind::ALL`] order.
fn ops_total<P: Policy, M: ConcurrentMap<P>>(server: &KvServer<P, M>) -> [u64; 4] {
    let snap = server.metrics().snapshot();
    Kind::ALL.map(|kind| {
        (0..server.num_shards())
            .map(|i| {
                let shard = i.to_string();
                snap.value(
                    "server_ops_total",
                    &[("shard", &shard), ("op", kind.label())],
                )
                .unwrap_or(0)
            })
            .sum()
    })
}

/// Allocator gauges summed over every arena of every shard.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocGauges {
    pub slots_in_use: u64,
    pub chunks: u64,
    pub free_list_depth: u64,
}

pub fn alloc_gauges<P: Policy, M: ConcurrentMap<P>>(server: &KvServer<P, M>) -> AllocGauges {
    let snap = server.stats_snapshot();
    let sum = |name: &str| -> u64 {
        snap.gauges
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.value)
            .sum()
    };
    AllocGauges {
        slots_in_use: sum("flit_arena_slots_in_use"),
        chunks: sum("flit_arena_chunks"),
        free_list_depth: sum("flit_arena_free_list_depth"),
    }
}

/// Check one reply against the model (the clock is stopped by the caller).
fn check(
    fails: &mut Failures,
    index: u64,
    op: &Op,
    expected: &Reply,
    got: Result<(u64, Vec<u8>), flit_server::ProtoError>,
) -> Option<Vec<u8>> {
    match got {
        Ok((0, bytes)) => match Reply::decode(&bytes) {
            Ok(reply) if &reply == expected => return Some(bytes),
            Ok(reply) => fails.note(format!(
                "request {index} {op:?}: got {reply:?}, model says {expected:?}"
            )),
            Err(e) => fails.note(format!(
                "request {index} {op:?}: reply does not decode: {e}"
            )),
        },
        Ok((token, _)) => fails.note(format!(
            "request {index} {op:?}: pump served token {token}, only token 0 was posted"
        )),
        Err(e) => fails.note(format!("request {index} {op:?}: protocol error {e}")),
    }
    None
}

/// Sub-windows of the measured loop. Times are reported as the median over
/// blocks, so a burst of outside load in one part of the run moves at most
/// a few blocks.
pub const BLOCKS: u64 = 10;

/// One sub-window of the measured loop.
#[derive(Default)]
pub struct Block {
    /// Per-request service time in nanoseconds, by [`Kind`].
    pub lat_ns: [Vec<u64>; 4],
    /// Sum of the block's request service times.
    pub busy_ns: u64,
    pub requests: u64,
}

/// What the measured closed loop saw.
pub struct Window {
    pub blocks: Vec<Block>,
    pub requests: u64,
    /// Persistence counters over the window, summed over shards.
    pub stats: StatsSnapshot,
    /// Allocator chunks in use when the window started.
    pub chunks_before: u64,
}

impl Window {
    /// Pool the blocks of rounds that sent the same requests to identically
    /// built servers. Their persistence counts must agree exactly.
    pub fn merge(rounds: Vec<Window>, fails: &mut Failures) -> Window {
        let mut rounds = rounds.into_iter();
        let mut all = rounds.next().expect("at least one round");
        for round in rounds {
            if (round.stats, round.requests) != (all.stats, all.requests) {
                fails.note(format!(
                    "identical rounds disagree: {:?} vs {:?} over {} requests",
                    round.stats, all.stats, all.requests
                ));
            }
            all.blocks.extend(round.blocks);
        }
        all
    }

    /// Requests per second of service time (the clock runs only inside
    /// `pump`), median over blocks.
    pub fn throughput_rps(&self) -> f64 {
        let per_block: Vec<f64> = self
            .blocks
            .iter()
            .map(|b| b.requests as f64 / (b.busy_ns as f64 * 1e-9))
            .collect();
        median(&per_block)
    }

    /// The `q`-quantile of the service time of requests of `kinds`, in
    /// microseconds, median over blocks.
    pub fn quantile_us(&self, kinds: &[Kind], q: f64) -> f64 {
        let per_block: Vec<f64> = self
            .blocks
            .iter()
            .filter_map(|b| {
                let mut ns: Vec<u64> = kinds
                    .iter()
                    .flat_map(|&k| b.lat_ns[k as usize].iter().copied())
                    .collect();
                quantile(&mut ns, q).map(|v| v as f64 * 1e-3)
            })
            .collect();
        if per_block.is_empty() {
            0.0
        } else {
            median(&per_block)
        }
    }
}

/// Nearest-rank quantile.
fn quantile(samples: &mut [u64], q: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let idx = ((samples.len() as f64 * q).ceil() as usize).clamp(1, samples.len()) - 1;
    Some(samples[idx])
}

/// Send `n` requests, one at a time, through `KvServer::pump`, timing each
/// and checking each reply against `model` with the clock stopped. Also
/// cross-checks the registry's `server_ops_total` deltas against the
/// requests sent.
pub fn measure<P: Policy, M: BenchMap<P>>(
    server: &KvServer<P, M>,
    gen: &mut Requests,
    model: &mut Model,
    n: u64,
    fails: &mut Failures,
) -> Window {
    let chunks_before = alloc_gauges(server).chunks;
    let ops_before = ops_total(server);
    let mut sent = [0u64; 4];
    let mut blocks: Vec<Block> = (0..BLOCKS).map(|_| Block::default()).collect();
    let mut slab = vec![Vec::with_capacity(32)];
    let handles = server.handles();
    let before = stats_of(server);
    for i in 0..n {
        let op = gen.next_op();
        slab[0].clear();
        op.encode_into(&mut slab[0]);
        let t0 = Instant::now();
        let got = server.pump(&handles, &slab, 0);
        let ns = t0.elapsed().as_nanos() as u64;
        let kind = Kind::of(&op) as usize;
        let expected = model.apply(&op);
        check(fails, i, &op, &expected, got);
        let block = &mut blocks[(i * BLOCKS / n) as usize];
        block.busy_ns += ns;
        block.requests += 1;
        block.lat_ns[kind].push(ns);
        sent[kind] += 1;
    }
    let stats = stats_of(server).delta_since(&before);
    drop(handles);
    registry_cross_check(server, ops_before, sent, fails);
    Window {
        blocks,
        requests: n,
        stats,
        chunks_before,
    }
}

/// The registry must have counted exactly the requests sent: one count per
/// data request on its shard, one per shard for every scan (each shard
/// answers its share).
fn registry_cross_check<P: Policy, M: BenchMap<P>>(
    server: &KvServer<P, M>,
    before: [u64; 4],
    sent: [u64; 4],
    fails: &mut Failures,
) {
    let after = ops_total(server);
    for (i, kind) in Kind::ALL.iter().enumerate() {
        // A scan counts on every shard it reaches: all of them when the map
        // can take snapshots, else only the first, whose `Unsupported`
        // answer ends the fan-out.
        let fan_out = if *kind == Kind::Scan && M::SCANS {
            server.num_shards() as u64
        } else {
            1
        };
        let counted = after[i] - before[i];
        if counted != sent[i] * fan_out {
            fails.note(format!(
                "registry cross-check: server_ops_total{{op={}}} moved by {counted}, \
                 but {} were sent (x{fan_out} shards)",
                kind.label(),
                sent[i]
            ));
        }
    }
}

/// Run `n` requests through `server` (the real path, `pump`) and, request
/// by request in the same thread, through `twin` built from the same seed:
/// `Op::decode` → `KvServer::route` → `Shard::apply` → `Reply::encode`.
/// Every boundary records a span with its persistence-counter delta.
pub fn measure_traced<P: Policy, M: BenchMap<P>>(
    server: &KvServer<P, M>,
    twin: &KvServer<P, M>,
    gen: &mut Requests,
    model: &mut Model,
    n: u64,
    fails: &mut Failures,
) -> Trace {
    let mut trace = Trace::new(server.num_shards());
    let mut slab = vec![Vec::with_capacity(32)];
    let handles = server.handles();
    let twin_handles = twin.handles();
    let base = Instant::now();
    let at = |t: Instant| t.duration_since(base).as_nanos() as u64;
    let before = stats_of(server);
    for i in 0..n {
        let op = gen.next_op();
        slab[0].clear();
        op.encode_into(&mut slab[0]);
        let req = i as u32;

        let t0 = Instant::now();
        let s0 = stats_of(server);
        let p0 = Instant::now();
        let got = server.pump(&handles, &slab, 0);
        let p1 = Instant::now();
        let s1 = stats_of(server);
        trace.spans.push(Span::new(
            req,
            Stage::Pump,
            at(p0),
            at(p1),
            &s1.delta_since(&s0),
        ));
        trace.traced_busy_ns += Instant::now().duration_since(t0).as_nanos() as u64;

        // The twin: the same request, stage by stage.
        let d0 = Instant::now();
        let decoded = Op::decode(&slab[0]);
        let d1 = Instant::now();
        trace.spans.push(Span::new(
            req,
            Stage::Decode,
            at(d0),
            at(d1),
            &StatsSnapshot::default(),
        ));
        let reply = match decoded {
            Ok(Op::Scan { prefix, mask }) => {
                let c0 = stats_of(twin);
                let a0 = Instant::now();
                let pairs = twin.scan(&twin_handles, prefix, mask);
                let a1 = Instant::now();
                let c1 = stats_of(twin);
                trace.spans.push(Span::new(
                    req,
                    Stage::Scan,
                    at(a0),
                    at(a1),
                    &c1.delta_since(&c0),
                ));
                pairs.map_or(Reply::Unsupported, Reply::Entries)
            }
            Ok(data_op) => {
                let key = data_op.key().expect("data requests carry a key");
                let r0 = Instant::now();
                let sid = twin.route(key);
                let r1 = Instant::now();
                trace.spans.push(Span::new(
                    req,
                    Stage::Route,
                    at(r0),
                    at(r1),
                    &StatsSnapshot::default(),
                ));
                trace.per_shard[sid] += 1;
                let shard = twin.shard(sid);
                let c0 = shard.db().stats_snapshot().unwrap_or_default();
                let a0 = Instant::now();
                let reply = shard.apply(&twin_handles[sid], &data_op);
                let a1 = Instant::now();
                let c1 = shard.db().stats_snapshot().unwrap_or_default();
                let stage = match data_op {
                    Op::Get(_) => Stage::Get,
                    _ => Stage::Update,
                };
                trace
                    .spans
                    .push(Span::new(req, stage, at(a0), at(a1), &c1.delta_since(&c0)));
                reply
            }
            Err(e) => {
                fails.note(format!(
                    "request {i} {op:?}: twin cannot decode its bytes: {e}"
                ));
                continue;
            }
        };
        let e0 = Instant::now();
        let twin_bytes = reply.encode();
        let e1 = Instant::now();
        trace.spans.push(Span::new(
            req,
            Stage::Encode,
            at(e0),
            at(e1),
            &StatsSnapshot::default(),
        ));

        trace.req_bytes += slab[0].len() as u64;
        trace.reply_bytes += twin_bytes.len() as u64;
        let expected = model.apply(&op);
        if let Some(bytes) = check(fails, i, &op, &expected, got) {
            if bytes != twin_bytes {
                fails.note(format!("request {i} {op:?}: twin replied differently"));
            }
        }
    }
    trace.requests = n;
    trace.stats = stats_of(server).delta_since(&before);
    trace
}

/// What reopening every shard pool found.
#[derive(Debug, Clone, Default)]
pub struct Recovery {
    /// Sum over shards of the `recover_shard_pool` call time.
    pub recover_s: f64,
    pub validate_ms: f64,
    pub adopt_ms: f64,
    pub recover_ms: f64,
    pub gc_ms: f64,
    pub leaked_slots: u64,
}

impl Recovery {
    /// Field-wise median over reopens; leaked slots are the first reopen's.
    pub fn median(rounds: &[Recovery]) -> Recovery {
        let m = |f: fn(&Recovery) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
        Recovery {
            recover_s: m(|r| r.recover_s),
            validate_ms: m(|r| r.validate_ms),
            adopt_ms: m(|r| r.adopt_ms),
            recover_ms: m(|r| r.recover_ms),
            gc_ms: m(|r| r.gc_ms),
            leaked_slots: rounds[0].leaked_slots,
        }
    }
}

/// Reopens per round. The first reopen collects what the closed server
/// leaked; reopening again must find the same pairs and nothing to collect.
pub const REOPENS: usize = 2;

/// Clean shutdown (`sync_pools`, drop), then [`REOPENS`] times
/// `recover_shard_pool` on every shard; the recovered pairs must equal the
/// model exactly every time.
pub fn reopen<P: Policy, M: BenchMap<P>, F: Fn() -> P>(
    server: KvServer<P, M>,
    spec: &ServerSpec<F>,
    dir: &Path,
    model: &Model,
    fails: &mut Failures,
) -> Vec<Recovery> {
    if let Err(e) = server.sync_pools() {
        fails.note(format!("sync_pools failed: {e}"));
    }
    drop(server);
    let expected: Vec<(u64, u64)> = model.map.iter().map(|(&k, &v)| (k, v)).collect();
    let reopens: Vec<Recovery> = (0..REOPENS)
        .map(|_| reopen_once::<P, M, F>(spec, dir, &expected, fails))
        .collect();
    for again in &reopens[1..] {
        if again.leaked_slots != 0 {
            fails.note(format!(
                "reopening a collected pool reclaimed {} more slots; GC must be idempotent",
                again.leaked_slots
            ));
        }
    }
    reopens
}

fn reopen_once<P: Policy, M: BenchMap<P>, F: Fn() -> P>(
    spec: &ServerSpec<F>,
    dir: &Path,
    expected: &[(u64, u64)],
    fails: &mut Failures,
) -> Recovery {
    let mut out = Recovery::default();
    let mut pairs = Vec::new();
    let ms = |ns: u64| ns as f64 * 1e-6;
    for shard in 0..spec.shards {
        let start = Instant::now();
        let opened = recover_shard_pool::<P, M>(dir, shard, (spec.policy)());
        out.recover_s += start.elapsed().as_secs_f64();
        match opened {
            Ok((_db, report, recovered)) => {
                out.validate_ms += ms(report.timings.validate_ns);
                out.adopt_ms += ms(report.timings.adopt_ns);
                out.recover_ms += ms(report.timings.recover_ns);
                out.gc_ms += ms(report.timings.gc_ns);
                out.leaked_slots += report.leaked_slots() as u64;
                pairs.extend(recovered.sorted_pairs());
            }
            Err(e) => fails.note(format!("reopening shard {shard} failed: {e}")),
        }
    }
    pairs.sort_unstable();
    if pairs != expected {
        let diff = pairs
            .iter()
            .zip(expected)
            .position(|(a, b)| a != b)
            .unwrap_or(pairs.len().min(expected.len()));
        fails.note(format!(
            "recovered {} pairs, model holds {}; first difference at sorted index {diff}",
            pairs.len(),
            expected.len()
        ));
    }
    out
}

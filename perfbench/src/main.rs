//! `perfbench`: the flit-suite benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload kv-read-zipf --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One run of a workload is [`ROUNDS`] identical rounds of four phases, each
//! driving the library only through its public API:
//!
//! 1. **set-up**: build a `KvServer` on fresh shard pools and prefill it;
//! 2. **service**: a single-client closed loop of seeded requests through
//!    `KvServer::pump`, every reply checked against a sequential model with
//!    the clock stopped;
//! 3. **reopen**: `sync_pools`, drop, `recover_shard_pool` on every shard; the
//!    recovered pairs must equal the model;
//! 4. **crash sweep**: one seeded history through the three crash-replay
//!    engines. After the rounds, their broken controls must be caught.
//!
//! Times are medians over rounds (service times over the rounds' blocks);
//! persistence counts must agree exactly between rounds.
//! Workloads differ in server configuration and in how the run's time is
//! split between the phases. With `--trace 0` the run prints the end-to-end
//! metrics; with `--trace 1` it also runs the traced twin (see [`trace`]) and
//! prints the per-layer metrics. The last line of stdout is the JSON result;
//! a failed check makes the exit code 1.

mod report;
mod requests;
mod service;
mod sweep;
mod trace;

use std::path::{Path, PathBuf};
use std::time::Instant;

use flit::{FlitPolicy, HashedScheme, Policy};
use flit_datastructs::{Automatic, HashTable};
use flit_hamt::Hamt;
use flit_pmem::{FlushInstruction, HardwarePmem, LatencyModel, SimNvram};

use report::{median, peak_rss_mb, Failures, Metrics};
use requests::{Kind, Mix, Model, Requests};
use service::{
    alloc_gauges, measure, measure_traced, reopen, BenchMap, Recovery, ServerSpec, Window, ROUNDS,
};
use sweep::SweepCost;
use trace::Stage;

/// The flit-HT counter-table size of every served policy.
const FLIT_HT_BYTES: usize = 64 << 10;
/// Share of a run's service requests the traced run sends, untraced and
/// then traced (the traced loop is several times slower).
const TRACE_DIVISOR: u64 = 4;
/// Per-run pools live under this directory of the working directory.
const SCRATCH: &str = ".perfbench-tmp";
/// Requests whose spans are written to the span file.
const SPAN_FILE_REQUESTS: u32 = 20_000;

/// The server a workload builds: backend and map type.
#[derive(Debug, Clone, Copy)]
enum Server {
    /// Hash tables on `SimNvram` charging `LatencyModel::optane()`.
    SimHashTable,
    /// Hash tables on `HardwarePmem`: real `clwb`/`clflushopt` + `sfence`.
    HardwareHashTable,
    /// HAMTs on `SimNvram` charging `LatencyModel::optane()`.
    SimHamt,
}

impl Server {
    fn simulated(self) -> bool {
        !matches!(self, Server::HardwareHashTable)
    }
}

struct Workload {
    name: &'static str,
    server: Server,
    shards: usize,
    mix: Mix,
    /// Service requests per second of `--seconds`.
    requests_per_s: u64,
    /// Crash points per second of `--seconds`, over the three engines.
    points_per_s: u64,
}

const READ_ZIPF: Mix = Mix {
    keys: 100_000,
    prefill: 50_000,
    zipf: 0.99,
    update_permille: 50,
    scan_every: 100,
    scan_bits: 10,
};

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "kv-read-zipf",
        server: Server::SimHashTable,
        shards: 4,
        mix: READ_ZIPF,
        requests_per_s: 250_000,
        points_per_s: 300,
    },
    Workload {
        name: "kv-write-pool",
        server: Server::HardwareHashTable,
        shards: 2,
        mix: Mix {
            zipf: 0.0,
            update_permille: 500,
            ..READ_ZIPF
        },
        requests_per_s: 250_000,
        points_per_s: 300,
    },
    Workload {
        name: "hamt-read-scan",
        server: Server::SimHamt,
        shards: 4,
        mix: Mix {
            scan_every: 20_000,
            ..READ_ZIPF
        },
        requests_per_s: 170_000,
        points_per_s: 300,
    },
    Workload {
        name: "crash-sweep",
        server: Server::SimHashTable,
        shards: 4,
        mix: READ_ZIPF,
        requests_per_s: 100_000,
        points_per_s: 600,
    },
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => args.trace = value.parse::<u8>().map_err(bad)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(w) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: unknown workload {:?}; one of {}",
            args.workload,
            names.join(", ")
        );
        std::process::exit(2);
    };
    let scratch = PathBuf::from(SCRATCH).join(format!("{}-{}", w.name, std::process::id()));
    let mut fails = Failures::default();
    let mut metrics = Metrics::default();
    let (m, f) = (&mut metrics, &mut fails);
    let attempted = match w.server {
        Server::SimHashTable => {
            run::<SimP, HashTable<SimP, Automatic>, _>(w, sim_policy, &args, &scratch, m, f)
        }
        Server::HardwareHashTable => {
            run::<HwP, HashTable<HwP, Automatic>, _>(w, hw_policy, &args, &scratch, m, f)
        }
        Server::SimHamt => run::<SimP, Hamt<SimP>, _>(w, sim_policy, &args, &scratch, m, f),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(SCRATCH);
    metrics.print();
    println!(
        "error_rate {} ({} failed of {attempted} checked)",
        fails.count as f64 / attempted as f64,
        fails.count
    );
    if let Some(first) = &fails.first {
        println!("first failure: {first}");
    }
    println!("{}", metrics.result_line(attempted, fails.count));
    if fails.count > 0 {
        std::process::exit(1);
    }
}

type SimP = FlitPolicy<HashedScheme, SimNvram>;
type HwP = FlitPolicy<HashedScheme, HardwarePmem>;

fn sim_policy() -> SimP {
    FlitPolicy::new(
        HashedScheme::with_bytes(FLIT_HT_BYTES),
        SimNvram::builder().latency(LatencyModel::optane()).build(),
    )
}

fn hw_policy() -> HwP {
    FlitPolicy::new(HashedScheme::with_bytes(FLIT_HT_BYTES), HardwarePmem::new())
}

/// Measured time of one simulated pfence's busy-wait. `flit_pmem::latency`
/// calibrates its spin loop once per process; an off calibration shows here.
fn spin_ns_per_pfence() -> f64 {
    let model = LatencyModel::optane();
    model.charge_pfence();
    let reps = 20_000;
    let start = Instant::now();
    for _ in 0..reps {
        model.charge_pfence();
    }
    start.elapsed().as_nanos() as f64 / reps as f64
}

/// The flush instruction the pwbs of `server` execute, as a code ordered
/// by strength: 0 none (or simulated), 1 clflush, 2 clflushopt, 3 clwb.
fn flush_code(server: Server) -> (f64, &'static str) {
    if server.simulated() {
        return (0.0, "simulated");
    }
    match HardwarePmem::new().instruction() {
        FlushInstruction::None => (0.0, "none"),
        FlushInstruction::Clflush => (1.0, "clflush"),
        FlushInstruction::ClflushOpt => (2.0, "clflushopt"),
        FlushInstruction::Clwb => (3.0, "clwb"),
    }
}

fn run<P, M, F>(
    w: &Workload,
    policy: F,
    args: &Args,
    scratch: &Path,
    out: &mut Metrics,
    fails: &mut Failures,
) -> u64
where
    P: Policy,
    M: BenchMap<P>,
    F: Fn() -> P,
{
    let spec = ServerSpec {
        shards: w.shards,
        mix: w.mix,
        policy,
    };
    let requests = (w.requests_per_s * args.seconds).max(1000);
    let total = if args.trace {
        requests / TRACE_DIVISOR
    } else {
        requests
    };
    let window_requests = (total / ROUNDS as u64).max(1000);
    let budget = ((w.points_per_s * args.seconds) / (3 * ROUNDS as u64)).max(8) as usize;
    let server_dir = scratch.join("server");
    let spin = spin_ns_per_pfence();
    println!(
        "workload {} seed {} rounds {ROUNDS} x {window_requests} requests",
        w.name, args.seed
    );
    println!(
        "pmem.spin_ns_per_pfence {spin:.2} ns (model charges {} ns)",
        LatencyModel::optane().pfence_ns
    );

    let mut gen = Requests::new(w.mix, args.seed);
    let prefill = gen.prefill();
    let fresh_model = || Model {
        map: prefill.iter().copied().collect(),
        scans: M::SCANS,
    };
    // Every round repeats the same work on a freshly built server, so a run
    // samples several memory layouts and moments; times are medians over
    // rounds, counts must agree exactly between them.
    let mut setup = Vec::with_capacity(ROUNDS);
    let mut windows = Vec::with_capacity(ROUNDS);
    let mut recoveries = Vec::with_capacity(ROUNDS);
    let mut sweeps = Vec::with_capacity(ROUNDS);
    let mut end_state = None;
    for round in 0..ROUNDS {
        let (server, secs) = spec.build::<P, M>(&server_dir, &prefill);
        setup.push(secs);
        let mut model = fresh_model();
        windows.push(measure(
            &server,
            &mut gen.clone(),
            &mut model,
            window_requests,
            fails,
        ));
        if round == 0 {
            let retained: usize = server
                .shards()
                .iter()
                .map(|s| s.map().retained_roots())
                .sum();
            end_state = Some((
                alloc_gauges(&server),
                retained,
                model.map.len().max(1) as f64,
            ));
        }
        recoveries.extend(reopen(server, &spec, &server_dir, &model, fails));
        sweeps.push(sweep::sweep(args.seed, budget, fails));
    }
    sweep::check_controls(args.seed, fails);
    let (alloc, retained, live_keys) = end_state.expect("at least one round");
    let window = Window::merge(windows, fails);
    let recovery = Recovery::median(&recoveries);
    let sweep = SweepCost::median(&sweeps);
    let attempted = (window.requests + w.shards as u64 + sweep.points) * ROUNDS as u64 + 3;

    if !args.trace {
        let req = window.requests as f64;
        let updates = [Kind::Put, Kind::Del];
        out.add("setup_s", median(&setup), "s");
        out.add("throughput_rps", window.throughput_rps(), "1/s");
        out.add("get_p50_us", window.quantile_us(&[Kind::Get], 0.50), "us");
        out.add("get_p99_us", window.quantile_us(&[Kind::Get], 0.99), "us");
        out.add("update_p50_us", window.quantile_us(&updates, 0.50), "us");
        out.add("update_p99_us", window.quantile_us(&updates, 0.99), "us");
        out.add("scan_p50_us", window.quantile_us(&[Kind::Scan], 0.50), "us");
        out.add("pwbs_per_req", window.stats.pwbs as f64 / req, "pwbs/req");
        out.add(
            "pfences_per_req",
            window.stats.pfences as f64 / req,
            "pfences/req",
        );
        out.add("recover_s", recovery.recover_s, "s");
        out.add(
            "arena_slots_per_key",
            alloc.slots_in_use as f64 / live_keys,
            "slots/key",
        );
        out.add("peak_rss_mb", peak_rss_mb(), "MB");
        out.add("sweep_points_per_s", sweep.points_per_s(), "1/s");
        return attempted;
    }

    // The traced run: a fresh server and its twin, from the same seed, fed
    // the same requests each untraced round measured.
    let mut model = fresh_model();
    let (server, _) = spec.build::<P, M>(&server_dir, &prefill);
    let (twin, _) = spec.build::<P, M>(&scratch.join("twin"), &prefill);
    let trace = measure_traced(
        &server,
        &twin,
        &mut gen.clone(),
        &mut model,
        window_requests,
        fails,
    );
    drop((server, twin));
    let pump = trace.counts(Stage::Pump);
    let applied = [Stage::Get, Stage::Update, Stage::Scan].map(|st| trace.counts(st));
    let applied_pwbs: u64 = applied.iter().map(|c| c.pwbs).sum();
    let applied_pfences: u64 = applied.iter().map(|c| c.pfences).sum();
    // The pump does what the twin's apply does plus the mailbox hop.
    if (pump.pwbs, pump.pfences) != (window.stats.pwbs, window.stats.pfences)
        || (trace.stats.pwbs, trace.stats.pfences) != (pump.pwbs, pump.pfences)
        || applied_pwbs > pump.pwbs
        || applied_pfences > pump.pfences
    {
        fails.note(format!(
            "trace fidelity: traced pump counted {} pwbs / {} pfences, untraced run {} / {}, \
             twin apply {} / {}",
            pump.pwbs,
            pump.pfences,
            window.stats.pwbs,
            window.stats.pfences,
            applied_pwbs,
            applied_pfences
        ));
    }
    let span_file =
        PathBuf::from(".perfbench-out").join(format!("spans-{}-seed{}.tsv", w.name, args.seed));
    if let Err(e) = trace.write(&span_file, SPAN_FILE_REQUESTS) {
        eprintln!("perfbench: cannot write {}: {e}", span_file.display());
    }

    let n = trace.requests as f64;
    let s = &trace.stats;
    let (get, update) = (trace.counts(Stage::Get), trace.counts(Stage::Update));
    let per = |x: u64, d: u64| x as f64 / d.max(1) as f64;
    let model_ns = if w.server.simulated() {
        let m = LatencyModel::optane();
        (s.pwbs * m.pwb_ns + s.pfences * m.pfence_ns) as f64 / n
    } else {
        0.0
    };
    let (flush, flush_label) = flush_code(w.server);
    println!(
        "pmem.flush_instruction {flush_label}; spans in {}",
        span_file.display()
    );

    out.add("proto.decode_ns", trace.median_ns(Stage::Decode), "ns");
    out.add("proto.encode_ns", trace.median_ns(Stage::Encode), "ns");
    out.add("proto.req_bytes", trace.req_bytes as f64 / n, "bytes");
    out.add("proto.reply_bytes", trace.reply_bytes as f64 / n, "bytes");
    out.add("server.route_ns", trace.median_ns(Stage::Route), "ns");
    out.add("server.shard_skew", trace.shard_skew(), "ratio");
    out.add("server.mailbox_ns", trace.mailbox_median_ns(), "ns");
    out.add(
        "server.mailbox_pwbs_per_req",
        pump.pwbs.saturating_sub(applied_pwbs) as f64 / n,
        "pwbs/req",
    );
    out.add(
        "server.mailbox_pfences_per_req",
        pump.pfences.saturating_sub(applied_pfences) as f64 / n,
        "pfences/req",
    );
    out.add("map.get_ns", trace.median_ns(Stage::Get), "ns");
    out.add("map.update_ns", trace.median_ns(Stage::Update), "ns");
    out.add("map.scan_ns", trace.median_ns(Stage::Scan), "ns");
    out.add("map.get_pwbs", per(get.pwbs, get.spans), "pwbs/op");
    out.add("map.get_pfences", per(get.pfences, get.spans), "pfences/op");
    out.add("map.update_pwbs", per(update.pwbs, update.spans), "pwbs/op");
    out.add(
        "map.update_pfences",
        per(update.pfences, update.spans),
        "pfences/op",
    );
    out.add(
        "flit.elided_pfences_per_req",
        s.elided_pfences as f64 / n,
        "pfences/req",
    );
    out.add(
        "flit.elided_pwbs_per_req",
        s.elided_pwbs as f64 / n,
        "pwbs/req",
    );
    out.add(
        "flit.read_side_pwbs_per_req",
        s.read_side_pwbs as f64 / n,
        "pwbs/req",
    );
    out.add(
        "flit.fence_elision_ratio",
        per(s.elided_pfences, s.elided_pfences + s.pfences),
        "ratio",
    );
    out.add("pmem.model_ns_per_req", model_ns, "ns");
    out.add("pmem.spin_ns_per_pfence", spin, "ns");
    out.add("pmem.flush_instruction", flush, "code");
    out.add("alloc.slots_in_use", alloc.slots_in_use as f64, "count");
    out.add("alloc.chunks", alloc.chunks as f64, "count");
    out.add(
        "alloc.chunks_grown",
        (alloc.chunks - window.chunks_before) as f64,
        "count",
    );
    out.add(
        "alloc.free_list_depth",
        alloc.free_list_depth as f64,
        "count",
    );
    out.add("hamt.retained_roots_after", retained as f64, "count");
    out.add("open.validate_ms", recovery.validate_ms, "ms");
    out.add("open.adopt_ms", recovery.adopt_ms, "ms");
    out.add("open.recover_ms", recovery.recover_ms, "ms");
    out.add("open.gc_ms", recovery.gc_ms, "ms");
    out.add("open.leaked_slots", recovery.leaked_slots as f64, "count");
    out.add("crashtest.map_ns_per_point", sweep.map_ns_per_point, "ns");
    out.add(
        "crashtest.server_ns_per_point",
        sweep.server_ns_per_point,
        "ns",
    );
    out.add("crashtest.hamt_ns_per_point", sweep.hamt_ns_per_point, "ns");
    out.add("crashtest.events_total", sweep.events_total as f64, "count");
    out.add(
        "trace.overhead",
        window.throughput_rps() / (n / (trace.traced_busy_ns as f64 * 1e-9)),
        "ratio",
    );
    attempted + window_requests
}

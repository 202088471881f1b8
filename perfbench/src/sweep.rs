//! The crash-sweep phase: one seeded random history swept through the three
//! crash-replay engines of `flit-crashtest`, plus their broken controls,
//! which must be caught.

use std::time::Instant;

use flit::presets;
use flit_crashtest::{
    run_case, run_hamt_snapshot_case, sweep_server_crash, HistorySpec, MethodKind, PolicyKind,
    StructureKind, SweepSettings, VolatileStores,
};
use flit_datastructs::{Automatic, HashTable};
use flit_pmem::SimNvram;

use crate::report::Failures;

/// The flit-HT counter-table size of every swept policy.
const FLIT_HT_BYTES: usize = 64 << 10;
/// Operations of the swept history: long enough that replaying it, not
/// building the structure, dominates the cost of a crash point.
const HISTORY_OPS: usize = 400;
/// Keys of the swept history.
const HISTORY_KEYS: u64 = 128;
/// Crash points given to each broken control: enough to catch it.
const CONTROL_POINTS: usize = 24;

type SimFlitHt = flit::FlitPolicy<flit::HashedScheme, SimNvram>;

fn flit_ht(backend: SimNvram) -> SimFlitHt {
    presets::flit_ht_sized(backend, FLIT_HT_BYTES)
}

/// What the sweeps found and what they cost.
#[derive(Debug, Clone, Default)]
pub struct SweepCost {
    /// Crash points checked on the correct configurations.
    pub points: u64,
    /// Wall time of the correct sweeps (controls excluded).
    pub secs: f64,
    pub map_ns_per_point: f64,
    pub server_ns_per_point: f64,
    pub hamt_ns_per_point: f64,
    /// Persistence events the three swept streams span.
    pub events_total: u64,
}

impl SweepCost {
    pub fn points_per_s(&self) -> f64 {
        self.points as f64 / self.secs
    }

    /// The round with the median points per second; identical rounds
    /// sweep the same points.
    pub fn median(rounds: &[SweepCost]) -> SweepCost {
        let mut sorted = rounds.to_vec();
        sorted.sort_by(|a, b| a.points_per_s().total_cmp(&b.points_per_s()));
        sorted[sorted.len() / 2].clone()
    }
}

fn history(seed: u64) -> HistorySpec {
    HistorySpec::Random {
        seed,
        ops: HISTORY_OPS,
        key_range: HISTORY_KEYS,
    }
}

/// Sweep the seeded history with at most `budget` crash points per engine,
/// evenly spaced over its events. Violations are failures.
pub fn sweep(seed: u64, budget: usize, fails: &mut Failures) -> SweepCost {
    let history = history(seed);
    let settings = SweepSettings {
        budget,
        ..Default::default()
    };
    let mut cost = SweepCost::default();
    let ns_per_point =
        |start: Instant, points: usize| start.elapsed().as_nanos() as f64 / points.max(1) as f64;

    let start = Instant::now();
    let map = run_case(
        StructureKind::HashTable,
        MethodKind::Automatic,
        PolicyKind::FlitHt,
        history,
        &settings,
    )
    .expect("flit-HT supports the hash table");
    cost.map_ns_per_point = ns_per_point(start, map.points_tested);
    for v in &map.violations {
        fails.note(format!("map sweep violation: {} ({})", v.detail, v.repro));
    }

    let start = Instant::now();
    let server = sweep_server_crash::<SimFlitHt, HashTable<SimFlitHt, Automatic>, _>(
        "flit-ht",
        flit_ht,
        2,
        0,
        &history.map_history(),
        &settings,
    );
    cost.server_ns_per_point = ns_per_point(start, server.points_tested);
    for v in &server.violations {
        fails.note(format!(
            "server sweep violation at event {} on shard {}: {}",
            v.crash_event, v.shard, v.detail
        ));
    }

    let start = Instant::now();
    let hamt = run_hamt_snapshot_case(PolicyKind::FlitHt, history, &settings);
    cost.hamt_ns_per_point = ns_per_point(start, hamt.points_tested);
    for v in &hamt.violations {
        fails.note(format!(
            "hamt snapshot sweep violation: {} ({})",
            v.detail, v.repro
        ));
    }

    cost.points = (map.points_tested + server.points_tested + hamt.points_tested) as u64;
    cost.secs = (cost.map_ns_per_point * map.points_tested as f64
        + cost.server_ns_per_point * server.points_tested as f64
        + cost.hamt_ns_per_point * hamt.points_tested as f64)
        * 1e-9;
    cost.events_total = map.events_total + server.events_total + hamt.events_total;
    cost
}

/// A sweep that cannot fail measures nothing: every broken control must
/// report violations on the history [`sweep`] replays.
pub fn check_controls(seed: u64, fails: &mut Failures) {
    let history = history(seed);
    let settings = SweepSettings {
        budget: CONTROL_POINTS,
        ..Default::default()
    };
    for structure in [StructureKind::HashTable, StructureKind::Hamt] {
        let report = run_case(
            structure,
            MethodKind::VolatileBroken,
            PolicyKind::FlitHt,
            history,
            &settings,
        )
        .expect("flit-HT supports the broken control");
        if report.clean() {
            fails.note(format!(
                "broken control {} was not caught by the map sweep",
                report.case.id()
            ));
        }
    }
    let server = sweep_server_crash::<SimFlitHt, HashTable<SimFlitHt, VolatileStores>, _>(
        "volatile-broken",
        flit_ht,
        2,
        0,
        &history.map_history(),
        &settings,
    );
    if server.clean() {
        fails.note("broken control volatile-broken was not caught by the server sweep".into());
    }
}

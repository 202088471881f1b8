//! HAMT snapshot-consistency sweep.
//!
//! [`sweep_map`](crate::engine::sweep_map) already proves the HAMT's *main*
//! trie is prefix-consistent at every crash point. This module proves a
//! stronger property: a **snapshot taken before the crash point must replay
//! to exactly its frozen contents** — not a prefix, not a nearby state, the
//! exact map the snapshot froze, even though the live trie kept mutating (and
//! retiring the snapshot's unshared nodes into the pinned backlog) between
//! the snapshot and the crash.
//!
//! The sweep replays a history, takes one snapshot after `snap_at` operations,
//! keeps it alive for the rest of the replay, and at every crash point `k`
//! recovers the retained-root table from the frozen
//! [`CrashImage`](flit_pmem::CrashImage) via
//! [`Hamt::recover_snapshots_in_image`]:
//!
//! * **at most one** retained snapshot may ever be recovered (the replay takes
//!   exactly one);
//! * a recovered snapshot's walk must not be truncated — its whole frozen path
//!   must be in the image (this is what the leading fence of the root p-CAS
//!   that publishes a trie buys: a root can only become visible, and hence
//!   retainable, after its path is durable);
//! * a recovered snapshot's pairs must equal **exactly** the model state after
//!   `snap_at` operations;
//! * under [`CommitMode::Immediate`], once `k` passes the snapshot's own
//!   completion boundary the snapshot **must** be recovered — its table entry
//!   (root, version, refcount) commits atomically at the snapshot's completion
//!   fence. Under a batched commit the entry may legally be lost until a later
//!   drain covers it, so only the exactness checks apply.
//!
//! Crash points inside the construction window (and any point before the
//! snapshot's completion fence) must recover an **empty** retained table: the
//! three entry words are pwb'd together and covered by the same fence, so the
//! loss model makes the entry all-or-nothing.

use flit::{CommitMode, FlitDb, Policy};
use flit_datastructs::ConcurrentMap;
use flit_hamt::{Hamt, RetainedSnapshot};
use flit_pmem::{CrashPlan, SimNvram};
use flit_workload::MapOp;

use flit::presets;

use crate::engine::{
    completed_before, frozen_image, map_state, replay_backend, select_points, SweepSettings,
};
use crate::matrix::FLIT_HT_SWEEP_BYTES;
use crate::report::{CaseMeta, HistorySpec, SweepReport, Violation};
use crate::PolicyKind;

/// The structure key the `crashtest` CLI uses for this sweep (it is not a
/// [`StructureKind`](crate::StructureKind) — the snapshot sweep has its own
/// entry point), so [`CaseMeta::repro`] strings stay replayable.
pub const SNAPSHOT_STRUCTURE: &str = "hamt-snapshot";

/// Where the sweep takes its snapshot: one third of the way through the
/// history (at least one operation in, so the frozen contents are non-trivial).
/// A convention rather than a parameter so repro strings don't need to carry
/// it.
pub fn default_snap_at(history_len: usize) -> usize {
    (history_len / 3).clamp(1, history_len.max(1))
}

/// One replay with a snapshot taken after `snap_at` operations and held alive
/// until the end.
struct SnapReplay {
    base: u64,
    /// Absolute event index right after the snapshot call returned (completion
    /// fence included); `u64::MAX` when the replay skipped the history.
    snap_boundary: u64,
    /// Per-operation completion boundaries (absolute event indices).
    boundaries: Vec<u64>,
    total: u64,
    recovered: Option<(Vec<RetainedSnapshot>, &'static str)>,
    flight: Vec<flit::FlightEvent>,
}

fn replay_snapshot<P, F>(
    factory: &F,
    history: &[MapOp],
    snap_at: usize,
    crash_at: Option<u64>,
    run_history: bool,
    settings: &SweepSettings,
) -> SnapReplay
where
    P: Policy<Backend = SimNvram>,
    F: Fn(SimNvram) -> P,
{
    let plan = match crash_at {
        Some(k) => CrashPlan::armed_at(k),
        None => CrashPlan::counting(),
    };
    let backend = replay_backend(plan.clone(), settings.elision);
    let db = FlitDb::builder(factory(backend.clone()))
        .commit_mode(settings.commit)
        .build();
    let map: Hamt<P> = Hamt::with_capacity(&db, 64);
    let h = db.handle();
    h.arm_flight_recorder();
    let base = plan.events_seen();
    let mut snap_boundary = u64::MAX;
    let mut boundaries = Vec::with_capacity(history.len());
    let mut snapshot = None;
    let mut flight = Vec::new();
    if run_history {
        if snap_at == 0 {
            snapshot = Some(map.snapshot(&h));
            snap_boundary = plan.events_seen();
        }
        for (i, op) in history.iter().enumerate() {
            match *op {
                MapOp::Insert(k, v) => {
                    map.insert(&h, k, v);
                }
                MapOp::Remove(k) => {
                    map.remove(&h, k);
                }
                MapOp::Get(k) => {
                    map.get(&h, k);
                }
            }
            if settings.broken_acks {
                h.ack_obligations_without_fence();
            }
            if i + 1 == snap_at {
                snapshot = Some(map.snapshot(&h));
                snap_boundary = plan.events_seen();
            }
            boundaries.push(plan.events_seen());
            if let Some(k) = crash_at {
                if flight.is_empty() && plan.events_seen() >= k {
                    flight = h.flight_events();
                }
            }
        }
    }
    if crash_at.is_some() && flight.is_empty() {
        flight = h.flight_events();
    }
    let total = plan.events_seen();
    // The snapshot must still be alive when the end-control image is taken:
    // dropping it writes refcount 0, which at `k == total` (nothing lost) would
    // make the tracker's final image legitimately snapshot-free.
    let recovered = frozen_image(&plan, &backend, crash_at).map(|(image, kind)| {
        (
            Hamt::<P>::recover_snapshots_in_image(map.arena(), &image),
            kind,
        )
    });
    drop(snapshot);
    SnapReplay {
        base,
        snap_boundary,
        boundaries,
        total,
        recovered,
        flight,
    }
}

/// Sweep crash points across `history`, holding a snapshot taken after
/// `snap_at` operations, and verify the retained-root table recovered from
/// every frozen image replays the snapshot to exactly its frozen contents.
pub fn sweep_hamt_snapshot<P, F>(
    case: CaseMeta,
    factory: F,
    history: &[MapOp],
    snap_at: usize,
    settings: &SweepSettings,
) -> SweepReport
where
    P: Policy<Backend = SimNvram>,
    F: Fn(SimNvram) -> P,
{
    let frozen = map_state(history, snap_at);
    let counting = replay_snapshot::<P, F>(&factory, history, snap_at, None, true, settings);
    let points = match settings.crash_at {
        Some(k) => vec![k.min(counting.total)],
        None => select_points(0, counting.total, settings.budget),
    };
    let mut violations = Vec::new();
    for &k in &points {
        let in_flight = k >= counting.base;
        let run = replay_snapshot::<P, F>(&factory, history, snap_at, Some(k), in_flight, settings);
        assert_eq!(
            run.base, counting.base,
            "event-stream determinism broke: construction span drifted between replays"
        );
        if in_flight {
            assert_eq!(
                run.total, counting.total,
                "event-stream determinism broke: total span drifted between replays"
            );
            assert_eq!(
                run.snap_boundary, counting.snap_boundary,
                "event-stream determinism broke: snapshot boundary drifted between replays"
            );
        }
        let (retained, kind) = run.recovered.expect("crash point was armed");
        let completed = completed_before(&run.boundaries, k);
        let mut fail = |detail: String| {
            violations.push(Violation {
                crash_event: k,
                triggered_on: kind,
                completed_ops: completed,
                detail,
                repro: case.repro(k),
                flight: run.flight.clone(),
            });
        };
        if retained.len() > 1 {
            fail(format!(
                "recovered {} retained snapshots but the replay took exactly one",
                retained.len()
            ));
        }
        match retained.first() {
            Some(snap) => {
                if snap.rec.truncated {
                    fail(
                        "retained snapshot's recovery walk truncated: its root was durably \
                         retained but part of its frozen path was not in the image \
                         (persist-before-publish violated for a pinned root)"
                            .to_string(),
                    );
                } else if snap.rec.sorted_pairs() != frozen {
                    fail(format!(
                        "retained snapshot (slot {}, version {}) recovered {:?} but its frozen \
                         contents (model after {} ops) are {:?}",
                        snap.slot,
                        snap.version,
                        snap.rec.sorted_pairs(),
                        snap_at,
                        frozen
                    ));
                }
            }
            None => {
                // The entry commits atomically at the snapshot's completion
                // fence, so under an immediate commit it must be in any image
                // frozen at or past that boundary.
                let durable = in_flight && k >= counting.snap_boundary;
                if durable && matches!(settings.commit, CommitMode::Immediate) {
                    fail(format!(
                        "no retained snapshot recovered, but the snapshot completed at event {} \
                         (crash at {}): its table entry must have been durable",
                        counting.snap_boundary, k
                    ));
                }
            }
        }
    }
    SweepReport {
        case,
        events_construction: counting.base,
        events_total: counting.total,
        points_tested: points.len(),
        violations,
    }
}

/// [`sweep_hamt_snapshot`] for a named policy and history spec, with the
/// snapshot taken at [`default_snap_at`] — the form the `crashtest` CLI and the
/// integration tests drive.
pub fn run_hamt_snapshot_case(
    policy: PolicyKind,
    history: HistorySpec,
    settings: &SweepSettings,
) -> SweepReport {
    let case = CaseMeta {
        structure: SNAPSHOT_STRUCTURE,
        method: "automatic",
        policy: policy.name(),
        history,
        elision: settings.elision,
        commit: settings.commit,
        broken_acks: settings.broken_acks,
    };
    let ops = history.map_history();
    let snap_at = default_snap_at(ops.len());
    match policy {
        PolicyKind::Plain => sweep_hamt_snapshot(case, presets::plain, &ops, snap_at, settings),
        PolicyKind::FlitHt => sweep_hamt_snapshot(
            case,
            |b| presets::flit_ht_sized(b, FLIT_HT_SWEEP_BYTES),
            &ops,
            snap_at,
            settings,
        ),
        PolicyKind::FlitAdjacent => {
            sweep_hamt_snapshot(case, presets::flit_adjacent, &ops, snap_at, settings)
        }
        PolicyKind::FlitCacheLine => {
            sweep_hamt_snapshot(case, presets::flit_cacheline, &ops, snap_at, settings)
        }
        PolicyKind::LinkPersist => {
            sweep_hamt_snapshot(case, presets::link_and_persist, &ops, snap_at, settings)
        }
    }
}

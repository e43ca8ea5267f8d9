//! Sleeping is exact: an overlay whose quiescent nodes sleep
//! ([`drtree_sim::RoundSchedule`]) is, after every public call, the
//! overlay in which every node runs every round.
//!
//! Three copies of one bulk-built overlay take the same random script
//! of rounds, publishes, joins, leaves, crashes, corruptions, moves,
//! fault windows, partitions, stabilizations and canonical fault
//! schedules:
//!
//! * **eager** never lets a node sleep. It carries one blocked link
//!   between two ids nobody holds: a fault-plane entry, so every node
//!   runs every round and no message's fate changes. Each of its rounds
//!   is therefore one that [`DrTreeCluster::wake_all`] before every
//!   round would give;
//! * **elided** lets quiescent nodes sleep;
//! * **woken** sleeps too, but calls `wake_all()` before every public
//!   call, so every wake path is taken at arbitrary points.
//!
//! After every call the three must agree on `snapshot()` (clocks
//! included), every [`drtree_sim::Metrics`] counter and per-label count,
//! the mark log, each node's publish counters and the RNG's next draw.
//!
//! Debug builds run a few small overlays; the release run (`cargo test
//! --release -p drtree-core --test elision`) runs more, up to 1,024
//! subscribers.

use drtree_core::corruption::CorruptionKind;
use drtree_core::{
    run_convergence, ConvergenceConfig, DrTreeCluster, DrTreeConfig, FaultProfile, FaultSchedule,
    ProcessId, PublishReport,
};
use drtree_spatial::{Point, Rect};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const RELEASE: bool = !cfg!(debug_assertions);
const CASES: u32 = if RELEASE { 24 } else { 4 };
const MAX_SUBSCRIBERS: usize = if RELEASE { 1_024 } else { 48 };
const OPS: usize = if RELEASE { 40 } else { 24 };

/// An id no process ever holds: the eager copy's blocked link.
fn nobody() -> ProcessId {
    ProcessId::from_raw(u64::MAX)
}

fn rect(rng: &mut StdRng) -> Rect<2> {
    let x = rng.gen_range(0.0..90.0);
    let y = rng.gen_range(0.0..90.0);
    Rect::new(
        [x, y],
        [x + rng.gen_range(1.0..12.0), y + rng.gen_range(1.0..12.0)],
    )
}

/// What the three copies must agree on after a call.
#[derive(Debug, PartialEq)]
struct Observed {
    now: u64,
    snapshot: Vec<(ProcessId, drtree_core::NodeState<2>)>,
    counters: [u64; 7],
    per_label: Vec<(&'static str, u64)>,
    marks: Vec<(u64, ProcessId)>,
    publish: Vec<(u64, u64)>,
    next_draw: u64,
}

fn observe(cluster: &mut DrTreeCluster<2>) -> Observed {
    let m = cluster.metrics();
    let counters = [
        m.sent(),
        m.delivered(),
        m.dropped(),
        m.to_dead(),
        m.duplicated(),
        m.reordered(),
        m.partitioned_drops(),
    ];
    let per_label = m.per_label().into_iter().collect();
    let marks = m.marks().to_vec();
    let publish = cluster
        .ids()
        .into_iter()
        .map(|id| {
            let p = cluster.node(id).expect("live").pubsub();
            (p.received_total, p.false_positive_total)
        })
        .collect();
    Observed {
        now: cluster.now(),
        snapshot: cluster.snapshot().into_iter().collect(),
        counters,
        per_label,
        marks,
        publish,
        next_draw: cluster.rng().gen(),
    }
}

/// What a publish call reports, in comparable form.
fn reported(reports: &[PublishReport]) -> Vec<(Vec<ProcessId>, u64, u64)> {
    reports
        .iter()
        .map(|r| (r.receivers.clone(), r.messages, r.rounds))
        .collect()
}

struct Copies {
    eager: DrTreeCluster<2>,
    elided: DrTreeCluster<2>,
    woken: DrTreeCluster<2>,
    /// The calls made so far, for the failure message.
    history: Vec<String>,
}

impl Copies {
    fn new(n: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let filters: Vec<Rect<2>> = (0..n).map(|_| rect(&mut rng)).collect();
        let built = DrTreeCluster::build_bulk(DrTreeConfig::default(), seed, &filters);
        let mut eager = built.clone();
        eager.block_link(nobody(), nobody());
        Self {
            eager,
            elided: built.clone(),
            woken: built,
            history: Vec::new(),
        }
    }

    /// Runs `call` on each copy and checks that answers and states agree.
    fn each<R: PartialEq + std::fmt::Debug>(
        &mut self,
        what: &str,
        call: impl Fn(&mut DrTreeCluster<2>) -> R,
    ) -> Result<(), TestCaseError> {
        self.woken.wake_all();
        let answers = [
            call(&mut self.eager),
            call(&mut self.elided),
            call(&mut self.woken),
        ];
        prop_assert_eq!(
            &answers[0],
            &answers[1],
            "{} answered differently elided",
            what
        );
        prop_assert_eq!(
            &answers[0],
            &answers[2],
            "{} answered differently woken",
            what
        );
        let seen = [
            observe(&mut self.eager),
            observe(&mut self.elided),
            observe(&mut self.woken),
        ];
        self.history.push(what.to_string());
        for (copy, other) in [("elided", &seen[1]), ("woken", &seen[2])] {
            prop_assert!(
                seen[0] == *other,
                "after {:?} the {} copy differs: {}",
                self.history,
                copy,
                difference(&seen[0], other)
            );
        }
        Ok(())
    }
}

/// The first thing two observations disagree on.
fn difference(eager: &Observed, other: &Observed) -> String {
    if eager.now != other.now {
        return format!("now {} vs {}", eager.now, other.now);
    }
    if let Some((a, b)) = eager
        .snapshot
        .iter()
        .zip(&other.snapshot)
        .find(|(a, b)| a != b)
    {
        return format!("node state\n  eager: {a:?}\n  other: {b:?}");
    }
    if eager.snapshot.len() != other.snapshot.len() {
        return "live sets".into();
    }
    if eager.counters != other.counters || eager.per_label != other.per_label {
        return format!(
            "metrics {:?} {:?} vs {:?} {:?}",
            eager.counters, eager.per_label, other.counters, other.per_label
        );
    }
    if eager.marks != other.marks {
        return format!("marks {:?} vs {:?}", eager.marks, other.marks);
    }
    if eager.publish != other.publish {
        return "publish counters".into();
    }
    "the RNG's next draw".into()
}

fn script(n: usize, seed: u64) -> Result<(), TestCaseError> {
    let mut copies = Copies::new(n, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let world = Rect::new([0.0, 0.0], [100.0, 100.0]);
    for _ in 0..OPS {
        let ids = copies.elided.ids();
        if ids.len() < 4 {
            break;
        }
        let pick = |rng: &mut StdRng| ids[rng.gen_range(0..ids.len())];
        match rng.gen_range(0..13u32) {
            0..=2 => {
                let k = rng.gen_range(1..8u64);
                copies.each("run_rounds", |c| c.run_rounds(k))?;
            }
            3 | 4 => {
                let (p, pt) = (pick(&mut rng), rect(&mut rng).center());
                copies.each("publish_from", |c| reported(&[c.publish_from(p, pt)]))?;
            }
            5 => {
                let events: Vec<(ProcessId, Point<2>)> = (0..rng.gen_range(1..40))
                    .map(|_| (pick(&mut rng), rect(&mut rng).center()))
                    .collect();
                let window = rng.gen_range(1..16);
                copies.each("publish_pipeline_from", |c| {
                    reported(&c.publish_pipeline_from(&events, window))
                })?;
            }
            6 => {
                let f = rect(&mut rng);
                if rng.gen_bool(0.5) {
                    copies.each("add_subscriber", |c| c.add_subscriber(f))?;
                } else {
                    copies.each("add_subscriber_stable", |c| c.add_subscriber_stable(f))?;
                }
            }
            7 => {
                let id = pick(&mut rng);
                if rng.gen_bool(0.5) {
                    copies.each("crash", |c| c.crash(id))?;
                } else {
                    copies.each("controlled_leave", |c| c.controlled_leave(id))?;
                }
            }
            8 => {
                let (id, kind) = (pick(&mut rng), CorruptionKind::ALL[rng.gen_range(0..8)]);
                copies.each("corrupt", |c| c.corrupt(id, kind))?;
            }
            9 => {
                let (id, f) = (pick(&mut rng), rect(&mut rng));
                copies.each("move_subscriber", |c| c.move_subscriber(id, f))?;
            }
            10 => {
                let faults = match rng.gen_range(0..3) {
                    0 => FaultProfile::lossy(0.2),
                    1 => FaultProfile::duplicating(0.3),
                    _ => FaultProfile::reordering(0.3, 3),
                };
                let k = rng.gen_range(1..6u64);
                copies.each("fault window", |c| {
                    c.set_faults(faults);
                    c.run_rounds(k);
                    c.set_faults(FaultProfile::default());
                })?;
            }
            11 => {
                let cut = ids.len() / 2;
                let groups = vec![ids[..cut].to_vec(), ids[cut..].to_vec()];
                let k = rng.gen_range(1..6u64);
                copies.each("partition", |c| {
                    c.partition(&groups);
                    c.run_rounds(k);
                    c.heal();
                })?;
            }
            _ => {
                if n <= 256 && rng.gen_bool(0.5) {
                    let schedules = FaultSchedule::canonical(&world, ids.len());
                    let schedule = &schedules[rng.gen_range(0..schedules.len())];
                    copies.each("run_convergence", |c| {
                        let r = run_convergence(c, schedule, &ConvergenceConfig::default());
                        (r.recovery_rounds, r.post_false_negatives, r.dropped)
                    })?;
                } else {
                    copies.each("stabilize", |c| c.stabilize(500))?;
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn sleeping_nodes_change_nothing(seed in 0u64..1_000_000, size in 0usize..1_000) {
        // Mostly small overlays, now and then one near the cap.
        let n = if size % 5 == 0 { MAX_SUBSCRIBERS } else { 8 + size % (MAX_SUBSCRIBERS / 4) };
        script(n, seed)?;
    }
}

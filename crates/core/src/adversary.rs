//! Adversarial fault schedules and the convergence/SLO harness.
//!
//! The paper's headline claim is self-stabilization: from an *arbitrary*
//! configuration the DR-tree reaches a legal state in a finite number of
//! rounds (Lemma 3.6), after which dissemination is exact again — no
//! false negatives (§2.3). The rest of the crate exercises clean joins,
//! one-shot crashes and one-shot corruptions; this module scripts
//! *sustained* adversity and measures the recovery the lemmas promise:
//!
//! * [`FaultSchedule`] — a seeded, printable script of timed
//!   [`FaultEvent`]s applied between protocol rounds: partitions that
//!   later heal, correlated regional crashes (every process whose filter
//!   falls in a rectangle — Lemma 3.5's simultaneous failures, but
//!   spatially clustered), lossy burst windows, duplication/reordering
//!   windows, and corruption volleys reusing
//!   [`CorruptionKind`] (Lemma 3.6).
//! * [`run_convergence`] — drives a schedule against a
//!   [`DrTreeCluster`] while pipelined publish traffic flows, then
//!   measures rounds-to-legal with [`DrTreeCluster::check_legal`] as
//!   the fixpoint oracle, asserts the recovery stayed within a round
//!   budget, and checks **exact post-recovery delivery**: the pipelined
//!   engine must equal a sequential reference and miss no matching
//!   subscriber. Per-event injection-to-quiescence distributions
//!   (p50/p99/p999) are recorded throughout — the SLO half of the
//!   harness.
//!
//! Which lemma each canonical schedule targets:
//!
//! | schedule | paper claim |
//! |---|---|
//! | `partition-heal` | Lemma 3.6 (arbitrary start after merge) + §2.3 exactness after repair |
//! | `regional-crash` | Lemma 3.5 (simultaneous crashes), spatially correlated |
//! | `lossy-burst` | §2.1 fair-lossy links: stabilization outlives loss windows |
//! | `dup-reorder` | §2.1 asynchrony: no FIFO/once-only assumptions in the protocol |
//! | `corruption-volley` | Lemma 3.6 (transient memory corruption), repeated |
//! | `broker-churn` | non-persistent peers (Bilgen & Wagner, PAPERS.md): a whole Hilbert-range broker crashes, then warm- or cold-rejoins |
//!
//! The broker-level faults ([`FaultEvent::BrokerCrash`] /
//! [`FaultEvent::BrokerRejoin`]) script the federated fabric's
//! crash/rejoin story (`drtree-pubsub::federation`). On a plain
//! single-broker cluster this module interprets them spatially, so the
//! same schedules exercise both layers: a broker crash takes down the
//! processes whose filter-center Hilbert keys fall in the broker's
//! contiguous curve chunk (capped like a regional crash), and a rejoin
//! re-adds subscribers with exactly the crashed filters through the
//! ordinary join protocol — warm and cold only differ one level up,
//! where a warm rejoin restores a snapshot and catches up by delta.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use drtree_sim::{FaultProfile, ProcessId};
use drtree_spatial::hilbert::GridMapper;
use drtree_spatial::{Point, Rect};

use crate::cluster::DrTreeCluster;
use crate::corruption::CorruptionKind;

/// One scripted fault, applied between protocol rounds.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent<const D: usize> {
    /// Cut the network in two: processes whose filter center lies in
    /// `region` against the rest. Successive partitions compose.
    Partition {
        /// Spatial half of the cut: filter centers inside vs outside.
        region: Rect<D>,
    },
    /// Remove every partition cut installed so far.
    Heal,
    /// Correlated regional crash: up to `max` processes whose filter
    /// centers fall in `region` depart uncontrolled, together. At
    /// least two survivors always remain.
    RegionalCrash {
        /// Processes whose filter center lies here crash.
        region: Rect<D>,
        /// Upper bound on simultaneous victims.
        max: usize,
    },
    /// Open a message fault window (loss / duplication / reordering).
    Faults {
        /// The knobs active until [`FaultEvent::ClearFaults`].
        profile: FaultProfile,
    },
    /// Close the message fault window (restore a perfect network).
    ClearFaults,
    /// Corrupt the memory of `count` randomly drawn live processes.
    Corruption {
        /// The corruption applied to each victim.
        kind: CorruptionKind,
        /// Number of victims (drawn with the cluster's seeded RNG).
        count: usize,
    },
    /// Crash federated broker `broker` of a fabric of `brokers`: the
    /// whole instance — one contiguous Hilbert range of the
    /// subscription space — departs uncontrolled. On a plain cluster
    /// the chunk of processes whose filter-center curve keys fall in
    /// that range crashes together (capped to keep two survivors and
    /// at most `n/8` victims, like [`FaultEvent::RegionalCrash`]).
    BrokerCrash {
        /// Fabric index of the victim broker, `0..brokers`.
        broker: usize,
        /// Fabric size the index is relative to, so any consumer maps
        /// the broker to the same curve chunk.
        brokers: usize,
    },
    /// Rejoin a previously crashed broker. `warm` restarts from a
    /// checkpoint buffer plus delta catch-up; `!warm` rebuilds cold by
    /// peer re-replication. On a plain cluster both re-add subscribers
    /// with exactly the filters the matching [`FaultEvent::BrokerCrash`]
    /// took down, through the ordinary join protocol.
    BrokerRejoin {
        /// Fabric index of the rejoining broker, `0..brokers`.
        broker: usize,
        /// Fabric size the index is relative to.
        brokers: usize,
        /// Warm restart (snapshot + delta catch-up) vs cold rebuild.
        warm: bool,
    },
}

impl<const D: usize> std::fmt::Display for FaultEvent<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultEvent::Partition { region } => write!(f, "partition region={region:?}"),
            FaultEvent::Heal => write!(f, "heal"),
            FaultEvent::RegionalCrash { region, max } => {
                write!(f, "regional-crash max={max} region={region:?}")
            }
            FaultEvent::Faults { profile } => write!(
                f,
                "faults drop={} dup={} reorder={}x{}",
                profile.drop_probability,
                profile.duplicate_probability,
                profile.reorder_probability,
                profile.reorder_extra
            ),
            FaultEvent::ClearFaults => write!(f, "clear-faults"),
            FaultEvent::Corruption { kind, count } => {
                write!(f, "corruption kind={kind:?} count={count}")
            }
            FaultEvent::BrokerCrash { broker, brokers } => {
                write!(f, "broker-crash {broker}/{brokers}")
            }
            FaultEvent::BrokerRejoin {
                broker,
                brokers,
                warm,
            } => {
                write!(
                    f,
                    "broker-rejoin {broker}/{brokers} {}",
                    if *warm { "warm" } else { "cold" }
                )
            }
        }
    }
}

/// A [`FaultEvent`] pinned to a round offset within its schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedFault<const D: usize> {
    /// Round offset (from the start of the schedule) of the injection.
    pub at: u64,
    /// The fault injected.
    pub event: FaultEvent<D>,
}

/// A deterministic script of timed faults plus the recovery contract:
/// the faulty phase lasts `duration` rounds (with background publish
/// traffic flowing), after which the harness force-heals and the
/// overlay must reach a legal configuration within `budget` rounds.
///
/// Printable via `Display` (one line per event) so every benchmark run
/// records exactly which adversity it survived.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule<const D: usize> {
    /// Schedule name (used in reports and bench JSON).
    pub name: String,
    /// The scripted faults, sorted by `at`.
    pub events: Vec<TimedFault<D>>,
    /// Rounds the adversarial phase lasts.
    pub duration: u64,
    /// Round budget for post-fault recovery to `check_legal == Ok`.
    pub budget: u64,
}

impl<const D: usize> std::fmt::Display for FaultSchedule<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} (duration={}, budget={})",
            self.name, self.duration, self.budget
        )?;
        for e in &self.events {
            write!(f, "; @{} {}", e.at, e.event)?;
        }
        Ok(())
    }
}

/// Splits `world` in half along axis 0 and returns the lower half.
fn lower_half<const D: usize>(world: &Rect<D>) -> Rect<D> {
    let mut hi = *world.upper();
    hi[0] = (world.lo(0) + world.hi(0)) / 2.0;
    Rect::new(*world.lower(), hi)
}

/// The lower-corner quadrant of `world` (halved along every axis).
fn corner_quadrant<const D: usize>(world: &Rect<D>) -> Rect<D> {
    let mut hi = *world.upper();
    for (d, h) in hi.iter_mut().enumerate() {
        *h = (world.lo(d) + world.hi(d)) / 2.0;
    }
    Rect::new(*world.lower(), hi)
}

impl<const D: usize> FaultSchedule<D> {
    /// Default recovery budget of the canonical schedules, before any
    /// per-scale adjustment by the caller.
    pub const DEFAULT_BUDGET: u64 = 3_000;

    /// Partition the overlay spatially in two for 24 rounds, then heal
    /// (the merge-of-arbitrary-trees face of Lemma 3.6).
    pub fn partition_heal(world: &Rect<D>) -> Self {
        Self {
            name: "partition-heal".into(),
            events: vec![
                TimedFault {
                    at: 0,
                    event: FaultEvent::Partition {
                        region: lower_half(world),
                    },
                },
                TimedFault {
                    at: 24,
                    event: FaultEvent::Heal,
                },
            ],
            duration: 36,
            budget: Self::DEFAULT_BUDGET,
        }
    }

    /// Simultaneously crash up to `max` processes whose filters sit in
    /// one corner of the world (Lemma 3.5, spatially correlated).
    pub fn regional_crash(world: &Rect<D>, max: usize) -> Self {
        Self {
            name: "regional-crash".into(),
            events: vec![TimedFault {
                at: 4,
                event: FaultEvent::RegionalCrash {
                    region: corner_quadrant(world),
                    max,
                },
            }],
            duration: 24,
            budget: Self::DEFAULT_BUDGET,
        }
    }

    /// A 20-round window in which 30% of all messages are lost (§2.1
    /// fair-lossy links).
    pub fn lossy_burst() -> Self {
        Self {
            name: "lossy-burst".into(),
            events: vec![
                TimedFault {
                    at: 0,
                    event: FaultEvent::Faults {
                        profile: FaultProfile::lossy(0.3),
                    },
                },
                TimedFault {
                    at: 20,
                    event: FaultEvent::ClearFaults,
                },
            ],
            duration: 30,
            budget: Self::DEFAULT_BUDGET,
        }
    }

    /// A 20-round window of message duplication and reordering — the
    /// protocol may assume neither once-only nor FIFO delivery.
    pub fn dup_reorder() -> Self {
        Self {
            name: "dup-reorder".into(),
            events: vec![
                TimedFault {
                    at: 0,
                    event: FaultEvent::Faults {
                        profile: FaultProfile {
                            duplicate_probability: 0.25,
                            reorder_probability: 0.25,
                            reorder_extra: 3,
                            ..FaultProfile::default()
                        },
                    },
                },
                TimedFault {
                    at: 20,
                    event: FaultEvent::ClearFaults,
                },
            ],
            duration: 30,
            budget: Self::DEFAULT_BUDGET,
        }
    }

    /// Three volleys of memory corruption, cycling through
    /// [`CorruptionKind::ALL`] (Lemma 3.6's transient faults, repeated
    /// while earlier repairs are still in progress).
    pub fn corruption_volley() -> Self {
        let kinds = CorruptionKind::ALL;
        Self {
            name: "corruption-volley".into(),
            events: (0..3)
                .map(|i| TimedFault {
                    at: 2 + 6 * i,
                    event: FaultEvent::Corruption {
                        kind: kinds[(i as usize * 3) % kinds.len()],
                        count: 3,
                    },
                })
                .collect(),
            duration: 24,
            budget: Self::DEFAULT_BUDGET,
        }
    }

    /// Broker churn on a four-broker fabric: crash one broker, let
    /// traffic flow over the takeover window, warm-rejoin it, then
    /// crash a *different* broker and cold-rejoin it — the
    /// non-persistent-peers scenario (Bilgen & Wagner), both rejoin
    /// flavors in one script.
    pub fn broker_churn() -> Self {
        const BROKERS: usize = 4;
        Self {
            name: "broker-churn".into(),
            events: vec![
                TimedFault {
                    at: 2,
                    event: FaultEvent::BrokerCrash {
                        broker: 1,
                        brokers: BROKERS,
                    },
                },
                TimedFault {
                    at: 14,
                    event: FaultEvent::BrokerRejoin {
                        broker: 1,
                        brokers: BROKERS,
                        warm: true,
                    },
                },
                TimedFault {
                    at: 24,
                    event: FaultEvent::BrokerCrash {
                        broker: 3,
                        brokers: BROKERS,
                    },
                },
                TimedFault {
                    at: 36,
                    event: FaultEvent::BrokerRejoin {
                        broker: 3,
                        brokers: BROKERS,
                        warm: false,
                    },
                },
            ],
            duration: 46,
            budget: Self::DEFAULT_BUDGET,
        }
    }

    /// The six canonical schedules over a world rectangle, sized for a
    /// cluster of `n` subscribers (the regional crash takes up to
    /// `n/8` victims; broker crashes cap themselves the same way).
    pub fn canonical(world: &Rect<D>, n: usize) -> Vec<Self> {
        vec![
            Self::partition_heal(world),
            Self::regional_crash(world, (n / 8).max(1)),
            Self::lossy_burst(),
            Self::dup_reorder(),
            Self::corruption_volley(),
            Self::broker_churn(),
        ]
    }

    /// A seeded random schedule: 1–3 fault motifs drawn from the same
    /// families as the canonical schedules, with randomized windows and
    /// intensities. Deterministic in `seed`; used by the property tests
    /// to explore schedules no one thought to script.
    pub fn random(seed: u64, world: &Rect<D>) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut events = Vec::new();
        let motifs = rng.gen_range(1..=3);
        let mut at = 0u64;
        for _ in 0..motifs {
            at += rng.gen_range(0..4);
            match rng.gen_range(0..6) {
                0 => {
                    let region = if rng.gen_bool(0.5) {
                        lower_half(world)
                    } else {
                        corner_quadrant(world)
                    };
                    events.push(TimedFault {
                        at,
                        event: FaultEvent::Partition { region },
                    });
                    at += rng.gen_range(4..16);
                    events.push(TimedFault {
                        at,
                        event: FaultEvent::Heal,
                    });
                }
                1 => {
                    events.push(TimedFault {
                        at,
                        event: FaultEvent::RegionalCrash {
                            region: corner_quadrant(world),
                            max: rng.gen_range(1..=8),
                        },
                    });
                    at += rng.gen_range(2..8);
                }
                2 => {
                    events.push(TimedFault {
                        at,
                        event: FaultEvent::Faults {
                            profile: FaultProfile::lossy(rng.gen_range(0.05..0.4)),
                        },
                    });
                    at += rng.gen_range(4..16);
                    events.push(TimedFault {
                        at,
                        event: FaultEvent::ClearFaults,
                    });
                }
                3 => {
                    events.push(TimedFault {
                        at,
                        event: FaultEvent::Faults {
                            profile: FaultProfile {
                                duplicate_probability: rng.gen_range(0.05..0.35),
                                reorder_probability: rng.gen_range(0.05..0.35),
                                reorder_extra: rng.gen_range(1..=4),
                                ..FaultProfile::default()
                            },
                        },
                    });
                    at += rng.gen_range(4..16);
                    events.push(TimedFault {
                        at,
                        event: FaultEvent::ClearFaults,
                    });
                }
                4 => {
                    let kinds = CorruptionKind::ALL;
                    events.push(TimedFault {
                        at,
                        event: FaultEvent::Corruption {
                            kind: kinds[rng.gen_range(0..kinds.len())],
                            count: rng.gen_range(1..=3),
                        },
                    });
                    at += rng.gen_range(2..8);
                }
                _ => {
                    let brokers = rng.gen_range(2..=4);
                    let broker = rng.gen_range(0..brokers);
                    events.push(TimedFault {
                        at,
                        event: FaultEvent::BrokerCrash { broker, brokers },
                    });
                    at += rng.gen_range(4..16);
                    events.push(TimedFault {
                        at,
                        event: FaultEvent::BrokerRejoin {
                            broker,
                            brokers,
                            warm: rng.gen_bool(0.5),
                        },
                    });
                    at += rng.gen_range(2..8);
                }
            }
        }
        let duration = at + 8;
        Self {
            name: format!("random-{seed}"),
            events,
            duration,
            budget: Self::DEFAULT_BUDGET,
        }
    }
}

/// Harness knobs for [`run_convergence`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvergenceConfig {
    /// Max concurrently in-flight background publish events.
    pub window: usize,
    /// Background events injected per faulty round (window permitting).
    pub events_per_round: usize,
    /// Extra rounds after the schedule to drain in-flight traffic
    /// before force-finalizing stragglers.
    pub drain_margin: u64,
    /// Post-recovery probe events for the exactness check.
    pub probe_events: usize,
    /// Rounds between legality checks during recovery (`check_legal`
    /// clones the global state; a stride keeps large recoveries cheap
    /// at the cost of quantizing `recovery_rounds`).
    pub check_stride: u64,
}

impl Default for ConvergenceConfig {
    fn default() -> Self {
        Self {
            window: 8,
            events_per_round: 1,
            drain_margin: 64,
            probe_events: 32,
            check_stride: 4,
        }
    }
}

/// Nearest-rank percentiles of per-event injection-to-quiescence spans
/// (rounds on the synchronous engine, time units on the asynchronous
/// one).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyDistribution {
    /// Number of measured events.
    pub samples: usize,
    /// Median.
    pub p50: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Worst observed span.
    pub max: u64,
}

impl LatencyDistribution {
    /// Computes nearest-rank percentiles; sorts `samples` in place.
    pub fn from_samples(samples: &mut [u64]) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        samples.sort_unstable();
        let rank = |q: f64| {
            let idx = ((q * samples.len() as f64).ceil() as usize).max(1) - 1;
            samples[idx.min(samples.len() - 1)]
        };
        Self {
            samples: samples.len(),
            p50: rank(0.50),
            p99: rank(0.99),
            p999: rank(0.999),
            max: samples[samples.len() - 1],
        }
    }
}

/// Outcome of driving one [`FaultSchedule`] against a cluster.
#[derive(Debug, Clone)]
pub struct ConvergenceReport {
    /// `Display` form of the schedule that ran.
    pub schedule: String,
    /// Subscribers alive after the schedule (crashes excluded).
    pub survivors: usize,
    /// Processes crashed by the schedule.
    pub crashed: usize,
    /// Rounds from the forced heal to `check_legal == Ok`, quantized to
    /// the check stride; `None` if the budget was exhausted first.
    pub recovery_rounds: Option<u64>,
    /// The round budget the recovery was held to.
    pub budget: u64,
    /// Injection-to-quiescence spans of background events published
    /// *during* the faulty phase.
    pub fault_latency: LatencyDistribution,
    /// Injection-to-quiescence spans of the pipelined post-recovery
    /// probe events.
    pub post_latency: LatencyDistribution,
    /// Post-recovery pipelined delivery equals the sequential
    /// reference, event by event.
    pub post_pipeline_matches_sequential: bool,
    /// Matching subscribers missed post-recovery across both engines'
    /// probes (must be 0: §2.3's no-false-negatives).
    pub post_false_negatives: u64,
    /// Extra message copies the schedule's duplication windows injected.
    pub duplicated: u64,
    /// Messages the schedule's reorder windows delayed.
    pub reordered: u64,
    /// Messages lost to partition cuts.
    pub partitioned_drops: u64,
    /// Total messages lost during the run (all causes).
    pub dropped: u64,
}

impl ConvergenceReport {
    /// The schedule's full contract held: recovery within budget and
    /// exact post-recovery delivery.
    pub fn passed(&self) -> bool {
        self.recovery_rounds.is_some()
            && self.post_pipeline_matches_sequential
            && self.post_false_negatives == 0
    }
}

/// Applies one fault event to the cluster; returns how many processes
/// it crashed. `ledger` remembers, per broker index, which filters a
/// [`FaultEvent::BrokerCrash`] took down so the matching
/// [`FaultEvent::BrokerRejoin`] can re-add them.
fn apply_event<const D: usize>(
    cluster: &mut DrTreeCluster<D>,
    event: &FaultEvent<D>,
    ledger: &mut BTreeMap<usize, Vec<Rect<D>>>,
) -> usize {
    match event {
        FaultEvent::Partition { region } => {
            let mut inside = Vec::new();
            let mut outside = Vec::new();
            for id in cluster.ids() {
                let center = cluster.node(id).expect("live id").filter().center();
                if region.contains_point(&center) {
                    inside.push(id);
                } else {
                    outside.push(id);
                }
            }
            if !inside.is_empty() && !outside.is_empty() {
                cluster.partition(&[inside, outside]);
            }
            0
        }
        FaultEvent::Heal => {
            cluster.heal();
            0
        }
        FaultEvent::RegionalCrash { region, max } => {
            let victims: Vec<ProcessId> = cluster
                .ids()
                .into_iter()
                .filter(|&id| {
                    let center = cluster.node(id).expect("live id").filter().center();
                    region.contains_point(&center)
                })
                .collect();
            // Keep at least two survivors so the overlay still exists.
            let cap = (*max).min(cluster.len().saturating_sub(2));
            let mut crashed = 0;
            for &v in victims.iter().take(cap) {
                cluster.crash(v);
                crashed += 1;
            }
            crashed
        }
        FaultEvent::Faults { profile } => {
            cluster.set_faults(*profile);
            0
        }
        FaultEvent::ClearFaults => {
            cluster.set_faults(FaultProfile::default());
            0
        }
        FaultEvent::Corruption { kind, count } => {
            for _ in 0..*count {
                let ids = cluster.ids();
                if ids.is_empty() {
                    break;
                }
                let victim = ids[cluster.rng().gen_range(0..ids.len())];
                cluster.corrupt(victim, *kind);
            }
            0
        }
        FaultEvent::BrokerCrash { broker, brokers } => {
            let brokers = (*brokers).max(1);
            let broker = *broker % brokers;
            let ids = cluster.ids();
            let filters: Vec<Rect<D>> = ids
                .iter()
                .map(|&id| cluster.node(id).expect("live id").filter())
                .collect();
            let Some(world) = GridMapper::world_of(filters.iter()) else {
                return 0;
            };
            let mapper = GridMapper::new(&world);
            let mut keyed: Vec<(u128, ProcessId, Rect<D>)> = ids
                .iter()
                .zip(&filters)
                .map(|(&id, f)| (mapper.key(f), id, *f))
                .collect();
            keyed.sort_unstable_by_key(|&(k, id, _)| (k, id.raw()));
            // The broker's contiguous curve chunk, capped like a
            // regional crash: two survivors always remain, and at most
            // n/8 victims fall at once (Lemma 3.5 stays in scope).
            let n = keyed.len();
            let chunk = &keyed[broker * n / brokers..(broker + 1) * n / brokers];
            let cap = chunk
                .len()
                .min(cluster.len().saturating_sub(2))
                .min((n / 8).max(1));
            let entry = ledger.entry(broker).or_default();
            let mut crashed = 0;
            for &(_, id, rect) in chunk.iter().take(cap) {
                cluster.crash(id);
                entry.push(rect);
                crashed += 1;
            }
            crashed
        }
        FaultEvent::BrokerRejoin { broker, .. } => {
            // Warm and cold only differ one level up (snapshot restore
            // vs peer re-replication); on a plain cluster both re-add
            // the crashed filters through the ordinary join protocol.
            for rect in ledger.remove(broker).unwrap_or_default() {
                cluster.add_subscriber(rect);
            }
            0
        }
    }
}

/// Drives `schedule` against `cluster` with pipelined background
/// publish traffic, then measures recovery and post-recovery delivery
/// exactness. See the [module docs](self) for the full contract.
///
/// The faulty phase runs for `schedule.duration` rounds: each round,
/// due fault events fire, background events are injected (rotating
/// publishers, points drawn from live filters), one protocol round
/// executes, and quiescent events are finalized with their measured
/// injection-to-quiescence span. Afterwards the harness applies any
/// remaining scripted events, force-heals, clears fault windows, drains
/// straggling traffic, and runs recovery rounds until
/// [`DrTreeCluster::check_legal`] holds (checked every
/// [`ConvergenceConfig::check_stride`] rounds) or the budget runs out.
/// Post-recovery, `probe_events` are published twice on clones — once
/// sequentially, once pipelined — and compared.
pub fn run_convergence<const D: usize>(
    cluster: &mut DrTreeCluster<D>,
    schedule: &FaultSchedule<D>,
    cfg: &ConvergenceConfig,
) -> ConvergenceReport {
    let base_duplicated = cluster.metrics().duplicated();
    let base_reordered = cluster.metrics().reordered();
    let base_partitioned = cluster.metrics().partitioned_drops();
    let base_dropped = cluster.metrics().dropped();

    let mut events = schedule.events.clone();
    events.sort_by_key(|e| e.at);
    let mut next_fault = 0usize;
    let mut crashed = 0usize;
    let mut rejoin_ledger: BTreeMap<usize, Vec<Rect<D>>> = BTreeMap::new();

    // In-flight background events: (event id, injection offset).
    let mut live: Vec<(u64, u64)> = Vec::new();
    let mut fault_samples: Vec<u64> = Vec::new();

    for r in 0..schedule.duration {
        while next_fault < events.len() && events[next_fault].at <= r {
            crashed += apply_event(cluster, &events[next_fault].event, &mut rejoin_ledger);
            next_fault += 1;
        }
        for _ in 0..cfg.events_per_round {
            if live.len() >= cfg.window || cluster.is_empty() {
                break;
            }
            let ids = cluster.ids();
            let publisher = ids[cluster.rng().gen_range(0..ids.len())];
            let target = ids[cluster.rng().gen_range(0..ids.len())];
            let point = cluster.node(target).expect("live id").filter().center();
            let event_id = cluster.inject(publisher, point);
            live.push((event_id, r));
        }
        cluster.run_span(1);
        live.retain(|&(event_id, injected)| {
            if cluster.metrics().tag_inflight(event_id) == 0 {
                fault_samples.push(r + 1 - injected);
                cluster.net.clear_tag(event_id);
                false
            } else {
                true
            }
        });
    }

    // The adversary's time is up: apply remaining scripted events
    // (usually heals), then force a perfect network for recovery.
    while next_fault < events.len() {
        crashed += apply_event(cluster, &events[next_fault].event, &mut rejoin_ledger);
        next_fault += 1;
    }
    cluster.heal();
    cluster.set_faults(FaultProfile::default());

    // Drain straggling background traffic, then force-finalize: a
    // force-finalized event keeps its (capped) measured span — the tail
    // the p999 gate exists to expose.
    let mut extra = 0u64;
    while !live.is_empty() && extra < cfg.drain_margin {
        cluster.run_span(1);
        extra += 1;
        let now = schedule.duration + extra;
        live.retain(|&(event_id, injected)| {
            if cluster.metrics().tag_inflight(event_id) == 0 {
                fault_samples.push(now - injected);
                cluster.net.clear_tag(event_id);
                false
            } else {
                true
            }
        });
    }
    let now = schedule.duration + extra;
    for (event_id, injected) in live.drain(..) {
        fault_samples.push(now - injected);
        cluster.net.clear_tag(event_id);
    }
    cluster.net.retire_tags_below(cluster.next_event_id);

    // Recovery: rounds to the legality fixpoint, within the budget.
    // `check_legal` sees only a state snapshot, and the message queues
    // are never empty (heartbeats gossip forever) — so a configuration
    // can look legal while an in-flight reorganization is about to
    // rewire it, eating any event published meanwhile. Recovery is
    // therefore declared only when legality holds at two consecutive
    // checks with an unchanged structure digest; the recorded rounds
    // are those to the first of the two. Neither check reads a clock,
    // so sleeping nodes' clocks are caught up once, afterwards.
    let mut recovery_rounds = None;
    let mut executed = 0u64;
    let mut candidate: Option<(u64, u64)> = None;
    loop {
        if cluster.check_legal().is_ok() {
            let digest = cluster.structure_digest();
            match candidate {
                Some((first, prev)) if prev == digest => {
                    recovery_rounds = Some(first);
                    break;
                }
                _ => candidate = Some((executed, digest)),
            }
        } else {
            candidate = None;
        }
        if executed >= schedule.budget {
            break;
        }
        let step = cfg.check_stride.max(1).min(schedule.budget - executed);
        cluster.run_span(step);
        executed += step;
    }
    cluster.net.materialize_clocks();

    // Post-recovery exactness: pipelined delivery must equal the
    // sequential reference and miss no matching subscriber.
    let mut post_matches = false;
    let mut post_false_negatives = 0u64;
    let mut post_latency = LatencyDistribution::default();
    if recovery_rounds.is_some() && !cluster.is_empty() {
        let ids = cluster.ids();
        let k = cfg.probe_events.clamp(1, ids.len().max(1) * 4);
        let probes: Vec<(ProcessId, Point<D>)> = (0..k)
            .map(|i| {
                let publisher = ids[i % ids.len()];
                let target = ids[(i * 7 + 3) % ids.len()];
                let point = cluster.node(target).expect("live id").filter().center();
                (publisher, point)
            })
            .collect();
        let mut sequential = cluster.clone();
        let mut pipelined = cluster.clone();
        let seq_reports: Vec<_> = probes
            .iter()
            .map(|&(p, pt)| sequential.publish_from(p, pt))
            .collect();
        let pipe_reports = pipelined.publish_pipeline_from(&probes, 32);
        post_matches = seq_reports
            .iter()
            .zip(&pipe_reports)
            .all(|(a, b)| a.receivers == b.receivers);
        post_false_negatives = seq_reports
            .iter()
            .chain(&pipe_reports)
            .map(|r| r.false_negatives.len() as u64)
            .sum();
        let mut samples: Vec<u64> = pipe_reports.iter().map(|r| r.rounds).collect();
        post_latency = LatencyDistribution::from_samples(&mut samples);
    }

    ConvergenceReport {
        schedule: schedule.to_string(),
        survivors: cluster.len(),
        crashed,
        recovery_rounds,
        budget: schedule.budget,
        fault_latency: LatencyDistribution::from_samples(&mut fault_samples),
        post_latency,
        post_pipeline_matches_sequential: post_matches,
        post_false_negatives,
        duplicated: cluster.metrics().duplicated() - base_duplicated,
        reordered: cluster.metrics().reordered() - base_reordered,
        partitioned_drops: cluster.metrics().partitioned_drops() - base_partitioned,
        dropped: cluster.metrics().dropped() - base_dropped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_distribution_nearest_rank() {
        let mut samples: Vec<u64> = (1..=1000).collect();
        let d = LatencyDistribution::from_samples(&mut samples);
        assert_eq!(d.samples, 1000);
        assert_eq!(d.p50, 500);
        assert_eq!(d.p99, 990);
        assert_eq!(d.p999, 999);
        assert_eq!(d.max, 1000);
        let d = LatencyDistribution::from_samples(&mut []);
        assert_eq!(d.samples, 0);
        assert_eq!(d.p999, 0);
    }

    #[test]
    fn schedules_are_seeded_and_printable() {
        let world: Rect<2> = Rect::new([0.0, 0.0], [100.0, 100.0]);
        assert_eq!(
            FaultSchedule::random(7, &world),
            FaultSchedule::random(7, &world),
            "same seed, same script"
        );
        assert_ne!(
            FaultSchedule::random(7, &world),
            FaultSchedule::random(8, &world)
        );
        for s in FaultSchedule::canonical(&world, 64) {
            let shown = s.to_string();
            assert!(shown.contains(&s.name));
            assert!(!s.events.is_empty());
            assert!(s.duration > 0);
        }
    }
}

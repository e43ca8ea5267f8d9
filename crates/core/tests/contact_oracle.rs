//! The linear contact oracle against the walk it replaced.
//!
//! `reference` is the oracle as both cluster harnesses used to compute
//! it: two ordered maps and one capped parent climb per live node. The
//! linear pass in [`drtree_core::contact`] must give the same answer on
//! *every* parent map — legal trees, forests, dead and never-allocated
//! parents, self-loops and forged cycles (where the answer is whichever
//! member the climb's `live + 1` hop budget runs out on), smallest id
//! on ties — and on a live overlay under a corruption volley.

use std::collections::BTreeMap;

use drtree_core::contact::ContactOracle;
use drtree_core::corruption::CorruptionKind;
use drtree_core::{DrTreeCluster, DrTreeConfig, ProcessId};
use drtree_spatial::Rect;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn pid(raw: u64) -> ProcessId {
    ProcessId::from_raw(raw)
}

/// The pre-linear oracle, kept verbatim as the test-side reference.
fn reference(tops: &BTreeMap<ProcessId, ProcessId>) -> Option<ProcessId> {
    let mut sizes: BTreeMap<ProcessId, usize> = BTreeMap::new();
    for &start in tops.keys() {
        let mut cur = start;
        let mut hops = 0;
        loop {
            let parent = tops.get(&cur).copied();
            match parent {
                Some(p) if p != cur && tops.contains_key(&p) && hops <= tops.len() => {
                    cur = p;
                    hops += 1;
                }
                _ => break,
            }
        }
        *sizes.entry(cur).or_insert(0) += 1;
    }
    sizes
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
        .map(|(root, _)| root)
}

fn linear(slots: usize, tops: &BTreeMap<ProcessId, ProcessId>) -> Option<ProcessId> {
    ContactOracle::default().root(slots, tops.iter().map(|(&id, &p)| (id, p)))
}

/// One slot of a random parent map: `(alive, kind, pick)`.
fn arb_slot() -> impl Strategy<Value = (bool, u8, u64)> {
    (0u8..10, 0u8..9, 0u64..1_000).prop_map(|(alive, kind, pick)| (alive > 1, kind, pick))
}

fn parent_map(spec: &[(bool, u8, u64)]) -> BTreeMap<ProcessId, ProcessId> {
    let n = spec.len() as u64;
    spec.iter()
        .enumerate()
        .filter(|(_, &(alive, _, _))| alive)
        .map(|(i, &(_, kind, pick))| {
            let i = i as u64;
            let parent = match kind {
                // A smaller id: trees and forests (slot 0 is a root).
                0..=3 => pick % i.max(1),
                // A self-loop: an honest root.
                4 => i,
                // Forged beyond any id the engine could allocate.
                5 => u64::MAX,
                // Never allocated, just past the slot range.
                6 => n + pick,
                // Anything allocated, dead or alive: cycles of every
                // length, tails hanging off them, dead parents.
                _ => pick % n,
            };
            (pid(i), pid(parent))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn linear_oracle_equals_reference_walk(
        spec in prop::collection::vec(arb_slot(), 1..48),
    ) {
        let tops = parent_map(&spec);
        prop_assert_eq!(linear(spec.len(), &tops), reference(&tops), "{:?}", tops);
    }

    #[test]
    fn short_cycles_with_tails_equal_reference_walk(
        cycle in 2u64..4,
        tails in prop::collection::vec(0u64..12, 0..12),
        dead in prop::collection::vec(0u64..16, 0..3),
    ) {
        // Slots 0..cycle form the cycle; every later slot hangs off an
        // earlier one, so all of them drain into it.
        let mut tops: BTreeMap<ProcessId, ProcessId> =
            (0..cycle).map(|i| (pid(i), pid((i + 1) % cycle))).collect();
        for (k, &t) in tails.iter().enumerate() {
            let id = cycle + k as u64;
            tops.insert(pid(id), pid(t % id));
        }
        let slots = tops.len();
        for d in dead {
            tops.remove(&pid(d));
        }
        prop_assert_eq!(linear(slots, &tops), reference(&tops), "{:?}", tops);
    }
}

#[test]
fn scratch_reuse_does_not_leak_between_calls() {
    let mut oracle = ContactOracle::default();
    let big: BTreeMap<ProcessId, ProcessId> = (0..40).map(|i| (pid(i), pid(i / 3))).collect();
    let small: BTreeMap<ProcessId, ProcessId> =
        [(pid(1), pid(2)), (pid(2), pid(1)), (pid(3), pid(3))].into();
    for tops in [&big, &small, &big, &BTreeMap::new(), &small] {
        let got = oracle.root(40, tops.iter().map(|(&id, &p)| (id, p)));
        assert_eq!(got, reference(tops));
    }
}

/// `contact()` of a live overlay under a corruption volley equals the
/// reference walk over the same state, round by round, until (and
/// after) the overlay is legal again.
#[test]
fn corruption_volley_yields_the_reference_contact_sequence() {
    let mut rng = StdRng::seed_from_u64(77);
    let filters: Vec<Rect<2>> = (0..256)
        .map(|_| {
            let x = rng.gen_range(0.0..90.0);
            let y = rng.gen_range(0.0..90.0);
            Rect::new(
                [x, y],
                [x + rng.gen_range(1.0..10.0), y + rng.gen_range(1.0..10.0)],
            )
        })
        .collect();
    let mut cluster = DrTreeCluster::build_bulk(DrTreeConfig::default(), 77, &filters);
    let ids = cluster.ids();
    let mut answers = Vec::new();
    for round in 0..120u64 {
        if round < 48 && round % 2 == 0 {
            // Parent forging every volley, the other kinds in turn, and
            // a crash now and then: dead parents and dead roots.
            let kind = CorruptionKind::ALL[(round as usize / 2) % CorruptionKind::ALL.len()];
            for _ in 0..3 {
                let victim = ids[rng.gen_range(0..ids.len())];
                cluster.corrupt(victim, CorruptionKind::RandomParents);
                cluster.corrupt(ids[rng.gen_range(0..ids.len())], kind);
            }
            if round % 12 == 0 {
                cluster.crash(ids[rng.gen_range(0..ids.len())]);
            }
        }
        let tops: BTreeMap<ProcessId, ProcessId> = cluster
            .snapshot()
            .into_iter()
            .map(|(id, st)| (id, st.level(st.top()).map_or(id, |l| l.parent)))
            .collect();
        assert_eq!(cluster.contact(), reference(&tops), "round {round}");
        answers.push(cluster.contact());
        cluster.run_round();
    }
    answers.dedup();
    assert!(answers.len() > 1, "the volley never moved the contact");
    assert!(cluster.stabilize(4_000).is_some(), "the overlay recovers");
}

//! Property tests for the engine's CSR-shaped flat message planes.
//!
//! The `Inbox`-based engine replaced per-slot `Vec` mailboxes (PR 4); the
//! exact pre-refactor behavior is pinned by recorded FNV fingerprints in
//! `congest_sim`'s unit tests. These properties cover what fingerprints
//! can't: on *arbitrary* random topologies (G(n,p), Watts–Strogatz,
//! Holme–Kim power-law-cluster), the sequential and parallel executors
//! must agree bit-for-bit, runs must be reproducible, and the port-ordered
//! inbox must drive Luby's MIS to a verifiable maximal independent set.

use congest_graph::Graph;
use congest_mis::{verify_mis, LubyMis};
use congest_sim::{Adversary, AsyncScheduler, Engine, SimConfig};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Strategy: one of the three random topology families, sized so runs are
/// quick but message-dense enough to exercise delivery and compaction.
fn arb_topology() -> impl Strategy<Value = Graph> {
    (0u8..3, 12usize..90, 0u64..1 << 32).prop_map(|(family, n, seed)| {
        let mut rng = SmallRng::seed_from_u64(seed);
        match family {
            0 => congest_graph::generators::gnp(n, 0.08, &mut rng),
            1 => {
                let k = 4.min(n - 1) & !1; // even, < n
                congest_graph::generators::watts_strogatz(n, k.max(2), 0.15, &mut rng)
            }
            _ => congest_graph::generators::power_law_cluster(n, 3.min(n - 1), 0.4, &mut rng),
        }
    })
}

/// Strategy: an arbitrary combination of the fault knobs — each axis
/// independently off or at a meaningful dose — plus an optional async
/// scheduler. Covers single-axis schedules and the all-knobs-at-once
/// corner.
fn arb_faults() -> impl Strategy<Value = (Adversary, Option<AsyncScheduler>)> {
    const PROBS: [f64; 3] = [0.0, 0.1, 0.4];
    const DELAYS: [usize; 3] = [0, 1, 4];
    (
        (0u8..3, 0u8..3, 0u8..3, 0u8..3),
        (0u8..2, 0u8..2, 0u8..3, 0u64..1 << 16),
    )
        .prop_map(
            |((drop_i, dup_i, reorder_i, corrupt_i), (crash_i, restart_i, delay_i, seed))| {
                let mut adv = Adversary::default()
                    .with_seed(seed)
                    .with_drop_prob(PROBS[drop_i as usize])
                    .with_dup_prob(PROBS[dup_i as usize])
                    .with_reorder_prob(PROBS[reorder_i as usize])
                    .with_corrupt_prob(PROBS[corrupt_i as usize])
                    .with_crash_prob([0.0, 0.03][crash_i as usize]);
                if restart_i == 1 {
                    adv = adv.with_restart_after(2);
                }
                let max_delay = DELAYS[delay_i as usize];
                let sched =
                    (max_delay > 0).then(|| AsyncScheduler::uniform(max_delay, seed ^ 0xA5));
                (adv, sched)
            },
        )
}

/// A faulty config for `g`: every knob from [`arb_faults`], plus a round
/// cap — faults may legitimately prevent halting, and these properties
/// are about executor agreement, not protocol liveness.
fn faulty_config(g: &Graph, adv: Adversary, sched: Option<AsyncScheduler>) -> SimConfig {
    let mut config = SimConfig::congest_for(g)
        .with_max_rounds(200)
        .with_adversary(adv);
    if let Some(s) = sched {
        config = config.with_scheduler(s);
    }
    config
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `run` and `run_parallel` share the flat mailboxes; outputs and
    /// statistics must be identical for every topology and seed.
    #[test]
    fn sequential_and_parallel_agree_on_random_topologies(
        g in arb_topology(),
        seed in 0u64..1 << 20,
    ) {
        let config = SimConfig::congest_for(&g);
        let seq = Engine::build(&g, config.clone(), |_| LubyMis::new()).run(seed);
        let par = Engine::build(&g, config, |_| LubyMis::new()).run_parallel(seed);
        prop_assert!(seq.completed);
        prop_assert_eq!(seq.outputs, par.outputs);
        prop_assert_eq!(seq.stats, par.stats);
    }

    /// The plane-backed engine stays deterministic: rebuilding and
    /// rerunning with the same seed reproduces the run exactly, and the
    /// result is a correct MIS (the inbox port-ordering guarantee feeds
    /// Luby's priority comparisons).
    #[test]
    fn runs_are_reproducible_and_correct(
        g in arb_topology(),
        seed in 0u64..1 << 20,
    ) {
        let config = SimConfig::congest_for(&g);
        let a = Engine::build(&g, config.clone(), |_| LubyMis::new()).run(seed);
        let b = Engine::build(&g, config, |_| LubyMis::new()).run_parallel(seed);
        prop_assert_eq!(&a.outputs, &b.outputs);
        let results = a.into_outputs();
        prop_assert!(verify_mis(&g, &results).is_ok());
    }

    /// Tracing pins delivery to one thread in ascending node-id order;
    /// that path must still agree with the untraced one on everything
    /// they both report.
    #[test]
    fn traced_and_compacted_paths_agree(
        g in arb_topology(),
        seed in 0u64..1 << 20,
    ) {
        let traced = Engine::build(&g, SimConfig::congest_for(&g).with_traces(), |_| LubyMis::new())
            .run(seed);
        let plain = Engine::build(&g, SimConfig::congest_for(&g), |_| LubyMis::new()).run(seed);
        prop_assert_eq!(traced.outputs, plain.outputs);
        prop_assert_eq!(traced.stats, plain.stats);
        prop_assert_eq!(traced.traces.len() as u64, traced.stats.total_messages);
    }

    /// Every fault knob — drops, duplication, reordering, corruption,
    /// crashes (with and without restart), async delays, and their
    /// combinations — must produce the *same* run from the sequential and
    /// parallel executors on every topology family: all fault coins are
    /// pure in (seed, round, coordinates), never in execution order.
    #[test]
    fn executors_agree_under_every_fault_knob(
        g in arb_topology(),
        faults in arb_faults(),
        seed in 0u64..1 << 20,
    ) {
        let (adv, sched) = faults;
        let config = faulty_config(&g, adv, sched);
        let seq = Engine::build(&g, config.clone(), |_| LubyMis::new()).run(seed);
        let par = Engine::build(&g, config, |_| LubyMis::new()).run_parallel(seed);
        prop_assert_eq!(seq.outputs, par.outputs);
        prop_assert_eq!(seq.stats, par.stats);
    }

    /// The traced and untraced delivery paths must also agree under every
    /// fault schedule: fault coins cannot depend on processing order, and
    /// the reboots of restart mode, merged back into the active list,
    /// must be invisible in outputs and stats.
    #[test]
    fn traced_and_compacted_paths_agree_under_faults(
        g in arb_topology(),
        faults in arb_faults(),
        seed in 0u64..1 << 20,
    ) {
        let (adv, sched) = faults;
        let config = faulty_config(&g, adv, sched);
        let traced = Engine::build(&g, config.clone().with_traces(), |_| LubyMis::new()).run(seed);
        let plain = Engine::build(&g, config, |_| LubyMis::new()).run(seed);
        prop_assert_eq!(traced.outputs, plain.outputs);
        prop_assert_eq!(traced.stats, plain.stats);
    }

    /// Fault schedules replay: the same (graph, knobs, seed) triple gives
    /// bit-identical runs on rebuilt engines.
    #[test]
    fn fault_schedules_replay_on_random_topologies(
        g in arb_topology(),
        faults in arb_faults(),
        seed in 0u64..1 << 20,
    ) {
        let (adv, sched) = faults;
        let config = faulty_config(&g, adv, sched);
        let a = Engine::build(&g, config.clone(), |_| LubyMis::new()).run(seed);
        let b = Engine::build(&g, config, |_| LubyMis::new()).run(seed);
        prop_assert_eq!(a.outputs, b.outputs);
        prop_assert_eq!(a.stats, b.stats);
    }
}

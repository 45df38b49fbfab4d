//! Pins the grouped matching's exact behaviour: an FNV-1a digest per
//! graph family over the completion flag, the matched edge ids and every
//! `RunStats` counter of 21 `mwm_grouped_with` runs — three weight ranges
//! crossed with no faults and six fault schedules, alternating
//! synchronous runs with uniform(3) message delays, under a round cap
//! of 200. The star and the complete graph have more than 64 ports at
//! one node. The digests were recorded on the Θ(deg²) implementation
//! that rescanned every incident edge per port, so any rewrite of the
//! protocol's state must keep its messages, their order and its RNG
//! draws exactly.

use congest_approx::matching::mwm_grouped_with;
use congest_graph::{generators, Graph};
use congest_sim::{Adversary, AsyncScheduler, RunStats, SimConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn mix(&mut self, x: u64) {
        self.0 ^= x;
        self.0 = self.0.wrapping_mul(0x100000001b3);
    }
}

/// Mixes every counter; the destructuring breaks the build when a field
/// is added, so the digest cannot silently skip it.
fn mix_stats(h: &mut Fnv, stats: &RunStats) {
    let RunStats {
        rounds,
        total_messages,
        max_message_bits,
        budget_violations,
        dropped_messages,
        adversary_dropped_messages,
        crashed_nodes,
        delayed_messages,
        duplicated_messages,
        corrupted_messages,
        restarted_nodes,
        edges_flipped,
        nodes_joined,
        nodes_left,
    } = *stats;
    for x in [rounds as u64, total_messages, max_message_bits as u64] {
        h.mix(x);
    }
    for x in [
        budget_violations,
        dropped_messages,
        adversary_dropped_messages,
        crashed_nodes,
        delayed_messages,
        duplicated_messages,
        corrupted_messages,
        restarted_nodes,
        edges_flipped,
        nodes_joined,
        nodes_left,
    ] {
        h.mix(x);
    }
}

fn families() -> [(&'static str, Graph); 5] {
    let mut rng = SmallRng::seed_from_u64(17);
    [
        ("gnp120", generators::gnp(120, 0.08, &mut rng)),
        ("star130", generators::star(130)),
        ("complete66", generators::complete(66)),
        ("ws120", generators::watts_strogatz(120, 6, 0.2, &mut rng)),
        (
            "plc120",
            generators::power_law_cluster(120, 3, 0.3, &mut rng),
        ),
    ]
}

/// No faults, then one schedule per fault knob.
fn schedules(seed: u64) -> [Option<Adversary>; 7] {
    [
        None,
        Some(Adversary::message_drops(0.05, seed)),
        Some(Adversary::node_crashes(0.01, seed).with_restart_after(3)),
        Some(Adversary::message_duplicates(0.1, seed).with_reorder_prob(0.3)),
        Some(Adversary::message_corruption(0.05, seed)),
        Some(Adversary::edge_flips(0.01, seed)),
        Some(Adversary::node_churn(0.2, 0.005, seed)),
    ]
}

/// Digests recorded before the O(deg) rewrite of the protocol state.
const RECORDED: [(&str, u64); 5] = [
    ("gnp120", 0x58bb9d7115b65063),
    ("star130", 0x49ca0fcb33740046),
    ("complete66", 0x0856eb63894607df),
    ("ws120", 0x70d595b2cebe310d),
    ("plc120", 0x4b647da1c0d8c2c9),
];

#[test]
fn grouped_matching_digests_are_unchanged() {
    let mut completed_runs = 0;
    let mut faulted_runs = 0;
    let mut digests = Vec::new();
    for (name, base) in families() {
        let mut h = Fnv(0xcbf29ce484222325);
        for (wi, max_weight) in [1, 64, 1 << 16].into_iter().enumerate() {
            let mut g = base.clone();
            let mut rng = SmallRng::seed_from_u64(max_weight);
            generators::randomize_edge_weights(&mut g, max_weight, &mut rng);
            for (fi, adversary) in schedules(0xC0DE + wi as u64).into_iter().enumerate() {
                let run = (wi * 7 + fi) as u64;
                let mut config = SimConfig::congest_for(&g).with_max_rounds(200);
                if let Some(adv) = adversary {
                    config = config.with_adversary(adv);
                }
                if run % 2 == 1 {
                    config = config.with_scheduler(AsyncScheduler::uniform(3, run));
                }
                let (out, completed) = mwm_grouped_with(&g, config, 100 + run);
                assert!(out.matching.is_valid(&g), "{name} run {run}");
                completed_runs += usize::from(completed);
                let s = &out.stats;
                faulted_runs += usize::from(
                    s.adversary_dropped_messages
                        + s.crashed_nodes
                        + s.duplicated_messages
                        + s.corrupted_messages
                        + s.edges_flipped
                        + s.nodes_left
                        > 0,
                );
                h.mix(u64::from(completed));
                h.mix(out.matching.len() as u64);
                for e in out.matching.edges(&g) {
                    h.mix(u64::from(e.0));
                }
                mix_stats(&mut h, s);
            }
        }
        digests.push((name, h.0));
    }
    // Every fault schedule fires, and at least the ten synchronous
    // fault-free runs complete.
    assert!(
        completed_runs >= 10 && faulted_runs == 5 * 3 * 6,
        "{completed_runs} runs completed, {faulted_runs} saw faults"
    );
    for ((name, got), (want_name, want)) in digests.iter().zip(RECORDED) {
        assert_eq!(*name, want_name);
        assert_eq!(
            *got, want,
            "{name}: the grouped matching's outputs or counters changed \
             (digests now {digests:x?})"
        );
    }
}

//! Degradation sweep: **protocol × fault-axis × intensity** grid.
//!
//! The conformance suite certifies the paper's guarantees in the clean
//! synchronous model; the fault suite spot-checks two adversaries. This
//! module sweeps the *whole* fault model introduced with the async
//! scheduler — message drops, per-edge delivery delays, duplication,
//! payload corruption, inbox reordering, and crash+restart
//! (self-stabilization) — each at three intensities, over the two most
//! structurally different topologies (gnp, star), and records **which
//! guarantee survives which fault at which dose** into the append-only
//! `DEGRADATION_engine.json` ledger.
//!
//! Each cell runs through the harness's one faulted-run evaluator, so it
//! *asserts* the checks every fault, degradation and churn cell shares
//! (listed in the [crate docs](crate)): executor agreement or replay,
//! grouped-matching validity, fault counters that follow their knobs, and
//! a legal end state. It *records* what is allowed to degrade:
//! completion, decided fraction, MIS/MaxIS safety (independence), and the
//! approximation ratio against the exact oracle ([`opt_value`]) —
//! `bound_ok` in the ledger is data, not an assertion, because a 50% drop
//! rate legitimately breaks a Δ-approximation.

use congest_bench::ledger::{json_object, json_str};
use congest_sim::{Adversary, AsyncScheduler, RunStats, SimConfig};

use crate::{
    adversary_json, build_graph, fault_cap, opt_value, run_faulted, topologies, ProtocolKind,
    Topology,
};

/// One axis of the fault model. Each axis turns exactly one knob so the
/// ledger isolates which *kind* of misbehavior each protocol tolerates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAxis {
    /// Messages vanish in flight (`drop_prob`).
    Drop,
    /// Asynchrony: per-edge delivery delays from a seeded uniform
    /// distribution (the [`AsyncScheduler`]); nothing is lost.
    Delay,
    /// Messages are delivered twice, the copy one round late
    /// (`dup_prob`).
    Duplicate,
    /// Payloads are bit-flipped or discarded as checksum failures
    /// (`corrupt_prob`).
    Corrupt,
    /// Inboxes are shuffled before processing (`reorder_prob`).
    Reorder,
    /// Nodes crash and rejoin factory-fresh `RESTART_LAG` rounds later
    /// (`crash_prob` + `restart_after`): the self-stabilization mode.
    Restart,
}

/// All six axes, in ledger order.
pub const AXES: [FaultAxis; 6] = [
    FaultAxis::Drop,
    FaultAxis::Delay,
    FaultAxis::Duplicate,
    FaultAxis::Corrupt,
    FaultAxis::Reorder,
    FaultAxis::Restart,
];

/// Intensity labels, in increasing dose order.
pub const LEVELS: [&str; 3] = ["low", "medium", "high"];

/// Rounds a restarted node stays down on the [`FaultAxis::Restart`] axis.
pub const RESTART_LAG: usize = 3;

impl FaultAxis {
    /// Ledger name.
    pub fn name(self) -> &'static str {
        match self {
            FaultAxis::Drop => "drop",
            FaultAxis::Delay => "delay",
            FaultAxis::Duplicate => "duplicate",
            FaultAxis::Corrupt => "corrupt",
            FaultAxis::Reorder => "reorder",
            FaultAxis::Restart => "restart",
        }
    }

    /// The numeric dose at intensity `level` (0..3): a probability for
    /// the probabilistic axes, the max delay in rounds for
    /// [`FaultAxis::Delay`].
    pub fn dose(self, level: usize) -> f64 {
        match self {
            FaultAxis::Drop | FaultAxis::Duplicate | FaultAxis::Corrupt => [0.05, 0.2, 0.5][level],
            // Reordering is per (round, node); doses reach certainty.
            FaultAxis::Reorder => [0.1, 0.5, 1.0][level],
            FaultAxis::Delay => [1.0, 3.0, 6.0][level],
            // Crash probabilities stay small: every crash costs
            // `RESTART_LAG` rounds of silence, and the point of the axis
            // is churn, not extinction.
            FaultAxis::Restart => [0.02, 0.05, 0.1][level],
        }
    }

    /// The engine configuration of one (axis, level) cell: exactly one
    /// of the adversary/scheduler is populated per axis.
    pub fn plan(self, level: usize, seed: u64) -> (Option<Adversary>, Option<AsyncScheduler>) {
        let dose = self.dose(level);
        match self {
            FaultAxis::Drop => (Some(Adversary::message_drops(dose, seed)), None),
            FaultAxis::Delay => (None, Some(AsyncScheduler::uniform(dose as usize, seed))),
            FaultAxis::Duplicate => (Some(Adversary::message_duplicates(dose, seed)), None),
            FaultAxis::Corrupt => (Some(Adversary::message_corruption(dose, seed)), None),
            FaultAxis::Reorder => (Some(Adversary::inbox_reorders(dose, seed)), None),
            FaultAxis::Restart => (
                Some(Adversary::node_crashes(dose, seed).with_restart_after(RESTART_LAG)),
                None,
            ),
        }
    }
}

/// The protocols swept by the degradation grid: the two MIS protocols,
/// the grouped matching, and randomized MaxIS — the four protocols with
/// a fault-tolerant entry point
/// ([`mwm_grouped_with`](congest_approx::matching::mwm_grouped_with),
/// [`alg2_with`](congest_approx::maxis::alg2_with)) or per-node
/// decide-or-stay-silent outputs (MIS).
pub const DEGRADATION_PROTOCOLS: [ProtocolKind; 4] = [
    ProtocolKind::LubyMis,
    ProtocolKind::GhaffariMis,
    ProtocolKind::GroupedMwm,
    ProtocolKind::MaxIsAlg2,
];

/// One record of the degradation grid.
#[derive(Clone, Debug)]
pub struct DegradationReport {
    /// Protocol ledger name.
    pub protocol: &'static str,
    /// Topology of the cell.
    pub topology: Topology,
    /// Fault axis swept.
    pub axis: FaultAxis,
    /// Intensity label (`low`/`medium`/`high`).
    pub intensity: &'static str,
    /// Numeric dose behind the label (see [`FaultAxis::dose`]).
    pub dose: f64,
    /// The injected adversary (`None` on the pure-delay axis).
    pub adversary: Option<Adversary>,
    /// The async scheduler (`Some` only on the delay axis).
    pub scheduler: Option<AsyncScheduler>,
    /// Every node halted normally.
    pub completed: bool,
    /// Fraction of nodes that made useful progress: produced an output
    /// (MIS), got matched (grouped), or joined the set (Alg2 — its
    /// driver does not expose per-node outputs, so set membership is the
    /// only observable progress there).
    pub decided_fraction: f64,
    /// Protocol-specific safety: independence among decided in-set
    /// nodes (MIS/MaxIS), matching validity (grouped; also asserted).
    pub safety_ok: bool,
    /// Achieved objective over the oracle optimum (1.0 when opt = 0).
    pub ratio: f64,
    /// The paper's clean-model ratio requirement, for reference.
    pub ratio_bound: f64,
    /// Whether the clean-model bound still held under this fault dose —
    /// recorded, never asserted.
    pub bound_ok: bool,
    /// Rounds executed.
    pub rounds: usize,
    /// The cap the run was bounded by.
    pub round_cap: usize,
    /// Engine statistics of the (sequential) run.
    pub stats: RunStats,
}

impl DegradationReport {
    /// Renders the record for the `DEGRADATION_engine.json` array.
    pub fn to_json(&self) -> String {
        let graph = json_object(&[
            ("family", json_str(self.topology.family)),
            ("param", json_str(self.topology.param)),
            ("seed", self.topology.graph_seed.to_string()),
        ]);
        let adversary = self
            .adversary
            .as_ref()
            .map_or("null".to_string(), adversary_json);
        let scheduler = match &self.scheduler {
            None => "null".to_string(),
            Some(s) => json_object(&[
                ("dist", json_str("uniform")),
                ("max_delay", s.max_delay().to_string()),
                ("seed", s.seed.to_string()),
            ]),
        };
        let counters = json_object(&[
            ("delayed", self.stats.delayed_messages.to_string()),
            ("duplicated", self.stats.duplicated_messages.to_string()),
            ("corrupted", self.stats.corrupted_messages.to_string()),
            (
                "adversary_dropped",
                self.stats.adversary_dropped_messages.to_string(),
            ),
            ("crashed", self.stats.crashed_nodes.to_string()),
            ("restarted", self.stats.restarted_nodes.to_string()),
        ]);
        json_object(&[
            ("suite", json_str("degradation")),
            ("protocol", json_str(self.protocol)),
            ("graph", graph),
            ("axis", json_str(self.axis.name())),
            ("intensity", json_str(self.intensity)),
            ("dose", format!("{}", self.dose)),
            ("adversary", adversary),
            ("scheduler", scheduler),
            ("completed", self.completed.to_string()),
            ("decided_fraction", format!("{:.4}", self.decided_fraction)),
            ("safety_ok", self.safety_ok.to_string()),
            ("ratio", format!("{:.6}", self.ratio)),
            ("ratio_bound", format!("{:.6}", self.ratio_bound)),
            ("bound_ok", self.bound_ok.to_string()),
            ("rounds", self.rounds.to_string()),
            ("round_cap", self.round_cap.to_string()),
            ("counters", counters),
        ])
    }
}

/// Runs one degradation cell (see the module docs for the contract).
pub fn degradation_cell(
    kind: ProtocolKind,
    topo: &Topology,
    axis: FaultAxis,
    level: usize,
) -> DegradationReport {
    let g = build_graph(topo, kind.fault_weighting());
    let axis_idx = AXES.iter().position(|&a| a == axis).unwrap();
    let (adversary, scheduler) = axis.plan(level, 0xD16 + 16 * axis_idx as u64 + level as u64);
    let config = SimConfig {
        adversary,
        scheduler,
        ..SimConfig::congest_for(&g).with_max_rounds(fault_cap(g.num_nodes()))
    };
    let ctx = format!(
        "degradation {} {}/{} on {}",
        kind.name(),
        axis.name(),
        LEVELS[level],
        topo.family
    );
    let f = run_faulted(&ctx, kind, &g, &config);
    let opt = opt_value(kind, &g);
    DegradationReport {
        protocol: kind.name(),
        topology: *topo,
        axis,
        intensity: LEVELS[level],
        dose: axis.dose(level),
        adversary,
        scheduler,
        completed: f.completed,
        decided_fraction: f.decided as f64 / g.num_nodes() as f64,
        safety_ok: f.safety_ok,
        ratio: if opt.value == 0 {
            1.0
        } else {
            f.alg as f64 / opt.value as f64
        },
        ratio_bound: opt.bound_num as f64 / opt.bound_den as f64,
        bound_ok: f.alg * opt.bound_den >= opt.value * opt.bound_num,
        rounds: f.stats.rounds,
        round_cap: config.max_rounds,
        stats: f.stats,
    }
}

/// The full degradation grid: 4 protocols × 6 fault axes × 3
/// intensities × 2 topologies = 144 records.
pub fn degradation_suite() -> Vec<DegradationReport> {
    let topos: Vec<Topology> = topologies()
        .into_iter()
        .filter(|t| t.family == "gnp" || t.family == "star")
        .collect();
    let mut reports = Vec::new();
    for topo in &topos {
        for &kind in &DEGRADATION_PROTOCOLS {
            for &axis in &AXES {
                for level in 0..LEVELS.len() {
                    reports.push(degradation_cell(kind, topo, axis, level));
                }
            }
        }
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_shape_meets_the_acceptance_floor() {
        assert!(DEGRADATION_PROTOCOLS.len() >= 4, "need ≥ 4 protocols");
        assert!(AXES.len() >= 3, "need ≥ 3 fault axes");
        assert!(LEVELS.len() >= 3, "need ≥ 3 intensities");
    }

    #[test]
    fn one_drop_cell_end_to_end() {
        let topo = topologies().remove(0); // gnp
        let report = degradation_cell(ProtocolKind::LubyMis, &topo, FaultAxis::Drop, 1);
        assert!(
            report.stats.adversary_dropped_messages > 0,
            "a 20% drop dose on gnp must fire"
        );
        let json = report.to_json();
        assert!(json.contains("\"suite\": \"degradation\""));
        assert!(json.contains("\"axis\": \"drop\""));
        assert!(json.contains("\"scheduler\": null"));
    }

    #[test]
    fn one_delay_cell_end_to_end() {
        let topo = topologies().remove(0); // gnp
        let report = degradation_cell(ProtocolKind::GhaffariMis, &topo, FaultAxis::Delay, 2);
        // Pure asynchrony loses no messages, but phase-locked protocols
        // may still mis-decide on late arrivals — completion and safety
        // are *recorded*, not asserted. The delays themselves must fire.
        assert!(report.stats.delayed_messages > 0);
        let json = report.to_json();
        assert!(json.contains("\"axis\": \"delay\""));
        assert!(json.contains("\"max_delay\": 6"));
        assert!(json.contains("\"adversary\": null"));
    }

    #[test]
    fn one_restart_cell_end_to_end() {
        let topo = topologies().remove(5); // star
        let report = degradation_cell(ProtocolKind::GroupedMwm, &topo, FaultAxis::Restart, 2);
        // Every crash is scheduled for revival; all but the ones still
        // pending when the run ends must have fired.
        assert!(
            report.stats.restarted_nodes > 0,
            "a 10% crash dose with restarts must revive someone"
        );
        let json = report.to_json();
        assert!(json.contains("\"axis\": \"restart\""));
        assert!(json.contains("\"restart_after\": 3"));
    }
}

//! Nearly-maximal independent sets via dynamic marking probabilities.
//!
//! This is the framework of Ghaffari \[Gha16\] as modified by the paper's
//! Section 3.1: every node `v` keeps a marking probability
//! `p_t(v) = K^{-j}`; each iteration it learns its *effective degree*
//! `d_t(v) = Σ_{u ∈ N(v)} p_t(u)`, marks itself with probability `p_t(v)`,
//! and joins the independent set if it is marked and no neighbor is. The
//! probability then falls by a factor `K` when `d_t(v) ≥ 2` and rises by a
//! factor `K` (capped at `1/K`) otherwise:
//!
//! ```text
//! p_{t+1}(v) = p_t(v)/K             if d_t(v) ≥ 2
//! p_{t+1}(v) = min(K·p_t(v), 1/K)   if d_t(v) < 2
//! ```
//!
//! With `K = 2` this is Ghaffari's original algorithm
//! (`O(log Δ + log 1/δ)` iterations); with `K = Θ(log^0.1 Δ)` it is the
//! paper's accelerated variant, whose Theorem 3.1 guarantees that after
//! `β(log Δ / log K + K² log 1/δ)` iterations each node is in or adjacent
//! to the set with probability at least `1 − δ` — the
//! `O(log Δ / log log Δ)` engine behind the fast matching algorithms.

use congest_sim::{Context, Inbox, Message, PackedMsg, Protocol, Status};
use rand::Rng;

use crate::MisResult;

/// Parameters of the nearly-maximal IS algorithm.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NmisParams {
    /// Probability growth/decay factor `K ≥ 2`.
    pub k: f64,
    /// Iteration budget (each iteration is 4 communication rounds);
    /// `None` runs until every node decides (full maximality, no
    /// worst-case round bound).
    pub iterations: Option<usize>,
}

impl NmisParams {
    /// Ghaffari's original parameterization: `K = 2`,
    /// `β(log Δ + log 1/δ)` iterations.
    pub fn original(max_degree: usize, fail_prob: f64, beta: f64) -> Self {
        NmisParams {
            k: 2.0,
            iterations: Some(nmis_iterations(max_degree, 2.0, fail_prob, beta)),
        }
    }

    /// The paper's accelerated parameterization (Section 3.1):
    /// `K = max(2, log^0.1 Δ · 2)` — `Θ(log^0.1 Δ)` with a constant that
    /// makes the speed-up visible at simulable scales — and
    /// `β(log Δ / log K + K² log 1/δ)` iterations.
    pub fn accelerated(max_degree: usize, fail_prob: f64, beta: f64) -> Self {
        let log_delta = (max_degree.max(2) as f64).log2();
        let k = (2.0 * log_delta.powf(0.1)).max(2.0);
        NmisParams {
            k,
            iterations: Some(nmis_iterations(max_degree, k, fail_prob, beta)),
        }
    }

    /// Unbounded variant: loop until every node decides.
    pub fn unbounded(k: f64) -> Self {
        NmisParams {
            k,
            iterations: None,
        }
    }
}

/// Theorem 3.1 iteration budget: `⌈β(log Δ / log K + K² ln(1/δ))⌉`.
pub fn nmis_iterations(max_degree: usize, k: f64, fail_prob: f64, beta: f64) -> usize {
    assert!(k >= 2.0, "K must be at least 2");
    assert!(
        (0.0..1.0).contains(&fail_prob),
        "fail probability must be in (0,1)"
    );
    assert!(beta > 0.0, "beta must be positive");
    let delta = max_degree.max(2) as f64;
    let t = beta * (delta.log2() / k.log2() + k * k * (1.0 / fail_prob).ln());
    t.ceil() as usize
}

/// Messages of the nearly-maximal IS protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NmisMsg {
    /// Phase 0: my probability exponent `j` (`p = K^{-j}`). Exponents are
    /// small integers, so this fits comfortably in CONGEST.
    PExp(u16),
    /// Phase 1: I am marked this iteration.
    Marked,
    /// Phase 2: I joined the independent set.
    Joined,
    /// Phase 3: I am dominated and leaving.
    Covered,
}

impl Message for NmisMsg {
    fn bit_size(&self) -> usize {
        match self {
            NmisMsg::PExp(_) => 2 + 16,
            _ => 2,
        }
    }
}

/// Wire format: 2-bit variant tag in the low bits; `PExp` carries its
/// 16-bit exponent above the tag. 18 bits total — the engine's budget
/// meter still charges [`bit_size`](Message::bit_size), this is the frame.
impl PackedMsg for NmisMsg {
    const BITS: u32 = 18;

    fn pack(&self) -> u64 {
        match self {
            NmisMsg::PExp(j) => u64::from(*j) << 2,
            NmisMsg::Marked => 1,
            NmisMsg::Joined => 2,
            NmisMsg::Covered => 3,
        }
    }

    fn unpack(word: u64) -> Self {
        match word & 0b11 {
            0 => NmisMsg::PExp((word >> 2) as u16),
            1 => NmisMsg::Marked,
            2 => NmisMsg::Joined,
            _ => NmisMsg::Covered,
        }
    }
}

/// Nearly-maximal independent set as a CONGEST [`Protocol`].
///
/// Outputs [`MisResult::InSet`] / [`MisResult::Dominated`], or
/// [`MisResult::Undecided`] for nodes still alive when the iteration
/// budget runs out (the δ-probability event of Theorem 3.1).
#[derive(Clone, Debug)]
pub struct NearlyMaximalIs {
    params: NmisParams,
    /// Probability exponent: `p = K^{-j}`, `j ≥ 1`.
    j: u16,
    active: Vec<bool>,
    marked: bool,
    /// Effective degree measured this iteration.
    effective_degree: f64,
    iteration: usize,
}

impl NearlyMaximalIs {
    /// Creates a protocol instance with the given parameters.
    pub fn new(params: NmisParams) -> Self {
        NearlyMaximalIs {
            params,
            j: 1,
            active: Vec::new(),
            marked: false,
            effective_degree: 0.0,
            iteration: 0,
        }
    }

    fn p(&self) -> f64 {
        self.params.k.powi(-i32::from(self.j))
    }

    fn budget_exhausted(&self) -> bool {
        self.params
            .iterations
            .is_some_and(|cap| self.iteration >= cap)
    }
}

impl Protocol for NearlyMaximalIs {
    type Msg = NmisMsg;
    type Output = MisResult;

    fn init(&mut self, ctx: &mut Context<'_, NmisMsg>) {
        self.active = vec![true; ctx.degree()];
    }

    fn round(
        &mut self,
        ctx: &mut Context<'_, NmisMsg>,
        inbox: Inbox<'_, NmisMsg>,
    ) -> Status<MisResult> {
        match (ctx.round() - 1) % 4 {
            0 => {
                // Fold in Covered messages from the previous iteration,
                // then announce the current probability exponent.
                // Only `Covered` deactivates a port: under fault injection
                // (delays, duplicates, reordering) other variants can arrive
                // off-phase and must not be mistaken for coverage.
                for (port, msg) in inbox {
                    if msg == NmisMsg::Covered {
                        self.active[port] = false;
                    }
                }
                if self.budget_exhausted() {
                    return Status::Halt(MisResult::Undecided);
                }
                let j = self.j;
                ctx.broadcast_filtered(NmisMsg::PExp(j), |p| self.active[p]);
                Status::Active
            }
            1 => {
                // Learn the effective degree, then mark with probability p.
                let k = self.params.k;
                // Fault-free every message here is a `PExp`; under the fault
                // adversary stray variants may slip in — they contribute no
                // effective degree.
                self.effective_degree = inbox
                    .iter()
                    .filter_map(|(_, msg)| {
                        let NmisMsg::PExp(j) = msg else { return None };
                        Some(k.powi(-i32::from(j)))
                    })
                    .sum();
                let p = self.p();
                self.marked = ctx.rng().random_bool(p);
                if self.marked {
                    ctx.broadcast_filtered(NmisMsg::Marked, |p| self.active[p]);
                }
                Status::Active
            }
            2 => {
                // Join iff marked with no marked neighbor.
                let neighbor_marked = inbox.iter().any(|(_, m)| m == NmisMsg::Marked);
                if self.marked && !neighbor_marked {
                    ctx.broadcast_filtered(NmisMsg::Joined, |p| self.active[p]);
                    return Status::Halt(MisResult::InSet);
                }
                Status::Active
            }
            _ => {
                // Leave if dominated; otherwise adjust the probability.
                if inbox.iter().any(|(_, m)| m == NmisMsg::Joined) {
                    ctx.broadcast_filtered(NmisMsg::Covered, |p| self.active[p]);
                    return Status::Halt(MisResult::Dominated);
                }
                if self.effective_degree >= 2.0 {
                    self.j = self.j.saturating_add(1);
                } else {
                    self.j = self.j.saturating_sub(1).max(1);
                }
                self.iteration += 1;
                Status::Active
            }
        }
    }
}

/// The unbounded nearly-maximal algorithm looped to full maximality: a
/// drop-in MIS black box (no worst-case round bound, `O(log n)` w.h.p. in
/// practice). Construct with [`ghaffari_mis`](GhaffariMis::with_k).
pub type GhaffariMis = NearlyMaximalIs;

impl GhaffariMis {
    /// Full-MIS instance with growth factor `k` (use `2.0` for the
    /// original algorithm).
    pub fn with_k(k: f64) -> Self {
        NearlyMaximalIs::new(NmisParams::unbounded(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{uncovered_fraction, verify_mis, verify_nearly_maximal};
    use congest_graph::generators;
    use congest_sim::{run_protocol, SimConfig};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn iteration_budget_formula() {
        // K = 2, δ = 1/2: log Δ + 2·ln 2 · iterations scale.
        let t = nmis_iterations(1024, 2.0, 0.5, 1.0);
        assert!(t >= 10, "log Δ term missing: {t}");
        // Larger K shrinks the log Δ term but grows the K² term.
        let t_fast = nmis_iterations(1 << 30, 4.0, 0.5, 1.0);
        let t_slow = nmis_iterations(1 << 30, 2.0, 0.5, 1.0);
        assert!(
            t_fast < t_slow,
            "K=4 should need fewer iterations at huge Δ"
        );
    }

    #[test]
    #[should_panic(expected = "K must be at least 2")]
    fn rejects_small_k() {
        nmis_iterations(8, 1.5, 0.1, 1.0);
    }

    #[test]
    fn unbounded_reaches_full_maximality() {
        let mut rng = SmallRng::seed_from_u64(21);
        let graphs = [
            generators::path(20),
            generators::complete(10),
            generators::gnp(70, 0.08, &mut rng),
            generators::random_regular(48, 4, &mut rng),
        ];
        for (i, g) in graphs.iter().enumerate() {
            let outcome = run_protocol(
                g,
                SimConfig::congest_for(g),
                |_| GhaffariMis::with_k(2.0),
                31 * (i as u64 + 1),
            );
            assert!(outcome.completed);
            let results = outcome.into_outputs();
            verify_mis(g, &results).unwrap_or_else(|e| panic!("graph {i}: {e}"));
        }
    }

    #[test]
    fn bounded_budget_is_nearly_maximal() {
        let mut rng = SmallRng::seed_from_u64(33);
        let g = generators::gnp(150, 0.1, &mut rng);
        let params = NmisParams::accelerated(g.max_degree(), 0.05, 2.0);
        let outcome = run_protocol(
            &g,
            SimConfig::congest_for(&g),
            |_| NearlyMaximalIs::new(params),
            5,
        );
        assert!(outcome.completed);
        let results = outcome.into_outputs();
        verify_nearly_maximal(&g, &results).unwrap();
        // Theorem 3.1: per-node failure probability δ = 0.05; allow slack
        // (fraction, not per-node bound) while catching gross regressions.
        assert!(
            uncovered_fraction(&results) <= 0.2,
            "too many undecided nodes: {}",
            uncovered_fraction(&results)
        );
    }

    #[test]
    fn bounded_run_round_count_matches_budget() {
        let g = generators::complete(20);
        let params = NmisParams {
            k: 2.0,
            iterations: Some(10),
        };
        let outcome = run_protocol(
            &g,
            SimConfig::congest_for(&g),
            |_| NearlyMaximalIs::new(params),
            1,
        );
        assert!(outcome.completed);
        // 4 rounds per iteration, +1 for the final budget check.
        assert!(outcome.stats.rounds <= 4 * 10 + 1);
    }

    #[test]
    fn probability_exponent_never_below_one() {
        let mut n = NearlyMaximalIs::new(NmisParams::unbounded(2.0));
        n.j = 1;
        n.effective_degree = 0.0;
        // Simulate the phase-3 update logic directly.
        if n.effective_degree >= 2.0 {
            n.j += 1;
        } else {
            n.j = n.j.saturating_sub(1).max(1);
        }
        assert_eq!(n.j, 1);
        assert!((n.p() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn respects_congest_budget() {
        let mut rng = SmallRng::seed_from_u64(44);
        let g = generators::gnp(100, 0.1, &mut rng);
        let outcome = run_protocol(
            &g,
            SimConfig::congest_for(&g),
            |_| GhaffariMis::with_k(2.0),
            9,
        );
        assert_eq!(outcome.stats.budget_violations, 0);
    }
}

//! The engine workload, `luby-1m`.
//!
//! It runs Luby MIS, the MIS(G) black box of the paper's Algorithm 2, on
//! a 1M-node degree-8 gnp graph. One op is `Engine::build` plus a
//! sequential `Engine::run` with a fresh seed. Its working set is far
//! larger than the caches, so delivery's random scatter dominates, and
//! on one thread the parallel executor is never entered.

use std::time::{Duration, Instant};

use congest_graph::{generators, Graph};
use congest_mis::{verify_mis, LubyMis, MisResult};
use congest_sim::{plane_bytes_for, Engine, RunOutcome, RunStats, SimConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::host::{self, CpuSample};
use crate::report::Report;
use crate::stats::{highest_tail, median, ms, overhead_pct};
use crate::trace::Tracer;
use crate::{derive_seed, Args, SETUP_REPS};

const LUBY_NODES: usize = 1_000_000;
/// Average degree of every workload's graph.
const AVG_DEGREE: f64 = 8.0;
/// Edge weights (and Algorithm 2's node weights) are drawn from [1, 2^16].
pub const MAX_WEIGHT: u64 = 1 << 16;
/// A window times at least this many ops, however short `--seconds`.
const MIN_OPS: u64 = 3;
/// Op ids of set-up repetitions, apart from the window's op ids 0, 1,
/// 2, ...
pub const SETUP_OP: u64 = 1_000_000;

/// Seed streams of [`derive_seed`].
const GRAPH_STREAM: u64 = 0;
const WARMUP_STREAM: u64 = 1;
const OP_STREAM: u64 = 1_000;

/// The degree-8 gnp graph of a workload, with edge weights when
/// `weighted`.
pub fn gnp_graph(n: usize, seed: u64, weighted: bool) -> Graph {
    let mut rng = SmallRng::seed_from_u64(derive_seed(seed, GRAPH_STREAM));
    let mut g = generators::gnp_skip(n, AVG_DEGREE / (n - 1) as f64, &mut rng);
    if weighted {
        generators::randomize_edge_weights(&mut g, MAX_WEIGHT, &mut rng);
    }
    g
}

/// Latencies of one timed window of back-to-back ops.
struct Window {
    /// Per op: latency in ms, and whether it was traced.
    ops: Vec<(f64, bool)>,
    steal_pct: f64,
    cpu_util: f64,
}

impl Window {
    /// Runs `op` back to back until the window has passed, handing each
    /// result to `check` outside the op's timed interval and untraced. A
    /// traced run traces even ops only, so the odd ones give the
    /// untraced baseline.
    fn run<T>(
        args: &Args,
        tr: &mut Tracer,
        mut op: impl FnMut(&mut Tracer, u64) -> T,
        mut check: impl FnMut(u64, T),
    ) -> Window {
        let cpu = CpuSample::now();
        let start = Instant::now();
        let mut ops = Vec::new();
        let mut i = 0;
        while i < MIN_OPS || start.elapsed() < args.window {
            let traced = i % 2 == 0;
            tr.set_recording(traced);
            let t = Instant::now();
            let out = op(tr, i);
            ops.push((ms(t.elapsed()), traced));
            check(i, out);
            i += 1;
        }
        tr.set_recording(true);
        let (steal_pct, cpu_util) = cpu.since(host::nproc());
        Window {
            ops,
            steal_pct,
            cpu_util,
        }
    }

    fn latencies(&self, traced: bool) -> Vec<f64> {
        self.ops
            .iter()
            .filter(|o| o.1 == traced)
            .map(|o| o.0)
            .collect()
    }

    /// End-to-end metrics from the untraced ops. The result line must
    /// carry every end-to-end metric, and this workload has one op
    /// class, so its op median is also its read, write and rematch
    /// median.
    fn report(&self, setups: &[Duration], tr: &Tracer, report: &mut Report) {
        let lat: Vec<f64> = if tr.enabled() {
            self.latencies(false)
        } else {
            self.ops.iter().map(|o| o.0).collect()
        };
        report_setup(setups, report);
        let busy_s = lat.iter().sum::<f64>() / 1e3;
        report.e2e(
            "ops_per_s",
            lat.len() as f64 / busy_s,
            format!("{} ops in {busy_s:.2} s of op time", lat.len()),
        );
        let p50 = median(&lat);
        report.e2e("p50_ms", p50, latency_samples(&lat));
        for class in ["read_p50_ms", "write_p50_ms", "rematch_p50_ms"] {
            report.e2e(class, p50, "the op median: one op class".to_string());
        }
        report.e2e(
            "peak_rss_mb",
            host::peak_rss_mb(),
            "VmHWM after the window".to_string(),
        );
        host::report_noise(self.steal_pct, self.cpu_util, report);
        report.layer(
            "trace.overhead_pct",
            overhead_pct(&self.latencies(true), &self.latencies(false)),
        );
    }
}

/// `setup_s`: the median set-up.
pub fn report_setup(setups: &[Duration], report: &mut Report) {
    let s: Vec<f64> = setups.iter().map(Duration::as_secs_f64).collect();
    let each: Vec<String> = s.iter().map(|x| format!("{x:.3}")).collect();
    report.e2e(
        "setup_s",
        median(&s),
        format!("median of {} set-ups: {} s", s.len(), each.join(" ")),
    );
}

/// Sample count and the highest tail percentile that has enough
/// samples beyond it.
pub fn latency_samples(lat: &[f64]) -> String {
    let tail = highest_tail(lat).map_or_else(
        || "no tail percentile has 10 samples beyond it".to_string(),
        |(label, v)| format!("{label} {v:.3} ms"),
    );
    format!("n={}; {tail}", lat.len())
}

pub fn report_run_stats(stats: &RunStats, report: &mut Report) {
    report.layer("sim.rounds", stats.rounds as f64);
    report.layer("sim.messages", stats.total_messages as f64);
    report.layer(
        "sim.dropped_frac",
        stats.dropped_messages as f64 / stats.total_messages.max(1) as f64,
    );
}

/// Runs `luby-1m`.
pub fn luby_1m(args: &Args, tr: &mut Tracer) -> Report {
    let mut report = Report::default();
    let warm_seed = derive_seed(args.seed, WARMUP_STREAM);
    let mut setups = Vec::new();
    let mut first: Option<(u64, RunStats)> = None;
    let mut graph = None;
    for rep in 0..SETUP_REPS as u64 {
        drop(graph.take());
        let op = SETUP_OP + rep;
        let t = Instant::now();
        let g = tr.time("graph.gen", op, || gnp_graph(LUBY_NODES, args.seed, false));
        // The warm-up is the op capped at round 0: it first-touches the
        // planes and node state of a full op in a tenth of its time.
        let capped = luby_op(&g, warm_seed, Some(0), tr, op);
        setups.push(t.elapsed());
        let this = (g.fingerprint(), capped.stats);
        report.op(match &first {
            None => {
                first = Some(this);
                Ok(())
            }
            Some(f) if *f == this => Ok(()),
            Some(_) => Err(format!(
                "set-up {rep}: graph or warm-up differs from set-up 0"
            )),
        });
        graph = Some(g);
    }
    let g = graph.expect("SETUP_REPS is positive");
    let mut messages = Vec::new();
    // Op 0's seed derives from the run's seed, so its counts repeat.
    let mut op0 = None;
    let window = Window::run(
        args,
        tr,
        |tr, i| luby_op(&g, derive_seed(args.seed, OP_STREAM + i), None, tr, i),
        |i, out| {
            messages.push(out.stats.total_messages as f64);
            op0.get_or_insert_with(|| out.stats.clone());
            report.op(check_mis(&g, out, i));
        },
    );
    window.report(&setups, tr, &mut report);
    if let (true, Some(stats)) = (tr.enabled(), &op0) {
        let round0 = tr.median_ms("sim.round0");
        let rounds_ms = tr.median_ms("sim.run") - round0;
        report.layer("graph.gen_ms", tr.median_ms("graph.gen"));
        report.layer("sim.build_ms", tr.median_ms("sim.build"));
        report.layer("sim.round0_ms", round0);
        report.layer("sim.rounds_ms", rounds_ms);
        report.layer("sim.ns_per_msg", rounds_ms * 1e6 / median(&messages));
        report.layer("sim.plane_mb", plane_bytes_for(&g, 1) as f64 / 1e6);
        report_run_stats(stats, &mut report);
    }
    report
}

/// One `luby-1m` op; `cap` limits the rounds (0: plane setup and init
/// only).
fn luby_op(
    g: &Graph,
    seed: u64,
    cap: Option<usize>,
    tr: &mut Tracer,
    op: u64,
) -> RunOutcome<MisResult> {
    let (config, run) = match cap {
        None => (SimConfig::congest_for(g), "sim.run"),
        Some(c) => (SimConfig::congest_for(g).with_max_rounds(c), "sim.round0"),
    };
    let open = tr.enter("op", op);
    let engine = tr.time("sim.build", op, || {
        Engine::build(g, config, |_| LubyMis::new())
    });
    let out = tr.time(run, op, || engine.run(seed));
    tr.exit(open);
    out
}

fn check_mis(g: &Graph, out: RunOutcome<MisResult>, op: u64) -> Result<(), String> {
    if !out.completed {
        return Err(format!("op {op}: Luby hit the round cap"));
    }
    verify_mis(g, &out.into_outputs())
        .map(drop)
        .map_err(|e| format!("op {op}: {e}"))
}

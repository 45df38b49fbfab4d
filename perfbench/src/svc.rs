//! The service workload, `svc-mixed`.
//!
//! A `MatchingService` with the default `ServiceConfig` on a weighted
//! 20k-node gnp graph serves through the shipped `TcpFacade`, driven by
//! two unmodified `TcpClient` connections:
//!
//! * a closed-loop reader: half `IsMatched`, half `IsIndependent` of 2–4
//!   nodes, ids uniform;
//! * an open-loop updater that starts one cycle per second:
//!   `MatchUsers{s}` (a cache hit), at once `ApplyDeltas` of 1–3 edge ops
//!   kept valid by a mirror, then `MatchUsers{s}` again (a miss, so an
//!   engine run).
//!
//! Reads and writes share the service's single worker. After the window
//! every response is checked: against a replay of the updates on a
//! `DeltaGraph` mirror, and against a second service that replays the
//! whole trace and must answer the same. The traced run times that
//! replay call by call to split the latency into layers.

use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use congest_approx::matching::{
    grouped_mwm_repair, mwm_grouped_with, mwm_grouped_with_parallel, LrMatchingRun,
};
use congest_approx::maxis::{alg2, check_independent, Alg2Config};
use congest_graph::{generators, DeltaGraph, Graph, Matching, NodeId};
use congest_mis::{luby_repair, LubyMis, MisResult};
use congest_service::{
    DeltaOp, MatchingService, Request, Response, ServiceConfig, ServiceServer, TcpClient, TcpFacade,
};
use congest_sim::{plane_bytes_for, Engine, SimConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::engine::{
    gnp_graph, latency_samples, report_run_stats, report_setup, MAX_WEIGHT, SETUP_OP,
};
use crate::host::{self, CpuSample};
use crate::report::Report;
use crate::stats::{median, ms, overhead_pct, tail};
use crate::trace::Tracer;
use crate::{derive_seed, Args, SETUP_REPS};

const NODES: usize = 20_000;
/// The updater starts one cycle per period.
const PERIOD: Duration = Duration::from_secs(1);
/// Reads in each set-up's warm-up.
const WARMUP_READS: usize = 4;
/// Updater cycle `k` has op id `CYCLE_OP + k`; reader ops count from 0.
const CYCLE_OP: u64 = 3_000_000;
/// The traced run's direct engine calls on the final graph have op ids
/// `EXTRA_OP + k`, `k < ENGINE_REPS`.
const EXTRA_OP: u64 = 2_000_000;
const ENGINE_REPS: u64 = 3;

/// Seed streams of [`derive_seed`].
const MATCH_STREAM: u64 = 10;
const WARMUP_STREAM: u64 = 11;
const READER_STREAM: u64 = 12;
const UPDATER_STREAM: u64 = 13;
const ALG2_STREAM: u64 = 14;

/// One request as sent and answered; times are offsets from the start
/// of the window (or of the warm-up).
struct Exchange {
    req: Request,
    resp: Result<Response, String>,
    sent: Duration,
    done: Duration,
    traced: bool,
}

impl Exchange {
    fn latency_ms(&self) -> f64 {
        ms(self.done.saturating_sub(self.sent))
    }
}

/// A `MatchUsers` answer: the matching's weight and its pairs.
type Answer = (u64, Vec<(u32, u32)>);

/// One updater cycle.
struct Cycle {
    late: Duration,
    hit: Exchange,
    write: Exchange,
    miss: Exchange,
}

/// Sends `req` on `client`, timing it and recording span `span`.
fn exchange(
    client: &mut TcpClient,
    req: Request,
    start: Instant,
    tr: &mut Tracer,
    span: &'static str,
    op: u64,
) -> Exchange {
    let traced = tr.recording();
    let sent = start.elapsed();
    let resp = tr
        .time(span, op, || client.request(&req))
        .map_err(|e| e.to_string());
    Exchange {
        req,
        resp,
        sent,
        done: start.elapsed(),
        traced,
    }
}

/// The updater's open-loop schedule: cycle `k` is due `k` periods after
/// the start, however long earlier cycles took.
pub struct Schedule {
    start: Instant,
    period: Duration,
}

impl Schedule {
    /// When cycle `k` is due.
    pub fn due(&self, k: u64) -> Instant {
        self.start + self.period.mul_f64(k as f64)
    }

    /// When cycle `k` starts if the cycle before it ended at `prev_end`:
    /// on time, or at once when the previous cycle overran.
    pub fn start_of(&self, k: u64, prev_end: Instant) -> Instant {
        self.due(k).max(prev_end)
    }

    /// How late cycle `k`, started at `started`, is against the schedule
    /// (not against the end of the cycle before it).
    pub fn lateness(&self, k: u64, started: Instant) -> Duration {
        started.saturating_duration_since(self.due(k))
    }
}

/// A running service and its two connections.
struct Live {
    base: Graph,
    server: ServiceServer,
    facade: TcpFacade,
    reader: TcpClient,
    updater: TcpClient,
    warm_miss: Exchange,
    warm_hit: Exchange,
    warm_reads: Vec<Exchange>,
    /// Cache hits and misses before the window.
    cache_before: Exchange,
}

fn set_up(args: &Args, match_seed: u64, rep: u64, tr: &mut Tracer) -> Live {
    let op = SETUP_OP + rep;
    let base = tr.time("graph.gen", op, || gnp_graph(NODES, args.seed, true));
    let service = tr.time("service.new", op, || {
        MatchingService::new(base.clone(), ServiceConfig::default())
    });
    let server = ServiceServer::spawn(service);
    let facade = TcpFacade::bind("127.0.0.1:0", server.client()).expect("bind a loopback port");
    let mut reader = TcpClient::connect(facade.local_addr()).expect("connect the reader");
    let mut updater = TcpClient::connect(facade.local_addr()).expect("connect the updater");
    tr.set_recording(false);
    let t0 = Instant::now();
    let matching = Request::MatchUsers { seed: match_seed };
    let warm_miss = exchange(
        &mut updater,
        matching.clone(),
        t0,
        tr,
        "service.tcp.miss",
        op,
    );
    let warm_hit = exchange(&mut updater, matching, t0, tr, "service.tcp.hit", op);
    let mut rng = SmallRng::seed_from_u64(derive_seed(args.seed, WARMUP_STREAM));
    let warm_reads = (0..WARMUP_READS)
        .map(|_| {
            exchange(
                &mut reader,
                draw_read(&mut rng),
                t0,
                tr,
                "service.tcp.read",
                op,
            )
        })
        .collect();
    let cache_before = exchange(
        &mut updater,
        Request::Stats,
        t0,
        tr,
        "service.tcp.stats",
        op,
    );
    tr.set_recording(true);
    Live {
        base,
        server,
        facade,
        reader,
        updater,
        warm_miss,
        warm_hit,
        warm_reads,
        cache_before,
    }
}

/// Closes both connections, stops accepting, and joins the worker.
fn tear_down(live: Live) {
    drop(live.reader);
    drop(live.updater);
    live.facade.stop();
    live.server.shutdown();
}

fn draw_read(rng: &mut SmallRng) -> Request {
    let n = NODES as u32;
    if rng.random_bool(0.5) {
        Request::IsMatched {
            node: rng.random_range(0..n),
        }
    } else {
        let k = rng.random_range(2..=4usize);
        Request::IsIndependent {
            nodes: (0..k).map(|_| rng.random_range(0..n)).collect(),
        }
    }
}

/// 1–3 edge insertions or removals, each valid after the ones before
/// it, applied to `mirror` as they are drawn.
fn draw_batch(rng: &mut SmallRng, mirror: &mut DeltaGraph) -> Vec<DeltaOp> {
    let n = mirror.num_slots() as u32;
    let want = rng.random_range(1..=3usize);
    let mut ops = Vec::with_capacity(want);
    while ops.len() < want {
        let v = NodeId(rng.random_range(0..n));
        if rng.random_bool(0.5) {
            let u = NodeId(rng.random_range(0..n));
            if u != v && !mirror.has_edge(u, v) {
                let w = rng.random_range(1..=MAX_WEIGHT);
                mirror.insert_edge(u, v, w);
                ops.push(DeltaOp::InsertEdge(u.0, v.0, w));
            }
        } else {
            let row = mirror.neighbors(v);
            if !row.is_empty() {
                let u = row[rng.random_range(0..row.len())].0;
                mirror.remove_edge(v, u);
                ops.push(DeltaOp::RemoveEdge(v.0, u.0));
            }
        }
    }
    // The drawing mirror's log is never used; keep it from growing.
    mirror.take_log();
    ops
}

fn read_loop(
    client: &mut TcpClient,
    seed: u64,
    start: Instant,
    stop: &AtomicBool,
    tr: &mut Tracer,
) -> Vec<Exchange> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut reads = Vec::new();
    let mut i = 0;
    // Relaxed: the flag publishes no other data; the reads come back
    // through the thread's join.
    while !stop.load(Ordering::Relaxed) {
        tr.set_recording(i % 2 == 0);
        reads.push(exchange(
            client,
            draw_read(&mut rng),
            start,
            tr,
            "service.tcp.read",
            i,
        ));
        i += 1;
    }
    tr.set_recording(true);
    reads
}

fn update_loop(
    client: &mut TcpClient,
    base: &Graph,
    seed: u64,
    match_seed: u64,
    cycles: u64,
    sched: &Schedule,
    tr: &mut Tracer,
) -> Vec<Cycle> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut mirror = DeltaGraph::new(base.clone());
    let mut out = Vec::new();
    let mut prev_end = sched.start;
    for k in 0..cycles {
        // Drawn before the cycle is due, so drawing is never timed.
        let ops = draw_batch(&mut rng, &mut mirror);
        let begin = sched.start_of(k, prev_end);
        thread::sleep(begin.saturating_duration_since(Instant::now()));
        let late = sched.lateness(k, Instant::now());
        let op = CYCLE_OP + k;
        tr.set_recording(k % 2 == 0);
        let matching = Request::MatchUsers { seed: match_seed };
        // The write follows the hit at once: after an idle gap it would
        // meet the delayed-ACK stall only sometimes.
        let hit = exchange(
            client,
            matching.clone(),
            sched.start,
            tr,
            "service.tcp.hit",
            op,
        );
        let write = exchange(
            client,
            Request::ApplyDeltas { ops },
            sched.start,
            tr,
            "service.tcp.write",
            op,
        );
        let miss = exchange(client, matching, sched.start, tr, "service.tcp.miss", op);
        tr.set_recording(true);
        prev_end = Instant::now();
        out.push(Cycle {
            late,
            hit,
            write,
            miss,
        });
    }
    out
}

/// Runs `svc-mixed`.
pub fn svc_mixed(args: &Args, tr: &mut Tracer) -> Report {
    let mut report = Report::default();
    let match_seed = derive_seed(args.seed, MATCH_STREAM);
    let mut setups = Vec::new();
    let mut live: Option<Live> = None;
    let mut warm_answer = Err(String::new());
    let mut warm_reads = Vec::new();
    for rep in 0..SETUP_REPS as u64 {
        if let Some(previous) = live.take() {
            tear_down(previous);
        }
        let t = Instant::now();
        let mut l = set_up(args, match_seed, rep, tr);
        setups.push(t.elapsed());
        warm_answer = check_warmup(&l, &mut report);
        warm_reads.append(&mut l.warm_reads);
        live = Some(l);
    }
    let mut live = live.expect("SETUP_REPS is positive");

    let stop = AtomicBool::new(false);
    let n_cycles = args.window.as_secs().max(1);
    let reader_seed = derive_seed(args.seed, READER_STREAM);
    let updater_seed = derive_seed(args.seed, UPDATER_STREAM);
    let mut reader_tr = tr.fork(1);
    let cpu = CpuSample::now();
    let sched = Schedule {
        start: Instant::now(),
        period: PERIOD,
    };
    let Live {
        base,
        reader,
        updater,
        ..
    } = &mut live;
    let (reads, cycles) = thread::scope(|s| {
        let (stop, reader_tr) = (&stop, &mut reader_tr);
        let start = sched.start;
        let handle = s.spawn(move || read_loop(reader, reader_seed, start, stop, reader_tr));
        let cycles = update_loop(
            updater,
            base,
            updater_seed,
            match_seed,
            n_cycles,
            &sched,
            tr,
        );
        stop.store(true, Ordering::Relaxed);
        (handle.join().expect("reader thread panicked"), cycles)
    });
    let elapsed = sched.start.elapsed();
    let (steal_pct, cpu_util) = cpu.since(host::nproc());
    let peak_rss = host::peak_rss_mb();
    tr.absorb(reader_tr);
    let cache_after = exchange(
        &mut live.updater,
        Request::Stats,
        Instant::now(),
        tr,
        "service.tcp.stats",
        CYCLE_OP + n_cycles,
    );
    let hit_ratio = cache_hit_ratio(&live.cache_before, &cache_after);
    let base = live.base.clone();
    tear_down(live);

    let recorded = Recorded {
        warm_reads: &warm_reads,
        reads: &reads,
        cycles: &cycles,
    };
    let replayed = recorded.check(&base, match_seed, warm_answer, tr, &mut report);
    // Each cycle looks up one hit and one miss, and nothing else uses
    // the cache.
    report.op(hit_ratio.clone().and_then(|r| {
        (r == 0.5)
            .then_some(())
            .ok_or(format!("cache hit ratio {r} in the window, expected 0.5"))
    }));

    // End-to-end metrics: in a traced run, from the untraced exchanges.
    let untraced_only = tr.enabled();
    let updates = || cycles.iter().flat_map(|c| [&c.hit, &c.write, &c.miss]);
    let read_ms = latencies(reads.iter(), untraced_only);
    let write_ms = latencies(cycles.iter().map(|c| &c.write), untraced_only);
    let miss_ms = latencies(cycles.iter().map(|c| &c.miss), untraced_only);
    let all_ms = latencies(reads.iter().chain(updates()), untraced_only);
    let answered = reads
        .iter()
        .chain(updates())
        .filter(|ex| ex.resp.is_ok())
        .count();
    report_setup(&setups, &mut report);
    report.e2e(
        "ops_per_s",
        answered as f64 / elapsed.as_secs_f64(),
        format!("{answered} responses in {:.2} s", elapsed.as_secs_f64()),
    );
    report.e2e("p50_ms", median(&all_ms), latency_samples(&all_ms));
    report.e2e("read_p50_ms", median(&read_ms), latency_samples(&read_ms));
    report.e2e(
        "write_p50_ms",
        median(&write_ms),
        latency_samples(&write_ms),
    );
    report.e2e(
        "rematch_p50_ms",
        median(&miss_ms),
        latency_samples(&miss_ms),
    );
    report.e2e(
        "peak_rss_mb",
        peak_rss,
        "VmHWM after the window".to_string(),
    );
    let lateness: Vec<f64> = cycles.iter().map(|c| ms(c.late)).collect();
    report.note(format!(
        "updater: {} cycles, lateness against the schedule p50 {:.3} ms, max {:.3} ms",
        cycles.len(),
        median(&lateness),
        lateness.iter().copied().fold(0.0, f64::max)
    ));
    host::report_noise(steal_pct, cpu_util, &mut report);

    if tr.enabled() {
        let all_reads = latencies(reads.iter(), false);
        let traced_reads: Vec<f64> = reads
            .iter()
            .filter(|r| r.traced)
            .map(Exchange::latency_ms)
            .collect();
        report.layer("graph.gen_ms", tr.median_ms("graph.gen"));
        report.layer("sim.plane_mb", plane_bytes_for(&base, 1) as f64 / 1e6);
        report.layer("service.new_ms", tr.median_ms("service.new"));
        report.layer("service.hit_ms", tr.median_ms("service.tcp.hit"));
        report.layer("service.cache_hit_ratio", hit_ratio.unwrap_or(0.0));
        report.layer("service.cycle_late_ms", median(&lateness));
        report.layer("service.read_p90_ms", tail(&all_reads, 90.0).unwrap_or(0.0));
        report.layer("trace.overhead_pct", overhead_pct(&traced_reads, &read_ms));
        if let Some(rep) = replayed {
            recorded.report_layers(rep, match_seed, tr, &mut report);
        }
    }
    report
}

/// Latencies in ms, without the traced exchanges when `untraced_only`.
fn latencies<'a>(xs: impl Iterator<Item = &'a Exchange>, untraced_only: bool) -> Vec<f64> {
    xs.filter(|ex| !(untraced_only && ex.traced))
        .map(Exchange::latency_ms)
        .collect()
}

/// Share of the window's cache lookups that hit, from two `Stats`
/// snapshots.
fn cache_hit_ratio(before: &Exchange, after: &Exchange) -> Result<f64, String> {
    let counts = |ex: &Exchange| match &ex.resp {
        Ok(Response::StatsSnapshot {
            cache_hits,
            cache_misses,
            ..
        }) => Ok((*cache_hits, *cache_misses)),
        other => Err(format!("Stats got {other:?}")),
    };
    let ((h0, m0), (h1, m1)) = (counts(before)?, counts(after)?);
    let (hits, misses) = (h1.saturating_sub(h0), m1.saturating_sub(m0));
    Ok(hits as f64 / (hits + misses).max(1) as f64)
}

/// Whether no two of `nodes` are adjacent in `g`; repeated ids are
/// allowed.
fn independent(g: &DeltaGraph, nodes: &[u32]) -> bool {
    nodes.iter().enumerate().all(|(i, &u)| {
        nodes[i + 1..]
            .iter()
            .all(|&v| u == v || !g.has_edge(NodeId(u), NodeId(v)))
    })
}

/// Checks a `MatchUsers` answer on the mirror's graph: the kind, the
/// cache flag, the fingerprint, and that the pairs are disjoint edges
/// forming a maximal matching of the stated weight.
fn check_matching(mirror: &DeltaGraph, ex: &Exchange, cached: bool) -> Result<Answer, String> {
    let resp = ex.resp.as_ref().map_err(|e| format!("MatchUsers: {e}"))?;
    let Response::Matching {
        fingerprint,
        cached: was_cached,
        weight,
        pairs,
    } = resp
    else {
        return Err(format!("MatchUsers got {resp:?}"));
    };
    if *was_cached != cached {
        return Err(format!(
            "MatchUsers: cached is {was_cached}, expected {cached}"
        ));
    }
    if *fingerprint != mirror.fingerprint() {
        return Err("MatchUsers: fingerprint differs from the mirror's".to_string());
    }
    let mut covered = vec![false; mirror.num_slots()];
    let mut total = 0;
    for &(u, v) in pairs {
        let w = mirror
            .edge_weight(NodeId(u), NodeId(v))
            .ok_or(format!("MatchUsers: pair ({u}, {v}) is not an edge"))?;
        let (cu, cv) = (u as usize, v as usize);
        if covered[cu] || covered[cv] {
            return Err(format!("MatchUsers: pair ({u}, {v}) reuses a node"));
        }
        covered[cu] = true;
        covered[cv] = true;
        total += w;
    }
    if total != *weight {
        return Err(format!("MatchUsers: weight {weight}, pairs sum to {total}"));
    }
    for v in 0..mirror.num_slots() as u32 {
        let free_edge = !covered[v as usize]
            && mirror
                .neighbors(NodeId(v))
                .iter()
                .any(|(u, _)| !covered[u.index()]);
        if free_edge {
            return Err(format!(
                "MatchUsers: node {v} and a neighbour are both free"
            ));
        }
    }
    Ok((*weight, pairs.clone()))
}

/// Checks a hit against the miss that cached it.
fn check_hit(
    mirror: &DeltaGraph,
    ex: &Exchange,
    cached: &Result<Answer, String>,
) -> Result<(), String> {
    let answer = check_matching(mirror, ex, true)?;
    match cached {
        Ok(expected) if *expected == answer => Ok(()),
        Ok(_) => Err("hit MatchUsers differs from the miss it repeats".to_string()),
        Err(_) => Err("hit MatchUsers follows a failed miss".to_string()),
    }
}

/// Checks a set-up's warm-up matching requests; returns the answer its
/// miss cached. Its reads are checked with the window's.
fn check_warmup(live: &Live, report: &mut Report) -> Result<Answer, String> {
    let mirror = DeltaGraph::new(live.base.clone());
    let miss = check_matching(&mirror, &live.warm_miss, false);
    report.op(check_hit(&mirror, &live.warm_hit, &miss));
    report.op(miss.clone().map(drop));
    miss
}

/// Whether the second service answered `replayed` where the live one
/// answered `live`.
fn same(live: &Exchange, replayed: &Response) -> Result<(), String> {
    match &live.resp {
        Ok(r) if r == replayed => Ok(()),
        _ => Err(format!("replayed {:?} answers differently", live.req)),
    }
}

/// Applies an op known to be valid (the updater drew it on a mirror).
fn apply(g: &mut DeltaGraph, op: &DeltaOp) {
    match *op {
        DeltaOp::InsertEdge(u, v, w) => g.insert_edge(NodeId(u), NodeId(v), w),
        DeltaOp::RemoveEdge(u, v) => g.remove_edge(NodeId(u), NodeId(v)),
        DeltaOp::AddNode(w) => {
            g.add_node(w);
        }
        DeltaOp::RemoveNode(v) => g.remove_node(NodeId(v)),
    }
}

/// What the live service was sent and answered.
struct Recorded<'a> {
    /// Every set-up's warm-up reads, all served before any write.
    warm_reads: &'a [Exchange],
    reads: &'a [Exchange],
    cycles: &'a [Cycle],
}

/// The checking replay: a mirror of the graph with the live matching
/// and MIS as the library's own calls give them, and a second service
/// fed the same trace.
struct Replay {
    svc: MatchingService,
    mirror: DeltaGraph,
    /// The service's live matching: the initial run, then one repair per
    /// write.
    pairs: Vec<(NodeId, NodeId)>,
    /// Each node's mate in `pairs`.
    mates: Vec<Option<u32>>,
    /// The service's live MIS, kept the same way.
    mis: Vec<MisResult>,
    mis_nodes: Vec<f64>,
    mis_rounds: Vec<f64>,
    core_rounds: Vec<f64>,
}

impl Replay {
    /// The replay of a service built on `base`: the live matching and
    /// MIS by the runs `MatchingService::new` makes (sequential here;
    /// the library makes sharded runs equal to them). An error when the
    /// new service's live state differs.
    fn new(base: &Graph) -> Result<Replay, String> {
        let config = ServiceConfig::default();
        let svc = MatchingService::new(base.clone(), config.clone());
        let mirror = DeltaGraph::new(base.clone());
        let g = mirror.compact();
        let (run, completed) = mwm_grouped_with(&g, SimConfig::congest_for(&g), config.seed);
        let mis =
            Engine::build(&g, SimConfig::congest_for(&g), |_| LubyMis::new()).run(config.seed);
        let mut rep = Replay {
            svc,
            mirror,
            pairs: Vec::new(),
            mates: Vec::new(),
            mis: Vec::new(),
            mis_nodes: Vec::new(),
            mis_rounds: Vec::new(),
            core_rounds: Vec::new(),
        };
        if !(completed && mis.completed) {
            return Err("the initial matching or MIS hit the round cap".to_string());
        }
        rep.adopt(&g, &run.matching, mis.into_outputs())?;
        Ok(rep)
    }

    /// Takes `matching` and `mis` as the live state, which the second
    /// service must hold too.
    fn adopt(&mut self, g: &Graph, matching: &Matching, mis: Vec<MisResult>) -> Result<(), String> {
        self.pairs = matching.edges(g).map(|e| g.endpoints(e)).collect();
        self.mates = vec![None; g.num_nodes()];
        for &(u, v) in &self.pairs {
            self.mates[u.index()] = Some(v.0);
            self.mates[v.index()] = Some(u.0);
        }
        self.mis = mis;
        (self.svc.live_pairs() == self.pairs.as_slice()
            && self.svc.live_mis() == self.mis.as_slice())
        .then_some(())
        .ok_or("the service's live matching or MIS differs from the library's".to_string())
    }

    /// Checks read `read` against the current state: the answer must be
    /// the mirror's or the live matching's, and the second service's.
    fn read(&mut self, read: &Exchange, i: u64, tr: &mut Tracer) -> Result<(), String> {
        let (expected, span) = match &read.req {
            Request::IsMatched { node } => (
                Response::Mate {
                    node: *node,
                    mate: self.mates.get(*node as usize).copied().flatten(),
                },
                "service.handle.is_matched",
            ),
            Request::IsIndependent { nodes } => (
                Response::Independent(independent(&self.mirror, nodes)),
                "service.handle.is_independent",
            ),
            other => return Err(format!("{other:?} in place of a read")),
        };
        let replayed = tr.time(span, i, || self.svc.handle(&read.req));
        match &read.resp {
            Ok(r) if *r == expected && *r == replayed => Ok(()),
            other => Err(format!(
                "{:?} got {other:?}, expected {expected:?}",
                read.req
            )),
        }
    }

    /// Replays write `ex`: the service's write path call by call on the
    /// mirror (clone, apply, compact, fingerprint, both repairs), then
    /// `handle` on the second service. The live `Applied` must carry the
    /// mirror's fingerprint and equal the second service's answer, whose
    /// repaired state must equal the mirror's repairs.
    fn write(&mut self, ex: &Exchange, op: u64, tr: &mut Tracer) -> Result<(), String> {
        let Request::ApplyDeltas { ops } = &ex.req else {
            return Err(format!("{:?} in place of a write", ex.req));
        };
        let seed = ServiceConfig::default().seed;
        let mut next = tr.time("graph.clone", op, || self.mirror.clone());
        for o in ops {
            apply(&mut next, o);
        }
        self.mirror = next;
        let deltas = self.mirror.take_log();
        let g = tr.time("graph.compact", op, || self.mirror.compact());
        let fingerprint = tr.time("graph.fingerprint", op, || self.mirror.fingerprint());
        let matching = tr.time("core.repair", op, || {
            grouped_mwm_repair(&g, &self.pairs, &deltas, seed, false)
        });
        let mis = tr.time("mis.repair", op, || {
            luby_repair(&g, &self.mis, &deltas, seed, false)
        });
        self.core_rounds.push(matching.rounds as f64);
        self.mis_nodes.push(mis.repaired as f64);
        self.mis_rounds.push(mis.rounds as f64);
        let resp = tr.time("service.handle.apply_deltas", op, || {
            self.svc.handle(&ex.req)
        });
        let adopted = self.adopt(&g, &matching.matching, mis.results);
        match &ex.resp {
            Ok(Response::Applied { fingerprint: f, .. }) if *f == fingerprint => {}
            other => {
                return Err(format!(
                    "ApplyDeltas got {other:?}, not the mirror's fingerprint"
                ))
            }
        }
        same(ex, &resp).and(adopted)
    }
}

impl Recorded<'_> {
    /// Checks every response. The updates are replayed on a `DeltaGraph`
    /// mirror, with the live matching and MIS repaired by the library's
    /// calls, against which each answer is checked, and the whole trace
    /// on a second service, which must answer exactly as the live one
    /// did. A read served while a write was in flight may have seen the
    /// state before or after it, so it may match either. `cached` is the
    /// answer the first hit repeats. A traced run times the replay's
    /// calls. `None` when the replay cannot start.
    fn check(
        &self,
        base: &Graph,
        match_seed: u64,
        mut cached: Result<Answer, String>,
        tr: &mut Tracer,
        report: &mut Report,
    ) -> Option<Replay> {
        let mut rep = match Replay::new(base) {
            Ok(rep) => rep,
            Err(why) => {
                report.op(Err(why));
                return None;
            }
        };
        // What the set-ups' warm-up miss cached.
        rep.svc.handle(&Request::MatchUsers { seed: match_seed });
        for read in self.warm_reads {
            report.op(rep.read(read, 0, tr));
        }
        let mut next_read = self.reads.iter().zip(0..).peekable();
        for (cycle, k) in self.cycles.iter().zip(0..) {
            let op = CYCLE_OP + k;
            // Reads sent before this write was answered saw the state
            // before it, or after it if they were served while it was in
            // flight.
            let mut in_flight = Vec::new();
            while let Some((read, i)) = next_read.next_if(|(r, _)| r.sent < cycle.write.done) {
                match rep.read(read, i, tr) {
                    Err(_) if read.done > cycle.write.sent => in_flight.push((read, i)),
                    checked => report.op(checked),
                }
            }
            let hit = tr.time("service.handle.match_hit", op, || {
                rep.svc.handle(&cycle.hit.req)
            });
            report
                .op(check_hit(&rep.mirror, &cycle.hit, &cached)
                    .and_then(|()| same(&cycle.hit, &hit)));
            report.op(rep
                .write(&cycle.write, op, tr)
                .map_err(|e| format!("cycle {k}: {e}")));
            for (read, i) in in_flight {
                report.op(rep.read(read, i, tr));
            }
            let miss = tr.time("service.handle.match_miss", op, || {
                rep.svc.handle(&cycle.miss.req)
            });
            cached = check_matching(&rep.mirror, &cycle.miss, false)
                .and_then(|answer| same(&cycle.miss, &miss).map(|()| answer))
                .map_err(|e| format!("cycle {k}: {e}"));
            report.op(cached.clone().map(drop));
        }
        for (read, i) in next_read {
            report.op(rep.read(read, i, tr));
        }
        Some(rep)
    }

    /// The traced run's per-layer metrics from the replay's spans, and
    /// the calls only timing needs: the reads again through the
    /// in-process queue, the codec round trips of the matching
    /// exchanges, and the miss's engine work and Alg. 2 by direct calls
    /// on the final graph.
    fn report_layers(&self, rep: Replay, match_seed: u64, tr: &mut Tracer, report: &mut Report) {
        // The same reads through the in-process queue, without TCP.
        let server = ServiceServer::spawn(rep.svc);
        let client = server.client();
        for (ex, i) in self.reads.iter().zip(0..) {
            tr.time("service.queue.read", i, || client.request(ex.req.clone()));
        }
        server.shutdown();

        // Encoding and decoding of the matching requests and replies.
        let mut reply_bytes = Vec::new();
        for (c, k) in self.cycles.iter().zip(0..) {
            for ex in [&c.hit, &c.miss] {
                if let Ok(resp) = &ex.resp {
                    let len = tr.time("service.codec", CYCLE_OP + k, || {
                        let req_ok =
                            matches!(Request::decode(&ex.req.encode()), Ok(r) if r == ex.req);
                        let bytes = resp.encode();
                        let resp_ok = matches!(Response::decode(&bytes), Ok(r) if r == *resp);
                        (req_ok && resp_ok).then_some(bytes.len())
                    });
                    report.op(len
                        .map(|n| reply_bytes.push(n as f64))
                        .ok_or("codec round trip failed".to_string()));
                }
            }
        }

        let handle_read_ms = [
            tr.durations_ms("service.handle.is_matched"),
            tr.durations_ms("service.handle.is_independent"),
        ]
        .concat();
        let queue_ms = tr.median_ms("service.queue.read");
        for (metric, span) in [
            ("service.handle_us.is_matched", "service.handle.is_matched"),
            (
                "service.handle_us.is_independent",
                "service.handle.is_independent",
            ),
            (
                "service.handle_us.apply_deltas",
                "service.handle.apply_deltas",
            ),
            ("service.handle_us.match_miss", "service.handle.match_miss"),
            ("service.handle_us.match_hit", "service.handle.match_hit"),
        ] {
            report.layer(metric, tr.median_ms(span) * 1e3);
        }
        report.layer(
            "service.queue_us",
            (queue_ms - median(&handle_read_ms)) * 1e3,
        );
        report.layer(
            "service.tcp_ms",
            tr.median_ms("service.tcp.read") - queue_ms,
        );
        report.layer("service.codec_us", tr.median_ms("service.codec") * 1e3);
        report.layer("service.response_kb", median(&reply_bytes) / 1e3);
        report.layer("graph.clone_ms", tr.median_ms("graph.clone"));
        report.layer("graph.compact_ms", tr.median_ms("graph.compact"));
        report.layer("graph.fingerprint_ms", tr.median_ms("graph.fingerprint"));
        report.layer("mis.repair_ms", tr.median_ms("mis.repair"));
        report.layer("mis.repair_nodes", median(&rep.mis_nodes));
        report.layer("mis.repair_rounds", median(&rep.mis_rounds));
        report.layer("core.repair_ms", tr.median_ms("core.repair"));
        report.layer("core.repair_rounds", median(&rep.core_rounds));

        let g = rep.mirror.compact();
        if let Some(last) = self.cycles.last() {
            miss_engine_layers(&g, match_seed, &last.miss, tr, report);
        }
        alg2_layer(&g, match_seed, tr, report);
    }
}

/// The round cap `mwm_grouped` uses, or `cap`.
fn mwm_config(g: &Graph, cap: Option<usize>) -> SimConfig {
    SimConfig::congest_for(g).with_max_rounds(cap.unwrap_or(64 * g.num_nodes() + 256))
}

/// The engine work of a miss, by direct library calls on the final
/// graph: capped at round 0, sequential as the one-shard service runs
/// it, and on every hardware thread. Both full runs must repeat the
/// last miss's answer.
fn miss_engine_layers(
    g: &Graph,
    seed: u64,
    last_miss: &Exchange,
    tr: &mut Tracer,
    report: &mut Report,
) {
    let answer = |run: &LrMatchingRun| {
        let pairs: Vec<(u32, u32)> = run
            .matching
            .edges(g)
            .map(|e| {
                let (u, v) = g.endpoints(e);
                (u.0, v.0)
            })
            .collect();
        (run.matching.weight(g), pairs)
    };
    let expected = match &last_miss.resp {
        Ok(Response::Matching { weight, pairs, .. }) => Some((*weight, pairs.clone())),
        _ => None,
    };
    let mut seq_stats = None;
    for k in 0..ENGINE_REPS {
        let op = EXTRA_OP + k;
        tr.time("sim.round0", op, || {
            mwm_grouped_with(g, mwm_config(g, Some(0)), seed)
        });
        let (seq, _) = tr.time("sim.seq", op, || {
            mwm_grouped_with(g, mwm_config(g, None), seed)
        });
        let (par, _) = tr.time("core.mwm", op, || {
            mwm_grouped_with_parallel(g, mwm_config(g, None), seed)
        });
        let (s, p) = (answer(&seq), answer(&par));
        report.op(if s != p {
            Err("run and run_parallel disagree on the final graph".to_string())
        } else if Some(&s) != expected.as_ref() {
            Err("the library's matching differs from the last miss".to_string())
        } else {
            Ok(())
        });
        report.layer("core.matching_weight", s.0 as f64);
        seq_stats = Some(seq.stats);
    }
    let (seq_ms, round0) = (tr.median_ms("sim.seq"), tr.median_ms("sim.round0"));
    report.layer("sim.round0_ms", round0);
    report.layer("sim.rounds_ms", seq_ms - round0);
    report.layer("sim.seq_ms", seq_ms);
    report.layer("sim.par_speedup", seq_ms / tr.median_ms("core.mwm"));
    report.layer("core.mwm_ms", tr.median_ms("core.mwm"));
    if let Some(stats) = seq_stats {
        report.layer(
            "sim.ns_per_msg",
            (seq_ms - round0) * 1e6 / stats.total_messages.max(1) as f64,
        );
        report.layer("core.mwm_rounds", stats.rounds as f64);
        report_run_stats(&stats, report);
    }
}

/// Alg. 2 MaxIS once on a copy of `g` with node weights drawn from
/// [1, 2^16]: `core.alg2_ms` and `core.alg2_rounds`, and a check that
/// its answer is independent.
fn alg2_layer(g: &Graph, seed: u64, tr: &mut Tracer, report: &mut Report) {
    let mut weighted = g.clone();
    let mut rng = SmallRng::seed_from_u64(derive_seed(seed, ALG2_STREAM));
    generators::randomize_node_weights(&mut weighted, MAX_WEIGHT, &mut rng);
    let maxis = tr.time("core.alg2", EXTRA_OP, || {
        alg2(&weighted, &Alg2Config::default(), seed)
    });
    report
        .op(check_independent(&weighted, &maxis.independent_set)
            .map_err(|e| format!("Alg. 2: {e}")));
    report.layer("core.alg2_ms", tr.median_ms("core.alg2"));
    report.layer("core.alg2_rounds", maxis.rounds as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lateness_is_measured_from_the_schedule() {
        let p = Duration::from_millis(1000);
        let sched = Schedule {
            start: Instant::now(),
            period: p,
        };
        // Cycle 0 overruns to 1.5 periods: cycle 1 starts at once, half
        // a period late.
        let end0 = sched.start + p.mul_f64(1.5);
        let start1 = sched.start_of(1, end0);
        assert_eq!(start1, end0);
        assert_eq!(sched.lateness(1, start1), p / 2);
        // Cycle 1 ends at 1.7 periods: cycle 2 waits for its own due
        // time and is on time; lateness does not carry over.
        let start2 = sched.start_of(2, start1 + p / 5);
        assert_eq!(start2, sched.due(2));
        assert_eq!(sched.lateness(2, start2), Duration::ZERO);
        // Starting 3 ms after the due time is 3 ms late, whatever the
        // previous cycle did.
        assert_eq!(
            sched.lateness(3, sched.due(3) + Duration::from_millis(3)),
            Duration::from_millis(3)
        );
    }

    #[test]
    fn independence_follows_applied_ops() {
        let mut g = DeltaGraph::new(congest_graph::generators::path(4));
        assert!(!independent(&g, &[0, 1]));
        assert!(independent(&g, &[0, 2, 0]));
        apply(&mut g, &DeltaOp::RemoveEdge(1, 0));
        apply(&mut g, &DeltaOp::InsertEdge(0, 3, 5));
        assert!(independent(&g, &[1, 0]));
        assert!(!independent(&g, &[3, 0]));
        assert!(!independent(&g, &[1, 2]));
    }
}

//! Edge cases of the engine's receive-plane layout and of its executors'
//! delivery paths.
//!
//! A receive plane keeps one occupancy bit per directed slot, so a node's
//! inbox row can start anywhere inside a bitmap word and share that word
//! with its neighbours in CSR order. Delivery addresses each message
//! through the sender slot's mirror, queues it in a fixed-size batch, and
//! sets the bit with a plain OR when one worker delivers the phase and an
//! atomic one otherwise. These tests pin exact arrivals on rows that
//! straddle words (degrees 63, 64, 65, 130; `star(200)`), on senders with
//! more messages than one batch, and around isolated nodes, on every
//! executor; and `run ≡ run_parallel_with(t)` on graphs large enough that
//! several workers really deliver at once.

use congest_graph::{generators, Graph, GraphBuilder, NodeId, ShardPartition};
use congest_mis::{verify_mis, LubyMis, MisResult};
use congest_sim::{
    Adversary, AsyncScheduler, Context, Engine, Inbox, Protocol, RunOutcome, SimConfig, Status,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Rounds the [`Checker`] protocol exchanges messages for.
const CHECK_ROUNDS: usize = 4;

/// Whether `from` sends to `to` in `round`: a pure hash, so the receiver
/// can predict its exact inbox. About two ports in three are used.
fn sends(from: NodeId, to: NodeId, round: usize) -> bool {
    let mut z = (u64::from(from.0) << 32 | u64::from(to.0)) ^ (round as u64).wrapping_mul(0x9E37);
    z = (z ^ (z >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    !(z ^ (z >> 32)).is_multiple_of(3)
}

/// The payload `from` sends to `to` in `round`.
fn payload(from: NodeId, to: NodeId, round: usize) -> u64 {
    (u64::from(from.0) << 40) ^ (u64::from(to.0) << 8) ^ round as u64
}

/// Sends [`payload`] through each port [`sends`] selects, then checks
/// that the next inbox holds exactly the messages its neighbours chose to
/// send it — on the right ports, in ascending port order — and nothing
/// from the neighbouring rows of the bitmap. Outputs the number of
/// messages it verified.
struct Checker {
    verified: u64,
}

impl Checker {
    fn send_round(ctx: &mut Context<'_, u64>) {
        let (me, round) = (ctx.id(), ctx.round());
        for port in 0..ctx.degree() {
            let to = ctx.neighbor(port);
            if sends(me, to, round) {
                ctx.send(port, payload(me, to, round));
            }
        }
    }
}

impl Protocol for Checker {
    type Msg = u64;
    type Output = u64;

    fn init(&mut self, ctx: &mut Context<'_, u64>) {
        Self::send_round(ctx);
    }

    fn round(&mut self, ctx: &mut Context<'_, u64>, inbox: Inbox<'_, u64>) -> Status<u64> {
        let (me, sent) = (ctx.id(), ctx.round() - 1);
        let expected: Vec<(usize, u64)> = (0..ctx.degree())
            .filter_map(|port| {
                let from = ctx.neighbor(port);
                sends(from, me, sent).then(|| (port, payload(from, me, sent)))
            })
            .collect();
        for port in 0..ctx.degree() + 2 {
            let want = expected.iter().find(|e| e.0 == port).map(|e| e.1);
            assert_eq!(
                inbox.get(port),
                want,
                "{me} port {port} round {}",
                ctx.round()
            );
        }
        assert_eq!(inbox.iter().collect::<Vec<_>>(), expected, "{me}");
        assert_eq!(inbox.received_count(), expected.len(), "{me}");
        assert_eq!(inbox.iter().len(), expected.len(), "{me}");
        assert_eq!(inbox.is_empty(), expected.is_empty(), "{me}");
        assert_eq!(inbox.num_ports(), ctx.degree());
        self.verified += expected.len() as u64;
        if ctx.round() == CHECK_ROUNDS {
            return Status::Halt(self.verified);
        }
        Self::send_round(ctx);
        Status::Active
    }
}

/// Hubs of degrees 63, 64, 65 and 130 whose rows start inside bitmap
/// words, low-degree filler nodes that shift every row off word
/// boundaries, and isolated nodes at the start, the middle and the end of
/// the id space.
fn straddling_graph() -> (Graph, Vec<(NodeId, usize)>) {
    const N: u32 = 420;
    const LEAVES: u32 = 280;
    let hubs = [(7u32, 63usize), (70, 64), (140, 65), (211, 130)];
    let isolated = |v: u32| v < 3 || (150..156).contains(&v) || v == N - 1;
    let is_hub = |v: u32| hubs.iter().any(|h| h.0 == v);
    let mut b = GraphBuilder::with_nodes(N as usize);
    for &(h, d) in &hubs {
        for k in 0..d as u32 {
            // 11 is coprime to the 139 leaves, so the d leaves differ.
            b.add_edge(NodeId(h), NodeId(LEAVES + (h + 11 * k) % (N - 1 - LEAVES)));
        }
    }
    let mut rng = SmallRng::seed_from_u64(5);
    for v in 3..N - 1 {
        if isolated(v) || is_hub(v) {
            continue;
        }
        for _ in 0..rng.random_range(1..4u32) {
            let u = rng.random_range(3..N - 1);
            if u != v && !isolated(u) && !is_hub(u) {
                b.add_edge(NodeId(v), NodeId(u));
            }
        }
    }
    let g = b.build();
    let hubs = hubs.iter().map(|&(h, d)| (NodeId(h), d)).collect();
    (g, hubs)
}

/// Runs [`Checker`] on every executor and checks they agree.
fn check_every_executor(g: &Graph) -> RunOutcome<u64> {
    let config = SimConfig::local();
    let checker = |_: &_| Checker { verified: 0 };
    let seq = Engine::build(g, config.clone(), checker).run(1);
    assert!(seq.completed);
    let traced = Engine::build(g, config.clone().with_traces(), checker).run(1);
    assert_eq!(traced.outputs, seq.outputs);
    assert_eq!(traced.stats, seq.stats);
    for threads in [2, 4] {
        let par = Engine::build(g, config.clone(), checker).run_parallel_with(1, threads);
        assert_eq!(par.outputs, seq.outputs, "{threads} threads");
        assert_eq!(par.stats, seq.stats, "{threads} threads");
    }
    for shards in [2, 3, 7] {
        let p = ShardPartition::contiguous(g.num_nodes(), shards);
        let sharded = Engine::build(g, config.clone(), checker).run_sharded(1, &p);
        assert_eq!(sharded.outcome.outputs, seq.outputs, "{shards} shards");
        assert_eq!(sharded.outcome.stats, seq.stats, "{shards} shards");
    }
    seq
}

#[test]
fn rows_straddling_bitmap_words_receive_exactly_their_messages() {
    let (g, hubs) = straddling_graph();
    for &(h, d) in &hubs {
        assert_eq!(g.degree(h), d);
        let start = g.row_offsets()[h.index()] as usize;
        assert_ne!(start % 64, 0, "hub {h} must start inside a word");
    }
    let out = check_every_executor(&g);
    let verified: u64 = out.outputs.iter().map(|o| o.unwrap()).sum();
    // Nodes halt without sending in the last round, so every message was
    // received and checked.
    assert_eq!(verified, out.stats.total_messages);
    for v in [0u32, 1, 2, 150, 155, 419] {
        assert_eq!(g.degree(NodeId(v)), 0);
        assert_eq!(out.outputs[v as usize], Some(0), "isolated {v}");
    }
}

#[test]
fn star_200_center_and_leaves_share_bitmap_words() {
    // The centre's 199 slots fill bits 0..199, so the first leaf rows
    // start in the centre's last word; the centre sends far more than
    // one delivery batch per round.
    let g = generators::star(200);
    let out = check_every_executor(&g);
    assert!(out.outputs[0].unwrap() > 100);
}

#[test]
fn senders_with_more_messages_than_a_batch_under_duplication_and_delay() {
    // Every node of complete(40) sends 39 messages a round, and under
    // duplication each one is queued twice.
    let g = generators::complete(40);
    check_every_executor(&g);
    let adv = Adversary::message_duplicates(0.5, 3).with_drop_prob(0.1);
    let config = SimConfig::local()
        .with_max_rounds(30)
        .with_adversary(adv)
        .with_scheduler(AsyncScheduler::uniform(3, 9));
    let (graph, _) = straddling_graph();
    for g in [&g, &graph, &generators::star(200)] {
        assert_executors_agree(g, &config, |_| LubyMis::new(), 4);
    }
}

#[test]
fn isolated_nodes_alone_and_beside_edges() {
    let only = GraphBuilder::with_nodes(70).build();
    let out = check_every_executor(&only);
    assert!(out.outputs.iter().all(|o| *o == Some(0)));
    assert_eq!(out.stats.total_messages, 0);
    let mut b = GraphBuilder::with_nodes(130);
    for v in (64..128).step_by(2) {
        b.add_edge(NodeId(v), NodeId(v + 1));
    }
    check_every_executor(&b.build());
}

/// `run ≡ run_parallel_with(t) ≡ run_sharded` on `g` under `config`.
fn assert_executors_agree<P, F>(g: &Graph, config: &SimConfig, factory: F, seed: u64)
where
    P: Protocol + Send,
    P::Output: Send + PartialEq + std::fmt::Debug,
    F: Fn(&congest_sim::NodeInfo<'_>) -> P + Copy + 'static,
{
    let seq = Engine::build(g, config.clone(), factory).run(seed);
    for threads in [2, 4] {
        let par = Engine::build(g, config.clone(), factory).run_parallel_with(seed, threads);
        assert_eq!(par.completed, seq.completed, "{threads} threads");
        assert_eq!(par.outputs, seq.outputs, "{threads} threads");
        assert_eq!(par.stats, seq.stats, "{threads} threads");
    }
    let p = ShardPartition::contiguous(g.num_nodes(), 3);
    let sharded = Engine::build(g, config.clone(), factory).run_sharded(seed, &p);
    assert_eq!(sharded.outcome.outputs, seq.outputs, "3 shards");
    assert_eq!(sharded.outcome.stats, seq.stats, "3 shards");
}

/// 20k nodes: past `run_parallel`'s inline cutoff of 1024 active slots
/// per worker for both 2 and 4 workers, so the early rounds are
/// delivered by several workers at once, with atomic bit sets.
fn large_gnp() -> Graph {
    let n = 20_000;
    let mut rng = SmallRng::seed_from_u64(20);
    generators::gnp_skip(n, 8.0 / (n - 1) as f64, &mut rng)
}

#[test]
fn multi_worker_delivery_matches_sequential_on_20k_nodes() {
    let g = large_gnp();
    let config = SimConfig::congest_for(&g);
    assert_executors_agree(&g, &config, |_| LubyMis::new(), 11);
    let out = Engine::build(&g, config, |_| LubyMis::new()).run(11);
    let mis: Vec<MisResult> = out.into_outputs();
    verify_mis(&g, &mis).expect("a maximal independent set");
}

#[test]
fn multi_worker_delivery_matches_sequential_on_20k_nodes_under_faults() {
    let g = large_gnp();
    let adv = Adversary {
        drop_prob: 0.05,
        dup_prob: 0.1,
        reorder_prob: 0.2,
        corrupt_prob: 0.05,
        crash_prob: 0.002,
        restart_after: Some(2),
        ..Adversary::default()
    }
    .with_seed(41);
    let config = SimConfig::congest_for(&g)
        .with_max_rounds(60)
        .with_adversary(adv)
        .with_scheduler(AsyncScheduler::uniform(2, 17));
    assert_executors_agree(&g, &config, |_| LubyMis::new(), 12);
    let churn = Adversary::default()
        .with_seed(43)
        .with_edge_flip_prob(0.01)
        .with_node_leave_prob(0.002)
        .with_node_join_prob(0.3);
    let config = SimConfig::congest_for(&g)
        .with_max_rounds(40)
        .with_adversary(churn);
    assert_executors_agree(&g, &config, |_| LubyMis::new(), 13);
}

/// Rounds a [`Mover`] lasts at most: node `v` halts in round
/// [`halt_round`]`(v)`, somewhere in `1..=MOVER_ROUNDS`.
const MOVER_ROUNDS: usize = 6;

/// A 64-bit mixer, so the per-node choices below are pure hashes.
fn mix(x: u64) -> u64 {
    let z = (x ^ (x >> 31)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let z = (z ^ (z >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 32)
}

/// The round in which `v` halts.
fn halt_round(v: NodeId) -> usize {
    1 + (mix(0x4A17 ^ u64::from(v.0)) % MOVER_ROUNDS as u64) as usize
}

/// Whether `v` sends in `round` at all: about three nodes in four do,
/// each through the ports [`sends`] selects. One that selects no port
/// sends nothing.
fn speaks(v: NodeId, round: usize) -> bool {
    !mix(u64::from(v.0) << 16 ^ round as u64).is_multiple_of(4)
}

/// Whether `from`, stepping in every round up to its halting one, sent
/// to `to` in `round`.
fn moves(from: NodeId, to: NodeId, round: usize) -> bool {
    round <= halt_round(from) && speaks(from, round) && sends(from, to, round)
}

/// Sends in the rounds [`speaks`] picks, its halting round included,
/// halts in [`halt_round`], and checks that every inbox holds exactly the
/// messages its neighbours sent it. Outputs its halting round and how
/// many messages it received.
struct Mover {
    received: u64,
}

impl Mover {
    fn send_round(ctx: &mut Context<'_, u64>) {
        let (me, round) = (ctx.id(), ctx.round());
        for port in 0..ctx.degree() {
            let to = ctx.neighbor(port);
            if moves(me, to, round) {
                ctx.send(port, payload(me, to, round));
            }
        }
    }
}

impl Protocol for Mover {
    type Msg = u64;
    type Output = (usize, u64);

    fn init(&mut self, ctx: &mut Context<'_, u64>) {
        Self::send_round(ctx);
    }

    fn round(&mut self, ctx: &mut Context<'_, u64>, inbox: Inbox<'_, u64>) -> Status<(usize, u64)> {
        let (me, round) = (ctx.id(), ctx.round());
        assert!(round <= halt_round(me), "{me} stepped after halting");
        let expected: Vec<(usize, u64)> = (0..ctx.degree())
            .filter_map(|port| {
                let from = ctx.neighbor(port);
                moves(from, me, round - 1).then(|| (port, payload(from, me, round - 1)))
            })
            .collect();
        assert_eq!(
            inbox.iter().collect::<Vec<_>>(),
            expected,
            "{me} round {round}"
        );
        self.received += expected.len() as u64;
        Self::send_round(ctx);
        if round == halt_round(me) {
            return Status::Halt((round, self.received));
        }
        Status::Active
    }
}

/// What a [`Mover`] run on `g` must report, worked out from the hashes
/// alone: the outputs, the statistics, every message in delivery order
/// (ascending round, then sender, then port), and the messages that
/// cross a boundary of each partition in `partitions`.
struct MoverSpec {
    outputs: Vec<Option<(usize, u64)>>,
    stats: congest_sim::RunStats,
    traces: Vec<congest_sim::MessageTrace>,
    crossed: Vec<u64>,
}

fn mover_spec(g: &Graph, partitions: &[ShardPartition]) -> MoverSpec {
    use congest_sim::Message;
    let shard_of = |p: &ShardPartition, v: NodeId| {
        (0..p.shards())
            .find(|&s| p.range(s).contains(&v.index()))
            .expect("the partition covers every node")
    };
    let mut received = vec![0u64; g.num_nodes()];
    let mut stats = congest_sim::RunStats::default();
    let mut traces = Vec::new();
    let mut crossed = vec![0u64; partitions.len()];
    for round in 0..=MOVER_ROUNDS {
        for from in g.nodes() {
            for &to in g.neighbor_ids(from) {
                if !moves(from, to, round) {
                    continue;
                }
                let bits = payload(from, to, round).bit_size();
                stats.total_messages += 1;
                stats.max_message_bits = stats.max_message_bits.max(bits);
                if halt_round(to) <= round {
                    stats.dropped_messages += 1;
                } else {
                    received[to.index()] += 1;
                }
                for (c, p) in crossed.iter_mut().zip(partitions) {
                    *c += u64::from(shard_of(p, from) != shard_of(p, to));
                }
                traces.push(congest_sim::MessageTrace {
                    round,
                    from,
                    to,
                    bits,
                });
            }
        }
    }
    stats.rounds = g.nodes().map(halt_round).max().unwrap_or(0);
    let outputs = g
        .nodes()
        .map(|v| Some((halt_round(v), received[v.index()])))
        .collect();
    MoverSpec {
        outputs,
        stats,
        traces,
        crossed,
    }
}

/// Runs [`Mover`] on `g` under `run`, `run_parallel_with(_, 2)`, an
/// uneven 3-shard `run_sharded` and `with_traces()`, and checks each
/// against [`mover_spec`]: outputs, statistics, traces, and the
/// cross-shard meter of the 1-, 2- and 3-shard partitions (the first two
/// are those of `run` and `run_parallel_with(_, 2)`).
fn check_movers(g: &Graph) {
    let n = g.num_nodes();
    let partitions: Vec<_> = [1, 2, 3]
        .into_iter()
        .map(|k| ShardPartition::contiguous(n, k))
        .collect();
    let spec = mover_spec(g, &partitions);
    let config = SimConfig::local();
    let mover = |_: &_| Mover { received: 0 };
    let seq = Engine::build(g, config.clone(), mover).run(3);
    let par = Engine::build(g, config.clone(), mover).run_parallel_with(3, 2);
    for (name, out) in [("run", &seq), ("run_parallel_with(2)", &par)] {
        assert!(out.completed, "{name} on {n} nodes");
        assert_eq!(out.outputs, spec.outputs, "{name} on {n} nodes");
        assert_eq!(out.stats, spec.stats, "{name} on {n} nodes");
    }
    for (p, &crossed) in partitions.iter().zip(&spec.crossed) {
        for traced in [false, true] {
            let config = if traced {
                config.clone().with_traces()
            } else {
                config.clone()
            };
            let what = format!("{} shards, traced {traced}, {n} nodes", p.shards());
            let run = Engine::build(g, config, mover).run_sharded(3, p);
            assert_eq!(run.outcome.outputs, spec.outputs, "{what}");
            assert_eq!(run.outcome.stats, spec.stats, "{what}");
            assert_eq!(run.cross_shard_messages, crossed, "{what}");
            if traced {
                assert_eq!(run.outcome.traces, spec.traces, "{what}");
            }
        }
    }
}

#[test]
fn senders_and_halters_are_exact_where_workers_spawn() {
    // 6,001 nodes: the 3-shard partition is uneven (2,001 / 2,000 /
    // 2,000), and its boundaries fall inside words of the liveness
    // bitset.
    let n = 6_001;
    let mut rng = SmallRng::seed_from_u64(26);
    let g = generators::gnp_skip(n, 8.0 / (n - 1) as f64, &mut rng);
    // The first phases have at least 1,024 active ids and 1,024 senders
    // per shard on 3 shards, so their compute and delivery run on worker
    // threads; later phases shrink below that and run inline.
    let round0_senders = g
        .nodes()
        .filter(|&v| g.neighbor_ids(v).iter().any(|&to| moves(v, to, 0)))
        .count();
    assert!(round0_senders >= 3 * 1024, "{round0_senders} senders");
    check_movers(&g);
}

#[test]
fn senders_and_halters_are_exact_at_the_ends_of_the_liveness_words() {
    for n in [1usize, 63, 64, 65, 129] {
        let mut rng = SmallRng::seed_from_u64(n as u64);
        let g = generators::gnp(n, 0.15, &mut rng);
        check_movers(&g);
    }
}

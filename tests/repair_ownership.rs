//! Ownership of a bank entry while `ClosureBank::update_in_place` repairs
//! it in place.
//!
//! The repair takes the entry out of the store and rewrites each stale tree
//! through `Arc::make_mut`: in its own buffers when nobody else holds it,
//! on a copy when a live context does. One thread flips the banked closure
//! between a network and the same network with a relay crashed, over and
//! over. Before each flip the other thread checks both keys out through
//! `context_for` and holds the contexts (a channel handshake makes sure the
//! repair starts only then); while the repair runs it keeps checking both
//! keys out, racing it. Every context must hold exactly the trees of the
//! network it was checked out for — at checkout and, for the held ones,
//! after the repair — never a tree mutated under it. CI runs this file
//! repeatedly, so an ownership bug fails the change that causes it.

use elpc_mapping::{CachedTree, CostModel, MetricClosure, NetworkDelta, NodeId, SolveContext};
use elpc_workloads::bank::bank_key;
use elpc_workloads::{ClosureBank, InstanceSpec, ProblemInstance};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, TryRecvError};

/// Repairs per run: an even count returns the entry to the first network.
const FLIPS: usize = 40;

fn full_closure(inst: &ProblemInstance, cost: CostModel) -> Vec<CachedTree> {
    let sources: Vec<NodeId> = inst.network.node_ids().collect();
    let payloads: Vec<f64> = (1..inst.pipeline.len())
        .map(|j| inst.pipeline.input_bytes(j))
        .collect();
    let closure = MetricClosure::new(&inst.network, cost);
    closure.par_warm(&sources, &payloads, 1);
    closure.export()
}

/// A checked-out context holds nothing (a miss) or exactly `expected`'s
/// trees, bit for bit.
fn assert_whole(label: &str, ctx: &SolveContext<'_>, expected: &[CachedTree]) {
    let got = ctx.closure().export();
    if got.is_empty() {
        return;
    }
    assert_eq!(got.len(), expected.len(), "{label}: tree count");
    for (g, e) in got.iter().zip(expected) {
        assert_eq!(g.key, e.key, "{label}: keys");
        assert!(
            g.tree
                .dist
                .iter()
                .zip(&e.tree.dist)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "{label}: a tree's distances are not those of its network"
        );
        assert_eq!(
            g.tree.prev, e.tree.prev,
            "{label}: a tree's predecessors are not those of its network"
        );
    }
}

#[test]
fn racing_checkouts_only_ever_see_whole_trees() {
    let cost = CostModel::default();
    let healthy = InstanceSpec::sized(5, 120, 300)
        .generate(0x0D0)
        .expect("spec generates");
    let relay = healthy
        .network
        .node_ids()
        .find(|&v| v != healthy.src && v != healthy.dst)
        .expect("a relay node");
    let mut crashed = healthy.clone();
    crashed.network.fail_node(relay).expect("valid node");
    let sides = [&healthy, &crashed];
    let keys = sides.map(|inst| bank_key(&inst.as_instance(), &cost));
    let expected = sides.map(|inst| full_closure(inst, cost));
    let deltas = [
        NetworkDelta::between(&healthy.network, &crashed.network).expect("same shape"),
        NetworkDelta::between(&crashed.network, &healthy.network).expect("same shape"),
    ];

    let bank = ClosureBank::new();
    let seeded = bank.context_for(healthy.as_instance(), cost, 1);
    seeded.closure().seed(&expected[0]);
    bank.deposit(&seeded);
    drop(seeded);

    // per flip: the reader checks both keys out and holds the contexts,
    // then tells the repairer to go; it keeps checking out until the
    // repairer reports the repair done, then re-checks what it held. The
    // handshake is two channels, so a panic on either side ends the test
    // instead of leaving the other thread waiting.
    let (go, go_rx) = mpsc::channel::<()>();
    let (done, done_rx) = mpsc::channel::<()>();
    let checkouts = AtomicU64::new(1);
    let (bank, checkouts, expected, deltas) = (&bank, &checkouts, &expected, &deltas);
    std::thread::scope(|s| {
        s.spawn(move || {
            for flip in 0..FLIPS {
                let (from, to) = (flip % 2, 1 - flip % 2);
                go_rx.recv().expect("the reader holds its contexts");
                let report = bank
                    .update_in_place(keys[from], sides[to].as_instance(), cost, &deltas[from], 1)
                    .expect("the entry is banked under the key it was last moved to");
                assert!(report.rebuilt > 0, "a crash or restore makes trees stale");
                done.send(()).expect("the reader is waiting");
            }
        });
        s.spawn(move || {
            let checkout = |side: usize| {
                let ctx = bank.context_for(sides[side].as_instance(), cost, 1);
                checkouts.fetch_add(1, Ordering::Relaxed);
                assert_whole("at checkout", &ctx, &expected[side]);
                (side, ctx)
            };
            for _ in 0..FLIPS {
                let held = [checkout(0), checkout(1)];
                go.send(()).expect("the repairer is waiting");
                loop {
                    checkout(0);
                    checkout(1);
                    match done_rx.try_recv() {
                        Ok(()) => break,
                        Err(TryRecvError::Empty) => {}
                        Err(TryRecvError::Disconnected) => panic!("the repairer stopped"),
                    }
                }
                for (side, ctx) in &held {
                    assert_whole("held across a repair", ctx, &expected[*side]);
                }
            }
        });
    });

    let stats = bank.stats();
    assert_eq!(stats.repairs, FLIPS as u64);
    assert_eq!(stats.hits + stats.misses, checkouts.load(Ordering::Relaxed));
    assert!(bank.contains_key(keys[FLIPS % 2]) && !bank.contains_key(keys[1 - FLIPS % 2]));
    let last = bank.context_for(sides[FLIPS % 2].as_instance(), cost, 1);
    assert_eq!(last.closure().cached_trees(), expected[0].len());
    assert_whole("after the race", &last, &expected[FLIPS % 2]);
}

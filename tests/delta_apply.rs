//! `NetworkDelta::apply` is the inverse of `NetworkDelta::between`: a delta
//! taken between two networks, applied to the first, rebuilds a network
//! that fingerprints exactly like the second. The serving daemon relies on
//! this to rebuild a keyed remap's network from the one it banked.
//!
//! Chains mix bandwidth/MLD/power churn with link cuts, node crashes and
//! restores over random, scale-free and small-world topologies, and apply
//! each step's delta to the chained rebuilt network, so a wrong value
//! would compound. A delta applied to anything but its own base network
//! must be refused with a typed error.

use elpc_mapping::{DeltaApplyError, EdgeId, NetworkDelta, NodeId};
use elpc_netsim::{Link, Network};
use elpc_workloads::{InstanceSpec, TopologyKind};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const STEPS: usize = 8;

fn network(kind: u8, seed: u64) -> Network {
    let mut spec = InstanceSpec::sized(4, 20, 48);
    spec.topology = match kind % 3 {
        0 => TopologyKind::RandomConnected,
        1 => TopologyKind::ScaleFree { attach: 2 },
        _ => TopologyKind::SmallWorld { k: 4, beta: 0.2 },
    };
    spec.generate(seed).expect("spec generates").network
}

/// One random step: churn a few links and maybe a node power, cut a
/// healthy link (sometimes moving its MLD too), crash a healthy node, or
/// restore everything that failed.
fn step(net: &Network, rng: &mut ChaCha8Rng) -> Network {
    let mut out = net.clone();
    let healthy_links: Vec<EdgeId> = (0..net.link_count())
        .map(|k| EdgeId((2 * k) as u32))
        .filter(|&e| !net.link(e).expect("valid link").is_failed())
        .collect();
    match rng.gen_range(0..4u8) {
        0 => {
            for _ in 0..rng.gen_range(1..=3usize) {
                let id = healthy_links[rng.gen_range(0..healthy_links.len())];
                let old = out.link(id).expect("valid link").clone();
                let next = if rng.gen_bool(0.7) {
                    Link::new(old.bw_mbps * rng.gen_range(0.3..2.0), old.mld_ms)
                } else {
                    Link::new(old.bw_mbps, old.mld_ms + rng.gen_range(0.01..1.0))
                };
                out.set_link_symmetric(id, next).expect("valid link");
            }
            let v = NodeId(rng.gen_range(0..net.node_count()) as u32);
            if !out.node_is_failed(v) {
                out.node_mut(v).expect("valid node").power *= rng.gen_range(0.5..1.5);
            }
        }
        1 => {
            let id = healthy_links[rng.gen_range(0..healthy_links.len())];
            let old = out.fail_link_symmetric(id).expect("valid link");
            if rng.gen_bool(0.5) {
                // a cut that also moves the MLD in the same step
                let mld_ms = old.mld_ms + rng.gen_range(0.01..1.0);
                out.set_link_symmetric(id, Link::new(0.0, mld_ms))
                    .expect("valid link");
            }
        }
        2 => {
            let healthy: Vec<NodeId> = out.node_ids().filter(|&v| !out.node_is_failed(v)).collect();
            out.fail_node(healthy[rng.gen_range(0..healthy.len())])
                .expect("valid node");
        }
        _ => {
            // restore: every failed link back to a healthy bandwidth, every
            // crashed node back to power
            for k in 0..out.link_count() {
                let id = EdgeId((2 * k) as u32);
                let old = out.link(id).expect("valid link").clone();
                if old.is_failed() {
                    out.set_link_symmetric(id, Link::new(100.0, old.mld_ms))
                        .expect("valid link");
                }
            }
            for v in net.node_ids() {
                if out.node_is_failed(v) {
                    out.node_mut(v).expect("valid node").power = 50.0;
                }
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `apply(between(a, b), a)` fingerprints to `b` at every step of a
    /// chained churn/fail/restore sequence, and the same delta applied to
    /// `b` (whose values are the delta's new ones) is refused.
    #[test]
    fn applying_a_diff_rebuilds_the_target(kind in 0u8..3, seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut truth = network(kind, seed % 1024);
        let mut rebuilt = truth.clone();
        for _ in 0..STEPS {
            let next = step(&truth, &mut rng);
            let delta = NetworkDelta::between(&truth, &next).expect("same shape");
            rebuilt = delta.apply(&rebuilt).expect("a diff applies to its own base");
            prop_assert_eq!(rebuilt.fingerprint(), next.fingerprint());
            if !delta.is_empty() {
                prop_assert!(delta.apply(&next).is_err(), "old values must be checked");
            }
            truth = next;
        }
    }

    /// A delta whose old values or ids do not fit the base is refused with
    /// the matching typed error, never applied in part or panicking.
    #[test]
    fn mismatched_deltas_are_refused(kind in 0u8..3, seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let base = network(kind, seed % 1024);
        let mut next = base.clone();
        let id = EdgeId(2 * rng.gen_range(0..base.link_count()) as u32);
        let old = base.link(id).expect("valid link").clone();
        next.set_link_symmetric(id, Link::new(old.bw_mbps * 0.5, old.mld_ms))
            .expect("valid link");
        let v = NodeId(rng.gen_range(0..base.node_count()) as u32);
        next.node_mut(v).expect("valid node").power *= 2.0;
        let delta = NetworkDelta::between(&base, &next).expect("same shape");

        let mut stale = delta.clone();
        stale.links[0].old.mld_ms += 1.0;
        prop_assert_eq!(
            stale.apply(&base).unwrap_err(),
            DeltaApplyError::StaleLink { edge: stale.links[0].edge }
        );
        let mut stale_power = delta.clone();
        stale_power.nodes[0].old_power *= 3.0;
        prop_assert_eq!(
            stale_power.apply(&base).unwrap_err(),
            DeltaApplyError::StalePower { node: v }
        );
        let mut far_edge = delta.clone();
        far_edge.links[0].edge = EdgeId(u32::MAX);
        prop_assert_eq!(
            far_edge.apply(&base).unwrap_err(),
            DeltaApplyError::EdgeOutOfRange { edge: EdgeId(u32::MAX) }
        );
        let mut far_node = delta.clone();
        far_node.nodes[0].node = NodeId(u32::MAX);
        prop_assert_eq!(
            far_node.apply(&base).unwrap_err(),
            DeltaApplyError::NodeOutOfRange { node: NodeId(u32::MAX) }
        );
        let mut rewired = delta.clone();
        let lp = &mut rewired.links[0];
        std::mem::swap(&mut lp.src, &mut lp.dst);
        prop_assert_eq!(
            rewired.apply(&base).unwrap_err(),
            DeltaApplyError::EndpointMismatch { edge: rewired.links[0].edge }
        );
        // the untouched delta still applies
        prop_assert_eq!(delta.apply(&base).expect("applies").fingerprint(), next.fingerprint());
    }
}

//! Adaptive remapping under time-varying resources — the §5 future-work
//! direction, exercised end to end: link bandwidths and node availability
//! drift over a simulated hour, a control loop re-runs the ELPC-delay DP
//! each epoch, and hysteresis decides when switching mappings is worth it.
//!
//! Also demonstrates the measurement substrate: the "operator" first
//! estimates link parameters from noisy probes (Wu & Rao's regression
//! method) instead of reading ground truth.
//!
//! ```text
//! cargo run --example adaptive_remapping
//! ```

use elpc::extensions::adaptive::{run_epochs, EpochConfig, RemapPolicy};
use elpc::netsim::dynamics::{DynamicNetwork, LoadModel};
use elpc::netsim::faults::FaultSchedule;
use elpc::netsim::measure::{estimate_link, ProbePlan};
use elpc::prelude::*;
use elpc::workloads::ClosureBank;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    // --- measurement: estimate a WAN link from probes -------------------
    let truth = Link::new(622.0, 12.0);
    let plan = ProbePlan {
        repeats: 25,
        noise_frac: 0.05,
        ..ProbePlan::default()
    };
    let mut rng = ChaCha8Rng::seed_from_u64(2026);
    let est = estimate_link(&truth, &plan, &mut rng).unwrap();
    println!("=== link estimation from {} noisy probes ===", est.samples);
    println!(
        "true bw 622.0 Mbps / MLD 12.0 ms → estimated {:.1} Mbps / {:.1} ms (R² = {:.4})\n",
        est.bw_mbps, est.mld_ms, est.r_squared
    );

    // --- the drifting network ------------------------------------------
    // two candidate compute sites; site A degrades on a diurnal cycle
    let mut b = Network::builder();
    let src = b.add_node(3_000.0).unwrap();
    let site_a = b.add_node(100_000.0).unwrap();
    let site_b = b.add_node(60_000.0).unwrap();
    let dst = b.add_node(5_000.0).unwrap();
    b.add_link(src, site_a, 1000.0, 1.0).unwrap(); // link 0
    b.add_link(site_a, dst, 1000.0, 1.0).unwrap(); // link 1
    b.add_link(src, site_b, est.to_link().bw_mbps, est.to_link().mld_ms)
        .unwrap(); // link 2: the measured link
    b.add_link(site_b, dst, 622.0, 8.0).unwrap(); // link 3
    let network = b.build().unwrap();

    let hour_ms = 3.6e6;
    let node_models = vec![
        LoadModel::Constant(1.0),
        // site A: load swings take away up to 90% of its capacity
        LoadModel::Sinusoid {
            period_ms: hour_ms / 2.0,
            amplitude: 0.9,
            phase_ms: 0.0,
        },
        LoadModel::RandomEpochs {
            epoch_ms: hour_ms / 20.0,
            floor: 0.7,
            seed: 7,
        },
        LoadModel::Constant(1.0),
    ];
    let link_models = vec![LoadModel::Constant(1.0); 4];
    let dyn_net = DynamicNetwork::new(network, node_models, link_models).unwrap();

    let pipeline = Pipeline::from_stages(1e7, &[(5.0, 2e6), (3.0, 5e5)], 0.5).unwrap();
    let pipelines = [(pipeline, src, dst)];
    let cost = CostModel::default();
    let no_faults = FaultSchedule::from_events(vec![]);

    // --- run the control loop at several hysteresis settings ------------
    println!("=== one simulated hour, re-planning every 3 min ===");
    println!(
        "{:<12} {:>9} {:>14} {:>13} {:>9}",
        "hysteresis", "switches", "adaptive (ms)", "static (ms)", "gain"
    );
    for hysteresis in [0.0, 0.05, 0.25, 1.0] {
        let report = run_epochs(
            &dyn_net,
            &no_faults,
            &pipelines,
            &cost,
            EpochConfig {
                period_ms: hour_ms / 20.0,
                policy: RemapPolicy::Always { hysteresis },
                switch_cost_ms: 50.0,
            },
            hour_ms,
            elpc::mapping::solver("elpc_delay").expect("registered"),
            &ClosureBank::new(),
        )
        .unwrap();
        println!(
            "{:<12} {:>9} {:>14.1} {:>13.1} {:>8.1}%",
            format!("{:.0}%", hysteresis * 100.0),
            report.switches,
            report.adaptive_mean_ms,
            report.static_mean_ms,
            report.improvement() * 100.0
        );
    }

    // the engine takes any registered minimum-delay solver — here the
    // routed-overlay DP instead of the strict one
    println!("\nepoch detail at 5% hysteresis (routed-overlay re-mapping):");
    let report = run_epochs(
        &dyn_net,
        &no_faults,
        &pipelines,
        &cost,
        EpochConfig {
            period_ms: hour_ms / 10.0,
            policy: RemapPolicy::Always { hysteresis: 0.05 },
            switch_cost_ms: 50.0,
        },
        hour_ms,
        elpc::mapping::solver("elpc_delay_routed").expect("registered"),
        &ClosureBank::new(),
    )
    .unwrap();
    for e in &report.epochs {
        let p = &e.pipelines[0];
        println!(
            "  t={:>7.0}s  best {:>8.1} ms  adaptive {:>8.1} ms  static {:>8.1} ms{}",
            e.t_ms / 1000.0,
            p.candidate_delay_ms.expect("Always re-solves every epoch"),
            p.delay_ms,
            p.static_delay_ms,
            if p.switched { "  ← switched" } else { "" }
        );
    }
}

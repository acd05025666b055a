//! The correctness gate, run outside the timed window: served answers
//! against in-process registry solves of the same requests, bit for bit,
//! and the daemon's `Stats` ledger equations. Any mismatch fails the run.

use crate::load::{ConnLog, Record};
use crate::workload::{Check, Kind, Stream, BANKED_CYCLE, DP};
use elpc_mapping::{solver, CostModel, NodeId, SolveContext};
use elpc_serving::StatsReply;
use elpc_workloads::ProblemInstance;
use std::collections::BTreeMap;

/// An answer reduced to what must match bit for bit.
type Answer = (Vec<NodeId>, u64);

/// A registry solve of `inst` in process, on a fresh context. The
/// registry's solvers answer identically at any thread count, so the
/// reference uses every CPU.
pub fn reference(inst: &ProblemInstance, name: &str) -> Result<Answer, String> {
    let ctx = SolveContext::with_threads(inst.as_instance(), CostModel::default(), 0);
    let entry = solver(name).ok_or_else(|| format!("no registry solver {name}"))?;
    let sol = entry
        .solve(&ctx)
        .map_err(|e| format!("reference {name} solve failed: {e}"))?;
    Ok((sol.assignment, sol.objective_ms.to_bits()))
}

fn compare(rec: &Record, want: &Answer, what: &str) -> Result<(), String> {
    if rec.assignment != want.0 || rec.objective_ms.to_bits() != want.1 {
        return Err(format!(
            "{what}: served {} gave {:?} / {} ms, in-process gave {:?} / {} ms",
            rec.solver,
            rec.assignment,
            rec.objective_ms,
            want.0,
            f64::from_bits(want.1)
        ));
    }
    Ok(())
}

/// Checks every gated reply and returns the mean objective gap of the
/// timed ones (`None` when none was gated): served objective over the
/// routed DP objective of the same instance. On `banked` every reply is gated; on `cold` and `churn` a
/// seeded sample is, and the gap is taken over that sample.
pub fn check_replies(
    kind: Kind,
    streams: &[Stream],
    logs: &[ConnLog],
) -> Result<Option<f64>, String> {
    let records = logs.iter().flat_map(|l| &l.records);
    let mut gaps = Vec::new();
    if kind == Kind::Banked {
        let nets = streams[0]
            .banked_networks()
            .expect("banked streams hold their networks");
        let mut refs: BTreeMap<(usize, &str), Answer> = BTreeMap::new();
        for (net, inst) in nets.iter().enumerate() {
            for name in BANKED_CYCLE {
                if let std::collections::btree_map::Entry::Vacant(slot) = refs.entry((net, name)) {
                    slot.insert(reference(inst, name)?);
                }
            }
        }
        for rec in records {
            let Check::Banked { net, solver } = rec.check else {
                return Err("a banked reply lost its network".into());
            };
            compare(rec, &refs[&(net, solver)], &format!("banked network {net}"))?;
            if rec.timed {
                gaps.push(rec.objective_ms / f64::from_bits(refs[&(net, DP)].1));
            }
        }
    } else {
        for rec in records {
            if let Check::Sampled(inst) = &rec.check {
                let want = reference(inst, &rec.solver)?;
                compare(rec, &want, &format!("{} {}", kind.name(), inst.label))?;
                if rec.timed {
                    let dp = if rec.solver == DP {
                        want.1
                    } else {
                        reference(inst, DP)?.1
                    };
                    gaps.push(rec.objective_ms / f64::from_bits(dp));
                }
            }
        }
    }
    Ok((!gaps.is_empty()).then(|| gaps.iter().sum::<f64>() / gaps.len() as f64))
}

/// Asserts the daemon's ledger against what the clients sent.
pub fn check_ledger(stats: &StatsReply, logs: &[ConnLog], kind: Kind) -> Result<(), String> {
    let served: u64 = logs.iter().map(|l| l.served).sum();
    let failed: u64 = logs.iter().map(|l| l.failed_any).sum();
    let remaps: u64 = logs.iter().map(|l| l.remaps).sum();
    let mut errors = Vec::new();
    let mut expect = |what: &str, left: u64, right: u64| {
        if left != right {
            errors.push(format!("{what}: {left} != {right}"));
        }
    };
    expect(
        "requests == accepted + shed",
        stats.requests,
        stats.accepted + stats.shed,
    );
    expect(
        "accepted == completed + timeouts + errors",
        stats.accepted,
        stats.completed + stats.timeouts + stats.errors,
    );
    expect("requests == calls sent", stats.requests, served + failed);
    expect("completed == replies received", stats.completed, served);
    expect(
        "bank_hits + bank_misses == executed solves",
        stats.bank_hits + stats.bank_misses,
        stats.completed + stats.errors,
    );
    if kind == Kind::Churn {
        expect("bank_repairs == remaps sent", stats.bank_repairs, remaps);
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(format!("daemon ledger: {}", errors.join("; ")))
    }
}

//! Per-method bucket reconciliation: each of the four bounding methods
//! (plain, MIS, LGR, LPR) charges its own [`SolverStats::lb_methods`]
//! bucket, and the buckets sum to the global bound counters. Each
//! pipeline is driven directly down a decision prefix, below the search
//! loop, so a bucket that drifts from the global counters is caught at
//! its charge site.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use pbo_core::{Instance, InstanceBuilder, Value, Var};
use pbo_engine::Engine;

use crate::pipeline::{with_rebuild_oracle, BoundPipeline};
use crate::result::SolverStats;
use crate::{BsoloOptions, LbMethod};

/// Random covering instance: `at_least` rows over positive literals
/// only, so deciding any variable *true* can never conflict — the test
/// driver walks a decision prefix without needing conflict resolution.
fn covering_instance(rng: &mut ChaCha8Rng) -> Instance {
    let n = rng.gen_range(8..=12);
    let mut b = InstanceBuilder::new();
    let vars = b.new_vars(n);
    let m = rng.gen_range(4..9);
    for _ in 0..m {
        let k = rng.gen_range(2..=4.min(n));
        let mut idxs: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = rng.gen_range(i..n);
            idxs.swap(i, j);
        }
        let need = rng.gen_range(1..=2.min(k as i64));
        b.add_at_least(need, idxs[..k].iter().map(|&i| vars[i].positive()));
    }
    b.minimize(vars.iter().map(|v| (rng.gen_range(1..6), v.positive())));
    b.build().unwrap()
}

/// Drives one pipeline down a fixed decision prefix with a shrinking
/// upper bound (loose, then tight enough to prune), one `compute` call
/// per step, and returns the stats it charged.
fn drive(inst: &Instance, method: LbMethod) -> (usize, SolverStats) {
    let options = BsoloOptions::with_lb(method);
    let mut engine = Engine::new(inst.num_vars());
    for c in inst.constraints() {
        engine.add_constraint(c).unwrap();
    }
    let mut pipeline = BoundPipeline::new(inst, &options, &mut engine);
    let total: i64 = inst.objective().expect("optimization").terms().iter().map(|t| t.0).sum();
    let steps = 7i64;
    let mut uppers = vec![None];
    uppers.extend((0..steps).map(|i| Some((total + 1 - i * (total / steps + 1)).max(1))));
    let mut stats = SolverStats::default();
    for (i, &upper) in uppers.iter().enumerate() {
        let var = Var::new(i % inst.num_vars());
        if engine.assignment().value(var) == Value::Unassigned {
            engine.decide(var.positive());
            assert!(engine.propagate().is_none(), "positive decisions cannot conflict");
        }
        pipeline.compute(&mut engine, inst, upper, &mut stats);
    }
    (uppers.len(), stats)
}

/// Every method charges exactly its own bucket, once per `compute`
/// call, and the bucket totals sum to the global `lb_calls` /
/// `lb_time_total`, with the residual mirrored along the trail and
/// rebuilt by the oracle.
#[test]
fn method_buckets_reconcile_with_global_counters() {
    let methods = [LbMethod::None, LbMethod::Mis, LbMethod::Lagrangian, LbMethod::Lpr];
    let mut rng = ChaCha8Rng::seed_from_u64(0xadb4);
    for round in 0..8 {
        let inst = covering_instance(&mut rng);
        for (own_bucket, &method) in methods.iter().enumerate() {
            for rebuild in [false, true] {
                let label = format!("round {round}, {} (rebuild {rebuild})", method.name());
                let (n_calls, stats) = if rebuild {
                    with_rebuild_oracle(|| drive(&inst, method))
                } else {
                    drive(&inst, method)
                };
                assert_eq!(stats.lb_calls, n_calls as u64, "{label}: lb_calls");
                let calls: u64 = stats.lb_methods.iter().map(|m| m.calls).sum();
                assert_eq!(calls, stats.lb_calls, "{label}: bucket calls drifted from lb_calls");
                let time: std::time::Duration = stats.lb_methods.iter().map(|m| m.time_total).sum();
                assert_eq!(time, stats.lb_time_total, "{label}: bucket time drifted");
                for (i, bucket) in stats.lb_methods.iter().enumerate() {
                    let want = if i == own_bucket { stats.lb_calls } else { 0 };
                    assert_eq!(bucket.calls, want, "{label}: bucket {i} calls");
                    assert!(bucket.prunes <= bucket.calls, "{label}: bucket {i} prunes");
                }
            }
        }
    }
}

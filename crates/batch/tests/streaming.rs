//! Streaming value updates and lock-free snapshot queries.
//!
//! The batch executor is a *service* surface: inputs change mid-run
//! ([`BatchSim::push_update`]) and a monitoring plane polls progress
//! through the [`SnapshotBoard`] while the batch is stepping. These
//! tests pin the re-convergence semantics and exercise the board from a
//! concurrent reader thread.

use gr_batch::{BatchHost, BatchOptions, BatchSim, TenantSpec};
use gr_reduction::PushCancelFlow;
use gr_topology::hypercube;

fn opts_checked() -> BatchOptions {
    BatchOptions {
        threads: 1,
        check_every: 1,
        target_accuracy: Some(1e-9),
    }
}

#[test]
fn push_update_reconverges_to_new_mean() {
    let n = 16usize;
    let specs = [TenantSpec::clean(hypercube(4), 71, vec![1.0; n], 100_000)];
    let host = BatchHost::assemble(&specs).unwrap();
    let data = host.union_data(&specs);
    let pcf = PushCancelFlow::new(host.graph(), &data);
    let mut sim = BatchSim::new(&host, pcf, &specs, opts_checked()).unwrap();

    sim.run_until_converged(0, 2_000);
    let board = sim.snapshots();
    let snap = board.get(0);
    assert!(snap.converged, "initial convergence within budget");
    assert!(
        (snap.estimate - 1.0).abs() < 1e-6,
        "estimate {}",
        snap.estimate
    );

    // Node 3's sensor jumps: the tenant must re-converge to the new mean
    // (1·15 + 17) / 16 = 2 without a restart.
    sim.push_update(0, 3, 17.0);
    let r0 = sim.tenant_round(0);
    sim.run_until_converged(0, 2_000);
    let snap = board.get(0);
    assert!(snap.converged, "re-convergence within budget");
    assert!(snap.round > r0);
    assert!(
        (snap.estimate - 2.0).abs() < 1e-6,
        "estimate {}",
        snap.estimate
    );
    // Every node agrees, not just the probe node.
    for i in 0..n as u32 {
        assert!((sim.tenant_estimate(0, i) - 2.0).abs() < 1e-6);
    }
}

#[test]
fn updates_apply_at_round_boundary_in_push_order() {
    // Two updates to the same node: the later push wins, and both are
    // folded into the convergence target exactly once.
    let specs = [TenantSpec::clean(hypercube(3), 5, vec![0.0; 8], 100_000)];
    let host = BatchHost::assemble(&specs).unwrap();
    let data = host.union_data(&specs);
    let pcf = PushCancelFlow::new(host.graph(), &data);
    let mut sim = BatchSim::new(&host, pcf, &specs, opts_checked()).unwrap();
    sim.push_update(0, 0, 100.0);
    sim.push_update(0, 0, 8.0);
    sim.run_until_converged(0, 2_000);
    let snap = sim.snapshots().get(0);
    assert!(snap.converged);
    assert!(
        (snap.estimate - 1.0).abs() < 1e-6,
        "estimate {}",
        snap.estimate
    );
}

#[test]
fn snapshot_board_is_readable_while_stepping() {
    // A reader thread polls every tenant's snapshot concurrently with
    // the stepping thread. Rounds must be non-decreasing per tenant and
    // each tenant must finish with its done flag published.
    let specs: Vec<TenantSpec> = (0..8)
        .map(|t| TenantSpec::clean(hypercube(4), t as u64, vec![t as f64; 16], 400))
        .collect();
    let host = BatchHost::assemble(&specs).unwrap();
    let data = host.union_data(&specs);
    let pcf = PushCancelFlow::new(host.graph(), &data);
    let opts = BatchOptions {
        threads: 2,
        check_every: 4,
        target_accuracy: Some(1e-9),
    };
    let mut sim = BatchSim::new(&host, pcf, &specs, opts).unwrap();
    let board = sim.snapshots();

    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut last = vec![0u64; board.len()];
            let mut polls = 0u64;
            while board.get(board.len() - 1).round < 400 {
                for (t, prev) in last.iter_mut().enumerate() {
                    let snap = board.get(t);
                    assert!(
                        snap.round >= *prev,
                        "tenant {t} round went backwards: {} < {}",
                        snap.round,
                        *prev
                    );
                    *prev = snap.round;
                }
                polls += 1;
            }
            polls
        });
        sim.run(400);
        let polls = reader.join().unwrap();
        assert!(polls > 0);
    });

    for t in 0..specs.len() {
        let snap = board.get(t);
        assert!(snap.done, "tenant {t} done flag");
        assert_eq!(snap.round, 400);
        assert!(snap.converged, "tenant {t} converged");
        assert!((snap.estimate - t as f64).abs() < 1e-6);
    }
    assert!(sim.all_done());
}

//! Fully distributed modified Gram-Schmidt QR factorization (dmGS).
//!
//! Paper Sec. IV / Straková et al. (PPAM'11): factor `V ∈ R^{n×m}`
//! (`n ≥ N` rows distributed over `N` nodes, `m` small) as `V = Q·R`
//! where *every* summation — the column norms and the dot products of
//! modified Gram-Schmidt — is computed by a gossip all-to-all reduction,
//! and everything else is node-local. The reduction algorithm is a black
//! box, so dmGS composes with push-sum, PF or PCF unchanged, and whatever
//! accuracy/fault-tolerance the reduction has is inherited by the whole
//! factorization — the paper's Fig. 8 shows exactly this: dmGS(PF)'s error
//! grows with the node count, dmGS(PCF) stays at the prescribed 1e-15.
//!
//! ## Execution model
//!
//! For column `k`:
//! 1. every node computes the local partial `Σ_r V[r,k]²` over its rows
//!    and the partial dot products `Σ_r V[r,k]·V[r,j]` for `j > k`,
//!    batched into one vector payload;
//! 2. one gossip SUM reduction runs to (approximate) completion — each
//!    node ends with its own estimate of `‖v_k‖²` and `v_kᵀv_j`;
//! 3. each node sets `R_k,k = √(‖v_k‖²)`, `R_k,j = v_kᵀv_j / R_k,k`
//!    locally (so every node holds its *own* copy of `R`, all slightly
//!    different!), normalises its rows of `q_k = v_k/R_k,k` and
//!    orthogonalises its rows of the trailing columns.
//!
//! Note the one-reduction-per-column batching: norm and dot products are
//! computed from the *same* pre-normalisation column (`v_kᵀv_j/r_kk`
//! equals `q_kᵀv_j` exactly in ℝ), halving the reduction count relative
//! to the textbook formulation while staying numerically equivalent to
//! MGS up to the reduction accuracy.

use gr_linalg::Matrix;
use gr_netsim::{FaultPlan, Simulator};
use gr_numerics::dd::two_sum;
use gr_reduction::{with_protocol, Algorithm, InitialData, Normwise, ReductionProtocol};
use gr_topology::{Graph, NodeId};

/// Configuration of a dmGS run.
#[derive(Clone, Copy, Debug)]
pub struct DmgsConfig {
    /// Which reduction algorithm backs the summations.
    pub algorithm: Algorithm,
    /// Per-reduction target accuracy ε (the paper uses 1e-15): a reduction
    /// stops once every node's estimate of every component is within
    /// `ε·‖reference‖∞` of the truth (oracle-checked, as in the paper's
    /// simulations).
    pub target_accuracy: f64,
    /// Per-reduction round cap ("a maximal number of iterations per
    /// reduction was set to terminate reductions which did not achieve
    /// this target accuracy").
    pub max_rounds_per_reduction: u64,
    /// Master seed; every reduction derives its own schedule stream.
    pub seed: u64,
    /// Probability of message loss inside every reduction (fault-injection
    /// studies; keep 0 for the paper's Fig. 8 setting).
    pub msg_loss_prob: f64,
}

impl DmgsConfig {
    /// The paper's Fig. 8 setting for the given algorithm.
    pub fn paper(algorithm: Algorithm, seed: u64) -> Self {
        DmgsConfig {
            algorithm,
            target_accuracy: 1e-15,
            max_rounds_per_reduction: 20_000,
            seed,
            msg_loss_prob: 0.0,
        }
    }
}

/// Result of a distributed factorization.
#[derive(Clone, Debug)]
pub struct DmgsResult {
    /// The distributed `Q` (`n×m`), assembled from each node's own rows.
    pub q: Matrix,
    /// Each node's local copy of `R` (`m×m`, upper triangular). They
    /// differ at the level of the reduction accuracy.
    pub r_per_node: Vec<Matrix>,
    /// `max_b ‖V − Q·R_b‖∞ / ‖V‖∞` over all nodes' R copies — the paper's
    /// Fig. 8 metric (see [`cross_factorization_error`]).
    pub factorization_error: f64,
    /// Residual of each row against its owner's own R — stays `O(ε)`
    /// regardless of reduction accuracy (see [`local_consistency_error`]).
    pub consistency_error: f64,
    /// `‖I − QᵀQ‖∞` of the assembled Q.
    pub orthogonality_error: f64,
    /// Gossip rounds summed over all reductions.
    pub total_rounds: u64,
    /// Number of reductions executed (= m).
    pub reductions: u32,
}

/// Row-to-node assignment: cyclic, row `r` lives on node `r mod N`.
#[inline]
fn owner(row: usize, nodes: usize) -> NodeId {
    (row % nodes) as NodeId
}

/// Run one SUM reduction of `dim`-vectors and return every node's final
/// estimate (node-major, `dim` per node) plus the rounds it took.
fn vector_sum_reduction(
    graph: &Graph,
    locals: Vec<Vec<f64>>,
    cfg: &DmgsConfig,
    reduction_idx: u64,
) -> (Vec<f64>, u64) {
    // Sums are computed as N·average: every node knows the node count (a
    // standard assumption in this setting), and average weighting (all
    // w_i = 1) keeps the gossip weights concentrated around 1, which is
    // measurably more accurate at scale than the single-unit-weight SUM
    // start (whose per-node weights are O(1/N) and noisy — compare the
    // SUM vs AVG series of Figs. 3/6).
    // Payloads ride as `Vec<f64>`: a PCF message is then 152 bytes, not
    // the 600 of four inline `InlineVec` buffers, and every message is
    // moved by value through the pool, the mailbox lanes and back. The
    // protocols' wire-buffer pools keep the heap payloads allocation-free
    // in steady state, and the arithmetic is the same for every payload
    // type (see `payload_equiv`), so results do not depend on the choice.
    let n = graph.len() as f64;
    let data = InitialData::with_kind(locals, gr_reduction::AggregateKind::Average);
    let seed = cfg.seed ^ (0x9E37_79B9 * (reduction_idx + 1));
    let plan = if cfg.msg_loss_prob > 0.0 {
        FaultPlan::with_loss(cfg.msg_loss_prob)
    } else {
        FaultPlan::none()
    };
    // FU is the related-work comparator for averages, not a sum backend.
    if cfg.algorithm == Algorithm::FlowUpdating {
        panic!("flow updating is average-only and cannot back dmGS sums")
    }
    let rule = Normwise::new(&data, cfg.target_accuracy);
    let (mut estimates, rounds) = with_protocol!(cfg.algorithm, graph, &data, |proto| {
        drive(graph, proto, rule, plan, seed, cfg)
    });
    // average → sum
    for x in &mut estimates {
        *x *= n;
    }
    (estimates, rounds)
}

fn drive<Pr: ReductionProtocol>(
    graph: &Graph,
    protocol: Pr,
    mut rule: Normwise,
    plan: FaultPlan,
    seed: u64,
    cfg: &DmgsConfig,
) -> (Vec<f64>, u64) {
    let dim = protocol.dim();
    let mut sim = Simulator::new(graph, protocol, plan, seed);
    // Every node's estimate, node-major, into one reused `n × dim` buffer.
    let snapshot = |sim: &Simulator<'_, Pr>, out: &mut [f64]| {
        for (i, row) in out.chunks_exact_mut(dim).enumerate() {
            sim.protocol().write_estimate(i as NodeId, row);
        }
    };
    // Track the most accurate snapshot seen: if the target is unreachable
    // (PF at scale — the phenomenon Fig. 8 demonstrates) the reduction
    // terminates at its cap, and each node reports the estimate from its
    // calmest observed state. This models the purely local stability
    // detection real nodes use to stop (a node whose estimate is mid-
    // redistribution sees it moving and would not report it).
    let mut best_worst = f64::INFINITY;
    let mut best = vec![0.0; graph.len() * dim];
    loop {
        // Check every 8 rounds: estimate inspection is O(n·dim).
        sim.run(8);
        let worst = rule.worst(sim.protocol());
        if worst < best_worst {
            best_worst = worst;
            snapshot(&sim, &mut best);
        }
        // Within target is always an improvement: an earlier check within
        // target would have returned.
        if rule.met(worst) {
            return (best, sim.round());
        }
        if sim.round() >= cfg.max_rounds_per_reduction {
            if best_worst == f64::INFINITY {
                snapshot(&sim, &mut best);
            }
            return (best, sim.round());
        }
    }
}

/// Factor `v` over the nodes of `graph` with gossip reductions.
///
/// # Panics
/// Panics if `v` has fewer rows than the graph has nodes, has zero
/// columns, or a column turns out rank-deficient (or its norm estimate is
/// destroyed by injected faults).
pub fn dmgs(v: &Matrix, graph: &Graph, cfg: &DmgsConfig) -> DmgsResult {
    let (n, m) = (v.rows(), v.cols());
    let nodes = graph.len();
    assert!(m >= 1, "empty matrix");
    assert!(
        n >= nodes,
        "need at least one row per node (n={n}, nodes={nodes})"
    );

    // Working copy: each node mutates its own rows only. The whole matrix
    // stays in one allocation; ownership is respected by construction.
    let mut work = v.clone();
    let mut q = Matrix::zeros(n, m);
    let mut r_per_node = vec![Matrix::zeros(m, m); nodes];
    let mut total_rounds = 0u64;

    for k in 0..m {
        // Local partials, batched:
        // [ Σ v_rk², Σ v_rk·v_{r,k+1}, …, Σ v_rk·v_{r,m-1} ]
        let dim = m - k;
        let mut locals = vec![vec![0.0; dim]; nodes];
        for row in 0..n {
            let node = owner(row, nodes) as usize;
            let w = work.row(row);
            let vk = w[k];
            let dst = &mut locals[node];
            dst[0] += vk * vk;
            for j in (k + 1)..m {
                dst[j - k] += vk * w[j];
            }
        }

        let (estimates, rounds) = vector_sum_reduction(graph, locals, cfg, k as u64);
        total_rounds += rounds;

        // Node-local epilogue: every node derives ITS row of R from ITS
        // estimate and updates ITS rows of the working matrix.
        let mut rkk_per_node = vec![0.0; nodes];
        for (node, est) in estimates.chunks_exact(dim).enumerate() {
            let rkk = est[0].sqrt();
            assert!(
                rkk.is_finite() && rkk > 0.0,
                "rank-deficient or destroyed column {k} at node {node} (norm² estimate {})",
                est[0]
            );
            rkk_per_node[node] = rkk;
            let r = &mut r_per_node[node];
            r[(k, k)] = rkk;
            for j in (k + 1)..m {
                r[(k, j)] = est[j - k] / rkk;
            }
        }
        for row in 0..n {
            let node = owner(row, nodes) as usize;
            let rkk = rkk_per_node[node];
            let qrk = work[(row, k)] / rkk;
            q[(row, k)] = qrk;
            for j in (k + 1)..m {
                let rkj = r_per_node[node][(k, j)];
                work[(row, j)] -= qrk * rkj;
            }
        }
    }

    let factorization_error = cross_factorization_error(v, &q, &r_per_node);
    let consistency_error = local_consistency_error(v, &q, &r_per_node);
    let orthogonality_error = gr_linalg::orthogonality_error(&q);

    DmgsResult {
        q,
        r_per_node,
        factorization_error,
        consistency_error,
        orthogonality_error,
        total_rounds,
        reductions: m as u32,
    }
}

/// The Fig. 8 metric: `max_b ‖V − Q·R_b‖∞ / ‖V‖∞` — the factorization a
/// user gets by pairing the (globally assembled) `Q` with *some* node's
/// copy of `R`. Because each node normalised and orthogonalised its rows
/// with its *own* reduction estimates, the cross-node mismatch is exactly
/// the reduction inaccuracy — which is what makes dmGS(PF) degrade with
/// scale while dmGS(PCF) stays at the target.
///
/// Residual entries are evaluated with compensated dot products so the
/// metric itself does not add `O(m·ε)` noise on top of what it measures
/// (see [`residual`] for the kernel and its two builds).
pub fn cross_factorization_error(v: &Matrix, q: &Matrix, r_per_node: &[Matrix]) -> f64 {
    residual::dispatch(v, q, r_per_node, false)
}

/// Diagnostic companion metric: the residual of each row against the
/// *owning node's* R. MGS is self-consistent — a node's Q rows and its own
/// R reproduce its rows of V to local rounding *even when the reductions
/// were inaccurate* — so this stays at `O(ε)` for every backing algorithm.
/// The gap between this and [`cross_factorization_error`] isolates the
/// reduction-induced error.
pub fn local_consistency_error(v: &Matrix, q: &Matrix, r_per_node: &[Matrix]) -> f64 {
    residual::dispatch(v, q, r_per_node, true)
}

pub mod residual {
    //! The residual kernel behind [`cross_factorization_error`] and
    //! [`local_consistency_error`], written once and compiled twice.
    //!
    //! Entry `(row, j)` of `Q·R` is the compensated dot product
    //! `Σ_{k≤j} Q[row,k]·R[k,j]` (R upper triangular): each product split
    //! exactly by `two_prod` (`p = x·y`, `e = fma(x, y, −p)`), `p` then
    //! `e` added to a Neumaier sum, in `k` order. The kernel runs `k`
    //! outer and `j` inner, over R's contiguous rows, keeping one running
    //! sum per `j`, so every entry sees exactly the operations of a
    //! per-entry dot product in exactly its order, while the `j` loop
    //! vectorizes.
    //!
    //! On the baseline x86-64 target `f64::mul_add` is not an instruction
    //! but an out-of-line call into the runtime's `fma`, which picks a
    //! hardware or software path at run time. The [`fma`] build compiles
    //! the same source under `#[target_feature(enable = "avx2,fma")]`,
    //! where it is one `vfmsub` per product; the two metrics run it when
    //! [`fma_supported`] holds (std caches the probe) and the [`baseline`]
    //! build otherwise. A fused multiply-add is correctly rounded however
    //! it is computed, so the two builds agree bit for bit (pinned by
    //! `tests/residual_equiv.rs`).
    //!
    //! [`cross_factorization_error`]: super::cross_factorization_error
    //! [`local_consistency_error`]: super::local_consistency_error

    use super::{two_sum, Matrix};

    /// `true` iff this CPU runs the [`fma`] build (x86-64 with AVX2 and
    /// FMA).
    pub fn fma_supported() -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    /// The residual on the CPU's best build (see [`baseline`]).
    pub(super) fn dispatch(v: &Matrix, q: &Matrix, r_per_node: &[Matrix], owner_only: bool) -> f64 {
        #[cfg(target_arch = "x86_64")]
        if fma_supported() {
            // SAFETY: `fma_supported` confirmed AVX2 and FMA at runtime.
            return unsafe { with_fma(v, q, r_per_node, owner_only) };
        }
        worst_residual(v, q, r_per_node, owner_only)
    }

    /// The baseline build. `owner_only` pairs each row with its owning
    /// node's R only ([`local_consistency_error`]); otherwise every row
    /// is paired with every node's R ([`cross_factorization_error`]).
    ///
    /// [`cross_factorization_error`]: super::cross_factorization_error
    /// [`local_consistency_error`]: super::local_consistency_error
    pub fn baseline(v: &Matrix, q: &Matrix, r_per_node: &[Matrix], owner_only: bool) -> f64 {
        worst_residual(v, q, r_per_node, owner_only)
    }

    /// The AVX2+FMA build (arguments as for [`baseline`]). Panics if the
    /// CPU lacks either feature; on targets other than x86-64 it is the
    /// baseline build.
    pub fn fma(v: &Matrix, q: &Matrix, r_per_node: &[Matrix], owner_only: bool) -> f64 {
        #[cfg(target_arch = "x86_64")]
        {
            assert!(fma_supported(), "the FMA residual build needs AVX2 and FMA");
            // SAFETY: AVX2 and FMA availability asserted above.
            unsafe { with_fma(v, q, r_per_node, owner_only) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            worst_residual(v, q, r_per_node, owner_only)
        }
    }

    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn with_fma(v: &Matrix, q: &Matrix, r_per_node: &[Matrix], owner_only: bool) -> f64 {
        worst_residual(v, q, r_per_node, owner_only)
    }

    /// `max_b max_row Σ_j |V[row,j] − (Q·R_b)[row,j]| / ‖V‖∞` over every
    /// row, or (`owner_only`) over the rows node `b` owns.
    #[inline(always)]
    fn worst_residual(v: &Matrix, q: &Matrix, r_per_node: &[Matrix], owner_only: bool) -> f64 {
        let (n, m) = (v.rows(), v.cols());
        let nodes = r_per_node.len();
        let vnorm = v.norm_inf();
        // The running Neumaier sum (sum, compensation) of every entry of
        // one row of Q·R.
        let mut sum = vec![0.0f64; m];
        let mut comp = vec![0.0f64; m];
        let mut worst = 0.0f64;
        for (b, r) in r_per_node.iter().enumerate() {
            let (first, step) = if owner_only { (b, nodes) } else { (0, 1) };
            for row in (first..n).step_by(step) {
                sum.fill(0.0);
                comp.fill(0.0);
                for (k, &x) in q.row(row).iter().enumerate() {
                    // Row k of R feeds entries j ≥ k only.
                    let lanes = sum[k..].iter_mut().zip(&mut comp[k..]);
                    for ((s, c), &y) in lanes.zip(&r.row(k)[k..]) {
                        let p = x * y;
                        let e = f64::mul_add(x, y, -p);
                        let (s1, e1) = two_sum(*s, p);
                        *c += e1;
                        let (s2, e2) = two_sum(s1, e);
                        *s = s2;
                        *c += e2;
                    }
                }
                let mut rowsum = 0.0f64;
                for ((&vj, &s), &c) in v.row(row).iter().zip(&sum).zip(&comp) {
                    rowsum += (vj - (s + c)).abs();
                }
                worst = worst.max(rowsum);
            }
        }
        worst / vnorm
    }
}

/// Fully distributed *classical* Gram-Schmidt (dmCGS) — the numerically
/// unstable sibling, included as a stability comparator: CGS loses
/// orthogonality like `O(κ(V)²·ε)` where MGS loses `O(κ(V)·ε)`, and the
/// gap survives the move to gossip reductions intact. Two reductions per
/// column (the `q_kᵀv_j` batch, then `‖w‖²`) instead of dmGS's one.
///
/// # Panics
/// As [`dmgs`].
pub fn dmcgs(v: &Matrix, graph: &Graph, cfg: &DmgsConfig) -> DmgsResult {
    let (n, m) = (v.rows(), v.cols());
    let nodes = graph.len();
    assert!(m >= 1, "empty matrix");
    assert!(
        n >= nodes,
        "need at least one row per node (n={n}, nodes={nodes})"
    );

    let mut q = Matrix::zeros(n, m);
    let mut r_per_node = vec![Matrix::zeros(m, m); nodes];
    let mut total_rounds = 0u64;
    // w: the column being orthogonalised, per node's rows.
    let mut w = vec![0.0; n];

    for j in 0..m {
        // Reduction 1 (skipped for j = 0): r_kj = q_kᵀ v_j for all k < j,
        // against the ORIGINAL column v_j — the classical-GS signature.
        if j > 0 {
            let mut locals = vec![vec![0.0; j]; nodes];
            for row in 0..n {
                let node = owner(row, nodes) as usize;
                let vj = v[(row, j)];
                for k in 0..j {
                    locals[node][k] += q[(row, k)] * vj;
                }
            }
            let (estimates, rounds) = vector_sum_reduction(graph, locals, cfg, (2 * j) as u64);
            total_rounds += rounds;
            for (node, est) in estimates.chunks_exact(j).enumerate() {
                for k in 0..j {
                    r_per_node[node][(k, j)] = est[k];
                }
            }
        }
        // Local: w = v_j − Σ_k q_k r_kj with the owner's own R estimates.
        for row in 0..n {
            let node = owner(row, nodes) as usize;
            let mut acc = v[(row, j)];
            for k in 0..j {
                acc -= q[(row, k)] * r_per_node[node][(k, j)];
            }
            w[row] = acc;
        }
        // Reduction 2: ‖w‖².
        let mut locals = vec![vec![0.0; 1]; nodes];
        for row in 0..n {
            locals[owner(row, nodes) as usize][0] += w[row] * w[row];
        }
        let (estimates, rounds) = vector_sum_reduction(graph, locals, cfg, (2 * j + 1) as u64);
        total_rounds += rounds;
        let mut rjj = vec![0.0; nodes];
        for (node, est) in estimates.iter().enumerate() {
            let norm = est.sqrt();
            assert!(
                norm.is_finite() && norm > 0.0,
                "rank-deficient or destroyed column {j} at node {node}"
            );
            r_per_node[node][(j, j)] = norm;
            rjj[node] = norm;
        }
        for row in 0..n {
            q[(row, j)] = w[row] / rjj[owner(row, nodes) as usize];
        }
    }

    let factorization_error = cross_factorization_error(v, &q, &r_per_node);
    let consistency_error = local_consistency_error(v, &q, &r_per_node);
    let orthogonality_error = gr_linalg::orthogonality_error(&q);
    DmgsResult {
        q,
        r_per_node,
        factorization_error,
        consistency_error,
        orthogonality_error,
        total_rounds,
        reductions: (2 * m - 1) as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gr_reduction::PhiMode;
    use gr_topology::hypercube;

    #[test]
    fn dmgs_pcf_reaches_target_accuracy() {
        let g = hypercube(4); // 16 nodes
        let v = Matrix::random_uniform(16, 8, 1);
        let cfg = DmgsConfig::paper(Algorithm::PushCancelFlow(PhiMode::Eager), 1);
        let res = dmgs(&v, &g, &cfg);
        assert!(
            res.factorization_error < 1e-13,
            "dmGS(PCF) error {:e}",
            res.factorization_error
        );
        assert!(res.orthogonality_error < 1e-12);
        assert_eq!(res.reductions, 8);
        assert!(res.total_rounds > 0);
    }

    #[test]
    fn dmgs_matches_sequential_mgs() {
        // With near-exact reductions, dmGS must agree with sequential MGS
        // up to reduction accuracy: compare node 0's R and the global Q
        // with the reference factorization.
        let g = hypercube(3);
        let v = Matrix::random_uniform(8, 4, 2);
        let cfg = DmgsConfig::paper(Algorithm::PushCancelFlow(PhiMode::Eager), 2);
        let res = dmgs(&v, &g, &cfg);
        let (qs, rs) = gr_linalg::mgs_qr(&v);
        for i in 0..4 {
            for j in 0..4 {
                assert!(
                    (res.r_per_node[0][(i, j)] - rs[(i, j)]).abs() < 1e-10,
                    "R[{i}][{j}]: {} vs {}",
                    res.r_per_node[0][(i, j)],
                    rs[(i, j)]
                );
            }
        }
        for r in 0..8 {
            for c in 0..4 {
                assert!((res.q[(r, c)] - qs[(r, c)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn dmgs_pf_is_less_accurate_than_pcf_at_scale() {
        // Fig. 8 in miniature: same matrix, same budget; PF's reductions
        // stall above the target accuracy so its factorization error is
        // worse than (or at best equal to) PCF's.
        let g = hypercube(8); // 256 nodes — PF's SUM reductions floor above 1e-15 here
        let v = Matrix::random_uniform(256, 8, 3);
        let mut cfg = DmgsConfig::paper(Algorithm::PushFlow, 3);
        cfg.max_rounds_per_reduction = 2000;
        let pf = dmgs(&v, &g, &cfg);
        cfg.algorithm = Algorithm::PushCancelFlow(PhiMode::Eager);
        let pcf = dmgs(&v, &g, &cfg);
        // At 256 nodes the paper's Fig. 8 gap is still modest (it widens
        // with N — the harness sweep shows the trend); require strict
        // ordering plus a sane PCF level here.
        assert!(
            pcf.factorization_error * 1.2 < pf.factorization_error,
            "PCF {:e} vs PF {:e}",
            pcf.factorization_error,
            pf.factorization_error
        );
        assert!(
            pcf.factorization_error < 2e-13,
            "{:e}",
            pcf.factorization_error
        );
        // MGS self-consistency holds for both regardless of reduction
        // accuracy.
        assert!(pf.consistency_error < 1e-14, "{:e}", pf.consistency_error);
        assert!(pcf.consistency_error < 1e-14, "{:e}", pcf.consistency_error);
    }

    #[test]
    fn dmcgs_factors_well_conditioned_input() {
        let g = hypercube(4);
        let v = Matrix::random_uniform(16, 6, 21);
        let cfg = DmgsConfig::paper(Algorithm::PushCancelFlow(PhiMode::Eager), 21);
        let res = dmcgs(&v, &g, &cfg);
        assert!(
            res.factorization_error < 1e-13,
            "{:e}",
            res.factorization_error
        );
        assert!(
            res.orthogonality_error < 1e-11,
            "{:e}",
            res.orthogonality_error
        );
        assert_eq!(res.reductions, 11);
    }

    #[test]
    fn cgs_loses_orthogonality_where_mgs_does_not() {
        // The classical numerics result, through the distributed pipeline:
        // on a nearly-dependent matrix (κ ≈ 1e6), CGS orthogonality
        // degrades ~κ× more than MGS.
        let g = hypercube(4);
        let v = Matrix::random_graded(16, 6, 1e-6, 22);
        let cfg = DmgsConfig::paper(Algorithm::PushCancelFlow(PhiMode::Eager), 22);
        let mgs = dmgs(&v, &g, &cfg);
        let cgs = dmcgs(&v, &g, &cfg);
        assert!(
            cgs.orthogonality_error > mgs.orthogonality_error * 1e3,
            "CGS {:e} should be far worse than MGS {:e}",
            cgs.orthogonality_error,
            mgs.orthogonality_error
        );
        // ... while both still reconstruct V (factorization error is not
        // the discriminating metric — orthogonality is).
        assert!(
            cgs.factorization_error < 1e-9,
            "{:e}",
            cgs.factorization_error
        );
    }

    #[test]
    fn more_rows_than_nodes() {
        let g = hypercube(3); // 8 nodes
        let v = Matrix::random_uniform(37, 5, 4); // 37 rows, cyclic ownership
        let cfg = DmgsConfig::paper(Algorithm::PushCancelFlow(PhiMode::Eager), 4);
        let res = dmgs(&v, &g, &cfg);
        assert!(
            res.factorization_error < 1e-13,
            "{:e}",
            res.factorization_error
        );
    }

    #[test]
    fn per_node_r_copies_differ_but_slightly() {
        let g = hypercube(4);
        let v = Matrix::random_uniform(16, 6, 5);
        let cfg = DmgsConfig::paper(Algorithm::PushCancelFlow(PhiMode::Eager), 5);
        let res = dmgs(&v, &g, &cfg);
        let r0 = &res.r_per_node[0];
        let mut max_dev = 0.0f64;
        for node in 1..16 {
            let rn = &res.r_per_node[node];
            for i in 0..6 {
                for j in 0..6 {
                    max_dev = max_dev.max((r0[(i, j)] - rn[(i, j)]).abs());
                }
            }
        }
        assert!(max_dev > 0.0, "copies should not be bitwise identical");
        assert!(max_dev < 1e-12, "copies should agree to reduction accuracy");
    }

    #[test]
    fn dmgs_push_sum_works_failure_free() {
        let g = hypercube(3);
        let v = Matrix::random_uniform(8, 4, 6);
        let cfg = DmgsConfig::paper(Algorithm::PushSum, 6);
        let res = dmgs(&v, &g, &cfg);
        assert!(
            res.factorization_error < 1e-13,
            "{:e}",
            res.factorization_error
        );
    }

    #[test]
    #[should_panic(expected = "at least one row per node")]
    fn too_few_rows_rejected() {
        let g = hypercube(3);
        let v = Matrix::random_uniform(4, 2, 7);
        let cfg = DmgsConfig::paper(Algorithm::PushSum, 7);
        let _ = dmgs(&v, &g, &cfg);
    }

    #[test]
    #[should_panic(expected = "average-only")]
    fn flow_updating_rejected() {
        let g = hypercube(3);
        let v = Matrix::random_uniform(8, 2, 8);
        let cfg = DmgsConfig::paper(Algorithm::FlowUpdating, 8);
        let _ = dmgs(&v, &g, &cfg);
    }
}

//! Distributed spectral estimation on top of gossip reductions.
//!
//! A second higher-level application in the spirit of the paper's Sec. IV
//! (and of the authors' companion work on distributed eigensolvers for
//! loosely coupled networks): estimate the dominant eigenpair of a
//! symmetric matrix whose sparsity pattern *is* the communication graph —
//! adjacency and Laplacian matrices being the canonical cases. Each node
//! owns one vector component and the matrix entries of its incident
//! edges; one power-iteration step is then
//!
//! 1. a **neighbor-local** mat-vec `y_i = A_ii·x_i + Σ_{j∈N_i} A_ij·x_j`
//!    (one direct exchange with each neighbor — no routing, no gossip
//!    needed), followed by
//! 2. a **global** normalisation `x ← y/‖y‖₂`, whose `‖y‖₂² = Σ y_i²` is
//!    exactly the kind of all-to-all sum the paper's reduction algorithms
//!    provide — and where their fault tolerance and accuracy (PCF vs PF)
//!    is inherited by the eigensolver, just as in dmGS.
//!
//! The self-referential use is worth noting: the *network estimates its
//! own spectral quantities* (spectral radius, Laplacian bounds), which is
//! precisely what tunes gossip parameters like expected convergence time.

use gr_netsim::{FaultPlan, Simulator};
use gr_numerics::CompensatedSum;
use gr_reduction::{with_protocol, Algorithm, InitialData, Normwise, ReductionProtocol};
use gr_topology::{Graph, NodeId};
use rand::prelude::*;

/// A symmetric matrix supported on a graph: per-arc off-diagonal weights
/// (stored symmetrically) plus a diagonal.
#[derive(Clone, Debug)]
pub struct GraphMatrix<'g> {
    graph: &'g Graph,
    /// `weights[arc(i,j)] = A_{i,j}` (mirrored on both arcs).
    weights: Vec<f64>,
    /// `diag[i] = A_{i,i}`.
    diag: Vec<f64>,
}

impl<'g> GraphMatrix<'g> {
    /// The adjacency matrix of the graph (`A_{ij} = 1` on edges).
    pub fn adjacency(graph: &'g Graph) -> Self {
        GraphMatrix {
            graph,
            weights: vec![1.0; graph.arc_count()],
            diag: vec![0.0; graph.len()],
        }
    }

    /// The graph Laplacian `L = D − A`.
    pub fn laplacian(graph: &'g Graph) -> Self {
        let diag = (0..graph.len() as NodeId)
            .map(|i| graph.degree(i) as f64)
            .collect();
        GraphMatrix {
            graph,
            weights: vec![-1.0; graph.arc_count()],
            diag,
        }
    }

    /// A symmetric matrix with seeded random edge weights in `[lo, hi]`
    /// and the given constant diagonal.
    pub fn random_weights(graph: &'g Graph, lo: f64, hi: f64, diag: f64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut weights = vec![0.0; graph.arc_count()];
        for u in 0..graph.len() as NodeId {
            for (slot, &v) in graph.neighbors(u).iter().enumerate() {
                if u < v {
                    let w = lo + rng.random::<f64>() * (hi - lo);
                    weights[graph.arc_base(u) + slot] = w;
                    weights[graph.arc(v, u).expect("adjacency is symmetric")] = w;
                }
            }
        }
        GraphMatrix {
            graph,
            weights,
            diag: vec![diag; graph.len()],
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// Entry `A_{ij}` (0 for non-edges off the diagonal).
    pub fn entry(&self, i: NodeId, j: NodeId) -> f64 {
        if i == j {
            return self.diag[i as usize];
        }
        self.graph.arc(i, j).map_or(0.0, |arc| self.weights[arc])
    }

    /// Dense mat-vec (reference oracle for tests; the distributed path is
    /// [`power_iteration`]).
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let n = self.graph.len();
        assert_eq!(x.len(), n);
        let mut y = vec![0.0; n];
        for i in 0..n as NodeId {
            let mut acc = CompensatedSum::new();
            acc.add(self.diag[i as usize] * x[i as usize]);
            let base = self.graph.arc_base(i);
            for (slot, &j) in self.graph.neighbors(i).iter().enumerate() {
                acc.add(self.weights[base + slot] * x[j as usize]);
            }
            y[i as usize] = acc.value();
        }
        y
    }
}

/// Configuration of the distributed power iteration.
#[derive(Clone, Copy, Debug)]
pub struct PowerConfig {
    /// Which reduction backs the normalisations.
    pub algorithm: Algorithm,
    /// Power-iteration steps.
    pub iterations: u32,
    /// Per-reduction oracle target accuracy.
    pub reduction_accuracy: f64,
    /// Per-reduction round cap. Keep this small (≲100) on strongly
    /// degree-asymmetric topologies: a star leaf halves its gossip weight
    /// every round and is replenished only when the hub happens to pick
    /// it, so its holding shrinks geometrically — and because the flow
    /// algorithms *derive* the holding as `v − ϕ` with `|ϕ| ≈ 1`, a
    /// holding below `ε·|ϕ| ≈ 1e-16` is quantized to garbage (0, one ulp,
    /// or NaN ratios). This is the paper's cancellation phenomenon biting
    /// at the weight level; regular topologies (torus, hypercube) never
    /// get near it.
    pub max_rounds_per_reduction: u64,
    /// Master seed (starting vector + reduction schedules).
    pub seed: u64,
    /// Message-loss probability inside the reductions.
    pub msg_loss_prob: f64,
    /// Diagonal shift `s`: the iteration runs on `A + s·I` and reports
    /// `λ(A + s·I) − s`. Needed when the spectrum is symmetric (bipartite
    /// graphs: hypercubes, stars, even rings have `±λ_max` pairs on which
    /// the unshifted iteration oscillates forever); any `s > 0` breaks the
    /// tie toward the positive end.
    pub shift: f64,
}

impl PowerConfig {
    /// Sensible defaults with the given backing algorithm.
    pub fn new(algorithm: Algorithm, seed: u64) -> Self {
        PowerConfig {
            algorithm,
            iterations: 60,
            reduction_accuracy: 1e-13,
            max_rounds_per_reduction: 4000,
            seed,
            msg_loss_prob: 0.0,
            shift: 0.0,
        }
    }

    /// Defaults plus a diagonal shift (see [`PowerConfig::shift`]).
    pub fn with_shift(algorithm: Algorithm, seed: u64, shift: f64) -> Self {
        PowerConfig {
            shift,
            ..Self::new(algorithm, seed)
        }
    }
}

/// Result of a distributed power iteration.
#[derive(Clone, Debug)]
pub struct SpectralResult {
    /// Rayleigh-quotient estimate of the dominant eigenvalue (from node
    /// 0's reduction estimates; all nodes agree to reduction accuracy).
    pub eigenvalue: f64,
    /// The (normalised) eigenvector estimate, one component per node.
    pub eigenvector: Vec<f64>,
    /// Power-iteration steps executed.
    pub iterations: u32,
    /// Gossip rounds spent across all reductions.
    pub reduction_rounds: u64,
}

/// Estimate the dominant eigenpair of `a` by distributed power iteration.
///
/// # Panics
/// Panics if the iteration degenerates (zero vector — e.g. a starting
/// vector exactly orthogonal to the dominant eigenspace, which the seeded
/// random start makes practically impossible).
pub fn power_iteration(a: &GraphMatrix<'_>, cfg: &PowerConfig) -> SpectralResult {
    let graph = a.graph();
    let n = graph.len();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xE16E);
    let mut x: Vec<f64> = (0..n).map(|_| rng.random::<f64>() - 0.5).collect();
    let mut reduction_rounds = 0u64;
    let mut eigenvalue = 0.0f64;

    for it in 0..cfg.iterations {
        // Neighbor-local mat-vec (direct exchange with each neighbor),
        // with the spectral shift applied locally.
        let mut y = a.matvec(&x);
        if cfg.shift != 0.0 {
            for (yi, xi) in y.iter_mut().zip(&x) {
                *yi += cfg.shift * xi;
            }
        }
        // Distributed normalisation: ‖y‖² and the Rayleigh numerator xᵀy,
        // batched into one 2-component reduction.
        let locals: Vec<Vec<f64>> = (0..n).map(|i| vec![y[i] * y[i], x[i] * y[i]]).collect();
        let (sums, rounds) = vector_sum(graph, locals, cfg, it as u64);
        reduction_rounds += rounds;
        // Every node normalises with ITS OWN estimate of the sums (the
        // same replicated-R structure as dmGS); eigenvalue from node 0.
        eigenvalue = sums[1] - cfg.shift;
        let mut degenerate = true;
        for i in 0..n {
            let norm = sums[2 * i].sqrt();
            assert!(
                norm.is_finite() && norm > 0.0,
                "power iteration degenerated at step {it} (‖y‖² estimate {})",
                sums[2 * i]
            );
            x[i] = y[i] / norm;
            if x[i] != 0.0 {
                degenerate = false;
            }
        }
        assert!(!degenerate, "zero iterate at step {it}");
    }
    SpectralResult {
        eigenvalue,
        eigenvector: x,
        iterations: cfg.iterations,
        reduction_rounds,
    }
}

/// One batched vector SUM reduction (as N·average, like dmGS): every
/// node's estimate, node-major, plus the rounds it took.
fn vector_sum(
    graph: &Graph,
    locals: Vec<Vec<f64>>,
    cfg: &PowerConfig,
    tag: u64,
) -> (Vec<f64>, u64) {
    let n = graph.len();
    let data = InitialData::with_kind(locals, gr_reduction::AggregateKind::Average);
    let seed = cfg.seed ^ (0x51BE_D00D ^ tag).wrapping_mul(0x9E37_79B9);
    let plan = if cfg.msg_loss_prob > 0.0 {
        FaultPlan::with_loss(cfg.msg_loss_prob)
    } else {
        FaultPlan::none()
    };

    // Unlike dmGS, a reduction that reaches its cap returns its last
    // state: a star's starved leaves must surface as a destroyed norm.
    fn drive<Pr: ReductionProtocol>(
        graph: &Graph,
        proto: Pr,
        mut rule: Normwise,
        plan: FaultPlan,
        seed: u64,
        cfg: &PowerConfig,
    ) -> (Vec<f64>, u64) {
        let dim = proto.dim();
        let mut sim = Simulator::new(graph, proto, plan, seed);
        loop {
            sim.run(8);
            let worst = rule.worst(sim.protocol());
            if rule.met(worst) || sim.round() >= cfg.max_rounds_per_reduction {
                let mut out = vec![0.0; graph.len() * dim];
                for (i, row) in out.chunks_exact_mut(dim).enumerate() {
                    sim.protocol().write_estimate(i as NodeId, row);
                }
                return (out, sim.round());
            }
        }
    }

    // FU is the related-work comparator for averages, not a sum backend.
    if cfg.algorithm == Algorithm::FlowUpdating {
        panic!("flow updating cannot back sums")
    }
    let rule = Normwise::new(&data, cfg.reduction_accuracy);
    let (mut estimates, rounds) = with_protocol!(cfg.algorithm, graph, &data, |proto| {
        drive(graph, proto, rule, plan, seed, cfg)
    });
    for x in &mut estimates {
        *x *= n as f64; // average → sum
    }
    (estimates, rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gr_reduction::PhiMode;
    use gr_topology::{complete, hypercube, ring, star};

    fn cfg(seed: u64) -> PowerConfig {
        PowerConfig::new(Algorithm::PushCancelFlow(PhiMode::Eager), seed)
    }

    fn cfg_shifted(seed: u64, shift: f64) -> PowerConfig {
        PowerConfig::with_shift(Algorithm::PushCancelFlow(PhiMode::Eager), seed, shift)
    }

    #[test]
    fn complete_graph_adjacency_spectrum() {
        // K_n adjacency: λ_max = n − 1 exactly, eigenvector all-ones.
        let g = complete(12);
        let a = GraphMatrix::adjacency(&g);
        let r = power_iteration(&a, &cfg(1));
        assert!((r.eigenvalue - 11.0).abs() < 1e-9, "λ = {}", r.eigenvalue);
        let v0 = r.eigenvector[0];
        for &v in &r.eigenvector {
            assert!((v - v0).abs() < 1e-9, "eigenvector should be constant");
        }
    }

    #[test]
    fn hypercube_adjacency_spectral_radius_is_dimension() {
        // The hypercube is bipartite (spectrum ±d …): shift to break the
        // ±λ tie.
        let g = hypercube(4);
        let a = GraphMatrix::adjacency(&g);
        let mut c = cfg_shifted(2, 5.0);
        c.iterations = 150;
        let r = power_iteration(&a, &c);
        assert!((r.eigenvalue - 4.0).abs() < 1e-7, "λ = {}", r.eigenvalue);
    }

    #[test]
    fn complete_bipartite_sqrt_spectrum() {
        // K_{a,b}: λ_max = √(ab); bipartite, so the ±λ pair needs the
        // shift. K_{4,4} is 4-regular — no push-gossip starvation (see
        // `star_topology_starves_push_gossip` for the degenerate case).
        let mut b = gr_topology::GraphBuilder::new(8);
        for i in 0..4u32 {
            for j in 4..8u32 {
                b.add_edge(i, j);
            }
        }
        let g = b.build();
        let a = GraphMatrix::adjacency(&g);
        let mut c = cfg_shifted(3, 5.0);
        c.iterations = 120;
        let r = power_iteration(&a, &c);
        assert!((r.eigenvalue - 4.0).abs() < 1e-7, "λ = {}", r.eigenvalue);
    }

    #[test]
    fn star_topology_starves_push_gossip() {
        // Documented limitation: on a star, an uncontacted leaf's holding
        // halves every round; once it drops below ε·|ϕ| the derived state
        // `v − ϕ` quantizes it to garbage. Long reductions on stars
        // therefore degenerate — the library surfaces this loudly (panic
        // on a destroyed norm estimate) rather than returning junk.
        let g = star(17);
        let a = GraphMatrix::adjacency(&g);
        let mut c = cfg_shifted(3, 5.0);
        c.iterations = 40;
        c.reduction_accuracy = 1e-15; // unreachable -> reductions run to the cap
        c.max_rounds_per_reduction = 4000; // far past the quantization horizon
        let result = std::panic::catch_unwind(|| power_iteration(&a, &c));
        assert!(
            result.is_err(),
            "expected the degenerate-iterate guard to fire on a starved star"
        );
    }

    #[test]
    fn complete_graph_laplacian_eigenvalue_is_n() {
        let g = complete(10);
        let l = GraphMatrix::laplacian(&g);
        let r = power_iteration(&l, &cfg(4));
        assert!((r.eigenvalue - 10.0).abs() < 1e-8, "λ = {}", r.eigenvalue);
    }

    #[test]
    fn ring_laplacian_bounded_by_four() {
        // Ring Laplacian: λ_max = 2 − 2cos(π·(n−1)/n·…) ≤ 4, → 4 as n → ∞.
        let g = ring(32);
        let l = GraphMatrix::laplacian(&g);
        let mut c = cfg(5);
        c.iterations = 400; // close eigenvalues on the ring: slow separation
        let r = power_iteration(&l, &c);
        assert!(r.eigenvalue <= 4.0 + 1e-9);
        assert!(r.eigenvalue > 3.9, "λ = {}", r.eigenvalue);
    }

    #[test]
    fn matvec_matches_dense_definition() {
        let g = hypercube(3);
        let a = GraphMatrix::random_weights(&g, -1.0, 1.0, 0.5, 6);
        // symmetry
        for i in 0..8 {
            for j in 0..8 {
                assert_eq!(a.entry(i, j), a.entry(j, i));
            }
        }
        let x: Vec<f64> = (0..8).map(|i| (i as f64) - 3.5).collect();
        let y = a.matvec(&x);
        for i in 0..8u32 {
            let mut want = 0.0;
            for j in 0..8u32 {
                want += a.entry(i, j) * x[j as usize];
            }
            assert!((y[i as usize] - want).abs() < 1e-12);
        }
    }

    #[test]
    fn pf_backed_iteration_agrees_with_pcf() {
        let g = hypercube(4);
        let a = GraphMatrix::random_weights(&g, 0.1, 1.0, 1.0, 7);
        let pcf = power_iteration(&a, &cfg(7));
        let mut c = cfg(7);
        c.algorithm = Algorithm::PushFlow;
        let pf = power_iteration(&a, &c);
        assert!(
            (pcf.eigenvalue - pf.eigenvalue).abs() < 1e-6 * pcf.eigenvalue.abs(),
            "{} vs {}",
            pcf.eigenvalue,
            pf.eigenvalue
        );
    }

    #[test]
    fn survives_message_loss() {
        let g = complete(12);
        let a = GraphMatrix::adjacency(&g);
        let mut c = cfg(8);
        c.msg_loss_prob = 0.2;
        let r = power_iteration(&a, &c);
        assert!((r.eigenvalue - 11.0).abs() < 1e-8, "λ = {}", r.eigenvalue);
    }
}

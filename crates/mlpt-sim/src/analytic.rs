//! Exact MDA failure probability.
//!
//! "For any given multipath route between source and destination, one can
//! calculate the precise probability of the MDA failing to detect the
//! entire topology. This calculation is a simple application of the MDA's
//! stopping rule with the chosen stopping points, the values n_k"
//! (Sec. 3). This module performs that calculation exactly:
//!
//! * [`vertex_failure_probability`] — dynamic program over the probing
//!   process at one vertex with `K` uniform successors: the probability
//!   that the stopping rule fires before all `K` are seen.
//! * [`mda_failure_probability`] — combines the per-vertex probabilities
//!   over a whole topology (independent load balancers, assumption 5).
//!
//! For the simplest diamond (one vertex with K = 2) under the 95 %
//! stopping points (n₁ = 6), this reproduces the paper's analytic value
//! `(1/2)^(n₁ - 1) = 0.03125`.

use mlpt_topo::MultipathTopology;

/// Probability that the MDA stopping rule terminates before discovering
/// all `k_successors` successors of a vertex, assuming uniform-at-random
/// balancing over them.
///
/// `nks[k - 1]` is the stopping point n_k: with `k` successors known,
/// probing the hop stops once `nks[k - 1]` probes have been sent without a
/// new discovery.
///
/// # Panics
/// Panics if `nks` is shorter than `k_successors` (Fakeroute requires "a
/// number of values n_k that is at least equal to the highest branching
/// factor encountered in the topology") or if the table is not
/// monotonically non-decreasing.
pub fn vertex_failure_probability(k_successors: usize, nks: &[u64]) -> f64 {
    assert!(k_successors >= 1, "a vertex has at least one successor");
    assert!(
        nks.len() >= k_successors,
        "need n_k values up to k = {k_successors}, got {}",
        nks.len()
    );
    assert!(
        nks.windows(2).all(|w| w[0] <= w[1]),
        "stopping points must be non-decreasing"
    );
    let k = k_successors;
    if k == 1 {
        // The single successor is found by the first probe; ruling out a
        // second cannot fail.
        return 0.0;
    }

    let n = |j: usize| nks[j - 1]; // stopping point with j found

    // State: after t probes, j distinct successors seen, not yet stopped.
    // Start: first probe always discovers one successor.
    let mut alive = vec![0.0f64; k + 1];
    alive[1] = 1.0;
    let mut t: u64 = 1;
    let mut failure = 0.0f64;

    // The process cannot outlive n_k probes.
    while t < n(k) {
        // Terminate states whose stopping point equals the current count.
        #[expect(
            clippy::needless_range_loop,
            reason = "`j` is both the state index and `n`'s argument"
        )]
        for j in 1..k {
            if t >= n(j) && alive[j] > 0.0 {
                failure += alive[j];
                alive[j] = 0.0;
            }
        }
        // j == k is success; that mass can be retired too.
        if alive[k] > 0.0 {
            alive[k] = 0.0;
        }

        // One more probe for every still-alive state.
        let mut next = vec![0.0f64; k + 1];
        for j in 1..k {
            let p = alive[j];
            if p == 0.0 {
                continue;
            }
            let p_new = (k - j) as f64 / k as f64;
            next[j + 1] += p * p_new;
            next[j] += p * (1.0 - p_new);
        }
        alive = next;
        t += 1;
    }
    // Any mass still alive with j < k fails at n_k.
    failure += alive[1..k].iter().sum::<f64>();
    failure
}

/// Probability that the MDA fails to discover the complete topology:
/// one minus the product of per-vertex success probabilities over every
/// vertex that has successors.
pub fn mda_failure_probability(topology: &MultipathTopology, nks: &[u64]) -> f64 {
    let mut success = 1.0f64;
    for i in 0..topology.num_hops() - 1 {
        for &v in topology.hop(i) {
            let k = topology.out_degree(i, v);
            success *= 1.0 - vertex_failure_probability(k, nks);
        }
    }
    1.0 - success
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpt_topo::canonical;

    /// The classic 95 % stopping points (inclusion–exclusion rule at
    /// α = 0.05): 6, 11, 16, 21, 27, 33, …
    const NK95: &[u64] = &[6, 11, 16, 21, 27, 33, 38, 44, 51, 57];

    #[test]
    fn single_successor_never_fails() {
        assert_eq!(vertex_failure_probability(1, NK95), 0.0);
    }

    #[test]
    fn two_successors_closed_form() {
        // P(fail) = (1/2)^(n1 - 1): the remaining n1-1 probes all land on
        // the successor already seen.
        let p = vertex_failure_probability(2, NK95);
        assert!((p - 0.03125).abs() < 1e-12, "got {p}");
    }

    #[test]
    fn failure_stays_near_alpha() {
        // Each stage of the stopping rule (ruling out a (j+1)-th successor
        // when it exists) is individually bounded by α = 0.05, but the full
        // discovery process compounds the stages, so the total per-vertex
        // failure probability can slightly exceed α at high branching
        // factors. It must stay in the same regime, far below 2α.
        for k in 2..=10 {
            let p = vertex_failure_probability(k, NK95);
            assert!(p < 0.08, "k={k}: failure {p} far exceeds bound regime");
            assert!(p > 0.0);
        }
        // The dominant simple cases stay under α itself.
        assert!(vertex_failure_probability(2, NK95) < 0.05);
        assert!(vertex_failure_probability(3, NK95) < 0.05);
    }

    #[test]
    fn failure_increases_with_branching() {
        // Wider fan-outs are harder to fully discover (with this table).
        let p2 = vertex_failure_probability(2, NK95);
        let p6 = vertex_failure_probability(6, NK95);
        assert!(p6 > p2, "p2={p2} p6={p6}");
    }

    #[test]
    fn simplest_diamond_matches_paper() {
        // "the real failure probability of the topology, which is 0.03125,
        // given the set of nk values used by the MDA for a failure
        // probability of 0.05" (Sec. 3).
        let t = canonical::simplest_diamond();
        let p = mda_failure_probability(&t, NK95);
        assert!((p - 0.03125).abs() < 1e-12, "got {p}");
    }

    #[test]
    fn linear_path_never_fails() {
        let mut b = MultipathTopology::builder();
        b.add_hop([mlpt_topo::graph::addr(0, 0)]);
        b.add_hop([mlpt_topo::graph::addr(1, 0)]);
        b.add_hop([mlpt_topo::graph::addr(2, 0)]);
        b.connect_unmeshed(0);
        b.connect_unmeshed(1);
        let t = b.build().unwrap();
        assert_eq!(mda_failure_probability(&t, NK95), 0.0);
    }

    use mlpt_topo::MultipathTopology;

    #[test]
    fn fig1_unmeshed_probability() {
        // Divergence has K=4; hop-2 vertices each K=1; hop-3 each K=1.
        // Failure = P(vertex with 4 successors not fully discovered).
        let t = canonical::fig1_unmeshed();
        let p = mda_failure_probability(&t, NK95);
        let pv = vertex_failure_probability(4, NK95);
        assert!((p - pv).abs() < 1e-12);
    }

    #[test]
    fn fig1_meshed_probability_compounds() {
        // Meshed: divergence K=4 plus four vertices with K=2 each.
        let t = canonical::fig1_meshed();
        let p = mda_failure_probability(&t, NK95);
        let pv4 = vertex_failure_probability(4, NK95);
        let pv2 = vertex_failure_probability(2, NK95);
        let expected = 1.0 - (1.0 - pv4) * (1.0 - pv2).powi(4);
        assert!((p - expected).abs() < 1e-12);
    }

    #[test]
    fn monte_carlo_agrees_with_dp() {
        // Simulate the stopping process directly and compare to the DP.
        use rand::Rng;
        use rand::SeedableRng;
        let k = 3usize;
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let trials = 200_000;
        let mut failures = 0u64;
        for _ in 0..trials {
            let mut seen = vec![false; k];
            let mut distinct = 0usize;
            let mut t = 0u64;
            loop {
                t += 1;
                let choice = rng.gen_range(0..k);
                if !seen[choice] {
                    seen[choice] = true;
                    distinct += 1;
                }
                if distinct == k {
                    break; // success
                }
                if t >= NK95[distinct - 1] {
                    failures += 1;
                    break;
                }
            }
        }
        let empirical = failures as f64 / trials as f64;
        let dp = vertex_failure_probability(k, NK95);
        assert!(
            (empirical - dp).abs() < 0.002,
            "empirical {empirical} vs dp {dp}"
        );
    }

    #[test]
    #[should_panic(expected = "need n_k values")]
    fn short_table_rejected() {
        let _ = vertex_failure_probability(4, &[6, 11]);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn non_monotone_table_rejected() {
        let _ = vertex_failure_probability(2, &[6, 5]);
    }
}

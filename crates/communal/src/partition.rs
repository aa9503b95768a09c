//! Balanced partitioning of workloads onto cores (paper §5.5).
//!
//! When jobs run concurrently and stall for their assigned core, the
//! paper notes the assignment problem resembles *Balanced Partitioning
//! of Minimum Spanning Trees* (BPMST): minimize the slowdown of each
//! workload on its assigned core while keeping the aggregate importance
//! weight per core balanced, so no core becomes a hot spot. This
//! module implements that assignment as a greedy construction plus a
//! local-search refinement — the practical analogue of the BPMST
//! heuristics the paper cites.

use crate::matrix::CrossPerfMatrix;
use serde::{Deserialize, Serialize};

/// A balanced assignment of workloads to cores.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BalancedPartition {
    /// For each workload (matrix order), the assigned core
    /// (architecture index; always one of the requested cores).
    pub assignment: Vec<usize>,
    /// Aggregate importance weight per requested core, in the order
    /// the cores were given.
    pub load: Vec<f64>,
    /// Mean fractional slowdown of workloads on their assigned cores.
    pub average_slowdown: f64,
    /// Largest-to-smallest core load ratio (1.0 = perfectly balanced).
    pub imbalance: f64,
}

fn imbalance_of(load: &[f64]) -> f64 {
    let max = load.iter().cloned().fold(f64::MIN, f64::max);
    let min = load.iter().cloned().fold(f64::MAX, f64::min);
    if min <= 0.0 {
        f64::INFINITY
    } else {
        max / min
    }
}

/// Assign every workload of `m` to one of `cores`, minimizing the
/// weighted sum of slowdowns subject to a load-balance cap: no core's
/// aggregate weight may exceed `tolerance ×` the ideal equal share.
///
/// The construction is greedy (workloads in decreasing weight, each to
/// the least-slowdown core with remaining headroom, falling back to
/// the least-loaded core when none has headroom), followed by
/// single-move local search that accepts any move reducing total
/// weighted slowdown without violating the cap.
///
/// # Panics
///
/// Panics if `cores` is empty or contains an out-of-range index, or if
/// `tolerance < 1.0`.
pub fn balanced_partition(
    m: &CrossPerfMatrix,
    cores: &[usize],
    tolerance: f64,
) -> BalancedPartition {
    assert!(!cores.is_empty(), "need at least one core");
    assert!(
        cores.iter().all(|&c| c < m.len()),
        "core index out of range"
    );
    assert!(tolerance >= 1.0, "tolerance must be at least 1.0");
    let _pass = xps_trace::span("communal.partition");
    let n = m.len();
    let weights = m.weights();
    let total: f64 = weights.iter().sum();
    let cap = tolerance * total / cores.len() as f64;

    // Greedy construction, heaviest workloads first.
    let mut order: Vec<usize> = (0..n).collect();
    #[expect(
        clippy::expect_used,
        reason = "matrix weights are validated finite and positive at construction"
    )]
    order.sort_by(|&a, &b| {
        weights[b]
            .partial_cmp(&weights[a])
            .expect("weights are finite")
    });
    let mut slot_of = vec![0usize; n];
    let mut load = vec![0.0f64; cores.len()];
    for &w in &order {
        let mut best: Option<(usize, f64)> = None;
        for (slot, &core) in cores.iter().enumerate() {
            if load[slot] + weights[w] > cap {
                continue;
            }
            let s = m.slowdown(w, core);
            if best.map(|(_, bs)| s < bs).unwrap_or(true) {
                best = Some((slot, s));
            }
        }
        let slot = match best {
            Some((slot, _)) => slot,
            None => {
                // No core has headroom: take the least loaded.
                #[expect(
                    clippy::expect_used,
                    reason = "loads are sums of validated finite weights; callers pass at least one core; the min over a non-empty range exists"
                )]
                (0..cores.len())
                    .min_by(|&a, &b| load[a].partial_cmp(&load[b]).expect("loads are finite"))
                    .expect("cores is non-empty")
            }
        };
        slot_of[w] = slot;
        load[slot] += weights[w];
    }

    // Local search: single-workload moves that reduce total weighted
    // slowdown without breaking the cap.
    let cost = |w: usize, slot: usize| weights[w] * m.slowdown(w, cores[slot]);
    let mut improved = true;
    while improved {
        improved = false;
        for w in 0..n {
            let cur = slot_of[w];
            for alt in 0..cores.len() {
                if alt == cur {
                    continue;
                }
                if load[alt] + weights[w] > cap {
                    continue;
                }
                if cost(w, alt) + 1e-15 < cost(w, cur) {
                    load[cur] -= weights[w];
                    load[alt] += weights[w];
                    slot_of[w] = alt;
                    improved = true;
                    break;
                }
            }
        }
    }

    let assignment: Vec<usize> = slot_of.iter().map(|&s| cores[s]).collect();
    let average_slowdown = (0..n).map(|w| m.slowdown(w, assignment[w])).sum::<f64>() / n as f64;
    BalancedPartition {
        assignment,
        imbalance: imbalance_of(&load),
        load,
        average_slowdown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> CrossPerfMatrix {
        CrossPerfMatrix::new(
            vec!["a".into(), "b".into(), "c".into(), "d".into()],
            vec![
                vec![2.0, 1.8, 0.5, 0.5],
                vec![1.8, 2.0, 0.5, 0.5],
                vec![0.5, 0.5, 2.0, 1.8],
                vec![0.5, 0.5, 1.8, 2.0],
            ],
        )
        .expect("valid")
    }

    #[test]
    fn natural_split_respected() {
        // Cores a and c: workloads {a, b} belong on a, {c, d} on c.
        let p = balanced_partition(&m(), &[0, 2], 1.01);
        assert_eq!(p.assignment, vec![0, 0, 2, 2]);
        assert!((p.imbalance - 1.0).abs() < 1e-12);
        assert!(p.average_slowdown < 0.06);
    }

    #[test]
    fn cap_forces_spreading() {
        // All four workloads prefer core a, but a tolerance of 1.0
        // forces two onto core c.
        let pref_a = CrossPerfMatrix::new(
            vec!["a".into(), "b".into(), "c".into(), "d".into()],
            vec![
                vec![2.0, 1.0, 1.0, 1.0],
                vec![1.9, 2.0, 1.0, 1.0],
                vec![1.9, 1.0, 2.0, 1.0],
                vec![1.9, 1.0, 1.0, 2.0],
            ],
        )
        .expect("valid");
        let p = balanced_partition(&pref_a, &[0, 2], 1.0);
        let on_a = p.assignment.iter().filter(|&&c| c == 0).count();
        assert_eq!(on_a, 2, "cap must split the load: {:?}", p.assignment);
        assert!((p.imbalance - 1.0).abs() < 1e-12);
    }

    #[test]
    fn loose_tolerance_minimizes_slowdown() {
        let p_tight = balanced_partition(&m(), &[0, 2], 1.0);
        let p_loose = balanced_partition(&m(), &[0, 2], 4.0);
        assert!(p_loose.average_slowdown <= p_tight.average_slowdown + 1e-12);
    }

    #[test]
    fn weights_shift_balance() {
        let mm = m().with_weights(vec![3.0, 1.0, 1.0, 1.0]).expect("valid");
        let p = balanced_partition(&mm, &[0, 2], 1.5);
        // Workload a (weight 3) sits alone near its cap; the rest
        // crowd the other core.
        assert_eq!(p.assignment[0], 0);
        let share_a: f64 = p.load[0];
        assert!(share_a <= 1.5 * 6.0 / 2.0 + 1e-12);
    }

    #[test]
    fn single_core_trivial() {
        let p = balanced_partition(&m(), &[1], 1.0);
        assert!(p.assignment.iter().all(|&c| c == 1));
        assert!((p.imbalance - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "tolerance")]
    fn bad_tolerance_panics() {
        balanced_partition(&m(), &[0], 0.5);
    }
}

//! Greedy surrogate assignment (paper §5.4, Figures 5–8).
//!
//! A *surrogate* assignment gives workload `w` the customized
//! architecture of another workload `h` (an edge `h → w` in the
//! surrogating graph). The greedy procedure repeatedly commits the
//! legal link with the smallest cross-configuration slowdown. What is
//! *legal* depends on the propagation policy:
//!
//! * [`Propagation::None`] — a workload that hosts dependents may not
//!   itself be surrogated, and a surrogated workload's architecture may
//!   not host others. Assignment stalls once only mutually-unsuitable
//!   workloads remain.
//! * [`Propagation::Forward`] — a host may later be surrogated itself
//!   (its dependents follow), but a surrogated workload's architecture
//!   never hosts.
//! * [`Propagation::ForwardBackward`] — both relaxations; this is the
//!   only mode in which *feedback surrogating* can arise (two
//!   workloads surrogating each other, closing a cycle that stops
//!   further reduction — the paper observes it for gzip↔parser and
//!   twolf↔vpr).

use crate::matrix::CrossPerfMatrix;
use serde::{Deserialize, Serialize};

/// Propagation policy for greedy surrogate assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Propagation {
    /// No propagation: hosts stay hosts, dependents stay leaves.
    None,
    /// Forward propagation only.
    Forward,
    /// Forward and backward propagation.
    ForwardBackward,
}

/// One committed surrogate link: `dependent` runs on (the effective
/// architecture of) `host`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SurrogateEdge {
    /// The workload whose architecture is adopted.
    pub host: usize,
    /// The workload giving up its own architecture.
    pub dependent: usize,
    /// 1-based assignment order (the edge labels of Figures 6–8).
    pub order: u32,
    /// The cross-configuration slowdown that motivated the link.
    pub slowdown: f64,
}

/// The outcome of a greedy surrogate assignment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Surrogating {
    /// Committed links in assignment order.
    pub edges: Vec<SurrogateEdge>,
    /// Effective architecture of each workload (index into the
    /// matrix).
    pub assignment: Vec<usize>,
    /// The distinct architectures that survive (sorted ascending).
    pub final_architectures: Vec<usize>,
    /// Pairs that ended up surrogating each other (feedback
    /// surrogating); empty unless both propagation directions are
    /// allowed.
    pub feedback_pairs: Vec<(usize, usize)>,
}

impl Surrogating {
    /// Weighted harmonic-mean IPT under the fixed (surrogate-chosen)
    /// assignment — unlike [`crate::Merit`], workloads do not get to
    /// pick their best core; they run where the greedy put them.
    pub fn harmonic_ipt(&self, m: &CrossPerfMatrix) -> f64 {
        let wsum: f64 = m.weights().iter().sum();
        wsum / self
            .assignment
            .iter()
            .enumerate()
            .map(|(w, &c)| m.weights()[w] / m.ipt(w, c))
            .sum::<f64>()
    }

    /// Weighted average IPT under the fixed assignment.
    pub fn average_ipt(&self, m: &CrossPerfMatrix) -> f64 {
        let wsum: f64 = m.weights().iter().sum();
        self.assignment
            .iter()
            .enumerate()
            .map(|(w, &c)| m.weights()[w] * m.ipt(w, c))
            .sum::<f64>()
            / wsum
    }

    /// Mean per-benchmark slowdown (fractional) versus each workload's
    /// own architecture — the "average slowdown across all benchmarks
    /// compared to the ideal case" of §5.4.1.
    pub fn average_slowdown(&self, m: &CrossPerfMatrix) -> f64 {
        self.assignment
            .iter()
            .enumerate()
            .map(|(w, &c)| m.slowdown(w, c))
            .sum::<f64>()
            / m.len() as f64
    }

    /// Members of each surviving architecture's group, keyed in
    /// `final_architectures` order.
    pub fn groups(&self) -> Vec<(usize, Vec<usize>)> {
        self.final_architectures
            .iter()
            .map(|&root| {
                let members = self
                    .assignment
                    .iter()
                    .enumerate()
                    .filter(|&(_, &c)| c == root)
                    .map(|(w, _)| w)
                    .collect();
                (root, members)
            })
            .collect()
    }
}

/// Resolve the effective architecture of `w` by following parents;
/// cycles resolve to the host of the latest-order edge inside the
/// cycle (the paper's Figure 7 heads).
fn resolve(w: usize, parent: &[Option<usize>], edge_order: &[Option<u32>]) -> usize {
    let mut seen = vec![false; parent.len()];
    let mut cur = w;
    loop {
        if seen[cur] {
            // Cycle: find its member whose *incoming* edge (as host)
            // has the highest order — i.e. the latest edge points at
            // the head.
            let mut cycle = Vec::new();
            let mut c = cur;
            #[expect(
                clippy::expect_used,
                reason = "a cycle in the preference graph means every member has a parent edge"
            )]
            loop {
                cycle.push(c);
                c = parent[c].expect("cycle members all have parents");
                if c == cur {
                    break;
                }
            }
            // The head is the parent (host) named by the
            // highest-order edge among cycle members.
            #[expect(
                clippy::expect_used,
                reason = "cycle membership implies the node's edge was recorded with an order; a detected cycle contains at least its entry node"
            )]
            let latest = cycle
                .iter()
                .max_by_key(|&&x| edge_order[x].expect("cycle members have edges"))
                .copied()
                .expect("cycle is non-empty");
            #[expect(
                clippy::expect_used,
                reason = "a cycle in the preference graph means every member has a parent edge"
            )]
            return parent[latest].expect("cycle member has a parent");
        }
        seen[cur] = true;
        match parent[cur] {
            Some(p) => cur = p,
            None => return cur,
        }
    }
}

/// Run the greedy surrogate assignment over the slowdown matrix of
/// `m`, stopping when the number of surviving architectures reaches
/// `target` (or when no legal link remains).
///
/// # Panics
///
/// Panics if `target` is zero or exceeds the matrix size.
pub fn assign_surrogates(m: &CrossPerfMatrix, mode: Propagation, target: usize) -> Surrogating {
    let n = m.len();
    assert!((1..=n).contains(&target), "target must be in 1..=n");
    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut edge_order: Vec<Option<u32>> = vec![None; n];
    let mut children = vec![0u32; n];
    let mut edges = Vec::new();
    let mut order = 0u32;

    loop {
        let assignment: Vec<usize> = (0..n).map(|w| resolve(w, &parent, &edge_order)).collect();
        let mut roots: Vec<usize> = assignment.clone();
        roots.sort_unstable();
        roots.dedup();
        if roots.len() <= target {
            break;
        }
        // Find the legal link with the minimum importance-weighted
        // slowdown (§5.4: "the slowdowns due to surrogating must be
        // weighed by the importance weight of corresponding
        // workloads"; with the paper's equal weights this reduces to
        // the raw slowdown).
        let mut best: Option<(usize, usize, f64, f64)> = None;
        for w in 0..n {
            if parent[w].is_some() {
                continue;
            }
            if mode == Propagation::None && children[w] > 0 {
                continue;
            }
            #[allow(
                clippy::needless_range_loop,
                reason = "indexes several parallel structures (parent, matrix) by host id; an iterator chain would hide the pairing"
            )]
            for h in 0..n {
                if h == w {
                    continue;
                }
                if mode != Propagation::ForwardBackward && parent[h].is_some() {
                    continue;
                }
                let s = m.slowdown(w, h);
                let cost = m.weights()[w] * s;
                if best.map(|(_, _, _, bc)| cost < bc).unwrap_or(true) {
                    best = Some((w, h, s, cost));
                }
            }
        }
        let best = best.map(|(w, h, s, _)| (w, h, s));
        let Some((w, h, s)) = best else { break };
        order += 1;
        parent[w] = Some(h);
        edge_order[w] = Some(order);
        children[h] += 1;
        edges.push(SurrogateEdge {
            host: h,
            dependent: w,
            order,
            slowdown: s,
        });
    }

    let assignment: Vec<usize> = (0..n).map(|w| resolve(w, &parent, &edge_order)).collect();
    let mut final_architectures: Vec<usize> = assignment.clone();
    final_architectures.sort_unstable();
    final_architectures.dedup();
    // Feedback pairs: two workloads that are each other's parent.
    let mut feedback_pairs = Vec::new();
    for w in 0..n {
        if let Some(p) = parent[w] {
            if p > w && parent[p] == Some(w) {
                feedback_pairs.push((w, p));
            }
        }
    }
    Surrogating {
        edges,
        assignment,
        final_architectures,
        feedback_pairs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Four workloads: a and b are near-twins, c is a generalist, d is
    /// an outlier that only its own architecture serves well.
    fn m() -> CrossPerfMatrix {
        CrossPerfMatrix::new(
            vec!["a".into(), "b".into(), "c".into(), "d".into()],
            vec![
                vec![2.00, 1.95, 1.60, 0.90],
                vec![1.90, 2.00, 1.50, 0.80],
                vec![1.20, 1.10, 2.00, 0.70],
                vec![0.40, 0.30, 0.50, 1.00],
            ],
        )
        .expect("valid")
    }

    #[test]
    fn greedy_picks_smallest_slowdown_first() {
        let s = assign_surrogates(&m(), Propagation::None, 1);
        // Smallest slowdown is a on b's arch: 1 - 1.95/2.00 = 2.5%.
        assert_eq!(s.edges[0].dependent, 0);
        assert_eq!(s.edges[0].host, 1);
        assert!((s.edges[0].slowdown - 0.025).abs() < 1e-12);
    }

    #[test]
    fn no_propagation_blocks_hosts_and_dependents() {
        let s = assign_surrogates(&m(), Propagation::None, 1);
        for e in &s.edges {
            // A dependent never appears as a host and vice versa.
            assert!(
                !s.edges.iter().any(|other| other.host == e.dependent),
                "dependent {} must not host",
                e.dependent
            );
        }
    }

    #[test]
    fn assignment_respects_edges() {
        let s = assign_surrogates(&m(), Propagation::Forward, 2);
        for e in &s.edges {
            // The dependent's effective architecture is its host's
            // effective architecture.
            assert_eq!(s.assignment[e.dependent], s.assignment[e.host]);
        }
        assert_eq!(s.final_architectures.len(), 2);
    }

    #[test]
    fn forward_backward_can_feedback() {
        // With two near-twins, full propagation pairs them both ways.
        let s = assign_surrogates(&m(), Propagation::ForwardBackward, 1);
        // a↔b is a plausible feedback pair; at minimum the machinery
        // must terminate and produce a consistent assignment.
        assert_eq!(s.assignment.len(), 4);
        for &arch in &s.assignment {
            assert!(s.final_architectures.contains(&arch));
        }
    }

    #[test]
    fn fixed_assignment_metrics() {
        let s = assign_surrogates(&m(), Propagation::None, 1);
        let mm = m();
        let har = s.harmonic_ipt(&mm);
        let avg = s.average_ipt(&mm);
        assert!(har > 0.0 && avg >= har);
        assert!(s.average_slowdown(&mm) >= 0.0);
    }

    #[test]
    fn groups_partition_workloads() {
        let mm = m();
        for mode in [
            Propagation::None,
            Propagation::Forward,
            Propagation::ForwardBackward,
        ] {
            let s = assign_surrogates(&mm, mode, 2);
            let total: usize = s.groups().iter().map(|(_, g)| g.len()).sum();
            assert_eq!(total, mm.len(), "{mode:?} groups must partition");
        }
    }

    #[test]
    fn importance_weights_steer_the_greedy() {
        // Give workload d (the outlier) an enormous weight: its links
        // become so costly that it survives as its own architecture
        // even under full propagation to two survivors.
        let mm = m()
            .with_weights(vec![1.0, 1.0, 1.0, 100.0])
            .expect("valid weights");
        let s = assign_surrogates(&mm, Propagation::Forward, 2);
        assert!(
            s.final_architectures.contains(&3),
            "heavily weighted d must keep its core: {:?}",
            s.final_architectures
        );
    }

    #[test]
    fn target_one_single_architecture_with_forward() {
        let s = assign_surrogates(&m(), Propagation::Forward, 1);
        assert_eq!(s.final_architectures.len(), 1);
    }

    #[test]
    #[should_panic(expected = "target must be in 1..=n")]
    fn zero_target_panics() {
        assign_surrogates(&m(), Propagation::None, 0);
    }
}

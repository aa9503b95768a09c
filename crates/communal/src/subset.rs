//! Classic workload subsetting and the §5.3 representative-benchmark
//! pitfall.
//!
//! Subsetting picks "representative" workloads by similarity of raw
//! (microarchitecture-independent) characteristics — small Euclidean
//! distance in the normalized characteristic space. The paper's §5.3
//! shows the danger: bzip and gzip, widely reported as similar, have
//! sharply different customized architectures, and dropping one of
//! them from the exploration changes which heterogeneous-CMP core pair
//! a complete search selects, costing performance on the full set.

use crate::combin::best_combination;
use crate::matrix::CrossPerfMatrix;
use crate::metrics::Merit;
use serde::{Deserialize, Serialize};

/// One cluster of workload indices.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cluster {
    /// Member indices (into the original point list), ascending.
    pub members: Vec<usize>,
}

/// Index of the nearest other point to `i` under Euclidean distance.
///
/// # Panics
///
/// Panics if there are fewer than two points or dimensions differ.
pub fn nearest_neighbor(points: &[Vec<f64>], i: usize) -> usize {
    assert!(points.len() >= 2, "need at least two points");
    let mut best = usize::MAX;
    let mut best_d = f64::INFINITY;
    for (j, p) in points.iter().enumerate() {
        if j == i {
            continue;
        }
        let d = euclid(&points[i], p);
        if d < best_d {
            best_d = d;
            best = j;
        }
    }
    best
}

fn euclid(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// Agglomerative (average-linkage) clustering of the characteristic
/// vectors down to `k` clusters — the dendrogram-style grouping used
/// by subsetting studies.
///
/// # Panics
///
/// Panics if `k` is zero or exceeds the number of points.
pub fn cluster(points: &[Vec<f64>], k: usize) -> Vec<Cluster> {
    let n = points.len();
    assert!((1..=n).contains(&k), "k must be in 1..=n");
    let mut clusters: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
    while clusters.len() > k {
        // Find the pair with minimum average inter-cluster distance.
        let (mut bi, mut bj, mut bd) = (0, 1, f64::INFINITY);
        for i in 0..clusters.len() {
            for j in i + 1..clusters.len() {
                let mut sum = 0.0;
                for &a in &clusters[i] {
                    for &b in &clusters[j] {
                        sum += euclid(&points[a], &points[b]);
                    }
                }
                let d = sum / (clusters[i].len() * clusters[j].len()) as f64;
                if d < bd {
                    bd = d;
                    bi = i;
                    bj = j;
                }
            }
        }
        let merged = clusters.remove(bj);
        clusters[bi].extend(merged);
        clusters[bi].sort_unstable();
    }
    clusters.sort_by_key(|c| c[0]);
    clusters
        .into_iter()
        .map(|members| Cluster { members })
        .collect()
}

/// One merge step of an agglomerative clustering.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Merge {
    /// Members of the first merged cluster (ascending).
    pub left: Vec<usize>,
    /// Members of the second merged cluster (ascending).
    pub right: Vec<usize>,
    /// Average-linkage distance at which the merge happened.
    pub distance: f64,
}

/// A full agglomerative clustering history — the *dendrogram* the
/// paper calls "customary in displaying subsetting properties"
/// (§5.4), and contrasts with its surrogating graphs: dendrogram
/// merges are symmetric and final, while surrogate assignment is
/// directed and can prefer a different partner at every level.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dendrogram {
    /// Merges in the order they occurred (non-decreasing distance for
    /// average linkage on a metric space, in practice).
    pub merges: Vec<Merge>,
    n: usize,
}

impl Dendrogram {
    /// The clustering at `k` clusters: replay all but the last `k - 1`
    /// merges.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or exceeds the number of points.
    pub fn cut(&self, k: usize) -> Vec<Cluster> {
        assert!((1..=self.n).contains(&k), "k must be in 1..=n");
        let mut clusters: Vec<Vec<usize>> = (0..self.n).map(|i| vec![i]).collect();
        for merge in &self.merges[..self.n - k] {
            #[expect(
                clippy::expect_used,
                reason = "merge records name clusters produced by the same deterministic agglomeration being replayed"
            )]
            let li = clusters
                .iter()
                .position(|c| c == &merge.left)
                .expect("replay is consistent");
            let l = clusters.remove(li);
            #[expect(
                clippy::expect_used,
                reason = "merge records name clusters produced by the same deterministic agglomeration being replayed"
            )]
            let ri = clusters
                .iter()
                .position(|c| c == &merge.right)
                .expect("replay is consistent");
            let mut r = clusters.remove(ri);
            let mut merged = l;
            merged.append(&mut r);
            merged.sort_unstable();
            clusters.push(merged);
        }
        clusters.sort_by_key(|c| c[0]);
        clusters
            .into_iter()
            .map(|members| Cluster { members })
            .collect()
    }

    /// Render the merge history as indented text, one line per merge.
    pub fn render(&self, names: &[String]) -> String {
        let mut out = String::new();
        let fmt = |members: &[usize]| -> String {
            members
                .iter()
                .map(|&i| names[i].as_str())
                .collect::<Vec<_>>()
                .join("+")
        };
        for (step, m) in self.merges.iter().enumerate() {
            out.push_str(&format!(
                "  {:2}. d={:5.2}  {{{}}} + {{{}}}\n",
                step + 1,
                m.distance,
                fmt(&m.left),
                fmt(&m.right)
            ));
        }
        out
    }
}

/// Build the full dendrogram (average linkage) of the points.
///
/// # Panics
///
/// Panics if fewer than two points are given.
pub fn dendrogram(points: &[Vec<f64>]) -> Dendrogram {
    let n = points.len();
    assert!(n >= 2, "need at least two points");
    let mut clusters: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
    let mut merges = Vec::with_capacity(n - 1);
    while clusters.len() > 1 {
        let (mut bi, mut bj, mut bd) = (0, 1, f64::INFINITY);
        for i in 0..clusters.len() {
            for j in i + 1..clusters.len() {
                let mut sum = 0.0;
                for &a in &clusters[i] {
                    for &b in &clusters[j] {
                        sum += euclid(&points[a], &points[b]);
                    }
                }
                let d = sum / (clusters[i].len() * clusters[j].len()) as f64;
                if d < bd {
                    bd = d;
                    bi = i;
                    bj = j;
                }
            }
        }
        let right = clusters.remove(bj);
        let left = clusters[bi].clone();
        merges.push(Merge {
            left: left.clone(),
            right: right.clone(),
            distance: bd,
        });
        let merged = &mut clusters[bi];
        merged.extend(right);
        merged.sort_unstable();
    }
    Dendrogram { merges, n }
}

/// The §5.3 experiment's report: what subsetting costs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PitfallReport {
    /// The benchmark dropped from exploration (its representative
    /// stands in for it).
    pub dropped: String,
    /// The core pair a complete search picks over the *full* set.
    pub full_choice: Vec<String>,
    /// Merit of the full-set choice, evaluated over the full set.
    pub full_value: f64,
    /// The core pair picked when the dropped benchmark is excluded
    /// from both the workload rows and the candidate architectures.
    pub reduced_choice: Vec<String>,
    /// Merit of the reduced-set choice, evaluated over the FULL set —
    /// what the system actually delivers.
    pub reduced_value_on_full: f64,
    /// Fractional loss from subsetting:
    /// `1 − reduced_value_on_full / full_value`.
    pub loss: f64,
}

/// Run the §5.3 pitfall experiment: drop `dropped` from the
/// exploration (both as a workload and as a candidate architecture),
/// select the best `k`-core combination under `merit` over the reduced
/// set, then score that choice on the full workload set against the
/// full-set optimum.
///
/// # Panics
///
/// Panics if `dropped` is not a workload of `m`, or `k` is out of
/// range for the reduced set.
pub fn pitfall_experiment(
    m: &CrossPerfMatrix,
    dropped: &str,
    k: usize,
    merit: Merit,
) -> PitfallReport {
    let d = m
        .index_of(dropped)
        .unwrap_or_else(|| panic!("unknown workload `{dropped}`"));
    let keep: Vec<usize> = (0..m.len()).filter(|&i| i != d).collect();
    #[expect(
        clippy::expect_used,
        reason = "a square submatrix of a validated square matrix is square; the kept-weights vector has exactly one entry per kept row"
    )]
    let reduced = CrossPerfMatrix::new(
        keep.iter().map(|&i| m.names()[i].clone()).collect(),
        keep.iter()
            .map(|&w| keep.iter().map(|&c| m.ipt(w, c)).collect())
            .collect(),
    )
    .expect("reduced matrix stays valid")
    .with_weights(keep.iter().map(|&i| m.weights()[i]).collect())
    .expect("reduced weights stay valid");

    let reduced_best = best_combination(&reduced, k, merit);
    // Map reduced indices back to full-matrix indices.
    let reduced_cores: Vec<usize> = reduced_best.cores.iter().map(|&i| keep[i]).collect();
    let full_best = best_combination(m, k, merit);

    let reduced_value_on_full = merit.evaluate(m, &reduced_cores);
    let full_value = full_best.merit_value;
    PitfallReport {
        dropped: dropped.to_string(),
        full_choice: full_best.names,
        full_value,
        reduced_choice: reduced_cores
            .iter()
            .map(|&i| m.names()[i].clone())
            .collect(),
        reduced_value_on_full,
        loss: 1.0 - reduced_value_on_full / full_value,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_neighbor_finds_twin() {
        let pts = vec![vec![0.0, 0.0], vec![0.1, 0.0], vec![5.0, 5.0]];
        assert_eq!(nearest_neighbor(&pts, 0), 1);
        assert_eq!(nearest_neighbor(&pts, 1), 0);
        assert_eq!(nearest_neighbor(&pts, 2), 1);
    }

    #[test]
    fn clustering_groups_near_points() {
        let pts = vec![
            vec![0.0, 0.0],
            vec![0.1, 0.1],
            vec![10.0, 10.0],
            vec![10.1, 10.1],
        ];
        let cs = cluster(&pts, 2);
        assert_eq!(cs.len(), 2);
        assert_eq!(cs[0].members, vec![0, 1]);
        assert_eq!(cs[1].members, vec![2, 3]);
    }

    #[test]
    fn cluster_to_one_holds_everything() {
        let pts = vec![vec![0.0], vec![1.0], vec![2.0]];
        let cs = cluster(&pts, 1);
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].members, vec![0, 1, 2]);
    }

    #[test]
    fn dendrogram_cut_matches_direct_clustering() {
        let pts = vec![
            vec![0.0, 0.0],
            vec![0.1, 0.1],
            vec![10.0, 10.0],
            vec![10.1, 10.1],
            vec![5.0, 0.0],
        ];
        let d = dendrogram(&pts);
        assert_eq!(d.merges.len(), 4);
        for k in 1..=5 {
            assert_eq!(d.cut(k), cluster(&pts, k), "cut at k={k}");
        }
    }

    #[test]
    fn dendrogram_merges_nondecreasing() {
        let pts = vec![vec![0.0], vec![1.0], vec![3.0], vec![7.0], vec![15.0]];
        let d = dendrogram(&pts);
        for w in d.merges.windows(2) {
            assert!(w[1].distance >= w[0].distance - 1e-9);
        }
    }

    #[test]
    fn dendrogram_render_names_everyone() {
        let pts = vec![vec![0.0], vec![0.2], vec![9.0]];
        let d = dendrogram(&pts);
        let names: Vec<String> = vec!["a".into(), "b".into(), "c".into()];
        let r = d.render(&names);
        for n in &names {
            assert!(r.contains(n.as_str()), "{n} missing from {r}");
        }
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn dendrogram_single_point_panics() {
        dendrogram(&[vec![0.0]]);
    }

    #[test]
    fn pitfall_detects_loss_when_outlier_dropped() {
        // Workload d is an outlier only its own architecture serves;
        // dropping it changes the chosen pair and costs performance.
        let m = CrossPerfMatrix::new(
            vec!["a".into(), "b".into(), "c".into(), "d".into()],
            vec![
                vec![2.00, 1.10, 1.60, 0.90],
                vec![1.15, 2.00, 1.50, 0.80],
                vec![1.20, 1.10, 2.00, 0.70],
                vec![0.20, 0.15, 0.25, 1.00],
            ],
        )
        .expect("valid");
        let r = pitfall_experiment(&m, "d", 2, Merit::HarmonicMean);
        assert_eq!(r.dropped, "d");
        assert!(
            r.full_choice.contains(&"d".to_string()),
            "outlier belongs in the full choice"
        );
        assert!(!r.reduced_choice.contains(&"d".to_string()));
        assert!(r.loss > 0.0, "dropping the outlier must cost: {}", r.loss);
    }

    #[test]
    fn pitfall_zero_loss_for_redundant_twin() {
        // b is a's twin; dropping b changes nothing.
        let m = CrossPerfMatrix::new(
            vec!["a".into(), "b".into(), "c".into()],
            vec![
                vec![2.00, 1.99, 0.50],
                vec![1.99, 2.00, 0.50],
                vec![0.50, 0.50, 2.00],
            ],
        )
        .expect("valid");
        let r = pitfall_experiment(&m, "b", 2, Merit::HarmonicMean);
        assert!(r.loss.abs() < 1e-9, "twin drop is free: {}", r.loss);
    }

    #[test]
    #[should_panic(expected = "unknown workload")]
    fn pitfall_unknown_name_panics() {
        let m = CrossPerfMatrix::new(vec!["a".into()], vec![vec![1.0]]).expect("valid");
        pitfall_experiment(&m, "zzz", 1, Merit::Average);
    }
}

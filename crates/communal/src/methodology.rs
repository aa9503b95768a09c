//! The paper's Figure 3: two routes to the optimal core combination.
//!
//! * **(a) subset first** — cluster workloads by raw characteristics,
//!   keep one representative per cluster, customize cores only for the
//!   representatives, and exhaustively search combinations of *those*
//!   architectures.
//! * **(b) customize first** — customize a core for *every* workload
//!   (configurational characterization), then reduce the set of
//!   architectures by complete search.
//!
//! The paper's thesis is that (a) — the cheap, conventional route —
//! can exclude exactly the architectures the optimal combination
//! needs. This module makes the two routes directly comparable on any
//! cross-performance matrix: both are finally scored on the *full*
//! workload set, because that is what the built CMP will actually run.

use crate::combin::best_combination;
use crate::matrix::CrossPerfMatrix;
use crate::metrics::Merit;
use crate::subset::cluster;
use serde::{Deserialize, Serialize};

/// The outcome of running both Figure 3 routes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MethodologyComparison {
    /// Representatives chosen by clustering (workload names).
    pub representatives: Vec<String>,
    /// Route (a)'s chosen core set (names).
    pub subset_first_choice: Vec<String>,
    /// Route (a)'s merit on the full workload set.
    pub subset_first_value: f64,
    /// Route (b)'s chosen core set (names).
    pub customize_first_choice: Vec<String>,
    /// Route (b)'s merit on the full workload set (the optimum).
    pub customize_first_value: f64,
    /// Fractional loss of route (a) versus route (b); non-negative.
    pub subsetting_loss: f64,
}

/// The medoid of a cluster: the member minimizing the summed Euclidean
/// distance to the others.
fn medoid(points: &[Vec<f64>], members: &[usize]) -> usize {
    assert!(!members.is_empty(), "cluster cannot be empty");
    #[expect(
        clippy::expect_used,
        reason = "slowdown distances are ratios of positive finite IPTs; NaN cannot reach this comparison; clusters are built by assignment and never empty when scored"
    )]
    *members
        .iter()
        .min_by(|&&a, &&b| {
            let cost = |x: usize| -> f64 {
                members
                    .iter()
                    .map(|&y| {
                        points[x]
                            .iter()
                            .zip(&points[y])
                            .map(|(p, q)| (p - q) * (p - q))
                            .sum::<f64>()
                            .sqrt()
                    })
                    .sum()
            };
            cost(a).partial_cmp(&cost(b)).expect("distances are finite")
        })
        .expect("cluster is non-empty")
}

/// Run both Figure 3 routes.
///
/// `characteristics` are the raw (microarchitecture-independent)
/// vectors, one per workload in matrix order; `representatives` is the
/// number of clusters route (a) reduces to; `cores` is the number of
/// cores in the CMP.
///
/// # Panics
///
/// Panics if lengths mismatch, or if `cores > representatives` (route
/// (a) could not even fill the CMP), or counts are out of range.
pub fn compare_methodologies(
    m: &CrossPerfMatrix,
    characteristics: &[Vec<f64>],
    representatives: usize,
    cores: usize,
    merit: Merit,
) -> MethodologyComparison {
    assert_eq!(
        characteristics.len(),
        m.len(),
        "one characteristic vector per workload"
    );
    assert!(
        (1..=m.len()).contains(&representatives),
        "representative count out of range"
    );
    assert!(
        (1..=representatives).contains(&cores),
        "cores must be in 1..=representatives"
    );

    // Route (a): cluster raw characteristics, keep medoids, search only
    // over their architectures.
    let clusters = cluster(characteristics, representatives);
    let reps: Vec<usize> = clusters
        .iter()
        .map(|c| medoid(characteristics, &c.members))
        .collect();
    let mut best_subset: Option<(Vec<usize>, f64)> = None;
    crate::combin::combinations(reps.len(), cores, |combo| {
        let cores_full: Vec<usize> = combo.iter().map(|&i| reps[i]).collect();
        // Route (a) *selects* using only the representatives' rows (it
        // never simulated the dropped workloads)...
        let value = merit_on_rows(m, &cores_full, &reps, merit);
        if best_subset
            .as_ref()
            .map(|(_, bv)| value > *bv)
            .unwrap_or(true)
        {
            best_subset = Some((cores_full, value));
        }
    });
    #[expect(
        clippy::expect_used,
        reason = "the subset enumeration always yields at least one candidate for validated core counts"
    )]
    let (subset_cores, _) = best_subset.expect("at least one combination");
    // ...but is *scored* on the full set, which is what ships.
    let subset_first_value = merit.evaluate(m, &subset_cores);

    // Route (b): complete search over all customized architectures.
    let full = best_combination(m, cores, merit);

    MethodologyComparison {
        representatives: reps.iter().map(|&i| m.names()[i].clone()).collect(),
        subset_first_choice: subset_cores.iter().map(|&i| m.names()[i].clone()).collect(),
        subset_first_value,
        customize_first_choice: full.names.clone(),
        customize_first_value: full.merit_value,
        subsetting_loss: 1.0 - subset_first_value / full.merit_value,
    }
}

/// Evaluate `merit` counting only the given workload rows (the
/// representatives' view of the world).
fn merit_on_rows(m: &CrossPerfMatrix, combo: &[usize], rows: &[usize], merit: Merit) -> f64 {
    // Build a reduced matrix over `rows` x all architectures in
    // `combo`; simplest correct construction: a rows x rows matrix
    // restricted to the representative workloads with the full
    // architecture set retained via direct evaluation.
    let ipts: Vec<f64> = rows
        .iter()
        .map(|&w| m.ipt(w, m.best_config_for(w, combo)))
        .collect();
    let ws: Vec<f64> = rows.iter().map(|&w| m.weights()[w]).collect();
    let wsum: f64 = ws.iter().sum();
    match merit {
        Merit::Average => ipts.iter().zip(&ws).map(|(x, w)| x * w).sum::<f64>() / wsum,
        Merit::HarmonicMean | Merit::ContentionWeightedHarmonicMean => {
            // Representatives rarely contend with themselves; route (a)
            // uses the plain harmonic mean for both harmonic merits.
            wsum / ipts.iter().zip(&ws).map(|(x, w)| w / x).sum::<f64>()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Workloads a/b are raw-twins with *different* best architectures
    /// (the bzip/gzip situation); c is distinct; d is an outlier.
    fn m() -> CrossPerfMatrix {
        CrossPerfMatrix::new(
            vec!["a".into(), "b".into(), "c".into(), "d".into()],
            vec![
                vec![2.00, 1.30, 1.60, 0.90],
                vec![1.35, 2.00, 1.50, 0.80],
                vec![1.20, 1.10, 2.00, 0.70],
                vec![0.30, 0.25, 0.40, 1.00],
            ],
        )
        .expect("valid")
    }

    /// Raw characteristics: a and b indistinguishable, c and d apart.
    fn chars() -> Vec<Vec<f64>> {
        vec![
            vec![1.0, 1.0],
            vec![1.05, 1.0],
            vec![5.0, 5.0],
            vec![9.0, 1.0],
        ]
    }

    #[test]
    fn subsetting_can_lose() {
        // Reduce to 3 representatives (a/b collapse), build 2 cores.
        let r = compare_methodologies(&m(), &chars(), 3, 2, Merit::HarmonicMean);
        assert_eq!(r.representatives.len(), 3);
        assert!(
            r.subsetting_loss >= 0.0,
            "route (b) is optimal by construction: {}",
            r.subsetting_loss
        );
        assert!(
            !(r.representatives.contains(&"a".to_string())
                && r.representatives.contains(&"b".to_string())),
            "the twins must have collapsed: {:?}",
            r.representatives
        );
    }

    #[test]
    fn no_reduction_no_loss() {
        let r = compare_methodologies(&m(), &chars(), 4, 2, Merit::HarmonicMean);
        assert!(r.subsetting_loss.abs() < 1e-9, "full set loses nothing");
        assert_eq!(r.subset_first_choice, r.customize_first_choice);
    }

    #[test]
    fn average_merit_also_supported() {
        let r = compare_methodologies(&m(), &chars(), 3, 2, Merit::Average);
        assert!(r.customize_first_value > 0.0);
        assert!(r.subset_first_value <= r.customize_first_value + 1e-12);
    }

    #[test]
    #[should_panic(expected = "cores must be in")]
    fn too_many_cores_panics() {
        compare_methodologies(&m(), &chars(), 2, 3, Merit::Average);
    }

    #[test]
    #[should_panic(expected = "one characteristic vector")]
    fn mismatched_vectors_panic() {
        compare_methodologies(&m(), &chars()[..2], 2, 1, Merit::Average);
    }
}

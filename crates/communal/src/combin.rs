//! Complete search over core combinations (paper §5.2, Table 6,
//! Figure 4).

use crate::matrix::CrossPerfMatrix;
use crate::metrics::Merit;
use serde::{Deserialize, Serialize};

/// The outcome of a complete search for one core count and merit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComboResult {
    /// Indices of the chosen architectures, ascending.
    pub cores: Vec<usize>,
    /// Names of the chosen architectures, matrix order.
    pub names: Vec<String>,
    /// The merit value the combination was selected by.
    pub merit_value: f64,
    /// Average IPT of the combination (Table 6 column "avg. IPT").
    pub avg_ipt: f64,
    /// Harmonic-mean IPT of the combination (Table 6 column
    /// "har. IPT").
    pub har_ipt: f64,
}

/// Iterate over all `k`-subsets of `0..n` in lexicographic order,
/// calling `f` on each (as a slice).
pub fn combinations(n: usize, k: usize, mut f: impl FnMut(&[usize])) {
    assert!(k >= 1 && k <= n, "k must be in 1..=n");
    let mut idx: Vec<usize> = (0..k).collect();
    loop {
        f(&idx);
        // Advance to the next combination.
        let mut i = k;
        loop {
            if i == 0 {
                return;
            }
            i -= 1;
            if idx[i] != i + n - k {
                break;
            }
            if i == 0 {
                return;
            }
        }
        idx[i] += 1;
        for j in i + 1..k {
            idx[j] = idx[j - 1] + 1;
        }
    }
}

/// Complete search: the best `k`-core combination under `merit`
/// (the paper's Table 6 procedure — "a complete search of all possible
/// core-combinations").
///
/// # Panics
///
/// Panics if `k` is zero or exceeds the number of architectures.
pub fn best_combination(m: &CrossPerfMatrix, k: usize, merit: Merit) -> ComboResult {
    let n = m.len();
    let pass = xps_trace::span("communal.combination");
    let mut evaluated = 0u64;
    let mut best: Option<(Vec<usize>, f64)> = None;
    combinations(n, k, |combo| {
        evaluated += 1;
        let v = merit.evaluate(m, combo);
        let better = match &best {
            None => true,
            Some((_, bv)) => v > *bv,
        };
        if better {
            best = Some((combo.to_vec(), v));
        }
    });
    pass.end_with(|| {
        xps_trace::attrs([
            ("n", n.into()),
            ("k", k.into()),
            ("evaluated", evaluated.into()),
        ])
    });
    #[expect(
        clippy::expect_used,
        reason = "choose(n, k) enumerations with validated k >= 1 always yield at least one subset"
    )]
    let (cores, merit_value) = best.expect("at least one combination exists");
    let names = cores.iter().map(|&i| m.names()[i].clone()).collect();
    ComboResult {
        avg_ipt: Merit::Average.evaluate(m, &cores),
        har_ipt: Merit::HarmonicMean.evaluate(m, &cores),
        cores,
        names,
        merit_value,
    }
}

/// The "ideal" row of Table 6: every workload on its own customized
/// architecture. Returns `(avg IPT, harmonic-mean IPT)`.
pub fn ideal_performance(m: &CrossPerfMatrix) -> (f64, f64) {
    let all: Vec<usize> = (0..m.len()).collect();
    // With diagonal dominance, best-of-all = own architecture.
    (
        Merit::Average.evaluate(m, &all),
        Merit::HarmonicMean.evaluate(m, &all),
    )
}

/// Figure 4's data: for each workload (row), its IPT on the best
/// available core of each given core set (one series per set).
pub fn per_benchmark_series(m: &CrossPerfMatrix, sets: &[Vec<usize>]) -> Vec<Vec<f64>> {
    (0..m.len())
        .map(|w| {
            sets.iter()
                .map(|s| m.ipt(w, m.best_config_for(w, s)))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> CrossPerfMatrix {
        CrossPerfMatrix::new(
            vec!["a".into(), "b".into(), "c".into(), "d".into()],
            vec![
                vec![4.0, 2.0, 1.0, 3.0],
                vec![1.0, 2.0, 1.0, 1.5],
                vec![1.0, 1.0, 2.0, 1.0],
                vec![3.0, 1.0, 1.0, 3.5],
            ],
        )
        .expect("valid")
    }

    #[test]
    fn combination_count() {
        let mut count = 0;
        combinations(5, 2, |_| count += 1);
        assert_eq!(count, 10);
        let mut count = 0;
        combinations(11, 4, |_| count += 1);
        assert_eq!(count, 330);
    }

    #[test]
    fn combinations_are_sorted_unique() {
        combinations(6, 3, |c| {
            assert!(c.windows(2).all(|w| w[0] < w[1]));
        });
    }

    #[test]
    fn best_single_core() {
        // avg on a: (4+1+1+3)/4 = 2.25; b: 1.5; c: 1.25; d: 2.25 →
        // tie a/d, strict `>` keeps the first (a).
        let r = best_combination(&m(), 1, Merit::Average);
        assert_eq!(r.cores, vec![0]);
        assert!((r.avg_ipt - 2.25).abs() < 1e-12);
    }

    #[test]
    fn pair_beats_single() {
        let s = best_combination(&m(), 1, Merit::HarmonicMean);
        let p = best_combination(&m(), 2, Merit::HarmonicMean);
        assert!(p.har_ipt >= s.har_ipt);
        assert_eq!(p.cores.len(), 2);
    }

    #[test]
    fn more_cores_never_hurt() {
        let mm = m();
        for merit in Merit::ALL {
            let mut prev = f64::MIN;
            for k in 1..=mm.len() {
                let r = best_combination(&mm, k, merit);
                assert!(
                    r.merit_value >= prev - 1e-12,
                    "{merit:?} k={k}: {} < {prev}",
                    r.merit_value
                );
                prev = r.merit_value;
            }
        }
    }

    #[test]
    fn ideal_is_upper_bound() {
        let mm = m();
        let (avg, har) = ideal_performance(&mm);
        for k in 1..mm.len() {
            let ra = best_combination(&mm, k, Merit::Average);
            let rh = best_combination(&mm, k, Merit::HarmonicMean);
            assert!(ra.avg_ipt <= avg + 1e-12);
            assert!(rh.har_ipt <= har + 1e-12);
        }
    }

    #[test]
    fn series_shape() {
        let mm = m();
        let sets = vec![vec![0], vec![0, 1]];
        let s = per_benchmark_series(&mm, &sets);
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].len(), 2);
        // Workload b on {a} = 1.0; on {a, b} = 2.0.
        assert!((s[1][0] - 1.0).abs() < 1e-12);
        assert!((s[1][1] - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "k must be in 1..=n")]
    fn zero_k_panics() {
        combinations(3, 0, |_| {});
    }
}

//! Fitting structures into a pipeline-stage time budget.
//!
//! The exploration loop of the paper (§3) works by picking a clock
//! period and a per-unit pipeline depth, then scaling each unit "to fit
//! the product of the clock period and their pipeline depth, minus the
//! aggregate latch latency". These helpers answer the inverse query the
//! explorer needs: *the largest structure of each kind whose modeled
//! delay fits in a given time budget*.

use crate::{cache_access_time, units, CacheGeometry, Technology};

/// Candidate issue-queue sizes considered by the explorer (the paper's
/// Table 4 space tops out at 64 entries).
pub const IQ_SIZES: [u32; 4] = [8, 16, 32, 64];
/// Candidate ROB / register-file sizes (paper space: up to 1024).
pub const ROB_SIZES: [u32; 6] = [32, 64, 128, 256, 512, 1024];
/// Candidate load-store-queue sizes (paper space: up to 256).
pub const LSQ_SIZES: [u32; 5] = [16, 32, 64, 128, 256];
/// Candidate cache set counts.
pub const CACHE_SETS: [u32; 12] = [
    32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536,
];
/// Candidate cache associativities.
pub const CACHE_ASSOC: [u32; 5] = [1, 2, 4, 8, 16];
/// Candidate cache block sizes in bytes.
pub const CACHE_BLOCKS: [u32; 7] = [8, 16, 32, 64, 128, 256, 512];

/// Time budget, in ns, available to a unit spanning `depth` pipeline
/// stages at clock period `clock_ns`: each stage contributes the clock
/// period minus one latch overhead.
///
/// # Panics
///
/// Panics if `depth` is zero or `clock_ns` is not positive and finite.
pub fn stage_budget(tech: &Technology, clock_ns: f64, depth: u32) -> f64 {
    assert!(depth > 0, "pipeline depth must be at least 1");
    assert!(
        clock_ns.is_finite() && clock_ns > 0.0,
        "clock period must be positive"
    );
    f64::from(depth) * (clock_ns - tech.latch_ns()).max(0.0)
}

/// Largest issue-queue size whose wakeup–select delay fits in `budget`
/// ns at the given issue width, or `None` if even the smallest does not.
pub fn fit_issue_queue(tech: &Technology, budget: f64, issue_width: u32) -> Option<u32> {
    IQ_SIZES
        .iter()
        .copied()
        .filter(|&n| units::issue_queue_delay(tech, n, issue_width) <= budget)
        .max()
}

/// Largest ROB / register-file size whose access time fits in `budget`
/// ns at the given issue width.
pub fn fit_rob(tech: &Technology, budget: f64, issue_width: u32) -> Option<u32> {
    ROB_SIZES
        .iter()
        .copied()
        .filter(|&n| units::regfile_access_time(tech, n, issue_width) <= budget)
        .max()
}

/// Largest load-store-queue size whose search delay fits in `budget` ns.
pub fn fit_lsq(tech: &Technology, budget: f64) -> Option<u32> {
    LSQ_SIZES
        .iter()
        .copied()
        .filter(|&n| units::lsq_delay(tech, n) <= budget)
        .max()
}

/// All cache geometries from the candidate grid whose access time fits
/// in `budget` ns. The list is sorted by capacity (ascending) and, for
/// equal capacity, by access time (ascending), so the last element is
/// the largest-then-fastest fit.
pub fn cache_geometries_within(tech: &Technology, budget: f64) -> Vec<CacheGeometry> {
    let mut out = Vec::new();
    for &sets in &CACHE_SETS {
        for &assoc in &CACHE_ASSOC {
            for &block in &CACHE_BLOCKS {
                let g = CacheGeometry::new(sets, assoc, block);
                if cache_access_time(tech, &g) <= budget {
                    out.push(g);
                }
            }
        }
    }
    #[expect(
        clippy::expect_used,
        reason = "the CACTI model is a closed-form polynomial over positive inputs; access times are always finite"
    )]
    out.sort_by(|a, b| {
        a.capacity_bytes().cmp(&b.capacity_bytes()).then_with(|| {
            cache_access_time(tech, a)
                .partial_cmp(&cache_access_time(tech, b))
                .expect("access times are finite")
        })
    });
    out
}

/// The largest-capacity (then fastest) cache geometry fitting in
/// `budget` ns, or `None` if none of the candidates fit.
pub fn fit_cache_max_capacity(tech: &Technology, budget: f64) -> Option<CacheGeometry> {
    cache_geometries_within(tech, budget).pop()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Technology {
        Technology::default()
    }

    #[test]
    fn stage_budget_subtracts_latch() {
        let tech = t();
        let b = stage_budget(&tech, 0.33, 2);
        assert!((b - 2.0 * (0.33 - tech.latch_ns())).abs() < 1e-12);
    }

    #[test]
    fn larger_budget_fits_larger_structures() {
        let tech = t();
        let small = fit_issue_queue(&tech, 0.35, 4);
        let large = fit_issue_queue(&tech, 1.2, 4);
        assert!(large >= small, "{large:?} vs {small:?}");
        assert!(large.is_some());
    }

    #[test]
    fn impossible_budget_yields_none() {
        let tech = t();
        assert_eq!(fit_issue_queue(&tech, 0.0, 4), None);
        assert_eq!(fit_rob(&tech, 0.0, 4), None);
        assert_eq!(fit_lsq(&tech, 0.0), None);
        assert_eq!(fit_cache_max_capacity(&tech, 0.0), None);
    }

    #[test]
    fn fitted_structures_respect_budget() {
        let tech = t();
        let budget = 0.8;
        if let Some(n) = fit_issue_queue(&tech, budget, 4) {
            assert!(units::issue_queue_delay(&tech, n, 4) <= budget);
        }
        if let Some(g) = fit_cache_max_capacity(&tech, budget) {
            assert!(cache_access_time(&tech, &g) <= budget);
        }
    }

    #[test]
    fn cache_list_sorted_by_capacity() {
        let tech = t();
        let list = cache_geometries_within(&tech, 1.0);
        assert!(!list.is_empty());
        for w in list.windows(2) {
            assert!(w[0].capacity_bytes() <= w[1].capacity_bytes());
        }
    }
}

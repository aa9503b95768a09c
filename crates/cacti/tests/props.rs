//! Property-based tests of the timing model's physical invariants.

use proptest::prelude::*;
use xps_cacti::{cache_access_time, fit, units, CacheGeometry, CamArray, SramArray, Technology};

fn pow2(max_log: u32) -> impl Strategy<Value = u32> {
    (0..=max_log).prop_map(|e| 1u32 << e)
}

proptest! {
    /// SRAM access time grows (weakly) with row count at fixed width.
    #[test]
    fn sram_monotone_in_rows(rows_log in 4u32..14, cols in pow2(10), r in 1u32..4, w in 1u32..3) {
        let tech = Technology::default();
        let small = SramArray::new(1 << rows_log, cols.max(8), r, w).access_time(&tech);
        let large = SramArray::new(1 << (rows_log + 1), cols.max(8), r, w).access_time(&tech);
        prop_assert!(large >= small, "{large} < {small}");
    }

    /// Adding ports never speeds an array up.
    #[test]
    fn sram_monotone_in_ports(rows in pow2(12), cols in pow2(9), r in 1u32..8) {
        let tech = Technology::default();
        let rows = rows.max(8);
        let cols = cols.max(8);
        let few = SramArray::new(rows, cols, r, 1).access_time(&tech);
        let more = SramArray::new(rows, cols, r + 2, 2).access_time(&tech);
        prop_assert!(more >= few);
    }

    /// CAM match time is strictly increasing in entry count.
    #[test]
    fn cam_strictly_monotone(entries_log in 3u32..10, bits in pow2(7), ports in 1u32..8) {
        let tech = Technology::default();
        let a = CamArray::new(1 << entries_log, bits.max(8), ports).match_time(&tech);
        let b = CamArray::new(1 << (entries_log + 1), bits.max(8), ports).match_time(&tech);
        prop_assert!(b > a);
    }

    /// All delays are finite and positive across the candidate grid.
    #[test]
    fn cache_delays_finite_positive(
        sets in pow2(16),
        assoc in prop::sample::select(vec![1u32, 2, 4, 8, 16]),
        block in prop::sample::select(vec![8u32, 16, 32, 64, 128, 256, 512]),
    ) {
        let tech = Technology::default();
        let sets = sets.max(32);
        let d = cache_access_time(&tech, &CacheGeometry::new(sets, assoc, block));
        prop_assert!(d.is_finite() && d > 0.0);
    }

    /// Fitted structures always respect their budget, and a larger
    /// budget never fits a smaller structure.
    #[test]
    fn fit_respects_budget(budget in 0.05f64..2.0, width in 1u32..9) {
        let tech = Technology::default();
        if let Some(iq) = fit::fit_issue_queue(&tech, budget, width) {
            prop_assert!(units::issue_queue_delay(&tech, iq, width) <= budget);
        }
        if let Some(rob) = fit::fit_rob(&tech, budget, width) {
            prop_assert!(units::regfile_access_time(&tech, rob, width) <= budget);
        }
        let a = fit::fit_rob(&tech, budget, width);
        let b = fit::fit_rob(&tech, budget * 1.5, width);
        match (a, b) {
            (Some(x), Some(y)) => prop_assert!(y >= x),
            (Some(_), None) => prop_assert!(false, "larger budget lost the fit"),
            _ => {}
        }
    }

    /// Uniform technology scaling scales every delay uniformly.
    #[test]
    fn technology_scaling_is_linear(factor in 0.25f64..4.0, sets in pow2(12)) {
        let tech = Technology::default();
        let scaled = tech.scaled(factor);
        let g = CacheGeometry::new(sets.max(32), 2, 64);
        let base = cache_access_time(&tech, &g);
        let after = cache_access_time(&scaled, &g);
        prop_assert!((after - base * factor).abs() < 1e-9 * factor.max(1.0));
    }

    /// The fit rule is monotone: a slower clock or a deeper unit never
    /// shrinks the stage budget, nor any structure fitted into it.
    /// `Option`'s order puts `None` (nothing fits) below every `Some`.
    #[test]
    fn fit_is_monotone_in_clock_and_depth(
        clocks in (0.05f64..2.0, 0.05f64..2.0),
        depths in (1u32..=8, 1u32..=8),
        width in 1u32..=8,
    ) {
        let tech = Technology::default();
        let (c1, c2) = (clocks.0.min(clocks.1), clocks.0.max(clocks.1));
        let (d1, d2) = (depths.0.min(depths.1), depths.0.max(depths.1));
        let small = fit::stage_budget(&tech, c1, d1);
        let large = fit::stage_budget(&tech, c2, d2);
        prop_assert!(large >= small, "budget {large} < {small}");
        prop_assert!(fit::fit_rob(&tech, large, width) >= fit::fit_rob(&tech, small, width));
        prop_assert!(
            fit::fit_issue_queue(&tech, large, width) >= fit::fit_issue_queue(&tech, small, width)
        );
        prop_assert!(fit::fit_lsq(&tech, large) >= fit::fit_lsq(&tech, small));
        let capacity = |budget| fit::fit_cache_max_capacity(&tech, budget).map(|g| g.capacity_bytes());
        prop_assert!(capacity(large) >= capacity(small));
    }

    /// Stage budgets are additive in depth.
    #[test]
    fn stage_budget_additive(clock in 0.1f64..1.0, d in 1u32..10) {
        let tech = Technology::default();
        let one = fit::stage_budget(&tech, clock, 1);
        let many = fit::stage_budget(&tech, clock, d);
        prop_assert!((many - one * f64::from(d)).abs() < 1e-12);
    }
}

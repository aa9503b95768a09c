//! Multithreaded job-submission modeling (paper §5.5).
//!
//! With concurrent jobs, cores contend. The paper sketches two
//! policies — *stall until the assigned surrogate core is free* and
//! *redirect to the most suitable available core* — and argues that
//! under Poisson arrivals with moderate load, a balanced partition of
//! workloads onto cores (its BPMST analogy) remains near-optimal,
//! while burstiness erodes the benefit of heterogeneity. The paper
//! defers quantitative study to future work; this module implements the
//! model it describes so the claim can actually be exercised
//! (`repro schedule`).

use crate::matrix::CrossPerfMatrix;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Contention policy when a job's preferred core is busy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum JobPolicy {
    /// Queue on the assigned core until it frees up.
    StallForAssigned,
    /// Run on whichever core finishes the job earliest (counting both
    /// queueing and the job's slowdown on that core).
    BestAvailable,
}

/// Options of one scheduling simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleOptions {
    /// The cores built (architecture indices into the matrix).
    pub cores: Vec<usize>,
    /// Contention policy.
    pub policy: JobPolicy,
    /// Mean arrival rate, jobs per time unit.
    pub arrival_rate: f64,
    /// Number of jobs to simulate.
    pub jobs: u32,
    /// Burstiness: probability that the next job arrives immediately
    /// (in the same burst) rather than after an exponential gap.
    pub burstiness: f64,
    /// Nominal work per job, in instructions-equivalent units; the
    /// execution time of a job of workload `w` on core `c` is
    /// `work / ipt(w, c)`.
    pub work: f64,
    /// RNG seed.
    pub seed: u64,
}

impl ScheduleOptions {
    /// Reasonable defaults: moderate load, no burstiness.
    pub fn new(cores: Vec<usize>, policy: JobPolicy) -> ScheduleOptions {
        ScheduleOptions {
            cores,
            policy,
            arrival_rate: 1.0,
            jobs: 10_000,
            burstiness: 0.0,
            work: 1.0,
            seed: 42,
        }
    }
}

/// Results of one scheduling simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScheduleStats {
    /// Mean turnaround (arrival → completion) per job.
    pub avg_turnaround: f64,
    /// Mean pure execution time per job (no queueing).
    pub avg_execution: f64,
    /// Mean queueing delay per job.
    pub avg_wait: f64,
    /// Fraction of jobs that ran on a core other than their best one
    /// (only non-zero under [`JobPolicy::BestAvailable`]).
    pub redirect_rate: f64,
}

/// Simulate `opts.jobs` Poisson job arrivals over the cores and return
/// turnaround statistics.
///
/// Each job is a workload drawn from the matrix in proportion to its
/// importance weight. Deterministic for a fixed seed.
///
/// # Panics
///
/// Panics if `opts.cores` is empty, contains an out-of-range index, or
/// `arrival_rate`/`work` are not positive.
pub fn simulate_jobs(m: &CrossPerfMatrix, opts: &ScheduleOptions) -> ScheduleStats {
    assert!(!opts.cores.is_empty(), "need at least one core");
    assert!(
        opts.cores.iter().all(|&c| c < m.len()),
        "core index out of range"
    );
    assert!(opts.arrival_rate > 0.0, "arrival rate must be positive");
    assert!(opts.work > 0.0, "work must be positive");
    assert!(
        (0.0..=1.0).contains(&opts.burstiness),
        "burstiness must be in [0, 1]"
    );

    let _pass = xps_trace::span("communal.schedule");
    let mut rng = SmallRng::seed_from_u64(opts.seed);
    let weights = m.weights();
    let wsum: f64 = weights.iter().sum();
    // Each workload's preferred core: best IPT among the built cores.
    let preferred: Vec<usize> = (0..m.len())
        .map(|w| m.best_config_for(w, &opts.cores))
        .collect();

    let mut free_at = vec![0.0f64; opts.cores.len()];
    let mut now = 0.0f64;
    let (mut t_turn, mut t_exec, mut t_wait) = (0.0, 0.0, 0.0);
    let mut redirects = 0u32;

    for _ in 0..opts.jobs {
        // Arrival process: bursty Poisson.
        if rng.gen::<f64>() >= opts.burstiness {
            let u: f64 = rng.gen::<f64>().max(1e-12);
            now += -u.ln() / opts.arrival_rate;
        }
        // Draw the workload by weight.
        let mut pick = rng.gen::<f64>() * wsum;
        let mut w = 0;
        for (i, &wt) in weights.iter().enumerate() {
            if pick < wt {
                w = i;
                break;
            }
            pick -= wt;
            w = i;
        }

        #[expect(
            clippy::expect_used,
            reason = "the preferred index comes from the same combination that built the core list"
        )]
        let slot_of = |core: usize| -> usize {
            opts.cores
                .iter()
                .position(|&c| c == core)
                .expect("preferred core is among the built cores")
        };
        let (slot, start) = match opts.policy {
            JobPolicy::StallForAssigned => {
                let slot = slot_of(preferred[w]);
                (slot, free_at[slot].max(now))
            }
            JobPolicy::BestAvailable => {
                // Choose the core minimizing completion time.
                let mut best_slot = 0;
                let mut best_done = f64::INFINITY;
                for (slot, &core) in opts.cores.iter().enumerate() {
                    let exec = opts.work / m.ipt(w, core);
                    let done = free_at[slot].max(now) + exec;
                    if done < best_done {
                        best_done = done;
                        best_slot = slot;
                    }
                }
                if opts.cores[best_slot] != preferred[w] {
                    redirects += 1;
                }
                (best_slot, free_at[best_slot].max(now))
            }
        };
        let exec = opts.work / m.ipt(w, opts.cores[slot]);
        let done = start + exec;
        free_at[slot] = done;
        t_exec += exec;
        t_wait += start - now;
        t_turn += done - now;
    }

    let n = f64::from(opts.jobs);
    ScheduleStats {
        avg_turnaround: t_turn / n,
        avg_execution: t_exec / n,
        avg_wait: t_wait / n,
        redirect_rate: f64::from(redirects) / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> CrossPerfMatrix {
        CrossPerfMatrix::new(
            vec!["a".into(), "b".into(), "c".into()],
            vec![
                vec![2.0, 1.0, 1.0],
                vec![1.0, 2.0, 1.0],
                vec![1.0, 1.0, 2.0],
            ],
        )
        .expect("valid")
    }

    fn opts(policy: JobPolicy) -> ScheduleOptions {
        let mut o = ScheduleOptions::new(vec![0, 1], policy);
        o.jobs = 5000;
        o.arrival_rate = 2.0;
        o
    }

    #[test]
    fn turnaround_decomposes() {
        let s = simulate_jobs(&m(), &opts(JobPolicy::StallForAssigned));
        assert!(
            (s.avg_turnaround - (s.avg_execution + s.avg_wait)).abs() < 1e-9,
            "turnaround = exec + wait"
        );
    }

    #[test]
    fn best_available_never_slower_overall() {
        let stall = simulate_jobs(&m(), &opts(JobPolicy::StallForAssigned));
        let redirect = simulate_jobs(&m(), &opts(JobPolicy::BestAvailable));
        assert!(redirect.avg_turnaround <= stall.avg_turnaround * 1.05);
        assert!(
            redirect.redirect_rate > 0.0,
            "some jobs should redirect under load"
        );
        assert!((stall.redirect_rate).abs() < 1e-12);
    }

    #[test]
    fn light_load_has_little_waiting() {
        let mut o = opts(JobPolicy::StallForAssigned);
        o.arrival_rate = 0.01;
        let s = simulate_jobs(&m(), &o);
        assert!(
            s.avg_wait < 0.05 * s.avg_execution,
            "waits vanish at light load"
        );
    }

    #[test]
    fn burstiness_increases_turnaround() {
        let calm = simulate_jobs(&m(), &opts(JobPolicy::BestAvailable));
        let mut o = opts(JobPolicy::BestAvailable);
        o.burstiness = 0.8;
        let bursty = simulate_jobs(&m(), &o);
        assert!(
            bursty.avg_turnaround > calm.avg_turnaround,
            "bursts queue jobs: {} vs {}",
            bursty.avg_turnaround,
            calm.avg_turnaround
        );
    }

    #[test]
    fn deterministic() {
        let a = simulate_jobs(&m(), &opts(JobPolicy::BestAvailable));
        let b = simulate_jobs(&m(), &opts(JobPolicy::BestAvailable));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn empty_cores_panics() {
        simulate_jobs(
            &m(),
            &ScheduleOptions::new(vec![], JobPolicy::StallForAssigned),
        );
    }
}

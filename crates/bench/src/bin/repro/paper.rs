//! The paper's tables and figures (Tables 1–7, Figures 1–8, Appendix
//! A, §5.3, §5.5) and the two views of its matrix (dendrogram, heat
//! map). Each runs on the published data under `--paper-data` and on
//! the measured campaign otherwise.

use crate::campaign::measured;
use crate::cli::{Opts, Outcome};
use std::error::Error;
use xps_bench::{render_kiviat, render_table};
use xps_core::communal::{
    assign_surrogates, best_combination, ideal_performance, pitfall_experiment, simulate_jobs,
    CrossPerfMatrix, JobPolicy, Merit, Propagation, ScheduleOptions, Surrogating,
};
use xps_core::explore::constants;
use xps_core::paper;
use xps_core::sim::CoreConfig;
use xps_core::workload::{spec, Characterizer, TraceGenerator, KIVIAT_AXES};
use xps_core::{cacti, table7};

fn matrix_for(o: &Opts) -> Result<(CrossPerfMatrix, &'static str), Box<dyn Error>> {
    if o.paper_data {
        Ok((paper::table5_matrix(), "published Table 5"))
    } else {
        Ok((measured(o)?.matrix, "measured matrix"))
    }
}

pub fn table1(_: &Opts) -> Outcome {
    let tech = cacti::Technology::default();
    println!("Table 1: unit -> CACTI query (reference delays at representative sizes)\n");
    let rows = vec![
        vec![
            "L1 data cache".into(),
            "sets x assoc x line, 2R/2W".into(),
            "access time".into(),
            format!(
                "{:.3} ns (32 KB, 2w, 64 B)",
                cacti::units::l1_access_time(&tech, 256, 2, 64)
            ),
        ],
        vec![
            "L2 data cache".into(),
            "sets x assoc x line, 2R/2W".into(),
            "access time".into(),
            format!(
                "{:.3} ns (2 MB, 4w, 128 B)",
                cacti::units::l2_access_time(&tech, 4096, 4, 128)
            ),
        ],
        vec![
            "wakeup-select".into(),
            "CAM 2xIQ entries + RAM select".into(),
            "tag cmp + datapath".into(),
            format!(
                "{:.3} ns (IQ 64, width 4)",
                cacti::units::issue_queue_delay(&tech, 64, 4)
            ),
        ],
        vec![
            "reg file (ROB)".into(),
            "RAM, 2w read / w write ports".into(),
            "access time".into(),
            format!(
                "{:.3} ns (ROB 256, width 4)",
                cacti::units::regfile_access_time(&tech, 256, 4)
            ),
        ],
        vec![
            "LSQ".into(),
            "CAM, 2 search ports".into(),
            "datapath w/o driver".into(),
            format!("{:.3} ns (LSQ 128)", cacti::units::lsq_delay(&tech, 128)),
        ],
    ];
    println!(
        "{}",
        render_table(
            &[
                "unit".into(),
                "organization".into(),
                "CACTI output".into(),
                "model delay".into()
            ],
            &rows
        )
    );
    Ok(())
}

pub fn table2(_: &Opts) -> Outcome {
    println!("Table 2: fixed design parameters\n");
    println!(
        "  memory access latency    {} ns",
        constants::MEMORY_LATENCY_NS
    );
    println!(
        "  front-end latency        {} ns",
        constants::FRONTEND_LATENCY_NS
    );
    println!(
        "  bit-width of IQ entries  {} bits",
        constants::IQ_ENTRY_BITS
    );
    println!("  latch latency            {} ns", constants::LATCH_NS);
    Ok(())
}

pub fn table3(_: &Opts) -> Outcome {
    let c = CoreConfig::initial();
    println!("Table 3: initial configuration used across all benchmarks\n");
    println!("{}", config_table(&[c]));
    Ok(())
}

type ParamCell = Box<dyn Fn(&CoreConfig) -> String>;

fn config_table(configs: &[CoreConfig]) -> String {
    let header: Vec<String> = std::iter::once("parameter".to_string())
        .chain(configs.iter().map(|c| c.name.clone()))
        .collect();
    let param_rows: Vec<(&str, ParamCell)> = vec![
        (
            "mem access cycles",
            Box::new(|c| c.mem_cycles().to_string()),
        ),
        (
            "front-end stages",
            Box::new(|c| c.frontend_depth.to_string()),
        ),
        ("width", Box::new(|c| c.width.to_string())),
        ("ROB size", Box::new(|c| c.rob_size.to_string())),
        ("issue queue size", Box::new(|c| c.iq_size.to_string())),
        (
            "min awaken latency",
            Box::new(|c| c.wakeup_extra.to_string()),
        ),
        ("sched/RF depth", Box::new(|c| c.sched_depth.to_string())),
        ("clock (ns)", Box::new(|c| format!("{:.2}", c.clock_ns))),
        ("L1D assoc", Box::new(|c| c.l1.geometry.assoc.to_string())),
        (
            "L1D block (B)",
            Box::new(|c| c.l1.geometry.block_bytes.to_string()),
        ),
        ("L1D sets", Box::new(|c| c.l1.geometry.sets.to_string())),
        (
            "L1D KB",
            Box::new(|c| (c.l1.geometry.capacity_bytes() / 1024).to_string()),
        ),
        ("L1D cycles", Box::new(|c| c.l1.latency.to_string())),
        ("L2D assoc", Box::new(|c| c.l2.geometry.assoc.to_string())),
        (
            "L2D block (B)",
            Box::new(|c| c.l2.geometry.block_bytes.to_string()),
        ),
        ("L2D sets", Box::new(|c| c.l2.geometry.sets.to_string())),
        (
            "L2D KB",
            Box::new(|c| (c.l2.geometry.capacity_bytes() / 1024).to_string()),
        ),
        ("L2D cycles", Box::new(|c| c.l2.latency.to_string())),
        ("LSQ size", Box::new(|c| c.lsq_size.to_string())),
    ];
    let rows: Vec<Vec<String>> = param_rows
        .iter()
        .map(|(name, f)| {
            std::iter::once(name.to_string())
                .chain(configs.iter().map(f.as_ref()))
                .collect()
        })
        .collect();
    render_table(&header, &rows)
}

pub fn table4(o: &Opts) -> Outcome {
    let configs = if o.paper_data {
        paper::table4_configs()
    } else {
        measured(o)?
            .cores
            .iter()
            .map(|c| c.config.clone())
            .collect()
    };
    println!(
        "Table 4: customized architectural configurations ({})\n",
        if o.paper_data {
            "published"
        } else {
            "measured"
        }
    );
    println!("{}", config_table(&configs));
    Ok(())
}

fn matrix_table(m: &CrossPerfMatrix, cell: impl Fn(usize, usize) -> String) -> String {
    let header: Vec<String> = std::iter::once(String::new())
        .chain(m.names().iter().cloned())
        .collect();
    let rows: Vec<Vec<String>> = (0..m.len())
        .map(|w| {
            std::iter::once(m.names()[w].clone())
                .chain((0..m.len()).map(|c| cell(w, c)))
                .collect()
        })
        .collect();
    render_table(&header, &rows)
}

pub fn table5(o: &Opts) -> Outcome {
    let (m, label) = matrix_for(o)?;
    println!("Table 5: IPT of each benchmark (rows) on each customized architecture (columns) [{label}]\n");
    println!("{}", matrix_table(&m, |w, c| format!("{:.2}", m.ipt(w, c))));
    Ok(())
}

pub fn appendix_a(o: &Opts) -> Outcome {
    let (m, label) = matrix_for(o)?;
    println!("Appendix A: percentage slowdown on other benchmarks' architectures [{label}]\n");
    println!(
        "{}",
        matrix_table(&m, |w, c| format!("{:.1}%", m.slowdown(w, c) * 100.0))
    );
    Ok(())
}

pub fn table6(o: &Opts) -> Outcome {
    let (m, label) = matrix_for(o)?;
    println!("Table 6: best core combinations and their performance [{label}]\n");
    let mut rows = Vec::new();
    for k in 1..=4usize {
        for merit in Merit::ALL {
            let r = best_combination(&m, k, merit);
            rows.push(vec![
                format!("{k} best config(s) for {}", merit.label()),
                r.names.join(", "),
                format!("{:.2}", r.avg_ipt),
                format!("{:.2}", r.har_ipt),
            ]);
        }
    }
    let (avg, har) = ideal_performance(&m);
    rows.push(vec![
        "each benchmark on its own architecture".into(),
        "-".into(),
        format!("{avg:.2}"),
        format!("{har:.2}"),
    ]);
    println!(
        "{}",
        render_table(
            &[
                "criterion".into(),
                "customized core(s)".into(),
                "avg IPT".into(),
                "har IPT".into()
            ],
            &rows
        )
    );
    Ok(())
}

pub fn table7_cmd(o: &Opts) -> Outcome {
    let (m, label) = matrix_for(o)?;
    println!("Table 7: dual-core CMP summary [{label}]\n");
    let t = table7(&m);
    let rows: Vec<Vec<String>> = t
        .rows
        .iter()
        .map(|r| {
            vec![
                r.scenario.clone(),
                if r.architectures.len() == m.len() {
                    "(all)".to_string()
                } else {
                    r.architectures.join(", ")
                },
                format!("{:.2}", r.harmonic_ipt),
                format!("{:.0}%", r.slowdown_vs_ideal * 100.0),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "scenario".into(),
                "arch(s)".into(),
                "har IPT".into(),
                "slowdown vs ideal".into()
            ],
            &rows
        )
    );
    Ok(())
}

pub fn fig1(o: &Opts) -> Outcome {
    let ops = if o.quick { 40_000 } else { 150_000 };
    println!("Figure 1: Kiviat graphs of raw (microarchitecture-independent) characteristics, 0-10 scale\n");
    for p in spec::all_profiles() {
        let mut ch = Characterizer::new();
        for op in TraceGenerator::new(p.clone()).take(ops) {
            ch.observe(&op);
        }
        let v = ch.finish();
        println!("{}:", p.name);
        print!("{}", render_kiviat(&KIVIAT_AXES, &v.kiviat()));
    }
    Ok(())
}

pub fn fig2(_: &Opts) -> Outcome {
    let tech = cacti::Technology::default();
    println!("Figure 2: clock period vs. issue-queue / L1 sizing scenarios\n");
    println!("(delays from the CACTI model; slack = stage budget - unit delay)\n");
    let scenarios = [
        (
            "a: 1.00 ns clock, IQ 64, L1 32 KB in 1 cycle",
            1.00,
            64u32,
            256u32,
            1u32,
        ),
        (
            "b: 0.66 ns clock, IQ 64, L1 32 KB in 1 cycle",
            0.66,
            64,
            256,
            1,
        ),
        (
            "c: 0.66 ns clock, IQ 32, L1 32 KB in 1 cycle",
            0.66,
            32,
            256,
            1,
        ),
        (
            "d: 1.00 ns clock, IQ 64, L1 128 KB in 2 cycles",
            1.00,
            64,
            1024,
            2,
        ),
    ];
    let mut rows = Vec::new();
    for (label, clock, iq, l1_sets, l1_cycles) in scenarios {
        let iq_delay = cacti::units::issue_queue_delay(&tech, iq, 4);
        let l1_delay = cacti::units::l1_access_time(&tech, l1_sets, 2, 64);
        let iq_budget = cacti::fit::stage_budget(&tech, clock, 1);
        let l1_budget = cacti::fit::stage_budget(&tech, clock, l1_cycles);
        rows.push(vec![
            label.to_string(),
            format!("{:.2}/{:.2}", iq_delay, iq_budget),
            format!("{:+.2}", iq_budget - iq_delay),
            format!("{:.2}/{:.2}", l1_delay, l1_budget),
            format!("{:+.2}", l1_budget - l1_delay),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "scenario".into(),
                "IQ delay/budget (ns)".into(),
                "IQ slack".into(),
                "L1 delay/budget (ns)".into(),
                "L1 slack".into()
            ],
            &rows
        )
    );
    Ok(())
}

pub fn fig3(o: &Opts) -> Outcome {
    use xps_core::communal::compare_methodologies;
    let (m, label) = matrix_for(o)?;
    println!("Figure 3: subset-first (a) vs customize-first (b) methodologies [{label}]\n");
    // Raw characteristics measured from the workload models, matched to
    // the matrix's benchmark order.
    let ops = if o.quick { 40_000 } else { 120_000 };
    let chars: Vec<Vec<f64>> = m
        .names()
        .iter()
        .map(|n| {
            let p = spec::profile(n).ok_or_else(|| format!("no workload model for `{n}`"))?;
            let mut c = Characterizer::new();
            for op in TraceGenerator::new(p).take(ops) {
                c.observe(&op);
            }
            Ok(c.finish().kiviat().to_vec())
        })
        .collect::<Result<_, String>>()?;
    let mut rows = Vec::new();
    for reps in [4usize, 6, 8] {
        for cores in [2usize, 3] {
            if cores > reps {
                continue;
            }
            let r = compare_methodologies(&m, &chars, reps, cores, Merit::HarmonicMean);
            rows.push(vec![
                reps.to_string(),
                cores.to_string(),
                r.subset_first_choice.join("+"),
                format!("{:.3}", r.subset_first_value),
                r.customize_first_choice.join("+"),
                format!("{:.3}", r.customize_first_value),
                format!("{:.1}%", r.subsetting_loss * 100.0),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "reps".into(),
                "cores".into(),
                "(a) choice".into(),
                "(a) har".into(),
                "(b) choice".into(),
                "(b) har".into(),
                "loss".into()
            ],
            &rows
        )
    );
    println!("route (a) discards architectures before ever measuring them; the loss column is the paper's thesis.");
    Ok(())
}

pub fn fig4(o: &Opts) -> Outcome {
    let (m, label) = matrix_for(o)?;
    println!("Figure 4: per-benchmark IPT on the best available core [{label}]\n");
    let single = best_combination(&m, 1, Merit::Average).cores;
    let avg2 = best_combination(&m, 2, Merit::Average).cores;
    let har2 = best_combination(&m, 2, Merit::HarmonicMean).cores;
    let cw2 = best_combination(&m, 2, Merit::ContentionWeightedHarmonicMean).cores;
    let own: Vec<usize> = (0..m.len()).collect();
    let sets: Vec<(&str, &[usize])> = vec![
        ("best single", &single),
        ("best 2 (avg)", &avg2),
        ("best 2 (har)", &har2),
        ("best 2 (cw-har)", &cw2),
        ("own core", &own),
    ];
    let header: Vec<String> = std::iter::once("benchmark".to_string())
        .chain(sets.iter().map(|(n, _)| n.to_string()))
        .collect();
    let rows: Vec<Vec<String>> = (0..m.len())
        .map(|w| {
            std::iter::once(m.names()[w].clone())
                .chain(
                    sets.iter()
                        .map(|(_, s)| format!("{:.2}", m.ipt(w, m.best_config_for(w, s)))),
                )
                .collect()
        })
        .collect();
    println!("{}", render_table(&header, &rows));
    Ok(())
}

pub fn fig5(_: &Opts) -> Outcome {
    println!("Figure 5: propagation of surrogates (illustration)\n");
    println!(
        "  forward propagation:  A hosts B, then C hosts A  =>  B effectively runs on C's arch"
    );
    println!(
        "  backward propagation: B hosts A, then A hosts C  =>  C effectively runs on B's arch"
    );
    println!("\nSee fig6/fig7/fig8 for the policies applied to the matrix.");
    Ok(())
}

fn print_surrogating(m: &CrossPerfMatrix, s: &Surrogating) {
    for e in &s.edges {
        println!(
            "  {:2}. {} <- {}  ({:.1}% slowdown)",
            e.order,
            m.names()[e.dependent],
            m.names()[e.host],
            e.slowdown * 100.0
        );
    }
    println!();
    for (root, members) in s.groups() {
        let names: Vec<&str> = members.iter().map(|&w| m.names()[w].as_str()).collect();
        println!("  group [{}]: {}", m.names()[root], names.join(", "));
    }
    if !s.feedback_pairs.is_empty() {
        let pairs: Vec<String> = s
            .feedback_pairs
            .iter()
            .map(|&(a, b)| format!("{}<->{}", m.names()[a], m.names()[b]))
            .collect();
        println!("  feedback surrogating: {}", pairs.join(", "));
    }
    println!(
        "\n  harmonic-mean IPT {:.2}   average slowdown vs ideal {:.1}%",
        s.harmonic_ipt(m),
        s.average_slowdown(m) * 100.0
    );
}

pub fn figs678(o: &Opts, mode: Propagation) -> Outcome {
    let (m, label) = matrix_for(o)?;
    let (figure, target) = match mode {
        Propagation::None => ("Figure 6 (no propagation)", 1),
        Propagation::ForwardBackward => ("Figure 7 (full propagation)", 1),
        Propagation::Forward => ("Figure 8 (forward propagation, driven to 2 cores)", 2),
    };
    println!("{figure}: greedy surrogate assignment [{label}]\n");
    let s = assign_surrogates(&m, mode, target);
    print_surrogating(&m, &s);
    if mode == Propagation::None {
        // The paper's follow-up: grant mcf its own core.
        if let Some(mcf) = m.index_of("mcf") {
            let mut assignment = s.assignment.clone();
            assignment[mcf] = mcf;
            let har = m.len() as f64
                / assignment
                    .iter()
                    .enumerate()
                    .map(|(w, &c)| 1.0 / m.ipt(w, c))
                    .sum::<f64>();
            println!("  with mcf's own architecture added: harmonic-mean IPT {har:.2}");
        }
    }
    Ok(())
}

pub fn pitfall(o: &Opts) -> Outcome {
    let (m, label) = matrix_for(o)?;
    println!("§5.3 subsetting pitfall [{label}]\n");
    if let (Some(b), Some(g)) = (m.index_of("bzip"), m.index_of("gzip")) {
        println!(
            "  bzip on gzip's architecture: {:.0}% slowdown; gzip on bzip's: {:.0}%\n",
            m.slowdown(b, g) * 100.0,
            m.slowdown(g, b) * 100.0
        );
    }
    for dropped in ["gzip", "bzip"] {
        if m.index_of(dropped).is_none() {
            continue;
        }
        let r = pitfall_experiment(&m, dropped, 2, Merit::HarmonicMean);
        println!(
            "  drop {dropped}: full-set choice {:?} (har {:.3}); reduced choice {:?} delivers {:.3} on the full set ({:.1}% loss)",
            r.full_choice, r.full_value, r.reduced_choice, r.reduced_value_on_full,
            r.loss * 100.0
        );
    }
    Ok(())
}

pub fn schedule(opts: &Opts) -> Outcome {
    let (m, label) = matrix_for(opts)?;
    println!("§5.5 multithreaded job submission [{label}]\n");
    let pair = best_combination(&m, 2, Merit::HarmonicMean).cores;
    println!(
        "  cores: {:?}\n",
        pair.iter()
            .map(|&c| m.names()[c].clone())
            .collect::<Vec<_>>()
    );
    let mut rows = Vec::new();
    for burst in [0.0, 0.4, 0.8] {
        for policy in [JobPolicy::StallForAssigned, JobPolicy::BestAvailable] {
            let mut o = ScheduleOptions::new(pair.clone(), policy);
            o.burstiness = burst;
            o.arrival_rate = 2.0;
            if opts.quick {
                o.jobs = 2000;
            }
            let s = simulate_jobs(&m, &o);
            rows.push(vec![
                format!("{burst:.1}"),
                format!("{policy:?}"),
                format!("{:.3}", s.avg_turnaround),
                format!("{:.3}", s.avg_execution),
                format!("{:.3}", s.avg_wait),
                format!("{:.1}%", s.redirect_rate * 100.0),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "burstiness".into(),
                "policy".into(),
                "turnaround".into(),
                "exec".into(),
                "wait".into(),
                "redirects".into()
            ],
            &rows
        )
    );
    println!("  (burstiness erodes the benefit of workload-to-core matching, as §5.5 argues)");
    let bp = xps_core::communal::balanced_partition(&m, &pair, 1.5);
    println!(
        "\n  BPMST-style balanced partition over the pair: avg slowdown {:.1}%, load imbalance {:.2}",
        bp.average_slowdown * 100.0,
        bp.imbalance
    );
    Ok(())
}

/// The subsetting dendrogram over the raw characteristics of all
/// eleven workload models.
pub fn dendrogram_cmd(o: &Opts) -> Outcome {
    use xps_core::communal::dendrogram;
    let ops = if o.quick { 40_000 } else { 120_000 };
    println!("Dendrogram of raw (Kiviat) characteristics, average linkage\n");
    let mut names = Vec::new();
    let mut points = Vec::new();
    for p in spec::all_profiles() {
        let mut c = Characterizer::new();
        for op in TraceGenerator::new(p.clone()).take(ops) {
            c.observe(&op);
        }
        names.push(p.name.clone());
        points.push(c.finish().kiviat().to_vec());
    }
    let d = dendrogram(&points);
    print!("{}", d.render(&names));
    println!("\ncompare with the surrogating graphs (fig6-fig8): the greedy can pair a benchmark\nwith a different partner at every level, which a dendrogram cannot express (§5.4).");
    Ok(())
}

/// Heat-map view of the cross-configuration slowdown matrix — the
/// xp-scalar framework's visualization tool, in ASCII.
pub fn visualize(o: &Opts) -> Outcome {
    let (m, label) = matrix_for(o)?;
    println!("Cross-configuration slowdown heat map [{label}]\n");
    println!(
        "  rows: benchmark; columns: architecture; shade: . <5%  - <15%  + <30%  * <50%  # >=50%\n"
    );
    let shade = |s: f64| -> char {
        if s < 0.05 {
            '.'
        } else if s < 0.15 {
            '-'
        } else if s < 0.30 {
            '+'
        } else if s < 0.50 {
            '*'
        } else {
            '#'
        }
    };
    let width = m.names().iter().map(|n| n.len()).max().unwrap_or(6);
    print!("{:w$}  ", "", w = width);
    for c in m.names() {
        print!("{:>3}", &c[..c.len().min(3)]);
    }
    println!();
    for w in 0..m.len() {
        print!("{:>wd$}  ", m.names()[w], wd = width);
        for c in 0..m.len() {
            print!("  {}", shade(m.slowdown(w, c)));
        }
        println!();
    }
    Ok(())
}

//! The `repro` command line as two tables. [`FLAGS`] holds every flag:
//! its value placeholder, its help line, and the parser that validates
//! the value into its final type in [`Opts`]. [`COMMANDS`] holds every
//! experiment: whether `repro all` runs it, its summary, the flags it
//! reads with their defaults, and the function it runs. Parsing,
//! `--help` and every error message are generated from the two
//! tables, so a flag is accepted exactly by the commands that read it.

use crate::{ablation, analyze, bench, campaign, paper, serving, studies};
use std::error::Error;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::str::FromStr;
use xps_core::communal::Propagation;
use xps_core::explore::FaultPlan;
use xps_scenario::Family;
use xps_serve::NetFaultPlan;

/// What every command returns.
pub type Outcome = Result<(), Box<dyn Error>>;

/// The value of every flag, parsed once into its final type. A field
/// holds the flag of the same name (see [`FLAGS`]); a flag left unset
/// keeps its `Default` here, and the command applies its own default
/// (listed in its `--help`).
#[derive(Debug, Default)]
pub struct Opts {
    pub quick: bool,
    pub paper_data: bool,
    /// 0 = available parallelism (an explicit `--jobs 0` is rejected).
    pub jobs: usize,
    pub resume: bool,
    pub retries: Option<u32>,
    pub faults: Option<FaultPlan>,
    pub journal: Option<PathBuf>,
    pub addr: Option<String>,
    pub data_dir: Option<PathBuf>,
    pub workers: Vec<String>,
    pub net_faults: Option<NetFaultPlan>,
    pub check: bool,
    pub families: Option<Vec<Family>>,
    pub n: Option<usize>,
    pub seed: Option<u64>,
    pub budget: Option<u64>,
    pub out: Option<PathBuf>,
    pub help: bool,
}

/// One flag: its name, how it takes its value, and its help line.
#[derive(Debug)]
pub struct Flag {
    pub name: &'static str,
    kind: Kind,
    pub help: &'static str,
}

/// How a flag takes its value.
#[derive(Debug)]
enum Kind {
    /// A switch: sets the field it returns.
    Switch(fn(&mut Opts) -> &mut bool),
    /// A value, shown as the placeholder, that the parser validates
    /// into [`Opts`].
    Value(&'static str, fn(&mut Opts, &str) -> Result<(), String>),
}

impl Flag {
    /// `--name VALUE`, as usage lines show it.
    fn synopsis(&self) -> String {
        match self.kind {
            Kind::Value(v, _) => format!("{} {v}", self.name),
            Kind::Switch(_) => self.name.to_string(),
        }
    }
}

fn number<T: FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag} expects a number, got `{v}`"))
}

fn list(v: &str) -> Vec<&str> {
    v.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect()
}

const QUICK: Flag = Flag {
    name: "--quick",
    kind: Kind::Switch(|o| &mut o.quick),
    help: "shrink the run to demo scale",
};

const PAPER_DATA: Flag = Flag {
    name: "--paper-data",
    kind: Kind::Switch(|o| &mut o.paper_data),
    help: "analyse the paper's published Table 5 instead of the measured matrix",
};

const JOBS: Flag = Flag {
    name: "--jobs",
    kind: Kind::Value("N", |o, v| {
        o.jobs = number("--jobs", v)?;
        if o.jobs == 0 {
            return Err(
                "--jobs 0 is not a worker count; pass --jobs N with N >= 1, \
                 or omit --jobs to use all available cores"
                    .to_string(),
            );
        }
        Ok(())
    }),
    help: "worker threads, N >= 1 (results are bit-identical for every value)",
};

const RESUME: Flag = Flag {
    name: "--resume",
    kind: Kind::Switch(|o| &mut o.resume),
    help: "replay the journal of an interrupted run and re-run only the missing tasks",
};

const RETRIES: Flag = Flag {
    name: "--retries",
    kind: Kind::Value("N", |o, v| {
        o.retries = Some(number("--retries", v)?);
        Ok(())
    }),
    help: "extra attempts per task after a failure",
};

const FAULTS: Flag = Flag {
    name: "--faults",
    kind: Kind::Value("SPEC", |o, v| {
        o.faults = Some(FaultPlan::parse(v)?);
        Ok(())
    }),
    help: "deterministic task fault injection, e.g. rate=20,seed=7,attempts=1,kind=panic",
};

const JOURNAL: Flag = Flag {
    name: "--journal",
    kind: Kind::Value("PATH", |o, v| {
        o.journal = Some(PathBuf::from(v));
        Ok(())
    }),
    help: "checkpoint journal location",
};

const ADDR: Flag = Flag {
    name: "--addr",
    kind: Kind::Value("HOST:PORT", |o, v| {
        if !v.contains(':') {
            return Err(format!("--addr expects HOST:PORT, got `{v}`"));
        }
        o.addr = Some(v.to_string());
        Ok(())
    }),
    help: "daemon bind address",
};

const DATA_DIR: Flag = Flag {
    name: "--data-dir",
    kind: Kind::Value("PATH", |o, v| {
        o.data_dir = Some(PathBuf::from(v));
        Ok(())
    }),
    help: "daemon state root",
};

const WORKERS: Flag = Flag {
    name: "--workers",
    kind: Kind::Value("HOST:PORT,..", |o, v| {
        let workers = list(v);
        if let Some(bad) = workers.iter().find(|w| !w.contains(':')) {
            return Err(format!("--workers expects HOST:PORT entries, got `{bad}`"));
        }
        o.workers = workers.into_iter().map(String::from).collect();
        Ok(())
    }),
    help: "scatter tasks over these fleet workers",
};

const NET_FAULTS: Flag = Flag {
    name: "--net-faults",
    kind: Kind::Value("SPEC", |o, v| {
        o.net_faults = Some(NetFaultPlan::parse(v)?);
        Ok(())
    }),
    help: "seeded network fault injection, e.g. drop=10,seed=3",
};

const CHECK: Flag = Flag {
    name: "--check",
    kind: Kind::Switch(|o| &mut o.check),
    help: "compare against the committed bench file instead of rewriting it",
};

const FAMILIES: Flag = Flag {
    name: "--families",
    kind: Kind::Value("LIST", |o, v| {
        let entries = list(v);
        if entries.is_empty() {
            return Err("--families expects a comma-separated list, e.g. \
                 `--families expected,stress,adversarial`"
                .to_string());
        }
        o.families = Some(
            entries
                .into_iter()
                .map(Family::parse)
                .collect::<Result<_, _>>()?,
        );
        Ok(())
    }),
    help: "scenario families, comma-separated",
};

const N: Flag = Flag {
    name: "--n",
    kind: Kind::Value("N", |o, v| {
        let n = number("--n", v)?;
        if n < 4 {
            return Err(format!(
                "--n {n} is too small for the methodology comparison; \
                 pass --n N with N >= 4"
            ));
        }
        o.n = Some(n);
        Ok(())
    }),
    help: "population size, N >= 4",
};

const SEED: Flag = Flag {
    name: "--seed",
    kind: Kind::Value("N", |o, v| {
        o.seed = Some(number("--seed", v)?);
        Ok(())
    }),
    help: "random seed",
};

const BUDGET: Flag = Flag {
    name: "--budget",
    kind: Kind::Value("N", |o, v| {
        let b = number("--budget", v)?;
        if b == 0 {
            return Err("--budget 0 would let no explorer evaluate anything; \
                 pass --budget N with N >= 1"
                .to_string());
        }
        o.budget = Some(b);
        Ok(())
    }),
    help: "evaluations per explorer per workload, N >= 1",
};

const OUT: Flag = Flag {
    name: "--out",
    kind: Kind::Value("PATH", |o, v| {
        o.out = Some(PathBuf::from(v));
        Ok(())
    }),
    help: "canonical report destination",
};

/// Accepted by every command (as is its short form `-h`).
const HELP: Flag = Flag {
    name: "--help",
    kind: Kind::Switch(|o| &mut o.help),
    help: "print this help",
};

/// Every flag `repro` knows.
pub static FLAGS: [Flag; 18] = [
    QUICK, PAPER_DATA, JOBS, RESUME, RETRIES, FAULTS, JOURNAL, ADDR, DATA_DIR, WORKERS, NET_FAULTS,
    CHECK, FAMILIES, N, SEED, BUDGET, OUT, HELP,
];

/// Flags a command reads, each with the default it has there.
type Accepts = &'static [(Flag, &'static str)];

const PAPER: Accepts = &[(PAPER_DATA, "off; analyse the measured matrix")];

/// The measured campaign's flags: every command that can reach
/// [`campaign::measured`] reads them.
const CAMPAIGN: Accepts = &[
    (QUICK, "off; the full budget simulates ~10^9 micro-ops"),
    (JOBS, "available parallelism"),
    (RESUME, "off"),
    (RETRIES, "2"),
    (FAULTS, "none"),
    (JOURNAL, campaign::JOURNAL_PATH),
];

/// One `repro` experiment.
#[derive(Debug)]
pub struct Command {
    pub name: &'static str,
    /// Whether `repro all` runs it (in table order).
    pub in_all: bool,
    pub summary: &'static str,
    /// The flags it reads, in groups.
    pub flags: &'static [Accepts],
    pub run: fn(&Opts) -> Outcome,
}

impl Command {
    fn accepted(&self) -> impl Iterator<Item = &(Flag, &'static str)> {
        self.flags.iter().flat_map(|group| group.iter())
    }

    fn accepts(&self, flag: &Flag) -> bool {
        flag.name == HELP.name || self.accepted().any(|(f, _)| f.name == flag.name)
    }

    fn flag_list(&self) -> String {
        let flags: Vec<String> = self.accepted().map(|(f, _)| f.synopsis()).collect();
        if flags.is_empty() {
            "none".to_string()
        } else {
            flags.join(" ")
        }
    }

    /// `repro <name> --help`: the summary and every flag with its
    /// default.
    pub fn help(&self) -> String {
        let mut s = format!("usage: repro {} [flags]\n\n{}\n", self.name, self.summary);
        if self.accepted().next().is_some() {
            s.push_str("\nflags (with defaults):\n");
        }
        for (flag, default) in self.accepted() {
            let _ = writeln!(s, "  {:<24}{}", flag.synopsis(), flag.help);
            let _ = writeln!(s, "  {:<24}default: {default}", "");
        }
        s
    }
}

/// An experiment over the Table 5 matrix — the published one under
/// `--paper-data`, else the measured campaign's, whose flags it
/// therefore reads. `repro all` runs it.
const fn matrix(name: &'static str, summary: &'static str, run: fn(&Opts) -> Outcome) -> Command {
    Command {
        name,
        in_all: true,
        summary,
        flags: &[PAPER, CAMPAIGN],
        run,
    }
}

/// An experiment on fixed inputs, reading no flag. `repro all` runs
/// it.
const fn fixed(name: &'static str, summary: &'static str, run: fn(&Opts) -> Outcome) -> Command {
    Command {
        name,
        in_all: true,
        summary,
        flags: &[],
        run,
    }
}

/// Every experiment `repro` knows; `repro all` runs those marked
/// `in_all`, in this order.
pub static COMMANDS: &[Command] = &[
    Command {
        name: "explore",
        in_all: false,
        summary: "run the measured exploration campaign and persist it",
        flags: &[CAMPAIGN],
        run: |o| campaign::explore(o).map(drop),
    },
    fixed(
        "table1",
        "unit → CACTI-query mapping with reference delays",
        paper::table1,
    ),
    fixed("table2", "fixed technology parameters", paper::table2),
    fixed("table3", "the initial configuration", paper::table3),
    matrix(
        "table4",
        "customized configurations per benchmark",
        paper::table4,
    ),
    matrix("table5", "cross-configuration IPT matrix", paper::table5),
    matrix(
        "table6",
        "best core combinations per figure of merit",
        paper::table6,
    ),
    matrix("table7", "dual-core design summary", paper::table7_cmd),
    Command {
        name: "fig1",
        in_all: true,
        summary: "Kiviat graphs of raw workload characteristics",
        flags: &[&[(QUICK, "off; 150k ops per workload (--quick: 40k)")]],
        run: paper::fig1,
    },
    fixed("fig2", "clock-period / sizing slack scenarios", paper::fig2),
    matrix(
        "fig3",
        "subset-first vs customize-first methodologies",
        paper::fig3,
    ),
    matrix(
        "fig4",
        "per-benchmark IPT under different core sets",
        paper::fig4,
    ),
    fixed("fig5", "propagation-mode illustration", paper::fig5),
    matrix("fig6", "greedy surrogates, no propagation", |o| {
        paper::figs678(o, Propagation::None)
    }),
    matrix("fig7", "greedy surrogates, full propagation", |o| {
        paper::figs678(o, Propagation::ForwardBackward)
    }),
    matrix("fig8", "greedy surrogates, forward propagation", |o| {
        paper::figs678(o, Propagation::Forward)
    }),
    matrix(
        "appendix-a",
        "percentage-slowdown matrix",
        paper::appendix_a,
    ),
    matrix("pitfall", "the §5.3 subsetting pitfall", paper::pitfall),
    matrix(
        "schedule",
        "§5.5 job-arrival contention study",
        paper::schedule,
    ),
    fixed(
        "ablation-tech",
        "how technology scaling shifts customized configs",
        ablation::tech,
    ),
    fixed(
        "ablation-power",
        "performance-optimal vs EDP-optimal customization",
        ablation::power,
    ),
    fixed(
        "ablation-predictor",
        "mispredict/IPT sensitivity to the predictor",
        ablation::predictor,
    ),
    fixed(
        "ablation-search",
        "simulated annealing vs exhaustive grid search",
        ablation::search,
    ),
    fixed(
        "ablation-prefetch",
        "what a prefetcher would absorb of the story",
        ablation::prefetch,
    ),
    Command {
        name: "dendrogram",
        in_all: true,
        summary: "subsetting dendrogram of raw characteristics",
        flags: &[&[(QUICK, "off; 120k ops per workload (--quick: 40k)")]],
        run: paper::dendrogram_cmd,
    },
    matrix(
        "visualize",
        "cross-configuration slowdown heat map",
        paper::visualize,
    ),
    Command {
        name: "profile",
        in_all: false,
        summary: "self-profile a gzip+mcf exploration: phase table, trace journal, stacks",
        flags: &[&[
            (QUICK, "off; smoke scale with --quick, same trace structure"),
            (JOBS, "available parallelism"),
        ]],
        run: campaign::profile,
    },
    Command {
        name: "serve",
        in_all: false,
        summary: "run a fleet worker daemon (POST /tasks) until SIGTERM",
        flags: &[&[
            (ADDR, serving::DEFAULT_ADDR),
            (DATA_DIR, serving::DEFAULT_DATA_DIR),
        ]],
        run: serving::serve,
    },
    Command {
        name: "fleet",
        in_all: false,
        summary: "scatter a gzip+mcf campaign over fleet workers, gather its document",
        flags: &[&[
            (WORKERS, "none; run coordinator-local"),
            (QUICK, "off; the quick profile (--quick: smoke)"),
            (JOBS, "available parallelism"),
            (RETRIES, "3"),
            (NET_FAULTS, "none, or XPS_NET_FAULTS"),
            (OUT, serving::FLEET_OUT),
        ]],
        run: serving::fleet,
    },
    Command {
        name: "analyze",
        in_all: false,
        summary: "static analysis: lint workspace sources, validate artifacts",
        flags: &[],
        run: analyze::analyze,
    },
    Command {
        name: "scale",
        in_all: false,
        summary: "the subsetting study over a synthetic population: gaps, pitfall rate",
        flags: &[&[
            (FAMILIES, "expected,stress,adversarial"),
            (N, "96"),
            (SEED, "42, the population seed"),
            (OUT, studies::SCALE_OUT),
            (
                QUICK,
                "off; the quick pipeline per panel (--quick: smoke scale)",
            ),
            (JOBS, "available parallelism, per panel campaign"),
            (WORKERS, "none; run coordinator-local"),
            (RETRIES, "2"),
            (NET_FAULTS, "none, or XPS_NET_FAULTS"),
            (FAULTS, "none"),
        ]],
        run: studies::scale,
    },
    Command {
        name: "bakeoff",
        in_all: false,
        summary: "anneal vs genetic vs surrogate search at an equal evaluation budget",
        flags: &[&[
            (
                QUICK,
                "off; 11 SPEC profiles, 6 scenario members, budget 60 \
                 (--quick: 3 profiles, 4 members, budget 14)",
            ),
            (BUDGET, "14 with --quick, 60 without"),
            (SEED, "24301, shared by every explorer"),
            (FAMILIES, "expected,stress,adversarial"),
            (N, "4 with --quick, 6 without"),
            (OUT, studies::BAKEOFF_OUT),
            (JOBS, "available parallelism"),
            (RESUME, "off"),
            (JOURNAL, studies::BAKEOFF_JOURNAL_PATH),
            (WORKERS, "none; run coordinator-local"),
            (RETRIES, "2"),
            (NET_FAULTS, "none, or XPS_NET_FAULTS"),
            (FAULTS, "none"),
        ]],
        run: studies::bakeoff,
    },
    Command {
        name: "bench",
        in_all: false,
        summary: "time the reference vs optimized cycle engine into the bench file",
        flags: &[&[
            (QUICK, "off; budgets 50k and 400k ops (--quick: 50k)"),
            (
                CHECK,
                "off; fail on a >10% geomean or >25% single-row regression",
            ),
        ]],
        run: bench::bench,
    },
    Command {
        name: "all",
        in_all: false,
        summary: "every experiment marked * above, in order",
        flags: &[PAPER, CAMPAIGN],
        run: run_all,
    },
    Command {
        name: "help",
        in_all: false,
        summary: "list the experiments",
        flags: &[],
        run: |_| {
            print!("{}", overview());
            Ok(())
        },
    },
];

fn run_all(o: &Opts) -> Outcome {
    for c in COMMANDS.iter().filter(|c| c.in_all) {
        println!("\n================ {} ================\n", c.name);
        (c.run)(o)?;
    }
    Ok(())
}

fn command(name: &str) -> Option<&'static Command> {
    COMMANDS.iter().find(|c| c.name == name)
}

const USAGE: &str = "usage: repro <experiment> [flags]  \
(`repro help` lists the experiments, `repro <experiment> --help` its flags)";

/// `repro help`: every experiment with its summary.
pub fn overview() -> String {
    let mut s = format!("{USAGE}\n\nexperiments (* = run by `repro all`):\n");
    for c in COMMANDS {
        let mark = if c.in_all { '*' } else { ' ' };
        let _ = writeln!(s, "  {mark} {:<20}{}", c.name, c.summary);
    }
    s
}

/// Parse the argument list strictly: the experiment must exist, every
/// flag must be one the experiment reads, and every value is
/// validated into its final type. Anything else is a one-line
/// actionable error, so a typo or a misplaced flag can never silently
/// run something other than what was asked.
pub fn parse(args: &[String]) -> Result<(&'static Command, Opts), String> {
    let mut cmd: Option<&'static Command> = None;
    let mut given: Vec<(&'static Flag, String)> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        i += 1;
        if !arg.starts_with('-') {
            if let Some(c) = cmd {
                return Err(format!(
                    "unexpected argument `{arg}` (already running `{}`; \
                     one experiment per invocation)",
                    c.name
                ));
            }
            cmd = Some(command(arg).ok_or_else(|| {
                let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
                format!("unknown experiment `{arg}`; available: {}", names.join(" "))
            })?);
            continue;
        }
        let (name, inline) = match arg.split_once('=') {
            Some((name, v)) => (name, Some(v)),
            None => (arg.as_str(), None),
        };
        let name = if name == "-h" { HELP.name } else { name };
        let flag = FLAGS.iter().find(|f| f.name == name).ok_or_else(|| {
            let hint = match cmd {
                Some(c) => format!("flags of `repro {}`: {}", c.name, c.flag_list()),
                None => "see `repro help`".to_string(),
            };
            format!("unknown flag `{name}` ({hint})")
        })?;
        let value = match (&flag.kind, inline) {
            (Kind::Switch(_), Some(_)) => {
                return Err(format!("{name} takes no value (got `{arg}`)"))
            }
            (Kind::Switch(_), None) => String::new(),
            (Kind::Value(..), Some(v)) => v.to_string(),
            (Kind::Value(v, _), None) => {
                let value = args.get(i).cloned().ok_or_else(|| {
                    format!("{name} requires a value (as in `{name} {v}` or `{name}={v}`)")
                })?;
                i += 1;
                value
            }
        };
        given.push((flag, value));
    }
    let Some(cmd) = cmd else {
        if given.iter().any(|(f, _)| f.name == HELP.name) {
            return Ok((
                command("help").expect("the table has `help`"),
                Opts::default(),
            ));
        }
        return Err(format!("missing experiment; {USAGE}"));
    };
    let mut opts = Opts::default();
    for (flag, value) in given {
        if !cmd.accepts(flag) {
            return Err(format!(
                "`{}` is not a flag of `repro {}` (flags: {})",
                flag.name,
                cmd.name,
                cmd.flag_list()
            ));
        }
        match flag.kind {
            Kind::Switch(field) => *field(&mut opts) = true,
            Kind::Value(_, set) => set(&mut opts, &value)?,
        }
    }
    Ok((cmd, opts))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_args(args: &[&str]) -> Result<(&'static Command, Opts), String> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse(&owned)
    }

    #[test]
    fn flags_parse_in_both_spellings() {
        let (c, o) = parse_args(&[
            "explore",
            "--quick",
            "--jobs=3",
            "--resume",
            "--retries",
            "5",
            "--journal",
            "j.jsonl",
        ])
        .expect("valid command line");
        assert_eq!(c.name, "explore");
        assert!(o.quick && o.resume && !o.paper_data);
        assert_eq!(o.jobs, 3);
        assert_eq!(o.retries, Some(5));
        assert_eq!(o.journal, Some(PathBuf::from("j.jsonl")));
    }

    #[test]
    fn jobs_zero_is_rejected_with_guidance() {
        let e = parse_args(&["explore", "--jobs", "0"]).expect_err("--jobs 0 must be rejected");
        assert!(e.contains("--jobs"), "unhelpful message: {e}");
        assert!(e.contains("omit"), "message must say how to get auto: {e}");
    }

    #[test]
    fn unknown_flag_is_rejected_not_ignored() {
        let e = parse_args(&["table4", "--jbos", "4"]).expect_err("typo must be rejected");
        assert!(e.contains("unknown flag `--jbos`"), "message: {e}");
        assert!(
            e.contains("--jobs N"),
            "message must list table4's flags: {e}"
        );
    }

    #[test]
    fn extra_positional_is_rejected() {
        let e = parse_args(&["table4", "table5"]).expect_err("two experiments");
        assert!(e.contains("table5"), "message: {e}");
    }

    #[test]
    fn missing_experiment_is_rejected() {
        let e = parse_args(&["--quick"]).expect_err("no experiment");
        assert!(e.contains("missing experiment"), "message: {e}");
    }

    #[test]
    fn missing_value_is_rejected() {
        let e = parse_args(&["fleet", "--workers"]).expect_err("no value");
        assert!(e.contains("--workers requires a value"), "message: {e}");
    }

    #[test]
    fn malformed_faults_spec_fails_at_parse_time() {
        let e = parse_args(&["explore", "--faults", "rate=200"]).expect_err("bad rate");
        assert!(e.contains("100"), "message: {e}");
        let (_, o) = parse_args(&[
            "explore",
            "--faults",
            "rate=20,seed=7,attempts=1,kind=panic",
        ])
        .expect("valid spec");
        assert_eq!(
            o.faults,
            Some(FaultPlan::parse("rate=20,seed=7,attempts=1,kind=panic").expect("valid"))
        );
    }

    #[test]
    fn serving_flags_parse_and_validate() {
        let (c, o) = parse_args(&["serve", "--addr", "0.0.0.0:9000", "--data-dir=/tmp/d"])
            .expect("valid serve command line");
        assert_eq!(c.name, "serve");
        assert_eq!(o.addr.as_deref(), Some("0.0.0.0:9000"));
        assert_eq!(o.data_dir, Some(PathBuf::from("/tmp/d")));
        let e = parse_args(&["serve", "--addr", "no-port"]).expect_err("missing port");
        assert!(e.contains("HOST:PORT"), "message: {e}");
    }

    #[test]
    fn boolean_flags_take_no_value() {
        let e = parse_args(&["table4", "--quick=yes"]).expect_err("boolean with value");
        assert!(e.contains("takes no value"), "message: {e}");
    }

    #[test]
    fn scale_flags_parse_and_validate() {
        let (c, o) = parse_args(&[
            "scale",
            "--families",
            "expected, adversarial",
            "--n",
            "100",
            "--seed=7",
            "--out",
            "r/scale.json",
        ])
        .expect("valid scale command line");
        assert_eq!(c.name, "scale");
        assert_eq!(
            o.families,
            Some(vec![Family::Expected, Family::Adversarial])
        );
        assert_eq!(o.n, Some(100));
        assert_eq!(o.seed, Some(7));
        assert_eq!(o.out, Some(PathBuf::from("r/scale.json")));
        let e = parse_args(&["scale", "--families", "expectde"]).expect_err("typo family");
        assert!(e.contains("expected"), "message must list families: {e}");
        let e = parse_args(&["scale", "--n", "3"]).expect_err("n too small");
        assert!(e.contains(">= 4"), "message: {e}");
        let e = parse_args(&["scale", "--seed", "x"]).expect_err("bad seed");
        assert!(e.contains("--seed"), "message: {e}");
    }

    #[test]
    fn unknown_experiment_lists_every_subcommand() {
        let e = parse_args(&["scal"]).expect_err("typo experiment");
        for c in COMMANDS {
            assert!(e.contains(c.name), "error must list `{}`: {e}", c.name);
        }
    }

    #[test]
    fn fleet_flags_parse_and_validate() {
        let (c, o) = parse_args(&[
            "fleet",
            "--workers",
            "127.0.0.1:7801, 127.0.0.1:7802",
            "--net-faults=drop=10,seed=3",
            "--out",
            "f.json",
        ])
        .expect("valid fleet command line");
        assert_eq!(c.name, "fleet");
        assert_eq!(o.workers, vec!["127.0.0.1:7801", "127.0.0.1:7802"]);
        assert_eq!(
            o.net_faults,
            Some(NetFaultPlan::parse("drop=10,seed=3").expect("valid"))
        );
        assert_eq!(o.out, Some(PathBuf::from("f.json")));
        let (_, o) = parse_args(&["fleet", "--workers", ""]).expect("no workers is local");
        assert!(o.workers.is_empty());
        let e = parse_args(&["fleet", "--workers", "no-port"]).expect_err("missing port");
        assert!(e.contains("HOST:PORT"), "message: {e}");
        let e = parse_args(&["fleet", "--net-faults", "drop=200"]).expect_err("bad rate");
        assert!(e.contains("100"), "message: {e}");
    }

    #[test]
    fn bakeoff_flags_parse_and_validate() {
        let (c, o) = parse_args(&["bakeoff", "--quick", "--budget", "25", "--seed=7"])
            .expect("valid bakeoff command line");
        assert_eq!(c.name, "bakeoff");
        assert!(o.quick);
        assert_eq!(o.budget, Some(25));
        assert_eq!(o.seed, Some(7));
        let e = parse_args(&["bakeoff", "--budget", "0"]).expect_err("zero budget");
        assert!(e.contains("--budget"), "message: {e}");
        let e = parse_args(&["bakeoff", "--budget", "many"]).expect_err("non-numeric");
        assert!(e.contains("number"), "message: {e}");
    }

    #[test]
    fn flags_a_command_does_not_read_are_rejected() {
        for line in [
            "scale --resume",
            "scale --journal p",
            "table1 --workers h:1",
            "fleet --budget 5",
            "explore --check",
            "serve --quick",
            "serve --jobs 2",
        ] {
            let args: Vec<&str> = line.split(' ').collect();
            let (cmd, flag) = (args[0], args[1]);
            let e = parse_args(&args).expect_err("out-of-scope flag must be rejected");
            assert!(
                e.starts_with(&format!("`{flag}` is not a flag of `repro {cmd}` (flags: ")),
                "message: {e}"
            );
            let listed = command(cmd).expect("known command").flag_list();
            assert!(e.contains(&listed), "message must list the flags: {e}");
        }
    }

    #[test]
    fn every_help_names_every_flag_it_accepts() {
        for c in COMMANDS {
            let help = c.help();
            assert!(
                help.contains(c.summary),
                "{} help lacks its summary",
                c.name
            );
            for (flag, default) in c.accepted() {
                assert!(
                    help.contains(&flag.synopsis()),
                    "`repro {} --help` must name {}:\n{help}",
                    c.name,
                    flag.name
                );
                assert!(help.contains(default), "{} default missing", flag.name);
            }
            let (parsed, o) = parse_args(&[c.name, "--help"]).expect("every command takes --help");
            assert!(o.help && parsed.name == c.name);
        }
        assert!(overview().contains("* table1"));
        let (c, _) = parse_args(&["-h"]).expect("bare help");
        assert_eq!(c.name, "help");
    }

    #[test]
    fn study_help_keeps_its_defaults() {
        let help = |name: &str| command(name).expect("known command").help();
        let scale = help("scale");
        for default in [
            "96",
            "42",
            "results/scale.json",
            "expected,stress,adversarial",
        ] {
            assert!(
                scale.contains(default),
                "scale help lacks {default}:\n{scale}"
            );
        }
        let bakeoff = help("bakeoff");
        for default in [
            "24301",
            "14 with --quick, 60 without",
            "4 with --quick, 6 without",
            "results/bakeoff.json",
            "results/bakeoff-journal.jsonl",
        ] {
            assert!(
                bakeoff.contains(default),
                "bakeoff help lacks {default}:\n{bakeoff}"
            );
        }
    }
}

//! Failure campaigns: the control-plane loss sweep, the correlated
//! multi-failure sweep, the adversarial sweep, and the restart storm.
//!
//! Each family is a [`Regime`]: it enumerates its cells, runs one cell
//! into telemetry, and declares its table as column specs. One driver
//! runs any of them at `--jobs N` and streams its table; every table is
//! deterministic per seed and byte-identical for every job count.
//!
//! Usage: `campaign [--quick] [--seed N] [--regime NAME] [--jobs N]
//! [--bench-json [PATH]]`
//!
//! * `--quick`        reduced horizon and event counts (CI);
//! * `--seed N`       master seed for every sweep (default 7);
//! * `--regime NAME`  run only the family owning that regime, narrowed to
//!   it: a multi-failure one (`indep-links`, `srlg-bursts`,
//!   `node-crashes`), an adversarial one (`byzantine-lsa`,
//!   `false-reports`, `flash-crowd`, `regional-storm`), or the restart
//!   one (`restart-storm`);
//! * `--jobs N`       worker threads for the sweeps (default 1); the
//!   output is byte-identical for every job count;
//! * `--bench-json [PATH]` run the bench harness instead of the sweeps
//!   and write its JSON report (default `BENCH_routing.json`).

use drt_experiments::adversarial::{AdversarialCampaign, AdversarialConfig, AdversarialRegime};
use drt_experiments::campaign::{CampaignConfig, LossCampaign};
use drt_experiments::config::ExperimentConfig;
use drt_experiments::multi_failure::{FailureRegime, MultiFailureCampaign, MultiFailureConfig};
use drt_experiments::regime::{self, Regime};
use drt_experiments::restart::{self, RestartCampaign, RestartConfig};
use std::io::Write;

/// What every family is run with.
struct Run {
    cfg: ExperimentConfig,
    quick: bool,
    seed: u64,
    jobs: usize,
}

impl Run {
    /// `full` or, under `--quick`, `small`.
    fn scaled<C>(&self, full: fn() -> C, small: fn() -> C) -> C {
        if self.quick {
            small()
        } else {
            full()
        }
    }

    /// Streams `regime`'s table to stdout as its cells complete, then
    /// its footer.
    fn print(&self, regime: &impl Regime) {
        eprintln!(
            "campaign: {} — {} cells, seed {}, jobs {} ...",
            regime.title(),
            regime.cells().len(),
            self.seed,
            self.jobs
        );
        let merged = regime::stream(regime, self.jobs, |s| {
            print!("{s}");
            let _ = std::io::stdout().flush();
        });
        print!("{}", regime.footer(&merged));
    }
}

/// A family: the `--regime` names it owns, and how to run it — whole, or
/// narrowed to one of its names.
struct Family {
    names: fn() -> Vec<&'static str>,
    run: fn(&Run, Option<&str>),
}

/// Every family, in the order a full run prints them.
const FAMILIES: [Family; 4] = [
    Family {
        names: Vec::new,
        run: |r, _| {
            let c = CampaignConfig {
                seed: r.seed,
                ..r.scaled(CampaignConfig::default, CampaignConfig::quick)
            };
            r.print(&LossCampaign::new(&r.cfg, &c));
        },
    },
    Family {
        names: || FailureRegime::ALL.map(FailureRegime::label).to_vec(),
        run: |r, only| {
            let mut c = MultiFailureConfig {
                seed: r.seed,
                ..r.scaled(MultiFailureConfig::default, MultiFailureConfig::quick)
            };
            c.regimes.retain(|g| only.is_none_or(|o| o == g.label()));
            r.print(&MultiFailureCampaign::new(&r.cfg, &c));
        },
    },
    Family {
        names: || {
            AdversarialRegime::ALL
                .map(AdversarialRegime::label)
                .to_vec()
        },
        run: |r, only| {
            let mut c = AdversarialConfig {
                seed: r.seed,
                ..r.scaled(AdversarialConfig::default, AdversarialConfig::quick)
            };
            c.regimes.retain(|g| only.is_none_or(|o| o == g.label()));
            r.print(&AdversarialCampaign::new(&r.cfg, &c));
        },
    },
    Family {
        names: || vec![restart::REGIME],
        run: |r, _| {
            let c = RestartConfig {
                seed: r.seed,
                ..r.scaled(RestartConfig::default, RestartConfig::quick)
            };
            r.print(&RestartCampaign::new(&r.cfg, &c));
        },
    },
];

fn main() {
    let mut quick = false;
    let mut seed: u64 = 7;
    let mut regime: Option<String> = None;
    let mut jobs: usize = 1;
    let mut bench_json: Option<String> = None;
    let known: Vec<&str> = FAMILIES.iter().flat_map(|f| (f.names)()).collect();
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--seed" => {
                let v = args.next().unwrap_or_default();
                seed = v.parse().unwrap_or_else(|_| {
                    eprintln!("campaign: --seed needs an integer, got {v:?}");
                    std::process::exit(2);
                });
            }
            "--regime" => {
                let v = args.next().unwrap_or_default();
                if !known.contains(&v.as_str()) {
                    eprintln!("campaign: unknown regime {v:?}; known: {known:?}");
                    std::process::exit(2);
                }
                regime = Some(v);
            }
            "--jobs" => {
                let v = args.next().unwrap_or_default();
                jobs = v.parse().unwrap_or_else(|_| {
                    eprintln!("campaign: --jobs needs an integer, got {v:?}");
                    std::process::exit(2);
                });
            }
            "--bench-json" => {
                // Optional path operand; defaults to BENCH_routing.json.
                let path = match args.peek() {
                    Some(p) if !p.starts_with("--") => args.next().unwrap(),
                    _ => "BENCH_routing.json".to_string(),
                };
                bench_json = Some(path);
            }
            other => {
                eprintln!("campaign: unknown argument {other:?}");
                eprintln!(
                    "usage: campaign [--quick] [--seed N] [--regime NAME] \
                     [--jobs N] [--bench-json [PATH]]"
                );
                std::process::exit(2);
            }
        }
    }

    if let Some(path) = bench_json {
        let jobs = if jobs <= 1 { 8 } else { jobs };
        eprintln!("bench: timing routing hot paths and the end-to-end campaign (jobs {jobs}) ...");
        let report = drt_experiments::bench::run(quick, seed, jobs);
        std::fs::write(&path, report.to_json()).unwrap_or_else(|e| {
            eprintln!("campaign: cannot write {path}: {e}");
            std::process::exit(1);
        });
        for t in &report.targets {
            eprintln!("  {:<22} {:>12.0} ns/op", t.name, t.median_ns);
        }
        eprintln!(
            "  end-to-end: sparse+serial {:.2}s vs dense+{} jobs {:.2}s ({:.2}x, {} cpu(s))",
            report.sparse_serial_s,
            report.jobs,
            report.dense_jobs_s,
            report.speedup(),
            report.cpus
        );
        eprintln!("bench: wrote {path}");
        return;
    }

    let run = Run {
        cfg: if quick {
            ExperimentConfig::quick(3.0)
        } else {
            ExperimentConfig::paper(3.0)
        },
        quick,
        seed,
        jobs,
    };
    // `--regime` runs only the family owning that name, narrowed to it;
    // otherwise every family runs whole.
    let only = regime.as_deref();
    for family in &FAMILIES {
        if only.is_none_or(|o| (family.names)().contains(&o)) {
            (family.run)(&run, only);
        }
    }
}

//! The engine workloads: `ta-sym`, `ta-zones` and `quant`.
//!
//! Each workload is a mix of check kinds served in blocks: every block
//! holds each kind once, in an order drawn from `(seed, block)`. The mix
//! is therefore exactly 1:1 (or 1:1:1) in every window, and the seed fixes
//! the order and every engine seed. One client calls the engines' public
//! query entry points directly, at the engines' default worker count.
//!
//! Every verdict is checked against an answer the engine under test did
//! not produce: train-gate safety and deadlock-freedom hold by
//! construction, BRP's `Pmax(P1)` and chain(20)'s goal probability have
//! closed forms, and the SMC estimate is tested against the closed-form
//! P1 with an exact binomial test, per check and pooled over a run.

use std::time::{Duration, Instant};

use tempo_core::modest::Mcpta;
use tempo_core::obs::{Budget, ExploreConfig, Outcome};
use tempo_core::rare::{RareChecker, SplitConfig};
use tempo_core::smc::{RatePolicy, StatisticalChecker};
use tempo_core::ta::{ModelChecker, StateFormula, Stats, Verdict};
use tempo_models::{brp, brp_network, chain, train_gate, BrpNetwork, Chain, TrainGate};

use crate::rng::{derive, Rng};
use crate::trace::Tracer;
use crate::{Counts, Pass, Record, WorkloadId};

/// BRP instance of the `mcpta` check.
const BRP_MCPTA: (i64, i64, i64) = (32, 2, 1);
/// BRP instance of the SMC check.
const BRP_SMC: (i64, i64, i64) = (16, 2, 1);
/// Simulation runs per SMC check.
const SMC_RUNS: usize = 100;
/// Stages of the rare-event chain (`p = 2^-20`).
const CHAIN_K: usize = 20;
/// Absolute tolerance of value iteration on `Pmax`, the one `tempo check`
/// validates `mcpta` certificates with.
const VI_TOLERANCE: f64 = 1e-9;
/// Confidence of the splitting interval. At the default effort the
/// interval spans about a factor of five either way at this level; in
/// 400 seeded trials at 0.999 none missed `2^-20`.
const SPLIT_CONFIDENCE: f64 = 0.99999;
/// Significance of the exact binomial tests on the SMC hit count: a
/// correct simulator fails one in at most one case in a million.
const SMC_ALPHA: f64 = 1e-6;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Check {
    /// Train-gate(n) `A[]` safety.
    TgAlways { n: usize, symmetry: bool },
    /// Train-gate(n) deadlock-freedom.
    TgDeadlock { n: usize, symmetry: bool },
    /// BRP `mcpta` `Pmax(P1)`: compile, MDP build, value iteration.
    BrpPmax,
    /// chain(20) fixed-effort splitting.
    ChainSplit,
    /// BRP network SMC `Pr[<=T](<> P1)`.
    BrpSmc,
}

impl Check {
    pub fn kind(self) -> &'static str {
        match self {
            Check::TgAlways { .. } => "tg-always",
            Check::TgDeadlock { .. } => "tg-deadlock",
            Check::BrpPmax => "brp-pmax",
            Check::ChainSplit => "chain-split",
            Check::BrpSmc => "brp-smc",
        }
    }
}

pub fn mix(id: WorkloadId) -> &'static [Check] {
    match id {
        // What users run by default: symmetry, POR, LU and slicing on.
        WorkloadId::TaSym => &[
            Check::TgAlways {
                n: 6,
                symmetry: true,
            },
            Check::TgDeadlock {
                n: 5,
                symmetry: true,
            },
        ],
        // Symmetry off: zones, successors and the passed list do the work.
        WorkloadId::TaZones => &[
            Check::TgAlways {
                n: 5,
                symmetry: false,
            },
            Check::TgDeadlock {
                n: 4,
                symmetry: false,
            },
        ],
        // Digital clocks and concrete simulation: no zones at all.
        WorkloadId::Quant => &[Check::BrpPmax, Check::ChainSplit, Check::BrpSmc],
        WorkloadId::SvcMix => &[],
    }
}

struct Tg {
    n: usize,
    model: TrainGate,
    safety: StateFormula,
}

/// Models of one engine workload, built once by set-up.
pub struct Engine {
    id: WorkloadId,
    seed: u64,
    train_gates: Vec<Tg>,
    chain: Chain,
    brp_net: BrpNetwork,
    brp_p1: f64,
}

impl Engine {
    pub fn new(id: WorkloadId, seed: u64) -> Self {
        let mut ns: Vec<usize> = mix(id)
            .iter()
            .filter_map(|c| match *c {
                Check::TgAlways { n, .. } | Check::TgDeadlock { n, .. } => Some(n),
                _ => None,
            })
            .collect();
        ns.dedup();
        let train_gates = ns
            .into_iter()
            .map(|n| {
                let model = train_gate(n);
                let safety = model.safety();
                Tg { n, model, safety }
            })
            .collect();
        let (n, max, td) = BRP_MCPTA;
        Engine {
            id,
            seed,
            train_gates,
            chain: chain(CHAIN_K),
            brp_net: brp_network(BRP_SMC.0, BRP_SMC.1, BRP_SMC.2),
            brp_p1: brp_network(n, max, td).exact_p1(),
        }
    }

    /// The check at position `index` of the stream.
    pub fn check_at(&self, index: u64) -> Check {
        let kinds = mix(self.id);
        let k = kinds.len() as u64;
        let mut order: Vec<usize> = (0..kinds.len()).collect();
        Rng::new(derive(self.seed, index / k)).shuffle(&mut order);
        kinds[order[(index % k) as usize]]
    }

    /// Runs checks `first .. first + n` of the stream, one at a time,
    /// timing the reference kernel before every check; the kernel's time
    /// is left out of the pass's elapsed time and out of every span.
    pub fn pass(&self, first: u64, n: u64, trace: bool) -> Pass {
        let epoch = Instant::now();
        let mut tracer = Tracer::new(trace, epoch);
        let mut ref_ms = Vec::new();
        let records = (first..first + n)
            .map(|index| {
                ref_ms.push(crate::reference::sample_ms());
                self.run_check(self.check_at(index), index, &mut tracer)
            })
            .collect();
        let ref_total = Duration::from_secs_f64(ref_ms.iter().sum::<f64>() / 1e3);
        Pass {
            records,
            elapsed: epoch.elapsed().saturating_sub(ref_total),
            spans: vec![tracer.into_spans()],
            svc: None,
            ref_ms,
        }
    }

    /// Runs `check` with the engine seeds of stream position `index`.
    pub fn run_check(&self, check: Check, index: u64, tracer: &mut Tracer) -> Record {
        let start = Instant::now();
        let (verdict, counts) = tracer.check(index, |t| self.execute(check, index, t));
        Record {
            kind: check.kind(),
            ms: start.elapsed().as_secs_f64() * 1e3,
            failure: verdict.err(),
            counts,
            timings: Vec::new(),
        }
    }

    fn tg(&self, n: usize) -> &Tg {
        self.train_gates
            .iter()
            .find(|t| t.n == n)
            .expect("set-up builds every train gate of the mix")
    }

    fn execute(&self, check: Check, index: u64, t: &mut Tracer) -> (Result<(), String>, Counts) {
        let mut counts = Counts::new();
        let verdict = match check {
            Check::TgAlways { n, symmetry } => {
                let tg = self.tg(n);
                let mut mc = checker(tg, symmetry);
                let out = t.call("ta.check", || {
                    mc.always_governed(&tg.safety, &Budget::unlimited())
                });
                ta_verdict(&out, n, &mut counts, "A[] safety")
            }
            Check::TgDeadlock { n, symmetry } => {
                let tg = self.tg(n);
                let mut mc = checker(tg, symmetry);
                let out = t.call("ta.check", || {
                    mc.deadlock_free_governed(&Budget::unlimited())
                });
                ta_verdict(&out, n, &mut counts, "deadlock-freedom")
            }
            Check::BrpPmax => {
                let built = t.call("modest.build", || {
                    let (n, max, td) = BRP_MCPTA;
                    let model = brp(n, max, td);
                    let mcpta = Mcpta::try_build(&model.pta, &[], &Budget::unlimited());
                    (model, mcpta)
                });
                let (model, mcpta) = built;
                match mcpta.into_value() {
                    None => Err("mcpta: digital-clocks MDP not built".to_owned()),
                    Some(mc) => {
                        let stats = mc.stats();
                        counts.insert("mdp.states", stats.states as u64);
                        counts.insert("mdp.transitions", stats.transitions as u64);
                        let goal = model.p1_goal();
                        let out = t.call("mdp.solve", || {
                            mc.pmax_governed(&goal, &Budget::unlimited())
                        });
                        if out.is_exhausted() {
                            Err("mcpta: value iteration exhausted its budget".to_owned())
                        } else if (out.value() - self.brp_p1).abs() > VI_TOLERANCE {
                            Err(format!(
                                "Pmax(P1) = {} but analytic P1 = {}",
                                out.value(),
                                self.brp_p1
                            ))
                        } else {
                            Ok(())
                        }
                    }
                }
            }
            Check::ChainSplit => {
                let c = &self.chain;
                let config = SplitConfig {
                    confidence: SPLIT_CONFIDENCE,
                    ..SplitConfig::default()
                };
                let mut rc = RareChecker::new(&c.net, RatePolicy::new(), derive(self.seed, index));
                let goal = c.goal();
                let out = t.call("rare.split", || {
                    rc.probability_governed(&goal, c.time_bound(), &config, &Budget::unlimited())
                });
                match out.map(Outcome::into_value) {
                    Err(e) => Err(format!("splitting: {e}")),
                    Ok(None) => Err("splitting exhausted its budget".to_owned()),
                    Ok(Some(est)) => {
                        counts.insert("rare.runs_total", est.runs_total);
                        counts.insert("rare.levels", est.levels.len() as u64);
                        counts.insert("rare.splits_spawned", est.splits_spawned);
                        let exact = c.exact_probability();
                        if est.lower <= exact && exact <= est.upper {
                            Ok(())
                        } else {
                            Err(format!(
                                "splitting CI [{}, {}] misses 2^-{CHAIN_K}",
                                est.lower, est.upper
                            ))
                        }
                    }
                }
            }
            Check::BrpSmc => {
                let b = &self.brp_net;
                let mut smc =
                    StatisticalChecker::new(&b.net, RatePolicy::new(), derive(self.seed, index));
                let goal = b.p1_goal();
                let out = t.call("smc.simulate", || {
                    smc.probability_governed(
                        &goal,
                        b.time_bound(BRP_SMC.2),
                        SMC_RUNS,
                        0.95,
                        &Budget::unlimited(),
                    )
                });
                match out.map(Outcome::into_value) {
                    Err(e) => Err(format!("smc: {e}")),
                    Ok(None) => Err("smc exhausted its budget".to_owned()),
                    Ok(Some(est)) => {
                        counts.insert("smc.runs", est.runs as u64);
                        counts.insert("smc.successes", est.successes as u64);
                        let exact = b.exact_p1();
                        if est.runs != SMC_RUNS {
                            Err(format!("smc ran {} of {SMC_RUNS} runs", est.runs))
                        } else if crate::stats::binomial_contains(
                            est.runs as u64,
                            est.successes as u64,
                            exact,
                            SMC_ALPHA,
                        ) {
                            Ok(())
                        } else {
                            Err(format!(
                                "smc: {}/{} hits is implausible at analytic P1 = {exact}",
                                est.successes, est.runs
                            ))
                        }
                    }
                }
            }
        };
        (verdict, counts)
    }
}

/// The exact binomial test on the SMC hits pooled over `records`. With
/// 100 runs at P1 ≈ 1e-3 a single check expects 0.1 hits, so its own test
/// cannot tell a simulator that never reaches P1 from a correct one; a
/// run's pool of a hundred or more checks expects ten hits or more.
/// Returns the fault, if any.
pub fn smc_pooled_fault(records: &[Record]) -> Option<String> {
    let sum = |key| -> u64 { records.iter().filter_map(|r| r.counts.get(key)).sum() };
    let (runs, hits) = (sum("smc.runs"), sum("smc.successes"));
    let exact = brp_network(BRP_SMC.0, BRP_SMC.1, BRP_SMC.2).exact_p1();
    (runs > 0 && !crate::stats::binomial_contains(runs, hits, exact, SMC_ALPHA)).then(|| {
        format!(
            "smc: {hits}/{runs} hits pooled over the run is implausible at analytic P1 = {exact}"
        )
    })
}

fn checker(tg: &Tg, symmetry: bool) -> ModelChecker<'_> {
    ModelChecker::new(&tg.model.net).with_config(ExploreConfig::default().with_symmetry(symmetry))
}

/// Both train-gate properties hold by construction: the controller's
/// queue admits one train onto the bridge at a time and always has a
/// move. Records the exploration's exact work counters.
fn ta_verdict(
    out: &Outcome<(Verdict, Stats)>,
    trains: usize,
    counts: &mut Counts,
    what: &str,
) -> Result<(), String> {
    let (verdict, stats) = out.value();
    let report = out.report();
    for (key, v) in [
        ("ta.trains", trains as u64),
        ("ta.states_explored", stats.explored as u64),
        ("ta.states_stored", stats.stored as u64),
        ("ta.transitions", stats.transitions as u64),
        ("ta.sym_orbits", stats.sym_orbits as u64),
        ("ta.sym_avoided", stats.sym_avoided as u64),
        ("ta.por_ample", stats.por_ample as u64),
        ("ta.lu_tightened", report.lu_tightened),
        ("ta.sliced_clocks", report.sliced_clocks),
        ("dbm.dim", report.dbm_dim),
    ] {
        counts.insert(key, v);
    }
    if out.is_exhausted() {
        Err(format!("{what}: budget exhausted"))
    } else if !verdict.holds() {
        Err(format!(
            "{what} reported violated; it holds by construction"
        ))
    } else {
        Ok(())
    }
}

/// Wall times of `reps` runs of the `ta-zones` `A[]` check at `threads`
/// workers (for `conc.par2_speedup`).
pub fn par_check_ms(threads: usize, reps: usize) -> Result<Vec<f64>, String> {
    let tg = train_gate(5);
    let safety = tg.safety();
    (0..reps)
        .map(|_| {
            let start = std::time::Instant::now();
            let (v, _) = ModelChecker::new(&tg.net)
                .with_config(ExploreConfig::default().with_symmetry(false))
                .with_threads(threads)
                .always(&safety);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            v.holds()
                .then_some(ms)
                .ok_or_else(|| format!("train-gate(5) safety violated at {threads} workers"))
        })
        .collect()
}

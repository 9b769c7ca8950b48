//! The `svc-mix` workload: two closed-loop clients against one shared
//! `AnalysisService` (default config, memory tier only).
//!
//! The clients draw `tempo-lang` sources from a seeded stream: the
//! corpus files of tiers P0xx–P2xx that route to the `ta` engine
//! (parse-error and lint-error files included) and parameter variants of
//! P200 (`D`) and P201 (`MAX`, `T`). A Zipf popularity skew makes
//! sources repeat, so cache hits sit beside misses. The skew, its
//! exponent and the number of variants are chosen, not measured: no trace
//! of real submissions exists to fit them to. Each client parses,
//! builds, elaborates onto a network, lowers every assert, submits the
//! jobs, and waits for all verdicts; that is one check.
//!
//! Known answers: a corpus file's `-- expect:` header, read with
//! `tempo_lang::parse_header`; for a generated variant, `pass`, which
//! holds by construction (see [`SvcMix::source_at`]).

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tempo_core::lang::ast::AssertKind;
use tempo_core::lang::{self, Expectation};
use tempo_core::obs::{Budget, ExploreConfig, ServiceCounters};
use tempo_core::svc::{
    AnalysisService, JobError, JobKind, JobRequest, JobVerdict, Rejected, ServiceConfig,
    VerdictSource,
};
use tempo_core::ta::StateFormula;

use crate::rng::{derive, Rng};
use crate::trace::Tracer;
use crate::{Counts, Pass, Record};

/// Closed-loop clients; equals the 2-core machine's `nproc`.
pub const CLIENTS: usize = 2;
/// A client times the reference kernel before every this many of its
/// checks: about 6% of its time.
const REF_EVERY: u64 = 50;
/// Zipf exponent of source popularity: the textbook skew of cache
/// studies, an assumption for tempo's traffic.
const ZIPF_S: f64 = 1.0;
/// Variants of each of P200 and P201, chosen so that about half the jobs
/// of a block on a fresh service miss its cache.
const VARIANTS: i64 = 50_000;
/// `MAX` values of the P201 variants (`r` is declared `0..4`).
const P201_MAX: i64 = 4;
/// Seed of the popularity order.
const POPULARITY_SEED: u64 = 0x7e39_0bad;
/// The warm-up source: the corpus train-gate port as committed.
const WARMUP: &str = "P200_train_gate.tempo";

#[derive(Clone)]
struct Source {
    name: String,
    text: String,
    expect: Expectation,
}

pub struct SvcMix {
    seed: u64,
    corpus: Vec<Source>,
    p200: String,
    p201: String,
    /// `order[rank]` is the source id at popularity rank `rank`: ids below
    /// `corpus.len()` are corpus files, the rest P200 then P201 variants.
    order: Vec<u32>,
    /// Cumulative Zipf weights by rank, normalised to end at 1.
    cdf: Vec<f64>,
    service: AnalysisService,
}

fn corpus_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../corpus"))
}

/// Replaces the value of `param <name> = ...` in a source.
fn with_param(text: &str, name: &str, value: i64) -> String {
    let prefix = format!("param {name} = ");
    text.lines()
        .map(|l| {
            if l.starts_with(&prefix) {
                format!("{prefix}{value}")
            } else {
                l.to_owned()
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Whether every assert of a model is one the `ta` engine answers
/// (files that do not parse are kept: they exercise the parser).
fn routes_to_ta(text: &str) -> bool {
    lang::parse(text).map_or(true, |m| {
        m.asserts.iter().all(|a| {
            matches!(
                a.kind,
                AssertKind::DeadlockFree
                    | AssertKind::Reach(_)
                    | AssertKind::Always(_)
                    | AssertKind::LeadsTo(..)
            )
        })
    })
}

/// The corpus files of tiers P0xx–P2xx that `tempo check` routes to `ta`.
fn corpus_sources() -> Result<Vec<Source>, String> {
    let dir = corpus_dir();
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.file_name().to_string_lossy().into_owned()))
        .filter(|n| n.ends_with(".tempo") && ["P0", "P1", "P2"].iter().any(|t| n.starts_with(t)))
        .collect();
    names.sort();
    let mut out = Vec::new();
    for name in names {
        let text = std::fs::read_to_string(dir.join(&name))
            .map_err(|e| format!("cannot read {name}: {e}"))?;
        let header = lang::parse_header(&text).map_err(|e| format!("{name}: {e}"))?;
        if header.engine.as_deref().is_some_and(|e| e != "ta") || !routes_to_ta(&text) {
            continue;
        }
        out.push(Source {
            name,
            text,
            expect: header.expect,
        });
    }
    Ok(out)
}

impl SvcMix {
    /// Reads the corpus, lays out the popularity order and starts the
    /// service (the warm-up check is [`SvcMix::warm_up`]).
    pub fn new(seed: u64) -> Result<Self, String> {
        let corpus = corpus_sources()?;
        let template = |prefix: &str| {
            corpus
                .iter()
                .find(|s| s.name.starts_with(prefix))
                .map(|s| s.text.clone())
                .ok_or_else(|| format!("corpus file {prefix} is missing"))
        };
        let (p200, p201) = (template("P200")?, template("P201")?);
        let total = corpus.len() + 2 * VARIANTS as usize;
        // The popularity order is the same for every seed, so that seeds
        // differ only in their draws, not in which kinds of source are hot.
        let mut order: Vec<u32> = (0..total as u32).collect();
        Rng::new(POPULARITY_SEED).shuffle(&mut order);
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..total)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(ZIPF_S);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Ok(SvcMix {
            seed,
            corpus,
            p200,
            p201,
            order,
            cdf,
            service: AnalysisService::new(ServiceConfig::default()),
        })
    }

    /// The source at position `index` of the stream. Variants hold by
    /// construction: P200's train enters within `[2, D]` in lockstep with
    /// the gate for any `D >= 2`, and P201's retry counter stays within
    /// `MAX <= 4` while the lossy receiver can force every retry, for any
    /// timeout `T >= 1`.
    fn source_at(&self, index: u64) -> Source {
        let u = Rng::new(derive(self.seed, index)).unit();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        let id = self.order[rank] as usize;
        let Some(v) = id.checked_sub(self.corpus.len()) else {
            return self.corpus[id].clone();
        };
        let v = v as i64;
        let (name, text) = if v < VARIANTS {
            let d = 2 + v;
            (format!("P200[D={d}]"), with_param(&self.p200, "D", d))
        } else {
            let (max, t) = (1 + (v - VARIANTS) % P201_MAX, 1 + (v - VARIANTS) / P201_MAX);
            let text = with_param(&with_param(&self.p201, "MAX", max), "T", t);
            (format!("P201[MAX={max},T={t}]"), text)
        };
        Source {
            name,
            text,
            expect: Expectation::Pass,
        }
    }

    /// One check of the committed P200, so the service has served a job.
    pub fn warm_up(&self) -> Record {
        let src = self
            .corpus
            .iter()
            .find(|s| s.name == WARMUP)
            .expect("set-up read P200");
        self.check(src, u64::MAX, &mut Tracer::new(false, Instant::now()))
    }

    /// Runs the closed loop over checks `first .. first + n` of the
    /// stream: every client takes the next stream index until none is
    /// left. Each client times the reference kernel before every
    /// [`REF_EVERY`]th check of its own; the mean of the clients' kernel
    /// time is left out of the pass's elapsed time.
    pub fn run(&self, first: u64, n: u64, trace: bool) -> Pass {
        let next = AtomicU64::new(first);
        let epoch = Instant::now();
        let before = self.service.stats();
        let per_client: Vec<Pass> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    scope.spawn(|| {
                        let mut tracer = Tracer::new(trace, epoch);
                        let (mut records, mut ref_ms) = (Vec::new(), Vec::new());
                        loop {
                            let index = next.fetch_add(1, Ordering::Relaxed);
                            if index - first >= n {
                                break;
                            }
                            if records.len() as u64 % REF_EVERY == 0 {
                                ref_ms.push(crate::reference::sample_ms());
                            }
                            let src = self.source_at(index);
                            records.push(self.check(&src, index, &mut tracer));
                        }
                        Pass {
                            records,
                            spans: vec![tracer.into_spans()],
                            elapsed: epoch.elapsed(),
                            svc: None,
                            ref_ms,
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("svc-mix client panicked"))
                .collect()
        });
        let after = self.service.stats();
        let mut pass = Pass::default();
        for client in per_client {
            pass.records.extend(client.records);
            pass.spans.extend(client.spans);
            pass.elapsed = pass.elapsed.max(client.elapsed);
            pass.ref_ms.extend(client.ref_ms);
        }
        let ref_per_client = pass.ref_ms.iter().sum::<f64>() / 1e3 / CLIENTS as f64;
        pass.elapsed = pass
            .elapsed
            .saturating_sub(Duration::from_secs_f64(ref_per_client));
        pass.svc = Some(delta(&before, &after));
        pass
    }

    /// One client check: parse, build, elaborate, submit every assert,
    /// wait for every verdict, and compare with the known answer.
    fn check(&self, src: &Source, index: u64, tracer: &mut Tracer) -> Record {
        let start = Instant::now();
        let mut timings = Vec::new();
        let observed = tracer.check(index, |t| self.pipeline(src, t, &mut timings));
        let failure = match observed {
            Err(e) => Some(format!("{}: {e}", src.name)),
            Ok(obs) if obs == src.expect => None,
            Ok(obs) => Some(format!(
                "{}: expected {:?}, observed {obs:?}",
                src.name, src.expect
            )),
        };
        Record {
            kind: "svc-check",
            ms: start.elapsed().as_secs_f64() * 1e3,
            failure,
            counts: Counts::new(),
            timings,
        }
    }

    fn pipeline(
        &self,
        src: &Source,
        t: &mut Tracer,
        timings: &mut Vec<(&'static str, f64)>,
    ) -> Result<Expectation, String> {
        let Ok(model) = t.call("lang.parse", || lang::parse(&src.text)) else {
            return Ok(Expectation::ParseError);
        };
        let planned = t.call(
            "lang.elaborate",
            || -> Result<Option<Vec<(JobKind, bool)>>, lang::ParseError> {
                let set = lang::build(&model)?;
                if model.system.is_none() {
                    return Ok(None);
                }
                let net = Arc::new(lang::to_network(&set)?);
                let explore = ExploreConfig::default();
                let lower = |f| lang::lower_formula_network(&set, &net, f);
                let mut jobs = Vec::new();
                for a in &model.asserts {
                    let job = match &a.kind {
                        AssertKind::DeadlockFree => JobKind::DeadlockFree {
                            net: net.clone(),
                            explore: explore.clone(),
                        },
                        AssertKind::Reach(f) => JobKind::Reach {
                            net: net.clone(),
                            goal: lower(f)?,
                            explore: explore.clone(),
                        },
                        AssertKind::Always(f) => JobKind::Reach {
                            net: net.clone(),
                            goal: StateFormula::not(lower(f)?),
                            explore: explore.clone(),
                        },
                        AssertKind::LeadsTo(phi, psi) => JobKind::LeadsTo {
                            net: net.clone(),
                            phi: lower(phi)?,
                            psi: lower(psi)?,
                        },
                        other => unreachable!(
                            "{}: corpus_sources keeps ta asserts only, not {other:?}",
                            src.name
                        ),
                    };
                    // `A[] f` holds iff its negation is unreachable.
                    jobs.push((job, !matches!(a.kind, AssertKind::Always(_))));
                }
                if jobs.is_empty() {
                    // An assert-free model still passes the admission lint
                    // gate, as under `tempo check`: probe it with `E<> true`.
                    jobs.push((
                        JobKind::Reach {
                            net,
                            goal: StateFormula::True,
                            explore,
                        },
                        true,
                    ));
                }
                Ok(Some(jobs))
            },
        );
        let jobs = match planned {
            Err(_) => return Ok(Expectation::ParseError),
            Ok(None) => return Ok(Expectation::Pass),
            Ok(Some(jobs)) => jobs,
        };
        let n_asserts = model.asserts.len();
        let mut handles = Vec::new();
        for (kind, positive) in jobs {
            let req = JobRequest {
                tenant: "bench".to_owned(),
                priority: 0,
                budget: Budget::unlimited(),
                kind,
            };
            match t.call("svc.submit", || self.service.submit(req)) {
                Ok(h) => handles.push((h, positive)),
                Err(Rejected::Lint(_)) => return Ok(Expectation::LintError),
                Err(r) => return Err(format!("rejected: {r}")),
            }
        }
        let mut failed = Vec::new();
        for (i, (h, positive)) in handles.into_iter().enumerate() {
            let waited = Instant::now();
            let res = t.call("svc.wait", || h.wait());
            let wait_us = waited.elapsed().as_secs_f64() * 1e6;
            let res = res.map_err(|e: JobError| format!("job failed: {e}"))?;
            if res.source == VerdictSource::Computed {
                let engine_us = res.report.wall_time.as_secs_f64() * 1e6;
                timings.push(("svc.engine_ms", engine_us / 1e3));
                timings.push(("svc.queue_wait_us", (wait_us - engine_us).max(0.0)));
            }
            let reached = match res.verdict {
                JobVerdict::Reachable(b) | JobVerdict::LeadsTo(b) | JobVerdict::DeadlockFree(b) => {
                    b
                }
                other => return Err(format!("unexpected verdict {other:?}")),
            };
            if reached != positive && i < n_asserts {
                failed.push(i);
            } else if reached != positive {
                return Err("`E<> true` probe reported unreachable".to_owned());
            }
        }
        Ok(if failed.is_empty() {
            Expectation::Pass
        } else {
            Expectation::Fail(failed)
        })
    }
}

fn delta(before: &ServiceCounters, after: &ServiceCounters) -> ServiceCounters {
    ServiceCounters {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        coalesced: after.coalesced - before.coalesced,
        rejected: after.rejected - before.rejected,
        queue_peak: after.queue_peak,
        ..*after
    }
}

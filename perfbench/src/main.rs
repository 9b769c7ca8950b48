//! tempo's benchmark. See `NOTES.md` beside this crate for why each
//! workload exists, what it bypasses, and which end-to-end metric each
//! per-layer metric should move.
//!
//! ```text
//! tempo-perfbench --workload <ta-sym|ta-zones|quant|svc-mix> --seed <n>
//!                 --seconds <s> --trace <0|1>
//! tempo-perfbench --report per-state
//! ```
//!
//! `--trace 0` measures the end-to-end metrics over a timed window, with
//! every timing scaled to a reference kernel's nominal speed (see
//! `reference.rs`); `--trace 1` gives the per-layer metrics from a traced
//! run. The last
//! line of standard output is the result object; a readable table of
//! every metric, with units and sample counts, goes to standard error.

mod checks;
mod layers;
mod reference;
mod replay;
mod report;
mod rng;
mod stats;
mod svcmix;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use tempo_core::obs::ServiceCounters;

use crate::checks::Engine;
use crate::svcmix::SvcMix;
use crate::trace::{SelfTime, Span};

/// Exact work counters of one check, by metric name.
pub type Counts = BTreeMap<&'static str, u64>;

/// One completed check.
pub struct Record {
    pub kind: &'static str,
    /// Time to verdict.
    pub ms: f64,
    /// Why the check failed: wrong verdict, interval missing the known
    /// answer, typed error, exhausted budget or rejection.
    pub failure: Option<String>,
    pub counts: Counts,
    /// Per-check timings the engine reports (svc engine and queue time).
    pub timings: Vec<(&'static str, f64)>,
}

#[derive(Default)]
pub struct Pass {
    pub records: Vec<Record>,
    /// Spans, one vector per client.
    pub spans: Vec<Vec<Span>>,
    pub elapsed: Duration,
    /// Service counter deltas over the pass (`svc-mix` only).
    pub svc: Option<ServiceCounters>,
    /// Times of the reference kernel taken during the pass, in ms; their
    /// time is not part of `elapsed`.
    pub ref_ms: Vec<f64>,
}

impl Pass {
    fn checks_per_s(&self) -> f64 {
        self.records.len() as f64 / self.elapsed.as_secs_f64()
    }

    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for client in &self.spans {
            for (name, t) in trace::self_times(client) {
                let e = out.entry(name).or_default();
                e.count += t.count;
                e.self_ns += t.self_ns;
            }
        }
        out
    }

    pub fn count_sum(&self, key: &str) -> u64 {
        self.records.iter().filter_map(|r| r.counts.get(key)).sum()
    }

    pub fn count_max(&self, key: &str) -> u64 {
        self.records
            .iter()
            .filter_map(|r| r.counts.get(key))
            .copied()
            .max()
            .unwrap_or(0)
    }

    pub fn timings(&self, key: &str) -> Vec<f64> {
        self.records
            .iter()
            .flat_map(|r| r.timings.iter().filter(|(k, _)| *k == key).map(|(_, v)| *v))
            .collect()
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadId {
    TaSym,
    TaZones,
    Quant,
    SvcMix,
}

impl WorkloadId {
    const ALL: [WorkloadId; 4] = [
        WorkloadId::TaSym,
        WorkloadId::TaZones,
        WorkloadId::Quant,
        WorkloadId::SvcMix,
    ];

    fn name(self) -> &'static str {
        match self {
            WorkloadId::TaSym => "ta-sym",
            WorkloadId::TaZones => "ta-zones",
            WorkloadId::Quant => "quant",
            WorkloadId::SvcMix => "svc-mix",
        }
    }

    /// Checks per block of the untraced run. Each block runs on a fresh
    /// set-up, so the work of a block, the cache hits and misses of
    /// `svc-mix` included, depends on the seed alone and not on how fast
    /// the machine ran. A block takes about a second.
    fn block(self) -> u64 {
        match self {
            WorkloadId::TaSym => 16,
            WorkloadId::TaZones => 24,
            WorkloadId::Quant => 18,
            WorkloadId::SvcMix => 8_000,
        }
    }

    /// Checks per pass of the traced run: fixed, so that every exact
    /// counter of a traced run is a function of the seed alone.
    fn trace_prefix(self) -> u64 {
        match self {
            WorkloadId::TaSym => 60,
            WorkloadId::TaZones => 120,
            WorkloadId::Quant => 90,
            WorkloadId::SvcMix => 4_000,
        }
    }

    /// Checks of the side sample that measures this workload's layers in
    /// the traced run of another workload (`ta-sym` stands for `ta`).
    fn side_prefix(self) -> u64 {
        match self {
            WorkloadId::TaSym | WorkloadId::TaZones => 12,
            WorkloadId::Quant => 15,
            WorkloadId::SvcMix => 800,
        }
    }
}

/// A set-up workload, ready to run passes.
enum Bench {
    Engine(Box<Engine>),
    Svc(SvcMix),
}

impl Bench {
    /// Model or source generation, service start and warm-up checks (one
    /// of each check kind of the mix; the P200 port on `svc-mix`).
    fn setup(id: WorkloadId, seed: u64) -> Result<(Bench, Vec<Record>), String> {
        Ok(match id {
            WorkloadId::SvcMix => {
                let svc = SvcMix::new(seed)?;
                let warm = vec![svc.warm_up()];
                (Bench::Svc(svc), warm)
            }
            _ => {
                let engine = Engine::new(id, seed);
                let mut tracer = trace::Tracer::new(false, Instant::now());
                let warm = checks::mix(id)
                    .iter()
                    .enumerate()
                    .map(|(j, &c)| engine.run_check(c, u64::MAX - j as u64, &mut tracer))
                    .collect();
                (Bench::Engine(Box::new(engine)), warm)
            }
        })
    }

    /// Runs checks `first .. first + n` of the stream.
    fn run(&self, first: u64, n: u64, trace: bool) -> Pass {
        match self {
            Bench::Engine(e) => e.pass(first, n, trace),
            Bench::Svc(s) => s.run(first, n, trace),
        }
    }
}

struct Args {
    workload: WorkloadId,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: tempo-perfbench --workload <ta-sym|ta-zones|quant|svc-mix> \
--seed <n> --seconds <s> --trace <0|1>\n       tempo-perfbench --report per-state";

fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let key = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" | "--report" => flag.as_str(),
            other => return Err(format!("unknown flag {other}")),
        };
        flags.insert(key, value);
    }
    if let Some(r) = flags.get("--report") {
        return if *r == "per-state" {
            Ok(None)
        } else {
            Err(format!("unknown report {r}"))
        };
    }
    let get = |k: &str| flags.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let name = get("--workload")?;
    let workload = WorkloadId::ALL
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("{k} needs a whole number"))
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    Ok(Some(Args {
        workload,
        seed: num("--seed")?,
        seconds,
        trace,
    }))
}

/// One metric of the result line.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Sample count and provenance, for the readable table.
    note: String,
}

pub fn metric(
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: impl Into<String>,
) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: note.into(),
    }
}

/// What a run found wrong besides failed checks.
#[derive(Default)]
pub struct Faults(Vec<String>);

impl Faults {
    pub fn push(&mut self, f: String) {
        eprintln!("error: {f}");
        self.0.push(f);
    }
}

pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Directory for span dumps, inside the checkout.
fn out_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// One set-up; a failed warm-up check is a fault.
fn fresh(id: WorkloadId, seed: u64, faults: &mut Faults) -> Result<Bench, String> {
    let (bench, warm) = Bench::setup(id, seed)?;
    for f in warm.into_iter().filter_map(|r| r.failure) {
        faults.push(format!("warm-up check failed: {f}"));
    }
    Ok(bench)
}

/// Kinds whose exact counters cannot depend on the seed: every check of
/// such a kind must report the same work.
const SEED_FREE_KINDS: [&str; 3] = ["tg-always", "tg-deadlock", "brp-pmax"];

fn check_counter_drift(records: &[Record], faults: &mut Faults) {
    let mut first: BTreeMap<&str, &Counts> = BTreeMap::new();
    for r in records {
        if !SEED_FREE_KINDS.contains(&r.kind) {
            continue;
        }
        match first.get(r.kind) {
            None => {
                first.insert(r.kind, &r.counts);
            }
            Some(c) if **c == r.counts => {}
            Some(c) => faults.push(format!(
                "counter drift on {}: {c:?} then {:?}",
                r.kind, r.counts
            )),
        }
    }
}

fn counter_lines(pass: &Pass) -> Vec<String> {
    pass.records
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let mut line = format!("{i} {}", r.kind);
            for (k, v) in &r.counts {
                let _ = write!(line, " {k}={v}");
            }
            line
        })
        .collect()
}

fn failures(records: &[Record]) -> Vec<&str> {
    records
        .iter()
        .filter_map(|r| r.failure.as_deref())
        .collect()
}

/// Blocks after which `peak_rss_mb` is read.
const RSS_BLOCKS: u64 = 8;

/// An untraced run: blocks of `WorkloadId::block` checks, each on a
/// fresh set-up and from its own part of the stream, until the window of
/// `--seconds` has passed. Every set-up is timed, so `setup_s` is a median
/// over set-ups spread across the window. Peak memory is read after
/// [`RSS_BLOCKS`] blocks (or at the end of a shorter run): on `svc-mix`
/// the process's resident set creeps up with each fresh service, so a
/// reading at the end of the window would follow how many blocks the
/// machine managed, while a reading after the first block follows the
/// seeded order of that one block's checks.
///
/// Every timing metric is scaled to the reference kernel's nominal speed
/// (see `reference.rs`): a block's set-up, its checks and its elapsed
/// time are multiplied by the speed factor of the kernel samples taken
/// during that block. The raw figures go to the readable table.
fn timed_run(args: &Args, faults: &mut Faults) -> Result<(u64, u64, Vec<Metric>), String> {
    let id = args.workload;
    let window = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let (mut setups, mut raw_setups, mut records) = (Vec::new(), Vec::new(), Vec::new());
    let (mut elapsed, mut raw_elapsed, mut ms, mut medians) = (0.0, 0.0, Vec::new(), Vec::new());
    let (mut factors, mut block, mut rss_mb) = (Vec::new(), 0, f64::NAN);
    while start.elapsed() < window {
        let set_up = Instant::now();
        let bench = fresh(id, args.seed, faults)?;
        let setup = set_up.elapsed().as_secs_f64();
        let pass = bench.run(block * id.block(), id.block(), false);
        let factor = reference::speed_factor(&pass.ref_ms);
        factors.push(factor);
        raw_setups.push(setup);
        setups.push(setup * factor);
        raw_elapsed += pass.elapsed.as_secs_f64();
        elapsed += pass.elapsed.as_secs_f64() * factor;
        let block_ms: Vec<(&str, f64)> = pass
            .records
            .iter()
            .map(|r| (r.kind, r.ms * factor))
            .collect();
        medians.extend(kind_medians_ms(&block_ms));
        ms.extend(block_ms.iter().map(|(_, v)| *v));
        records.extend(pass.records);
        block += 1;
        if block == RSS_BLOCKS {
            rss_mb = peak_rss_mb();
        }
    }
    if block < RSS_BLOCKS {
        rss_mb = peak_rss_mb();
    }
    check_counter_drift(&records, faults);
    if let Some(f) = checks::smc_pooled_fault(&records) {
        faults.push(f);
    }
    let failed = failures(&records);
    for f in failed.iter().take(5) {
        eprintln!("failed: {f}");
    }
    let n = records.len() as u64;
    let raw_ms: Vec<f64> = records.iter().map(|r| r.ms).collect();
    let p50 = stats::mean(&medians).unwrap_or(f64::NAN);
    let p90 = stats::quantile(&ms, 0.9).unwrap_or(f64::NAN);
    let raw = |v: Option<f64>| v.unwrap_or(f64::NAN);
    eprintln!(
        "  {n} checks in {block} blocks, {raw_elapsed:.3} s; {} beyond p90; \
         speed factor median {:.3}, range {:.3}..{:.3}",
        n / 10,
        raw(stats::median(&factors)),
        factors.iter().copied().fold(f64::INFINITY, f64::min),
        factors.iter().copied().fold(0.0, f64::max),
    );
    let metrics = vec![
        metric(
            "setup_s",
            stats::median(&setups).unwrap_or(f64::NAN),
            "s",
            format!(
                "median of {} set-ups; raw {:.4} s",
                setups.len(),
                raw(stats::median(&raw_setups))
            ),
        ),
        metric(
            "checks_per_s",
            n as f64 / elapsed,
            "1/s",
            format!("{n} checks; raw {:.3}/s", n as f64 / raw_elapsed),
        ),
        metric(
            "check_ms.p50",
            p50,
            "ms",
            format!(
                "mean of {} per-block, per-kind medians; raw pooled median {:.3} ms",
                medians.len(),
                raw(stats::median(&raw_ms))
            ),
        ),
        metric(
            "check_ms.p90",
            p90,
            "ms",
            format!(
                "{} beyond p90; raw {:.3} ms",
                n / 10,
                raw(stats::quantile(&raw_ms, 0.9))
            ),
        ),
        metric(
            "passed_frac",
            1.0 - failed.len() as f64 / n.max(1) as f64,
            "fraction",
            format!("failed_frac = {}/{n}", failed.len()),
        ),
        metric(
            "peak_rss_mb",
            rss_mb,
            "MB",
            format!("VmHWM after {} blocks", block.min(RSS_BLOCKS)),
        ),
    ];
    Ok((n, failed.len() as u64, metrics))
}

/// Each check kind's median time to verdict in one block. `check_ms.p50`
/// is their mean. The engine workloads serve their kinds 1:1, so a pooled
/// median would sit in the gap between two kinds' clusters and jump
/// between them with noise. And when the machine's speed changes within a
/// run, a kind's pooled median sits between its fast and slow checks and
/// jumps too, while block medians, a second each, follow the speed of
/// their own block and average smoothly.
fn kind_medians_ms(block: &[(&str, f64)]) -> Vec<f64> {
    let mut by_kind: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for &(kind, ms) in block {
        by_kind.entry(kind).or_default().push(ms);
    }
    by_kind.values().filter_map(|v| stats::median(v)).collect()
}

/// The layers a workload's own checks call.
fn touches(id: WorkloadId, layer: WorkloadId) -> bool {
    id == layer || (layer == WorkloadId::TaSym && id == WorkloadId::TaZones)
}

fn traced_run(args: &Args, faults: &mut Faults) -> Result<(u64, u64, Vec<Metric>), String> {
    let id = args.workload;
    let prefix = id.trace_prefix();
    // The same prefix untraced then traced, twice, each pass on a fresh
    // set-up. The first round warms the process; the second gives the
    // tracing overhead. All four passes must agree on every exact counter.
    let mut passes = Vec::new();
    for trace in [false, true, false, true] {
        passes.push(fresh(id, args.seed, faults)?.run(0, prefix, trace));
    }
    let lines = counter_lines(&passes[0]);
    if passes.iter().any(|p| counter_lines(p) != lines) {
        faults.push("exact counters differ between passes over the same prefix".to_owned());
    }
    let svc_exact = |p: &Pass| p.svc.map(|c| (c.misses, c.rejected));
    if passes.iter().any(|p| svc_exact(p) != svc_exact(&passes[0])) {
        faults
            .push("svc misses or rejections differ between passes over the same prefix".to_owned());
    }
    let (untraced, traced) = (&passes[2], &passes[3]);
    check_counter_drift(&traced.records, faults);

    // Layers this workload does not call are measured on a short traced
    // side sample of the workload that does, so that every traced run
    // reports every layer.
    let mut side: BTreeMap<&str, Pass> = BTreeMap::new();
    for layer in [WorkloadId::TaSym, WorkloadId::Quant, WorkloadId::SvcMix] {
        if !touches(id, layer) {
            let pass = fresh(layer, args.seed, faults)?.run(0, layer.side_prefix(), true);
            side.insert(layer.name(), pass);
        }
    }
    let source = |layer: WorkloadId| -> (&Pass, &str) {
        if touches(id, layer) {
            (traced, id.name())
        } else {
            (&side[layer.name()], layer.name())
        }
    };

    let mut dump = String::new();
    let mut offset = 0;
    for (label, pass) in
        std::iter::once((id.name(), traced)).chain(side.iter().map(|(k, v)| (*k, v)))
    {
        for client in &pass.spans {
            dump.push_str(&trace::render_jsonl(label, client, offset));
            offset += client.len();
        }
    }
    let _ = std::fs::create_dir_all(out_dir());
    let span_file = out_dir().join(format!("spans-{}-seed{}.jsonl", id.name(), args.seed));
    if let Err(e) = std::fs::write(&span_file, dump) {
        eprintln!("warning: cannot write {}: {e}", span_file.display());
    }

    let mut m = Vec::new();
    let (ta, ta_src) = source(WorkloadId::TaSym);
    m.extend(layers::ta(ta, ta_src));
    m.push(layers::conc(faults));
    let (q, q_src) = source(WorkloadId::Quant);
    m.extend(layers::quant(q, q_src));
    let (sv, sv_src) = source(WorkloadId::SvcMix);
    m.extend(layers::svc(sv, sv_src));
    let (cu, ct) = (untraced.checks_per_s(), traced.checks_per_s());
    m.push(metric(
        "trace.overhead",
        cu / ct,
        "ratio",
        format!(
            "{cu:.2} untraced / {ct:.2} traced checks/s over {} checks of {}",
            traced.records.len(),
            id.name()
        ),
    ));

    // The passes repeat the same checks, so the SMC hits are pooled over
    // one of them only.
    for pass in std::iter::once(traced).chain(side.values()) {
        if let Some(f) = checks::smc_pooled_fault(&pass.records) {
            faults.push(f);
        }
    }
    let all: Vec<&Pass> = passes.iter().chain(side.values()).collect();
    let attempted: u64 = all.iter().map(|p| p.records.len() as u64).sum();
    let failed: Vec<&str> = all.iter().flat_map(|p| failures(&p.records)).collect();
    for f in failed.iter().take(5) {
        eprintln!("failed check: {f}");
    }
    Ok((attempted, failed.len() as u64, m))
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Some(a)) => a,
        Ok(None) => {
            print!("{}", report::per_state_table());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut faults = Faults::default();
    let run = if args.trace {
        traced_run(&args, &mut faults)
    } else {
        timed_run(&args, &mut faults)
    };
    let (attempted, failed, metrics) = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "{} seed {} ({})",
        args.workload.name(),
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    );
    for mt in &metrics {
        eprintln!(
            "  {:<28} {:>14.4} {:<8} {}",
            mt.name, mt.value, mt.unit, mt.note
        );
    }
    let correct = failed == 0 && faults.0.is_empty() && metrics.iter().all(|m| m.value.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
    ExitCode::SUCCESS
}

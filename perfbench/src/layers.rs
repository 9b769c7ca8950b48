//! Per-layer metrics of the traced run, one function per layer group.
//! Each takes the traced pass that called the layer and the name of the
//! workload it came from, for the readable table.

use std::collections::{BTreeMap, BTreeSet};

use crate::{checks, metric, replay, stats, Faults, Metric, Pass, Record};

/// `ta`, `ta.symmetry`, `ta.explore` and `dbm`.
pub fn ta(ta: &Pass, ta_src: &str) -> Vec<Metric> {
    let mut m = Vec::new();
    let st = ta.self_times();
    let ta_check = st.get("ta.check").copied().unwrap_or_default();
    let ta_us = ta_check.self_ns as f64 / 1e3;
    let explored = ta.count_sum("ta.states_explored");
    let tag = |n: u64, what: &str| format!("{n} {what}, from {ta_src}");
    m.push(metric(
        "ta.check_ms",
        ta_check.mean_us() / 1e3,
        "ms",
        tag(ta_check.count, "ta.check spans"),
    ));
    m.push(metric(
        "ta.us_per_state",
        ta_us / explored.max(1) as f64,
        "us",
        tag(explored, "states"),
    ));
    for key in [
        "ta.states_explored",
        "ta.states_stored",
        "ta.sym_avoided",
        "ta.por_ample",
    ] {
        m.push(metric(
            key,
            ta.count_sum(key) as f64,
            "count",
            tag(ta.records.len() as u64, "checks, total"),
        ));
    }
    for key in ["ta.sym_orbits", "ta.lu_tightened", "ta.sliced_clocks"] {
        m.push(metric(
            key,
            ta.count_max(key) as f64,
            "count",
            tag(ta.records.len() as u64, "checks, per check"),
        ));
    }
    // Per-call costs are replayed on every train gate the checks ran and
    // weighted by how often each check made the call.
    let replays: BTreeMap<u64, replay::PerCall> = ta
        .records
        .iter()
        .filter_map(|r| r.counts.get("ta.trains").copied())
        .collect::<BTreeSet<u64>>()
        .into_iter()
        .map(|n| (n, replay::train_gate_per_call(n as usize)))
        .collect();
    let weighted = |weight: &dyn Fn(&Record) -> u64, cost: &dyn Fn(&replay::PerCall) -> f64| {
        let (mut total, mut calls) = (0.0, 0u64);
        for r in &ta.records {
            let pc = &replays[&r.counts["ta.trains"]];
            total += weight(r) as f64 * cost(pc);
            calls += weight(r);
        }
        (total, calls)
    };
    let canonicalised = |r: &Record| {
        if r.counts["ta.sym_orbits"] > 0 {
            r.counts["ta.transitions"]
        } else {
            0
        }
    };
    let per_state = |r: &Record| r.counts["ta.states_explored"];
    let per_zone_call = |r: &Record| r.counts["ta.transitions"];
    let canon = |pc: &replay::PerCall| pc.canonicalize_us.unwrap_or(0.0);
    let (canon_total, canon_calls) = weighted(&canonicalised, &canon);
    let (succ_total, _) = weighted(&per_state, &|pc| pc.successors_us);
    let (close_total, zone_calls) = weighted(&per_zone_call, &|pc| pc.close_ns);
    let (subset_total, _) = weighted(&per_zone_call, &|pc| pc.subset_ns);
    let replayed: Vec<String> = replays
        .iter()
        .map(|(n, pc)| format!("train-gate({n}) x {} states", pc.states))
        .collect();
    let est = |what: &str| format!("estimate: replay over {}, {what}", replayed.join(" + "));
    // Without canonicalisation calls (symmetry off) the per-call cost is
    // the plain mean over the replayed models.
    let canon_us = if canon_calls > 0 {
        canon_total / canon_calls as f64
    } else {
        replays.values().map(canon).sum::<f64>() / replays.len().max(1) as f64
    };
    m.push(metric(
        "ta.symmetry.canonicalize_us",
        canon_us,
        "us",
        est("per call"),
    ));
    m.push(metric(
        "ta.symmetry.share",
        canon_total / ta_us.max(1e-9),
        "ratio",
        est(&format!(
            "x {canon_calls} canonicalised successors / check time"
        )),
    ));
    m.push(metric(
        "ta.explore.successors_us",
        succ_total / explored.max(1) as f64,
        "us",
        est("per state"),
    ));
    m.push(metric(
        "ta.explore.share",
        succ_total / ta_us.max(1e-9),
        "ratio",
        est(&format!("x {explored} states / check time")),
    ));
    let dims: Vec<String> = replays.values().map(|pc| pc.dim.to_string()).collect();
    m.push(metric(
        "dbm.dim",
        ta.count_max("dbm.dim") as f64,
        "count",
        format!(
            "engine DBM dimension, max over checks (replay states: {})",
            dims.join(", ")
        ),
    ));
    m.push(metric(
        "dbm.close_ns",
        close_total / zone_calls.max(1) as f64,
        "ns",
        est("per call"),
    ));
    let pairs: usize = replays.values().map(|pc| pc.subset_pairs).sum();
    m.push(metric(
        "dbm.subset_ns",
        subset_total / zone_calls.max(1) as f64,
        "ns",
        est(&format!("{pairs} same-discrete-state pairs")),
    ));
    m
}

/// `conc.par2_speedup`: the `ta-zones` `A[]` check at 1 and 2 workers.
pub fn conc(faults: &mut Faults) -> Metric {
    let (one, two) = match (checks::par_check_ms(1, 5), checks::par_check_ms(2, 5)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            faults.push(e);
            (Vec::new(), Vec::new())
        }
    };
    let (t1, t2) = (
        stats::median(&one).unwrap_or(f64::NAN),
        stats::median(&two).unwrap_or(f64::NAN),
    );
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    metric(
        "conc.par2_speedup",
        t1 / t2,
        "ratio",
        format!("ta-zones A[] train-gate(5): median of 5, {t1:.1} ms at 1 worker / {t2:.1} ms at 2; {cores} cores"),
    )
}

/// `modest`, `mdp`, `smc` and `rare`.
pub fn quant(q: &Pass, q_src: &str) -> Vec<Metric> {
    let mut m = Vec::new();
    let st = q.self_times();
    let span = |name: &str| st.get(name).copied().unwrap_or_default();
    let qtag = |n: u64, what: &str| format!("{n} {what}, from {q_src}");
    let b = span("modest.build");
    m.push(metric(
        "modest.build_ms",
        b.mean_us() / 1e3,
        "ms",
        qtag(b.count, "spans"),
    ));
    m.push(metric(
        "mdp.states",
        q.count_max("mdp.states") as f64,
        "count",
        qtag(b.count, "builds, per build"),
    ));
    m.push(metric(
        "mdp.transitions",
        q.count_max("mdp.transitions") as f64,
        "count",
        qtag(b.count, "builds, per build"),
    ));
    let s = span("mdp.solve");
    m.push(metric(
        "mdp.solve_ms",
        s.mean_us() / 1e3,
        "ms",
        qtag(s.count, "spans"),
    ));
    let runs = q.count_sum("smc.runs");
    let sim = span("smc.simulate");
    m.push(metric(
        "smc.runs",
        runs as f64,
        "count",
        qtag(sim.count, "checks, total"),
    ));
    m.push(metric(
        "smc.us_per_run",
        sim.self_ns as f64 / 1e3 / runs.max(1) as f64,
        "us",
        qtag(runs, "runs"),
    ));
    let sp = span("rare.split");
    m.push(metric(
        "rare.split_ms",
        sp.mean_us() / 1e3,
        "ms",
        qtag(sp.count, "spans"),
    ));
    m.push(metric(
        "rare.runs_total",
        q.count_sum("rare.runs_total") as f64,
        "count",
        qtag(sp.count, "checks, total"),
    ));
    m.push(metric(
        "rare.levels",
        q.count_max("rare.levels") as f64,
        "count",
        qtag(sp.count, "checks, per check"),
    ));
    m.push(metric(
        "rare.splits_spawned",
        q.count_sum("rare.splits_spawned") as f64,
        "count",
        qtag(sp.count, "checks, total"),
    ));
    m
}

/// `lang` and `svc`.
pub fn svc(sv: &Pass, sv_src: &str) -> Vec<Metric> {
    let mut m = Vec::new();
    let st = sv.self_times();
    let span = |name: &str| st.get(name).copied().unwrap_or_default();
    let stag = |n: u64, what: &str| format!("{n} {what}, from {sv_src}");
    for (key, name) in [
        ("lang.parse_us", "lang.parse"),
        ("lang.elaborate_us", "lang.elaborate"),
        ("svc.submit_us", "svc.submit"),
        ("svc.wait_us", "svc.wait"),
    ] {
        let s = span(name);
        m.push(metric(key, s.mean_us(), "us", stag(s.count, "spans")));
    }
    let qw = sv.timings("svc.queue_wait_us");
    m.push(metric(
        "svc.queue_wait_us",
        stats::mean(&qw).unwrap_or(0.0),
        "us",
        stag(qw.len() as u64, "computed jobs"),
    ));
    let em = sv.timings("svc.engine_ms");
    m.push(metric(
        "svc.engine_ms",
        stats::mean(&em).unwrap_or(0.0),
        "ms",
        stag(em.len() as u64, "computed jobs"),
    ));
    let c = sv.svc.unwrap_or_default();
    let submitted = c.hits + c.misses + c.coalesced + c.rejected;
    let ctag = stag(sv.records.len() as u64, "checks");
    for (key, v) in [
        ("svc.hits", c.hits),
        ("svc.misses", c.misses),
        ("svc.coalesced", c.coalesced),
        ("svc.rejected", c.rejected),
        ("svc.queue_peak", c.queue_peak),
    ] {
        m.push(metric(key, v as f64, "count", ctag.clone()));
    }
    m.push(metric(
        "svc.hit_ratio",
        (c.hits + c.coalesced) as f64 / submitted.max(1) as f64,
        "ratio",
        stag(submitted, "submissions"),
    ));
    m
}

//! Per-call cost replays for the layers that no benchmark span can
//! isolate: symmetry canonicalisation, successor generation, DBM closure
//! and the inclusion test behind the passed-list probe.
//!
//! The replays call the public entry points (`Symmetry::canonicalize`,
//! `Explorer::successors`, `Dbm::close`, `Dbm::is_subset_of`) over the
//! state set `ModelChecker::reachable_states` returns, truncated to its
//! first `STATE_CAP` states. That set comes from the plain explorer
//! (global maximal-constant extrapolation, every clock kept), not from
//! the reduced engine, so the per-call costs are estimates.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use tempo_core::dbm::Dbm;
use tempo_core::obs::Budget;
use tempo_core::ta::{Explorer, ModelChecker, SymState, Symmetry};
use tempo_models::train_gate;

/// States replayed per model.
const STATE_CAP: u64 = 2_000;
/// Same-discrete-state zone pairs replayed by the inclusion test.
const PAIR_CAP: usize = 20_000;
/// Each replay loops over its inputs until at least this long has passed.
const MIN_TIME: Duration = Duration::from_millis(150);

#[derive(Clone, Copy, Debug)]
pub struct PerCall {
    pub states: usize,
    pub dim: usize,
    /// `None` when no symmetry group was detected.
    pub canonicalize_us: Option<f64>,
    pub successors_us: f64,
    pub close_ns: f64,
    pub subset_ns: f64,
    pub subset_pairs: usize,
    /// Mean zones per discrete state in the replayed set.
    pub zones_per_key: f64,
}

/// Mean seconds per call of `f` over `inputs`, looping until `MIN_TIME`.
fn per_call<T>(inputs: &[T], mut f: impl FnMut(&T)) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    while calls == 0 || start.elapsed() < MIN_TIME {
        for x in inputs {
            f(x);
        }
        calls += inputs.len() as u64;
    }
    start.elapsed().as_secs_f64() / calls.max(1) as f64
}

/// Replays the four calls on train-gate(`n`)'s first reachable states.
pub fn train_gate_per_call(n: usize) -> PerCall {
    let tg = train_gate(n);
    let safety = tg.safety();
    let (states, _) = ModelChecker::new(&tg.net)
        .reachable_states_governed(&Budget::unlimited().with_max_states(STATE_CAP))
        .into_value();
    let sym = Symmetry::detect(&tg.net, &[&safety]);
    let canonicalize_us = sym.map(|s| {
        per_call(&states, |st| {
            black_box(s.canonicalize(&tg.net, black_box(st)));
        }) * 1e6
    });
    let explorer = Explorer::new(&tg.net);
    let successors_us = per_call(&states, |st| {
        black_box(explorer.successors(black_box(st)));
    }) * 1e6;

    let mut zones: Vec<Dbm> = states.iter().map(|s| s.zone.clone()).collect();
    let close_ns = {
        let start = Instant::now();
        let mut calls = 0u64;
        while calls == 0 || start.elapsed() < MIN_TIME {
            for z in &mut zones {
                black_box(&mut *z).close();
            }
            calls += zones.len() as u64;
        }
        start.elapsed().as_secs_f64() / calls as f64 * 1e9
    };

    let mut by_key: HashMap<_, Vec<&SymState>> = HashMap::new();
    for s in &states {
        by_key.entry(s.discrete()).or_default().push(s);
    }
    let mut pairs: Vec<(&Dbm, &Dbm)> = Vec::new();
    'fill: for group in by_key.values() {
        for a in group {
            for b in group {
                if !std::ptr::eq(*a, *b) {
                    pairs.push((&a.zone, &b.zone));
                    if pairs.len() == PAIR_CAP {
                        break 'fill;
                    }
                }
            }
        }
    }
    let subset_ns = if pairs.is_empty() {
        0.0
    } else {
        per_call(&pairs, |(a, b)| {
            black_box(black_box(*a).is_subset_of(black_box(b)));
        }) * 1e9
    };
    PerCall {
        states: states.len(),
        dim: states.first().map_or(0, |s| s.zone.dim()),
        canonicalize_us,
        successors_us,
        close_ns,
        subset_ns,
        subset_pairs: pairs.len(),
        zones_per_key: states.len() as f64 / by_key.len().max(1) as f64,
    }
}

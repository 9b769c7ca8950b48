//! `--report per-state`: the per-state cost of train-gate `A[]` safety at
//! N = 5, 6 and 7 with symmetry on and off (LU, POR and slicing on),
//! split into the replay-measured shares of `ta.symmetry`, `ta.explore`
//! and `dbm`. Printed as a markdown table for `NOTES.md`.

use std::fmt::Write as _;
use std::time::Instant;

use tempo_core::obs::{Budget, ExploreConfig};
use tempo_core::ta::ModelChecker;
use tempo_models::train_gate;

use crate::replay::train_gate_per_call;

/// Symbolic states one exploration may store; the symmetry-off N = 7
/// search is cut here and its row marked as a prefix.
const STATE_BUDGET: u64 = 1_500_000;

pub fn per_state_table() -> String {
    let mut out = String::from(
        "| N | symmetry | states explored | check ms | us/state | ta.symmetry share | ta.explore share | dbm.close share | dbm.subset share |\n\
         |---|---|---|---|---|---|---|---|---|\n",
    );
    for n in [5, 6, 7] {
        let pc = train_gate_per_call(n);
        for symmetry in [true, false] {
            let tg = train_gate(n);
            let safety = tg.safety();
            let start = Instant::now();
            let checked = ModelChecker::new(&tg.net)
                .with_config(ExploreConfig::default().with_symmetry(symmetry))
                .always_governed(&safety, &Budget::unlimited().with_max_states(STATE_BUDGET));
            let us = start.elapsed().as_secs_f64() * 1e6;
            let (verdict, stats) = checked.value();
            assert!(
                verdict.holds(),
                "train-gate({n}) safety holds by construction"
            );
            let explored = stats.explored as f64;
            let succ = stats.transitions as f64;
            let canon = if stats.sym_orbits > 0 {
                pc.canonicalize_us.unwrap_or(0.0) * succ
            } else {
                0.0
            };
            let share = |x: f64| format!("{:.0}%", 100.0 * x / us);
            let _ = writeln!(
                out,
                "| {n} | {} | {}{} | {:.1} | {:.1} | {} | {} | {} | {} |",
                if symmetry { "on" } else { "off" },
                stats.explored,
                if checked.is_exhausted() {
                    " (budget cut)"
                } else {
                    ""
                },
                us / 1e3,
                us / explored,
                share(canon),
                share(pc.successors_us * explored),
                share(pc.close_ns / 1e3 * succ),
                share(pc.subset_ns / 1e3 * succ * pc.zones_per_key),
            );
        }
        let _ = writeln!(
            out,
            "|   | replay N={n} | {} states, dim {} | | | canonicalize {:.2} us | successors {:.2} us | close {:.0} ns | subset {:.0} ns x {:.1} zones/key |",
            pc.states,
            pc.dim,
            pc.canonicalize_us.unwrap_or(0.0),
            pc.successors_us,
            pc.close_ns,
            pc.subset_ns,
            pc.zones_per_key,
        );
    }
    out
}

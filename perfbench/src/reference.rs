//! How fast the machine runs right now, measured with a fixed kernel.
//!
//! The host this benchmark was built on slows its cores down by up to
//! 2× in episodes of tens of seconds to minutes (other tenants on the
//! same cores; steal time stays at zero, so only timing shows it). No
//! statistic inside one run can average over an episode longer than the
//! run. So the benchmark times this kernel next to the checks and scales
//! every timing metric to the speed at which the kernel takes
//! [`NOMINAL_MS`]: a block of checks that ran while the kernel took twice
//! as long counts half its wall time.
//!
//! The kernel is the benchmark's own frozen code, so a change to the
//! engines cannot move it. It mimics what the engines do per state: a
//! DBM-style closure over a small `i32` matrix (compute-bound) and the
//! insertion of freshly allocated state vectors into a hash set
//! (allocation and hashing), each about a third of a millisecond. In
//! windows of half a second, the logarithm of this kernel's time tracked
//! the checks' slowdown with correlation 0.8–0.95 on `ta-zones` and
//! `quant`; a pointer chase over 16 MB did not track it at all, so the
//! slowdown is in the core, not in memory. See `NOTES.md`, "Noise and
//! bounds".

use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

use crate::rng::Rng;

/// The speed timing metrics are reported at: a fixed scale, close to the
/// kernel's typical time on the 2-vCPU Intel Xeon VM the benchmark was
/// built on, so that the figures stay near wall-clock ones. Only ratios
/// between runs matter, and the constant cancels from those.
pub const NOMINAL_MS: f64 = 0.55;

/// Times one run of the kernel, in milliseconds.
pub fn sample_ms() -> f64 {
    let start = Instant::now();
    black_box(closure());
    black_box(hash_states());
    start.elapsed().as_secs_f64() * 1e3
}

/// Floyd–Warshall closure of a 9×9 bound matrix, 240 times.
fn closure() -> i64 {
    let mut d = [[0i32; 9]; 9];
    let mut acc = 0i64;
    for round in 0..240 {
        for (i, row) in d.iter_mut().enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                *v = ((i * 7 + j * 3 + round) % 23) as i32 - if i == j { 23 } else { 0 };
            }
        }
        for k in 0..9 {
            for i in 0..9 {
                for j in 0..9 {
                    let v = d[i][k].saturating_add(d[k][j]);
                    if v < d[i][j] {
                        d[i][j] = v;
                    }
                }
            }
        }
        acc += black_box(d[3][5]) as i64;
    }
    acc
}

/// 1 000 fresh 16-entry state vectors into a hash set, with duplicates.
fn hash_states() -> usize {
    let mut rng = Rng::new(11);
    let mut set: HashSet<Vec<i32>> = HashSet::new();
    for _ in 0..1_000 {
        set.insert((0..16).map(|_| rng.below(5) as i32).collect());
    }
    set.len()
}

/// The factor that scales a wall time measured while the kernel took
/// the given samples to [`NOMINAL_MS`] speed: `NOMINAL_MS` over their
/// median. `1.0` without samples.
pub fn speed_factor(samples: &[f64]) -> f64 {
    crate::stats::median(samples).map_or(1.0, |m| NOMINAL_MS / m)
}

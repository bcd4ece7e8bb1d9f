//! Machine-speed calibration. The host's effective CPU speed drifts by
//! tens of percent over seconds to minutes (shared cores), so a fixed
//! register-only loop is timed between requests and every timing is
//! scaled to what it would read at the loop's reference speed.

use std::hint::black_box;
use std::time::Instant;

const SPIN_STEPS: u64 = 1_000_000;

/// Typical time of one spin on a 2-core 2.x GHz Xeon, milliseconds: the
/// speed all calibrated timings are scaled to.
pub const REFERENCE_SPIN_MS: f64 = 3.0;

fn spin() -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..SPIN_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(black_box(i));
    }
    x
}

/// Median of three timed spins, milliseconds.
pub fn spin_ms() -> f64 {
    let mut t: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            black_box(spin());
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    t.sort_by(f64::total_cmp);
    t[1]
}

/// Scale for a timing taken between two spins: reference speed over the
/// speed measured around it.
pub fn factor(before_ms: f64, after_ms: f64) -> f64 {
    2.0 * REFERENCE_SPIN_MS / (before_ms + after_ms)
}

/// Times `f` between two spins; returns its result and its calibrated
/// and raw durations in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let before = spin_ms();
    let t = Instant::now();
    let out = f();
    let secs = t.elapsed().as_secs_f64();
    (out, secs * factor(before, spin_ms()), secs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_scales_to_the_reference_speed() {
        assert_eq!(factor(REFERENCE_SPIN_MS, REFERENCE_SPIN_MS), 1.0);
        assert_eq!(
            factor(2.0 * REFERENCE_SPIN_MS, 2.0 * REFERENCE_SPIN_MS),
            0.5
        );
        assert!(spin_ms() > 0.0);
        let ((), secs, raw) = timed(|| ());
        assert!(secs >= 0.0 && raw >= 0.0);
    }
}

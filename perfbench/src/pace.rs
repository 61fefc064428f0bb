//! The host-speed probe.  The benchmark runs on shared virtual machines
//! whose speed drifts by tens of percent within seconds and between runs
//! minutes apart, as neighbours load the physical cores.  Each timed unit
//! (an SSB query, a serving segment, a set-up) is bracketed by passes of a
//! fixed kernel that belongs to the benchmark, not to the engine, and the
//! unit's time is divided by the kernel's slowdown against `REFERENCE_MS`:
//! it reads as the time the unit would have taken at the host speed at
//! which `REFERENCE_MS` was measured.  A change to the engine moves the
//! scaled time as it moves the raw time; a change in the host's speed moves
//! both the unit and the kernel and cancels out.  The raw figures and the
//! slowdowns are printed beside every result.
//!
//! The kernel is the compute of a scan, in two halves of about equal time:
//! unpack bit-packed values from an input that fits L1, select a third of
//! them and hash those into a small histogram, as a decode, a selection
//! and a group-by do; then unpack and select from an 832 KiB input, which
//! streams through L2.  On the host it was tuned on, the drift followed
//! the speed of such compute (run medians of the probe and of the SSB
//! sweeps correlated at 0.93 to 0.99 over batches of six runs), not memory
//! latency or bandwidth (kernels that gathered from or streamed over 64 MiB
//! correlated at 0.0 and -0.2).  The L1 half alone under-corrected
//! `ssb-compressed` and the L2 half alone over-corrected
//! `ssb-uncompressed`; their sum tracked both.

use std::hint::black_box;
use std::time::Instant;

use crate::report::median;

/// About the time of one kernel pass on the 2-vCPU Xeon host the benchmark
/// was tuned on, when that host was quiet (ms).  It sets only the scale of
/// the scaled times.
pub const REFERENCE_MS: f64 = 3.3;

/// Passes the probe runs before and after a set-up or a serving segment.
pub const PASSES: usize = 3;

/// Bit width of the packed values.
const WIDTH: u32 = 13;
/// Values packed in the L1 half's input (26 KiB).
const SMALL_VALUES: usize = 1 << 14;
/// Times a pass unpacks the L1 half's input.
const ROUNDS: usize = 24;
/// Histogram buckets (16 KiB of counters).
const BUCKET_BITS: u32 = 12;
/// Values packed in the L2 half's input (832 KiB).
const LARGE_VALUES: usize = 1 << 19;

/// The kernel's fixed inputs, the same in every run.
#[derive(Debug)]
pub struct Probe {
    small: Vec<u64>,
    large: Vec<u64>,
}

impl Probe {
    pub fn new() -> Probe {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut packed = |values: usize| -> Vec<u64> {
            let words = (values * WIDTH as usize).div_ceil(64) + 1;
            (0..words)
                .map(|_| {
                    // xorshift64*
                    state ^= state >> 12;
                    state ^= state << 25;
                    state ^= state >> 27;
                    state.wrapping_mul(0x2545_f491_4f6c_dd1d)
                })
                .collect()
        };
        let probe = Probe {
            small: packed(SMALL_VALUES),
            large: packed(LARGE_VALUES),
        };
        // Fault in and warm the inputs.
        probe.pass();
        probe
    }

    /// One pass of the kernel; returns its time in ms.
    pub fn pass(&self) -> f64 {
        let started = Instant::now();
        black_box(self.work());
        started.elapsed().as_secs_f64() * 1e3
    }

    /// `PASSES` passes (ms each).
    pub fn passes(&self) -> Vec<f64> {
        (0..PASSES).map(|_| self.pass()).collect()
    }

    fn work(&self) -> u64 {
        let mask = (1u64 << WIDTH) - 1;
        let threshold = mask / 3;
        let small = black_box(&self.small);
        let mut histogram = [0u32; 1 << BUCKET_BITS];
        for i in (0..ROUNDS * SMALL_VALUES).map(|i| i % SMALL_VALUES) {
            let value = unpack(small, i);
            if value < threshold {
                let bucket = value.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - BUCKET_BITS);
                histogram[bucket as usize] += 1;
            }
        }
        let large = black_box(&self.large);
        let mut selected = 0u64;
        for i in 0..LARGE_VALUES {
            let value = unpack(large, i);
            if value < threshold {
                selected = selected.wrapping_add(value);
            }
        }
        histogram
            .iter()
            .fold(selected, |acc, &n| acc.rotate_left(1) ^ u64::from(n))
    }
}

/// The `i`-th `WIDTH`-bit value of `packed`, which holds one spare word.
fn unpack(packed: &[u64], i: usize) -> u64 {
    let bit = i * WIDTH as usize;
    let (word, offset) = (bit / 64, (bit % 64) as u32);
    let low = packed[word] >> offset;
    let high = packed[word + 1].checked_shl(64 - offset).unwrap_or(0);
    (low | high) & ((1u64 << WIDTH) - 1)
}

/// How much slower the host ran than when `REFERENCE_MS` was measured,
/// from probe passes made around a timed unit: the factor the unit's raw
/// times are divided by.
pub fn slowdown(passes_ms: &[f64]) -> f64 {
    median(passes_ms) / REFERENCE_MS
}

/// The slowdown of a unit from the passes run just before and just after
/// it.
pub fn slowdown_between(before_ms: &[f64], after_ms: &[f64]) -> f64 {
    slowdown(&[before_ms, after_ms].concat())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_median_pass_over_the_reference() {
        assert_eq!(slowdown(&[REFERENCE_MS; 3]), 1.0);
        let (fast, slow) = (REFERENCE_MS, 2.0 * REFERENCE_MS);
        assert_eq!(
            slowdown_between(&[fast, slow, slow], &[slow, fast, slow]),
            2.0
        );
    }

    #[test]
    fn passes_are_timed_and_the_work_repeats() {
        let probe = Probe::new();
        assert_eq!(probe.work(), probe.work());
        let passes = probe.passes();
        assert_eq!(passes.len(), PASSES);
        assert!(passes.iter().all(|&ms| ms > 0.0));
    }
}

//! The host calibration kernel.
//!
//! A fixed piece of work owned by the benchmark — integer ALU steps
//! interleaved with a dependent walk over a 512 KiB table, so it feels
//! both a clock-speed change and a cache that is being shared — timed
//! between slices. It touches no code of the repository: its time moves
//! only when the host does, which marks a run taken in a slow phase of
//! the shared machine (`host.calib_ms_p50`, `host.calib_spread_pct`).

use std::hint::black_box;
use std::time::Instant;

const TABLE_WORDS: usize = 512 * 1024 / 4;
const STEPS: usize = 200_000;

pub struct Calibrator {
    table: Vec<u32>,
    samples_ms: Vec<f64>,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        // A single cycle through every slot (an LCG with full period
        // modulo the power-of-two table size), so the walk cannot
        // settle into a cache-resident loop.
        let mut table = vec![0u32; TABLE_WORDS];
        let mut at = 0usize;
        for _ in 0..TABLE_WORDS {
            let next = (at * 5 + 12_345) % TABLE_WORDS;
            table[at] = next as u32;
            at = next;
        }
        Calibrator {
            table,
            samples_ms: Vec::with_capacity(1 << 13),
        }
    }

    /// Run the kernel once and keep its wall time.
    pub fn sample(&mut self) {
        let start = Instant::now();
        let mut at = 0u32;
        let mut acc = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..STEPS {
            at = self.table[at as usize];
            acc ^= acc << 13;
            acc ^= acc >> 7;
            acc ^= acc << 17;
            acc = acc.wrapping_add(at as u64);
        }
        black_box(acc);
        self.samples_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }

    pub fn samples_ms(&self) -> &[f64] {
        &self.samples_ms
    }
}

//! The host's speed, measured with a reference kernel between the slices of
//! every timed run, so that host times can be stated at one reference speed.
//!
//! On a shared host the speed of memory-bound code moves by up to half for
//! stretches of seconds to minutes, longer than a run, so neither the best
//! nor the median of a run's repeats is steady from run to run. The kernel
//! slows down with the same memory-system contention as the simulator: it
//! is a small discrete-event loop (a binary-heap event queue over a table of
//! 256 B to 1 KiB values, read, copied and rewritten at random) with a
//! working set of 32 MiB. It uses none of the repository's code, so a change
//! to the program never moves it, and it allocates nothing after it is
//! built, so it never fragments the heap the program allocates from.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Kernel operations per sample.
const OPS: usize = 64;

/// Seconds one sample takes at the reference speed (1 µs per operation,
/// about the speed of a quiet 2.0 GHz Xeon VM).
pub const REF_SAMPLE_S: f64 = OPS as f64 * 1e-6;

/// Keys of the value table; key `k` owns bytes `k * SLOT ..` of the table.
const KEYS: usize = 32_768;
const SLOT: usize = 1_024;

pub struct RefKernel {
    events: BinaryHeap<Reverse<(u64, u32)>>,
    /// Each key's value length, 0 when the key holds no value.
    lens: Vec<u16>,
    values: Vec<u8>,
    scratch: Vec<u8>,
    rng: u64,
    /// The previous event's digest, which picks the next key, so that each
    /// event's reads wait for the last one's, as pointer chasing does.
    last: u64,
}

impl RefKernel {
    /// Builds the kernel's state from a fixed seed and runs it until its
    /// table has reached its steady occupancy.
    pub fn new() -> Self {
        let mut k = RefKernel {
            events: BinaryHeap::with_capacity(16_384),
            lens: vec![0; KEYS],
            values: vec![0; KEYS * SLOT],
            scratch: vec![0; SLOT],
            rng: 0x9E37_79B9_7F4A_7C15,
            last: 0,
        };
        for id in 0..16_384 {
            let at = k.next() % 1_000_000;
            k.events.push(Reverse((at, id)));
        }
        for _ in 0..4 * KEYS {
            k.step();
        }
        k
    }

    fn next(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    /// One event: read-modify-write of a random key's value, removal of
    /// another key's, and a follow-up event.
    fn step(&mut self) {
        let Reverse((at, id)) = self.events.pop().expect("the event queue never drains");
        let key = (self.next() ^ self.last) as usize % KEYS;
        let slot = key * SLOT;
        let len = match self.lens[key] as usize {
            0 => {
                let len = 256 + key % 768;
                self.scratch[..len].fill(id as u8);
                len
            }
            len => {
                self.scratch[..len].copy_from_slice(&self.values[slot..slot + len]);
                self.scratch[0] ^= id as u8;
                len
            }
        };
        let digest: u64 = self.scratch[..len].iter().step_by(64).fold(at, |acc, &b| {
            acc.rotate_left(7) ^ (b as u64).wrapping_mul(0x2545_F491_4F6C_DD1D)
        });
        self.values[slot..slot + len].copy_from_slice(&self.scratch[..len]);
        self.lens[key] = len as u16;
        let evict = self.next() as usize % KEYS;
        self.lens[evict] = 0;
        let delay = 1 + self.next() % 1_000;
        self.events.push(Reverse((at + delay, id)));
        self.last = digest >> 16;
    }

    /// Host wall seconds for one sample of [`OPS`] operations.
    pub fn sample(&mut self) -> f64 {
        let start = Instant::now();
        for _ in 0..OPS {
            self.step();
        }
        black_box(self.last);
        start.elapsed().as_secs_f64()
    }
}

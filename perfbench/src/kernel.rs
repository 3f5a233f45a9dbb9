//! The reference kernel: a fixed amount of work whose rate, sampled right
//! before and after every timed block, stands in for the host's momentary
//! speed.
//!
//! The work is a pointer chase over a single-cycle permutation of 2^14
//! `u32` slots (64 KiB: past L1 and well inside L2, where the simulator's
//! hot router state lives). On the 2-vCPU reference host it tracked the
//! simulator's speed better than a branchy integer loop, than that loop
//! combined with the chase, and than chases over 4–64 MiB tables, whose
//! rate also moved from process to process with the physical placement of
//! their pages (see README.md, "Why this kernel").
//!
//! The kernel's work is fixed: the permutation comes from a local
//! generator with a constant seed, never from the simulator's code, so no
//! change to the simulator can change what the kernel measures.

use std::hint::black_box;
use std::time::Instant;

/// Slots in the chased table (64 KiB of `u32`).
pub const TABLE_LEN: usize = 1 << 14;

/// Dependent loads per rate sample (about 2.5 ms on the reference host).
pub const CHASE_STEPS: u64 = 1 << 19;

/// Reference-host kernel rate in dependent loads per second: the median
/// of the samples taken inside benchmark runs on the reference host
/// (2-vCPU Intel Xeon guest, `host_cpus` = 2, 2 MiB L2 per core). A
/// block's normalised time is its wall time × (measured rate / this
/// rate), i.e. the seconds the block would have taken on that host at its
/// nominal speed.
pub const R_NOMINAL: f64 = 2.2e8;

/// The chased permutation and the current position in it.
pub struct RefKernel {
    next: Vec<u32>,
    pos: u32,
}

/// splitmix64 step: the kernel's own generator, independent of
/// `noc_engine::Rng`.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl RefKernel {
    /// Builds the permutation with Sattolo's algorithm, which yields a
    /// single cycle through every slot: a chase never settles into a
    /// shorter loop.
    pub fn new() -> Self {
        Self::with_len(TABLE_LEN)
    }

    fn with_len(len: usize) -> Self {
        let mut next: Vec<u32> = (0..len as u32).collect();
        let mut state = 0x005E_ED0F_4B1E_u64;
        for i in (1..len).rev() {
            let j = (splitmix(&mut state) % i as u64) as usize;
            next.swap(i, j);
        }
        RefKernel { next, pos: 0 }
    }

    /// Follows `steps` links from the current position.
    pub fn chase(&mut self, steps: u64) -> u32 {
        let mut p = self.pos;
        for _ in 0..steps {
            p = self.next[p as usize];
        }
        self.pos = black_box(p);
        p
    }

    /// One rate sample: [`CHASE_STEPS`] dependent loads per second.
    pub fn rate(&mut self) -> f64 {
        let start = Instant::now();
        self.chase(CHASE_STEPS);
        CHASE_STEPS as f64 / start.elapsed().as_secs_f64().max(1e-9)
    }

    /// Walks the whole table once from slot 0 and returns the number of
    /// steps until the walk is back at 0 and the sum of the visited slots.
    /// For a single cycle these are `len` and `len * (len - 1) / 2`.
    #[cfg(test)]
    pub fn cycle_checksum(&self) -> (u64, u64) {
        let (mut p, mut steps, mut sum) = (0u32, 0u64, 0u64);
        loop {
            sum += p as u64;
            p = self.next[p as usize];
            steps += 1;
            if p == 0 || steps > self.next.len() as u64 {
                return (steps, sum);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_one_cycle_with_a_constant_checksum() {
        let kernel = RefKernel::new();
        let n = TABLE_LEN as u64;
        assert_eq!(kernel.cycle_checksum(), (n, n * (n - 1) / 2));
        // The permutation is fixed: the same walk lands on the same slot.
        let (mut a, mut b) = (RefKernel::new(), RefKernel::new());
        assert_eq!(a.chase(12_345), b.chase(12_345));
        assert_eq!(a.chase(TABLE_LEN as u64), a.chase(0), "a full lap returns");
    }

    #[test]
    fn small_tables_are_single_cycles_too() {
        for len in [2, 3, 17, 1000] {
            let k = RefKernel::with_len(len);
            let n = len as u64;
            assert_eq!(k.cycle_checksum(), (n, n * (n - 1) / 2), "len {len}");
        }
    }
}

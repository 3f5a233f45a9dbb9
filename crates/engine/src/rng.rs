//! Deterministic pseudo-random number generation.
//!
//! The simulator must be bit-reproducible across platforms and runs: every
//! arbitration decision, traffic destination and injection coin-flip is
//! drawn from a [`Rng`] seeded from the experiment configuration. We use
//! xoshiro256\*\* (Blackman & Vigna), a small, fast, well-studied generator,
//! seeded through SplitMix64 as its authors recommend. Implementing it here
//! (~60 lines) avoids an external dependency whose API or internals could
//! drift between versions and silently change experiment streams.

/// SplitMix64 step, used for seeding and for cheap hash-like mixing.
///
/// # Examples
///
/// ```
/// let (next_state, value) = noc_engine::rng::splitmix64(0);
/// assert_ne!(value, 0);
/// assert_ne!(next_state, 0);
/// ```
#[inline]
pub fn splitmix64(state: u64) -> (u64, u64) {
    let state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (state, z ^ (z >> 31))
}

/// A deterministic xoshiro256\*\* pseudo-random number generator.
///
/// # Examples
///
/// ```
/// use noc_engine::Rng;
///
/// let mut rng = Rng::from_seed(42);
/// let a = rng.next_u64();
/// let b = rng.next_u64();
/// assert_ne!(a, b);
/// // Same seed, same stream:
/// assert_eq!(Rng::from_seed(42).next_u64(), a);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a 64-bit seed, expanded via SplitMix64.
    pub fn from_seed(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            let (next, out) = splitmix64(sm);
            sm = next;
            *slot = out;
        }
        // xoshiro's state must not be all-zero; SplitMix64 cannot produce
        // four zero outputs in a row, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Rng { s }
    }

    /// Derives an independent child generator, e.g. one per router or per
    /// traffic source, so that component streams do not interleave.
    ///
    /// # Examples
    ///
    /// ```
    /// use noc_engine::Rng;
    /// let mut root = Rng::from_seed(7);
    /// let mut a = root.fork(0);
    /// let mut b = root.fork(1);
    /// assert_ne!(a.next_u64(), b.next_u64());
    /// ```
    pub fn fork(&self, stream: u64) -> Rng {
        // Mix the current state with the stream id through SplitMix64.
        let mut sm = self.s[0]
            ^ self.s[1].rotate_left(17)
            ^ self.s[2].rotate_left(31)
            ^ self.s[3].rotate_left(47)
            ^ stream.wrapping_mul(0xA24B_AED4_963E_E407);
        let mut s = [0u64; 4];
        for slot in &mut s {
            let (next, out) = splitmix64(sm);
            sm = next;
            *slot = out;
        }
        Rng { s }
    }

    /// Returns the next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniformly distributed value in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method, which is unbiased.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "Rng::below requires a non-zero bound");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut low = m as u64;
        if low < bound {
            let threshold = bound.wrapping_neg() % bound;
            while low < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns a uniformly distributed `usize` in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn index(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Returns a uniformly distributed `f64` in `[0, 1)` with 53-bit
    /// precision.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial: `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }

    /// Picks a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    #[inline]
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.index(items.len())]
    }

    /// Picks uniformly among the indices `0..n` that `free` admits, with
    /// the single `index(count)` draw that [`Rng::choose`] makes over the
    /// list of free indices, without building that list. `None`, and no
    /// draw, when no index is free.
    #[inline]
    pub fn pick_free(&mut self, n: usize, mut free: impl FnMut(usize) -> bool) -> Option<usize> {
        let count = (0..n).filter(|&i| free(i)).count();
        if count == 0 {
            return None;
        }
        let k = self.index(count);
        (0..n).filter(|&i| free(i)).nth(k)
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference vector from the xoshiro256** authors' C code, seeded with
    /// state {1, 2, 3, 4}.
    #[test]
    fn matches_reference_vector() {
        let mut rng = Rng { s: [1, 2, 3, 4] };
        let expected: [u64; 8] = [
            11520,
            0,
            1509978240,
            1215971899390074240,
            1216172134540287360,
            607988272756665600,
            16172922978634559625,
            8476171486693032832,
        ];
        for &e in &expected {
            assert_eq!(rng.next_u64(), e);
        }
    }

    #[test]
    fn splitmix_reference_vector() {
        // First three outputs of SplitMix64 seeded with 1234567.
        let mut state = 1234567u64;
        let mut outs = Vec::new();
        for _ in 0..3 {
            let (next, out) = splitmix64(state);
            state = next;
            outs.push(out);
        }
        assert_eq!(
            outs,
            vec![
                6457827717110365317,
                3203168211198807973,
                9817491932198370423
            ]
        );
    }

    #[test]
    fn seeded_streams_are_reproducible() {
        let mut a = Rng::from_seed(99);
        let mut b = Rng::from_seed(99);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(Rng::from_seed(1).next_u64(), Rng::from_seed(2).next_u64());
    }

    #[test]
    fn forks_are_independent_and_deterministic() {
        let root = Rng::from_seed(5);
        let mut a1 = root.fork(10);
        let mut a2 = root.fork(10);
        let mut b = root.fork(11);
        let va = a1.next_u64();
        assert_eq!(va, a2.next_u64());
        assert_ne!(va, b.next_u64());
    }

    #[test]
    fn below_is_in_range_and_covers_values() {
        let mut rng = Rng::from_seed(3);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = rng.below(7);
            assert!(v < 7);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    #[should_panic(expected = "non-zero bound")]
    fn below_zero_bound_panics() {
        Rng::from_seed(0).below(0);
    }

    #[test]
    fn unit_f64_in_half_open_interval() {
        let mut rng = Rng::from_seed(8);
        for _ in 0..1000 {
            let v = rng.unit_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Rng::from_seed(8);
        for _ in 0..100 {
            assert!(!rng.chance(0.0));
            assert!(rng.chance(1.0 + 1e-9));
        }
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut rng = Rng::from_seed(21);
        let trials = 100_000;
        let hits = (0..trials).filter(|_| rng.chance(0.3)).count();
        let rate = hits as f64 / trials as f64;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate} too far from 0.3");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::from_seed(13);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn kth_free_pick_matches_choose_over_the_free_list() {
        for n in [2usize, 4] {
            for mask in 0..1u32 << n {
                let is_free = |v: usize| mask >> v & 1 == 1;
                let free: Vec<usize> = (0..n).filter(|&v| is_free(v)).collect();
                for seed in 0..16 {
                    let mut picked = Rng::from_seed(seed);
                    let mut chosen = picked.clone();
                    let want = (!free.is_empty()).then(|| *chosen.choose(&free));
                    let got = picked.pick_free(n, is_free);
                    assert_eq!(got, want, "{n} VCs, free mask {mask:b}, seed {seed}");
                    assert_eq!(picked, chosen, "the pick must draw exactly as choose");
                }
            }
        }
    }

    #[test]
    fn choose_picks_members() {
        let mut rng = Rng::from_seed(17);
        let items = [10, 20, 30];
        for _ in 0..50 {
            assert!(items.contains(rng.choose(&items)));
        }
    }
}

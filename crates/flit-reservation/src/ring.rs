//! Slot arithmetic shared by the two reservation tables.
//!
//! Both tables keep a window of `window` consecutive cycles in a ring
//! indexed by `cycle % window`. A call divides once, for the ring slot
//! of the window's first cycle, and derives every other slot by
//! addition: a span of window offsets occupies at most two contiguous
//! runs of the ring, the part before the ring's end and the wrapped
//! part after its start.

use std::ops::Range;

/// The ring runs, in time order, holding window offsets `from..to` of a
/// `window`-slot ring whose offset 0 sits at slot `start`. The second
/// run is empty unless the span wraps.
pub(crate) fn runs(start: usize, window: usize, from: usize, to: usize) -> [Range<usize>; 2] {
    debug_assert!(start < window && from <= to && to <= window);
    let (a, b) = (start + from, start + to);
    if a >= window {
        [a - window..b - window, 0..0]
    } else if b <= window {
        [a..b, 0..0]
    } else {
        [a..window, 0..b - window]
    }
}

/// The ring slot `offset` cycles after slot `start`.
pub(crate) fn slot_after(start: usize, window: usize, offset: usize) -> usize {
    debug_assert!(start < window && offset < window);
    let s = start + offset;
    if s >= window {
        s - window
    } else {
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_cover_every_span_in_time_order() {
        for window in 1..=7usize {
            for start in 0..window {
                for from in 0..=window {
                    for to in from..=window {
                        let got: Vec<usize> = runs(start, window, from, to)
                            .into_iter()
                            .flatten()
                            .collect();
                        let want: Vec<usize> = (from..to).map(|i| (start + i) % window).collect();
                        assert_eq!(got, want, "window {window} start {start} {from}..{to}");
                        for i in from..to {
                            assert_eq!(slot_after(start, window, i), (start + i) % window);
                        }
                    }
                }
            }
        }
    }
}

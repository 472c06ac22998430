//! The simulator's future-event queue: one binary heap of timed
//! wake-ups.
//!
//! A `#delay` pushes `(time, seq, process, generation)`; the kernel
//! peeks the earliest time when a step goes quiescent and pops that
//! time's entries one by one. `seq` is a global counter that increases
//! with every push, so the `(time, seq)` order pops same-time entries
//! in exactly the order they were scheduled. Determinism of every
//! downstream artifact depends on this.
//!
//! A testbench keeps only a handful of wake-ups pending (a clock and a
//! stimulus process), so the heap stays a few entries deep.
//! [`FutureQueue::distinct_times`] counts the distinct pending times on
//! demand for the `sim_event_queue_depth` histogram, which is read only
//! while kernel telemetry is collected.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One pending wake-up: absolute time, global sequence, process,
/// process generation at scheduling time.
type Entry = (u64, u64, usize, u64);

/// The simulator's future-event queue. See the module docs for the
/// determinism contract.
#[derive(Debug, Default)]
pub(crate) struct FutureQueue {
    heap: BinaryHeap<Reverse<Entry>>,
    seq: u64,
}

impl FutureQueue {
    /// Number of distinct pending wake times, stale entries included.
    /// Quadratic in the pending entries, which a testbench keeps to a
    /// handful.
    pub(crate) fn distinct_times(&self) -> usize {
        let pending = self.heap.as_slice();
        pending
            .iter()
            .enumerate()
            .filter(|&(i, Reverse(e))| pending[..i].iter().all(|Reverse(f)| f.0 != e.0))
            .count()
    }

    /// Schedules `(pid, generation)` to wake at absolute `time`, which
    /// lies in the future (zero delays go to the inactive region, not
    /// here).
    pub(crate) fn schedule(&mut self, time: u64, pid: usize, generation: u64) {
        self.heap.push(Reverse((time, self.seq, pid, generation)));
        self.seq += 1;
    }

    /// Earliest pending wake time, or `None` when the queue is empty.
    pub(crate) fn next_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse(e)| e.0)
    }

    /// Pops the next `(pid, generation)` due at `time`, in scheduling
    /// order; `None` once no entry for `time` is left.
    pub(crate) fn pop_due(&mut self, time: u64) -> Option<(usize, u64)> {
        match self.heap.peek() {
            Some(&Reverse((t, _, pid, generation))) if t == time => {
                self.heap.pop();
                Some((pid, generation))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec as pvec;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Pops the earliest pending batch: its time and its `(pid,
    /// generation)` entries in scheduling order.
    fn pop_batch(q: &mut FutureQueue) -> Option<(u64, Vec<(usize, u64)>)> {
        let t = q.next_time()?;
        Some((t, std::iter::from_fn(|| q.pop_due(t)).collect()))
    }

    /// One step of a random queue workload: schedule `(pid,
    /// generation)` `delay` ticks ahead, or (`delay == 0`) pop the next
    /// batch.
    fn op_strategy() -> impl Strategy<Value = (u64, usize, u64)> {
        let delay = prop_oneof![
            Just(0u64),
            Just(0u64),
            1u64..=200,
            1u64..=4,
            Just(64u64),
            Just(65u64),
            Just(128u64),
        ];
        (delay, 0usize..6, 0u64..3)
    }

    proptest! {
        /// The queue wakes exactly what a `BTreeMap` of per-time `Vec`s
        /// wakes, batch by batch and in scheduling order, and counts the
        /// same distinct pending times. Delays straddle 64 ticks and
        /// small delays make many same-time events.
        #[test]
        fn queue_matches_a_btreemap_reference(ops in pvec(op_strategy(), 1..120)) {
            let mut q = FutureQueue::default();
            let mut reference: BTreeMap<u64, Vec<(usize, u64)>> = BTreeMap::new();
            let mut now = 0;
            for (delay, pid, generation) in ops {
                if delay == 0 {
                    let expected = reference.pop_first();
                    let got = pop_batch(&mut q);
                    prop_assert_eq!(&got, &expected);
                    if let Some((t, _)) = got {
                        now = t;
                    }
                } else {
                    q.schedule(now + delay, pid, generation);
                    reference.entry(now + delay).or_default().push((pid, generation));
                }
                prop_assert_eq!(q.distinct_times(), reference.len());
            }
            while let Some(expected) = reference.pop_first() {
                let got = pop_batch(&mut q);
                prop_assert_eq!(got.as_ref(), Some(&expected));
                prop_assert_eq!(q.distinct_times(), reference.len());
            }
            prop_assert_eq!(pop_batch(&mut q), None);
        }
    }

    #[test]
    fn pops_in_time_then_schedule_order() {
        let mut q = FutureQueue::default();
        q.schedule(10, 1, 0);
        q.schedule(5, 2, 0);
        q.schedule(10, 3, 0); // same time as the first
        q.schedule(500, 4, 0);
        q.schedule(10, 5, 0);
        assert_eq!(q.distinct_times(), 3);
        let batches: Vec<_> = std::iter::from_fn(|| pop_batch(&mut q)).collect();
        assert_eq!(
            batches,
            vec![
                (5, vec![(2, 0)]),
                (10, vec![(1, 0), (3, 0), (5, 0)]),
                (500, vec![(4, 0)]),
            ]
        );
        assert_eq!(q.distinct_times(), 0);
    }

    #[test]
    fn same_time_entries_pop_in_seq_order() {
        let mut q = FutureQueue::default();
        // A delay of 100 scheduled at time 0, then two of 40 scheduled
        // at time 60: all three are due at 100.
        q.schedule(100, 7, 0);
        q.schedule(60, 1, 0);
        assert_eq!(pop_batch(&mut q), Some((60, vec![(1, 0)])));
        q.schedule(100, 8, 0);
        q.schedule(100, 9, 1);
        assert_eq!(q.next_time(), Some(100));
        assert_eq!(q.pop_due(99), None, "nothing is due before 100");
        assert_eq!(
            pop_batch(&mut q),
            Some((100, vec![(7, 0), (8, 0), (9, 1)])),
            "scheduling order within one time"
        );
    }

    #[test]
    fn distinct_times_counts_times_not_entries() {
        let mut q = FutureQueue::default();
        for pid in 0..10 {
            q.schedule(7, pid, 0);
        }
        q.schedule(9, 99, 0);
        assert_eq!(q.distinct_times(), 2);
    }
}

//! Property test: the timing-wheel [`EventQueue`] pops the exact
//! `(time, seq)` sequence the original [`HeapEventQueue`] (BinaryHeap with
//! FIFO tie-break) produces, under arbitrary interleaved push/pop
//! schedules — including same-time bursts, level-boundary deltas, horizon
//! overflows into the far heap, pushes at or before already-popped times,
//! and `pop_until` with deadlines before, at and past the next event. This
//! is the reproducibility contract of the engine rewrite: any divergence
//! would silently reorder a simulation.

use dta_net::{EventQueue, HeapEventQueue, SimTime};
use proptest::prelude::*;

/// One scripted operation against both queues.
#[derive(Debug, Clone)]
enum Op {
    /// Push at `now + delta` (the common forward schedule).
    PushAhead(u64),
    /// Push at an absolute time (may time-travel below `now`).
    PushAt(u64),
    /// Pop once and advance `now` to the popped time.
    Pop,
    /// Pop once if an event is due by `now + delta`, and advance `now` to
    /// the popped time.
    PopUntil(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Deltas biased to straddle every wheel level and the far horizon;
    // repeated pop entries weight the (unweighted) union toward pops.
    let ahead = prop_oneof![
        Just(0u64),
        1u64..64,
        60u64..70,
        4090u64..4100,
        1u64..5000,
        260_000u64..265_000,
        ((1u64 << 24) - 10)..((1u64 << 24) + 10),
        (1u64 << 25)..(1u64 << 26),
    ];
    // Deadlines from "now" (often before the next event) to past the far
    // horizon.
    let deadline = || prop_oneof![Just(0u64), 0u64..64, 0u64..5000, 0u64..(1 << 25)];
    prop_oneof![
        ahead.prop_map(Op::PushAhead),
        (0u64..(1 << 26)).prop_map(Op::PushAt),
        Just(Op::Pop),
        Just(Op::Pop),
        deadline().prop_map(Op::PopUntil),
        deadline().prop_map(Op::PopUntil),
    ]
}

proptest! {
    #[test]
    fn wheel_pop_order_matches_heap_oracle(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        let mut wheel = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        let mut now = 0u64;
        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::PushAhead(d) => {
                    wheel.push(SimTime(now + d), i);
                    heap.push(SimTime(now + d), i);
                }
                Op::PushAt(t) => {
                    wheel.push(SimTime(*t), i);
                    heap.push(SimTime(*t), i);
                }
                Op::Pop => {
                    let w = wheel.pop();
                    prop_assert_eq!(w, heap.pop());
                    if let Some((t, _)) = w {
                        now = t.0;
                    }
                }
                Op::PopUntil(d) => {
                    let deadline = SimTime(now + d);
                    let w = wheel.pop_until(deadline);
                    prop_assert_eq!(w, heap.pop_until(deadline));
                    if let Some((t, _)) = w {
                        prop_assert!(t <= deadline);
                        now = t.0;
                    }
                }
            }
            prop_assert_eq!(wheel.len(), heap.len());
            prop_assert_eq!(wheel.is_empty(), heap.is_empty());
        }
        // Drain both to the end: the full residual sequence must match.
        loop {
            let w = wheel.pop();
            prop_assert_eq!(&w, &heap.pop());
            if w.is_none() {
                break;
            }
        }
    }
}

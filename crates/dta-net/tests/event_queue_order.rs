//! Property test: the timing-wheel [`EventQueue`] pops the exact
//! `(time, seq)` sequence the original [`HeapEventQueue`] (BinaryHeap with
//! FIFO tie-break) produces, under arbitrary interleaved push/pop
//! schedules — including same-time bursts, level-boundary deltas, horizon
//! overflows into the far heap, pushes at or before already-popped times,
//! and `pop_until` with deadlines before, at and past the next event. This
//! is the reproducibility contract of the engine rewrite: any divergence
//! would silently reorder a simulation.
//!
//! The engine serves a transit hop from the slot it popped: the event is
//! rewritten in place and `reschedule`d, sometimes after pushing a
//! duplicate. The oracle models that as what it replaces, a pop followed by
//! the pushes and then a push of the rewritten event, so the slot API must
//! give the same order as taking the event out and pushing it back.

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
    /// Pop a slot if an event is due by `now + deadline`, advance `now` to
    /// its time, rewrite its event, push `copies` events at `now + ahead`,
    /// then reschedule the slot at `now + ahead` (the engine's transit and
    /// Duplicate arms). The oracle pops, pushes the copies, then pushes the
    /// rewritten event.
    PopReschedule { deadline: u64, ahead: u64, copies: u8 },
    /// Pop a slot if an event is due by `now + deadline` and take its event
    /// out (the engine's delivery and loss arms); the oracle pops.
    PopTake(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Deltas biased to straddle every wheel level and the far horizon;
    // repeated pop entries weight the (unweighted) union toward pops.
    let ahead = || prop_oneof![
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
    let reschedule = || {
        (deadline(), ahead(), 0u8..3)
            .prop_map(|(deadline, ahead, copies)| Op::PopReschedule { deadline, ahead, copies })
    };
    prop_oneof![
        ahead().prop_map(Op::PushAhead),
        (0u64..(1 << 26)).prop_map(Op::PushAt),
        Just(Op::Pop),
        Just(Op::Pop),
        deadline().prop_map(Op::PopUntil),
        deadline().prop_map(Op::PopUntil),
        reschedule(),
        reschedule(),
        deadline().prop_map(Op::PopTake),
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
                Op::PopReschedule { deadline, ahead, copies } => {
                    let deadline = SimTime(now + deadline);
                    let held = wheel.pop_slot_until(deadline);
                    let h = heap.pop_until(deadline);
                    prop_assert_eq!(held.map(|(t, _)| t), h.map(|(t, _)| t));
                    if let (Some((t, idx)), Some((_, event))) = (held, h) {
                        prop_assert!(t <= deadline);
                        prop_assert_eq!(*wheel.slot_mut(idx), event);
                        now = t.0;
                        let at = SimTime(now + ahead);
                        for c in 0..usize::from(*copies) {
                            let copy = 1_000_000 * (c + 1) + i;
                            wheel.push(at, copy);
                            heap.push(at, copy);
                        }
                        *wheel.slot_mut(idx) = i;
                        wheel.reschedule(idx, at);
                        heap.push(at, i);
                    }
                }
                Op::PopTake(d) => {
                    let deadline = SimTime(now + d);
                    let w = wheel.pop_slot_until(deadline).map(|(t, idx)| (t, wheel.take(idx)));
                    prop_assert_eq!(w, heap.pop_until(deadline));
                    if let Some((t, _)) = w {
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

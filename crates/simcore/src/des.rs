//! A minimal discrete-event simulation engine.
//!
//! Events are ordered by `(time, sequence)` in a binary heap; ties are
//! broken by insertion order so simulations are fully deterministic. The
//! engine is deliberately generic: the carbon-aware scheduler drives it with
//! job-arrival / job-completion / intensity-update events.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Simulation timestamps are `f64` hours since the simulation epoch,
/// matching the hourly resolution of grid traces while allowing sub-hour
/// event times.
pub type SimTime = f64;

struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to pop the earliest event first.
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The event queue / clock of a discrete-event simulation.
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    now: SimTime,
    seq: u64,
    processed: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            now: 0.0,
            seq: 0,
            processed: 0,
        }
    }

    /// Current simulation time (the time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// # Panics
    /// If `time` is NaN or earlier than the current time (events cannot be
    /// scheduled in the past).
    pub fn schedule_at(&mut self, time: SimTime, event: E) {
        assert!(!time.is_nan(), "event time must not be NaN");
        assert!(
            time >= self.now,
            "cannot schedule into the past: {time} < {}",
            self.now
        );
        self.heap.push(Scheduled {
            time,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Schedules `event` after a delay relative to the current time.
    pub fn schedule_in(&mut self, delay: SimTime, event: E) {
        assert!(delay >= 0.0, "delay must be non-negative");
        self.schedule_at(self.now + delay, event);
    }

    /// Advances the clock to `time` without popping an event. A caller
    /// that merges its own time-ordered stream (such as a sorted list of
    /// arrivals) with the queue calls this for each event it takes from
    /// that stream, so `schedule_at`'s past check holds against the
    /// merged clock. The caller's event does not count in
    /// [`EventQueue::processed`].
    ///
    /// # Panics
    /// If `time` is NaN, earlier than the current time, or later than the
    /// earliest pending event (which could then never be popped in order).
    pub fn advance_to(&mut self, time: SimTime) {
        assert!(
            time >= self.now,
            "cannot move the clock backwards: {time} < {}",
            self.now
        );
        assert!(
            self.peek_time().is_none_or(|next| time <= next),
            "cannot move the clock past a pending event"
        );
        self.now = time;
    }

    /// Pops the next event, advancing the clock. Returns `None` when the
    /// simulation has run dry.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let s = self.heap.pop()?;
        self.now = s.time;
        self.processed += 1;
        Some((s.time, s.event))
    }

    /// Peeks at the next event time without advancing the clock.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.time)
    }

    /// Runs the simulation until the queue is empty or `handler` returns
    /// `false` (stop request). `handler` may schedule further events.
    pub fn run<F>(&mut self, mut handler: F)
    where
        F: FnMut(&mut Self, SimTime, E) -> bool,
    {
        while let Some(s) = self.heap.pop() {
            self.now = s.time;
            self.processed += 1;
            if !handler(self, s.time, s.event) {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(3.0, "c");
        q.schedule_at(1.0, "a");
        q.schedule_at(2.0, "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule_at(1.0, 1);
        q.schedule_at(1.0, 2);
        q.schedule_at(1.0, 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn clock_advances() {
        let mut q = EventQueue::new();
        q.schedule_at(5.0, ());
        assert_eq!(q.now(), 0.0);
        q.pop();
        assert_eq!(q.now(), 5.0);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.schedule_at(5.0, ());
        q.pop();
        q.schedule_at(1.0, ());
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule_at(10.0, "first");
        q.pop();
        q.schedule_in(2.5, "second");
        let (t, e) = q.pop().unwrap();
        assert_eq!(t, 12.5);
        assert_eq!(e, "second");
    }

    #[test]
    fn run_with_cascading_events() {
        // A handler that re-schedules a follow-up for the first 4 events.
        let mut q = EventQueue::new();
        q.schedule_at(1.0, 0u32);
        let mut seen = Vec::new();
        q.run(|q, t, gen| {
            seen.push((t, gen));
            if gen < 4 {
                q.schedule_in(1.0, gen + 1);
            }
            true
        });
        assert_eq!(seen.len(), 5);
        assert_eq!(seen.last(), Some(&(5.0, 4)));
        assert_eq!(q.processed(), 5);
    }

    #[test]
    fn run_stops_on_false() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule_at(i as f64, i);
        }
        let mut count = 0;
        q.run(|_, _, i| {
            count += 1;
            i < 3
        });
        // Events 0,1,2 return true; event 3 returns false and stops the run.
        assert_eq!(count, 4);
    }

    #[test]
    fn advance_to_moves_the_clock_without_popping() {
        let mut q = EventQueue::new();
        q.schedule_at(4.0, "pending");
        q.advance_to(2.5);
        assert_eq!(q.now(), 2.5);
        assert_eq!(q.processed(), 0);
        // A tie with the pending event is allowed; it still pops.
        q.advance_to(4.0);
        assert_eq!(q.pop(), Some((4.0, "pending")));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn advanced_clock_guards_schedule_at() {
        let mut q = EventQueue::new();
        q.advance_to(5.0);
        q.schedule_at(3.0, ());
    }

    #[test]
    #[should_panic(expected = "cannot move the clock backwards")]
    fn advance_to_rejects_going_back() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.advance_to(3.0);
        q.advance_to(2.0);
    }

    #[test]
    #[should_panic(expected = "cannot move the clock backwards")]
    fn advance_to_rejects_nan() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.advance_to(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "past a pending event")]
    fn advance_to_rejects_skipping_a_pending_event() {
        let mut q = EventQueue::new();
        q.schedule_at(1.0, ());
        q.advance_to(2.0);
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule_at(7.0, ());
        assert_eq!(q.peek_time(), Some(7.0));
        assert_eq!(q.now(), 0.0);
        assert_eq!(q.len(), 1);
    }
}

//! A bounded MPSC admission queue with blocking, rejecting and
//! evicting push modes.
//!
//! This is the pressure vessel between untrusted producers (socket
//! connections) and the single commit loop: capacity is fixed at
//! construction, so queue memory is bounded no matter how fast
//! producers arrive, and the three push modes implement the three
//! overload policies ([`FullPolicy`](crate::FullPolicy)) — block the
//! producer, bounce the new item, or evict the oldest waiter.
//!
//! Built on `std::sync::Mutex` + `Condvar` (the vendored `parking_lot`
//! has no condition variable) with two wait channels: consumers wait
//! for items, blocked producers wait for space.
//!
//! A producer that holds several items — a connection thread with the
//! lines one `read` returned — pushes them as a **burst**
//! ([`begin_burst`](BoundedQueue::begin_burst) …
//! [`end_burst`](BoundedQueue::end_burst)): the consumer is woken once,
//! at the end, instead of once per item, and until then the queue does
//! not count as [dry](BoundedQueue::is_dry). What arrived together is
//! handled together; a sleep-and-wake per item costs more than the item
//! when the consumer is the faster side.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
    /// A burst ended since the consumer last looked: it must look again
    /// even if the burst queued nothing.
    burst_ended: bool,
    /// Deepest the queue has ever been — bounded-memory evidence.
    high_water: usize,
}

/// A fixed-capacity FIFO shared between producer threads and one
/// consumer.
pub struct BoundedQueue<T> {
    capacity: usize,
    inner: Mutex<Inner<T>>,
    /// Producers between `begin_burst` and `end_burst`.
    bursting: AtomicUsize,
    not_empty: Condvar,
    not_full: Condvar,
}

/// What a successful push saw under the lock it already held — so the
/// producer's gauges cost no second and third lock round trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Depth {
    /// Items queued, the pushed one included.
    pub len: usize,
    /// The deepest the queue has ever been.
    pub high_water: usize,
}

/// What [`BoundedQueue::pop_batch`] observed.
#[derive(Debug, PartialEq, Eq)]
pub enum Popped<T> {
    /// Up to `max` items, FIFO order, and how many stayed queued behind
    /// them. Only the consumer empties the queue, so a non-zero count
    /// means it has not run dry since; zero means "ask again". The
    /// batch is empty when a burst ended without queueing anything:
    /// nothing to take, but [`is_dry`](BoundedQueue::is_dry) may have
    /// changed.
    Batch(Vec<T>, usize),
    /// Nothing arrived within the timeout; the queue is still open.
    Idle,
    /// The queue is closed and fully drained — no item will ever
    /// arrive again.
    Drained,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (floored at 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
                burst_ended: false,
                high_water: 0,
            }),
            bursting: AtomicUsize::new(0),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        // A producer panicking mid-push leaves the queue consistent
        // (push/pop are single operations), so poisoning is recoverable.
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn record_push(&self, inner: &mut Inner<T>, item: T) -> Depth {
        inner.items.push_back(item);
        inner.high_water = inner.high_water.max(inner.items.len());
        // Mid-burst the wake-up waits for `end_burst` — unless the queue
        // is filling up, which the consumer must not sleep through: a
        // full queue blocks, bounces or sheds.
        if self.bursting.load(Ordering::SeqCst) == 0 || 2 * inner.items.len() >= self.capacity {
            self.not_empty.notify_one();
        }
        Depth {
            len: inner.items.len(),
            high_water: inner.high_water,
        }
    }

    /// Blocking push: waits for space (true backpressure — the calling
    /// connection thread, and transitively the producer's socket,
    /// stalls). Returns the item back if the queue closed while
    /// waiting.
    pub fn push_blocking(&self, item: T) -> Result<Depth, T> {
        let mut inner = self.lock();
        while inner.items.len() >= self.capacity && !inner.closed {
            inner = self
                .not_full
                .wait(inner)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        if inner.closed {
            return Err(item);
        }
        Ok(self.record_push(&mut inner, item))
    }

    /// Non-blocking push: returns the item back when the queue is full
    /// or closed, so the caller can attribute the rejection.
    pub fn try_push(&self, item: T) -> Result<Depth, T> {
        let mut inner = self.lock();
        if inner.closed || inner.items.len() >= self.capacity {
            return Err(item);
        }
        Ok(self.record_push(&mut inner, item))
    }

    /// Evicting push: always admits the new item (unless closed, which
    /// returns it via `Err`), shedding the *oldest* queued item when
    /// full. The evicted item comes back for attribution.
    pub fn push_evicting(&self, item: T) -> Result<(Depth, Option<T>), T> {
        let mut inner = self.lock();
        if inner.closed {
            return Err(item);
        }
        let evicted = if inner.items.len() >= self.capacity {
            inner.items.pop_front()
        } else {
            None
        };
        Ok((self.record_push(&mut inner, item), evicted))
    }

    /// Announces that the caller is about to push several items in a
    /// row. Until the matching [`end_burst`](Self::end_burst), pushes
    /// (anyone's) leave the consumer asleep unless the queue is half
    /// full, and the queue is not [dry](Self::is_dry).
    pub fn begin_burst(&self) {
        self.bursting.fetch_add(1, Ordering::SeqCst);
    }

    /// Ends a burst and wakes the consumer — also when the burst queued
    /// nothing, because a consumer waiting for the queue to run dry has
    /// to learn that it now has.
    pub fn end_burst(&self) {
        let mut inner = self.lock();
        self.bursting.fetch_sub(1, Ordering::SeqCst);
        inner.burst_ended = true;
        self.not_empty.notify_one();
    }

    /// Whether nothing is queued and no producer is mid-burst: whatever
    /// the consumer holds, nothing is on its way to join it.
    pub fn is_dry(&self) -> bool {
        self.lock().items.is_empty() && self.bursting.load(Ordering::SeqCst) == 0
    }

    /// Consumer side: waits up to `timeout` for items (or the end of a
    /// burst), then drains up to `max` of them in FIFO order.
    /// [`Popped::Drained`] is terminal.
    pub fn pop_batch(&self, max: usize, timeout: Duration) -> Popped<T> {
        let mut inner = self.lock();
        if inner.items.is_empty() && !inner.closed && !inner.burst_ended {
            let (guard, _timeout) = self
                .not_empty
                .wait_timeout(inner, timeout)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            inner = guard;
        }
        let burst_ended = std::mem::take(&mut inner.burst_ended);
        if inner.items.is_empty() {
            return if inner.closed {
                Popped::Drained
            } else if burst_ended {
                Popped::Batch(Vec::new(), 0)
            } else {
                Popped::Idle
            };
        }
        let take = max.max(1).min(inner.items.len());
        let batch: Vec<T> = inner.items.drain(..take).collect();
        // Space freed: wake every blocked producer (each re-checks).
        self.not_full.notify_all();
        Popped::Batch(batch, inner.items.len())
    }

    /// Stops all admission: every subsequent push fails, blocked
    /// producers wake with their item back, and the consumer sees
    /// [`Popped::Drained`] once the remaining items are popped.
    pub fn close(&self) {
        let mut inner = self.lock();
        inner.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Whether [`close`](Self::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The deepest the queue has ever been.
    pub fn high_water(&self) -> usize {
        self.lock().high_water
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_and_batch_limit() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            let depth = q.try_push(i).unwrap();
            assert_eq!((depth.len, depth.high_water), (i + 1, i + 1));
        }
        assert_eq!(
            q.pop_batch(3, Duration::from_millis(1)),
            Popped::Batch(vec![0, 1, 2], 2),
            "two stay queued: not dry"
        );
        let depth = q.try_push(5).unwrap();
        assert_eq!(
            (depth.len, depth.high_water),
            (3, 5),
            "high water outlives the pop"
        );
        assert_eq!(
            q.pop_batch(10, Duration::from_millis(1)),
            Popped::Batch(vec![3, 4, 5], 0),
            "ran dry"
        );
        assert_eq!(q.pop_batch(10, Duration::from_millis(1)), Popped::Idle);
        assert_eq!(q.high_water(), 5);
    }

    #[test]
    fn try_push_bounces_when_full() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(3));
        assert_eq!(q.len(), 2, "memory stays bounded");
    }

    #[test]
    fn evicting_push_sheds_the_oldest() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        let full = Depth {
            len: 2,
            high_water: 2,
        };
        assert_eq!(
            q.push_evicting(3),
            Ok((full, Some(1))),
            "oldest came back, depth stays at capacity"
        );
        assert_eq!(
            q.pop_batch(10, Duration::from_millis(1)),
            Popped::Batch(vec![2, 3], 0)
        );
        assert_eq!(
            q.push_evicting(4)
                .map(|(depth, evicted)| (depth.len, evicted)),
            Ok((1, None))
        );
    }

    #[test]
    fn blocking_push_waits_for_space_then_lands() {
        let q = Arc::new(BoundedQueue::new(1));
        q.try_push(1).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push_blocking(2))
        };
        // The producer is stuck until the consumer makes room.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(q.len(), 1);
        assert_eq!(
            q.pop_batch(1, Duration::from_millis(100)),
            Popped::Batch(vec![1], 0)
        );
        let depth = producer.join().unwrap().unwrap();
        assert_eq!((depth.len, depth.high_water), (1, 1));
        assert_eq!(
            q.pop_batch(1, Duration::from_millis(100)),
            Popped::Batch(vec![2], 0)
        );
    }

    #[test]
    fn a_burst_wakes_the_consumer_once_at_its_end() {
        let q = Arc::new(BoundedQueue::new(8));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop_batch(10, Duration::from_secs(10)))
        };
        // Let the consumer find the queue empty and go to sleep.
        std::thread::sleep(Duration::from_millis(20));
        q.begin_burst();
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert!(!q.is_dry(), "items queued");
        std::thread::sleep(Duration::from_millis(20));
        assert!(!consumer.is_finished(), "woken mid-burst");
        q.end_burst();
        assert_eq!(consumer.join().unwrap(), Popped::Batch(vec![1, 2], 0));
        assert!(q.is_dry());
    }

    #[test]
    fn an_empty_burst_still_reports_its_end() {
        let q = Arc::new(BoundedQueue::<u32>::new(8));
        q.begin_burst();
        assert!(!q.is_dry(), "a producer is mid-burst: more may come");
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop_batch(10, Duration::from_secs(10)))
        };
        q.end_burst();
        assert_eq!(
            consumer.join().unwrap(),
            Popped::Batch(vec![], 0),
            "nothing to take, but the queue is dry now"
        );
        assert!(q.is_dry());
        assert_eq!(q.pop_batch(10, Duration::from_millis(1)), Popped::Idle);
    }

    #[test]
    fn a_burst_that_half_fills_the_queue_wakes_the_consumer_early() {
        let q = Arc::new(BoundedQueue::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop_batch(10, Duration::from_secs(10)))
        };
        std::thread::sleep(Duration::from_millis(20));
        q.begin_burst();
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        // No `end_burst` yet: the depth alone woke it, not the timeout.
        let pushed = std::time::Instant::now();
        assert_eq!(consumer.join().unwrap(), Popped::Batch(vec![1, 2], 0));
        assert!(
            pushed.elapsed() < Duration::from_secs(5),
            "consumer slept through a filling queue"
        );
        q.end_burst();
    }

    #[test]
    fn close_unblocks_producers_and_drains_consumer() {
        let q = Arc::new(BoundedQueue::new(1));
        q.try_push(1).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push_blocking(2))
        };
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(producer.join().unwrap(), Err(2), "blocked item returned");
        assert_eq!(q.try_push(3), Err(3), "closed queue admits nothing");
        // The item queued before close still drains, then Drained.
        assert_eq!(
            q.pop_batch(10, Duration::from_millis(1)),
            Popped::Batch(vec![1], 0)
        );
        assert_eq!(q.pop_batch(10, Duration::from_millis(1)), Popped::Drained);
    }
}

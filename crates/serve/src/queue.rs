//! A small bounded MPMC queue (mutex + condvars) — the backpressure
//! primitive between the accept thread and the request handlers.
//!
//! `std::sync::mpsc` receivers are single-consumer; the daemon needs many
//! handler threads popping connections, so this carries its own small
//! queue instead. Semantics:
//!
//! * [`push_blocking`](Bounded::push_blocking) waits for space — the
//!   accept thread's form of backpressure (connections wait in the OS
//!   accept backlog);
//! * [`pop`](Bounded::pop) blocks until an item or close; after
//!   [`close`](Bounded::close) remaining items still drain (pop returns
//!   them) and only then does `pop` return `None` — the graceful-shutdown
//!   contract: nothing accepted is dropped.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer multi-consumer queue (see the module docs).
pub struct Bounded<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> Bounded<T> {
    /// Creates a queue holding at most `capacity` items.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Bounded {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            capacity,
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Enqueues, waiting for space; returns the item back if the queue is
    /// (or becomes) closed.
    pub fn push_blocking(&self, item: T) -> Result<(), T> {
        let mut state = self.state.lock().unwrap();
        loop {
            if state.closed {
                return Err(item);
            }
            if state.items.len() < self.capacity {
                state.items.push_back(item);
                drop(state);
                self.not_empty.notify_one();
                return Ok(());
            }
            state = self.not_full.wait(state).unwrap();
        }
    }

    /// Dequeues, blocking until an item arrives or — once the queue is
    /// closed *and* drained — returning `None`.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(item) = state.items.pop_front() {
                drop(state);
                self.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).unwrap();
        }
    }

    /// Closes the queue: pushes start failing, pops drain the remainder
    /// and then return `None`. All waiters wake.
    pub fn close(&self) {
        let mut state = self.state.lock().unwrap();
        state.closed = true;
        drop(state);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo() {
        let q = Bounded::new(2);
        q.push_blocking(1).unwrap();
        q.push_blocking(2).unwrap();
        assert_eq!(q.pop(), Some(1));
        q.push_blocking(3).unwrap();
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
    }

    #[test]
    fn close_drains_then_ends() {
        let q = Bounded::new(4);
        q.push_blocking(1).unwrap();
        q.push_blocking(2).unwrap();
        q.close();
        assert_eq!(q.push_blocking(3), Err(3));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cross_thread_handoff() {
        let q = Arc::new(Bounded::new(1));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(v) = q.pop() {
                    got.push(v);
                }
                got
            })
        };
        for i in 0..100 {
            q.push_blocking(i).unwrap();
        }
        q.close();
        assert_eq!(consumer.join().unwrap(), (0..100).collect::<Vec<_>>());
    }
}

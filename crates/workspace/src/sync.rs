//! The reply slot behind every mailbox command — `Mutex` + `Condvar`
//! only, no external dependencies and no `unsafe`.
//!
//! [`oneshot`] is a single-value reply slot. The worker sends exactly one
//! result; the caller blocks until it arrives. If the sender is dropped
//! without sending (a worker died, or shutdown swept the command), the
//! receiver wakes with `None` instead of deadlocking.

use std::sync::{Arc, Condvar, Mutex};

struct SlotState<T> {
    value: Option<T>,
    done: bool,
}

struct SlotInner<T> {
    slot: Mutex<SlotState<T>>,
    cv: Condvar,
}

/// The sending half of a [`oneshot`] reply slot. Dropping it unsent wakes
/// the receiver with `None`.
pub struct OneShotSender<T>(Arc<SlotInner<T>>);

/// The receiving half of a [`oneshot`] reply slot.
pub struct OneShotReceiver<T>(Arc<SlotInner<T>>);

/// Creates a connected single-value reply slot.
pub fn oneshot<T>() -> (OneShotSender<T>, OneShotReceiver<T>) {
    let inner = Arc::new(SlotInner {
        slot: Mutex::new(SlotState {
            value: None,
            done: false,
        }),
        cv: Condvar::new(),
    });
    (OneShotSender(Arc::clone(&inner)), OneShotReceiver(inner))
}

impl<T> OneShotSender<T> {
    /// Delivers the value and wakes the receiver.
    pub fn send(self, value: T) {
        let mut st = self.0.slot.lock().expect("oneshot lock");
        st.value = Some(value);
        st.done = true;
        drop(st);
        self.0.cv.notify_all();
        // Drop of `self` re-checks `done` and is a no-op.
    }
}

impl<T> Drop for OneShotSender<T> {
    fn drop(&mut self) {
        let mut st = self.0.slot.lock().expect("oneshot lock");
        if !st.done {
            st.done = true;
            drop(st);
            self.0.cv.notify_all();
        }
    }
}

impl<T> OneShotReceiver<T> {
    /// Blocks until the value arrives; `None` if the sender vanished.
    pub fn recv(self) -> Option<T> {
        let mut st = self.0.slot.lock().expect("oneshot lock");
        while !st.done {
            st = self.0.cv.wait(st).expect("oneshot lock");
        }
        st.value.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oneshot_delivers() {
        let (tx, rx) = oneshot();
        std::thread::spawn(move || tx.send(42));
        assert_eq!(rx.recv(), Some(42));
    }

    #[test]
    fn oneshot_dropped_sender_wakes_receiver() {
        let (tx, rx) = oneshot::<u32>();
        std::thread::spawn(move || drop(tx));
        assert_eq!(rx.recv(), None, "no deadlock on a dead worker");
    }
}

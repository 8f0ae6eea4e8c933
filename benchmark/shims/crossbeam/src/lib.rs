//! `crossbeam::channel`-shaped bounded MPMC channel.
//!
//! One mutex-guarded ring plus two condition variables. Senders and
//! receivers are both cloneable (the runtime clones receivers, which
//! `std::sync::mpsc` cannot do); the channel disconnects when either
//! side's last handle drops. Zero-capacity (rendezvous) channels are
//! not implemented — nothing in the workspace creates one.

/// Bounded multi-producer multi-consumer channels.
pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
    use std::time::{Duration, Instant};

    struct State<T> {
        items: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        capacity: usize,
        not_empty: Condvar,
        not_full: Condvar,
    }

    impl<T> Shared<T> {
        // Every critical section leaves `State` valid at each step, so
        // a panic elsewhere while holding the lock cannot corrupt it.
        fn lock(&self) -> MutexGuard<'_, State<T>> {
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        }
    }

    /// Creates a channel holding at most `capacity` messages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
        assert!(
            capacity > 0,
            "crossbeam shim: zero-capacity channels are not implemented"
        );
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                items: VecDeque::with_capacity(capacity),
                senders: 1,
                receivers: 1,
            }),
            capacity,
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    /// The sending half; clone it for more producers.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    impl<T> Sender<T> {
        /// Blocks until there is room, then enqueues `msg`.
        ///
        /// # Errors
        ///
        /// Returns the message when every receiver is gone.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut st = self.shared.lock();
            loop {
                if st.receivers == 0 {
                    return Err(SendError(msg));
                }
                if st.items.len() < self.shared.capacity {
                    st.items.push_back(msg);
                    drop(st);
                    self.shared.not_empty.notify_one();
                    return Ok(());
                }
                st = self
                    .shared
                    .not_full
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        /// Enqueues `msg` only if there is room right now.
        ///
        /// # Errors
        ///
        /// `Full` when the channel is at capacity, `Disconnected` when
        /// every receiver is gone; both hand the message back.
        pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
            let mut st = self.shared.lock();
            if st.receivers == 0 {
                return Err(TrySendError::Disconnected(msg));
            }
            if st.items.len() >= self.shared.capacity {
                return Err(TrySendError::Full(msg));
            }
            st.items.push_back(msg);
            drop(st);
            self.shared.not_empty.notify_one();
            Ok(())
        }

        /// Messages currently queued.
        pub fn len(&self) -> usize {
            self.shared.lock().items.len()
        }

        /// Whether nothing is queued.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.lock().senders += 1;
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.shared.lock();
            st.senders -= 1;
            let last = st.senders == 0;
            drop(st);
            if last {
                self.shared.not_empty.notify_all();
            }
        }
    }

    /// The receiving half; clone it for more consumers.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives.
        ///
        /// # Errors
        ///
        /// Errs once the channel is empty and every sender is gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.shared.lock();
            loop {
                if let Some(msg) = st.items.pop_front() {
                    drop(st);
                    self.shared.not_full.notify_one();
                    return Ok(msg);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self
                    .shared
                    .not_empty
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        /// Blocks for at most `timeout` for a message.
        ///
        /// # Errors
        ///
        /// `Timeout` when nothing arrived in time, `Disconnected` once
        /// the channel is empty and every sender is gone.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut st = self.shared.lock();
            loop {
                if let Some(msg) = st.items.pop_front() {
                    drop(st);
                    self.shared.not_full.notify_one();
                    return Ok(msg);
                }
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                st = self
                    .shared
                    .not_empty
                    .wait_timeout(st, deadline - now)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        }

        /// Takes a message only if one is queued right now.
        ///
        /// # Errors
        ///
        /// `Empty` when nothing is queued, `Disconnected` when nothing
        /// is queued and every sender is gone.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.shared.lock();
            if let Some(msg) = st.items.pop_front() {
                drop(st);
                self.shared.not_full.notify_one();
                return Ok(msg);
            }
            if st.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Messages currently queued.
        pub fn len(&self) -> usize {
            self.shared.lock().items.len()
        }

        /// Whether nothing is queued.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.lock().receivers += 1;
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = self.shared.lock();
            st.receivers -= 1;
            let last = st.receivers == 0;
            drop(st);
            if last {
                self.shared.not_full.notify_all();
            }
        }
    }

    /// `send` failed: every receiver is gone. Carries the message.
    #[derive(PartialEq, Eq, Clone, Copy)]
    pub struct SendError<T>(pub T);

    /// `try_send` failed. Carries the message.
    #[derive(PartialEq, Eq, Clone, Copy)]
    pub enum TrySendError<T> {
        /// The channel is at capacity.
        Full(T),
        /// Every receiver is gone.
        Disconnected(T),
    }

    /// `recv` failed: the channel is empty and every sender is gone.
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub struct RecvError;

    /// `recv_timeout` failed.
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum RecvTimeoutError {
        /// Nothing arrived before the deadline.
        Timeout,
        /// The channel is empty and every sender is gone.
        Disconnected,
    }

    /// `try_recv` failed.
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum TryRecvError {
        /// Nothing is queued.
        Empty,
        /// Nothing is queued and every sender is gone.
        Disconnected,
    }

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Debug for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => f.write_str("Full(..)"),
                TrySendError::Disconnected(_) => f.write_str("Disconnected(..)"),
            }
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    impl<T> fmt::Display for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => f.write_str("sending on a full channel"),
                TrySendError::Disconnected(_) => f.write_str("sending on a disconnected channel"),
            }
        }
    }

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    impl fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                RecvTimeoutError::Timeout => f.write_str("timed out waiting on receive"),
                RecvTimeoutError::Disconnected => {
                    f.write_str("receiving on an empty and disconnected channel")
                }
            }
        }
    }

    impl fmt::Display for TryRecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TryRecvError::Empty => f.write_str("receiving on an empty channel"),
                TryRecvError::Disconnected => {
                    f.write_str("receiving on an empty and disconnected channel")
                }
            }
        }
    }

    impl<T> std::error::Error for SendError<T> {}
    impl<T> std::error::Error for TrySendError<T> {}
    impl std::error::Error for RecvError {}
    impl std::error::Error for RecvTimeoutError {}
    impl std::error::Error for TryRecvError {}

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn capacity_backpressure_and_fifo() {
            let (tx, rx) = bounded(2);
            tx.send(1).unwrap();
            tx.try_send(2).unwrap();
            assert!(matches!(tx.try_send(3), Err(TrySendError::Full(3))));
            assert_eq!(rx.len(), 2);
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(1)),
                Err(RecvTimeoutError::Timeout)
            );
        }

        #[test]
        fn disconnect_is_seen_on_both_sides() {
            let (tx, rx) = bounded(1);
            let tx2 = tx.clone();
            tx.send(7).unwrap();
            drop(tx);
            drop(tx2);
            // Queued messages survive the senders.
            assert_eq!(rx.recv(), Ok(7));
            assert_eq!(rx.recv(), Err(RecvError));
            assert_eq!(
                rx.recv_timeout(Duration::from_secs(1)),
                Err(RecvTimeoutError::Disconnected)
            );

            let (tx, rx) = bounded(1);
            drop(rx.clone());
            drop(rx);
            assert!(matches!(tx.send(1), Err(SendError(1))));
            assert!(matches!(tx.try_send(2), Err(TrySendError::Disconnected(2))));
        }

        #[test]
        fn blocked_sender_wakes_when_receiver_takes() {
            let (tx, rx) = bounded(1);
            tx.send(0u32).unwrap();
            std::thread::scope(|s| {
                // The second send must block until the receive below.
                s.spawn(|| tx.send(1).unwrap());
                assert_eq!(rx.recv(), Ok(0));
                assert_eq!(rx.recv(), Ok(1));
            });
        }

        #[test]
        fn blocked_receiver_wakes_on_last_sender_drop() {
            let (tx, rx) = bounded::<u32>(1);
            std::thread::scope(|s| {
                let h = s.spawn(|| rx.recv());
                drop(tx);
                assert_eq!(h.join().unwrap(), Err(RecvError));
            });
        }
    }
}

//! The closed-loop load generator: at most `nproc` client threads, each
//! holding exactly one keep-alive connection for its whole sequence.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Spawns client threads and hands each one connection.
#[derive(Debug)]
pub struct LoadGen {
    clients: usize,
    threads_opened: AtomicUsize,
    connections_opened: AtomicUsize,
}

impl LoadGen {
    /// A generator for `requested` clients, capped at `cap` (the host's
    /// `nproc`) and at least one.
    pub fn new(requested: usize, cap: usize) -> Self {
        LoadGen {
            clients: requested.clamp(1, cap.max(1)),
            threads_opened: AtomicUsize::new(0),
            connections_opened: AtomicUsize::new(0),
        }
    }

    /// Client threads each run uses.
    pub fn clients(&self) -> usize {
        self.clients
    }

    /// Client threads opened so far, over all runs.
    pub fn threads_opened(&self) -> usize {
        self.threads_opened.load(Ordering::Relaxed)
    }

    /// Connections opened so far, over all runs.
    pub fn connections_opened(&self) -> usize {
        self.connections_opened.load(Ordering::Relaxed)
    }

    /// Runs one closed loop: every client thread opens one connection
    /// with `connect` and runs `body(client, &mut connection)` on it.
    /// Returns each client's result in client order; a client whose
    /// connect failed returns the error.
    pub fn run<C, T, E>(
        &self,
        connect: impl Fn() -> Result<C, E> + Sync,
        body: impl Fn(usize, &mut C) -> T + Sync,
    ) -> Vec<Result<T, E>>
    where
        T: Send,
        E: Send,
    {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.clients)
                .map(|client| {
                    let (connect, body) = (&connect, &body);
                    self.threads_opened.fetch_add(1, Ordering::Relaxed);
                    scope.spawn(move || {
                        self.connections_opened.fetch_add(1, Ordering::Relaxed);
                        let mut conn = connect()?;
                        Ok(body(client, &mut conn))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    #[test]
    fn never_more_clients_than_nproc() {
        let nproc = crate::nproc();
        let load = LoadGen::new(64, nproc);
        assert!(load.clients() <= nproc);
        assert_eq!(LoadGen::new(0, nproc).clients(), 1);
        assert_eq!(LoadGen::new(64, 1).clients(), 1);
    }

    #[test]
    fn one_thread_and_one_connection_per_client() {
        let load = LoadGen::new(64, 3);
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let barrier = Barrier::new(load.clients());
        for _ in 0..2 {
            let out = load.run(
                || Ok::<_, ()>(Vec::<usize>::new()),
                |client, conn| {
                    let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    // Every client is alive at once here: the peak is
                    // exactly the client count.
                    barrier.wait();
                    conn.push(client);
                    live.fetch_sub(1, Ordering::SeqCst);
                    conn.len()
                },
            );
            assert_eq!(out, vec![Ok(1); 3]);
        }
        assert_eq!(peak.load(Ordering::SeqCst), 3);
        assert_eq!(load.threads_opened(), 6);
        assert_eq!(load.connections_opened(), 6);
    }
}

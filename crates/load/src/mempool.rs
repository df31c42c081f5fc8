//! Bounded admission mempool between a [`Workload`](crate::Workload)
//! and the protocol's `submit_tx`.
//!
//! Open-loop generators keep offering load whether or not consensus
//! keeps up, so *something* has to give when the system saturates. The
//! mempool is where it gives, visibly: a hard capacity cap, a per-client
//! fairness cap (one flash-crowd client cannot evict everyone else's
//! traffic), FIFO batched draining (the service rate), and exact
//! accounting of every offered transaction's fate ([`MempoolStats`]).

/// A transaction waiting in the mempool: which client offered it, and
/// at which round it arrived (the timestamp latency is measured from).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PendingTx {
    /// Index of the offering client.
    pub client: usize,
    /// Round the transaction arrived at the mempool.
    pub arrived: u64,
}

/// Where every offered transaction went. All counters are cumulative
/// over the mempool's lifetime; `offered` is the sum of `admitted` and
/// the three drop counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MempoolStats {
    /// Transactions the workload offered.
    pub offered: u64,
    /// Transactions admitted to the queue.
    pub admitted: u64,
    /// Drops because the queue was at capacity.
    pub dropped_capacity: u64,
    /// Drops because the client was at its fairness cap.
    pub dropped_fairness: u64,
    /// Drops because no honest process was awake to receive the
    /// transaction (the simulator's `WorkloadSpec::txs_every` only).
    pub dropped_asleep: u64,
    /// Transactions drained into `submit_tx`.
    pub drained: u64,
    /// Queue-rounds spent held over because no proposer was awake
    /// (each waiting tx counts once per skipped round).
    pub held_over: u64,
    /// Maximum queue occupancy ever observed.
    pub high_water: usize,
}

/// A bounded FIFO mempool with per-client fairness admission.
#[derive(Clone, Debug)]
pub struct Mempool {
    queue: Vec<PendingTx>,
    per_client: Vec<u64>,
    capacity: usize,
    fairness_cap: u64,
    stats: MempoolStats,
}

impl Mempool {
    /// A mempool holding at most `capacity` transactions, shared by
    /// `clients` clients. The default fairness cap is an equal share,
    /// `max(1, capacity / clients)`: with `capacity ≥ clients` no
    /// client with less than its share queued is ever rejected.
    pub fn new(capacity: usize, clients: usize) -> Mempool {
        let clients = clients.max(1);
        let fairness_cap = ((capacity / clients) as u64).max(1);
        Mempool::with_fairness_cap(capacity, clients, fairness_cap)
    }

    /// A mempool with an explicit per-client fairness cap.
    pub fn with_fairness_cap(capacity: usize, clients: usize, fairness_cap: u64) -> Mempool {
        Mempool {
            queue: Vec::new(),
            per_client: vec![0; clients.max(1)],
            capacity,
            fairness_cap: fairness_cap.max(1),
            stats: MempoolStats::default(),
        }
    }

    /// Offers one transaction from `client` at round `round`. Returns
    /// whether it was admitted; rejections are counted by cause.
    pub fn offer(&mut self, client: usize, round: u64) -> bool {
        self.stats.offered += 1;
        if self.queue.len() >= self.capacity {
            self.stats.dropped_capacity += 1;
            return false;
        }
        let client = client.min(self.per_client.len() - 1);
        if self.per_client[client] >= self.fairness_cap {
            self.stats.dropped_fairness += 1;
            return false;
        }
        self.per_client[client] += 1;
        self.queue.push(PendingTx {
            client,
            arrived: round,
        });
        self.stats.admitted += 1;
        self.stats.high_water = self.stats.high_water.max(self.queue.len());
        true
    }

    /// Counts an arrival that was dropped before admission because no
    /// honest process was awake — the simulator's
    /// `WorkloadSpec::txs_every` rule, where a transaction offered to an
    /// empty room simply never existed. Only that workload calls this.
    pub fn note_asleep_drop(&mut self) {
        self.stats.offered += 1;
        self.stats.dropped_asleep += 1;
    }

    /// Drains up to `max` transactions in FIFO order — the per-round
    /// service batch handed to `submit_tx`.
    pub fn drain(&mut self, max: usize) -> Vec<PendingTx> {
        let take = max.min(self.queue.len());
        let batch: Vec<PendingTx> = self.queue.drain(..take).collect();
        for tx in &batch {
            self.per_client[tx.client] -= 1;
        }
        self.stats.drained += batch.len() as u64;
        batch
    }

    /// Records a round in which nothing could be drained because no
    /// proposer was awake; every queued transaction waits one more
    /// round.
    pub fn hold_over(&mut self) {
        self.stats.held_over += self.queue.len() as u64;
    }

    /// Current queue occupancy.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// The capacity cap.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The per-client fairness cap.
    pub fn fairness_cap(&self) -> u64 {
        self.fairness_cap
    }

    /// Lifetime accounting.
    pub fn stats(&self) -> MempoolStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_fifo_and_drains_in_order() {
        let mut mp = Mempool::new(8, 2);
        assert!(mp.offer(0, 1));
        assert!(mp.offer(1, 1));
        assert!(mp.offer(0, 2));
        assert_eq!(mp.len(), 3);
        let batch = mp.drain(2);
        assert_eq!(
            batch,
            vec![
                PendingTx {
                    client: 0,
                    arrived: 1
                },
                PendingTx {
                    client: 1,
                    arrived: 1
                },
            ]
        );
        assert_eq!(mp.len(), 1);
        assert!(!mp.is_empty());
        let s = mp.stats();
        assert_eq!((s.offered, s.admitted, s.drained), (3, 3, 2));
    }

    #[test]
    fn capacity_cap_drops_and_counts() {
        let mut mp = Mempool::with_fairness_cap(2, 1, u64::MAX);
        assert!(mp.offer(0, 1));
        assert!(mp.offer(0, 1));
        assert!(!mp.offer(0, 1));
        assert_eq!(mp.stats().dropped_capacity, 1);
        assert_eq!(mp.len(), mp.capacity());
        // Draining frees space again.
        mp.drain(1);
        assert!(mp.offer(0, 2));
    }

    #[test]
    fn fairness_cap_shields_the_quiet_client() {
        // capacity 4, 2 clients → fair share 2 each.
        let mut mp = Mempool::new(4, 2);
        assert_eq!(mp.fairness_cap(), 2);
        assert!(mp.offer(0, 1));
        assert!(mp.offer(0, 1));
        assert!(!mp.offer(0, 1), "client 0 is at its share");
        // Client 1 still gets its full share despite client 0's flood.
        assert!(mp.offer(1, 1));
        assert!(mp.offer(1, 1));
        let s = mp.stats();
        assert_eq!(s.dropped_fairness, 1);
        assert_eq!(s.admitted, 4);
        // Draining client 0's txs releases its fairness budget.
        mp.drain(2);
        assert!(mp.offer(0, 2));
    }

    #[test]
    fn hold_over_and_asleep_accounting() {
        let mut mp = Mempool::new(8, 1);
        mp.offer(0, 1);
        mp.offer(0, 1);
        mp.hold_over();
        mp.hold_over();
        assert_eq!(mp.stats().held_over, 4);
        mp.note_asleep_drop();
        let s = mp.stats();
        assert_eq!(s.dropped_asleep, 1);
        assert_eq!(s.offered, 3);
        assert_eq!(s.high_water, 2);
    }

    #[test]
    fn degenerate_shapes_stay_sane() {
        // Zero clients is treated as one; zero capacity drops all.
        let mut mp = Mempool::new(0, 0);
        assert_eq!(mp.fairness_cap(), 1);
        assert!(!mp.offer(0, 1));
        assert_eq!(mp.stats().dropped_capacity, 1);
        assert!(mp.drain(5).is_empty());
        // Out-of-range client indices clamp instead of panicking.
        let mut mp = Mempool::new(4, 2);
        assert!(mp.offer(17, 1));
        assert_eq!(mp.drain(1)[0].client, 1);
    }
}

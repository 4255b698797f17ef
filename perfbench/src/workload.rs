//! The four workloads and the inputs each sync gets, all derived from the
//! workload seed: the same seed gives the same server set, the same client
//! sets and the same churn writes.

use riblt::FixedBytes;
use riblt_hash::{splitmix64, XorShift64Star};

/// Bytes per item.
pub const ITEM_LEN: usize = 32;
/// The served item type.
pub type Item = FixedBytes<ITEM_LEN>;
/// Items the daemon serves.
pub const SERVER_ITEMS: usize = 100_000;
/// Keyspace shards the daemon partitions its set into.
pub const SHARDS: u16 = 8;

/// Tag bits keeping server, client-only and churn items apart.
const CLIENT_TAG: u64 = 1 << 63;
const CHURN_TAG: u64 = 1 << 62;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    Tcp,
    Udp,
}

/// One traffic mix. Every workload is a closed loop of one client.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub transport: Transport,
    /// Differences per sync, cycled through in order.
    pub staleness: &'static [usize],
    /// Net-zero `ADD`+`REMOVE` pairs written through the admin socket
    /// before every sync.
    pub churn_pairs: usize,
    /// Share of datagrams dropped in each direction.
    pub loss: f64,
}

/// With four equally common levels the median would sit on the boundary
/// between two of them and swing run to run; 512 gives it a level of its
/// own, and p90 falls inside the 4096 level.
const STALE_MIX: &[usize] = &[16, 128, 512, 1024, 4096];

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "tcp_stale_mix",
        transport: Transport::Tcp,
        staleness: STALE_MIX,
        churn_pairs: 0,
        loss: 0.0,
    },
    Workload {
        name: "tcp_churn",
        transport: Transport::Tcp,
        staleness: STALE_MIX,
        churn_pairs: 8,
        loss: 0.0,
    },
    Workload {
        name: "udp_bulk_churn",
        transport: Transport::Udp,
        staleness: &[16_384],
        churn_pairs: 8,
        loss: 0.0,
    },
    Workload {
        name: "udp_lossy",
        transport: Transport::Udp,
        staleness: STALE_MIX,
        churn_pairs: 0,
        loss: 0.05,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Syncs per staleness cycle.
    pub fn cycle(&self) -> usize {
        self.staleness.len()
    }

    pub fn staleness_of(&self, sync: u64) -> usize {
        self.staleness[(sync % self.staleness.len() as u64) as usize]
    }
}

/// A distinct item: the tag in the first 8 bytes keeps items of different
/// tags apart by construction, the rest is seeded noise.
fn item(seed: u64, tag: u64) -> Item {
    let mut bytes = [0u8; ITEM_LEN];
    bytes[..8].copy_from_slice(&tag.to_le_bytes());
    let mut state = splitmix64(seed ^ splitmix64(tag));
    for chunk in bytes[8..].chunks_mut(8) {
        state = splitmix64(state);
        chunk.copy_from_slice(&state.to_le_bytes()[..chunk.len()]);
    }
    FixedBytes(bytes)
}

pub fn server_items(seed: u64) -> Vec<Item> {
    (0..SERVER_ITEMS as u64).map(|j| item(seed, j)).collect()
}

/// What one sync starts from and must recover exactly.
pub struct SyncInput {
    pub client: Vec<Item>,
    /// Server items the client lacks, sorted.
    pub remote_only: Vec<Item>,
    /// Client items the server lacks, sorted.
    pub local_only: Vec<Item>,
}

/// The client of sync `sync` is the server set with `d - d/2` items missing
/// and `d/2` items of its own: `d` differences in all.
pub fn sync_input(server: &[Item], seed: u64, sync: u64, d: usize) -> SyncInput {
    let mut rng = XorShift64Star::new(splitmix64(seed ^ splitmix64(sync ^ CLIENT_TAG)).max(1));
    let missing = d - d / 2;
    let mut removed = vec![false; server.len()];
    let mut remote_only = Vec::with_capacity(missing);
    while remote_only.len() < missing {
        let j = (rng.next_u64() % server.len() as u64) as usize;
        if !removed[j] {
            removed[j] = true;
            remote_only.push(server[j]);
        }
    }
    let local_only: Vec<Item> = (0..(d / 2) as u64)
        .map(|k| item(seed, CLIENT_TAG | (sync << 20) | k))
        .collect();
    let mut client = Vec::with_capacity(server.len() - missing + local_only.len());
    client.extend(
        server
            .iter()
            .zip(&removed)
            .filter(|(_, gone)| !**gone)
            .map(|(it, _)| *it),
    );
    client.extend_from_slice(&local_only);
    remote_only.sort_unstable();
    let mut local_only = local_only;
    local_only.sort_unstable();
    SyncInput {
        client,
        remote_only,
        local_only,
    }
}

/// `pairs` churn items for sync `sync`, taken in turn from each shard so
/// the writes touch every shard equally.
pub fn churn_items(
    seed: u64,
    sync: u64,
    pairs: usize,
    shard_of: impl Fn(&Item) -> u16,
) -> Vec<Item> {
    let per_shard = pairs.div_ceil(usize::from(SHARDS));
    let mut taken = vec![0usize; usize::from(SHARDS)];
    let mut out = Vec::with_capacity(pairs);
    let mut k = 0u64;
    while out.len() < pairs {
        let candidate = item(seed, CHURN_TAG | (sync << 24) | k);
        k += 1;
        let shard = usize::from(shard_of(&candidate));
        if taken[shard] < per_shard {
            taken[shard] += 1;
            out.push(candidate);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_input_has_exactly_d_differences() {
        let server: Vec<Item> = (0..5_000u64).map(|j| item(7, j)).collect();
        let input = sync_input(&server, 7, 3, 129);
        assert_eq!(input.remote_only.len(), 65);
        assert_eq!(input.local_only.len(), 64);
        assert_eq!(input.client.len(), 5_000 - 65 + 64);
        let client: std::collections::HashSet<_> = input.client.iter().collect();
        assert!(input.remote_only.iter().all(|it| !client.contains(it)));
        assert!(input.local_only.iter().all(|it| client.contains(it)));
        let again = sync_input(&server, 7, 3, 129);
        assert_eq!(again.remote_only, input.remote_only);
    }
}

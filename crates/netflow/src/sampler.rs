//! Packet sampling: the "sampled" in "sampled NetFlow" (§4.1.1).
//!
//! Routers cannot afford per-packet flow accounting at core line rates, so
//! they sample 1-in-N packets and the collector multiplies volumes back
//! up. Two samplers are provided:
//!
//! * [`SystematicSampler`] — deterministic count-based 1-in-N (Cisco's
//!   classic sampled NetFlow).
//! * [`HashSampler`] — stateless hash-based selection on the flow key, so
//!   all routers along a path pick the *same* flows (trajectory-sampling
//!   flavor); useful when the collector deduplicates multi-router
//!   observations.

use crate::key::FlowKey;

/// A packet sampler: decides, per packet, whether it is recorded.
pub trait Sampler {
    /// The configured 1-in-N rate (for de-sampling at the collector).
    fn rate(&self) -> u32;

    /// Returns `true` if this packet (belonging to `key`) is sampled.
    fn sample(&mut self, key: &FlowKey) -> bool;

    /// How many of the next `count` packets of `key` are sampled.
    ///
    /// Semantically identical to calling [`Sampler::sample`] `count` times
    /// and counting `true`s; implementations may compute it in O(1) so
    /// that simulating Gbps-scale flows does not require per-packet loops.
    fn sample_many(&mut self, key: &FlowKey, count: u64) -> u64 {
        (0..count).filter(|_| self.sample(key)).count() as u64
    }
}

/// Deterministic count-based sampler: selects packets `N-1, 2N-1, ...`
/// (i.e. exactly one per window of N, the last one).
#[derive(Debug, Clone)]
pub struct SystematicSampler {
    rate: u32,
    counter: u32,
}

impl SystematicSampler {
    /// Creates a 1-in-`rate` sampler; a rate of 0 is treated as 1
    /// (unsampled).
    pub fn new(rate: u32) -> SystematicSampler {
        SystematicSampler {
            rate: rate.max(1),
            counter: 0,
        }
    }
}

impl Sampler for SystematicSampler {
    fn rate(&self) -> u32 {
        self.rate
    }

    fn sample(&mut self, _key: &FlowKey) -> bool {
        self.counter += 1;
        if self.counter >= self.rate {
            self.counter = 0;
            true
        } else {
            false
        }
    }

    fn sample_many(&mut self, _key: &FlowKey, count: u64) -> u64 {
        // Closed form of `count` sequential decisions from the current
        // counter phase.
        let total = self.counter as u64 + count;
        let sampled = total / self.rate as u64;
        self.counter = (total % self.rate as u64) as u32;
        sampled
    }
}

/// Stateless hash sampler: a packet is selected iff its flow key hashes
/// below `u64::MAX / rate`. Consistent across routers by construction.
#[derive(Debug, Clone)]
pub struct HashSampler {
    rate: u32,
    seed: u64,
}

impl HashSampler {
    /// Creates a 1-in-`rate` sampler with the given hash seed (the seed
    /// must be shared by routers that should agree).
    pub fn new(rate: u32, seed: u64) -> HashSampler {
        HashSampler {
            rate: rate.max(1),
            seed,
        }
    }

    fn hash(&self, key: &FlowKey) -> u64 {
        // FNV-1a over the 13 key bytes, then a finalizing mix
        // (splitmix64). Small, portable, and deterministic.
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ self.seed;
        let mut eat = |b: u8| {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        for b in key.src_addr.octets() {
            eat(b);
        }
        for b in key.dst_addr.octets() {
            eat(b);
        }
        eat((key.src_port >> 8) as u8);
        eat(key.src_port as u8);
        eat((key.dst_port >> 8) as u8);
        eat(key.dst_port as u8);
        eat(key.protocol);
        // splitmix64 finalizer.
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^ (h >> 31)
    }
}

impl Sampler for HashSampler {
    fn rate(&self) -> u32 {
        self.rate
    }

    fn sample(&mut self, key: &FlowKey) -> bool {
        self.hash(key) < u64::MAX / self.rate as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn key(i: u32) -> FlowKey {
        FlowKey {
            src_addr: Ipv4Addr::from(0x0a00_0000 | i),
            dst_addr: Ipv4Addr::from(0xc0a8_0000 | (i.wrapping_mul(7) & 0xFFFF)),
            src_port: (i % 50_000) as u16,
            dst_port: 443,
            protocol: 6,
        }
    }

    #[test]
    fn systematic_samples_exactly_one_in_n() {
        let mut s = SystematicSampler::new(100);
        let k = key(1);
        let picked = (0..10_000).filter(|_| s.sample(&k)).count();
        assert_eq!(picked, 100);
    }

    #[test]
    fn systematic_rate_one_samples_everything() {
        let mut s = SystematicSampler::new(1);
        let k = key(1);
        assert!((0..50).all(|_| s.sample(&k)));
    }

    #[test]
    fn systematic_rate_zero_treated_as_one() {
        let s = SystematicSampler::new(0);
        assert_eq!(s.rate(), 1);
    }

    #[test]
    fn hash_sampler_is_consistent_across_instances() {
        // Two routers with the same seed make identical decisions.
        let mut a = HashSampler::new(64, 42);
        let mut b = HashSampler::new(64, 42);
        for i in 0..1000 {
            let k = key(i);
            assert_eq!(a.sample(&k), b.sample(&k));
        }
    }

    #[test]
    fn hash_sampler_rate_is_approximate() {
        let mut s = HashSampler::new(16, 7);
        let picked = (0..100_000).filter(|&i| s.sample(&key(i))).count();
        let expected = 100_000 / 16;
        // Within 15% of the nominal rate.
        assert!(
            (picked as f64 - expected as f64).abs() / (expected as f64) < 0.15,
            "picked {picked}, expected ~{expected}"
        );
    }

    #[test]
    fn hash_sampler_decision_is_per_flow() {
        // A flow is either always sampled or never (stateless).
        let mut s = HashSampler::new(8, 3);
        for i in 0..100 {
            let k = key(i);
            let first = s.sample(&k);
            for _ in 0..10 {
                assert_eq!(s.sample(&k), first);
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = HashSampler::new(4, 1);
        let mut b = HashSampler::new(4, 2);
        let disagreements = (0..1000)
            .filter(|&i| a.sample(&key(i)) != b.sample(&key(i)))
            .count();
        assert!(disagreements > 0);
    }
}

#[cfg(test)]
mod sample_many_tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn key() -> FlowKey {
        FlowKey {
            src_addr: Ipv4Addr::new(1, 1, 1, 1),
            dst_addr: Ipv4Addr::new(2, 2, 2, 2),
            src_port: 1,
            dst_port: 2,
            protocol: 6,
        }
    }

    #[test]
    fn systematic_sample_many_matches_loop() {
        for rate in [1u32, 3, 7, 100] {
            for chunks in [[1u64, 5, 99, 1000], [7, 7, 7, 7]] {
                let mut fast = SystematicSampler::new(rate);
                let mut slow = SystematicSampler::new(rate);
                for count in chunks {
                    let f = fast.sample_many(&key(), count);
                    let s = (0..count).filter(|_| slow.sample(&key())).count() as u64;
                    assert_eq!(f, s, "rate {rate} count {count}");
                }
            }
        }
    }

    #[test]
    fn systematic_sample_many_preserves_phase() {
        let mut a = SystematicSampler::new(10);
        a.sample_many(&key(), 15); // counter now at phase 5
                                   // Next 5 packets complete the window: exactly one sampled.
        assert_eq!(a.sample_many(&key(), 5), 1);
    }

    #[test]
    fn hash_sampler_sample_many_is_all_or_nothing() {
        let mut s = HashSampler::new(4, 9);
        let k = key();
        let picked = s.sample_many(&k, 100);
        assert!(picked == 0 || picked == 100, "stateless per-flow decision");
    }
}

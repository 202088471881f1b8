//! Seeded request generation and the sequential reply oracle.
//!
//! The program under test only ever sees the bytes of the requests generated
//! here; the oracle is a plain `BTreeMap` that every reply is checked against
//! with the clock stopped.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use flit_server::{Op, Reply};

/// SplitMix64: a tiny, seedable, platform-independent generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5EED_F117_BE7C_0DE5)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The traffic mix of one service workload.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Keys are drawn from `0..keys`.
    pub keys: u64,
    /// Distinct keys inserted before measurement.
    pub prefill: u64,
    /// Zipf exponent of key popularity (`0.0` = uniform).
    pub zipf: f64,
    /// Updates per thousand data requests, split evenly between `Put` and `Del`.
    pub update_permille: u64,
    /// One request in this many is a `Scan`.
    pub scan_every: u64,
    /// Low key bits a scan selects on: a scan matches one key in `2^scan_bits`.
    pub scan_bits: u32,
}

/// A seeded, endless request stream over one [`Mix`].
#[derive(Clone)]
pub struct Requests {
    mix: Mix,
    rng: Rng,
    /// Zipf CDF over key ranks (rank `r` is key `r`); empty when uniform.
    cdf: Vec<f64>,
    issued: u64,
}

impl Requests {
    pub fn new(mix: Mix, seed: u64) -> Self {
        let mut cdf = Vec::new();
        if mix.zipf > 0.0 {
            let mut acc = 0.0f64;
            for rank in 0..mix.keys {
                acc += 1.0 / ((rank + 1) as f64).powf(mix.zipf);
                cdf.push(acc);
            }
            for p in &mut cdf {
                *p /= acc;
            }
        }
        Self {
            mix,
            rng: Rng::new(seed),
            cdf,
            issued: 0,
        }
    }

    /// The distinct `(key, value)` pairs to insert before measurement.
    pub fn prefill(&mut self) -> Vec<(u64, u64)> {
        let mut seen = vec![false; self.mix.keys as usize];
        let mut pairs = Vec::with_capacity(self.mix.prefill as usize);
        while (pairs.len() as u64) < self.mix.prefill {
            let k = self.rng.below(self.mix.keys);
            if !seen[k as usize] {
                seen[k as usize] = true;
                pairs.push((k, self.value()));
            }
        }
        pairs
    }

    fn key(&mut self) -> u64 {
        if self.cdf.is_empty() {
            return self.rng.below(self.mix.keys);
        }
        let u = self.rng.unit();
        (self.cdf.partition_point(|&p| p < u) as u64).min(self.mix.keys - 1)
    }

    /// Values keep bit 63 clear, as every map in the workspace requires.
    fn value(&mut self) -> u64 {
        self.rng.next_u64() >> 2
    }

    pub fn next_op(&mut self) -> Op {
        self.issued += 1;
        if self.mix.scan_every > 0 && self.issued % self.mix.scan_every == 0 {
            let mask = (1u64 << self.mix.scan_bits) - 1;
            return Op::Scan {
                prefix: self.rng.next_u64() & mask,
                mask,
            };
        }
        let roll = self.rng.below(2000);
        let key = self.key();
        if roll >= 2 * self.mix.update_permille {
            Op::Get(key)
        } else if roll % 2 == 0 {
            let v = self.value();
            Op::Put(key, v)
        } else {
            Op::Del(key)
        }
    }
}

/// Request kinds, as the registry's `server_ops_total{op}` series name them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Get,
    Put,
    Del,
    Scan,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Get, Kind::Put, Kind::Del, Kind::Scan];

    pub fn of(op: &Op) -> Kind {
        match op {
            Op::Get(_) => Kind::Get,
            Op::Put(..) => Kind::Put,
            Op::Del(_) => Kind::Del,
            Op::Scan { .. } => Kind::Scan,
            Op::Stats => unreachable!("the generator never issues Stats"),
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Kind::Get => "get",
            Kind::Put => "put",
            Kind::Del => "del",
            Kind::Scan => "scan",
        }
    }
}

/// The sequential model every reply is checked against.
#[derive(Debug, Clone, Default)]
pub struct Model {
    pub map: BTreeMap<u64, u64>,
    /// Whether the map under test can answer scans (the HAMT can, the
    /// in-place hash table answers `Unsupported`).
    pub scans: bool,
}

impl Model {
    /// Apply `op` to the model and return the reply a correct server gives.
    pub fn apply(&mut self, op: &Op) -> Reply {
        match *op {
            Op::Get(k) => self
                .map
                .get(&k)
                .map_or(Reply::Missing, |&v| Reply::Found(v)),
            Op::Put(k, v) => match self.map.entry(k) {
                Entry::Occupied(_) => Reply::Exists,
                Entry::Vacant(slot) => {
                    slot.insert(v);
                    Reply::Inserted
                }
            },
            Op::Del(k) => match self.map.remove(&k) {
                Some(_) => Reply::Deleted,
                None => Reply::Absent,
            },
            Op::Scan { prefix, mask } if self.scans => Reply::Entries(
                self.map
                    .iter()
                    .filter(|(&k, _)| k & mask == prefix & mask)
                    .map(|(&k, &v)| (k, v))
                    .collect(),
            ),
            Op::Scan { .. } => Reply::Unsupported,
            Op::Stats => unreachable!("the generator never issues Stats"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: Mix = Mix {
        keys: 1000,
        prefill: 500,
        zipf: 0.99,
        update_permille: 50,
        scan_every: 100,
        scan_bits: 4,
    };

    #[test]
    fn same_seed_same_stream() {
        let (mut a, mut b) = (Requests::new(MIX, 7), Requests::new(MIX, 7));
        assert_eq!(a.prefill(), b.prefill());
        for _ in 0..10_000 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    fn mix_shares_hold() {
        let mut r = Requests::new(MIX, 1);
        let mut n = [0u64; 4];
        for _ in 0..100_000 {
            n[Kind::of(&r.next_op()) as usize] += 1;
        }
        assert_eq!(n[3], 1000);
        let updates = (n[1] + n[2]) as f64 / 99_000.0;
        assert!((updates - 0.05).abs() < 0.005, "update share {updates}");
    }

    #[test]
    fn prefill_is_distinct() {
        let mut keys: Vec<u64> = Requests::new(MIX, 3)
            .prefill()
            .iter()
            .map(|p| p.0)
            .collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 500);
    }
}

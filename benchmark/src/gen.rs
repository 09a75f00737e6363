//! The benchmark's own seeded input generator. The program under test
//! never sees this generator, only what it produces: arrival times, log
//! choices, read positions and payload bytes.

use mala_sim::SimTime;

/// SplitMix64: small, fast, and good enough for workload inputs.
#[derive(Debug, Clone)]
pub struct Gen(u64);

impl Gen {
    /// A generator for `seed` and a stream label, so each use of the seed
    /// (arrivals, positions, …) draws from its own sequence.
    pub fn new(seed: u64, stream: u64) -> Gen {
        let mut g = Gen(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        g.next_u64();
        g
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        // Multiply-shift: bias is below 2^-32 for the small `n` used here.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// One open-loop arrival: when it is due and which target it goes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    pub due: SimTime,
    pub target: u32,
}

/// `count` arrivals of a Poisson process on `[from, from + span_us)`,
/// spread evenly over `targets`, ascending by time.
///
/// Conditioned on its count, a Poisson process is `count` independent
/// uniform instants, so fixing the count — overall and per target, by
/// dealing targets from a shuffled balanced deck — keeps every target's
/// arrival pattern Poisson while making offered load identical across
/// seeds instead of varying by ±1/√count.
pub fn poisson_arrivals(
    gen: &mut Gen,
    from: SimTime,
    span_us: u64,
    count: usize,
    targets: u32,
) -> Vec<Arrival> {
    let mut deck: Vec<u32> = (0..count).map(|i| (i % targets as usize) as u32).collect();
    for i in (1..count).rev() {
        deck.swap(i, gen.below(i as u64 + 1) as usize);
    }
    let mut out: Vec<Arrival> = deck
        .into_iter()
        .map(|target| Arrival {
            due: SimTime::from_micros(from.as_micros() + gen.below(span_us)),
            target,
        })
        .collect();
    out.sort_by_key(|a| a.due);
    out
}

/// Payload of entry `index` of log `log`: `len` printable ASCII bytes, a
/// pure function of its arguments (the zlog class stores text, so bytes
/// outside ASCII would not round-trip).
pub fn payload(log: u32, index: u64, len: usize) -> Vec<u8> {
    let mut out = format!("L{log}I{index}|").into_bytes();
    let mut g = Gen::new(u64::from(log) << 40 | index, 0x7061_796c);
    while out.len() < len {
        let word = g.next_u64();
        for k in 0..8 {
            out.push(b'a' + ((word >> (8 * k)) & 0xff) as u8 % 26);
        }
    }
    out.truncate(len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_arrivals_other_seed_other_arrivals() {
        let make = |seed| {
            poisson_arrivals(
                &mut Gen::new(seed, 1),
                SimTime::from_micros(5_000_000),
                1_000_000,
                500,
                16,
            )
        };
        let a = make(2017);
        assert_eq!(a, make(2017));
        assert_ne!(a, make(7));
        assert_eq!(a.len(), 500);
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(a
            .iter()
            .all(|x| x.target < 16 && (5_000_000..6_000_000).contains(&x.due.as_micros())));
        // Targets are dealt evenly (500 = 31·16 + 4) but not in order.
        for t in 0..16 {
            let n = a.iter().filter(|x| x.target == t).count();
            assert!(n == 31 || n == 32, "target {t} got {n} arrivals");
        }
        assert!(a.windows(2).any(|w| w[1].target != (w[0].target + 1) % 16));
    }

    #[test]
    fn streams_of_one_seed_are_independent() {
        let mut a = Gen::new(2017, 1);
        let mut b = Gen::new(2017, 2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn below_stays_in_range() {
        let mut g = Gen::new(1, 1);
        for n in [1u64, 2, 3, 1000] {
            for _ in 0..200 {
                assert!(g.below(n) < n);
            }
        }
    }

    #[test]
    fn payload_is_a_pure_ascii_function_of_log_and_index() {
        let p = payload(3, 41, 1024);
        assert_eq!(p.len(), 1024);
        assert_eq!(p, payload(3, 41, 1024));
        assert_ne!(p, payload(3, 42, 1024));
        assert_ne!(p, payload(4, 41, 1024));
        assert!(p.iter().all(|b| b.is_ascii_graphic()));
        assert!(p.starts_with(b"L3I41|"));
        assert_eq!(payload(0, 0, 4), b"L0I0");
    }
}

//! Deterministic, forkable random number streams.
//!
//! Every stochastic component in the workspace draws from a [`SimRng`]
//! created from an explicit seed, so whole experiments (grid year traces,
//! scheduler simulations, workload jitter) are reproducible bit-for-bit.
//!
//! Substreams are derived with a SplitMix64 hash of `(seed, label)`, which
//! gives statistically independent streams and — crucially for the parallel
//! helpers in [`crate::par`] — makes the assignment of randomness to work
//! items independent of the number of worker threads.
//!
//! The module also owns the workspace's one FNV-1a 64 ([`fnv1a64`]): the
//! label hash here, and the sweep's output digests and the server's cache
//! shard choice elsewhere.

/// FNV-1a 64 offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64 prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 over `bytes`. Not cryptographic; it guards against
/// truncation, corruption, and mixed-up files, not adversaries.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_update(FNV_OFFSET, bytes)
}

/// Continues an FNV-1a 64 digest over more bytes.
pub fn fnv1a64_update(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// SplitMix64 step; used to derive seeds, never as the main generator.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Hashes a string label into a 64-bit stream discriminator (FNV-1a).
#[inline]
pub fn label_hash(label: &str) -> u64 {
    fnv1a64(label.as_bytes())
}

/// A seeded xoshiro256++ random stream.
///
/// Two things make it an experiment's stream rather than a bare generator:
/// 1. construction from a simple `u64` seed expanded via SplitMix64, and
/// 2. [`SimRng::fork`] / [`SimRng::substream`], which derive independent
///    child streams deterministically.
///
/// The bit stream is this workspace's own definition: every golden output
/// depends on it, and a unit test pins its raw values.
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
    seed: u64,
}

impl SimRng {
    /// Creates a stream from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        let mut s = seed;
        // xoshiro must not start all-zero, and cannot here: SplitMix64's
        // output mix is a bijection and its four input states differ, so
        // at most one of the four words is zero.
        let state = [
            splitmix64(&mut s),
            splitmix64(&mut s),
            splitmix64(&mut s),
            splitmix64(&mut s),
        ];
        SimRng { state, seed }
    }

    /// The seed this stream was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent child stream from an integer discriminator.
    ///
    /// `rng.fork(i)` is a pure function of `(seed, i)` — it does not consume
    /// state from `self` — so forks can be taken in any order.
    pub fn fork(&self, index: u64) -> SimRng {
        let mut state = self.seed ^ 0xA076_1D64_78BD_642F;
        let a = splitmix64(&mut state);
        let mut state2 = a ^ index.wrapping_mul(0xE703_7ED1_A0B4_28DB);
        SimRng::seed_from(splitmix64(&mut state2))
    }

    /// Derives an independent child stream from a string label, e.g.
    /// `rng.substream("wind")`.
    pub fn substream(&self, label: &str) -> SimRng {
        self.fork(label_hash(label))
    }

    /// The next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform sample in `[0, 1)` from the top 53 bits.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`, by modulo reduction (the bias is below
    /// `n / 2^64`, negligible for the ranges this workspace draws from).
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index range must be non-empty");
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(8);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_is_pure() {
        let root = SimRng::seed_from(99);
        let mut f1 = root.fork(3);
        let mut f2 = root.fork(3);
        assert_eq!(f1.next_u64(), f2.next_u64());
        // Forking does not advance the parent.
        let mut r1 = SimRng::seed_from(99);
        let mut r2 = SimRng::seed_from(99);
        let _ = r1.fork(1);
        assert_eq!(r1.next_u64(), r2.next_u64());
    }

    #[test]
    fn forks_are_independent() {
        let root = SimRng::seed_from(99);
        let mut f1 = root.fork(1);
        let mut f2 = root.fork(2);
        let same = (0..64).filter(|_| f1.next_u64() == f2.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn substream_labels() {
        let root = SimRng::seed_from(5);
        let mut wind1 = root.substream("wind");
        let mut wind2 = root.substream("wind");
        let mut solar = root.substream("solar");
        assert_eq!(wind1.next_u64(), wind2.next_u64());
        assert_ne!(wind1.next_u64(), solar.next_u64());
    }

    #[test]
    fn uniform_in_bounds() {
        let mut rng = SimRng::seed_from(1);
        for _ in 0..10_000 {
            let x = rng.uniform();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_mean_is_half() {
        let mut rng = SimRng::seed_from(123);
        let n = 100_000;
        let mean = (0..n).map(|_| rng.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn label_hash_distinguishes() {
        assert_ne!(label_hash("wind"), label_hash("solar"));
        assert_ne!(label_hash(""), label_hash(" "));
    }

    #[test]
    fn fnv_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn raw_stream_is_pinned() {
        // Goldens print `{:.4}` and calibration asserts bands, so neither
        // sees a last-bit drift in `uniform` or a changed `index`
        // reduction. Per (seed, stream): the stream's seed, then
        // `next_u64`, `uniform` bits, `index(8760)`, and whether the next
        // `uniform` is below 0.3.
        #[rustfmt::skip]
        let expected: [(u64, &str, u64, u64, u64, usize, bool); 16] = [
            (0, "root", 0x0000_0000_0000_0000, 0x5317_5d61_490b_23df, 0x3fd8_769b_cf70_e034, 6340, true),
            (0, "fork", 0x9482_b4c2_0e8d_bc76, 0x89c7_90d7_b608_b299, 0x3fca_6d6a_8fc3_0d4c, 2993, false),
            (0, "trace", 0x389e_721f_a0c6_4be6, 0xcd15_7b11_02cb_313b, 0x3fe0_9f9e_78f4_4723, 4411, false),
            (0, "jobs", 0x75b0_32ea_0cc2_1f3b, 0x72db_3ee0_cf2f_4156, 0x3fc2_4e24_7389_cc3c, 1990, true),
            (1, "root", 0x0000_0000_0000_0001, 0xcfc5_d07f_6f03_c29b, 0x3fe7_e848_2652_c7fc, 784, false),
            (1, "fork", 0x75b8_10fd_df1b_7824, 0x0378_5dfb_a629_f2b6, 0x3fe9_c939_d9e3_7f17, 1878, false),
            (1, "trace", 0x035e_a30f_0c92_8139, 0xfe24_cb38_36cc_f836, 0x3fd4_222e_e49d_d79e, 1151, false),
            (1, "jobs", 0x4cd0_6d3b_8417_346c, 0x16f2_e6c3_6bb3_ee63, 0x3fd9_df53_f8df_cbee, 7174, true),
            (2021, "root", 0x0000_0000_0000_07e5, 0xcc76_1268_2b1f_8e82, 0x3fe6_84a6_9cd6_d532, 230, false),
            (2021, "fork", 0xf18a_fad7_2679_1b49, 0xdf0f_0b8d_ae70_9dfc, 0x3fa6_9c2b_23cc_28d0, 2636, false),
            (2021, "trace", 0xed26_ce15_ead8_4e7a, 0x6997_5444_35e0_842f, 0x3fe7_7bb4_b42d_20dc, 1962, false),
            (2021, "jobs", 0xf88c_a6dc_d5eb_4410, 0x3bfb_9f5f_3ca4_37d7, 0x3fd7_9f8c_11f1_ab86, 2202, false),
            (u64::MAX, "root", 0xffff_ffff_ffff_ffff, 0x56cc_f8ce_948e_27b2, 0x3fec_d0b1_0865_cb4b, 4435, true),
            (u64::MAX, "fork", 0x523d_d81a_5cd1_4c38, 0xf102_85f8_6c37_bedb, 0x3fef_c7e3_94b7_33dd, 411, false),
            (u64::MAX, "trace", 0x4340_6ca8_7a06_f7f4, 0x0cc4_d825_4643_9653, 0x3fe8_5fc8_7840_299d, 8143, true),
            (u64::MAX, "jobs", 0x2248_b864_b86c_3364, 0xbe30_9bdd_e255_4def, 0x3fcc_17f3_2c87_ca8c, 1246, true),
        ];
        for (seed, stream, stream_seed, raw, bits, index, chance) in expected {
            let root = SimRng::seed_from(seed);
            let mut rng = match stream {
                "root" => root,
                "fork" => root.fork(3),
                label => root.substream(label),
            };
            let at = format!("seed {seed} stream {stream}");
            assert_eq!(rng.seed(), stream_seed, "{at}");
            assert_eq!(rng.next_u64(), raw, "{at}");
            assert_eq!(rng.uniform().to_bits(), bits, "{at}");
            assert_eq!(rng.index(8760), index, "{at}");
            assert_eq!(rng.uniform() < 0.3, chance, "{at}");
        }
    }
}

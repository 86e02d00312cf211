//! The guests the benchmark owns, their native Rust oracles, and the
//! simulation fingerprint.
//!
//! Every guest result is compared with the oracle computed from the same
//! arguments, so a wrong answer fails the run instead of merely being
//! fast. Guest integers are wrapping `i64`; argument ranges keep every
//! intermediate far below overflow, so plain arithmetic matches.

pub const FACT_SRC: &str = include_str!("../guests/fact.flame");
pub const MATRIX_SRC: &str = include_str!("../guests/matrix.flame");
pub const PROPS_SRC: &str = include_str!("../guests/props.flame");
pub const CHURN_SRC: &str = include_str!("../guests/churn.flame");
pub const TRIVIAL_SRC: &str = include_str!("../guests/trivial.flame");

/// `churn.flame` with its `SALT` placeholder replaced.
pub fn churn_src(salt: i64) -> String {
    CHURN_SRC.replace("SALT", &salt.to_string())
}

/// `fact.flame`: prime factors with multiplicity of `n..n + reps`.
pub fn fact(n: i64, reps: i64) -> i64 {
    (0..reps)
        .map(|r| {
            let (mut m, mut d, mut count) = (n + r, 2, 0);
            while d * d <= m {
                while m % d == 0 {
                    count += 1;
                    m /= d;
                }
                d += 1;
            }
            count + i64::from(m > 1)
        })
        .sum()
}

/// `matrix.flame`: sum of every entry of `A(seed) x A(seed + 1)`.
pub fn matrix(size: i64, seed: i64) -> i64 {
    let entry = |i: i64, j: i64, seed: i64| (i * 31 + j * 17 + seed) % 97;
    let mut checksum = 0;
    for i in 0..size {
        for j in 0..size {
            checksum += (0..size)
                .map(|k| entry(i, k, seed) * entry(k, j, seed + 1))
                .sum::<i64>();
        }
    }
    checksum
}

/// `props.flame`: the folded accumulator walk over two map shapes plus
/// the megamorphic probe.
pub fn props(n: i64, k: i64, every: i64) -> i64 {
    let (mut narrow_acc, mut wide_acc, mut t) = (0i64, 0i64, 0i64);
    for i in 0..n {
        if i % every == 0 {
            wide_acc += (k + 1) * i + 7;
            t += wide_acc + ((i / every) % 6 + 1);
        } else {
            narrow_acc += k * i + 7;
            t += narrow_acc;
        }
        t %= 1_000_003;
    }
    t
}

/// `churn.flame`: `salt + (salt + 1) * (0 + 1 + .. + n - 1)`.
pub fn churn(salt: i64, n: i64) -> i64 {
    salt + (salt + 1) * (n * (n - 1) / 2)
}

/// `trivial.flame`.
pub fn trivial(x: i64) -> i64 {
    x + 1
}

/// FaaSdom `faas-diskio`: every round reads and writes `kib` KiB.
pub fn diskio(ops: i64, kib: i64) -> i64 {
    2 * ops * kib
}

/// FaaSdom `faas-netlatency`: the length of its fixed response body.
pub const NETLATENCY: i64 = 79;

/// FNV-1a over 64-bit words: the simulation fingerprint. It folds in
/// every completion's placement and virtual timestamps, so two runs of
/// one seed must agree on it bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    pub fn mix(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fact_counts_factors_with_multiplicity() {
        // 12 = 2·2·3, 13 prime, 14 = 2·7, 15 = 3·5, 16 = 2⁴.
        assert_eq!(fact(12, 1), 3);
        assert_eq!(fact(12, 5), 3 + 1 + 2 + 2 + 4);
        assert_eq!(fact(1, 1), 0);
        assert_eq!(fact(97, 0), 0);
    }

    #[test]
    fn matrix_sums_a_hand_checked_product() {
        // size 2, seed 0: A = [[0,17],[31,48]], B(seed 1) = [[1,18],[32,49]].
        // A·B = [[544, 833], [1567, 2910]].
        assert_eq!(matrix(2, 0), 544 + 833 + 1567 + 2910);
        assert_eq!(matrix(1, 5), 5 * 6);
        assert_eq!(matrix(0, 3), 0);
    }

    #[test]
    fn props_folds_both_shapes_and_the_probe() {
        // n = 3, k = 2, every = 2:
        // i=0 wide: acc 7,        t = 7 + 1 = 8
        // i=1 narrow: acc 2+7=9,  t = 17
        // i=2 wide: acc 7+6+7=20, t = 17 + 20 + 2 = 39
        assert_eq!(props(3, 2, 2), 39);
        assert_eq!(props(0, 9, 4), 0);
    }

    #[test]
    fn closed_forms_match_their_loops() {
        let looped = |salt: i64, n: i64| (0..n).fold(salt, |t, j| t + j * (salt + 1));
        assert_eq!(churn(0, 10), looped(0, 10));
        assert_eq!(churn(3, 2000), looped(3, 2000));
        assert_eq!(trivial(41), 42);
        assert_eq!(diskio(100, 10), 2000);
    }

    #[test]
    fn guests_agree_with_their_oracles_on_the_guest_vm() {
        use crate::workloads::int_args;
        use fireworks::lang::{compile, NoopHost, Outcome, Value, Vm};
        let run = |source: &str, args: Value| {
            let mut vm = Vm::new(compile(source).expect("guest compiles").into());
            vm.start("main", vec![args]).expect("guest has a main");
            match vm.run(&mut NoopHost).expect("guest runs") {
                Outcome::Done(Value::Int(v)) => v,
                other => panic!("guest returned {other:?}"),
            }
        };
        assert_eq!(
            run(FACT_SRC, int_args([("n", 360), ("reps", 9)])),
            fact(360, 9)
        );
        assert_eq!(
            run(MATRIX_SRC, int_args([("size", 7), ("seed", 3)])),
            matrix(7, 3)
        );
        assert_eq!(
            run(PROPS_SRC, int_args([("n", 500), ("k", 11), ("every", 4)])),
            props(500, 11, 4)
        );
        assert_eq!(run(&churn_src(5), int_args([("n", 300)])), churn(5, 300));
        assert_eq!(run(TRIVIAL_SRC, int_args([("x", 41)])), trivial(41));
    }

    #[test]
    fn fingerprint_is_stable_and_order_sensitive() {
        let fold = |words: &[u64]| {
            let mut f = Fingerprint::default();
            words.iter().for_each(|w| f.mix(*w));
            f.value()
        };
        // FNV-1a 64 of eight zero bytes, from an independent implementation.
        assert_eq!(fold(&[0]), 0xa8c7_f832_281a_39c5);
        assert_eq!(fold(&[1, 2, 3]), fold(&[1, 2, 3]));
        assert_ne!(fold(&[1, 2, 3]), fold(&[3, 2, 1]));
        assert_ne!(fold(&[]), fold(&[0]));
    }
}

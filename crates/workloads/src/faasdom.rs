//! The FaaSdom microbenchmarks (paper §5.2) written in Flame.

use fireworks_core::api::FunctionSpec;
use fireworks_lang::Value;
use fireworks_runtime::RuntimeKind;

/// Which FaaSdom benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bench {
    /// `faas-fact`: integer factorisation (compute-intensive).
    Fact,
    /// `faas-matrix-mult`: dense matrix multiplication (compute-intensive).
    MatrixMult,
    /// `faas-diskio`: 100 × 10 KiB file reads and writes (disk-intensive).
    DiskIo,
    /// `faas-netlatency`: immediate small HTTP response (network-intensive).
    NetLatency,
}

impl Bench {
    /// All four benchmarks, in the paper's figure order.
    pub const ALL: [Bench; 4] = [
        Bench::Fact,
        Bench::MatrixMult,
        Bench::DiskIo,
        Bench::NetLatency,
    ];

    /// The benchmark's FaaSdom name.
    pub fn name(self) -> &'static str {
        match self {
            Bench::Fact => "faas-fact",
            Bench::MatrixMult => "faas-matrix-mult",
            Bench::DiskIo => "faas-diskio",
            Bench::NetLatency => "faas-netlatency",
        }
    }

    /// Whether the benchmark is compute-bound (vs. I/O-bound).
    pub fn is_compute(self) -> bool {
        matches!(self, Bench::Fact | Bench::MatrixMult)
    }

    /// Flame source for the benchmark. The same source serves both
    /// runtime profiles (as in FaaSdom, where the Node.js and Python
    /// versions implement identical logic).
    pub fn source(self) -> &'static str {
        match self {
            // Factorise each of `reps` numbers derived from `n`.
            Bench::Fact => {
                r#"
                fn factorize(n) {
                    let factors = [];
                    let m = n;
                    let d = 2;
                    while (d * d <= m) {
                        while (m % d == 0) {
                            push(factors, d);
                            m = m / d;
                        }
                        d = d + 1;
                    }
                    if (m > 1) { push(factors, m); }
                    return factors;
                }
                fn main(params) {
                    let n = params["n"];
                    let reps = params["reps"];
                    let count = 0;
                    for (let r = 0; r < reps; r = r + 1) {
                        count = count + len(factorize(n + r));
                    }
                    http_respond(str(count));
                    return count;
                }
            "#
            }
            // size×size integer matrices, classic triple loop.
            Bench::MatrixMult => {
                r#"
                fn make_matrix(size, seed) {
                    let m = [];
                    for (let i = 0; i < size; i = i + 1) {
                        let row = [];
                        for (let j = 0; j < size; j = j + 1) {
                            push(row, (i * 31 + j * 17 + seed) % 97);
                        }
                        push(m, row);
                    }
                    return m;
                }
                fn mat_mult(a, b, size) {
                    let out = [];
                    for (let i = 0; i < size; i = i + 1) {
                        let row = [];
                        for (let j = 0; j < size; j = j + 1) {
                            let acc = 0;
                            for (let k = 0; k < size; k = k + 1) {
                                acc = acc + a[i][k] * b[k][j];
                            }
                            push(row, acc);
                        }
                        push(out, row);
                    }
                    return out;
                }
                fn main(params) {
                    let size = params["size"];
                    let a = make_matrix(size, 1);
                    let b = make_matrix(size, 2);
                    let c = mat_mult(a, b, size);
                    let checksum = 0;
                    for (let i = 0; i < size; i = i + 1) {
                        checksum = checksum + c[i][i];
                    }
                    http_respond(str(checksum));
                    return checksum;
                }
            "#
            }
            // `ops` rounds of 10 KiB reads and writes (paper: 100 × 10 KiB).
            Bench::DiskIo => {
                r#"
                fn main(params) {
                    let ops = params["ops"];
                    let kib = params["kib"];
                    let moved = 0;
                    for (let i = 0; i < ops; i = i + 1) {
                        moved = moved + io_read("bench.dat", kib);
                        io_write("bench.dat", kib);
                        moved = moved + kib;
                    }
                    http_respond(str(moved));
                    return moved;
                }
            "#
            }
            // Immediate 79-byte response (plus ~500 B of headers charged
            // by the host).
            Bench::NetLatency => {
                r#"
                fn main(params) {
                    let body = "netlatency-response-body-0123456789-0123456789-0123456789-0123456789-0123456-ok";
                    http_respond(body);
                    return len(body);
                }
            "#
            }
        }
    }

    /// Default (install-time warm-up) parameters for the benchmark.
    pub fn default_params(self) -> Value {
        match self {
            Bench::Fact => Value::map([
                ("n".to_string(), Value::Int(1_000_003)),
                ("reps".to_string(), Value::Int(40)),
            ]),
            Bench::MatrixMult => Value::map([("size".to_string(), Value::Int(48))]),
            Bench::DiskIo => Value::map([
                ("ops".to_string(), Value::Int(100)),
                ("kib".to_string(), Value::Int(10)),
            ]),
            Bench::NetLatency => Value::map([]),
        }
    }

    /// Invocation parameters (the measured request). Uses the same shape
    /// but different values than the warm-up defaults, so a de-opt would
    /// be possible if the types were unstable.
    pub fn request_params(self) -> Value {
        match self {
            Bench::Fact => Value::map([
                ("n".to_string(), Value::Int(1_299_709)),
                ("reps".to_string(), Value::Int(40)),
            ]),
            Bench::MatrixMult => Value::map([("size".to_string(), Value::Int(48))]),
            Bench::DiskIo => Value::map([
                ("ops".to_string(), Value::Int(100)),
                ("kib".to_string(), Value::Int(10)),
            ]),
            Bench::NetLatency => Value::map([]),
        }
    }

    /// Paper-scale invocation parameters: heavy enough that virtual
    /// execution time lands in the paper's regime (compute benchmarks run
    /// for a substantial fraction of a second on the Node interpreter).
    /// Used by the figure harness; tests use the lighter
    /// [`Bench::request_params`].
    pub fn paper_params(self) -> Value {
        match self {
            Bench::Fact => Value::map([
                ("n".to_string(), Value::Int(1_299_709)),
                ("reps".to_string(), Value::Int(1_200)),
            ]),
            Bench::MatrixMult => Value::map([("size".to_string(), Value::Int(96))]),
            Bench::DiskIo => Value::map([
                ("ops".to_string(), Value::Int(100)),
                ("kib".to_string(), Value::Int(10)),
            ]),
            Bench::NetLatency => Value::map([]),
        }
    }

    /// Paper-scale install-time warm-up parameters (same shapes as
    /// [`Bench::paper_params`], different values).
    fn paper_default_params(self) -> Value {
        match self {
            Bench::Fact => Value::map([
                ("n".to_string(), Value::Int(1_000_003)),
                ("reps".to_string(), Value::Int(1_200)),
            ]),
            other => other.default_params(),
        }
    }

    /// Builds the paper-scale [`FunctionSpec`] for a runtime variant.
    pub fn paper_spec(self, runtime: RuntimeKind) -> FunctionSpec {
        FunctionSpec::new(
            self.function_name(runtime),
            self.source(),
            runtime,
            self.paper_default_params(),
        )
    }

    /// A registered-function name for one (benchmark, runtime) pair.
    pub fn function_name(self, runtime: RuntimeKind) -> String {
        format!("{}-{}", self.name(), runtime.name())
    }

    /// Builds the [`FunctionSpec`] for a runtime variant.
    pub fn spec(self, runtime: RuntimeKind) -> FunctionSpec {
        FunctionSpec::new(
            self.function_name(runtime),
            self.source(),
            runtime,
            self.default_params(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fireworks_lang::{compile, Outcome, Vm};
    use std::rc::Rc;

    /// A host that serves the FaaSdom I/O calls without charging time.
    struct BenchHost;

    impl fireworks_lang::Host for BenchHost {
        fn print(&mut self, _text: &str) {}

        fn host_call(
            &mut self,
            name: &str,
            args: &[fireworks_lang::TaggedValue],
        ) -> Result<Value, fireworks_lang::LangError> {
            match name {
                "io_read" => Ok(args[1].to_value()),
                "io_write" | "http_respond" | "net_send" => Ok(Value::Null),
                other => Err(fireworks_lang::LangError::runtime(format!(
                    "unexpected host call {other}"
                ))),
            }
        }
    }

    fn run(bench: Bench, params: Value) -> Value {
        let program = Rc::new(compile(bench.source()).expect("compiles"));
        let mut vm = Vm::new(program);
        vm.start("main", vec![params]).expect("starts");
        match vm.run(&mut BenchHost).expect("runs") {
            Outcome::Done(v) => v,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fact_counts_prime_factors() {
        let params = Value::map([
            ("n".to_string(), Value::Int(360)),
            ("reps".to_string(), Value::Int(1)),
        ]);
        // 360 = 2^3 · 3^2 · 5 → 6 factors.
        assert_eq!(run(Bench::Fact, params), Value::Int(6));
    }

    #[test]
    fn fact_with_prime_input() {
        let params = Value::map([
            ("n".to_string(), Value::Int(101)),
            ("reps".to_string(), Value::Int(1)),
        ]);
        assert_eq!(run(Bench::Fact, params), Value::Int(1));
    }

    #[test]
    fn matrix_mult_is_deterministic_and_correct_for_small_case() {
        let params = Value::map([("size".to_string(), Value::Int(4))]);
        let a = run(Bench::MatrixMult, params.clone());
        let b = run(Bench::MatrixMult, params);
        assert_eq!(a, b);
        // Independent reference computation of the checksum.
        let size = 4i64;
        let idx = |i: i64, j: i64, seed: i64| (i * 31 + j * 17 + seed) % 97;
        let mut checksum = 0i64;
        for i in 0..size {
            for k in 0..size {
                // c[i][i] = Σ_k a[i][k] · b[k][i].
                checksum += idx(i, k, 1) * idx(k, i, 2);
            }
        }
        assert_eq!(a, Value::Int(checksum));
    }

    #[test]
    fn diskio_moves_requested_bytes() {
        let params = Value::map([
            ("ops".to_string(), Value::Int(5)),
            ("kib".to_string(), Value::Int(10)),
        ]);
        // 5 ops × (10 KiB read + 10 KiB write) = 100 KiB.
        assert_eq!(run(Bench::DiskIo, params), Value::Int(100));
    }

    #[test]
    fn netlatency_body_is_79_bytes() {
        assert_eq!(run(Bench::NetLatency, Value::map([])), Value::Int(79));
    }

    #[test]
    fn specs_compile_and_have_distinct_names() {
        let mut names = std::collections::HashSet::new();
        for bench in Bench::ALL {
            for runtime in [RuntimeKind::NodeLike, RuntimeKind::PythonLike] {
                let spec = bench.spec(runtime);
                assert!(compile(&spec.source).is_ok(), "{} compiles", spec.name);
                assert!(names.insert(spec.name.clone()), "unique name {}", spec.name);
            }
        }
        assert_eq!(names.len(), 8);
    }

    #[test]
    fn classification_matches_paper() {
        assert!(Bench::Fact.is_compute());
        assert!(Bench::MatrixMult.is_compute());
        assert!(!Bench::DiskIo.is_compute());
        assert!(!Bench::NetLatency.is_compute());
    }
}

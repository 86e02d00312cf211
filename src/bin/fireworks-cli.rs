//! `fireworks-cli` — deploy and invoke a serverless function from a Flame
//! source file on any of the simulated platforms.
//!
//! ```sh
//! echo 'fn main(p) { return p["n"] * 2; }' > /tmp/double.flame
//! cargo run --bin fireworks-cli -- run /tmp/double.flame --args '{ n: 21 }'
//! cargo run --bin fireworks-cli -- run /tmp/double.flame --platform openwhisk --args '{ n: 21 }'
//! cargo run --bin fireworks-cli -- annotate /tmp/double.flame
//! ```

use std::process::exit;
use std::rc::Rc;

use fireworks::annotator::{annotate, AnnotationConfig};
use fireworks::lang::{compile, NoopHost, Outcome, Value, Vm};
use fireworks::prelude::*;

fn usage() -> ! {
    eprintln!(
        "usage:
  fireworks-cli run <file.flame> [--platform fireworks|openwhisk|gvisor|firecracker]
                    [--runtime node|python] [--args <flame-expr>] [--invocations N]
  fireworks-cli annotate <file.flame>

The --args expression is Flame, e.g. --args '{{ n: 21, name: \"x\" }}'"
    );
    exit(2)
}

/// Evaluates a Flame expression (for `--args`) by wrapping it in a
/// function and running it on a throwaway VM.
fn eval_expr(expr: &str) -> Result<Value, String> {
    let src = format!("fn __expr__() {{ return {expr}; }}");
    let program = compile(&src).map_err(|e| e.to_string())?;
    let mut vm = Vm::new(Rc::new(program));
    vm.start("__expr__", vec![]).map_err(|e| e.to_string())?;
    match vm.run(&mut NoopHost).map_err(|e| e.to_string())? {
        Outcome::Done(v) => Ok(v),
        other => Err(format!("unexpected outcome {other:?}")),
    }
}

struct Options {
    file: String,
    platform: String,
    runtime: RuntimeKind,
    args: Value,
    invocations: u32,
}

fn parse_options(argv: &[String]) -> Options {
    let mut file = None;
    let mut platform = "fireworks".to_string();
    let mut runtime = RuntimeKind::NodeLike;
    let mut args_value = Value::map([]);
    let mut invocations = 1;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--platform" => {
                i += 1;
                platform = argv.get(i).unwrap_or_else(|| usage()).clone();
            }
            "--runtime" => {
                i += 1;
                runtime = match argv.get(i).map(String::as_str) {
                    Some("node") => RuntimeKind::NodeLike,
                    Some("python") => RuntimeKind::PythonLike,
                    _ => usage(),
                };
            }
            "--args" => {
                i += 1;
                let expr = argv.get(i).unwrap_or_else(|| usage());
                args_value = eval_expr(expr).unwrap_or_else(|e| {
                    eprintln!("bad --args expression: {e}");
                    exit(2)
                });
            }
            "--invocations" => {
                i += 1;
                invocations = argv
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            other if file.is_none() && !other.starts_with("--") => {
                file = Some(other.to_string());
            }
            _ => usage(),
        }
        i += 1;
    }
    Options {
        file: file.unwrap_or_else(|| usage()),
        platform,
        runtime,
        args: args_value,
        invocations,
    }
}

fn run_on<P: Platform>(mut platform: P, spec: &FunctionSpec, opts: &Options) {
    println!(
        "platform : {} ({})",
        platform.name(),
        platform.isolation().label()
    );
    let report = match platform.install(spec) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("install failed: {e}");
            exit(1);
        }
    };
    println!("install  : {}", report.install_time);
    if report.snapshot_pages > 0 {
        println!(
            "snapshot : {} pages ({:.1} MiB), {} @jit functions",
            report.snapshot_pages,
            report.snapshot_bytes as f64 / (1 << 20) as f64,
            report.annotated_functions
        );
    }
    for i in 1..=opts.invocations {
        match platform.invoke(&InvokeRequest::new(fid(&spec.name), opts.args.deep_clone())) {
            Ok(inv) => {
                println!(
                    "invoke #{i}: {:?} start, startup {} exec {} others {} → total {}",
                    inv.start,
                    inv.breakdown.startup,
                    inv.breakdown.exec,
                    inv.breakdown.other,
                    inv.total()
                );
                for line in &inv.printed {
                    println!("  [print] {line}");
                }
                if let Some(body) = &inv.response {
                    println!("  [http]  {body}");
                }
                println!("  result: {}", inv.value);
            }
            Err(e) => {
                eprintln!("invoke #{i} failed: {e}");
                exit(1);
            }
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("annotate") => {
            let Some(file) = argv.get(1) else { usage() };
            let source = std::fs::read_to_string(file).unwrap_or_else(|e| {
                eprintln!("cannot read {file}: {e}");
                exit(2)
            });
            match annotate(&source, &AnnotationConfig) {
                Ok(a) => println!("{}", a.source),
                Err(e) => {
                    eprintln!("{e}");
                    exit(1);
                }
            }
        }
        Some("run") => {
            let opts = parse_options(&argv[1..]);
            let source = std::fs::read_to_string(&opts.file).unwrap_or_else(|e| {
                eprintln!("cannot read {}: {e}", opts.file);
                exit(2)
            });
            let spec =
                FunctionSpec::new("cli-function", source, opts.runtime, opts.args.deep_clone());
            match opts.platform.as_str() {
                "fireworks" => run_on(
                    FireworksPlatform::new(PlatformEnv::default_env()),
                    &spec,
                    &opts,
                ),
                "openwhisk" => run_on(
                    OpenWhiskPlatform::new(PlatformEnv::default_env()),
                    &spec,
                    &opts,
                ),
                "gvisor" => run_on(
                    GvisorPlatform::new(PlatformEnv::default_env()),
                    &spec,
                    &opts,
                ),
                "firecracker" => run_on(
                    FirecrackerPlatform::new(PlatformEnv::default_env(), SnapshotPolicy::None),
                    &spec,
                    &opts,
                ),
                other => {
                    eprintln!("unknown platform `{other}`");
                    usage()
                }
            }
        }
        _ => usage(),
    }
}

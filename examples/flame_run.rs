//! Run a Flame source file directly — the guest-language developer tool.
//!
//! ```sh
//! cargo run --example flame_run -- path/to/program.flame [int-arg]
//! echo 'fn main(n) { print("6*7 =", n * 7); return n * 7; }' > /tmp/p.flame
//! cargo run --example flame_run -- /tmp/p.flame 6
//! ```
//!
//! Flags:
//!   --no-jit        run pure interpreter
//!   --disasm        print the bytecode disassembly and exit
//!
//! `fireworks-cli annotate <file.flame>` prints the Fireworks-annotated
//! source.

use std::rc::Rc;

use fireworks::lang::{compile, Host, JitPolicy, LangError, Outcome, TaggedValue, Value, Vm};

/// Serves prints to stdout and a few benign host calls.
struct CliHost;

impl Host for CliHost {
    fn print(&mut self, text: &str) {
        println!("{text}");
    }

    fn host_call(&mut self, name: &str, args: &[TaggedValue]) -> Result<Value, LangError> {
        match name {
            "io_read" => Ok(args.get(1).map_or(Value::Int(0), TaggedValue::to_value)),
            "io_write" | "net_send" => Ok(Value::Null),
            "http_respond" => {
                println!(
                    "[http response] {}",
                    args.first().map(TaggedValue::to_string).unwrap_or_default()
                );
                Ok(Value::Null)
            }
            "default_params" => Ok(Value::map([])),
            other => Err(LangError::runtime(format!(
                "host call `{other}` is not available in flame_run"
            ))),
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags: Vec<&String> = args.iter().filter(|a| a.starts_with("--")).collect();
    let positional: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let Some(path) = positional.first() else {
        eprintln!("usage: flame_run [--no-jit|--disasm] <file.flame> [int-arg]");
        std::process::exit(2);
    };
    let source = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    let arg: i64 = positional
        .get(1)
        .map(|s| s.parse().expect("int argument"))
        .unwrap_or(0);

    let program = match compile(&source) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };

    if flags.iter().any(|f| *f == "--disasm") {
        for f in &program.functions {
            println!("{}", f.chunk.disassemble());
        }
        return;
    }

    let policy = if flags.iter().any(|f| *f == "--no-jit") {
        JitPolicy::Off
    } else {
        JitPolicy::default()
    };
    let mut vm = Vm::with_policy(Rc::new(program), policy);
    // Run the module body first if there is one.
    if vm
        .program()
        .function(fireworks::lang::compiler::TOPLEVEL)
        .is_some()
    {
        vm.start(fireworks::lang::compiler::TOPLEVEL, vec![])
            .expect("toplevel starts");
        loop {
            match vm.run(&mut CliHost) {
                Ok(Outcome::Done(_)) => break,
                Ok(Outcome::Snapshot) => continue,
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(1);
                }
            }
        }
    }
    if vm.program().function("main").is_none() {
        return;
    }
    if let Err(e) = vm.start("main", vec![Value::Int(arg)]) {
        eprintln!("{e}");
        std::process::exit(1);
    }
    loop {
        match vm.run(&mut CliHost) {
            Ok(Outcome::Done(v)) => {
                println!("=> {v}");
                let stats = vm.stats();
                eprintln!(
                    "[{} ops: {} interp, {} jit; {} compiles, {} deopts]",
                    stats.total_ops(),
                    stats.interp_ops,
                    stats.jit_ops,
                    stats.compiles,
                    stats.deopts
                );
                return;
            }
            Ok(Outcome::Snapshot) => {
                eprintln!("[snapshot point — resuming]");
                continue;
            }
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        }
    }
}

//! `experiments <name> [args…]`: runs one row of
//! [`fireworks_bench::experiments::ALL`]; with no argument, prints the
//! table. stdout is the experiment's alone (the goldens compare it);
//! wall time and events/sec — machine-dependent — go to stderr.

use fireworks_bench::experiments::{find, usage_error, ALL};
use std::process::ExitCode;

fn table() -> String {
    let mut out = String::from("usage: experiments <name> [args…]\n");
    for row in ALL {
        out.push_str(&format!("\n  {}\n      {}\n", row.usage, row.about));
    }
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, rest)) = args.split_first() else {
        print!("{}", table());
        return ExitCode::SUCCESS;
    };
    let Some(row) = find(name) else {
        eprintln!("error: unknown experiment {name:?}");
        eprint!("{}", table());
        return ExitCode::from(2);
    };
    if row.usage == row.name && !rest.is_empty() {
        usage_error(
            &format!("{name} takes no arguments, got {:?}", rest[0]),
            row.usage,
        );
    }
    let wall = std::time::Instant::now();
    match (row.run)(rest) {
        Ok(events) => {
            let secs = wall.elapsed().as_secs_f64();
            if events > 0 {
                eprintln!(
                    "{{\"bench\": \"{name}\", \"events\": {events}, \"wall_ms\": {:.1}, \"events_per_sec\": {:.0}}}",
                    secs * 1e3,
                    events as f64 / secs.max(1e-9)
                );
            }
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("{name}: FAILED: {err}");
            ExitCode::FAILURE
        }
    }
}

//! The three rows that are a few lines over library code: Fig. 6 and
//! Fig. 7 (FaaSdom latency, Node.js and Python) and Table 2 (the tested
//! serverless applications).

use crate::print_faasdom_figure;
use fireworks_runtime::RuntimeKind;
use fireworks_workloads::catalog;

/// Fig. 6: latency comparison of the Node.js FaaSdom benchmarks.
pub fn fig6(_args: &[String]) -> Result<u64, String> {
    print_faasdom_figure("Fig.6", RuntimeKind::NodeLike);
    println!();
    println!("paper: Fireworks up to 133x faster cold start-up, up to 3.8x faster warm");
    println!("       start-up; exec ~38% faster (cold) / ~25% faster (warm) on compute;");
    println!("       geomean (e): up to 8.6x shorter end-to-end latency.");
    Ok(0)
}

/// Fig. 7: latency comparison of the Python FaaSdom benchmarks.
pub fn fig7(_args: &[String]) -> Result<u64, String> {
    print_faasdom_figure("Fig.7", RuntimeKind::PythonLike);
    println!();
    println!("paper: Fireworks up to 74.2x faster cold start-up, 4.4x faster warm;");
    println!("       exec up to 20x (fact) and 80x (matrix) faster via post-JIT code;");
    println!("       geomean (e): overall improvement up to 19x.");
    Ok(0)
}

/// Table 2: tested serverless applications.
pub fn table2(_args: &[String]) -> Result<u64, String> {
    println!("=== Table 2: Tested serverless applications ===\n");
    println!(
        "{:<34} {:<58} {:<18}",
        "Application Name", "Description", "Language"
    );
    for row in catalog() {
        println!(
            "{:<34} {:<58} {:<18}",
            row.name, row.description, row.languages
        );
    }
    Ok(0)
}

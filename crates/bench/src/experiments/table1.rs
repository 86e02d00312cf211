//! Table 1: design comparison of serverless platforms.

use fireworks_baselines::{FirecrackerPlatform, GvisorPlatform, OpenWhiskPlatform, SnapshotPolicy};
use fireworks_core::api::Platform;
use fireworks_core::{FireworksPlatform, PlatformEnv};

pub fn run(_args: &[String]) -> Result<u64, String> {
    println!("=== Table 1: Design comparison of serverless platforms ===\n");
    println!(
        "{:<28} {:<28} {:<26} {:<26}",
        "Serverless Platform", "Isolation", "Performance", "Memory Efficiency"
    );

    let fc = FirecrackerPlatform::new(PlatformEnv::default_env(), SnapshotPolicy::OsSnapshot);
    let ow = OpenWhiskPlatform::new(PlatformEnv::default_env());
    let gv = GvisorPlatform::new(PlatformEnv::default_env());
    let fw = FireworksPlatform::new(PlatformEnv::default_env());

    let rows: Vec<(&str, String, &str, &str)> = vec![
        (
            "Firecracker (Amazon)",
            fc.isolation().label().to_string(),
            "Medium (snapshot)",
            "High (snapshot)",
        ),
        (
            "OpenWhisk (IBM)",
            ow.isolation().label().to_string(),
            "Low (no optimization)",
            "Low (pre-launching)",
        ),
        (
            "gVisor (Google)",
            gv.isolation().label().to_string(),
            "Medium (snapshot)",
            "High (snapshot)",
        ),
        (
            "Cloudflare Workers",
            fireworks_sandbox::IsolationLevel::RuntimeOnly
                .label()
                .to_string(),
            "High (pre-launching)",
            "High (process sharing)",
        ),
        (
            "Catalyzer",
            "Med (container)".to_string(),
            "High (pre-launching)",
            "High (process sharing)",
        ),
        (
            "Fireworks",
            fw.isolation().label().to_string(),
            "Extreme (snapshot+JIT)",
            "Extreme (snapshot+JIT)",
        ),
    ];
    for (name, isolation, perf, mem) in rows {
        println!("{name:<28} {isolation:<28} {perf:<26} {mem:<26}");
    }
    println!();
    println!("(Cloudflare Workers and Catalyzer are shown for design comparison only —");
    println!(" like the paper, they are not in the quantitative evaluation.)");
    Ok(0)
}

//! Fig. 9: real-world ServerlessBench applications — Alexa Skills and
//! Data Analysis — on Fireworks vs OpenWhisk (the two chain-capable
//! platforms).

use fireworks_baselines::OpenWhiskPlatform;
use fireworks_core::api::StartMode;
use fireworks_core::{FireworksPlatform, PlatformEnv};
use fireworks_lang::Value;
use fireworks_sim::Nanos;
use fireworks_workloads::generators::WageRecordGen;
use fireworks_workloads::serverlessbench::{AlexaApp, DataAnalysisApp, StageResult};

struct StageRow {
    stage: String,
    fw_startup: Nanos,
    fw_exec: Nanos,
    ow_startup: Nanos,
    ow_exec: Nanos,
}

fn print_rows(title: &str, rows: &[StageRow]) {
    println!("{title}");
    println!(
        "  {:<14} {:>12} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "stage", "fw startup", "fw exec", "ow startup", "ow exec", "su ratio", "ex ratio"
    );
    for r in rows {
        println!(
            "  {:<14} {:>12} {:>12} {:>12} {:>12} {:>9.1}x {:>9.1}x",
            r.stage,
            format!("{}", r.fw_startup),
            format!("{}", r.fw_exec),
            format!("{}", r.ow_startup),
            format!("{}", r.ow_exec),
            r.ow_startup.ratio(r.fw_startup),
            r.ow_exec.ratio(r.fw_exec),
        );
    }
}

fn merge(stages_fw: &[StageResult], stages_ow: &[StageResult]) -> Vec<StageRow> {
    stages_fw
        .iter()
        .zip(stages_ow)
        .map(|(f, o)| StageRow {
            stage: f.stage.to_string(),
            fw_startup: f.invocation.breakdown.startup,
            fw_exec: f.invocation.breakdown.exec + f.invocation.breakdown.other,
            ow_startup: o.invocation.breakdown.startup,
            ow_exec: o.invocation.breakdown.exec + o.invocation.breakdown.other,
        })
        .collect()
}

pub fn run(_args: &[String]) -> Result<u64, String> {
    println!("=== Fig.9: Real-world serverless applications ===");
    println!("(exec columns include I/O time, as in the paper's breakdown)\n");

    // --- (a) Alexa Skills: fact, then reminder, then smart home, like the
    // paper's request sequence. Cold OpenWhisk (first arrival).
    let mut fw = FireworksPlatform::new(PlatformEnv::default_env());
    AlexaApp::install(&mut fw).expect("install fw");
    let mut ow = OpenWhiskPlatform::new(PlatformEnv::default_env());
    AlexaApp::install(&mut ow).expect("install ow");

    let requests = [
        "alexa tell me a fact",
        "alexa remind me to submit report office",
        "alexa toggle the light",
    ];
    let mut all_rows = Vec::new();
    for utterance in requests {
        let f = AlexaApp::run(&mut fw, utterance, StartMode::Auto).expect("fw");
        let o = AlexaApp::run(&mut ow, utterance, StartMode::Auto).expect("ow");
        all_rows.extend(merge(&f, &o));
    }
    print_rows("Fig.9(a) Alexa Skills (per chain stage)", &all_rows);
    let (fs, fe, os, oe) = all_rows.iter().fold(
        (Nanos::ZERO, Nanos::ZERO, Nanos::ZERO, Nanos::ZERO),
        |(a, b, c, d), r| {
            (
                a + r.fw_startup,
                b + r.fw_exec,
                c + r.ow_startup,
                d + r.ow_exec,
            )
        },
    );
    println!(
        "  {:<14} {:>12} {:>12} {:>12} {:>12} {:>9.1}x {:>9.1}x",
        "TOTAL",
        format!("{fs}"),
        format!("{fe}"),
        format!("{os}"),
        format!("{oe}"),
        os.ratio(fs),
        oe.ratio(fe),
    );
    println!("  paper: 12.5x faster start-up, 2.4x faster execution\n");

    // --- (b) Data Analysis: insertion chain + DB-triggered analysis.
    let fw_env = PlatformEnv::default_env();
    let mut fw = FireworksPlatform::new(fw_env.clone());
    let mut fw_app = DataAnalysisApp::install(&mut fw, fw_env).expect("install fw");
    let ow_env = PlatformEnv::default_env();
    let mut ow = OpenWhiskPlatform::new(ow_env.clone());
    let mut ow_app = DataAnalysisApp::install(&mut ow, ow_env).expect("install ow");

    let mut gen_f = WageRecordGen::new(42);
    let mut gen_o = WageRecordGen::new(42);
    let mut insert_rows = Vec::new();
    let mut analysis_rows = Vec::new();
    for _ in 0..3 {
        let rf: Value = gen_f.next_record();
        let ro: Value = gen_o.next_record();
        let fi = fw_app
            .insert(&mut fw, &rf, StartMode::Auto)
            .expect("fw insert");
        let oi = ow_app
            .insert(&mut ow, &ro, StartMode::Auto)
            .expect("ow insert");
        insert_rows.extend(merge(&fi, &oi));
        let fa = fw_app
            .poll_trigger(&mut fw, StartMode::Auto)
            .expect("fw poll")
            .expect("fw triggered");
        let oa = ow_app
            .poll_trigger(&mut ow, StartMode::Auto)
            .expect("ow poll")
            .expect("ow triggered");
        analysis_rows.extend(merge(&fa, &oa));
    }
    print_rows("Fig.9(b) Data Analysis — insertion step", &insert_rows);
    println!("  paper: 25.6x shorter start-up, 11.8x faster execution\n");
    print_rows("Fig.9(b) Data Analysis — analysis step", &analysis_rows);
    println!("  paper: 27x faster start-up, 4.9x faster execution");
    Ok(0)
}

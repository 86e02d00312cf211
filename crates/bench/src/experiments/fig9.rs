//! Fig. 9: real-world ServerlessBench applications — Alexa Skills and
//! Data Analysis — on Fireworks vs OpenWhisk (the two chain-capable
//! platforms).

use fireworks_baselines::OpenWhiskPlatform;
use fireworks_core::api::StartMode;
use fireworks_core::env::EnvConfig;
use fireworks_core::{FireworksPlatform, PlatformEnv};
use fireworks_lang::Value;
use fireworks_sim::Nanos;
use fireworks_workloads::generators::WageRecordGen;
use fireworks_workloads::serverlessbench::{AlexaApp, DataAnalysisApp, StageResult};

/// One chain stage on both platforms (exec columns include I/O time).
pub struct StageRow {
    pub stage: String,
    pub fw_startup: Nanos,
    pub fw_exec: Nanos,
    pub ow_startup: Nanos,
    pub ow_exec: Nanos,
}

impl StageRow {
    /// OpenWhisk's start-up time over Fireworks'.
    pub fn startup_ratio(&self) -> f64 {
        self.ow_startup.ratio(self.fw_startup)
    }

    /// OpenWhisk's exec + I/O time over Fireworks'.
    pub fn exec_ratio(&self) -> f64 {
        self.ow_exec.ratio(self.fw_exec)
    }
}

/// The three request sequences of the figure, one row per chain stage.
pub struct Data {
    pub alexa: Vec<StageRow>,
    pub insert: Vec<StageRow>,
    pub analysis: Vec<StageRow>,
}

/// The `TOTAL` line: every column summed over `rows`.
pub fn total(rows: &[StageRow]) -> StageRow {
    let sum = |col: fn(&StageRow) -> Nanos| rows.iter().map(col).sum();
    StageRow {
        stage: "TOTAL".to_string(),
        fw_startup: sum(|r| r.fw_startup),
        fw_exec: sum(|r| r.fw_exec),
        ow_startup: sum(|r| r.ow_startup),
        ow_exec: sum(|r| r.ow_exec),
    }
}

fn print_rows(title: &str, rows: &[StageRow]) {
    println!("{title}");
    println!(
        "  {:<14} {:>12} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "stage", "fw startup", "fw exec", "ow startup", "ow exec", "su ratio", "ex ratio"
    );
    rows.iter().for_each(print_row);
}

fn print_row(r: &StageRow) {
    println!(
        "  {:<14} {:>12} {:>12} {:>12} {:>12} {:>9.1}x {:>9.1}x",
        r.stage,
        format!("{}", r.fw_startup),
        format!("{}", r.fw_exec),
        format!("{}", r.ow_startup),
        format!("{}", r.ow_exec),
        r.startup_ratio(),
        r.exec_ratio(),
    );
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

pub fn measure(env: &EnvConfig) -> Data {
    let host = || PlatformEnv::new(env.clone());
    // --- (a) Alexa Skills: fact, then reminder, then smart home, like the
    // paper's request sequence. Cold OpenWhisk (first arrival).
    let mut fw = FireworksPlatform::new(host());
    AlexaApp::install(&mut fw).expect("install fw");
    let mut ow = OpenWhiskPlatform::new(host());
    AlexaApp::install(&mut ow).expect("install ow");

    let requests = [
        "alexa tell me a fact",
        "alexa remind me to submit report office",
        "alexa toggle the light",
    ];
    let mut alexa = Vec::new();
    for utterance in requests {
        let f = AlexaApp::run(&mut fw, utterance, StartMode::Auto).expect("fw");
        let o = AlexaApp::run(&mut ow, utterance, StartMode::Auto).expect("ow");
        alexa.extend(merge(&f, &o));
    }

    // --- (b) Data Analysis: insertion chain + DB-triggered analysis.
    let fw_env = host();
    let mut fw = FireworksPlatform::new(fw_env.clone());
    let mut fw_app = DataAnalysisApp::install(&mut fw, fw_env).expect("install fw");
    let ow_env = host();
    let mut ow = OpenWhiskPlatform::new(ow_env.clone());
    let mut ow_app = DataAnalysisApp::install(&mut ow, ow_env).expect("install ow");

    let mut gen_f = WageRecordGen::new(42);
    let mut gen_o = WageRecordGen::new(42);
    let mut insert = Vec::new();
    let mut analysis = Vec::new();
    for _ in 0..3 {
        let rf: Value = gen_f.next_record();
        let ro: Value = gen_o.next_record();
        let fi = fw_app
            .insert(&mut fw, &rf, StartMode::Auto)
            .expect("fw insert");
        let oi = ow_app
            .insert(&mut ow, &ro, StartMode::Auto)
            .expect("ow insert");
        insert.extend(merge(&fi, &oi));
        let fa = fw_app
            .poll_trigger(&mut fw, StartMode::Auto)
            .expect("fw poll")
            .expect("fw triggered");
        let oa = ow_app
            .poll_trigger(&mut ow, StartMode::Auto)
            .expect("ow poll")
            .expect("ow triggered");
        analysis.extend(merge(&fa, &oa));
    }
    Data {
        alexa,
        insert,
        analysis,
    }
}

fn print(data: &Data) {
    println!("=== Fig.9: Real-world serverless applications ===");
    println!("(exec columns include I/O time, as in the paper's breakdown)\n");
    print_rows("Fig.9(a) Alexa Skills (per chain stage)", &data.alexa);
    print_row(&total(&data.alexa));
    println!("  paper: 12.5x faster start-up, 2.4x faster execution\n");
    print_rows("Fig.9(b) Data Analysis — insertion step", &data.insert);
    println!("  paper: 25.6x shorter start-up, 11.8x faster execution\n");
    print_rows("Fig.9(b) Data Analysis — analysis step", &data.analysis);
    println!("  paper: 27x faster start-up, 4.9x faster execution");
}

pub fn run(_args: &[String]) -> Result<u64, String> {
    print(&measure(&EnvConfig::default()));
    Ok(0)
}

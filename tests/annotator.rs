//! The annotator's printer is a test oracle, not an install path: every
//! platform compiles the rewritten items directly
//! (`fireworks::annotator::compile`), and `annotate` prints the same
//! items for `fireworks-cli annotate`. Re-parsing that text must give
//! back exactly the AST the platforms compile, for every guest this
//! repository runs.

use fireworks::annotator::{annotate, rewrite, AnnotationConfig};
use fireworks::lang::{lexer, parser};
use fireworks::workloads::faasdom::Bench;
use fireworks::workloads::serverlessbench::{AlexaApp, DataAnalysisApp};

/// Every guest source: the benchmark's own guests, the FaaSdom suite and
/// both ServerlessBench applications.
fn sources() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/benchmark/guests");
    let mut guests: Vec<(String, String)> = std::fs::read_dir(dir)
        .expect("benchmark guests")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "flame"))
        .map(|path| {
            let source = std::fs::read_to_string(&path).expect("readable guest");
            (path.display().to_string(), source)
        })
        .collect();
    guests.sort();
    assert!(guests.len() >= 5, "found {} benchmark guests", guests.len());
    guests.extend(
        Bench::ALL
            .iter()
            .map(|b| (b.name().to_string(), b.source().to_string())),
    );
    guests.extend(
        AlexaApp::specs()
            .into_iter()
            .chain(DataAnalysisApp::specs())
            .map(|spec| (spec.name, spec.source)),
    );
    guests
}

#[test]
fn printed_source_parses_back_to_the_ast_the_platforms_compile() {
    for (name, source) in sources() {
        let items = rewrite(&source).unwrap_or_else(|e| panic!("{name}: {e}"));
        let printed = annotate(&source, &AnnotationConfig)
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .source;
        let tokens = lexer::lex(&printed).unwrap_or_else(|e| panic!("{name}: re-lex {e}"));
        let reparsed = parser::parse(tokens).unwrap_or_else(|e| panic!("{name}: re-parse {e}"));
        assert_eq!(
            reparsed, items,
            "{name}: the printed source re-parses differently"
        );
    }
}

//! Regenerates every figure, worked example and theorem-level claim of
//!
//! > Wijsen, "Charting the Tractability Frontier of Certain Conjunctive
//! > Query Answering", PODS 2013
//!
//! as machine-checked output. Each section corresponds to one experiment of
//! `EXPERIMENTS.md` (E1–E12), computed by [`cqa_bench::paper`]; the expected
//! ("paper") value is printed next to the measured one so the two can be
//! diffed at a glance, and the process exits non-zero if any of them differ.
//!
//! Run with `cargo run --release -p cqa-bench --bin experiments`.

use cqa_bench::paper::{Row, Section, SECTIONS};

fn print(section: &Section) {
    println!("\n==================================================================");
    println!("{}  {}", section.id, section.title);
    println!("==================================================================");
    for row in &section.rows {
        match row {
            Row::Check(label, paper, measured) => {
                let status = if row.is_mismatch() { "MISMATCH" } else { "ok " };
                println!("  [{status}] {label:<58} paper: {paper:<18} measured: {measured}");
            }
            Row::Note(text) => println!("{text}"),
        }
    }
}

fn main() {
    println!("certainty-rs experiment harness — reproducing Wijsen, PODS 2013");
    let mut mismatches = 0;
    for section in SECTIONS {
        let section = section();
        print(&section);
        mismatches += section.mismatches().len();
    }
    if mismatches > 0 {
        println!("\n{mismatches} check(s) MISMATCH the paper.");
        std::process::exit(1);
    }
    println!("\nAll experiment sections completed, every check matches the paper.");
}

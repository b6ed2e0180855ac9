//! The paper's checks E1–E12 (`cqa_bench::paper`, also printed by the
//! `experiments` binary) as tests: one per section, each requiring every
//! measured value to equal the paper's. The check counts are pinned so a
//! section cannot lose a check silently.

use cqa_bench::paper::{self, Row, Section};

fn assert_matches_the_paper(section: Section, checks: usize) {
    let (id, mismatches) = (section.id, section.mismatches());
    assert!(
        mismatches.is_empty(),
        "{id} mismatches the paper: {mismatches:#?}"
    );
    let counted = (section.rows.iter()).filter(|row| matches!(row, Row::Check(..)));
    assert_eq!(counted.count(), checks, "{id} check count");
}

/// One `#[test]` per section: `name: section, number of checks;`.
macro_rules! sections {
    ($($test:ident: $section:ident, $checks:expr;)*) => {$(
        #[test]
        fn $test() {
            assert_matches_the_paper(paper::$section(), $checks);
        }
    )*};
}

sections! {
    e1_figure1_conference_database: e1, 6;
    e2_figure2_attack_graph_of_q1: e2, 13;
    e3_figure4_weak_terminal_cycles: e3, 5;
    e4_figure5_ac3_attack_graph: e4, 5;
    e5_figures6_7_ac3_instance: e5, 5;
    e6_the_frontier_chart: e6, 12;
    e7_theorem2_reduction: e7, 1;
    e8_theorem3_solver_scales: e8, 0;
    e9_theorem4_and_corollary1: e9, 1;
    e10_section7_safety_and_probability: e10, 10;
    e11_proposition1: e11, 1;
    e12_attack_graph_cost_and_rewritings: e12, 3;
}

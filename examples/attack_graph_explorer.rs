//! Attack-graph explorer: rebuilds the figures of the paper.
//!
//! For each catalog query (q1 of Figure 2, the Figure 4 query, AC(3) of
//! Figure 5, ...), prints the join tree, the closures `F⁺` / `F^⊞`, the
//! attack graph with weak/strong labels, the cycle analysis and the
//! resulting complexity classification, plus Graphviz DOT output that can be
//! rendered to reproduce the figures.
//!
//! Run with `cargo run --example attack_graph_explorer`.

use cqa::core::attack::{elementary_cycles, AttackGraph, CycleAnalysis};
use cqa::core::classify::classify;
use cqa::parser::dot;
use cqa::query::{catalog, JoinTree};

fn explore(entry: &catalog::CatalogQuery) {
    println!("==============================================================");
    println!("{}  —  {}", entry.name, entry.description);
    println!("query: {}", entry.query);

    let Some(join_tree) = JoinTree::build(&entry.query) else {
        println!("the query is cyclic: no join tree, attack graph undefined\n");
        return;
    };
    println!("\njoin tree:");
    print!("{join_tree}");

    let graph = AttackGraph::build(&entry.query).unwrap();
    let closures = graph.closures();
    println!("\nclosures (Definition 2 / Definition 5):");
    for (id, atom) in entry.query.atoms_with_ids() {
        let plus: Vec<String> = closures
            .plus_vars(id)
            .iter()
            .map(|v| v.to_string())
            .collect();
        let boxed: Vec<String> = closures
            .boxed_vars(id)
            .iter()
            .map(|v| v.to_string())
            .collect();
        println!(
            "  {:<22} F+ = {{{}}}   F⊞ = {{{}}}",
            atom.display(entry.query.schema()).to_string(),
            plus.join(","),
            boxed.join(",")
        );
    }

    println!("\nattack graph (Definition 3):");
    print!("{}", graph.render());
    let analysis = CycleAnalysis::analyze(&graph);
    println!(
        "cycles: {}   strong cycle: {}   all weak+terminal: {}",
        elementary_cycles(&graph).len(),
        analysis.has_strong_cycle(),
        analysis.all_cycles_weak() && analysis.all_cycles_terminal()
    );
    println!("classification: {}", classify(&entry.query).unwrap().class);

    println!("\nGraphviz DOT (render with `dot -Tpng`):");
    println!("{}", dot::attack_graph_to_dot(&graph));
}

fn main() {
    for entry in [
        catalog::q1(),
        catalog::fig4(),
        catalog::ac_k(3),
        catalog::conference(),
        catalog::c_k(3),
    ] {
        explore(&entry);
    }
}

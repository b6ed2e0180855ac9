//! Graphviz DOT export for attack graphs.
//!
//! Useful for eyeballing the structures the classification rests on; the
//! output of the `certainty attack-graph --dot` CLI command reproduces
//! Figures 2, 4 and 5 of the paper when fed the catalog queries.

use cqa_core::attack::{AttackGraph, AttackStrength};

fn escape(label: &str) -> String {
    label.replace('"', "\\\"")
}

/// Renders an attack graph as a directed Graphviz graph; strong attacks are
/// drawn bold and red, weak attacks solid black, as a stand-in for the
/// paper's Figure 2 (right), Figure 4 and Figure 5.
pub fn attack_graph_to_dot(graph: &AttackGraph) -> String {
    let query = graph.query();
    let schema = query.schema();
    let mut out = String::from("digraph attack_graph {\n  node [shape=box];\n");
    for (id, atom) in query.atoms_with_ids() {
        out.push_str(&format!(
            "  a{id} [label=\"{}\"];\n",
            escape(&atom.display(schema).to_string())
        ));
    }
    for edge in graph.edges() {
        let style = match edge.strength {
            AttackStrength::Weak => "color=black",
            AttackStrength::Strong => "color=red, penwidth=2.0",
        };
        out.push_str(&format!(
            "  a{} -> a{} [{} label=\"{}\"];\n",
            edge.from, edge.to, style, edge.strength
        ));
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_query::catalog;

    #[test]
    fn q1_attack_graph_dot_marks_the_strong_attack() {
        let q = catalog::q1().query;
        let graph = AttackGraph::build(&q).unwrap();
        let dot = attack_graph_to_dot(&graph);
        assert!(dot.starts_with("digraph"));
        assert!(
            dot.contains("color=red"),
            "strong attack must be highlighted"
        );
        assert_eq!(dot.matches("->").count(), graph.edges().len());
        assert!(dot.contains("R(u, 'a', x)") || dot.contains("R(u; 'a', x)"));
    }

    #[test]
    fn dot_output_is_parseable_enough() {
        // Quotes in constants must be escaped.
        let schema = cqa_data::Schema::from_relations([("R", 2, 1)])
            .unwrap()
            .into_shared();
        let q = cqa_query::ConjunctiveQuery::builder(schema)
            .atom(
                "R",
                [
                    cqa_query::Term::var("x"),
                    cqa_query::Term::constant("say \"hi\""),
                ],
            )
            .build()
            .unwrap();
        let graph = AttackGraph::build(&q).unwrap();
        let dot = attack_graph_to_dot(&graph);
        assert!(dot.contains("\\\"hi\\\""));
    }
}

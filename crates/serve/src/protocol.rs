//! The line protocol: newline-delimited requests, one response line each.
//!
//! ## Grammar
//!
//! ```text
//! request      := query | command | blank
//! query        := ["certain "] [name ["(" vars ")"]] [":-"] atoms
//! command      := "\stats" | "\epoch" | "\quit"
//!               | "\insert " fact | "\remove " fact | "\remove-block " fact
//!               | "\subscribe " name query | "\view " name
//! fact         := RelName "(" const ("," const)* ")"
//! blank        := ""            # comments ('#' to end of line) are stripped
//! ```
//!
//! Query lines are the document format's query lines
//! ([`cqa_parser::parse_query_line`]); an unnamed query gets the
//! synthesized name `q<n>` where `n` counts the connection's requests
//! from 1. Blank lines (and pure comments) produce **no** response; every
//! other request produces **exactly one** response line:
//!
//! ```text
//! name: certain (possible: true, solver: rewriting)      # Boolean query
//! name: 2 certain / 5 possible; certain: (a, 1), (b, 2)  # open query
//! name: error: <explanation>                             # any failure
//! ok: inserted, epoch 4                                  # effective write
//! ok: no-op, epoch 4                                     # ineffective write
//! ok: subscribed v, epoch 4, 2 certain / 5 possible      # \subscribe
//! v: 2 certain / 5 possible; certain: (a, 1), (b, 2)     # \view (query shape)
//! epoch: 4                                               # \epoch
//! stats: 512 served, 3483.4 qps, p50 0.066 ms, ...       # \stats
//! bye                                                    # \quit, then close
//! ```
//!
//! The single-line framing is what makes the concurrency tests'
//! byte-equality assertion meaningful: a response can be compared whole
//! against the single-threaded reference engine's rendering.

use cqa_data::{Fact, Schema};
use cqa_par::{BatchOutcome, BatchResult};
use cqa_parser::{parse_fact_line, parse_query_line};
use cqa_query::ConjunctiveQuery;
use std::fmt::Write as _;
use std::sync::Arc;

/// One parsed request of the line protocol.
#[derive(Clone, Debug)]
pub enum Request {
    /// A query to answer on the current epoch.
    Query {
        /// The query's name (given, or synthesized as `q<request_no>`).
        name: String,
        /// The parsed conjunctive query.
        query: ConjunctiveQuery,
    },
    /// `\insert` / `\remove` / `\remove-block`: a mutation that builds the
    /// next epoch.
    Write(WriteOp),
    /// `\stats`: one serving-stats line.
    Stats,
    /// `\epoch`: the current epoch number.
    Epoch,
    /// `\subscribe <name> <query>`: register a materialized view and
    /// publish its first reading with the current epoch.
    Subscribe {
        /// The view's name (the first word after the verb).
        name: String,
        /// The conjunctive query the view materializes.
        query: ConjunctiveQuery,
    },
    /// `\view <name>`: the named view's current reading, rendered exactly
    /// like a query response.
    View {
        /// The view's name.
        name: String,
    },
    /// `\quit`: say `bye` and close the connection.
    Quit,
}

/// A write request against the master database.
#[derive(Clone, Debug)]
pub enum WriteOp {
    /// Insert the fact (no-op if already present).
    Insert(Fact),
    /// Remove exactly the fact (no-op if absent).
    RemoveFact(Fact),
    /// Remove the fact's whole block (no-op if absent).
    RemoveBlock(Fact),
}

/// Parses one request line. Returns `Ok(None)` for blank lines and pure
/// comments (which produce no response), `Err` for malformed requests (the
/// error text becomes the response). `request_no` (1-based, per connection)
/// names unnamed queries and line-stamps parse errors.
pub fn parse_request(
    schema: &Arc<Schema>,
    line: &str,
    request_no: usize,
) -> Result<Option<Request>, String> {
    let text = line.split('#').next().unwrap_or("").trim();
    if text.is_empty() {
        return Ok(None);
    }
    if let Some(command) = text.strip_prefix('\\') {
        return match command.split_once(' ') {
            None => match command {
                "stats" => Ok(Some(Request::Stats)),
                "epoch" => Ok(Some(Request::Epoch)),
                "quit" => Ok(Some(Request::Quit)),
                "subscribe" => Err("\\subscribe: usage: \\subscribe <name> <query>".into()),
                "view" => Err("\\view: usage: \\view <name>".into()),
                other => Err(format!("unknown command `\\{other}`")),
            },
            Some((verb, rest)) => {
                let fact = |verb: &str| {
                    parse_fact_line(schema, rest, request_no).map_err(|e| format!("\\{verb}: {e}"))
                };
                match verb {
                    "insert" => Ok(Some(Request::Write(WriteOp::Insert(fact("insert")?)))),
                    "remove" => Ok(Some(Request::Write(WriteOp::RemoveFact(fact("remove")?)))),
                    "remove-block" => Ok(Some(Request::Write(WriteOp::RemoveBlock(fact(
                        "remove-block",
                    )?)))),
                    "subscribe" => {
                        let (name, body) = rest
                            .trim()
                            .split_once(' ')
                            .ok_or("\\subscribe: usage: \\subscribe <name> <query>")?;
                        // The view keeps the subscriber's chosen name; the
                        // query text's own head name (if any) is discarded.
                        let (_, query) = parse_query_line(schema, body.trim(), request_no)
                            .map_err(|e| format!("\\subscribe: {e}"))?;
                        Ok(Some(Request::Subscribe {
                            name: name.to_string(),
                            query,
                        }))
                    }
                    "view" => {
                        let name = rest.trim();
                        if name.is_empty() || name.contains(' ') {
                            return Err("\\view: usage: \\view <name>".into());
                        }
                        Ok(Some(Request::View {
                            name: name.to_string(),
                        }))
                    }
                    other => Err(format!("unknown command `\\{other}`")),
                }
            }
        };
    }
    let text = text.strip_prefix("certain ").unwrap_or(text).trim();
    let (name, query) = parse_query_line(schema, text, request_no).map_err(|e| e.to_string())?;
    Ok(Some(Request::Query { name, query }))
}

/// Renders one batch result as the protocol's single response line. Shared
/// by the server and by the test suite's single-threaded reference, so
/// byte-equality compares evaluation, not formatting.
pub fn render_result(result: &BatchResult) -> String {
    let mut out = String::new();
    match &result.outcome {
        BatchOutcome::Boolean {
            certain,
            possible,
            solver,
        } => {
            let _ = write!(
                out,
                "{}: {} (possible: {possible}, solver: {solver})",
                result.name,
                if *certain { "certain" } else { "not certain" },
            );
        }
        BatchOutcome::Answers(sets) => {
            let _ = write!(
                out,
                "{}: {} certain / {} possible",
                result.name,
                sets.certain.len(),
                sets.possible.len()
            );
            if !sets.certain.is_empty() {
                let rendered: Vec<String> = sets
                    .certain
                    .iter()
                    .map(|tuple| {
                        let cells: Vec<String> = tuple.iter().map(|v| v.to_string()).collect();
                        format!("({})", cells.join(", "))
                    })
                    .collect();
                let _ = write!(out, "; certain: {}", rendered.join(", "));
            }
        }
        BatchOutcome::Error(e) => {
            let _ = write!(out, "{}: error: {}", result.name, single_line(e));
        }
    }
    out
}

/// Renders an error response for a request that never produced a
/// [`BatchResult`] (parse failures, overload, deadline).
pub fn render_error(name: &str, message: &str) -> String {
    format!("{name}: error: {}", single_line(message))
}

/// Collapses embedded newlines so every response stays one line — a
/// multi-line error message must not desynchronize the protocol framing.
fn single_line(text: &str) -> String {
    if text.contains(['\n', '\r']) {
        text.replace(['\n', '\r'], " ")
    } else {
        text.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_core::answers::AnswerSets;
    use cqa_data::Value;
    use std::collections::BTreeSet;

    fn schema() -> Arc<Schema> {
        Schema::from_relations([("R", 2, 1)]).unwrap().into_shared()
    }

    #[test]
    fn requests_parse_by_kind() {
        let schema = schema();
        assert!(parse_request(&schema, "", 1).unwrap().is_none());
        assert!(parse_request(&schema, "  # just a comment", 1)
            .unwrap()
            .is_none());
        assert!(matches!(
            parse_request(&schema, "\\stats", 1),
            Ok(Some(Request::Stats))
        ));
        assert!(matches!(
            parse_request(&schema, "\\epoch", 1),
            Ok(Some(Request::Epoch))
        ));
        assert!(matches!(
            parse_request(&schema, "\\quit", 1),
            Ok(Some(Request::Quit))
        ));
        assert!(matches!(
            parse_request(&schema, "\\insert R(a, 1)", 1),
            Ok(Some(Request::Write(WriteOp::Insert(_))))
        ));
        assert!(matches!(
            parse_request(&schema, "\\remove R(a, 1)", 1),
            Ok(Some(Request::Write(WriteOp::RemoveFact(_))))
        ));
        assert!(matches!(
            parse_request(&schema, "\\remove-block R(a, 1)", 1),
            Ok(Some(Request::Write(WriteOp::RemoveBlock(_))))
        ));
        let Ok(Some(Request::Subscribe { name, query })) =
            parse_request(&schema, "\\subscribe keys q(x) :- R(x, y)", 1)
        else {
            panic!("expected a subscription");
        };
        assert_eq!(name, "keys");
        assert_eq!(query.free_vars().len(), 1);
        assert!(matches!(
            parse_request(&schema, "\\view keys", 1),
            Ok(Some(Request::View { name })) if name == "keys"
        ));
        let Ok(Some(Request::Query { name, query })) =
            parse_request(&schema, "certain q(x) :- R(x, y)", 1)
        else {
            panic!("expected a query");
        };
        assert_eq!(name, "q");
        assert_eq!(query.free_vars().len(), 1);
        // Unnamed queries are numbered by request, not by document line.
        let Ok(Some(Request::Query { name, .. })) = parse_request(&schema, "R(x, y)", 7) else {
            panic!("expected a query");
        };
        assert_eq!(name, "q7");
    }

    #[test]
    fn malformed_requests_become_errors_not_panics() {
        let schema = schema();
        assert!(parse_request(&schema, "\\nope", 1).is_err());
        assert!(parse_request(&schema, "\\insert T(a)", 1).is_err());
        assert!(parse_request(&schema, "\\insert R(a)", 1).is_err());
        assert!(parse_request(&schema, "q :- T(x)", 1).is_err());
        assert!(parse_request(&schema, "((((", 1).is_err());
        assert!(parse_request(&schema, "\\subscribe", 1).is_err());
        assert!(parse_request(&schema, "\\subscribe lonely", 1).is_err());
        assert!(parse_request(&schema, "\\subscribe v T(x)", 1).is_err());
        assert!(parse_request(&schema, "\\view", 1).is_err());
        assert!(parse_request(&schema, "\\view two words", 1).is_err());
    }

    #[test]
    fn responses_render_as_single_lines() {
        let boolean = BatchResult {
            name: "q1".into(),
            outcome: BatchOutcome::Boolean {
                certain: true,
                possible: true,
                solver: "rewriting",
            },
        };
        assert_eq!(
            render_result(&boolean),
            "q1: certain (possible: true, solver: rewriting)"
        );
        let mut certain = BTreeSet::new();
        certain.insert(vec![Value::str("a"), Value::Int(1)]);
        let answers = BatchResult {
            name: "q2".into(),
            outcome: BatchOutcome::Answers(AnswerSets {
                certain,
                possible: (0..3)
                    .map(|i| vec![Value::str("a"), Value::Int(i)])
                    .collect(),
            }),
        };
        assert_eq!(
            render_result(&answers),
            "q2: 1 certain / 3 possible; certain: (a, 1)"
        );
        let error = BatchResult {
            name: "q3".into(),
            outcome: BatchOutcome::Error("multi\nline\rmessage".into()),
        };
        let line = render_result(&error);
        assert_eq!(line, "q3: error: multi line message");
        assert_eq!(render_error("q4", "busy\n"), "q4: error: busy ");
    }
}

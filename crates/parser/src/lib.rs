//! # cqa-parser
//!
//! A small text format for uncertain databases and conjunctive queries, plus
//! Graphviz DOT export of join trees and attack graphs. This is the frontend
//! used by the `certainty` CLI and by the examples; it is deliberately tiny
//! (line-based) rather than a full datalog dialect.
//!
//! ## Format
//!
//! ```text
//! # comments start with '#'
//! relation C(conf*, year*, city)      # '*' marks the primary-key prefix
//! relation R(conf*, rank)
//!
//! C(PODS, 2016, Rome)                 # facts: bare tokens are constants
//! C(PODS, 2016, Paris)
//! R(PODS, A)
//!
//! certain rome :- C(x, y, "Rome"), R(x, "A")   # queries: bare identifiers are
//!                                              # variables, quoted strings and
//!                                              # numbers are constants
//! ```
//!
//! A document may declare several named queries; free variables are written
//! `certain name(x, y) :- ...`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csv;
pub mod dot;

use cqa_data::{Schema, UncertainDatabase, Value};
use cqa_query::{Atom, ConjunctiveQuery, Term, Variable};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// A parsed document: schema, facts and named queries.
#[derive(Clone, Debug)]
pub struct Document {
    /// The declared schema.
    pub schema: Arc<Schema>,
    /// The uncertain database given by the fact lines.
    pub database: UncertainDatabase,
    /// The named queries, in declaration order.
    pub queries: Vec<(String, ConjunctiveQuery)>,
}

/// Parse errors with a 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line (0 for document-level errors).
    pub line: usize,
    /// Explanation.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for ParseError {}

pub(crate) fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Splits `R(a, b, c)` into the name and the comma-separated argument list.
fn split_call(line: usize, text: &str) -> Result<(String, Vec<String>), ParseError> {
    let open = text
        .find('(')
        .ok_or_else(|| err(line, format!("expected '(' in `{text}`")))?;
    let close = text
        .rfind(')')
        .ok_or_else(|| err(line, format!("expected ')' in `{text}`")))?;
    if close < open {
        return Err(err(line, format!("mismatched parentheses in `{text}`")));
    }
    let name = text[..open].trim().to_string();
    if name.is_empty() {
        return Err(err(line, format!("missing relation name in `{text}`")));
    }
    let inside = &text[open + 1..close];
    let args = if inside.trim().is_empty() {
        Vec::new()
    } else {
        inside.split(',').map(|s| s.trim().to_string()).collect()
    };
    Ok((name, args))
}

/// Parses a constant token of a fact: quoted string, integer, or bare symbol.
fn parse_constant(token: &str) -> Value {
    let token = token.trim();
    if token.len() >= 2 && token.starts_with('"') && token.ends_with('"') {
        return Value::str(&token[1..token.len() - 1]);
    }
    if let Ok(i) = token.parse::<i64>() {
        return Value::Int(i);
    }
    Value::str(token)
}

/// Parses a query-body token: quoted strings and integers are constants,
/// everything else is a variable.
fn parse_term(token: &str) -> Term {
    let token = token.trim();
    if token.len() >= 2 && token.starts_with('"') && token.ends_with('"') {
        return Term::Const(Value::str(&token[1..token.len() - 1]));
    }
    if let Ok(i) = token.parse::<i64>() {
        return Term::Const(Value::Int(i));
    }
    Term::Var(Variable::new(token))
}

/// Parses a query body `R(x, "a"), S(y, x)` against a schema.
pub fn parse_query_body(
    schema: &Arc<Schema>,
    body: &str,
    free: Vec<Variable>,
    line: usize,
) -> Result<ConjunctiveQuery, ParseError> {
    // Split on commas that are not inside parentheses.
    let mut atoms_text: Vec<String> = Vec::new();
    let mut depth = 0usize;
    let mut current = String::new();
    for c in body.chars() {
        match c {
            '(' => {
                depth += 1;
                current.push(c);
            }
            ')' => {
                depth = depth.saturating_sub(1);
                current.push(c);
            }
            ',' if depth == 0 => {
                atoms_text.push(current.trim().to_string());
                current.clear();
            }
            _ => current.push(c),
        }
    }
    if !current.trim().is_empty() {
        atoms_text.push(current.trim().to_string());
    }
    let mut atoms = Vec::new();
    for text in atoms_text.iter().filter(|t| !t.is_empty()) {
        let (name, args) = split_call(line, text)?;
        let rel = schema
            .relation_id(&name)
            .ok_or_else(|| err(line, format!("unknown relation `{name}`")))?;
        let terms: Vec<Term> = args.iter().map(|a| parse_term(a)).collect();
        atoms.push(Atom::new(rel, terms));
    }
    ConjunctiveQuery::with_free_vars(schema.clone(), atoms, free)
        .map_err(|e| err(line, e.to_string()))
}

/// Parses a whole document (schema + facts + queries).
pub fn parse_document(text: &str) -> Result<Document, ParseError> {
    let mut schema = Schema::new();
    let mut fact_lines: Vec<(usize, String)> = Vec::new();
    let mut query_lines: Vec<(usize, String)> = Vec::new();

    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = match raw.find('#') {
            Some(pos) => &raw[..pos],
            None => raw,
        };
        let line = line.trim().trim_end_matches('.').trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("relation ") {
            let (name, columns) = split_call(line_no, rest)?;
            let key_len = columns.iter().take_while(|c| c.ends_with('*')).count();
            let arity = columns.len();
            if key_len == 0 || columns.iter().skip(key_len).any(|c| c.ends_with('*')) {
                return Err(err(
                    line_no,
                    "the '*'-marked key columns must form a non-empty prefix",
                ));
            }
            schema
                .add_relation(&name, arity, key_len)
                .map_err(|e| err(line_no, e.to_string()))?;
        } else if line.starts_with("certain") {
            query_lines.push((line_no, line.to_string()));
        } else {
            fact_lines.push((line_no, line.to_string()));
        }
    }

    let schema = schema.into_shared();
    let mut database = UncertainDatabase::new(schema.clone());
    for (line_no, line) in fact_lines {
        let (name, args) = split_call(line_no, &line)?;
        let rel = schema
            .relation_id(&name)
            .ok_or_else(|| err(line_no, format!("unknown relation `{name}`")))?;
        let values: Vec<Value> = args.iter().map(|a| parse_constant(a)).collect();
        let fact = cqa_data::Fact::checked(&schema, rel, values)
            .map_err(|e| err(line_no, e.to_string()))?;
        database
            .insert(fact)
            .map_err(|e| err(line_no, e.to_string()))?;
    }

    let mut queries = Vec::new();
    for (line_no, line) in query_lines {
        let rest = line.strip_prefix("certain").expect("checked above").trim();
        // The document format stays strict (a missing `:-` is a typo to
        // report); only the interactive serve stream accepts a bare body.
        if !rest.contains(":-") {
            return Err(err(line_no, "expected `certain <name>[(vars)] :- <atoms>`"));
        }
        queries.push(parse_query_line(&schema, rest, line_no)?);
    }

    Ok(Document {
        schema,
        database,
        queries,
    })
}

/// Parses one fact line `R(a, 1, "quoted")` against a schema: every
/// argument is a constant (quoted string, integer, or bare symbol). This is
/// the write half of the serve protocol (`\insert` / `\remove` /
/// `\remove-block` lines); fact lines of a document go through
/// [`parse_document`].
pub fn parse_fact_line(
    schema: &Arc<Schema>,
    line: &str,
    line_no: usize,
) -> Result<cqa_data::Fact, ParseError> {
    let (name, args) = split_call(line_no, line.trim())?;
    let rel = schema
        .relation_id(&name)
        .ok_or_else(|| err(line_no, format!("unknown relation `{name}`")))?;
    let values: Vec<Value> = args.iter().map(|a| parse_constant(a)).collect();
    cqa_data::Fact::checked(schema, rel, values).map_err(|e| err(line_no, e.to_string()))
}

/// Parses one named query line `name[(vars)] :- R(x, "a"), S(y, x)` (the
/// part after the `certain` keyword of a document, or one line of a
/// `certainty serve` stream; a bare `:- body` or even a bare `body` gets
/// the synthesized name `q<line>`). Returns the name and the parsed query.
pub fn parse_query_line(
    schema: &Arc<Schema>,
    line: &str,
    line_no: usize,
) -> Result<(String, ConjunctiveQuery), ParseError> {
    let line = line.trim();
    let (head, body) = match line.split_once(":-") {
        Some((head, body)) => (head.trim(), body),
        None => ("", line),
    };
    let (name, free) = if head.contains('(') {
        let (name, vars) = split_call(line_no, head)?;
        (
            name,
            vars.iter()
                .filter(|v| !v.is_empty())
                .map(Variable::new)
                .collect(),
        )
    } else {
        (head.to_string(), Vec::new())
    };
    let name = if name.is_empty() {
        format!("q{line_no}")
    } else {
        name
    };
    let query = parse_query_body(schema, body, free, line_no)?;
    Ok((name, query))
}

#[cfg(test)]
mod tests {
    use super::*;

    const CONFERENCE: &str = r#"
# Figure 1 of the paper
relation C(conf*, year*, city)
relation R(conf*, rank)

C(PODS, 2016, Rome)
C(PODS, 2016, Paris)
C(KDD, 2017, Rome)
R(PODS, A)
R(KDD, A)
R(KDD, B)

certain rome :- C(x, y, "Rome"), R(x, "A")
certain which(x) :- C(x, y, "Rome"), R(x, "A")
"#;

    #[test]
    fn parses_the_conference_document() {
        let doc = parse_document(CONFERENCE).unwrap();
        assert_eq!(doc.schema.len(), 2);
        assert_eq!(doc.database.fact_count(), 6);
        assert_eq!(doc.database.repair_count(), Some(4));
        assert_eq!(doc.queries.len(), 2);
        let (name, q) = &doc.queries[0];
        assert_eq!(name, "rome");
        assert!(q.is_boolean());
        assert_eq!(q.len(), 2);
        assert!(cqa_query::eval::naive::satisfies(&doc.database, q));
        let (_, q2) = &doc.queries[1];
        assert_eq!(q2.free_vars().len(), 1);
    }

    #[test]
    fn key_prefix_is_derived_from_stars() {
        let doc = parse_document("relation R(a*, b*, c)\nR(1, 2, 3)\n").unwrap();
        let r = doc.schema.relation_id("R").unwrap();
        assert_eq!(doc.schema.relation(r).key_len(), 2);
        assert_eq!(doc.schema.relation(r).arity(), 3);
        // Integer constants are parsed as integers.
        let fact = doc.database.facts().next().unwrap();
        assert_eq!(fact.value(0), &Value::Int(1));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let bad_key = parse_document("relation R(a, b*)\n");
        assert!(bad_key.is_err());
        assert_eq!(bad_key.unwrap_err().line, 1);
        let unknown = parse_document("relation R(a*)\nS(1)\n").unwrap_err();
        assert_eq!(unknown.line, 2);
        assert!(unknown.to_string().contains('S'));
        let arity = parse_document("relation R(a*)\nR(1, 2)\n").unwrap_err();
        assert_eq!(arity.line, 2);
        let bad_query = parse_document("relation R(a*)\ncertain q :- T(x)\n").unwrap_err();
        assert!(bad_query.to_string().contains('T'));
    }

    #[test]
    fn quoted_strings_and_variables_are_distinguished() {
        let doc = parse_document("relation R(a*, b)\nR(x, y)\ncertain q :- R(x, \"y\")\n").unwrap();
        // In the fact, bare `x` and `y` are constants.
        assert_eq!(doc.database.fact_count(), 1);
        let (_, q) = &doc.queries[0];
        // In the query, x is a variable and "y" a constant.
        assert_eq!(q.vars().len(), 1);
        assert!(cqa_query::eval::naive::satisfies(&doc.database, q));
    }

    #[test]
    fn query_lines_parse_standalone() {
        // The `certainty serve` stream format: one query per line, with or
        // without a head.
        let doc = parse_document(CONFERENCE).unwrap();
        let (name, q) = parse_query_line(&doc.schema, "rome :- C(x, y, \"Rome\")", 1).unwrap();
        assert_eq!(name, "rome");
        assert!(q.is_boolean());
        let (name, q) = parse_query_line(&doc.schema, "which(x) :- R(x, \"A\")", 2).unwrap();
        assert_eq!(name, "which");
        assert_eq!(q.free_vars().len(), 1);
        // A bare body gets a synthesized name.
        let (name, q) = parse_query_line(&doc.schema, "C(x, y, \"Rome\")", 7).unwrap();
        assert_eq!(name, "q7");
        assert_eq!(q.len(), 1);
        assert!(parse_query_line(&doc.schema, "q :- T(x)", 3).is_err());
        // The bare-body leniency is serve-only: the document format still
        // rejects a `certain` line without `:-`.
        let strict = parse_document("relation R(a*)\ncertain R(x)\n").unwrap_err();
        assert_eq!(strict.line, 2);
        assert!(strict.to_string().contains(":-"));
    }

    #[test]
    fn fact_lines_parse_standalone() {
        // The serve protocol's write format: one fact per line.
        let doc = parse_document(CONFERENCE).unwrap();
        let fact = parse_fact_line(&doc.schema, "R(PODS, A)", 1).unwrap();
        assert!(doc.database.contains(&fact));
        let fresh = parse_fact_line(&doc.schema, "C(ICDT, 2015, \"Brussels\")", 2).unwrap();
        assert!(!doc.database.contains(&fresh));
        assert_eq!(fresh.values()[1], Value::Int(2015));
        assert!(parse_fact_line(&doc.schema, "T(a)", 3).is_err());
        assert!(parse_fact_line(&doc.schema, "R(PODS)", 4).is_err());
        assert!(parse_fact_line(&doc.schema, "no parens", 5).is_err());
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let doc =
            parse_document("# nothing\n\n   \nrelation R(a*)\n# more\nR(1) # inline\n").unwrap();
        assert_eq!(doc.database.fact_count(), 1);
    }
}

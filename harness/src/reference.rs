//! The single-threaded in-process reference every server response is held
//! against, and the mirror database that replays acknowledged writes.
//!
//! A response line is compared **whole**: the reference answers through
//! `BatchEngine::answer` (Boolean: the classified solvers; open:
//! `certain_answers`) and renders through the server's own
//! `protocol::render_result`, so byte-equality compares evaluation, not
//! formatting.

use cqa_data::{ChangeSet, Delta, Fact, Schema, UncertainDatabase};
use cqa_par::{BatchEngine, ParPool};
use cqa_serve::protocol::{parse_request, render_result};
use cqa_serve::{Request, WriteOp};
use std::sync::Arc;

/// Answers request lines in-process against one frozen database.
pub struct Reference {
    schema: Arc<Schema>,
    engine: BatchEngine,
}

impl Reference {
    pub fn new(db: &UncertainDatabase) -> Reference {
        Reference {
            schema: db.schema().clone(),
            engine: BatchEngine::new(db.snapshot(), ParPool::new(1)),
        }
    }

    /// The response line the server must produce for the query `line`.
    pub fn answer(&self, line: &str) -> Result<String, String> {
        match parse_request(&self.schema, line, 1)? {
            Some(Request::Query { name, query }) => {
                Ok(render_result(&self.engine.answer(&name, &query)))
            }
            _ => Err(format!("`{line}` is not a query")),
        }
    }
}

/// Parses a write request line into its [`WriteOp`].
pub fn parse_write(schema: &Arc<Schema>, line: &str) -> Result<WriteOp, String> {
    match parse_request(schema, line, 1)? {
        Some(Request::Write(op)) => Ok(op),
        _ => Err(format!("`{line}` is not a write")),
    }
}

/// Applies `op` to `db` exactly as the server's write path does, recording
/// the deltas the view maintainer consumes (including the per-fact removals
/// of a whole-block removal). Returns whether the write was effective.
pub fn apply_write(
    db: &mut UncertainDatabase,
    op: &WriteOp,
    changes: &mut ChangeSet,
) -> Result<bool, String> {
    Ok(match op {
        WriteOp::Insert(fact) => {
            let inserted = db.insert(fact.clone()).map_err(|e| e.to_string())?;
            if inserted {
                changes.record(Delta::Inserted(fact.clone()));
            }
            inserted
        }
        WriteOp::RemoveFact(fact) => {
            let emptied = db.block_of(fact).is_some_and(cqa_data::Block::is_singleton);
            let removed = db.remove_fact(fact);
            if removed {
                changes.record(Delta::Removed {
                    fact: fact.clone(),
                    emptied_block: emptied,
                });
            }
            removed
        }
        WriteOp::RemoveBlock(fact) => {
            let schema = db.schema().clone();
            let members: Vec<Fact> = db
                .block_with_key(fact.relation(), fact.key(&schema))
                .map(|block| block.facts().to_vec())
                .unwrap_or_default();
            let removed = db.remove_block_of(fact);
            if removed {
                let last = members.len();
                for (i, member) in members.into_iter().enumerate() {
                    changes.record(Delta::Removed {
                        fact: member,
                        emptied_block: i + 1 == last,
                    });
                }
            }
            removed
        }
    })
}

/// Replays acknowledged write lines onto `db`; every one must be effective.
pub fn replay_writes(db: &mut UncertainDatabase, lines: &[String]) -> Result<(), String> {
    let schema = db.schema().clone();
    let mut changes = ChangeSet::new();
    for line in lines {
        let op = parse_write(&schema, line)?;
        if !apply_write(db, &op, &mut changes)? {
            return Err(format!("mirror: acknowledged write `{line}` was a no-op"));
        }
        changes.clear();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{path3, WriteStream, POINT_TEMPLATES, VIEWS};
    use crate::rng::Rng;

    #[test]
    fn reference_lines_look_like_protocol_responses() {
        let instance = path3(200, &mut Rng::new(1));
        let reference = Reference::new(&instance.db);
        let boolean = reference.answer(&POINT_TEMPLATES[0].render(3)).unwrap();
        assert!(
            boolean.starts_with("p: ") && boolean.contains("solver: rewriting"),
            "{boolean}"
        );
        let open = reference.answer(VIEWS[1].1).unwrap();
        assert!(
            open.starts_with("v2: ") && open.contains(" possible"),
            "{open}"
        );
        assert!(reference.answer("\\epoch").is_err());
    }

    #[test]
    fn the_mirror_tracks_the_write_stream() {
        let instance = path3(200, &mut Rng::new(1));
        let mut mirror = instance.db.clone();
        let mut stream = WriteStream::new(&instance, Rng::new(2));
        let lines: Vec<String> = (0..100).map(|_| stream.next_line()).collect();
        replay_writes(&mut mirror, &lines).unwrap();
        assert_eq!(mirror.epoch(), instance.db.epoch() + 100);
        // A write that changes nothing is one the server cannot have
        // acknowledged as effective: the mirror must flag it.
        let absent = ["\\remove R(nokey, nothing)".to_string()];
        assert!(replay_writes(&mut mirror, &absent).is_err());
    }
}

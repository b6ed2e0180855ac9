//! Persistence tests against the committed on-disk fixture.
//!
//! `tests/fixtures/figure1.cqdb` is the Figure 1 database of the paper,
//! written once by `certainty save tests/fixtures/figure1.cqa
//! tests/fixtures/figure1.cqdb` and committed. Loading it pins the store
//! format: any encoding change that cannot read (or byte-identically
//! re-write) old files fails here, which is the signal to bump the format
//! version instead of silently breaking saved databases.

use cqa::core::answers::{certain_answers, CertainAnswersEngine};
use cqa::core::solvers::{CertaintyEngine, CertaintySolver};
use cqa::gen::{GeneratorConfig, UncertainDbGenerator};
use cqa::parser::parse_document;
use cqa::query::{catalog, ConjunctiveQuery, Variable};
use cqa_data::store;

/// The committed store file and the text document it was written from.
const FIXTURE: &[u8] = include_bytes!("fixtures/figure1.cqdb");
const DOCUMENT: &str = include_str!("fixtures/figure1.cqa");

#[test]
fn committed_fixture_loads_with_full_fidelity() {
    let loaded = store::load_from_slice(FIXTURE).expect("the committed fixture loads");
    let doc = parse_document(DOCUMENT).unwrap();

    // Schema manifest: names, arities and key lengths survive.
    assert_eq!(loaded.schema().len(), doc.database.schema().len());
    for ((_, a), (_, b)) in loaded.schema().iter().zip(doc.database.schema().iter()) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.signature, b.signature);
    }

    // Facts and block structure survive (Figure 1: 6 facts in 4 blocks,
    // 4 repairs).
    assert_eq!(loaded.fact_count(), 6);
    assert_eq!(loaded.block_count(), 4);
    assert_eq!(loaded.repair_count(), Some(4));
    assert_eq!(loaded.sorted_facts(), doc.database.sorted_facts());
}

#[test]
fn committed_fixture_is_byte_identical_to_a_fresh_save() {
    // The strongest format pin: loading the committed file and saving it
    // again must reproduce the committed bytes exactly.
    let loaded = store::load_from_slice(FIXTURE).expect("the committed fixture loads");
    assert_eq!(
        store::save_to_vec(&loaded),
        FIXTURE,
        "the store encoding changed; bump the format version"
    );
    // And the same bytes come out of encoding the parsed document directly.
    let doc = parse_document(DOCUMENT).unwrap();
    assert_eq!(store::save_to_vec(&doc.database), FIXTURE);
}

#[test]
fn committed_fixture_answers_like_the_parsed_document() {
    let loaded = store::load_from_slice(FIXTURE).expect("the committed fixture loads");
    let doc = parse_document(DOCUMENT).unwrap();
    for (name, query) in &doc.queries {
        let reference = certain_answers(query, &doc.database).unwrap();
        assert_eq!(
            certain_answers(query, &loaded).unwrap(),
            reference,
            "{name} diverged after reload"
        );
        let engine = CertainAnswersEngine::new(query).unwrap();
        let candidates = cqa::core::answers::possible_answers(query, &loaded).unwrap();
        assert_eq!(
            engine.certain_of(&loaded, &candidates).unwrap(),
            engine.certain_of(&doc.database, &candidates).unwrap(),
            "{name} diverged after reload"
        );
    }
}

#[test]
fn corruption_is_rejected_before_parsing() {
    // Truncation.
    assert!(store::load_from_slice(&FIXTURE[..FIXTURE.len() - 1]).is_err());
    assert!(store::load_from_slice(&FIXTURE[..4]).is_err());
    assert!(store::load_from_slice(&[]).is_err());
    // A single flipped payload byte must trip the checksum.
    let mut corrupt = FIXTURE.to_vec();
    corrupt[FIXTURE.len() / 2] ^= 0x01;
    assert!(store::load_from_slice(&corrupt).is_err());
    // Wrong leading magic.
    let mut wrong_magic = FIXTURE.to_vec();
    wrong_magic[0] = b'X';
    assert!(store::load_from_slice(&wrong_magic).is_err());
}

#[test]
fn generated_instance_round_trips_byte_stably() {
    // Large enough that every column spans more than one 4096-code chunk,
    // which the six-fact fixture never reaches.
    let boolean = catalog::fo_path3().query;
    let db = UncertainDbGenerator::new(
        &boolean,
        GeneratorConfig {
            seed: 17,
            matches: 2200,
            domain_per_variable: 1100,
            extra_block_facts: 1,
            alternative_join_probability: 0.5,
        },
    )
    .generate();
    let per_relation = db.fact_count() / db.schema().len();
    assert!(per_relation > 4096, "{per_relation} facts per relation");

    let bytes = store::save_to_vec(&db);
    let loaded = store::load_from_slice(&bytes).expect("a fresh save loads");
    assert_eq!(
        store::save_to_vec(&loaded),
        bytes,
        "save ∘ load ∘ save moved bytes"
    );
    assert_eq!(loaded.sorted_facts(), db.sorted_facts());

    // And the reloaded database answers like the original.
    let engine = CertaintyEngine::new(&boolean).unwrap();
    assert_eq!(engine.is_certain(&loaded), engine.is_certain(&db));
    let open = ConjunctiveQuery::with_free_vars(
        boolean.schema().clone(),
        boolean.atoms().to_vec(),
        vec![Variable::new("x")],
    )
    .unwrap();
    assert_eq!(
        certain_answers(&open, &loaded).unwrap(),
        certain_answers(&open, &db).unwrap()
    );
}

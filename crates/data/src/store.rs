//! Durable storage: a chunked, dictionary-encoded on-disk format for
//! [`UncertainDatabase`] instances.
//!
//! The format is the in-memory [`Columnar`] view made canonical: all values
//! are collected into one **sorted** dictionary and every fact position
//! becomes a column of dense `u32` codes — ranks in that dictionary —
//! written in fixed-size chunks. (In memory codes carry no order and are
//! recycled; [`save`] renumbers them, so equal contents in equal row order
//! give equal bytes whatever history produced them.) A database therefore
//! serializes as
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────────┐
//! │ "CQDB"  magic                                                    │
//! │ u32     format version (1)                                       │
//! │ schema manifest: u32 count, then per relation                    │
//! │   u32 name-len + UTF-8 name, u32 arity, u32 key_len              │
//! │ dictionary: u64 count, then tagged values                        │
//! │   0x00 str   (u32 len + UTF-8 bytes)                             │
//! │   0x01 int   (i64)                                               │
//! │   0x02 tuple (u32 len + recursive values)                        │
//! │ per relation: u64 row count, then per position                   │
//! │   code chunks: u32 chunk-len + chunk-len × u32 codes             │
//! │   (chunks of ≤ 4096 codes until the row count is covered)        │
//! │ u64     total fact count                                         │
//! │ u64     FNV-1a-64 checksum over every preceding byte             │
//! │ "CQDE"  end magic                                                │
//! └──────────────────────────────────────────────────────────────────┘
//! ```
//!
//! All integers are little-endian. Rows are written **block by block** —
//! the relation's blocks in their stored order, each block's facts in
//! theirs — so key-equal facts, which every block quantifier reads together,
//! sit in neighbouring rows of a loaded database however scattered their
//! insertions were. [`load`] hands the decoded dictionary and code columns
//! to the store as they are — row for row, the columnar view warm — which
//! makes `save ∘ load` byte-stable: saving a just-loaded database reproduces
//! the input file exactly (the property the format-pinning fixture test
//! relies on).
//!
//! [`Columnar`]: crate::Columnar

use crate::columnar::{value_hash, Columnar, Dictionary};
use crate::cow::{CowMap, DeepVec};
use crate::index::{key_hash, DatabaseIndex, RelationData};
use crate::{Block, DataError, Fact, FxHashMap, RelationId, Schema, UncertainDatabase, Value};
use std::collections::hash_map::Entry;
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// Leading magic bytes of the format.
const MAGIC: &[u8; 4] = b"CQDB";
/// Trailing magic bytes (after the checksum).
const END_MAGIC: &[u8; 4] = b"CQDE";
/// Current format version.
const VERSION: u32 = 1;
/// Maximum number of codes per column chunk.
const CHUNK: usize = 4096;

/// Value-encoding tags.
const TAG_STR: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_TUPLE: u8 = 2;

/// Errors produced by [`save`] and [`load`].
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem error.
    Io(std::io::Error),
    /// The bytes do not form a valid store file (truncation, bad magic,
    /// checksum mismatch, malformed payload...).
    Format(String),
    /// The file uses a format version this build does not understand.
    Version(u32),
    /// The decoded contents violate the data model (e.g. a manifest with an
    /// invalid signature).
    Data(DataError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::Format(what) => write!(f, "malformed store file: {what}"),
            StoreError::Version(found) => {
                write!(
                    f,
                    "unsupported store format version {found} (expected {VERSION})"
                )
            }
            StoreError::Data(e) => write!(f, "store contents invalid: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Data(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<DataError> for StoreError {
    fn from(e: DataError) -> Self {
        StoreError::Data(e)
    }
}

/// What a [`save`] wrote (or a [`load`] read): sizes for reporting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreSummary {
    /// Number of relations in the schema manifest.
    pub relations: usize,
    /// Total number of facts.
    pub facts: usize,
    /// Number of distinct dictionary values.
    pub dictionary: usize,
    /// Size of the encoded file in bytes.
    pub bytes: u64,
}

impl fmt::Display for StoreSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} facts, {} relations, {} dictionary values, {} bytes",
            self.facts, self.relations, self.dictionary, self.bytes
        )
    }
}

// ---- FNV-1a-64 ---------------------------------------------------------

/// The 64-bit FNV-1a hash of `bytes` — small, dependency-free, and plenty to
/// detect truncation and bit rot (this is an integrity check, not a
/// cryptographic seal).
fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

// ---- encoding ----------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_value(out: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Str(s) => {
            out.push(TAG_STR);
            put_str(out, s);
        }
        Value::Int(i) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Tuple(items) => {
            out.push(TAG_TUPLE);
            put_u32(out, items.len() as u32);
            for item in items.iter() {
                put_value(out, item);
            }
        }
    }
}

/// Serializes `db` into the store format, in memory.
pub fn save_to_vec(db: &UncertainDatabase) -> Vec<u8> {
    let index = db.index();
    let columnar = index.columnar();
    let dictionary = index.active_domain();
    // In-memory code → rank in the sorted dictionary.
    let mut rank = vec![0u32; columnar.dictionary().slot_count()];
    for (position, value) in dictionary.iter().enumerate() {
        let code = columnar
            .dictionary()
            .code_of(value)
            .expect("every active-domain value is coded");
        rank[code as usize] = position as u32;
    }

    let mut out = Vec::with_capacity(64 + db.fact_count() * 16);
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, VERSION);

    // Schema manifest.
    let schema = db.schema();
    put_u32(&mut out, schema.len() as u32);
    for (_, relation) in schema.iter() {
        put_str(&mut out, &relation.name);
        put_u32(&mut out, relation.arity() as u32);
        put_u32(&mut out, relation.key_len() as u32);
    }

    // Dictionary.
    put_u64(&mut out, dictionary.len() as u64);
    for value in dictionary.iter() {
        put_value(&mut out, value);
    }

    // Per-relation chunked code columns, rows block by block.
    for (rel, relation) in schema.iter() {
        let columns = columnar.relation(rel);
        let rows: Vec<u32> = (index.relation_blocks(rel))
            .flat_map(|block| block.rows().iter().copied())
            .collect();
        put_u64(&mut out, rows.len() as u64);
        for pos in 0..relation.arity() {
            for chunk in rows.chunks(CHUNK) {
                put_u32(&mut out, chunk.len() as u32);
                for &row in chunk {
                    put_u32(&mut out, rank[columns.code(pos, row as usize) as usize]);
                }
            }
        }
    }

    put_u64(&mut out, db.fact_count() as u64);
    let checksum = fnv1a64(&out);
    put_u64(&mut out, checksum);
    out.extend_from_slice(END_MAGIC);
    out
}

/// Saves `db` to `path` in the store format, returning what was written.
pub fn save(db: &UncertainDatabase, path: impl AsRef<Path>) -> Result<StoreSummary, StoreError> {
    let started = std::time::Instant::now();
    let bytes = save_to_vec(db);
    std::fs::write(path, &bytes)?;
    cqa_obs::observe_duration!("store.save_nanos", started.elapsed());
    Ok(StoreSummary {
        relations: db.schema().len(),
        facts: db.fact_count(),
        dictionary: db.index().columnar().dictionary().len(),
        bytes: bytes.len() as u64,
    })
}

// ---- decoding ----------------------------------------------------------

/// A bounds-checked little-endian reader over the file bytes.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// Bytes not yet consumed: an upper bound for any count read from them.
    fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| {
                StoreError::Format(format!("unexpected end of file at byte {}", self.at))
            })?;
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn i64(&mut self) -> Result<i64, StoreError> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn str(&mut self) -> Result<&'a str, StoreError> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?)
            .map_err(|_| StoreError::Format("string payload is not UTF-8".into()))
    }

    fn value(&mut self, depth: usize) -> Result<Value, StoreError> {
        if depth > 16 {
            return Err(StoreError::Format("tuple nesting deeper than 16".into()));
        }
        match self.u8()? {
            TAG_STR => Ok(Value::str(self.str()?)),
            TAG_INT => Ok(Value::Int(self.i64()?)),
            TAG_TUPLE => {
                let len = self.u32()? as usize;
                if len > 1 << 20 {
                    return Err(StoreError::Format("implausible tuple length".into()));
                }
                let mut items = Vec::with_capacity(len);
                for _ in 0..len {
                    items.push(self.value(depth + 1)?);
                }
                Ok(Value::tuple(items))
            }
            tag => Err(StoreError::Format(format!("unknown value tag {tag:#04x}"))),
        }
    }
}

/// Deserializes a database from store-format bytes.
pub fn load_from_slice(bytes: &[u8]) -> Result<UncertainDatabase, StoreError> {
    // Footer first: trailing magic, then the checksum over everything that
    // precedes it — so corruption anywhere in the payload is caught before
    // any payload parsing can trip over it.
    if bytes.len() < MAGIC.len() + END_MAGIC.len() + 8 {
        return Err(StoreError::Format("file too short".into()));
    }
    let (payload_and_sum, end_magic) = bytes.split_at(bytes.len() - END_MAGIC.len());
    if end_magic != END_MAGIC {
        return Err(StoreError::Format(
            "missing end magic (truncated file?)".into(),
        ));
    }
    let (payload, sum_bytes) = payload_and_sum.split_at(payload_and_sum.len() - 8);
    let stored = u64::from_le_bytes(sum_bytes.try_into().expect("8 bytes"));
    let actual = fnv1a64(payload);
    if stored != actual {
        return Err(StoreError::Format(format!(
            "checksum mismatch (stored {stored:#018x}, computed {actual:#018x})"
        )));
    }

    let mut r = Reader {
        bytes: payload,
        at: 0,
    };
    if r.take(MAGIC.len())? != MAGIC {
        return Err(StoreError::Format("bad magic (not a store file)".into()));
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(StoreError::Version(version));
    }

    // Schema manifest.
    let relation_count = r.u32()? as usize;
    let mut schema = Schema::new();
    let mut arities = Vec::with_capacity(relation_count);
    for _ in 0..relation_count {
        let name = r.str()?.to_owned();
        let arity = r.u32()? as usize;
        let key_len = r.u32()? as usize;
        schema.add_relation(name, arity, key_len)?;
        arities.push(arity);
    }
    let schema = schema.into_shared();

    // Dictionary: sorted and distinct, as `save` writes it — so a code is a
    // value, and the decoded columns can be kept as they are.
    let dict_len = r.u64()? as usize;
    let mut dictionary: Vec<Value> = Vec::with_capacity(dict_len.min(r.remaining()));
    for _ in 0..dict_len {
        let value = r.value(0)?;
        if dictionary.last().is_some_and(|previous| *previous >= value) {
            return Err(StoreError::Format(format!(
                "dictionary value #{} is out of order",
                dictionary.len()
            )));
        }
        dictionary.push(value);
    }
    let hashes: Vec<u64> = dictionary.iter().map(value_hash).collect();
    let mut counts = vec![0u32; dictionary.len()];

    // Per-relation columns → rows, blocks and key map, in row order.
    let mut relations = Vec::with_capacity(arities.len());
    let mut coded = Vec::with_capacity(arities.len());
    let mut total_expected: u64 = 0;
    for (rel_index, &arity) in arities.iter().enumerate() {
        let rows = r.u64()? as usize;
        total_expected += rows as u64;
        let mut columns: Vec<Vec<u32>> = Vec::with_capacity(arity);
        for _ in 0..arity {
            let mut column = Vec::with_capacity(rows.min(r.remaining() / 4));
            while column.len() < rows {
                let chunk_len = r.u32()? as usize;
                if chunk_len == 0 || column.len() + chunk_len > rows {
                    return Err(StoreError::Format(format!(
                        "bad chunk length {chunk_len} in relation #{rel_index}"
                    )));
                }
                for code in r.take(chunk_len * 4)?.chunks_exact(4) {
                    let code = u32::from_le_bytes(code.try_into().expect("4 bytes"));
                    *counts.get_mut(code as usize).ok_or_else(|| {
                        StoreError::Format(format!("code {code} outside the dictionary"))
                    })? += 1;
                    column.push(code);
                }
            }
            columns.push(column);
        }
        let relation = RelationId::from_index(rel_index);
        let key_len = schema.relation(relation).key_len();
        relations.push(Arc::new(relation_from_columns(
            relation,
            key_len,
            &columns,
            rows,
            &dictionary,
            &hashes,
        )?));
        coded.push(Columnar::relation_from(&columns));
    }
    // A dictionary with no dead entry is the sorted active domain.
    let active_domain = counts
        .iter()
        .all(|&count| count > 0)
        .then(|| dictionary.as_slice().into());
    let columnar = Columnar {
        dictionary: Arc::new(Dictionary::from_values(dictionary, &counts)),
        relations: coded,
    };
    let db = UncertainDatabase::from_store(DatabaseIndex::from_parts(
        schema,
        relations,
        columnar,
        active_domain,
    ));
    let recorded_total = r.u64()?;
    if recorded_total != total_expected {
        return Err(StoreError::Format(format!(
            "fact-count mismatch (recorded {recorded_total}, decoded {total_expected})"
        )));
    }
    if r.at != payload.len() {
        return Err(StoreError::Format(format!(
            "{} trailing bytes after the payload",
            payload.len() - r.at
        )));
    }
    Ok(db)
}

/// Rebuilds the rows, blocks and key map of one relation from its decoded
/// code columns. Codes index a dictionary of distinct values, so facts are
/// equal iff their codes are.
fn relation_from_columns(
    relation: RelationId,
    key_len: usize,
    columns: &[Vec<u32>],
    rows: usize,
    dictionary: &[Value],
    hashes: &[u64],
) -> Result<RelationData, StoreError> {
    let (key_columns, other_columns) = columns.split_at(key_len);
    let same = |columns: &[Vec<u32>], a: usize, b: usize| columns.iter().all(|c| c[a] == c[b]);
    let mut facts = Vec::with_capacity(rows);
    let mut blocks: Vec<Block> = Vec::new();
    let mut first_rows: Vec<usize> = Vec::new();
    // Key hash → block, open-addressed on the (rare) hash collision.
    let mut block_at: FxHashMap<u64, usize> = FxHashMap::default();
    let mut keys = Vec::new();
    for row in 0..rows {
        let fact = Fact::from_shared(
            relation,
            columns
                .iter()
                .map(|c| dictionary[c[row] as usize].clone())
                .collect(),
        );
        let hash = key_hash(key_columns.iter().map(|c| hashes[c[row] as usize]));
        let mut slot = hash;
        loop {
            match block_at.entry(slot) {
                Entry::Vacant(vacant) => {
                    vacant.insert(blocks.len());
                    keys.push((hash, blocks.len() as u32));
                    first_rows.push(row);
                    blocks.push(Block::new(key_len, hash, fact.clone(), row as u32));
                    break;
                }
                Entry::Occupied(occupied)
                    if same(key_columns, first_rows[*occupied.get()], row) =>
                {
                    let block = &mut blocks[*occupied.get()];
                    if (block.rows().iter()).any(|&other| same(other_columns, other as usize, row))
                    {
                        return Err(StoreError::Format(format!(
                            "duplicate row {row} in relation #{}",
                            relation.index()
                        )));
                    }
                    block.push(fact.clone(), row as u32);
                    break;
                }
                Entry::Occupied(_) => slot = slot.wrapping_add(1),
            }
        }
        facts.push(fact);
    }
    Ok(RelationData {
        facts: DeepVec::from_vec(facts),
        blocks: DeepVec::from_vec(blocks.into_iter().map(Arc::new).collect()),
        keys: CowMap::from_entries(keys),
    })
}

/// Loads a database previously written by [`save`].
pub fn load(path: impl AsRef<Path>) -> Result<UncertainDatabase, StoreError> {
    let started = std::time::Instant::now();
    let bytes = std::fs::read(path)?;
    let db = load_from_slice(&bytes)?;
    cqa_obs::observe_duration!("store.load_nanos", started.elapsed());
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure1() -> UncertainDatabase {
        let schema = Schema::from_relations([("C", 3, 2), ("R", 2, 1)])
            .unwrap()
            .into_shared();
        let mut db = UncertainDatabase::new(schema);
        db.insert_values("C", ["PODS", "2016", "Rome"]).unwrap();
        db.insert_values("C", ["PODS", "2016", "Paris"]).unwrap();
        db.insert_values("C", ["KDD", "2017", "Rome"]).unwrap();
        db.insert_values("R", ["PODS", "A"]).unwrap();
        db.insert_values("R", ["KDD", "A"]).unwrap();
        db.insert_values("R", ["KDD", "B"]).unwrap();
        db
    }

    #[test]
    fn round_trip_preserves_contents_and_blocks() {
        let db = figure1();
        let bytes = save_to_vec(&db);
        let loaded = load_from_slice(&bytes).unwrap();
        assert_eq!(loaded, db);
        assert_eq!(loaded.block_count(), db.block_count());
        assert_eq!(loaded.schema().len(), 2);
        assert_eq!(
            loaded
                .schema()
                .relation(loaded.schema().relation_id("C").unwrap())
                .key_len(),
            2
        );
    }

    #[test]
    fn save_of_a_loaded_database_is_byte_stable() {
        let db = figure1();
        let first = save_to_vec(&db);
        let second = save_to_vec(&load_from_slice(&first).unwrap());
        assert_eq!(first, second);
    }

    #[test]
    fn mixed_value_kinds_survive() {
        let schema = Schema::from_relations([("R", 2, 1)]).unwrap().into_shared();
        let mut db = UncertainDatabase::new(schema);
        db.insert_values("R", [Value::int(-7), Value::str("x")])
            .unwrap();
        db.insert_values(
            "R",
            [Value::pair(Value::int(1), Value::str("y")), Value::int(0)],
        )
        .unwrap();
        let loaded = load_from_slice(&save_to_vec(&db)).unwrap();
        assert_eq!(loaded, db);
    }

    #[test]
    fn corruption_is_detected() {
        let db = figure1();
        let good = save_to_vec(&db);
        // Flip one payload byte: the checksum catches it.
        let mut bad = good.clone();
        bad[good.len() / 2] ^= 0x40;
        assert!(matches!(
            load_from_slice(&bad),
            Err(StoreError::Format(msg)) if msg.contains("checksum")
        ));
        // Truncation is caught before the checksum is even compared.
        assert!(load_from_slice(&good[..good.len() - 3]).is_err());
        // Bad version.
        let mut versioned = good.clone();
        versioned[4] = 99;
        let err = load_from_slice(&versioned).unwrap_err();
        // (The checksum catches the edit first; a legitimately re-signed
        // future-version file would hit `StoreError::Version`.)
        assert!(err.to_string().contains("checksum") || err.to_string().contains("version"));
        // Wrong leading magic.
        let mut magicless = good;
        magicless[0] = b'X';
        assert!(load_from_slice(&magicless).is_err());
    }

    #[test]
    fn files_round_trip_on_disk() {
        let db = figure1();
        let dir = std::env::temp_dir().join(format!("cqa-store-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("figure1.cqdb");
        let summary = save(&db, &path).unwrap();
        assert_eq!(summary.facts, 6);
        assert_eq!(summary.relations, 2);
        assert!(summary.bytes > 0);
        let loaded = load(&path).unwrap();
        assert_eq!(loaded, db);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn large_relations_span_multiple_chunks() {
        let schema = Schema::from_relations([("R", 2, 1)]).unwrap().into_shared();
        let mut db = UncertainDatabase::new(schema);
        for i in 0..(super::CHUNK as i64 + 100) {
            db.insert_values("R", [Value::int(i), Value::int(i % 17)])
                .unwrap();
        }
        let loaded = load_from_slice(&save_to_vec(&db)).unwrap();
        assert_eq!(loaded, db);
        assert_eq!(loaded.fact_count(), super::CHUNK + 100);
    }
}

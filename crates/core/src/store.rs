//! The persistent dataset store — encode a matching world once, open
//! it in milliseconds, match out of the stored columns.
//!
//! A dataset lives in a directory (`<name>.eids/`) of section files
//! (see [`eid_relational::store`] for the framing):
//!
//! | file           | section    | contents                                   |
//! |----------------|------------|--------------------------------------------|
//! | `manifest.eid` | `MANIFEST` | name, key, strategy, rules text, row counts |
//! | `interner.eid` | `INTERNER` | the serialized value interner              |
//! | `r.eid`/`s.eid`| `COLUMNS`  | original relations: schema + symbol columns |
//! | `rx.eid`/`sx.eid`| `COLUMNS`| extended relations (post-ILFD derivation)  |
//! | `stats.eid`    | `STATS`    | per-column distinct/null statistics        |
//! | `index.eid`    | `INDEX`    | optional blocking postings (extended key)  |
//!
//! [`Dataset`] is the pipeline's input abstraction with two backends:
//! [`Dataset::encode`] (in-memory: extend, derive, intern, stat — the
//! classic CSV path) and [`Dataset::open`] (persistent: one bounded
//! pass over the section files, **no re-derivation, no re-interning,
//! no stats recomputation**). A matcher built from either backend
//! classifies identically; the planner additionally reports the stats
//! provenance (`stats: persisted` vs `stats: computed`).
//!
//! Open is a *milliseconds*-scale operation: every section's header
//! and checksum is verified eagerly (byte corruption always fails at
//! open), along with the manifest cross-checks and symbol-column
//! bounds — but the allocation-heavy materializations (interner
//! values, tuple reconstruction, postings lists) are deferred to
//! first access behind fallible accessors, where a semantically
//! inconsistent section still surfaces as a typed
//! [`CoreError::Store`]. [`Dataset::validate`] forces everything for
//! callers that want eager verification.
//!
//! Writing honours the spill-dir conventions from the out-of-core
//! work: sections land in `<name>.eids.tmp` under a
//! [`SpillDirGuard`], and only a fully-written directory is renamed
//! into place — a failed encode never leaks a half-written `.eids/`.
//!
//! Fault sites `store/open`, `store/read`, and `store/write` inject
//! deterministic failures in debug builds (the `eid-fault` plan
//! grammar), and every corruption mode surfaces as
//! [`CoreError::Store`].

use std::fs;
use std::path::Path;
use std::sync::{Arc, OnceLock};

use eid_ilfd::{DeriveReport, DeriveStats, IlfdSet, Strategy};
use eid_relational::store::{
    self as rstore, attr_names, read_section, section, PayloadReader, PayloadWriter, StoreError,
    StoreResult,
};
use eid_relational::Schema;
use eid_relational::{ColumnStat, Columns, Interner, Relation, Sym};
use eid_rules::parser::{ilfds_to_source, parse_rules};
use eid_rules::ExtendedKey;

use crate::error::{CoreError, Result};
use crate::extend::{extend_relation, Extended};
use crate::matcher::MatchConfig;
use crate::sink::SpillDirGuard;

/// Conventional extension of a dataset directory.
pub const DATASET_EXT: &str = "eids";

/// Manifest section file.
pub const MANIFEST_FILE: &str = "manifest.eid";
/// Interner section file.
pub const INTERNER_FILE: &str = "interner.eid";
/// Original `R` columns file.
pub const COLS_R_FILE: &str = "r.eid";
/// Original `S` columns file.
pub const COLS_S_FILE: &str = "s.eid";
/// Extended `R′` columns file.
pub const COLS_RX_FILE: &str = "rx.eid";
/// Extended `S′` columns file.
pub const COLS_SX_FILE: &str = "sx.eid";
/// Column-statistics file.
pub const STATS_FILE: &str = "stats.eid";
/// Optional blocking-index file.
pub const INDEX_FILE: &str = "index.eid";

/// Every required section file with its expected kind, in open order
/// (the corruption test matrix iterates this).
pub const REQUIRED_FILES: [(&str, u32); 7] = [
    (MANIFEST_FILE, section::MANIFEST),
    (INTERNER_FILE, section::INTERNER),
    (COLS_R_FILE, section::COLUMNS),
    (COLS_S_FILE, section::COLUMNS),
    (COLS_RX_FILE, section::COLUMNS),
    (COLS_SX_FILE, section::COLUMNS),
    (STATS_FILE, section::STATS),
];

fn store_err(path: impl std::fmt::Display, reason: impl Into<String>) -> CoreError {
    CoreError::Store {
        path: path.to_string(),
        reason: reason.into(),
    }
}

/// Reads one section file, with the `store/read` fault site armed in
/// debug builds.
fn read(path: &Path, kind: u32) -> Result<PayloadReader> {
    if eid_fault::hit("store/read") {
        return Err(store_err(path.display(), "injected fault: store/read"));
    }
    Ok(read_section(path, kind)?)
}

/// Writes one section file, with the `store/write` fault site armed
/// in debug builds.
fn write(path: &Path, kind: u32, payload: &[u8]) -> Result<()> {
    if eid_fault::hit("store/write") {
        return Err(store_err(path.display(), "injected fault: store/write"));
    }
    rstore::write_section(path, kind, payload)?;
    Ok(())
}

/// One side's serialized blocking postings: `(column position,
/// symbol → ascending rows)` per extended-key column.
pub type SidePostings = Vec<(usize, Vec<(Sym, Vec<u32>)>)>;

/// Optional pre-built blocking postings for both extended relations —
/// written at encode time so an index-aware fast path never has to
/// re-bucket (the current executor still builds its own `SymIndex`es;
/// the section exists so adopting them is a read, not a format
/// change).
#[derive(Debug, Clone, Default)]
pub struct BlockIndex {
    /// Postings over `R′`'s extended-key columns.
    pub r: SidePostings,
    /// Postings over `S′`'s extended-key columns.
    pub s: SidePostings,
}

/// A checksum-validated section payload whose field-level decode is
/// deferred: [`Dataset::open`] verifies every file's header and
/// checksum eagerly (corruption of bytes always fails at open) but
/// leaves the expensive materializations — interner values, tuple
/// reconstruction, postings lists — to first access, which is what
/// makes open a milliseconds-scale operation.
#[derive(Debug)]
struct RawSection {
    data: Vec<u8>,
    path: String,
}

impl RawSection {
    fn of(reader: PayloadReader) -> RawSection {
        let (data, _, path) = reader.into_parts();
        RawSection { data, path }
    }

    fn reader(&self) -> PayloadReader {
        PayloadReader::new(self.data.clone(), self.path.clone())
    }
}

/// A dataset component that is either materialized (the in-memory
/// encode backend) or built on first access from persisted bytes (the
/// open backend). Deferred builds memoize their outcome — including a
/// typed [`StoreError`] on semantic corruption, so a crafted store
/// that passes checksums still fails loudly, just at first use
/// instead of at open.
#[derive(Debug)]
enum Lazy<T> {
    Ready(T),
    Deferred(OnceLock<StoreResult<T>>),
}

impl<T> Lazy<T> {
    fn deferred() -> Lazy<T> {
        Lazy::Deferred(OnceLock::new())
    }

    fn get(&self, build: impl FnOnce() -> StoreResult<T>) -> StoreResult<&T> {
        match self {
            Lazy::Ready(v) => Ok(v),
            Lazy::Deferred(cell) => cell.get_or_init(build).as_ref().map_err(Clone::clone),
        }
    }
}

/// A matching world the pipeline runs against: both relations, their
/// ILFD-extended twins, the shared interner, the extended-side symbol
/// columns, per-column statistics, and the rule knowledge (extended
/// key + ILFD source). Built by [`Dataset::encode`] (in-memory) or
/// [`Dataset::open`] (from a store directory).
///
/// The relation, interner, and index accessors are fallible: on the
/// open backend they materialize lazily from the checksummed
/// payloads, and a semantically-corrupt section (one deliberately
/// crafted to pass its checksum) surfaces there as
/// [`CoreError::Store`] instead of at open. [`Dataset::validate`]
/// forces every deferred section when eager verification is wanted
/// (`eid inspect` does).
#[derive(Debug)]
pub struct Dataset {
    name: String,
    rows_r: usize,
    rows_s: usize,
    interner_len: usize,
    dstats_r: DeriveStats,
    dstats_s: DeriveStats,
    r: Lazy<Relation>,
    s: Lazy<Relation>,
    ext_r: Lazy<Extended>,
    ext_s: Lazy<Extended>,
    interner: Lazy<Interner>,
    raw_r: Option<RawSection>,
    raw_s: Option<RawSection>,
    raw_interner: Option<RawSection>,
    raw_index: Option<RawSection>,
    ext_schema_r: Arc<Schema>,
    ext_schema_s: Arc<Schema>,
    ext_path_r: String,
    ext_path_s: String,
    cols_r: Columns,
    cols_s: Columns,
    stats_r: Vec<ColumnStat>,
    stats_s: Vec<ColumnStat>,
    extended_key: ExtendedKey,
    strategy: Strategy,
    ilfds: IlfdSet,
    rules_text: String,
    index: Lazy<Option<BlockIndex>>,
    persisted: bool,
}

impl Dataset {
    /// The in-memory backend: extend both relations under the ILFDs,
    /// intern and columnarize the extended sides, and compute column
    /// statistics — everything a matcher needs, ready to run or to
    /// [`Dataset::write`].
    pub fn encode(
        name: impl Into<String>,
        r: Relation,
        s: Relation,
        extended_key: ExtendedKey,
        ilfds: IlfdSet,
        strategy: Strategy,
    ) -> Result<Dataset> {
        if extended_key.is_empty() {
            return Err(CoreError::EmptyExtendedKey);
        }
        let ext_r = extend_relation(&r, &extended_key, &ilfds, strategy)?;
        let ext_s = extend_relation(&s, &extended_key, &ilfds, strategy)?;
        let mut interner = Interner::new();
        let cols_r = Columns::encode(&ext_r.relation, &mut interner);
        let cols_s = Columns::encode(&ext_s.relation, &mut interner);
        let stats_r = cols_r.column_stats();
        let stats_s = cols_s.column_stats();
        let rules_text = ilfds_to_source(&ilfds);
        Ok(Dataset {
            name: name.into(),
            rows_r: r.len(),
            rows_s: s.len(),
            interner_len: interner.len(),
            dstats_r: ext_r.stats,
            dstats_s: ext_s.stats,
            ext_schema_r: ext_r.relation.schema().clone(),
            ext_schema_s: ext_s.relation.schema().clone(),
            ext_path_r: String::new(),
            ext_path_s: String::new(),
            r: Lazy::Ready(r),
            s: Lazy::Ready(s),
            ext_r: Lazy::Ready(ext_r),
            ext_s: Lazy::Ready(ext_s),
            interner: Lazy::Ready(interner),
            raw_r: None,
            raw_s: None,
            raw_interner: None,
            raw_index: None,
            cols_r,
            cols_s,
            stats_r,
            stats_s,
            extended_key,
            strategy,
            ilfds,
            rules_text,
            index: Lazy::Ready(None),
            persisted: false,
        })
    }

    /// The persistent backend: one bounded, checksummed pass over a
    /// store directory. No derivation, interning, or stats
    /// computation happens — the columns, interner, and statistics
    /// come back exactly as written. Any corruption is a typed
    /// [`CoreError::Store`].
    pub fn open(dir: &Path) -> Result<Dataset> {
        let dpath = dir.display().to_string();
        if eid_fault::hit("store/open") {
            return Err(store_err(&dpath, "injected fault: store/open"));
        }
        if !dir.is_dir() {
            return Err(store_err(&dpath, "not a dataset directory"));
        }

        // Manifest: the cross-section expectations everything else is
        // validated against.
        let mpath = dir.join(MANIFEST_FILE);
        let mut m = read(&mpath, section::MANIFEST)?;
        let name = m.get_str()?;
        let strategy = match m.get_u8()? {
            0 => Strategy::FirstMatch,
            1 => Strategy::Fixpoint,
            t => return Err(m.corrupt(format!("unknown strategy tag {t}")).into()),
        };
        let n_key = m.get_count(2, "extended-key attribute")?;
        if n_key == 0 {
            return Err(m.corrupt("empty extended key").into());
        }
        let mut key_names = Vec::with_capacity(n_key);
        for _ in 0..n_key {
            key_names.push(m.get_str()?);
        }
        let rules_text = m.get_str()?;
        let rows_r = m.get_u64()? as usize;
        let rows_s = m.get_u64()? as usize;
        let interner_len = m.get_u64()? as usize;
        fn derive_stats(m: &mut PayloadReader) -> Result<DeriveStats> {
            Ok(DeriveStats {
                tuples: m.get_u64()? as usize,
                memo_hits: m.get_u64()? as usize,
                memo_misses: m.get_u64()? as usize,
                assigned: m.get_u64()? as usize,
            })
        }
        let dstats_r = derive_stats(&mut m)?;
        let dstats_s = derive_stats(&mut m)?;
        let has_index = m.get_u8()? != 0;
        m.finish().map_err(CoreError::from)?;

        // The interner's values materialize lazily; the payload is
        // checksum-validated here, the population cross-check happens
        // at first access.
        let raw_interner = RawSection::of(read(&dir.join(INTERNER_FILE), section::INTERNER)?);

        // Original relations (`r.eid`/`s.eid`): checksummed now,
        // decoded (schema, columns, tuples, key re-enforcement) on
        // first access.
        let raw_r = RawSection::of(read(&dir.join(COLS_R_FILE), section::COLUMNS)?);
        let raw_s = RawSection::of(read(&dir.join(COLS_S_FILE), section::COLUMNS)?);

        // Extended relations (`rx.eid`/`sx.eid`): the schema and
        // symbol columns decode eagerly — the planner and engine run
        // straight off the columns, and the bulk column reader makes
        // this a bounds-checked memcpy — but *tuple* materialization
        // (one `Value` clone per cell) is deferred.
        let open_cols = |file: &str, rows: usize| -> Result<(Arc<Schema>, Columns, String)> {
            let path = dir.join(file);
            let mut c = read(&path, section::COLUMNS)?;
            let schema = rstore::open_schema(&mut c)?;
            let cols = rstore::open_columns(&mut c, interner_len)?;
            c.finish().map_err(CoreError::from)?;
            let path = path.display().to_string();
            if cols.rows() != rows {
                return Err(store_err(
                    &path,
                    format!(
                        "{} rows stored where the manifest declares {}",
                        cols.rows(),
                        rows
                    ),
                ));
            }
            if cols.arity() != schema.arity() {
                return Err(store_err(
                    &path,
                    format!(
                        "{} columns stored for schema \"{}\" of arity {}",
                        cols.arity(),
                        schema.name(),
                        schema.arity()
                    ),
                ));
            }
            Ok((schema, cols, path))
        };
        let (ext_schema_r, cols_r, ext_path_r) = open_cols(COLS_RX_FILE, rows_r)?;
        let (ext_schema_s, cols_s, ext_path_s) = open_cols(COLS_SX_FILE, rows_s)?;

        let extended_key = ExtendedKey::new(attr_names(&key_names));
        for (schema, path) in [(&ext_schema_r, &ext_path_r), (&ext_schema_s, &ext_path_s)] {
            for attr in extended_key.attrs() {
                if !schema.has_attribute(attr) {
                    return Err(store_err(
                        path,
                        format!(
                            "extended relation \"{}\" is missing extended-key attribute \"{attr}\"",
                            schema.name()
                        ),
                    ));
                }
            }
        }

        let spath = dir.join(STATS_FILE);
        let mut st = read(&spath, section::STATS)?;
        let stats_r = rstore::open_stats(&mut st)?;
        let stats_s = rstore::open_stats(&mut st)?;
        st.finish().map_err(CoreError::from)?;
        for (stats, cols, side) in [(&stats_r, &cols_r, "R′"), (&stats_s, &cols_s, "S′")] {
            if stats.len() != cols.arity() {
                return Err(store_err(
                    spath.display(),
                    format!(
                        "{} column stats stored for {side}'s {} attributes",
                        stats.len(),
                        cols.arity()
                    ),
                ));
            }
            if let Some(bad) = stats.iter().find(|s| s.rows != cols.rows()) {
                return Err(store_err(
                    spath.display(),
                    format!(
                        "{side} stat covers {} rows where the columns hold {}",
                        bad.rows,
                        cols.rows()
                    ),
                ));
            }
        }

        // Postings lists (one `Vec` per distinct symbol) materialize
        // lazily too; the section's bytes are still checksum-verified
        // here. A manifest without an index resolves to `Ready(None)`.
        let (index, raw_index) = if has_index {
            let raw = RawSection::of(read(&dir.join(INDEX_FILE), section::INDEX)?);
            (Lazy::deferred(), Some(raw))
        } else {
            (Lazy::Ready(None), None)
        };

        let ilfds = parse_rules(&rules_text)
            .map_err(|e| store_err(mpath.display(), format!("stored rules do not parse: {e}")))?
            .ilfds();

        Ok(Dataset {
            name,
            rows_r,
            rows_s,
            interner_len,
            dstats_r,
            dstats_s,
            r: Lazy::deferred(),
            s: Lazy::deferred(),
            ext_r: Lazy::deferred(),
            ext_s: Lazy::deferred(),
            interner: Lazy::deferred(),
            raw_r: Some(raw_r),
            raw_s: Some(raw_s),
            raw_interner: Some(raw_interner),
            raw_index,
            ext_schema_r,
            ext_schema_s,
            ext_path_r,
            ext_path_s,
            cols_r,
            cols_s,
            stats_r,
            stats_s,
            extended_key,
            strategy,
            ilfds,
            rules_text,
            index,
            persisted: true,
        })
    }

    /// Serializes the dataset into `dir`. Sections are written to a
    /// sibling `<dir>.tmp` under a [`SpillDirGuard`] and the finished
    /// directory is renamed into place atomically — an encode that
    /// fails (I/O error, injected `store/write` fault, panic) leaves
    /// no half-written `.eids/` behind, only the guard-cleaned temp
    /// dir. An existing dataset at `dir` is replaced. Returns the
    /// total bytes written.
    pub fn write(&self, dir: &Path) -> Result<u64> {
        let dpath = dir.display().to_string();
        let tmp = match dir.file_name() {
            Some(name) => {
                let mut t = name.to_os_string();
                t.push(".tmp");
                dir.with_file_name(t)
            }
            None => return Err(store_err(&dpath, "invalid dataset directory name")),
        };
        if tmp.exists() {
            fs::remove_dir_all(&tmp)
                .map_err(|e| store_err(tmp.display(), format!("stale temp dir: {e}")))?;
        }
        fs::create_dir_all(&tmp).map_err(|e| store_err(tmp.display(), e.to_string()))?;
        let mut guard = SpillDirGuard::adopt(tmp.clone(), false);

        // Writing serializes the materialized world, so every lazy
        // section is forced first (a no-op on the encode backend).
        let (r, s) = (self.r()?, self.s()?);
        let (ext_r, ext_s) = (self.ext_r()?, self.ext_s()?);

        // The stored interner is the dataset interner plus whatever
        // the *original* relations mention that the extended ones
        // don't (nothing, in practice: derivation only fills NULLs) —
        // extended-column symbol ids stay valid either way.
        let mut full = self.interner()?.clone();
        let orig_r = Columns::encode(r, &mut full);
        let orig_s = Columns::encode(s, &mut full);

        let mut manifest = PayloadWriter::new();
        manifest.put_str(&self.name);
        manifest.put_u8(match self.strategy {
            Strategy::FirstMatch => 0,
            Strategy::Fixpoint => 1,
        });
        manifest.put_u64(self.extended_key.attrs().len() as u64);
        for attr in self.extended_key.attrs() {
            manifest.put_str(attr.as_str());
        }
        manifest.put_str(&self.rules_text);
        manifest.put_u64(r.len() as u64);
        manifest.put_u64(s.len() as u64);
        manifest.put_u64(full.len() as u64);
        for stats in [&self.dstats_r, &self.dstats_s] {
            manifest.put_u64(stats.tuples as u64);
            manifest.put_u64(stats.memo_hits as u64);
            manifest.put_u64(stats.memo_misses as u64);
            manifest.put_u64(stats.assigned as u64);
        }
        manifest.put_u8(1); // blocking index present

        let cols_payload = |rel: &Relation, cols: &Columns| -> Vec<u8> {
            let mut b = rstore::schema_payload(rel.schema());
            b.extend(rstore::columns_payload(cols));
            b
        };

        let stats_bytes = {
            let mut b = rstore::stats_payload(&self.stats_r);
            b.extend(rstore::stats_payload(&self.stats_s));
            b
        };

        // Blocking postings over the extended-key columns of both
        // extended sides.
        let mut index = PayloadWriter::new();
        for (rel, cols) in [
            (&ext_r.relation, &self.cols_r),
            (&ext_s.relation, &self.cols_s),
        ] {
            let positions: Vec<usize> = self
                .extended_key
                .attrs()
                .iter()
                .filter_map(|a| rel.schema().try_position(a))
                .collect();
            index.put_u64(positions.len() as u64);
            for p in positions {
                index.put_u64(p as u64);
                for b in rstore::postings_payload(cols.col(p)) {
                    index.put_u8(b);
                }
            }
        }

        let files: Vec<(&str, u32, Vec<u8>)> = vec![
            (MANIFEST_FILE, section::MANIFEST, manifest.into_bytes()),
            (
                INTERNER_FILE,
                section::INTERNER,
                rstore::interner_payload(&full),
            ),
            (COLS_R_FILE, section::COLUMNS, cols_payload(r, &orig_r)),
            (COLS_S_FILE, section::COLUMNS, cols_payload(s, &orig_s)),
            (
                COLS_RX_FILE,
                section::COLUMNS,
                cols_payload(&ext_r.relation, &self.cols_r),
            ),
            (
                COLS_SX_FILE,
                section::COLUMNS,
                cols_payload(&ext_s.relation, &self.cols_s),
            ),
            (STATS_FILE, section::STATS, stats_bytes),
            (INDEX_FILE, section::INDEX, index.into_bytes()),
        ];
        let mut total = 0u64;
        for (file, kind, payload) in files {
            write(&tmp.join(file), kind, &payload)?;
            total += payload.len() as u64 + 32; // header + checksum overhead
        }

        if dir.exists() {
            fs::remove_dir_all(dir)
                .map_err(|e| store_err(&dpath, format!("replacing existing dataset: {e}")))?;
        }
        fs::rename(&tmp, dir).map_err(|e| store_err(&dpath, e.to_string()))?;
        // The temp dir no longer exists; keep the guard from touching
        // the renamed result.
        guard.set_keep(true);
        Ok(total)
    }

    /// The dataset name (from the manifest / encode call).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The shared value interner (extended-side population), built
    /// from the stored section on first access. A population that
    /// disagrees with the manifest, a duplicate entry, or a stored
    /// NULL is typed corruption.
    fn interner_impl(&self) -> StoreResult<&Interner> {
        self.interner.get(|| {
            let raw = self
                .raw_interner
                .as_ref()
                .expect("deferred interner without its raw section");
            let mut r = raw.reader();
            let it = rstore::open_interner(&mut r)?;
            r.finish()?;
            if it.len() != self.interner_len {
                return Err(StoreError::new(
                    &raw.path,
                    format!(
                        "interner population {} does not match the manifest's {}",
                        it.len(),
                        self.interner_len
                    ),
                ));
            }
            Ok(it)
        })
    }

    /// One original relation (`r.eid`/`s.eid`): schema, columns, and
    /// key-re-enforced tuples, decoded on first access (duplicate
    /// keys in a store are corruption).
    fn original_impl<'a>(
        &'a self,
        slot: &'a Lazy<Relation>,
        raw: &'a Option<RawSection>,
        rows: usize,
    ) -> StoreResult<&'a Relation> {
        slot.get(|| {
            let raw = raw
                .as_ref()
                .expect("deferred original relation without its raw section");
            let mut c = raw.reader();
            let schema = rstore::open_schema(&mut c)?;
            let cols = rstore::open_columns(&mut c, self.interner_len)?;
            c.finish()?;
            if cols.rows() != rows {
                return Err(StoreError::new(
                    &raw.path,
                    format!(
                        "{} rows stored where the manifest declares {}",
                        cols.rows(),
                        rows
                    ),
                ));
            }
            rstore::decode_relation(schema, &cols, self.interner_impl()?, true, &raw.path)
        })
    }

    /// One extended relation: tuples materialized from the (already
    /// validated) symbol columns through the interner.
    fn extended_impl<'a>(
        &'a self,
        slot: &'a Lazy<Extended>,
        schema: &Arc<Schema>,
        cols: &Columns,
        path: &str,
        rows: usize,
        stats: DeriveStats,
    ) -> StoreResult<&'a Extended> {
        slot.get(|| {
            let relation =
                rstore::decode_relation(schema.clone(), cols, self.interner_impl()?, false, path)?;
            Ok(Extended {
                relation,
                reports: vec![DeriveReport::default(); rows],
                stats,
            })
        })
    }

    /// Original relation `R`.
    pub fn r(&self) -> Result<&Relation> {
        Ok(self.original_impl(&self.r, &self.raw_r, self.rows_r)?)
    }

    /// Original relation `S`.
    pub fn s(&self) -> Result<&Relation> {
        Ok(self.original_impl(&self.s, &self.raw_s, self.rows_s)?)
    }

    /// Extended relation `R′` with derivation stats.
    pub fn ext_r(&self) -> Result<&Extended> {
        Ok(self.extended_impl(
            &self.ext_r,
            &self.ext_schema_r,
            &self.cols_r,
            &self.ext_path_r,
            self.rows_r,
            self.dstats_r,
        )?)
    }

    /// Extended relation `S′` with derivation stats.
    pub fn ext_s(&self) -> Result<&Extended> {
        Ok(self.extended_impl(
            &self.ext_s,
            &self.ext_schema_s,
            &self.cols_s,
            &self.ext_path_s,
            self.rows_s,
            self.dstats_s,
        )?)
    }

    /// The shared value interner (extended-side population).
    pub fn interner(&self) -> Result<&Interner> {
        Ok(self.interner_impl()?)
    }

    /// Forces every deferred section — interner, both original and
    /// both extended relations, the blocking index — surfacing any
    /// deferred corruption now. `eid inspect` calls this so
    /// inspection doubles as full verification.
    pub fn validate(&self) -> Result<()> {
        self.interner()?;
        self.r()?;
        self.s()?;
        self.ext_r()?;
        self.ext_s()?;
        self.index()?;
        Ok(())
    }

    /// `R′`'s symbol columns.
    pub fn cols_r(&self) -> &Columns {
        &self.cols_r
    }

    /// `S′`'s symbol columns.
    pub fn cols_s(&self) -> &Columns {
        &self.cols_s
    }

    /// Per-column statistics of `R′` (persisted or computed at
    /// encode).
    pub fn stats_r(&self) -> &[ColumnStat] {
        &self.stats_r
    }

    /// Per-column statistics of `S′`.
    pub fn stats_s(&self) -> &[ColumnStat] {
        &self.stats_s
    }

    /// The extended key.
    pub fn extended_key(&self) -> &ExtendedKey {
        &self.extended_key
    }

    /// The derivation strategy the extended relations were built
    /// under.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The ILFD set (parsed back from the stored rules text on open).
    pub fn ilfds(&self) -> &IlfdSet {
        &self.ilfds
    }

    /// The rules source text stored verbatim in the manifest.
    pub fn rules_text(&self) -> &str {
        &self.rules_text
    }

    /// The optional pre-built blocking postings, decoded from the
    /// stored section on first access.
    pub fn index(&self) -> Result<Option<&BlockIndex>> {
        let index = self.index.get(|| {
            let raw = self
                .raw_index
                .as_ref()
                .expect("deferred index without its raw section");
            let mut x = raw.reader();
            let mut open_side = |cols: &Columns| -> StoreResult<SidePostings> {
                let n = x.get_count(12, "indexed column")?;
                let mut side = Vec::with_capacity(n);
                for _ in 0..n {
                    let pos = x.get_u64()? as usize;
                    if pos >= cols.arity() {
                        return Err(x.corrupt(format!("indexed column {pos} out of range")));
                    }
                    let postings = rstore::open_postings(&mut x, cols.rows())?;
                    side.push((pos, postings));
                }
                Ok(side)
            };
            let r_side = open_side(&self.cols_r)?;
            let s_side = open_side(&self.cols_s)?;
            x.finish()?;
            Ok(Some(BlockIndex {
                r: r_side,
                s: s_side,
            }))
        })?;
        Ok(index.as_ref())
    }

    /// Whether this dataset came from a store directory
    /// ([`Dataset::open`]) rather than an in-memory encode — drives
    /// the planner's `stats: persisted` provenance.
    pub fn persisted(&self) -> bool {
        self.persisted
    }

    /// The default matcher configuration for this dataset: its
    /// extended key, ILFDs, and derivation strategy. Callers adjust
    /// budgets, threads, and emission on the result.
    pub fn match_config(&self) -> MatchConfig {
        let mut config = MatchConfig::new(self.extended_key.clone(), self.ilfds.clone());
        config.strategy = self.strategy;
        config
    }
}

/// One store file's on-disk size, for `eid inspect` and the bench's
/// `store` section.
#[derive(Debug, Clone)]
pub struct StoreFile {
    /// File name within the dataset directory.
    pub name: String,
    /// Size in bytes.
    pub bytes: u64,
}

/// Sizes of every section file present in `dir` (sorted by name),
/// plus the total.
pub fn store_files(dir: &Path) -> Result<(Vec<StoreFile>, u64)> {
    let mut files = Vec::new();
    let mut total = 0u64;
    let entries = fs::read_dir(dir).map_err(|e| store_err(dir.display(), e.to_string()))?;
    for entry in entries {
        let entry = entry.map_err(|e| store_err(dir.display(), e.to_string()))?;
        let meta = entry
            .metadata()
            .map_err(|e| store_err(entry.path().display(), e.to_string()))?;
        if meta.is_file() {
            let bytes = meta.len();
            total += bytes;
            files.push(StoreFile {
                name: entry.file_name().to_string_lossy().into_owned(),
                bytes,
            });
        }
    }
    files.sort_by(|a, b| a.name.cmp(&b.name));
    Ok((files, total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eid_relational::{Schema, Tuple, Value};
    use std::path::PathBuf;

    const RULES: &str = "speciality = hunan -> cuisine = chinese\n\
                         speciality = gyros -> cuisine = greek\n";

    /// A small hand-built world: string, int, and NULL values, ILFDs
    /// that actually fill the extended-key attribute.
    fn world(n: usize, seed: u64) -> (Relation, Relation, ExtendedKey, IlfdSet) {
        let specs = ["hunan", "gyros", "unknown"];
        let schema_r = Schema::of_strs("R", &["name", "speciality", "cuisine"], &["name"]).unwrap();
        let schema_s = Schema::of_strs("S", &["name", "speciality"], &["name"]).unwrap();
        let mut r = Relation::new(schema_r);
        let mut s = Relation::new(schema_s);
        for i in 0..n {
            let spec = specs[(i + seed as usize) % specs.len()];
            r.insert(Tuple::new(vec![
                Value::str(format!("e{i}")),
                Value::str(spec),
                Value::Null,
            ]))
            .unwrap();
            s.insert(Tuple::new(vec![
                Value::str(format!("e{}", (i + 1) % n)),
                if i % 4 == 0 {
                    Value::Null
                } else {
                    Value::str(spec)
                },
            ]))
            .unwrap();
        }
        let key = ExtendedKey::of_strs(&["name", "cuisine"]);
        let ilfds = parse_rules(RULES).unwrap().ilfds();
        (r, s, key, ilfds)
    }

    /// The `store/*` fault sites count calls process-wide, so every
    /// test here that writes or opens a store holds this lock — a
    /// concurrent write would otherwise use up an armed trigger.
    fn store_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn tmp(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("eid-ds-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn encode_world(n: usize, seed: u64) -> Dataset {
        let (r, s, key, ilfds) = world(n, seed);
        Dataset::encode("t", r, s, key, ilfds, Strategy::FirstMatch).unwrap()
    }

    #[test]
    fn write_open_roundtrip_preserves_everything() {
        let _l = store_lock();
        let ds = encode_world(40, 7);
        let parent = tmp("roundtrip");
        let dir = parent.join("t.eids");
        let bytes = ds.write(&dir).unwrap();
        assert!(bytes > 0);
        assert!(!parent.join("t.eids.tmp").exists(), "temp dir leaked");

        let back = Dataset::open(&dir).unwrap();
        assert!(back.persisted());
        assert_eq!(back.name(), "t");
        assert_eq!(back.r().unwrap().len(), ds.r().unwrap().len());
        assert_eq!(back.s().unwrap().len(), ds.s().unwrap().len());
        assert_eq!(back.stats_r(), ds.stats_r());
        assert_eq!(back.stats_s(), ds.stats_s());
        assert_eq!(back.rules_text(), ds.rules_text());
        assert_eq!(back.extended_key(), ds.extended_key());
        // Deferred sections all materialize cleanly.
        back.validate().unwrap();
        // Extended relations decode tuple-identical.
        for (a, b) in ds
            .ext_r()
            .unwrap()
            .relation
            .iter()
            .zip(back.ext_r().unwrap().relation.iter())
        {
            assert_eq!(a, b);
        }
        // Columns carry the same rows (ids may shift only if the
        // original relations added symbols — resolve and compare).
        for c in 0..ds.cols_r().arity() {
            for row in 0..ds.cols_r().rows() {
                assert_eq!(
                    ds.interner().unwrap().resolve(ds.cols_r().get(row, c)),
                    back.interner().unwrap().resolve(back.cols_r().get(row, c))
                );
            }
        }
        assert!(back.index().unwrap().is_some());
        let _ = fs::remove_dir_all(&parent);
    }

    #[test]
    fn open_missing_dir_is_typed() {
        let _l = store_lock();
        let err = Dataset::open(Path::new("/nonexistent/x.eids")).unwrap_err();
        assert!(matches!(err, CoreError::Store { .. }), "{err}");
    }

    #[test]
    fn every_required_file_resists_truncation_and_bitflips() {
        let _l = store_lock();
        let ds = encode_world(25, 11);
        let parent = tmp("corrupt");
        let dir = parent.join("t.eids");
        ds.write(&dir).unwrap();

        for (file, _) in REQUIRED_FILES {
            let path = dir.join(file);
            let clean = fs::read(&path).unwrap();
            // Truncations at a spread of prefix lengths.
            for frac in [0usize, 1, 7, 23] {
                let cut = (clean.len() * frac / 24).min(clean.len().saturating_sub(1));
                fs::write(&path, &clean[..cut]).unwrap();
                let err = Dataset::open(&dir).expect_err("truncated store accepted");
                assert!(matches!(err, CoreError::Store { .. }), "{file}: {err}");
            }
            // Bit flips at a spread of offsets.
            for frac in [0usize, 5, 11, 17, 23] {
                let off = clean.len() * frac / 24;
                let mut bad = clean.clone();
                bad[off] ^= 0x40;
                fs::write(&path, &bad).unwrap();
                match Dataset::open(&dir) {
                    Err(CoreError::Store { .. }) => {}
                    Err(other) => panic!("{file} offset {off}: non-store error {other}"),
                    // A flip that keeps the checksum valid is
                    // impossible; Ok means the flip landed in a spot
                    // the checksum covers, so it must not happen.
                    Ok(_) => panic!("{file} offset {off}: corrupt byte accepted"),
                }
            }
            // Deleting the file entirely.
            fs::remove_file(&path).unwrap();
            let err = Dataset::open(&dir).expect_err("missing file accepted");
            assert!(matches!(err, CoreError::Store { .. }), "{file}: {err}");
            fs::write(&path, &clean).unwrap();
            // Restored: the store opens again.
            Dataset::open(&dir).unwrap();
        }
        let _ = fs::remove_dir_all(&parent);
    }

    #[test]
    fn failed_write_leaks_nothing() {
        let _l = store_lock();
        let ds = encode_world(10, 3);
        let parent = tmp("faulty");
        let dir = parent.join("t.eids");
        eid_fault::install("store/write@1", 0).unwrap();
        let err = ds.write(&dir).unwrap_err();
        eid_fault::clear();
        assert!(matches!(err, CoreError::Store { .. }), "{err}");
        assert!(!dir.exists(), "half-written dataset left behind");
        assert!(!parent.join("t.eids.tmp").exists(), "temp dir leaked");
        let _ = fs::remove_dir_all(&parent);
    }

    #[test]
    fn matcher_agrees_across_memory_encoded_and_opened_backends() {
        use crate::matcher::EntityMatcher;
        use crate::plan::StatsSource;
        use std::sync::Arc;

        let _l = store_lock();

        let (r, s, key, ilfds) = world(24, 1);
        let config = MatchConfig::new(key.clone(), ilfds.clone());
        let memory = EntityMatcher::new(r.clone(), s.clone(), config.clone())
            .unwrap()
            .run()
            .unwrap();

        let encoded =
            Arc::new(Dataset::encode("t", r, s, key, ilfds, Strategy::FirstMatch).unwrap());
        let parent = tmp("backends");
        let dir = parent.join("t.eids");
        encoded.write(&dir).unwrap();
        let opened = Arc::new(Dataset::open(&dir).unwrap());

        for (tag, ds, want_stats) in [
            ("encoded", &encoded, StatsSource::Computed),
            ("opened", &opened, StatsSource::Persisted),
        ] {
            let m = EntityMatcher::from_dataset(Arc::clone(ds), ds.match_config()).unwrap();
            assert_eq!(m.plan().unwrap().stats_source, want_stats, "{tag}");
            let got = m.run().unwrap();
            assert_eq!(
                got.matching.entries(),
                memory.matching.entries(),
                "{tag} matching"
            );
            assert_eq!(
                got.negative.entries(),
                memory.negative.entries(),
                "{tag} negative"
            );
            assert_eq!(got.undetermined, memory.undetermined, "{tag} undetermined");
        }
        let _ = fs::remove_dir_all(&parent);
    }

    #[test]
    fn from_dataset_rejects_mismatched_key_and_strategy() {
        use crate::matcher::EntityMatcher;
        use std::sync::Arc;

        let ds = Arc::new(encode_world(8, 0));
        let mut wrong_key = ds.match_config();
        wrong_key.extended_key = ExtendedKey::of_strs(&["name"]);
        assert!(matches!(
            EntityMatcher::from_dataset(Arc::clone(&ds), wrong_key),
            Err(CoreError::Store { .. })
        ));
        let mut wrong_strategy = ds.match_config();
        wrong_strategy.strategy = Strategy::Fixpoint;
        assert!(matches!(
            EntityMatcher::from_dataset(ds, wrong_strategy),
            Err(CoreError::Store { .. })
        ));
    }

    #[test]
    fn store_files_reports_sizes() {
        let _l = store_lock();
        let ds = encode_world(12, 5);
        let parent = tmp("sizes");
        let dir = parent.join("t.eids");
        ds.write(&dir).unwrap();
        let (files, total) = store_files(&dir).unwrap();
        assert_eq!(files.len(), REQUIRED_FILES.len() + 1); // + index
        assert!(total > 0);
        assert!(files.iter().any(|f| f.name == MANIFEST_FILE));
        let _ = fs::remove_dir_all(&parent);
    }
}

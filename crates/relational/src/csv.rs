//! A deliberately tiny CSV reader/writer for workload files.
//!
//! Supports comma separation, double-quote quoting with `""` escapes,
//! and the literal cell `null` (unquoted) for NULL. This is enough to
//! round-trip generated workloads; it is not a general CSV library.
//!
//! Ingestion is hardened for autonomous sources: every malformed row
//! surfaces as [`RelationalError::Csv`] with line *and column*
//! context, and the `*_lenient` variants skip bad rows instead of
//! failing, returning them as [`CsvReject`]s so callers can count
//! rejected rows into their reports.

use std::sync::Arc;

use crate::error::{RelationalError, Result};
use crate::relation::Relation;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;

/// Serializes `rel` to CSV with a header row of attribute names.
pub fn to_csv(rel: &Relation) -> String {
    let mut out = String::new();
    let header: Vec<String> = rel
        .schema()
        .attributes()
        .iter()
        .map(|a| quote(a.name.as_str()))
        .collect();
    out.push_str(&header.join(","));
    out.push('\n');
    for t in rel.iter() {
        let row: Vec<String> = t
            .values()
            .iter()
            .map(|v| match v {
                Value::Null => "null".to_string(),
                other => quote(&other.render()),
            })
            .collect();
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

fn quote(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') || s == "null" {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// One skipped row from a lenient parse: which line, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvReject {
    /// 1-based line number of the rejected row.
    pub line: usize,
    /// What was wrong with it.
    pub error: RelationalError,
}

/// Parses CSV produced by [`to_csv`] into a relation under `schema`
/// (header row must match the schema's attribute names). All values
/// are read as strings except the literal `null`. Any malformed row
/// fails the whole parse with line/column context.
pub fn from_csv(schema: Arc<Schema>, text: &str) -> Result<Relation> {
    let mut rel = Relation::new_unchecked(schema);
    let rejects = read_rows(&mut rel, text, false)?;
    debug_assert!(rejects.is_empty(), "strict mode rejects nothing");
    Ok(rel)
}

/// Like [`from_csv`] but *lenient*: a malformed data row is skipped
/// and reported in the returned [`CsvReject`] list instead of failing
/// the parse. A missing or mismatched header still fails — there is
/// no sensible way to continue without one.
pub fn from_csv_lenient(schema: Arc<Schema>, text: &str) -> Result<(Relation, Vec<CsvReject>)> {
    let mut rel = Relation::new_unchecked(schema);
    let rejects = read_rows(&mut rel, text, true)?;
    Ok((rel, rejects))
}

/// Parses CSV whose schema is *inferred from the header row*: every
/// column is string-typed, and `key` names the candidate key. This is
/// the entry point for user-supplied workload files (the `eid` CLI).
/// Key violations are detected on insert and fail the parse.
pub fn from_csv_inferred(name: &str, text: &str, key: &[&str]) -> Result<Relation> {
    let mut rel = Relation::new(inferred_schema(name, text, key)?);
    let rejects = read_rows(&mut rel, text, false)?;
    debug_assert!(rejects.is_empty(), "strict mode rejects nothing");
    Ok(rel)
}

/// Lenient [`from_csv_inferred`]: malformed rows *and* key-violating
/// rows are skipped and reported instead of failing the parse.
pub fn from_csv_inferred_lenient(
    name: &str,
    text: &str,
    key: &[&str],
) -> Result<(Relation, Vec<CsvReject>)> {
    let mut rel = Relation::new(inferred_schema(name, text, key)?);
    let rejects = read_rows(&mut rel, text, true)?;
    Ok((rel, rejects))
}

fn inferred_schema(name: &str, text: &str, key: &[&str]) -> Result<Arc<Schema>> {
    let header = text.lines().next().ok_or(RelationalError::Csv {
        line: 1,
        col: 0,
        detail: "missing header row".into(),
    })?;
    let cells = parse_line(header, 1)?;
    let attrs: Vec<&str> = cells.iter().map(|c| c.as_str()).collect();
    Schema::of_strs(name, &attrs, key)
}

/// The shared row loop: validates the header against `rel`'s schema,
/// then parses and inserts every data row. In lenient mode a bad row
/// (parse error, arity mismatch, or insert rejection such as a key
/// violation) is returned as a [`CsvReject`]; in strict mode it fails
/// the parse.
fn read_rows(rel: &mut Relation, text: &str, lenient: bool) -> Result<Vec<CsvReject>> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or(RelationalError::Csv {
        line: 1,
        col: 0,
        detail: "missing header row".into(),
    })?;
    let header_cells = parse_line(header, 1)?;
    let expected: Vec<&str> = rel
        .schema()
        .attributes()
        .iter()
        .map(|a| a.name.as_str())
        .collect();
    if header_cells
        .iter()
        .map(|c| c.as_str())
        .ne(expected.iter().copied())
    {
        return Err(RelationalError::Csv {
            line: 1,
            col: 0,
            detail: format!(
                "header {:?} does not match schema attributes {:?}",
                header_cells.iter().map(|c| c.as_str()).collect::<Vec<_>>(),
                expected
            ),
        });
    }
    let mut rejects = Vec::new();
    for (i, line) in lines {
        if line.is_empty() {
            continue;
        }
        let line_no = i + 1;
        match read_row(rel, line, line_no) {
            Ok(()) => {}
            Err(error) if lenient => rejects.push(CsvReject {
                line: line_no,
                error,
            }),
            Err(error) => return Err(error),
        }
    }
    Ok(rejects)
}

/// Parses one data row and inserts it into `rel`.
fn read_row(rel: &mut Relation, line: &str, line_no: usize) -> Result<()> {
    if eid_fault::hit("csv/read") {
        return Err(RelationalError::Csv {
            line: line_no,
            col: 0,
            detail: "injected read error (eid-fault csv/read)".into(),
        });
    }
    let cells = parse_line(line, line_no)?;
    if cells.len() != rel.schema().arity() {
        return Err(RelationalError::Csv {
            line: line_no,
            col: 0,
            detail: format!(
                "expected {} cells, got {}",
                rel.schema().arity(),
                cells.len()
            ),
        });
    }
    let values: Vec<Value> = cells
        .into_iter()
        .map(|c| {
            if c.raw && c.text == "null" {
                Value::Null
            } else {
                Value::str(c.text)
            }
        })
        .collect();
    rel.insert(Tuple::new(values))
}

/// A parsed cell: `raw` is false when the cell was quoted (so a
/// quoted `"null"` stays the string `null`); `col` is the 1-based
/// character column the cell started at.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Cell {
    text: String,
    raw: bool,
    col: usize,
}

impl Cell {
    fn as_str(&self) -> &str {
        &self.text
    }
}

fn parse_line(line: &str, line_no: usize) -> Result<Vec<Cell>> {
    let mut cells = Vec::new();
    // 1-based character column of the *next* character to read.
    let mut col = 1usize;
    let mut chars = line.chars().peekable();
    loop {
        let mut text = String::new();
        let mut raw = true;
        let cell_col = col;
        if chars.peek() == Some(&'"') {
            raw = false;
            chars.next();
            col += 1;
            loop {
                match chars.next() {
                    Some('"') => {
                        col += 1;
                        if chars.peek() == Some(&'"') {
                            chars.next();
                            col += 1;
                            text.push('"');
                        } else {
                            break;
                        }
                    }
                    Some(c) => {
                        col += 1;
                        text.push(c);
                    }
                    None => {
                        return Err(RelationalError::Csv {
                            line: line_no,
                            col: cell_col,
                            detail: "unterminated quoted cell".into(),
                        })
                    }
                }
            }
        } else {
            while let Some(&c) = chars.peek() {
                if c == ',' {
                    break;
                }
                if c == '"' {
                    return Err(RelationalError::Csv {
                        line: line_no,
                        col,
                        detail: "quote inside unquoted cell".into(),
                    });
                }
                text.push(c);
                chars.next();
                col += 1;
            }
        }
        cells.push(Cell {
            text,
            raw,
            col: cell_col,
        });
        match chars.next() {
            Some(',') => {
                col += 1;
                continue;
            }
            None => break,
            Some(c) => {
                return Err(RelationalError::Csv {
                    line: line_no,
                    col,
                    detail: format!("unexpected character `{c}` after cell"),
                })
            }
        }
    }
    Ok(cells)
}

/// Every CSV read passes the `csv/read` fault site, whose call count
/// is process-global: each test in this binary that reads CSV holds
/// this lock, so no concurrent read advances the count under the
/// fault-armed test.
#[cfg(test)]
fn csv_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Arc<Schema> {
        Schema::of_strs("R", &["name", "cuisine"], &["name"]).unwrap()
    }

    #[test]
    fn round_trip_with_nulls() {
        let _l = csv_lock();
        let mut rel = Relation::new_unchecked(schema());
        rel.insert(Tuple::of_strs(&["villagewok", "chinese"]))
            .unwrap();
        rel.insert(Tuple::new(vec![Value::str("x"), Value::Null]))
            .unwrap();
        let csv = to_csv(&rel);
        let back = from_csv(schema(), &csv).unwrap();
        assert!(rel.same_tuples(&back));
    }

    #[test]
    fn quoting_round_trips_commas_quotes_and_literal_null_string() {
        let _l = csv_lock();
        let mut rel = Relation::new_unchecked(schema());
        rel.insert(Tuple::of_strs(&["a,b", "he said \"hi\""]))
            .unwrap();
        rel.insert(Tuple::of_strs(&["null", "ok"])).unwrap(); // string "null", not NULL
        let csv = to_csv(&rel);
        let back = from_csv(schema(), &csv).unwrap();
        assert!(rel.same_tuples(&back));
        assert_eq!(back.tuples()[1].get(0), &Value::str("null"));
    }

    #[test]
    fn header_mismatch_is_error() {
        let _l = csv_lock();
        let csv = "wrong,header\na,b\n";
        let err = from_csv(schema(), csv).unwrap_err();
        assert!(matches!(err, RelationalError::Csv { line: 1, .. }));
    }

    #[test]
    fn bad_arity_is_error_with_line_number() {
        let _l = csv_lock();
        let csv = "name,cuisine\na\n";
        let err = from_csv(schema(), csv).unwrap_err();
        assert!(matches!(
            err,
            RelationalError::Csv {
                line: 2,
                col: 0,
                ..
            }
        ));
    }

    #[test]
    fn unterminated_quote_is_error_with_column() {
        let _l = csv_lock();
        let csv = "name,cuisine\nabc,\"def\n";
        let err = from_csv(schema(), csv).unwrap_err();
        assert!(
            matches!(
                err,
                RelationalError::Csv {
                    line: 2,
                    col: 5,
                    ..
                }
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains("column 5"), "{err}");
    }

    #[test]
    fn stray_quote_reports_its_column() {
        let _l = csv_lock();
        let csv = "name,cuisine\nab\"c,def\n";
        let err = from_csv(schema(), csv).unwrap_err();
        assert!(
            matches!(
                err,
                RelationalError::Csv {
                    line: 2,
                    col: 3,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn trailing_garbage_after_quoted_cell_reports_column() {
        let _l = csv_lock();
        let csv = "name,cuisine\n\"ab\"x,def\n";
        let err = from_csv(schema(), csv).unwrap_err();
        assert!(
            matches!(
                err,
                RelationalError::Csv {
                    line: 2,
                    col: 5,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn lenient_skips_bad_rows_and_reports_them() {
        let _l = csv_lock();
        let csv = "name,cuisine\ngood1,chinese\nonly-one-cell\ngood2,greek\n\"broken\n";
        let (rel, rejects) = from_csv_lenient(schema(), csv).unwrap();
        assert_eq!(rel.len(), 2);
        assert_eq!(rejects.len(), 2);
        assert_eq!(rejects[0].line, 3);
        assert_eq!(rejects[1].line, 5);
        assert!(rejects[0].error.to_string().contains("expected 2 cells"));
    }

    #[test]
    fn lenient_still_fails_on_bad_header() {
        let _l = csv_lock();
        let csv = "wrong,header\na,b\n";
        assert!(from_csv_lenient(schema(), csv).is_err());
        assert!(from_csv_lenient(schema(), "").is_err());
    }
}

#[cfg(test)]
mod inferred_tests {
    use super::*;

    #[test]
    fn infers_schema_from_header() {
        let _l = csv_lock();
        let csv = "name,cuisine\nvillagewok,chinese\nching,chinese\n";
        let rel = from_csv_inferred("R", csv, &["name"]).unwrap();
        assert_eq!(rel.len(), 2);
        assert_eq!(rel.schema().primary_key().len(), 1);
    }

    #[test]
    fn enforces_declared_key() {
        let _l = csv_lock();
        let csv = "name,cuisine\na,chinese\na,greek\n";
        assert!(from_csv_inferred("R", csv, &["name"]).is_err());
        assert!(from_csv_inferred("R", csv, &["name", "cuisine"]).is_ok());
    }

    #[test]
    fn unknown_key_attribute_is_error() {
        let _l = csv_lock();
        let csv = "name\na\n";
        assert!(from_csv_inferred("R", csv, &["nope"]).is_err());
    }

    #[test]
    fn lenient_inferred_skips_key_violations() {
        let _l = csv_lock();
        let csv = "name,cuisine\na,chinese\na,greek\nb,thai\n";
        let (rel, rejects) = from_csv_inferred_lenient("R", csv, &["name"]).unwrap();
        assert_eq!(rel.len(), 2); // first `a` wins, duplicate skipped
        assert_eq!(rejects.len(), 1);
        assert_eq!(rejects[0].line, 3);
        assert!(matches!(
            rejects[0].error,
            RelationalError::KeyViolation { .. }
        ));
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;

    #[test]
    fn injected_read_error_surfaces_and_lenient_survives_it() {
        // Process-global fault state: this is the only fault-armed
        // test in this crate's test binary, but every CSV-reading test
        // passes `csv/read`, so all of them share `csv_lock`.
        let _l = csv_lock();
        eid_fault::install("csv/read@2", 0).unwrap();
        let csv = "name,cuisine\na,chinese\nb,greek\nc,thai\n";
        let (rel, rejects) = from_csv_lenient(
            Schema::of_strs("R", &["name", "cuisine"], &["name"]).unwrap(),
            csv,
        )
        .unwrap();
        eid_fault::clear();
        assert_eq!(rel.len(), 2);
        assert_eq!(rejects.len(), 1);
        assert_eq!(rejects[0].line, 3);
        assert!(rejects[0].error.to_string().contains("injected"));
    }
}

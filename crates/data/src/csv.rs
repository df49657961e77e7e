//! Minimal CSV import/export for tables.
//!
//! Intended for moving synthetic tables in and out of the library (the
//! datasets themselves are generated in-process). A minimal RFC-4180
//! subset is supported: fields containing commas or double quotes are
//! quoted on write (with `"` escaped as `""`) and unquoted on read, so
//! category names like `"Craft-repair, other"` round-trip. Embedded
//! line breaks are *not* supported — the reader is line-oriented — and
//! are rejected on write. All malformed-input conditions surface as
//! typed [`DataError`]s so callers (notably the CLI) can report them
//! instead of panicking.

use crate::error::DataError;
use crate::schema::Schema;
use crate::table::{Column, Table};
use crate::value::Attribute;
use std::collections::BTreeMap;
use std::io::{BufRead, Lines, Write};

/// First-appearance interner for categorical cells: codes count up in
/// the order values first appear, and lookups go through an ordered
/// map (no hash iteration anywhere, per workspace determinism rules).
/// The one interner behind [`read_csv`] and both ingest passes.
#[derive(Default)]
pub(crate) struct Dict {
    order: Vec<String>,
    index: BTreeMap<String, u32>,
}

impl Dict {
    /// A dictionary whose codes are the positions in `order`.
    pub(crate) fn from_order(order: Vec<String>) -> Dict {
        let mut index = BTreeMap::new();
        for (code, value) in order.iter().enumerate() {
            index.entry(value.clone()).or_insert(code as u32);
        }
        Dict { order, index }
    }

    /// The code of `value`, if it has one.
    pub(crate) fn get(&self, value: &str) -> Option<u32> {
        self.index.get(value).copied()
    }

    /// The code of `value`, assigning the next one on first sight.
    pub(crate) fn intern(&mut self, value: &str) -> u32 {
        if let Some(code) = self.get(value) {
            return code;
        }
        let code = self.order.len() as u32;
        self.order.push(value.to_string());
        self.index.insert(value.to_string(), code);
        code
    }

    /// The values in code order.
    pub(crate) fn order(&self) -> &[String] {
        &self.order
    }

    /// The values in code order, consuming the dictionary.
    pub(crate) fn into_order(self) -> Vec<String> {
        self.order
    }
}

/// Escapes one cell for CSV output. Returns `None` if the cell cannot
/// be written at all (embedded line break); otherwise the cell, quoted
/// if it contains a comma or a double quote.
pub(crate) fn escape_cell(cell: &str) -> Option<String> {
    if cell.contains('\n') || cell.contains('\r') {
        return None;
    }
    if cell.contains(',') || cell.contains('"') {
        Some(format!("\"{}\"", cell.replace('"', "\"\"")))
    } else {
        Some(cell.to_string())
    }
}

/// Splits one CSV line into cells, honoring double-quoted fields with
/// `""` escapes. Unquoted cells are trimmed; quoted cells are preserved
/// verbatim. `line_no` is the one-based input line number used in
/// errors.
pub(crate) fn parse_record(line: &str, line_no: usize) -> Result<Vec<String>, DataError> {
    let mut cells = Vec::new();
    let mut field = String::new();
    let mut in_quotes = false;
    let mut was_quoted = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        if in_quotes {
            if c == '"' {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    field.push('"');
                } else {
                    in_quotes = false;
                }
            } else {
                field.push(c);
            }
        } else {
            match c {
                // An opening quote only starts a quoted field at the
                // beginning of the cell (ignoring leading whitespace);
                // a quote in the middle of a bare cell is literal.
                '"' if !was_quoted && field.trim().is_empty() => {
                    in_quotes = true;
                    was_quoted = true;
                    field.clear();
                }
                ',' => {
                    let cell = if was_quoted {
                        std::mem::take(&mut field)
                    } else {
                        field.trim().to_string()
                    };
                    cells.push(cell);
                    field.clear();
                    was_quoted = false;
                }
                _ => field.push(c),
            }
        }
    }
    if in_quotes {
        return Err(DataError::UnterminatedQuote { line: line_no });
    }
    let cell = if was_quoted {
        field
    } else {
        field.trim().to_string()
    };
    cells.push(cell);
    Ok(cells)
}

/// Reads and checks the header line: every column needs a distinct,
/// non-blank name, and `label`, when given, must name one of them.
/// Returns the raw line and the column names. Shared by [`read_csv`]
/// and streaming ingestion.
pub(crate) fn read_header<B: BufRead>(
    lines: &mut Lines<B>,
    label: Option<&str>,
) -> Result<(String, Vec<String>), DataError> {
    let header = lines.next().ok_or(DataError::EmptyCsv)??;
    let names = parse_record(&header, 1)?;
    for (j, name) in names.iter().enumerate() {
        if name.is_empty() {
            return Err(DataError::BlankColumnName { column: j });
        }
        if names[..j].contains(name) {
            return Err(DataError::DuplicateColumn { name: name.clone() });
        }
    }
    if let Some(l) = label {
        if !names.iter().any(|name| name == l) {
            return Err(DataError::UnknownLabel { name: l.to_string() });
        }
    }
    Ok((header, names))
}

/// Serializes a table as CSV with a header row.
///
/// Fields containing commas or quotes are quoted per RFC-4180. Fails
/// with [`DataError::UnwritableCategory`] if a category name contains a
/// line break (the line-oriented reader could not round-trip it).
pub fn write_csv<W: Write>(table: &Table, mut out: W) -> Result<(), DataError> {
    let mut names = Vec::with_capacity(table.n_attrs());
    for a in table.schema().attrs() {
        let cell = escape_cell(&a.name).ok_or_else(|| DataError::UnwritableCategory {
            name: a.name.clone(),
        })?;
        names.push(cell);
    }
    writeln!(out, "{}", names.join(","))?;
    for i in 0..table.n_rows() {
        let mut cells = Vec::with_capacity(table.n_attrs());
        for j in 0..table.n_attrs() {
            match table.column(j) {
                Column::Num(v) => cells.push(format!("{}", v[i])),
                Column::Cat { codes, categories } => {
                    let name = &categories[codes[i] as usize];
                    let cell = escape_cell(name)
                        .ok_or_else(|| DataError::UnwritableCategory { name: name.clone() })?;
                    cells.push(cell);
                }
            }
        }
        writeln!(out, "{}", cells.join(","))?;
    }
    Ok(())
}

/// Parses CSV produced by [`write_csv`] (or any CSV with a header and
/// at most RFC-4180 quoting, no embedded newlines). Column types are
/// inferred: a column is numerical when every cell parses as a *finite*
/// `f64`, categorical otherwise — except that a fully-parseable column
/// containing NaN or an infinity is a [`DataError::NonFiniteNumber`]
/// rather than a silently poisoned numeric column. `label` optionally
/// names the label column; naming a column that is not in the header is
/// a [`DataError::UnknownLabel`].
pub fn read_csv<R: BufRead>(input: R, label: Option<&str>) -> Result<Table, DataError> {
    let mut lines = input.lines();
    let (_, names) = read_header(&mut lines, label)?;
    let n = names.len();

    let mut cells: Vec<Vec<String>> = vec![Vec::new(); n];
    let mut line_nos: Vec<usize> = Vec::new();
    for (i, line) in lines.enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let line_no = i + 2; // one-based; the header is line 1
        let row = parse_record(&line, line_no)?;
        if row.len() != n {
            return Err(DataError::RaggedRow {
                line: line_no,
                got: row.len(),
                expected: n,
            });
        }
        line_nos.push(line_no);
        for (c, v) in cells.iter_mut().zip(row) {
            c.push(v);
        }
    }

    let mut attrs = Vec::with_capacity(n);
    let mut columns = Vec::with_capacity(n);
    for (name, col) in names.iter().zip(&cells) {
        // Parse each cell at most once: the column is numerical only if
        // every cell parses, in which case `parsed` holds all values.
        let mut parsed = Vec::with_capacity(col.len());
        for v in col {
            match v.parse::<f64>() {
                Ok(x) => parsed.push(x),
                Err(_) => break,
            }
        }
        let all_numeric = !col.is_empty() && parsed.len() == col.len();
        let force_categorical = label == Some(name.as_str());
        if all_numeric && !force_categorical {
            if let Some(bad) = parsed.iter().position(|x| !x.is_finite()) {
                return Err(DataError::NonFiniteNumber {
                    line: line_nos[bad],
                    column: name.clone(),
                    value: col[bad].clone(),
                });
            }
            attrs.push(Attribute::numerical(name.clone()));
            columns.push(Column::Num(parsed));
        } else {
            attrs.push(Attribute::categorical(name.clone()));
            let mut dict = Dict::default();
            let codes = col.iter().map(|v| dict.intern(v)).collect();
            columns.push(Column::Cat {
                codes,
                categories: dict.into_order(),
            });
        }
    }
    let schema = match label.and_then(|l| names.iter().position(|n| n == l)) {
        Some(idx) => Schema::with_label(attrs, idx),
        None => Schema::new(attrs),
    };
    Ok(Table::new(schema, columns))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{AttrType, Value};

    fn demo() -> Table {
        let schema = Schema::with_label(
            vec![
                Attribute::numerical("age"),
                Attribute::categorical("income"),
            ],
            1,
        );
        Table::new(
            schema,
            vec![
                Column::Num(vec![38.0, 51.5]),
                Column::Cat {
                    codes: vec![0, 1],
                    categories: vec!["<=50K".into(), ">50K".into()],
                },
            ],
        )
    }

    #[test]
    fn roundtrip() {
        let t = demo();
        let mut buf = Vec::new();
        write_csv(&t, &mut buf).unwrap();
        let back = read_csv(&buf[..], Some("income")).unwrap();
        assert_eq!(back.n_rows(), 2);
        assert_eq!(back.schema().label(), Some(1));
        assert_eq!(back.row(1), vec![Value::Num(51.5), Value::Cat(1)]);
    }

    #[test]
    fn header_only_is_empty_table() {
        let t = read_csv("a,b\n".as_bytes(), None).unwrap();
        assert_eq!(t.n_rows(), 0);
    }

    #[test]
    fn numeric_label_forced_categorical() {
        let csv = "x,y\n1.0,0\n2.0,1\n3.0,0\n";
        let t = read_csv(csv.as_bytes(), Some("y")).unwrap();
        assert_eq!(t.schema().attr(1).ty, AttrType::Categorical);
        assert_eq!(t.labels(), &[0, 1, 0]);
    }

    #[test]
    fn ragged_row_rejected() {
        let csv = "a,b\n1,2\n3\n";
        let Err(e) = read_csv(csv.as_bytes(), None) else {
            panic!("ragged row must be rejected");
        };
        assert!(matches!(
            e,
            DataError::RaggedRow {
                line: 3,
                got: 1,
                expected: 2
            }
        ));
    }

    #[test]
    fn empty_input_rejected() {
        let Err(e) = read_csv("".as_bytes(), None) else {
            panic!("empty input must be rejected");
        };
        assert!(matches!(e, DataError::EmptyCsv));
    }

    #[test]
    fn blank_and_duplicate_headers_rejected() {
        let Err(e) = read_csv("a,,c\n1,2,3\n".as_bytes(), None) else {
            panic!("blank header must be rejected");
        };
        assert!(matches!(e, DataError::BlankColumnName { column: 1 }));

        let Err(e) = read_csv("a,b,a\n1,2,3\n".as_bytes(), None) else {
            panic!("duplicate header must be rejected");
        };
        assert!(matches!(e, DataError::DuplicateColumn { name } if name == "a"));
    }

    #[test]
    fn missing_label_column_rejected() {
        let Err(e) = read_csv("a,b\n1,2\n".as_bytes(), Some("income")) else {
            panic!("unknown label must be rejected");
        };
        assert!(matches!(e, DataError::UnknownLabel { name } if name == "income"));
    }

    #[test]
    fn comma_category_roundtrips_quoted() {
        let schema = Schema::new(vec![Attribute::categorical("c")]);
        let t = Table::new(
            schema,
            vec![Column::Cat {
                codes: vec![0, 1],
                categories: vec!["Craft-repair, other".into(), "say \"hi\"".into()],
            }],
        );
        let mut buf = Vec::new();
        write_csv(&t, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.contains("\"Craft-repair, other\""));
        assert!(text.contains("\"say \"\"hi\"\"\""));
        let back = read_csv(&buf[..], None).unwrap();
        let Column::Cat { categories, .. } = back.column(0) else {
            panic!("expected categorical column");
        };
        assert_eq!(
            categories,
            &["Craft-repair, other".to_string(), "say \"hi\"".to_string()]
        );
    }

    #[test]
    fn quoted_header_roundtrips() {
        let csv = "\"a,b\",c\n1,2\n";
        let t = read_csv(csv.as_bytes(), None).unwrap();
        assert_eq!(t.schema().attr(0).name, "a,b");
        let mut buf = Vec::new();
        write_csv(&t, &mut buf).unwrap();
        let back = read_csv(&buf[..], None).unwrap();
        assert_eq!(back.schema().attr(0).name, "a,b");
    }

    #[test]
    fn newline_category_rejected_on_write() {
        let schema = Schema::new(vec![Attribute::categorical("c")]);
        let t = Table::new(
            schema,
            vec![Column::Cat {
                codes: vec![0],
                categories: vec!["a\nb".into()],
            }],
        );
        let Err(e) = write_csv(&t, Vec::new()) else {
            panic!("newline category must be rejected");
        };
        assert!(matches!(e, DataError::UnwritableCategory { name } if name == "a\nb"));
    }

    #[test]
    fn unterminated_quote_rejected() {
        let csv = "a,b\n\"oops,2\n";
        let Err(e) = read_csv(csv.as_bytes(), None) else {
            panic!("unterminated quote must be rejected");
        };
        assert!(matches!(e, DataError::UnterminatedQuote { line: 2 }));
    }

    #[test]
    fn non_finite_numeric_cell_rejected() {
        for bad in ["NaN", "inf", "-inf", "infinity"] {
            let csv = format!("x\n1.0\n{bad}\n3.0\n");
            let Err(e) = read_csv(csv.as_bytes(), None) else {
                panic!("non-finite cell {bad} must be rejected");
            };
            assert!(
                matches!(e, DataError::NonFiniteNumber { line: 3, ref column, .. } if column == "x"),
                "unexpected error for {bad}: {e}"
            );
        }
        // A categorical column may legitimately contain the *string*
        // "NaN" among non-numeric values; that stays a category.
        let t = read_csv("x\napple\nNaN\n".as_bytes(), None).unwrap();
        assert_eq!(t.schema().attr(0).ty, AttrType::Categorical);
    }
}

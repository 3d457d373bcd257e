//! Matrix Market (`.mtx`) coordinate-format I/O.
//!
//! The paper's real-world datasets (soc-orkut, soc-LiveJournal1, …) ship as
//! Matrix Market files from the UF Sparse Matrix Collection / Network
//! Repository. Our experiments default to synthetic stand-ins, but every
//! harness binary accepts an `.mtx` path so the originals can be dropped in
//! unchanged when available.
//!
//! Supported: `matrix coordinate {real|integer|pattern} {general|symmetric}`.
//! [`read_coo`] reads pattern entries as value `1.0` for weighted callers;
//! [`read_coo_pattern`] loads any supported file structure-only as
//! `Coo<bool>` with no fabricated weights. Symmetric files are expanded to
//! both triangles on read. [`read_csr`] / [`read_csr_pattern`] go straight
//! to a CSR through the *checked* [`Csr::try_from_coo`], so duplicate
//! entries in a file are refused even in release builds.

use crate::{Coo, Csr, VertexId};
use std::fmt;
use std::io::{BufRead, Write};

/// Errors from Matrix Market parsing.
#[derive(Debug)]
pub enum MmError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structurally invalid file, with a human-readable reason.
    Parse(String),
}

impl fmt::Display for MmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MmError::Io(e) => write!(f, "I/O error: {e}"),
            MmError::Parse(msg) => write!(f, "Matrix Market parse error: {msg}"),
        }
    }
}

impl std::error::Error for MmError {}

impl From<std::io::Error> for MmError {
    fn from(e: std::io::Error) -> Self {
        MmError::Io(e)
    }
}

/// Most entries a reader reserves from a header's `nnz` before reading any.
const RESERVE_CAP: usize = 1 << 20;

fn parse_err(msg: impl Into<String>) -> MmError {
    MmError::Parse(msg.into())
}

/// How a parsed entry line's value tokens map into the element type: a
/// pattern line has no value token, a real/integer line has one.
enum ValueTokens<'a> {
    Pattern,
    One(&'a str),
}

/// Read a coordinate-format Matrix Market stream into a [`Coo<f64>`].
/// Pattern entries read as `1.0` (kept for callers that feed weighted
/// kernels); use [`read_coo_pattern`] to load a pattern file without
/// fabricating weights.
pub fn read_coo<R: BufRead>(reader: R) -> Result<Coo<f64>, MmError> {
    read_coo_with(reader, |tokens| match tokens {
        ValueTokens::Pattern => Ok(1.0),
        ValueTokens::One(tok) => tok
            .parse()
            .map_err(|e| parse_err(format!("bad value: {e}"))),
    })
}

/// Read any supported coordinate file as a *structure-only* [`Coo<bool>`]:
/// pattern files load without fabricated weights, and real/integer files
/// load with their values discarded (every stored entry becomes `true`).
pub fn read_coo_pattern<R: BufRead>(reader: R) -> Result<Coo<bool>, MmError> {
    read_coo_with(reader, |_| Ok(true))
}

/// Generic coordinate reader: header/size/symmetry handling shared, the
/// element type decided by `value` (which sees the line's value tokens —
/// [`ValueTokens::Pattern`] when the file is `pattern`).
fn read_coo_with<R: BufRead, V: Copy, F>(reader: R, value: F) -> Result<Coo<V>, MmError>
where
    F: Fn(ValueTokens<'_>) -> Result<V, MmError>,
{
    let mut lines = reader.lines();
    let header = lines.next().ok_or_else(|| parse_err("empty file"))??;
    let fields: Vec<&str> = header.split_whitespace().collect();
    if fields.len() < 5 || !fields[0].eq_ignore_ascii_case("%%MatrixMarket") {
        return Err(parse_err("missing %%MatrixMarket header"));
    }
    if !fields[1].eq_ignore_ascii_case("matrix") || !fields[2].eq_ignore_ascii_case("coordinate") {
        return Err(parse_err("only `matrix coordinate` is supported"));
    }
    let field_ty = fields[3].to_ascii_lowercase();
    let pattern = match field_ty.as_str() {
        "real" | "integer" => false,
        "pattern" => true,
        other => return Err(parse_err(format!("unsupported field type `{other}`"))),
    };
    let symmetry = fields[4].to_ascii_lowercase();
    let symmetric = match symmetry.as_str() {
        "general" => false,
        "symmetric" => true,
        other => return Err(parse_err(format!("unsupported symmetry `{other}`"))),
    };

    // Skip comments, find the size line.
    let size_line = loop {
        let line = lines
            .next()
            .ok_or_else(|| parse_err("missing size line"))??;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        break line;
    };
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|t| t.parse::<usize>())
        .collect::<Result<_, _>>()
        .map_err(|e| parse_err(format!("bad size line: {e}")))?;
    if dims.len() != 3 {
        return Err(parse_err("size line must be `rows cols nnz`"));
    }
    let (n_rows, n_cols, nnz) = (dims[0], dims[1], dims[2]);
    // Vertex ids are u32: larger dimensions cannot be indexed.
    if n_rows > u32::MAX as usize || n_cols > u32::MAX as usize {
        return Err(parse_err(format!(
            "dimensions {n_rows} x {n_cols} exceed the u32 vertex-id range"
        )));
    }

    let mut coo = Coo::new(n_rows, n_cols);
    // The header's nnz is untrusted: reserve at most RESERVE_CAP entries up
    // front and let a genuinely large file grow the buffer as it is read.
    let expected = if symmetric {
        nnz.checked_mul(2)
    } else {
        Some(nnz)
    };
    coo.reserve(expected.map_or(RESERVE_CAP, |e| e.min(RESERVE_CAP)));
    let mut read = 0usize;
    for line in lines {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let r: usize = it
            .next()
            .ok_or_else(|| parse_err("missing row index"))?
            .parse()
            .map_err(|e| parse_err(format!("bad row index: {e}")))?;
        let c: usize = it
            .next()
            .ok_or_else(|| parse_err("missing col index"))?
            .parse()
            .map_err(|e| parse_err(format!("bad col index: {e}")))?;
        let v: V = if pattern {
            value(ValueTokens::Pattern)?
        } else {
            value(ValueTokens::One(
                it.next().ok_or_else(|| parse_err("missing value"))?,
            ))?
        };
        if r == 0 || c == 0 || r > n_rows || c > n_cols {
            return Err(parse_err(format!("entry ({r},{c}) out of 1-based bounds")));
        }
        let (r0, c0) = ((r - 1) as VertexId, (c - 1) as VertexId);
        coo.push(r0, c0, v);
        if symmetric && r0 != c0 {
            coo.push(c0, r0, v);
        }
        read += 1;
    }
    if read != nnz {
        return Err(parse_err(format!("expected {nnz} entries, found {read}")));
    }
    Ok(coo)
}

/// Read a Matrix Market file from disk.
pub fn read_coo_file(path: &std::path::Path) -> Result<Coo<f64>, MmError> {
    let file = std::fs::File::open(path)?;
    read_coo(std::io::BufReader::new(file))
}

/// Read a pattern-structure Matrix Market file from disk (see
/// [`read_coo_pattern`]).
pub fn read_coo_pattern_file(path: &std::path::Path) -> Result<Coo<bool>, MmError> {
    let file = std::fs::File::open(path)?;
    read_coo_pattern(std::io::BufReader::new(file))
}

/// Read a coordinate stream straight into a checked CSR: parsing via
/// [`read_coo`], duplicate collapse *verified* (not debug-asserted) via
/// [`Csr::try_from_coo`], so a malformed file — duplicate entries, a
/// symmetric file listing both triangles — surfaces as an [`MmError`]
/// instead of a silently corrupt CSR in release builds.
pub fn read_csr<R: BufRead>(reader: R) -> Result<Csr<f64>, MmError> {
    Csr::try_from_coo(&read_coo(reader)?)
}

/// Structure-only variant of [`read_csr`] (see [`read_coo_pattern`]).
pub fn read_csr_pattern<R: BufRead>(reader: R) -> Result<Csr<bool>, MmError> {
    Csr::try_from_coo(&read_coo_pattern(reader)?)
}

/// Write a COO as `matrix coordinate real general`.
pub fn write_coo<W: Write>(mut writer: W, coo: &Coo<f64>) -> Result<(), MmError> {
    writeln!(writer, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(writer, "{} {} {}", coo.n_rows(), coo.n_cols(), coo.nnz())?;
    for &(r, c, v) in coo.entries() {
        writeln!(writer, "{} {} {}", r + 1, c + 1, v)?;
    }
    Ok(())
}

/// Write a structure-only COO as `matrix coordinate pattern general` —
/// entry lines carry indices only, no fabricated weights.
pub fn write_coo_pattern<W: Write, V: Copy>(mut writer: W, coo: &Coo<V>) -> Result<(), MmError> {
    writeln!(writer, "%%MatrixMarket matrix coordinate pattern general")?;
    writeln!(writer, "{} {} {}", coo.n_rows(), coo.n_cols(), coo.nnz())?;
    for &(r, c, _) in coo.entries() {
        writeln!(writer, "{} {}", r + 1, c + 1)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn oversized_headers_are_parse_errors() {
        for text in [
            // Rows beyond the u32 vertex-id range.
            "%%MatrixMarket matrix coordinate real general\n5000000000 3 0\n",
            // An nnz no buffer could hold.
            "%%MatrixMarket matrix coordinate real general\n3 3 18446744073709551615\n",
            // An nnz whose symmetric doubling overflows.
            "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 9223372036854775808\n",
        ] {
            assert!(
                matches!(read_coo(Cursor::new(text)), Err(MmError::Parse(_))),
                "{text:?}"
            );
        }
    }

    #[test]
    fn read_general_real() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    % a comment\n\
                    3 3 2\n\
                    1 2 5.0\n\
                    3 1 -1.5\n";
        let coo = read_coo(Cursor::new(text)).expect("parses");
        assert_eq!(coo.n_rows(), 3);
        assert_eq!(coo.nnz(), 2);
        assert!(coo.entries().contains(&(0, 1, 5.0)));
        assert!(coo.entries().contains(&(2, 0, -1.5)));
    }

    #[test]
    fn read_pattern_symmetric_expands() {
        let text = "%%MatrixMarket matrix coordinate pattern symmetric\n\
                    3 3 2\n\
                    2 1\n\
                    3 3\n";
        let coo = read_coo(Cursor::new(text)).expect("parses");
        // (2,1) expands to (1,0) and (0,1); diagonal (3,3) stays single.
        assert_eq!(coo.nnz(), 3);
        assert!(coo.entries().contains(&(1, 0, 1.0)));
        assert!(coo.entries().contains(&(0, 1, 1.0)));
        assert!(coo.entries().contains(&(2, 2, 1.0)));
    }

    #[test]
    fn roundtrip_write_read() {
        let mut coo = Coo::new(4, 4);
        coo.push(0, 3, 2.5);
        coo.push(2, 1, -7.0);
        let mut buf = Vec::new();
        write_coo(&mut buf, &coo).expect("writes");
        let back = read_coo(Cursor::new(buf)).expect("reads");
        assert_eq!(back.n_rows(), 4);
        assert_eq!(back.entries(), coo.entries());
    }

    #[test]
    fn pattern_reader_skips_fake_weights() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n\
                    3 3 2\n\
                    1 2\n\
                    3 1\n";
        let coo = read_coo_pattern(Cursor::new(text)).expect("parses");
        assert_eq!(coo.nnz(), 2);
        assert!(coo.entries().contains(&(0, 1, true)));
        // The same reader accepts weighted files structure-only.
        let weighted = "%%MatrixMarket matrix coordinate real general\n1 2 1\n1 2 -3.5\n";
        let coo = read_coo_pattern(Cursor::new(weighted)).expect("parses");
        assert_eq!(coo.entries(), &[(0, 1, true)]);
    }

    #[test]
    fn pattern_roundtrip_write_read() {
        let mut coo = Coo::new(4, 5);
        coo.push(0, 3, true);
        coo.push(2, 1, true);
        coo.push(3, 4, true);
        let mut buf = Vec::new();
        write_coo_pattern(&mut buf, &coo).expect("writes");
        let text = String::from_utf8(buf.clone()).expect("utf8");
        assert!(text.starts_with("%%MatrixMarket matrix coordinate pattern general"));
        assert!(!text.contains("1.0"), "no fabricated weights on disk");
        let back = read_coo_pattern(Cursor::new(buf)).expect("reads");
        assert_eq!(back.n_rows(), 4);
        assert_eq!(back.n_cols(), 5);
        assert_eq!(back.entries(), coo.entries());
    }

    #[test]
    fn read_csr_verifies_duplicates_in_release() {
        let clean = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 2 1.0\n2 1 2.0\n";
        let m = read_csr(Cursor::new(clean)).expect("clean file loads");
        assert_eq!(m.nnz(), 2);
        // A file listing the same entry twice must be refused, not built.
        let dup = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 2 1.0\n1 2 2.0\n";
        let err = read_csr(Cursor::new(dup)).expect_err("duplicates refused");
        assert!(err.to_string().contains("duplicate entry"));
        // Same check on the pattern route.
        let dup_p = "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 2\n1 2\n";
        assert!(read_csr_pattern(Cursor::new(dup_p)).is_err());
    }

    #[test]
    fn rejects_bad_header() {
        let r = read_coo(Cursor::new("%%NotMatrixMarket x\n1 1 0\n"));
        assert!(matches!(r, Err(MmError::Parse(_))));
    }

    #[test]
    fn rejects_wrong_count() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n";
        assert!(matches!(
            read_coo(Cursor::new(text)),
            Err(MmError::Parse(_))
        ));
    }

    #[test]
    fn rejects_out_of_bounds_entry() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        assert!(matches!(
            read_coo(Cursor::new(text)),
            Err(MmError::Parse(_))
        ));
    }

    #[test]
    fn rejects_unsupported_field() {
        let text = "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n";
        assert!(matches!(
            read_coo(Cursor::new(text)),
            Err(MmError::Parse(_))
        ));
    }
}

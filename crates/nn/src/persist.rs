//! Persistence: the one module that knows how a file is written and
//! read back.
//!
//! Checkpoints (this module's format), training state
//! (`gcwc::TrainState`) and `gcwc-ingest`'s log segments and manifest
//! are whitespace-separated text. Each is written whole by
//! [`write_atomic`] (no fsync: the files survive a killed process, not
//! a power loss) and read back by the bounded token [`Reader`].
//!
//! A checkpoint is a `gcwc-checkpoint v1 <arch>` header line, then one
//! `param <name> <rows> <cols>` line per tensor followed by its
//! row-major values as hexadecimal IEEE-754 bit patterns ([`push_hex`];
//! a lossless round trip). Loading checks the architecture token and
//! each parameter's name and shape against the target store
//! ([`expect_param`]), so a checkpoint can only be restored into a model
//! with the identical architecture.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::str::FromStr;

use gcwc_linalg::Matrix;

use crate::params::{Param, ParamStore};

/// Errors from writing or reading a persisted file.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying file error.
    File(std::io::Error),
    /// The bytes are not a well-formed file of the expected format.
    Format(String),
    /// A well-formed file of another model.
    Mismatch(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::File(e) => write!(f, "file error: {e}"),
            PersistError::Format(m) => write!(f, "malformed file: {m}"),
            PersistError::Mismatch(m) => write!(f, "checkpoint mismatch: {m}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::File(e)
    }
}

/// Leading words of the checkpoint header line: keyword and version.
const HEADER: &str = "gcwc-checkpoint v1";

/// The scratch file [`write_atomic`] renames over `path`: `<path>.tmp`.
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    tmp.into()
}

/// Writes `text` to [`tmp_path`], then renames it over `path`, so
/// `path` holds either its previous contents or all of `text`.
pub fn write_atomic(path: &Path, text: &str) -> std::io::Result<()> {
    let tmp = tmp_path(path);
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)
}

/// Appends `values`, each written by `write`, `per_line` to a line and
/// each line ended by `'\n'`.
pub fn push_lines<T>(
    out: &mut String,
    values: &[T],
    per_line: usize,
    write: impl Fn(&mut String, &T) -> std::fmt::Result,
) {
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(if i % per_line == 0 { '\n' } else { ' ' });
        }
        let _ = write(out, v);
    }
    if !values.is_empty() {
        out.push('\n');
    }
}

/// Appends `values` as `{:016x}` bit patterns, eight to a line.
pub fn push_hex(out: &mut String, values: &[f64]) {
    push_lines(out, values, 8, |out, v| write!(out, "{:016x}", v.to_bits()));
}

/// Reads text front to back as tokens separated by ASCII whitespace
/// (line breaks carry no meaning). Every failure is a
/// [`PersistError::Format`] naming what was expected.
#[derive(Debug)]
pub struct Reader<'a> {
    rest: &'a str,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Self { rest: text }
    }

    /// The next token and the text after it; `None` at the end.
    fn split(&self) -> Option<(&'a str, &'a str)> {
        let bytes = self.rest.as_bytes();
        let start = bytes.iter().position(|b| !b.is_ascii_whitespace())?;
        let end = bytes[start..].iter().position(u8::is_ascii_whitespace).map(|n| start + n);
        // Both ends border an ASCII byte or an end, so they are char
        // boundaries.
        Some(self.rest[start..].split_at(end.unwrap_or(bytes.len()) - start))
    }

    /// The next token without consuming it; `None` at the end.
    fn peek(&self) -> Option<&'a str> {
        self.split().map(|(token, _)| token)
    }

    /// The next token; `what` names it in the error at the end.
    pub fn next(&mut self, what: &str) -> Result<&'a str, PersistError> {
        let (token, rest) = self.split().ok_or_else(|| expected(what, None))?;
        self.rest = rest;
        Ok(token)
    }

    /// Consumes the whitespace-separated words of `words` in order,
    /// refusing any other token.
    pub fn expect(&mut self, words: &str) -> Result<(), PersistError> {
        for word in words.split_ascii_whitespace() {
            match self.split() {
                Some((token, rest)) if token == word => self.rest = rest,
                found => return Err(expected(format_args!("'{word}'"), found.map(|f| f.0))),
            }
        }
        Ok(())
    }

    /// The next token as a decimal number.
    pub fn number<T: FromStr>(&mut self, what: &str) -> Result<T, PersistError> {
        let token = self.next(what)?;
        token.parse().map_err(|_| expected(what, Some(token)))
    }

    /// The next token as a hexadecimal bit pattern.
    pub fn hex(&mut self, what: &str) -> Result<u64, PersistError> {
        let token = self.next(what)?;
        u64::from_str_radix(token, 16).map_err(|_| expected(what, Some(token)))
    }

    /// The next token as an `f64` written as its hex bit pattern.
    pub fn f64(&mut self, what: &str) -> Result<f64, PersistError> {
        self.hex(what).map(f64::from_bits)
    }

    /// `count` items read by `item`, each at least `tokens_each` tokens
    /// long. Reserves room for no more items than the rest of the input
    /// holds (at most `(len + 1) / 2` tokens), so a count larger than
    /// the input fails when the tokens run out, never on allocating.
    pub fn list<T>(
        &mut self,
        count: usize,
        tokens_each: usize,
        mut item: impl FnMut(&mut Self) -> Result<T, PersistError>,
    ) -> Result<Vec<T>, PersistError> {
        let room = self.rest.len().div_ceil(2) / tokens_each;
        let mut out = Vec::with_capacity(count.min(room));
        for _ in 0..count {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// A `rows × cols` matrix of row-major hex values. A shape whose
    /// size overflows asks for more values than any input holds.
    pub fn matrix(&mut self, rows: usize, cols: usize, what: &str) -> Result<Matrix, PersistError> {
        let data = self.list(rows.saturating_mul(cols), 1, |r| r.f64(what))?;
        Ok(Matrix::from_vec(rows, cols, data))
    }

    /// Ends the read, refusing any token left over.
    pub fn finish(self) -> Result<(), PersistError> {
        self.peek().map_or(Ok(()), |token| Err(expected("end of input", Some(token))))
    }
}

/// The error for finding `found` (`None`: the end) where `what` belongs.
fn expected(what: impl std::fmt::Display, found: Option<&str>) -> PersistError {
    PersistError::Format(match found {
        Some(token) => format!("expected {what}, found '{token}'"),
        None => format!("expected {what}, found end of input"),
    })
}

/// Checks that a file's parameter `name` of `shape` is the store's `p`:
/// anything else is a file of another model.
pub fn expect_param(p: &Param, name: &str, shape: (usize, usize)) -> Result<(), PersistError> {
    let mismatch = if p.name != name {
        format!("expected parameter '{}', the file has '{name}'", p.name)
    } else if p.value.shape() != shape {
        format!("parameter '{name}': shape {:?}, the file's {shape:?}", p.value.shape())
    } else {
        return Ok(());
    };
    Err(PersistError::Mismatch(mismatch))
}

/// Serialises all parameter values (not gradients) to the checkpoint
/// format with an architecture token in the header line.
///
/// `arch` must be a single whitespace-free token (it shares one line
/// with the format version); whitespace is replaced by `_`.
pub fn to_checkpoint_with_arch(store: &ParamStore, arch: &str) -> String {
    let arch: String = arch.chars().map(|c| if c.is_whitespace() { '_' } else { c }).collect();
    let mut out = format!("{HEADER} {arch}\n");
    for (_, p) in store.iter() {
        let _ = writeln!(out, "param {} {} {}", p.name, p.value.rows(), p.value.cols());
        push_hex(&mut out, p.value.as_slice());
        if p.value.as_slice().is_empty() {
            out.push('\n'); // an empty parameter's empty value line
        }
    }
    out
}

/// Saves a parameter store to a file with an architecture token.
pub fn save_with_arch(store: &ParamStore, path: &Path, arch: &str) -> Result<(), PersistError> {
    write_atomic(path, &to_checkpoint_with_arch(store, arch))?;
    Ok(())
}

/// Restores parameter values from checkpoint text into `store`.
///
/// The architecture token must be `expected_arch`, and every parameter
/// in the store must appear in the checkpoint with the same name, order
/// and shape ([`PersistError::Mismatch`] otherwise). Values are read
/// straight into the store, so after an error it holds a mix of old and
/// new values and should be discarded.
pub fn from_checkpoint_expecting(
    store: &mut ParamStore,
    content: &str,
    expected_arch: &str,
) -> Result<(), PersistError> {
    let mut r = Reader::new(content);
    r.expect(HEADER)?;
    let arch = r.next("an architecture token")?;
    if arch != expected_arch {
        return Err(PersistError::Mismatch(format!(
            "architecture '{arch}' in checkpoint, model expects '{expected_arch}'"
        )));
    }
    for (_, p) in store.iter_mut() {
        r.expect("param")?;
        let name = r.next("a parameter name")?;
        let shape = (r.number("a row count")?, r.number("a column count")?);
        expect_param(p, name, shape)?;
        for v in p.value.as_mut_slice() {
            *v = r.f64("a parameter value")?;
        }
    }
    if r.peek() == Some("param") {
        return Err(PersistError::Mismatch("checkpoint has more parameters than the model".into()));
    }
    r.finish()
}

/// Loads a checkpoint file into `store`, checking its architecture
/// token (see [`from_checkpoint_expecting`]).
pub fn load_expecting(
    store: &mut ParamStore,
    path: &Path,
    expected_arch: &str,
) -> Result<(), PersistError> {
    from_checkpoint_expecting(store, &std::fs::read_to_string(path)?, expected_arch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcwc_linalg::rng::seeded;

    const ARCH: &str = "gcwc:n3:m4";

    fn sample_store() -> ParamStore {
        let mut store = ParamStore::new();
        let mut rng = seeded(1);
        store.add("layer.w", crate::init::glorot_uniform(&mut rng, 3, 4));
        store.add("layer.b", Matrix::from_rows(&[&[0.5, -1.25, 3.75e-7]]));
        store
    }

    #[test]
    fn roundtrip_is_lossless() {
        let store = sample_store();
        let text = to_checkpoint_with_arch(&store, ARCH);
        let mut restored = sample_store();
        // Perturb before loading so we know loading does the work.
        restored.value_mut(crate::params::ParamId(0)).as_mut_slice()[0] = 99.0;
        from_checkpoint_expecting(&mut restored, &text, ARCH).unwrap();
        for ((_, a), (_, b)) in store.iter().zip(restored.iter()) {
            assert_eq!(a.value, b.value, "{} must round-trip exactly", a.name);
        }
    }

    #[test]
    fn file_roundtrip() {
        let store = sample_store();
        let dir = std::env::temp_dir().join("gcwc_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.ckpt");
        save_with_arch(&store, &path, ARCH).unwrap();
        assert!(!tmp_path(&path).exists());
        let mut restored = sample_store();
        load_expecting(&mut restored, &path, ARCH).unwrap();
        assert_eq!(
            store.value(crate::params::ParamId(1)),
            restored.value(crate::params::ParamId(1))
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn name_mismatch_is_rejected() {
        let store = sample_store();
        let text = to_checkpoint_with_arch(&store, ARCH);
        let mut other = ParamStore::new();
        other.add("different.name", Matrix::zeros(3, 4));
        other.add("layer.b", Matrix::zeros(1, 3));
        let err = from_checkpoint_expecting(&mut other, &text, ARCH).unwrap_err();
        assert!(matches!(err, PersistError::Mismatch(_)), "{err}");
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let store = sample_store();
        let text = to_checkpoint_with_arch(&store, ARCH);
        let mut other = ParamStore::new();
        other.add("layer.w", Matrix::zeros(4, 3)); // transposed shape
        other.add("layer.b", Matrix::zeros(1, 3));
        let err = from_checkpoint_expecting(&mut other, &text, ARCH).unwrap_err();
        assert!(matches!(err, PersistError::Mismatch(_)), "{err}");
    }

    #[test]
    fn truncated_checkpoint_is_rejected() {
        let store = sample_store();
        let text = to_checkpoint_with_arch(&store, ARCH);
        let cut = &text[..text.len() / 2];
        let mut other = sample_store();
        let err = from_checkpoint_expecting(&mut other, cut, ARCH).unwrap_err();
        assert!(matches!(err, PersistError::Format(_)), "{err}");
    }

    #[test]
    fn arch_header_roundtrips() {
        let store = sample_store();
        let text = to_checkpoint_with_arch(&store, ARCH);
        assert!(text.starts_with("gcwc-checkpoint v1 gcwc:n3:m4\n"));
        let mut restored = sample_store();
        from_checkpoint_expecting(&mut restored, &text, ARCH).unwrap();
        for ((_, a), (_, b)) in store.iter().zip(restored.iter()) {
            assert_eq!(a.value, b.value);
        }
    }

    #[test]
    fn arch_whitespace_is_sanitised() {
        let text = to_checkpoint_with_arch(&sample_store(), "two words");
        assert!(text.starts_with("gcwc-checkpoint v1 two_words\n"));
        from_checkpoint_expecting(&mut sample_store(), &text, "two_words").unwrap();
    }

    #[test]
    fn arch_mismatch_is_rejected() {
        let store = sample_store();
        let text = to_checkpoint_with_arch(&store, ARCH);
        let mut restored = sample_store();
        let err = from_checkpoint_expecting(&mut restored, &text, "gcwc:n9:m9").unwrap_err();
        assert!(matches!(err, PersistError::Mismatch(_)), "{err}");
    }

    /// No writer produces a checkpoint without its header line.
    #[test]
    fn headerless_checkpoint_is_refused() {
        let text = to_checkpoint_with_arch(&sample_store(), ARCH);
        let headerless = text.split_once('\n').unwrap().1;
        let err = from_checkpoint_expecting(&mut sample_store(), headerless, ARCH).unwrap_err();
        assert!(matches!(err, PersistError::Format(_)), "{err}");
    }

    /// `#` starts no comment: a `#` line is stray tokens.
    #[test]
    fn comment_lines_are_refused() {
        let text = to_checkpoint_with_arch(&sample_store(), ARCH);
        let (header, body) = text.split_once('\n').unwrap();
        for commented in [format!("# note\n{text}"), format!("{header}\n# note\n{body}")] {
            let err = from_checkpoint_expecting(&mut sample_store(), &commented, ARCH).unwrap_err();
            assert!(matches!(err, PersistError::Format(_)), "{err}");
        }
    }

    /// `unspecified` is an architecture token like any other.
    #[test]
    fn unspecified_architecture_is_refused() {
        let text = to_checkpoint_with_arch(&sample_store(), "unspecified");
        let err = from_checkpoint_expecting(&mut sample_store(), &text, ARCH).unwrap_err();
        assert!(matches!(err, PersistError::Mismatch(_)), "{err}");
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let text = "gcwc-checkpoint v99 arch\n";
        let mut store = sample_store();
        let err = from_checkpoint_expecting(&mut store, text, ARCH).unwrap_err();
        assert!(matches!(err, PersistError::Format(_)), "{err}");
    }

    #[test]
    fn extra_parameters_are_rejected() {
        let store = sample_store();
        let text = to_checkpoint_with_arch(&store, ARCH);
        let mut small = ParamStore::new();
        small.add("layer.w", Matrix::zeros(3, 4));
        let err = from_checkpoint_expecting(&mut small, &text, ARCH).unwrap_err();
        assert!(matches!(err, PersistError::Mismatch(_)), "{err}");
    }
}

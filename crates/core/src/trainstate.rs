//! Mid-run training state persistence for checkpoint-and-resume.
//!
//! A [`TrainState`] captures everything `run_training` needs to
//! continue a run exactly where it stopped: the parameter values, the
//! Adam moments and counters, the master RNG's raw state, the current
//! shuffle order, and the epoch losses recorded so far. The format is
//! the same dependency-free text-plus-hex style as `gcwc_nn::persist`
//! (lossless IEEE-754 round trip), so a run killed between epochs and
//! restarted with `resume` reproduces the uninterrupted run bit for
//! bit.
//!
//! Files are written atomically: the state is serialised to a `.tmp`
//! sibling and renamed over the target, so a crash mid-write leaves
//! either the previous complete state or none at all — never a torn
//! file.

use std::path::Path;

use gcwc_linalg::Matrix;
use gcwc_nn::{AdamState, ParamStore, PersistError};

/// Leading keyword of the training-state header line.
const HEADER: &str = "gcwc-trainstate";

/// Current training-state format version.
pub const FORMAT_VERSION: u32 = 1;

/// A complete snapshot of an in-progress training run at an epoch
/// boundary.
#[derive(Clone, Debug, Default)]
pub struct TrainState {
    /// Epochs fully completed (the resume point).
    pub epochs_done: usize,
    /// Master RNG state at the epoch boundary.
    pub rng_state: [u64; 4],
    /// Sample shuffle order as of the epoch boundary (the next epoch's
    /// shuffle permutes this order in place, so it must round-trip).
    pub order: Vec<usize>,
    /// Mean per-sample loss of each completed epoch.
    pub epoch_losses: Vec<f64>,
    /// Adam step/epoch counters and moment estimates.
    pub adam: AdamState,
    /// Parameter values, in store order.
    pub params: Vec<(String, Matrix)>,
}

impl TrainState {
    /// Serialises the state to the text format.
    pub fn to_text(&self) -> String {
        let mut out = format!("{HEADER} v{FORMAT_VERSION}\n");
        out.push_str(&format!(
            "run {} rng {:016x} {:016x} {:016x} {:016x}\n",
            self.epochs_done,
            self.rng_state[0],
            self.rng_state[1],
            self.rng_state[2],
            self.rng_state[3]
        ));
        out.push_str(&format!("order {}\n", self.order.len()));
        push_usizes(&mut out, &self.order);
        out.push_str(&format!("losses {}\n", self.epoch_losses.len()));
        push_hex(&mut out, &self.epoch_losses);
        out.push_str(&format!("adam {} {}\n", self.adam.t, self.adam.epoch));
        out.push_str(&format!("params {}\n", self.params.len()));
        for (i, (name, value)) in self.params.iter().enumerate() {
            let m = &self.adam.m[i];
            let v = &self.adam.v[i];
            out.push_str(&format!("param {name} {} {}\n", value.rows(), value.cols()));
            push_hex(&mut out, value.as_slice());
            push_hex(&mut out, m.as_slice());
            push_hex(&mut out, v.as_slice());
        }
        out
    }

    /// Parses state text written by [`TrainState::to_text`].
    ///
    /// Counts in the text are not trusted: nothing is reserved for them
    /// up front, so a count larger than the text holds ends in
    /// [`PersistError::Format`] when the values run out, never in a huge
    /// allocation.
    pub fn from_text(content: &str) -> Result<Self, PersistError> {
        let mut tok = content.split_whitespace();
        expect(&mut tok, HEADER)?;
        let version = next(&mut tok, "format version")?;
        let number: u32 = version
            .strip_prefix('v')
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| PersistError::Format(format!("bad format version '{version}'")))?;
        if number == 0 || number > FORMAT_VERSION {
            return Err(PersistError::Format(format!(
                "unsupported training-state version {number} (max supported {FORMAT_VERSION})"
            )));
        }
        expect(&mut tok, "run")?;
        let epochs_done = parse_num(&mut tok, "epochs done")?;
        expect(&mut tok, "rng")?;
        let mut rng_state = [0u64; 4];
        for slot in &mut rng_state {
            *slot = parse_u64_hex(&mut tok, "rng state word")?;
        }
        expect(&mut tok, "order")?;
        let order_len: usize = parse_num(&mut tok, "order length")?;
        let mut order = Vec::new();
        for _ in 0..order_len {
            order.push(parse_num(&mut tok, "order entry")?);
        }
        expect(&mut tok, "losses")?;
        let losses_len: usize = parse_num(&mut tok, "loss count")?;
        let mut epoch_losses = Vec::new();
        for _ in 0..losses_len {
            epoch_losses.push(f64::from_bits(parse_u64_hex(&mut tok, "epoch loss")?));
        }
        expect(&mut tok, "adam")?;
        let t: u64 = parse_num(&mut tok, "adam step counter")?;
        let epoch: u32 = parse_num(&mut tok, "adam epoch counter")?;
        expect(&mut tok, "params")?;
        let param_count: usize = parse_num(&mut tok, "parameter count")?;
        let mut params = Vec::new();
        let mut adam = AdamState { t, epoch, m: Vec::new(), v: Vec::new() };
        for _ in 0..param_count {
            expect(&mut tok, "param")?;
            let name = next(&mut tok, "parameter name")?.to_owned();
            let rows: usize = parse_num(&mut tok, "row count")?;
            let cols: usize = parse_num(&mut tok, "column count")?;
            params.push((name, parse_matrix(&mut tok, rows, cols)?));
            adam.m.push(parse_matrix(&mut tok, rows, cols)?);
            adam.v.push(parse_matrix(&mut tok, rows, cols)?);
        }
        if tok.next().is_some() {
            return Err(PersistError::Format("trailing tokens after training state".into()));
        }
        Ok(Self { epochs_done, rng_state, order, epoch_losses, adam, params })
    }

    /// Writes the state atomically: serialise to `<path>.tmp`, then
    /// rename over `path`.
    pub fn save_atomic(&self, path: &Path) -> Result<(), PersistError> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        std::fs::write(&tmp, self.to_text())?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Loads a state file.
    pub fn load(path: &Path) -> Result<Self, PersistError> {
        Self::from_text(&std::fs::read_to_string(path)?)
    }

    /// Validates that the state belongs to `store`'s parameter set and
    /// a run over `num_samples` samples for `total_epochs` epochs.
    pub fn validate(
        &self,
        store: &ParamStore,
        num_samples: usize,
        total_epochs: usize,
    ) -> Result<(), PersistError> {
        let stored = store.iter().count();
        if self.params.len() != stored {
            return Err(PersistError::Mismatch(format!(
                "training state has {} parameters, model has {stored}",
                self.params.len()
            )));
        }
        for ((name, value), (_, p)) in self.params.iter().zip(store.iter()) {
            if *name != p.name {
                return Err(PersistError::Mismatch(format!(
                    "expected parameter '{}', training state has '{name}'",
                    p.name
                )));
            }
            if value.shape() != p.value.shape() {
                return Err(PersistError::Mismatch(format!(
                    "parameter '{name}': shape {:?} vs training state {:?}",
                    p.value.shape(),
                    value.shape()
                )));
            }
        }
        if self.order.len() != num_samples {
            return Err(PersistError::Mismatch(format!(
                "training state covers {} samples, run has {num_samples}",
                self.order.len()
            )));
        }
        if self.epochs_done > total_epochs {
            return Err(PersistError::Mismatch(format!(
                "training state has {} completed epochs, run asks for {total_epochs}",
                self.epochs_done
            )));
        }
        if self.epoch_losses.len() != self.epochs_done {
            return Err(PersistError::Format(format!(
                "training state records {} losses for {} completed epochs",
                self.epoch_losses.len(),
                self.epochs_done
            )));
        }
        Ok(())
    }
}

fn push_hex(out: &mut String, values: &[f64]) {
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(if i % 8 == 0 { '\n' } else { ' ' });
        }
        out.push_str(&format!("{:016x}", v.to_bits()));
    }
    if !values.is_empty() {
        out.push('\n');
    }
}

fn push_usizes(out: &mut String, values: &[usize]) {
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(if i % 16 == 0 { '\n' } else { ' ' });
        }
        out.push_str(&format!("{v}"));
    }
    if !values.is_empty() {
        out.push('\n');
    }
}

fn next<'a>(tok: &mut impl Iterator<Item = &'a str>, what: &str) -> Result<&'a str, PersistError> {
    tok.next().ok_or_else(|| PersistError::Format(format!("training state missing {what}")))
}

fn expect<'a>(tok: &mut impl Iterator<Item = &'a str>, keyword: &str) -> Result<(), PersistError> {
    let got = next(tok, keyword)?;
    if got != keyword {
        return Err(PersistError::Format(format!("expected '{keyword}', got '{got}'")));
    }
    Ok(())
}

fn parse_num<'a, T: std::str::FromStr>(
    tok: &mut impl Iterator<Item = &'a str>,
    what: &str,
) -> Result<T, PersistError> {
    next(tok, what)?
        .parse()
        .map_err(|_| PersistError::Format(format!("bad {what} in training state")))
}

fn parse_u64_hex<'a>(
    tok: &mut impl Iterator<Item = &'a str>,
    what: &str,
) -> Result<u64, PersistError> {
    let t = next(tok, what)?;
    u64::from_str_radix(t, 16).map_err(|_| PersistError::Format(format!("bad {what} '{t}'")))
}

fn parse_matrix<'a>(
    tok: &mut impl Iterator<Item = &'a str>,
    rows: usize,
    cols: usize,
) -> Result<Matrix, PersistError> {
    let len = rows
        .checked_mul(cols)
        .ok_or_else(|| PersistError::Format(format!("matrix shape {rows}x{cols} overflows")))?;
    let mut data = Vec::new();
    for _ in 0..len {
        data.push(f64::from_bits(parse_u64_hex(tok, "matrix value")?));
    }
    Ok(Matrix::from_vec(rows, cols, data))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state() -> TrainState {
        TrainState {
            epochs_done: 3,
            rng_state: [1, u64::MAX, 0xDEAD_BEEF, 42],
            order: vec![2, 0, 1],
            epoch_losses: vec![0.5, 0.25, 0.1250000001],
            adam: AdamState {
                t: 9,
                epoch: 3,
                m: vec![Matrix::filled(2, 2, 0.125), Matrix::filled(1, 3, -0.5)],
                v: vec![Matrix::filled(2, 2, 1e-9), Matrix::filled(1, 3, 2.0)],
            },
            params: vec![
                ("layer.w".to_owned(), Matrix::filled(2, 2, 0.75)),
                ("layer.b".to_owned(), Matrix::filled(1, 3, -1.25e-7)),
            ],
        }
    }

    #[test]
    fn text_roundtrip_is_lossless() {
        let state = sample_state();
        let restored = TrainState::from_text(&state.to_text()).unwrap();
        assert_eq!(restored.epochs_done, state.epochs_done);
        assert_eq!(restored.rng_state, state.rng_state);
        assert_eq!(restored.order, state.order);
        assert_eq!(
            restored.epoch_losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
            state.epoch_losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(restored.adam.t, state.adam.t);
        assert_eq!(restored.adam.epoch, state.adam.epoch);
        for (a, b) in restored.adam.m.iter().zip(&state.adam.m) {
            assert_eq!(a, b);
        }
        for (a, b) in restored.adam.v.iter().zip(&state.adam.v) {
            assert_eq!(a, b);
        }
        for ((an, av), (bn, bv)) in restored.params.iter().zip(&state.params) {
            assert_eq!(an, bn);
            assert_eq!(av, bv);
        }
    }

    #[test]
    fn truncated_state_is_rejected() {
        let text = sample_state().to_text();
        let cut = &text[..text.len() * 2 / 3];
        assert!(matches!(TrainState::from_text(cut), Err(PersistError::Format(_))));
        // Headers whose counts the text cannot hold: a count that would
        // overflow a reservation, one that would abort on allocating
        // it, and matrix shapes whose value count overflows `usize`.
        let head = "gcwc-trainstate v1\nrun 0 rng 0 0 0 0\n";
        let params = "order 0\nlosses 0\nadam 0 0\nparams 1\n";
        for bad in [
            format!("{head}order 18446744073709551615\n0\n"),
            format!("{head}order 1000000000000\n0\n"),
            format!("{head}{params}param w 4294967296 4294967297\n"),
            format!("{head}{params}param w 4294967296 4294967296\n"),
        ] {
            let result = TrainState::from_text(&bad);
            assert!(
                matches!(result, Err(PersistError::Format(_))),
                "{bad:?} was not a Format error"
            );
        }
    }

    #[test]
    fn trailing_tokens_are_rejected() {
        let mut text = sample_state().to_text();
        text.push_str("garbage\n");
        assert!(matches!(TrainState::from_text(&text), Err(PersistError::Format(_))));
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let text = "gcwc-trainstate v99\n";
        assert!(matches!(TrainState::from_text(text), Err(PersistError::Format(_))));
    }

    #[test]
    fn validate_rejects_foreign_parameter_sets() {
        let state = sample_state();
        let mut store = ParamStore::new();
        store.add("layer.w", Matrix::zeros(2, 2));
        store.add("other.name", Matrix::zeros(1, 3));
        let err = state.validate(&store, 3, 10).unwrap_err();
        assert!(matches!(err, PersistError::Mismatch(_)), "{err}");
    }

    #[test]
    fn validate_rejects_sample_count_mismatch() {
        let state = sample_state();
        let mut store = ParamStore::new();
        store.add("layer.w", Matrix::zeros(2, 2));
        store.add("layer.b", Matrix::zeros(1, 3));
        assert!(state.validate(&store, 3, 10).is_ok());
        let err = state.validate(&store, 4, 10).unwrap_err();
        assert!(matches!(err, PersistError::Mismatch(_)), "{err}");
    }

    #[test]
    fn atomic_save_roundtrips_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join("gcwc_trainstate_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.trainstate");
        let state = sample_state();
        state.save_atomic(&path).unwrap();
        assert!(!dir.join("run.trainstate.tmp").exists());
        let restored = TrainState::load(&path).unwrap();
        assert_eq!(restored.epochs_done, state.epochs_done);
        assert_eq!(restored.rng_state, state.rng_state);
        std::fs::remove_file(&path).ok();
    }
}

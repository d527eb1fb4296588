//! Mid-run training state persistence for checkpoint-and-resume.
//!
//! A [`TrainState`] captures everything `run_training` needs to
//! continue a run exactly where it stopped: the parameter values, the
//! Adam moments and counters, the master RNG's raw state, the current
//! shuffle order, and the epoch losses recorded so far. It is written
//! through `gcwc_nn::persist::write_atomic` (a crash mid-write leaves
//! the previous state or the new one, never a torn file) and read back
//! by its `Reader`, as text with hexadecimal IEEE-754 values: a run
//! killed between epochs and restarted with `resume` reproduces the
//! uninterrupted run bit for bit.

use std::fmt::Write as _;
use std::path::Path;

use gcwc_linalg::Matrix;
use gcwc_nn::persist::{self, Reader};
use gcwc_nn::{AdamState, ParamStore, PersistError};

/// The training-state header line: keyword and version.
const HEADER: &str = "gcwc-trainstate v1";

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
        let mut out = format!("{HEADER}\n");
        let [a, b, c, d] = self.rng_state;
        let _ = writeln!(out, "run {} rng {a:016x} {b:016x} {c:016x} {d:016x}", self.epochs_done);
        let _ = writeln!(out, "order {}", self.order.len());
        persist::push_lines(&mut out, &self.order, 16, |out, v| write!(out, "{v}"));
        let _ = writeln!(out, "losses {}", self.epoch_losses.len());
        persist::push_hex(&mut out, &self.epoch_losses);
        let _ = writeln!(out, "adam {} {}", self.adam.t, self.adam.epoch);
        let _ = writeln!(out, "params {}", self.params.len());
        for (i, (name, value)) in self.params.iter().enumerate() {
            let _ = writeln!(out, "param {name} {} {}", value.rows(), value.cols());
            persist::push_hex(&mut out, value.as_slice());
            persist::push_hex(&mut out, self.adam.m[i].as_slice());
            persist::push_hex(&mut out, self.adam.v[i].as_slice());
        }
        out
    }

    /// Parses state text written by [`TrainState::to_text`] with the
    /// bounded reader of `gcwc_nn::persist`: a count larger than the
    /// text holds ends in [`PersistError::Format`] when the values run
    /// out, never in a huge allocation.
    pub fn from_text(content: &str) -> Result<Self, PersistError> {
        let mut r = Reader::new(content);
        r.expect(HEADER)?;
        r.expect("run")?;
        let epochs_done = r.number("the epochs done")?;
        r.expect("rng")?;
        let mut rng_state = [0u64; 4];
        for word in &mut rng_state {
            *word = r.hex("an rng state word")?;
        }
        r.expect("order")?;
        let len = r.number("the order length")?;
        let order = r.list(len, 1, |r| r.number("an order entry"))?;
        r.expect("losses")?;
        let len = r.number("the loss count")?;
        let epoch_losses = r.list(len, 1, |r| r.f64("an epoch loss"))?;
        r.expect("adam")?;
        let t = r.number("the adam step counter")?;
        let epoch = r.number("the adam epoch counter")?;
        let mut adam = AdamState { t, epoch, m: Vec::new(), v: Vec::new() };
        r.expect("params")?;
        let len = r.number("the parameter count")?;
        // `param <name> <rows> <cols>` takes four tokens.
        let params = r.list(len, 4, |r| {
            r.expect("param")?;
            let name = r.next("a parameter name")?.to_owned();
            let (rows, cols) = (r.number("a row count")?, r.number("a column count")?);
            let value = r.matrix(rows, cols, "parameter values")?;
            adam.m.push(r.matrix(rows, cols, "first moments")?);
            adam.v.push(r.matrix(rows, cols, "second moments")?);
            Ok((name, value))
        })?;
        r.finish()?;
        Ok(Self { epochs_done, rng_state, order, epoch_losses, adam, params })
    }

    /// Writes the state through `gcwc_nn::persist::write_atomic`.
    pub fn save_atomic(&self, path: &Path) -> Result<(), PersistError> {
        persist::write_atomic(path, &self.to_text())?;
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
            persist::expect_param(p, name, value.shape())?;
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

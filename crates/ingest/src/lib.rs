//! Streaming ingestion and incremental refresh: the "live city" loop.
//!
//! The paper completes stochastic weights per time slot from observed
//! traffic; production traffic is an unbounded *stream* of speed
//! records. This crate closes the stream → train → serve loop on top
//! of the existing pieces:
//!
//! ```text
//! producers ─▶ Intake (bounded MPSC, backpressure)
//!                 │ drain
//!                 ▼
//!             Pipeline ──▶ RecordLog   (append-only crash-safe segments)
//!                 │
//!                 └──────▶ Aggregator  (sliding window, watermark sealing)
//!                              │ sealed slot W matrices
//!                              ▼
//!                         RefreshDriver (warm-start fine-tune, validate,
//!                              │         atomic hot-swap or rollback)
//!                              ▼
//!                         ModelRegistry ──▶ Engine ──▶ clients
//! ```
//!
//! Determinism is load-bearing throughout: slot `W` matrices are built
//! by exact bucket counting, so any arrival order of the same record
//! set seals bit-identical matrices, and a refresh consumes the model
//! RNG exactly like one offline fit — a refreshed server answers
//! bit-identically to a model trained offline on the same data.

#![warn(missing_docs)]

pub mod intake;
pub mod log;
pub mod pipeline;
pub mod record;
pub mod refresh;
pub mod tenants;
pub mod window;

pub use intake::{Intake, IntakeHandle};
pub use log::RecordLog;
pub use pipeline::Pipeline;
pub use record::SpeedRecord;
pub use refresh::{RefreshConfig, RefreshDriver, RefreshOutcome, ShardedFactory};
pub use tenants::IngestLane;
pub use window::{Aggregator, SealedSlot, WindowConfig};

/// Failpoint site names this crate evaluates (see `gcwc_failpoint`;
/// sites are inert unless the `failpoints` feature is enabled *and*
/// the site is armed).
pub mod failsite {
    /// Record-log append. `err` refuses the record with a typed I/O
    /// error (the in-memory buffer is untouched); `panic` kills the
    /// intake thread mid-append — segment files stay whole either way
    /// because segments are only ever published by atomic rename.
    pub const LOG_APPEND: &str = "ingest.log.append";
    /// Slot sealing. Evaluated per slot *before* any aggregator state
    /// changes, so an injected `err`/`panic` leaves the slot open and
    /// a later `seal_ready` call seals it identically.
    pub const SLOT_SEAL: &str = "ingest.slot.seal";
    /// Refresh hot-swap, evaluated after the candidate checkpoints are
    /// written but *before* the manifest commit and registry install.
    /// `panic` simulates dying mid-refresh: the manifest still names
    /// the previous checkpoint generation and the registry keeps
    /// serving the previous snapshot — no torn state.
    pub const REFRESH_SWAP: &str = "ingest.refresh.swap";
}

/// Everything that can go wrong in the ingestion pipeline.
#[derive(Debug)]
pub enum IngestError {
    /// Reading or writing log segments or the refresh manifest failed.
    Io(std::io::Error),
    /// A log segment or manifest file failed validation on open.
    Corrupt {
        /// The offending file.
        path: std::path::PathBuf,
        /// What was wrong with it.
        reason: String,
    },
    /// Saving or loading model checkpoints failed.
    Persist(gcwc_nn::PersistError),
    /// The fine-tune pass aborted (divergence guard or checkpoint
    /// failure); the previous generation keeps serving.
    Train(gcwc::TrainError),
    /// An armed failpoint injected a failure at the named site.
    Injected(&'static str),
    /// A record the window cannot fold was refused before it was
    /// logged: nothing was logged, folded or counted.
    InvalidRecord {
        /// The refused record.
        record: SpeedRecord,
        /// What is wrong with it.
        reason: &'static str,
    },
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Io(e) => write!(f, "ingest I/O error: {e}"),
            IngestError::Corrupt { path, reason } => {
                write!(f, "corrupt ingest file {}: {reason}", path.display())
            }
            IngestError::Persist(e) => write!(f, "checkpoint error: {e}"),
            IngestError::Train(e) => write!(f, "fine-tune failed: {e}"),
            IngestError::Injected(site) => write!(f, "failpoint {site}: injected failure"),
            IngestError::InvalidRecord { record, reason } => {
                write!(f, "refused record {record:?}: {reason}")
            }
        }
    }
}

impl std::error::Error for IngestError {}

impl From<std::io::Error> for IngestError {
    fn from(e: std::io::Error) -> Self {
        IngestError::Io(e)
    }
}

impl From<gcwc_nn::PersistError> for IngestError {
    fn from(e: gcwc_nn::PersistError) -> Self {
        IngestError::Persist(e)
    }
}

impl From<gcwc::TrainError> for IngestError {
    fn from(e: gcwc::TrainError) -> Self {
        IngestError::Train(e)
    }
}

/// Reads the segment or manifest at `path` whole with `parse`, refusing
/// tokens it leaves over; a malformed file is [`IngestError::Corrupt`].
fn read_file<T>(
    path: &std::path::Path,
    parse: impl FnOnce(&mut gcwc_nn::persist::Reader<'_>) -> Result<T, gcwc_nn::PersistError>,
) -> Result<T, IngestError> {
    let text = std::fs::read_to_string(path)?;
    let mut r = gcwc_nn::persist::Reader::new(&text);
    let value = parse(&mut r).and_then(|value| r.finish().map(|()| value));
    value.map_err(|e| IngestError::Corrupt { path: path.into(), reason: e.to_string() })
}

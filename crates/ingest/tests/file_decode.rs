//! Robustness net for the files the live loop reads back from disk:
//! model checkpoints (`gcwc_nn::persist::from_checkpoint_expecting`),
//! resumable training state (`TrainState::from_text`), record-log
//! segments (opened by `RecordLog::open`) and the refresh manifest
//! (read by `RefreshDriver::new`). Whatever the bytes, each decoder
//! returns a value or a typed `PersistError`/`IngestError`; it never
//! panics. `wire_decode.rs` in `gcwc-serve` is the same net for the
//! wire.
//!
//! Uniformly random bytes almost never get past a magic line, so each
//! decoder also gets token soup drawn from its own format's words, and
//! near-valid mutations of a file its own writer produced: the file cut
//! before each token, each length set to 0, to `u64::MAX` and to one
//! past the data, each hex value made non-hex, and tokens appended at
//! the end. Every such mutation must be refused.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use gcwc::{GcwcModel, ModelConfig, ShardedModel, TrainState};
use gcwc_ingest::{RecordLog, RefreshConfig, RefreshDriver, SpeedRecord};
use gcwc_linalg::Matrix;
use gcwc_nn::{persist, AdamState, ParamStore};
use gcwc_serve::{AnyModel, ModelRegistry};
use gcwc_traffic::generators;
use proptest::prelude::*;

/// Architecture token of the checkpoint fixture.
const ARCH: &str = "gcwc:n3:m2:test";

/// Keywords whose next token is a length: the decoder reads that many
/// values after it.
const LENGTH_KEYWORDS: [&str; 4] = ["order", "losses", "params", "records"];

/// This process's scratch directory `tag`, created on first use.
fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gcwc-ingest-decode-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The parameter set the checkpoint fixture is written from and read
/// back into.
fn store() -> ParamStore {
    let mut store = ParamStore::new();
    store.add("enc.w", Matrix::from_fn(3, 2, |i, j| i as f64 * 0.5 - j as f64 * 0.25));
    store.add("enc.b", Matrix::filled(1, 2, -1.5e-7));
    store.add("dec.w", Matrix::from_fn(2, 3, |i, j| (i * 3 + j) as f64 / 7.0));
    store
}

/// A manifest `RefreshDriver::install_initial` committed, and the
/// registry it installed into.
fn manifest_fixture() -> &'static (String, Arc<ModelRegistry>) {
    static FIXTURE: OnceLock<(String, Arc<ModelRegistry>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let graph = generators::highway_tollgate(1).graph;
        let cfg = ModelConfig::hw_hist().with_epochs(1);
        let registry = Arc::new(ModelRegistry::new(Box::new({
            let (graph, cfg) = (graph.clone(), cfg.clone());
            move || AnyModel::Gcwc(GcwcModel::new(&graph, 8, cfg.clone(), 42))
        })));
        let dir = tmpdir("manifest-fixture");
        let mut driver =
            RefreshDriver::new(RefreshConfig::new(dir.clone()), no_model(), Arc::clone(&registry))
                .unwrap();
        driver.install_initial(ShardedModel::gcwc(&graph, 8, cfg, 42, 1)).unwrap();
        let text = std::fs::read_to_string(dir.join("live.manifest")).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        (text, registry)
    })
}

/// A refresh factory for drivers that only read their manifest.
fn no_model() -> gcwc_ingest::ShardedFactory {
    Box::new(|| -> ShardedModel<GcwcModel> { unreachable!("reading a manifest builds no model") })
}

/// The four decoders under test.
#[derive(Clone, Copy, Debug)]
enum Decoder {
    Checkpoint,
    TrainState,
    Segment,
    Manifest,
}

impl Decoder {
    const ALL: [Decoder; 4] =
        [Decoder::Checkpoint, Decoder::TrainState, Decoder::Segment, Decoder::Manifest];

    /// A file this decoder's own writer produced.
    fn real_file(self) -> &'static str {
        static FILES: OnceLock<[String; 4]> = OnceLock::new();
        let files = FILES.get_or_init(|| {
            let checkpoint = persist::to_checkpoint_with_arch(&store(), ARCH);
            let state = TrainState {
                epochs_done: 2,
                rng_state: [1, u64::MAX, 0xDEAD_BEEF, 42],
                order: vec![2, 0, 1],
                epoch_losses: vec![0.5, 0.25],
                adam: AdamState {
                    t: 6,
                    epoch: 2,
                    m: vec![Matrix::filled(1, 2, 0.125), Matrix::filled(2, 1, -0.5)],
                    v: vec![Matrix::filled(1, 2, 1e-9), Matrix::filled(2, 1, 2.0)],
                },
                params: vec![
                    ("layer.w".to_owned(), Matrix::filled(1, 2, 0.75)),
                    ("layer.b".to_owned(), Matrix::filled(2, 1, -1.25e-7)),
                ],
            }
            .to_text();
            let dir = tmpdir("segment-fixture");
            let mut log = RecordLog::open(&dir, 8).unwrap();
            for i in 0..3u32 {
                log.append(SpeedRecord {
                    edge: i,
                    timestamp: 100 + i as u64,
                    speed: 7.25 * i as f64,
                })
                .unwrap();
            }
            log.flush().unwrap();
            let segment = std::fs::read_to_string(&log.segments().unwrap()[0]).unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            [checkpoint, state, segment, manifest_fixture().0.clone()]
        });
        &files[self as usize]
    }

    /// Words of this decoder's format, for token soup.
    fn words(self) -> &'static [&'static str] {
        match self {
            Decoder::Checkpoint => {
                &["gcwc-checkpoint", "v1", "v0", ARCH, "param", "enc.w", "enc.b"]
            }
            Decoder::TrainState => &[
                "gcwc-trainstate",
                "v1",
                "run",
                "rng",
                "order",
                "losses",
                "adam",
                "params",
                "param",
            ],
            Decoder::Segment => &["gcwc-ingest-segment v1\n", "records"],
            Decoder::Manifest => &["gcwc-ingest-manifest v1\n", "generation"],
        }
    }

    /// Decodes `bytes` (a file in `dir` for the on-disk decoders):
    /// `Ok` when they were accepted, else the typed error's text.
    fn decode(self, bytes: &[u8], dir: &Path) -> Result<(), String> {
        let text = String::from_utf8_lossy(bytes);
        match self {
            Decoder::Checkpoint => {
                persist::from_checkpoint_expecting(&mut store(), &text, Some(ARCH))
                    .map_err(|e| e.to_string())
            }
            Decoder::TrainState => {
                TrainState::from_text(&text).map(|_| ()).map_err(|e| e.to_string())
            }
            Decoder::Segment => {
                std::fs::write(dir.join("segment-00000000.seg"), bytes).unwrap();
                RecordLog::open(dir, 8).map(|_| ()).map_err(|e| e.to_string())
            }
            Decoder::Manifest => {
                std::fs::write(dir.join("live.manifest"), bytes).unwrap();
                let registry = Arc::clone(&manifest_fixture().1);
                RefreshDriver::new(RefreshConfig::new(dir.to_path_buf()), no_model(), registry)
                    .map(|_| ())
                    .map_err(|e| e.to_string())
            }
        }
    }

    /// Decodes `bytes`; a panic fails the case, and so does acceptance
    /// when `must_refuse` is set.
    fn check(self, bytes: &[u8], dir: &Path, must_refuse: bool) -> Result<(), TestCaseError> {
        let shown = || String::from_utf8_lossy(bytes).into_owned();
        match catch_unwind(AssertUnwindSafe(|| self.decode(bytes, dir))) {
            Err(_) => Err(TestCaseError::fail(format!("{self:?} panicked on {:?}", shown()))),
            Ok(Ok(())) if must_refuse => {
                Err(TestCaseError::fail(format!("{self:?} accepted {:?}", shown())))
            }
            Ok(_) => Ok(()),
        }
    }
}

/// Byte span of each whitespace-separated token of `text`.
fn token_spans(text: &str) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut start = None;
    for (i, c) in text.char_indices() {
        match (c.is_whitespace(), start) {
            (false, None) => start = Some(i),
            (true, Some(s)) => {
                spans.push((s, i));
                start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = start {
        spans.push((s, text.len()));
    }
    spans
}

/// Every near-valid mutation of `text` (see the module docs).
fn mutations(text: &str) -> Vec<String> {
    let spans = token_spans(text);
    let token = |i: usize| &text[spans[i].0..spans[i].1];
    let splice =
        |i: usize, with: &str| format!("{}{with}{}", &text[..spans[i].0], &text[spans[i].1..]);
    let mut out = Vec::new();
    for i in 0..spans.len() {
        out.push(text[..spans[i].0].to_owned());
        let is_length = (i >= 1 && LENGTH_KEYWORDS.contains(&token(i - 1)))
            || (i >= 2 && token(i - 2) == "param")
            || (i >= 3 && token(i - 3) == "param");
        if is_length {
            let n: u64 = token(i).parse().expect("a length is a number");
            for v in [0, u64::MAX, n + 1].into_iter().filter(|&v| v != n) {
                out.push(splice(i, &v.to_string()));
            }
        }
        if token(i).len() == 16 && token(i).bytes().all(|b| b.is_ascii_hexdigit()) {
            out.push(splice(i, "3ff000000000000g"));
        }
    }
    out.push(format!("{text}0 0 0\n"));
    out
}

#[test]
fn real_files_decode() {
    let dir = tmpdir("real");
    for decoder in Decoder::ALL {
        let file = decoder.real_file();
        assert_eq!(decoder.decode(file.as_bytes(), &dir), Ok(()), "{decoder:?}: {file:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_near_valid_mutation_is_refused() {
    let dir = tmpdir("mutations");
    for decoder in Decoder::ALL {
        let variants = mutations(decoder.real_file());
        assert!(variants.len() > 4, "{decoder:?} has too few mutations");
        for text in variants {
            decoder.check(text.as_bytes(), &dir, true).unwrap();
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The manifest's one number is a generation, not a length: any
/// generation a commit could have written reads back as itself, and 0,
/// which no commit writes, is refused.
#[test]
fn manifest_generations_read_back_exactly() {
    let dir = tmpdir("generations");
    let registry = &manifest_fixture().1;
    for generation in [0, 1, 2, u64::MAX] {
        let text = format!("gcwc-ingest-manifest v1\ngeneration {generation}\n");
        std::fs::write(dir.join("live.manifest"), text).unwrap();
        let read =
            RefreshDriver::new(RefreshConfig::new(dir.clone()), no_model(), Arc::clone(registry))
                .map(|d| d.generation());
        match generation {
            0 => assert!(read.is_err(), "generation 0 must be refused"),
            g => assert_eq!(read.ok(), Some(g)),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic_a_decoder(
        bytes in collection::vec(0u32..256, 0..200),
        which in 0usize..4,
    ) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        let dir = tmpdir("bytes");
        Decoder::ALL[which].check(&bytes, &dir, false)?;
    }

    /// Whitespace-separated tokens drawn from the decoder's own words,
    /// numbers at and past the limits, hex values and garbage, after
    /// the real file's first line half the time.
    #[test]
    fn token_soup_never_panics_a_decoder(
        picks in collection::vec(0usize..64, 0..48),
        which in 0usize..4,
        lead in 0usize..2,
    ) {
        let decoder = Decoder::ALL[which];
        let words = decoder.words();
        let mut text = String::new();
        if lead == 1 {
            text.push_str(decoder.real_file().lines().next().unwrap_or(""));
            text.push('\n');
        }
        for &p in &picks {
            let word = match p % 8 {
                0..=2 => words[p % words.len()],
                3 => ["0", "1", "2", "3"][p % 4],
                4 => ["18446744073709551615", "18446744073709551616", "4294967296"][p % 3],
                5 => ["3ff0000000000000", "7ff8000000000000", "fff0000000000000"][p % 3],
                6 => ["-1", "zz", "#", "\u{fffd}"][p % 4],
                _ => "\n",
            };
            text.push_str(word);
            text.push(' ');
        }
        let dir = tmpdir("soup");
        decoder.check(text.as_bytes(), &dir, false)?;
    }
}

//! Robustness net for the files read back from disk: model checkpoints
//! (`gcwc_nn::persist::from_checkpoint_expecting`), record-log segments
//! (opened by `RecordLog::open`) and the refresh manifest (read by
//! `RefreshDriver::new`), which the live loop reads back, and the
//! training state that resumable fits read (`TrainState::from_text`).
//! Whatever the bytes, each decoder returns a value or a typed
//! `PersistError`/`IngestError`; it never panics, and no single
//! allocation it makes exceeds a fixed multiple of the input's length
//! plus a small constant (`Decoder::alloc_bound`). `wire_decode.rs` in
//! `gcwc-serve` is the same net for the wire.
//!
//! Uniformly random bytes almost never get past a magic line, so each
//! decoder also gets token soup drawn from its own format's words, and
//! near-valid mutations of a file its own writer produced: the file cut
//! before each token, each length set to 0, to `u64::MAX` and to one
//! past the data, each hex value made non-hex, and tokens appended at
//! the end. Every such mutation must be refused. A checkpoint parameter
//! of 4,096 values, cut right after its `param` line, checks the bound
//! where a decoder could reserve room for a declared shape; and each
//! writer's bytes are pinned.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
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

/// Bytes an allocation may take beyond its decoder's multiple of the
/// input: paths, fixed-size buffers and the fixed text of an error.
const ALLOC_SLACK: usize = 1024;

thread_local! {
    static LARGEST_ALLOC: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, noting the largest single request each thread
/// makes.
struct Largest;

// SAFETY: defers every operation to `System`; the thread local is
// const-initialised, so noting a size never allocates.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` contract passes through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` and `layout` come from `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Largest = Largest;

fn note(bytes: usize) {
    let _ = LARGEST_ALLOC.try_with(|c| c.set(c.get().max(bytes)));
}

/// Runs `f`, returning its result and the largest allocation it made.
fn largest_alloc<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST_ALLOC.with(|c| c.set(0));
    let out = f();
    (out, LARGEST_ALLOC.with(Cell::get))
}

/// What a case demands of the decoder besides not panicking and
/// staying within its allocation bound.
#[derive(Clone, Copy)]
enum Verdict {
    Accept,
    Refuse,
    Either,
}

/// Runs `decode` over `bytes`: a panic fails the case, and so do an
/// answer `verdict` rules out and a single allocation over `bound`.
fn judge(
    name: &str,
    bytes: &[u8],
    bound: usize,
    verdict: Verdict,
    decode: impl FnOnce() -> Result<(), String>,
) -> Result<(), TestCaseError> {
    let shown = || String::from_utf8_lossy(bytes).into_owned();
    let (outcome, largest) = largest_alloc(|| catch_unwind(AssertUnwindSafe(decode)));
    match (outcome, verdict) {
        (Err(_), _) => {
            return Err(TestCaseError::fail(format!("{name} panicked on {:?}", shown())));
        }
        (Ok(Ok(())), Verdict::Refuse) => {
            return Err(TestCaseError::fail(format!("{name} accepted {:?}", shown())));
        }
        (Ok(Err(e)), Verdict::Accept) => {
            return Err(TestCaseError::fail(format!("{name} refused {:?}: {e}", shown())));
        }
        (Ok(_), _) => {}
    }
    if largest > bound {
        return Err(TestCaseError::fail(format!(
            "{name} allocated {largest} bytes at once for {} input bytes (bound {bound}): {:?}",
            bytes.len(),
            shown()
        )));
    }
    Ok(())
}

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

    /// The most bytes one allocation of this decoder may take for an
    /// input of `len` bytes: `c × len` plus [`ALLOC_SLACK`], with `c`
    /// from the format's densest legal encoding. `len` bytes hold at
    /// most `(len + 1) / 2` tokens (one byte each, a separator between
    /// two), and a message quoting the input grows to at most twice its
    /// length.
    fn alloc_bound(self, len: usize) -> usize {
        let c = match self {
            // Values go straight into the store's matrices: only an
            // error message can hold input.
            Decoder::Checkpoint => 2,
            // A 64-byte `(name, matrix)` entry per `param <name> <rows>
            // <cols>`: four tokens, eight bytes.
            Decoder::TrainState => 8,
            // A 24-byte record per `<edge> <timestamp> <speed>`: three
            // tokens, six bytes.
            Decoder::Segment => 4,
            // The file itself, read whole, or a message quoting it.
            Decoder::Manifest => 2,
        };
        c * len + ALLOC_SLACK
    }

    /// Stages `bytes` for this decoder (the on-disk decoders read them
    /// from a file in `dir`) and returns the decode: `Ok` when they
    /// were accepted, else the typed error's text.
    fn decoding<'a>(
        self,
        bytes: &[u8],
        dir: &'a Path,
    ) -> Box<dyn FnOnce() -> Result<(), String> + 'a> {
        let text = String::from_utf8_lossy(bytes).into_owned();
        match self {
            Decoder::Checkpoint => {
                let mut store = store();
                Box::new(move || {
                    persist::from_checkpoint_expecting(&mut store, &text, ARCH)
                        .map_err(|e| e.to_string())
                })
            }
            Decoder::TrainState => Box::new(move || {
                TrainState::from_text(&text).map(|_| ()).map_err(|e| e.to_string())
            }),
            Decoder::Segment => {
                std::fs::write(dir.join("segment-00000000.seg"), bytes).unwrap();
                Box::new(move || RecordLog::open(dir, 8).map(|_| ()).map_err(|e| e.to_string()))
            }
            Decoder::Manifest => {
                std::fs::write(dir.join("live.manifest"), bytes).unwrap();
                let registry = Arc::clone(&manifest_fixture().1);
                Box::new(move || {
                    RefreshDriver::new(RefreshConfig::new(dir.to_path_buf()), no_model(), registry)
                        .map(|_| ())
                        .map_err(|e| e.to_string())
                })
            }
        }
    }

    /// Decodes `bytes` under [`judge`].
    fn check(self, bytes: &[u8], dir: &Path, verdict: Verdict) -> Result<(), TestCaseError> {
        let decode = self.decoding(bytes, dir);
        judge(&format!("{self:?}"), bytes, self.alloc_bound(bytes.len()), verdict, decode)
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
        decoder.check(decoder.real_file().as_bytes(), &dir, Verdict::Accept).unwrap();
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
            decoder.check(text.as_bytes(), &dir, Verdict::Refuse).unwrap();
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Each writer's bytes, pinned: a change to a format must be deliberate.
#[test]
fn writers_produce_the_pinned_bytes() {
    let golden = [
        concat!(
            "gcwc-checkpoint v1 gcwc:n3:m2:test\n",
            "param enc.w 3 2\n",
            "0000000000000000 bfd0000000000000 3fe0000000000000 3fd0000000000000 ",
            "3ff0000000000000 3fe8000000000000\n",
            "param enc.b 1 2\n",
            "be8421f5f40d8376 be8421f5f40d8376\n",
            "param dec.w 2 3\n",
            "0000000000000000 3fc2492492492492 3fd2492492492492 3fdb6db6db6db6db ",
            "3fe2492492492492 3fe6db6db6db6db7\n",
        ),
        concat!(
            "gcwc-trainstate v1\n",
            "run 2 rng 0000000000000001 ffffffffffffffff 00000000deadbeef 000000000000002a\n",
            "order 3\n2 0 1\n",
            "losses 2\n3fe0000000000000 3fd0000000000000\n",
            "adam 6 2\n",
            "params 2\n",
            "param layer.w 1 2\n",
            "3fe8000000000000 3fe8000000000000\n",
            "3fc0000000000000 3fc0000000000000\n",
            "3e112e0be826d695 3e112e0be826d695\n",
            "param layer.b 2 1\n",
            "be80c6f7a0b5ed8d be80c6f7a0b5ed8d\n",
            "bfe0000000000000 bfe0000000000000\n",
            "4000000000000000 4000000000000000\n",
        ),
        concat!(
            "gcwc-ingest-segment v1\n",
            "records 3\n",
            "0 100 0000000000000000\n",
            "1 101 401d000000000000\n",
            "2 102 402d000000000000\n",
        ),
        "gcwc-ingest-manifest v1\ngeneration 1\n",
    ];
    for (decoder, golden) in Decoder::ALL.into_iter().zip(golden) {
        assert_eq!(decoder.real_file(), golden, "{decoder:?}");
    }
}

/// A checkpoint parameter of 4,096 values: the file cut right after
/// its `param` line, or partway through its values, must not make the
/// decoder reserve room for all of them.
#[test]
fn a_cut_large_parameter_reserves_nothing() {
    let mut large = store();
    large.add("fc.w", Matrix::from_fn(64, 64, |i, j| (i * 64 + j) as f64 / 3.0));
    let file = persist::to_checkpoint_with_arch(&large, ARCH);
    let line = "param fc.w 64 64\n";
    let after_line = file.find(line).expect("the parameter's line") + line.len();
    for (text, verdict) in [
        (&file[..], Verdict::Accept),
        (&file[..after_line], Verdict::Refuse),
        (&file[..(after_line + file.len()) / 2], Verdict::Refuse),
    ] {
        let mut target = large.clone();
        let bound = Decoder::Checkpoint.alloc_bound(text.len());
        judge("Checkpoint", text.as_bytes(), bound, verdict, || {
            persist::from_checkpoint_expecting(&mut target, text, ARCH).map_err(|e| e.to_string())
        })
        .unwrap();
    }
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
        Decoder::ALL[which].check(&bytes, &dir, Verdict::Either)?;
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
        decoder.check(text.as_bytes(), &dir, Verdict::Either)?;
    }
}

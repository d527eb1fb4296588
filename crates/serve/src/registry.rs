//! Model registry: loads and validates checkpoints into warm models
//! and atomically hot-swaps the served snapshot.
//!
//! The served unit is a **shard set**: one model per edge partition
//! (see `gcwc_graph::PartitionSet`), each with the [`RowView`] mapping
//! its local rows back to the global graph. A single-shard registry
//! (the common K = 1 case, built by [`ModelRegistry::new`]) carries
//! one model under an identity view and behaves exactly like the
//! pre-sharding registry.
//!
//! A `factory` closure per shard builds an untrained model of that
//! shard's architecture (it captures the local graph and config);
//! [`ModelRegistry::load_shard`] runs the factory, restores the
//! checkpoint — the versioned header is validated against the model's
//! architecture token, so a wrong-architecture or corrupt file is
//! rejected *before* it is exposed — and then swaps a new
//! [`ModelSnapshot`] in behind an [`RwLock`]. Unchanged shards are
//! shared by `Arc` between generations, so swapping shard `k` leaves
//! every other shard's identity (and its cache entries, which are
//! keyed by per-shard generation) intact. In-flight batches keep
//! serving the old snapshot via their [`Arc`] until they finish.

use crate::ServeError;
use gcwc::{AGcwcModel, GcwcModel, InferRequest, InferWorkspace, OutputKind};
use gcwc_graph::{PartitionSet, RowView};
use gcwc_linalg::Matrix;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Either completion model behind one dispatching surface.
// One instance lives behind each Arc<ModelShard>; the variant size
// gap never multiplies, so boxing would only add a pointer chase.
#[allow(clippy::large_enum_variant)]
pub enum AnyModel {
    /// Basic GCWC (context-free).
    Gcwc(GcwcModel),
    /// Context-aware A-GCWC.
    AGcwc(AGcwcModel),
}

impl AnyModel {
    /// Number of edges `n` the model covers (local `n` for a shard).
    pub fn num_edges(&self) -> usize {
        match self {
            AnyModel::Gcwc(m) => m.num_edges(),
            AnyModel::AGcwc(m) => m.num_edges(),
        }
    }

    /// Number of histogram buckets `m`.
    pub fn num_buckets(&self) -> usize {
        match self {
            AnyModel::Gcwc(m) => m.num_buckets(),
            AnyModel::AGcwc(m) => m.num_buckets(),
        }
    }

    /// Output head kind.
    pub fn output_kind(&self) -> OutputKind {
        match self {
            AnyModel::Gcwc(m) => m.output_kind(),
            AnyModel::AGcwc(m) => m.output_kind(),
        }
    }

    /// Output columns (`m` for HIST, 1 for AVG).
    pub fn output_cols(&self) -> usize {
        match self {
            AnyModel::Gcwc(m) => m.output_cols(),
            AnyModel::AGcwc(m) => m.output_cols(),
        }
    }

    /// Architecture token written into / validated against checkpoints.
    pub fn arch_string(&self) -> String {
        match self {
            AnyModel::Gcwc(m) => m.arch_string(),
            AnyModel::AGcwc(m) => m.arch_string(),
        }
    }

    /// Restores parameters from a checkpoint (header validated).
    pub fn load(&mut self, path: &Path) -> Result<(), gcwc_nn::PersistError> {
        match self {
            AnyModel::Gcwc(m) => m.load(path),
            AnyModel::AGcwc(m) => m.load(path),
        }
    }

    /// Tape-free batched inference (see `gcwc::infer`): `count`
    /// requests as one coalesced forward pass, bit-identical per
    /// request to single-request evaluation.
    ///
    /// The kernels run on the calling thread, whatever its ambient
    /// kernel thread count: the engine already runs a batch's shard
    /// forwards at once on the pool behind
    /// `gcwc_linalg::parallel::fork_join`, so splitting a product inside
    /// one forward would only compete for the same threads. The bits
    /// are the same at every thread count.
    pub fn infer_into<'r, F>(
        &self,
        ws: &mut InferWorkspace,
        count: usize,
        req: F,
        outs: &mut [Matrix],
    ) where
        F: Fn(usize) -> InferRequest<'r>,
    {
        gcwc_linalg::parallel::with_threads(1, || match self {
            AnyModel::Gcwc(m) => m.infer_into(ws, count, req, outs),
            AnyModel::AGcwc(m) => m.infer_into(ws, count, req, outs),
        })
    }
}

/// One shard of the served shard set: a warm model plus the generation
/// at which it was last swapped in.
pub struct ModelShard {
    /// The warm model (parameters loaded, ready to infer).
    pub model: AnyModel,
    /// The global generation counter's value when this shard was
    /// (re)installed. Cache keys embed it, so hot-swapping one shard
    /// invalidates exactly that shard's cached completions.
    pub generation: u64,
}

/// One immutable generation of the served shard set.
pub struct ModelSnapshot {
    shards: Vec<Arc<ModelShard>>,
    views: Arc<Vec<RowView>>,
    /// Global monotonic generation (0 = factory-fresh, untrained).
    /// Bumped on every shard swap.
    pub generation: u64,
    n: usize,
    m: usize,
    out_cols: usize,
}

impl ModelSnapshot {
    /// Number of shards K.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// One shard of the set.
    pub fn shard(&self, k: usize) -> &ModelShard {
        &self.shards[k]
    }

    /// Shard `k`'s local→global row view.
    pub fn view(&self, k: usize) -> &RowView {
        &self.views[k]
    }

    /// Global number of edges `n` (sum of owned rows across shards).
    pub fn num_edges(&self) -> usize {
        self.n
    }

    /// Number of histogram buckets `m`.
    pub fn num_buckets(&self) -> usize {
        self.m
    }

    /// Output columns of the head.
    pub fn output_cols(&self) -> usize {
        self.out_cols
    }

    /// The single model of a single-shard snapshot (the K = 1 serving
    /// path, where the shard's rows are the global rows).
    ///
    /// # Panics
    /// Panics on a multi-shard snapshot.
    pub fn model(&self) -> &AnyModel {
        assert_eq!(self.shards.len(), 1, "model() is single-shard only; use shard(k)");
        &self.shards[0].model
    }
}

/// Factory closure producing an untrained model of one shard's
/// architecture.
pub type ModelFactory = Box<dyn Fn() -> AnyModel + Send + Sync>;

/// One shard's replacement under a topology change (see
/// [`ModelRegistry::install_topology`]): the repaired model plus the
/// factory matching its new local architecture.
pub struct TopologyUpdate {
    /// Which shard the delta repaired.
    pub shard: usize,
    /// The model rebuilt (and retrained) on the repaired local graph.
    pub model: AnyModel,
    /// Factory for the repaired architecture, replacing the stale one
    /// so later [`ModelRegistry::load_shard`] calls build the right
    /// local shape.
    pub factory: ModelFactory,
}

/// Registry holding the current [`ModelSnapshot`] behind an [`RwLock`]
/// for lock-cheap reads and atomic hot swaps.
///
/// Lock order (deadlock freedom): `factories` → `views` → `current`.
pub struct ModelRegistry {
    factories: RwLock<Vec<ModelFactory>>,
    views: RwLock<Arc<Vec<RowView>>>,
    current: RwLock<Arc<ModelSnapshot>>,
    generation: AtomicU64,
    num_shards: usize,
}

impl ModelRegistry {
    /// Creates a single-shard registry (K = 1) serving a factory-fresh
    /// (untrained) model as generation 0 under an identity view.
    pub fn new(factory: ModelFactory) -> Self {
        let model = factory();
        let views = vec![RowView::identity(model.num_edges())];
        Self::from_parts(vec![factory], views, vec![model])
    }

    /// Creates a sharded registry: `factories[k]` builds shard `k`'s
    /// untrained model over `partition.partition(k)`'s local graph.
    pub fn sharded(factories: Vec<ModelFactory>, partition: &PartitionSet) -> Self {
        assert_eq!(
            factories.len(),
            partition.num_partitions(),
            "one factory per partition required"
        );
        let views: Vec<RowView> = partition.partitions().iter().map(|p| p.view().clone()).collect();
        let models: Vec<AnyModel> = factories.iter().map(|f| f()).collect();
        Self::from_parts(factories, views, models)
    }

    fn from_parts(
        factories: Vec<ModelFactory>,
        views: Vec<RowView>,
        models: Vec<AnyModel>,
    ) -> Self {
        assert!(!models.is_empty(), "a registry needs at least one shard");
        let n: usize = views.iter().map(RowView::num_owned).sum();
        let m = models[0].num_buckets();
        let out_cols = models[0].output_cols();
        for (k, (model, view)) in models.iter().zip(&views).enumerate() {
            assert_eq!(
                model.num_edges(),
                view.num_local(),
                "shard {k} model covers {} edges but its view has {} local rows",
                model.num_edges(),
                view.num_local()
            );
            assert_eq!(model.num_buckets(), m, "shard {k} bucket count differs");
            assert_eq!(model.output_cols(), out_cols, "shard {k} head differs");
        }
        let views = Arc::new(views);
        let num_shards = factories.len();
        let shards =
            models.into_iter().map(|model| Arc::new(ModelShard { model, generation: 0 })).collect();
        let snapshot = Arc::new(ModelSnapshot {
            shards,
            views: Arc::clone(&views),
            generation: 0,
            n,
            m,
            out_cols,
        });
        Self {
            factories: RwLock::new(factories),
            views: RwLock::new(views),
            current: RwLock::new(snapshot),
            generation: AtomicU64::new(0),
            num_shards,
        }
    }

    /// The currently served snapshot. Cheap; callers hold the `Arc`
    /// for the duration of a batch so hot swaps never disrupt them.
    pub fn snapshot(&self) -> Arc<ModelSnapshot> {
        Arc::clone(&self.current.read().unwrap())
    }

    /// Number of shards K.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Current global generation number.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Loads `path` into shard `k` and atomically swaps a new snapshot
    /// in; every other shard is shared unchanged. On any error the
    /// previous snapshot keeps serving. Returns the new generation.
    pub fn load_shard(&self, k: usize, path: &Path) -> Result<u64, ServeError> {
        assert!(k < self.num_shards, "shard {k} out of range");
        // Failpoint: an injected load failure (disk error, torn
        // checkpoint) must leave the previous snapshot serving.
        if gcwc_failpoint::triggered(crate::failsite::REGISTRY_LOAD) {
            return Err(ServeError::Io(std::io::Error::other(format!(
                "failpoint {}: injected checkpoint load failure",
                crate::failsite::REGISTRY_LOAD
            ))));
        }
        let mut model = (self.factories.read().unwrap()[k])();
        model.load(path)?;
        Ok(self.swap_shard(k, model))
    }

    /// Swaps an already-built model (e.g. trained in-process) into
    /// shard `k`. Returns the new generation number.
    pub fn install_shard(&self, k: usize, model: AnyModel) -> u64 {
        assert!(k < self.num_shards, "shard {k} out of range");
        assert_eq!(
            model.num_edges(),
            self.views.read().unwrap()[k].num_local(),
            "installed model does not match shard {k}'s view"
        );
        self.swap_shard(k, model)
    }

    /// Loads `path` into the single shard of a K = 1 registry.
    ///
    /// # Panics
    /// Panics on a sharded registry — load each shard with
    /// [`ModelRegistry::load_shard`].
    pub fn load(&self, path: &Path) -> Result<u64, ServeError> {
        assert_eq!(self.num_shards, 1, "load() is single-shard only; use load_shard");
        self.load_shard(0, path)
    }

    /// Swaps an already-built model into the single shard of a K = 1
    /// registry. Returns the new generation number.
    ///
    /// # Panics
    /// Panics on a sharded registry — use
    /// [`ModelRegistry::install_shard`].
    pub fn install(&self, model: AnyModel) -> u64 {
        assert_eq!(self.num_shards, 1, "install() is single-shard only; use install_shard");
        self.install_shard(0, model)
    }

    /// Swaps a complete shard set in as **one** atomic snapshot
    /// replacement under a single generation bump — the hot-swap path
    /// of an incremental refresh, where shard-by-shard
    /// [`ModelRegistry::install_shard`] calls would expose mixed
    /// generations to in-flight requests (and a crash between them
    /// would strand a half-swapped set). Every shard's generation
    /// changes, so all cached completions of the previous set miss.
    /// Returns the new generation.
    pub fn install_set(&self, models: Vec<AnyModel>) -> u64 {
        assert_eq!(models.len(), self.num_shards, "install_set needs one model per shard");
        let views = Arc::clone(&self.views.read().unwrap());
        for (k, model) in models.iter().enumerate() {
            assert_eq!(
                model.num_edges(),
                views[k].num_local(),
                "installed model does not match shard {k}'s view"
            );
        }
        // Same injection point as the per-shard swap: a `panic` here
        // dies before the generation bump, leaving the previous
        // snapshot serving untouched.
        if gcwc_failpoint::triggered(crate::failsite::REGISTRY_INSTALL) {
            panic!("failpoint {}: injected install failure", crate::failsite::REGISTRY_INSTALL);
        }
        let generation = self.generation.fetch_add(1, Ordering::AcqRel) + 1;
        let shards: Vec<Arc<ModelShard>> =
            models.into_iter().map(|model| Arc::new(ModelShard { model, generation })).collect();
        let mut current = self.current.write().unwrap();
        *current = Arc::new(ModelSnapshot {
            shards,
            views,
            generation,
            n: current.n,
            m: current.m,
            out_cols: current.out_cols,
        });
        generation
    }

    /// Absorbs a graph-topology change (an applied
    /// [`gcwc_graph::GraphDelta`]) into the served shard set as **one**
    /// atomic snapshot swap: every repaired shard gets its rebuilt
    /// model (and a fresh generation, invalidating exactly its cached
    /// completions), while untouched shards keep their `Arc`s *and*
    /// their generations — their cache entries stay valid across the
    /// swap. The row views are replaced wholesale (`views[k]` must be
    /// byte-identical to the old view for every unrepaired shard `k`,
    /// which [`gcwc_graph::DeltaRepair`] guarantees by construction).
    /// Returns the new model generation.
    pub fn install_topology(&self, updates: Vec<TopologyUpdate>, views: Vec<RowView>) -> u64 {
        assert_eq!(views.len(), self.num_shards, "install_topology needs one view per shard");
        let mut factories = self.factories.write().unwrap();
        let mut cur_views = self.views.write().unwrap();
        {
            let current = self.current.read().unwrap();
            let mut seen = vec![false; self.num_shards];
            for u in &updates {
                assert!(u.shard < self.num_shards, "shard {} out of range", u.shard);
                assert!(!seen[u.shard], "duplicate update for shard {}", u.shard);
                seen[u.shard] = true;
                assert_eq!(
                    u.model.num_edges(),
                    views[u.shard].num_local(),
                    "repaired model does not match shard {}'s new view",
                    u.shard
                );
                assert_eq!(u.model.num_buckets(), current.m, "shard {} bucket count", u.shard);
                assert_eq!(u.model.output_cols(), current.out_cols, "shard {} head", u.shard);
            }
            for k in 0..self.num_shards {
                if !seen[k] {
                    assert_eq!(
                        current.shards[k].model.num_edges(),
                        views[k].num_local(),
                        "unrepaired shard {k}'s view changed; it must carry an update"
                    );
                }
            }
        }
        // Same injection point as the full-set swap: a `panic` here
        // dies before the generation bump, leaving the previous
        // snapshot (and the previous topology) serving untouched.
        if gcwc_failpoint::triggered(crate::failsite::REGISTRY_INSTALL) {
            panic!("failpoint {}: injected install failure", crate::failsite::REGISTRY_INSTALL);
        }
        let generation = self.generation.fetch_add(1, Ordering::AcqRel) + 1;
        let views = Arc::new(views);
        let n: usize = views.iter().map(RowView::num_owned).sum();
        let mut current = self.current.write().unwrap();
        let mut shards = current.shards.clone();
        for u in updates {
            shards[u.shard] = Arc::new(ModelShard { model: u.model, generation });
            factories[u.shard] = u.factory;
        }
        *cur_views = Arc::clone(&views);
        *current = Arc::new(ModelSnapshot {
            shards,
            views,
            generation,
            n,
            m: current.m,
            out_cols: current.out_cols,
        });
        generation
    }

    fn swap_shard(&self, k: usize, model: AnyModel) -> u64 {
        // Failpoint: `panic` here simulates dying mid-install,
        // `delay(ms)` a slow swap racing in-flight batches (which keep
        // serving their snapshot `Arc` either way).
        if gcwc_failpoint::triggered(crate::failsite::REGISTRY_INSTALL) {
            panic!("failpoint {}: injected install failure", crate::failsite::REGISTRY_INSTALL);
        }
        let generation = self.generation.fetch_add(1, Ordering::AcqRel) + 1;
        let shard = Arc::new(ModelShard { model, generation });
        let views = Arc::clone(&self.views.read().unwrap());
        let mut current = self.current.write().unwrap();
        let mut shards = current.shards.clone();
        shards[k] = shard;
        *current = Arc::new(ModelSnapshot {
            shards,
            views,
            generation,
            n: current.n,
            m: current.m,
            out_cols: current.out_cols,
        });
        generation
    }
}

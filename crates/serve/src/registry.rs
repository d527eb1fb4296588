//! Model registry: loads and validates checkpoints into warm models
//! and publishes the served shard set as one immutable snapshot.
//!
//! The served unit is a **shard set**: one model per edge partition
//! (see `gcwc_graph::PartitionSet`), each with the [`RowView`] mapping
//! its local rows back to the global graph and the factory that builds
//! an untrained model of its architecture. A single-shard registry
//! (the common K = 1 case, built by [`ModelRegistry::new`]) carries
//! one model under an identity view.
//!
//! A [`ModelSnapshot`] is the unit of consistency: it holds every
//! shard's model, view and factory, the model generation and the graph
//! (topology) generation. The registry keeps the current snapshot
//! behind one [`RwLock`], and every change goes through one private
//! `publish`: a checkpoint load ([`ModelRegistry::load_shard`]), an
//! in-process install ([`ModelRegistry::install_shard`]), a refresh's
//! whole set ([`ModelRegistry::install_set`]) and a topology change
//! ([`ModelRegistry::install_topology`]). Under the write lock,
//! `publish` derives the next snapshot from the current one, checks
//! every model against the view it will serve under and swaps the
//! snapshot in whole, so a reader never sees a model beside a view it
//! does not fit, nor a graph generation beside a topology it does not
//! name. Unchanged shards are shared by `Arc` between generations, so
//! swapping shard `k` leaves every other shard's identity (and its
//! cache entries, which are keyed by per-shard generation) intact.
//! In-flight batches keep serving the old snapshot via their [`Arc`]
//! until they finish.
//!
//! A checkpoint load restores the file into a fresh model from the
//! current snapshot's factory, outside the lock. The versioned header
//! is validated against the model's architecture token, so a
//! wrong-architecture or corrupt file is rejected before it is exposed,
//! and a load that a topology change overtook is refused when it
//! publishes.

use crate::ServeError;
use gcwc::{AGcwcModel, GcwcModel, InferRequest, InferWorkspace, OutputKind};
use gcwc_graph::{PartitionSet, RowView};
use gcwc_linalg::Matrix;
use gcwc_nn::PersistError;
use std::path::Path;
use std::sync::{Arc, PoisonError, RwLock};

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
    /// The model generation of the snapshot that (re)installed this
    /// shard. Cache keys embed it, so hot-swapping one shard
    /// invalidates exactly that shard's cached completions.
    pub generation: u64,
}

/// One immutable generation of the served shard set: every shard's
/// model, row view and factory, and the model and graph generations.
pub struct ModelSnapshot {
    shards: Vec<Arc<ModelShard>>,
    views: Arc<Vec<RowView>>,
    factories: Vec<Arc<ModelFactory>>,
    /// Model generation (0 = factory-fresh, untrained). Every publish
    /// bumps it.
    pub generation: u64,
    /// Graph (topology) generation: 0 until the first topology change,
    /// bumped by each [`ModelRegistry::install_topology`]. Every
    /// completion this snapshot computes carries it.
    pub graph_generation: u64,
    n: usize,
    m: usize,
    out_cols: usize,
}

impl ModelSnapshot {
    /// Assembles a snapshot after checking every shard's model against
    /// the view it serves under and against shard 0's head.
    ///
    /// # Panics
    /// Panics when the view count differs from the shard count, or a
    /// model does not fit its view, or the shards' bucket counts or
    /// heads differ.
    fn checked(
        shards: Vec<Arc<ModelShard>>,
        views: Arc<Vec<RowView>>,
        factories: Vec<Arc<ModelFactory>>,
        generation: u64,
        graph_generation: u64,
    ) -> Self {
        assert_eq!(views.len(), shards.len(), "one view per shard required");
        let m = shards[0].model.num_buckets();
        let out_cols = shards[0].model.output_cols();
        for (k, (shard, view)) in shards.iter().zip(views.iter()).enumerate() {
            assert_eq!(
                shard.model.num_edges(),
                view.num_local(),
                "shard {k}'s model covers {} edges but its view has {} local rows",
                shard.model.num_edges(),
                view.num_local()
            );
            assert_eq!(shard.model.num_buckets(), m, "shard {k} bucket count differs");
            assert_eq!(shard.model.output_cols(), out_cols, "shard {k} head differs");
        }
        let n = views.iter().map(RowView::num_owned).sum();
        Self { shards, views, factories, generation, graph_generation, n, m, out_cols }
    }

    /// The snapshot that publishing `change` makes of this one. The
    /// model generation advances by one and every changed shard takes
    /// it; a topology change also advances the graph generation.
    fn next(&self, change: Change) -> Result<Self, ServeError> {
        let generation = self.generation + 1;
        let fresh = |model: AnyModel| Arc::new(ModelShard { model, generation });
        let mut shards = self.shards.clone();
        let mut factories = self.factories.clone();
        let mut views = Arc::clone(&self.views);
        let mut graph_generation = self.graph_generation;
        match change {
            Change::Shard { k, model, loaded_under } => {
                if let Some(g) = loaded_under.filter(|&g| g != graph_generation) {
                    return Err(ServeError::Checkpoint(PersistError::Mismatch(format!(
                        "shard {k}'s checkpoint was loaded for graph generation {g}, \
                         but the topology changed to generation {graph_generation}"
                    ))));
                }
                shards[k] = fresh(model);
            }
            Change::Set(models) => shards = models.into_iter().map(fresh).collect(),
            Change::Topology(updates, new_views) => {
                for u in updates {
                    // Only this loop hands out the new generation, so
                    // a shard already carrying it was updated twice.
                    assert_ne!(
                        shards[u.shard].generation, generation,
                        "duplicate update for shard {}",
                        u.shard
                    );
                    shards[u.shard] = fresh(u.model);
                    factories[u.shard] = Arc::new(u.factory);
                }
                views = Arc::new(new_views);
                graph_generation += 1;
            }
        }
        Ok(Self::checked(shards, views, factories, generation, graph_generation))
    }

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

/// What one publish changes.
// Built once per publish and consumed by it; boxing the model would
// only add an allocation.
#[allow(clippy::large_enum_variant)]
enum Change {
    /// Shard `k`'s model. `loaded_under` is the graph generation whose
    /// factory built a checkpoint load's model; the publish is refused
    /// when the topology has changed since.
    Shard { k: usize, model: AnyModel, loaded_under: Option<u64> },
    /// Every shard's model.
    Set(Vec<AnyModel>),
    /// The repaired shards' models and factories, and every shard's
    /// new view.
    Topology(Vec<TopologyUpdate>, Vec<RowView>),
}

/// Registry holding the current [`ModelSnapshot`] behind one
/// [`RwLock`]: lock-cheap reads, and changes that swap the snapshot in
/// whole.
pub struct ModelRegistry {
    current: RwLock<Arc<ModelSnapshot>>,
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
        let models = factories.iter().map(|f| f()).collect();
        Self::from_parts(factories, partition.views(), models)
    }

    fn from_parts(
        factories: Vec<ModelFactory>,
        views: Vec<RowView>,
        models: Vec<AnyModel>,
    ) -> Self {
        assert!(!models.is_empty(), "a registry needs at least one shard");
        let shards =
            models.into_iter().map(|model| Arc::new(ModelShard { model, generation: 0 })).collect();
        let factories = factories.into_iter().map(Arc::new).collect();
        let snapshot = ModelSnapshot::checked(shards, Arc::new(views), factories, 0, 0);
        Self { current: RwLock::new(Arc::new(snapshot)) }
    }

    /// The currently served snapshot. Cheap; callers hold the `Arc`
    /// for the duration of a batch so hot swaps never disrupt them.
    pub fn snapshot(&self) -> Arc<ModelSnapshot> {
        // A poisoned lock still guards a whole snapshot: the `Arc` is
        // only ever replaced in one assignment (see `publish`).
        Arc::clone(&self.current.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Number of shards K.
    pub fn num_shards(&self) -> usize {
        self.snapshot().num_shards()
    }

    /// Current model generation.
    pub fn generation(&self) -> u64 {
        self.snapshot().generation
    }

    /// Loads `path` into shard `k` and publishes a new snapshot; every
    /// other shard is shared unchanged. On any error the previous
    /// snapshot keeps serving: a corrupt or wrong-architecture file,
    /// and a topology change that overtook the load (the checkpoint
    /// was read into the old architecture), are refused with
    /// [`ServeError::Checkpoint`]. Returns the new generation.
    pub fn load_shard(&self, k: usize, path: &Path) -> Result<u64, ServeError> {
        // Failpoint: an injected load failure (disk error, torn
        // checkpoint) must leave the previous snapshot serving.
        if gcwc_failpoint::triggered(crate::failsite::REGISTRY_LOAD) {
            return Err(ServeError::Io(std::io::Error::other(format!(
                "failpoint {}: injected checkpoint load failure",
                crate::failsite::REGISTRY_LOAD
            ))));
        }
        let snapshot = self.snapshot();
        let mut model = (snapshot.factories[k])();
        model.load(path)?;
        self.publish(Change::Shard { k, model, loaded_under: Some(snapshot.graph_generation) })
    }

    /// Swaps an already-built model (e.g. trained in-process) into
    /// shard `k`. Returns the new generation number.
    ///
    /// # Panics
    /// Panics when the model does not fit shard `k`'s view.
    pub fn install_shard(&self, k: usize, model: AnyModel) -> u64 {
        let change = Change::Shard { k, model, loaded_under: None };
        self.publish(change).expect("only a checkpoint load is refused")
    }

    /// Loads `path` into the single shard of a K = 1 registry.
    ///
    /// # Panics
    /// Panics on a sharded registry — load each shard with
    /// [`ModelRegistry::load_shard`].
    pub fn load(&self, path: &Path) -> Result<u64, ServeError> {
        assert_eq!(self.num_shards(), 1, "load() is single-shard only; use load_shard");
        self.load_shard(0, path)
    }

    /// Swaps an already-built model into the single shard of a K = 1
    /// registry. Returns the new generation number.
    ///
    /// # Panics
    /// Panics on a sharded registry — use
    /// [`ModelRegistry::install_shard`].
    pub fn install(&self, model: AnyModel) -> u64 {
        assert_eq!(self.num_shards(), 1, "install() is single-shard only; use install_shard");
        self.install_shard(0, model)
    }

    /// Swaps a complete shard set in as **one** snapshot under a single
    /// generation bump — the hot-swap path of an incremental refresh,
    /// where shard-by-shard [`ModelRegistry::install_shard`] calls
    /// would expose mixed generations to in-flight requests (and a
    /// crash between them would strand a half-swapped set). Every
    /// shard's generation changes, so all cached completions of the
    /// previous set miss. Returns the new generation.
    ///
    /// # Panics
    /// Panics unless there is one model per shard, each fitting its
    /// shard's view.
    pub fn install_set(&self, models: Vec<AnyModel>) -> u64 {
        self.publish(Change::Set(models)).expect("only a checkpoint load is refused")
    }

    /// Absorbs a graph-topology change (an applied
    /// [`gcwc_graph::GraphDelta`]) into the served shard set as **one**
    /// snapshot swap that also bumps the graph generation: every
    /// repaired shard gets its rebuilt model and factory (and a fresh
    /// model generation, invalidating exactly its cached completions),
    /// while untouched shards keep their `Arc`s *and* their generations
    /// — their cache entries stay valid across the swap. The row views
    /// are replaced wholesale; an unrepaired shard's view must keep its
    /// local row count, which [`gcwc_graph::DeltaRepair`] guarantees by
    /// construction. Returns the new model generation.
    ///
    /// # Panics
    /// Panics unless there is one view per shard and every shard's
    /// model fits its new view, or when a shard has two updates.
    pub fn install_topology(&self, updates: Vec<TopologyUpdate>, views: Vec<RowView>) -> u64 {
        self.publish(Change::Topology(updates, views)).expect("only a checkpoint load is refused")
    }

    /// The one way the served set changes. Evaluates the install
    /// failpoint, then, under the write lock, derives the next snapshot
    /// from the current one and swaps it in whole. A panic anywhere in
    /// here leaves the previous snapshot serving, and the registry
    /// stays usable: the guarded `Arc` is only replaced in the final
    /// assignment, so readers and later publishes ignore the lock's
    /// poison flag. Returns the new model generation.
    fn publish(&self, change: Change) -> Result<u64, ServeError> {
        // Failpoint: `panic` simulates dying mid-install, `delay(ms)` a
        // slow publish racing in-flight batches and other publishes.
        // Evaluated before the lock, so neither holds it.
        if gcwc_failpoint::triggered(crate::failsite::REGISTRY_INSTALL) {
            panic!("failpoint {}: injected install failure", crate::failsite::REGISTRY_INSTALL);
        }
        let mut current = self.current.write().unwrap_or_else(PoisonError::into_inner);
        let next = Arc::new(current.next(change)?);
        let generation = next.generation;
        *current = next;
        Ok(generation)
    }
}

//! Ingestion lanes: a lane is one tenant's (one city's, one graph's)
//! **own** [`Pipeline`] (durable log + sliding window) and its own
//! [`RefreshDriver`] over its own model registry. A process that
//! ingests for several tenants holds one lane per tenant and hands each
//! record to its tenant's lane. Lanes share nothing
//! mutable, so one tenant's stream volume, sealing cadence, refresh
//! rollbacks, or checkpoint failures cannot perturb another tenant's
//! lane — the ingest-side mirror of the serving layer's per-tenant
//! engines ([`gcwc_serve::TenantRegistry`]).
//!
//! Determinism carries over per lane: a tenant's lane consumes exactly
//! the record stream routed to it, so its refreshes are bit-identical
//! to a single-tenant process fed the same stream, regardless of what
//! other tenants do in between.

use crate::pipeline::Pipeline;
use crate::record::SpeedRecord;
use crate::refresh::{RefreshDriver, RefreshOutcome};
use crate::window::SealedSlot;
use crate::IngestError;

/// One tenant's complete ingestion lane: pipeline, refresh driver, and
/// the sealed-slot backlog between the two.
pub struct IngestLane {
    pipeline: Pipeline,
    driver: RefreshDriver,
    /// Slots sealed by the pipeline but not yet consumed by a refresh
    /// (the driver's `trained_upto` watermark decides consumption; the
    /// newest `holdout` slots stay here as future training slots).
    sealed: Vec<SealedSlot>,
}

impl IngestLane {
    /// A lane over the given pipeline and driver.
    pub fn new(pipeline: Pipeline, driver: RefreshDriver) -> Self {
        Self { pipeline, driver, sealed: Vec::new() }
    }

    /// Ingests one record into this lane (durable log append, then
    /// window fold — see [`Pipeline::ingest`]).
    pub fn ingest(&mut self, rec: SpeedRecord) -> Result<bool, IngestError> {
        self.pipeline.ingest(rec)
    }

    /// Seals every slot the watermark has passed, then attempts one
    /// refresh over the accumulated sealed backlog. `NotReady` keeps
    /// the backlog intact; an applied or rolled-back refresh prunes
    /// the slots the driver consumed.
    pub fn poll_refresh(&mut self) -> Result<RefreshOutcome, IngestError> {
        self.pipeline.seal_ready()?;
        self.refresh_backlog()
    }

    /// End-of-stream variant of [`IngestLane::poll_refresh`]: seals
    /// every open slot regardless of the watermark first.
    pub fn finish_refresh(&mut self) -> Result<RefreshOutcome, IngestError> {
        self.pipeline.seal_all()?;
        self.refresh_backlog()
    }

    fn refresh_backlog(&mut self) -> Result<RefreshOutcome, IngestError> {
        self.sealed.extend(self.pipeline.take_sealed());
        let outcome = self.driver.refresh(&self.sealed)?;
        // Slots below the driver's watermark were consumed (trained on
        // or quarantined); holdout slots stay eligible for later
        // training and are retained.
        let upto = self.driver.trained_upto();
        self.sealed.retain(|s| s.slot >= upto);
        Ok(outcome)
    }

    /// The lane's pipeline.
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// The lane's pipeline, mutably (e.g. for `flush` on shutdown).
    pub fn pipeline_mut(&mut self) -> &mut Pipeline {
        &mut self.pipeline
    }

    /// The lane's refresh driver.
    pub fn driver(&self) -> &RefreshDriver {
        &self.driver
    }

    /// The lane's refresh driver, mutably (e.g. for
    /// [`RefreshDriver::install_initial`]).
    pub fn driver_mut(&mut self) -> &mut RefreshDriver {
        &mut self.driver
    }
}

//! Serving quickstart: train briefly, checkpoint, serve over TCP, and
//! query a completed weight matrix for a (time-of-day, day-of-week)
//! context.
//!
//! ```sh
//! cargo run --release --example serve_quickstart
//! ```

use gcwc::{build_samples, AGcwcModel, CompletionModel, ModelConfig, TaskKind};
use gcwc_serve::{AnyModel, BinClient, Engine, EngineConfig, ModelRegistry, Server, TenantId};
use gcwc_traffic::{generators, simulate, HistogramSpec, SimConfig};
use std::sync::Arc;

fn main() {
    // 1. A small network with simulated traffic, trained briefly — the
    //    goal here is the serving path, not model quality.
    let hw = generators::highway_tollgate(42);
    let sim = SimConfig { days: 3, intervals_per_day: 96, ..Default::default() };
    let data = simulate(&hw, HistogramSpec::hist8(), &sim);
    let dataset = data.to_dataset(0.6, 5, 7);
    let train_idx: Vec<usize> = (0..dataset.len() - 8).collect();
    let samples = build_samples(&dataset, &train_idx, TaskKind::Estimation, 0);

    let cfg = ModelConfig::hw_hist().with_epochs(5);
    let mut model = AGcwcModel::new(&hw.graph, 8, 96, cfg.clone(), 1);
    println!("training A-GCWC ({} parameters)...", model.num_params());
    model.fit(&samples);

    // 2. Save a checkpoint. The file starts with a `gcwc-checkpoint v1
    //    <arch>` header, so the server can verify it loads the right
    //    architecture.
    let dir = std::env::temp_dir().join("gcwc_serve_quickstart");
    std::fs::create_dir_all(&dir).expect("create checkpoint dir");
    let ckpt = dir.join("agcwc.ckpt");
    model.save(&ckpt).expect("save checkpoint");
    println!("checkpoint: {} ({})", ckpt.display(), model.arch_string());

    // 3. Spin up the serving stack: a registry that knows how to build
    //    the architecture, an engine batching requests over a bounded
    //    queue with a completion cache, and a TCP front end.
    let hw = Arc::new(hw);
    let factory_hw = Arc::clone(&hw);
    let registry = Arc::new(ModelRegistry::new(Box::new(move || {
        AnyModel::AGcwc(AGcwcModel::new(
            &factory_hw.graph,
            8,
            96,
            ModelConfig::hw_hist().with_epochs(5),
            0,
        ))
    })));
    let generation = registry.load(&ckpt).expect("load checkpoint");
    println!("registry loaded generation {generation}");

    // The server hosts the engine as tenant 0; every request names it.
    let engine = Arc::new(Engine::new(registry, EngineConfig::default()));
    let mut server = Server::start(Arc::clone(&engine), "127.0.0.1:0").expect("bind server");
    let tenant = TenantId::DEFAULT.0;
    println!("serving tenant {tenant} on {}", server.addr());

    // 4. Query over TCP: ask for the completed weight matrix of a
    //    held-out evening-peak snapshot (17:30 on day 0). The observed
    //    matrix travels as raw f64 bit patterns, so the response is
    //    bit-identical to an in-process forward pass.
    let test_idx = vec![(0..dataset.len())
        .rev()
        .find(|&i| dataset.snapshots[i].context.time_of_day == 70)
        .expect("peak interval exists")];
    let test = build_samples(&dataset, &test_idx, TaskKind::Estimation, 0);
    let sample = &test[0];

    let mut client = BinClient::connect(server.addr()).expect("connect");
    let response = client
        .tcomplete(tenant, &sample.input, sample.context.time_of_day, sample.context.day_of_week)
        .expect("complete")
        .body;
    println!(
        "\ncompleted {}x{} matrix (cache hit: {}, generation {})",
        response.output.rows(),
        response.output.cols(),
        response.cache_hit,
        response.generation
    );

    // The same request again is answered from the completion cache.
    let again = client
        .tcomplete(tenant, &sample.input, sample.context.time_of_day, sample.context.day_of_week)
        .expect("complete (cached)");
    println!("repeat request cache hit: {}", again.body.cache_hit);

    // 5. Inspect an edge that had no traffic data in this interval: the
    //    served row is its completed speed histogram.
    let missing_edge = (0..sample.input.rows())
        .find(|&e| sample.context.row_flags[e] == 0.0)
        .expect("some edge is missing at rm = 0.6");
    println!("\nedge e{missing_edge} had no traffic data in this interval;");
    println!("served speed histogram (buckets of 5 m/s, 0-40 m/s):");
    print!(
        "{}",
        gcwc_traffic::viz::histogram_bars(
            response.output.row(missing_edge),
            &HistogramSpec::hist8(),
            50
        )
    );

    // 6. The server's counters, read over the wire by name.
    println!("\nserver stats:");
    for (name, value) in client.tstats(tenant).expect("stats").named() {
        println!("  {name:<22} {value}");
    }
    client.quit().expect("quit");

    server.stop();
    engine.shutdown();
}

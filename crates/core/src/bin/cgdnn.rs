//! `cgdnn` — command-line front end (the `caffe` binary equivalent).
//!
//! Every flag is one row of the table in `cgdnn::cli`: it parses the
//! command line, rejects flags a subcommand does not take, supplies the
//! defaults, and is what `cgdnn --help` / `cgdnn <subcommand> --help` print.

use cgdnn::cli::{self, make_source, Args};
use cgdnn::observe;
use cgdnn::prelude::*;
use machine::report::NetworkSim;
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Write `bytes` to `path` atomically (temp + fsync + rename), so a reader
/// never sees half a file.
fn write_file(path: &str, bytes: &[u8]) -> Result<(), String> {
    net::write_atomic(Path::new(path), bytes).map_err(|e| format!("{path}: {e}"))
}

/// When `--flag FILE` was given, write `bytes()` there and say so.
fn write_flag(
    args: &Args,
    flag: &str,
    what: &str,
    bytes: impl FnOnce() -> Result<Vec<u8>, String>,
) -> Result<(), String> {
    if let Some(path) = args.get(flag) {
        write_file(path, &bytes()?)?;
        println!("{what} written to {path}");
    }
    Ok(())
}

/// Start span collection for `--trace FILE`; stale buffered events are
/// dropped so the output covers only this run. Each thread retains at most
/// `obs::trace::MAX_EVENTS_PER_THREAD` events: beyond it the oldest are
/// overwritten and counted in the trace's `dropped_events`.
fn start_tracing(args: &Args) {
    let _ = obs::trace::take_events();
    obs::trace::set_enabled(args.has("trace"));
}

/// Stop tracing and collect a `--trace` run's events (`None` otherwise).
fn finish_tracing(args: &Args) -> Option<Vec<obs::Event>> {
    obs::trace::set_enabled(false);
    args.has("trace").then(obs::trace::take_events)
}

/// Write the `--trace` events and dump the global metrics registry to
/// `--metrics FILE` (`-` for stdout).
fn write_observability(args: &Args, events: Option<&[obs::Event]>) -> Result<(), String> {
    if let (Some(path), Some(events)) = (args.get("trace"), events) {
        let dropped = obs::trace::dropped_events();
        let mut buf = Vec::new();
        obs::trace::write_chrome_trace_with_dropped(&mut buf, events, dropped)
            .map_err(|e| format!("trace encode: {e}"))?;
        write_file(path, &buf)?;
        println!(
            "trace written to {path} ({} events, {dropped} oldest dropped at the event limit)",
            events.len()
        );
    }
    match args.get("metrics") {
        Some("-") => print!("{}", obs::registry::global().csv()),
        _ => write_flag(args, "metrics", "metrics", || {
            Ok(obs::registry::global().csv().into_bytes())
        })?,
    }
    Ok(())
}

/// The `--metrics-every SECS` tick: once the interval has passed, rewrite
/// `--metrics FILE` atomically, so a scraper tailing it never reads a torn
/// CSV; a no-op without the flag. A failed write is reported, never fatal —
/// the flush is telemetry, not state.
fn metrics_flusher(args: &Args) -> Result<impl FnMut(), String> {
    let every = args.parse_opt::<f64>("metrics-every")?.filter(|s| *s > 0.0);
    let path = every.and(args.get("metrics")).map(String::from);
    let every = Duration::from_secs_f64(every.unwrap_or(0.0).max(1e-3));
    let mut last = Instant::now();
    Ok(move || match &path {
        Some(path) if last.elapsed() >= every => {
            last = Instant::now();
            if let Err(e) = write_file(path, obs::registry::global().csv().as_bytes()) {
                eprintln!("warning: periodic metrics flush failed: {e}");
            }
        }
        _ => {}
    })
}

/// Per-step progress shared by every training path: the `--loss-log` line,
/// a printed line every `target / 20` iterations and at the target, and the
/// `--metrics-every` rewrite.
struct Progress {
    lines: Vec<String>,
    every: u64,
    target: u64,
    flush_metrics: Box<dyn FnMut()>,
}

impl Progress {
    fn new(args: &Args, target: usize) -> Result<Self, String> {
        Ok(Self {
            lines: Vec::new(),
            every: (target / 20).max(1) as u64,
            target: target as u64,
            flush_metrics: Box::new(metrics_flusher(args)?),
        })
    }

    /// `{:.8e}` prints 9 significant digits, which round-trips an `f32`
    /// loss exactly: logs of bit-identical runs compare equal with `cmp`.
    fn step(&mut self, it: u64, loss: f64) {
        self.lines.push(format!("{it} {loss:.8e}"));
        if it.is_multiple_of(self.every) || it == self.target {
            println!("iter {it:>6}  loss {loss:.8e}");
        }
        (self.flush_metrics)();
    }
}

/// Write a finished training run's `--loss-log` (one `<iteration> <loss>`
/// line per step) and `--snapshot`.
fn write_run(args: &Args, net: &Net<f32>, progress: &Progress) -> Result<(), String> {
    write_flag(args, "loss-log", "loss log", || {
        Ok((progress.lines.join("\n") + "\n").into_bytes())
    })?;
    write_flag(args, "snapshot", "snapshot", || {
        let mut bytes = Vec::new();
        net::save_params(net, &mut bytes).map_err(|e| e.to_string())?;
        Ok(bytes)
    })
}

/// The `<spec.prototxt>` argument, parsed, and the `--data` source.
fn load_spec(args: &Args) -> Result<(NetSpec, Box<dyn BatchSource<f32>>), String> {
    let path = args
        .positional
        .first()
        .ok_or("missing <spec.prototxt> argument")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let spec = NetSpec::parse(&text).map_err(|e| e.to_string())?;
    Ok((spec, make_source(args.get("data").unwrap_or_default())?))
}

/// The first `n` samples of `source` (cycling), materialized for the load
/// clients.
fn samples(source: &dyn BatchSource<f32>, n: usize) -> Vec<Vec<f32>> {
    let len = source.sample_shape().count();
    (0..n)
        .map(|i| {
            let mut sample = vec![0.0; len];
            source.fill(i % source.num_samples(), &mut sample);
            sample
        })
        .collect()
}

fn load_net(args: &Args) -> Result<Net<f32>, String> {
    let (spec, source) = load_spec(args)?;
    Net::from_spec(&spec, Some(source)).map_err(|e| e.to_string())
}

fn cmd_summary(args: &Args) -> Result<(), String> {
    let net = load_net(args)?;
    print!("{}", net.summary());
    let report = net.memory_report();
    println!("\nmemory: {report}");
    Ok(())
}

/// `--reduction` flag to reduction mode; `canonical:G` pins the canonical
/// group count (the knob that makes a single process reproduce a G-worker
/// distributed run bit-for-bit — see DESIGN.md).
fn parse_reduction(s: &str) -> Result<ReductionMode, String> {
    let groups = s.strip_prefix("canonical:").map(str::parse::<usize>);
    Ok(match (s, groups) {
        ("ordered", _) => ReductionMode::Ordered,
        ("canonical", _) => ReductionMode::Canonical { groups: 16 },
        (_, Some(Ok(groups))) if groups > 0 => ReductionMode::Canonical { groups },
        _ => {
            return Err(format!(
                "unknown reduction '{s}' (canonical:G needs G >= 1)"
            ))
        }
    })
}

fn cmd_train(args: &Args) -> Result<(), String> {
    let mut net = load_net(args)?;
    if let Some(w) = args.get("weights") {
        let file = std::fs::File::open(w).map_err(|e| format!("{w}: {e}"))?;
        net::load_params(&mut net, file).map_err(|e| e.to_string())?;
        println!("initialized from {w}");
    }
    let threads: usize = args.get_parse("threads")?;
    let iters: usize = args.get_parse("iters")?;
    let cfg = SolverConfig::lenet();
    let reduction = parse_reduction(args.get("reduction").unwrap_or_default())?;
    let run = format!(
        "on {threads} threads (momentum SGD, lr {}, {reduction:?})",
        cfg.base_lr
    );
    let mut trainer = CoarseGrainTrainer::new(net, cfg, threads).with_reduction(reduction);
    if args.has("profile") {
        trainer.enable_profiling();
    }
    start_tracing(args);
    let mut progress = Progress::new(args, iters)?;

    let snapshot_every: usize = args.get_parse("snapshot-every")?;
    let resume = args.get("resume");
    if snapshot_every > 0 || resume.is_some() {
        // Checkpointed path: crash-safe snapshots + divergence rollback.
        // `--iters` is the absolute target, so a resumed run finishes the
        // remaining work instead of training N more.
        let dir_path = args.get("snapshot-dir").or(resume).unwrap_or("checkpoints");
        let dir = CheckpointDir::new(dir_path);
        if resume.is_some() {
            let outcome = dir.resume_latest(&mut trainer).map_err(|e| e.to_string())?;
            for (p, why) in &outcome.skipped {
                eprintln!("warning: skipped corrupt checkpoint {}: {why}", p.display());
            }
            println!(
                "resumed from {} at iteration {}",
                outcome.path.display(),
                outcome.iteration
            );
        }
        let done = trainer.solver().iteration();
        let remaining = (iters as u64).saturating_sub(done) as usize;
        if remaining == 0 {
            println!("nothing to train: already at iteration {done} (target {iters})");
            return Ok(());
        }
        println!(
            "training iterations {}..{iters} {run}, checkpoints in {dir_path} \
             (every {snapshot_every})",
            done + 1
        );
        let report =
            train_with_checkpoints(&mut trainer, remaining, &dir, snapshot_every, |it, l| {
                progress.step(it, l)
            })
            .map_err(|e| e.to_string())?;
        if report.rollbacks > 0 {
            println!(
                "{} divergence rollback(s); see {dir_path}/training.log",
                report.rollbacks
            );
        }
    } else {
        println!("training {iters} iterations {run}");
        for it in 1..=iters as u64 {
            let loss = trainer.step();
            progress.step(it, loss.into());
            if !loss.is_finite() {
                return Err(format!(
                    "diverged at iteration {it}; rerun with --snapshot-every to get \
                     rollback instead of a dead run"
                ));
            }
        }
    }
    write_run(args, trainer.net(), &progress)?;

    let events = finish_tracing(args);
    if let Some(profile) = trainer.profile() {
        print!("{}", profile.table());
        let analytic = observe::analytic_imbalance(&trainer.net().profiles(), threads);
        let measured = events.as_deref().and_then(observe::measured_imbalance);
        let comparison = observe::imbalance_comparison(measured.as_ref(), &analytic);
        print!("{comparison}");
        write_flag(args, "profile-csv", "profile", || {
            Ok(profile.csv().into_bytes())
        })?;
    }
    write_observability(args, events.as_deref())
}

/// The spec's `Data` layer batch size — the distributed *effective* batch.
fn spec_batch(spec: &NetSpec) -> Result<usize, String> {
    spec.layers
        .iter()
        .find(|l| l.layer_type == "Data")
        .ok_or("spec has no Data layer")?
        .get_usize("batch")
        .map_err(|e| e.to_string())
}

/// Rank `rank`'s worker net — the spec's Data batch cut to the local shard
/// over that rank's [`datasets::ShardedSource`] — for the worker command and
/// the coordinator's elastic recompute alike.
fn build_shard_net(
    spec: &NetSpec,
    data_kind: &str,
    rank: usize,
    world: usize,
) -> Result<Net<f32>, String> {
    let effective_batch = spec_batch(spec)?;
    let mut spec = spec.clone();
    if let Some(data) = spec.layers.iter_mut().find(|l| l.layer_type == "Data") {
        let local_batch = effective_batch / world;
        data.params.insert("batch".into(), local_batch.to_string());
    }
    let sharded =
        datasets::ShardedSource::new(make_source(data_kind)?, rank, world, effective_batch);
    Net::from_spec(&spec, Some(Box::new(sharded))).map_err(|e| e.to_string())
}

/// The coordinator's worker processes — this binary in `--worker-connect`
/// mode, first spawn or respawn — and its [`dist::ElasticHooks`]. `children`
/// is the reap list: teardown waits on (or kills) every process created.
struct CliHooks {
    exe: std::path::PathBuf,
    spec_path: String,
    spec: NetSpec,
    data_kind: String,
    addr: String,
    world: usize,
    children: Vec<Child>,
}

impl CliHooks {
    /// Start rank `rank`'s worker, first spawn or respawn alike: a worker
    /// joins a running session like a new one.
    fn spawn(&mut self, rank: usize) -> std::io::Result<()> {
        let (rank, world) = (rank.to_string(), self.world.to_string());
        let mut cmd = Command::new(&self.exe);
        cmd.args(["train", &self.spec_path, "--worker-connect", &self.addr]);
        cmd.args(["--rank", &rank, "--workers", &world]);
        cmd.args(["--data", &self.data_kind]);
        self.children.push(cmd.stdin(Stdio::null()).spawn()?);
        Ok(())
    }
}

impl dist::ElasticHooks for CliHooks {
    fn shard_net(&mut self, rank: usize) -> Result<Net<f32>, dist::DistError> {
        build_shard_net(&self.spec, &self.data_kind, rank, self.world)
            .map_err(dist::DistError::Config)
    }

    fn respawn(&mut self, rank: usize) -> Result<bool, dist::DistError> {
        self.spawn(rank)
            .map_err(|e| dist::DistError::Io(format!("respawning worker {rank}: {e}")))?;
        Ok(true)
    }
}

/// Wait for every spawned worker to exit; after `grace` the stragglers are
/// killed (they already received `FRAME_DONE`, so a straggler is stuck,
/// not slow). Returns each worker's exit code (`-1` = killed/unknown).
fn reap_workers(children: &mut [Child], grace: Duration) -> Vec<i32> {
    let deadline = Instant::now() + grace;
    let reap = |c: &mut Child| loop {
        match c.try_wait() {
            Ok(Some(status)) => return status.code().unwrap_or(-1),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            Ok(None) => {
                let _ = c.kill();
                let _ = c.wait();
                return -1;
            }
            Err(_) => return -1,
        }
    };
    children.iter_mut().map(reap).collect()
}

/// Publish a bound address to `--port-file`, for ephemeral-port scripts.
fn write_port_file(args: &Args, addr: SocketAddr) -> Result<(), String> {
    match args.get("port-file") {
        Some(path) => write_file(path, addr.to_string().as_bytes()),
        None => Ok(()),
    }
}

/// `cgdnn train --coordinator ADDR --workers N`: bind, spawn the workers and
/// drive the synchronous data-parallel run, bit-identical to `--reduction
/// canonical:N --threads 1` on one process (DESIGN.md has the argument).
fn cmd_train_coordinator(args: &Args) -> Result<(), String> {
    let (spec, source) = load_spec(args)?;
    let num_samples = source.num_samples();
    let effective_batch = spec_batch(&spec)?;
    let mut net = Net::from_spec(&spec, Some(source)).map_err(|e| e.to_string())?;

    let workers: usize = args.get_parse("workers")?;
    let iters: usize = args.get_parse("iters")?;
    let cfg = SolverConfig::lenet();
    let run = format!("(momentum SGD, lr {})", cfg.base_lr);
    let mut solver = Solver::<f32>::new(cfg);
    let dist_cfg = dist::DistConfig {
        world: workers,
        effective_batch,
        num_samples,
        iters,
        io_timeout: Duration::from_secs(30),
    };
    // Fail on a bad shape before any child process exists.
    dist_cfg.validate().map_err(|e| e.to_string())?;

    let bind = args.get("coordinator").unwrap_or_default();
    let listener = std::net::TcpListener::bind(bind).map_err(|e| format!("bind {bind}: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    write_port_file(args, addr)?;
    println!(
        "coordinator on {addr}: {workers} worker(s) x local batch {}, {iters} iterations {run}",
        effective_batch / workers
    );
    start_tracing(args);

    let mut hooks = CliHooks {
        exe: std::env::current_exe().map_err(|e| e.to_string())?,
        spec_path: args.positional[0].clone(),
        spec,
        data_kind: args.get("data").unwrap_or_default().to_string(),
        addr: addr.to_string(),
        world: workers,
        children: Vec::with_capacity(workers),
    };
    for r in 0..workers {
        hooks
            .spawn(r)
            .map_err(|e| format!("spawning worker {r}: {e}"))?;
    }

    let mut progress = Progress::new(args, iters)?;
    let mut on_step = |it: u64, loss: f32, _: &mut Net<f32>, _: &mut Solver<f32>| {
        progress.step(it, loss.into());
        Ok(())
    };
    let coord_cfg = dist::CoordinatorConfig {
        dist: dist_cfg,
        join_timeout: Duration::from_secs(20),
    };
    // Elastic mode is opt-in: a restart budget or an explicit willingness
    // to run degraded turns worker death from fatal into recoverable.
    let max_restarts: usize = args.get_parse("max-worker-restarts")?;
    let degraded_ok = args.has("degraded-ok");
    let result = if max_restarts > 0 || degraded_ok {
        let policy = dist::RecoveryPolicy {
            budget: serve::RestartBudget::new(
                max_restarts.max(1),
                Duration::from_millis(args.get_parse("restart-window")?),
            ),
            degraded_ok,
        };
        dist::run_coordinator_elastic(
            listener,
            &mut net,
            &mut solver,
            &coord_cfg,
            policy,
            &mut hooks,
            &mut on_step,
        )
    } else {
        dist::run_coordinator(listener, &mut net, &mut solver, &coord_cfg, &mut on_step)
    };
    let codes = reap_workers(&mut hooks.children, Duration::from_secs(10));

    match result {
        Ok(_losses) => {
            println!(
                "distributed run complete; worker exit codes {codes:?} \
                 (final iteration {})",
                solver.iteration()
            );
            write_run(args, &net, &progress)?;
            write_observability(args, finish_tracing(args).as_deref())
        }
        Err(e) => {
            let _ = finish_tracing(args);
            Err(format!("{e} (worker exit codes {codes:?})"))
        }
    }
}

/// `cgdnn train --worker-connect ADDR --rank R --workers N`: one worker
/// process, computing rank R's slice of every global batch.
fn cmd_train_worker(args: &Args) -> Result<(), String> {
    let rank: usize = args.get_parse("rank")?;
    let world: usize = args.get_parse("workers")?;
    let (spec, source) = load_spec(args)?;
    let (batch, samples) = (spec_batch(&spec)?, source.num_samples());
    if rank >= world || batch % world != 0 || samples % batch != 0 {
        return Err(format!(
            "rank {rank} of {world} workers cannot shard batch {batch} of {samples} samples"
        ));
    }
    let data_kind = args.get("data").unwrap_or_default();
    let mut net = build_shard_net(&spec, data_kind, rank, world)?;
    let addr = args.get("worker-connect").unwrap_or_default();
    let mut cfg = dist::WorkerConfig::new(addr.to_string(), rank);
    // A manually-managed worker can ride out coordinator-link loss with
    // its own reconnect budget.
    cfg.max_rejoins = args.get_parse("max-rejoins")?;
    let report = dist::run_worker(&mut net, &cfg).map_err(|e| format!("worker {rank}: {e}"))?;
    println!(
        "worker {rank} done: {} step(s), {} rejoin(s)",
        report.steps, report.rejoins
    );
    Ok(())
}

fn cmd_infer(args: &Args) -> Result<(), String> {
    let (spec, source) = load_spec(args)?;
    let sample_shape = source.sample_shape();

    start_tracing(args);
    let threads: usize = args.get_parse("threads")?;
    let replicas: usize = args.get_parse("replicas")?;
    let max_batch: usize = args.get_parse("max-batch")?;
    let queue_depth: usize = args.get_parse("queue-depth")?;
    let max_restarts: usize = args.get_parse("max-restarts")?;
    let restart_window_ms: u64 = args.get_parse("restart-window")?;

    let weights = args
        .get("weights")
        .map(|w| std::fs::read(w).map_err(|e| format!("{w}: {e}")))
        .transpose()?;
    // One factory: the snapshot is decoded exactly once, every replica
    // shares that decoded copy, and a panicked replica rebuilds from it
    // from it without touching the filesystem again.
    let factory = serve::EngineFactory::<f32>::new(
        &spec,
        &sample_shape,
        &serve::EngineConfig {
            max_batch,
            n_threads: threads,
        },
        weights.as_deref(),
    )
    .map_err(|e| e.to_string())?;
    println!(
        "serving '{}': {replicas} replica(s) x {threads} thread(s), max_batch {max_batch}, \
         queue depth {queue_depth}, {:.1} KiB shared weights, \
         restart budget: {max_restarts} restarts / {restart_window_ms} ms",
        spec.name,
        factory.params_bytes() as f64 / 1024.0,
    );
    if weights.is_none() {
        println!("note: no --weights given; serving randomly initialized parameters");
    }

    let server = serve::Server::start_supervised(
        factory,
        replicas,
        serve::BatchPolicy { queue_depth },
        serve::RestartBudget::new(max_restarts, Duration::from_millis(restart_window_ms)),
    )
    .map_err(|e| e.to_string())?;
    // The server's live `serve.*` handles join the process registry here,
    // once: `--metrics`, `--metrics-every` and `stats --connect` read them
    // while the server runs, beside the training and `rpc.*` metrics.
    obs::registry::global().adopt(server.metrics().registry());
    run_rpc_server(args, server)
}

/// Serve the micro-batcher on `--listen` until a client sends a drain
/// request (or `--serve-for-ms` elapses), then drain it, print its report
/// and write the run's `--trace` and `--metrics`. Blocks the main thread;
/// the connections are multiplexed on the event loop inside
/// [`rpc::RpcServer`].
fn run_rpc_server(args: &Args, server: serve::Server<f32>) -> Result<(), String> {
    let listen = args.get("listen").unwrap_or_default();
    let cfg = rpc::RpcConfig {
        max_connections: args.get_parse("rpc-max-conns")?,
    };
    let serve_for = Duration::from_millis(args.get_parse("serve-for-ms")?);
    let rpc_server = rpc::RpcServer::start(
        listen,
        server.client(),
        server.output_len(),
        cfg,
        obs::registry::global(),
    )
    .map_err(|e| format!("listen on {listen}: {e}"))?;
    let addr = rpc_server.local_addr();
    println!("listening on {addr} (send a drain frame or `cgdnn load --drain-server` to stop)");
    write_port_file(args, addr)?;
    let t0 = Instant::now();
    let mut flush_metrics = metrics_flusher(args)?;
    while !rpc_server.drain_requested() {
        if !serve_for.is_zero() && t0.elapsed() >= serve_for {
            println!("--serve-for-ms elapsed; draining");
            break;
        }
        flush_metrics();
        std::thread::sleep(Duration::from_millis(50));
    }
    rpc_server.shutdown();
    println!("{}", server.shutdown());
    write_observability(args, finish_tracing(args).as_deref())
}

/// `--connect ADDR`, resolved.
fn connect_addr(args: &Args) -> Result<SocketAddr, String> {
    let connect = args.get("connect").ok_or("missing --connect ADDR")?;
    std::net::ToSocketAddrs::to_socket_addrs(connect)
        .map_err(|e| format!("{connect}: {e}"))?
        .next()
        .ok_or_else(|| format!("{connect}: resolves to no address"))
}

/// `cgdnn load` — closed-loop wire load against an `infer` server.
fn cmd_load(args: &Args) -> Result<(), String> {
    let addr = connect_addr(args)?;
    let cfg = rpc::LoadConfig {
        clients: args.get_parse("clients")?,
        requests: args.get_parse("requests")?,
        deadline_us: args.get_parse("deadline-us")?,
        pipeline: args.get_parse("pipeline")?,
        idle_conns: args.get_parse("idle-conns")?,
        ..rpc::LoadConfig::default()
    };
    let fuzz_conns: usize = args.get_parse("fuzz")?;

    // Probe handshake: learn the server's sample shape and fail fast on a
    // mismatched data source. Dropped before the run so it does not hold a
    // connection seat while the load clients connect.
    let probe = rpc::RpcClient::connect(addr).map_err(|e| e.to_string())?;
    let sample_len = probe.sample_len();
    drop(probe);
    let source = make_source(args.get("data").unwrap_or_default())?;
    if source.sample_shape().count() != sample_len {
        return Err(format!(
            "--data samples have {} values but the server expects {sample_len}",
            source.sample_shape().count()
        ));
    }
    let samples = samples(
        &*source,
        cfg.requests.clamp(1, 256).min(source.num_samples()),
    );

    println!(
        "wire load against {addr}: {} clients (pipeline {}, {} idle), {} requests, deadline {} us",
        cfg.clients, cfg.pipeline, cfg.idle_conns, cfg.requests, cfg.deadline_us
    );
    let report = rpc::load::run(addr, &cfg, &samples).map_err(|e| e.to_string())?;
    println!("{report}");

    if fuzz_conns > 0 {
        let fz = rpc::load::fuzz(addr, fuzz_conns, 0x5eed, Duration::from_secs(5))
            .map_err(|e| format!("fuzz: {e}"))?;
        println!(
            "fuzz: {} malformed connections sent, {} answered with an error frame",
            fz.connections, fz.answered
        );
    }
    if args.has("drain-server") {
        let mut c = rpc::RpcClient::connect(addr).map_err(|e| e.to_string())?;
        c.drain_server().map_err(|e| e.to_string())?;
        println!("server acknowledged drain");
    }
    write_flag(args, "csv", "report", || Ok(report.csv().into_bytes()))
}

/// `cgdnn stats --connect ADDR` — scrape the metric registry of a live
/// `infer` server or training coordinator over the wire (`FRAME_STATS`),
/// without disturbing it, and print it as `metric,value` CSV.
fn cmd_stats(args: &Args) -> Result<(), String> {
    let addr = connect_addr(args)?;
    let snap = rpc::fetch_stats(addr, Duration::from_secs(10)).map_err(|e| e.to_string())?;
    print!("{}", snap.csv());
    Ok(())
}

fn cmd_simulate(args: &Args) -> Result<(), String> {
    let net = load_net(args)?;
    let sim = NetworkSim::paper_machine(&net.profiles());
    println!("projection onto the paper's 16-core Xeon E5-2667v2 + K40:");
    for &t in &sim.thread_counts {
        println!(
            "  coarse-grain CPU @{t:>2} threads: {:>6.2}x",
            sim.cpu_speedup(t).unwrap()
        );
    }
    println!("  plain-GPU : {:>6.2}x", sim.gpu_plain_speedup());
    println!("  cuDNN-GPU : {:>6.2}x", sim.gpu_cudnn_speedup());
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(sub) = argv.first().cloned() else {
        eprint!("{}", cli::help(""));
        return ExitCode::FAILURE;
    };
    if argv.iter().any(|a| a == "--help") {
        print!("{}", cli::help(&sub));
        return ExitCode::SUCCESS;
    }
    let r = Args::parse(&sub, argv.into_iter().skip(1)).and_then(|args| match sub.as_str() {
        "summary" => cmd_summary(&args),
        // The distributed roles: the coordinator owns the solver, a worker
        // only its shard's compute.
        "train" if args.has("worker-connect") => cmd_train_worker(&args),
        "train" if args.has("coordinator") => cmd_train_coordinator(&args),
        "train" => cmd_train(&args),
        "infer" => cmd_infer(&args),
        "load" => cmd_load(&args),
        "stats" => cmd_stats(&args),
        "simulate" => cmd_simulate(&args),
        _ => unreachable!("Args::parse accepts only cli::SUBCOMMANDS"),
    });
    match r {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_parses_two_modes_and_refuses_the_rest() {
        assert_eq!(parse_reduction("ordered"), Ok(ReductionMode::Ordered));
        assert_eq!(
            parse_reduction("canonical"),
            Ok(ReductionMode::Canonical { groups: 16 })
        );
        assert_eq!(
            parse_reduction("canonical:3"),
            Ok(ReductionMode::Canonical { groups: 3 })
        );
        for bad in ["unordered", "canonical:0", "canonical:x", ""] {
            let err = parse_reduction(bad).unwrap_err();
            assert!(
                err.starts_with(&format!("unknown reduction '{bad}'")),
                "{err}"
            );
        }
    }
}

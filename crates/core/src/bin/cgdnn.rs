//! `cgdnn` — command-line front end (the `caffe` binary equivalent).
//!
//! ```text
//! cgdnn summary  <spec.prototxt> [--data KIND]
//! cgdnn train    <spec.prototxt> [--data KIND] [--threads N] [--iters N]
//!                [--lr X] [--solver sgd|nesterov|adagrad]
//!                [--reduction ordered|canonical[:G]|unordered]
//!                [--snapshot FILE] [--weights FILE] [--loss-log FILE]
//!                [--snapshot-every K] [--resume DIR] [--snapshot-dir DIR]
//!                [--keep N] [--keep-epoch-every N]
//!                [--profile] [--profile-csv FILE] [--trace FILE]
//!                [--trace-stream FILE] [--metrics FILE]
//! cgdnn train    <spec.prototxt> --coordinator ADDR --workers N ...
//!                                      # distributed: spawn + coordinate
//! cgdnn train    <spec.prototxt> --worker-connect ADDR --rank R --workers N
//!                                      # distributed: one worker process
//! cgdnn infer    <spec.prototxt> [--weights FILE] [--replicas N] ...
//!                [--listen ADDR]      # serve over TCP instead of in-process
//! cgdnn load     --connect ADDR [--clients N] [--requests M] [--fuzz K]
//!                [--drain-server]     # wire load generator (E17)
//! cgdnn stats    --connect ADDR [--watch SECS] [--csv|--json]
//!                                      # live metrics scrape of any
//!                                      # serving / coordinating process
//! cgdnn simulate <spec.prototxt> [--data KIND]
//! cgdnn plan     <spec.prototxt> [--data KIND] [--threads N] [--beam B]
//!                [--model xeon|scaled:SxC] [--profile-csv FILE]
//!                [--out FILE] [--json FILE]
//!                                      # search per-layer parallelism
//!                                      # strategies; execute the emitted
//!                                      # .plan with train/infer --plan
//! ```
//!
//! `KIND` is `synthetic-mnist` (default), `synthetic-cifar`, or
//! `idx:<images>,<labels>` / `cifar-bin:<file>` for real data.

use cgdnn::checkpoint::{train_with_checkpoints, CheckpointDir, GuardConfig};
use cgdnn::cli::{make_source, Args};
use cgdnn::observe;
use cgdnn::prelude::*;
use machine::report::NetworkSim;
use std::fs::File;
use std::path::Path;
use std::process::ExitCode;

/// Start span collection when `--trace` was given (drains any stale
/// buffered events first so the written file covers only this run).
/// `--trace-limit N` bounds retained events per thread; beyond it the
/// oldest are overwritten and counted in the flushed `dropped_events`.
fn start_tracing(args: &Args) -> Result<(), String> {
    obs::trace::set_event_limit(args.get_parse("trace-limit", obs::trace::MAX_EVENTS_PER_THREAD)?);
    if args.get("trace").is_some() && args.get("trace-stream").is_some() {
        return Err("--trace and --trace-stream are mutually exclusive".into());
    }
    if let Some(path) = args.get("trace-stream") {
        // Streaming mode: events go to disk as they finish instead of
        // accumulating in memory; any stale buffered events are discarded
        // first so the file covers only this run.
        let _ = obs::trace::take_events();
        obs::trace::stream_open(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
        obs::trace::set_enabled(true);
    } else if args.get("trace").is_some() {
        obs::trace::set_enabled(true);
        let _ = obs::trace::take_events();
    }
    Ok(())
}

/// Stop tracing and collect the run's events (`None` without `--trace`;
/// streamed runs buffer nothing, so they also yield `None`).
fn finish_tracing(args: &Args) -> Option<Vec<obs::Event>> {
    if args.get("trace-stream").is_some() {
        obs::trace::set_enabled(false);
        return None;
    }
    args.get("trace").map(|_| {
        obs::trace::set_enabled(false);
        obs::trace::take_events()
    })
}

/// Write the collected trace (`--trace FILE`), terminate a streamed trace
/// (`--trace-stream FILE`), and dump the global metrics registry
/// (`--metrics FILE`, `-` for stdout).
fn write_observability(args: &Args, events: Option<&[obs::Event]>) -> Result<(), String> {
    if let Some(path) = args.get("trace-stream") {
        let dropped = obs::trace::dropped_events();
        let n = obs::trace::stream_close(dropped).map_err(|e| format!("{path}: {e}"))?;
        println!(
            "trace streamed to {path} ({n} events{})",
            if dropped > 0 {
                format!(", {dropped} write failures dropped")
            } else {
                String::new()
            }
        );
    }
    if let (Some(path), Some(events)) = (args.get("trace"), events) {
        let dropped = obs::trace::dropped_events();
        let mut buf = Vec::new();
        obs::trace::write_chrome_trace_with_dropped(&mut buf, events, dropped)
            .map_err(|e| format!("trace encode: {e}"))?;
        net::write_atomic(Path::new(path), &buf).map_err(|e| format!("{path}: {e}"))?;
        println!(
            "trace written to {path} ({} events{})",
            events.len(),
            if dropped > 0 {
                format!(", {dropped} oldest dropped at the event limit")
            } else {
                String::new()
            }
        );
    }
    if let Some(path) = args.get("metrics") {
        let csv = obs::registry::global().csv();
        if path == "-" {
            print!("{csv}");
        } else {
            net::write_atomic(Path::new(path), csv.as_bytes())
                .map_err(|e| format!("{path}: {e}"))?;
            println!("metrics written to {path}");
        }
    }
    Ok(())
}

/// Periodic `--metrics FILE` rewrite during a long run
/// (`--metrics-every SECS`): each flush replaces the file atomically via
/// [`net::write_atomic`], so a scraper tailing it never reads a torn CSV.
/// Idle (every tick a no-op) unless both flags are present.
struct MetricsFlusher {
    path: Option<String>,
    every: std::time::Duration,
    last: std::time::Instant,
}

impl MetricsFlusher {
    fn from_args(args: &Args) -> Result<Self, String> {
        let every_secs: f64 = args.get_parse("metrics-every", 0.0)?;
        let path = (every_secs > 0.0)
            .then(|| args.get("metrics").filter(|p| *p != "-"))
            .flatten()
            .map(String::from);
        Ok(Self {
            path,
            every: std::time::Duration::from_secs_f64(every_secs.max(1e-3)),
            last: std::time::Instant::now(),
        })
    }

    /// Rewrite the file if the interval has elapsed. Write failures are
    /// reported once per occurrence but never interrupt the run — the
    /// flusher is telemetry, not state.
    fn tick(&mut self) {
        let Some(path) = &self.path else { return };
        if self.last.elapsed() < self.every {
            return;
        }
        self.last = std::time::Instant::now();
        let csv = obs::registry::global().csv();
        if let Err(e) = net::write_atomic(Path::new(path), csv.as_bytes()) {
            eprintln!("warning: periodic metrics flush to {path} failed: {e}");
        }
    }
}

fn load_net(args: &Args) -> Result<Net<f32>, String> {
    let spec_path = args
        .positional
        .get(1)
        .ok_or("missing <spec.prototxt> argument")?;
    let text = std::fs::read_to_string(spec_path).map_err(|e| format!("{spec_path}: {e}"))?;
    let spec = NetSpec::parse(&text).map_err(|e| e.to_string())?;
    let source = make_source(args.get("data").unwrap_or("synthetic-mnist"))?;
    Net::from_spec(&spec, Some(source)).map_err(|e| e.to_string())
}

fn cmd_summary(args: &Args) -> Result<(), String> {
    let net = load_net(args)?;
    print!("{}", net.summary());
    let report = net.memory_report();
    println!("\nmemory: {report}");
    Ok(())
}

/// `--solver` flag to solver type.
fn parse_solver(args: &Args) -> Result<SolverType, String> {
    match args.get("solver").unwrap_or("sgd") {
        "sgd" => Ok(SolverType::Sgd),
        "nesterov" => Ok(SolverType::Nesterov),
        "adagrad" => Ok(SolverType::AdaGrad),
        other => Err(format!("unknown solver '{other}'")),
    }
}

/// `--reduction` flag to reduction mode; `canonical:G` pins the canonical
/// group count (the knob that makes a single process reproduce a G-worker
/// distributed run bit-for-bit — see DESIGN.md).
fn parse_reduction(s: &str) -> Result<ReductionMode, String> {
    if let Some(g) = s.strip_prefix("canonical:") {
        let groups: usize = g
            .parse()
            .map_err(|_| format!("bad canonical group count '{g}'"))?;
        if groups == 0 {
            return Err("canonical group count must be >= 1".into());
        }
        return Ok(ReductionMode::Canonical { groups });
    }
    match s {
        "ordered" => Ok(ReductionMode::Ordered),
        "canonical" => Ok(ReductionMode::Canonical { groups: 16 }),
        "unordered" => Ok(ReductionMode::Unordered),
        other => Err(format!("unknown reduction '{other}'")),
    }
}

/// Write the `--loss-log` file: one `<iteration> <loss:.8e>` line per
/// step. 9 significant digits round-trip f32 exactly, so two logs from
/// bit-identical runs compare equal with `cmp`.
fn write_loss_log(args: &Args, lines: &[String]) -> Result<(), String> {
    if let Some(path) = args.get("loss-log") {
        let mut body = lines.join("\n");
        body.push('\n');
        net::write_atomic(Path::new(path), body.as_bytes()).map_err(|e| format!("{path}: {e}"))?;
        println!("loss log written to {path} ({} steps)", lines.len());
    }
    Ok(())
}

fn cmd_train(args: &Args) -> Result<(), String> {
    // Distributed data-parallel modes divert before the in-process
    // trainer is built: the coordinator owns the solver, workers own
    // only their shard's compute.
    if args.get("worker-connect").is_some() {
        return cmd_train_worker(args);
    }
    if args.get("coordinator").is_some() {
        return cmd_train_coordinator(args);
    }
    let mut net = load_net(args)?;
    if let Some(w) = args.get("weights") {
        net::load_params(&mut net, File::open(w).map_err(|e| format!("{w}: {e}"))?)
            .map_err(|e| e.to_string())?;
        println!("initialized from {w}");
    }
    // A plan only changes where forward work runs, never what is computed,
    // so the trajectory below is bit-identical with or without it.
    if let Some(path) = args.get("plan") {
        let p = plan::Plan::load(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
        plan::apply_to_net(&p, &mut net).map_err(|e| format!("{path}: {e}"))?;
        publish_plan_metrics(&p);
        println!(
            "plan {path}: {} layer(s), {} non-sample-split",
            p.entries.len(),
            p.non_sample_layers()
        );
    }
    let threads: usize = args.get_parse("threads", 4)?;
    let iters: usize = args.get_parse("iters", 100)?;
    let lr: f64 = args.get_parse("lr", 0.01)?;
    let solver_type = parse_solver(args)?;
    let reduction = parse_reduction(args.get("reduction").unwrap_or("ordered"))?;
    let snapshot_every: usize = args.get_parse("snapshot-every", 0)?;
    let resume_dir = args.get("resume");
    let keep: usize = args.get_parse("keep", 3)?;
    let guard_factor: f64 = args.get_parse("guard-factor", 4.0)?;
    let guard_window: usize = args.get_parse("guard-window", 8)?;
    let guard_lr_drop: f64 = args.get_parse("guard-lr-drop", 0.5)?;
    let max_rollbacks: usize = args.get_parse("max-rollbacks", 3)?;

    let mut trainer = CoarseGrainTrainer::new(
        net,
        SolverConfig {
            base_lr: lr,
            solver_type,
            ..SolverConfig::lenet()
        },
        threads,
    )
    .with_reduction(reduction);
    if args.has("profile") {
        trainer.enable_profiling();
    }
    start_tracing(args)?;
    let mut flusher = MetricsFlusher::from_args(args)?;

    let mut loss_lines: Vec<String> = Vec::new();
    let fault_tolerant = snapshot_every > 0 || resume_dir.is_some();
    if fault_tolerant {
        // Checkpointed path: crash-safe snapshots + divergence rollback.
        // `--iters` is the absolute target, so a resumed run finishes the
        // remaining work instead of training N more.
        let dir_path = args
            .get("snapshot-dir")
            .or(resume_dir)
            .unwrap_or("checkpoints");
        let keep_epoch_every: usize = args.get_parse("keep-epoch-every", 0)?;
        let keep_bytes: u64 = args.get_parse("keep-bytes", 0)?;
        let dir = CheckpointDir::new(dir_path)
            .with_keep(keep)
            .with_keep_bytes(keep_bytes)
            .with_keep_epoch_every(keep_epoch_every);
        if resume_dir.is_some() {
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
        let target = iters as u64;
        let done = trainer.solver().iteration();
        let remaining = target.saturating_sub(done) as usize;
        if remaining == 0 {
            println!("nothing to train: already at iteration {done} (target {target})");
            return Ok(());
        }
        let guard = (guard_factor > 0.0).then_some(GuardConfig {
            window: guard_window,
            factor: guard_factor,
            lr_drop: guard_lr_drop,
            max_rollbacks,
        });
        println!(
            "training iterations {}..{target} on {threads} threads ({solver_type:?}, lr {lr}, \
             {reduction:?}), checkpoints in {dir_path} (every {snapshot_every}, keep {keep})",
            done + 1
        );
        let every = (iters / 20).max(1) as u64;
        // `{:.8e}` prints 9 significant digits — enough to round-trip f32
        // losses exactly, so resumed logs can be compared bitwise.
        let report = train_with_checkpoints(
            &mut trainer,
            remaining,
            &dir,
            snapshot_every,
            guard,
            |it, loss| {
                loss_lines.push(format!("{it} {loss:.8e}"));
                if it % every == 0 || it == target {
                    println!("iter {it:>6}  loss {loss:.8e}");
                }
                flusher.tick();
            },
        )
        .map_err(|e| e.to_string())?;
        if report.rollbacks > 0 {
            println!(
                "{} divergence rollback(s); see {}/training.log",
                report.rollbacks, dir_path
            );
        }
    } else {
        println!(
            "training {iters} iterations on {threads} threads ({solver_type:?}, lr {lr}, \
             {reduction:?})"
        );
        let every = (iters / 20).max(1);
        for i in 0..iters {
            let loss = trainer.step();
            loss_lines.push(format!("{} {loss:.8e}", i + 1));
            if i % every == 0 || i + 1 == iters {
                println!("iter {:>6}  loss {loss:.5}", i + 1);
            }
            flusher.tick();
            if !loss.is_finite() {
                return Err(format!(
                    "diverged at iteration {i}; rerun with --snapshot-every to get \
                     rollback instead of a dead run"
                ));
            }
        }
    }
    write_loss_log(args, &loss_lines)?;
    if let Some(path) = args.get("snapshot") {
        let mut bytes = Vec::new();
        net::save_params(trainer.net(), &mut bytes).map_err(|e| e.to_string())?;
        net::write_atomic(Path::new(path), &bytes).map_err(|e| format!("{path}: {e}"))?;
        println!("snapshot written to {path}");
    }

    let events = finish_tracing(args);
    if let Some(profile) = trainer.profile() {
        print!("{}", profile.table());
        let analytic = observe::analytic_imbalance(&trainer.net().profiles(), threads);
        let measured = events.as_deref().and_then(observe::measured_imbalance);
        print!(
            "{}",
            observe::imbalance_comparison(measured.as_ref(), &analytic)
        );
        if let Some(path) = args.get("profile-csv") {
            net::write_atomic(Path::new(path), profile.csv().as_bytes())
                .map_err(|e| format!("{path}: {e}"))?;
            println!("profile written to {path}");
        }
    }
    write_observability(args, events.as_deref())?;
    Ok(())
}

/// Spec path + parsed spec + data kind — shared by both distributed roles.
fn load_spec(args: &Args) -> Result<(String, NetSpec, String), String> {
    let spec_path = args
        .positional
        .get(1)
        .ok_or("missing <spec.prototxt> argument")?
        .clone();
    let text = std::fs::read_to_string(&spec_path).map_err(|e| format!("{spec_path}: {e}"))?;
    let spec = NetSpec::parse(&text).map_err(|e| e.to_string())?;
    let data_kind = args.get("data").unwrap_or("synthetic-mnist").to_string();
    Ok((spec_path, spec, data_kind))
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

/// Build rank `rank`'s worker net: the spec with its Data batch rewritten
/// to the local shard size, over that rank's [`datasets::ShardedSource`] —
/// the exact net a worker process runs, shared by the worker command and
/// the coordinator's elastic recompute hook.
fn build_shard_net(
    spec: &NetSpec,
    data_kind: &str,
    rank: usize,
    world: usize,
) -> Result<Net<f32>, String> {
    let effective_batch = spec_batch(spec)?;
    let local_batch = effective_batch / world;
    let mut spec = spec.clone();
    let data_layer = spec
        .layers
        .iter_mut()
        .find(|l| l.layer_type == "Data")
        .expect("checked by spec_batch");
    data_layer
        .params
        .insert("batch".to_string(), local_batch.to_string());
    let source = make_source(data_kind)?;
    let sharded = datasets::ShardedSource::new(source, rank, world, effective_batch);
    Net::from_spec(&spec, Some(Box::new(sharded))).map_err(|e| e.to_string())
}

/// The coordinator's [`dist::ElasticHooks`]: shard nets come from the same
/// spec rewrite the worker command performs, respawns re-run this binary
/// in `--worker-connect --rejoin` mode. Respawned children join the reap
/// list so teardown still waits on (or kills) every process we created.
struct CliHooks {
    exe: std::path::PathBuf,
    spec_path: String,
    spec: NetSpec,
    data_kind: String,
    addr: String,
    world: usize,
    children: Vec<std::process::Child>,
}

impl dist::ElasticHooks for CliHooks {
    fn shard_net(&mut self, rank: usize) -> Result<Net<f32>, dist::DistError> {
        build_shard_net(&self.spec, &self.data_kind, rank, self.world)
            .map_err(dist::DistError::Config)
    }

    fn respawn(&mut self, rank: usize) -> Result<bool, dist::DistError> {
        let child = std::process::Command::new(&self.exe)
            .arg("train")
            .arg(&self.spec_path)
            .arg("--worker-connect")
            .arg(&self.addr)
            .arg("--rank")
            .arg(rank.to_string())
            .arg("--workers")
            .arg(self.world.to_string())
            .arg("--data")
            .arg(&self.data_kind)
            .arg("--rejoin")
            .stdin(std::process::Stdio::null())
            .spawn()
            .map_err(|e| dist::DistError::Io(format!("respawning worker {rank}: {e}")))?;
        self.children.push(child);
        Ok(true)
    }
}

/// Wait for every spawned worker to exit; after `grace` the stragglers are
/// killed (they already received `FRAME_DONE`, so a straggler is stuck,
/// not slow). Returns each worker's exit code (`-1` = killed/unknown).
fn reap_workers(children: &mut [std::process::Child], grace: std::time::Duration) -> Vec<i32> {
    let deadline = std::time::Instant::now() + grace;
    let mut codes: Vec<Option<i32>> = vec![None; children.len()];
    loop {
        let mut pending = false;
        for (i, c) in children.iter_mut().enumerate() {
            if codes[i].is_none() {
                match c.try_wait() {
                    Ok(Some(st)) => codes[i] = Some(st.code().unwrap_or(-1)),
                    Ok(None) => pending = true,
                    Err(_) => codes[i] = Some(-1),
                }
            }
        }
        if !pending {
            break;
        }
        if std::time::Instant::now() >= deadline {
            for (i, c) in children.iter_mut().enumerate() {
                if codes[i].is_none() {
                    let _ = c.kill();
                    let _ = c.wait();
                    codes[i] = Some(-1);
                }
            }
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    codes.into_iter().map(|c| c.unwrap_or(-1)).collect()
}

/// `cgdnn train --coordinator ADDR --workers N`: bind, self-spawn the
/// worker processes (same binary, `--worker-connect` mode), and drive the
/// synchronous data-parallel run. The loss trajectory and final parameters
/// are bit-identical to `--reduction canonical:N --threads 1` on one
/// process (see DESIGN.md for the argument; tests/dist_training.rs and the
/// CI smoke prove it).
fn cmd_train_coordinator(args: &Args) -> Result<(), String> {
    let (spec_path, spec, data_kind) = load_spec(args)?;
    let source = make_source(&data_kind)?;
    let num_samples = source.num_samples();
    let effective_batch = spec_batch(&spec)?;
    let mut net = Net::from_spec(&spec, Some(source)).map_err(|e| e.to_string())?;

    let workers: usize = args.get_parse("workers", 2)?;
    let iters: usize = args.get_parse("iters", 100)?;
    let lr: f64 = args.get_parse("lr", 0.01)?;
    let solver_type = parse_solver(args)?;
    let mut solver = Solver::<f32>::new(SolverConfig {
        base_lr: lr,
        solver_type,
        ..SolverConfig::lenet()
    });

    let dist_cfg = dist::DistConfig {
        world: workers,
        effective_batch,
        num_samples,
        iters,
        io_timeout: std::time::Duration::from_secs(30),
    };
    // Fail on a bad shape before any child process exists.
    dist_cfg.validate().map_err(|e| e.to_string())?;

    let bind = args.get("coordinator").unwrap();
    let listener = std::net::TcpListener::bind(bind).map_err(|e| format!("bind {bind}: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    if let Some(pf) = args.get("port-file") {
        net::write_atomic(Path::new(pf), addr.to_string().as_bytes())
            .map_err(|e| format!("{pf}: {e}"))?;
    }
    println!(
        "coordinator on {addr}: {workers} worker(s) x local batch {}, {iters} iterations \
         ({solver_type:?}, lr {lr})",
        effective_batch / workers
    );
    start_tracing(args)?;

    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut children = Vec::with_capacity(workers);
    for r in 0..workers {
        let child = std::process::Command::new(&exe)
            .arg("train")
            .arg(&spec_path)
            .arg("--worker-connect")
            .arg(addr.to_string())
            .arg("--rank")
            .arg(r.to_string())
            .arg("--workers")
            .arg(workers.to_string())
            .arg("--data")
            .arg(&data_kind)
            .stdin(std::process::Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning worker {r}: {e}"))?;
        children.push(child);
    }

    let mut loss_lines: Vec<String> = Vec::new();
    let mut flusher = MetricsFlusher::from_args(args)?;
    let every = (iters / 20).max(1) as u64;
    let coord_cfg = dist::CoordinatorConfig {
        dist: dist_cfg,
        join_timeout: std::time::Duration::from_secs(20),
    };
    let mut on_step = |it: u64, loss: f32, _net: &mut Net<f32>, _solver: &mut Solver<f32>| {
        loss_lines.push(format!("{it} {loss:.8e}"));
        if it.is_multiple_of(every) || it == iters as u64 {
            println!("iter {it:>6}  loss {loss:.8e}");
        }
        flusher.tick();
        Ok(())
    };
    // Elastic mode is opt-in: a restart budget or an explicit willingness
    // to run degraded turns worker death from fatal into recoverable.
    let max_worker_restarts: usize = args.get_parse("max-worker-restarts", 0)?;
    let restart_window_ms: u64 = args.get_parse("restart-window", 30_000)?;
    let degraded_ok = args.has("degraded-ok");
    let (result, codes) = if max_worker_restarts > 0 || degraded_ok {
        let mut hooks = CliHooks {
            exe,
            spec_path,
            spec,
            data_kind,
            addr: addr.to_string(),
            world: workers,
            children,
        };
        let policy = dist::RecoveryPolicy {
            max_restarts: max_worker_restarts.max(1),
            restart_window: std::time::Duration::from_millis(restart_window_ms),
            degraded_ok,
        };
        let result = dist::run_coordinator_elastic(
            listener,
            &mut net,
            &mut solver,
            &coord_cfg,
            policy,
            &mut hooks,
            &mut on_step,
        );
        let codes = reap_workers(&mut hooks.children, std::time::Duration::from_secs(10));
        (result, codes)
    } else {
        let result = dist::run_coordinator(listener, &mut net, &mut solver, &coord_cfg, on_step);
        let codes = reap_workers(&mut children, std::time::Duration::from_secs(10));
        (result, codes)
    };

    match result {
        Ok(_losses) => {
            println!(
                "distributed run complete; worker exit codes {codes:?} \
                 (final iteration {})",
                solver.iteration()
            );
            write_loss_log(args, &loss_lines)?;
            if let Some(path) = args.get("snapshot") {
                let mut bytes = Vec::new();
                net::save_params(&net, &mut bytes).map_err(|e| e.to_string())?;
                net::write_atomic(Path::new(path), &bytes).map_err(|e| format!("{path}: {e}"))?;
                println!("snapshot written to {path}");
            }
            write_observability(args, finish_tracing(args).as_deref())?;
            Ok(())
        }
        Err(e) => {
            let _ = finish_tracing(args);
            Err(format!("{e} (worker exit codes {codes:?})"))
        }
    }
}

/// `cgdnn train --worker-connect ADDR --rank R --workers N`: one worker
/// process. The spec's Data batch is rewritten to the local shard size and
/// the source is wrapped in [`datasets::ShardedSource`] so this rank sees
/// exactly its slice of every global batch.
fn cmd_train_worker(args: &Args) -> Result<(), String> {
    let addr = args.get("worker-connect").unwrap().to_string();
    let rank: usize = args.get_parse("rank", 0)?;
    let world: usize = args.get_parse("workers", 2)?;
    let (_, spec, data_kind) = load_spec(args)?;
    let effective_batch = spec_batch(&spec)?;
    if world == 0 || rank >= world {
        return Err(format!("--rank {rank} outside --workers {world}"));
    }
    if effective_batch % world != 0 {
        return Err(format!(
            "batch {effective_batch} not divisible by {world} workers"
        ));
    }
    {
        let source = make_source(&data_kind)?;
        if source.num_samples() % effective_batch != 0 {
            return Err(format!(
                "{} samples not a multiple of effective batch {effective_batch}",
                source.num_samples()
            ));
        }
    }
    let mut net = build_shard_net(&spec, &data_kind, rank, world)?;
    let mut cfg = dist::WorkerConfig::new(addr, rank);
    // A respawned worker resumes its rank in the running session instead
    // of joining a fresh one; a manually-managed worker can additionally
    // ride out coordinator-link loss with its own reconnect budget.
    cfg.rejoin = args.has("rejoin");
    cfg.max_rejoins = args.get_parse("max-rejoins", 0)?;
    let report = dist::run_worker(&mut net, &cfg).map_err(|e| format!("worker {rank}: {e}"))?;
    println!(
        "worker {rank} done: {} step(s), {} rejoin(s)",
        report.steps, report.rejoins
    );
    Ok(())
}

fn cmd_infer(args: &Args) -> Result<(), String> {
    let spec_path = args
        .positional
        .get(1)
        .ok_or("missing <spec.prototxt> argument")?;
    let text = std::fs::read_to_string(spec_path).map_err(|e| format!("{spec_path}: {e}"))?;
    let spec = NetSpec::parse(&text).map_err(|e| e.to_string())?;
    let source = make_source(args.get("data").unwrap_or("synthetic-mnist"))?;
    let sample_shape = source.sample_shape();

    start_tracing(args)?;
    let threads: usize = args.get_parse("threads", 4)?;
    let replicas: usize = args.get_parse("replicas", 1)?;
    let requests: usize = args.get_parse("requests", 1000)?;
    let clients: usize = args.get_parse("clients", 4)?;
    let max_batch: usize = args.get_parse("max-batch", 16)?;
    let max_delay_us: u64 = args.get_parse("max-delay-us", 2000)?;
    let queue_depth: usize = args.get_parse("queue-depth", 64)?;
    let deadline_us: u64 = args.get_parse("deadline-us", 0)?;
    let max_restarts: usize = args.get_parse("max-restarts", 5)?;
    let restart_window_ms: u64 = args.get_parse("restart-window", 30_000)?;

    let weights = match args.get("weights") {
        Some(w) => Some(std::fs::read(w).map_err(|e| format!("{w}: {e}"))?),
        None => None,
    };
    // One factory: the snapshot is decoded exactly once, every replica
    // shares that decoded copy, and the supervisor rebuilds dead replicas
    // from it without touching the filesystem again.
    let mut factory = serve::EngineFactory::<f32>::new(
        &spec,
        &sample_shape,
        &serve::EngineConfig {
            max_batch,
            n_threads: threads,
        },
        weights.as_deref(),
    )
    .map_err(|e| e.to_string())?;
    // Serving executes the plan leniently: entries for training-only
    // layers (data, loss) are skipped; stale entries fail replica builds.
    if let Some(path) = args.get("plan") {
        let p = plan::Plan::load(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
        publish_plan_metrics(&p);
        println!(
            "plan {path}: {} non-sample-split layer(s)",
            p.non_sample_layers()
        );
        factory = factory.with_plan(p);
    }
    println!(
        "serving '{}': {replicas} replica(s) x {threads} thread(s), max_batch {max_batch}, \
         window {max_delay_us} us, queue depth {queue_depth}, {:.1} KiB shared weights, \
         supervisor: {max_restarts} restarts / {restart_window_ms} ms",
        spec.name,
        factory.params_bytes() as f64 / 1024.0,
    );
    if weights.is_none() {
        println!("note: no --weights given; serving randomly initialized parameters");
    }

    let server = serve::Server::start_supervised(
        factory,
        replicas,
        serve::BatchPolicy {
            max_delay: std::time::Duration::from_micros(max_delay_us),
            queue_depth,
        },
        serve::SupervisorPolicy {
            max_restarts,
            restart_window: std::time::Duration::from_millis(restart_window_ms),
            ..serve::SupervisorPolicy::default()
        },
    )
    .map_err(|e| e.to_string())?;
    // The server's live `serve.*` handles join the process registry here,
    // once: `--metrics`, `--metrics-every` and `stats --connect` read them
    // while the server runs, beside the training and `rpc.*` metrics.
    obs::registry::global().adopt(server.metrics().registry());

    // `--listen ADDR` turns this process into a network server on the
    // same micro-batcher instead of running the in-process load loop.
    if let Some(listen) = args.get("listen") {
        return run_rpc_server(args, server, listen);
    }

    // Load generation: `clients` threads submit single-sample requests
    // drawn from the data source, blocking on each reply. Samples are
    // materialized up front (`BatchSource` is `Send` but not `Sync`).
    let sample_len = sample_shape.count();
    let n_samples = source.num_samples();
    let clients = clients.max(1);
    let mut next = 0usize;
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let client = server.client();
            let quota = requests / clients + usize::from(c < requests % clients);
            let inputs: Vec<Vec<f32>> = (0..quota)
                .map(|_| {
                    let mut s = vec![0.0f32; sample_len];
                    source.fill(next % n_samples, &mut s);
                    next += 1;
                    s
                })
                .collect();
            std::thread::spawn(move || {
                let (mut done, mut errs) = (0u64, 0u64);
                for sample in &inputs {
                    let r = if deadline_us > 0 {
                        client.infer_with_deadline(
                            sample,
                            std::time::Instant::now()
                                + std::time::Duration::from_micros(deadline_us),
                        )
                    } else {
                        client.infer(sample)
                    };
                    match r {
                        Ok(_) => done += 1,
                        Err(_) => errs += 1,
                    }
                }
                (done, errs)
            })
        })
        .collect();
    let mut ok = 0u64;
    let mut failed = 0u64;
    for h in handles {
        let (d, e) = h.join().map_err(|_| "load-generator thread panicked")?;
        ok += d;
        failed += e;
    }
    finish_serving(args, server)?;
    println!("client view: {ok} ok, {failed} rejected/timed out");
    Ok(())
}

/// Drain `server`, print its report and write the run's outputs: `--csv`
/// gets the server's `serve.*` rows, rendered like every other exposition.
fn finish_serving(args: &Args, server: serve::Server<f32>) -> Result<(), String> {
    let metrics = server.metrics();
    println!("{}", server.shutdown());
    if let Some(path) = args.get("csv") {
        net::write_atomic(Path::new(path), metrics.registry().csv().as_bytes())
            .map_err(|e| format!("{path}: {e}"))?;
        println!("report written to {path}");
    }
    write_observability(args, finish_tracing(args).as_deref())
}

/// Serve the micro-batcher over TCP until a client sends a drain request
/// (or `--serve-for-ms` elapses). Blocks the main thread; the acceptor and
/// connection handlers run on their own threads inside [`rpc::RpcServer`].
fn run_rpc_server(args: &Args, server: serve::Server<f32>, listen: &str) -> Result<(), String> {
    let cfg = rpc::RpcConfig {
        handlers: args.get_parse("rpc-handlers", 8usize)?,
        read_timeout: std::time::Duration::from_millis(
            args.get_parse("rpc-read-timeout-ms", 100u64)?,
        ),
        write_timeout: std::time::Duration::from_millis(
            args.get_parse("rpc-write-timeout-ms", 1000u64)?,
        ),
        max_connections: args.get_parse("rpc-max-conns", 0usize)?,
        ..rpc::RpcConfig::default()
    };
    let serve_for_ms: u64 = args.get_parse("serve-for-ms", 0)?;
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
    if let Some(path) = args.get("port-file") {
        // Written atomically so a poller never reads a half-written addr.
        net::write_atomic(Path::new(path), addr.to_string().as_bytes())
            .map_err(|e| format!("{path}: {e}"))?;
    }
    let t0 = std::time::Instant::now();
    let mut flusher = MetricsFlusher::from_args(args)?;
    while !rpc_server.drain_requested() {
        if serve_for_ms > 0 && t0.elapsed().as_millis() as u64 >= serve_for_ms {
            println!("--serve-for-ms elapsed; draining");
            break;
        }
        flusher.tick();
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    rpc_server.shutdown();
    finish_serving(args, server)
}

/// `cgdnn load` — closed-loop wire load against a `--listen` server.
fn cmd_load(args: &Args) -> Result<(), String> {
    let connect = args.get("connect").ok_or("missing --connect ADDR")?;
    let addr = std::net::ToSocketAddrs::to_socket_addrs(connect)
        .map_err(|e| format!("{connect}: {e}"))?
        .next()
        .ok_or_else(|| format!("{connect}: resolves to no address"))?;
    let cfg = rpc::LoadConfig {
        clients: args.get_parse("clients", 4usize)?,
        requests: args.get_parse("requests", 1000usize)?,
        deadline_us: args.get_parse("deadline-us", 0u32)?,
        pipeline: args.get_parse("pipeline", 1usize)?,
        idle_conns: args.get_parse("idle-conns", 0usize)?,
        ..rpc::LoadConfig::default()
    };
    let fuzz_conns: usize = args.get_parse("fuzz", 0)?;

    // Probe handshake: learn the server's sample shape and fail fast on a
    // mismatched data source. Dropped before the run so it does not hold a
    // handler slot while the load clients connect.
    let sample_len = {
        let probe = rpc::RpcClient::connect(addr).map_err(|e| e.to_string())?;
        probe.sample_len()
    };
    let source = make_source(args.get("data").unwrap_or("synthetic-mnist"))?;
    if source.sample_shape().count() != sample_len {
        return Err(format!(
            "--data samples have {} values but the server expects {sample_len}",
            source.sample_shape().count()
        ));
    }
    let n_samples = source.num_samples();
    let distinct = cfg.requests.clamp(1, 256).min(n_samples);
    let samples: Vec<Vec<f32>> = (0..distinct)
        .map(|i| {
            let mut s = vec![0.0f32; sample_len];
            source.fill(i % n_samples, &mut s);
            s
        })
        .collect();

    println!(
        "wire load against {addr}: {} clients (pipeline {}, {} idle), {} requests, deadline {} us",
        cfg.clients, cfg.pipeline, cfg.idle_conns, cfg.requests, cfg.deadline_us
    );
    let report = rpc::load::run(addr, &cfg, &samples).map_err(|e| e.to_string())?;
    println!("{report}");

    if fuzz_conns > 0 {
        let fz = rpc::load::fuzz(addr, fuzz_conns, 0x5eed, std::time::Duration::from_secs(5))
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
    if let Some(path) = args.get("csv") {
        net::write_atomic(Path::new(path), report.csv().as_bytes())
            .map_err(|e| format!("{path}: {e}"))?;
        println!("report written to {path}");
    }
    if let Some(path) = args.get("json") {
        net::write_atomic(Path::new(path), report.json().as_bytes())
            .map_err(|e| format!("{path}: {e}"))?;
        println!("json report written to {path}");
    }
    Ok(())
}

/// `cgdnn stats --connect ADDR` — scrape a live process's metric registry
/// over the wire (`FRAME_STATS`). Works against both a `cgdnn infer
/// --listen` event loop and a training coordinator; neither is disturbed
/// (the RPC loop answers inline between request frames, the coordinator
/// at its next step boundary). `--watch SECS` re-scrapes forever;
/// `--csv` (default) and `--json` pick the exposition.
fn cmd_stats(args: &Args) -> Result<(), String> {
    let connect = args.get("connect").ok_or("missing --connect ADDR")?;
    let addr = std::net::ToSocketAddrs::to_socket_addrs(connect)
        .map_err(|e| format!("{connect}: {e}"))?
        .next()
        .ok_or_else(|| format!("{connect}: resolves to no address"))?;
    if args.has("csv") && args.has("json") {
        return Err("--csv and --json are mutually exclusive".into());
    }
    let watch_secs: f64 = args.get_parse("watch", 0.0)?;
    let io_timeout = std::time::Duration::from_secs(10);
    let mut first = true;
    loop {
        let snap = rpc::fetch_stats(addr, io_timeout).map_err(|e| e.to_string())?;
        if !first {
            println!();
        }
        first = false;
        if args.has("json") {
            println!("{}", snap.json());
        } else {
            print!("{}", snap.csv());
        }
        if watch_secs <= 0.0 {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_secs_f64(watch_secs));
    }
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

    // `--cluster 1,2,4,8`: project the dist subsystem's synchronous
    // data-parallel step onto a multi-node cluster under the two
    // FireCaffe aggregation schemes.
    if let Some(list) = args.get("cluster") {
        let counts: Vec<usize> = list
            .split(',')
            .map(|s| {
                s.trim()
                    .parse::<usize>()
                    .map_err(|_| format!("bad worker count '{s}' in --cluster"))
            })
            .collect::<Result<_, _>>()?;
        if counts.is_empty() {
            return Err("--cluster needs at least one worker count".into());
        }
        let model = machine::ClusterModel::from_sim(&sim, net.num_params());
        println!(
            "\nmulti-node data-parallel projection ({:.2} MB gradients over 10 GbE, \
             {:.1} ms single-node step):",
            model.param_bytes / 1e6,
            model.step_compute_s * 1e3
        );
        print!(
            "{}",
            machine::cluster::format_cluster_table(&model, &counts)
        );
        if let Some(path) = args.get("csv") {
            let csv = machine::cluster::cluster_csv(&model, &counts);
            net::write_atomic(Path::new(path), csv.as_bytes())
                .map_err(|e| format!("{path}: {e}"))?;
            println!("cluster projection written to {path}");
        }
    }
    Ok(())
}

/// Publish a loaded plan into the global metrics registry: the schedule
/// summary plus one `plan.strategy.<layer>.<tag>` gauge per layer, so a
/// `--metrics` dump or a live `cgdnn stats` scrape shows which strategy
/// every layer is executing.
fn publish_plan_metrics(p: &plan::Plan) {
    let reg = obs::registry::global();
    reg.gauge("plan.layers").set(p.entries.len() as f64);
    reg.gauge("plan.non_sample_layers")
        .set(p.non_sample_layers() as f64);
    reg.gauge("plan.threads").set(p.threads as f64);
    for e in &p.entries {
        reg.gauge(&format!(
            "plan.strategy.{}.{}",
            e.name,
            plan::strategy_tag(e.strategy)
        ))
        .set(1.0);
    }
}

/// `--model` flag to cost model: `xeon` (the paper's 16-core E5-2667v2,
/// default) or `scaled:SxC` (S sockets of C cores with the same per-core
/// constants — the batch-starved regime planning exists for).
fn parse_model(s: &str) -> Result<machine::CpuModel, String> {
    if s == "xeon" {
        return Ok(machine::CpuModel::xeon_e5_2667v2());
    }
    if let Some(spec) = s.strip_prefix("scaled:") {
        let (sockets, cores) = spec
            .split_once('x')
            .ok_or_else(|| format!("bad --model '{s}': want scaled:SxC, e.g. scaled:8x16"))?;
        let sockets: usize = sockets
            .parse()
            .map_err(|_| format!("bad socket count in --model '{s}'"))?;
        let cores: usize = cores
            .parse()
            .map_err(|_| format!("bad cores-per-socket in --model '{s}'"))?;
        if sockets == 0 || cores == 0 {
            return Err(format!("--model '{s}': sockets and cores must be >= 1"));
        }
        return Ok(machine::CpuModel::scaled_node(sockets, cores));
    }
    Err(format!("unknown --model '{s}' (want xeon or scaled:SxC)"))
}

/// `cgdnn plan` — search per-layer parallelism strategies for a spec on a
/// modeled machine and emit an executable `.plan` schedule.
fn cmd_plan(args: &Args) -> Result<(), String> {
    let net = load_net(args)?;
    let model_desc = args.get("model").unwrap_or("xeon").to_string();
    let model = parse_model(&model_desc)?;
    let threads: usize = args.get_parse("threads", model.cores)?;
    let beam: usize = args.get_parse("beam", 4)?;
    if threads == 0 || beam == 0 {
        return Err("--threads and --beam must be >= 1".into());
    }

    let mut profiles = net.profiles();
    // Measured seeding: rescale the analytic profiles so their relative
    // per-layer costs match a real `train --profile-csv` measurement.
    if let Some(path) = args.get("profile-csv") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let (calibrated, matched) = plan::calibrate_with_csv(&profiles, &text, &model);
        if matched == 0 {
            return Err(format!(
                "{path}: no layer names match the spec — stale profile?"
            ));
        }
        println!("profiles calibrated from {path} ({matched} layer(s) matched)");
        profiles = calibrated;
    }

    let spaces = net.layer_strategy_spaces();
    let result = plan::search(&profiles, &spaces, &model, threads, beam);
    println!(
        "searched {} layer(s) for {threads} thread(s) on model {model_desc} (beam {beam}):",
        spaces.len()
    );
    print!("{}", plan::report_table(&result));
    let batch_imb = observe::analytic_imbalance(&profiles, threads);
    let plan_imb = observe::analytic_imbalance(
        &plan::transform_profiles(&profiles, &result.strategies, &model, threads),
        threads,
    );
    println!(
        "predicted imbalance factor: batch-only {:.4}, planned {:.4}",
        batch_imb.imbalance_factor, plan_imb.imbalance_factor
    );

    let reg = obs::registry::global();
    reg.gauge("plan.batch_only_step_us")
        .set(result.batch_only_secs * 1e6);
    reg.gauge("plan.projected_step_us")
        .set(result.planned_secs * 1e6);
    let emitted = plan::plan_for_net(&net, &result.strategies, threads, &model_desc);
    publish_plan_metrics(&emitted);

    if let Some(path) = args.get("out") {
        emitted
            .save(Path::new(path))
            .map_err(|e| format!("{path}: {e}"))?;
        println!("plan written to {path}");
    }
    if let Some(path) = args.get("json") {
        let layers: Vec<String> = result
            .layers
            .iter()
            .map(|l| {
                format!(
                    "{{\"name\":\"{}\",\"type\":\"{}\",\"strategy\":\"{}\",\
                     \"batch_only_us\":{:.3},\"planned_us\":{:.3}}}",
                    l.name,
                    l.layer_type,
                    l.strategy,
                    l.batch_only_secs * 1e6,
                    l.planned_secs * 1e6
                )
            })
            .collect();
        let json = format!(
            "{{\"net\":\"{}\",\"threads\":{threads},\"model\":\"{model_desc}\",\"beam\":{beam},\
             \"batch_only_step_us\":{:.3},\"projected_step_us\":{:.3},\
             \"projected_speedup\":{:.4},\"non_sample_layers\":{},\
             \"imbalance_batch_only\":{:.4},\"imbalance_planned\":{:.4},\
             \"layers\":[{}]}}\n",
            net.name(),
            result.batch_only_secs * 1e6,
            result.planned_secs * 1e6,
            result.projected_speedup(),
            result.non_sample_layers(),
            batch_imb.imbalance_factor,
            plan_imb.imbalance_factor,
            layers.join(",")
        );
        net::write_atomic(Path::new(path), json.as_bytes()).map_err(|e| format!("{path}: {e}"))?;
        println!("json report written to {path}");
    }
    write_observability(args, None)?;
    Ok(())
}

const USAGE: &str =
    "usage: cgdnn <summary|train|infer|load|stats|simulate|plan> <spec.prototxt> [flags]
  --data synthetic-mnist|synthetic-cifar|idx:<imgs>,<lbls>|cifar-bin:<file>
  --threads N     team size (train, infer)
  --iters N       iterations (train)
  --lr X          base learning rate (train)
  --solver sgd|nesterov|adagrad
  --reduction ordered|canonical[:G]|unordered (canonical:G pins G groups)
  --snapshot FILE write parameters after training
  --weights FILE  initialize parameters before training / serving
  --loss-log FILE write '<iter> <loss>' per step (f32-exact; two
                  bit-identical runs produce byte-identical logs)
per-layer parallelism planning (plan; execute with train/infer --plan):
  --model xeon|scaled:SxC  cost model: the paper's 16-core Xeon (default)
                  or S sockets x C cores of the same silicon
  --threads N     (plan) team size to plan for (default: the model's cores)
  --beam B        (plan) beam width of the strategy search (default 4)
  --profile-csv FILE  (plan) seed the cost model from a measured
                  `train --profile-csv` table instead of analytic flops
  --out FILE      (plan) write the executable .plan schedule
  --json FILE     (plan) write the projection report (BENCH_plan.json in CI)
  --plan FILE     (train, infer) execute a .plan schedule; forward outputs
                  and the training trajectory stay bit-identical to the
                  batch-only default, stale plans are rejected by layer name
distributed data-parallel training (multi-process, one host):
  --coordinator ADDR  bind here (e.g. 127.0.0.1:0), self-spawn the workers,
                      and coordinate synchronous data-parallel SGD; the
                      trajectory is bit-identical to single-process
                      --reduction canonical:N --threads 1
  --workers N         worker process count (power of two dividing batch)
  --worker-connect ADDR  run as one worker of a coordinator at ADDR
  --rank R            this worker's rank in 0..N (with --worker-connect)
elastic recovery (coordinator; off by default — fail-stop):
  --max-worker-restarts N  survive worker death: recompute the dead rank's
                      shard locally (still bit-identical) and respawn it,
                      at most N deaths per sliding window
  --restart-window N  worker restart-budget window, milliseconds
                      (default 30000)
  --degraded-ok       on budget exhaustion keep training degraded (dead
                      ranks recomputed locally) instead of aborting
  --rejoin            (worker) resume this rank in a running session via
                      the FRAME_REJOIN handshake (set by respawn)
  --max-rejoins N     (worker) reconnect attempts after losing the
                      coordinator link, exponential backoff (default 0)
fault-tolerant training (activated by --snapshot-every or --resume):
  --snapshot-every K  full checkpoint (params+solver+cursor) every K iters
  --resume DIR        continue from the newest good checkpoint in DIR;
                      --iters is the absolute target iteration
  --snapshot-dir DIR  where checkpoints go (default: the resume dir,
                      else 'checkpoints')
  --keep N            checkpoints retained (default 3)
  --keep-bytes N      also cap regular checkpoints to N total bytes,
                      newest-first (0 = off; epoch checkpoints and the
                      newest checkpoint are exempt)
  --keep-epoch-every N  also retain every checkpoint whose iteration is a
                      multiple of N, exempt from --keep pruning (0 = off)
  --guard-factor X    divergence when loss > X * trailing mean; 0 disables
                      the explosion test (default 4.0)
  --guard-window N    trailing-window length (default 8)
  --guard-lr-drop X   multiply LR by X on each rollback (default 0.5)
  --max-rollbacks N   give up after N rollbacks (default 3)
infer flags:
  --replicas N      engine replicas, one worker thread each (default 1)
  --requests N      total load-generated requests (default 1000)
  --clients N       concurrent client threads (default 4)
  --max-batch N     micro-batch capacity (default 16)
  --max-delay-us N  batch assembly window (default 2000)
  --queue-depth N   admission queue bound (default 64)
  --deadline-us N   per-request deadline, 0 = none (default 0)
  --max-restarts N  replica restarts allowed per window (default 5)
  --restart-window N  restart-budget window, milliseconds (default 30000)
  --csv FILE        write the serving report as CSV
network serving (infer --listen / load):
  --listen ADDR     serve the micro-batcher over TCP (e.g. 127.0.0.1:0);
                    replaces the in-process load loop
  --port-file FILE  write the bound address (for ephemeral-port scripts)
  --serve-for-ms N  stop serving after N ms; 0 = until drained (default 0)
  --rpc-handlers N  serve-pool sizing hint; with --rpc-max-conns 0 the
                    connection cap is handlers + backlog (default 8)
  --rpc-max-conns N max live connections; over-cap greeted HELLO_BUSY
                    (default 0 = handlers + backlog)
  --rpc-read-timeout-ms N   accepted for compatibility; the readiness
                    loop needs no read poll
  --rpc-write-timeout-ms N  per-connection write-stall budget (default 1000)
  --connect ADDR    (load) server to target
  --pipeline N      (load) requests each client keeps in flight (default 1)
  --idle-conns N    (load) extra connections that handshake then sit idle
                    for the whole run (default 0)
  --fuzz N          (load) also throw N malformed connections at the server
  --drain-server    (load) ask the server to drain and exit afterwards
  --json FILE       (load) write the report as JSON (BENCH_rpc.json in CI)
live stats scrape (stats):
  --connect ADDR    (stats) process to scrape: a `cgdnn infer --listen`
                    server (answered inline by the event loop) or a
                    training coordinator (answered at the next step
                    boundary); in-flight traffic is undisturbed
  --watch SECS      (stats) re-scrape every SECS forever (default: once)
  --csv | --json    (stats) exposition format (default: csv); includes
                    histogram/summary p50/p90/p99 and, after a
                    distributed run, per-rank r<N>.* rows
observability (train and infer):
  --profile         print the measured per-layer fwd/bwd table (paper
                    Table-2 layout) and imbalance factors after training
  --profile-csv FILE  also write the per-layer table as CSV
  --trace FILE      record omprt/layer/checkpoint spans and write a Chrome
                    trace_event JSON (load in chrome://tracing or Perfetto)
  --trace-limit N   retain at most N events per thread (oldest dropped and
                    counted in the trace's dropped_events record)
  --trace-stream FILE  stream each span to FILE as it finishes instead of
                    buffering (O(1) trace memory for arbitrarily long runs)
  --metrics FILE    write the global metrics registry as CSV ('-' = stdout)
  --metrics-every SECS  also rewrite --metrics FILE atomically every SECS
                    during the run (serving loop, training step, and
                    coordinator step all tick it), so a scraper can tail
                    a long run without waiting for teardown
simulate flags:
  --cluster W1,W2,..  also project multi-node data-parallel scaling at the
                    given worker counts (param-server vs reduction tree);
                    --csv FILE writes the series";

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut switches: Vec<&str> = vec!["profile", "drain-server", "degraded-ok", "rejoin"];
    if raw.first().is_some_and(|s| s == "stats") {
        // `stats` reuses --csv/--json as value-less format selectors;
        // everywhere else they are FILE-valued flags, so the switch set
        // must be picked per subcommand before parsing.
        switches.extend(["csv", "json"]);
    }
    let args = match Args::parse_with_switches(raw.into_iter(), &switches) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let r = match args.positional.first().map(|s| s.as_str()) {
        Some("summary") => cmd_summary(&args),
        Some("train") => cmd_train(&args),
        Some("infer") => cmd_infer(&args),
        Some("load") => cmd_load(&args),
        Some("stats") => cmd_stats(&args),
        Some("simulate") => cmd_simulate(&args),
        Some("plan") => cmd_plan(&args),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match r {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

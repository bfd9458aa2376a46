//! `matgnn-cli` — generate data, train, evaluate, and inspect models from
//! the command line.
//!
//! ```sh
//! matgnn-cli generate --graphs 300 --seed 7 --out data.shard
//! matgnn-cli train    --data data.shard --params 10000 --epochs 6 --save model.mgnn
//! matgnn-cli evaluate --model model.mgnn --data data.shard
//! matgnn-cli info     --model model.mgnn
//! ```
//!
//! Data files use the shard format of `matgnn-data` (the DDStore
//! substitute); model files use the `matgnn-model` checkpoint format.

use std::collections::HashMap;
use std::process::ExitCode;

use matgnn::data::Shard;
use matgnn::prelude::*;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        print_usage();
        return ExitCode::FAILURE;
    };
    // `ledger` takes an action word before its flags (`ledger fit …`).
    let (action, rest) = match rest.split_first() {
        Some((a, tail)) if cmd == "ledger" && !a.starts_with("--") => (Some(a.as_str()), tail),
        _ => (None, rest),
    };
    let opts = match parse_opts(cmd, rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // `--ledger FILE` routes run records into the scaling-law ledger
    // (equivalent to setting MATGNN_LEDGER).
    if let Some(path) = opts.get("ledger") {
        if cmd != "ledger" {
            std::env::set_var(matgnn::telemetry::ledger::ENV_VAR, path);
        }
    }
    // `--telemetry DIR` wins over the MATGNN_TELEMETRY env var.
    let telemetry_init = match opts.get("telemetry") {
        Some(dir) => match matgnn::telemetry::init(dir) {
            Ok(()) => true,
            Err(e) => {
                eprintln!("error: initialising telemetry in {dir}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => matgnn::telemetry::init_from_env(),
    };
    if telemetry_init && cmd == "train" {
        // Single-process training: the whole run is rank 0.
        matgnn::telemetry::set_rank(0);
    }
    let result = match cmd.as_str() {
        "generate" => cmd_generate(&opts),
        "train" => cmd_train(&opts),
        "ddp" => cmd_ddp(&opts),
        "graphpar" => cmd_graphpar(&opts),
        "evaluate" => cmd_evaluate(&opts),
        "serve" => cmd_serve(&opts),
        "info" => cmd_info(&opts),
        "telemetry-validate" => cmd_telemetry_validate(&opts),
        "trace" => cmd_trace(&opts),
        "ledger" => cmd_ledger(action, &opts),
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    };
    if telemetry_init {
        if let Some(dir) = matgnn::telemetry::shutdown() {
            println!("telemetry written to {}", dir.display());
        }
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!(
        "matgnn-cli — train and inspect atomistic GNNs

USAGE:
  matgnn-cli generate --graphs N [--seed S] --out FILE
      Generate a synthetic aggregate (five Table-I-style sources) and
      write it as a shard file.

  matgnn-cli train [--data FILE | --graphs N] [--params P] [--layers L]
                   [--epochs E] [--batch B] [--seed S] [--checkpointing]
                   [--checkpoint-dir DIR] [--checkpoint-every N] [--resume]
                   [--keep-checkpoints N] [--supervise] [--anomaly-window N]
                   [--max-rollbacks N] [--save FILE]
      Train an EGNN (defaults: 10k params, 3 layers, 6 epochs, batch 8).
      With --checkpoint-dir, durable training checkpoints are written
      every N optimizer steps (and each epoch); --resume restarts from
      the newest intact one with a bitwise-identical loss curve;
      --keep-checkpoints prunes all but the N newest (the supervisor's
      rollback anchor is never pruned).

  matgnn-cli ddp [--data FILE | --graphs N] [--world W] [--params P]
                 [--layers L] [--epochs E] [--batch B] [--seed S] [--zero]
                 [--checkpoint-dir DIR] [--checkpoint-every N] [--resume]
                 [--keep-checkpoints N] [--fault-plan SPEC] [--supervise]
                 [--anomaly-window N] [--max-rollbacks N]
                 [--progress-deadline-ms MS]
      Simulated multi-rank DDP training with fault tolerance. SPEC is a
      `;`-separated fault list, e.g. `kill@rank1,step3;nan@rank2,step5`
      (kinds: kill, delay, io, hang, nan, spike). Survivors of a killed
      rank re-form a smaller world and resume from the last checkpoint.

Supervision: --supervise closes the detect→decide→recover loop — a
NaN/Inf loss or parameter, or a loss spiking past the rolling-median
threshold, rolls every rank back to the last good checkpoint and retries
(at most --max-rollbacks times, with LR backoff on consecutive
rollbacks). --anomaly-window sets the rolling-median window.
--progress-deadline-ms arms a per-rank hang watchdog that cuts a rank
making no step progress for that long (e.g. a `hang@` fault) and lets
the survivors regroup.

  matgnn-cli graphpar [--world W] [--parts V] [--atoms N] [--cutoff R]
                      [--hidden H] [--layers L] [--steps S] [--lr LR]
                      [--seed S] [--zero] [--overlap] [--fault-plan SPEC]
      Domain-decomposed graph-parallel training on one synthetic slab:
      the structure is split into V virtual slab partitions, each rank
      owns a contiguous run of them, and ghost-atom halos are exchanged
      between message-passing layers. The trajectory is bitwise
      invariant to W for a fixed V. --fault-plan accepts halo-site
      events (e.g. `kill@rank1,step2,halo`); survivors of a killed rank
      re-form a smaller world and redo the step.

  matgnn-cli evaluate --model FILE [--data FILE | --graphs N] [--seed S]
      Evaluate a saved model on a dataset.

  matgnn-cli serve [--model FILE] [--params P] [--layers L] [--seed S]
                   [--requests N] [--graphs N] [--workers W]
                   [--max-atoms A] [--max-graphs G]
                   [--queue-capacity Q] [--slo-ms MS]
                   [--metrics-addr HOST:PORT] [--metrics-hold-ms MS]
      In-process serving demo: freeze a model into the tape-free
      inference engine, start the dynamic batcher, drive N synthetic
      requests through it, and print batch-fill and latency statistics
      (p50/p99). Without --model a fresh seeded EGNN is served. Dispatch
      is work-conserving: a free worker takes at once the longest FIFO
      prefix within --max-atoms/--max-graphs, so batches grow with
      backlog and an idle pool never holds a request back.
      --metrics-addr raises the live metrics plane: Prometheus text
      exposition at /metrics (sliding-window p50/p99, queue depth,
      shed/SLO-breach counters) and worker-pool readiness at /healthz;
      --metrics-hold-ms keeps it up after the run for scrapers.

  matgnn-cli trace --dir DIR [--merged-trace FILE] [--flame FILE]
      Cross-rank performance attribution over the per-rank JSONL logs
      in DIR: per-step/per-phase wall-time breakdown, straggler skew
      (max−median per step), comm-overlap efficiency, and the critical
      path. Also writes a merged multi-rank Chrome trace and a
      collapsed-stack flamegraph file.

  matgnn-cli ledger [list|fit] --ledger FILE
      Inspect the scaling-law run ledger. `list` prints every recorded
      run; `fit` fits the paper's power law L(x) = a·x^(−α) + c over
      the accumulated runs and prints the exponent table for the
      compute/params/data axes. Training commands append to the ledger
      with --ledger FILE (or the MATGNN_LEDGER env var).

  matgnn-cli info --model FILE
      Print a saved model's configuration and parameter count.

  matgnn-cli telemetry-validate --dir DIR
      Validate every line of the per-rank JSONL event logs in DIR and
      check the Chrome trace (trace.json) parses.

Telemetry: `train` and `ddp` accept --telemetry DIR (or the
MATGNN_TELEMETRY env var) to write per-rank JSONL event logs plus a
chrome://tracing / Perfetto trace.json into DIR. `train`, `ddp`, and
`graphpar` accept --ledger FILE to append the run's scaling coordinates
(params, atoms seen, FLOPs, loss curve) to the run ledger. Any other flag
a subcommand does not list above is an error."
    );
}

type Opts = HashMap<String, String>;

/// Flags `main` reads before dispatch, so every subcommand accepts them.
const GLOBAL_FLAGS: &str = "telemetry ledger";
/// Flags that take no value.
const BOOL_FLAGS: &[&str] = &["checkpointing", "resume", "zero", "supervise", "overlap"];
/// What [`load_or_generate`] reads.
const DATA_FLAGS: &str = "data graphs seed";
/// What [`supervision_opts`] reads.
const SUPERVISE_FLAGS: &str = "supervise anomaly-window max-rollbacks";
const CHECKPOINT_FLAGS: &str = "checkpoint-dir checkpoint-every resume keep-checkpoints";

/// The flags subcommand `cmd` reads, or `None` for an unknown command
/// (which dispatch rejects by name).
fn flags_of(cmd: &str) -> Option<Vec<&'static str>> {
    let groups: &[&str] = match cmd {
        "generate" => &["graphs seed out"],
        "train" => &[
            DATA_FLAGS,
            SUPERVISE_FLAGS,
            CHECKPOINT_FLAGS,
            "params layers epochs batch checkpointing save",
        ],
        "ddp" => &[
            DATA_FLAGS,
            SUPERVISE_FLAGS,
            CHECKPOINT_FLAGS,
            "params layers world epochs batch zero fault-plan progress-deadline-ms save",
        ],
        "graphpar" => {
            &["world parts atoms cutoff hidden layers steps lr seed zero overlap fault-plan"]
        }
        "evaluate" => &[DATA_FLAGS, "model"],
        "serve" => &[
            "model params layers seed requests graphs workers max-atoms max-graphs",
            "queue-capacity slo-ms metrics-addr metrics-hold-ms",
        ],
        "info" => &["model"],
        "telemetry-validate" => &["dir"],
        "trace" => &["dir merged-trace flame"],
        "ledger" | "help" | "--help" | "-h" => &[],
        _ => return None,
    };
    let all = groups.iter().chain([&GLOBAL_FLAGS]);
    Some(all.flat_map(|g| g.split_whitespace()).collect())
}

fn parse_opts(cmd: &str, args: &[String]) -> Result<Opts, String> {
    let known = flags_of(cmd);
    let mut opts = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = &args[i];
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("expected --flag, got `{key}`"));
        };
        if let Some(known) = &known {
            if !known.contains(&name) {
                return Err(format!("unknown flag `--{name}` for `{cmd}`"));
            }
        }
        if BOOL_FLAGS.contains(&name) {
            opts.insert(name.to_string(), "true".to_string());
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("--{name} needs a value"))?;
        opts.insert(name.to_string(), value.clone());
        i += 2;
    }
    Ok(opts)
}

fn get_usize(opts: &Opts, name: &str, default: usize) -> Result<usize, String> {
    match opts.get(name) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name} must be an integer, got `{v}`")),
        None => Ok(default),
    }
}

fn get_u64(opts: &Opts, name: &str, default: u64) -> Result<u64, String> {
    match opts.get(name) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name} must be an integer, got `{v}`")),
        None => Ok(default),
    }
}

/// Builds the supervisor configuration from `--supervise`,
/// `--anomaly-window`, and `--max-rollbacks`; the tuning flags without
/// `--supervise` are an error rather than a silent no-op.
fn supervision_opts(opts: &Opts) -> Result<Option<SupervisorConfig>, String> {
    if !opts.contains_key("supervise") {
        for flag in ["anomaly-window", "max-rollbacks"] {
            if opts.contains_key(flag) {
                return Err(format!("--{flag} requires --supervise"));
            }
        }
        return Ok(None);
    }
    let defaults = SupervisorConfig::default();
    Ok(Some(SupervisorConfig {
        anomaly_window: get_usize(opts, "anomaly-window", defaults.anomaly_window)?,
        max_rollbacks: get_usize(opts, "max-rollbacks", defaults.max_rollbacks as usize)? as u32,
        ..defaults
    }))
}

fn load_or_generate(opts: &Opts) -> Result<Dataset, String> {
    if let Some(path) = opts.get("data") {
        let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
        let samples = Shard::from_bytes(bytes)
            .decode()
            .map_err(|e| format!("decoding {path}: {e}"))?;
        println!("loaded {} graphs from {path}", samples.len());
        Ok(Dataset::from_samples(samples))
    } else {
        let n = get_usize(opts, "graphs", 240)?;
        let seed = get_u64(opts, "seed", 0)?;
        println!("generating {n} graphs (seed {seed})…");
        Ok(Dataset::generate_aggregate(
            n,
            seed,
            &GeneratorConfig::default(),
        ))
    }
}

fn cmd_generate(opts: &Opts) -> Result<(), String> {
    let n = get_usize(opts, "graphs", 240)?;
    let seed = get_u64(opts, "seed", 0)?;
    let out = opts.get("out").ok_or("--out FILE is required")?;
    let ds = Dataset::generate_aggregate(n, seed, &GeneratorConfig::default());
    let stats = ds.stats();
    for (kind, s) in &stats.per_source {
        println!(
            "  {:<12} {:>6} graphs, {:>8} nodes, {:>9} edges",
            kind.name(),
            s.graphs,
            s.nodes,
            s.edges
        );
    }
    let refs: Vec<&Sample> = ds.samples().iter().collect();
    let shard = Shard::encode(&refs);
    std::fs::write(out, shard.as_bytes()).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "wrote {} graphs ({} bytes) to {out}",
        ds.len(),
        shard.len_bytes()
    );
    Ok(())
}

fn cmd_train(opts: &Opts) -> Result<(), String> {
    let ds = load_or_generate(opts)?;
    let params = get_usize(opts, "params", 10_000)?;
    let layers = get_usize(opts, "layers", 3)?;
    let epochs = get_usize(opts, "epochs", 6)?;
    let batch = get_usize(opts, "batch", 8)?;
    let seed = get_u64(opts, "seed", 0)?;
    let checkpointing = opts.contains_key("checkpointing");

    let (train, test) = ds.split_test(0.15, seed ^ 0xBEEF);
    let norm = Normalizer::fit(&train);
    let cfg = EgnnConfig::with_target_params(params, layers).with_seed(seed);
    let mut model = Egnn::new(cfg);
    println!(
        "training {} on {} graphs ({} held out)…",
        cfg.summary(),
        train.len(),
        test.len()
    );

    let steps = train.len().div_ceil(batch);
    let train_cfg = TrainConfig {
        epochs,
        batch_size: batch,
        schedule: LrSchedule::WarmupCosine {
            warmup_steps: (epochs * steps / 20).max(1),
            total_steps: epochs * steps,
            min_factor: 0.05,
        },
        seed,
        checkpointing,
        ..Default::default()
    };
    let mut trainer = Trainer::new(train_cfg);
    if let Some(dir) = opts.get("checkpoint-dir") {
        let every = get_usize(opts, "checkpoint-every", 0)?;
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
        trainer = trainer.with_checkpointing(dir, every);
        if opts.contains_key("resume") {
            trainer = trainer.resume_latest();
            println!("resuming from newest checkpoint in {dir} (if any)…");
        }
    } else if opts.contains_key("resume") {
        return Err("--resume requires --checkpoint-dir".into());
    }
    trainer = trainer.keep_checkpoints(get_usize(opts, "keep-checkpoints", 0)?);
    if let Some(sup) = supervision_opts(opts)? {
        trainer = trainer.with_supervision(sup);
        println!(
            "supervised: anomaly window {}, up to {} rollbacks",
            sup.anomaly_window, sup.max_rollbacks
        );
    }
    let report = trainer.fit(&mut model, &train, Some(&test), &norm);
    if report.rollbacks > 0 || report.health != RunHealth::Healthy {
        println!(
            "supervisor: {} rollback(s), final health {:?}",
            report.rollbacks, report.health
        );
    }
    if report.health == RunHealth::Failed {
        return Err("supervised run failed: rollback budget exhausted".into());
    }
    for e in &report.epochs {
        println!(
            "  epoch {:>2}: train {:.4}, test {:.4}",
            e.epoch,
            e.train_loss,
            e.test_loss.unwrap_or(f64::NAN)
        );
    }
    let m = report.final_eval.expect("test split present");
    println!(
        "final: loss {:.4}, energy MAE {:.4} eV/atom, force MAE {:.4} eV/Å ({:.1}s)",
        m.loss,
        m.energy_mae,
        m.force_mae,
        report.wall.as_secs_f64()
    );

    if let Some(path) = opts.get("save") {
        save_egnn(&model, path).map_err(|e| format!("saving {path}: {e}"))?;
        println!("saved model to {path}");
        println!(
            "note: evaluation normalizer (mean {:.4}, std {:.4}, force {:.4}) is refit from data at evaluate time",
            norm.energy_mean, norm.energy_std, norm.force_std
        );
    }
    Ok(())
}

fn cmd_ddp(opts: &Opts) -> Result<(), String> {
    let ds = load_or_generate(opts)?;
    let params = get_usize(opts, "params", 10_000)?;
    let layers = get_usize(opts, "layers", 3)?;
    let world = get_usize(opts, "world", 4)?;
    let epochs = get_usize(opts, "epochs", 2)?;
    let batch = get_usize(opts, "batch", 4)?;
    let seed = get_u64(opts, "seed", 0)?;

    let norm = Normalizer::fit(&ds);
    let cfg = EgnnConfig::with_target_params(params, layers).with_seed(seed);
    let mut model = Egnn::new(cfg);

    let fault_plan = match opts.get("fault-plan") {
        Some(spec) => spec
            .parse::<FaultPlan>()
            .map_err(|e| format!("--fault-plan: {e}"))?,
        None => FaultPlan::none(),
    };
    let checkpoint_dir = match opts.get("checkpoint-dir") {
        Some(dir) => {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
            Some(std::path::PathBuf::from(dir))
        }
        None => None,
    };
    if checkpoint_dir.is_none() && opts.contains_key("resume") {
        return Err("--resume requires --checkpoint-dir".into());
    }
    if checkpoint_dir.is_none()
        && fault_plan
            .events()
            .iter()
            .any(|e| e.kind == FaultKind::Kill)
    {
        println!("warning: kill faults without --checkpoint-dir restart training from scratch");
    }

    let supervise = supervision_opts(opts)?;
    let progress_deadline = match opts.get("progress-deadline-ms") {
        Some(v) => {
            let ms: u64 = v
                .parse()
                .map_err(|_| format!("--progress-deadline-ms must be an integer, got `{v}`"))?;
            Some(std::time::Duration::from_millis(ms))
        }
        None => None,
    };
    let ddp_cfg = DdpConfig {
        world,
        epochs,
        batch_size: batch,
        seed,
        zero: opts.contains_key("zero"),
        checkpoint_dir,
        checkpoint_every: get_usize(opts, "checkpoint-every", 1)?,
        keep_checkpoints: get_usize(opts, "keep-checkpoints", 0)?,
        resume: opts.contains_key("resume"),
        fault_plan,
        supervise,
        progress_deadline,
        ..Default::default()
    };
    println!(
        "DDP training {} on {} graphs across {world} ranks (global batch {})…",
        cfg.summary(),
        ds.len(),
        world * batch
    );
    let report = train_ddp(&mut model, &ds, &norm, &ddp_cfg);
    for (epoch, loss) in report.epoch_loss.iter().enumerate() {
        println!("  epoch {epoch:>2}: train {loss:.4}");
    }
    if !report.failed_ranks.is_empty() {
        println!(
            "ranks {:?} died; {} recovery cycle(s); finished with world {}",
            report.failed_ranks, report.recoveries, report.final_world
        );
    }
    if report.rollbacks > 0 {
        println!(
            "supervisor: {} rollback(s) to the last good checkpoint",
            report.rollbacks
        );
    }
    println!(
        "{} steps in {:.1}s ({:.0} ms/step)",
        report.steps,
        report.wall.as_secs_f64(),
        report.mean_step_wall().as_secs_f64() * 1e3
    );

    if let Some(path) = opts.get("save") {
        save_egnn(&model, path).map_err(|e| format!("saving {path}: {e}"))?;
        println!("saved model to {path}");
    }
    Ok(())
}

fn get_f32(opts: &Opts, name: &str, default: f32) -> Result<f32, String> {
    match opts.get(name) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name} must be a number, got `{v}`")),
        None => Ok(default),
    }
}

fn get_f64(opts: &Opts, name: &str, default: f64) -> Result<f64, String> {
    match opts.get(name) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name} must be a number, got `{v}`")),
        None => Ok(default),
    }
}

fn cmd_graphpar(opts: &Opts) -> Result<(), String> {
    let defaults = GraphParConfig::default();
    let fault_plan = match opts.get("fault-plan") {
        Some(spec) => spec
            .parse::<FaultPlan>()
            .map_err(|e| format!("--fault-plan: {e}"))?,
        None => FaultPlan::none(),
    };
    let cfg = GraphParConfig {
        world: get_usize(opts, "world", defaults.world)?,
        n_parts: get_usize(opts, "parts", defaults.n_parts)?,
        n_atoms: get_usize(opts, "atoms", 64)?,
        cutoff: get_f32(opts, "cutoff", defaults.cutoff as f32)? as f64,
        hidden_dim: get_usize(opts, "hidden", defaults.hidden_dim)?,
        n_layers: get_usize(opts, "layers", defaults.n_layers)?,
        steps: get_usize(opts, "steps", 5)?,
        lr: get_f32(opts, "lr", defaults.lr)?,
        zero: opts.contains_key("zero"),
        overlap_comm: opts.contains_key("overlap"),
        seed: get_u64(opts, "seed", 0)?,
        fault_plan,
        ..defaults
    };
    if cfg.world == 0 || cfg.n_parts == 0 {
        return Err("--world and --parts must be at least 1".into());
    }
    if cfg.world > cfg.n_parts {
        return Err(format!(
            "--world {} exceeds --parts {}: every rank must own at most a \
             contiguous run of partitions",
            cfg.world, cfg.n_parts
        ));
    }
    println!(
        "graph-parallel training: {} atoms in {} partitions across {} ranks \
         (hidden {}, {} layers, {} steps{}{})…",
        cfg.n_atoms,
        cfg.n_parts,
        cfg.world,
        cfg.hidden_dim,
        cfg.n_layers,
        cfg.steps,
        if cfg.zero { ", ZeRO" } else { "" },
        if cfg.overlap_comm { ", overlap" } else { "" },
    );
    let report = train_graphpar(&cfg);
    for (step, loss) in report.losses.iter().enumerate() {
        println!("  step {step:>2}: loss {loss:.6}");
    }
    if report.recoveries > 0 {
        println!(
            "{} elastic recovery cycle(s); finished with world {}",
            report.recoveries, report.final_world
        );
    }
    println!(
        "rank 0 owns {} atoms + {} ghosts; halo payload {} B/step",
        report.owned_atoms, report.ghost_atoms, report.halo_bytes_per_step
    );
    println!(
        "comm: {} B moved in {} collectives, {:.3} ms modeled ({:.3} ms exposed)",
        report.stats.bytes_moved,
        report.stats.collectives,
        report.stats.modeled_seconds * 1e3,
        report.stats.exposed_seconds() * 1e3
    );
    Ok(())
}

fn cmd_evaluate(opts: &Opts) -> Result<(), String> {
    let path = opts.get("model").ok_or("--model FILE is required")?;
    let model = load_egnn(path).map_err(|e| format!("loading {path}: {e}"))?;
    println!("loaded {}", model.config().summary());
    let ds = load_or_generate(opts)?;
    let norm = Normalizer::fit(&ds);
    let m = evaluate(&model, &ds, &norm, &LossConfig::default(), 8);
    println!(
        "evaluation on {} graphs: loss {:.4}, energy MAE {:.4} eV/atom, force MAE {:.4} eV/Å",
        ds.len(),
        m.loss,
        m.energy_mae,
        m.force_mae
    );
    Ok(())
}

fn cmd_telemetry_validate(opts: &Opts) -> Result<(), String> {
    let dir = opts.get("dir").ok_or("--dir DIR is required")?;
    let mut logs = 0usize;
    let mut lines = 0usize;
    let entries = std::fs::read_dir(dir).map_err(|e| format!("reading {dir}: {e}"))?;
    let mut paths: Vec<std::path::PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.starts_with("events-") && name.ends_with(".jsonl")
        })
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no events-*.jsonl files in {dir}"));
    }
    for path in &paths {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        for (i, line) in text.lines().enumerate() {
            matgnn::telemetry::json::validate_event_line(line)
                .map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
            lines += 1;
        }
        logs += 1;
    }
    let trace_path = std::path::Path::new(dir).join("trace.json");
    if trace_path.exists() {
        let text = std::fs::read_to_string(&trace_path)
            .map_err(|e| format!("reading {}: {e}", trace_path.display()))?;
        matgnn::telemetry::json::parse(&text)
            .map_err(|e| format!("{}: {e}", trace_path.display()))?;
        println!("trace.json OK");
    }
    println!("validated {lines} events across {logs} log file(s)");
    Ok(())
}

fn cmd_serve(opts: &Opts) -> Result<(), String> {
    use matgnn::telemetry as tel;
    use std::sync::Arc;
    use std::time::Duration;

    let model = match opts.get("model") {
        Some(path) => {
            let m = load_egnn(path).map_err(|e| format!("loading {path}: {e}"))?;
            println!("loaded {}", m.config().summary());
            m
        }
        None => {
            let params = get_usize(opts, "params", 10_000)?;
            let layers = get_usize(opts, "layers", 3)?;
            let seed = get_u64(opts, "seed", 0)?;
            let cfg = EgnnConfig::with_target_params(params, layers).with_seed(seed);
            println!("serving a fresh {}", cfg.summary());
            Egnn::new(cfg)
        }
    };
    // Model-unit serving: the demo has no fitted normalizer on hand.
    let engine = Arc::new(InferenceEngine::from_model(&model, Normalizer::default()));

    let defaults = BatcherConfig::default();
    let cfg = BatcherConfig {
        max_atoms: get_usize(opts, "max-atoms", defaults.max_atoms)?,
        max_graphs: get_usize(opts, "max-graphs", defaults.max_graphs)?,
        queue_capacity: get_usize(opts, "queue-capacity", defaults.queue_capacity)?,
        workers: get_usize(opts, "workers", defaults.workers)?,
        slo_ms: get_f64(opts, "slo-ms", defaults.slo_ms)?,
        ..defaults
    };
    let requests = get_usize(opts, "requests", 200)?;
    let pool_n = get_usize(opts, "graphs", 48)?;
    let seed = get_u64(opts, "seed", 0)?;
    println!(
        "batcher: {} worker(s), max {} atoms / {} graphs per batch, work-conserving dispatch",
        cfg.workers, cfg.max_atoms, cfg.max_graphs
    );

    let ds = Dataset::generate_aggregate(pool_n, seed, &GeneratorConfig::default());
    tel::reset_metrics();
    let batcher = DynamicBatcher::start(engine, cfg);
    // `--metrics-addr` raises the live metrics plane next to the
    // batcher: Prometheus exposition at /metrics, readiness at /healthz.
    let metrics_server = match opts.get("metrics-addr") {
        Some(addr) => {
            let server =
                matgnn::serve::MetricsServer::start(addr.as_str(), batcher.readiness_probe())
                    .map_err(|e| format!("binding metrics endpoint {addr}: {e}"))?;
            println!(
                "metrics: http://{0}/metrics  (health: http://{0}/healthz)",
                server.local_addr()
            );
            Some(server)
        }
        None => None,
    };
    let started = std::time::Instant::now();
    let mut tickets = Vec::with_capacity(requests);
    for i in 0..requests {
        let graph = ds.samples()[i % ds.len()].graph.clone();
        tickets.push(
            batcher
                .submit(graph)
                .map_err(|e| format!("submitting request {i}: {e}"))?,
        );
    }
    let mut served = 0usize;
    let mut atoms = 0usize;
    for t in tickets {
        let p = t
            .wait()
            .map_err(|e| format!("waiting for prediction: {e}"))?;
        served += 1;
        atoms += p.forces.len();
    }
    let wall = started.elapsed();
    // Keep the pool (and its ready /healthz) alive so external scrapers
    // can observe the finished run — what the CI smoke job curls.
    let hold_ms = get_u64(opts, "metrics-hold-ms", 0)?;
    if hold_ms > 0 {
        println!("holding {hold_ms} ms for metrics scrapes…");
        std::thread::sleep(Duration::from_millis(hold_ms));
    }
    batcher.shutdown();
    if let Some(server) = metrics_server {
        server.shutdown();
    }

    let q = |name: &str, q: f64| tel::histogram_quantile(name, q).unwrap_or(f64::NAN);
    println!(
        "served {served} requests ({atoms} atoms) in {:.2}s — {:.0} req/s",
        wall.as_secs_f64(),
        served as f64 / wall.as_secs_f64()
    );
    println!(
        "latency  p50 {:.2} ms, p99 {:.2} ms",
        q("serve.latency_ms", 0.5),
        q("serve.latency_ms", 0.99)
    );
    println!(
        "queued   p50 {:.2} ms, p99 {:.2} ms",
        q("serve.queue_wait_ms", 0.5),
        q("serve.queue_wait_ms", 0.99)
    );
    println!(
        "batching p50 {:.0} graphs / {:.0} atoms per batch",
        q("serve.batch.graphs", 0.5),
        q("serve.batch.atoms", 0.5)
    );
    let wq = |p: f64| tel::window_quantile("serve.latency_ms", p).unwrap_or(f64::NAN);
    let (win_len, _) = tel::window_counts("serve.latency_ms").unwrap_or((0, 0));
    println!(
        "window   p50 {:.2} ms, p99 {:.2} ms (exact over last {win_len} requests)",
        wq(0.5),
        wq(0.99)
    );
    let counter = |name: &str| {
        tel::snapshot()
            .iter()
            .find_map(|(k, v)| (k == name).then(|| v.scalar()))
            .unwrap_or(0.0)
    };
    println!(
        "slo: {} breach(es) of the {:.0} ms target; {} request(s) shed",
        counter("serve.slo_breach"),
        cfg.slo_ms,
        counter("serve.shed")
    );
    Ok(())
}

fn cmd_trace(opts: &Opts) -> Result<(), String> {
    use matgnn::telemetry::analyze;
    let dir = opts.get("dir").ok_or("--dir DIR is required")?;
    let spans = analyze::load_dir(dir)?;
    let analysis = analyze::analyze(&spans);
    print!("{}", analyze::render_report(&analysis));
    let merged_path = opts
        .get("merged-trace")
        .cloned()
        .unwrap_or_else(|| format!("{dir}/trace-merged.json"));
    std::fs::write(&merged_path, analyze::render_merged_chrome_trace(&spans))
        .map_err(|e| format!("writing {merged_path}: {e}"))?;
    let flame_path = opts
        .get("flame")
        .cloned()
        .unwrap_or_else(|| format!("{dir}/flame.folded"));
    std::fs::write(&flame_path, analyze::render_flamegraph(&spans))
        .map_err(|e| format!("writing {flame_path}: {e}"))?;
    println!("\nwrote merged Chrome trace to {merged_path}");
    println!("wrote collapsed stacks to {flame_path} (flamegraph.pl / inferno ready)");
    Ok(())
}

fn cmd_ledger(action: Option<&str>, opts: &Opts) -> Result<(), String> {
    use matgnn::telemetry::ledger;
    let path = opts
        .get("ledger")
        .cloned()
        .or_else(|| {
            std::env::var(ledger::ENV_VAR)
                .ok()
                .filter(|v| !v.is_empty())
        })
        .ok_or("--ledger FILE is required (or set MATGNN_LEDGER)")?;
    let runs = ledger::load(&path)?;
    match action {
        Some("list") | None => {
            println!(
                "{:<9} {:>10} {:>12} {:>12} {:>6} {:>7} {:>9} {:>10}",
                "kind", "params", "atoms", "flops", "world", "steps", "wall s", "loss"
            );
            for r in &runs {
                println!(
                    "{:<9} {:>10} {:>12} {:>12.3e} {:>6} {:>7} {:>9.2} {:>10.5}",
                    r.kind, r.params, r.atoms_seen, r.flops, r.world, r.steps, r.wall_s, r.loss
                );
            }
            println!("{} run(s) in {path}", runs.len());
            Ok(())
        }
        Some("fit") => {
            let usable: Vec<&ledger::RunRecord> = runs
                .iter()
                .filter(|r| r.loss.is_finite() && r.loss > 0.0)
                .collect();
            if usable.len() < 3 {
                return Err(format!(
                    "power-law fit needs ≥ 3 runs with finite positive loss; \
                     {path} has {}",
                    usable.len()
                ));
            }
            println!(
                "scaling-law fits over {} runs (L(x) = a·x^(−α) + c):",
                usable.len()
            );
            println!(
                "  {:<11} {:>10} {:>12} {:>10} {:>8}",
                "axis", "exponent", "amplitude a", "floor c", "R²"
            );
            let losses: Vec<f64> = usable.iter().map(|r| r.loss).collect();
            let axes: [(&str, Vec<f64>); 3] = [
                ("compute C", usable.iter().map(|r| r.flops).collect()),
                ("params N", usable.iter().map(|r| r.params as f64).collect()),
                (
                    "data D",
                    usable.iter().map(|r| r.atoms_seen as f64).collect(),
                ),
            ];
            for (name, xs) in axes {
                match matgnn::scaling::fit_power_law(&xs, &losses) {
                    Some(fit) => println!(
                        "  {:<11} {:>10.4} {:>12.4e} {:>10.4} {:>8.3}",
                        name, -fit.alpha, fit.a, fit.c, fit.r2
                    ),
                    None => println!("  {name:<11} fit failed (degenerate spread on this axis)"),
                }
            }
            Ok(())
        }
        Some(other) => Err(format!(
            "unknown ledger action `{other}` (expected `list` or `fit`)"
        )),
    }
}

fn cmd_info(opts: &Opts) -> Result<(), String> {
    let path = opts.get("model").ok_or("--model FILE is required")?;
    let model = load_egnn(path).map_err(|e| format!("loading {path}: {e}"))?;
    let cfg = model.config();
    println!("{}", cfg.summary());
    println!("  node_feat_dim: {}", cfg.node_feat_dim);
    println!("  hidden_dim:    {}", cfg.hidden_dim);
    println!("  n_layers:      {}", cfg.n_layers);
    println!("  residual:      {}", cfg.residual);
    println!("  update_coords: {}", cfg.update_coords);
    println!("  edge_gate:     {}", cfg.edge_gate);
    println!("  seed:          {}", cfg.seed);
    println!("  parameters:    {}", model.n_params());
    println!("  param tensors: {}", model.params().len());
    Ok(())
}

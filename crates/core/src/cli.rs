//! The `cgdnn` command line: one declarative flag table (`FLAGS`) that
//! parses arguments, rejects flags a subcommand does not take, supplies
//! defaults and renders `--help`; plus data-source resolution. Factored out
//! of the binary so it can be unit-tested.

use datasets::InMemoryDataset;
use layers::data::BatchSource;
use std::fmt::Write as _;
use std::fs::File;
use Kind::{Int, Real, Text};

/// What a flag's value must parse as.
enum Kind {
    /// Takes no value; query it with [`Args::has`].
    Switch,
    /// A non-negative integer.
    Int,
    /// A real number.
    Real,
    /// Free text: a path, an address or a named choice.
    Text,
}

/// One row of the flag table: the name without `--`, the value's kind, its
/// placeholder in `--help` (empty for a switch), the value when the flag is
/// absent (empty for none), the subcommands that take it, one help line.
struct Flag {
    name: &'static str,
    kind: Kind,
    metavar: &'static str,
    default: &'static str,
    subs: &'static [&'static str],
    help: &'static str,
}

impl Flag {
    /// Whether `value` parses as this row's [`Kind`].
    fn accepts(&self, value: &str) -> bool {
        match self.kind {
            Kind::Int => value.parse::<u64>().is_ok(),
            Kind::Real => value.parse::<f64>().is_ok(),
            Kind::Switch | Kind::Text => true,
        }
    }
}

#[rustfmt::skip]
const fn flag(name: &'static str, kind: Kind, metavar: &'static str, default: &'static str, subs: &'static [&'static str], help: &'static str) -> Flag {
    Flag { name, kind, metavar, default, subs, help }
}

const fn switch(name: &'static str, subs: &'static [&'static str], help: &'static str) -> Flag {
    flag(name, Kind::Switch, "", "", subs, help)
}

/// Subcommands and the synopsis `--help` prints for each.
#[rustfmt::skip]
const SUBCOMMANDS: &[(&str, &str)] = &[
    ("summary", "<spec> — layer table and memory report"),
    ("train", "<spec> — coarse-grain training: in-process, checkpointed, or distributed; every spec, CIFAR too, at LeNet's solver (momentum SGD, lr 0.01, inv)"),
    ("infer", "<spec> — serve parameters over TCP until a client asks it to drain"),
    ("load", "closed-loop wire load against an `infer` server"),
    ("stats", "scrape the live metrics of a serving or coordinating process"),
    ("simulate", "<spec> — project onto the paper's 16-core Xeon + K40"),
];

/// Every flag `cgdnn` takes, one row per name.
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    flag("data", Text, "KIND", "synthetic-mnist", &["summary", "train", "infer", "load", "simulate"], "synthetic-mnist | synthetic-cifar | idx:<images>,<labels> | cifar-bin:<file>"),
    flag("threads", Int, "N", "4", &["train", "infer"], "thread-team size"),
    flag("weights", Text, "FILE", "", &["train", "infer"], "initialize parameters from a snapshot"),
    flag("iters", Int, "N", "100", &["train"], "iterations (with --resume: the absolute target iteration)"),
    flag("reduction", Text, "MODE", "ordered", &["train"], "ordered | canonical[:G] (canonical:G pins G groups)"),
    flag("snapshot", Text, "FILE", "", &["train"], "write the parameters after training"),
    flag("loss-log", Text, "FILE", "", &["train"], "write '<iter> <loss>' per step, f32-exact: bit-identical runs give byte-identical logs"),
    flag("snapshot-every", Int, "K", "0", &["train"], "checkpoint params + solver + data cursor every K iterations (turns on rollback)"),
    flag("resume", Text, "DIR", "", &["train"], "continue from the newest good checkpoint in DIR"),
    flag("snapshot-dir", Text, "DIR", "", &["train"], "checkpoint directory (default: the --resume DIR, else 'checkpoints')"),
    flag("coordinator", Text, "ADDR", "", &["train"], "bind ADDR, spawn --workers processes and run data-parallel SGD, bit-identical to --reduction canonical:N --threads 1"),
    flag("workers", Int, "N", "2", &["train"], "worker processes (a power of two dividing the batch)"),
    flag("worker-connect", Text, "ADDR", "", &["train"], "run as one worker of the coordinator at ADDR"),
    flag("rank", Int, "R", "0", &["train"], "this worker's rank (with --worker-connect)"),
    flag("max-rejoins", Int, "N", "0", &["train"], "worker: reconnect attempts after losing the coordinator, with backoff"),
    flag("max-worker-restarts", Int, "N", "0", &["train"], "coordinator: survive worker deaths (recompute the shard, respawn), N per --restart-window"),
    switch("degraded-ok", &["train"], "coordinator: when the restart budget runs out, keep training with dead ranks recomputed locally"),
    flag("restart-window", Int, "MS", "30000", &["train", "infer"], "window of the worker (train) or replica (infer) restart budget"),
    flag("port-file", Text, "FILE", "", &["train", "infer"], "write the bound --coordinator / --listen address"),
    flag("replicas", Int, "N", "1", &["infer"], "engine replicas, one worker thread each"),
    flag("requests", Int, "N", "1000", &["load"], "requests to send"),
    flag("clients", Int, "N", "4", &["load"], "concurrent clients"),
    flag("deadline-us", Int, "US", "0", &["load"], "per-request deadline; 0 = none"),
    flag("max-batch", Int, "N", "16", &["infer"], "micro-batch capacity"),
    flag("queue-depth", Int, "N", "64", &["infer"], "admission queue bound"),
    flag("max-restarts", Int, "N", "5", &["infer"], "replica restarts allowed per --restart-window"),
    flag("listen", Text, "ADDR", "127.0.0.1:0", &["infer"], "TCP address to serve on (port 0: any free port; see --port-file)"),
    flag("serve-for-ms", Int, "MS", "0", &["infer"], "drain after MS; 0 = when a client asks"),
    flag("rpc-max-conns", Int, "N", "24", &["infer"], "live connections; one more is greeted HELLO_BUSY"),
    flag("csv", Text, "FILE", "", &["load"], "write the report as CSV"),
    flag("connect", Text, "ADDR", "", &["load", "stats"], "server to load, or any serving / coordinating process to scrape"),
    flag("pipeline", Int, "N", "1", &["load"], "requests each client keeps in flight"),
    flag("idle-conns", Int, "N", "0", &["load"], "extra connections that handshake, then sit idle"),
    flag("fuzz", Int, "N", "0", &["load"], "also send N malformed connections"),
    switch("drain-server", &["load"], "ask the server to drain and exit afterwards"),
    switch("profile", &["train"], "print the measured per-layer fwd/bwd table and imbalance factors"),
    flag("profile-csv", Text, "FILE", "", &["train"], "also write the --profile table as CSV"),
    flag("trace", Text, "FILE", "", &["train", "infer"], "record spans, write a Chrome trace_event JSON"),
    flag("metrics", Text, "FILE", "", &["train", "infer"], "write the metrics registry as CSV at exit; '-' = stdout"),
    flag("metrics-every", Real, "SECS", "", &["train", "infer"], "also rewrite --metrics FILE atomically every SECS during the run"),
];

/// The row for `--name` under `sub`, if `sub` takes the flag.
fn row(name: &str, sub: &str) -> Option<&'static Flag> {
    FLAGS
        .iter()
        .find(|f| f.name == name && f.subs.contains(&sub))
}

/// The `--help` text, rendered from `SUBCOMMANDS` and `FLAGS`: the
/// rows `sub` takes, or — when `sub` names no subcommand — every row with
/// the subcommands that take it.
pub fn help(sub: &str) -> String {
    let only = SUBCOMMANDS.iter().any(|(n, _)| *n == sub);
    let mut out = String::from(
        "usage: cgdnn <subcommand> [<spec.prototxt>] [--flag VALUE | --switch]...\n       \
         cgdnn [<subcommand>] --help\n\nsubcommands:\n",
    );
    for (name, what) in SUBCOMMANDS.iter().filter(|(n, _)| !only || *n == sub) {
        let _ = writeln!(out, "  {name:<9} {what}");
    }
    out.push_str("\nflags:\n");
    for f in FLAGS.iter().filter(|f| !only || f.subs.contains(&sub)) {
        let left = format!("--{} {}", f.name, f.metavar);
        let _ = write!(out, "  {left:<25} {}", f.help);
        if !f.default.is_empty() {
            let _ = write!(out, " (default {})", f.default);
        }
        if !only {
            let _ = write!(out, " [{}]", f.subs.join(" "));
        }
        out.push('\n');
    }
    out
}

/// A parsed command line: the flags given, checked against `FLAGS`, and
/// the positional arguments.
pub struct Args {
    sub: &'static str,
    given: Vec<(&'static str, String)>,
    /// Positional arguments in order (the spec path, if any).
    pub positional: Vec<String>,
}

impl Args {
    /// Parse the arguments after subcommand `sub`.
    ///
    /// # Errors
    /// An unknown subcommand; a flag `sub` has no row for; a missing value
    /// or one that does not parse as the row's kind; `--metrics-every`
    /// without a `--metrics FILE` to rewrite.
    pub fn parse(sub: &str, argv: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let sub = SUBCOMMANDS
            .iter()
            .map(|(n, _)| *n)
            .find(|n| *n == sub)
            .ok_or_else(|| format!("unknown subcommand '{sub}' (see `cgdnn --help`)"))?;
        let mut args = Self {
            sub,
            given: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = argv.into_iter();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                args.positional.push(a);
                continue;
            };
            let f = row(name, sub).ok_or_else(|| {
                format!("unknown flag --{name} for `cgdnn {sub}` (see `cgdnn {sub} --help`)")
            })?;
            let value = match f.kind {
                Kind::Switch => String::new(),
                _ => it
                    .next()
                    .ok_or_else(|| format!("--{name} needs a value {}", f.metavar))?,
            };
            if !f.accepts(&value) {
                return Err(format!(
                    "invalid value '{value}' for --{name} {}",
                    f.metavar
                ));
            }
            args.given.push((f.name, value));
        }
        if args.has("metrics-every") && matches!(args.get("metrics"), None | Some("-")) {
            return Err("--metrics-every rewrites --metrics FILE; give a file, not '-'".into());
        }
        Ok(args)
    }

    /// Whether `--name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.given.iter().any(|(n, _)| *n == name)
    }

    /// The last value given for `--name`, else its row's default (`None`
    /// when the row has none).
    pub fn get(&self, name: &str) -> Option<&str> {
        match self.given.iter().rev().find(|(n, _)| *n == name) {
            Some((_, v)) => Some(v),
            None => row(name, self.sub)
                .map(|f| f.default)
                .filter(|d| !d.is_empty()),
        }
    }

    /// [`Args::get`], parsed as `T`.
    ///
    /// # Errors
    /// Fails when the value does not parse as `T`.
    pub fn parse_opt<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        let parse = |v: &str| {
            v.parse()
                .map_err(|_| format!("invalid value '{v}' for --{name}"))
        };
        self.get(name).map(parse).transpose()
    }

    /// [`Args::parse_opt`] for a flag that has a default or must be given.
    ///
    /// # Errors
    /// Fails when the value does not parse as `T`, or there is none.
    pub fn get_parse<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.parse_opt(name)?
            .ok_or_else(|| format!("missing --{name}"))
    }
}

/// Resolve a `--data` argument to a batch source:
/// `synthetic-mnist`, `synthetic-cifar`, `idx:<images>,<labels>`, or
/// `cifar-bin:<file>`.
///
/// # Errors
/// Fails on unknown kinds, missing files, or malformed data files.
pub fn make_source(kind: &str) -> Result<Box<dyn BatchSource<f32>>, String> {
    let open = |path: &str| File::open(path).map_err(|e| format!("{path}: {e}"));
    if let Some(rest) = kind.strip_prefix("idx:") {
        let (imgs, lbls) = rest.split_once(',').ok_or("idx: needs <images>,<labels>")?;
        let (images, rows, cols) =
            datasets::read_idx_images(open(imgs)?).map_err(|e| e.to_string())?;
        let labels = datasets::read_idx_labels(open(lbls)?).map_err(|e| e.to_string())?;
        return Ok(Box::new(InMemoryDataset::new(
            images,
            labels,
            [1usize, rows, cols],
        )));
    }
    if let Some(file) = kind.strip_prefix("cifar-bin:") {
        let (images, labels) = datasets::read_cifar_bin(open(file)?).map_err(|e| e.to_string())?;
        return Ok(Box::new(InMemoryDataset::new(
            images,
            labels,
            [3usize, 32, 32],
        )));
    }
    match kind {
        "synthetic-mnist" => Ok(Box::new(datasets::SyntheticMnist::new(8192, 42))),
        "synthetic-cifar" => Ok(Box::new(datasets::SyntheticCifar::new(8192, 42))),
        other => Err(format!("unknown data kind '{other}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(sub: &str, line: &str) -> Result<Args, String> {
        Args::parse(sub, line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_flags_positionals_and_table_defaults() {
        let a = parse("train", "spec.txt --threads 8 --iters 100 --profile").unwrap();
        assert_eq!(a.positional, vec!["spec.txt"]);
        assert_eq!(a.get("threads"), Some("8"));
        assert_eq!(a.get_parse::<usize>("iters").unwrap(), 100);
        assert!(a.has("profile") && !a.has("degraded-ok"));
        // Absent flags take their row's default; rows without one are None.
        assert_eq!(a.get_parse::<usize>("workers").unwrap(), 2);
        assert_eq!(a.get("data"), Some("synthetic-mnist"));
        assert_eq!(a.get("snapshot"), None);
        assert!(a.get_parse::<String>("snapshot").is_err());
        // Only the subcommands a row names take the flag.
        assert_eq!(
            parse("load", "--csv r.csv").unwrap().get("csv"),
            Some("r.csv")
        );
        assert!(parse("load", "--csv").is_err());
        // `infer` always listens; port 0 picks a free one.
        let i = parse("infer", "spec").unwrap();
        assert_eq!(i.get("listen"), Some("127.0.0.1:0"));
    }

    #[test]
    fn last_flag_occurrence_wins() {
        let a = parse("train", "x --threads 2 --threads 4").unwrap();
        assert_eq!(a.get("threads"), Some("4"));
    }

    #[test]
    fn missing_and_mistyped_values_are_errors() {
        assert!(parse("train", "spec --threads").is_err());
        let e = parse("train", "spec --iters banana").err().unwrap();
        assert!(e.contains("banana") && e.contains("--iters"), "{e}");
        let e = parse("train", "spec --metrics m.csv --metrics-every fast")
            .err()
            .unwrap();
        assert!(e.contains("fast") && e.contains("--metrics-every"), "{e}");
    }

    #[test]
    fn flags_no_row_accepts_are_rejected_and_the_table_is_whole() {
        let e = parse("train", "spec --iter 2").err().unwrap();
        assert!(e.contains("--iter ") && e.contains("train"), "{e}");
        assert!(parse("summary", "spec --bogus 1").is_err());
        assert!(
            parse("load", "--trace t.json").is_err(),
            "load does not trace"
        );
        assert!(parse("bogus", "").is_err());
        // The per-layer planner and the cluster projection are gone.
        assert!(parse("plan", "spec").is_err());
        assert!(parse("train", "spec --plan f").is_err());
        assert!(parse("infer", "spec --plan f").is_err());
        assert!(parse("simulate", "spec --cluster 2").is_err());
        // --metrics-every needs a FILE to rewrite.
        assert!(parse("train", "spec --metrics-every 1").is_err());
        assert!(parse("train", "spec --metrics - --metrics-every 1").is_err());
        assert!(parse("infer", "spec --metrics m.csv --metrics-every 1").is_ok());

        let all = help("");
        for f in FLAGS {
            let left = format!("--{} {}", f.name, f.metavar);
            assert!(
                all.lines()
                    .any(|l| l.contains(left.trim_end()) && l.contains(f.help)),
                "--{} missing from --help",
                f.name
            );
            if !f.default.is_empty() {
                assert!(f.accepts(f.default), "--{} default", f.name);
            }
            for sub in f.subs {
                assert!(
                    SUBCOMMANDS.iter().any(|(n, _)| n == sub),
                    "--{} {sub}",
                    f.name
                );
            }
            let rows = FLAGS.iter().filter(|g| g.name == f.name);
            assert_eq!(rows.count(), 1, "--{} has two rows", f.name);
        }
        let train = help("train");
        assert!(train.contains("--iters N") && !train.contains("--listen ADDR"));
    }

    #[test]
    fn retired_flags_are_unknown_and_trace_alone_enables_tracing() {
        // Values that are constants at their use are not flags.
        #[rustfmt::skip]
        let retired = [
            ("train", "--trace-stream t.json"),
            ("infer", "--trace-stream t.json"),
            ("train", "--trace-limit 5"),
            ("infer", "--trace-limit 5"),
            ("train", "--keep 2"),
            ("train", "--guard-window 4"),
            ("train", "--guard-lr-drop 0.25"),
            ("train", "--max-rollbacks 1"),
            ("train", "--solver sgd"),
            ("train", "--lr 0.1"),
            ("train", "--guard-factor 0"),
            ("stats", "--watch 1"),
            // One front door: `infer` only serves, `load` drives it, and
            // every report is CSV.
            ("infer", "--requests 10"),
            ("infer", "--clients 2"),
            ("infer", "--deadline-us 50"),
            ("infer", "--csv s.csv"),
            ("load", "--json r.json"),
            ("stats", "--json"),
            ("stats", "--csv"),
            // A returning worker joins like a new one.
            ("train", "--rejoin"),
        ];
        for (sub, line) in retired {
            let flag = line.split_whitespace().next().unwrap();
            let e = parse(sub, &format!("spec {line}")).err().unwrap();
            assert_eq!(
                e,
                format!("unknown flag {flag} for `cgdnn {sub}` (see `cgdnn {sub} --help`)")
            );
        }
        // One trace sink: `--trace FILE` alone turns span collection on.
        for sub in ["train", "infer"] {
            let a = parse(sub, "spec --trace t.json").unwrap();
            assert!(a.has("trace"), "{sub}");
            assert_eq!(a.get("trace"), Some("t.json"), "{sub}");
        }
    }

    #[test]
    fn readme_help_block_is_the_rendered_table() {
        let readme = include_str!("../../../README.md");
        let start = readme
            .find("```text\nusage: cgdnn ")
            .expect("README has a `cgdnn --help` block")
            + "```text\n".len();
        let len = readme[start..].find("```").expect("the block is closed");
        assert_eq!(readme[start..start + len], help(""));
    }

    #[test]
    fn synthetic_sources_resolve() {
        assert!(make_source("synthetic-mnist").is_ok());
        assert!(make_source("synthetic-cifar").is_ok());
        assert!(make_source("bogus").is_err());
        assert!(make_source("idx:zzz").is_err(), "needs a comma");
        assert!(make_source("idx:/no/such,file").is_err());
        assert!(make_source("cifar-bin:/no/such").is_err());
    }
}

//! Shared option parsing for the `repro` subcommands.
//!
//! `run`, `cc-study`, `chaos` and the experiment runner each used to
//! hand-roll their own flag loop with diverging error messages. This
//! module collapses them into one parsed-options type ([`Opts`]) and one
//! driver ([`parse`]): a subcommand declares which flags it accepts, and
//! everything else — value parsing, `K/N` shard syntax, unknown-flag
//! rejection that names the subcommand — is shared.

use crate::context::Scale;
use std::path::PathBuf;

/// Every option any `repro` subcommand can take. A subcommand only
/// receives values for the flags it listed in its `allowed` set; the
/// rest stay at their defaults.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Opts {
    /// Scale preset (`--smoke` / `--full`, default Standard).
    pub scale: Scale,
    /// `--workers W`: explicit campaign worker count.
    pub workers: Option<usize>,
    /// `--seed N`: RNG seed (chaos harness).
    pub seed: Option<u64>,
    /// `--cases M`: randomized case count (chaos harness).
    pub cases: Option<u64>,
    /// `--spec FILE`: declarative campaign spec to load.
    pub spec: Option<PathBuf>,
    /// `--shards N`: shard count for multi-process execution.
    pub shards: Option<usize>,
    /// `--shard K/N`: run only slice `K` of an `N`-way partition.
    pub shard: Option<(usize, usize)>,
    /// `--out DIR`: output directory for campaign artifacts.
    pub out: Option<PathBuf>,
    /// `--cache-dir DIR`: shared disk-cache directory.
    pub cache_dir: Option<PathBuf>,
    /// `--csv DIR`: also export experiment tables as CSV.
    pub csv: Option<PathBuf>,
    /// Positional arguments (experiment ids), accepted only when the
    /// subcommand allows `"ID"`.
    pub ids: Vec<String>,
}

/// Parses `args` for subcommand `cmd`, accepting only the flags named in
/// `allowed` (plus `"ID"` to permit positional arguments).
///
/// # Errors
///
/// Returns a printable message naming the subcommand and the offending
/// flag or value.
pub fn parse(
    cmd: &str,
    args: impl IntoIterator<Item = String>,
    allowed: &[&str],
) -> Result<Opts, String> {
    let mut opts = Opts::default();
    let mut iter = args.into_iter();
    let allow = |flag: &str| allowed.contains(&flag);
    let reject = |flag: &str| {
        Err(format!(
            "unknown `{cmd}` option `{flag}` (accepted: {})",
            allowed.join(" ")
        ))
    };
    while let Some(arg) = iter.next() {
        let flag = arg.as_str();
        match flag {
            "--smoke" | "--full" if allow(flag) => {
                opts.scale = if flag == "--smoke" {
                    Scale::Smoke
                } else {
                    Scale::Full
                };
            }
            "--workers" | "--seed" | "--cases" | "--spec" | "--shards" | "--shard" | "--out"
            | "--cache-dir" | "--csv"
                if allow(flag) =>
            {
                let value = iter
                    .next()
                    .ok_or_else(|| format!("`{cmd}` option `{flag}` needs a value"))?;
                assign(&mut opts, cmd, flag, &value)?;
            }
            _ if flag.starts_with('-') => return reject(flag),
            _ if allow("ID") => opts.ids.push(arg),
            _ => return reject(flag),
        }
    }
    Ok(opts)
}

fn assign(opts: &mut Opts, cmd: &str, flag: &str, value: &str) -> Result<(), String> {
    let bad = |expected: &str| {
        Err(format!(
            "invalid value `{value}` for `{cmd}` option `{flag}` (expected {expected})"
        ))
    };
    match flag {
        "--workers" => match value.parse() {
            Ok(w) if w >= 1 => opts.workers = Some(w),
            _ => return bad("a positive integer"),
        },
        "--seed" => match value.parse() {
            Ok(s) => opts.seed = Some(s),
            Err(_) => return bad("an unsigned integer"),
        },
        "--cases" => match value.parse() {
            Ok(c) => opts.cases = Some(c),
            Err(_) => return bad("an unsigned integer"),
        },
        "--shards" => match value.parse() {
            Ok(n) if n >= 1 => opts.shards = Some(n),
            _ => return bad("a positive integer"),
        },
        "--shard" => {
            let parsed = value.split_once('/').and_then(|(k, n)| {
                let k: usize = k.parse().ok()?;
                let n: usize = n.parse().ok()?;
                (n >= 1 && k < n).then_some((k, n))
            });
            match parsed {
                Some(pair) => opts.shard = Some(pair),
                None => return bad("K/N with K < N"),
            }
        }
        "--spec" => opts.spec = Some(PathBuf::from(value)),
        "--out" => opts.out = Some(PathBuf::from(value)),
        "--cache-dir" => opts.cache_dir = Some(PathBuf::from(value)),
        "--csv" => opts.csv = Some(PathBuf::from(value)),
        other => unreachable!("unhandled valued flag {other}"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_the_full_run_surface() {
        let opts = parse(
            "run",
            strings(&[
                "--spec",
                "examples/specs/smoke.toml",
                "--shards",
                "4",
                "--workers",
                "2",
                "--out",
                "campaign-out",
                "--cache-dir",
                "campaign-out/cache",
            ]),
            &[
                "--spec",
                "--shards",
                "--shard",
                "--workers",
                "--out",
                "--cache-dir",
            ],
        )
        .unwrap();
        assert_eq!(
            opts.spec.as_deref().unwrap().to_str().unwrap(),
            "examples/specs/smoke.toml"
        );
        assert_eq!(opts.shards, Some(4));
        assert_eq!(opts.workers, Some(2));
        assert_eq!(opts.shard, None);
        assert_eq!(
            opts.out.as_deref().unwrap().to_str().unwrap(),
            "campaign-out"
        );
    }

    #[test]
    fn shard_syntax_is_k_slash_n() {
        let allowed: &[&str] = &["--shard"];
        let opts = parse("run", strings(&["--shard", "2/4"]), allowed).unwrap();
        assert_eq!(opts.shard, Some((2, 4)));
        for bad in ["4/4", "5/4", "2", "a/b", "1/0", "/"] {
            let err = parse("run", strings(&["--shard", bad]), allowed).unwrap_err();
            assert!(err.contains("K/N"), "{bad}: {err}");
        }
    }

    #[test]
    fn unknown_flags_name_the_subcommand() {
        let err = parse("chaos", strings(&["--csv", "x"]), &["--seed", "--cases"]).unwrap_err();
        assert!(err.contains("`chaos`"), "{err}");
        assert!(err.contains("--csv"), "{err}");
        assert!(err.contains("--seed"), "{err}");
    }

    #[test]
    fn positionals_need_explicit_permission() {
        let ok = parse("repro", strings(&["fig10", "--smoke"]), &["--smoke", "ID"]).unwrap();
        assert_eq!(ok.ids, vec!["fig10"]);
        assert_eq!(ok.scale, Scale::Smoke);
        let err = parse("cc-study", strings(&["fig10"]), &["--smoke"]).unwrap_err();
        assert!(err.contains("fig10"), "{err}");
    }

    #[test]
    fn missing_and_invalid_values_are_reported() {
        let err = parse("chaos", strings(&["--seed"]), &["--seed"]).unwrap_err();
        assert!(err.contains("needs a value"), "{err}");
        let err = parse("chaos", strings(&["--workers", "0"]), &["--workers"]).unwrap_err();
        assert!(err.contains("positive"), "{err}");
        let err = parse("chaos", strings(&["--seed", "x"]), &["--seed"]).unwrap_err();
        assert!(err.contains("--seed"), "{err}");
    }
}

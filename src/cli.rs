//! Shared argument-parsing helpers for the workspace CLIs (`campaign`,
//! `redteam`, `campaignd`, `campaignctl`).
//!
//! Every binary hand-rolls its flag loop (the workspace is offline — no
//! clap), but the pieces that must behave and *word their errors*
//! identically live here: pulling a flag's value off the iterator, parsing
//! counts, parsing `I/OF` shard designators, and reporting unknown flags.
//! The error strings are part of each CLI's tested surface — the binaries'
//! unit tests pin them — so changing a message here is a deliberate,
//! workspace-wide decision rather than per-binary drift.

/// The stderr line every non-quiet `campaign` and `campaignd` run prints:
/// the vector code this process dispatched to — the GF(2^8) / GF(2^16)
/// kernel backend, the Fp61 Horner form of the Theorem 1.3 tagger and the
/// ChaCha8 refill form — so a run's diagnostics say which code produced its
/// numbers (the numbers themselves are identical on every backend).
pub fn backends_line() -> String {
    format!(
        "vector backends: gf kernels {}, fp61 horner {}, chacha8 refill {}",
        coding::kernels::gf256_backend(),
        coding::kernels::fp61_horner_form(),
        rand_chacha::refill_backend()
    )
}

/// Pull the value of `flag` off the argument iterator
/// (`"{flag} needs a value"` if the command line ends first).
pub fn need_value(it: &mut dyn Iterator<Item = String>, flag: &str) -> Result<String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

/// Parse a flag's value as a count (`"{flag} needs a number"` on anything
/// that is not a `usize`).
pub fn parse_count(flag: &str, value: &str) -> Result<usize, String> {
    value.parse().map_err(|_| format!("{flag} needs a number"))
}

/// Parse a `--shard I/OF` designator: two slash-separated numbers with
/// `OF > 0` and `I < OF`.  Returns `(index, of)`.
pub fn parse_shard(value: &str) -> Result<(usize, usize), String> {
    let (i, of) = value
        .split_once('/')
        .ok_or_else(|| "--shard needs the form I/OF".to_string())?;
    let (i, of) = (
        i.parse::<usize>()
            .map_err(|_| "--shard index must be a number".to_string())?,
        of.parse::<usize>()
            .map_err(|_| "--shard count must be a number".to_string())?,
    );
    if of == 0 || i >= of {
        return Err(format!("shard {i}/{of} is out of range"));
    }
    Ok((i, of))
}

/// The unknown-flag error: names the offending flag in backticks.
pub fn unknown_flag(flag: &str) -> String {
    format!("unknown flag `{flag}`")
}

/// The execution flags the workspace binaries share — `--threads N`,
/// `--shard I/OF`, `--resume`, `--dry-run`, `--quiet` — parsed by **one**
/// code path so values, defaults and error wording can never drift between
/// binaries.
///
/// Each binary folds [`CommonArgs::try_flag`] (or
/// [`CommonArgs::try_flag_among`] for a narrower surface, e.g. `campaignd`
/// takes only `--threads`/`--quiet`) into its flag loop: a consumed common
/// flag returns `Ok(true)`, anything else falls through to the binary's own
/// flags and, ultimately, its [`unknown_flag`] arm.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CommonArgs {
    /// Worker threads (`0` = all cores; never changes results).
    pub threads: usize,
    /// `--shard I/OF` partition, if any.
    pub shard: Option<(usize, usize)>,
    /// Skip work already present in the output file.
    pub resume: bool,
    /// Validate and report without executing.
    pub dry_run: bool,
    /// Suppress stderr diagnostics.
    pub quiet: bool,
}

impl CommonArgs {
    /// Every common flag, for binaries that accept the full surface.
    pub const ALL: &'static [&'static str] =
        &["--threads", "--shard", "--resume", "--dry-run", "--quiet"];

    /// Consume `arg` if it is a common flag (pulling its value off `it` as
    /// needed): `Ok(true)` when consumed, `Ok(false)` when the flag is not
    /// ours and the caller should keep matching.
    pub fn try_flag(
        &mut self,
        arg: &str,
        it: &mut dyn Iterator<Item = String>,
    ) -> Result<bool, String> {
        self.try_flag_among(arg, it, Self::ALL)
    }

    /// [`CommonArgs::try_flag`] restricted to the flags in `allowed`: a
    /// common flag the binary does not take falls through as `Ok(false)` and
    /// lands in the caller's [`unknown_flag`] arm, exactly like any other
    /// stranger.
    pub fn try_flag_among(
        &mut self,
        arg: &str,
        it: &mut dyn Iterator<Item = String>,
        allowed: &[&str],
    ) -> Result<bool, String> {
        if !allowed.contains(&arg) {
            return Ok(false);
        }
        match arg {
            "--threads" => self.threads = parse_count("--threads", &need_value(it, "--threads")?)?,
            "--shard" => self.shard = Some(parse_shard(&need_value(it, "--shard")?)?),
            "--resume" => self.resume = true,
            "--dry-run" => self.dry_run = true,
            "--quiet" => self.quiet = true,
            other => return Err(unknown_flag(other)), // not a common flag at all
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(argv: &[&str]) -> std::vec::IntoIter<String> {
        argv.iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn need_value_pulls_the_next_argument_or_names_the_flag() {
        let mut it = args(&["value", "rest"]);
        assert_eq!(need_value(&mut it, "--spec").unwrap(), "value");
        assert_eq!(it.next().as_deref(), Some("rest"));
        let mut empty = args(&[]);
        assert_eq!(
            need_value(&mut empty, "--out").unwrap_err(),
            "--out needs a value"
        );
    }

    #[test]
    fn counts_parse_or_name_the_flag() {
        assert_eq!(parse_count("--threads", "4").unwrap(), 4);
        assert_eq!(
            parse_count("--threads", "four").unwrap_err(),
            "--threads needs a number"
        );
        assert_eq!(
            parse_count("--threads", "-1").unwrap_err(),
            "--threads needs a number"
        );
    }

    #[test]
    fn well_formed_shards_parse() {
        assert_eq!(parse_shard("0/1").unwrap(), (0, 1));
        assert_eq!(parse_shard("3/8").unwrap(), (3, 8));
    }

    #[test]
    fn malformed_shard_designators_are_rejected() {
        assert_eq!(parse_shard("4").unwrap_err(), "--shard needs the form I/OF");
        assert_eq!(
            parse_shard("x/2").unwrap_err(),
            "--shard index must be a number"
        );
        assert_eq!(
            parse_shard("1/y").unwrap_err(),
            "--shard count must be a number"
        );
    }

    #[test]
    fn zero_and_out_of_range_shards_are_rejected() {
        assert_eq!(parse_shard("0/0").unwrap_err(), "shard 0/0 is out of range");
        assert_eq!(parse_shard("4/4").unwrap_err(), "shard 4/4 is out of range");
        assert_eq!(parse_shard("9/2").unwrap_err(), "shard 9/2 is out of range");
    }

    #[test]
    fn the_backends_line_names_both_dispatched_forms() {
        let line = backends_line();
        assert!(
            line.contains(&format!("gf kernels {}", coding::kernels::gf256_backend())),
            "{line}"
        );
        assert!(
            line.contains(&format!(
                "fp61 horner {}",
                coding::kernels::fp61_horner_form()
            )),
            "{line}"
        );
        assert!(
            line.contains(&format!("chacha8 refill {}", rand_chacha::refill_backend())),
            "{line}"
        );
    }

    #[test]
    fn unknown_flags_are_named_in_backticks() {
        assert_eq!(unknown_flag("--frobnicate"), "unknown flag `--frobnicate`");
        assert_eq!(unknown_flag("-x"), "unknown flag `-x`");
    }

    #[test]
    fn common_args_consume_the_shared_flags() {
        let mut common = CommonArgs::default();
        let mut it = args(&["3"]);
        assert!(common.try_flag("--threads", &mut it).unwrap());
        let mut it = args(&["1/4"]);
        assert!(common.try_flag("--shard", &mut it).unwrap());
        let mut it = args(&[]);
        assert!(common.try_flag("--resume", &mut it).unwrap());
        assert!(common.try_flag("--dry-run", &mut it).unwrap());
        assert!(common.try_flag("--quiet", &mut it).unwrap());
        assert_eq!(
            common,
            CommonArgs {
                threads: 3,
                shard: Some((1, 4)),
                resume: true,
                dry_run: true,
                quiet: true,
            }
        );
    }

    #[test]
    fn common_args_pass_on_foreign_flags() {
        let mut common = CommonArgs::default();
        let mut it = args(&["value"]);
        assert!(!common.try_flag("--spec", &mut it).unwrap());
        assert_eq!(it.next().as_deref(), Some("value"), "value untouched");
        assert_eq!(common, CommonArgs::default());
    }

    #[test]
    fn common_args_report_their_own_value_errors() {
        let mut common = CommonArgs::default();
        let mut it = args(&["four"]);
        assert_eq!(
            common.try_flag("--threads", &mut it).unwrap_err(),
            "--threads needs a number"
        );
        let mut it = args(&[]);
        assert_eq!(
            common.try_flag("--shard", &mut it).unwrap_err(),
            "--shard needs a value"
        );
    }

    #[test]
    fn narrowed_surfaces_reject_the_other_common_flags() {
        // campaignd's surface: a --shard must fall through (and then hit the
        // binary's unknown-flag arm), never half-parse.
        let mut common = CommonArgs::default();
        let mut it = args(&["1/4"]);
        assert!(!common
            .try_flag_among("--shard", &mut it, &["--threads", "--quiet"])
            .unwrap());
        assert_eq!(it.next().as_deref(), Some("1/4"), "value untouched");
        let mut it = args(&["2"]);
        assert!(common
            .try_flag_among("--threads", &mut it, &["--threads", "--quiet"])
            .unwrap());
        assert_eq!(common.threads, 2);
    }
}

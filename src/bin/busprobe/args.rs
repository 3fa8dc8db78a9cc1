//! Flag parsing shared by every subcommand. Flags are `--name value`
//! pairs (or bare switches) anywhere after the subcommand.

use busprobe::sim::SimTime;
use std::fmt::Display;
use std::path::PathBuf;
use std::str::FromStr;

/// Refuses the first `--flag` in `args` that is not among `known` (the
/// flags of the command's usage line, space-separated): a misspelt
/// option must not run silently without what it asked for.
pub fn check_flags(args: &[String], known: &str) -> Result<(), String> {
    let unknown = |a: &&String| a.starts_with("--") && !known.split(' ').any(|k| k == *a);
    match args.iter().find(unknown) {
        Some(flag) => Err(format!("unknown flag `{flag}`; this command takes {known}")),
        None => Ok(()),
    }
}

/// Pulls `--flag value` out of an argument list.
pub fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.windows(2)
        .find(|w| w[0] == name)
        .map(|w| w[1].as_str())
}

pub fn flag_present(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Parses an optional `--flag value` into any `FromStr` type, keeping
/// the type's own diagnostic (fault specs explain what they expect).
pub fn parse_opt_flag<T>(args: &[String], name: &str) -> Result<Option<T>, String>
where
    T: FromStr,
    T::Err: Display,
{
    flag_value(args, name)
        .map(|v| v.parse().map_err(|e| format!("invalid {name} `{v}`: {e}")))
        .transpose()
}

/// [`parse_opt_flag`] with a default for an absent flag.
pub fn parse_flag<T>(args: &[String], name: &str, default: T) -> Result<T, String>
where
    T: FromStr,
    T::Err: Display,
{
    Ok(parse_opt_flag(args, name)?.unwrap_or(default))
}

/// A required `--flag PATH`.
pub fn path_flag(args: &[String], name: &str) -> Result<PathBuf, String> {
    flag_value(args, name)
        .map(PathBuf::from)
        .ok_or_else(|| format!("missing {name}"))
}

pub fn parse_hhmm(value: &str) -> Result<SimTime, String> {
    let (h, m) = value
        .split_once(':')
        .ok_or_else(|| format!("time `{value}` is not HH:MM"))?;
    let h: u32 = h.parse().map_err(|_| format!("bad hour in `{value}`"))?;
    let m: u32 = m.parse().map_err(|_| format!("bad minute in `{value}`"))?;
    if h > 23 || m > 59 {
        return Err(format!("time `{value}` out of range"));
    }
    Ok(SimTime::from_hms(h, m, 0))
}

/// The first non-flag argument, skipping `--flag value` pairs (every
/// flag of the commands that take a positional takes a value).
pub fn positional(args: &[String]) -> Option<&str> {
    let mut i = 0;
    while i < args.len() {
        if args[i].starts_with("--") {
            i += 2;
        } else {
            return Some(args[i].as_str());
        }
    }
    None
}

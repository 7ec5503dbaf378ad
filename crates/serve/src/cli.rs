//! The one strict flag parser of `st-serve`, `st-router` and `st-online`.
//!
//! A binary's flags are one `match` whose arms parse each value straight
//! into its config structs. [`parse`] walks the arguments through it, a
//! pure function each binary's tests call; [`or_exit`] answers for the process.
//! Every refusal reads `<flag>: <why>` and names the bad value.

use std::fmt::Display;
use std::io::Write;
use std::str::FromStr;

/// The rest of the argument list, seen from the flag being parsed.
pub struct Flags<'a> {
    flag: &'a str,
    rest: std::slice::Iter<'a, String>,
}

impl Flags<'_> {
    /// The flag's value, parsed as a `T`: refused when it is missing or
    /// does not parse.
    pub fn value<T: FromStr>(&mut self) -> Result<T, String>
    where
        T::Err: Display,
    {
        let flag = self.flag;
        let Some(raw) = self.rest.next() else {
            return Err(format!("{flag}: needs a value"));
        };
        raw.parse()
            .map_err(|e| format!("{flag}: cannot parse {raw:?}: {e}"))
    }
}

/// Walks `args` (the program name left out) flag by flag into `value`.
/// `arm` parses one flag's value into `value` and answers `Ok(false)` for
/// a flag it does not know, which is refused. `Ok(None)` after `-h` or
/// `--help`.
pub fn parse<T>(
    args: &[String],
    mut value: T,
    mut arm: impl FnMut(&mut T, &str, &mut Flags) -> Result<bool, String>,
) -> Result<Option<T>, String> {
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        if flag == "-h" || flag == "--help" {
            return Ok(None);
        }
        let mut flags = Flags { flag, rest };
        if !arm(&mut value, flag, &mut flags)? {
            return Err(format!("{flag}: unknown flag"));
        }
        rest = flags.rest;
    }
    Ok(Some(value))
}

/// The parsed value, or the process's answer: after `-h` / `--help` the
/// usage on stdout and exit code 0; on a refusal `error: <refusal>` and
/// the usage on stderr, and exit code 2. The exit code stands even when
/// the reader has closed the stream (`st-serve --help | head -1`).
pub fn or_exit<T>(usage: &str, parsed: Result<Option<T>, String>) -> T {
    let code = match parsed {
        Ok(Some(value)) => return value,
        Ok(None) => {
            let _ = write!(std::io::stdout(), "{usage}");
            0
        }
        Err(why) => {
            let _ = writeln!(std::io::stderr(), "error: {why}\n\n{usage}");
            2
        }
    };
    std::process::exit(code)
}

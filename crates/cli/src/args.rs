//! Tiny dependency-free argument parsing: `--flag value` pairs and bare
//! `--switch`es after a subcommand word.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// A parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}
impl Error for ArgError {}

/// A parsed command line: the subcommand plus its options.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Parsed {
    /// The subcommand word (`generate`, `solve`, ...).
    pub command: String,
    options: BTreeMap<String, String>,
    switches: Vec<String>,
}

/// Flags that take no value.
const SWITCHES: &[&str] = &["--require-service", "--shared", "--least-work", "--hierarchical"];

impl Parsed {
    /// Parses an iterator of argument words (without the binary name).
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] when no subcommand is present, a flag is
    /// malformed, or a value-flag misses its value.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, ArgError> {
        let mut it = args.into_iter();
        let command = it
            .next()
            .ok_or_else(|| ArgError("missing subcommand; try `cloudalloc help`".into()))?;
        let mut parsed = Parsed { command, ..Default::default() };
        while let Some(word) = it.next() {
            if !word.starts_with("--") {
                return Err(ArgError(format!("expected a --flag, got {word:?}")));
            }
            if SWITCHES.contains(&word.as_str()) {
                parsed.switches.push(word);
            } else {
                let value =
                    it.next().ok_or_else(|| ArgError(format!("flag {word} requires a value")))?;
                parsed.options.insert(word, value);
            }
        }
        Ok(parsed)
    }

    /// Returns a string option.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.options.get(flag).map(String::as_str)
    }

    /// Returns a required string option.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] when absent.
    pub fn require(&self, flag: &str) -> Result<&str, ArgError> {
        self.get(flag).ok_or_else(|| ArgError(format!("{} requires {flag} <value>", self.command)))
    }

    /// Returns a numeric option with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] on unparsable values.
    pub fn num<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, ArgError> {
        match self.get(flag) {
            None => Ok(default),
            Some(raw) => {
                raw.parse().map_err(|_| ArgError(format!("{flag} got an invalid value {raw:?}")))
            }
        }
    }

    /// True when the bare switch was passed.
    pub fn switch(&self, flag: &str) -> bool {
        self.switches.iter().any(|s| s == flag)
    }

    /// Rejects the first flag or switch outside `accepted`, naming it
    /// and the command, so a misspelt `--seeed 5` cannot run silently
    /// with the default seed.
    pub(crate) fn check_flags(&self, accepted: &[&str]) -> Result<(), ArgError> {
        match self.options.keys().chain(&self.switches).find(|f| !accepted.contains(&f.as_str())) {
            None => Ok(()),
            Some(flag) => Err(ArgError(format!(
                "{} does not take {flag}; try `cloudalloc help`",
                self.command
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Parsed, ArgError> {
        Parsed::parse(words.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_command_options_and_switches() {
        let p =
            parse(&["solve", "--system", "s.json", "--seed", "7", "--require-service"]).unwrap();
        assert_eq!(p.command, "solve");
        assert_eq!(p.get("--system"), Some("s.json"));
        assert_eq!(p.num("--seed", 0u64).unwrap(), 7);
        assert!(p.switch("--require-service"));
        assert!(!p.switch("--shared"));
    }

    #[test]
    fn defaults_apply_when_flags_are_absent() {
        let p = parse(&["generate"]).unwrap();
        assert_eq!(p.num("--clients", 40usize).unwrap(), 40);
        assert_eq!(p.get("--out"), None);
    }

    #[test]
    fn missing_subcommand_is_an_error() {
        assert!(parse(&[]).is_err());
    }

    #[test]
    fn dangling_flag_is_an_error() {
        let err = parse(&["solve", "--seed"]).unwrap_err();
        assert!(err.to_string().contains("requires a value"));
    }

    #[test]
    fn positional_words_are_rejected() {
        assert!(parse(&["solve", "oops"]).is_err());
    }

    #[test]
    fn require_reports_the_command() {
        let p = parse(&["evaluate"]).unwrap();
        let err = p.require("--system").unwrap_err();
        assert!(err.to_string().contains("evaluate requires --system"));
    }

    #[test]
    fn invalid_numbers_are_reported() {
        let p = parse(&["solve", "--seed", "x"]).unwrap();
        assert!(p.num("--seed", 0u64).is_err());
    }
}

//! Minimal dependency-free argument parsing.
//!
//! Grammar: `s2m3 <command> [--flag value]... [--switch]...`. Flags take
//! exactly one value unless listed as boolean switches by the caller.

use std::collections::BTreeMap;

/// Parsed command line.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Args {
    /// The subcommand (first positional).
    pub command: String,
    /// `--flag value` pairs.
    pub flags: BTreeMap<String, String>,
    /// Bare `--switch` occurrences.
    pub switches: Vec<String>,
}

/// Parse errors with enough context for a usage message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// No subcommand given.
    MissingCommand,
    /// A `--flag` that expected a value hit the end of input or another
    /// flag.
    MissingValue(String),
    /// A positional argument appeared after the subcommand.
    UnexpectedPositional(String),
    /// A numeric flag's value does not parse.
    BadValue {
        /// The flag, without dashes.
        flag: String,
        /// What was given.
        value: String,
    },
    /// A rate flag's value parses but is NaN, infinite, zero or negative.
    BadRate {
        /// The flag, without dashes.
        flag: String,
        /// What was given.
        value: String,
    },
    /// A `--flag` or `--switch` the subcommand does not read.
    UnknownFlag {
        /// The flag, without dashes.
        flag: String,
        /// The command's closest known flag, when one is near enough
        /// to be a plausible typo.
        suggestion: Option<String>,
    },
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingCommand => write!(f, "missing subcommand"),
            ArgError::MissingValue(flag) => write!(f, "flag --{flag} expects a value"),
            ArgError::UnexpectedPositional(p) => write!(f, "unexpected argument '{p}'"),
            ArgError::BadValue { flag, value } => {
                write!(f, "flag --{flag}: '{value}' is not a valid number")
            }
            ArgError::BadRate { flag, value } => {
                write!(f, "flag --{flag}: '{value}' is not a finite rate above 0")
            }
            ArgError::UnknownFlag { flag, suggestion } => {
                write!(f, "unknown flag --{flag}")?;
                match suggestion {
                    Some(s) => write!(f, " (did you mean --{s}?)"),
                    None => Ok(()),
                }
            }
        }
    }
}

impl std::error::Error for ArgError {}

/// Commands report errors as messages.
impl From<ArgError> for String {
    fn from(e: ArgError) -> Self {
        e.to_string()
    }
}

/// Parses `argv` (without the program name). `switches` names the
/// boolean flags that take no value.
pub(crate) fn parse(argv: &[String], switches: &[&str]) -> Result<Args, ArgError> {
    let mut it = argv.iter().peekable();
    let command = it.next().ok_or(ArgError::MissingCommand)?.clone();
    let mut args = Args {
        command,
        ..Default::default()
    };
    while let Some(tok) = it.next() {
        if let Some(name) = tok.strip_prefix("--") {
            if switches.contains(&name) {
                args.switches.push(name.to_string());
            } else {
                let value = it
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| ArgError::MissingValue(name.to_string()))?;
                args.flags.insert(name.to_string(), value.clone());
            }
        } else {
            return Err(ArgError::UnexpectedPositional(tok.clone()));
        }
    }
    Ok(args)
}

impl Args {
    /// A string flag with a default.
    pub(crate) fn get_or<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
        self.flags.get(name).map(String::as_str).unwrap_or(default)
    }

    /// A parsed numeric flag, if given.
    ///
    /// # Errors
    ///
    /// [`ArgError::BadValue`] when the value does not parse.
    pub(crate) fn get_opt_num<T: std::str::FromStr>(
        &self,
        name: &str,
    ) -> Result<Option<T>, ArgError> {
        self.flags
            .get(name)
            .map(|v| {
                v.parse().map_err(|_| ArgError::BadValue {
                    flag: name.to_string(),
                    value: v.clone(),
                })
            })
            .transpose()
    }

    /// A parsed numeric flag with a default for when it is absent.
    ///
    /// # Errors
    ///
    /// [`ArgError::BadValue`] when the value does not parse.
    pub(crate) fn get_num<T: std::str::FromStr>(
        &self,
        name: &str,
        default: T,
    ) -> Result<T, ArgError> {
        Ok(self.get_opt_num(name)?.unwrap_or(default))
    }

    /// A parsed arrival-rate flag, if given: finite and above zero (a
    /// Poisson process has no other rates).
    ///
    /// # Errors
    ///
    /// [`ArgError::BadValue`] when the value does not parse,
    /// [`ArgError::BadRate`] when it is NaN, infinite, zero or negative.
    pub(crate) fn get_opt_rate(&self, name: &str) -> Result<Option<f64>, ArgError> {
        match self.get_opt_num::<f64>(name)? {
            Some(r) if !(r.is_finite() && r > 0.0) => Err(ArgError::BadRate {
                flag: name.to_string(),
                value: self.flags[name].clone(),
            }),
            rate => Ok(rate),
        }
    }

    /// Whether a boolean switch was given.
    pub(crate) fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    /// Checks every given flag and switch against `known`, the names
    /// the subcommand reads.
    ///
    /// # Errors
    ///
    /// [`ArgError::UnknownFlag`] for the first name not in `known`,
    /// suggesting the known name within a third of its length in edits
    /// (at least one) when there is one.
    pub(crate) fn reject_unknown(&self, known: &[&str]) -> Result<(), ArgError> {
        let mut given = self.flags.keys().chain(&self.switches);
        let Some(flag) = given.find(|f| !known.contains(&f.as_str())) else {
            return Ok(());
        };
        let suggestion = known
            .iter()
            .map(|k| (edit_distance(flag, k), *k))
            .min()
            .filter(|&(d, k)| d <= (k.len() / 3).max(1))
            .map(|(_, k)| k.to_string());
        Err(ArgError::UnknownFlag {
            flag: flag.clone(),
            suggestion,
        })
    }
}

/// Levenshtein distance between two flag names (bytes; flags are ASCII).
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut diag = row[0];
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let substitute = diag + usize::from(ca != cb);
            diag = row[j + 1];
            row[j + 1] = substitute.min(diag + 1).min(row[j] + 1);
        }
    }
    row[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_flags_and_switches() {
        let a = parse(
            &v(&[
                "plan",
                "--model",
                "CLIP ViT-B/16",
                "--candidates",
                "101",
                "--upper",
            ]),
            &["upper"],
        )
        .unwrap();
        assert_eq!(a.command, "plan");
        assert_eq!(a.get_or("model", ""), "CLIP ViT-B/16");
        assert_eq!(a.get_num("candidates", 0usize), Ok(101));
        assert!(a.has("upper"));
        assert!(!a.has("replicate"));
    }

    #[test]
    fn defaults_apply() {
        let a = parse(&v(&["zoo"]), &[]).unwrap();
        assert_eq!(a.get_or("fleet", "edge"), "edge");
        assert_eq!(a.get_num("samples", 300usize), Ok(300));
        assert_eq!(a.get_opt_num::<usize>("batch"), Ok(None));
    }

    #[test]
    fn unparsable_number_is_an_error_naming_flag_and_value() {
        let a = parse(
            &v(&["simulate", "--requests", "10k", "--rate", "fast"]),
            &[],
        )
        .unwrap();
        let err = a.get_num("requests", 20usize).unwrap_err();
        assert_eq!(
            err,
            ArgError::BadValue {
                flag: "requests".into(),
                value: "10k".into()
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("--requests") && msg.contains("10k"), "{msg}");
        assert!(a.get_num("rate", 0.5f64).is_err());
        assert!(a.get_opt_num::<usize>("requests").is_err());
        // A negative count is unparsable for an unsigned flag too.
        let a = parse(&v(&["simulate", "--requests", "-3"]), &[]).unwrap();
        assert!(a.get_num("requests", 20usize).is_err());
    }

    #[test]
    fn unknown_flags_are_rejected_with_a_suggestion() {
        let known = ["requests", "rate", "json", "budget-cap"];
        let a = parse(&v(&["serve", "--requests", "5", "--json"]), &["json"]).unwrap();
        assert_eq!(a.reject_unknown(&known), Ok(()));

        let a = parse(&v(&["serve", "--request", "5"]), &["json"]).unwrap();
        let err = a.reject_unknown(&known).unwrap_err();
        assert_eq!(
            err,
            ArgError::UnknownFlag {
                flag: "request".into(),
                suggestion: Some("requests".into())
            }
        );
        assert_eq!(
            err.to_string(),
            "unknown flag --request (did you mean --requests?)"
        );

        // A switch the command does not read is unknown too; nothing
        // near it means no suggestion.
        let a = parse(&v(&["serve", "--upper"]), &["upper"]).unwrap();
        assert_eq!(
            a.reject_unknown(&known),
            Err(ArgError::UnknownFlag {
                flag: "upper".into(),
                suggestion: None
            })
        );
        assert_eq!(edit_distance("budget-cap", "budgetcap"), 1);
        assert_eq!(edit_distance("", "rate"), 4);
        assert_eq!(edit_distance("rate", "rate"), 0);
    }

    #[test]
    fn errors_are_typed() {
        assert_eq!(parse(&v(&[]), &[]), Err(ArgError::MissingCommand));
        assert_eq!(
            parse(&v(&["plan", "--model"]), &[]),
            Err(ArgError::MissingValue("model".into()))
        );
        assert_eq!(
            parse(&v(&["plan", "oops"]), &[]),
            Err(ArgError::UnexpectedPositional("oops".into()))
        );
        // A flag followed by another flag is also a missing value.
        assert_eq!(
            parse(&v(&["plan", "--model", "--upper"]), &["upper"]),
            Err(ArgError::MissingValue("model".into()))
        );
    }
}

//! Minimal flag parsing: `--key value` pairs with typed accessors. No
//! third-party parser — the option surface is tiny and the error messages
//! matter more than features. Each subcommand declares the flags it
//! accepts, so a mistyped flag is an error, never silently ignored.

use std::collections::BTreeMap;

/// Parsed `--key value` options.
#[derive(Debug, Default)]
pub struct Opts {
    map: BTreeMap<String, String>,
}

impl Opts {
    /// Parses alternating `--key value` tokens, accepting only the flags
    /// named in `allowed`. An unknown flag fails before any value is
    /// used, naming the flag and every valid one.
    pub fn parse(tokens: &[String], allowed: &[&str]) -> Result<Opts, String> {
        let mut map = BTreeMap::new();
        let mut it = tokens.iter();
        while let Some(tok) = it.next() {
            let key = tok
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got '{tok}'"))?;
            if !allowed.contains(&key) {
                let valid: Vec<String> = allowed.iter().map(|f| format!("--{f}")).collect();
                return Err(format!(
                    "unknown flag --{key}; valid flags: {}",
                    if valid.is_empty() {
                        "none".to_string()
                    } else {
                        valid.join(", ")
                    }
                ));
            }
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            map.insert(key.to_string(), value.clone());
        }
        Ok(Opts { map })
    }

    /// String option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.map.get(key).map(String::as_str)
    }

    /// u64 option with default.
    pub fn u64_or(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.map.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: '{v}' is not an integer")),
        }
    }

    /// f64 option with default.
    pub fn f64_or(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.map.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: '{v}' is not a number")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    const FLAGS: &[&str] = &["seed", "native", "hours"];

    #[test]
    fn parses_pairs() {
        let o = Opts::parse(&toks(&["--seed", "7", "--native", "0.5"]), FLAGS).unwrap();
        assert_eq!(o.u64_or("seed", 0).unwrap(), 7);
        assert_eq!(o.f64_or("native", 0.0).unwrap(), 0.5);
        assert_eq!(o.u64_or("hours", 12).unwrap(), 12);
        assert_eq!(o.get("missing"), None);
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(Opts::parse(&toks(&["seed", "7"]), FLAGS).is_err());
        assert!(Opts::parse(&toks(&["--seed"]), FLAGS).is_err());
        let o = Opts::parse(&toks(&["--seed", "x"]), FLAGS).unwrap();
        assert!(o.u64_or("seed", 0).is_err());
    }

    #[test]
    fn rejects_unknown_flags_naming_the_valid_ones() {
        let err = Opts::parse(&toks(&["--seed", "7", "--shard", "4"]), FLAGS).unwrap_err();
        assert_eq!(
            err,
            "unknown flag --shard; valid flags: --seed, --native, --hours"
        );
        let err = Opts::parse(&toks(&["--seed", "7"]), &[]).unwrap_err();
        assert_eq!(err, "unknown flag --seed; valid flags: none");
    }
}

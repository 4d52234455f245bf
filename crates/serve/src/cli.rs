//! The one std-only `--key value` flag parser behind the `hdx-serve`
//! and `hdx-workload` binaries.

/// Parsed flags of one subcommand: `--key value` pairs, plus
/// value-free switches recorded as `"true"`. Repeatable keys keep
/// every occurrence in order.
pub struct Flags {
    pairs: Vec<(String, String)>,
}

impl Flags {
    /// Parses `args` (everything after the subcommand). Keys listed in
    /// `switches` take no value.
    ///
    /// # Errors
    ///
    /// A bare word where a `--flag` belongs, or a valued flag at the
    /// end of `args`.
    pub fn parse(args: &[String], switches: &[&str]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let key = key
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got \"{key}\""))?;
            if switches.contains(&key) {
                pairs.push((key.to_owned(), "true".to_owned()));
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| format!("--{key} requires a value"))?;
            pairs.push((key.to_owned(), value.clone()));
        }
        Ok(Flags { pairs })
    }

    /// The first value given for `key`.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Every value given under any of `keys` (aliases), in order.
    pub fn get_all(&self, keys: &[&str]) -> Vec<&str> {
        self.pairs
            .iter()
            .filter(|(k, _)| keys.contains(&k.as_str()))
            .map(|(_, v)| v.as_str())
            .collect()
    }

    /// Whether a switch was given.
    pub fn is_set(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// The value of a mandatory flag.
    ///
    /// # Errors
    ///
    /// `--key is required` when absent.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("--{key} is required"))
    }

    /// Parses `key`'s value, or returns `default` when absent.
    ///
    /// # Errors
    ///
    /// The value does not parse as `T`.
    pub fn parse_num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self.parse_opt(key)?.unwrap_or(default))
    }

    /// Parses `key`'s value, or `None` when absent.
    ///
    /// # Errors
    ///
    /// The value does not parse as `T`.
    pub fn parse_opt<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.get(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("invalid value \"{v}\" for --{key}"))
            })
            .transpose()
    }

    /// Rejects any flag not in `known`.
    ///
    /// # Errors
    ///
    /// `unknown flag --key` for the first stray flag.
    pub fn reject_unknown(&self, known: &[&str]) -> Result<(), String> {
        match self
            .pairs
            .iter()
            .find(|(k, _)| !known.contains(&k.as_str()))
        {
            Some((k, _)) => Err(format!("unknown flag --{k}")),
            None => Ok(()),
        }
    }
}

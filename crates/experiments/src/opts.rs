//! Minimal `--key=value` command-line options.

use std::collections::BTreeMap;

/// Parsed `--key=value` / `--key value` arguments with typed accessors.
///
/// Unknown keys are rejected at access-check time via [`Opts::finish`], so
/// a typo'd flag fails loudly instead of silently running the default
/// experiment.
#[derive(Debug, Default)]
pub struct Opts {
    values: BTreeMap<String, String>,
    touched: std::cell::RefCell<Vec<String>>,
}

impl Opts {
    /// Parse from an iterator of arguments (excluding the program name).
    ///
    /// Both `--key=value` and the two-token `--key value` spelling are
    /// accepted; a trailing `--key` with no value (or followed by another
    /// option) is read as the boolean `--key=true`.
    ///
    /// # Panics
    /// Panics on malformed arguments: anything not starting with `--`, or
    /// a key given twice.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut values = BTreeMap::new();
        let mut it = args.into_iter().peekable();
        while let Some(a) = it.next() {
            let rest = a
                .strip_prefix("--")
                .unwrap_or_else(|| panic!("expected --key=value, got {a:?}"));
            let (k, v) = match rest.split_once('=') {
                Some((k, v)) => (k.to_string(), v.to_string()),
                None => {
                    let takes_next = it.peek().is_some_and(|n| !n.starts_with("--"));
                    let v = if takes_next {
                        it.next().unwrap()
                    } else {
                        "true".to_string()
                    };
                    (rest.to_string(), v)
                }
            };
            assert!(
                !values.contains_key(&k),
                "option --{k} given more than once"
            );
            values.insert(k, v);
        }
        Opts {
            values,
            touched: std::cell::RefCell::new(Vec::new()),
        }
    }

    /// Parse from the process arguments.
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    fn raw(&self, key: &str) -> Option<&str> {
        self.touched.borrow_mut().push(key.to_string());
        self.values.get(key).map(String::as_str)
    }

    /// A `u64` option with default.
    pub fn u64(&self, key: &str, default: u64) -> u64 {
        self.raw(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{key} must be an integer, got {v:?}"))
            })
            .unwrap_or(default)
    }

    /// An `f64` option with default.
    pub fn f64(&self, key: &str, default: f64) -> f64 {
        self.raw(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{key} must be a number, got {v:?}"))
            })
            .unwrap_or(default)
    }

    /// A boolean option (`true`/`false`) with default.
    pub fn bool(&self, key: &str, default: bool) -> bool {
        self.raw(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{key} must be true/false, got {v:?}"))
            })
            .unwrap_or(default)
    }

    /// A string option with default.
    pub fn string(&self, key: &str, default: &str) -> String {
        self.raw(key).unwrap_or(default).to_string()
    }

    /// Panic if any supplied key was never consulted (catches typos).
    pub fn finish(&self) {
        let touched = self.touched.borrow();
        for k in self.values.keys() {
            assert!(
                touched.iter().any(|t| t == k),
                "unknown option --{k} (known: {:?})",
                touched
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> Opts {
        Opts::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn typed_accessors() {
        let o = opts(&["--runs=7", "--eps=1e-9", "--full=true", "--out=x.csv"]);
        assert_eq!(o.u64("runs", 1), 7);
        assert_eq!(o.f64("eps", 0.0), 1e-9);
        assert!(o.bool("full", false));
        assert_eq!(o.string("out", "y"), "x.csv");
        o.finish();
    }

    #[test]
    fn defaults_apply() {
        let o = opts(&[]);
        assert_eq!(o.u64("runs", 3), 3);
        assert!(!o.bool("full", false));
        o.finish();
    }

    #[test]
    #[should_panic(expected = "unknown option")]
    fn unknown_key_caught() {
        let o = opts(&["--tyop=1"]);
        let _ = o.u64("runs", 1);
        o.finish();
    }

    #[test]
    #[should_panic(expected = "expected --key=value")]
    fn malformed_rejected() {
        let _ = opts(&["runs=3"]);
    }

    #[test]
    #[should_panic(expected = "option --seed given more than once")]
    fn repeated_key_rejected() {
        let _ = opts(&["--seed", "1", "--seed=2"]);
    }

    #[test]
    fn space_separated_values() {
        let o = opts(&["--mode", "sanity", "--runs", "7", "--x", "-5"]);
        assert_eq!(o.string("mode", "stress"), "sanity");
        assert_eq!(o.u64("runs", 1), 7);
        assert_eq!(o.string("x", "0"), "-5");
        o.finish();
    }

    #[test]
    fn bare_flag_is_boolean_true() {
        let o = opts(&["--full", "--mode", "stress"]);
        assert!(o.bool("full", false));
        assert_eq!(o.string("mode", "sanity"), "stress");
        o.finish();
    }

    #[test]
    #[should_panic(expected = "must be an integer")]
    fn bad_int_rejected() {
        let o = opts(&["--runs=abc"]);
        let _ = o.u64("runs", 1);
    }
}

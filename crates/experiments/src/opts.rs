//! Minimal `--key=value` command-line options with typed errors.

use std::cell::RefCell;
use std::collections::btree_map::{BTreeMap, Entry};
use std::ffi::OsString;
use std::fmt;

/// A bad command line. Its `Display` is the one line a binary prints
/// before it exits with status 2 (see [`ConfigError::exit`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// An argument that is not `--key`, `--key=value` or `--key value`,
    /// or is not UTF-8 (shown lossily).
    Malformed(String),
    /// A key given more than once.
    Repeated(String),
    /// `--key`'s value does not parse as what its accessor reads
    /// (`expected`: "an integer", "true/false", …).
    BadValue {
        key: String,
        value: String,
        expected: &'static str,
    },
    /// A key no accessor consulted (a typo), and the keys that were.
    Unknown { key: String, known: Vec<String> },
    /// `--key`'s value parses but is out of range or not one of the
    /// choices; `reason` completes the sentence "`--key` …".
    Invalid { key: String, reason: String },
}

impl ConfigError {
    /// An [`Invalid`](ConfigError::Invalid) error for `--key`.
    pub fn invalid(key: &str, reason: impl Into<String>) -> Self {
        ConfigError::Invalid {
            key: key.to_string(),
            reason: reason.into(),
        }
    }

    /// Print `<bin>: <error>` to stderr and exit with status 2.
    pub fn exit(&self, bin: &str) -> ! {
        eprintln!("{bin}: {self}");
        std::process::exit(2)
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Malformed(arg) => write!(f, "expected --key=value, got {arg:?}"),
            ConfigError::Repeated(key) => write!(f, "option --{key} given more than once"),
            ConfigError::BadValue {
                key,
                value,
                expected,
            } => write!(f, "--{key} must be {expected}, got {value:?}"),
            ConfigError::Unknown { key, known } => {
                let known: Vec<String> = known.iter().map(|k| format!("--{k}")).collect();
                write!(f, "unknown option --{key} (known: {})", known.join(", "))
            }
            ConfigError::Invalid { key, reason } => write!(f, "--{key} {reason}"),
        }
    }
}

/// Parsed `--key=value` / `--key value` arguments with typed accessors.
///
/// Nothing here panics. [`Opts::parse`] and the accessors record the
/// first error and carry on with defaults; [`Opts::finish`] returns it,
/// or reports a key no accessor consulted, so a typo'd flag fails loudly
/// instead of silently running the default experiment.
#[derive(Debug, Default)]
pub struct Opts {
    values: BTreeMap<String, String>,
    touched: RefCell<Vec<String>>,
    error: RefCell<Option<ConfigError>>,
}

impl Opts {
    /// Parse from an iterator of arguments (excluding the program name).
    ///
    /// Both `--key=value` and the two-token `--key value` spelling are
    /// accepted; a trailing `--key` with no value (or followed by another
    /// option) is read as the boolean `--key=true`. The first argument
    /// that is not UTF-8 or does not start with `--`, or the first key
    /// given twice, is recorded for [`Opts::finish`]; a non-UTF-8
    /// argument is then read lossily.
    pub fn parse<I: IntoIterator<Item = impl Into<OsString>>>(args: I) -> Self {
        let opts = Opts::default();
        let mut values = BTreeMap::new();
        let mut it = args
            .into_iter()
            .map(|a| {
                a.into().into_string().unwrap_or_else(|raw| {
                    let lossy = raw.to_string_lossy().into_owned();
                    opts.record(ConfigError::Malformed(lossy.clone()));
                    lossy
                })
            })
            .peekable();
        while let Some(a) = it.next() {
            let Some(rest) = a.strip_prefix("--") else {
                opts.record(ConfigError::Malformed(a));
                continue;
            };
            let (k, v) = match rest.split_once('=') {
                Some((k, v)) => (k.to_string(), v.to_string()),
                None => {
                    let v = it.next_if(|n| !n.starts_with("--"));
                    (rest.to_string(), v.unwrap_or_else(|| "true".to_string()))
                }
            };
            match values.entry(k) {
                Entry::Occupied(e) => opts.record(ConfigError::Repeated(e.key().clone())),
                Entry::Vacant(e) => {
                    e.insert(v);
                }
            }
        }
        Opts { values, ..opts }
    }

    /// Parse from the process arguments.
    pub fn from_env() -> Self {
        Self::parse(std::env::args_os().skip(1))
    }

    fn record(&self, e: ConfigError) {
        self.error.borrow_mut().get_or_insert(e);
    }

    fn raw(&self, key: &str) -> Option<&str> {
        self.touched.borrow_mut().push(key.to_string());
        self.values.get(key).map(String::as_str)
    }

    fn typed<T: std::str::FromStr>(&self, key: &str, default: T, expected: &'static str) -> T {
        match self.raw(key).map(|v| (v, v.parse())) {
            None => default,
            Some((_, Ok(x))) => x,
            Some((v, Err(_))) => {
                self.record(ConfigError::BadValue {
                    key: key.to_string(),
                    value: v.to_string(),
                    expected,
                });
                default
            }
        }
    }

    /// A `u64` option with default.
    pub fn u64(&self, key: &str, default: u64) -> u64 {
        self.typed(key, default, "an integer")
    }

    /// A boolean option (`true`/`false`) with default.
    pub fn bool(&self, key: &str, default: bool) -> bool {
        self.typed(key, default, "true/false")
    }

    /// A string option with default.
    pub fn string(&self, key: &str, default: &str) -> String {
        self.raw(key).unwrap_or(default).to_string()
    }

    /// The first error parsing or reading recorded, else the first key
    /// that no accessor consulted.
    pub fn finish(&self) -> Result<(), ConfigError> {
        if let Some(e) = self.error.borrow().clone() {
            return Err(e);
        }
        let touched = self.touched.borrow();
        match self.values.keys().find(|k| !touched.contains(k)) {
            Some(key) => Err(ConfigError::Unknown {
                key: key.clone(),
                known: touched.clone(),
            }),
            None => Ok(()),
        }
    }
}

// Non-UTF-8 arguments are built from raw bytes, which only Unix's
// `OsString` takes.
#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::os::unix::ffi::OsStringExt;

    /// Parse space-separated arguments given as bytes, so that a test can
    /// hold a non-UTF-8 one.
    fn opts(args: &[u8]) -> Opts {
        let argv = args.split(|&b| b == b' ').filter(|a| !a.is_empty());
        Opts::parse(argv.map(|a| OsString::from_vec(a.to_vec())))
    }

    #[test]
    fn typed_accessors() {
        let o = opts(b"--runs=7 --full=true --out=x.csv");
        assert_eq!(o.u64("runs", 1), 7);
        assert!(o.bool("full", false));
        assert_eq!(o.string("out", "y"), "x.csv");
        assert_eq!(o.finish(), Ok(()));
    }

    #[test]
    fn defaults_apply() {
        let o = opts(b"");
        assert_eq!(o.u64("runs", 3), 3);
        assert!(!o.bool("full", false));
        assert_eq!(o.finish(), Ok(()));
    }

    #[test]
    fn space_separated_values() {
        let o = opts(b"--mode sanity --runs 7 --x -5");
        assert_eq!(o.string("mode", "stress"), "sanity");
        assert_eq!(o.u64("runs", 1), 7);
        assert_eq!(o.string("x", "0"), "-5");
        assert_eq!(o.finish(), Ok(()));
    }

    #[test]
    fn bare_flag_is_boolean_true() {
        let o = opts(b"--full --mode stress");
        assert!(o.bool("full", false));
        assert_eq!(o.string("mode", "sanity"), "stress");
        assert_eq!(o.finish(), Ok(()));
    }

    /// One row per bad command line: the error `finish` returns after a
    /// binary reads `--runs`, `--full` and `--threads`, each of which
    /// reads as its default.
    #[test]
    fn each_bad_command_line_is_one_typed_error() {
        let cases: [(&[u8], &str); 8] = [
            (b"runs=3", "expected --key=value, got \"runs=3\""),
            (b"--runs=1 --runs 2", "option --runs given more than once"),
            (b"--runs=abc", "--runs must be an integer, got \"abc\""),
            (b"--full=maybe", "--full must be true/false, got \"maybe\""),
            (b"--threads", "--threads must be an integer, got \"true\""),
            (
                b"--thread=2",
                "unknown option --thread (known: --runs, --full, --threads)",
            ),
            (b"--runs=x --full=y", "--runs must be an integer, got \"x\""),
            (b"--full \xff", "expected --key=value, got \"\u{fffd}\""),
        ];
        for (args, want) in cases {
            let shown = String::from_utf8_lossy(args);
            let o = opts(args);
            let read = (o.u64("runs", 1), o.bool("full", false), o.u64("threads", 1));
            assert_eq!(read, (1, false, 1), "{shown}");
            assert_eq!(
                o.finish().map_err(|e| e.to_string()),
                Err(want.into()),
                "{shown}"
            );
        }
    }

    /// What generated arguments are spelled from: option syntax, a few
    /// keys and values, a byte that is never UTF-8 and the lead byte of a
    /// truncated two-byte sequence.
    const PIECES: [&[u8]; 9] = [
        b"--", b"-", b"=", b"a", b"b", b"1", b"true", b"\xff", b"\xc3",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// No argument vector makes `Opts` panic: not `parse`, not an
        /// accessor, not `finish`. With no accessor consulted, `finish`
        /// accepts exactly the empty command line.
        #[test]
        fn no_argv_panics(
            tokens in proptest::collection::vec(
                proptest::collection::vec(0..PIECES.len(), 0..4),
                0..5,
            ),
        ) {
            let argv: Vec<OsString> = tokens
                .iter()
                .map(|t| OsString::from_vec(t.iter().flat_map(|&i| PIECES[i]).copied().collect()))
                .collect();
            let o = Opts::parse(argv.clone());
            prop_assert_eq!(o.finish().is_ok(), argv.is_empty());
            let o = Opts::parse(argv);
            let _ = (o.u64("a", 0), o.bool("b", false), o.string("1", ""), o.u64("true", 0));
            let _ = o.finish();
        }
    }
}

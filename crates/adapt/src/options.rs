//! Configuration of the novelty detector and the admission policy.

use std::fmt;
use std::str::FromStr;

use hom_obs::Obs;

/// `HOM_ADAPT_WINDOW` — evidence window in labeled records.
pub const WINDOW_ENV: &str = "HOM_ADAPT_WINDOW";
/// `HOM_ADAPT_LIKELIHOOD` — windowed-mean likelihood trigger threshold.
pub const LIKELIHOOD_ENV: &str = "HOM_ADAPT_LIKELIHOOD";
/// `HOM_ADAPT_ENTROPY` — windowed-mean entropy trigger threshold.
pub const ENTROPY_ENV: &str = "HOM_ADAPT_ENTROPY";
/// `HOM_ADAPT_MIN_SEGMENT` — labeled records buffered before admission.
pub const MIN_SEGMENT_ENV: &str = "HOM_ADAPT_MIN_SEGMENT";
/// `HOM_ADAPT_MAX_SEGMENT` — segment size at which admission is forced.
pub const MAX_SEGMENT_ENV: &str = "HOM_ADAPT_MAX_SEGMENT";
/// `HOM_ADAPT_MATCH` — Eq. 4 similarity above which a segment is a
/// recurrence of a known concept rather than a novel one.
pub const MATCH_ENV: &str = "HOM_ADAPT_MATCH";

/// A rejected [`AdaptOptions`] value — like `hom-serve`'s `ConfigError`,
/// invalid knobs are typed errors, never silently clamped.
#[derive(Debug, Clone, PartialEq)]
pub enum AdaptConfigError {
    /// A count knob ([`AdaptOptions::window`],
    /// [`AdaptOptions::min_segment`], [`AdaptOptions::max_segment`])
    /// is zero.
    ZeroCount(&'static str),
    /// [`AdaptOptions::max_segment`] is smaller than
    /// [`AdaptOptions::min_segment`] — admission could never trigger.
    SegmentBoundsInverted {
        /// Configured minimum segment length.
        min: usize,
        /// Configured (smaller) maximum segment length.
        max: usize,
    },
    /// A probability-valued knob is outside `(0, 1)`.
    ThresholdOutOfRange {
        /// Which knob.
        name: &'static str,
        /// The rejected value.
        got: f64,
    },
    /// A `HOM_ADAPT_*` variable is set to text that does not parse as
    /// its knob's type (an unsigned integer or a number).
    InvalidEnv {
        /// The environment variable.
        var: &'static str,
        /// Its value, verbatim.
        got: String,
    },
}

impl fmt::Display for AdaptConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdaptConfigError::ZeroCount(name) => {
                write!(f, "{name} must be nonzero")
            }
            AdaptConfigError::SegmentBoundsInverted { min, max } => write!(
                f,
                "max_segment ({max}) must be at least min_segment ({min})"
            ),
            AdaptConfigError::ThresholdOutOfRange { name, got } => {
                write!(f, "{name} must lie strictly between 0 and 1, got {got}")
            }
            AdaptConfigError::InvalidEnv { var, got } => {
                write!(f, "invalid {var}={got:?}: not a number of the knob's type")
            }
        }
    }
}

impl std::error::Error for AdaptConfigError {}

/// Tuning of the windowed novelty detector and the admission policy.
///
/// The detector watches two pieces of evidence the filter computes
/// anyway ([`hom_core::FilterState::last_likelihood`] — the Eq. 7
/// normalizer — and [`hom_core::FilterState::posterior_entropy`]) over a
/// sliding window of the last [`Self::window`] labeled records, and
/// declares the stream **off-model** when the windowed means cross both
/// thresholds at once: likelihood collapsed *and* the posterior unable
/// to settle. See `ARCHITECTURE.md` §"Model maintenance & novelty" for
/// how the defaults were derived.
#[derive(Debug, Clone)]
pub struct AdaptOptions {
    /// Sliding evidence window, in labeled records (default 60). Larger
    /// windows trade detection latency for false-alarm robustness.
    pub window: usize,
    /// Trigger when the windowed mean of the marginal likelihood
    /// `Σ_c Pₜ⁻(c)·ψ(c, yₜ)` falls below this (default 0.7). On-model
    /// the mean sits near `1 − Err` of the active concept (≈ 0.9+);
    /// off-model it collapses toward the concepts' error rates.
    pub likelihood_threshold: f64,
    /// …and the windowed mean of the normalized posterior entropy
    /// `H(P_t)/ln N` exceeds this (default 0.25). Requiring **both**
    /// signals suppresses false alarms from brief label noise (which
    /// dents the likelihood but not sustained entropy) and from slow
    /// concept switches (high entropy but healthy likelihood).
    pub entropy_threshold: f64,
    /// Labeled records of the off-model segment to buffer before
    /// admission is considered (default 200). Bounds detection-to-repair
    /// latency from below; admission also needs the fallback's error to
    /// plateau.
    pub min_segment: usize,
    /// Segment size at which admission is forced even if the fallback's
    /// error has not plateaued (default 1200). Bounds the fallback
    /// period from above.
    pub max_segment: usize,
    /// Fallback prequential error is considered plateaued when its rate
    /// over the last [`Self::window`] records is within this of the rate
    /// over the window before it (default 0.05) — i.e. the learner has
    /// stopped improving, so the segment is ready to be clustered.
    pub stabilize_tol: f64,
    /// Eq. 4 model similarity (fraction of agreeing predictions on the
    /// buffered segment) at or above which the segment is admitted as a
    /// **recurrence** of the best-matching known concept; below it, as a
    /// **novel** concept (default 0.9).
    pub match_threshold: f64,
    /// Observability sink for the detector/lifecycle events (defaults to
    /// [`Obs::from_env`]: disabled unless `HOM_TRACE=path.jsonl`).
    pub sink: Obs,
}

impl Default for AdaptOptions {
    fn default() -> Self {
        AdaptOptions {
            window: 60,
            likelihood_threshold: 0.7,
            entropy_threshold: 0.25,
            min_segment: 200,
            max_segment: 1200,
            stabilize_tol: 0.05,
            match_threshold: 0.9,
            sink: Obs::from_env(),
        }
    }
}

/// A knob read from the environment: `None` when `var` is unset or
/// empty, its parsed value otherwise.
fn env_knob<T: FromStr>(var: &'static str) -> Result<Option<T>, AdaptConfigError> {
    parse_knob(var, std::env::var(var).ok().as_deref())
}

/// [`env_knob`] on a given value: text that does not parse is an
/// [`AdaptConfigError::InvalidEnv`] naming `var`, never a fallback.
fn parse_knob<T: FromStr>(
    var: &'static str,
    value: Option<&str>,
) -> Result<Option<T>, AdaptConfigError> {
    match value {
        None | Some("") => Ok(None),
        Some(text) => text
            .parse()
            .map(Some)
            .map_err(|_| AdaptConfigError::InvalidEnv {
                var,
                got: text.to_string(),
            }),
    }
}

impl AdaptOptions {
    /// Defaults overridden by any `HOM_ADAPT_*` environment knobs
    /// ([`WINDOW_ENV`], [`LIKELIHOOD_ENV`], [`ENTROPY_ENV`],
    /// [`MIN_SEGMENT_ENV`], [`MAX_SEGMENT_ENV`], [`MATCH_ENV`]). Values
    /// that parse are taken as-is — [`Self::validate`] rejects invalid
    /// ones with a typed error when the options are used.
    ///
    /// # Panics
    ///
    /// On a set variable that does not parse (see
    /// [`Self::try_from_env`]): misconfiguration must surface, not fall
    /// back to the default.
    pub fn from_env() -> Self {
        Self::try_from_env().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`Self::from_env`]: a set `HOM_ADAPT_*` variable
    /// whose text does not parse is an [`AdaptConfigError::InvalidEnv`].
    pub fn try_from_env() -> Result<Self, AdaptConfigError> {
        let mut o = AdaptOptions::default();
        if let Some(v) = env_knob(WINDOW_ENV)? {
            o.window = v;
        }
        if let Some(v) = env_knob(LIKELIHOOD_ENV)? {
            o.likelihood_threshold = v;
        }
        if let Some(v) = env_knob(ENTROPY_ENV)? {
            o.entropy_threshold = v;
        }
        if let Some(v) = env_knob(MIN_SEGMENT_ENV)? {
            o.min_segment = v;
        }
        if let Some(v) = env_knob(MAX_SEGMENT_ENV)? {
            o.max_segment = v;
        }
        if let Some(v) = env_knob(MATCH_ENV)? {
            o.match_threshold = v;
        }
        Ok(o)
    }

    /// Reject invalid knobs with a typed [`AdaptConfigError`] instead of
    /// clamping: zero counts, inverted segment bounds, and thresholds
    /// outside `(0, 1)` are configuration mistakes the operator should
    /// see, not values to silently "fix".
    pub fn validate(&self) -> Result<(), AdaptConfigError> {
        if self.window == 0 {
            return Err(AdaptConfigError::ZeroCount("window"));
        }
        if self.min_segment == 0 {
            return Err(AdaptConfigError::ZeroCount("min_segment"));
        }
        if self.max_segment == 0 {
            return Err(AdaptConfigError::ZeroCount("max_segment"));
        }
        if self.max_segment < self.min_segment {
            return Err(AdaptConfigError::SegmentBoundsInverted {
                min: self.min_segment,
                max: self.max_segment,
            });
        }
        for (name, v) in [
            ("likelihood_threshold", self.likelihood_threshold),
            ("entropy_threshold", self.entropy_threshold),
            ("stabilize_tol", self.stabilize_tol),
            ("match_threshold", self.match_threshold),
        ] {
            if !(v > 0.0 && v < 1.0) {
                return Err(AdaptConfigError::ThresholdOutOfRange { name, got: v });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        AdaptOptions::default().validate().expect("defaults valid");
    }

    #[test]
    fn zero_window_is_a_typed_error() {
        let o = AdaptOptions {
            window: 0,
            ..Default::default()
        };
        assert_eq!(o.validate(), Err(AdaptConfigError::ZeroCount("window")));
    }

    #[test]
    fn inverted_segment_bounds_are_rejected() {
        let o = AdaptOptions {
            min_segment: 500,
            max_segment: 100,
            ..Default::default()
        };
        assert_eq!(
            o.validate(),
            Err(AdaptConfigError::SegmentBoundsInverted { min: 500, max: 100 })
        );
    }

    #[test]
    fn env_knobs_parse_or_name_the_variable() {
        assert_eq!(parse_knob::<usize>(WINDOW_ENV, None), Ok(None));
        assert_eq!(parse_knob::<usize>(WINDOW_ENV, Some("")), Ok(None));
        assert_eq!(parse_knob::<usize>(WINDOW_ENV, Some("90")), Ok(Some(90)));
        assert_eq!(parse_knob::<f64>(MATCH_ENV, Some("0.8")), Ok(Some(0.8)));
        // Parsed but out of range: validate's error, not the parser's.
        assert_eq!(parse_knob::<f64>(LIKELIHOOD_ENV, Some("2")), Ok(Some(2.0)));
        for (var, text, parsed) in [
            (
                LIKELIHOOD_ENV,
                "abc",
                parse_knob::<f64>(LIKELIHOOD_ENV, Some("abc")).err(),
            ),
            (
                MIN_SEGMENT_ENV,
                "-5",
                parse_knob::<usize>(MIN_SEGMENT_ENV, Some("-5")).err(),
            ),
            (
                WINDOW_ENV,
                "60.5",
                parse_knob::<usize>(WINDOW_ENV, Some("60.5")).err(),
            ),
        ] {
            let err = parsed.expect(text);
            assert_eq!(
                err,
                AdaptConfigError::InvalidEnv {
                    var,
                    got: text.to_string()
                }
            );
            let shown = err.to_string();
            assert!(shown.contains(var) && shown.contains(text), "{shown}");
        }
    }

    #[test]
    fn out_of_range_thresholds_are_rejected() {
        for bad in [0.0, 1.0, -0.2, 1.5] {
            let o = AdaptOptions {
                likelihood_threshold: bad,
                ..Default::default()
            };
            let err = o.validate().expect_err("must reject");
            assert!(
                matches!(err, AdaptConfigError::ThresholdOutOfRange { name, .. }
                    if name == "likelihood_threshold"),
                "bad = {bad}: {err}"
            );
            assert!(err.to_string().contains("between 0 and 1"));
        }
    }
}

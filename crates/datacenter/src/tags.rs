//! The one tag table per spec enum. Each enum names its variant ↔ tag
//! pairs once, in a [`tag_table!`] invocation next to its definition;
//! the spec-JSON codec, the JSON export and the CLI's list options all
//! go through the `Display`/`FromStr` pair derived from it.

/// Declares `$ty`'s variant ↔ tag pairs and derives from them a
/// crate-internal `tag()`, `Display` (the tag) and `FromStr` (the
/// inverse), whose error reads `unknown $noun "t" (expected a, b or
/// c)`.
macro_rules! tag_table {
    ($ty:ident, $noun:literal, { $($variant:ident => $tag:literal),+ $(,)? }) => {
        impl $ty {
            /// The variant's spec-JSON and CLI tag.
            pub(crate) fn tag(self) -> &'static str {
                match self {
                    $($ty::$variant => $tag,)+
                }
            }
        }

        impl std::fmt::Display for $ty {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str(self.tag())
            }
        }

        impl std::str::FromStr for $ty {
            type Err = String;

            fn from_str(s: &str) -> Result<Self, Self::Err> {
                match s {
                    $($tag => Ok($ty::$variant),)+
                    other => Err($crate::tags::unknown($noun, other, &[$($tag),+])),
                }
            }
        }
    };
}
pub(crate) use tag_table;

/// The error for an unknown tag: `unknown {noun} "{got}" (expected a,
/// b or c)`.
pub(crate) fn unknown(noun: &str, got: &str, tags: &[&str]) -> String {
    let expected = match tags {
        [] => String::new(),
        [only] => (*only).to_string(),
        [rest @ .., last] => format!("{} or {last}", rest.join(", ")),
    };
    format!("unknown {noun} {got:?} (expected {expected})")
}

#[cfg(test)]
mod tests {
    use crate::{BackendSpec, FailurePolicy, PolicySpec, PredictorSpec, ServerSpec};

    /// Spec files and CLI options name these tags, so they are pinned
    /// here byte for byte, both ways.
    #[test]
    fn every_tag_round_trips() {
        fn check<T>(pairs: &[(T, &str)])
        where
            T: Copy + PartialEq + std::fmt::Debug + std::fmt::Display + std::str::FromStr,
            T::Err: std::fmt::Debug,
        {
            for &(value, tag) in pairs {
                assert_eq!(value.to_string(), tag);
                assert_eq!(tag.parse::<T>().unwrap(), value);
            }
        }
        check(&[
            (PolicySpec::Epact, "epact"),
            (PolicySpec::Coat, "coat"),
            (PolicySpec::CoatOpt, "coat_opt"),
            (PolicySpec::LoadBalance, "load_balance"),
        ]);
        check(&[
            (ServerSpec::Ntc, "ntc"),
            (ServerSpec::Conventional, "conventional"),
        ]);
        check(&[
            (PredictorSpec::Oracle, "oracle"),
            (PredictorSpec::Arima, "arima"),
            (PredictorSpec::SeasonalNaive, "seasonal_naive"),
        ]);
        check(&[
            (FailurePolicy::KeepGoing, "keep_going"),
            (FailurePolicy::FailFast, "fail_fast"),
        ]);
        check(&[
            (BackendSpec::Analytic, "analytic"),
            (BackendSpec::Archsim, "archsim"),
        ]);
    }

    #[test]
    fn unknown_tags_keep_their_error_wording() {
        let cases = [
            (
                "greedy".parse::<PolicySpec>().unwrap_err(),
                r#"unknown policy "greedy" (expected epact, coat, coat_opt or load_balance)"#,
            ),
            (
                "arm".parse::<ServerSpec>().unwrap_err(),
                r#"unknown server "arm" (expected ntc or conventional)"#,
            ),
            (
                "lstm".parse::<PredictorSpec>().unwrap_err(),
                r#"unknown predictor "lstm" (expected oracle, arima or seasonal_naive)"#,
            ),
            (
                "retry".parse::<FailurePolicy>().unwrap_err(),
                r#"unknown failure policy "retry" (expected keep_going or fail_fast)"#,
            ),
            (
                "gem5".parse::<BackendSpec>().unwrap_err(),
                r#"unknown backend "gem5" (expected analytic or archsim)"#,
            ),
        ];
        for (got, want) in cases {
            assert_eq!(got, want);
        }
    }
}

//! The paper's worked examples, reproduced end to end.
//!
//! Each test corresponds to a concrete example, figure, or note in the
//! paper and checks the behaviour the text describes.

use semre::{ConstOracle, Instrumented, Matcher, Oracle, PalindromeOracle, SetOracle};
use semre_syntax::examples;

/// Section 2.2: the introduction's sportsperson / scientist oracle.
#[test]
fn section_2_2_team_rosters() {
    let mut oracle = SetOracle::new();
    oracle.insert_all(
        "Sportsperson",
        ["Simone Biles", "Lionel Messi", "Roger Federer"],
    );
    // (⟨Sportsperson⟩ ", ")* ⟨Sportsperson⟩ — rosters of sports teams.
    let roster = semre::parse(r"((?<Sportsperson>: .*), )*(?<Sportsperson>: .*)").unwrap();
    let matcher = Matcher::new(roster, oracle);
    assert!(matcher.is_match(b"Simone Biles, Lionel Messi, Roger Federer"));
    assert!(matcher.is_match(b"Lionel Messi"));
    assert!(!matcher.is_match(b"Simone Biles, Isaac Newton"));
    assert!(!matcher.is_match(b"Simone Biles; Lionel Messi"));
}

/// Figures 2–4: the palindrome SemRE `Σ* a ⟨pal⟩` and the strings used to
/// motivate the query graph.
#[test]
fn figures_2_to_4_palindrome_walkthrough() {
    let matcher = Matcher::new(examples::r_pal(), PalindromeOracle);
    // w1 w3 = babc·cb ∈ ⟦r_pal⟧ (split after the `a`: "bccb" is a palindrome).
    assert!(matcher.is_match(b"babccb"));
    // w2 w3 = bacb·cb ∉ ⟦r_pal⟧.
    assert!(!matcher.is_match(b"bacbcb"));
    // w4 w3 = babca·cb ∈ ⟦r_pal⟧ via the *first* occurrence of `a` (Fig. 3):
    // the suffix "bcacb" is a palindrome while "cb" is not.
    assert!(matcher.is_match(b"babcacb"));
}

/// Figure 5: `(Σ* ∧ ⟨q⟩)*` accepts exactly the strings that can be cut into
/// oracle-accepted chunks (Equation 12).
#[test]
fn figure_5_chunked_acceptance() {
    let mut oracle = SetOracle::new();
    oracle.insert_all("q", ["ab", "c", "abc"]);
    let matcher = Matcher::new(examples::r_qstar("q"), oracle);
    assert!(matcher.is_match(b"abc")); // "abc" or "ab"+"c"
    assert!(matcher.is_match(b"cababc")); // "c"+"ab"+"abc" among others
    assert!(matcher.is_match(b"")); // zero chunks
    assert!(!matcher.is_match(b"ba"));
    assert!(!matcher.is_match(b"abx"));
}

/// The introduction's nested "Paris Hilton" SemRE: celebrities whose names
/// contain city names.
#[test]
fn introduction_paris_hilton() {
    let mut oracle = SetOracle::new();
    oracle.insert_all("City", ["Paris", "London"]);
    oracle.insert_all(
        "Celebrity",
        ["Paris Hilton", "London Breed", "Taylor Swift"],
    );
    let matcher = Matcher::new(examples::r_paris_hilton(), oracle);
    assert!(matcher.is_match(b"Paris Hilton"));
    assert!(matcher.is_match(b"London Breed"));
    assert!(!matcher.is_match(b"Taylor Swift")); // celebrity, no city inside
    assert!(!matcher.is_match(b"Paris Fashion Week")); // city, not a celebrity
}

/// Note 2.1 / Example 2.8: the `⟨q⟩` and `[q]` shorthands differ on the
/// empty substring.
#[test]
fn note_2_1_shorthands() {
    let mut oracle = SetOracle::new();
    oracle.insert("q", "");
    oracle.insert("q", "x");
    // ⟨q⟩ = Σ* ∧ ⟨q⟩ accepts ε when the oracle does.
    assert!(Matcher::new(semre_syntax::Semre::oracle("q"), &oracle).is_match(b""));
    // [q] = Σ⁺ ∧ ⟨q⟩ never accepts ε.
    assert!(!Matcher::new(semre_syntax::Semre::oracle_word("q"), &oracle).is_match(b""));
    assert!(Matcher::new(semre_syntax::Semre::oracle_word("q"), &oracle).is_match(b"x"));
}

/// Note 4.2: for `(Σ ∧ ⟨q⟩) Σ*` a single oracle query (on the first
/// character) suffices, despite the general Ω(|w|²) lower bound.
#[test]
fn note_4_2_single_query_suffices_for_anchored_refinements() {
    let oracle = Instrumented::new(ConstOracle::always_true());
    let r = semre::parse("(?<q>: .).*").unwrap();
    let matcher = Matcher::new(r, &oracle);
    let input = vec![b'x'; 64];
    assert!(matcher.is_match(&input));
    assert_eq!(
        matcher.oracle().stats().calls,
        1,
        "only ⟦q⟧(w₁) needs to be consulted for (Σ ∧ ⟨q⟩)Σ*"
    );
}

/// Theorem 4.1 (proof): the two oracles ⟦·⟧_f and ⟦·⟧_t differ on a single
/// `(q, 0^j 1^k)` pair and force different verdicts.
#[test]
fn theorem_4_1_adversarial_oracles() {
    use semre_workloads::query_complexity::{lower_bound_input, lower_bound_semre};
    let r = lower_bound_semre(1);
    let w = lower_bound_input(4);
    let always_false = ConstOracle::always_false();
    let spiky = semre::PredicateOracle::new(|q: &str, text: &[u8]| q == "q1" && text == b"0011");
    assert!(!Matcher::new(r.clone(), always_false).is_match(&w));
    assert!(Matcher::new(r, spiky).is_match(&w));
}

/// Example 2.7 / Table 1: the identifier SemRE only flags whole identifiers
/// on word boundaries (thanks to the pad₁ / pad₂ padding).
#[test]
fn example_2_7_identifier_boundaries() {
    let oracle = semre::SimLlmOracle::new();
    let matcher = Matcher::new(examples::r_id_padded(), &oracle);
    assert!(matcher.is_match(b"int tmp = readValue();"));
    assert!(matcher.is_match(b"foo"));
    assert!(!matcher.is_match(b"int temperature = readValue();"));
    // "tmp" inside a longer identifier is not a word-boundary occurrence.
    assert!(!matcher.is_match(b"int tmpBufferSize = 4096;"));
}

/// Example 2.9–2.11: the non-LLM oracles behave like their services.
#[test]
fn examples_2_9_to_2_11_service_oracles() {
    let mut whois = semre::oracle::WhoisDb::new();
    whois.register("example.com", 1995);
    whois.register("fresh.dev", 2021);
    let matcher = Matcher::new(examples::r_edom(), &whois);
    assert!(matcher.is_match(b"bob@forgotten.zzz"));
    assert!(!matcher.is_match(b"not an email address"));

    let recent = Matcher::new(examples::r_wdom2(), &whois);
    assert!(recent.is_match(b"https://fresh.dev"));
    assert!(!recent.is_match(b"ftp://fresh.dev"));

    let geo = semre::oracle::IpGeoDb::with_private_ranges();
    let ip_matcher = Matcher::new(examples::r_ip(), &geo);
    assert!(ip_matcher.is_match(b"8.8.8.8"));
    assert!(!ip_matcher.is_match(b"192.168.1.20"));
    assert!(!ip_matcher.is_match(b"999.1.2.3"));
}

/// Assumption 2.4: wrapping a nondeterministic oracle in the cache makes
/// repeated matching deterministic.
#[test]
fn assumption_2_4_cache_determinizes() {
    use std::sync::atomic::{AtomicU64, Ordering};
    // A deliberately nondeterministic oracle: flips its answer every call.
    struct Flaky(AtomicU64);
    impl Oracle for Flaky {
        fn holds(&self, _query: &str, _text: &[u8]) -> bool {
            self.0.fetch_add(1, Ordering::Relaxed) % 2 == 0
        }
    }
    let cached = semre::SharedSession::new(std::sync::Arc::new(Flaky(AtomicU64::new(0))));
    let matcher = Matcher::new(semre::parse("(?<q>: abc)").unwrap(), &cached);
    let first = matcher.is_match(b"abc");
    for _ in 0..5 {
        assert_eq!(
            matcher.is_match(b"abc"),
            first,
            "cached answers must not change"
        );
    }
}

//! Seeded spam-line generators and the independent verdict reference.
//!
//! Every line is lowercase ASCII, so both patterns the benchmark sends to
//! the programs — `Subject: .*(?<Medicine name>: .+).*` and its
//! `[a-z]+` variant — match exactly the lines [`medicine_line`] accepts:
//! the simulated LLM answers `Medicine name` by trimmed, lowercased
//! lexicon lookup, and every lexicon entry is a lowercase word.

use semre::oracle::MEDICINE_NAMES;
use semre::workloads::rng::StdRng;

/// Filler vocabulary; no word contains a medicine name.
const WORDS: &[&str] = &[
    "cheap", "offer", "deal", "free", "shipping", "today", "now", "best", "price", "online",
    "order", "quality", "discount", "limited", "pharmacy", "secure", "fast", "trusted", "save",
    "refill", "express", "genuine", "bonus", "club",
];

pub const SUBJECT: &str = "Subject: ";

/// The reference verdict, computed from the lexicon and the line text
/// alone: the line is a subject line and names a medicine after the
/// prefix.
pub fn medicine_line(line: &[u8]) -> bool {
    line.strip_prefix(SUBJECT.as_bytes()).is_some_and(|rest| {
        MEDICINE_NAMES
            .iter()
            .any(|m| rest.windows(m.len()).any(|w| w == m.as_bytes()))
    })
}

fn pick<'a>(rng: &mut StdRng, from: &[&'a str]) -> &'a str {
    from[rng.gen_range(0..from.len())]
}

/// A subject line of exactly `len` bytes; with `medicine`, the name
/// appears whole somewhere after the prefix.
pub fn long_line(rng: &mut StdRng, len: usize, medicine: Option<&str>) -> Vec<u8> {
    let mut line = String::from("Subject:");
    if let Some(med) = medicine {
        // Leave room for the longest filler word after the prefix words.
        let before = rng.gen_range(SUBJECT.len()..len - med.len() - 12);
        while line.len() < before {
            line.push(' ');
            line.push_str(pick(rng, WORDS));
        }
        line.push(' ');
        line.push_str(med);
    }
    while line.len() < len {
        line.push(' ');
        line.push_str(pick(rng, WORDS));
    }
    line.truncate(len);
    line.into_bytes()
}

/// A short subject line (about 40–70 bytes) carrying `token`, which
/// makes it unique the way distinct mails differ: half of them name a
/// medicine.
pub fn short_line(rng: &mut StdRng, token: &str) -> Vec<u8> {
    let mut line = format!("{SUBJECT}{} {token}", pick(rng, WORDS));
    if rng.gen_bool(0.5) {
        line.push(' ');
        line.push_str(pick(rng, MEDICINE_NAMES));
    }
    for _ in 0..rng.gen_range(2..5u32) {
        line.push(' ');
        line.push_str(pick(rng, WORDS));
    }
    line.into_bytes()
}

/// A lowercase word unique to `n` among tokens over the same `letters`:
/// the range's first letter, then `n`'s digits in base `letters.len()`
/// written with those letters.
pub fn token(mut n: u64, letters: std::ops::RangeInclusive<u8>) -> String {
    let (first, base) = (
        *letters.start(),
        u64::from(letters.end() - letters.start()) + 1,
    );
    let mut out = String::from(char::from(first));
    loop {
        out.push(char::from(first + (n % base) as u8));
        n /= base;
        if n == 0 {
            return out;
        }
    }
}

/// Lines joined with `\n`, each terminated.
pub fn join_lines<L: AsRef<[u8]>>(lines: &[L]) -> Vec<u8> {
    let mut out = Vec::new();
    for line in lines {
        out.extend_from_slice(line.as_ref());
        out.push(b'\n');
    }
    out
}

/// Fisher–Yates with the benchmark's seeded generator.
pub fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn long_lines_have_their_length_and_verdict() {
        let mut rng = StdRng::seed_from_u64(7);
        for len in [300, 555, 800] {
            let with = long_line(&mut rng, len, Some("tramadol"));
            let without = long_line(&mut rng, len, None);
            assert_eq!((with.len(), without.len()), (len, len));
            assert!(medicine_line(&with));
            assert!(!medicine_line(&without));
        }
    }

    #[test]
    fn reference_needs_the_prefix() {
        assert!(medicine_line(b"Subject: buy xanax"));
        assert!(!medicine_line(b"re: buy xanax"));
        assert!(!medicine_line(b"Subject: minutes of the weekly sync"));
    }

    #[test]
    fn tokens_are_unique_and_stay_in_their_letters() {
        let tokens: std::collections::HashSet<String> =
            (0..2000).map(|n| token(n, b'n'..=b'z')).collect();
        assert_eq!(tokens.len(), 2000);
        assert!(tokens
            .iter()
            .all(|t| t.bytes().all(|b| (b'n'..=b'z').contains(&b))));
    }

    #[test]
    fn short_lines_are_unique() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = short_line(&mut rng, &token(1, b'a'..=b'z'));
        let b = short_line(&mut rng, &token(2, b'a'..=b'z'));
        assert_ne!(a, b);
        assert!(a.starts_with(SUBJECT.as_bytes()));
    }
}

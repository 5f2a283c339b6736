//! Differential suite for the streaming scan pipeline and the literal
//! prescan.
//!
//! The perf work of PR 4 must never change a verdict or a printed byte:
//!
//! * `grepo --stream` (chunked I/O, lines reassembled across chunk
//!   boundaries) must produce byte-identical output to the in-memory
//!   path, for every chunk size, thread count, and benchmark SemRE;
//! * the literal prescan must agree with the prescan-free matcher on
//!   every verdict;
//! * chunk-boundary pathologies — lines exactly at, spanning, and larger
//!   than `stream_chunk_bytes`, empty trailing lines, a missing final
//!   newline — must not lose, duplicate, or alter a line.

use std::sync::Arc;

use semre::core::MatcherConfig;
use semre::workloads::rng::StdRng;
use semre::workloads::Workbench;
use semre::{SemRegex, SemRegexBuilder};
use semre_grep::cli::{run_on_text, run_stream, CliOptions};
use semre_grep::stream::{scan_stream, StreamOptions};
use semre_grep::{scan_lines, ScanOptions};

/// A corpus engineered around the chunk boundary: for chunk size `c`,
/// lines of length exactly `c - 1` (so line + `\n` fills a chunk), `c`,
/// `c + 1`, several multiples of `c`, empty lines (including a run of
/// trailing empty lines), and an unterminated final line.
fn boundary_text(chunk: usize, final_newline: bool) -> String {
    let mut text = String::new();
    let keyword = "Subject: cheap viagra";
    for (i, len) in [
        chunk.saturating_sub(1),
        chunk,
        chunk + 1,
        2 * chunk,
        3 * chunk + 1,
        1,
        0,
        chunk / 2,
        0,
        0,
    ]
    .into_iter()
    .enumerate()
    {
        let mut line = if i % 2 == 0 {
            keyword.to_string()
        } else {
            String::from("filler")
        };
        while line.len() < len {
            line.push('x');
        }
        line.truncate(len);
        text.push_str(&line);
        text.push('\n');
    }
    if final_newline {
        text.push_str("Subject: final tramadol line\n");
    } else {
        text.push_str("Subject: final tramadol line");
    }
    text
}

#[test]
fn chunk_boundary_lines_are_never_lost_or_altered() {
    let re = SemRegex::new(
        r"Subject: .*(?<Medicine name>: [a-z]+).*",
        semre::SimLlmOracle::new(),
    )
    .unwrap();
    for chunk in [1usize, 2, 16, 21, 22, 23, 64] {
        for final_newline in [true, false] {
            let text = boundary_text(chunk, final_newline);
            let lines: Vec<&str> = text.lines().collect();
            let expected: Vec<(Vec<u8>, bool)> = lines
                .iter()
                .map(|l| (l.as_bytes().to_vec(), re.is_match(l.as_bytes())))
                .collect();
            for threads in [1, 4] {
                let options = StreamOptions {
                    chunk_bytes: chunk,
                    // Exercise both the double-buffered and the plain
                    // reader across the chunk-size sweep.
                    read_ahead: chunk % 2 == 0,
                    scan: ScanOptions::batched(4).with_threads(threads),
                };
                let mut got = Vec::new();
                let report = scan_stream(&re, text.as_bytes(), &options, |i, line, m| {
                    assert_eq!(i as usize, got.len(), "line order broken");
                    got.push((line.to_vec(), m));
                    true
                })
                .unwrap();
                assert_eq!(
                    got, expected,
                    "chunk={chunk} threads={threads} final_newline={final_newline}"
                );
                assert_eq!(report.lines as usize, lines.len());
                assert_eq!(report.bytes as usize, text.len());
            }
        }
    }
}

#[test]
fn streaming_is_byte_identical_on_all_nine_benchmarks() {
    let workbench = Workbench::generate(0x57_4EA4, 400, 400);
    for spec in workbench.benchmarks() {
        let re = SemRegexBuilder::new()
            .build_semre_shared(spec.semre.clone(), Arc::clone(&spec.oracle))
            .expect("benchmark SemREs compile");
        let corpus = workbench.corpus(spec.dataset);
        let lines: Vec<&String> = corpus.lines().iter().take(250).collect();
        let text: String = lines
            .iter()
            .map(|l| format!("{l}\n"))
            .collect::<Vec<_>>()
            .join("");

        // The in-memory reference: what grepo's --no-stream path prints.
        let reference = scan_lines(&re, &lines, ScanOptions::batched(64));
        let mut expected = Vec::new();
        for record in reference.records.iter().filter(|r| r.matched) {
            expected.extend_from_slice(lines[record.index].as_bytes());
            expected.push(b'\n');
        }

        for chunk_bytes in [37, 64 * 1024] {
            for threads in [1, 4] {
                let options = StreamOptions {
                    chunk_bytes,
                    read_ahead: true,
                    scan: ScanOptions::batched(64).with_threads(threads),
                };
                let mut got = Vec::new();
                scan_stream(&re, text.as_bytes(), &options, |_, line, matched| {
                    if matched {
                        got.extend_from_slice(line);
                        got.push(b'\n');
                    }
                    true
                })
                .unwrap();
                assert_eq!(
                    String::from_utf8_lossy(&got),
                    String::from_utf8_lossy(&expected),
                    "{}: chunk={chunk_bytes} threads={threads}",
                    spec.name
                );
            }
        }
    }
}

#[test]
fn prescan_never_changes_a_verdict_on_benchmarks_or_random_input() {
    let workbench = Workbench::generate(0x9E_5CA4, 300, 300);
    let mut rng = StdRng::seed_from_u64(0x9E5);
    let structured: &[u8] = b"abz09AZ.:/@-_\" (),<>Subject: htp";
    let random: Vec<Vec<u8>> = (0..80)
        .map(|i| {
            let len = rng.gen_range(0..60usize);
            (0..len)
                .map(|_| match i % 2 {
                    0 => rng.gen_range(0..256u32) as u8,
                    _ => structured[rng.gen_range(0..structured.len())],
                })
                .collect()
        })
        .collect();
    for spec in workbench.benchmarks() {
        let with = SemRegexBuilder::new()
            .build_semre_shared(spec.semre.clone(), Arc::clone(&spec.oracle))
            .unwrap();
        let without = SemRegexBuilder::new()
            .matcher_config(MatcherConfig::no_prescan())
            .build_semre_shared(spec.semre.clone(), Arc::clone(&spec.oracle))
            .unwrap();
        let corpus = workbench.corpus(spec.dataset);
        for line in corpus.lines().iter().take(120) {
            assert_eq!(
                with.is_match(line.as_bytes()),
                without.is_match(line.as_bytes()),
                "{}: corpus line {line:?}",
                spec.name
            );
        }
        for input in &random {
            assert_eq!(
                with.is_match(input),
                without.is_match(input),
                "{}: random input {input:?}",
                spec.name
            );
            assert_eq!(
                with.find(input).map(|m| m.range()),
                without.find(input).map(|m| m.range()),
                "{}: random find {input:?}",
                spec.name
            );
        }
    }
}

#[test]
fn cli_stream_agrees_with_cli_in_memory_across_thread_counts() {
    let mut rng = StdRng::seed_from_u64(4242);
    let meds = ["viagra", "tramadol", "xanax", "ambien"];
    let mut lines = Vec::new();
    for i in 0..150 {
        if rng.gen_bool(0.35) {
            let med = meds[rng.gen_range(0..meds.len())];
            lines.push(format!("Subject: cheap {med} deal number {i}"));
        } else if rng.gen_bool(0.5) {
            lines.push(format!("Subject: weekly report number {i}"));
        } else {
            lines.push(format!("unrelated chatter line {i}"));
        }
    }
    let text = lines.join("\n") + "\n";
    let pattern = r"Subject: .*(?<Medicine name>: [a-z]+).*";

    for threads in ["1", "4"] {
        let base = ["--batched", "--threads", threads, pattern];
        let in_memory = CliOptions::parse(base.iter().copied().chain(["--no-stream"])).unwrap();
        let expected = run_on_text(&in_memory, &text).unwrap();
        let mut expected_bytes = Vec::new();
        for line in &expected.stdout {
            expected_bytes.extend_from_slice(line.as_bytes());
            expected_bytes.push(b'\n');
        }
        for chunk in ["1", "53", "65536"] {
            let streaming = CliOptions::parse(
                ["--stream-chunk-bytes", chunk]
                    .into_iter()
                    .chain(base.iter().copied()),
            )
            .unwrap();
            let mut got = Vec::new();
            let outcome = run_stream(&streaming, text.as_bytes(), &mut got).unwrap();
            assert_eq!(
                String::from_utf8_lossy(&got),
                String::from_utf8_lossy(&expected_bytes),
                "threads={threads} chunk={chunk}"
            );
            assert_eq!(outcome.exit_code, expected.exit_code);
        }
    }
}

/// A reader that synthesizes a large corpus on the fly, so the test can
/// stream far more data than it ever holds: the streaming path's memory
/// is bounded by O(chunk + longest line) by construction (LineChunks
/// carries only the split remainder), and this exercises that path at a
/// scale where materializing would be wasteful.
struct SyntheticCorpus {
    line: u64,
    lines: u64,
    pending: Vec<u8>,
}

impl std::io::Read for SyntheticCorpus {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pending.is_empty() {
            if self.line >= self.lines {
                return Ok(0);
            }
            let i = self.line;
            self.pending = if i % 97 == 0 {
                format!("Subject: cheap viagra offer number {i}\n").into_bytes()
            } else {
                format!("plain filler line number {i} with some padding text\n").into_bytes()
            };
            self.line += 1;
        }
        let n = self.pending.len().min(buf.len());
        buf[..n].copy_from_slice(&self.pending[..n]);
        self.pending.drain(..n);
        Ok(n)
    }
}

#[test]
fn streaming_a_synthetic_corpus_stays_incremental() {
    // ~400k lines, ~20 MB, generated on the fly; the scan sees every line
    // exactly once and counts exactly the planted matches.
    let lines = 400_000u64;
    let re = SemRegex::new(
        r"Subject: .*(?<Medicine name>: [a-z]+).*",
        semre::SimLlmOracle::new(),
    )
    .unwrap();
    let options = StreamOptions {
        chunk_bytes: 64 * 1024,
        read_ahead: true,
        scan: ScanOptions::batched(256).with_threads(4),
    };
    let reader = SyntheticCorpus {
        line: 0,
        lines,
        pending: Vec::new(),
    };
    let mut matched = 0u64;
    let report = scan_stream(&re, reader, &options, |_, _, m| {
        if m {
            matched += 1;
        }
        true
    })
    .unwrap();
    assert_eq!(report.lines, lines);
    assert_eq!(matched, lines.div_ceil(97));
    assert_eq!(report.matched_lines, matched);
    assert!(report.bytes > 10_000_000, "{} bytes", report.bytes);
}

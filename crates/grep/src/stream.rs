//! The streaming scan engine: chunked I/O in front of the line scanners.
//!
//! The in-memory entry points ([`scan_lines`], [`scan_spans`]) take a
//! slice of lines that already lives in memory; on a multi-gigabyte
//! corpus the split alone costs more memory than the matcher ever will.
//! [`scan_stream`] instead
//! pulls the input through [`semre::stream::LineChunks`] — fixed-size
//! reads, lines reassembled across chunk boundaries — and feeds each batch
//! of complete lines to the same chunk driver, so every optimization of
//! the in-memory path (batched oracle sessions, parallel chunk scanning,
//! the literal prescan and lazy-DFA prefilter inside the matcher) applies
//! unchanged while peak memory stays bounded by the chunk size plus the
//! longest line.
//!
//! Results are delivered through a per-line callback in input order, and
//! a scan that runs to completion produces exactly the verdicts (and
//! therefore exactly the printed output) of the in-memory path, for any
//! chunk size and thread count.
//!
//! # Examples
//!
//! ```
//! use semre::{SemRegex, SimLlmOracle};
//! use semre_grep::stream::{scan_stream, StreamOptions};
//!
//! let re = SemRegex::new(r"Subject: .*(?<Medicine name>: [a-z]+).*",
//!                        SimLlmOracle::new())?;
//! let mail = "Subject: cheap tramadol\nSubject: standup notes\n";
//! let mut matched = Vec::new();
//! let report = scan_stream(&re, mail.as_bytes(), &StreamOptions::default(),
//!     |_index, line, is_match| {
//!         if is_match {
//!             matched.push(String::from_utf8_lossy(line).into_owned());
//!         }
//!         true // keep scanning; return false to cancel (e.g. broken pipe)
//!     })?;
//! assert_eq!(report.lines, 2);
//! assert_eq!(matched, ["Subject: cheap tramadol"]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::io::{self, Read, Seek, SeekFrom};
use std::time::{Duration, Instant};

use semre::stream::LineChunks;
use semre::{BatchStats, SemRegex, DEFAULT_STREAM_CHUNK_BYTES};
use semre_oracle::{OracleError, ScanInterrupt};

use crate::engine::{scan_lines, scan_spans, LineMatcher, ScanOptions};
use crate::stats::ScanReport;

/// Options controlling a streaming scan.
#[derive(Clone, Debug)]
pub struct StreamOptions {
    /// Bytes per I/O chunk (peak memory is O(chunk + longest line)).
    pub chunk_bytes: usize,
    /// Double-buffer the reads: a dedicated thread pulls the *next* I/O
    /// chunk off the reader while the current batch is being matched, so
    /// file I/O overlaps evaluation.  Verdicts, order, and reported bytes
    /// are identical; peak memory grows by one extra chunk.  Leave off
    /// for interactive readers (stdin): a cancelled scan would otherwise
    /// wait on a read that may never complete.
    pub read_ahead: bool,
    /// How each batch of lines is scanned — chunk sessions, threads,
    /// plane, fault policy — and the line and wall-clock limits, which
    /// apply across the whole stream.
    pub scan: ScanOptions,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            chunk_bytes: DEFAULT_STREAM_CHUNK_BYTES,
            read_ahead: false,
            scan: ScanOptions::unlimited(),
        }
    }
}

impl StreamOptions {
    /// Options mirroring how a [`SemRegex`] handle prefers to be scanned:
    /// its chunk sizes, thread count, and oracle plane.
    pub fn for_regex(re: &SemRegex) -> StreamOptions {
        StreamOptions {
            chunk_bytes: re.stream_chunk_bytes(),
            read_ahead: false,
            scan: ScanOptions {
                chunk_lines: re.chunk_lines(),
                threads: re.threads(),
                batched: re.config().batched_oracle,
                ..ScanOptions::default()
            },
        }
    }
}

/// Aggregate statistics of a streaming scan.  Unlike
/// [`ScanReport`] there are **no per-line records** —
/// keeping them would make memory grow with the input, defeating the
/// point of streaming; per-line data flows through the callback instead.
#[derive(Clone, Debug, Default)]
pub struct StreamReport {
    /// Lines processed.
    pub lines: u64,
    /// Lines that matched.
    pub matched_lines: u64,
    /// Bytes consumed from the reader.
    pub bytes: u64,
    /// Whether the wall-clock budget expired before the input ended.
    pub timed_out: bool,
    /// Total wall-clock time of the scan.
    pub total_duration: Duration,
    /// Accumulated batch-plane statistics (batched scans only).
    pub batch: BatchStats,
    /// Absolute input-line indices whose verdicts were degraded by oracle
    /// faults (see [`ScanReport::degraded`]), in ascending order.  Faults
    /// are exceptional, so unlike per-line records this stays small.
    pub degraded: Vec<u64>,
    /// The oracle fault that stopped the stream under
    /// [`FaultPolicy::Fail`](crate::FaultPolicy::Fail).
    pub fault: Option<OracleError>,
    /// Why the stream was cut short by its
    /// [`ScanControl`](semre_oracle::ScanControl), if it was.
    pub interrupted: Option<ScanInterrupt>,
}

impl StreamReport {
    /// Mean wall-clock milliseconds per processed line.
    pub fn rt_total_ms(&self) -> f64 {
        if self.lines == 0 {
            0.0
        } else {
            self.total_duration.as_secs_f64() * 1e3 / self.lines as f64
        }
    }

    /// Throughput in megabytes of input per second.
    pub fn mb_per_s(&self) -> f64 {
        let secs = self.total_duration.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.bytes as f64 / 1e6 / secs
        }
    }

    fn absorb(&mut self, batch: &ScanReport, matched: u64, lines_done: u64) {
        // Skipped (degraded) lines carry no record, so the processed count
        // comes from records plus the skipped entries of this batch.
        let skipped = batch.degraded.len() - batch.records.iter().filter(|r| r.degraded).count();
        self.lines += batch.records.len() as u64 + skipped as u64;
        self.matched_lines += matched;
        self.batch = self.batch.merged(&batch.batch);
        self.timed_out |= batch.timed_out;
        self.degraded
            .extend(batch.degraded.iter().map(|&i| lines_done + i as u64));
        if self.fault.is_none() {
            self.fault = batch.fault.clone();
        }
        if self.interrupted.is_none() {
            self.interrupted = batch.interrupted.clone();
        }
    }
}

/// The per-batch driver shared by membership and span streaming: pulls
/// line batches off the chunker, applies the line/time limits across
/// batches, and lets `scan_batch` run one in-memory scan per batch.
/// `scan_batch`'s third return value is `false` to cancel the stream
/// (a callback asked to stop, e.g. after a broken output pipe).
fn drive_stream<R: Read + Send>(
    reader: R,
    options: &StreamOptions,
    mut scan_batch: impl FnMut(&[Vec<u8>], u64, ScanOptions) -> (ScanReport, u64, bool),
) -> io::Result<StreamReport> {
    let started = Instant::now();
    let mut report = StreamReport::default();

    // One iteration of the scan loop: limits, the batch scan, accounting.
    // Returns whether to pull another batch.
    let mut consume = |report: &mut StreamReport, mut batch: Vec<Vec<u8>>| -> bool {
        if let Some(max) = options.scan.max_lines {
            let remaining = max.saturating_sub(report.lines as usize);
            if remaining == 0 {
                return false;
            }
            batch.truncate(remaining);
        }
        let budget = options.scan.time_budget.map(|b| {
            let remaining = b.saturating_sub(started.elapsed());
            if remaining.is_zero() {
                report.timed_out = true;
            }
            remaining
        });
        if report.timed_out {
            return false;
        }
        let scan_options = ScanOptions {
            max_lines: None,
            time_budget: budget,
            ..options.scan.clone()
        };
        let lines_done = report.lines;
        let (batch_report, matched, keep_going) = scan_batch(&batch, lines_done, scan_options);
        report.absorb(&batch_report, matched, lines_done);
        !report.timed_out && keep_going && report.fault.is_none() && report.interrupted.is_none()
    };

    if options.read_ahead {
        // Double-buffered reads: a producer thread owns the chunker and
        // stays one batch ahead (sync_channel(1) = the batch being
        // matched plus the one being read), so file I/O overlaps
        // evaluation.  Each message carries the byte count up to and
        // including that batch, so cancellation reports exactly the bytes
        // of the batches actually delivered — as the synchronous loop
        // does.
        type Prefetched = io::Result<Option<(Vec<Vec<u8>>, u64)>>;
        let chunk_bytes = options.chunk_bytes;
        std::thread::scope(|scope| -> io::Result<()> {
            let (sender, receiver) = std::sync::mpsc::sync_channel::<Prefetched>(1);
            scope.spawn(move || {
                let mut chunks = LineChunks::new(reader, chunk_bytes);
                loop {
                    let item = chunks.next_batch();
                    let done = !matches!(item, Ok(Some(_)));
                    let message = item.map(|b| b.map(|batch| (batch, chunks.bytes_read())));
                    // A send error means the consumer stopped early; the
                    // prefetched batch is discarded, like the synchronous
                    // loop never reading it.
                    if sender.send(message).is_err() || done {
                        return;
                    }
                }
            });
            while let Ok(message) = receiver.recv() {
                let Some((batch, bytes)) = message? else {
                    break;
                };
                report.bytes = bytes;
                if !consume(&mut report, batch) {
                    break;
                }
            }
            Ok(())
        })?;
    } else {
        let mut chunks = LineChunks::new(reader, options.chunk_bytes);
        while let Some(batch) = chunks.next_batch()? {
            if !consume(&mut report, batch) {
                break;
            }
        }
        report.bytes = chunks.bytes_read();
    }
    report.total_duration = started.elapsed();
    Ok(report)
}

/// Streams `reader` through `matcher` in membership mode, invoking
/// `on_line(index, line, matched)` for every processed line, in input
/// order.  Verdicts are identical to the in-memory scans for any chunk
/// size and thread count.  The callback returns whether to continue:
/// `false` cancels the scan after at most the current batch (used by the
/// CLI to stop matching — and paying oracle calls — once its output pipe
/// breaks).
///
/// # Errors
///
/// Propagates I/O errors from the reader; lines scanned before the error
/// have already been delivered to the callback.
pub fn scan_stream<M, R, F>(
    matcher: &M,
    reader: R,
    options: &StreamOptions,
    mut on_line: F,
) -> io::Result<StreamReport>
where
    M: LineMatcher + ?Sized,
    R: Read + Send,
    F: FnMut(u64, &[u8], bool) -> bool,
{
    drive_stream(reader, options, |batch, lines_done, scan_options| {
        let report = scan_lines(matcher, batch, scan_options);
        let mut matched = 0;
        let mut keep_going = true;
        for record in &report.records {
            if record.matched {
                matched += 1;
            }
            if !on_line(
                lines_done + record.index as u64,
                &batch[record.index],
                record.matched,
            ) {
                keep_going = false;
                break;
            }
        }
        (report, matched, keep_going)
    })
}

/// Streams `reader` through `re` in span-search mode, invoking
/// `on_line(index, line, spans)` for every processed line with its
/// non-overlapping leftmost-earliest spans (empty = no match).  With
/// `first_span_only` each line's search stops at its first span.  As in
/// [`scan_stream`], the callback returns whether to continue.
///
/// # Errors
///
/// Propagates I/O errors from the reader.
pub fn scan_stream_spans<R, F>(
    re: &SemRegex,
    reader: R,
    options: &StreamOptions,
    first_span_only: bool,
    mut on_line: F,
) -> io::Result<StreamReport>
where
    R: Read + Send,
    F: FnMut(u64, &[u8], &[(usize, usize)]) -> bool,
{
    drive_stream(reader, options, |batch, lines_done, scan_options| {
        let (report, spans) = scan_spans(re, batch, scan_options, first_span_only);
        let mut matched = 0;
        let mut keep_going = true;
        for record in &report.records {
            if record.matched {
                matched += 1;
            }
            if !on_line(
                lines_done + record.index as u64,
                &batch[record.index],
                &spans[record.index],
            ) {
                keep_going = false;
                break;
            }
        }
        (report, matched, keep_going)
    })
}

/// A line-aligned view of one byte range of a seekable reader, for
/// sub-file work stealing: each range of a split file is scanned by an
/// independent [`RangeReader`] and the per-range outputs are reassembled
/// in range order, so the concatenation is byte-identical to one
/// whole-file scan.
///
/// Byte ranges handed out by the scheduler are arbitrary — they split
/// lines.  Ownership is resolved with the same resynchronization trick
/// [`LineChunks`] uses for chunk-straddling lines: a range owns exactly
/// the lines whose **first byte** falls inside `[start, end)`.
///
/// * On open, a reader starting at `start > 0` seeks to `start - 1` and
///   discards through the first `\n` — the line straddling the boundary
///   belongs to the previous range.  (Reading from `start - 1` means a
///   line *ending* exactly at the boundary is recognized without peeking
///   backwards.)
/// * On read, the reader serves bytes through the first `\n` at absolute
///   position `end - 1` or later, then reports EOF.  That newline
///   terminates the last owned line: the next line starts at `>= end`
///   and belongs to the next range.  The final range uses
///   `end = u64::MAX`, so it runs to true EOF even if the file grew
///   after the ranges were planned.
///
/// Every byte of the underlying stream is served by exactly one range,
/// so per-range scans compose into the whole-file scan.  `\r\n` needs no
/// special casing: only `\n` defines line boundaries here, exactly as in
/// [`LineChunks`].
#[derive(Debug)]
pub struct RangeReader<R> {
    inner: R,
    /// Absolute position of the next byte `read` will serve.
    pos: u64,
    /// First byte *not* owned by this range (the closing `\n` of the last
    /// owned line is at `pos >= end - 1`).
    end: u64,
    done: bool,
}

impl<R: Read + Seek> RangeReader<R> {
    /// Opens the view of `[start, end)` over `inner`, resynchronizing to
    /// the first line boundary at or after `start`.
    ///
    /// # Errors
    ///
    /// Propagates seek/read errors from the underlying reader.
    pub fn new(mut inner: R, start: u64, end: u64) -> io::Result<RangeReader<R>> {
        let mut pos = if start == 0 {
            inner.seek(SeekFrom::Start(0))?;
            0
        } else {
            // Scan forward from start - 1 for the first newline; the
            // range's first owned line begins just after it.
            let mut at = inner.seek(SeekFrom::Start(start - 1))?;
            let mut buf = [0u8; 4096];
            loop {
                let n = inner.read(&mut buf)?;
                if n == 0 {
                    break; // no newline until EOF: nothing starts in range
                }
                if let Some(i) = buf[..n].iter().position(|&b| b == b'\n') {
                    at += i as u64 + 1;
                    inner.seek(SeekFrom::Start(at))?;
                    break;
                }
                at += n as u64;
            }
            at
        };
        // An unterminated final line is owned by whichever range its first
        // byte falls in; a resync landing at EOF inside `[start, end)` is
        // simply an empty range.
        if pos >= end {
            pos = end;
        }
        Ok(RangeReader {
            inner,
            pos,
            end,
            done: pos >= end,
        })
    }
}

impl<R: Read> Read for RangeReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.done {
            return Ok(0);
        }
        let n = self.inner.read(buf)?;
        if n == 0 {
            self.done = true; // true EOF before the closing newline
            return Ok(0);
        }
        // Serve freely while every byte read so far precedes `end - 1`;
        // past that, the first newline closes the last owned line.
        let tail_from = self.end.saturating_sub(1);
        if self.pos + n as u64 <= tail_from {
            self.pos += n as u64;
            return Ok(n);
        }
        let search_start = tail_from.saturating_sub(self.pos) as usize;
        match buf[search_start..n].iter().position(|&b| b == b'\n') {
            Some(i) => {
                let served = search_start + i + 1;
                self.pos += served as u64;
                self.done = true;
                Ok(served)
            }
            None => {
                self.pos += n as u64;
                Ok(n)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semre::SimLlmOracle;
    use std::io::Cursor;

    fn regex() -> SemRegex {
        SemRegex::new(
            r"Subject: .*(?<Medicine name>: [a-z]+).*",
            SimLlmOracle::new(),
        )
        .unwrap()
    }

    fn corpus() -> String {
        let mut text = String::new();
        for i in 0..40 {
            match i % 4 {
                0 => text.push_str("Subject: cheap viagra now\n"),
                1 => text.push_str("Subject: weekly report attached\n"),
                2 => text.push_str("nothing to see here\n"),
                _ => text.push_str("Subject: more tramadol deals\n"),
            }
        }
        text
    }

    #[test]
    fn streaming_verdicts_match_in_memory_for_any_chunking() {
        let re = regex();
        let text = corpus();
        let lines: Vec<&str> = text.lines().collect();
        let expected: Vec<bool> = lines.iter().map(|l| re.is_match(l.as_bytes())).collect();
        for chunk_bytes in [1, 7, 26, 64, 1 << 16] {
            for threads in [1, 4] {
                for batched in [false, true] {
                    for read_ahead in [false, true] {
                        let options = StreamOptions {
                            chunk_bytes,
                            read_ahead,
                            scan: ScanOptions {
                                chunk_lines: 8,
                                threads,
                                batched,
                                ..ScanOptions::default()
                            },
                        };
                        let mut got = Vec::new();
                        let report = scan_stream(&re, text.as_bytes(), &options, |i, line, m| {
                            assert_eq!(line, lines[i as usize].as_bytes());
                            got.push(m);
                            true
                        })
                        .unwrap();
                        assert_eq!(
                            got, expected,
                            "chunk={chunk_bytes} threads={threads} read_ahead={read_ahead}"
                        );
                        assert_eq!(report.lines, lines.len() as u64);
                        assert_eq!(
                            report.matched_lines,
                            expected.iter().filter(|&&m| m).count() as u64
                        );
                        assert_eq!(report.bytes, text.len() as u64);
                        assert!(!report.timed_out);
                        if batched {
                            assert!(report.batch.keys_submitted > 0);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn streaming_spans_match_in_memory() {
        let re = SemRegex::new(r"(?<Medicine name>: [a-z]+)", SimLlmOracle::new()).unwrap();
        let text = "take tramadol or ambien daily\nnothing here\nviagra viagra viagra\n";
        let lines: Vec<&str> = text.lines().collect();
        let (_, expected) = scan_spans(&re, &lines, ScanOptions::batched(2), false);
        for chunk_bytes in [3, 17, 4096] {
            for threads in [1, 4] {
                let options = StreamOptions {
                    chunk_bytes,
                    read_ahead: chunk_bytes % 2 == 1,
                    scan: ScanOptions::batched(2).with_threads(threads),
                };
                let mut got: Vec<Vec<(usize, usize)>> = Vec::new();
                scan_stream_spans(&re, text.as_bytes(), &options, false, |_, _, spans| {
                    got.push(spans.to_vec());
                    true
                })
                .unwrap();
                assert_eq!(got, expected, "chunk={chunk_bytes} threads={threads}");
            }
        }
    }

    #[test]
    fn limits_apply_across_batches() {
        let re = regex();
        let text = corpus();
        let limited = StreamOptions {
            chunk_bytes: 16,
            scan: ScanOptions {
                max_lines: Some(5),
                ..ScanOptions::default()
            },
            ..StreamOptions::default()
        };
        let mut seen = 0;
        let report = scan_stream(&re, text.as_bytes(), &limited, |_, _, _| {
            seen += 1;
            true
        })
        .unwrap();
        assert_eq!(seen, 5);
        assert_eq!(report.lines, 5);
        assert!(!report.timed_out);

        let exhausted = StreamOptions {
            scan: ScanOptions::with_time_budget(Duration::ZERO),
            ..StreamOptions::default()
        };
        let report = scan_stream(&re, text.as_bytes(), &exhausted, |_, _, _| {
            panic!("no lines when the budget is zero")
        })
        .unwrap();
        assert_eq!(report.lines, 0);
        assert!(report.timed_out);
    }

    #[test]
    fn callback_cancellation_stops_the_stream() {
        let re = regex();
        let text = corpus();
        let total = text.lines().count() as u64;
        let options = StreamOptions {
            chunk_bytes: 16,
            read_ahead: true,
            ..StreamOptions::default()
        };
        let mut seen = 0u64;
        let report = scan_stream(&re, text.as_bytes(), &options, |_, _, _| {
            seen += 1;
            seen < 3
        })
        .unwrap();
        assert_eq!(seen, 3);
        assert!(
            report.lines < total,
            "cancelled scan still processed all {total} lines"
        );
    }

    #[test]
    fn empty_and_newline_free_inputs() {
        let re = regex();
        let report = scan_stream(&re, &b""[..], &StreamOptions::default(), |_, _, _| {
            panic!("no lines in empty input")
        })
        .unwrap();
        assert_eq!(report.lines, 0);
        assert_eq!(report.rt_total_ms(), 0.0);

        let mut got = Vec::new();
        let report = scan_stream(
            &re,
            &b"Subject: cheap viagra now"[..],
            &StreamOptions {
                chunk_bytes: 4,
                ..StreamOptions::default()
            },
            |_, line, m| {
                got.push((line.to_vec(), m));
                true
            },
        )
        .unwrap();
        assert_eq!(report.lines, 1);
        assert_eq!(got.len(), 1);
        assert!(got[0].1, "missing final newline must not lose the line");
        assert!(report.mb_per_s() >= 0.0);
    }

    /// Reads `reader` to EOF through buffers of `step` bytes, exercising
    /// the partial-read paths of [`RangeReader::read`].
    fn drain(mut reader: impl Read, step: usize) -> Vec<u8> {
        let mut out = Vec::new();
        let mut buf = vec![0u8; step];
        loop {
            let n = reader.read(&mut buf).unwrap();
            if n == 0 {
                return out;
            }
            out.extend_from_slice(&buf[..n]);
        }
    }

    #[test]
    fn range_readers_partition_every_byte_exactly_once() {
        let texts: [&[u8]; 6] = [
            b"alpha\nbeta\ngamma\ndelta\n",
            b"no trailing newline at all",
            b"line\nunterminated tail",
            b"\n\n\n\n",
            b"crlf line\r\nanother\r\n",
            b"",
        ];
        for text in texts {
            for ranges in 1..=6u64 {
                for step in [1usize, 3, 4096] {
                    let stride = ((text.len() as u64) / ranges).max(1);
                    let mut assembled = Vec::new();
                    for k in 0..ranges {
                        let start = k * stride;
                        let end = if k + 1 == ranges {
                            u64::MAX
                        } else {
                            (k + 1) * stride
                        };
                        let reader = RangeReader::new(Cursor::new(text), start, end).unwrap();
                        let part = drain(reader, step);
                        // Every served range is line-aligned: it only ends
                        // mid-line when the input's own tail is unterminated.
                        if !part.is_empty() && end != u64::MAX && text.ends_with(b"\n") {
                            assert_eq!(*part.last().unwrap(), b'\n');
                        }
                        assembled.extend_from_slice(&part);
                    }
                    assert_eq!(assembled, text, "ranges={ranges} step={step} text={text:?}");
                }
            }
        }
    }

    #[test]
    fn range_ownership_follows_line_start() {
        let text = b"0123\n5678\nabcd\n";
        // A boundary mid-line: the straddling line belongs to the range
        // holding its first byte.
        let first = drain(RangeReader::new(Cursor::new(&text[..]), 0, 7).unwrap(), 64);
        let second = drain(
            RangeReader::new(Cursor::new(&text[..]), 7, u64::MAX).unwrap(),
            64,
        );
        assert_eq!(first, b"0123\n5678\n");
        assert_eq!(second, b"abcd\n");
        // A boundary exactly on a line start hands the line to the second
        // range.
        let first = drain(RangeReader::new(Cursor::new(&text[..]), 0, 5).unwrap(), 64);
        let second = drain(
            RangeReader::new(Cursor::new(&text[..]), 5, u64::MAX).unwrap(),
            64,
        );
        assert_eq!(first, b"0123\n");
        assert_eq!(second, b"5678\nabcd\n");
        // A range entirely inside one line owns nothing.
        let long = b"one very long single line without breaks\n";
        let middle = drain(RangeReader::new(Cursor::new(&long[..]), 5, 10).unwrap(), 64);
        assert!(middle.is_empty());
    }

    #[test]
    fn options_for_regex_mirror_the_handle() {
        let re = semre::SemRegexBuilder::new()
            .threads(3)
            .chunk_lines(17)
            .stream_chunk_bytes(123)
            .build("a+", semre::PalindromeOracle)
            .unwrap();
        let options = StreamOptions::for_regex(&re);
        assert_eq!(options.scan.threads, 3);
        assert_eq!(options.scan.chunk_lines, 17);
        assert_eq!(options.chunk_bytes, 123);
        assert!(options.scan.batched);
    }
}

//! The data collector.
//!
//! The paper's Mantra launched expect scripts at frequent intervals to log
//! into each router, dump its tables and ship the text home, then
//! pre-processed the capture (stripping login noise, pagination artifacts,
//! excess whitespace and delimiters). Here the transport is abstracted
//! behind [`ParallelAccess`]; the production implementation in this
//! reproduction is the simulator itself, which "logs into" simulated
//! routers and returns byte-identical CLI text, and [`FlakyAccess`] wraps
//! any access with the failure modes real collection suffered (login
//! refusals, truncated captures).
//!
//! Pre-processing ([`preprocess_bytes`]) keeps the capture as one buffer
//! and selects its effective lines as spans into it. It finds line
//! breaks and carriage returns eight bytes per step with plain integer
//! arithmetic on `u64` words, so each byte of a dump is examined once;
//! only the bytes around a break (leading whitespace, trimming, the
//! noise and prompt filters) are looked at again. The line-at-a-time
//! scanner it replaced is the test-support crate `mantra-oracle`'s
//! `collector::effective_lines`, which `tests/prop_parse.rs` holds it to.

use mantra_net::{SimDuration, SimTime};
use mantra_router_cli::TableKind;

use crate::aggregate::ParallelAccess;

/// Why a capture failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CaptureError {
    /// Could not log in (wrong password, connection refused, router down).
    LoginFailed(String),
    /// The session died mid-dump; a partial capture may still be usable.
    Truncated {
        /// What was captured before the cut — raw bytes, because a
        /// truncation can land mid-way through a multi-byte sequence
        /// (or mid-escape in line noise) and the zero-copy parser
        /// handles such captures byte-exactly; re-encoding through
        /// `String` would lossily rewrite what the wire delivered.
        partial: Vec<u8>,
    },
    /// The router does not expose this table.
    Unsupported,
    /// The named router is unknown to the access layer.
    UnknownRouter(String),
}

impl std::fmt::Display for CaptureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CaptureError::LoginFailed(r) => write!(f, "login failed: {r}"),
            CaptureError::Truncated { .. } => write!(f, "capture truncated"),
            CaptureError::Unsupported => write!(f, "table not supported by router"),
            CaptureError::UnknownRouter(n) => write!(f, "unknown router {n}"),
        }
    }
}

impl std::error::Error for CaptureError {}

/// One effective line of a capture: a byte range into either the raw
/// capture buffer or the rewrite arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct LineSpan {
    start: u32,
    end: u32,
    /// Whether the range indexes the arena (a line that had to be
    /// rewritten, e.g. CR-pagination overwrite) instead of the raw buffer.
    arena: bool,
}

/// A cleaned capture ready for the table processor.
///
/// The raw capture is kept as a single buffer; pre-processing selects the
/// effective lines as byte *spans* into it instead of copying each line
/// into an owned `String`. The rare line that cannot be represented as a
/// contiguous slice of the raw bytes — a carriage-return pagination
/// overwrite that leaves residue from the overwritten text — is composed
/// once into a small per-capture arena and its span points there.
#[derive(Clone, Debug)]
pub struct Capture {
    /// The router the capture came from.
    pub router: String,
    /// Which table was dumped.
    pub kind: TableKind,
    /// Capture timestamp.
    pub captured_at: SimTime,
    /// The raw capture, unmodified.
    raw: Box<[u8]>,
    /// Rewritten lines (CR-overwrite residue), appended back to back.
    arena: Vec<u8>,
    /// Effective lines in capture order: no banners, prompts, pagination
    /// artifacts or blank lines. Leading/trailing ASCII whitespace is
    /// trimmed; interior runs are preserved (the field scanner tolerates
    /// them).
    spans: Vec<LineSpan>,
    /// Size of the raw capture, for storage accounting.
    pub raw_bytes: usize,
}

impl Capture {
    /// The bytes of effective line `i`.
    pub fn line(&self, i: usize) -> &[u8] {
        let s = self.spans[i];
        let buf: &[u8] = if s.arena { &self.arena } else { &self.raw };
        &buf[s.start as usize..s.end as usize]
    }

    /// Iterates the effective lines as byte slices, in capture order.
    pub fn lines(&self) -> impl Iterator<Item = &[u8]> {
        self.spans.iter().map(move |s| {
            let buf: &[u8] = if s.arena { &self.arena } else { &self.raw };
            &buf[s.start as usize..s.end as usize]
        })
    }

    /// Number of effective lines.
    pub fn line_count(&self) -> usize {
        self.spans.len()
    }

    /// True when pre-processing kept no lines.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Drops the final effective line (the salvage path uses this to shed
    /// a torn tail line). The underlying bytes stay in the buffer; only
    /// the span is forgotten.
    pub fn pop_line(&mut self) {
        self.spans.pop();
    }

    /// The effective lines as owned text, lossily decoded — for tests,
    /// debugging and the string parser in the test-support crate
    /// `mantra-oracle`; the hot path stays on [`Capture::lines`].
    pub fn text_lines(&self) -> Vec<String> {
        self.lines()
            .map(|l| String::from_utf8_lossy(l).into_owned())
            .collect()
    }
}

/// Captures compare by what the processor sees: origin, timestamp, size
/// accounting and effective line bytes — not by how the spans happen to
/// partition between the raw buffer and the arena.
impl PartialEq for Capture {
    fn eq(&self, other: &Self) -> bool {
        self.router == other.router
            && self.kind == other.kind
            && self.captured_at == other.captured_at
            && self.raw_bytes == other.raw_bytes
            && self.line_count() == other.line_count()
            && self.lines().eq(other.lines())
    }
}

impl Eq for Capture {}

/// Pre-processes a raw capture: the paper's "removing unwanted
/// information, excess white-spaces and delimiters". Delegates to
/// [`preprocess_bytes`]; text callers pay one buffer copy, nothing
/// per line.
pub fn preprocess(router: &str, kind: TableKind, raw: &str, now: SimTime) -> Capture {
    preprocess_bytes(router, kind, raw.as_bytes().to_vec(), now)
}

/// ASCII whitespace as the capture scanner sees it (plus vertical tab,
/// which terminals treat as blank).
#[inline]
fn is_ws(b: u8) -> bool {
    b.is_ascii_whitespace() || b == 0x0b
}

/// Trims ASCII whitespace from both ends of a range into `buf`.
#[inline]
fn trim_range(buf: &[u8], mut start: usize, mut end: usize) -> (usize, usize) {
    while start < end && is_ws(buf[start]) {
        start += 1;
    }
    while end > start && is_ws(buf[end - 1]) {
        end -= 1;
    }
    (start, end)
}

/// The offset of the first `\n` or `\r` at or after `from`, found eight
/// bytes per step: each word is XORed with both breaks, so a break byte
/// becomes a zero byte, and `(x & 0x7f) + 0x7f | x` keeps a byte's high
/// bit exactly when the byte is non-zero — no carry crosses into the next
/// byte, so the lowest cleared high bit (the first byte in a
/// little-endian word) is the first break.
fn next_break(buf: &[u8], from: usize) -> Option<usize> {
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    const LF: u64 = 0x0a0a_0a0a_0a0a_0a0a;
    const CR: u64 = 0x0d0d_0d0d_0d0d_0d0d;
    let nonzero = |x: u64| ((x & LOW7) + LOW7) | x;
    let mut words = buf[from..].chunks_exact(8);
    let mut at = from;
    for word in &mut words {
        let w = u64::from_le_bytes(word.try_into().expect("eight-byte chunk"));
        let breaks = !(nonzero(w ^ LF) & nonzero(w ^ CR) | LOW7);
        if breaks != 0 {
            return Some(at + (breaks.trailing_zeros() / 8) as usize);
        }
        at += 8;
    }
    words
        .remainder()
        .iter()
        .position(|&b| b == b'\n' || b == b'\r')
        .map(|p| at + p)
}

/// Pre-processes a raw capture in a single pass over its bytes, selecting
/// effective lines as spans into the buffer.
///
/// The scan jumps from break to break (`next_break`, a word at a time),
/// so each byte is examined once. A physical line ends at `\n`; within
/// it, carriage returns replay as a terminal would: a `--More--`
/// pagination segment is never printed, a CR-segment at least as long as
/// what is on screen replaces it wholly (still a span into the raw buffer
/// — the common case), and a *shorter* segment overwrites only a prefix,
/// leaving residue from the overwritten text; that composed line is the
/// one escape into the per-capture arena. Surviving lines are
/// ASCII-trimmed, then telnet/session noise (`Trying `/`Connected
/// to`/`Escape character`) and prompt echoes (`name>` / `name#`) drop.
/// Interior whitespace runs are preserved; the parsers' field scanners
/// tolerate them.
pub fn preprocess_bytes(router: &str, kind: TableKind, raw: Vec<u8>, now: SimTime) -> Capture {
    enum Buf {
        /// A contiguous range of the raw buffer.
        Span(usize, usize),
        /// A line composed by a partial CR overwrite.
        Owned(Vec<u8>),
    }
    let raw: Box<[u8]> = raw.into_boxed_slice();
    let rbytes = raw.len();
    let mut spans: Vec<LineSpan> = Vec::new();
    let mut arena: Vec<u8> = Vec::new();
    let prompt = router.as_bytes();

    // What the current physical line shows so far.
    let mut cur = Buf::Span(0, 0);
    let mut seg_start = 0usize;
    loop {
        let brk = next_break(&raw, seg_start);
        let seg_end = brk.unwrap_or(rbytes);
        let seg = &raw[seg_start..seg_end];
        let shown = seg.iter().position(|&b| !is_ws(b)).unwrap_or(seg.len());
        if seg[shown..].starts_with(b"--More--") {
            // The pager's own marker: erased before anything else
            // prints, so it never reaches the screen.
        } else {
            let cur_len = match &cur {
                Buf::Span(s, e) => e - s,
                Buf::Owned(v) => v.len(),
            };
            if seg.len() >= cur_len {
                cur = Buf::Span(seg_start, seg_end);
            } else if !seg.is_empty() {
                // Partial overwrite: compose the residue line.
                let mut v = match cur {
                    Buf::Span(s, e) => raw[s..e].to_vec(),
                    Buf::Owned(v) => v,
                };
                v[..seg.len()].copy_from_slice(seg);
                cur = Buf::Owned(v);
            }
        }
        seg_start = seg_end + 1;
        if brk.is_some_and(|p| raw[p] == b'\r') {
            continue;
        }

        // The physical line ended: trim, then filter session noise and
        // prompt echoes.
        let line = std::mem::replace(&mut cur, Buf::Span(seg_start, seg_start));
        let kept = match line {
            Buf::Span(s, e) => {
                let (s, e) = trim_range(&raw, s, e);
                keep_line(&raw[s..e], prompt).then_some(LineSpan {
                    start: s as u32,
                    end: e as u32,
                    arena: false,
                })
            }
            Buf::Owned(v) => {
                let (s, e) = trim_range(&v, 0, v.len());
                let line = &v[s..e];
                keep_line(line, prompt).then(|| {
                    let start = arena.len() as u32;
                    arena.extend_from_slice(line);
                    LineSpan {
                        start,
                        end: arena.len() as u32,
                        arena: true,
                    }
                })
            }
        };
        spans.extend(kept);
        if brk.is_none() {
            break;
        }
    }

    Capture {
        router: router.to_string(),
        kind,
        captured_at: now,
        raw,
        arena,
        spans,
        raw_bytes: rbytes,
    }
}

/// Whether a trimmed effective line survives pre-processing: drops blank
/// lines, telnet/session noise and prompt/command echoes in both the
/// user-exec (`name>`) and privileged (`name#`) forms.
fn keep_line(line: &[u8], prompt: &[u8]) -> bool {
    if line.is_empty() {
        return false;
    }
    if line.starts_with(b"Trying ")
        || line.starts_with(b"Connected to")
        || line.starts_with(b"Escape character")
    {
        return false;
    }
    if line.len() > prompt.len()
        && line.starts_with(prompt)
        && matches!(line[prompt.len()], b'>' | b'#')
    {
        return false;
    }
    true
}

/// Failure-injection decorator: with deterministic pseudo-randomness (keyed
/// on router, table and timestamp), captures fail to log in or come back
/// truncated.
pub struct FlakyAccess<A> {
    inner: A,
    /// Probability of a login failure per capture.
    pub login_failure_prob: f64,
    /// Probability of a truncated capture per capture.
    pub truncation_prob: f64,
    salt: u64,
}

impl<A> FlakyAccess<A> {
    /// Wraps `inner` with the given failure rates.
    pub fn new(inner: A, login_failure_prob: f64, truncation_prob: f64, salt: u64) -> Self {
        FlakyAccess {
            inner,
            login_failure_prob,
            truncation_prob,
            salt,
        }
    }

    fn hash01(&self, router: &str, table: TableKind, now: SimTime, stream: u64) -> f64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.salt.hash(&mut h);
        router.hash(&mut h);
        table.hash(&mut h);
        now.as_secs().hash(&mut h);
        stream.hash(&mut h);
        (h.finish() >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl<A: ParallelAccess> ParallelAccess for FlakyAccess<A> {
    /// Rolls a login failure, then captures and rolls a truncation. The
    /// cut always drops at least the final character, so a "partial"
    /// capture is never silently the full text.
    fn capture(
        &self,
        router: &str,
        table: TableKind,
        now: SimTime,
    ) -> Result<String, CaptureError> {
        if self.hash01(router, table, now, 1) < self.login_failure_prob {
            return Err(CaptureError::LoginFailed("connection refused".into()));
        }
        let full = self.inner.capture(router, table, now)?;
        let r = self.hash01(router, table, now, 2);
        if r < self.truncation_prob {
            let keep = (full.len() as f64 * (0.1 + 0.8 * r / self.truncation_prob)) as usize;
            // A session dying mid-transfer cuts at an arbitrary *byte* —
            // it has no idea where UTF-8 sequences end. The partial is
            // carried as bytes, so no boundary adjustment is needed (or
            // wanted: snapping to a char boundary would misrepresent
            // what the wire delivered). ASCII dumps cut identically to
            // the old char-boundary logic.
            let cut = keep.min(full.len().saturating_sub(1));
            let mut partial = full.into_bytes();
            partial.truncate(cut);
            return Err(CaptureError::Truncated { partial });
        }
        Ok(full)
    }
}

/// Bounded-retry policy for transient capture failures.
///
/// The paper's cron-driven expect scripts simply lost a cycle when a login
/// was refused or a dump died mid-transfer; the resilient collector retries
/// such captures a bounded number of times with exponential backoff. The
/// jitter is deterministic — keyed on `(salt, router, table, cycle, attempt)`
/// exactly like [`FlakyAccess`] keys its failure rolls — so any scenario
/// replays bit-for-bit.
#[derive(Clone, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Total capture attempts per table per cycle (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub base_backoff: SimDuration,
    /// Upper bound on any single backoff.
    pub max_backoff: SimDuration,
    /// Fraction of each backoff randomised away (0.0 = fixed backoff,
    /// 0.5 = uniform over the upper half of the exponential schedule).
    pub jitter: f64,
    /// Jitter hash salt.
    pub salt: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: SimDuration::secs(2),
            max_backoff: SimDuration::secs(60),
            jitter: 0.5,
            salt: 0x4d414e545241, // "MANTRA"
        }
    }
}

impl RetryPolicy {
    /// The seed behaviour: one attempt, no retries.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// The backoff to wait after failed attempt number `attempt` (1-based)
    /// of capturing `table` from `router` in the cycle that started at
    /// `cycle`. Always at least one second, so a retried capture lands on
    /// a fresh timestamp (and [`FlakyAccess`] re-rolls its failures).
    pub fn backoff(
        &self,
        router: &str,
        table: TableKind,
        cycle: SimTime,
        attempt: u32,
    ) -> SimDuration {
        use std::hash::{Hash, Hasher};
        let exp = self
            .base_backoff
            .as_secs()
            .saturating_mul(1u64 << (attempt.min(32) - 1).min(62))
            .min(self.max_backoff.as_secs());
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.salt.hash(&mut h);
        router.hash(&mut h);
        table.hash(&mut h);
        cycle.as_secs().hash(&mut h);
        attempt.hash(&mut h);
        let r = (h.finish() >> 11) as f64 / (1u64 << 53) as f64;
        let jittered = exp as f64 * (1.0 - self.jitter.clamp(0.0, 1.0) * r);
        SimDuration::secs((jittered as u64).max(1))
    }
}

/// Per-call collection accounting, the raw material for the monitor's
/// health registry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CollectStats {
    /// Tables captured in full.
    pub successes: u64,
    /// Tables whose final attempt still failed (salvaged or not).
    pub failures: u64,
    /// Retry attempts issued (attempts beyond the first per table).
    pub retries: u64,
    /// Tables that failed at least once and then captured in full.
    pub retry_successes: u64,
    /// Tables recovered from a truncated partial.
    pub salvaged: u64,
    /// Raw bytes captured (full and salvaged partials).
    pub raw_bytes: u64,
    /// Total backoff waited — the collection latency added by retries.
    pub backoff: SimDuration,
}

/// The collector: captures and pre-processes a configured set of tables,
/// tolerating per-table failures.
pub struct Collector {
    /// Tables to capture each cycle.
    pub tables: Vec<TableKind>,
    /// Retry policy applied to transient capture failures.
    pub retry: RetryPolicy,
    /// Not counted by the engine, which reads capture counts from each
    /// router's health ([`crate::Monitor::capture_failures`]); kept while
    /// the benchmark (`perfbench/`) counts into it.
    pub failures: u64,
    /// Not counted by the engine; kept while the benchmark counts into
    /// it.
    pub successes: u64,
}

impl Default for Collector {
    fn default() -> Self {
        Collector {
            tables: TableKind::ALL.to_vec(),
            retry: RetryPolicy::default(),
            failures: 0,
            successes: 0,
        }
    }
}

impl Collector {
    /// A collector for the full table set with the default retry policy.
    pub fn new() -> Self {
        Collector::default()
    }

    /// A collector with the given retry policy.
    pub fn with_retry(retry: RetryPolicy) -> Self {
        Collector {
            retry,
            ..Collector::default()
        }
    }

    /// Captures every configured table from `router`, retrying transient
    /// failures per [`Collector::retry`]. Stateless (`&self`) so cycles
    /// over different routers can run concurrently; the caller folds the
    /// returned [`CollectStats`] wherever it keeps running counters.
    ///
    /// Transient errors ([`CaptureError::LoginFailed`],
    /// [`CaptureError::Truncated`]) are retried with backoff; permanent
    /// ones ([`CaptureError::Unsupported`],
    /// [`CaptureError::UnknownRouter`]) fail immediately. A table whose
    /// final attempt is still truncated is salvaged from the longest
    /// partial seen across attempts, as the real tool did with
    /// half-transferred dumps.
    pub fn collect_with<P: ParallelAccess + ?Sized>(
        &self,
        access: &P,
        router: &str,
        now: SimTime,
    ) -> (Vec<Capture>, CollectStats) {
        let mut out = Vec::with_capacity(self.tables.len());
        let mut stats = CollectStats::default();
        let max_attempts = self.retry.max_attempts.max(1);
        for kind in &self.tables {
            let kind = *kind;
            let mut best_partial: Option<Vec<u8>> = None;
            let mut full: Option<String> = None;
            let mut waited = SimDuration::ZERO;
            for attempt in 1..=max_attempts {
                if attempt > 1 {
                    stats.retries += 1;
                }
                match access.capture(router, kind, now + waited) {
                    Ok(raw) => {
                        if attempt > 1 {
                            stats.retry_successes += 1;
                        }
                        full = Some(raw);
                        break;
                    }
                    Err(CaptureError::Truncated { partial }) => {
                        if best_partial
                            .as_ref()
                            .is_none_or(|b| partial.len() > b.len())
                        {
                            best_partial = Some(partial);
                        }
                    }
                    Err(CaptureError::LoginFailed(_)) => {}
                    // Permanent: retrying cannot help.
                    Err(CaptureError::Unsupported) | Err(CaptureError::UnknownRouter(_)) => break,
                }
                if attempt < max_attempts {
                    waited += self.retry.backoff(router, kind, now, attempt);
                }
            }
            stats.backoff += waited;
            match (full, best_partial) {
                (Some(raw), _) => {
                    stats.successes += 1;
                    stats.raw_bytes += raw.len() as u64;
                    out.push(preprocess(router, kind, &raw, now));
                }
                (None, Some(partial)) => {
                    stats.failures += 1;
                    let torn_tail = partial.last() != Some(&b'\n');
                    let plen = partial.len() as u64;
                    // Straight into the byte pre-processor: the partial
                    // never detours through `String`, so a cut that lands
                    // mid-way through a multi-byte sequence reaches the
                    // parser byte-exact.
                    let mut cap = preprocess_bytes(router, kind, partial, now);
                    // The tail line is half-transferred only when the cut
                    // fell mid-line; a partial ending in a newline lost
                    // whole lines, not half of one.
                    if torn_tail {
                        cap.pop_line();
                    }
                    if !cap.is_empty() {
                        stats.salvaged += 1;
                        stats.raw_bytes += plen;
                        out.push(cap);
                    }
                }
                (None, None) => {
                    stats.failures += 1;
                }
            }
        }
        (out, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mantra_net::SimDuration;
    use mantra_sim::Scenario;

    fn t0() -> SimTime {
        SimTime::from_ymd(1998, 11, 1)
    }

    #[test]
    fn preprocess_strips_noise() {
        let raw = "Trying 1.2.3.4...\r\nConnected to ucsb-gw.\r\nEscape character is '^]'.\r\n\r\nDVMRP Routing Table (2 entries)\n Origin-Subnet      From-Gateway\n 10.0.0.0/8     \t  10.1.2.3\n --More-- \r        \r 11.0.0.0/8       direct\n\r\nucsb-gw> ";
        let cap = preprocess("ucsb-gw", TableKind::DvmrpRoutes, raw, t0());
        assert_eq!(
            cap.text_lines(),
            vec![
                "DVMRP Routing Table (2 entries)",
                "Origin-Subnet      From-Gateway",
                "10.0.0.0/8     \t  10.1.2.3",
                "11.0.0.0/8       direct",
            ]
        );
        assert_eq!(cap.raw_bytes, raw.len());
    }

    #[test]
    fn preprocess_composes_cr_overwrite_residue() {
        // A shorter CR segment overwrites only a prefix of what is on
        // screen, leaving residue from the longer text — the one case the
        // span representation must materialise into the arena.
        let raw = "524288 bytes\rHello\ntail line\n";
        let cap = preprocess("r", TableKind::DvmrpRoutes, raw, t0());
        assert_eq!(cap.text_lines(), vec!["Hello8 bytes", "tail line"]);
        // An equal-or-longer rewrite stays a pure span (wholesale replace).
        let raw = "--More-- \r        \rfresh text\n";
        let cap = preprocess("r", TableKind::DvmrpRoutes, raw, t0());
        assert_eq!(cap.text_lines(), vec!["fresh text"]);
    }

    #[test]
    fn preprocess_strips_ios_command_echo() {
        let raw = "fixw#show ip mroute count\nIP Multicast Statistics\n3 routes using 456 bytes of memory\nfixw> ";
        let cap = preprocess("fixw", TableKind::ForwardingCache, raw, t0());
        assert_eq!(cap.line(0), b"IP Multicast Statistics");
        assert_eq!(cap.line_count(), 2);
    }

    #[test]
    fn simulation_capture_round_trip() {
        let mut sc = Scenario::transition_snapshot(6, 0.5);
        sc.sim.advance_to(sc.sim.clock + SimDuration::hours(3));
        let now = sc.sim.clock;
        let raw = sc.sim.capture("fixw", TableKind::DvmrpRoutes, now).unwrap();
        assert!(raw.contains("DVMRP"));
        assert!(matches!(
            sc.sim.capture("nosuch", TableKind::DvmrpRoutes, now),
            Err(CaptureError::UnknownRouter(_))
        ));
    }

    #[test]
    fn collector_counts_and_salvages() {
        let mut sc = Scenario::transition_snapshot(8, 0.5);
        sc.sim.advance_to(sc.sim.clock + SimDuration::hours(3));
        let now = sc.sim.clock;
        // Heavy failure injection.
        let access = FlakyAccess::new(&sc.sim, 0.4, 0.4, 7);
        let collector = Collector::new();
        let mut captures = Vec::new();
        let (mut failures, mut successes) = (0, 0);
        for i in 0..20 {
            let (caps, s) = collector.collect_with(&access, "fixw", now + SimDuration::mins(i));
            captures.extend(caps);
            failures += s.failures;
            successes += s.successes;
        }
        assert!(failures > 0, "failures injected");
        assert!(successes > 0, "some captures survive");
        // Salvaged truncations still produced clean lines.
        assert!(captures.iter().all(|c| !c.is_empty()));
    }

    #[test]
    fn preprocess_strips_user_exec_command_echo() {
        // Echoes in the user-exec form (`name> command`) must strip like
        // the privileged form (`name#command`) already did.
        let raw = "fixw> show ip dvmrp route\nDVMRP Routing Table\nfixw> ";
        let cap = preprocess("fixw", TableKind::DvmrpRoutes, raw, t0());
        assert_eq!(cap.text_lines(), vec!["DVMRP Routing Table"]);
    }

    /// Fails every capture with a login refusal until `fail_first` calls
    /// have been made for a table, then delegates.
    struct FailFirst<A> {
        inner: A,
        fail_first: u32,
        calls: std::sync::Mutex<std::collections::HashMap<TableKind, u32>>,
    }

    impl<A: ParallelAccess> ParallelAccess for FailFirst<A> {
        fn capture(
            &self,
            router: &str,
            table: TableKind,
            now: SimTime,
        ) -> Result<String, CaptureError> {
            let calls = {
                let mut calls = self.calls.lock().expect("no capture panicked");
                let c = calls.entry(table).or_insert(0);
                *c += 1;
                *c
            };
            if calls <= self.fail_first {
                return Err(CaptureError::LoginFailed("refused".into()));
            }
            self.inner.capture(router, table, now)
        }
    }

    #[test]
    fn retry_recovers_transient_failures() {
        let mut sc = Scenario::transition_snapshot(11, 0.3);
        sc.sim.advance_to(sc.sim.clock + SimDuration::hours(2));
        let now = sc.sim.clock;
        let n = TableKind::ALL.len() as u64;

        // Two refusals per table: a 3-attempt policy recovers everything.
        let access = FailFirst {
            inner: &sc.sim,
            fail_first: 2,
            calls: Default::default(),
        };
        let collector = Collector::new();
        let (caps, stats) = collector.collect_with(&access, "fixw", now);
        assert_eq!(caps.len() as u64, n);
        assert_eq!(stats.successes, n);
        assert_eq!(stats.failures, 0);
        assert_eq!(stats.retries, 2 * n);
        assert_eq!(stats.retry_successes, n);
        assert!(stats.backoff > SimDuration::ZERO);

        // The same access without retries loses every capture.
        let access = FailFirst {
            inner: &sc.sim,
            fail_first: 2,
            calls: Default::default(),
        };
        let collector = Collector::with_retry(RetryPolicy::none());
        let (caps, stats) = collector.collect_with(&access, "fixw", now);
        assert!(caps.is_empty());
        assert_eq!(stats.failures, n);
        assert_eq!(stats.retries, 0);
    }

    #[test]
    fn unknown_router_is_not_retried() {
        let sc = Scenario::transition_snapshot(12, 0.0);
        let now = sc.sim.clock;
        let collector = Collector::new();
        let (caps, stats) = collector.collect_with(&sc.sim, "ghost", now);
        assert!(caps.is_empty());
        assert_eq!(stats.failures, TableKind::ALL.len() as u64);
        // One attempt per table: permanent errors short-circuit the retry
        // loop.
        assert_eq!(stats.retries, 0);
    }

    /// Always returns the same truncated partial.
    struct AlwaysTruncated(Vec<u8>);

    impl ParallelAccess for AlwaysTruncated {
        fn capture(
            &self,
            _router: &str,
            _table: TableKind,
            _now: SimTime,
        ) -> Result<String, CaptureError> {
            Err(CaptureError::Truncated {
                partial: self.0.clone(),
            })
        }
    }

    #[test]
    fn salvage_drops_tail_line_only_when_torn() {
        let collector = Collector::with_retry(RetryPolicy::none());

        // Cut mid-line: the torn tail line goes.
        let access = AlwaysTruncated(b"alpha one\nbeta tw".to_vec());
        let (caps, stats) = collector.collect_with(&access, "fixw", t0());
        assert_eq!(stats.salvaged, TableKind::ALL.len() as u64);
        for cap in &caps {
            assert_eq!(cap.text_lines(), vec!["alpha one"]);
        }

        // Cut on a line boundary: every captured line is whole and kept.
        let access = AlwaysTruncated(b"alpha one\nbeta two\n".to_vec());
        let (caps, _) = collector.collect_with(&access, "fixw", t0());
        for cap in &caps {
            assert_eq!(cap.text_lines(), vec!["alpha one", "beta two"]);
        }
    }

    #[test]
    fn salvage_preserves_non_utf8_partials_byte_exactly() {
        // A truncation that lands mid-way through a multi-byte UTF-8
        // sequence (here: a Latin-1 0xA0 splice followed by a cut
        // 2-byte sequence) must reach the parser byte-exact. The old
        // String-carrying path lossily re-encoded these bytes as
        // U+FFFD, so the salvaged line bytes differed from what the
        // wire delivered.
        let collector = Collector::with_retry(RetryPolicy::none());
        let raw: Vec<u8> = b"alpha\xA0one\nbeta two\ngamma \xC3".to_vec();
        let access = AlwaysTruncated(raw.clone());
        let (caps, stats) = collector.collect_with(&access, "fixw", t0());
        assert_eq!(stats.salvaged, TableKind::ALL.len() as u64);
        for cap in &caps {
            // The torn tail line ("gamma \xC3") drops; the kept lines
            // carry the raw bytes, 0xA0 splice included.
            assert_eq!(cap.line_count(), 2);
            assert_eq!(cap.line(0), b"alpha\xA0one".as_slice());
            assert_eq!(cap.line(1), b"beta two".as_slice());
        }
        // And the accounting charges the bytes actually captured.
        let (_, stats2) = collector.collect_with(&access, "fixw", t0());
        assert_eq!(
            stats2.raw_bytes,
            raw.len() as u64 * TableKind::ALL.len() as u64
        );
    }

    #[test]
    fn truncation_never_returns_full_text() {
        let mut sc = Scenario::transition_snapshot(13, 0.4);
        sc.sim.advance_to(sc.sim.clock + SimDuration::hours(4));
        let now = sc.sim.clock;
        let flaky = FlakyAccess::new(&sc.sim, 0.0, 1.0, 5);
        for i in 0..30 {
            let t = now + SimDuration::mins(i);
            let full = sc.sim.capture("fixw", TableKind::DvmrpRoutes, t).unwrap();
            match flaky.capture("fixw", TableKind::DvmrpRoutes, t) {
                Err(CaptureError::Truncated { partial }) => {
                    assert!(
                        partial.len() < full.len(),
                        "partial must be a strict prefix"
                    );
                }
                other => panic!("expected truncation, got {other:?}"),
            }
        }
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let p = RetryPolicy::default();
        let q = RetryPolicy {
            salt: 1,
            ..RetryPolicy::default()
        };
        let mut differs = false;
        for attempt in 1..=8 {
            let b = p.backoff("fixw", TableKind::DvmrpRoutes, t0(), attempt);
            assert_eq!(b, p.backoff("fixw", TableKind::DvmrpRoutes, t0(), attempt));
            assert!(b.as_secs() >= 1);
            assert!(b <= p.max_backoff);
            differs |= b != q.backoff("fixw", TableKind::DvmrpRoutes, t0(), attempt);
        }
        assert!(differs, "different salts give different jitter");
    }

    #[test]
    fn flaky_access_is_deterministic() {
        let mut sc = Scenario::transition_snapshot(9, 0.0);
        sc.sim.advance_to(sc.sim.clock + SimDuration::hours(1));
        let now = sc.sim.clock;
        let run = |salt: u64| {
            let access = FlakyAccess::new(&sc.sim, 0.5, 0.0, salt);
            (0..10)
                .map(|i| {
                    access
                        .capture("fixw", TableKind::DvmrpRoutes, now + SimDuration::mins(i))
                        .is_ok()
                })
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }
}

//! A tiny deterministic token codec for durable artifacts: on-disk EDA
//! cache entries and shard checkpoint records.
//!
//! # Format
//!
//! A payload is a single line of space-separated tokens:
//!
//! * integers — plain decimal (`u64`, `u32`, `i64`, `i128`);
//! * floats — their IEEE-754 bit pattern as a decimal `u64`, so values
//!   round-trip *exactly* (the fixed-precision JSON renderer in
//!   [`crate::json`] is lossy by design and unusable here);
//! * booleans — `0` / `1`;
//! * strings — a `$` sigil followed by a percent-encoding that escapes
//!   whitespace, `%` and every non-ASCII-printable byte, so any string
//!   (logs with newlines included) stays a single token.
//!
//! Decoding is **total**: every reader method returns `Option`, and a
//! `None` anywhere means the artifact is corrupt — callers treat that
//! as a cache miss / checkpoint truncation, never a panic. Integrity is
//! layered on top by [`seal`]ing a payload with its [`fnv64`] checksum.
//!
//! The format carries no self-description beyond what the caller
//! writes; both sides share a schema version in their headers and bump
//! it on layout changes.

use crate::metrics::{Histogram, MetricValue, MetricsRegistry};
use crate::recorder::{AttrValue, RunJournal, SpanEvent};

const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over `bytes` — the checksum durable artifacts pair
/// with their payloads.
#[must_use]
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = FNV64_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV64_PRIME);
    }
    h
}

/// Seals a payload into a checksummed record,
/// `"{fnv64(payload):016x} {payload}"`. Every variable field of a
/// durable record belongs inside the payload, so no byte outside the
/// checksum can change what the record means.
#[must_use]
pub fn seal(payload: &str) -> String {
    format!("{:016x} {payload}", fnv64(payload.as_bytes()))
}

/// Opens a [`seal`]ed record: the payload when `record` is exactly 16
/// hex digits, a space, and a payload that matches them; `None` for
/// anything else.
#[must_use]
pub fn unseal(record: &str) -> Option<&str> {
    let sum = record.get(..16)?;
    let payload = record.get(16..)?.strip_prefix(' ')?;
    let well_formed = sum.bytes().all(|b| b.is_ascii_hexdigit());
    (well_formed && u64::from_str_radix(sum, 16).ok()? == fnv64(payload.as_bytes()))
        .then_some(payload)
}

/// `true` for bytes a string token may carry unescaped.
const fn plain(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b'~' | b':' | b'/' | b',' | b';')
}

/// [`plain`] as a table, indexed by byte.
const PLAIN: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = plain(b as u8);
        b += 1;
    }
    table
};

/// Uppercase hex digits of a `%XX` escape.
const HEX: &[u8; 16] = b"0123456789ABCDEF";

/// Appends `bytes` percent-escaped: [`plain`] bytes as they are, every
/// other byte as `%XX` (uppercase hex). The output is ASCII.
fn escape_into(out: &mut Vec<u8>, bytes: &[u8]) {
    for &b in bytes {
        if PLAIN[usize::from(b)] {
            out.push(b);
        } else {
            out.extend_from_slice(&[b'%', HEX[usize::from(b >> 4)], HEX[usize::from(b & 0xf)]]);
        }
    }
}

/// Builds a payload by appending tokens. Every token is formatted
/// straight into the payload buffer: no per-token or per-byte
/// temporary strings.
#[derive(Debug, Default)]
pub struct Writer {
    /// Always ASCII: every token writes only ASCII bytes.
    out: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Starts a token: the separating space, unless it is the first.
    fn sep(&mut self) {
        if !self.out.is_empty() {
            self.out.push(b' ');
        }
    }

    /// Appends an integer token in decimal, formatted in place.
    fn int(&mut self, v: impl std::fmt::Display) {
        use std::io::Write as _;
        self.sep();
        // Writing into a `Vec` cannot fail.
        let _ = write!(self.out, "{v}");
    }

    /// Appends an unsigned integer token.
    pub fn u64(&mut self, v: u64) {
        self.int(v);
    }

    /// Appends a `u32` token.
    pub fn u32(&mut self, v: u32) {
        self.u64(u64::from(v));
    }

    /// Appends a signed integer token.
    pub fn i64(&mut self, v: i64) {
        self.int(v);
    }

    /// Appends an `i128` token (histogram sums).
    pub fn i128(&mut self, v: i128) {
        self.int(v);
    }

    /// Appends a float as its exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a boolean token.
    pub fn bool(&mut self, v: bool) {
        self.sep();
        self.out.push(if v { b'1' } else { b'0' });
    }

    /// Appends a string token (`$`-sigiled, percent-escaped).
    pub fn str(&mut self, s: &str) {
        self.sep();
        self.out.push(b'$');
        escape_into(&mut self.out, s.as_bytes());
    }

    /// The accumulated payload.
    #[must_use]
    pub fn payload(&self) -> &str {
        std::str::from_utf8(&self.out).expect("codec tokens are ASCII")
    }

    /// Consumes the writer, returning the payload.
    #[must_use]
    pub fn finish(self) -> String {
        String::from_utf8(self.out).expect("codec tokens are ASCII")
    }
}

/// Reads tokens back out of a payload. Every method returns `None` on
/// malformed input — corruption is data, not a panic.
#[derive(Debug)]
pub struct Reader<'a> {
    toks: std::str::SplitAsciiWhitespace<'a>,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `payload`.
    #[must_use]
    pub fn new(payload: &'a str) -> Reader<'a> {
        Reader {
            toks: payload.split_ascii_whitespace(),
        }
    }

    /// Next unsigned integer.
    pub fn u64(&mut self) -> Option<u64> {
        self.toks.next()?.parse().ok()
    }

    /// Next `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.toks.next()?.parse().ok()
    }

    /// Next signed integer.
    pub fn i64(&mut self) -> Option<i64> {
        self.toks.next()?.parse().ok()
    }

    /// Next `i128`.
    pub fn i128(&mut self) -> Option<i128> {
        self.toks.next()?.parse().ok()
    }

    /// Next float (from its bit pattern).
    pub fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    /// Next boolean.
    pub fn bool(&mut self) -> Option<bool> {
        match self.toks.next()? {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        }
    }

    /// Next string token.
    pub fn str(&mut self) -> Option<String> {
        let tok = self.toks.next()?.strip_prefix('$')?;
        let bytes = tok.as_bytes();
        let mut out = Vec::with_capacity(bytes.len());
        let mut i = 0;
        while i < bytes.len() {
            if bytes[i] == b'%' {
                let hex = tok.get(i + 1..i + 3)?;
                out.push(u8::from_str_radix(hex, 16).ok()?);
                i += 3;
            } else {
                out.push(bytes[i]);
                i += 1;
            }
        }
        String::from_utf8(out).ok()
    }

    /// `true` when every token has been consumed — decoders call this
    /// last so trailing garbage is detected.
    pub fn at_end(&mut self) -> bool {
        self.toks.next().is_none()
    }
}

/// A length guard for decoded collections: checkpoint/cache payloads
/// are checksummed, so a huge length is corruption (or an attack), not
/// data — refuse to allocate for it.
const MAX_ITEMS: u64 = 1 << 20;

fn checked_len(n: u64) -> Option<usize> {
    (n <= MAX_ITEMS).then_some(n as usize)
}

/// Encodes a histogram's exact merge state.
pub fn encode_histogram(w: &mut Writer, h: &Histogram) {
    let bounds = h.bounds();
    w.u64(bounds.len() as u64);
    for b in &bounds {
        w.f64(*b);
    }
    for b in h.buckets() {
        w.u64(*b);
    }
    w.u64(h.count());
    w.i128(h.sum_micros());
}

/// Decodes a histogram; `None` on any malformation.
pub fn decode_histogram(r: &mut Reader<'_>) -> Option<Histogram> {
    let nbounds = checked_len(r.u64()?)?;
    let mut bounds = Vec::with_capacity(nbounds);
    for _ in 0..nbounds {
        bounds.push(r.f64()?);
    }
    let mut buckets = Vec::with_capacity(nbounds + 1);
    for _ in 0..=nbounds {
        buckets.push(r.u64()?);
    }
    let count = r.u64()?;
    let sum_micros = r.i128()?;
    Histogram::from_parts(&bounds, buckets, count, sum_micros)
}

/// Encodes a full metrics registry (snapshot order, so deterministic).
pub fn encode_metrics(w: &mut Writer, m: &MetricsRegistry) {
    let series = m.snapshot();
    w.u64(series.len() as u64);
    for (key, value) in &series {
        w.str(&key.name);
        w.u64(key.labels.len() as u64);
        for (k, v) in &key.labels {
            w.str(k);
            w.str(v);
        }
        match value {
            MetricValue::Counter(c) => {
                w.u64(0);
                w.u64(*c);
            }
            MetricValue::Gauge(g) => {
                w.u64(1);
                w.f64(*g);
            }
            MetricValue::Histogram(h) => {
                w.u64(2);
                encode_histogram(w, h);
            }
        }
    }
}

/// Decodes a metrics registry; `None` on any malformation.
pub fn decode_metrics(r: &mut Reader<'_>) -> Option<MetricsRegistry> {
    let mut m = MetricsRegistry::new();
    let series = checked_len(r.u64()?)?;
    for _ in 0..series {
        let name = r.str()?;
        let nlabels = checked_len(r.u64()?)?;
        let mut labels = Vec::with_capacity(nlabels);
        for _ in 0..nlabels {
            labels.push((r.str()?, r.str()?));
        }
        let label_refs: Vec<(&str, &str)> = labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        match r.u64()? {
            0 => m.counter_add(&name, &label_refs, r.u64()?),
            1 => m.gauge_set(&name, &label_refs, r.f64()?),
            2 => {
                let h = decode_histogram(r)?;
                m.merge_histogram(&name, &label_refs, &h);
            }
            _ => return None,
        }
    }
    Some(m)
}

/// Encodes a set of run journals with exact (bit-level) timestamps and
/// *all* attributes — diagnostic ones included, so a replayed run feeds
/// the Chrome trace identically to a live one.
pub fn encode_runs(w: &mut Writer, runs: &[RunJournal]) {
    w.u64(runs.len() as u64);
    for run in runs {
        w.u32(run.problem);
        w.u32(run.sample);
        w.u64(run.context.len() as u64);
        for (k, v) in &run.context {
            w.str(k);
            w.str(v);
        }
        w.u64(run.events.len() as u64);
        for ev in &run.events {
            w.str(&ev.name);
            w.u32(ev.depth);
            w.f64(ev.t_start);
            w.f64(ev.t_end);
            w.u64(ev.attrs.len() as u64);
            for (k, v) in &ev.attrs {
                w.str(k);
                match v {
                    AttrValue::Str(s) => {
                        w.u64(0);
                        w.str(s);
                    }
                    AttrValue::Int(i) => {
                        w.u64(1);
                        w.i64(*i);
                    }
                    AttrValue::Float(f) => {
                        w.u64(2);
                        w.f64(*f);
                    }
                    AttrValue::Bool(b) => {
                        w.u64(3);
                        w.bool(*b);
                    }
                }
            }
        }
    }
}

/// Decodes a set of run journals; `None` on any malformation.
pub fn decode_runs(r: &mut Reader<'_>) -> Option<Vec<RunJournal>> {
    let nruns = checked_len(r.u64()?)?;
    let mut runs = Vec::with_capacity(nruns);
    for _ in 0..nruns {
        let problem = r.u32()?;
        let sample = r.u32()?;
        let nctx = checked_len(r.u64()?)?;
        let mut context = Vec::with_capacity(nctx);
        for _ in 0..nctx {
            context.push((r.str()?, r.str()?));
        }
        let nevents = checked_len(r.u64()?)?;
        let mut events = Vec::with_capacity(nevents);
        for _ in 0..nevents {
            let name = r.str()?;
            let depth = r.u32()?;
            let t_start = r.f64()?;
            let t_end = r.f64()?;
            let nattrs = checked_len(r.u64()?)?;
            let mut attrs = Vec::with_capacity(nattrs);
            for _ in 0..nattrs {
                let key = r.str()?;
                let value = match r.u64()? {
                    0 => AttrValue::Str(r.str()?),
                    1 => AttrValue::Int(r.i64()?),
                    2 => AttrValue::Float(r.f64()?),
                    3 => AttrValue::Bool(r.bool()?),
                    _ => return None,
                };
                attrs.push((key, value));
            }
            events.push(SpanEvent {
                name,
                depth,
                t_start,
                t_end,
                attrs,
            });
        }
        runs.push(RunJournal {
            problem,
            sample,
            context,
            events,
        });
    }
    Some(runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let mut w = Writer::new();
        w.u64(42);
        w.i64(-7);
        w.i128(-123_456_789_012_345_678_901_234_567);
        w.f64(0.1);
        w.f64(f64::NAN);
        w.bool(true);
        w.str("hello world\nwith % specials\t\u{e9}");
        w.str("");
        let payload = w.finish();
        let mut r = Reader::new(&payload);
        assert_eq!(r.u64(), Some(42));
        assert_eq!(r.i64(), Some(-7));
        assert_eq!(r.i128(), Some(-123_456_789_012_345_678_901_234_567));
        assert_eq!(r.f64().map(f64::to_bits), Some(0.1f64.to_bits()));
        assert!(r.f64().is_some_and(f64::is_nan), "NaN survives via bits");
        assert_eq!(r.bool(), Some(true));
        assert_eq!(
            r.str().as_deref(),
            Some("hello world\nwith % specials\t\u{e9}")
        );
        assert_eq!(r.str().as_deref(), Some(""));
        assert!(r.at_end());
    }

    /// The per-byte escaper `Writer::str` replaced: the oracle its
    /// output must match byte for byte.
    fn escape_per_byte(bytes: &[u8]) -> String {
        let mut tok = String::from("$");
        for &b in bytes {
            if plain(b) {
                tok.push(b as char);
            } else {
                tok.push_str(&format!("%{b:02X}"));
            }
        }
        tok
    }

    fn escaped(bytes: &[u8]) -> String {
        let mut out = b"$".to_vec();
        escape_into(&mut out, bytes);
        String::from_utf8(out).expect("ASCII")
    }

    #[test]
    fn escaping_matches_the_per_byte_escaper_on_every_byte() {
        for b in 0..=255u8 {
            // Alone, at both ends of a plain run, and repeated.
            for bytes in [vec![b], vec![b'a', b, b'z'], vec![b, b, b'-', b]] {
                assert_eq!(escaped(&bytes), escape_per_byte(&bytes), "byte {b:#04x}");
            }
        }
        assert_eq!(escaped(b""), "$");
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig {
            cases: 256,
            ..proptest::test_runner::ProptestConfig::default()
        })]

        /// Random UTF-8, weighted towards the escaped ranges: the
        /// writer's token equals the per-byte escaper's, and reads back.
        #[test]
        fn str_tokens_match_the_per_byte_escaper(
            points in proptest::collection::vec(0u32..0x11_0000, 0..48),
            ascii in proptest::collection::vec(0u8..0x80, 0..48),
        ) {
            let mut s: String = points.iter().filter_map(|&c| char::from_u32(c)).collect();
            s.extend(ascii.iter().map(|&b| char::from(b)));
            let mut w = Writer::new();
            w.str(&s);
            proptest::prop_assert_eq!(w.payload(), escape_per_byte(s.as_bytes()));
            proptest::prop_assert_eq!(Reader::new(w.payload()).str(), Some(s));
        }
    }

    #[test]
    fn integer_tokens_match_to_string() {
        let mut w = Writer::new();
        let mut want = Vec::new();
        for v in [0, 1, 9, 10, 99, 100, 12_345, u64::from(u32::MAX), u64::MAX] {
            w.u64(v);
            want.push(v.to_string());
        }
        for v in [0, -1, 7, -10, i64::MAX, i64::MIN] {
            w.i64(v);
            want.push(v.to_string());
        }
        for v in [0, -5, i128::MAX, i128::MIN] {
            w.i128(v);
            want.push(v.to_string());
        }
        w.bool(false);
        want.push("0".into());
        assert_eq!(w.finish(), want.join(" "));
    }

    #[test]
    fn malformed_tokens_decode_to_none() {
        assert_eq!(Reader::new("notanumber").u64(), None);
        assert_eq!(Reader::new("2").bool(), None);
        assert_eq!(Reader::new("nosigil").str(), None);
        assert_eq!(Reader::new("$%zz").str(), None, "bad hex escape");
        assert_eq!(Reader::new("$%F").str(), None, "truncated escape");
        assert_eq!(Reader::new("").u64(), None, "exhausted payload");
    }

    #[test]
    fn oversized_lengths_are_rejected_not_allocated() {
        let mut w = Writer::new();
        w.u64(u64::MAX); // claimed run count
        let payload = w.finish();
        assert!(decode_runs(&mut Reader::new(&payload)).is_none());
        assert!(decode_metrics(&mut Reader::new(&payload)).is_none());
    }

    #[test]
    fn fnv64_is_stable() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn seals_open_only_intact_records() {
        let sealed = seal("7 $cell");
        assert_eq!(sealed, format!("{:016x} 7 $cell", fnv64(b"7 $cell")));
        assert_eq!(unseal(&sealed), Some("7 $cell"));
        assert_eq!(unseal(&seal("")), Some(""));
        // One changed payload byte, a short or padded checksum, a
        // sign, a missing separator: all refused.
        assert_eq!(unseal(&sealed.replace("7 $", "3 $")), None);
        assert_eq!(unseal(&sealed[1..]), None);
        assert_eq!(unseal(&format!("0{sealed}")), None);
        assert_eq!(unseal(&format!("+{}", &sealed[1..])), None);
        assert_eq!(unseal(&sealed.replacen(' ', "", 1)), None);
        assert_eq!(unseal(""), None);
        // A multi-byte character across byte 16 never panics.
        assert_eq!(unseal(&format!("0{} x", "\u{e9}".repeat(8))), None);
    }

    #[test]
    fn metrics_round_trip_bitwise() {
        let mut m = MetricsRegistry::new();
        m.counter_add("hits", &[("phase", "compile")], 7);
        m.gauge_set("depth", &[], 0.1 + 0.2); // not exactly 0.3
        m.observe("lat", &[("q", "x")], &[0.5, 1.0], 0.1);
        m.observe("lat", &[("q", "x")], &[0.5, 1.0], 2.0);
        let mut w = Writer::new();
        encode_metrics(&mut w, &m);
        let payload = w.finish();
        let mut r = Reader::new(&payload);
        let back = decode_metrics(&mut r).expect("round trip");
        assert!(r.at_end());
        assert_eq!(back, m);
        assert_eq!(back.render(), m.render());
    }

    #[test]
    fn runs_round_trip_bitwise() {
        let runs = vec![RunJournal {
            problem: 3,
            sample: 1,
            context: vec![("model".into(), "sim a/b".into())],
            events: vec![SpanEvent {
                name: "llm.chat".into(),
                depth: 1,
                t_start: 0.1,
                t_end: 2.300_000_000_000_001,
                attrs: vec![
                    ("tokens".into(), AttrValue::Int(40)),
                    ("kind".into(), AttrValue::Str("generate".into())),
                    ("cache_hit".into(), AttrValue::Bool(true)),
                    ("ratio".into(), AttrValue::Float(0.1)),
                ],
            }],
        }];
        let mut w = Writer::new();
        encode_runs(&mut w, &runs);
        let payload = w.finish();
        let mut r = Reader::new(&payload);
        let back = decode_runs(&mut r).expect("round trip");
        assert!(r.at_end());
        assert_eq!(back, runs);
        // Bit-exact timestamps, not epsilon-equal.
        assert_eq!(
            back[0].events[0].t_end.to_bits(),
            runs[0].events[0].t_end.to_bits()
        );
    }

    #[test]
    fn truncated_payloads_decode_to_none() {
        let mut m = MetricsRegistry::new();
        m.counter_add("hits", &[], 1);
        let mut w = Writer::new();
        encode_metrics(&mut w, &m);
        let payload = w.finish();
        for cut in 0..payload.len() {
            let mut r = Reader::new(&payload[..cut]);
            // Either decodes to a shorter valid prefix (impossible here:
            // the leading count pins the length) or returns None — but
            // never panics.
            assert!(
                decode_metrics(&mut r).is_none() || cut == payload.len(),
                "cut at {cut} must not produce a phantom registry"
            );
        }
    }
}

//! Persistent EDA-cache robustness suite: the on-disk tier
//! (`AIVRIL_EDA_CACHE_DIR`) must accelerate later processes without
//! ever changing results — and must treat every corrupt byte on disk
//! as a miss, never a panic and never a wrong report.

use aivril_bench::{Flow, Harness, HarnessConfig};
use aivril_llm::profiles;
use aivril_metrics::EvalOutcome;
use std::fs;
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aivril-diskcache-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn config(dir: Option<&Path>, threads: usize) -> HarnessConfig {
    HarnessConfig {
        samples: 2,
        task_limit: 4,
        threads,
        eda_cache: true,
        eda_cache_dir: dir.map(|d| d.to_str().expect("utf-8 temp path").to_string()),
        ..HarnessConfig::default()
    }
}

fn evaluate(h: &Harness) -> (Vec<EvalOutcome>, aivril_bench::EvalStats) {
    h.evaluate_with_stats(&profiles::claude35_sonnet(), true, Flow::Aivril2)
}

fn assert_bit_identical(a: &[EvalOutcome], b: &[EvalOutcome], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.task, y.task, "{what}");
        for (s, t) in x.samples.iter().zip(&y.samples) {
            assert_eq!(s.syntax, t.syntax, "{what}: {}", x.task);
            assert_eq!(s.functional, t.functional, "{what}: {}", x.task);
            assert_eq!(
                s.total_latency.to_bits(),
                t.total_latency.to_bits(),
                "{what}: {} latency",
                x.task
            );
        }
    }
}

#[test]
fn disk_tier_replays_across_harnesses_bit_identically() {
    let dir = temp_dir("roundtrip");
    let reference = {
        let h = Harness::new(config(None, 2));
        evaluate(&h).0
    };

    let first = Harness::new(config(Some(&dir), 2));
    assert_eq!(
        first.disk_cache_stats().expect("disk tier on"),
        aivril_eda::DiskStats::default()
    );
    let (outcomes_a, stats_a) = evaluate(&first);
    assert_bit_identical(&reference, &outcomes_a, "disk tier must not change results");
    let disk_a = first.disk_cache_stats().unwrap();
    assert!(disk_a.writes > 0, "computed results must be persisted");
    assert_eq!(disk_a.hits, 0, "an empty store cannot hit");

    // A second, fresh harness over the same directory: same results,
    // now answered from disk.
    let second = Harness::new(config(Some(&dir), 2));
    let (outcomes_b, stats_b) = evaluate(&second);
    assert_bit_identical(&reference, &outcomes_b, "disk hits must be byte-identical");
    let disk_b = second.disk_cache_stats().unwrap();
    assert!(disk_b.hits > 0, "second process must hit the disk store");
    assert_eq!(disk_b.writes, 0, "disk-loaded values are never re-written");

    // Whole-invocation accounting stays schedule- and disk-independent:
    // the disk probe happens *after* the memory miss is recorded. The
    // incremental parse/elab counters are phase-level by design — a
    // disk-replayed invocation never runs its phases — so a warm disk
    // legitimately shrinks them and they are excluded here.
    let (a, b) = (
        stats_a.eda_cache.expect("cache on"),
        stats_b.eda_cache.expect("cache on"),
    );
    assert_eq!(
        (a.hits, a.misses, a.entries),
        (b.hits, b.misses, b.entries),
        "whole-invocation accounting must not depend on the disk tier's contents"
    );
    assert!(
        b.parse_misses <= a.parse_misses && b.elab_misses <= a.elab_misses,
        "disk replays can only skip phase work, never add it"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn memory_accounting_is_thread_independent_with_disk_tier_on() {
    let dir1 = temp_dir("threads1");
    let dir4 = temp_dir("threads4");
    let (_, stats_serial) = evaluate(&Harness::new(config(Some(&dir1), 1)));
    let (_, stats_parallel) = evaluate(&Harness::new(config(Some(&dir4), 4)));
    assert_eq!(
        stats_serial.eda_cache, stats_parallel.eda_cache,
        "hit accounting must be schedule-independent with the disk tier on"
    );
    let _ = fs::remove_dir_all(&dir1);
    let _ = fs::remove_dir_all(&dir4);
}

/// The pack files in `dir`, sorted by name.
fn packs(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "pack"))
        .collect();
    out.sort();
    out
}

/// Re-seals a record body (`<op> <key> <payload>`) the way a writer
/// would: `{fnv64:016x} {body}`.
fn reseal(body: &str) -> String {
    aivril_obs::codec::seal(body)
}

#[test]
fn corrupt_entries_degrade_to_miss_with_correct_results() {
    let dir = temp_dir("corrupt");
    let reference = {
        let h = Harness::new(config(Some(&dir), 2));
        evaluate(&h).0
    };

    // One harness, one pack. Vandalise every record in a rotating set
    // of ways: a truncated record, a garbage line, a wrong op under an
    // intact seal, a flipped payload byte; and move the rest, intact,
    // into a pack of another format version and into a foreign file.
    let pack = packs(&dir);
    assert_eq!(pack.len(), 1, "the first run wrote one pack");
    let text = fs::read_to_string(&pack[0]).unwrap();
    let mut lines = text.lines();
    let header = lines.next().unwrap().to_string();
    assert_eq!(header, "aivril.edacache 2");
    let records: Vec<&str> = lines.collect();
    assert!(records.len() >= 6, "the first run persisted records");
    let (mut damaged, mut old_version, mut foreign) = (Vec::new(), Vec::new(), Vec::new());
    for (i, line) in records.iter().enumerate() {
        let body = &line[17..];
        match i % 6 {
            0 => damaged.push(line[..line.len() / 2].to_string()),
            1 => damaged.push("\u{0}\u{fffd}not a cache record\u{0}".to_string()),
            2 => {
                let (op, rest) = body.split_once(' ').unwrap();
                let other = if op == "analyze" {
                    "simulate"
                } else {
                    "analyze"
                };
                damaged.push(reseal(&format!("{other} {rest}")));
            }
            3 => {
                // The payload's last token is a float's bits, or a
                // telemetry count: change its last digit.
                let mut bytes = line.as_bytes().to_vec();
                let last = bytes.len() - 1;
                bytes[last] = if bytes[last] == b'5' { b'6' } else { b'5' };
                damaged.push(String::from_utf8(bytes).unwrap());
            }
            4 => old_version.push(line.to_string()),
            _ => foreign.push(line.to_string()),
        }
    }
    let write = |path: PathBuf, lines: &[String]| {
        fs::write(
            path,
            lines.iter().map(|l| format!("{l}\n")).collect::<String>(),
        )
        .unwrap();
    };
    write(pack[0].clone(), &[&[header][..], &damaged].concat());
    write(
        dir.join("old.pack"),
        &[&["aivril.edacache 1".to_string()][..], &old_version].concat(),
    );
    write(dir.join("foreign.pack"), &foreign);

    let h = Harness::new(config(Some(&dir), 2));
    let (outcomes, _) = evaluate(&h);
    assert_bit_identical(
        &reference,
        &outcomes,
        "corrupt entries must never surface as wrong reports",
    );
    let disk = h.disk_cache_stats().unwrap();
    assert_eq!(disk.hits, 0, "every vandalised entry must miss: {disk:?}");
    assert!(disk.errors > 0, "corruption must be counted: {disk:?}");
    assert!(disk.writes > 0, "recomputed results are re-persisted");

    // And a final pass over the healed store hits again.
    let healed = Harness::new(config(Some(&dir), 2));
    let (outcomes, _) = evaluate(&healed);
    assert_bit_identical(&reference, &outcomes, "healed store");
    let disk = healed.disk_cache_stats().unwrap();
    assert!(disk.hits > 0 && disk.writes == 0, "{disk:?}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn racing_writers_are_atomic_and_consistent() {
    let dir = temp_dir("race");
    let reference = {
        let h = Harness::new(config(None, 2));
        evaluate(&h).0
    };

    // Two independent harnesses (≈ two shard processes) hammer the
    // same directory concurrently, each appending to a pack of its own
    // while indexing the other's as it grows.
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let (dir, reference) = (&dir, &reference);
            scope.spawn(move || {
                let h = Harness::new(config(Some(dir), 2));
                let (outcomes, _) = evaluate(&h);
                assert_bit_identical(reference, &outcomes, "racing writer");
            });
        }
    });

    // Whatever interleaving happened, the store is fully readable.
    let h = Harness::new(config(Some(&dir), 1));
    let (outcomes, _) = evaluate(&h);
    assert_bit_identical(&reference, &outcomes, "post-race reader");
    let disk = h.disk_cache_stats().unwrap();
    assert!(
        disk.hits > 0 && disk.errors == 0 && disk.writes == 0,
        "{disk:?}"
    );
    // At most one pack per writer (a writer that found everything in
    // the other's pack never opens one), every record newline-terminated.
    let packs = packs(&dir);
    assert!((1..=2).contains(&packs.len()), "{} packs", packs.len());
    for pack in &packs {
        assert!(
            fs::read(pack).unwrap().ends_with(b"\n"),
            "{}",
            pack.display()
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A cache opened on the directory *before* another one stores still
/// finds the other's entries afterwards: a memory miss indexes what
/// other packs appended since the last look.
#[test]
fn caches_see_entries_stored_after_they_opened() {
    use aivril_eda::{EdaCache, HdlFile, ToolSuite, XsimToolSuite};
    let dir = temp_dir("visibility");
    let files = |i: u32| {
        vec![HdlFile::new(
            "tb.v",
            format!("module tb; initial begin $display(\"{i}\"); $finish; end endmodule\n"),
        )]
    };
    let early = XsimToolSuite::new().with_cache(EdaCache::persistent(&dir));
    let writer = XsimToolSuite::new().with_cache(EdaCache::persistent(&dir));
    // The early cache looks first, at an empty directory.
    let own = format!("{:?}", early.analyze(&files(0)));
    let want = format!("{:?}", writer.analyze(&files(1)));
    let got = format!("{:?}", early.analyze(&files(1)));
    assert_eq!(got, want);
    let stats = early.cache().and_then(EdaCache::disk_stats).unwrap();
    assert_eq!(
        (stats.hits, stats.misses, stats.writes),
        (1, 1, 1),
        "{stats:?}"
    );
    // And the other way round.
    assert_eq!(format!("{:?}", writer.analyze(&files(0))), own);
    let stats = writer.cache().and_then(EdaCache::disk_stats).unwrap();
    assert_eq!((stats.hits, stats.writes), (1, 1), "{stats:?}");
    let _ = fs::remove_dir_all(&dir);
}

/// Many threads race on fresh keys over a pre-filled store. The disk
/// load runs inside each slot's one initialiser, so every entry is read
/// from disk exactly once and a thread that finds the slot claimed but
/// not yet filled waits for that load instead of recomputing the value
/// and writing it back.
#[test]
fn racing_lookups_of_prefilled_keys_never_rewrite() {
    use aivril_eda::{EdaCache, HdlFile, ToolSuite, XsimToolSuite};
    use std::sync::Barrier;
    const THREADS: usize = 8;
    const KEYS: usize = 48;
    let dir = temp_dir("prefill-race");
    let designs: Vec<Vec<HdlFile>> = (0..KEYS)
        .map(|i| {
            vec![HdlFile::new(
                format!("tb{i}.v"),
                format!(
                    "module tb; reg [7:0] r; initial begin r = {i}; \
                     $display(\"r=%d\", r); $finish; end endmodule\n"
                ),
            )]
        })
        .collect();
    // Debug text stands in for equality: the reports hold floats, and
    // `{:?}` prints each one in a form that round-trips exactly.
    let run = |suite: &XsimToolSuite, files: &[HdlFile]| {
        format!(
            "{:?} {:?}",
            suite.analyze(files),
            suite.simulate(files, Some("tb"))
        )
    };

    let fill = XsimToolSuite::new().with_cache(EdaCache::persistent(&dir));
    let want: Vec<_> = designs.iter().map(|f| run(&fill, f)).collect();
    let filled = fill.cache().and_then(EdaCache::disk_stats).unwrap();
    assert_eq!(filled.writes, 2 * KEYS as u64, "{filled:?}");

    let cache = EdaCache::persistent(&dir);
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (cache, barrier, designs, want) = (&cache, &barrier, &designs, &want);
            scope.spawn(move || {
                let suite = XsimToolSuite::new().with_cache(cache.clone());
                barrier.wait();
                // Half the threads walk the keys backwards so claims
                // and loads interleave from both ends.
                let order: Vec<usize> = if t % 2 == 0 {
                    (0..KEYS).collect()
                } else {
                    (0..KEYS).rev().collect()
                };
                for i in order {
                    assert_eq!(run(&suite, &designs[i]), want[i], "key {i}");
                }
            });
        }
    });
    let disk = cache.disk_stats().unwrap();
    assert_eq!(
        disk.writes, 0,
        "pre-filled entries were recomputed: {disk:?}"
    );
    assert_eq!(disk.hits, 2 * KEYS as u64, "{disk:?}");
    assert_eq!(disk.errors, 0, "{disk:?}");
    let _ = fs::remove_dir_all(&dir);
}

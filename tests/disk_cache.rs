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

#[test]
fn corrupt_entries_degrade_to_miss_with_correct_results() {
    let dir = temp_dir("corrupt");
    let reference = {
        let h = Harness::new(config(Some(&dir), 2));
        evaluate(&h).0
    };

    // Vandalise every entry in a rotating set of ways: truncation,
    // garbage bytes, a wrong version header, a flipped checksum.
    let mut entries: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "entry"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "the first run persisted entries");
    for (i, path) in entries.iter().enumerate() {
        let text = fs::read_to_string(path).unwrap();
        match i % 4 {
            0 => fs::write(path, &text[..text.len() / 2]).unwrap(),
            1 => fs::write(path, b"\x00\xffnot a cache entry\x00").unwrap(),
            2 => fs::write(
                path,
                text.replace("aivril.edacache 1 ", "aivril.edacache 99 "),
            )
            .unwrap(),
            _ => fs::write(path, text.replace(char::is_numeric, "5")).unwrap(),
        }
    }

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
    assert!(healed.disk_cache_stats().unwrap().hits > 0);
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
    // same directory concurrently. Tempfile + rename staging means a
    // reader can only ever see absent or complete entries, and both
    // writers produce identical bytes for a given key.
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
    assert!(disk.hits > 0 && disk.errors == 0, "{disk:?}");
    // No tempfiles leaked past the renames.
    let leftovers: Vec<_> = fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
        .collect();
    assert!(leftovers.is_empty(), "staging files must be renamed away");
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

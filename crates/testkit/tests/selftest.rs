//! The test kit must itself be trustworthy: `check` is deterministic for
//! a fixed seed, shrinking converges to a minimal counterexample on a
//! planted bug, the regression corpus round-trips, and the bench JSON
//! report survives serde-free hand parsing.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};

use testkit::bench::{parse_report, Bench};
use testkit::prop::{
    minimize, one_of, ranges, u32s, vecs, weighted, Config, Gen, Source, //
};

/// The planted bug every shrinking test hunts: a vector that contains an
/// element `>= 1000`. The unique minimal counterexample is `[1000]`,
/// i.e. the choice tape `[1, 1000]` (length choice, element choice).
fn planted_bug(g: &mut Source) {
    let v = g.draw(&vecs(u32s(), 0..100));
    assert!(v.iter().all(|&x| x < 1000), "planted bug: {v:?}");
}

#[test]
fn check_is_deterministic_for_a_fixed_seed() {
    let trace = |seed: u64| {
        let log = RefCell::new(Vec::new());
        Config::new(40).seed(seed).persist(false).run(|g| {
            let a = g.draw(&ranges(5u64..500));
            let b = g.draw(&vecs(u32s(), 0..10));
            let c = g.draw(&weighted(vec![
                (3, u32s().map(u64::from).boxed()),
                (1, ranges(0u64..7).boxed()),
            ]));
            log.borrow_mut().push((a, b, c));
        });
        log.into_inner()
    };
    let first = trace(0xDEAD_BEEF);
    assert_eq!(first, trace(0xDEAD_BEEF), "same seed must replay identically");
    assert_ne!(first, trace(0xDEAD_BEEF + 1), "different seeds must diverge");
}

#[test]
fn shrinking_converges_to_the_minimal_counterexample() {
    // A deliberately noisy failing tape: a 5-element vector with two
    // offending values and assorted junk.
    let tape = vec![5, 5000, 3, 77, 1500];
    let minimal = minimize(&planted_bug, tape);
    assert_eq!(minimal, vec![1, 1000], "greedy shrink must reach [1000]");
}

#[test]
fn shrinking_from_a_random_failure_is_minimal_too() {
    // Find a genuinely random failing case first, then shrink it.
    let mut failing = None;
    for seed in 0..5000u64 {
        let mut src = Source::random(seed);
        if catch_unwind(AssertUnwindSafe(|| planted_bug(&mut src))).is_err() {
            failing = Some(src.tape().to_vec());
            break;
        }
    }
    let tape = failing.expect("a random failure exists");
    assert_eq!(minimize(&planted_bug, tape), vec![1, 1000]);
}

#[test]
fn failures_are_persisted_and_replayed_from_the_corpus() {
    let dir = std::env::temp_dir().join(format!("testkit-selftest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // First run: the planted bug fails, is shrunk, and is recorded.
    let failure = catch_unwind(AssertUnwindSafe(|| {
        Config::new(100)
            .seed(7)
            .name("planted")
            .corpus_dir(&dir)
            .run(planted_bug);
    }));
    let msg = *failure.expect_err("planted bug must fail").downcast::<String>().unwrap();
    // The property's own assertion message must surface in the report
    // (regression check for the &Box<dyn Any> downcast footgun).
    assert!(msg.contains("planted bug: [1000]"), "got: {msg}");
    assert!(msg.contains("minimal tape (2 choices): planted: 1 1000"), "got: {msg}");
    let corpus = std::fs::read_to_string(dir.join("testkit-regressions")).unwrap();
    assert!(corpus.contains("planted: 1 1000"), "corpus: {corpus}");

    // Second run with zero random cases: the corpus alone reproduces it.
    let replay = catch_unwind(AssertUnwindSafe(|| {
        Config::new(0).name("planted").corpus_dir(&dir).run(planted_bug);
    }));
    let msg = *replay.expect_err("corpus must replay the failure").downcast::<String>().unwrap();
    assert!(msg.contains("reproduced from the regression corpus"), "got: {msg}");

    // Entries for other tests are ignored.
    Config::new(0).name("unrelated").corpus_dir(&dir).run(planted_bug);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replay_clamps_out_of_bound_choices_and_pads_with_zeros() {
    let mut src = Source::replay(vec![205, 9]);
    assert_eq!(src.draw(&ranges(0u64..100)), 5, "205 % 100");
    assert_eq!(src.draw(&ranges(10u64..20)), 19);
    assert_eq!(src.draw(&ranges(10u64..20)), 10, "past-the-end draws are minimal");
    assert_eq!(src.tape(), &[5, 9, 0], "tape is normalised");
}

#[test]
fn generators_respect_bounds_and_weights() {
    Config::new(200).seed(11).persist(false).run(|g| {
        let r = g.draw(&ranges(3u32..9));
        assert!((3..9).contains(&r));
        let v = g.draw(&vecs(ranges(0u8..2), 2..5));
        assert!((2..5).contains(&v.len()));
        let w = g.draw(&one_of(vec![
            ranges(0u32..1).boxed(),
            ranges(10u32..11).boxed(),
        ]));
        assert!(w == 0 || w == 10);
    });
    // A zero-weight arm is never taken.
    Config::new(200).seed(12).persist(false).run(|g| {
        let w = g.draw(&weighted(vec![
            (1, ranges(0u32..5).boxed()),
            (0, ranges(100u32..200).boxed()),
        ]));
        assert!(w < 5, "zero-weight arm selected: {w}");
    });
}

#[test]
fn filtered_generators_discard_rather_than_fail() {
    // An unsatisfiable filter must not turn into a test failure panic
    // until the discard budget is exhausted — and then with a clear
    // message naming the filter.
    let out = catch_unwind(AssertUnwindSafe(|| {
        Config::new(5).seed(3).persist(false).run(|g| {
            let _ = g.draw(&u32s().filter(|_| false));
        });
    }));
    let msg = *out.expect_err("discard budget must trip").downcast::<String>().unwrap();
    assert!(msg.contains("discarded"), "got: {msg}");
    assert!(msg.contains("filter rejected"), "got: {msg}");

    // A satisfiable filter works and holds its invariant.
    Config::new(100).seed(4).persist(false).run(|g| {
        let even = g.draw(&u32s().filter(|v| v % 2 == 0));
        assert_eq!(even % 2, 0);
    });
}

#[test]
fn bench_iter_with_setup_times_only_the_routine() {
    use std::cell::Cell;
    use std::rc::Rc;

    let mut c = Bench::new("setup_selftest");
    let setups = Rc::new(Cell::new(0u64));
    let runs = Rc::new(Cell::new(0u64));
    let mut g = c.benchmark_group("g");
    g.sample_size(4);
    {
        let (setups, runs) = (Rc::clone(&setups), Rc::clone(&runs));
        g.bench_function("consume", |b| {
            b.iter_with_setup(
                || {
                    setups.set(setups.get() + 1);
                    vec![1u64; 256]
                },
                |v| {
                    runs.set(runs.get() + 1);
                    v.iter().sum::<u64>()
                },
            );
        });
    }
    g.finish();

    // Every routine invocation consumed exactly one fresh setup value.
    assert_eq!(setups.get(), runs.get(), "one setup per routine call");
    assert!(runs.get() >= 4, "at least one routine call per sample");
    let r = &c.records()[0];
    assert_eq!(r.samples, 4);
    assert!(r.median_ns > 0.0, "a timed loop cannot be free");
}

#[test]
fn bench_iter_custom_records_the_time_the_routine_reports() {
    use std::time::Duration;

    let mut c = Bench::new("custom_selftest");
    let mut g = c.benchmark_group("g");
    g.sample_size(4);
    g.bench_function("fixed", |b| {
        b.iter_custom(|iters| {
            // Untimed work between iterations does not reach the record.
            std::hint::black_box((0..iters * 100).sum::<u64>());
            Duration::from_nanos(1_000 * iters)
        });
    });
    g.finish();
    let r = &c.records()[0];
    assert_eq!(r.samples, 4);
    assert_eq!(r.median_ns, 1_000.0);
    assert_eq!(r.max_ns, 1_000.0);
}

#[test]
fn bench_report_round_trips_through_hand_parsing() {
    let mut c = Bench::new("selftest");
    let mut g = c.benchmark_group("group_a");
    g.sample_size(5);
    g.bench_function("fast_add", |b| {
        let mut x = 0u64;
        b.iter(|| {
            x = x.wrapping_add(1);
            x
        });
    });
    g.finish();
    c.bench_function("vec_sum", |b| {
        let xs: Vec<u64> = (0..64).collect();
        b.iter(|| xs.iter().sum::<u64>());
    });

    let json = c.to_json();
    let report = parse_report(&json).expect("own JSON must parse");
    assert_eq!(report.bench, "selftest");
    assert_eq!(report.results, c.records(), "round-trip must be lossless");
    assert_eq!(report.results[0].group, "group_a");
    assert_eq!(report.results[0].name, "fast_add");
    assert_eq!(report.results[0].samples, 5);
    assert_eq!(report.results[1].group, "");
    for r in &report.results {
        assert!(r.min_ns <= r.median_ns && r.median_ns <= r.p90_ns);
        assert!(r.p90_ns <= r.p99_ns && r.p99_ns <= r.max_ns);
        assert!(r.median_ns > 0.0, "a timed loop cannot be free");
    }
}

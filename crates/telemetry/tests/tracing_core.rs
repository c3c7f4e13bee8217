//! Tests of the causal-tracing public API: span nesting through the
//! thread-local stack, cross-thread parenting, flight-recorder snapshots
//! and their exports. Only meaningful with the tracing core compiled in.
#![cfg(feature = "enabled")]

use coolopt_telemetry as telemetry;
use std::sync::Mutex;

/// The flight recorder is process-global; serialize tests that reset it.
static RECORDER_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    RECORDER_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn spans_nest_through_the_thread_local_stack() {
    let _guard = lock();
    telemetry::reset_flight_recorder();
    {
        let outer = telemetry::span("outer_op").attr("n", 20u64);
        assert_eq!(telemetry::current_span_id(), outer.id());
        {
            let inner = telemetry::span("inner_op");
            assert_eq!(telemetry::current_span_id(), inner.id());
            telemetry::trace_instant("mark", &[("step", 3u64.into())]);
        }
        assert_eq!(telemetry::current_span_id(), outer.id());
    }
    assert_eq!(telemetry::current_span_id(), 0);
    let snap = telemetry::flight_snapshot();
    let outer = snap
        .records
        .iter()
        .find(|r| r.name == "outer_op")
        .expect("outer recorded");
    let inner = snap
        .records
        .iter()
        .find(|r| r.name == "inner_op")
        .expect("inner recorded");
    let mark = snap
        .records
        .iter()
        .find(|r| r.name == "mark")
        .expect("instant recorded");
    assert_eq!(inner.parent, outer.id);
    assert_eq!(mark.parent, inner.id);
    assert_eq!(mark.kind, telemetry::RecordKind::Instant);
    assert_eq!(outer.attrs, vec![("n", telemetry::Attr::U64(20))]);
    assert!(outer.end_ns >= inner.end_ns);
    let tree = snap.render_tree();
    assert!(tree.contains("outer_op"), "{tree}");
    let json = snap.to_chrome_json();
    assert!(json.contains("\"traceEvents\":["));
    assert!(json.contains("\"inner_op\""));
}

#[test]
fn explicit_parents_carry_causality_across_threads() {
    let _guard = lock();
    telemetry::reset_flight_recorder();
    let root = telemetry::span("dispatch");
    let root_id = root.id();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let _worker = telemetry::span_child_of("worker_op", root_id);
        });
    });
    drop(root);
    let snap = telemetry::flight_snapshot();
    let worker = snap
        .records
        .iter()
        .find(|r| r.name == "worker_op")
        .expect("worker recorded");
    let root = snap
        .records
        .iter()
        .find(|r| r.name == "dispatch")
        .expect("root recorded");
    assert_eq!(worker.parent, root.id);
    assert_ne!(worker.thread, root.thread, "dense thread ids differ");
}

#[test]
fn record_into_feeds_the_latency_histogram() {
    let _guard = lock();
    telemetry::reset_flight_recorder();
    let before = telemetry::histogram("trace_span_seconds").count();
    let elapsed = telemetry::span("timed_op")
        .record_into("trace_span_seconds")
        .stop();
    assert!(elapsed >= 0.0);
    assert_eq!(
        telemetry::histogram("trace_span_seconds").count(),
        before + 1
    );
    let snap = telemetry::flight_snapshot();
    assert!(snap.records.iter().any(|r| r.name == "timed_op"));
}

#[test]
fn attrs_saturate_at_capacity_without_allocation_or_panic() {
    let _guard = lock();
    telemetry::reset_flight_recorder();
    let mut span = telemetry::span("attr_heavy");
    for i in 0..(telemetry::MAX_SPAN_ATTRS + 3) {
        span.set_attr("k", i);
    }
    drop(span);
    let snap = telemetry::flight_snapshot();
    let rec = snap
        .records
        .iter()
        .find(|r| r.name == "attr_heavy")
        .expect("recorded");
    assert_eq!(rec.attrs.len(), telemetry::MAX_SPAN_ATTRS);
}

#[test]
fn flight_ring_starts_empty_keeps_the_newest_and_counts_drops() {
    let _guard = lock();
    telemetry::reset_flight_recorder();
    let snap = telemetry::flight_snapshot();
    assert!(snap.records.is_empty(), "{} records", snap.records.len());
    assert_eq!(snap.dropped, 0);

    // No test here sizes the ring, so it has the default capacity.
    let capacity = telemetry::DEFAULT_FLIGHT_CAPACITY as u64;
    let k = 5u64;
    for i in 0..capacity + k {
        telemetry::trace_instant("ring_fill", &[("i", i.into())]);
    }
    let snap = telemetry::flight_snapshot();
    assert_eq!(snap.records.len() as u64, capacity);
    assert_eq!(snap.dropped, k);
    let mut kept: Vec<u64> = snap
        .records
        .iter()
        .map(|r| match r.attrs[..] {
            [("i", telemetry::Attr::U64(i))] => i,
            _ => panic!("unexpected record {r:?}"),
        })
        .collect();
    kept.sort_unstable();
    assert_eq!(kept, (k..capacity + k).collect::<Vec<u64>>());
}

#[test]
fn concurrent_writers_and_snapshots_never_see_torn_or_unwritten_records() {
    const MASK: u64 = 0x5a5a_5a5a_5a5a_5a5a;
    const WRITERS: u64 = 2;
    const PER_WRITER: u64 = 20_000;
    let _guard = lock();
    telemetry::reset_flight_recorder();
    let done = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let done = &done;
            scope.spawn(move || {
                for i in 0..PER_WRITER {
                    let x = w * PER_WRITER + i;
                    telemetry::trace_instant(
                        "torn_check",
                        &[("x", x.into()), ("y", (x ^ MASK).into())],
                    );
                }
                done.fetch_add(1, std::sync::atomic::Ordering::Release);
            });
        }
        let mut snapshots = 0;
        while done.load(std::sync::atomic::Ordering::Acquire) < WRITERS || snapshots == 0 {
            for r in telemetry::flight_snapshot().records {
                assert_eq!(r.name, "torn_check", "unwritten or foreign record {r:?}");
                match r.attrs[..] {
                    [("x", telemetry::Attr::U64(x)), ("y", telemetry::Attr::U64(y))] => {
                        assert_eq!(y, x ^ MASK, "torn record {r:?}")
                    }
                    _ => panic!("torn record {r:?}"),
                }
            }
            snapshots += 1;
        }
    });
}

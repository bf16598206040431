//! End-to-end daemon test: boot `newtond`, drive it exactly as an
//! operator would — textual intents over the socket — then break the
//! network and watch the repair surface on a subscription stream.

use newtond::json::Value;
use newtond::{Client, Daemon, DaemonConfig, ErrorKind};
use std::time::Duration;

/// The examples/text_intents.rs suite, sent over the wire this time.
const INTENTS: [(&str, &str); 3] = [
    (
        "web_conn_burst",
        "filter(proto == 6) | filter(tcp.flags == 2) | map(dip) \
         | reduce(dip, count) | where >= 40",
    ),
    (
        "port_scanners",
        "filter(proto == 6) | filter(tcp.flags == 2) | map(sip, dport) \
         | distinct(sip, dport) | map(sip) | reduce(sip, count) | where >= 30",
    ),
    ("jumbo_senders", "map(sip) | reduce(sip, max(len)) | where >= 1200"),
];

const TIMEOUT: Duration = Duration::from_secs(60);

fn test_daemon() -> Daemon {
    let cfg = DaemonConfig {
        topology: newton::net::Topology::chain(4),
        register_slots: 4,
        workload: newton::trace::StreamConfig {
            segments: 2,
            segment: newton::trace::background::TraceConfig {
                packets: 4_000,
                duration_ms: 100,
                ..Default::default()
            },
            ..Default::default()
        },
        ..Default::default()
    };
    Daemon::start(cfg, "127.0.0.1:0").expect("bind an ephemeral port")
}

fn u64_field(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::as_u64).unwrap_or_else(|| panic!("missing u64 {key:?} in {v}"))
}

#[test]
fn daemon_serves_intents_failures_and_reports_over_the_socket() {
    let daemon = test_daemon();
    let addr = daemon.addr().to_string();
    let mut ctl = Client::connect(&addr, TIMEOUT).expect("connect");
    ctl.ping().expect("ping");

    // Install the textual-intent suite over the wire; every install lands
    // in its own register slot with pairwise-distinct offsets.
    let mut ids = Vec::new();
    let mut slots = Vec::new();
    for (name, intent) in INTENTS {
        let r = ctl.install(name, intent).expect("install over the socket");
        ids.push(u64_field(&r, "query") as u32);
        slots.push((u64_field(&r, "slot"), u64_field(&r, "offset")));
    }
    let fourth =
        ctl.install("busy_dsts", "map(dip) | reduce(dip, count) | where >= 1000").expect("4th");
    slots.push((u64_field(&fourth, "slot"), u64_field(&fourth, "offset")));
    for (i, a) in slots.iter().enumerate() {
        for b in &slots[i + 1..] {
            assert_ne!(a.0, b.0, "register slots must be disjoint across live queries");
            assert_ne!(a.1, b.1, "register offsets must be disjoint across live queries");
        }
    }

    // The 5th install must round-trip the allocator error as a structured
    // response — the daemon stays up, nothing panics.
    let err = ctl
        .install("one_too_many", "map(sip) | reduce(sip, count) | where >= 10")
        .expect_err("5th install on 4 slots");
    assert!(err.is_kind(ErrorKind::SlotsExhausted), "got {err}");
    ctl.ping().expect("daemon alive after a rejected install");

    // Broken intents are rejected at the right layer.
    let err = ctl.install("broken", "scan(everything!!)").expect_err("parse error");
    assert!(err.is_kind(ErrorKind::Parse), "got {err}");
    let err = ctl
        .install("invalid", "filter(proto == 999) | map(sip) | reduce(sip, count) | where >= 1")
        .expect_err("validation error");
    assert!(err.is_kind(ErrorKind::Validate), "got {err}");
    let err = ctl.retune(9999, 10).expect_err("retune of an unknown id");
    assert!(err.is_kind(ErrorKind::UnknownQuery), "got {err}");
    let err =
        ctl.retune(ids[0], u64::from(u32::MAX) + 1).expect_err("retune beyond the register range");
    assert!(err.is_kind(ErrorKind::ThresholdOutOfRange), "got {err}");
    ctl.retune(ids[0], 35).expect("an in-range retune still lands");

    // Removing a query frees its slot for the next install.
    let freed = slots[1];
    ctl.remove(ids[1]).expect("remove");
    let again =
        ctl.install("retry", "map(sip) | reduce(sip, count) | where >= 10").expect("freed slot");
    assert_eq!(
        (u64_field(&again, "slot"), u64_field(&again, "offset")),
        freed,
        "the freed slot is the one reused"
    );

    // Second connection: a journal subscriber (sees events from here on).
    let mut sub = Client::connect(&addr, TIMEOUT)
        .expect("subscriber connect")
        .subscribe()
        .expect("subscribe");

    // Fail an edge switch: placement starts at the edges, so it holds
    // rules and the crash is a state-loss event; restore + repair then
    // re-places the lost slices. Both surface on the stream.
    let outcome = ctl.fail_switch(0).expect("inject failure");
    assert_eq!(u64_field(&outcome, "fired"), 1);
    assert_eq!(u64_field(&outcome, "state_loss"), 1, "edge switch held rules");
    let loss = sub
        .wait_for(|e| e.get("type").and_then(Value::as_str) == Some("state_loss"))
        .expect("stream readable")
        .expect("stream still open");
    assert!(u64_field(&loss, "switches") >= 1);

    ctl.restore_switch(0).expect("restore (blank)");
    let repair = ctl.repair().expect("repair pass");
    assert_eq!(u64_field(&repair, "examined"), 4, "all live queries examined");
    assert!(
        !repair.get("repaired").unwrap().as_array().unwrap().is_empty(),
        "the blank switch got its slices back: {repair}"
    );
    let streamed = sub
        .wait_for(|e| e.get("type").and_then(Value::as_str) == Some("repair"))
        .expect("stream readable")
        .expect("stream still open");
    assert!(!streamed.get("repaired").unwrap().as_array().unwrap().is_empty());

    // Replay the workload and fetch the summary back.
    let run = ctl.run(None, Some(0x5EED)).expect("run");
    assert!(u64_field(&run, "packets") > 0);
    assert!(u64_field(&run, "epochs") >= 1);
    let report = ctl.report().expect("report");
    assert_eq!(u64_field(&report, "packets"), u64_field(&run, "packets"));
    assert_eq!(u64_field(&report, "messages"), u64_field(&run, "messages"));

    // Concurrent clients: each gets coherent responses on its own
    // connection while the main one keeps working.
    let workers: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr, TIMEOUT).expect("worker connect");
                for _ in 0..10 {
                    let list = c.list().expect("list");
                    assert_eq!(u64_field(&list, "slots"), 4);
                    assert_eq!(u64_field(&list, "in_use"), 4);
                    c.ping().expect("ping");
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker clean");
    }

    // Clean shutdown: the subscription stream ends, the daemon joins.
    ctl.shutdown().expect("shutdown acknowledged");
    while let Some(_event) = sub.next_event().expect("stream drains") {}
    daemon.join();
}

/// `v["counters"]["name"]` (or gauges/histograms member) as u64.
fn metric(v: &Value, family: &str, name: &str) -> u64 {
    v.get(family)
        .and_then(|f| f.get(name))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("missing {family}.{name} in metrics snapshot"))
}

#[test]
fn metrics_op_serves_request_histograms_and_prometheus_text() {
    let daemon = test_daemon();
    let addr = daemon.addr().to_string();
    let mut ctl = Client::connect(&addr, TIMEOUT).expect("connect");

    // A known request sequence: exactly 7 pings and 1 install before the
    // scrape, so the per-op histogram counts are fully determined.
    for _ in 0..7 {
        ctl.ping().expect("ping");
    }
    ctl.install(INTENTS[0].0, INTENTS[0].1).expect("install");

    let m = ctl.metrics().expect("metrics snapshot");
    let ping =
        m.get("histograms").and_then(|h| h.get("daemon_request_ns_ping")).expect("ping hist");
    assert_eq!(u64_field(ping, "count"), 7, "one observation per ping");
    let (p50, p90, p99, max) = (
        u64_field(ping, "p50"),
        u64_field(ping, "p90"),
        u64_field(ping, "p99"),
        u64_field(ping, "max"),
    );
    assert!(p50 <= p90 && p90 <= p99 && p99 <= max, "quantiles ordered: {p50} {p90} {p99} {max}");
    assert!(max > 0, "a request takes measurable wall-clock");
    assert!(u64_field(ping, "sum") >= max, "sum dominates the max observation");
    let wire =
        m.get("histograms").and_then(|h| h.get("daemon_request_ns_install")).expect("install op");
    assert_eq!(u64_field(wire, "count"), 1, "one observation per install request");
    let install =
        m.get("histograms").and_then(|h| h.get("controller_install_ns")).expect("install hist");
    assert_eq!(u64_field(install, "count"), 1, "the system layer timed the one install");
    assert!(metric(&m, "gauges", "daemon_active_connections") >= 1, "this connection is live");
    assert!(
        metric(&m, "counters", "compile_cache_misses_total") >= 1,
        "the install compiled something"
    );

    // The same registry in the Prometheus text format: HELP/TYPE pairs,
    // cumulative buckets, and a _count that matches the JSON view.
    let text = ctl.metrics_prometheus().expect("prometheus text");
    assert!(text.contains("# HELP daemon_request_ns_ping "), "HELP line present");
    assert!(text.contains("# TYPE daemon_request_ns_ping histogram"), "TYPE line present");
    assert!(text.contains("daemon_request_ns_ping_bucket{le=\"+Inf\"} 7"), "+Inf bucket == count");
    assert!(text.contains("daemon_request_ns_ping_count 7"), "_count == 7");
    assert!(text.contains("# TYPE daemon_active_connections gauge"), "gauges render");
    assert!(text.contains("# TYPE compile_cache_misses_total counter"), "counters render");

    // A run feeds the report op's controller accounting (cache/channel
    // ride along in the result) and the peak-RSS gauge.
    ctl.run(Some(1), Some(7)).expect("run");
    let report = ctl.report().expect("report");
    let cache = report.get("cache").expect("cache stats in report");
    assert!(u64_field(cache, "misses") >= 1);
    let channel = report.get("channel").expect("channel stats in report");
    assert!(u64_field(channel, "rules_installed") >= 1);
    assert!(u64_field(channel, "bytes") > 0);
    let m = ctl.metrics().expect("metrics after run");
    assert_eq!(
        metric(&m, "counters", "channel_bytes_total"),
        u64_field(channel, "bytes"),
        "the live mirror equals the report's controller accounting"
    );
    let rss = metric(&m, "gauges", "process_peak_rss_bytes");
    if newton::metrics::peak_rss_bytes() > 0 {
        assert!(rss > 1 << 20, "peak RSS {rss} implausibly small for a live process");
    }

    ctl.shutdown().expect("shutdown");
    daemon.join();
}

#[test]
fn slow_subscribers_are_truncated_while_fast_ones_stay_lossless() {
    // Small, epoch-dense runs: ~280 journal events per run, far under the
    // 2048-line subscriber buffer, so a subscriber whose connection
    // thread is alive never comes close to the drop bound — only a
    // genuinely wedged one (socket unread until the kernel buffers fill
    // and its connection thread blocks mid-write) accumulates backlog
    // across flushes and starts losing events.
    let cfg = DaemonConfig {
        topology: newton::net::Topology::chain(4),
        register_slots: 4,
        epoch_ms: 10,
        workload: newton::trace::StreamConfig {
            segments: 1,
            segment: newton::trace::background::TraceConfig {
                packets: 800,
                duration_ms: 100,
                ..Default::default()
            },
            ..Default::default()
        },
        subscriber_buffer: 2048,
        ..Default::default()
    };
    let daemon = Daemon::start(cfg, "127.0.0.1:0").expect("bind");
    let addr = daemon.addr().to_string();
    let mut ctl = Client::connect(&addr, TIMEOUT).expect("connect");

    // Both subscribers attach before the first journal event, so every
    // event ever flushed was addressed to both.
    let fast = Client::connect(&addr, TIMEOUT).expect("fast connect").subscribe().expect("fast");
    let mut slow =
        Client::connect(&addr, TIMEOUT).expect("slow connect").subscribe().expect("slow");

    // The fast subscriber drains continuously on its own thread and must
    // never observe a truncation marker.
    let fast_drain = std::thread::spawn(move || {
        let mut fast = fast;
        let mut events = 0u64;
        loop {
            match fast.next_item().expect("fast stream readable") {
                Some(newtond::StreamItem::Event(_)) => events += 1,
                Some(newtond::StreamItem::Truncated(n)) => {
                    panic!("fast subscriber lost {n} events")
                }
                None => return events,
            }
        }
    });

    ctl.install(INTENTS[0].0, INTENTS[0].1).expect("install");

    // Replay until the wedged subscriber's socket path fills and the core
    // starts dropping for it (visible in the live counter). The kernel's
    // loopback buffers absorb a bounded amount, so this terminates; the
    // bail-out only fires if flow control is broken.
    let mut dropped = 0u64;
    for seed in 0..200u64 {
        ctl.run(None, Some(seed)).expect("run");
        let m = ctl.metrics().expect("metrics");
        dropped = metric(&m, "counters", "daemon_subscriber_dropped_events_total");
        if dropped > 0 {
            break;
        }
    }
    assert!(dropped > 0, "200 runs never overflowed the wedged subscriber");

    // The slow subscriber wakes up and drains; once its backlog falls
    // under the buffer again, the next flush owes it a truncation marker
    // before any further event.
    let slow_drain = std::thread::spawn(move || {
        let mut events = 0u64;
        let mut truncated = 0u64;
        let mut markers = 0u64;
        loop {
            match slow.next_item().expect("slow stream readable") {
                Some(newtond::StreamItem::Event(_)) => events += 1,
                Some(newtond::StreamItem::Truncated(n)) => {
                    truncated += n;
                    markers += 1;
                }
                None => return (events, truncated, markers),
            }
        }
    });
    // Give the drain a moment to catch up, then flush fresh events so the
    // marker has a ride.
    std::thread::sleep(Duration::from_millis(500));
    ctl.run(None, Some(9_000)).expect("post-catch-up run");

    let m = ctl.metrics().expect("final metrics");
    let total = metric(&m, "counters", "daemon_journal_events_total");
    let dropped = metric(&m, "counters", "daemon_subscriber_dropped_events_total");
    assert!(
        metric(&m, "gauges", "daemon_subscriber_max_lag_events") >= 2048,
        "the wedged subscriber's backlog high-water mark reached the buffer bound"
    );
    ctl.shutdown().expect("shutdown");

    let fast_events = fast_drain.join().expect("fast drain clean");
    let (slow_events, slow_truncated, slow_markers) = slow_drain.join().expect("slow drain clean");
    assert_eq!(fast_events, total, "the fast subscriber got every flushed event");
    assert!(slow_markers >= 1, "the slow subscriber saw a truncation marker");
    assert_eq!(
        slow_events + slow_truncated,
        total,
        "every event was either delivered or accounted to a marker"
    );
    assert_eq!(slow_truncated, dropped, "markers account exactly the counted drops");
    daemon.join();
}

#[test]
fn update_round_trips_structured_errors_and_keeps_ids_stable() {
    let daemon = test_daemon();
    let addr = daemon.addr().to_string();
    let mut ctl = Client::connect(&addr, TIMEOUT).expect("connect");

    let err = ctl
        .update(7, "ghost", "map(sip) | reduce(sip, count) | where >= 5")
        .expect_err("updating a never-installed id");
    assert!(err.is_kind(ErrorKind::UnknownQuery), "got {err}");

    let installed = ctl.install(INTENTS[0].0, INTENTS[0].1).expect("install");
    let id = u64_field(&installed, "query") as u32;
    let updated =
        ctl.update(id, "web_conn_burst_v2", INTENTS[1].1).expect("in-place update over the socket");
    assert_eq!(u64_field(&updated, "query"), u64::from(id), "update keeps the id");
    assert_eq!(
        u64_field(&updated, "slot"),
        u64_field(&installed, "slot"),
        "update keeps the register slot"
    );

    let list = ctl.list().expect("list");
    let queries = list.get("queries").unwrap().as_array().unwrap();
    assert_eq!(queries.len(), 1);
    assert_eq!(queries[0].get("name").unwrap().as_str(), Some("web_conn_burst_v2"));

    ctl.shutdown().expect("shutdown");
    daemon.join();
}

#[test]
fn inject_outside_the_topology_is_a_bad_request() {
    use newtond::json;

    let daemon = test_daemon();
    let addr = daemon.addr().to_string();
    let mut good = Client::connect(&addr, TIMEOUT).expect("connect");
    good.install(INTENTS[0].0, INTENTS[0].1).expect("install");
    let before = good.list().expect("list before the bad events");

    let mut ctl = Client::connect(&addr, TIMEOUT).expect("connect");
    let err = ctl.fail_switch(999).expect_err("chain(4) has no switch 999");
    assert!(err.is_kind(ErrorKind::BadRequest), "got {err}");
    let err = ctl
        .request(
            "inject",
            vec![("event", json::str("fail_link")), ("a", json::num(0.0)), ("b", json::num(2.0))],
        )
        .expect_err("switches 0 and 2 of chain(4) share no link");
    assert!(err.is_kind(ErrorKind::BadRequest), "got {err}");

    assert_eq!(good.list().expect("list after the bad events"), before);
    let outcome = ctl.fail_switch(3).expect("an in-range switch still fails");
    assert_eq!(u64_field(&outcome, "fired"), 1);
    good.shutdown().expect("shutdown");
    daemon.join();
}

#[test]
fn run_with_a_bad_segments_or_seed_is_a_bad_request() {
    use newtond::json;
    use newtond::server::MAX_RUN_SEGMENTS;

    let daemon = test_daemon();
    let addr = daemon.addr().to_string();
    let mut good = Client::connect(&addr, TIMEOUT).expect("connect");
    good.install(INTENTS[0].0, INTENTS[0].1).expect("install");
    let before = good.list().expect("list before the bad runs");

    // No request here is valid, so none starts a replay.
    let mut ctl = Client::connect(&addr, TIMEOUT).expect("connect");
    let too_many = MAX_RUN_SEGMENTS as f64 + 1.0;
    for field in ["segments", "seed"] {
        for bad in [json::str("many"), json::num(-1.0), json::num(1.5), Value::Null] {
            let err = ctl.request("run", vec![(field, bad.clone())]).expect_err("not a u64");
            assert!(err.is_kind(ErrorKind::BadRequest), "{field} = {bad}: got {err}");
        }
    }
    for segments in [too_many, 1e12] {
        let err = ctl
            .request("run", vec![("segments", json::num(segments))])
            .expect_err("above the segment bound");
        assert!(err.is_kind(ErrorKind::BadRequest), "segments = {segments}: got {err}");
    }

    assert_eq!(good.list().expect("list after the bad runs"), before);
    ctl.ping().expect("the rejecting connection stays usable");
    good.shutdown().expect("shutdown");
    daemon.join();
}

#[test]
fn hostile_lines_get_bad_request_and_leave_other_clients_alone() {
    use newtond::json;
    use newtond::server::MAX_REQUEST_LINE;
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpStream;

    let daemon = test_daemon();
    let addr = daemon.addr().to_string();
    let mut good = Client::connect(&addr, TIMEOUT).expect("connect");
    good.install(INTENTS[0].0, INTENTS[0].1).expect("install");
    let before = good.list().expect("list before the hostile client");

    let sock = TcpStream::connect(&addr).expect("hostile connect");
    sock.set_read_timeout(Some(TIMEOUT)).unwrap();
    let mut hostile = sock.try_clone().unwrap();
    let mut replies = BufReader::new(sock);
    let mut reply = || {
        let mut line = String::new();
        replies.read_line(&mut line).expect("a response line");
        json::parse(line.trim()).expect("the response is JSON")
    };
    let kind = |v: &Value| {
        v.get("error").and_then(|e| e.get("kind")).and_then(Value::as_str).map(str::to_string)
    };

    // Nested far deeper than a connection thread's stack could recurse:
    // answered as a bad request, and the connection stays usable.
    let mut nested = vec![b'['; 10_000];
    nested.push(b'\n');
    hostile.write_all(&nested).unwrap();
    assert_eq!(kind(&reply()).as_deref(), Some("bad_request"));
    hostile.write_all(b"{\"id\":2,\"op\":\"ping\"}\n").unwrap();
    assert_eq!(reply().get("ok").and_then(Value::as_bool), Some(true));

    // An intent spaced with multi-byte whitespace parses like plain
    // spaces: answered, and the core thread keeps serving other clients.
    let spaced = json::obj(vec![
        ("id", json::num(3)),
        ("op", json::str("install")),
        ("name", json::str("spaced")),
        ("intent", json::str("map(sip)\u{a0}|\u{2007}reduce(sip,\u{3000}count) | where >= 10")),
    ]);
    hostile.write_all(format!("{spaced}\n").as_bytes()).unwrap();
    let r = reply();
    assert_eq!(r.get("ok").and_then(Value::as_bool), Some(true), "{r}");
    assert_ne!(good.list().expect("list after the spaced intent"), before);
    let query = r.get("result").map(|v| u64_field(v, "query")).expect("an install result");
    hostile
        .write_all(format!("{{\"id\":4,\"op\":\"remove\",\"query\":{query}}}\n").as_bytes())
        .unwrap();
    assert_eq!(reply().get("ok").and_then(Value::as_bool), Some(true));

    // One byte past the line cap: answered, then the connection closes.
    hostile.write_all(&vec![b'['; MAX_REQUEST_LINE + 1]).unwrap();
    let r = reply();
    assert_eq!(kind(&r).as_deref(), Some("bad_request"));
    let mut rest = Vec::new();
    assert_eq!(replies.read_to_end(&mut rest).expect("clean close"), 0, "connection closed");

    assert_eq!(good.list().expect("list after the hostile client"), before);
    good.shutdown().expect("shutdown");
    daemon.join();
}

//! Exporter to the Chrome `trace_event` JSON format.
//!
//! The emitted document loads directly in `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev). One simulated cycle is rendered as
//! one microsecond (the format's native unit). Rows are grouped into four
//! synthetic processes: cores (stall spans and MMIO transactions), engines
//! (fetch spans and queue-occupancy counter tracks), the NoC (hop
//! instants per router), and the fault plane (injection/recovery
//! instants).

use std::io;
use std::path::Path;

use crate::event::TraceEvent;
use crate::json::Json;
use crate::tracer::TraceRecord;

/// Synthetic process IDs used to group tracks in the viewer.
const PID_CORES: u64 = 0;
const PID_ENGINES: u64 = 1;
const PID_NOC: u64 = 2;
const PID_FAULTS: u64 = 3;
const PID_SERVE: u64 = 4;

fn event_json(name: &str, ph: &str, ts: u64, pid: u64, tid: u64, args: Vec<(&str, Json)>) -> Json {
    let mut members = vec![
        ("name", Json::from(name)),
        ("ph", Json::from(ph)),
        ("ts", Json::from(ts)),
        ("pid", Json::from(pid)),
        ("tid", Json::from(tid)),
    ];
    if ph == "i" {
        // Instant events need a scope; thread scope keeps them on their row.
        members.push(("s", Json::from("t")));
    }
    if !args.is_empty() {
        members.push(("args", Json::obj(args)));
    }
    Json::obj(members)
}

fn complete_event(
    name: &str,
    end_ts: u64,
    dur: u64,
    pid: u64,
    tid: u64,
    args: Vec<(&str, Json)>,
) -> Json {
    let start = end_ts.saturating_sub(dur);
    let mut members = vec![
        ("name", Json::from(name)),
        ("ph", Json::from("X")),
        ("ts", Json::from(start)),
        ("dur", Json::from(end_ts - start)),
        ("pid", Json::from(pid)),
        ("tid", Json::from(tid)),
    ];
    if !args.is_empty() {
        members.push(("args", Json::obj(args)));
    }
    Json::obj(members)
}

fn process_name(pid: u64, name: &str) -> Json {
    Json::obj(vec![
        ("name", Json::from("process_name")),
        ("ph", Json::from("M")),
        ("pid", Json::from(pid)),
        ("tid", Json::from(0u64)),
        ("args", Json::obj(vec![("name", Json::from(name))])),
    ])
}

/// Converts one record to its `trace_event` representation.
#[must_use]
pub fn record_json(rec: &TraceRecord) -> Json {
    let ts = rec.ts.0;
    match rec.event {
        TraceEvent::CoreStallBegin { core, waiting } => event_json(
            "stall",
            "B",
            ts,
            PID_CORES,
            core as u64,
            vec![("waiting", Json::from(waiting.label()))],
        ),
        TraceEvent::CoreStallEnd { core, cause } => event_json(
            "stall",
            "E",
            ts,
            PID_CORES,
            core as u64,
            vec![("cause", Json::from(cause.label()))],
        ),
        TraceEvent::EngineFetchIssue { engine, addr } => event_json(
            "fetch-issue",
            "i",
            ts,
            PID_ENGINES,
            engine as u64,
            vec![("addr", Json::from(format!("{addr:#x}")))],
        ),
        TraceEvent::EngineFetchFill { engine, latency } => complete_event(
            "fetch",
            ts,
            latency,
            PID_ENGINES,
            engine as u64,
            vec![("latency", Json::from(latency))],
        ),
        TraceEvent::QueuePush {
            engine,
            queue,
            occupancy,
        }
        | TraceEvent::QueuePop {
            engine,
            queue,
            occupancy,
        } => event_json(
            // One counter track per (engine, queue); pushes and pops both
            // just sample the new occupancy.
            &format!("e{engine} q{queue} occupancy"),
            "C",
            ts,
            PID_ENGINES,
            0,
            vec![("entries", Json::from(occupancy))],
        ),
        TraceEvent::NocHop { x, y, flits } => event_json(
            "hop",
            "i",
            ts,
            PID_NOC,
            u64::from(y) << 8 | u64::from(x),
            vec![
                ("router", Json::from(format!("({x},{y})"))),
                ("flits", Json::from(u64::from(flits))),
            ],
        ),
        TraceEvent::MmioComplete {
            core,
            addr,
            write,
            latency,
        } => complete_event(
            if write { "mmio-store" } else { "mmio-load" },
            ts,
            latency,
            PID_CORES,
            core as u64,
            vec![("addr", Json::from(format!("{addr:#x}")))],
        ),
        TraceEvent::FaultInjected { site } => event_json(
            site.label(),
            "i",
            ts,
            PID_FAULTS,
            0,
            vec![("kind", Json::from("injected"))],
        ),
        TraceEvent::FaultRecovered { site } => event_json(
            site.label(),
            "i",
            ts,
            PID_FAULTS,
            1,
            vec![("kind", Json::from("recovered"))],
        ),
        // One row per engine on the serving process: switches render as
        // spans covering the charged overhead, dispatches as instants, so
        // Perfetto shows tenant interleaving per engine at a glance.
        TraceEvent::ServeSwitch {
            engine,
            tenant,
            cost,
        } => complete_event(
            "ctx-switch",
            ts,
            cost,
            PID_SERVE,
            engine as u64,
            vec![("tenant", Json::from(tenant))],
        ),
        TraceEvent::ServeDispatch {
            engine,
            tenant,
            rung,
        } => event_json(
            &format!("t{tenant}"),
            "i",
            ts,
            PID_SERVE,
            engine as u64,
            vec![
                ("tenant", Json::from(tenant)),
                ("rung", Json::from(u64::from(rung))),
            ],
        ),
    }
}

/// Builds the full `trace_event` document for a set of records.
#[must_use]
pub fn chrome_trace(records: &[TraceRecord]) -> Json {
    let mut events = vec![
        process_name(PID_CORES, "cores"),
        process_name(PID_ENGINES, "maple engines"),
        process_name(PID_NOC, "noc"),
        process_name(PID_FAULTS, "fault plane"),
        process_name(PID_SERVE, "serving"),
    ];
    events.extend(records.iter().map(record_json));
    Json::obj(vec![
        ("traceEvents", Json::Array(events)),
        ("displayTimeUnit", Json::from("ms")),
        (
            "otherData",
            Json::obj(vec![("timeUnit", Json::from("1 cycle = 1 us"))]),
        ),
    ])
}

/// Renders [`chrome_trace`] to a file.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_chrome_trace(path: &Path, records: &[TraceRecord]) -> io::Result<()> {
    std::fs::write(path, chrome_trace(records).render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{FaultSite, StallCause, WaitKind};
    use maple_sim::Cycle;

    #[test]
    fn document_shape() {
        let records = [
            TraceRecord {
                ts: Cycle(10),
                event: TraceEvent::CoreStallBegin {
                    core: 1,
                    waiting: WaitKind::MmioLoad,
                },
            },
            TraceRecord {
                ts: Cycle(42),
                event: TraceEvent::CoreStallEnd {
                    core: 1,
                    cause: StallCause::ConsumeWait,
                },
            },
            TraceRecord {
                ts: Cycle(50),
                event: TraceEvent::EngineFetchFill {
                    engine: 0,
                    latency: 30,
                },
            },
            TraceRecord {
                ts: Cycle(51),
                event: TraceEvent::FaultInjected {
                    site: FaultSite::DramSpike,
                },
            },
        ];
        let doc = chrome_trace(&records);
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        // 5 process-name metadata events + 4 records.
        assert_eq!(events.len(), 9);
        // The fill renders as a complete event starting latency earlier.
        let fill = &events[7];
        assert_eq!(fill.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(fill.get("ts").unwrap().as_u64(), Some(20));
        assert_eq!(fill.get("dur").unwrap().as_u64(), Some(30));
        // The whole document survives a parse round trip.
        let text = doc.render();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn stall_pairs_share_name_and_track() {
        let b = record_json(&TraceRecord {
            ts: Cycle(1),
            event: TraceEvent::CoreStallBegin {
                core: 3,
                waiting: WaitKind::Mem,
            },
        });
        let e = record_json(&TraceRecord {
            ts: Cycle(9),
            event: TraceEvent::CoreStallEnd {
                core: 3,
                cause: StallCause::L2Miss,
            },
        });
        assert_eq!(b.get("name"), e.get("name"));
        assert_eq!(b.get("pid"), e.get("pid"));
        assert_eq!(b.get("tid"), e.get("tid"));
        assert_eq!(b.get("ph").unwrap().as_str(), Some("B"));
        assert_eq!(e.get("ph").unwrap().as_str(), Some("E"));
    }
}
